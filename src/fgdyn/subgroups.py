"""Finitely generated subgroups of a free group as folded core graphs.

A :class:`StallingsGraph` is the folded, deterministic and co-deterministic
core graph of a subgroup: membership of a reduced word is "reading a loop
at the base state".  Graphs are canonicalized (breadth-first renumbering
from the base over ordered letters), so structural equality is plain
``==`` and is independent of the generator order used to build them.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from .words import Alphabet, AlphabetMismatchError, Letter, Word


def _letter_order(letter: Letter) -> tuple[int, int]:
    # +1, -1, +2, -2, ...
    return (abs(letter), 0 if letter > 0 else 1)


class StallingsGraph:
    """Folded core graph with base state 0.

    ``transitions`` maps ``(state, signed letter)`` to a state and is
    closed under inversion symmetry: ``(s, x) -> t`` iff ``(t, -x) -> s``.
    """

    __slots__ = ("alphabet", "n_states", "transitions")

    def __init__(self, alphabet: Alphabet, n_states: int, transitions: dict):
        self.alphabet = alphabet
        self.n_states = n_states
        self.transitions = transitions

    def step(self, state: int, letter: Letter) -> Optional[int]:
        return self.transitions.get((state, letter))

    def read(self, word: Word, start: int = 0) -> Optional[int]:
        """State reached reading a reduced word, or None if the path dies."""
        state = start
        for letter in word.letters():
            state = self.transitions.get((state, letter))
            if state is None:
                return None
        return state

    def degree(self, state: int) -> int:
        return sum(1 for (s, _x) in self.transitions if s == state)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StallingsGraph)
            and self.alphabet == other.alphabet
            and self.n_states == other.n_states
            and self.transitions == other.transitions
        )

    def __hash__(self) -> int:
        return hash(
            (self.alphabet.names, self.n_states, tuple(sorted(self.transitions.items())))
        )

    def __repr__(self) -> str:
        return f"<StallingsGraph {self.n_states} states, {len(self.transitions) // 2} edges>"


def build_core_graph(alphabet: Alphabet, generators: Sequence[Word]) -> StallingsGraph:
    """Fold the wedge of generator loops into the core graph.

    Identity generators are skipped; an empty generating set yields the
    single-state graph of the trivial subgroup.
    """
    adjacency: list[dict[int, set[int]]] = [dict()]
    parent = [0]

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def add_state() -> int:
        adjacency.append(dict())
        parent.append(len(parent))
        return len(parent) - 1

    def add_edge(s: int, t: int, letter: Letter) -> None:
        adjacency[s].setdefault(letter, set()).add(t)
        adjacency[t].setdefault(-letter, set()).add(s)

    for gen in generators:
        if gen.alphabet != alphabet:
            raise AlphabetMismatchError("generator over a different alphabet")
        if gen.is_identity():
            continue
        prev = 0
        letters = list(gen.letters())
        for i, letter in enumerate(letters):
            nxt = 0 if i == len(letters) - 1 else add_state()
            add_edge(prev, nxt, letter)
            prev = nxt

    # Fold: while some state has two distinct targets for one letter,
    # merge the targets.  Reads go through find() so stale ids are fine.
    work = list(range(len(parent)))
    while work:
        s = find(work.pop())
        for letter, targets in list(adjacency[s].items()):
            canon = {find(t) for t in targets}
            if len(canon) > 1:
                it = iter(sorted(canon))
                keep = next(it)
                for drop in it:
                    parent[drop] = keep
                    for lt, ts in adjacency[drop].items():
                        adjacency[keep].setdefault(lt, set()).update(ts)
                    adjacency[drop] = dict()
                    work.append(keep)
                work.append(s)
                break

    # Determinized transition map over surviving states.
    trans: dict[tuple[int, Letter], int] = {}
    alive = sorted({find(s) for s in range(len(parent))})
    for s in alive:
        for letter, targets in adjacency[find(s)].items():
            canon = {find(t) for t in targets}
            assert len(canon) <= 1
            if canon:
                trans[(s, letter)] = canon.pop()

    # Core trim: drop non-base states of degree <= 1.
    base = find(0)
    changed = True
    while changed:
        changed = False
        degrees: dict[int, int] = {}
        for (s, _letter) in trans:
            degrees[s] = degrees.get(s, 0) + 1
        for s in list(degrees):
            if s != base and degrees[s] <= 1:
                for key in [k for k in trans if k[0] == s or trans[k] == s]:
                    del trans[key]
                changed = True

    return _canonicalize(alphabet, base, trans)


def _canonicalize(alphabet: Alphabet, base: int, trans: dict) -> StallingsGraph:
    order = {base: 0}
    queue = deque([base])
    while queue:
        s = queue.popleft()
        out = sorted((lt for (st, lt) in trans if st == s), key=_letter_order)
        for letter in out:
            t = trans[(s, letter)]
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    new_trans = {
        (order[s], letter): order[t] for (s, letter), t in trans.items() if s in order
    }
    return StallingsGraph(alphabet, len(order), new_trans)


def contains(graph: StallingsGraph, g: Word) -> bool:
    """Membership: ``g`` reads as a loop at the base state."""
    if g.alphabet != graph.alphabet:
        raise AlphabetMismatchError("word over a different alphabet")
    return graph.read(g) == 0


def enumerate_elements(graph: StallingsGraph, max_length: int) -> list[Word]:
    """All reduced subgroup elements of length at most ``max_length``.

    Ordered by (length, letter sequence); distinct reduced words read
    distinct paths, so no deduplication is needed.
    """
    found: list[Word] = [Word(graph.alphabet)]
    frontier: list[tuple[int, tuple[Letter, ...]]] = [(0, ())]
    letters = sorted(
        (x for g in range(1, graph.alphabet.rank + 1) for x in (g, -g)),
        key=_letter_order,
    )
    for _ in range(max_length):
        nxt: list[tuple[int, tuple[Letter, ...]]] = []
        for state, path in frontier:
            for letter in letters:
                if path and letter == -path[-1]:
                    continue
                target = graph.step(state, letter)
                if target is None:
                    continue
                new_path = path + (letter,)
                nxt.append((target, new_path))
                if target == 0:
                    found.append(Word.from_letters(graph.alphabet, new_path))
        frontier = nxt
    return found


def coset_power_membership(
    graph: StallingsGraph, p: Word, c: Word, q: Word
) -> Optional[int]:
    """Smallest |k| (positive preferred on ties) with ``[p c^k q]`` in H.

    Past the cancellation depth of p and q into the power block, the
    reduced word is a fixed head, a growing c-block and a fixed tail with
    no cancellation between them (c is cyclically reduced).  The state
    after the head and m more periods is then an orbit of the deterministic
    map "read c" on H's states, which dies or repeats within ``n_states``
    steps; stepping it that far, for +k and -k in lockstep, decides every
    larger |k|.
    """
    if c.is_identity():
        raise ValueError("power block must be nonempty")
    if c.first_letter() == -c.last_letter() and len(c) > 1:
        raise ValueError("power block must be cyclically reduced")
    # p cancels fewer than depth_p periods, q fewer than depth_q
    depth_p = len(p) // len(c) + 1
    depth_q = len(q) // len(c) + 1
    for j in range(depth_p + depth_q):
        for k in ((j,) if j == 0 else (j, -j)):
            if contains(graph, p * c**k * q):
                return k
    # |k| = depth + m: [p c^k q] = head . block^m . tail, block = c or c^-1
    depth = depth_p + depth_q
    blocks = (c, c.inverse())
    tails = [block**depth_q * q for block in blocks]
    states = [graph.read(p * block**depth_p) for block in blocks]
    for m in range(graph.n_states):
        if states == [None, None]:
            break
        for sign, state, tail in zip((1, -1), states, tails):
            if state is not None and graph.read(tail, state) == 0:
                return sign * (depth + m)
        states = [
            None if state is None else graph.read(block, state)
            for block, state in zip(blocks, states)
        ]
    return None


def core_graph_dot(graph: StallingsGraph) -> str:
    """DOT rendering: states as nodes, positive-letter transitions as edges."""
    lines = ["digraph stallings {", '  rankdir=LR;']
    for s in range(graph.n_states):
        shape = "doublecircle" if s == 0 else "circle"
        lines.append(f'  s{s} [shape={shape}];')
    edges = sorted(
        ((s, graph.alphabet.name(letter), t) for (s, letter), t in graph.transitions.items() if letter > 0),
        key=lambda e: (e[0], e[2], e[1]),
    )
    for s, name, t in edges:
        lines.append(f'  s{s} -> s{t} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def product_oracle(
    alphabet: Alphabet, generators: Sequence[Word], max_factors: int
) -> set[Word]:
    """Brute-force subgroup sample: all products of up to ``max_factors``
    generators and inverses, reduced.  Independent of the folding code."""
    gens = [g for g in generators if not g.is_identity()]
    steps = [g for gen in gens for g in (gen, gen.inverse())]
    seen = {Word(alphabet)}
    frontier = [Word(alphabet)]
    for _ in range(max_factors):
        nxt = []
        for w in frontier:
            for s in steps:
                prod = w * s
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen
