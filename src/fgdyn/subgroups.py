"""Finitely generated subgroups of a free group as folded core graphs.

A :class:`StallingsGraph` is the folded, deterministic and co-deterministic
core graph of a subgroup: membership of a reduced word is "reading a loop
at the base state".  Graphs are canonicalized (breadth-first renumbering
from the base over ordered letters), so structural equality is plain
``==`` and is independent of the generator order used to build them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .words import Alphabet, AlphabetMismatchError, Letter, Word


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

    One union-find pass (Touikan 2006): ``out[s]`` maps each letter to one
    state from the first edge on, so an edge into a taken slot queues its
    target to merge with the state already there, and merging the smaller
    map into the larger queues each clash it meets.  The states are then
    numbered breadth-first from the base over ``alphabet.signed_letters``.

    No trim is needed: a new state is an inner vertex of a reduced word,
    so it starts with two distinct letters, and folding never takes a
    letter from a state.  Every non-base state keeps degree at least 2,
    so the folded graph is already the core graph.
    """
    out: list[dict[Letter, int]] = [{}]
    parent = [0]
    merges: list[tuple[int, int]] = []

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def link(s: int, letter: Letter, t: int) -> None:
        held = out[s].setdefault(letter, t)
        if held != t:
            merges.append((held, t))

    for gen in generators:
        if gen.alphabet != alphabet:
            raise AlphabetMismatchError("generator over a different alphabet")
        if gen.is_identity():
            continue
        # a loop at the base through len(gen) - 1 new states
        path = [0, *range(len(parent), len(parent) + len(gen) - 1), 0]
        parent.extend(path[1:-1])
        out.extend({} for _ in path[1:-1])
        for s, letter, t in zip(path, gen.letters(), path[1:]):
            link(s, letter, t)
            link(t, -letter, s)

    while merges:
        s, t = merges.pop()
        s, t = find(s), find(t)
        if s == t:
            continue
        if len(out[s]) < len(out[t]):
            s, t = t, s
        parent[t] = s
        for letter, u in out[t].items():
            link(s, letter, u)

    base = find(0)
    order = {base: 0}
    queue = [base]
    transitions: dict[tuple[int, Letter], int] = {}
    for s in queue:
        for letter in alphabet.signed_letters:
            t = out[s].get(letter)
            if t is None:
                continue
            t = find(t)
            if t not in order:
                order[t] = len(order)
                queue.append(t)
            transitions[(order[s], letter)] = order[t]
    return StallingsGraph(alphabet, len(order), transitions)


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
    letters = graph.alphabet.signed_letters
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
