"""Finitely generated subgroups of a free group as folded core graphs.

A :class:`StallingsGraph` is the folded, deterministic and co-deterministic
core graph of a subgroup: membership of a reduced word is "reading a loop
at the base state".  Graphs are canonicalized (breadth-first renumbering
from the base over ordered letters), so structural equality is plain
``==`` and is independent of the generator order used to build them.

A graph is held as ``rows``, one letter -> state dict per state, which
is also the structure the fold builds: folding lays each generator only
where the graph does not already spell it (two-ended insertion, see
:func:`build_core_graph`), and the numbering relabels the fold's own
dicts.  A read costs one dict lookup per letter.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .words import Alphabet, AlphabetMismatchError, Letter, Word


class StallingsGraph:
    """Folded core graph with base state 0.

    ``rows[s]`` maps each signed letter with an edge at state s to its
    target.  ``transitions``, derived from ``rows``, maps ``(state, signed
    letter)`` to a state and is closed under inversion symmetry: ``(s, x)
    -> t`` iff ``(t, -x) -> s``.
    """

    __slots__ = ("alphabet", "rows")

    def __init__(self, alphabet: Alphabet, n_states: int, transitions: dict):
        self.alphabet = alphabet
        self.rows: list[dict[Letter, int]] = [{} for _ in range(n_states)]
        for (s, letter), t in transitions.items():
            self.rows[s][letter] = t

    @classmethod
    def _make(cls, alphabet: Alphabet, rows: list[dict[Letter, int]]) -> "StallingsGraph":
        # Trusted constructor: `rows` are already canonically numbered.
        graph = object.__new__(cls)
        graph.alphabet = alphabet
        graph.rows = rows
        return graph

    @property
    def n_states(self) -> int:
        return len(self.rows)

    @property
    def transitions(self) -> dict[tuple[int, Letter], int]:
        letters = self.alphabet.signed_letters
        return {(s, x): row[x] for s, row in enumerate(self.rows) for x in letters if x in row}

    def step(self, state: int, letter: Letter) -> Optional[int]:
        return self.rows[state].get(letter)

    def read(self, word: Word, start: int = 0) -> Optional[int]:
        """State reached reading a reduced word, or None if the path dies."""
        rows = self.rows
        state = start
        for gen, exp in word.runs:
            if exp < 0:
                gen, exp = -gen, -exp
            while exp:
                state = rows[state].get(gen)
                if state is None:
                    return None
                exp -= 1
        return state

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StallingsGraph)
            and self.alphabet == other.alphabet
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash(
            (self.alphabet.names, self.n_states, tuple(sorted(self.transitions.items())))
        )

    def __repr__(self) -> str:
        edges = sum(map(len, self.rows)) // 2
        return f"<StallingsGraph {self.n_states} states, {edges} edges>"


def build_core_graph(alphabet: Alphabet, generators: Sequence[Word]) -> StallingsGraph:
    """Fold the wedge of generator loops into the core graph.

    Identity generators are skipped; an empty generating set yields the
    single-state graph of the trivial subgroup.

    One union-find pass (Touikan 2006): ``out[s]`` maps each letter to one
    state from the first edge on, so an edge into a taken slot queues its
    target to merge with the state already there, and merging the smaller
    map into the larger queues each clash it meets.

    Two-ended insertion: a generator w is read forward from the base
    along the edges already there, to letter i and state s, and its
    inverse back from the base, to letter j >= i and state t; new states
    are laid only for the letters ``w[i:j]``, and where the reads meet
    (i == j) s and t are queued to merge.  This is exact: laying the
    whole loop and folding its first i and last ``|w| - j`` edges onto
    the paths read gives the same graph, and folding is confluent
    (Kapovich-Myasnikov 2002), so every order of folds ends in the same
    core graph.  A clash left at the ends of ``w[i:j]`` (s == t with a
    middle that is not cyclically reduced, as in ``x u x^-1`` with x
    partly spelled) is queued by ``link`` like any other.

    The states are then numbered breadth-first from the base over
    ``alphabet.signed_letters``: the rows of the graph are the fold's own
    ``out`` dicts of the surviving states, relabeled in place.

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
        w: list[Letter] = []
        for g, k in gen.runs:
            w += [g] * k if k > 0 else [-g] * -k
        i, s = 0, 0
        for x in w:
            t = out[s].get(x)
            if t is None:
                break
            i, s = i + 1, t
        j, t = len(w), 0
        while j > i:
            u = out[t].get(-w[j - 1])
            if u is None:
                break
            j, t = j - 1, u
        if i == j:
            if s != t:
                merges.append((s, t))
            continue
        # a path s -> t reading w[i:j] through j - i - 1 new states
        new = range(len(out), len(out) + j - i - 1)
        path = [s, *new, t]
        mid = w[i:j]
        out.extend({-x: a, y: b} for a, x, y, b in zip(path, mid, mid[1:], path[2:]))
        parent.extend(new)
        link(s, mid[0], path[1])
        link(t, -mid[-1], path[-2])

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
    number = {base: 0}
    rows = [out[base]]
    for row in rows:
        for letter in alphabet.signed_letters:
            t = row.get(letter)
            if t is None:
                continue
            if parent[t] != t:
                t = find(t)
            n = number.get(t)
            if n is None:
                n = number[t] = len(rows)
                rows.append(out[t])
            row[letter] = n
    return StallingsGraph._make(alphabet, rows)


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
        (
            (s, graph.alphabet.name(letter), t)
            for s, row in enumerate(graph.rows)
            for letter, t in row.items()
            if letter > 0
        ),
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
