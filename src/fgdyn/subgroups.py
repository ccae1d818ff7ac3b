"""Finitely generated subgroups of a free group as folded core graphs.

A :class:`StallingsGraph` is the folded, deterministic and co-deterministic
core graph of a subgroup: membership of a reduced word is "reading a loop
at the base state".

A graph is held as ``rows``, one letter -> state dict per state, which
is the structure the fold builds: folding lays each generator only where
the graph does not already spell it (two-ended insertion, see
:func:`build_core_graph`) and keeps the fold's own dicts, in fold order.
A read costs one dict lookup per letter.  Structural equality is plain
``==`` and hashing is consistent with it, independent of the generator
order used to build a graph: both read a canonical numbering
(breadth-first from the base over ordered letters) that a graph computes
the first time it is compared, hashed or printed, and then keeps.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Optional, Sequence

from .words import Alphabet, AlphabetMismatchError, Letter, Word


class StallingsGraph:
    """Folded core graph with base state 0.

    ``rows[s]`` maps each signed letter with an edge at state s to its
    target; the states other than the base are numbered in any order (a
    folded graph keeps its fold order).  ``transitions`` maps ``(state,
    signed letter)`` to a state in the canonical numbering: states
    breadth-first from the base over ``alphabet.signed_letters``, keys in
    that order.  It is closed under inversion symmetry: ``(s, x) -> t`` iff
    ``(t, -x) -> s``.  ``==``, ``hash`` and :func:`core_graph_dot` read the
    same numbering, which is computed once per graph, on first use.  It
    numbers the states that the base reaches, so a graph built from
    ``transitions`` must be connected, as a core graph is.
    """

    __slots__ = ("alphabet", "rows", "_canonical")

    def __init__(self, alphabet: Alphabet, n_states: int, transitions: dict):
        self.alphabet = alphabet
        self.rows: list[dict[Letter, int]] = [{} for _ in range(n_states)]
        for (s, letter), t in transitions.items():
            self.rows[s][letter] = t
        self._canonical: Optional[list[dict[Letter, int]]] = None

    @classmethod
    def _make(cls, alphabet: Alphabet, rows: list[dict[Letter, int]]) -> "StallingsGraph":
        # Trusted constructor: `rows` are a folded graph with base state 0.
        graph = object.__new__(cls)
        graph.alphabet = alphabet
        graph.rows = rows
        graph._canonical = None
        return graph

    def _canonical_rows(self) -> list[dict[Letter, int]]:
        """The rows in the canonical numbering, computed on first use."""
        if self._canonical is None:
            self._canonical = _breadth_first(self.rows, self.alphabet.signed_letters)
        return self._canonical

    @property
    def n_states(self) -> int:
        return len(self.rows)

    @property
    def transitions(self) -> dict[tuple[int, Letter], int]:
        return {(s, x): t for s, row in enumerate(self._canonical_rows()) for x, t in row.items()}

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
            and self.n_states == other.n_states
            and self._canonical_rows() == other._canonical_rows()
        )

    def __hash__(self) -> int:
        return hash(
            (self.alphabet.names, self.n_states, tuple(sorted(self.transitions.items())))
        )

    def __repr__(self) -> str:
        edges = sum(map(len, self.rows)) // 2
        return f"<StallingsGraph {self.n_states} states, {edges} edges>"


def _breadth_first(rows: list[dict[Letter, int]], letters: Sequence[Letter]) -> list[dict[Letter, int]]:
    """``rows`` renumbered breadth-first from state 0 over ``letters``, as
    new dicts whose keys follow ``letters``."""
    number = {0: 0}
    order = [0]
    numbered = []
    for s in order:
        row = rows[s]
        new = {}
        for letter in letters:
            t = row.get(letter)
            if t is None:
                continue
            n = number.get(t)
            if n is None:
                n = number[t] = len(order)
                order.append(t)
            new[letter] = n
        numbered.append(new)
    return numbered


def build_core_graph(alphabet: Alphabet, generators: Sequence[Word]) -> StallingsGraph:
    """Fold the wedge of generator loops into the core graph.

    Identity generators are skipped; an empty generating set yields the
    single-state graph of the trivial subgroup.

    One union-find pass (Touikan 2006): ``out[s]`` maps each letter to one
    state from the first edge on, so an edge into a taken slot queues its
    target to merge with the state already there, and merging the smaller
    map into the larger queues each clash it meets.  A merge that involves
    the base keeps the base as the root, whatever the sizes.

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

    The roots are then compacted in place, so the graph's rows are the
    fold's own ``out`` dicts, in fold order, with the base at 0:

    - Every edge is pointed at a root.  An edge written at s to u always
      has its inverse written at u, to a state that finds to s's root
      (``link`` keeps the held edge and merges the clash), and merging
      moves a row's edges to the root.  So a stale edge into a merged
      state u is the inverse of an edge in u's own row, and the rows of
      the merged states find every stale edge.
    - The last root is moved into each hole that a merge left below the
      number of roots.  Its row moves as it is; only its neighbours'
      inverse edges are rewritten.  A loop's inverse is in the moved row
      itself, so the row is put in the hole before the rewrite, which
      then finds it under both numbers.  The base is never merged, so
      it is never a hole and never moves.

    The canonical numbering is left to the graph, which computes it only
    when it is compared, hashed or printed.

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

    merged: list[int] = []
    while merges:
        s, t = merges.pop()
        s, t = find(s), find(t)
        if s == t:
            continue
        if t == 0 or (s and len(out[s]) < len(out[t])):
            s, t = t, s
        parent[t] = s
        merged.append(t)
        for letter, u in out[t].items():
            link(s, letter, u)

    for u in merged:
        for letter, v in out[u].items():
            row = out[find(v)]
            t = row[-letter]
            if parent[t] != t:
                row[-letter] = find(t)

    n_states = len(out) - len(merged)
    last = len(out) - 1
    for hole in merged:
        if hole >= n_states:
            continue
        while parent[last] != last:
            last -= 1
        # the row is at both numbers while its edges are rewritten, so a
        # loop is rewritten in the row itself
        row = out[hole] = out[last]
        for letter, u in row.items():
            out[u][-letter] = hole
        last -= 1
    del out[n_states:]
    return StallingsGraph._make(alphabet, out)


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

    One walk of H's Schreier graph, whose vertices are the right cosets
    H w: the core graph with a tree hung at every missing edge
    (Kapovich-Myasnikov 2002).  A vertex is a position: a core state and
    the reduced word that hangs off the core there, kept as a stack (its
    first letter has no edge at the state).  ``[p c^k q]`` is in H
    exactly when H p c^k = H q^-1, that is, when reading c k times from
    the position of p reaches the position of q^-1.  The blocks c and
    c^-1 are read one at a time in lockstep, +k before -k, so the first
    hit is the answer.

    A direction stops where no later block can reach the target:

    - its stack is empty at a block start and its core state was already
      seen there: the walk is deterministic, so it repeats positions
      already compared;
    - its stack is not empty at a block start, its top does not cancel
      the block's first letter, and it is longer than the target's: c
      is cyclically reduced, so from then on every letter is pushed and
      the stack only grows.

    Every direction stops.  While its stack is not empty a walk pops
    until the stack empties or a letter is pushed; after a push, and
    after leaving the core from an empty stack, the next letters of the
    power never cancel the top, so the second rule applies within
    ``len(target stack) / |c| + 2`` blocks.  Pops take at most
    ``|p| / |c| + 1`` blocks, and blocks that start in the core with an
    empty stack at most ``n_states``.  So the walk reads
    ``O(|p| + |q| + |c| (|p| + |q| + n_states))`` letters and builds no
    word.
    """
    if c.is_identity():
        raise ValueError("power block must be nonempty")
    if c.first_letter() == -c.last_letter() and len(c) > 1:
        raise ValueError("power block must be cyclically reduced")
    alphabet = graph.alphabet
    if p.alphabet != alphabet or c.alphabet != alphabet or q.alphabet != alphabet:
        raise AlphabetMismatchError("word over a different alphabet")
    rows = graph.rows
    goal: list[Letter] = []
    goal_state = _walk(rows, 0, goal, q.inverse().letters())
    start: list[Letter] = []
    start_state = _walk(rows, 0, start, p.letters())
    if start_state == goal_state and start == goal:
        return 0

    def hits(block: list[Letter]):
        # whether each block read reaches the goal, until a rule stops it
        state, stack, seen = start_state, start[:], set()
        while True:
            if stack:
                if stack[-1] != -block[0] and len(stack) > len(goal):
                    return
            elif state in seen:
                return
            else:
                seen.add(state)
            state = _walk(rows, state, stack, block)
            yield state == goal_state and stack == goal

    block = list(c.letters())
    both = zip_longest(hits(block), hits([-x for x in reversed(block)]), fillvalue=False)
    for k, (forward, backward) in enumerate(both, 1):
        if forward:
            return k
        if backward:
            return -k
    return None


def _walk(
    rows: list[dict[Letter, int]], state: int, stack: list[Letter], letters: Iterable[Letter]
) -> int:
    """Read ``letters`` in the Schreier graph from the position ``(state,
    stack)``; ``stack`` is updated in place and the core state returned."""
    for x in letters:
        if stack:
            if stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        else:
            t = rows[state].get(x)
            if t is None:
                stack.append(x)
            else:
                state = t
    return state


def core_graph_dot(graph: StallingsGraph) -> str:
    """DOT rendering: states as nodes, positive-letter transitions as edges."""
    rows = graph._canonical_rows()
    lines = ["digraph stallings {", '  rankdir=LR;']
    for s in range(len(rows)):
        shape = "doublecircle" if s == 0 else "circle"
        lines.append(f'  s{s} [shape={shape}];')
    edges = sorted(
        (
            (s, graph.alphabet.name(letter), t)
            for s, row in enumerate(rows)
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
