"""Endomorphisms and verified automorphism pairs of a free group.

An automorphism is certified only by exhibiting its inverse: a
:class:`AutoPair` checks at construction that the two endomorphisms
compose to the identity on every generator, in both orders.  There is
no automorphism-recognition machinery here.

Abelianization maps endomorphisms to exact integer matrices (column j =
exponent sums of the image of generator j); matrix arithmetic is plain
Python integers, so entries can grow without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .words import (
    Alphabet,
    AlphabetMismatchError,
    Word,
    _block_product,
    _WindowTable,
    format_word,
    generator,
)


class NotInverseError(ValueError):
    """The two endomorphisms do not compose to the identity."""

    def __init__(self, generator_name: str, direction: str):
        self.generator_name = generator_name
        self.direction = direction
        super().__init__(
            f"claimed inverse fails at generator {generator_name!r} ({direction})"
        )


class NotHyperbolicError(ValueError):
    """Dilatation data requested for a matrix with trace <= 2."""


class UnboundedCancellationError(ValueError):
    """The endomorphism cancels arbitrarily many letters between images."""


class Endomorphism:
    """Generator-image presentation of an endomorphism of F_N."""

    __slots__ = ("alphabet", "images", "_image_blocks", "_table")

    def __init__(self, alphabet: Alphabet, images: Sequence[Word]):
        images = tuple(images)
        if len(images) != alphabet.rank:
            raise ValueError("need exactly one image per generator")
        for img in images:
            if img.alphabet != alphabet:
                raise AlphabetMismatchError("image over a different alphabet")
        self.alphabet = alphabet
        self.images = images
        # the images of +g and -g, keyed by signed letter, as blocks of
        # _block_product
        self._image_blocks = {}
        for g, img in enumerate(images, start=1):
            self._image_blocks[g] = (img.runs, len(img))
            self._image_blocks[-g] = (img.inverse().runs, len(img))
        self._table = _MapTable(images, self._image_blocks)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Endomorphism":
        return cls(alphabet, [generator(alphabet, g) for g in range(1, alphabet.rank + 1)])

    def apply(self, w: Word) -> Word:
        """The reduced image ``[e(w)]``, whole: the product of the image
        blocks over the runs of ``w`` by :func:`words._block_product`,
        through the map's one bounded window table (``windows`` of
        :class:`_MapTable`), which every call and so every orbit step that
        applies the map shares.  The held prefixes of :mod:`dynamics` call
        the kernel on these blocks directly, with a ``limit``, to build a
        prefix only."""
        if w.alphabet is not self.alphabet and w.alphabet != self.alphabet:
            raise AlphabetMismatchError("word over a different alphabet")
        out, length = _block_product(w.runs, self._image_blocks, table=self._table.windows)
        return Word._make(self.alphabet, tuple(out), length)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Endomorphism)
            and self.alphabet == other.alphabet
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.names, self.images))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{self.alphabet.names[i]} -> {format_word(img) or '1'}"
            for i, img in enumerate(self.images)
        )
        return f"<Endomorphism {parts}>"


def compose(e1: Endomorphism, e2: Endomorphism) -> Endomorphism:
    """The endomorphism ``g -> e1(e2(g))``."""
    if e1.alphabet != e2.alphabet:
        raise AlphabetMismatchError("endomorphisms over different alphabets")
    return Endomorphism(e1.alphabet, [e1.apply(w) for w in e2.images])


def _compose_blocks(outer: dict, inner: dict) -> dict:
    """The images ``[outer(inner(x))]`` of the letters ``x`` of ``inner``,
    as blocks of :func:`_block_product`: the product of the ``outer``
    blocks over the runs of ``inner[x]``.  ``outer`` must hold every
    letter those runs read."""
    composed = {}
    for x, (runs, _) in inner.items():
        out, length = _block_product(runs, outer)
        composed[x] = (tuple(out), length)
    return composed


# A map keeps the levels of its letter iterates only while they hold at
# most this many runs in all; a level past that is built and handed to
# its orbit, not kept.  The map's window table has a bound of the same
# count of its own.  Measured with perfbench/run.py (--seconds 6, one
# run per bound on seeds 9 and 7, a shared 2-vCPU machine): graph_alpha
# reads 337-343 tasks/s at every bound from 2^12 up (about 290 with no
# table), as its levels are few; orbit_beta reads 1,675 and 1,813 at
# 2^12, 1,814 and 1,869 at 2^14 (about 1,600 with no table), no better
# at 2^15 or with every level kept; iterate_exact reads 318-326 tasks/s
# and 25.4-25.5 MB peak RSS at 2^12, 335 and 25.6-26.9 MB at 2^14, and
# 386-390 and 30.6-30.8 MB with every level kept (about 25 MB with no
# table), past the benchmark's memory bound.
_KEPT_RUNS = 1 << 14

# A map keeps at most this many levels of its unreduced lengths; a level
# past that is computed and used, not kept.  Measured on a shared 2-vCPU
# machine: 8 rounds of each perfbench workload keep at most 46 levels a
# map.  _quiet_steps over 2,000 distinct limits up to 10^6 on delta and
# beta:rank=6 keeps 10,114 levels unbounded (1.8 and 2.4 MB, 10-11 us a
# warm call), 2^10 (190-270 KB, 20-36 us), 2^8 (50-85 KB, 19-39 us) or
# 2^6 (18-35 KB, 24-50 us), against 34-86 us keeping U_least alone.
_KEPT_LEVELS = 1 << 8


class _MapTable:
    """What a map keeps of itself for its orbits: one per
    :class:`Endomorphism`, made with it from its generator images
    (``images``) and filled lazily, each part only as far as a caller
    reads it.

    - ``bounds``: C, the junction bounds and the first letters of
      :func:`_junction_bounds`, or ``None`` until first asked.  Exact, as
      that function derives them; for rank N, at most ``(2N)^2``
      junctions and 2N sets of first letters.
    - ``cap``, ``squares`` and ``repeat``: the letter-count table.  Square
      i is ``M^(2^i)`` for the letter-count matrix M (row x - 1 counts
      each generator in ``e(x)``), as its rows and its row sums, every
      entry capped at ``cap``.  The entries are non-negative, so a capped
      entry stays capped in every product and one below the cap is exact:
      square i + 1 is the capped square of square i, a function of square
      i alone.  So the squares are built, as far as they are read, only
      until one equals an earlier one, square ``repeat``, which is kept
      last: from there the squares are periodic, with period
      ``len(squares) - 1 - repeat``, and square i past the last is read
      as square ``repeat + (i - repeat) % period``.  The entries lie in
      0..cap, so the squares do repeat; an entry that grows reaches the
      cap within about ``log2 cap`` squares, and the others are periodic,
      so few are kept: at most 22 distinct squares and the repeat for
      every catalog map and its inverse at the default budget (1 for
      ``sigma``, 5 for ``inner:u=a b``), where squaring on to a step p
      builds ``p.bit_length()`` of them (1,329 at p = 10^400).
    - ``levels``: the capped unreduced lengths ``min(cap, U_m(x))`` by
      generator, keyed by m (:meth:`lifted`); at most ``_KEPT_LEVELS``.
      Exact for the same reason, whatever order of products built them.
      A larger cap empties the squares and the levels.
    - ``iterates`` and ``runs``: the letter iterates, level m as ``{x:
      [e^m(x)]}`` for the letters asked so far (:meth:`letter_iterates`),
      and the runs they hold in all, at most ``_KEPT_RUNS``.  Each is the
      reduced word that stepping gives.
    - ``windows``: the one :class:`words._WindowTable` of the image
      blocks, through which ``Endomorphism.apply`` multiplies, so every
      application of the map, and every orbit step that applies it,
      reduces each distinct window once.  It holds at most
      ``_KEPT_RUNS`` runs of windows and their images, counted apart from
      the letter iterates: a window whose image is empty, which a map
      that is not injective may have, still counts.

    The two bounds stay apart because they count different units: a
    level of unreduced lengths is one integer a generator, while one
    level of letter iterates can hold thousands of runs.  One shared
    budget would let the letter iterates of ``iterate_exact``, which fill
    the 2^14 runs, crowd out the levels.
    """

    __slots__ = ("images", "bounds", "cap", "squares", "repeat", "levels", "iterates", "runs", "windows")

    def __init__(self, images: tuple, blocks: dict):
        self.images, self.bounds, self.iterates, self.runs = images, None, {}, 0
        self.cap, self.squares, self.repeat, self.levels = 0, [], None, {}
        self.windows = _WindowTable(blocks, _KEPT_RUNS)

    def letter_iterates(self, images: dict, n: int, last: Optional[dict] = None) -> dict:
        """The letter iterates ``[e^n(x)]`` of the letters x of ``images``,
        which holds their image blocks, as blocks of
        :func:`words._block_product`; ``last`` holds ``[e^(n-1)(x)]`` for
        them where the caller has it.  Every letter of an image of one of
        the letters must be one of them.  The blocks given may hold other
        letters too.

        A level that lacks some of the letters is built for those from
        level m - 1, as ``[e^(m-1)(e(x))]``, where that level is at hand,
        and otherwise by halving: ``[e^(m/2)([e^(m/2)(x)])]`` for even m,
        level m - 1 and the images for odd m.  So a cold table builds
        level n in at most ``2 log2 n`` compositions, and an orbit that
        steps from its last level composes once a step.  A level past
        ``_KEPT_RUNS`` is still built, and handed on.
        """
        levels, letters = self.iterates, images.keys()
        level = levels.get(n)
        if level is not None and level.keys() >= letters:
            return level
        if level is None and last is not None:  # an orbit's step: one composition, no chain
            return self._kept(n, _compose_blocks(last, images))
        built = {1: images}  # the levels at hand, kept or not
        chain = [n]  # each level, then the one it is built from
        if last is not None:
            built[n - 1] = last
            chain.append(n - 1)

        def at_hand(m: int) -> bool:
            level = levels.get(m)
            if level is not None and level.keys() >= letters:
                built.setdefault(m, level)
            return m in built

        while not at_hand(chain[-1]):
            m = chain[-1]
            chain.append(m - 1 if m & 1 or at_hand(m - 1) else m // 2)
        for i in range(len(chain) - 2, -1, -1):
            m, below = chain[i], chain[i + 1]
            source, level = built[below], levels.get(m, {})
            inner = images if below == m - 1 else source
            new = _compose_blocks(source, {x: inner[x] for x in letters - level.keys()})
            built[m] = self._kept(m, new, level)
        return built[n]

    def _kept(self, m: int, new: dict, level: Optional[dict] = None) -> dict:
        """Level m of the letter iterates: the blocks ``new`` and those of
        ``level``, the part of it the table held.  The table keeps it where
        the runs of ``new`` fit within ``_KEPT_RUNS``."""
        runs = sum([len(block[0]) for block in new.values()])
        if level:
            new = {**level, **new}
        if self.runs + runs <= _KEPT_RUNS:
            self.runs += runs
            self.iterates[m] = new
        return new

    def _square(self, i: int) -> tuple[list, list]:
        """Square i of the letter-count table, as its rows and row sums:
        built as far as i until the squares repeat, and read by their
        period past that."""
        squares, cap = self.squares, self.cap
        while len(squares) <= i and self.repeat is None:
            if squares:
                rows, cols = squares[-1][0], list(zip(*squares[-1][0]))
                rows = [[min(cap, sum(map(mul, row, col))) for col in cols] for row in rows]
            else:
                gens = range(1, len(self.images) + 1)
                rows = [[min(cap, sum(abs(k) for y, k in image.runs if y == x)) for x in gens] for image in self.images]
            square = (rows, [min(cap, sum(row)) for row in rows])
            if square in squares:
                self.repeat = squares.index(square)
            squares.append(square)
        if i >= len(squares):
            i = self.repeat + (i - self.repeat) % (len(squares) - 1 - self.repeat)
        return squares[i]

    def _capped_product(self, vector: list[int], rows) -> list[int]:
        """The vector-matrix product of ``vector`` with the matrix whose
        columns are ``rows``, each entry capped at ``cap``."""
        return [min(self.cap, sum(map(mul, vector, row))) for row in rows]

    def lifted(self, n: int, lengths: Optional[list[int]], i: int) -> list[int]:
        """Level ``n + 2^i`` of the unreduced lengths, from ``lengths``,
        level n (``None`` for n = 0), at the table's cap.

        Level m is ``min(cap, U_m(x))`` by generator, with ``U_m(x)``, the
        length of ``e^m(x)`` before free reduction, the row sums of
        ``M^m``.  Level ``2^i`` is the row sums of square i.  Any other is
        one capped product, ``M^(2^i)`` times level n, and is kept under
        its m while the table keeps fewer than ``_KEPT_LEVELS`` levels.  A
        product that meets a capped entry reaches the cap, as the exact
        one does, and any other is exact: a level is ``min(cap, U_m)``
        whatever the order of the products it came from, and one dict
        keyed by m serves every caller.
        """
        if not n:
            return self._square(i)[1]
        m = n + (1 << i)
        level = self.levels.get(m)
        if level is None:
            level = self._capped_product(lengths, self._square(i)[0])
            if len(self.levels) < _KEPT_LEVELS:
                self.levels[m] = level
        return level

    def level(self, m: int, cap: int) -> list[int]:
        """Level ``m >= 1`` of the unreduced lengths (see :meth:`lifted`)
        at a cap of at least ``cap``, lifted from level 0 by the set bits
        of m, lowest first: the last lift is from level ``m - 2^k``, k the
        highest bit, so a walk over m = 1, 2, ... builds each level by one
        product.  The count table is built again only for a larger cap.
        The planner of ``dynamics._Orbit``, which weighs assembly with its
        levels, and ``dynamics._quiet_steps`` both ask for ``2 *
        max_word_length + 1``, so it is built once per map and budget."""
        if self.cap < cap:
            self.cap, self.squares, self.repeat, self.levels = cap, [], None, {}
        n, lengths = 0, None
        for i in range(m.bit_length()):
            if m >> i & 1:
                lengths = self.lifted(n, lengths, i)
                n += 1 << i
        return lengths


def _square_and_multiply(x, p: int, mul, one):
    """``x^p`` for ``p >= 0`` under an associative ``mul`` with unit
    ``one``, in O(log p) products: the powers of ``x`` commute, so
    multiplying the squares ``x^(2^i)`` picked by the bits of ``p`` gives
    ``x^p``."""
    result = one
    while p:
        if p & 1:
            result = mul(x, result)
        p >>= 1
        if p:
            x = mul(x, x)
    return result


def cancellation_bound(e: Endomorphism) -> int:
    """The exact bounded-cancellation constant C of ``e``.

    C is the most letters that cancel between ``[e(u)]`` and ``[e(v)]``
    over all nonempty ``u``, ``v`` with ``uv`` reduced; it is finite for
    an automorphism (Cooper 1987, J. Algebra 111).  So when ``p`` is a
    prefix of a reduced word ``w``, the first ``|[e(p)]| - C`` letters of
    ``[e(p)]`` are a prefix of ``[e(w)]``.

    The letters cancelled between ``[e(u)]`` and ``[e(v)]`` are the common
    prefix of ``[e(u^-1)]`` and ``[e(v)]``, and ``u^-1`` and ``v`` start
    with different letters.  So C is the longest word that is a prefix of
    a reduced image of the cone ``l F`` and of the cone ``l' F`` for some
    letters ``l != l'``.  The images of a cone are a rational subset of F
    (Benois 1969, C. R. Acad. Sci. Paris 269): reading the generator
    images along the cone automaton, with an empty move added across
    every path that reads a word equal to 1, reads exactly the reduced
    images as reduced words; their prefixes are the reduced words that end
    in a state from which a reduced continuation reaches an image.  C is
    then the longest path in the product of two such automata started at
    two different cones.  A reachable cycle in that product would make C
    infinite: that raises :class:`UnboundedCancellationError`.

    Computed on first use and kept on ``e``, with the per-junction table
    of :func:`_junction_bounds`.

    >>> from .words import standard_alphabet, parse_word
    >>> F2 = standard_alphabet(2)
    >>> cancellation_bound(Endomorphism(F2, [parse_word(F2, "a"), parse_word(F2, "b a")]))
    1
    """
    return _junction_bounds(e)[0]


def _junction_bounds(e: Endomorphism) -> tuple[int, dict, dict]:
    """C, with C(x, y) for each junction and the first-letter sets F(y),
    as ``(C, bounds, firsts)``; computed with C and kept on ``e``.

    ``bounds[x, y]``, for signed letters with ``y != -x``, is the most
    letters that cancel between ``[e(u)]`` and ``[e(v)]`` over nonempty
    ``u`` ending in x and ``v`` starting with y: the longest path of the
    product of :func:`cancellation_bound` started at the cones of ``x^-1``
    and y.  C is the largest of them.  ``firsts[y]`` is the set of first
    letters of the reduced images ``[e(v)]`` of the cone ``y F``, the
    letters read from the start of the cone automaton of y toward an
    image.

    >>> from .words import standard_alphabet, parse_word
    >>> F2 = standard_alphabet(2)
    >>> c, bounds, firsts = _junction_bounds(Endomorphism(F2, [parse_word(F2, "a"), parse_word(F2, "b a")]))
    >>> {xy: k for xy, k in sorted(bounds.items()) if k}  # b|a^-1 and a|b^-1 cancel the a of b a
    {(1, -2): 1, (2, -1): 1}
    >>> {y: sorted(f) for y, f in sorted(firsts.items())}  # [e(a b^-1)] = b^-1
    {-2: [-1], -1: [-1], 1: [-2, 1], 2: [2]}
    """
    if e._table.bounds is None:
        e._table.bounds = _longest_common_cone_prefix(e)
    return e._table.bounds


def _longest_common_cone_prefix(e: Endomorphism) -> tuple[int, dict, dict]:
    letters = e.alphabet.signed_letters
    n = len(letters)
    # states: 0..n-1 start the cone of a letter, n..2n-1 are the cone
    # states (named by the last letter of the cone word), the rest are
    # inner states of the image paths, one path per letter shared by
    # every state that may read it
    start = {x: i for i, x in enumerate(letters)}
    cone = {x: n + i for i, x in enumerate(letters)}
    moves: list[dict[int, set[int]]] = [{} for _ in range(2 * n)]
    todo: list[tuple[int, int]] = []  # empty moves still to record
    for x in letters:
        image = list(Word(e.alphabet, e._image_blocks[x][0]).letters())
        sources = [start[x]] + [cone[y] for y in letters if y != -x]
        if not image:
            todo += [(s, cone[x]) for s in sources]
            continue
        path = list(range(len(moves), len(moves) + len(image) - 1)) + [cone[x]]
        moves += [{} for _ in image[1:]]
        for s in sources:
            moves[s].setdefault(image[0], set()).add(path[0])
        for a, p, q in zip(image[1:], path, path[1:]):
            moves[p].setdefault(a, set()).add(q)
    states = range(len(moves))

    # Benois saturation: p reaches t by empty moves when some path from p
    # to t reads a word equal to 1.  A new empty reach r ~> s closes every
    # x -a-> r ~> s -a^-1-> y into x ~> y.
    reach = [{p} for p in states]
    back = [{p} for p in states]
    incoming: list[list[tuple[int, int]]] = [[] for _ in states]
    for x in states:
        for a, targets in moves[x].items():
            for r in targets:
                incoming[r].append((x, a))

    def close(r: int, s: int) -> None:
        for x, a in incoming[r]:
            todo.extend((x, y) for y in moves[s].get(-a, ()) if y not in reach[x])

    for r in states:
        close(r, r)
    while todo:
        p, t = todo.pop()
        if t in reach[p]:
            continue
        new = [(r, s) for r in back[p] for s in reach[t] if s not in reach[r]]
        for r, s in new:
            reach[r].add(s)
            back[s].add(r)
        for r, s in new:
            close(r, s)

    # one letter read after any empty moves
    step: list[dict[int, set[int]]] = []
    accepting = []
    for p in states:
        out: dict[int, set[int]] = {}
        for q in reach[p]:
            for a, targets in moves[q].items():
                out.setdefault(a, set()).update(targets)
        step.append(out)
        accepting.append(any(n <= q < 2 * n for q in reach[p]))

    # (t, a), state t reached by reading a, is live when a reduced
    # continuation, not starting with a^-1, reaches a cone state
    live_letters: list[set[int]] = [set() for _ in states]

    def live(t: int, a: int) -> bool:
        firsts = live_letters[t]
        return accepting[t] or len(firsts) > 1 or (len(firsts) == 1 and -a not in firsts)

    feeders: list[list[tuple[int, int]]] = [[] for _ in states]
    for p in states:
        for a, targets in step[p].items():
            for t in targets:
                feeders[t].append((p, a))
    grown = [t for t in states if accepting[t]]
    while grown:
        t = grown.pop()
        for p, a in feeders[t]:
            if a not in live_letters[p] and live(t, a):
                live_letters[p].add(a)
                if len(live_letters[p]) <= 2 and not accepting[p]:
                    grown.append(p)

    def successors(node: tuple[int, int, int]) -> list[tuple[int, int, int]]:
        p, q, last = node
        found = []
        for a, targets in step[p].items():
            others = step[q].get(a)
            if a == -last or not others:
                continue
            ts = [t for t in targets if live(t, a)]
            us = [u for u in others if live(u, a)]
            found += [(min(t, u), max(t, u), a) for t in ts for u in us]
        return found

    # longest path by depth-first search; a node met again while still
    # open closes a cycle
    depth: dict[tuple[int, int, int], int] = {}
    for i, x in enumerate(letters):
        for y in letters[i + 1 :]:
            root = (start[x], start[y], 0)
            depth[root] = -1
            stack = [(root, iter(successors(root)), 0)]
            while stack:
                node, rest, deepest = stack[-1]
                nxt = next(rest, None)
                if nxt is None:
                    stack.pop()
                    depth[node] = deepest
                    if stack:
                        parent, prest, pdeep = stack[-1]
                        stack[-1] = (parent, prest, max(pdeep, deepest + 1))
                    continue
                seen = depth.get(nxt)
                if seen is None:
                    depth[nxt] = -1
                    stack.append((nxt, iter(successors(nxt)), 0))
                elif seen < 0:
                    raise UnboundedCancellationError(
                        f"cancellation between images is unbounded under {e!r}"
                    )
                else:
                    stack[-1] = (node, rest, max(deepest, seen + 1))
    bounds = {}
    for x in letters:
        for y in letters:
            if y != -x:
                p, q = start[-x], start[y]
                bounds[x, y] = depth[min(p, q), max(p, q), 0]
    firsts = {
        y: {a for a, targets in step[start[y]].items() if any(live(t, a) for t in targets)}
        for y in letters
    }
    return max(bounds.values(), default=0), bounds, firsts


class AutoPair:
    """An automorphism with its verified inverse."""

    __slots__ = ("forward", "backward")

    def __init__(self, forward: Endomorphism, backward: Endomorphism, _verified=False):
        if forward.alphabet != backward.alphabet:
            raise AlphabetMismatchError("endomorphisms over different alphabets")
        if not _verified:
            for i in range(forward.alphabet.rank):
                gen = generator(forward.alphabet, i + 1)
                if backward.apply(forward.images[i]) != gen:
                    raise NotInverseError(forward.alphabet.names[i], "backward o forward")
                if forward.apply(backward.images[i]) != gen:
                    raise NotInverseError(forward.alphabet.names[i], "forward o backward")
        self.forward = forward
        self.backward = backward

    @property
    def alphabet(self) -> Alphabet:
        return self.forward.alphabet

    def apply(self, w: Word) -> Word:
        return self.forward.apply(w)

    def apply_inverse(self, w: Word) -> Word:
        return self.backward.apply(w)

    def inverse(self) -> "AutoPair":
        return AutoPair(self.backward, self.forward, _verified=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AutoPair)
            and self.forward == other.forward
            and self.backward == other.backward
        )

    def __hash__(self) -> int:
        return hash((self.forward, self.backward))

    def __repr__(self) -> str:
        return f"<AutoPair {self.forward!r}>"


def verify_pair(forward: Endomorphism, backward: Endomorphism) -> AutoPair:
    """Certify a mutually inverse pair, or raise :class:`NotInverseError`."""
    return AutoPair(forward, backward)


def identity_pair(alphabet: Alphabet) -> AutoPair:
    e = Endomorphism.identity(alphabet)
    return AutoPair(e, e, _verified=True)


def inner(u: Word) -> AutoPair:
    """Conjugation ``g -> [u g u^-1]`` with its inverse conjugation."""
    alphabet = u.alphabet
    uinv = u.inverse()
    fwd = Endomorphism(
        alphabet,
        [u * generator(alphabet, g) * uinv for g in range(1, alphabet.rank + 1)],
    )
    bwd = Endomorphism(
        alphabet,
        [uinv * generator(alphabet, g) * u for g in range(1, alphabet.rank + 1)],
    )
    return AutoPair(fwd, bwd, _verified=True)


def compose_pairs(phi: AutoPair, psi: AutoPair) -> AutoPair:
    """The pair of ``phi o psi``."""
    return AutoPair(
        compose(phi.forward, psi.forward),
        compose(psi.backward, phi.backward),
        _verified=True,
    )


def conjugate(phi: AutoPair, psi: AutoPair) -> AutoPair:
    """``psi o phi o psi^-1`` as a verified pair."""
    return compose_pairs(compose_pairs(psi, phi), psi.inverse())


def power(phi: AutoPair, p: int) -> AutoPair:
    """p-fold composition, by square and multiply; negative p composes
    the inverse."""
    if p < 0:
        return power(phi.inverse(), -p)
    return _square_and_multiply(phi, p, compose_pairs, identity_pair(phi.alphabet))


class IntMatrix:
    """Square matrix of exact integers."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.entries = rows

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.entries))})"


def matrix_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    bt = list(zip(*b.entries))
    return IntMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.entries)
    )


def matrix_power(m: IntMatrix, p: int) -> IntMatrix:
    if p < 0:
        raise ValueError("negative matrix power not supported")
    return _square_and_multiply(m, p, matrix_mul, IntMatrix.identity(m.dimension))


def determinant(m: IntMatrix) -> int:
    """Fraction-free Gaussian elimination (Bareiss); exact."""
    n = m.dimension
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def abelianize(e: Endomorphism) -> IntMatrix:
    """Exponent-sum matrix; functorial: Ab(e1 o e2) = Ab(e1) Ab(e2)."""
    n = e.alphabet.rank
    cols = []
    for img in e.images:
        col = [0] * n
        for gen, exp in img.runs:
            col[gen - 1] += exp
        cols.append(col)
    return IntMatrix(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))


def squarefree_part(n: int) -> int:
    """n divided by its largest square divisor (trial division)."""
    if n <= 0:
        raise ValueError("positive integer required")
    result = n
    d = 2
    while d * d <= result:
        while result % (d * d) == 0:
            result //= d * d
        d += 1
    return result


@dataclass(frozen=True)
class DilatationInfo:
    """Trace data separating the quadratic fields of leading eigenvalues."""

    trace: int
    discriminant: int
    squarefree_part: int

    def value(self) -> float:
        """The eigenvalue (trace + sqrt(disc)) / 2 as a float."""
        return (self.trace + math.sqrt(self.discriminant)) / 2


def dilatation_info(m: IntMatrix) -> DilatationInfo:
    """Quadratic-field invariants of a hyperbolic 2x2 determinant-1 matrix.

    Two matrices with distinct squarefree parts have leading eigenvalues
    in distinct quadratic extensions of the rationals.
    """
    if m.dimension != 2:
        raise ValueError("2x2 matrix required")
    if determinant(m) != 1:
        raise ValueError("determinant must be 1")
    trace = m[0, 0] + m[1, 1]
    if trace <= 2:
        raise NotHyperbolicError(f"trace {trace} <= 2: no eigenvalue > 1")
    disc = trace * trace - 4
    return DilatationInfo(trace, disc, squarefree_part(disc))
