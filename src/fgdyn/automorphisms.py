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
from typing import Sequence

from .words import (
    Alphabet,
    AlphabetMismatchError,
    Word,
    _block_product,
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

    __slots__ = ("alphabet", "images", "_image_blocks", "_cancellation_bound", "_count_squares")

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
        self._cancellation_bound = None  # filled in by cancellation_bound()
        self._count_squares = None  # filled in by dynamics._count_squares()

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Endomorphism":
        return cls(alphabet, [generator(alphabet, g) for g in range(1, alphabet.rank + 1)])

    def apply(self, w: Word) -> Word:
        """The reduced image ``[e(w)]``: the product of the image blocks
        over the runs of ``w`` (:func:`words._block_product`, whose
        ``limit`` reads a prefix of the runs for the held prefixes of
        :mod:`dynamics`)."""
        if w.alphabet != self.alphabet:
            raise AlphabetMismatchError("word over a different alphabet")
        out, length = _block_product(w.runs, self._image_blocks)
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
    gens = range(1, e1.alphabet.rank + 1)
    blocks = _compose_blocks(e1._image_blocks, {g: e2._image_blocks[g] for g in gens})
    return Endomorphism(e1.alphabet, [Word._make(e1.alphabet, *blocks[g]) for g in gens])


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

    Computed on first use and kept on ``e``.

    >>> from .words import standard_alphabet, parse_word
    >>> F2 = standard_alphabet(2)
    >>> cancellation_bound(Endomorphism(F2, [parse_word(F2, "a"), parse_word(F2, "b a")]))
    1
    """
    if e._cancellation_bound is None:
        e._cancellation_bound = _longest_common_cone_prefix(e)
    return e._cancellation_bound


def _longest_common_cone_prefix(e: Endomorphism) -> int:
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
    best = 0
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
            best = max(best, depth[root])
    return best


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
