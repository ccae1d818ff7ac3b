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
    _append_runs,
    _power_runs,
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


class Endomorphism:
    """Generator-image presentation of an endomorphism of F_N."""

    __slots__ = ("alphabet", "images", "_image_runs")

    def __init__(self, alphabet: Alphabet, images: Sequence[Word]):
        images = tuple(images)
        if len(images) != alphabet.rank:
            raise ValueError("need exactly one image per generator")
        for img in images:
            if img.alphabet != alphabet:
                raise AlphabetMismatchError("image over a different alphabet")
        self.alphabet = alphabet
        self.images = images
        # runs of the image of +g and -g, keyed by signed letter
        self._image_runs = {}
        for g, img in enumerate(images, start=1):
            self._image_runs[g] = img.runs
            self._image_runs[-g] = img.inverse().runs

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Endomorphism":
        return cls(alphabet, [generator(alphabet, g) for g in range(1, alphabet.rank + 1)])

    def apply(self, w: Word) -> Word:
        """The reduced image ``[e(w)]``."""
        if w.alphabet != self.alphabet:
            raise AlphabetMismatchError("word over a different alphabet")
        out: list[tuple[int, int]] = []
        image_runs = self._image_runs
        for gen, exp in w.runs:
            _append_runs(out, _power_runs(image_runs[gen if exp > 0 else -gen], abs(exp)))
        return Word(self.alphabet, tuple(out))

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


def apply(e: Endomorphism, w: Word) -> Word:
    return e.apply(w)


def compose(e1: Endomorphism, e2: Endomorphism) -> Endomorphism:
    """The endomorphism ``g -> e1(e2(g))``."""
    if e1.alphabet != e2.alphabet:
        raise AlphabetMismatchError("endomorphisms over different alphabets")
    return Endomorphism(e1.alphabet, [e1.apply(img) for img in e2.images])


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
    """p-fold composition; negative p composes the inverse.

    Square-and-multiply: the powers of ``phi`` commute, so composing the
    squares ``phi^(2^i)`` picked by the bits of ``p`` gives the same pair
    in O(log p) compositions.
    """
    if p < 0:
        return power(phi.inverse(), -p)
    result = identity_pair(phi.alphabet)
    while p:
        if p & 1:
            result = compose_pairs(phi, result)
        p >>= 1
        if p:
            phi = compose_pairs(phi, phi)
    return result


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
    n = a.dimension
    bt = list(zip(*b.entries))
    return IntMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.entries)
    )


def matrix_power(m: IntMatrix, p: int) -> IntMatrix:
    if p < 0:
        raise ValueError("negative matrix power not supported")
    result = IntMatrix.identity(m.dimension)
    base = m
    while p:
        if p & 1:
            result = matrix_mul(result, base)
        p >>= 1
        if p:
            base = matrix_mul(base, base)
    return result


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
