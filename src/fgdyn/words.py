"""Exact arithmetic on freely reduced words over a ranked alphabet.

A letter is a nonzero signed integer: ``+i`` is the i-th generator
(1-based), ``-i`` its inverse.  A :class:`Word` is immutable and always
freely reduced; reduction happens at construction, so the invariant can
never be violated downstream.

Internally a word is stored as a tuple of runs ``(generator, exponent)``
with nonzero exponents and distinct adjacent generators.  Iterating a
polynomially growing automorphism produces words that are almost entirely
long power blocks, so the run encoding keeps million-letter words cheap
to build and compare.

Every reduced product goes through one kernel, :func:`_block_product`.
Iterates of a substitution repeat few distinct factors, so a long
product whose leading windows of ``_WINDOW`` runs repeat is taken by
windows: each distinct window is reduced once, and the reduced window
images are multiplied by the same kernel.  A window table can outlive
one product: each map keeps one for its images, so that the products of
all its orbits reduce each window once.
Free reduction is associative, so the result is the run-by-run product
exactly.
"""

from __future__ import annotations

import sys
from itertools import groupby
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

Letter = int  # signed generator index; +i / -i, never 0


class AlphabetMismatchError(ValueError):
    """Operands live over different alphabets or use out-of-range letters."""


class EmptyWordError(ValueError):
    """The identity word was passed where a nontrivial element is required."""


class WordSyntaxError(ValueError):
    """Malformed word text (unknown symbol or bad exponent)."""


class Alphabet:
    """An ordered basis of the free group: ``rank`` distinct symbol names.

    ``signed_letters`` lists every letter in the order ``+1, -1, +2, -2,
    ...`` that breadth-first searches and canonical numberings follow.

    >>> ab = Alphabet(("a", "b"))
    >>> ab.rank
    2
    >>> ab.index("b")
    2
    >>> ab.signed_letters
    (1, -1, 2, -2)
    """

    __slots__ = ("names", "_index", "signed_letters", "_letter_blocks")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(names) < 2:
            raise ValueError("rank must be at least 2")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for name in names:
            if not name or "^" in name or any(ch.isspace() for ch in name):
                raise ValueError(f"invalid generator name: {name!r}")
        self.names = names
        self._index = {name: i + 1 for i, name in enumerate(names)}
        self.signed_letters = tuple(x for g in range(1, len(names) + 1) for x in (g, -g))
        # each letter as a block of _block_product: a product of runs over
        # these blocks is the free reduction of the runs
        self._letter_blocks = {
            x: (((abs(x), 1 if x > 0 else -1),), 1) for x in self.signed_letters
        }

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """1-based index of a generator name."""
        try:
            return self._index[name]
        except KeyError:
            raise WordSyntaxError(f"unknown symbol: {name!r}") from None

    def name(self, letter: Letter) -> str:
        return self.names[abs(letter) - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({self.names!r})"


def standard_alphabet(rank: int) -> Alphabet:
    """The alphabet a, b, c, ... of the given rank (at most 26)."""
    if rank > 26:
        raise ValueError("standard alphabet supports rank <= 26")
    return Alphabet(tuple("abcdefghijklmnopqrstuvwxyz"[:rank]))


Runs = Sequence[tuple[int, int]]


def _power_runs(runs: Runs, k: int, i: int) -> Runs:
    """The runs of the ``k``-th power (``k >= 1``) of a reduced block
    whose first ``i`` runs pair off with its last ``i`` as a conjugator
    (:func:`_conjugator`)."""
    # a conjugate w M w^-1 whose w ends in whole runs: its power conjugates
    # M^k, so the pairs of conjugator runs are stripped first
    j = len(runs) - 1 - i
    core = runs[i : j + 1] if i else runs
    if len(core) < 2:
        power = tuple((gen, exp * k) for gen, exp in core)
    elif core[0][0] != core[-1][0]:
        # no junction can cancel or merge
        power = core * k
    else:
        # core = (g, e0) M (g, en) with e0 + en != 0: only the two g-runs
        # meet at a junction.  The end runs are reused, not rebuilt:
        # iterates hold millions of them.
        first, middle, last = core[0], tuple(core[1:-1]), core[-1]
        power = (first,) + (middle + ((first[0], first[1] + last[1]),)) * (k - 1) + middle + (last,)
    if i:
        return tuple(runs[:i]) + tuple(power) + tuple(runs[j + 1 :])
    return power


def _block_power(runs: Runs, length: int, k: int) -> tuple[Runs, int]:
    """The runs and length of the ``k``-th power (``k >= 0``) of a reduced
    block of ``length`` letters.  The power of ``w c w^-1`` (``c``
    cyclically reduced) cancels ``2|w|`` letters at each of its ``k - 1``
    inner junctions, so it has ``2|w| + k(length - 2|w|)`` letters."""
    if not k:
        return (), 0
    i, t = _conjugator(runs)
    return _power_runs(runs, k, i), 2 * t + k * (length - 2 * t)


# A long product is cut into windows of this many runs: long enough that
# the window images, not the runs, carry the work of the final product.
_WINDOW = 32
# Windows read from the head of a pattern to decide whether it repeats:
# at most this many, and at most half of the pattern's windows, so a
# pattern that does not repeat costs no pass over it ...
_SAMPLE = 32
# ... and at least 4, so a pattern of fewer than this many runs is read
# run by run.
_MIN_RUNS = 2 * _WINDOW * 4


class _WindowTable:
    """The windows of products over one dict of ``blocks``: each distinct
    window's id and its reduced image, kept for as long as the table is,
    and the runs of the windows and their images in all, at most
    ``room``.  Filled by :func:`_window_product`, in the order the windows
    were met."""

    __slots__ = ("blocks", "room", "ids", "images", "runs")

    def __init__(self, blocks: dict, room: int = sys.maxsize):
        self.blocks, self.room = blocks, room
        self.ids: dict = {}  # window -> the run (id, 1) that stands for it
        self.images: dict = {}  # id -> the reduced window image as a block
        self.runs = 0


def _repeats(pattern: Runs, known: dict) -> bool:
    """Whether a pattern of at least ``_MIN_RUNS`` runs is worth reducing
    by windows: at most half of its leading windows are distinct windows
    not already ``known``.  The sample is ``_SAMPLE`` windows or half of
    the pattern's, whichever is fewer."""
    sample = min(_SAMPLE, len(pattern) // (2 * _WINDOW))
    head = {tuple(pattern[i : i + _WINDOW]) for i in range(0, _WINDOW * sample, _WINDOW)}
    return 2 * len(head.difference(known)) <= sample


def _window_product(pattern: Runs, blocks: dict, table: _WindowTable) -> tuple[list[tuple[int, int]], int]:
    """:func:`_block_product` without a limit, through the windows of
    ``pattern``: each window not yet in ``table`` is reduced once and
    added to it, and the window images are then the blocks of a pattern
    of window ids.  The windows added are met last, so where the table
    then holds more than its ``room`` they are forgotten, last first,
    until it fits: past the bound, a product reduces its new windows for
    itself alone, and the table stops growing.  Raises ``ValueError`` if
    the table was filled from other blocks: its images would not be
    those of these windows."""
    if table.blocks is not blocks:
        raise ValueError("window table filled from other blocks")
    ids, images = table.ids, table.images
    windows = []
    for i in range(0, len(pattern), _WINDOW):
        window = tuple(pattern[i : i + _WINDOW])
        run = ids.get(window)
        if run is None:
            run = ids[window] = (len(ids) + 1, 1)
            image = images[run[0]] = _block_product(window, blocks)
            table.runs += len(window) + len(image[0])
        windows.append(run)
    product = _block_product(windows, images)
    while table.runs > table.room:
        window, (i, _) = ids.popitem()
        table.runs -= len(window) + len(images.pop(i)[0])
    return product


def _block_product(
    pattern: Runs,
    blocks: dict,
    limit: Optional[int] = None,
    out: Optional[list[tuple[int, int]]] = None,
    length: int = 0,
    table: Optional[_WindowTable] = None,
) -> tuple[list[tuple[int, int]], int]:
    """The runs and length of the reduced product ``[prod block(y)^k]``
    over the runs ``(y, k)`` of ``pattern``.

    ``blocks[x]`` is ``(runs, length)`` for the reduced block of the
    signed letter ``x``; a run ``(g, -k)`` reads the block of ``-g``, and
    its power is built in place for one run, else once per call by
    :func:`_block_power`.  With a ``limit``, runs of ``pattern`` are read
    only until the product holds at least ``limit`` letters: the result
    is then the product over the runs read so far.  With ``out``, the
    product resumes from the reduced product ``out`` of ``length``
    letters, and ``out`` is extended in place: a pattern read in pieces,
    a run cut in two included, gives the product of the whole pattern.

    Each block is reduced, so letters cancel or merge only at the
    junction with the product so far: once one run survives there, the
    rest of the block is appended whole.  Apart from the junction inside
    a power block (see :func:`_power_runs`), this is the only place where
    runs merge or cancel.  The length is kept exact from the letters that
    cancel at each junction.

    Without a ``limit``, a pattern of at least ``_MIN_RUNS`` runs whose
    leading windows of ``_WINDOW`` runs repeat (see :func:`_repeats`)
    goes through :func:`_window_product`: each distinct window is reduced
    once, and the reduced window images are multiplied by this same
    loop.  The result is the same runs and length, because free
    reduction is associative and every window image is a reduced block.
    Iterates of a substitution repeat few distinct windows, so the work
    then scales with those rather than with the runs.  A pattern whose
    sample does not repeat is read run by run, with no pass over the
    rest of it.  The windows go in ``table``, a :class:`_WindowTable`
    of ``blocks``, or in a table of this call only: a caller that
    multiplies many patterns over the same blocks, such as
    ``Endomorphism.apply`` over the map's image blocks, passes one table,
    so a window is reduced once for all of them, and a window it already
    holds counts as a repeat.
    """
    if out is None:
        if limit is None and len(pattern) >= _MIN_RUNS:
            if table is None:
                table = _WindowTable(blocks)
            if _repeats(pattern, table.ids):
                return _window_product(pattern, blocks, table)
        out = []
    powers: dict = {}  # the power blocks built so far, by pattern run
    for run in pattern:
        gen, exp = run
        if exp == 1:
            runs, n = blocks[gen]
        elif exp == -1:
            runs, n = blocks[-gen]
        elif run in powers:
            runs, n = powers[run]
        else:
            runs, n = blocks[gen] if exp > 0 else blocks[-gen]
            k = exp if exp > 0 else -exp
            if len(runs) == 1:
                ((g, e),) = runs
                runs = ((g, e * k),)
                n *= k
            else:
                runs, n = powers[run] = _block_power(runs, n, k)
        # the junction: n becomes the letters the block adds to out
        i = 0
        while out and i < len(runs):
            gen, exp = runs[i]
            last_gen, last_exp = out[-1]
            if last_gen != gen:
                break
            i += 1
            merged = last_exp + exp
            if merged:
                out[-1] = (gen, merged)
                if (last_exp ^ exp) < 0:
                    # opposite signs: the run whose sign merged lacks cancels
                    if (merged ^ exp) < 0:
                        n -= 2 * exp if exp > 0 else -2 * exp
                    else:
                        n -= 2 * last_exp if last_exp > 0 else -2 * last_exp
                break
            out.pop()
            n -= 2 * exp if exp > 0 else -2 * exp
        out.extend(runs[i:] if i else runs)
        length += n
        if limit is not None and length >= limit:
            break
    return out, length


def _conjugator(runs: Runs) -> tuple[int, int]:
    """``(i, |w|)`` for the reduced block ``w c w^-1`` with ``c``
    cyclically reduced: the first i runs of the block are whole runs of
    w, each the inverse of its mirror run at the end."""
    t, i, j = 0, 0, len(runs) - 1
    while i < j:
        (g, e), (h, f) = runs[i], runs[j]
        if g != h or (e > 0) == (f > 0):
            break
        t += min(abs(e), abs(f))
        if e != -f:
            break
        i += 1
        j -= 1
    return i, t


def _cut(runs: Runs, n: int, length: int) -> tuple[int, int]:
    """``(k, r)`` such that the first ``n`` letters (``0 < n < length``) of
    the word with these runs are the runs before ``k`` and ``r`` letters of
    run ``k``, with ``0 <= r < |run k|``.  The runs are walked from the end
    nearer the cut, so that a prefix or a drop of a few letters costs a
    few runs."""
    if 2 * n <= length:
        k = 0
        while True:
            e = abs(runs[k][1])
            if n < e:
                return k, n
            n -= e
            k += 1
    k = len(runs)
    rest = length - n  # the letters after the cut
    while True:
        k -= 1
        e = abs(runs[k][1])
        if rest <= e:
            return k, e - rest
        rest -= e


class Word:
    """A freely reduced word; the empty word is the group identity."""

    __slots__ = ("alphabet", "runs", "_length", "_hash")

    def __init__(self, alphabet: Alphabet, runs: tuple[tuple[int, int], ...] = ()):
        # Trusted constructor: `runs` must already satisfy the invariant.
        self.alphabet = alphabet
        self.runs = runs
        self._length = sum(abs(e) for _, e in runs)
        self._hash = None

    @classmethod
    def _make(cls, alphabet: Alphabet, runs: tuple[tuple[int, int], ...], length: int) -> "Word":
        # Trusted constructor for runs whose letter count is already known.
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.runs = runs
        w._length = length
        w._hash = None
        return w

    @classmethod
    def from_letters(cls, alphabet: Alphabet, letters: Iterable[Letter]) -> "Word":
        """Build the reduced word equal to the given letter sequence.

        >>> F = standard_alphabet(2)
        >>> str(Word.from_letters(F, [1, 2, -2, 1]))
        'a^2'
        """
        runs: list[tuple[int, int]] = []
        for letter, group in groupby(letters):
            gen = abs(letter)
            if letter == 0 or gen > alphabet.rank:
                raise AlphabetMismatchError(f"letter {letter} out of range")
            k = sum(1 for _ in group)
            runs.append((gen, k if letter > 0 else -k))
        return cls._reduced(alphabet, runs)

    @classmethod
    def from_runs(cls, alphabet: Alphabet, runs: Iterable[tuple[int, int]]) -> "Word":
        """Build a reduced word from (generator, exponent) pairs, reducing."""
        kept = []
        for gen, exp in runs:
            if not 1 <= gen <= alphabet.rank:
                raise AlphabetMismatchError(f"generator {gen} out of range")
            if exp:
                kept.append((gen, exp))
        return cls._reduced(alphabet, kept)

    @classmethod
    def _reduced(cls, alphabet: Alphabet, runs: Runs) -> "Word":
        # the free reduction of in-range runs with nonzero exponents; a
        # word that len() cannot measure is rejected here, where it enters
        out, length = _block_product(runs, alphabet._letter_blocks)
        if length > sys.maxsize:
            raise WordSyntaxError(f"word too long: more than {sys.maxsize} letters")
        return cls._make(alphabet, tuple(out), length)

    def __len__(self) -> int:
        return self._length

    # a whole word read as a held level of :mod:`fgdyn.dynamics` that has
    # ended: every letter is known, and it reads no further
    known = end = property(__len__)

    def is_identity(self) -> bool:
        return not self.runs

    def letters(self) -> Iterator[Letter]:
        """Yield the signed letters, one at a time."""
        for gen, exp in self.runs:
            letter = gen if exp > 0 else -gen
            for _ in range(abs(exp)):
                yield letter

    def first_letter(self) -> Letter:
        if not self.runs:
            raise EmptyWordError("identity word has no letters")
        gen, exp = self.runs[0]
        return gen if exp > 0 else -gen

    def last_letter(self) -> Letter:
        if not self.runs:
            raise EmptyWordError("identity word has no letters")
        gen, exp = self.runs[-1]
        return gen if exp > 0 else -gen

    def prefix(self, n: int) -> "Word":
        """The first ``n`` letters (the whole word if ``n >= len(self)``)."""
        if n >= self._length:
            return self
        if n <= 0:
            return Word(self.alphabet)
        runs = self.runs
        k, r = _cut(runs, n, self._length)
        if r:
            gen, exp = runs[k]
            return Word._make(self.alphabet, runs[:k] + ((gen, r if exp > 0 else -r),), n)
        return Word._make(self.alphabet, runs[:k], n)

    def drop(self, n: int) -> "Word":
        """The word without its first ``n`` letters."""
        if n <= 0:
            return self
        if n >= self._length:
            return Word(self.alphabet)
        runs = self.runs
        k, r = _cut(runs, n, self._length)
        if r:
            gen, exp = runs[k]
            cut = (gen, exp - r if exp > 0 else exp + r)
            return Word._make(self.alphabet, (cut,) + runs[k + 1 :], self._length - n)
        return Word._make(self.alphabet, runs[k:], self._length - n)

    def inverse(self) -> "Word":
        return Word._make(
            self.alphabet, tuple((g, -e) for g, e in reversed(self.runs)), self._length
        )

    def __invert__(self) -> "Word":
        return self.inverse()

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        runs, length = _block_power(base.runs, self._length, abs(n))
        return Word._make(self.alphabet, tuple(runs), length)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self._length == other._length
            and self.runs == other.runs
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.alphabet.names, self.runs))
        return self._hash

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"<Word {format_word(self)!r}>"


def identity(alphabet: Alphabet) -> Word:
    return Word(alphabet)


def generator(alphabet: Alphabet, letter: Letter) -> Word:
    """The one-letter word for a signed generator index."""
    if letter == 0 or abs(letter) > alphabet.rank:
        raise AlphabetMismatchError(f"letter {letter} out of range")
    return Word(alphabet, ((abs(letter), 1 if letter > 0 else -1),))


def reduce(alphabet: Alphabet, letters: Iterable[Letter]) -> Word:
    """Reduce a raw letter sequence to its unique freely reduced form."""
    return Word.from_letters(alphabet, letters)


def _check_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("words live over different alphabets")


def concat(u: Word, v: Word) -> Word:
    """The reduced product ``[uv]``."""
    _check_same_alphabet(u, v)
    if not u.runs:
        return v
    if not v.runs:
        return u
    # u and v as the blocks of the letters of the two-letter pattern
    runs, length = _block_product(
        ((1, 1), (2, 1)), {1: (u.runs, u._length), 2: (v.runs, v._length)}
    )
    return Word._make(u.alphabet, tuple(runs), length)


def invert(u: Word) -> Word:
    """The group inverse; an anti-homomorphism."""
    return u.inverse()


class CyclicDecomposition(NamedTuple):
    """``u = [w c w^-1]`` with ``c`` cyclically reduced and nonempty."""

    conjugator: Word
    core: Word


def cyclic_reduce(u: Word) -> CyclicDecomposition:
    """Strip matching conjugating letters from both ends of ``u``.

    >>> F = standard_alphabet(2)
    >>> dec = cyclic_reduce(parse_word(F, "b a^4 b^-1"))
    >>> str(dec.conjugator), str(dec.core)
    ('b', 'a^4')
    """
    if u.is_identity():
        raise EmptyWordError("identity word has no cyclic core")
    t = _conjugator(u.runs)[1]
    return CyclicDecomposition(u.prefix(t), u.drop(t).prefix(len(u) - 2 * t))


def primitive_root(u: Word) -> tuple[Word, int]:
    """Write ``u = root^power`` with the power maximal.

    The root of a conjugate ``w c^m w^-1`` is ``w r w^-1`` where ``r`` is
    the primitive root of the cyclic core.
    """
    if u.is_identity():
        raise EmptyWordError("identity word has no primitive root")
    conj, core = cyclic_reduce(u)
    # the least d > 0 at which the core equals its rotation by d letters
    # is the length of its root, and d divides the length of the core
    spelled = _spelling(core.runs)
    d = (spelled + spelled).find(spelled, 1)
    return conj * core.prefix(d) * conj.inverse(), len(spelled) // d


def common_prefix_length(u: Word, v: Word) -> int:
    """Length of the longest common prefix (the Gromov product at 1)."""
    _check_same_alphabet(u, v)
    return _runs_prefix(u.runs, v.runs)[0]


def _runs_prefix(a: Runs, b: Runs) -> tuple[int, int]:
    """The common prefix of the letters of ``a`` and ``b``, and one letter
    past the end of the longer of the runs where they differ (of the run
    past the shorter, where the runs of one are the first runs of the
    other): a place past the common prefix that a reader of both must
    reach to settle it."""
    cp = 0
    for x, y in zip(a, b):
        if x != y:  # the first run that differs
            (g1, e1), (g2, e2) = x, y
            if g1 != g2 or (e1 > 0) != (e2 > 0):
                return cp, cp + 1
            s1, s2 = (e1 if e1 > 0 else -e1), (e2 if e2 > 0 else -e2)
            return (cp + s2, cp + 1 + s1) if s1 > s2 else (cp + s1, cp + 1 + s2)
        e = x[1]
        cp += e if e > 0 else -e
    n, longer = (len(a), b) if len(a) < len(b) else (len(b), a)
    return cp, cp + 1 + (abs(longer[n][1]) if n < len(longer) else 0)


def _spelling(runs: Runs) -> str:
    """The letters of ``runs`` one character each (2g for g, 2g + 1 for
    g^-1), so that str search and compare read words."""
    return "".join([chr(2 * gen + (exp < 0)) * abs(exp) for gen, exp in runs])


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse whitespace-separated tokens ``name`` or ``name^int``.

    The empty string denotes the identity.

    >>> F = standard_alphabet(4)
    >>> str(parse_word(F, "b a^-1 b^-1"))
    'b a^-1 b^-1'
    """
    runs: list[tuple[int, int]] = []
    for token in text.split():
        name, caret, exp_text = token.partition("^")
        if caret:
            try:
                exp = int(exp_text)
            except ValueError:
                raise WordSyntaxError(f"malformed exponent in {token!r}") from None
        else:
            exp = 1
        gen = alphabet.index(name)
        if exp:
            runs.append((gen, exp))
    return Word._reduced(alphabet, runs)


def format_word(w: Word) -> str:
    """Canonical text form; inverse of :func:`parse_word` on canonical input."""
    tokens = []
    for gen, exp in w.runs:
        name = w.alphabet.names[gen - 1]
        tokens.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(tokens)
