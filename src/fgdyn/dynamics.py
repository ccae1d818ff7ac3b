"""Iteration of automorphisms on elements and boundary points.

The engine certifies limits by prefix stabilization: it tracks the common
prefix of consecutive iterates and declares a boundary limit once that
prefix is long enough (``target_prefix``) and has grown monotonically for
a window of steps.  A certified prefix is then tested for an eventually
periodic shape; a recognized rational candidate is only accepted if it is
exactly fixed by the automorphism, so phantom periods in a short prefix
cannot leak into results.

Limits of elements and of rational boundary points agree (the orbit of
``g`` and of ``g^infinity`` converge together), which is what
:func:`omega_limit_rational` exploits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import count, islice
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .automorphisms import AutoPair, Endomorphism, cancellation_bound, power
from .automorphisms import _junction_bounds
from .words import (
    AlphabetMismatchError,
    EmptyWordError,
    Word,
    _block_product,
    _spelling,
    _WindowTable,
    common_prefix_length,
    cyclic_reduce,
    format_word,
    primitive_root,
)


class GrowthOverflowError(RuntimeError):
    """Word length exceeded the configured budget during iteration.

    ``word`` is the iterate that broke the budget, when it is known: it
    is ``None`` where :func:`growth_classify` read the overflow from
    letter counts, as it does from the first legal iterate of an orbit on
    (:func:`_lengths`): counts build no iterate.
    """

    def __init__(self, iteration: int, length: int, budget: int, word: Optional[Word] = None):
        self.iteration = iteration
        self.length = length
        self.budget = budget
        self.word = word
        super().__init__(
            f"word grew to {length} letters (budget {budget}) at iteration {iteration}"
        )


@dataclass(frozen=True)
class IterationConfig:
    max_iterations: int = 300
    target_prefix: int = 200
    stability_window: int = 5
    max_word_length: int = 10**6
    min_repeats: int = 3

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_CONFIG = IterationConfig()


# ---------------------------------------------------------------------------
# Rational boundary points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalPoint:
    """Canonical form ``head . period^infinity`` of a rational boundary point.

    The period is primitive and cyclically reduced, the junction does not
    cancel, and the head is minimal (it does not end with the last letter
    of the period).  Build instances through :func:`rational_point`; the
    canonical form makes equality of points plain field equality.
    """

    head: Word
    period: Word

    def text(self) -> str:
        if self.head.is_identity():
            return f"({format_word(self.period)})^∞"
        return f"{format_word(self.head)} ({format_word(self.period)})^∞"

    def __str__(self) -> str:
        return self.text()

    def to_json(self) -> dict:
        return {"head": format_word(self.head), "period": format_word(self.period)}


def rational_point(head: Word, period: Word) -> RationalPoint:
    """Canonicalize ``head . period^infinity``."""
    if period.is_identity():
        raise EmptyWordError("period must be nonempty")
    conj, core = cyclic_reduce(period)
    root, _ = primitive_root(core)
    h = list((head * conj).letters())
    c = list(root.letters())
    # absorb cancellation of the head into the power block
    while h and h[-1] == -c[0]:
        h.pop()
        c = c[1:] + c[:1]
    # minimal head: pull whole trailing periods and partial rotations back
    while h and h[-1] == c[-1]:
        h.pop()
        c = c[-1:] + c[:-1]
    alphabet = period.alphabet
    return RationalPoint(
        Word.from_letters(alphabet, h), Word.from_letters(alphabet, c)
    )


def rational_from_element(u: Word) -> RationalPoint:
    """The limit ``u^infinity`` of the powers of a nontrivial element."""
    if u.is_identity():
        raise EmptyWordError("identity has no boundary limit")
    return rational_point(Word(u.alphabet), u)


def element_of(point: RationalPoint) -> Word:
    """The canonical element ``[head period head^-1]`` with ``point = u^inf``."""
    return point.head * point.period * point.head.inverse()


def prefix_of(point: RationalPoint, n: int) -> Word:
    """The first ``n`` letters of the infinite word."""
    if n <= len(point.head):
        return point.head.prefix(n)
    reps = -(-(n - len(point.head)) // len(point.period))
    return (point.head * point.period**reps).prefix(n)


def translate(g: Word, point: RationalPoint) -> RationalPoint:
    """The left translate ``g . point``, canonicalized."""
    return rational_point(g * point.head, point.period)


def apply_rational(e: Endomorphism, point: RationalPoint) -> RationalPoint:
    """The image of a rational point under the boundary map of ``e``."""
    return rational_point(e.apply(point.head), e.apply(point.period))


# ---------------------------------------------------------------------------
# Limit results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rational:
    point: RationalPoint

    def text(self) -> str:
        return self.point.text()

    def to_json(self) -> dict:
        return {"type": "rational", **self.point.to_json()}


@dataclass(frozen=True)
class PrefixApprox:
    """A certified finite prefix of a limit point not recognized as rational."""

    prefix: Word
    certified_length: int

    def __post_init__(self):
        if len(self.prefix) < self.certified_length:
            raise ValueError("prefix shorter than its certified length")

    def text(self) -> str:
        return format_word(self.prefix.prefix(12)) + " …"

    def to_json(self) -> dict:
        return {
            "type": "prefix",
            "prefix": format_word(self.prefix),
            "certified_length": self.certified_length,
        }


LimitPoint = Union[Rational, PrefixApprox]


@dataclass(frozen=True)
class FixedElement:
    word: Word

    def to_json(self) -> dict:
        return {"kind": "fixed", "word": format_word(self.word)}


@dataclass(frozen=True)
class Boundary:
    point: LimitPoint
    iterations_used: int
    certified_length: int

    def to_json(self) -> dict:
        return {
            "kind": "boundary",
            "point": self.point.to_json(),
            "iterations": self.iterations_used,
            "certified_length": self.certified_length,
        }


@dataclass(frozen=True)
class NotConverged:
    best_prefix: Word
    certified_length: int
    diagnostics: dict = field(compare=False)

    def to_json(self) -> dict:
        return {
            "kind": "not-converged",
            "best_prefix": format_word(self.best_prefix),
            "certified_length": self.certified_length,
            "diagnostics": self.diagnostics,
        }


LimitResult = Union[FixedElement, Boundary, NotConverged]


# ---------------------------------------------------------------------------
# Iteration
# ---------------------------------------------------------------------------


def _assembled(g: Word, blocks: dict) -> Word:
    """The product over the runs of ``g`` of :func:`_block_product` blocks."""
    runs, length = _block_product(g.runs, blocks)
    return Word._make(g.alphabet, tuple(runs), length)


def _check_alphabet(e: Endomorphism, g: Word) -> None:
    """Raise :class:`AlphabetMismatchError` where ``g`` is a word over
    another alphabet than ``e``: no orbit step checks it."""
    if g.alphabet != e.alphabet:
        raise AlphabetMismatchError("word over a different alphabet")


def _reachable_letters(e: Endomorphism, g: Word) -> set[int]:
    """The signed letters of ``g`` and, in turn, of the images of those."""
    letters: set[int] = set()
    todo = {gen if exp > 0 else -gen for gen, exp in g.runs}
    while todo:
        letters |= todo
        todo = {gen if exp > 0 else -gen for x in todo for gen, exp in e._image_blocks[x][0]}
        todo -= letters
    return letters


def _renames(e: Endomorphism, letters: Iterable[int]) -> bool:
    """Whether ``e`` gives each of ``letters`` a one-letter image.  Where
    those are the letters reachable from a word, ``e`` only renames the
    letters of each of its iterates, so its orbit is bounded."""
    return all(e._image_blocks[x][1] == 1 for x in letters)


def _quiet_steps(
    e: Endomorphism, g: Word, least: int, limit: int, bound: int, budget: int
) -> Optional[tuple[int, int]]:
    """The largest step n in ``least..limit`` (``least >= 1``) whose
    unreduced length ``U_n(g)`` is below ``bound``, with ``U_n(g)``;
    ``None`` where ``U_least(g) >= bound``, or where a letter y reachable
    from ``g`` has ``U_n(y) > budget``.  ``bound`` is at most
    ``budget + 1``.

    ``U_n(x)``, the length of ``e^n(x)`` before free reduction, is a row
    sum of ``M^n`` for the letter-count matrix M, and ``U_n(g) = sum_x
    |g|_x U_n(x)``.  Each letter of an automorphism has a nonempty image,
    so ``U_n`` never decreases with n: every iterate ``[e^m(g)]`` with
    ``m <= n`` has at most ``U_n(g)`` letters, and ``[e^m(y)]`` at most
    ``U_n(y)``.  n is found by binary lifting over the levels of
    unreduced lengths kept on the map's table
    (:meth:`~automorphisms._MapTable.lifted`).  ``U_least(g)`` is summed over the runs of ``g``
    only until it reaches ``bound``, so a long seed past the bound costs a
    few runs.  From n = least, each power ``2^i``, from the largest down,
    is then added where ``U_(n + 2^i)(g)``, the counts of ``g`` times
    level ``n + 2^i``, is still below ``bound``: one dict read and one dot
    product a probe, on a table that holds the level.  The table's cap is
    at least ``2 * budget + 1``, the one :class:`_Orbit` weighs with, so
    the map keeps one table; every comparison is against at most ``budget
    + 1``, below the cap, so it is exact.
    """
    if least > limit:
        return None
    table = e._table
    lengths = table.level(least, 2 * budget + 1)  # U_least(x) by generator
    counts = [0] * len(lengths)
    total = 0
    for x, k in g.runs:  # U_least(g), read only until it reaches the bound
        k = k if k > 0 else -k
        counts[x - 1] += k
        total += k * lengths[x - 1]
        if total >= bound:
            return None
    n = least
    for i in reversed(range((limit - least).bit_length())):
        if n + (1 << i) <= limit:
            level = table.lifted(n, lengths, i)
            lifted = sum(map(mul, counts, level))
            if lifted < bound:
                n, total, lengths = n + (1 << i), lifted, level
    if any(lengths[abs(y) - 1] > budget for y in _reachable_letters(e, g)):
        return None
    return n, total


# A level reads all its source knows once at most this many runs of the
# source's product lie past its place: a kernel call over a few runs
# costs less than the reads it saves when the levels below each lack a
# few letters at every step.  It was tuned on the stepped engine, every
# affine jump declined (the tests' no_jump fixture, whose held counts pin
# it): over both directions of every default seed of beta:rank=6 (8,653
# held levels), the held reader executes 4.67, 2.57, 2.81 and 3.24
# million lines with 4, 8, 16 and 32 runs here.  With the jump those
# orbits hold 60 levels, and no read in 8 rounds of the orbit_beta
# benchmark takes this branch.
_FEW_RUNS = 8


class _Held:
    """A held prefix ``H_j`` of an orbit past :meth:`_Orbit.hold`, read
    lazily from its source ``H_(j-1)``, or a whole word.

    ``runs`` and ``length`` are the partial product ``P_t``; its first
    ``known`` letters are letters of ``H_j``; ``end`` is ``|H_j|`` once
    the level has stopped reading (then ``known == end``), else ``None``.
    ``k``, ``r`` and ``pos`` are the place in the source: ``r`` letters
    of its run ``k`` are read, ``pos`` letters in all.  ``step`` holds
    the image blocks of the map, ``cap`` and C.  A read ends at a count
    of source letters; the run it ends in is found by walking the
    source's runs from run ``k``, so a read costs about the runs it
    reads.  A level that has stopped reading drops its source, so
    a finished chain can be freed.
    """

    __slots__ = ("source", "step", "alphabet", "runs", "length", "known", "end", "k", "r", "pos")

    def __init__(self, source: "_Held", step: tuple):
        self.source, self.step, self.alphabet = source, step, source.alphabet
        self.runs: list = []
        self.length = self.known = self.k = self.r = self.pos = 0
        self.end: Optional[int] = None

    @classmethod
    def whole(cls, w: Word) -> "_Held":
        """The word ``w`` as a level that has ended."""
        held = object.__new__(cls)
        held.source, held.alphabet, held.runs = None, w.alphabet, w.runs
        held.length = held.known = held.end = len(w)
        return held

    def prefix(self, n: int) -> Word:
        """The first ``n <= known`` letters."""
        return Word._make(self.alphabet, tuple(self.runs), self.length).prefix(n)

    def _read(self, n: int) -> None:
        """Read on in the letters the source knows, toward knowing ``n``,
        in one kernel call: one source letter for each letter P lacks, or
        all the source knows once few of its runs are left.

        The level stops at ``cap + C`` after any piece it reads, a piece
        cut inside a run included, where the eager step checks only after
        whole runs; the two agree.  Along a run ``x^j`` of the source,
        ``|P|`` first falls and then rises: with ``[e(x)] = A c A^-1`` and
        c cyclically reduced, ``[e(x^j)] = A c^j A^-1``, and the letters
        it cancels against the product before the run grow by ``|c|`` a
        letter while a whole ``c`` cancels, by less once, and then not at
        all.  So where a cut leaves ``|P| >= cap + C``, either the whole
        run also ends at ``cap + C`` or more, and the eager step stops
        with the same first ``cap`` letters, which lie below ``|P| - C``;
        or ``|P|`` still falls there, so it was past ``cap + C`` before
        the run, and both stopped at the run before.
        """
        source, (blocks, cap, c) = self.source, self.step
        runs, bound, pos, k, r = source.runs, source.known, self.pos, self.k, self.r
        if r and r == abs(runs[k][1]):  # run k is read to its end
            k, r = k + 1, 0
        if pos == bound:  # the source ended where this level had read to
            return self._stop(self.length, max(0, self.length - c))
        stop = bound
        if len(runs) - k > _FEW_RUNS:
            stop = pos + n + 2 * c - self.length
            if stop > bound:
                stop = bound
        # the read ends rs letters into run ks, counted from the start of
        # the run, 0 < rs <= its size: the first run from k that reaches stop
        ks, rs = k, stop - pos + r
        while True:
            gen, exp = runs[ks]
            if rs <= exp or rs <= -exp:
                break
            rs -= exp if exp > 0 else -exp
            ks += 1
        pieces = [*runs[k:ks], (gen, rs if exp > 0 else -rs)]
        if r:  # the rest of run k
            g, e = pieces[0]
            pieces[0] = (g, e - r if e > 0 else e + r)
        self.k, self.r, self.pos = ks, rs, stop
        length = _block_product(pieces, blocks, cap + c, self.runs, self.length)[1]
        if length >= cap + c:
            return self._stop(length, cap)
        self.length = length
        if stop == bound and source.end is not None:
            self._stop(length, max(0, length - c))
        elif length - 2 * c > self.known:
            self.known = length - 2 * c

    def _stop(self, length: int, end: int) -> None:
        self.length, self.known, self.end, self.source = length, end, end, None


def _pull(held: _Held, n: int) -> None:
    """Read levels until ``held`` knows ``n`` letters or has ended.

    A level reads whenever its source knows letters past its place.  A
    level that has read all its source knows starts a refill: it asks
    its source for as many more letters as it lacks, and for a margin
    past what the source knows, the larger of ``n`` (what was asked of
    the top level) and C for each level above the source on the stack.
    Each level hides up to 2C letters of what its source knows, so each
    step, with its new level on top, a level deep in a chain must know
    about C letters more; a margin of C a level lets a refill that went
    d levels down serve about d more steps.  Asking each source for
    twice what it knew instead made the deep levels, which know most,
    read most.  The rule trades: the few-run chain of ``b d^-1`` under
    ``beta:rank=6`` is refilled late and deep and takes about 1.2 times
    as long as under doubling, while doubling, even for sources of few
    runs only, makes ``d^-1 e`` and the chain of ``b d^-1`` under the
    inverse of ``alpha_k:k=1`` take 1.4-1.6 times as long.  These times
    are of the stepped engine, every affine jump declined (the tests'
    ``no_jump`` fixture, whose held counts pin the margin); with the jump
    these three chains hold no level.  The asks go on a stack, not down
    the call stack: a chain has a level per held step.  The stack starts
    with ``held`` itself, so a level whose source knows the letters reads
    at the first turn.
    """
    todo = [(held, n)]
    margin = n
    while todo:
        held, n = todo[-1]
        source = held.source
        if held.end is not None or held.known >= n:
            todo.pop()
        elif source.end is not None or source.known > held.pos:
            held._read(n)
        else:
            c = held.step[2]
            need = held.pos + n + 2 * c - held.length
            todo.append((source, max(need, source.known + max(margin, c * len(todo)))))


def _held_prefix(u: _Held, v: _Held, ask: int) -> int:
    """:func:`common_prefix_length` of the levels ``u`` and ``v``, each
    read only as far as the comparison needs; a whole word is a level
    that has ended (:meth:`_Held.whole`), so it is never read.

    The runs read so far give a common prefix; it is final where it ends
    below both known bounds, since a run that reaches a bound may still
    grow, or where it reaches the end of a level that has ended.  Else
    the sides that know fewest letters read on, to the larger of
    ``ask``, the letters the caller expects the comparison to need, and
    one letter past the end of the longer of the runs where the two
    differ, which lies past the common prefix and so past what they know:
    :func:`omega_limit` asks for the previous step's common prefix and
    two letters more, so a fresh level is read once, for about what the
    comparison takes.  Each round compares the runs from the first one.
    """
    while True:
        a, b = u.runs, v.runs
        cp = 0
        for x, y in zip(a, b):
            if x != y:  # the first run that differs
                (g1, e1), (g2, e2) = x, y
                reach = cp + 1
                if g1 == g2 and (e1 > 0) == (e2 > 0):
                    s1, s2 = abs(e1), abs(e2)
                    reach += s1 if s1 > s2 else s2
                    cp += s2 if s1 > s2 else s1
                break
            e = x[1]
            cp += e if e > 0 else -e
        else:  # the runs of one are the first runs of the other
            n = len(a) if len(a) < len(b) else len(b)
            rest = a if n < len(a) else b
            reach = cp + 1 + (abs(rest[n][1]) if n < len(rest) else 0)
        known = u.known if u.known < v.known else v.known
        if cp < known:
            return cp
        if u.end == known or v.end == known:
            return known
        for x in [x for x in (u, v) if x.known == known]:
            _pull(x, max(reach, ask))


class _Orbit(Iterator[Union[Word, _Held]]):
    """The orbit of ``g`` under ``e``: each ``next`` takes one step and
    gives the iterate ``[e^n(g)]`` of the new step ``n``, or, once
    :meth:`hold` has been called, a held prefix of it.  ``w`` is the last
    whole iterate; it stays the word the held prefixes start from.

    Raises :class:`GrowthOverflowError` at the first iterate longer than
    ``budget`` letters, carrying that iterate as ``word``.  This is the
    one planner of stepping.  Each step takes one of two moves, each
    giving the same reduced word:

    - apply ``e`` to the previous iterate ``w``, reading every run of it,
      through the orbit's one window table of ``e``
      (:func:`words._block_product`): the iterates of a substitution
      repeat the same few windows at every step, so each is reduced once
      for the whole orbit;
    - assemble ``[e^n(g)]`` as the product over the runs of ``g`` of the
      letter iterates ``[e^n(x)]`` of the letters reachable from ``g``,
      read from the map's table
      (:meth:`~automorphisms._MapTable.letter_iterates`), reading the
      runs of ``g`` and of their images.

    Assembly cancels letters at the junctions.  At a step where ``w`` has
    more runs than an assembly reads, the letters cancelled so far are the
    unreduced length of ``e^(n-1)(g)``, read from level n - 1 of the map's
    table (:meth:`~automorphisms._MapTable.level`), less
    ``|w|``; at the run density of ``w`` they are the runs an assembly
    would cancel.  Assembly starts once the runs it reads and cancels are
    fewer than those of ``w``, and never where the unreduced length passes
    twice the budget.  It then takes every step where ``w`` has more runs
    than it reads, until a letter iterate is longer than ``budget``.  The
    letters reachable from ``g`` are found only once ``w`` has more runs
    than ``g``, so a long seed stepped a few times is not read for them.

    An automorphism permutes words, so the orbit is periodic exactly when
    it comes back to its first word: ``g``, or the iterate :meth:`jump`
    landed at.  At the first return, ``period`` q steps after that word,
    the orbit starts a replay list with it and adds each word it makes
    after it; once the list holds q words, every step replays them.
    Every iterate of a periodic orbit comes before the return, so the
    budget raises where stepping every iterate would.  A caller that needs
    no more than the cycle stops at the return: :func:`verify_splitting`,
    and :func:`growth_classify`, whose lengths (:func:`_lengths`) are
    stepped only while the iterate is not legal, so that the return ends
    every bounded orbit whatever the lengths of its cycle.
    """

    def __init__(self, e: Endomorphism, g: Word, budget: int):
        self.e, self.g, self.budget = e, g, budget
        self.n, self.w = 0, g  # the step, and the last whole iterate
        self.images = None  # the images of the letters reachable from g (and self.reads), once w outgrows g
        self.weighs = False  # whether assembly is weighed
        # once assembly pays, the step of the letter iterates last taken (0
        # for none), and those iterates; None again once one passes budget
        self.level, self.blocks = None, None
        self.start, self.anchor = 0, g  # the step of the first word, and the word
        self.period, self.replay = 0, []  # set at the first return
        self.held: Optional[_Held] = None  # the held level, once held
        self.table = _WindowTable(e._image_blocks)  # the windows of every e(w) applied

    def _reach(self) -> dict:
        """Find the images of the letters reachable from ``g``, and the
        runs an assembly reads: those of ``g`` and of those images."""
        blocks = self.e._image_blocks
        self.images = {x: blocks[x] for x in _reachable_letters(self.e, self.g)}
        self.reads = len(self.g.runs) + sum(len(runs) for runs, _ in self.images.values())
        return self.images

    def _apply(self, w: Word) -> Word:
        """``[e(w)]``, the word :meth:`Endomorphism.apply` gives, through
        the orbit's window table."""
        runs, length = _block_product(w.runs, self.e._image_blocks, table=self.table)
        return Word._make(w.alphabet, tuple(runs), length)

    def jump(self, n: int) -> Word:
        """Land a fresh orbit at step ``n > 1``, and give ``[e^n(g)]``.

        The letter iterates ``[e^n(x)]`` are read from the map's table
        (:meth:`~automorphisms._MapTable.letter_iterates`), built in O(log n) compositions where
        it is cold, and ``[e^n(g)]`` is their product over the runs of
        ``g``, the same reduced word as n steps.  The caller bounds the
        unreduced lengths ``U_n`` of ``g`` and of every letter reachable
        from it by ``budget`` (:func:`_quiet_steps`), so no iterate jumped
        over and no letter iterate built is longer than ``budget``.
        Stepping then goes on from those letter iterates, and assembles at
        every step where the iterate has more runs than an assembly reads.
        """
        self.blocks = self.e._table.letter_iterates(self._reach(), n)
        self.n = self.start = self.level = n
        self.w = self.anchor = _assembled(self.g, self.blocks)
        return self.w

    def hold(self, cap: int, c: int) -> None:
        """Give a held prefix of each iterate from the next step on, as a
        :class:`_Held` level read lazily from the level before it, with
        ``c`` the :func:`cancellation_bound` C of ``e``.

        :func:`omega_limit` holds from the first whole iterate W longer
        than ``cap = target_prefix + C * max_iterations`` letters.
        ``H_0`` is the first ``cap`` letters of W.  ``H_j`` is the first
        ``min(cap, |P| - C)`` letters of ``P = [e(u)]``, where ``u`` is
        the runs of ``H_(j-1)`` read until ``|P| >= cap + C`` or
        ``H_(j-1)`` ends: the first ``|[e(p)]| - C`` letters of the image
        of a prefix p are a prefix of the image of the word, so ``H_j`` is
        a prefix of ``[e^j(W)]``.  A prefix that gains one letter a step
        and loses C keeps at least ``target_prefix`` letters for
        ``max_iterations`` steps.

        A level reads its source only as far as it is asked to know (see
        :func:`_pull`).  While it reads, the first ``|P_t| - C`` letters of
        its partial product ``P_t`` are final, and the rest of the read
        cancels at most C of them, so the final P has at least ``|P_t| -
        C`` letters and ``H_j`` at least ``min(cap, |P_t| - 2C)``: the
        level knows its letters below the largest such bound, and no
        further.  Its length is known only once it stops reading: at
        ``cap + C``, checked after every piece it reads, a run cut inside
        included (see :meth:`_Held._read` for why that agrees with the
        whole runs of ``u``), it holds ``cap``; when its source ends,
        ``|P| - C``.  Free reduction is associative, so reading the known
        part of a run that the source's bound cuts, and the rest of it
        later, gives the same product.  Each level is the held prefix that
        stepping the whole held word would give, letter for letter.
        """
        self.step = (self.e._image_blocks, cap, c)
        self.held = _Held.whole(self.w.prefix(cap))

    def __next__(self) -> Union[Word, _Held]:
        self.n = n = self.n + 1
        if self.held is not None:
            self.held = _Held(self.held, self.step)
            return self.held
        if self.period and len(self.replay) == self.period:
            self.w = self.replay[(n - self.start) % self.period]
            return self.w
        e, g, w, budget = self.e, self.g, self.w, self.budget
        blocks = None
        if self.images is None and len(w.runs) > len(g.runs):
            self._reach()
            self.weighs = True
        if self.weighs and len(w.runs) > self.reads:
            lengths = e._table.level(n - 1, 2 * budget + 1)  # of e^(n-1)(x)
            cancelled = sum((k if k > 0 else -k) * lengths[x - 1] for x, k in g.runs) - len(w)
            if self.reads * len(w) + cancelled * len(w.runs) < len(w.runs) * len(w):
                self.weighs, self.level = False, 0
            elif cancelled + len(w) > 2 * budget:
                self.weighs = False
        if self.level is not None and len(w.runs) > self.reads:
            blocks = e._table.letter_iterates(self.images, n, self.blocks if self.level == n - 1 else None)
            if any(blocks[x][1] > budget for x in self.images):
                self.level = self.blocks = blocks = None  # apply from now on
            else:
                self.level, self.blocks = n, blocks
        self.w = w = self._apply(w) if blocks is None else _assembled(g, blocks)
        if len(w) > budget:
            raise GrowthOverflowError(n, len(w), budget, w)
        if self.period:
            self.replay.append(w)
        elif w == self.anchor:  # the first return: the orbit has period n - start
            self.period, self.replay = n - self.start, [w]
        return w


# The longest Z that :func:`_affine_jump` tries after ``h t^m``: over both
# directions of the default seeds of the catalog families and of 300
# random maps (3,428 orbits), Z of at most one letter gave 1,144 jumps, of
# at most two 1,145, and longer Z no more.
_AFFINE_Z = 2

# A jump short of p pays only where it saves at least this many steps:
# stepping a few-run orbit this far costs about as much as the block
# products of one jump, while an orbit whose unreduced length grows
# exponentially reaches the budget in fewer steps, and on a seed whose
# letter iterates cancel (a long backward iterate) one product over the
# seed reads far more letters than stepping it makes.
_LONG_JUMP = 64


def _first_step_keeps(e: Endomorphism, g: Word) -> bool:
    """Whether ``[e(h)]`` keeps at least half the letters of ``e(h)``
    before free reduction, for h the first 32 runs of ``g``: a look at
    the first step that reads a bounded head of ``g``.

    A jump multiplies letter iterates over the runs of ``g``; where those
    cancel against each other, it builds far more letters than it keeps.
    The 157-letter ``trace3^-4(a b^-1 a^2)`` keeps 0.16 of its first
    step's letters under trace3, and its jump to step 9 took 41-50 ms,
    where stepping takes under 1 ms; the backward iterates of the
    180,000-letter iterates of ``b d c d`` under ``phi_k`` (k = 1, 2, 3)
    and ``beta:rank=6`` keep 0.83-0.97 in their first 32 runs, and jump.
    """
    head, blocks = g.runs[:32], e._image_blocks
    unreduced = sum((k if k > 0 else -k) * blocks[x if k > 0 else -x][1] for x, k in head)
    return 2 * _block_product(head, blocks)[1] >= unreduced


def iterate(phi: AutoPair, g: Word, p: int, cfg: IterationConfig = DEFAULT_CONFIG) -> Word:
    """The exact iterate ``[phi^p(g)]``; negative ``p`` uses the inverse.

    The orbit jumps (:meth:`_Orbit.jump`) to the largest step q <= |p|
    where the unreduced lengths ``U_q`` of ``g`` and of every letter
    reachable from it are at most ``max_word_length``
    (:func:`_quiet_steps`): no step up to q overflows, and the letter
    iterates fit the budget.  It lands at |p| itself wherever that bound
    holds there, and short of |p| only where q is at least
    ``_LONG_JUMP``; and only where the first step keeps at least half its
    letters (:func:`_first_step_keeps`).  The steps after q are stepped,
    and without a jump every step is.  Past q the unreduced length is
    past the budget, so an orbit that does not cancel overflows at the
    next step: ``b`` under ``delta`` reaches ``b a^(10^6)`` in at most
    ``2 log2 q`` compositions on a cold table and one application, not in
    10^6 steps.  Either way stepping stops at the first return to the
    word the orbit started from: from step m on, only ``(|p| - m) mod
    period`` more steps are taken.
    """
    e = phi.forward if p >= 0 else phi.backward
    _check_alphabet(e, g)
    if not p:
        return g
    budget, p = cfg.max_word_length, abs(p)
    orbit = _Orbit(e, g, budget)
    quiet = _quiet_steps(e, g, min(p, _LONG_JUMP), p, budget + 1, budget)
    w = orbit.jump(quiet[0]) if quiet is not None and quiet[0] > 1 and _first_step_keeps(e, g) else g
    while orbit.n < p:
        w = next(orbit)
        if orbit.period:  # whole periods are skipped
            p = orbit.n + (p - orbit.n) % orbit.period
    return w


def recognize_rational(prefix: Word, cfg: IterationConfig = DEFAULT_CONFIG) -> Optional[RationalPoint]:
    """Eventually periodic decomposition of a certified prefix, if any.

    The period is the least d for which the prefix ends in ``min_repeats``
    copies of some d letters, and the head is the shortest one after which
    the prefix has period d to its end.  Period 1 is read off the last
    run.  Each longer d is tested on the last ``min_repeats * d`` letters,
    spelled one character a letter, by one string compare; the start of
    the periodic tail is then found by halving, since a tail with period d
    keeps it from every later start.  The decomposition is canonical as it
    stands: the d letters repeat at least twice (with ``min_repeats == 1``
    period 1 always wins), so they are cyclically reduced and primitive
    (the root of a power would repeat as often in fewer letters), and the
    head, shortest, does not end with the period's last letter.
    """
    runs, n, m = prefix.runs, len(prefix), cfg.min_repeats
    if not runs:
        return None
    gen, exp = runs[-1]
    if abs(exp) >= m:
        letter = Word._make(prefix.alphabet, ((gen, 1 if exp > 0 else -1),), 1)
        return RationalPoint(prefix.prefix(n - abs(exp)), letter)
    s = _spelling(runs)
    for d in range(2, n // m + 1):
        # the last m * d letters have period d (their last letter first)
        if s[n - 1] == s[n - 1 - d] and s.startswith(s[n - (m - 1) * d :], n - m * d):
            lo, hi = 0, n - m * d
            while lo < hi:
                mid = (lo + hi) // 2
                if s.startswith(s[mid + d :], mid):
                    hi = mid
                else:
                    lo = mid + 1
            return RationalPoint(prefix.prefix(lo), prefix.drop(lo).prefix(d))
    return None


def _fixed_limit(e: Endomorphism, prefix: Word, cfg: IterationConfig) -> Optional[RationalPoint]:
    """The rational point ``X = h t^infinity`` that ``prefix`` is a
    prefix of and ``e`` fixes, as far as :func:`recognize_rational` reads
    it, or ``None``.  X is fixed exactly when ``e(u) = u`` for ``u = h t
    h^-1`` (:func:`element_of`; see :func:`omega_limit`).

    A prefix of ``(a b^4)^infinity`` may end in ``min_repeats`` copies of
    b, which recognition reads as period 1.  So where a period-1
    candidate is not fixed, its head (the prefix without that last run)
    is recognized once more, and that candidate is taken where it is
    fixed and ``prefix`` is its first letters.
    """
    candidate = recognize_rational(prefix, cfg)
    if candidate is None or e.apply(u := element_of(candidate)) == u:
        return candidate
    if len(candidate.period) == 1:
        candidate = recognize_rational(candidate.head, cfg)
        if (
            candidate is not None
            and e.apply(u := element_of(candidate)) == u
            and prefix_of(candidate, len(prefix)) == prefix
        ):
            return candidate
    return None


def _affine_jump(
    e: Endomorphism, w: _Held, cp: int, step: int, streak: int, n: int, cfg: IterationConfig
) -> Optional[tuple[int, int, Word]]:
    """The step N at which stepping the orbit certifies, with the common
    prefix there and the certified prefix, proved from step ``n`` without
    building iterates n + 1..N; ``None`` where the proof below fails.
    ``w`` is the iterate of step n as a level (a whole iterate is one
    that has ended), ``cp`` its common prefix with the iterate before it,
    grown by ``step`` letters at the last step, and ``streak`` the steps
    it has grown.

    1. The first ``cp`` letters are a prefix of ``X = h t^infinity``,
       and ``e(u) = u`` for ``u = h t h^-1``: :func:`_fixed_limit`, as
       certification reads them.
    2. ``w = h t^m Z y ...``, read from letters of w that are known (w
       is pulled to ``|h t^m Z| + 1`` letters, at once where it has
       ended): m is the most
       copies of t after h among them, Z the shortest word of at most
       ``_AFFINE_Z`` letters after them that passes 3, and ``y`` the
       letter after Z.
    3. ``psi(Z) = [h^-1 e(h Z)]`` is ``t^d Z S`` letter for letter, with
       ``d |t| = step``.  ``T = t^d Z`` is reduced as written: m >= 1, as
       the first cp letters hold ``min_repeats`` copies of t after h, so
       ``t Z`` is part of the reduced word w, and t is cyclically reduced.
       As ``e(h t^m h^-1) = u^m``, ``[e(h t^m Z)] = h t^(m+d) Z S``,
       reduced (h t, t^(m+d) and ``t^d Z S`` are).
    4. Let x be the last letter of Z (of t if Z is empty), and close
       ``Y = {y}`` under: ``S[0]`` where ``C(x, y) < |S|``, else
       ``F(y)`` (less ``x^-1``) where S is empty and ``C(x, y) = 0``,
       else fail (:func:`~automorphisms._junction_bounds`).  If an
       iterate is ``h t^M Z y' ...`` with y' in Y, the letters cancelled
       between ``[e(h t^M Z)] = h t^(M+d) Z S`` and the image of ``y'
       ...`` are at most ``C(x, y')``: fewer than ``|S|``, so the next
       iterate is ``h t^(M+d) Z S[0] ...``; or none, and it is ``h t^(M+d)
       Z`` followed by the image of ``y' ...``, nonempty as e is an
       automorphism, whose first letter is in ``F(y')`` and is not
       ``x^-1``, since nothing cancels.  By induction the iterate of
       step ``n + k`` is ``h t^(m+dk) Z y_k ...`` with ``y_k`` in Y.
    5. So the common prefix of steps ``n' - 1`` and ``n' > n`` is ``|h| +
       |t| (m + d (n' - 1 - n)) + L``, with L the common prefix of ``Z
       y_k ...`` and ``T y_(k+1) ...``: that of Z and T, since where it
       is all of Z, no letter of Y is ``a = T[|Z|]``.  For then Z is a
       prefix of ``t^infinity``, shorter than t as m is the most copies,
       and ``a = t[|Z|]``.  ``A = h t Z`` ends in x, ``B_j = t[|Z|:]
       t^(j-1) h^-1`` (j >= 1) starts with a, and ``A B_j = u^(j+1)`` is
       reduced (h does not end with the last letter of t).  For j >= d,
       ``[e(A)] = h t^(1+d) Z S`` and ``[e(B_j)]`` cancel the letters of
       ``[e(A)]`` past its common prefix with ``[e(A B_j)] = h t^(1+d)
       t^(j-d) h^-1``: ``|Z S| - p`` of them, p the common prefix of ``Z
       S`` and ``t^(j-d) h^-1``.  h t is reduced, so p = 0 where ``Z S``
       starts with ``t[0]`` and j = d, or does not and j = d + 1.  Where Z
       or S is nonempty, then, ``C(x, a) >= |S|``, and more where Z is,
       so a fails both rules of 4.  Where both are empty, ``[e(h)] = h
       t^d``, so h is nonempty, and ``[e(B_d)] = h^-1``: its first letter
       b, not ``x^-1``, is in ``F(a)``, and ``C(x, b) >= d |t|``, the
       letters ``[e(h t)] = h t^(1+d)`` and ``[e(h^-1)]`` cancel as ``e(h
       t h^-1) = u``; so if a joins Y, b does and fails 4.  The first L
       letters of Z are those of ``t^infinity``, so every such common
       prefix is a prefix of X.
    6. The streak of stepping grows by one at each step past n + 1, so N
       is the first step, if any up to ``max_iterations``, where the
       prefix reaches ``target_prefix`` and the streak
       ``stability_window``, and the certified prefix is the first
       ``cp(N)`` letters of X.
    """
    candidate = _fixed_limit(e, w.prefix(cp), cfg)
    if candidate is None:
        return None
    h, t = candidate.head, candidate.period
    d, r = divmod(step, len(t))
    if r or not d:
        return None
    # the letters of w read: cp covers h t^(m-d) where the orbit is already
    # affine, so h t^m Z y lies within cp + step + |Z| + 1 of them
    need = cp + step + _AFFINE_Z + 1
    _pull(w, need)
    v = w.prefix(min(need, w.known))
    # |h t^m|, with m >= 1: the first cp letters hold a copy of t after h
    start = len(h) + (common_prefix_length(v, prefix_of(candidate, len(v))) - len(h)) // len(t) * len(t)
    _, bounds, firsts = _junction_bounds(e)
    hinv, td, rest = h.inverse(), t**d, v.drop(start)
    for z in range(min(_AFFINE_Z, len(rest) - 1) + 1):
        Z = rest.prefix(z)
        T = td * Z
        psi = hinv * e.apply(h * Z)
        if psi.prefix(len(T)) != T:
            continue
        S = psi.drop(len(T))
        x = Z.last_letter() if z else t.last_letter()
        y = rest.drop(z).first_letter()
        Y, todo = {y}, [y]
        while todo:
            y = todo.pop()
            if bounds[x, y] < len(S):
                new = {S.first_letter()}
            elif not S and not bounds[x, y]:
                new = firsts[y] - {-x}
            else:
                return None
            todo += new - Y
            Y |= new
        # cp(n + 1 + j) = first + step * j, growing at every step
        first = start + common_prefix_length(Z, T)
        grown = streak + 1 if first > cp else 0
        j = max(0, -(-(cfg.target_prefix - first) // step), cfg.stability_window - grown)
        if n + 1 + j > cfg.max_iterations:
            return None
        cp = first + step * j
        return n + 1 + j, cp, prefix_of(candidate, cp)
    return None


def omega_limit(phi: AutoPair, g: Word, cfg: IterationConfig = DEFAULT_CONFIG) -> LimitResult:
    """Limit of the forward orbit of ``g`` in the compactification.

    Fixed elements are reported as such, whatever their length; otherwise
    the orbit is followed until the common prefix of consecutive iterates
    certifies a boundary point, or budgets run out.  Long iterates are
    held as certified prefixes (see :meth:`_Orbit.hold`); a common prefix
    shorter than both held words is the exact common prefix of the
    iterates, so results equal those of whole-word iteration as long as
    the certifying prefixes stay below the held lengths.  Only the whole
    iterates are checked against ``max_word_length``.

    Every iterate is compared as a level: a whole iterate, and the word
    the comparisons start from, as a level that has ended
    (:meth:`_Held.whole`), and a held prefix as a level that is read only
    as far as the common prefix, the certified prefix and the best prefix
    need: up to the first letter where two consecutive levels differ, or
    to the end of one of them (:func:`_held_prefix`).  Each comparison
    first asks for the previous step's common prefix and two letters
    more, which is what an orbit whose prefix grows a letter a step
    needs, so a fresh level is mostly read once.  A level exposes only
    letters below ``min(cap, |P_t| - 2C)`` for its partial product
    ``P_t``, which the rest of its read can neither change nor cut off,
    so every result is the one of stepping each held prefix whole.

    The orbit is one :class:`_Orbit`, stepped once an iteration.  Before
    each step the cap rule runs on the last iterate, if it is whole (a
    held level knows at most ``cap`` letters): past
    ``target_prefix`` letters, C is computed (once per map) and ``cap =
    target_prefix + C * max_iterations``; past ``cap``, the orbit is held
    from that iterate on.  So C is not computed for an orbit that
    certifies or stops before an iterate outgrows ``target_prefix``.

    The steps that cannot certify are jumped over.  The common prefix
    ``cp(n)`` of ``[e^(n-1)(g)]`` and ``[e^n(g)]`` is at most the
    unreduced length ``U_(n-1)(g)`` (:func:`_quiet_steps`).  With p the
    largest step ``<= max_iterations - 2`` where ``U_p(g)`` is below
    ``target_prefix`` (and within ``max_word_length``), no step up to
    p + 1 can certify; the first that can is ``N = p + 2``, and its
    streak reads ``cp`` from ``N - stability_window`` on.  So the orbit
    builds ``[e^s(g)]``, ``s = p + 1 - stability_window >= 2``, by
    :meth:`_Orbit.jump`, and the comparisons start there with a fresh
    streak.  At every step ``n >= N`` the streak then reaches
    ``stability_window`` exactly where the streak from step 1 does:
    either both count the same steps since the last one whose prefix did
    not grow, or both count back to ``s + 1`` or past it, and so at least
    ``n - s - 1 >= stability_window`` steps.  No iterate up to step p is
    longer than ``target_prefix``, so no held level and no overflow is
    jumped over.  The fixed-element check of step 1 comes first, and the
    iterations reported are the true ones.
    A step jumped over has ``cp <= U_p(g)``; where the best common prefix
    after the jump is shorter, the iterates jumped over are compared too,
    stepped by a fresh :class:`_Orbit`, so the best prefix is the longest
    common prefix of any step, the last such one, as without the jump.

    An orbit whose common prefix grows by the same letters at every step,
    as ``h t^m Z`` with m growing, is jumped to the step N where it
    certifies (:func:`_affine_jump`, which proves that form for every
    later step), with the common prefix and certified prefix that
    stepping reaches there; recognition then runs as at any other step.
    The jump is tried only once C is known, so C is computed no sooner
    for it, and at each step where the last two growths of the common
    prefix are equal and positive.  After a step where it fails it is not
    tried again until the orbit is held, and a held orbit does not try it
    again.  While iterates are whole it is tried only where the longest
    generator image times ``cap`` is within ``max_word_length``: each
    whole iterate is then the image of one of at most ``cap`` letters, so
    no step jumped over can overflow before the orbit is held, and held
    levels are never checked against the budget.

    A certified prefix that :func:`recognize_rational` reads as ``X = h
    t^infinity`` (canonical, so t is primitive and cyclically reduced) is
    reported as that rational point exactly when ``e(u) = u`` for ``u =
    h t h^-1`` (:func:`element_of`), one application to ``2|h| + |t|``
    letters.  This is the test ``apply_rational(e, X) == X``: X is the
    attracting point ``u^infinity`` of u, and its stabiliser in F is the
    cyclic group ``<u>``, as u is primitive (t is).  The boundary map
    sends X to ``e(u)^infinity``.  An element fixes its attracting point,
    so if that point is X, ``e(u)`` lies in ``<u>``, and as a positive
    power of u, since ``u^-j`` attracts to the other end of the axis.  An
    automorphism maps the primitive u to a primitive element, so the
    power is ``e(u) = u`` itself; and ``e(u) = u`` plainly fixes X.
    Where a period-1 candidate is not fixed, the prefix without its last
    run is read once more (:func:`_fixed_limit`): the certified prefix of
    ``(a b^4)^infinity`` may end in ``b^4``.
    """
    forward = phi.forward
    _check_alphabet(forward, g)
    budget, window = cfg.max_word_length, cfg.stability_window
    bound = min(cfg.target_prefix, budget + 1)
    quiet = None
    # U_0(g) = |g| may be past the bound already; and a map that gives
    # every letter reachable from g a one-letter image only renames the
    # letters of g, so the orbit comes back to g within a few steps,
    # which stepping finds
    if len(g) < bound and not (
        _renames(forward, (x for x, _ in g.runs)) and _renames(forward, _reachable_letters(forward, g))
    ):
        if forward.apply(g) == g:  # the fixed-element check of step 1
            return FixedElement(g)
        quiet = _quiet_steps(forward, g, window + 1, cfg.max_iterations - 2, bound, budget)
    s = 0 if quiet is None else quiet[0] + 1 - window
    orbit = _Orbit(forward, g, budget)
    prev = _Held.whole(orbit.jump(s) if s else g)
    cap = cfg.target_prefix  # raised by C * max_iterations once C is known
    jumps = False  # whether the affine jump may be tried
    prev_cp: Optional[int] = None
    grew = None  # the last growth of the common prefix
    streak = 0
    best_cp = 0
    best_word = g
    try:
        for iterations in range(s + 1, cfg.max_iterations + 1):
            # hold from the first whole iterate past cap (a held level
            # knows at most cap letters); C is computed (and kept on the
            # map) only once an iterate is past target_prefix and a step
            # is asked for
            if iterations > 1 and prev.known > cap:
                c = cancellation_bound(forward)
                cap = cfg.target_prefix + c * cfg.max_iterations
                if prev.known > cap:
                    orbit.hold(cap, c)
                # once C is known: held iterates are never checked against
                # the budget, and a whole iterate of at most cap letters
                # has an image of at most cap times the longest image
                jumps = prev.known > cap or max(map(len, forward.images)) * cap <= budget
            nxt = next(orbit)
            if iterations == 1 and nxt == g:
                return FixedElement(g)
            if isinstance(nxt, Word):  # a whole iterate, as a level that has ended
                nxt = _Held.whole(nxt)
            # the letter after a common prefix one longer than the last
            cp = _held_prefix(prev, nxt, 0 if prev_cp is None else prev_cp + 2)
            streak = streak + 1 if (prev_cp is None or cp > prev_cp) else 0
            if cp >= best_cp:
                best_cp = cp
                best_word = nxt
            certified = None
            if cp >= cfg.target_prefix and streak >= cfg.stability_window:
                certified = nxt.prefix(cp)
            elif jumps and prev_cp is not None and cp - prev_cp == grew > 0:
                jumped = _affine_jump(forward, nxt, cp, grew, streak, iterations, cfg)
                if jumped is None:
                    jumps = False  # until the orbit is held
                else:
                    iterations, cp, certified = jumped
            if certified is not None:
                candidate = _fixed_limit(forward, certified, cfg)
                point: LimitPoint = PrefixApprox(certified, cp) if candidate is None else Rational(candidate)
                return Boundary(point, iterations, cp)
            if prev_cp is not None:
                grew = cp - prev_cp
            prev_cp = cp
            prev = nxt
        diagnostics = {"reason": "max-iterations", "iterations": cfg.max_iterations}
    except GrowthOverflowError as exc:
        if exc.iteration == 1 and exc.word == g:
            return FixedElement(g)
        diagnostics = {
            "reason": "growth-overflow",
            "iterations": exc.iteration,
            "length": exc.length,
            "budget": exc.budget,
        }
    if s and best_cp < quiet[1]:
        # the steps jumped over, whole words all: the last one with the
        # longest common prefix wins, so only where it is longer
        prev, skipped = g, (0, g)
        for nxt in islice(_Orbit(forward, g, budget), s):
            cp = common_prefix_length(prev, nxt)
            if cp >= skipped[0]:
                skipped = (cp, nxt)
            prev = nxt
        if skipped[0] > best_cp:
            best_cp, best_word = skipped
    return NotConverged(best_word.prefix(best_cp), best_cp, diagnostics)


def omega_limit_rational(
    phi: AutoPair, point: RationalPoint, cfg: IterationConfig = DEFAULT_CONFIG
) -> LimitResult:
    """Limit of the forward orbit of a rational boundary point.

    If the defining element is fixed, the point itself is a fixed
    singular point and is returned exactly; otherwise the orbit of the
    element has the same limit as the orbit of the point.
    """
    result = omega_limit(phi, element_of(point), cfg)
    if isinstance(result, FixedElement):
        return Boundary(Rational(point), 0, cfg.target_prefix)
    return result


# ---------------------------------------------------------------------------
# Parabolic detection
# ---------------------------------------------------------------------------

PARABOLIC = "parabolic"
NOT_PARABOLIC = "not-parabolic"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ParabolicReport:
    seed: Word
    forward: LimitResult
    backward: LimitResult
    verdict: str
    point: Optional[RationalPoint] = None
    certification: Optional[str] = None  # "exact" or "prefix"
    reason: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "seed": format_word(self.seed),
            "verdict": self.verdict,
            "point": None if self.point is None else self.point.to_json(),
            "certification": self.certification,
            "reason": self.reason,
            "forward": self.forward.to_json(),
            "backward": self.backward.to_json(),
        }


def _certified_prefix(result: Boundary, n: int) -> Word:
    """The first ``n`` letters of a limit that certifies at least ``n``."""
    if isinstance(result.point, Rational):
        return prefix_of(result.point.point, n)
    return result.point.prefix.prefix(n)


def detect_parabolic(
    phi: AutoPair, seed: Word, cfg: IterationConfig = DEFAULT_CONFIG
) -> ParabolicReport:
    """Check whether forward and backward orbits of ``seed`` share a limit.

    The verdict is ``parabolic`` with certification "exact" when both
    limits are recognized rational points with equal canonical forms.  If
    one side is only prefix-certified, agreement of the certified prefixes
    to at least ``target_prefix`` letters yields a parabolic verdict of
    certification grade "prefix"; with both sides unrecognized the report
    stays inconclusive.
    """
    if seed.is_identity():
        raise EmptyWordError("seed must be nontrivial")
    forward = omega_limit(phi, seed, cfg)
    if isinstance(forward, FixedElement):
        return ParabolicReport(
            seed, forward, forward, NOT_PARABOLIC, reason="seed is fixed by the automorphism"
        )
    backward = omega_limit(phi.inverse(), seed, cfg)
    report = partial(ParabolicReport, seed, forward, backward)
    if not isinstance(forward, Boundary) or not isinstance(backward, Boundary):
        return report(INCONCLUSIVE, reason="orbit limit did not certify within budgets")
    fp, bp = forward.point, backward.point
    if isinstance(fp, Rational) and isinstance(bp, Rational):
        if fp.point == bp.point:
            return report(PARABOLIC, point=fp.point, certification="exact")
        return report(
            NOT_PARABOLIC,
            reason=f"forward limit {fp.text()} differs from backward limit {bp.text()}",
        )
    # every Boundary certifies at least target_prefix letters
    n = cfg.target_prefix
    if _certified_prefix(forward, n) != _certified_prefix(backward, n):
        return report(
            NOT_PARABOLIC, reason="certified prefixes of forward and backward limits diverge"
        )
    # at most one side is rational here
    rational = next((p.point for p in (fp, bp) if isinstance(p, Rational)), None)
    if rational is not None:
        return report(PARABOLIC, point=rational, certification="prefix")
    return report(
        INCONCLUSIVE,
        certification="prefix",
        reason="certified prefixes agree but neither limit is recognized rational",
    )


# ---------------------------------------------------------------------------
# Growth classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthClass:
    kind: str  # "bounded" | "polynomial" | "exponential"
    degree: Optional[float] = None
    rate: Optional[float] = None
    residuals: dict = field(default_factory=dict, compare=False)
    samples: int = 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "degree": self.degree,
            "rate": self.rate,
            "residuals": self.residuals,
            "samples": self.samples,
        }


def _turns(runs) -> tuple[list[int], set]:
    """The signed letters of a word given by its runs, one a run, and its
    turns: two letters a run at most, as a run ``x^k`` with ``|k| >= 2``
    has the one turn ``(x, x)`` inside it."""
    signed = [x if k > 0 else -x for x, k in runs]
    turns = set(zip(signed, signed[1:]))
    turns.update((x, x) for x, (_, k) in zip(signed, runs) if k > 1 or k < -1)
    return signed, turns


def _legal(e: Endomorphism, g: Word) -> Optional[set[int]]:
    """The signed letters reachable from ``g`` (:func:`_reachable_letters`)
    where every iterate ``e^n(g)``, written out as the images of the
    letters of ``e^(n-1)(g)`` one after another, is reduced as written;
    ``None`` where not.

    A turn is a pair of consecutive letters.  L is the signed letters of
    ``g``, closed under "the letters of ``e(x)``"; T is the turns of
    ``g`` and those inside ``e(x)`` for each x in L, closed under ``(x,
    y) -> (last letter of e(x), first letter of e(y))``.  The orbit is
    legal where T holds no turn ``(x, x^-1)``: every turn of T is legal in
    the sense of Bestvina and Handel ("Train tracks and automorphisms of
    free groups", Ann. of Math. 135, 1992).

    Let ``W_0 = g`` and ``W_n`` be ``e(W_(n-1))`` written out.  It has
    the turns inside each ``e(x_i)``, for the letters ``x_i`` of
    ``W_(n-1)``, and one junction turn ``(last letter of e(x_i), first
    letter of e(x_(i+1)))`` for each turn of ``W_(n-1)``; the images
    are nonempty, as e is an automorphism.  So by induction the letters
    of every ``W_n`` lie in L and its turns in T.  Where no turn of T
    cancels, each ``W_n`` is reduced, so ``W_n = [e(W_(n-1))] =
    [e^n(g)]``, and ``|[e^n(g)]|`` is the unreduced length ``U_n(g) =
    sum_x |g|_x U_n(x)``, the row sums of ``M^n`` for the letter-count
    matrix M.  The L and T of an iterate lie in those of ``g``, so every
    iterate of a legal orbit is legal.  Each run is read for two letters
    at most, so ``b^1000000000000`` costs as much as ``b``.
    """
    letters = _reachable_letters(e, g)
    turns, ends = _turns(g.runs)[1], {}  # ends: the first and last letter of e(x), for x in L
    for x in letters:  # the turns inside the images of the letters of L
        image, inside = _turns(e._image_blocks[x][0])
        turns |= inside
        ends[x] = image[0], image[-1]
    todo = list(turns)
    while todo:  # the junction turns
        x, y = todo.pop()
        turn = (ends[x][1], ends[y][0])
        if turn not in turns:
            turns.add(turn)
            todo.append(turn)
    return None if any(x == -y for x, y in turns) else letters


def _lengths(e: Endomorphism, g: Word, budget: int) -> Iterator[int]:
    """The lengths ``|[e^n(g)]|`` for n = 1, 2, ..., ended where the
    orbit is known to be periodic; raises :class:`GrowthOverflowError` at
    the first step n past ``budget``.

    The orbit is stepped (an :class:`_Orbit`) while its iterate is not
    legal (:func:`_legal` gives no letters), and ends at its first return
    to ``g``, whatever the lengths of the cycle: there are finitely many
    words of each length and e is injective, so a bounded orbit is
    periodic, and comes back to ``g``.

    From the first legal iterate w, at step s, every iterate is reduced
    as written, so its length is the unreduced length ``U_k(w)`` at step
    s + k, summed from the letter counts of ``w`` by generator as exact
    integers: no iterate is built, and an overflow carries no ``word``
    but the step, length and budget of stepping.  ``U_(k+1)(w) - U_k(w)``
    is the sum of ``|e(y)| - 1`` over the letters y of the k-th iterate,
    and each letter reachable from w is a letter of some iterate.  So
    where every one of them has a one-letter image (:func:`_renames`), the
    lengths are all ``|w|``, and end once the first step is checked
    against the budget; and where one has not, the lengths never fall
    and some step grows them, so the orbit is not periodic.  A periodic
    orbit that reached a legal w comes back to ``g`` from w, which makes
    ``g`` legal: so the one-letter test holds only where s = 0.
    """
    orbit, w, letters = _Orbit(e, g, budget), g, _legal(e, g)
    while not letters:
        w = next(orbit)
        if orbit.period:
            return
        yield len(w)
        # the L and T of a subword lie in those of the word, and an iterate
        # that is not legal mostly shows it at its first turn
        letters = _legal(e, w.prefix(2)) and _legal(e, w)
    bounded = _renames(e, letters)
    rows = [[(y - 1, abs(k)) for y, k in image.runs] for image in e.images]
    counts = [0] * len(rows)
    for x, k in w.runs:
        counts[x - 1] += k if k > 0 else -k
    for n in count(orbit.n + 1):
        step = [0] * len(rows)
        for c, row in zip(counts, rows):
            if c:
                for i, k in row:
                    step[i] += c * k
        counts, total = step, sum(step)
        if total > budget:
            raise GrowthOverflowError(n, total, budget)
        if bounded:
            return
        yield total


def growth_classify(
    phi: AutoPair, g: Word, p_max: int, cfg: IterationConfig = DEFAULT_CONFIG
) -> GrowthClass:
    """Classify the growth of ``|phi^p(g)|`` from sampled lengths.

    Fits are taken on the tail half of the samples to skip transients.  A
    growth overflow truncates sampling: an orbit that overflowed is never
    ``bounded``, and the classification proceeds on the available points,
    or re-raises the :class:`GrowthOverflowError` when fewer than three
    tail samples are left to fit.  Both lines pass through any two
    points, so two samples cannot tell the growth kinds apart.
    ``p_max`` is an integer from 8 to ``sys.maxsize``.

    The lengths come from :func:`_lengths`: stepped while the iterate is
    not legal, summed from letter counts after.  They end at the orbit's
    first return, or at once where it is legal and bounded; either way
    the orbit is ``bounded`` with ``samples = p_max``, whatever ``p_max``.
    """
    if isinstance(p_max, bool) or not isinstance(p_max, int) or not 8 <= p_max <= sys.maxsize:
        raise ValueError(f"p_max must be an integer from 8 to {sys.maxsize}, got {p_max!r}")
    e, budget = phi.forward, cfg.max_word_length
    _check_alphabet(e, g)
    lengths, overflow = [], None
    try:
        for length in islice(_lengths(e, g, budget), p_max):
            lengths.append(length)
    except GrowthOverflowError as exc:
        overflow = exc
    if overflow is None and len(lengths) < p_max:  # a periodic orbit
        return GrowthClass("bounded", samples=p_max)
    tail_start = len(lengths) // 2
    ps = range(tail_start + 1, len(lengths) + 1)
    ls = lengths[tail_start:]
    if overflow is not None:
        if len(ls) < 3:
            raise overflow
    elif max(ls) == min(ls):
        return GrowthClass("bounded", samples=p_max)
    logl = [math.log(x) for x in ls]
    poly_fit, poly_res = _linear_fit([math.log(p) for p in ps], logl)
    exp_fit, exp_res = _linear_fit(ps, logl)
    residuals = {"polynomial": poly_res, "exponential": exp_res}
    if poly_res <= exp_res:
        return GrowthClass(
            "polynomial", degree=round(poly_fit, 2), residuals=residuals, samples=len(lengths)
        )
    return GrowthClass(
        "exponential", rate=exp_fit, residuals=residuals, samples=len(lengths)
    )


def _linear_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares line through ``(x, y)``: slope and residual sum of squares.

    The line is the one of ``statistics.linear_regression`` in CPython 3.10
    and 3.11: means and centred sums of products by ``math.fsum``.
    """
    n = len(x)
    xbar = math.fsum(x) / n
    ybar = math.fsum(y) / n
    sxy = math.fsum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y))
    sxx = math.fsum((d := xi - xbar) * d for xi in x)
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    return slope, sum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))


# ---------------------------------------------------------------------------
# Splittings and boundary periodicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplittingCertificate:
    holds: bool
    p_max: int
    witness: Optional[tuple[int, int]] = None  # (iterate p, 1-based left brick)

    def __bool__(self) -> bool:
        return self.holds


def verify_splitting(
    phi: AutoPair, bricks: Sequence[Word], p_max: int
) -> SplittingCertificate:
    """Bounded-p certificate that adjacent brick images never cancel.

    Checks ``|phi^p(g_i)| + |phi^p(g_i+1)| = |phi^p(g_i g_i+1)|`` for all
    ``p <= p_max``.  This certifies the splitting up to the bound only.
    The images of nontrivial bricks are nontrivial, so the test is that
    the last letter of one image is not the inverse of the first letter
    of the next.  Brick images are held under
    ``DEFAULT_CONFIG.max_word_length``; an image past it raises
    :class:`GrowthOverflowError`.

    Each brick's images are stepped by an :class:`_Orbit`.  Once every
    orbit has come back to its brick, the tuple of images at p repeats the
    one at p mod L, for L the lcm of their periods: the check stops once
    it has passed p = L - 1, whatever ``p_max``.
    """
    bricks = list(bricks)
    if len(bricks) < 2:
        raise ValueError("a splitting needs at least two bricks")
    if any(b.is_identity() for b in bricks):
        raise ValueError("bricks must be nontrivial")
    for b in bricks:
        _check_alphabet(phi.forward, b)
    if isinstance(p_max, bool) or not isinstance(p_max, int) or not 0 <= p_max < sys.maxsize:
        raise ValueError(f"p_max must be an integer from 0 to {sys.maxsize - 1}, got {p_max!r}")
    budget = DEFAULT_CONFIG.max_word_length
    orbits = [_Orbit(phi.forward, b, budget) for b in bricks]
    images = bricks
    for p in range(p_max + 1):
        if p:
            images = [next(orbit) for orbit in orbits]
        for i in range(len(images) - 1):
            if images[i].last_letter() == -images[i + 1].first_letter():
                return SplittingCertificate(False, p_max, (p, i + 1))
        periods = [orbit.period for orbit in orbits]
        if all(periods) and p + 1 >= math.lcm(*periods):
            break
    return SplittingCertificate(True, p_max)


def detect_boundary_period(
    phi: AutoPair,
    seed: Word,
    bound: int = 6,
    cfg: IterationConfig = DEFAULT_CONFIG,
) -> Optional[int]:
    """Heuristic probe for short boundary-periodic behavior.

    Looks for the smallest q <= bound such that the orbit of ``seed``
    under ``phi^q`` converges while the limit itself moves on a
    ``phi``-orbit of period q > 1.  Absence of a finding is not a proof
    of rotationlessness.  A negative ``bound`` is rejected.
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    _check_alphabet(phi.forward, seed)
    for q in range(2, bound + 1):
        result = omega_limit(power(phi, q), seed, cfg)
        if isinstance(result, FixedElement):
            start, step = result.word, phi.apply
        elif isinstance(result, Boundary) and isinstance(result.point, Rational):
            start, step = result.point.point, partial(apply_rational, phi.forward)
        else:
            continue
        current = start
        for r in range(1, bound + 1):
            current = step(current)
            if current == start:
                if r > 1:
                    return r
                break
    return None
