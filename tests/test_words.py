import random
import sys
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from fgdyn import words
from fgdyn.automorphisms import Endomorphism
from fgdyn.families import family, stock_theta
from fgdyn.words import (
    Alphabet,
    AlphabetMismatchError,
    EmptyWordError,
    Word,
    WordSyntaxError,
    common_prefix_length,
    concat,
    cyclic_reduce,
    format_word,
    identity,
    invert,
    parse_word,
    primitive_root,
    reduce,
    standard_alphabet,
)

F2 = standard_alphabet(2)
F4 = standard_alphabet(4)


def naive_reduce(letters):
    """Oracle: repeatedly delete the first adjacent inverse pair."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return out


def letters_strategy(rank, max_size=12):
    nonzero = st.integers(-rank, rank).filter(lambda x: x != 0)
    return st.lists(nonzero, max_size=max_size)


class TestAlphabet:
    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("a",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "x^2"))

    def test_multichar_names(self):
        ab = Alphabet(("x1", "x2"))
        assert str(parse_word(ab, "x1 x2^-2")) == "x1 x2^-2"


class TestReduce:
    def test_single_cancellation(self):
        assert reduce(F4, [1, 2, -2, 1]) == parse_word(F4, "a a")

    def test_identity(self):
        assert reduce(F4, []) == identity(F4)

    def test_cascading(self):
        # oracle check frozen: b a a^-1 a^-1 b^-1 -> b a^-1 b^-1
        assert naive_reduce([2, 1, -1, -1, -2]) == [2, -1, -2]
        assert reduce(F4, [2, 1, -1, -1, -2]) == parse_word(F4, "b a^-1 b^-1")

    def test_out_of_range_letter(self):
        with pytest.raises(AlphabetMismatchError):
            reduce(F2, [3])
        with pytest.raises(AlphabetMismatchError):
            reduce(F2, [0])

    @given(letters_strategy(2))
    def test_matches_naive_oracle(self, letters):
        assert list(reduce(F2, letters).letters()) == naive_reduce(letters)

    def test_exhaustive_short_words_rank2(self):
        alphabet = [1, -1, 2, -2]
        seqs = [[]]
        for _ in range(6):
            seqs = [s + [x] for s in seqs for x in alphabet]
            for s in seqs:
                assert list(reduce(F2, s).letters()) == naive_reduce(s)

    @given(letters_strategy(3))
    def test_idempotent(self, letters):
        w = reduce(standard_alphabet(3), letters)
        assert Word.from_letters(w.alphabet, w.letters()) == w


class TestConcat:
    def test_no_cancellation(self):
        assert format_word(parse_word(F4, "b") * parse_word(F4, "d^-1")) == "b d^-1"

    def test_full_cancellation(self):
        assert (parse_word(F4, "b a") * parse_word(F4, "a^-1 b^-1")).is_identity()

    def test_partial_cancellation(self):
        u = parse_word(F4, "b a^2")
        v = parse_word(F4, "a^-2 c^-1")
        assert format_word(u * v) == "b c^-1"

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            concat(parse_word(F2, "a"), parse_word(F4, "a"))

    @given(letters_strategy(2), letters_strategy(2), letters_strategy(2))
    def test_associative(self, xs, ys, zs):
        u, v, w = (reduce(F2, ls) for ls in (xs, ys, zs))
        assert (u * v) * w == u * (v * w)

    @given(letters_strategy(2))
    def test_identity_element(self, xs):
        u = reduce(F2, xs)
        e = identity(F2)
        assert u * e == u
        assert e * u == u

    @given(letters_strategy(2), letters_strategy(2))
    def test_length_parity(self, xs, ys):
        u, v = reduce(F2, xs), reduce(F2, ys)
        w = u * v
        assert len(w) <= len(u) + len(v)
        assert (len(w) - len(u) - len(v)) % 2 == 0


class TestInvert:
    def test_frozen_example(self):
        assert format_word(invert(parse_word(F4, "d a^2 c^-1"))) == "c a^-2 d^-1"

    def test_identity(self):
        assert invert(identity(F4)) == identity(F4)

    def test_symmetric_form(self):
        assert format_word(invert(parse_word(F4, "b a^-1 b^-1"))) == "b a b^-1"

    @given(letters_strategy(2))
    def test_involutive_and_inverse(self, xs):
        u = reduce(F2, xs)
        assert invert(invert(u)) == u
        assert (u * invert(u)).is_identity()

    @given(letters_strategy(2), letters_strategy(2))
    def test_anti_homomorphism(self, xs, ys):
        u, v = reduce(F2, xs), reduce(F2, ys)
        assert invert(u * v) == invert(v) * invert(u)


class TestCyclicReduce:
    def test_conjugated_power(self):
        dec = cyclic_reduce(parse_word(F4, "b a^4 b^-1"))
        assert format_word(dec.conjugator) == "b"
        assert format_word(dec.core) == "a^4"

    def test_single_letter(self):
        dec = cyclic_reduce(parse_word(F4, "a"))
        assert dec.conjugator.is_identity()
        assert format_word(dec.core) == "a"

    def test_negative_core(self):
        dec = cyclic_reduce(parse_word(F4, "b a^-1 b^-1"))
        assert format_word(dec.conjugator) == "b"
        assert format_word(dec.core) == "a^-1"

    def test_identity_rejected(self):
        with pytest.raises(EmptyWordError):
            cyclic_reduce(identity(F4))

    @given(letters_strategy(2, max_size=10))
    def test_recomposition(self, xs):
        u = reduce(F2, xs)
        if u.is_identity():
            return
        w, c = cyclic_reduce(u)
        assert w * c * invert(w) == u
        assert not c.is_identity()
        assert c.first_letter() != -c.last_letter() or len(c) == 1


def root_by_divisor_scan(u):
    """Reference for primitive_root: the least divisor d of the core's
    length such that the core repeats its first d letters."""
    conj, core = cyclic_reduce(u)
    ls = list(core.letters())
    m = len(ls)
    for d in range(1, m + 1):
        if m % d == 0 and all(ls[i] == ls[i % d] for i in range(m)):
            return conj * Word.from_letters(u.alphabet, ls[:d]) * conj.inverse(), m // d


class TestPrimitiveRoot:
    def test_pure_power(self):
        root, power = primitive_root(parse_word(F4, "a^6"))
        assert format_word(root) == "a"
        assert power == 6

    def test_not_a_proper_power(self):
        root, power = primitive_root(parse_word(F4, "b a b^-1"))
        assert format_word(root) == "b a b^-1"
        assert power == 1

    def test_conjugated_power(self):
        root, power = primitive_root(parse_word(F4, "b a^4 b^-1"))
        assert format_word(root) == "b a b^-1"
        assert power == 4

    def test_identity_rejected(self):
        with pytest.raises(EmptyWordError):
            primitive_root(identity(F4))

    def test_agrees_with_divisor_scan(self):
        rng = random.Random(20261020)
        F3 = standard_alphabet(3)

        def random_word(n):
            return reduce(F3, [rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(n)])

        checked = 0
        for _ in range(3000):
            w, c = random_word(rng.randint(0, 4)), random_word(rng.randint(1, 6))
            u = w * c ** rng.randint(1, 5) * w.inverse()
            if u.is_identity():
                continue
            assert primitive_root(u) == root_by_divisor_scan(u), u
            checked += 1
        assert checked > 2500

    @given(letters_strategy(2, max_size=8), st.integers(1, 6))
    def test_power_compatibility(self, xs, m):
        u = reduce(F2, xs)
        if u.is_identity():
            return
        root_u, power_u = primitive_root(u)
        root_m, power_m = primitive_root(u**m)
        assert root_m == root_u
        assert power_m == power_u * m


class TestCommonPrefix:
    def test_frozen_example(self):
        u = parse_word(F4, "b a^-1 c^-1")
        v = parse_word(F4, "b a^-2 c^-1")
        assert common_prefix_length(u, v) == 2

    @given(letters_strategy(2))
    def test_self(self, xs):
        u = reduce(F2, xs)
        assert common_prefix_length(u, u) == len(u)

    def test_disjoint(self):
        assert common_prefix_length(parse_word(F2, "a"), parse_word(F2, "b")) == 0

    @given(letters_strategy(3, max_size=16), letters_strategy(3, max_size=16))
    def test_matches_letter_scan(self, xs, ys):
        F3 = standard_alphabet(3)
        u, v = reduce(F3, xs), reduce(F3, ys)
        lu, lv = list(u.letters()), list(v.letters())
        expected = 0
        for a, b in zip(lu, lv):
            if a != b:
                break
            expected += 1
        assert common_prefix_length(u, v) == expected


class TestGromovProductBound:
    def test_bound_on_random_words(self):
        # common prefix of g and g^infty is at least (|g|+1)/2
        rng = random.Random(20240801)
        for _ in range(1000):
            n = rng.randint(1, 12)
            letters = []
            for _ in range(n):
                choices = [x for x in (1, -1, 2, -2) if not letters or x != -letters[-1]]
                letters.append(rng.choice(choices))
            g = Word.from_letters(F2, letters)
            approx = g ** (4 * len(g) // max(len(g), 1) + 4)
            head = approx.prefix(4 * len(g))
            assert 2 * common_prefix_length(g, head) >= len(g) + 1


class TestTextFormat:
    def test_parse_exponent(self):
        assert len(parse_word(F4, "a^3")) == 3
        assert list(parse_word(F4, "a^3").letters()) == [1, 1, 1]

    def test_parse_three_letters(self):
        w = parse_word(F4, "b a^-1 b^-1")
        assert len(w) == 3

    def test_empty_is_identity(self):
        assert parse_word(F4, "").is_identity()
        assert format_word(identity(F4)) == ""

    def test_zero_exponent_vanishes(self):
        assert parse_word(F4, "a^0") == identity(F4)

    def test_unknown_symbol(self):
        with pytest.raises(WordSyntaxError):
            parse_word(F2, "q")

    def test_malformed_exponent(self):
        with pytest.raises(WordSyntaxError):
            parse_word(F2, "a^")
        with pytest.raises(WordSyntaxError):
            parse_word(F2, "a^x")

    def test_word_too_long_for_len_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_word(F2, "b^99999999999999999999")
        with pytest.raises(WordSyntaxError):
            parse_word(F2, f"a^{sys.maxsize} b")
        with pytest.raises(WordSyntaxError):
            Word.from_runs(F2, [(1, sys.maxsize), (2, -1)])
        assert len(parse_word(F2, f"b^-{sys.maxsize}")) == sys.maxsize
        # the bound reads the reduced word, not the runs given
        w = Word.from_runs(F2, [(1, sys.maxsize + 2), (2, 1), (2, -1), (1, -3)])
        assert len(w) == sys.maxsize - 1

    @given(letters_strategy(4, max_size=20))
    def test_round_trip(self, xs):
        w = reduce(F4, xs)
        assert parse_word(F4, format_word(w)) == w

    def test_canonical_spelling(self):
        assert format_word(parse_word(F4, "a a a b^-1 b^-1")) == "a^3 b^-2"


class TestPrefixAndPower:
    def test_prefix_splits_runs(self):
        w = parse_word(F4, "a^5 b^2")
        assert format_word(w.prefix(6)) == "a^5 b"
        assert w.prefix(100) == w
        assert w.prefix(0).is_identity()

    def test_drop_splits_runs(self):
        w = parse_word(F4, "a^5 b^2")
        assert format_word(w.drop(3)) == "a^2 b^2"
        assert format_word(w.drop(5)) == "b^2"
        assert w.drop(0) == w
        assert w.drop(100).is_identity()

    @given(letters_strategy(2, max_size=12), st.integers(0, 14))
    def test_drop_matches_letters(self, xs, n):
        u = reduce(F2, xs)
        assert list(u.drop(n).letters()) == list(u.letters())[n:]

    def test_huge_power_of_conjugate(self):
        u = parse_word(F2, "b a b^-1")
        assert u**10**9 == parse_word(F2, "b a^1000000000 b^-1")
        assert u**-(10**9) == parse_word(F2, "b a^-1000000000 b^-1")

    @pytest.mark.parametrize("core", ["a", "a^2 b", "a b a^-2"])
    def test_power_of_a_conjugate_with_many_conjugator_runs(self, core):
        # the pairs of conjugator runs are stripped in one loop: 3,000 of
        # them once exceeded the recursion limit
        rng = random.Random(4)
        w = Word(F2, tuple(random_runs(rng, 3000, 2)))
        u = w * parse_word(F2, core) * w.inverse()
        letters = list(u.letters())
        for k in (1, 2, 5, -3):
            want = stack_reduce((letters if k > 0 else [-x for x in reversed(letters)]) * abs(k))
            assert u**k == Word(F2, runs_of(want))
            assert len(u**k) == len(want)

    @given(letters_strategy(2, max_size=6), st.integers(-20, 20))
    def test_power_matches_repeated_product(self, xs, m):
        u = reduce(F2, xs)
        expected = identity(F2)
        step = u if m >= 0 else invert(u)
        for _ in range(abs(m)):
            expected = expected * step
        assert u**m == expected


def stack_reduce(letters):
    """Oracle: free reduction with a stack of letters."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def runs_of(letters):
    """The runs of a reduced letter list, grouped here, not by the kernel."""
    runs = []
    for x in letters:
        gen, sign = abs(x), (1 if x > 0 else -1)
        if runs and runs[-1][0] == gen:
            runs[-1] = (gen, runs[-1][1] + sign)
        else:
            runs.append((gen, sign))
    return tuple(runs)


def run_letters(runs):
    """The letters of a list of runs, reduced or not."""
    return [gen if exp > 0 else -gen for gen, exp in runs for _ in range(abs(exp))]


def random_runs(rng, count, rank, max_exp=4):
    """``count`` runs with distinct adjacent generators: a reduced word."""
    runs = []
    while len(runs) < count:
        gen = rng.randint(1, rank)
        if not runs or runs[-1][0] != gen:
            runs.append((gen, rng.choice((1, -1)) * rng.randint(1, max_exp)))
    return runs


class TestPrefixAndDropAgainstLetters:
    def test_every_cut_matches_the_letters(self):
        rng = random.Random(11)
        kinds = set()
        for _ in range(300):
            runs = random_runs(rng, rng.randint(1, 10), 4)
            w = Word(F4, tuple(runs))
            letters = run_letters(runs)
            boundaries = set(accumulate(abs(e) for _, e in runs))
            for n in range(len(w) + 2):
                for got, want in ((w.prefix(n), letters[:n]), (w.drop(n), letters[n:])):
                    assert got.runs == runs_of(want)
                    assert len(got) == len(want)
                if 0 < n < len(w):
                    kinds.add((n in boundaries, 2 * n > len(w)))
        # cuts at run boundaries and inside runs, on both sides of |w|/2
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}


class TestWindowedProduct:
    """Long products whose leading windows repeat are reduced window by
    window; every result must be the stack reduction of its letters."""

    @pytest.fixture
    def windowed(self, monkeypatch):
        calls = []
        inner = words._window_product

        def spy(pattern, blocks, table):
            calls.append(len(pattern))
            return inner(pattern, blocks, table)

        monkeypatch.setattr(words, "_window_product", spy)
        return calls

    @staticmethod
    def check_apply(e, w):
        images = {}
        for gen, img in enumerate(e.images, start=1):
            images[gen] = list(img.letters())
            images[-gen] = [-x for x in reversed(images[gen])]
        want = stack_reduce([y for x in w.letters() for y in images[x]])
        got = e.apply(w)
        assert got.runs == runs_of(want)
        assert len(got) == len(want)

    @staticmethod
    def check_building(alphabet, runs):
        """``from_letters`` and ``parse_word`` on runs that need not be
        reduced."""
        letters = run_letters(runs)
        want = stack_reduce(letters)
        text = " ".join(f"{alphabet.names[g - 1]}^{e}" for g, e in runs)
        for got in (Word.from_letters(alphabet, letters), parse_word(alphabet, text)):
            assert got.runs == runs_of(want)
            assert len(got) == len(want)

    @staticmethod
    def random_map(rng, alphabet):
        rank = alphabet.rank
        images = [random_runs(rng, rng.randint(1, 4), rank, 2) for _ in range(rank)]
        return Endomorphism(alphabet, [Word(alphabet, tuple(runs)) for runs in images])

    @pytest.mark.parametrize("name", ["trace3", "trace4", "beta"])
    def test_iterates_of_a_substitution(self, windowed, name):
        pair = family("beta", rank=6).pair if name == "beta" else stock_theta(name)
        seed = "e f e" if name == "beta" else "a b a"
        w = parse_word(pair.alphabet, seed)
        while len(w.runs) < 5000:
            w = pair.forward.apply(w)
        assert words._repeats(w.runs, {})
        del windowed[:]
        for e in (pair.forward, pair.backward):
            self.check_apply(e, w)
        # the backward images cancel: the image is shorter than the word
        assert len(pair.backward.apply(w)) < len(w) < len(pair.forward.apply(w))
        assert windowed == [len(w.runs)] * 4

    def test_powers_of_random_words(self, windowed):
        rng = random.Random(5)
        F3 = standard_alphabet(3)
        for period in (3, 8, 16, 24, 48, 96):
            base = random_runs(rng, period, 3)
            while base[0][0] == base[-1][0]:  # runs of the power: base repeated
                base = random_runs(rng, period, 3)
            w = Word(F3, tuple(base)) ** (3000 // period + 1)
            assert w.runs == tuple(base) * (3000 // period + 1)
            assert words._repeats(w.runs, {})
            for _ in range(3):
                self.check_apply(self.random_map(rng, F3), w)
            self.check_building(F3, list(w.runs))
        assert len(windowed) == 6 * 5

    def test_random_words_do_not_repeat(self, windowed):
        rng = random.Random(6)
        F3 = standard_alphabet(3)
        for count in (300, 2048, 2049, 5000, 20000):
            w = Word(F3, tuple(random_runs(rng, count, 3)))
            assert count < words._MIN_RUNS or not words._repeats(w.runs, {})
            self.check_apply(self.random_map(rng, F3), w)
            self.check_building(F3, list(w.runs))
        assert windowed == []

    def test_a_repeating_head_then_random_runs(self, windowed):
        rng = random.Random(7)
        F3 = standard_alphabet(3)
        head = [(1, 2), (2, -1), (3, 1), (2, 3)] * 300  # the sampled head repeats
        for tail in (2000, 3000, 3001):
            letters = stack_reduce(run_letters(head + random_runs(rng, tail, 3)))
            w = Word(F3, runs_of(letters))
            n = len(w.runs)
            distinct = {w.runs[i : i + words._WINDOW] for i in range(0, n, words._WINDOW)}
            assert words._repeats(w.runs, {}) and 2 * len(distinct) > n // words._WINDOW
            self.check_apply(self.random_map(rng, F3), w)
            self.check_building(F3, list(w.runs))
        assert len(windowed) == 3 * 3

    def test_window_images_that_cancel_across_windows(self, windowed):
        rng = random.Random(8)
        F3 = standard_alphabet(3)
        # conjugation by u: each window image is u W u^-1, so u^-1 u
        # cancels wholly at every junction between window images
        u = Word(F3, tuple(random_runs(rng, 12, 3)))
        inner = Endomorphism(F3, [u * Word(F3, ((g, 1),)) * u.inverse() for g in (1, 2, 3)])
        w = Word(F3, tuple(random_runs(rng, 20, 3, 1))) ** 200
        assert words._repeats(w.runs, {})
        self.check_apply(inner, w)
        assert inner.apply(w) == u * w * u.inverse()
        # unreduced patterns: v v^-1 cancels to nothing, and windows of 32
        # runs cut v of 20 runs in changing places
        v = random_runs(rng, 20, 3)
        inverse = [(g, -e) for g, e in reversed(v)]
        for runs in ((v + inverse) * 120, (v + inverse) * 120 + v, v * 3 + (inverse + v) * 150):
            self.check_building(F3, runs)
        assert len(windowed) == 2 + 3 * 2

    def test_mid_size_patterns(self, windowed):
        # 256 to 2,047 runs: a sample of 4 to 31 windows decides
        rng = random.Random(9)
        F3 = standard_alphabet(3)
        for count in (words._MIN_RUNS - 1, words._MIN_RUNS, 300, 700, 1024, 2047):
            base = random_runs(rng, 8, 3)  # every window of its power is the same
            while base[0][0] == base[-1][0]:
                base = random_runs(rng, 8, 3)
            for runs, repeats in ((base * (count // 8 + 1), True), (random_runs(rng, count, 3), False)):
                w = Word(F3, tuple(runs[:count]))
                del windowed[:]
                self.check_apply(self.random_map(rng, F3), w)
                self.check_building(F3, list(w.runs))
                if count < words._MIN_RUNS:
                    assert windowed == []
                else:
                    assert words._repeats(w.runs, {}) == repeats
                    assert windowed == [count] * (3 * repeats)  # apply, from_letters, parse_word

    def test_a_table_of_other_blocks_is_refused(self):
        # a table holds the images of its windows under the blocks it was
        # filled from; under other blocks they would give a wrong word
        pair = stock_theta("trace3")
        w = parse_word(pair.alphabet, "a b a")
        while len(w.runs) < 5000:
            w = pair.forward.apply(w)
        forward, backward = pair.forward._image_blocks, pair.backward._image_blocks
        table = words._WindowTable(forward)
        runs, length = words._block_product(w.runs, forward, table=table)
        assert table.ids and (tuple(runs), length) == (pair.forward.apply(w).runs, len(pair.forward.apply(w)))
        with pytest.raises(ValueError, match="other blocks"):
            words._block_product(w.runs, backward, table=table)
        with pytest.raises(ValueError, match="other blocks"):
            words._window_product(w.runs, dict(forward), table)


RUN_WORDS = st.lists(st.tuples(st.integers(1, 2), st.integers(-4, 4)), max_size=8).map(
    lambda runs: Word.from_runs(F2, runs)
)


def letter_count(w):
    return sum(abs(e) for _, e in w.runs)


class TestKnownLength:
    """Operations that build a word of known length skip the letter sum."""

    @given(RUN_WORDS, st.integers(-2, 30))
    def test_prefix_and_drop(self, w, n):
        for got in (w.prefix(n), w.drop(n)):
            assert len(got) == letter_count(got)
        assert w.prefix(n) * w.drop(n) == w

    @given(RUN_WORDS, RUN_WORDS, st.integers(-4, 4))
    def test_inverse_concat_power(self, u, v, k):
        for got in (u.inverse(), u * v, u * u.inverse().prefix(k), u**k, (u * v * u.inverse()) ** k):
            assert len(got) == letter_count(got)


def test_words_random_law_battery():
    # 10^4 random words: reduction well-defined, concat/invert laws hold
    rng = random.Random(7)
    for _ in range(10_000):
        xs = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 10))]
        ys = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 10))]
        u = reduce(F2, xs)
        v = reduce(F2, ys)
        assert Word.from_letters(F2, u.letters()) == u
        assert invert(u * v) == invert(v) * invert(u)
        assert (u * invert(u)).is_identity()
