import random
import sys
from functools import partial
from itertools import count, islice
from operator import mul

import pytest

from fgdyn import automorphisms, dynamics, words
from fgdyn.automorphisms import (
    Endomorphism,
    _MapTable,
    cancellation_bound,
    compose_pairs,
    identity_pair,
    inner,
    power,
    verify_pair,
)
from fgdyn.dynamics import (
    DEFAULT_CONFIG,
    Boundary,
    FixedElement,
    GrowthClass,
    GrowthOverflowError,
    INCONCLUSIVE,
    IterationConfig,
    NOT_PARABOLIC,
    NotConverged,
    PARABOLIC,
    PrefixApprox,
    Rational,
    RationalPoint,
    apply_rational,
    detect_boundary_period,
    detect_parabolic,
    element_of,
    growth_classify,
    iterate,
    omega_limit,
    omega_limit_rational,
    prefix_of,
    rational_from_element,
    rational_point,
    recognize_rational,
    translate,
    verify_splitting,
)
from fgdyn.families import family, parse_family_spec, stock_theta
from fgdyn.graphs import default_seeds
from fgdyn.words import (
    Alphabet,
    AlphabetMismatchError,
    EmptyWordError,
    Word,
    common_prefix_length,
    identity,
    parse_word,
    reduce,
    standard_alphabet,
)
from random_maps import random_pair

F2 = standard_alphabet(2)
F4 = standard_alphabet(4)


def endo(alphabet, *images):
    return Endomorphism(alphabet, [parse_word(alphabet, t) for t in images])


def make_phi(k):
    fwd = endo(F4, "a", "b a", f"c a^{k + 1}", "d c")
    bwd = endo(F4, "a", "b a^-1", f"c a^{-(k + 1)}", f"d a^{k + 1} c^-1")
    return verify_pair(fwd, bwd)


def sigma():
    e = endo(F2, "a^-1", "b^-1")
    return verify_pair(e, e)


def fib_theta():
    # x -> xyx, y -> xy over F_2: abelianization [[2,1],[1,1]]
    return verify_pair(endo(F2, "a b a", "a b"), endo(F2, "b^-1 a", "a^-1 b^2"))


def w4(text):
    return parse_word(F4, text)


def long_conjugators():
    # a -> b^-2 a b, b -> a^-1 b a^-1 b^2: the letter iterates are
    # conjugates whose conjugators grow to thousands of runs
    return verify_pair(endo(F2, "b^-2 a b", "a^-1 b a^-1 b^2"), endo(F2, "b a^2 b a b^-1", "b a^2"))


def letter_apply(e, letters):
    """``[e(w)]`` letter by letter, reduced on a stack: no run kernel."""
    images = {x + 1: list(image.letters()) for x, image in enumerate(e.images)}
    out = []
    for x in letters:
        for y in images[x] if x > 0 else [-z for z in reversed(images[-x])]:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return out


class TestRationalPoint:
    def test_canonical_roll(self):
        x = rational_point(w4("b a"), w4("a"))
        assert x == RationalPoint(w4("b"), w4("a"))

    def test_rotation_via_roll(self):
        x = rational_point(w4("b"), w4("a b"))
        # b (ab)^inf = (ba)^inf
        assert x == RationalPoint(identity(F4), w4("b a"))

    def test_cancellation_absorbed(self):
        x = rational_point(w4("b a"), w4("a^-1"))
        # b a a^-1 a^-1 ... = b a^-inf... the a cancels one period letter
        assert x == RationalPoint(w4("b"), w4("a^-1"))

    def test_period_made_primitive(self):
        x = rational_point(identity(F4), w4("a^4"))
        assert x.period == w4("a")

    def test_period_cyclically_reduced(self):
        x = rational_point(identity(F4), w4("b a b^-1"))
        # (b a b^-1)^inf = b a^inf
        assert x == RationalPoint(w4("b"), w4("a"))
        with pytest.raises(EmptyWordError):
            rational_point(w4("b"), identity(F4))

    def test_from_element(self):
        assert rational_from_element(w4("b a^4 b^-1")) == RationalPoint(w4("b"), w4("a"))
        with pytest.raises(EmptyWordError):
            rational_from_element(identity(F4))

    def test_element_roundtrip(self):
        x = rational_point(w4("b"), w4("a^-1"))
        assert element_of(x) == w4("b a^-1 b^-1")
        assert rational_from_element(element_of(x)) == x

    def test_prefix_of(self):
        x = rational_point(w4("b"), w4("a^-1"))
        assert prefix_of(x, 5) == w4("b a^-4")
        assert prefix_of(x, 1) == w4("b")

    def test_translate(self):
        x = rational_point(identity(F4), w4("a"))
        assert translate(w4("b a b^-1"), x) == RationalPoint(w4("b a b^-1"), w4("a"))
        # translation by a power of the period fixes the point
        assert translate(w4("a^3"), x) == x

    def test_text(self):
        assert rational_point(w4("b"), w4("a^-1")).text() == "b (a^-1)^∞"
        assert rational_point(identity(F4), w4("a")).text() == "(a)^∞"


class TestIterate:
    def test_golden_forward_orbit(self):
        phi = make_phi(1)
        seed = w4("b d^-1")
        assert iterate(phi, seed, 3) == w4("b a^-1 c^-1 a^-2 c^-1 c^-1 d^-1")

    def test_zero_iterations(self):
        assert iterate(make_phi(1), w4("b d^-1"), 0) == w4("b d^-1")

    def test_backward_orbit(self):
        phi = make_phi(1)
        assert iterate(phi, w4("b d^-1"), -2) == w4("b a^-2 c a^-4 c a^-2 d^-1")

    def test_iteration_additivity(self):
        rng = random.Random(3)
        phi = make_phi(2)
        for _ in range(30):
            letters = [rng.choice([1, -1, 2, -2, 3, -3, 4, -4]) for _ in range(rng.randint(1, 5))]
            g = reduce(F4, letters)
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
            assert iterate(phi, g, p + q) == iterate(phi, iterate(phi, g, q), p)

    def test_periodic_orbit_skips_whole_cycles(self):
        a, ab = parse_word(F2, "a"), parse_word(F2, "a b")
        assert iterate(sigma(), a, 10**8) == a
        assert iterate(sigma(), ab, -(10**8 + 1)) == parse_word(F2, "a^-1 b^-1")
        # a is fixed by phi_k: the orbit comes back after one step
        assert iterate(make_phi(1), w4("a"), 10**9) == w4("a")

    def test_budget_overflow(self):
        theta = fib_theta()
        cfg = IterationConfig(max_word_length=1000)
        with pytest.raises(GrowthOverflowError) as exc:
            iterate(theta, parse_word(F2, "a"), 50, cfg)
        assert exc.value.iteration < 50
        assert exc.value.length > 1000

    def test_fixed_seed_longer_than_budget_overflows_at_once(self):
        # iterate stays exact: the first iterate is checked like any other
        cfg = IterationConfig(max_word_length=1)
        with pytest.raises(GrowthOverflowError) as exc:
            iterate(make_phi(1), w4("a^5"), 3, cfg)
        assert (exc.value.iteration, exc.value.length, exc.value.budget) == (1, 5, 1)

    def test_config_rejects_non_integers(self):
        # bool is an int subclass; True would silently mean one iteration
        # and so are integers below 1
        for bad in ({"min_repeats": 1.5}, {"max_iterations": True}, {"target_prefix": 0}):
            with pytest.raises(ValueError):
                IterationConfig(**bad)


class TestRecognizeRational:
    def test_eventually_periodic(self):
        prefix = w4("b") * w4("a^-1") ** 199
        assert recognize_rational(prefix) == rational_point(w4("b"), w4("a^-1"))

    def test_pure_period(self):
        prefix = w4("a") ** 200
        assert recognize_rational(prefix) == rational_point(identity(F4), w4("a"))

    def test_growing_gaps_rejected(self):
        # prefix shaped like the attracting limit of the d-orbit: gaps grow
        parts = [w4("d c c")]
        for j in range(1, 30):
            parts.append(w4("a") ** (2 * j) * w4("c"))
        prefix = parts[0]
        for part in parts[1:]:
            prefix = prefix * part
        assert recognize_rational(prefix.prefix(200)) is None

    def test_multi_letter_period(self):
        prefix = (parse_word(F2, "a b") ** 100).prefix(200)
        got = recognize_rational(prefix)
        assert got == rational_point(identity(F2), parse_word(F2, "a b"))

    def test_stability_under_extension(self):
        prefix = w4("b a") * w4("c a^2") ** 80
        x = recognize_rational(prefix)
        extended = prefix * w4("c a^2")
        assert recognize_rational(extended) == x


class TestOmegaLimit:
    def test_rational_limit_of_b(self):
        for k in (0, 1, 3):
            res = omega_limit(make_phi(k), w4("b"))
            assert isinstance(res, Boundary)
            assert isinstance(res.point, Rational)
            assert res.point.point == rational_point(w4("b"), w4("a"))
            assert res.certified_length >= 200

    def test_fixed_element(self):
        res = omega_limit(make_phi(2), w4("a"))
        assert res == FixedElement(w4("a"))

    def test_backward_limit_of_c(self):
        res = omega_limit(make_phi(1).inverse(), w4("c"))
        assert isinstance(res, Boundary)
        assert res.point.point == rational_point(w4("c"), w4("a^-1"))

    def test_irrational_attractor_prefix(self):
        res = omega_limit(make_phi(1), w4("d"))
        assert isinstance(res, Boundary)
        assert isinstance(res.point, PrefixApprox)
        with pytest.raises(ValueError, match="shorter than its certified length"):
            PrefixApprox(w4("d"), 2)
        expected = w4("d c c a^2 c a^4 c a^6 c a^8")
        got = res.point.prefix.prefix(len(expected))
        assert got == expected

    def test_identity_seed_is_fixed(self):
        assert omega_limit(make_phi(1), identity(F4)) == FixedElement(identity(F4))

    def test_oscillating_orbit_does_not_converge(self):
        cfg = IterationConfig(max_iterations=40)
        res = omega_limit(sigma(), parse_word(F2, "b"), cfg)
        assert isinstance(res, NotConverged)
        assert res.diagnostics["reason"] == "max-iterations"
        assert res.diagnostics["iterations"] == cfg.max_iterations

    def test_fixed_test_precedes_budget(self):
        # a fixed seed is reported as fixed even when it breaks the budget
        cfg = IterationConfig(max_word_length=1)
        assert omega_limit(make_phi(1), w4("a^5"), cfg) == FixedElement(w4("a^5"))

    def test_growth_overflow_diagnostics(self):
        cfg = IterationConfig(max_word_length=500)
        res = omega_limit(fib_theta(), parse_word(F2, "b a^-1"), cfg)
        # exponential image growth may certify before the budget bites;
        # with a tiny budget it must surface as a structured failure
        if isinstance(res, NotConverged):
            assert res.diagnostics["reason"] == "growth-overflow"

    def test_iterations_within_budget(self):
        res = omega_limit(make_phi(0), w4("b"))
        assert isinstance(res, Boundary)
        assert res.iterations_used <= 300

    def test_certification_applies_the_map_once_to_the_root_element(self, monkeypatch):
        # the parabolic orbit of b d^-1 converges to b (a^-1)^infinity; the
        # candidate is checked by one application, to b a^-1 b^-1
        calls = apply_calls(monkeypatch)
        monkeypatch.setattr(dynamics, "apply_rational", lambda *args: pytest.fail("apply_rational called"))
        res = omega_limit(make_phi(1), w4("b d^-1"))
        assert res.point.point == rational_point(w4("b"), w4("a^-1"))
        assert calls[-1] == element_of(res.point.point) == w4("b a^-1 b^-1")

    @pytest.mark.parametrize(
        "u, seed", [("a b^4", "a^-1"), ("a b^4", "b a^-1"), ("a^4 b", "b^-1"), ("a^3 b", "b^-1"), ("a^5 b^2", "b^-1")]
    )
    def test_rational_limit_whose_certified_prefix_ends_in_a_run(self, u, seed):
        # the certified prefix of (a b^4)^infinity ends in b^4, read as
        # period 1; b^infinity is not fixed, and the prefix without the b^4
        # reads as (a b^4)^infinity, which is
        u = parse_word(F2, u)
        res = omega_limit(inner(u), parse_word(F2, seed))
        assert isinstance(res, Boundary) and isinstance(res.point, Rational)
        assert res.point.point == rational_from_element(u)

    def test_retry_keeps_only_a_limit_the_prefix_follows(self):
        # (a b^4)^infinity is fixed, but a prefix that goes on with b^7
        # after its last a is not a prefix of it
        u = parse_word(F2, "a b^4")
        e = inner(u).forward
        assert dynamics._fixed_limit(e, u**40, DEFAULT_CONFIG) == rational_from_element(u)
        assert dynamics._fixed_limit(e, u**39 * parse_word(F2, "a b^7"), DEFAULT_CONFIG) is None


class TestOmegaLimitRational:
    def test_fixed_singular_point(self):
        phi = make_phi(1)
        x = rational_point(w4("b"), w4("a^-1"))
        res = omega_limit_rational(phi, x)
        assert isinstance(res, Boundary)
        assert res.point.point == x
        assert res.iterations_used == 0

    def test_fixed_axis_point(self):
        res = omega_limit_rational(make_phi(4), rational_point(identity(F4), w4("a")))
        assert res.point.point == rational_point(identity(F4), w4("a"))

    def test_north_south_from_translate(self):
        u = parse_word(F2, "a")
        res = omega_limit_rational(inner(u), rational_point(parse_word(F2, "b"), parse_word(F2, "a")))
        assert isinstance(res, Boundary)
        assert res.point.point == rational_point(identity(F2), parse_word(F2, "a"))

    def test_rational_limits_are_fixed(self):
        # limits returned by omega_limit are themselves fixed points
        phi = make_phi(2)
        for seed in ("b", "c", "b c^-1"):
            res = omega_limit(phi, w4(seed))
            assert isinstance(res.point, Rational)
            again = omega_limit_rational(phi, res.point.point)
            assert again.point.point == res.point.point


class TestDetectParabolic:
    def test_parabolic_seed(self):
        for k in (1, 2, 3):
            report = detect_parabolic(make_phi(k), w4("b d^-1"))
            assert report.verdict == PARABOLIC
            assert report.certification == "exact"
            assert report.point == rational_point(w4("b"), w4("a^-1"))

    def test_k_zero_member_is_not_parabolic_at_this_seed(self):
        # at k = 0 the first brick b a c^-1 is itself fixed, so the forward
        # limit picks up that prefix and no longer matches the backward one
        phi0 = make_phi(0)
        assert phi0.apply(w4("b a c^-1")) == w4("b a c^-1")
        report = detect_parabolic(phi0, w4("b d^-1"))
        assert report.verdict == NOT_PARABOLIC
        fwd = report.forward.point.point
        bwd = report.backward.point.point
        assert fwd == rational_point(w4("b a c^-1"), w4("a^-1"))
        assert bwd == rational_point(w4("b"), w4("a^-1"))

    def test_fixed_seed(self):
        report = detect_parabolic(make_phi(1), w4("a"))
        assert report.verdict == NOT_PARABOLIC
        assert "fixed" in report.reason

    def test_fixed_seed_longer_than_budget(self):
        cfg = IterationConfig(max_word_length=1)
        report = detect_parabolic(make_phi(1), w4("a^5"), cfg)
        assert report.verdict == NOT_PARABOLIC
        assert report.reason == "seed is fixed by the automorphism"
        assert report.forward == report.backward == FixedElement(w4("a^5"))

    def test_attracting_repulsing_seed(self):
        report = detect_parabolic(make_phi(1), w4("d"))
        assert report.verdict == NOT_PARABOLIC

    def test_translation_invariance(self):
        phi = make_phi(1)
        u = w4("b a^-1 b^-1")
        x = rational_point(w4("b"), w4("a^-1"))
        for m in range(1, 6):
            report = detect_parabolic(phi, u**m * w4("b d^-1"))
            assert report.verdict == PARABOLIC
            assert report.point == x

    def test_identity_seed_rejected(self):
        with pytest.raises(Exception):
            detect_parabolic(make_phi(1), identity(F4))

    def test_limit_that_does_not_certify_is_inconclusive(self):
        report = detect_parabolic(make_phi(1), w4("b d^-1"), IterationConfig(max_iterations=10))
        assert report.verdict == INCONCLUSIVE and report.certification is None
        assert report.reason == "orbit limit did not certify within budgets"
        assert isinstance(report.forward, NotConverged) and isinstance(report.backward, NotConverged)

    def test_agreeing_prefix_limits_are_inconclusive(self):
        # 200 repeats of a^-1 are more than either certified prefix holds
        report = detect_parabolic(make_phi(1), w4("b d^-1"), IterationConfig(min_repeats=200))
        assert report.verdict == INCONCLUSIVE and report.certification == "prefix"
        assert report.reason == "certified prefixes agree but neither limit is recognized rational"
        assert isinstance(report.forward.point, PrefixApprox) and isinstance(report.backward.point, PrefixApprox)

    def test_one_rational_side_gives_a_prefix_grade_verdict(self):
        # under phi_k:k=3 the forward limit certifies b a^-200 and the
        # backward one b a^-199: only the first holds 200 repeats
        report = detect_parabolic(make_phi(3), w4("b d^-1"), IterationConfig(min_repeats=200))
        assert report.verdict == PARABOLIC and report.certification == "prefix"
        assert report.point == rational_point(w4("b"), w4("a^-1"))
        assert isinstance(report.forward.point, Rational) and isinstance(report.backward.point, PrefixApprox)

    def test_rank_three_parabolic_example(self):
        """psi3 on F3: a -> c^-1 a, b -> b, c -> b^-1 c b^-1, with inverse
        a -> b c b a, b -> b, c -> b c b.  psi3^m(c^-1) = b^m c^-1 b^m and
        psi3^-m(c) = b^m c b^m, so for n >= 1

            psi3^n(a)  = b^(n-1) c^-1 b^(n-1) psi3^(n-1)(a)
                       = b^(n-1) c^-1 b^(2n-3) c^-1 b^(2n-5) ... b c^-1 a,
            psi3^-n(a) = b^n c b^n psi3^-(n-1)(a)
                       = b^n c b^(2n-1) c b^(2n-3) ... b^3 c b a,

        reduced as written: the n-th iterate begins with b^(n-1) forward
        and b^n backward, and both limits are b^inf, the end of the fixed
        b.  ``detect_parabolic`` calls a seed parabolic when its forward
        and backward limits are one point; the paper claims parabolic
        orbits for N >= 4, and this map has rank 3.
        """
        F3 = standard_alphabet(3)
        w = partial(parse_word, F3)
        psi = verify_pair(endo(F3, "c^-1 a", "b", "b^-1 c b^-1"), endo(F3, "b c b a", "b", "b c b"))
        a, b, c = w("a"), w("b"), w("c")
        report = detect_parabolic(psi, a)
        assert (report.verdict, report.certification) == (PARABOLIC, "exact")
        assert report.point == rational_point(identity(F3), b)
        assert iterate(psi, a, 3) == w("b^2 c^-1 b^3 c^-1 b c^-1 a")
        for n in range(1, 5):
            want = b ** (n - 1) * c.inverse()
            for k in reversed(range(n - 1)):
                want = want * b ** (2 * k + 1) * c.inverse()
            assert iterate(psi, a, n) == want * a
            assert len(want * a) == n * n + 1  # reduced as written
        for n in range(1, 4):
            want = b**n * c
            for k in reversed(range(1, n)):
                want = want * b ** (2 * k + 1) * c
            assert iterate(psi, a, -n) == want * b * a
            assert len(want * b * a) == (n + 1) ** 2

    def test_json_round(self):
        report = detect_parabolic(make_phi(1), w4("b d^-1"))
        js = report.to_json()
        assert js["verdict"] == "parabolic"
        assert js["point"] == {"head": "b", "period": "a^-1"}
        assert js["forward"]["kind"] == "boundary"


class TestLongConjugatorPowers:
    """A power block whose conjugator has more runs than the recursion
    limit allows frames, against letter-level iterates."""

    def test_iterates(self):
        pair, g = long_conjugators(), parse_word(F2, "a^-2")
        letters = list(g.letters())
        for n in range(1, 8):
            letters = letter_apply(pair.forward, letters)
            assert iterate(pair, g, n) == Word.from_letters(F2, letters)
        assert len(letters) == 20166

    def test_omega_limit(self):
        # the certificate of stepping every iterate, by letters: the first
        # step whose common prefix with the one before reaches
        # target_prefix, after stability_window steps of growth
        pair, g = long_conjugators(), parse_word(F2, "a^-2")
        cfg = DEFAULT_CONFIG
        prev, cp, streak = list(g.letters()), None, 0
        for n in count(1):
            nxt = letter_apply(pair.forward, prev)
            last, cp = cp, common_prefix_length(Word.from_letters(F2, prev), Word.from_letters(F2, nxt))
            streak = streak + 1 if last is None or cp > last else 0
            if cp >= cfg.target_prefix and streak >= cfg.stability_window:
                break
            prev = nxt
        assert (n, cp) == (6, 361)
        certified = Word.from_letters(F2, nxt[:cp])
        candidate = recognize_rational(certified)  # (b^-1 a)^infinity after a head
        assert apply_rational(pair.forward, candidate) != candidate
        assert omega_limit(pair, g) == Boundary(PrefixApprox(certified, cp), n, cp)


class TestGrowth:
    def test_both_routes_agree_with_stepping_every_sample(self, monkeypatch):
        # the lengths end a bounded legal orbit at once and any other at the
        # orbit's first return; stepping every sample with apply, no return
        # checked, must give the same class to the last float, overflows
        # included, except that an orbit that comes back to g within p_max
        # steps is bounded with samples = p_max
        rng = random.Random(33)
        pairs = [family(name, **params) for name, params in (
            ("phi_k", {"k": 1}), ("alpha_k", {"k": 1}), ("beta", {"rank": 6}), ("delta", {"n": 1}),
            ("twist", {"n": 2, "k": 1}), ("sigma", {}), ("inner", {"u": "a b"}),
        )]
        pairs = [(fam.pair, fam.fixed_generators) for fam in pairs] + [(order_three(), ()), (order_two(), ())]
        bounded = [0, 0]  # bounded orbits that are not legal, and legal ones
        returned = 0  # orbits that come back to g, not bounded when stepped every sample
        for _ in range(400):
            if rng.random() < 0.2:
                pair, fixed = random_pair(rng, F4, rng.randint(1, 3), rng.randint(0, 2)), ()
            else:
                pair, fixed = rng.choice(pairs)
            pair = pair if rng.random() < 0.5 else pair.inverse()
            letters = pair.alphabet.signed_letters
            if fixed and rng.random() < 0.6:  # a word of the fixed subgroup
                g = reduce(pair.alphabet, [x for _ in range(rng.randint(1, 3)) for x in (rng.choice(fixed) ** rng.choice((1, -1))).letters()])
            else:
                g = reduce(pair.alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 6))])
            if g.is_identity():
                continue
            p_max = rng.choice((8, 9, 20, 60, 200, 400))
            cfg = IterationConfig(max_word_length=rng.choice((150, 3000, 10**5)))
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_legal", lambda e, g: False)
                m.setattr(dynamics, "_Orbit", SteppedOrbit)
                want = growth_outcome(pair, g, p_max, cfg)
            if g in orbit_outcome(stepped_orbit(pair.forward, g, cfg.max_word_length), p_max)[0]:
                returned += want != GrowthClass("bounded", samples=p_max).to_json()
                want = GrowthClass("bounded", samples=p_max).to_json()
            assert growth_outcome(pair, g, p_max, cfg) == want, (str(pair.forward), str(g), p_max)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_legal", lambda e, g: False)
                assert growth_outcome(pair, g, p_max, cfg) == want, (str(pair.forward), str(g), p_max)
            if isinstance(want, dict) and want["kind"] == "bounded":
                bounded[bool(dynamics._legal(pair.forward, g))] += 1
        # seed 33: 257 of the 388 draws are bounded, 135 of them not legal;
        # 59 of those come back to g on a cycle of unequal lengths, which
        # stepping every sample fits
        assert bounded[0] > 120 and bounded[1] > 100 and returned > 50, (bounded, returned)

    def test_polynomial_degree_two(self):
        phi = make_phi(1)
        cls = growth_classify(phi, w4("d"), 40)
        assert cls.kind == "polynomial"
        assert 1.8 <= cls.degree <= 2.2

    def test_identity_bounded(self):
        cls = growth_classify(identity_pair(F4), w4("b a c"), 10)
        assert cls.kind == "bounded"

    def test_exponential_rate(self):
        import math

        theta = fib_theta()
        cls = growth_classify(theta, parse_word(F2, "a"), 20)
        assert cls.kind == "exponential"
        exact = math.log((3 + math.sqrt(5)) / 2)
        assert abs(cls.rate - exact) / exact < 0.05

    def test_linear_growth(self):
        delta = verify_pair(endo(F2, "a", "b a"), endo(F2, "a", "b a^-1"))
        cls = growth_classify(delta, parse_word(F2, "b"), 30)
        assert cls.kind == "polynomial"
        assert 0.8 <= cls.degree <= 1.2

    def test_pmax_validated(self):
        with pytest.raises(ValueError):
            growth_classify(make_phi(1), w4("d"), 4)
        # past sys.maxsize, or not an integer: the message names the range
        for text, p_max in (("a", 10**30), ("d", 10**30), ("a", 8.0), ("d", 8.0), ("d", True)):
            with pytest.raises(ValueError, match=f"from 8 to {sys.maxsize}"):
                growth_classify(make_phi(1), w4(text), p_max)

    def test_bounded_legal_orbit_of_any_length_returns_at_once(self):
        # the letter counts of a and a^3 under phi_k:k=1 and of a b^-1 under
        # sigma return to those of the seed at the first step, so the
        # lengths are constant from there, however far p_max is
        for pair, text in ((make_phi(1), "a"), (make_phi(1), "a^3"), (sigma(), "a b^-1")):
            g = parse_word(pair.alphabet, text)
            assert dynamics._legal(pair.forward, g)
            assert growth_classify(pair, g, sys.maxsize) == GrowthClass("bounded", samples=sys.maxsize)

    def test_bounded_orbit_that_is_not_legal_returns_at_once(self):
        # b a b^-1 is fixed by phi_k:k=1, but its image b a a a^-1 b^-1
        # cancels: the orbit is stepped, and ends at its first return; the
        # commutator keeps its length 4 on its cycle under order_three
        cases = ((make_phi(1), "b a b^-1"), (make_phi(1), "b a^2 b^-1 c a c^-1"),
                 (inner(parse_word(F2, "a b")), "a b"), (order_three(), "a b a^-1 b^-1"))
        for pair, text in cases:
            g = parse_word(pair.alphabet, text)
            assert not dynamics._legal(pair.forward, g)
            assert growth_classify(pair, g, sys.maxsize) == GrowthClass("bounded", samples=sys.maxsize)

    def test_cycle_of_unequal_lengths_is_stepped(self):
        # b -> a b -> b under order_two: lengths 2, 1, 2, ...; the orbit is
        # stepped to its first return at step 2, which ends it as bounded
        # whatever the lengths of its cycle, however far p_max is
        pair = order_two()
        b = parse_word(F2, "b")
        assert not dynamics._legal(pair.forward, b)
        for p_max in (8, 9, 20, 61, sys.maxsize):
            assert growth_classify(pair, b, p_max) == GrowthClass("bounded", samples=p_max)

    def test_overflow_ends_sampling(self):
        # |theta^p(a)| = 3, 8, 21, 55, 144, 377, 987, 2584: step 8 breaks 1000
        cfg = IterationConfig(max_word_length=1000)
        cls = growth_classify(fib_theta(), parse_word(F2, "a"), 20, cfg)
        assert cls.samples == 7
        assert cls.kind == "exponential"

    def test_fit_is_the_statistics_line(self, monkeypatch):
        # _linear_fit sums as statistics.linear_regression does in CPython
        # 3.10 and 3.11, so growth_classify gives the same floats; 3.12 sums
        # the centred products with math.sumprod, equal up to rounding
        import math
        import statistics
        import sys

        def statistics_fit(x, y):
            slope, intercept = statistics.linear_regression(x, y)
            return slope, sum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))

        rng = random.Random(5)
        cases = []
        # the iterate_exact sources: positive words over their letters
        for name, params, gens in (
            ("trace3", None, (1, 2)),
            ("trace4", None, (1, 2)),
            ("beta", {"rank": 6}, (5, 6)),
            ("phi_k", {"k": 1}, (2, 3, 4)),
            ("phi_k", {"k": 2}, (2, 3, 4)),
            ("phi_k", {"k": 3}, (2, 3, 4)),
        ):
            pair = stock_theta(name) if params is None else family(name, **params).pair
            p_max = 9 if params is None or name == "beta" else 30
            for _ in range(3):
                letters = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
                cases.append((pair, Word.from_letters(pair.alphabet, letters), p_max))
        for _label, pair, seeds in catalog_seeds():
            cases += [(pair, seed, 12) for seed in seeds[:8]]
        got = [growth_classify(pair, g, p_max) for pair, g, p_max in cases]
        monkeypatch.setattr(dynamics, "_linear_fit", statistics_fit)
        want = [growth_classify(pair, g, p_max) for pair, g, p_max in cases]
        assert {cls.kind for cls in got} == {"bounded", "polynomial", "exponential"}
        for a, b in zip(got, want):
            # GrowthClass equality leaves the residuals out
            assert (a.kind, a.degree, a.samples) == (b.kind, b.degree, b.samples)
            assert a.residuals.keys() == b.residuals.keys()
            for x, y in [(a.rate, b.rate)] + [(a.residuals[k], b.residuals[k]) for k in a.residuals]:
                if sys.version_info < (3, 12):
                    assert x == y
                else:
                    assert x == y or math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)

    @pytest.mark.parametrize("budget", [60, 100, 150])
    def test_overflow_before_three_tail_samples_raises(self, budget):
        # two tail samples lie on both fitted lines, so rounding chose
        # between them: 8, 21, 55 read as polynomial at 60 and 100, and
        # 8, 21, 55, 144 as exponential at 150
        theta = stock_theta("trace3")
        cfg = IterationConfig(max_word_length=budget)
        with pytest.raises(GrowthOverflowError):
            growth_classify(theta, parse_word(theta.alphabet, "a b a"), 20, cfg)

    @pytest.mark.parametrize("budget", [3, 6, 12, 30])
    def test_overflow_before_two_tail_samples_raises(self, budget):
        # |trace3^p(a b a)| = 8, 21, 55, 144: each budget stops sampling
        # within three steps, too early to fit; the orbit is not bounded
        theta = stock_theta("trace3")
        cfg = IterationConfig(max_word_length=budget)
        with pytest.raises(GrowthOverflowError):
            growth_classify(theta, parse_word(theta.alphabet, "a b a"), 20, cfg)


def growth_outcome(pair, g, p_max, cfg=DEFAULT_CONFIG):
    """The class of ``growth_classify`` as JSON, or the iteration, length
    and budget of the overflow it raises."""
    try:
        return growth_classify(pair, g, p_max, cfg).to_json()
    except GrowthOverflowError as exc:
        return (exc.iteration, exc.length, exc.budget)


def unreduced_length(e, g, n):
    """``U_n(g)``, the length of ``e^n(g)`` before free reduction, from the
    letter counts of ``g`` and of the images, by generator."""
    counts = [0] * e.alphabet.rank
    for x, k in g.runs:
        counts[x - 1] += abs(k)
    for _ in range(n):
        step = [0] * len(counts)
        for c, image in zip(counts, e.images):
            for y, k in image.runs:
                step[y - 1] += c * abs(k)
        counts = step
    return sum(counts)


class TestLegalRoute:
    """``growth_classify`` reads the lengths of an orbit whose turns are
    all legal (``dynamics._legal``) from letter counts, and builds no
    iterate; every result must be the one of stepping the orbit."""

    def test_agrees_with_stepping(self, monkeypatch):
        rng = random.Random(32)
        cases = [(phi, g) for _label, pair, seeds in catalog_seeds() for g in seeds[:12] for phi in (pair, pair.inverse())]
        for _ in range(150):
            pair = random_pair(rng, F4, rng.randint(1, 4))
            g = reduce(F4, [rng.choice(F4.signed_letters) for _ in range(rng.randint(1, 6))])
            if not g.is_identity():
                cases.append((pair, g))
        legal = overflowed = 0
        for phi, g in cases:
            p_max = rng.randint(8, 400)
            cfg = IterationConfig(max_word_length=rng.choice((150, 3000, 10**6)))
            got = growth_outcome(phi, g, p_max, cfg)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_legal", lambda e, g: False)
                want = growth_outcome(phi, g, p_max, cfg)
            assert got == want, (str(phi.forward), str(g), p_max, cfg.max_word_length)
            if dynamics._legal(phi.forward, g):
                legal += 1
                overflowed += isinstance(got, tuple) or got["samples"] < p_max
        # seed 32: 243 of the 301 orbits are legal, and 64 of those overflow
        assert legal > 220 and overflowed > 50, (legal, overflowed)

    def test_lengths_of_legal_orbits_are_unreduced_lengths(self):
        rng = random.Random(8)
        legal = 0
        for _ in range(300):
            pair = random_pair(rng, F4, rng.randint(1, 4))
            for phi in (pair, pair.inverse()):
                e = phi.forward
                for _ in range(5):
                    g = reduce(F4, [rng.choice(F4.signed_letters) for _ in range(rng.randint(1, 6))])
                    if g.is_identity() or not dynamics._legal(e, g):
                        continue
                    legal += 1
                    w, counted = g, list(islice(dynamics._lengths(e, g, 10**18), 8))
                    for n in range(1, 9):
                        w = e.apply(w)
                        assert len(w) == unreduced_length(e, g, n), (str(e), str(g), n)
                        assert not counted or counted[n - 1] == len(w)
        # seed 8: 2,174 of the 2,909 nontrivial orbits drawn are legal
        assert legal > 2000, legal

    def test_orbits_that_turn_legal_agree_with_stepping(self, monkeypatch):
        # [delta(a b^-1)] = b^-1, whose orbit is legal: an orbit is stepped
        # to its first legal iterate, at step k >= 1, and counted from
        # there; every sample, and the step, length and budget of an
        # overflow, must be those of stepping every sample, and the orbit
        # must take exactly k steps
        made = []

        class CountedOrbit(dynamics._Orbit):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        rng = random.Random(34)
        delta = family("delta", n=1).pair
        cases = [(delta, parse_word(delta.alphabet, "a b^-1"), 1, p_max, budget)
                 for p_max, budget in ((8, 10**6), (60, 30), (2000, 1000))]
        while len(cases) < 150:
            pair = random_pair(rng, F4, rng.randint(1, 4))
            pair = pair if rng.random() < 0.5 else pair.inverse()
            g = reduce(F4, [rng.choice(F4.signed_letters) for _ in range(rng.randint(1, 6))])
            budget = rng.choice((150, 3000, 10**5))
            w, k = g, 0
            while not dynamics._legal(pair.forward, w) and k < 6 and len(w) <= budget:
                w, k = pair.forward.apply(w), k + 1
            if 0 < k < 6 and len(w) <= budget and dynamics._legal(pair.forward, w):
                cases.append((pair, g, k, rng.choice((8, 9, 20, 60, 400)), budget))
        overflowed = 0
        for phi, g, k, p_max, budget in cases:
            cfg = IterationConfig(max_word_length=budget)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_legal", lambda e, g: False)
                m.setattr(dynamics, "_Orbit", SteppedOrbit)
                want = growth_outcome(phi, g, p_max, cfg)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_Orbit", CountedOrbit)
                got = growth_outcome(phi, g, p_max, cfg)
            assert got == want, (str(phi.forward), str(g), p_max, budget)
            assert made[-1].n == k, (str(phi.forward), str(g), made[-1].n, k)
            overflowed += isinstance(got, tuple) or got["samples"] < p_max
        # seed 34: 54 of the 150 orbits overflow, and 18 turn legal only
        # after two steps or more
        later = sum(k > 1 for _, _, k, _, _ in cases)
        assert overflowed > 40 and later > 10, (overflowed, later)

    def test_pinned_verdicts(self):
        rng = random.Random(3)
        # the orbits of the iterate_exact benchmark: positive words of 1-6
        # letters under maps whose images are positive words
        for pair, gens in (
            (stock_theta("trace3"), (1, 2)),
            (stock_theta("trace4"), (1, 2)),
            (family("beta", rank=6).pair, (5, 6)),
            (family("phi_k", k=1).pair, (1, 2, 3, 4)),
            (family("phi_k", k=3).pair, (1, 2, 3, 4)),
        ):
            for _ in range(20):
                g = Word.from_letters(pair.alphabet, [rng.choice(gens) for _ in range(rng.randint(1, 6))])
                assert dynamics._legal(pair.forward, g), (str(pair.forward), str(g))
        phi = family("phi_k", k=1).pair
        # one run is read for two letters, not expanded: the first iterate
        # has 2 * 10^12 letters, past the budget
        b = parse_word(phi.alphabet, "b^1000000000000")
        assert dynamics._legal(phi.forward, b)
        with pytest.raises(GrowthOverflowError) as exc:
            growth_classify(phi, b, 8)
        assert (exc.value.iteration, exc.value.length, exc.value.budget, exc.value.word) == (1, 2 * 10**12, 10**6, None)
        # [phi(b d^-1)] = b a c^-1 d^-1 ends in a turn a c^-1, whose image
        # turn a a^-1 cancels at the next step; c a^-1 maps to c a^2 a^-1
        for text in ("b d^-1", "c a^-1"):
            assert not dynamics._legal(phi.forward, parse_word(phi.alphabet, text)), text
        delta = family("delta", n=1).pair
        assert not dynamics._legal(delta.forward, parse_word(delta.alphabet, "a b^-1"))


class TestVerifySplitting:
    def test_image_splitting(self):
        phi = make_phi(1)
        cert = verify_splitting(phi, [w4("b a c^-1"), w4("d^-1")], 50)
        assert cert.holds and cert.witness is None

    def test_backward_splitting(self):
        cert = verify_splitting(make_phi(1).inverse(), [w4("b"), w4("d^-1")], 50)
        assert cert.holds

    def test_cancellation_witness(self):
        delta = verify_pair(endo(F2, "a", "b a"), endo(F2, "a", "b a^-1"))
        cert = verify_splitting(delta, [parse_word(F2, "b"), parse_word(F2, "a^-1")], 1)
        assert not cert.holds
        assert cert.witness == (1, 1)

    def test_junction_test_finds_the_length_test_witness(self):
        # the witness is the first (p, i) at which two adjacent brick
        # images cancel, as the length test |u v| < |u| + |v| finds it
        rng = random.Random(4)
        found = 0
        for phi in (make_phi(1), make_phi(1).inverse(), fib_theta()):
            letters = phi.alphabet.signed_letters
            for _ in range(15):
                bricks = [
                    reduce(phi.alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 3))])
                    for _ in range(3)
                ]
                if any(b.is_identity() for b in bricks):
                    continue
                witness = length_witness(phi, bricks, 6)
                assert verify_splitting(phi, bricks, 6).witness == witness, [str(b) for b in bricks]
                found += witness is not None and witness[0] > 0
        assert found > 3

    def test_splitting_pins_limit(self):
        phi = make_phi(1)
        bricks = [w4("b a c^-1"), w4("d^-1")]
        assert verify_splitting(phi, bricks, 30).holds
        whole = omega_limit(phi, bricks[0] * bricks[1])
        first = omega_limit(phi, bricks[0])
        assert isinstance(first, Boundary) and isinstance(whole, Boundary)
        n = min(whole.certified_length, first.certified_length)
        wf = _point_prefix(whole, n)
        ff = _point_prefix(first, n)
        assert common_prefix_length(wf, ff) == n

    def test_periodic_bricks_end_at_the_lcm_of_their_periods(self):
        # a and b a b^-1 are fixed by phi_k:k=1, the orbits of a and b a
        # under order_three have period 3 and those of a and b under sigma
        # period 2: every later tuple of images repeats one already checked
        for phi, texts in ((make_phi(1), ("a", "b a b^-1")), (order_three(), ("a", "b a")), (sigma(), ("a", "b"))):
            bricks = [parse_word(phi.alphabet, text) for text in texts]
            cert = verify_splitting(phi, bricks, sys.maxsize - 1)
            assert (cert.holds, cert.p_max, cert.witness) == (True, sys.maxsize - 1, None), texts

    def test_periodic_bricks_agree_with_the_length_test(self):
        rng = random.Random(9)
        fixed = [w4(text) for text in ("a", "b a b^-1", "c a c^-1")]
        found = held = 0
        for _ in range(300):
            phi = rng.choice((make_phi(1), sigma(), order_three(), order_two()))
            letters = phi.alphabet.signed_letters
            bricks = []
            for _ in range(rng.randint(2, 4)):
                if phi.alphabet is F4:  # a word of the fixed subgroup
                    parts = [rng.choice(fixed) ** rng.choice((1, -1)) for _ in range(rng.randint(1, 2))]
                    bricks.append(reduce(F4, [x for w in parts for x in w.letters()]))
                else:
                    bricks.append(reduce(phi.alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 4))]))
            if any(b.is_identity() for b in bricks):
                continue
            p_max = rng.randint(0, 12)
            witness = length_witness(phi, bricks, p_max)
            cert = verify_splitting(phi, bricks, p_max)
            assert (cert.holds, cert.witness) == (witness is None, witness), [str(b) for b in bricks]
            found += witness is not None and witness[0] > 0
            held += cert.holds
        # seed 9: 14 witnesses past p = 0, and 107 certificates that hold
        assert found > 8 and held > 60, (found, held)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_splitting(make_phi(1), [w4("b")], 5)
        with pytest.raises(ValueError):
            verify_splitting(make_phi(1), [w4("b"), identity(F4)], 5)
        with pytest.raises(ValueError):
            verify_splitting(make_phi(1), [w4("b"), w4("d")], -1)
        # past sys.maxsize - 1, or not an integer: the message names the range
        for p_max in (10**30, sys.maxsize, 3.0, True):
            with pytest.raises(ValueError, match=f"from 0 to {sys.maxsize - 1}"):
                verify_splitting(make_phi(1), [w4("b"), w4("d")], p_max)

    def test_length_budget(self):
        # |theta^15(a)| = 2,178,309 letters breaks the default budget
        bricks = [parse_word(F2, "a"), parse_word(F2, "b")]
        with pytest.raises(GrowthOverflowError) as exc:
            verify_splitting(fib_theta(), bricks, 15)
        assert exc.value.iteration == 15
        assert exc.value.length == 2178309


def length_witness(phi, bricks, p_max):
    """The first (p, i) at which the images of bricks i and i + 1 under
    ``phi^p`` cancel, by the length test ``|u v| < |u| + |v|``, stepping
    every p up to ``p_max``; ``None`` where no pair cancels."""
    for p in range(p_max + 1):
        images = [iterate(phi, b, p) for b in bricks]
        for i in range(len(images) - 1):
            u, v = images[i], images[i + 1]
            if len(u * v) != len(u) + len(v):
                return p, i + 1
    return None


def _point_prefix(result, n):
    from fgdyn.dynamics import _certified_prefix

    return _certified_prefix(result, n).prefix(n)


class TestBoundaryPeriod:
    def test_involution_has_period_two(self):
        assert detect_boundary_period(sigma(), parse_word(F2, "b")) == 2

    def test_identity_has_none(self):
        assert detect_boundary_period(identity_pair(F2), parse_word(F2, "b a")) is None

    def test_phi_seeds_have_none(self):
        phi = make_phi(1)
        for seed in ("b", "c", "d", "b d^-1"):
            assert detect_boundary_period(phi, w4(seed)) is None

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            detect_boundary_period(sigma(), parse_word(F2, "b"), bound=-1)
        assert detect_boundary_period(sigma(), parse_word(F2, "b"), bound=0) is None


def documented_inner_sample():
    """The 20 seeds of each ``inner(u)`` of the documented sample, as
    ``(u, pair, g)``: nontrivial, not fixed and not prefix-compatible
    with ``u^-infinity``."""
    rng = random.Random(424242)
    for text in ("a", "a b", "a^2 b^-1"):
        u = parse_word(F2, text)
        pair = inner(u)
        count = 0
        while count < 20:
            letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]
            g = reduce(F2, letters)
            if g.is_identity() or pair.apply(g) == g:
                continue
            if g.first_letter() == u.inverse().first_letter():
                continue  # prefix-compatible with u^-infinity
            count += 1
            yield u, pair, g


class TestInnerNorthSouth:
    def test_documented_sample(self):
        for u, pair, g in documented_inner_sample():
            plus = rational_from_element(u)
            minus = rational_from_element(u.inverse())
            fwd = omega_limit(pair, g)
            bwd = omega_limit(pair.inverse(), g)
            assert isinstance(fwd, Boundary) and fwd.point.point == plus, (str(u), str(g))
            assert isinstance(bwd, Boundary) and bwd.point.point == minus, (str(u), str(g))


class SteppedOrbit:
    """A stand-in for ``dynamics._Orbit`` that applies the map to the
    whole iterate at every step from n = 1, its jump included, and never
    holds a prefix."""

    period = 0  # no return is checked

    def __init__(self, e, g, budget):
        self.n, self.words = 0, stepped_orbit(e, g, budget)

    def __iter__(self):
        return self

    def __next__(self):
        self.n += 1
        return next(self.words)

    def jump(self, n):
        while self.n < n:
            w = next(self)
        return w

    def hold(self, cap, c):
        pass


def whole_word_omega(monkeypatch, phi, g, cfg=DEFAULT_CONFIG):
    """``omega_limit`` over :class:`SteppedOrbit`, with no affine jump:
    the reference the held-prefix engine must agree with."""
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_Orbit", SteppedOrbit)
        m.setattr(dynamics, "_affine_jump", lambda *args: None)
        return omega_limit(phi, g, cfg)


def eager_held_step(held, e, cap, c):
    """The held word after ``held``, stepped whole: the map is applied to
    ``held`` run by run until the image has ``cap + c`` letters, checked
    after each whole run, and the first ``min(cap, |image| - c)`` of them
    are kept."""
    runs, length = dynamics._block_product(held.runs, e._image_blocks, cap + c)
    image = Word._make(held.alphabet, tuple(runs), length)
    return image.prefix(min(cap, len(image) - c))


class EagerHeldOrbit(dynamics._Orbit):
    """``dynamics._Orbit`` with every held prefix stepped whole by
    :func:`eager_held_step`: the reference the lazily read held levels
    must agree with.  Its jump steps from n = 1."""

    def jump(self, n):
        while self.n < n:
            w = next(self)
        return w

    def hold(self, cap, c):
        self.step, self.held = (cap, c), self.w.prefix(cap)

    def __next__(self):
        if self.held is None:
            return super().__next__()
        self.n += 1
        self.held = eager_held_step(self.held, self.e, *self.step)
        return self.held


def eager_held_omega(monkeypatch, phi, g, cfg=DEFAULT_CONFIG):
    """``omega_limit`` over :class:`EagerHeldOrbit`, with no affine jump."""
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_Orbit", EagerHeldOrbit)
        m.setattr(dynamics, "_affine_jump", lambda *args: None)
        return omega_limit(phi, g, cfg)


def orbit_calls(monkeypatch, name, seen):
    """Wrap the method ``name`` of ``dynamics._Orbit`` from now on:
    ``seen(orbit, args, result)`` is called after each call that
    returns."""
    original = getattr(dynamics._Orbit, name)

    def recording(self, *args):
        result = original(self, *args)
        seen(self, args, result)
        return result

    monkeypatch.setattr(dynamics._Orbit, name, recording)


def orbit_steps(monkeypatch):
    """The steps of every ``dynamics._Orbit`` from now on, as pairs of
    the step and the word or held level it gave."""
    steps = []
    orbit_calls(monkeypatch, "__next__", lambda orbit, args, x: steps.append((orbit.n, x)))
    return steps


def held_steps(monkeypatch):
    """For each step of a ``dynamics._Orbit`` from now on, whether it
    gave a held level."""
    held = []
    orbit_calls(monkeypatch, "__next__", lambda orbit, args, x: held.append(isinstance(x, dynamics._Held)))
    return held


def held_letters(monkeypatch):
    """The letters the held phase of ``omega_limit`` makes from now on,
    and its kernel calls: the calls that stop at a limit or resume a
    product, which are the held steps, and their products counted as
    they grow.  ``made[0]`` is the letters, ``made[1]`` the calls."""
    made = [0, 0]

    def counting(pattern, blocks, limit=None, out=None, length=0, table=None):
        runs, new = words._block_product(pattern, blocks, limit, out, length, table)
        if limit is not None or out is not None:
            made[0] += new - length
            made[1] += 1
        return runs, new

    monkeypatch.setattr(dynamics, "_block_product", counting)
    monkeypatch.setattr(automorphisms, "_block_product", counting)
    return made


def catalog_seeds():
    for name, params in (
        ("phi_k", {"k": 1}),
        ("alpha_k", {"k": 1}),
        ("beta", {"rank": 6}),
        ("twist", {"n": 2, "k": 1}),
        ("delta", {"n": 1}),
        ("sigma", {}),
        ("inner", {"u": "a b"}),
        ("identity", {}),
    ):
        fam = family(name, **params)
        yield f"{name}:{params}", fam.pair, fam.default_seeds or default_seeds(fam.pair.alphabet)


PERIODIC_PAST_CAP = [
    # a signed permutation: C = 0, every orbit is periodic
    (("a", "c", "b"), ("a", "c", "b"), "a^300 b"),
    # C = 1 and period 2: the held prefix d a^499 maps to d a^500
    (("a", "c", "b", "d a"), ("a", "c", "b", "d a^-1"), "d a^1000 d^-1 b"),
]


def random_config_cases():
    """Orbits under random ``IterationConfig`` draws, with small caps, so
    that about a third of them are held."""
    rng = random.Random(14)
    pairs = [family(name, **params).pair for name, params in (
        ("beta", {"rank": 6}), ("alpha_k", {"k": 1}), ("phi_k", {"k": 1}),
        ("delta", {"n": 1}), ("inner", {"u": "a b"}))]
    pairs += [stock_theta("trace3"), stock_theta("trace4")]
    cases = []
    for _ in range(120):
        pair = rng.choice(pairs)
        phi = pair if rng.random() < 0.5 else pair.inverse()
        letters = phi.alphabet.signed_letters
        g = reduce(phi.alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 8))])
        cfg = IterationConfig(
            max_iterations=rng.randint(1, 120),
            target_prefix=rng.randint(1, 100),
            stability_window=rng.randint(1, 6),
            min_repeats=rng.randint(1, 4),
        )
        if not g.is_identity():
            cases.append((phi, g, cfg))
    return cases


class TestHeldPrefixEngine:
    def test_agrees_with_whole_words_where_they_converge(self, monkeypatch):
        # a 20k-letter budget stops whole-word iteration early where it
        # cannot converge (the mixed beta seeds); held prefixes never
        # reach it, so wherever whole words converge the two must agree
        cfg = IterationConfig(max_word_length=20_000)
        compared = 0
        for label, pair, seeds in catalog_seeds():
            for seed in seeds:
                for phi in (pair, pair.inverse()):
                    whole = whole_word_omega(monkeypatch, phi, seed, cfg)
                    if isinstance(whole, Boundary):
                        compared += 1
                        assert omega_limit(phi, seed, cfg) == whole, (label, str(seed))
        assert compared > 500

    def test_held_words_are_prefixes_within_cap(self, monkeypatch):
        pair = family("beta", rank=6).pair
        seed = parse_word(pair.alphabet, "b e")
        cfg = IterationConfig(target_prefix=20, max_iterations=10)
        cap = cfg.target_prefix + cancellation_bound(pair.forward) * cfg.max_iterations
        with monkeypatch.context() as m:
            steps = orbit_steps(m)
            omega_limit(pair, seed, cfg)
        assert [n for n, _ in steps] == list(range(1, 11))
        exact = IterationConfig(max_word_length=10**7)
        outgrown = False
        for n, h in steps:
            w = iterate(pair, seed, n, exact)
            if isinstance(h, dynamics._Held):
                # a held level is read lazily: read it to its end
                dynamics._pull(h, cap + 1)
                h = h.prefix(h.end)
            assert w.prefix(len(h)) == h
            assert len(h) <= cap or not outgrown
            outgrown = outgrown or len(w) > cap
        assert outgrown and isinstance(steps[-1][1], dynamics._Held)

    def test_orbit_keeps_the_whole_iterate_it_held_from(self, monkeypatch, no_jump):
        # the held levels of b e start from its 8th iterate, and the orbit
        # keeps that word while it steps the held levels to 200
        pair = family("beta", rank=6).pair
        g = parse_word(pair.alphabet, "b e")
        holds = []
        orbit_calls(monkeypatch, "hold", lambda orbit, args, _: holds.append((orbit, orbit.n, orbit.w, args[0])))
        got = omega_limit(pair, g)
        assert isinstance(got, Boundary) and got.iterations_used == 200
        [(orbit, n, w, cap)] = holds
        assert (n, len(w), cap) == (8, 2593, 1100)
        assert orbit.w is w and w == iterate(pair, g, 8)
        assert orbit.n == 200

    def test_whole_iterates_are_compared_as_words(self, monkeypatch):
        # a whole iterate is compared as itself, a level that has ended:
        # every comparison of an orbit that is never held is of two words
        compared = []
        original = dynamics._held_prefix
        monkeypatch.setattr(dynamics, "_held_prefix", lambda u, v, ask: compared.append((u, v)) or original(u, v, ask))
        holds = []
        orbit_calls(monkeypatch, "hold", lambda orbit, args, _: holds.append(orbit))
        whole = held = 0
        for label, pair, seeds in catalog_seeds():
            for g in seeds:
                for phi in (pair, pair.inverse()):
                    compared.clear()
                    holds.clear()
                    omega_limit(phi, g)
                    if holds:
                        held += 1
                    elif compared:
                        whole += 1
                        assert all(type(x) is Word for uv in compared for x in uv), (label, str(g))
        # 628 orbits compare whole iterates only, and 8 are held
        assert whole > 600 and held > 0

    def test_mixed_seed_certifies(self):
        pair = family("beta", rank=6).pair
        res = omega_limit(pair, parse_word(pair.alphabet, "b e"))
        assert isinstance(res, Boundary)
        assert res.point.point == rational_point(
            parse_word(pair.alphabet, "b"), parse_word(pair.alphabet, "a")
        )

    def test_prefix_held_at_cap_is_not_a_limit(self):
        # delta: [b a^1000 b^-2] -> b a^1000 b^-1 a^-n b^-1, whose limit is
        # b a^1000 b^-1 a^-inf; the seed is longer than cap = 200 + 1 * 300,
        # so the held prefix is b a^499 at every step, and b a^inf (fixed)
        # must not be read off it
        pair = family("delta", n=1).pair
        res = omega_limit(pair, parse_word(F2, "b a^1000 b^-2"))
        limit = parse_word(F2, "b a^1000 b^-1 a^-2000")
        if isinstance(res, Boundary):
            # a rational point states every letter, a prefix only its own
            n = 1100 if isinstance(res.point, Rational) else res.certified_length
            assert _point_prefix(res, n) == limit.prefix(n)

    @pytest.mark.parametrize("forward, backward, seed", PERIODIC_PAST_CAP)
    def test_periodic_seed_longer_than_cap_is_not_certified(self, forward, backward, seed):
        alphabet = standard_alphabet(len(forward))
        pair = verify_pair(endo(alphabet, *forward), endo(alphabet, *backward))
        g = parse_word(alphabet, seed)
        assert iterate(pair, g, 2) == g
        assert not isinstance(omega_limit(pair, g), Boundary)

    def test_budget_below_cap_still_overflows(self):
        # whole iterates are checked against max_word_length; with a budget
        # under cap = 200 + 3 * 300 letters the exact phase overflows first
        pair = family("beta", rank=6).pair
        res = omega_limit(pair, parse_word(pair.alphabet, "b e"), IterationConfig(max_word_length=1000))
        assert isinstance(res, NotConverged)
        assert res.diagnostics["reason"] == "growth-overflow"

    @pytest.mark.parametrize("group", ["catalog", "beta-rank-7", "held-seeds", "beta-powers", "random-configs"])
    def test_lazy_agrees_with_eager_held(self, monkeypatch, no_jump, group):
        # held levels read only as far as the comparisons need give the
        # result of stepping every held prefix whole, to the last field,
        # wherever an orbit is held
        if group == "catalog":
            cases = [(phi, g, DEFAULT_CONFIG) for _, pair, seeds in catalog_seeds()
                     for g in seeds for phi in (pair, pair.inverse())]
        elif group == "beta-rank-7":
            pair = family("beta", rank=7).pair
            cases = [(phi, g, DEFAULT_CONFIG) for g in default_seeds(pair.alphabet)
                     for phi in (pair, pair.inverse())]
        elif group == "held-seeds":
            beta, delta = family("beta", rank=6).pair, family("delta", n=1).pair
            cases = [(beta, parse_word(beta.alphabet, "b e"), DEFAULT_CONFIG),
                     (delta, parse_word(F2, "b a^1000 b^-2"), DEFAULT_CONFIG)]
            for forward, backward, seed in PERIODIC_PAST_CAP:
                alphabet = standard_alphabet(len(forward))
                pair = verify_pair(endo(alphabet, *forward), endo(alphabet, *backward))
                cases.append((pair, parse_word(alphabet, seed), DEFAULT_CONFIG))
        elif group == "beta-powers":
            beta = family("beta", rank=6).pair
            cfg = IterationConfig(max_iterations=30)
            cases = [(power(beta, q), parse_word(beta.alphabet, text), cfg)
                     for q in (2, 3, 4) for text in ("e", "f", "b e", "d f")]
        else:
            cases = random_config_cases()
        held = []
        for phi, g, cfg in cases:
            with monkeypatch.context() as m:
                steps = held_steps(m)
                got = omega_limit(phi, g, cfg)
            held.append(any(steps))
            if held[-1]:  # an orbit never held takes the same steps either way
                assert got.to_json() == eager_held_omega(monkeypatch, phi, g, cfg).to_json(), (str(g), cfg)
        # held orbits: 164 of 720, 92 of 392, 4 of 4, 12 of 12, 37 of 115
        assert 5 * sum(held) >= len(cases)

    @pytest.mark.parametrize("name, params", [("beta", {"rank": 6}), ("alpha_k", {"k": 1})])
    def test_deep_chain_of_held_levels(self, monkeypatch, no_jump, name, params):
        # about 1,400 held levels, each read from the one before it: reads
        # must not recurse once per level
        pair = family(name, **params).pair
        cfg = IterationConfig(max_iterations=3000, target_prefix=1500)
        held = []
        for text in ("b d^-1", "b^-1 d^-1"):
            g = parse_word(pair.alphabet, text)
            with monkeypatch.context() as m:
                steps = held_steps(m)
                got = omega_limit(pair, g, cfg)
            held += steps
            assert got.to_json() == eager_held_omega(monkeypatch, pair, g, cfg).to_json()
            assert isinstance(got, Boundary)
        assert sum(held) > 2 * 1000

    def test_held_phase_reads_what_the_comparisons_need(self, monkeypatch, no_jump):
        # c^-1 f^-1 certifies a^-inf after about 100 held steps whose common
        # prefixes are the a-runs; stepping held prefixes whole makes about
        # 100,000 letters (cap = 1,100 a step)
        pair = family("beta", rank=6).pair
        g = parse_word(pair.alphabet, "c^-1 f^-1")
        made = held_letters(monkeypatch)
        lazy = omega_limit(pair, g)
        lazy_letters, lazy_calls = made
        made[0] = 0
        eager = eager_held_omega(monkeypatch, pair, g)
        assert lazy.to_json() == eager.to_json()
        assert isinstance(lazy, Boundary)
        assert made[0] > 100_000
        assert 4 * lazy_letters <= made[0]
        # one call a held step, as before the first ask came from the
        # previous common prefix: the first ask reaches the end of the
        # a-run, so it is no second read
        assert lazy_calls <= 93 and lazy_letters <= 11_811

    @pytest.mark.parametrize("case", ["mixed", "chain", "contact", "few_run_beta", "few_run_alpha"])
    def test_held_steps_read_each_level_about_once(self, monkeypatch, no_jump, case):
        # the eager step reads each held level with one kernel call.  The
        # first ask of each comparison, the previous common prefix and two
        # letters more, reads a fresh level of the mixed seed b e once (192
        # held steps); the deep chain of few-run levels of b d^-1 under the
        # inverse of alpha_k and the contact-shaped orbit of e under a power
        # of beta take at most one call more a step than stepping whole.
        # The refill rule trades: the few-run chain of b d^-1 under beta
        # and alpha_k is refilled late and deep, 411 calls and 145,481
        # letters, where asking each source for twice what it knew made
        # 553 calls and 94,957 letters in about 0.85 times the time; that
        # cost must not grow
        beta, alpha = family("beta", rank=6).pair, family("alpha_k", k=1).pair
        phi, text, cfg = {
            "mixed": (beta, "b e", DEFAULT_CONFIG),
            "chain": (alpha.inverse(), "b d^-1", DEFAULT_CONFIG),
            "contact": (power(beta, 3), "e", IterationConfig(max_iterations=40)),
            "few_run_beta": (beta, "b d^-1", DEFAULT_CONFIG),
            "few_run_alpha": (alpha, "b d^-1", DEFAULT_CONFIG),
        }[case]
        g = parse_word(phi.alphabet, text)
        made = held_letters(monkeypatch)
        with monkeypatch.context() as m:
            held = held_steps(m)
            lazy = omega_limit(phi, g, cfg)
        lazy_letters, lazy_calls = made
        made[1] = 0
        eager = eager_held_omega(monkeypatch, phi, g, cfg)
        assert lazy.to_json() == eager.to_json()
        steps = sum(held)
        assert made[1] == steps > 30
        if case == "mixed":
            assert lazy_calls == steps == 192
        elif case.startswith("few_run"):
            assert lazy_calls <= 411 and lazy_letters <= 145_481
        else:
            assert lazy_calls <= 2 * steps


def affine_jump_cases(group):
    """Orbits, both directions, on which the affine jump is checked
    against stepping."""
    if group == "catalog":
        specs = [("beta", {"rank": r, "theta": t}) for r in (6, 7) for t in ("trace3", "trace4")]
        specs += [("phi_k", {"k": k}) for k in range(6)] + [("alpha_k", {"k": k}) for k in (1, 2, 3)]
        specs += [("delta", {"n": 1}), ("sigma", {})]
        specs += [("twist", {"n": n, "k": k}) for n in (1, 2, 3) for k in range(-2, n + 3)]
        for name, params in specs:
            fam = family(name, **params)
            for g in fam.default_seeds or default_seeds(fam.pair.alphabet):
                yield from ((phi, g, DEFAULT_CONFIG) for phi in (fam.pair, fam.pair.inverse()))
    elif group == "random-maps":
        rng = random.Random(23)
        for _ in range(100):
            alphabet = standard_alphabet(rng.randint(2, 4))
            pair = random_pair(rng, alphabet, rng.randint(2, 6))
            g = reduce(alphabet, [rng.choice(alphabet.signed_letters) for _ in range(rng.randint(1, 5))])
            if not g.is_identity():
                yield from ((phi, g, DEFAULT_CONFIG) for phi in (pair, pair.inverse()))
    else:
        yield from random_config_cases()


class TestAffineJump:
    # orbits, orbits the jump tried at, and orbits that jumped: catalog
    # 2,848, 1,064 and 1,013; random-maps 198, 68 and 50; random-configs
    # 115, 36 and 20
    JUMPS = {"catalog": 900, "random-maps": 40, "random-configs": 12}

    @pytest.mark.parametrize("group", list(JUMPS))
    def test_same_result_as_stepping(self, monkeypatch, group):
        # a jump gives the Boundary of stepping, to the last byte of its
        # JSON; an orbit the jump never tried at is stepped either way
        affine_jump, jumped = dynamics._affine_jump, 0

        def recording(*args):
            tried.append(affine_jump(*args))
            return tried[-1]

        for phi, g, cfg in affine_jump_cases(group):
            tried = []
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_affine_jump", recording)
                got = omega_limit(phi, g, cfg)
            if tried:
                jumped += tried[-1] is not None
                with monkeypatch.context() as m:
                    m.setattr(dynamics, "_affine_jump", lambda *args: None)
                    assert got.to_json() == omega_limit(phi, g, cfg).to_json(), (str(phi.forward), str(g), cfg)
        assert jumped >= self.JUMPS[group]

    def test_parabolic_orbit_jumps_to_the_certifying_step(self, monkeypatch):
        # b d^-1 under phi_k:k=1 is b a^-(n-2) c^-1 a^-1 y ... with y not a:
        # Z = c^-1, psi(Z) = a^-1 c^-1, so d = 1 and S is empty; the jump
        # lands at step 202 as stepping does
        phi, g = make_phi(1), w4("b d^-1")
        prev, w = iterate(phi, g, 19), iterate(phi, g, 20)
        cp = common_prefix_length(prev, w)
        assert cp == 18 and w.prefix(21) == w4("b a^-18 c^-1 a^-1")
        n, certified_cp, certified = dynamics._affine_jump(phi.forward, w, cp, 1, 15, 20, DEFAULT_CONFIG)
        monkeypatch.setattr(dynamics, "_affine_jump", lambda *args: None)
        stepped = omega_limit(phi, g)
        assert (n, certified_cp) == (stepped.iterations_used, stepped.certified_length) == (202, 200)
        assert certified == w4("b a^-199")

    @pytest.mark.parametrize("step", [2, 3])
    def test_wrong_growth_is_declined(self, step):
        # the common prefix of the orbit above grows by one letter a step,
        # so t^d Z with d = step does not start psi(Z) for any short Z
        phi, g = make_phi(1), w4("b d^-1")
        w = iterate(phi, g, 20)
        assert dynamics._affine_jump(phi.forward, w, 18, step, 15, 20, DEFAULT_CONFIG) is None

    # (generator images, word w, its common prefix cp with the iterate
    # before, the growth, and the jump from step 1 with a streak of 3 to a
    # 50-letter prefix, or None)
    AFFINE_CASES = [
        # psi(Z) = [e(Z)] is not a^d Z S for any Z of at most two letters
        # after a^10: psi(b) = b a
        (("a", "b a"), "a^10 b^2 a", 9, 1, None),
        (("a", "a b"), "a^10 b^2 a", 9, 1, (42, 50, "a^50")),
        # psi(b) = a b a, so S = a, and C(b, a^-1) = 1: the a of S may
        # cancel, and Y = {a^-1} is not closed; from y = b it is
        (("a", "a b a"), "a^10 b a^-1 b", 9, 1, None),
        (("a", "a b a"), "a^10 b^2 a", 9, 1, (42, 50, "a^50")),
        # h = b, Z empty: psi(Z) = a^3 is t^d S with S = a^2 for d = 1, so
        # a joins Y, and C(a, a) = 2 ([e(a b^-1)] = a^-2 b^-1): Y is not
        # closed.  The growth is 3, and with d = 3, S is empty and Y = {b}
        (("a", "b a^3"), "b a^10 b", 10, 1, None),
        (("a", "b a^3"), "b a^10 b", 10, 3, (15, 50, "b a^49")),
        # psi(b) = c b and S is empty, but F(c^-1) holds a, and C(b, a) =
        # 1: [e(c^10 b c^-1 b a)] = c^11 b a ..., and its image c^12 a ...
        # no longer has b after the c-run
        (("b^-1 a", "c b", "c"), "c^10 b c^-1 b a", 9, 1, None),
        (("b^-1 a", "c b", "c"), "c^10 b c b", 9, 1, (42, 50, "c^50")),
    ]

    @pytest.mark.parametrize("images, text, cp, step, want", AFFINE_CASES)
    def test_fabricated_words(self, images, text, cp, step, want):
        alphabet = standard_alphabet(len(images))
        got = dynamics._affine_jump(
            endo(alphabet, *images), parse_word(alphabet, text), cp, step, 3, 1,
            IterationConfig(target_prefix=50),
        )
        assert got == (want and (*want[:2], parse_word(alphabet, want[2])))


def read_level(e, w, cap, c, reveal):
    """A held level over the word ``w``, read as its source comes to know
    ``w``: the source knows the first m letters for each m of ``reveal``
    in turn, and then it ends.  At each bound the level is asked for 1,
    2, ... letters and reads, as :func:`dynamics._pull` does, while its
    source knows letters past its place; after every read the letters it
    exposes must be letters of :func:`eager_held_step`.  The level's word
    once it has ended."""
    source = object.__new__(dynamics._Held)
    source.alphabet, source.runs = w.alphabet, w.runs
    level = dynamics._Held(source, (e._image_blocks, cap, c))
    want = eager_held_step(w, e, cap, c)
    for m, end in [*((m, None) for m in reveal), (len(w), len(w))]:
        source.known, source.end = m, end
        for n in range(1, cap + 2):
            while level.end is None and level.known < n and (
                source.end is not None or source.known > level.pos
            ):
                level._read(n)
                assert level.known <= len(want), (level.known, str(want))
                assert level.prefix(level.known) == want.prefix(level.known)
    assert level.end is not None
    return level.prefix(level.end)


# (images of a and b, source word, cap, source bounds revealed in turn)
HELD_READS = [
    # b -> b a (C = 1): the image of b^3 reaches cap + C = 6 at the end of
    # the run, known or cut at the bound, and stops there; reading on, a^-1
    # would cancel a letter and end the level one letter short
    (("a", "b a"), "b^3 a^-1", 5, (3,)),
    (("a", "b a"), "b^3 a^-1", 5, (2, 3)),
    # the a of [e(b)] = b a, the last of |P_t| - C letters, is cancelled by
    # a^-1: the level exposes only |P_t| - 2C letters, none here
    (("a", "b a"), "b a^-1", 4, (1,)),
    (("a", "b a"), "b a^-1 b a^-1 b a^-1 b a^-1 b a^-1 b a^-1 b a^-1 b", 6, ()),
    (("a", "b a"), "b a^-1 b a^-1 b a^-1 b a^-1 b a^-1 b a^-1 b a^-1 b", 4, (1, 4, 5, 8, 13)),
    # the source ends where the level had read to, and where it ends inside
    # a run: the level holds |P| - C letters
    (("a", "b a"), "b^2", 10, (2,)),
    (("a", "b a"), "b^2 a^3", 10, (2, 4)),
    # b -> b a^-5 (C = 5): along the run a^14 the product first falls, from
    # 12 letters to 7, and then rises; it passes cap + C = 13 only while
    # rising, where a cut and the whole run give the same first cap letters
    (("a", "b a^-5"), "b^2 a^14", 8, (5, 13)),
    (("a", "b a^-5"), "b^2 a^14", 8, (4, 9, 14)),
    (("a", "b a^-5"), "b^2 a^11", 8, (13,)),
    (("a", "b a^-5"), "b a^3 b a^9 b^-1 a^2", 3, (2, 7, 16)),
]


class TestHeldRead:
    @pytest.mark.parametrize("images, text, cap, reveal", HELD_READS)
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_level_is_the_eager_step(self, images, text, cap, reveal, extra):
        # a level read in pieces, however its source's bound cuts the
        # runs, is the eager step of the whole source word, for any c at
        # least the true C
        e = endo(F2, *images)
        c = cancellation_bound(e) + extra
        w = parse_word(F2, text)
        assert read_level(e, w, cap, c, reveal) == eager_held_step(w, e, cap, c)

    def test_cases_reach_the_conditions(self):
        # the cases above take the stop at cap + C inside a run, cut at the
        # source's bound and where the product still grows; the source's
        # end inside a run; and a partial product whose last C letters the
        # rest of the source cancels
        e = endo(F2, "a", "b a")
        assert eager_held_step(parse_word(F2, "b^3"), e, 5, 1) == parse_word(F2, "b a b a b")
        assert eager_held_step(parse_word(F2, "b^3 a^-1"), e, 5, 1) == parse_word(F2, "b a b a b")
        assert len(eager_held_step(parse_word(F2, "b a^-1"), e, 4, 1)) == 0
        e = endo(F2, "a", "b a^-5")
        products = [len(e.apply(parse_word(F2, f"b^2 a^{j}"))) for j in range(15)]
        assert products[:6] == [12, 11, 10, 9, 8, 7] and products[11] == 13 and products[14] == 16


def order_two():
    # a -> a^-1, b -> a b: b and a b take turns, while the unreduced
    # length U_n(b) = n + 1 grows
    e = endo(F2, "a^-1", "a b")
    return verify_pair(e, e)


def no_quiet_omega(monkeypatch, phi, g, cfg=DEFAULT_CONFIG):
    """``omega_limit`` with the bound helper reporting no quiet steps, so
    that it compares every step from n = 1: the reference the jump over
    the quiet steps must agree with."""
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_quiet_steps", lambda *args: None)
        return omega_limit(phi, g, cfg)


def landings(monkeypatch):
    """The steps the jumps of ``omega_limit`` land at from now on; an
    orbit that does not jump starts at step 1 and adds none."""
    landed = []
    orbit_calls(monkeypatch, "jump", lambda orbit, args, w: landed.append(args[0]))
    return landed


class TestQuietJump:
    """``omega_limit`` jumps over the steps that cannot certify; every
    result must be the one of comparing every step, to the last field."""

    def test_catalog_seeds_both_ways(self, monkeypatch):
        landed = landings(monkeypatch)
        compared = 0
        for label, pair, seeds in catalog_seeds():
            for g in seeds:
                for phi in (pair, pair.inverse()):
                    before = len(landed)
                    got = omega_limit(phi, g).to_json()
                    compared += len(landed) > before and landed[-1] > 1
                    assert got == no_quiet_omega(monkeypatch, phi, g).to_json(), (label, str(g))
        # 416 half-orbits jump: the b, c and d seeds of phi_k, alpha_k
        # and beta and their products with fixed letters, and delta's b
        assert compared >= 400

    def test_random_configs(self, monkeypatch):
        rng = random.Random(16)
        pairs = [pair for _, pair, _ in catalog_seeds()] + [stock_theta("trace3"), order_two()]
        landed = landings(monkeypatch)
        jumped = 0
        for _ in range(100):
            pair = rng.choice(pairs)
            phi = pair if rng.random() < 0.5 else pair.inverse()
            letters = phi.alphabet.signed_letters
            g = reduce(phi.alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 6))])
            if g.is_identity():
                continue
            cfg = IterationConfig(
                max_iterations=rng.randint(1, 320),
                target_prefix=rng.randint(1, 300),
                stability_window=rng.randint(1, 8),
                min_repeats=rng.randint(1, 4),
                max_word_length=rng.choice((50, 300, 5000, 10**6)),
            )
            before = len(landed)
            got = omega_limit(phi, g, cfg).to_json()
            jumped += len(landed) > before and landed[-1] > 1
            assert got == no_quiet_omega(monkeypatch, phi, g, cfg).to_json(), (str(g), cfg)
        assert jumped >= 25  # 34 of 94

    def test_jump_that_ends_not_converged_keeps_the_best_prefix(self, monkeypatch):
        # U_198(b) = 199 < 200, so the jump lands at 198 + 1 - 5; the orbit
        # takes turns between b and a b, and the best prefix is settled
        # over the steps jumped over too
        phi = order_two()
        b = parse_word(F2, "b")
        landed = landings(monkeypatch)
        got = omega_limit(phi, b)
        assert landed == [194]
        assert isinstance(got, NotConverged)
        assert got.diagnostics == {"reason": "max-iterations", "iterations": 300}
        assert got.to_json() == no_quiet_omega(monkeypatch, phi, b).to_json()
        # the jump lands at 16, where U_16(d a c) = 291 < 295, and step 17
        # overflows: the best prefix comes from the steps jumped over
        pair = family("phi_k", k=1).pair
        g = parse_word(pair.alphabet, "d a c")
        cfg = IterationConfig(target_prefix=295, stability_window=1, max_word_length=300)
        got = omega_limit(pair, g, cfg)
        assert landed[-1] == 16
        assert got.diagnostics == {"reason": "growth-overflow", "iterations": 17, "length": 326, "budget": 300}
        assert got.certified_length == 226
        assert got.to_json() == no_quiet_omega(monkeypatch, pair, g, cfg).to_json()

    def test_fixed_seed_whose_letters_grow(self, monkeypatch):
        # the letters of b a b^-1 grow under phi_k, so the bound would let
        # the orbit jump; the seed is fixed all the same
        pair = family("phi_k", k=1).pair
        g = parse_word(pair.alphabet, "b a b^-1")
        assert dynamics._quiet_steps(pair.forward, g, 6, 298, 200, 10**6) is not None
        landed = landings(monkeypatch)
        assert omega_limit(pair, g) == FixedElement(g)
        assert landed == []
        assert no_quiet_omega(monkeypatch, pair, g) == FixedElement(g)


class TestQuietBoundWork:
    """``_quiet_steps`` and the orbit's planner read the levels of
    unreduced lengths kept on the count table of the map, so a seed that
    cannot jump pays one dot product over its runs on every call after
    the first with the same ``least``."""

    def test_repeat_call_makes_no_vector_matrix_product(self, monkeypatch):
        pair = family("beta", rank=7).pair.inverse()
        e, products = pair.forward, []
        original = _MapTable._capped_product

        def counting(table, *args):
            products.append(args)
            return original(table, *args)

        monkeypatch.setattr(_MapTable, "_capped_product", counting)
        # U_6(e) is past the bound 200: the seed cannot jump
        for text in ("e", "f^-1 e", "e"):
            g = parse_word(pair.alphabet, text)
            assert dynamics._quiet_steps(e, g, 6, 298, 200, 10**6) is None
            assert len(products) == 1  # U_6 = U_2 M^4: one product, first call only
        # omega_limit asks for least = stability_window + 1 = 6 on the same
        # map, and its planner weighs assembly at step 4 with level 3, the
        # one level it builds: level 1 times square 1
        (_, sums), (rows, _) = e._table.squares[:2]  # the row sums of square 0, the rows of square 1
        omega_limit(pair, parse_word(pair.alphabet, "e"))
        assert len(products) == 2
        assert products[1][0] is sums and products[1][1] is rows
        omega_limit(pair, parse_word(pair.alphabet, "e"))
        assert len(products) == 2
        # another least is computed afresh (level 7, from the kept level 3)
        # and then kept in its place
        assert dynamics._quiet_steps(e, parse_word(pair.alphabet, "e"), 7, 298, 200, 10**6) is None
        assert len(products) == 3
        assert dynamics._quiet_steps(e, parse_word(pair.alphabet, "e"), 7, 298, 200, 10**6) is None
        assert len(products) == 3

    def test_long_seed_past_the_bound_reads_a_few_runs(self):
        # U_6(a d) = 1 + 37, so (a d)^10000 reaches the bound 200 in its
        # first 12 of 20,000 runs, and no run past them is read
        e, g = make_phi(1).forward, w4("a d") ** 10000
        read = []

        class Runs(tuple):
            def __iter__(self):
                for run in tuple.__iter__(self):
                    read.append(run)
                    yield run

        seed = Word._make(g.alphabet, Runs(g.runs), len(g))
        assert dynamics._quiet_steps(e, seed, 6, 298, 200, 10**6) is None
        assert len(read) == 12

    def test_one_count_table_per_map(self, monkeypatch):
        # the weighing of assembly in the orbit and the jump bound read one
        # letter-count table, built once for the budget: growth_classify,
        # made to step the legal orbit of d, builds it, and iterate and
        # omega_limit read the same table on
        pair = family("phi_k", k=1).pair
        e, d = pair.forward, parse_word(pair.alphabet, "d")
        table = e._table
        assert table.squares == []
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_legal", lambda e, g: False)
            growth_classify(pair, d, 12)
        squares = table.squares
        assert squares != [] and table.cap == 2 * 10**6 + 1
        letter_counts = [[1, 0, 0, 0], [1, 1, 0, 0], [2, 0, 1, 0], [0, 0, 1, 1]]  # images a, b a, c a^2, d c
        assert squares[0][0] == letter_counts  # the rows of square 0
        iterate(pair, d, 400)
        assert isinstance(omega_limit(pair, d), Boundary)
        assert e._table is table and table.squares is squares
        assert squares[0][0] == letter_counts

    def test_kept_vector_gives_the_same_steps(self):
        # a call after another one on the same map, with the same least or
        # not, and with the same cap or a larger one (which builds the
        # table again), gives the steps of a fresh table
        rng = random.Random(17)
        pairs = [pair for _, pair, _ in catalog_seeds()]

        def draw(alphabet):
            letters = alphabet.signed_letters
            g = reduce(alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 6))])
            budget = rng.choice((300, 5000, 10**6))
            return g, rng.randint(1, 12), rng.randint(1, 300), rng.randint(1, budget + 1), budget

        for _ in range(200):
            pair = rng.choice(pairs)
            e = (pair if rng.random() < 0.5 else pair.inverse()).forward
            first, then = draw(e.alphabet), draw(e.alphabet)
            if rng.random() < 0.5:
                then = (then[0], first[1], *then[2:])
            empty_count_table(e)
            fresh = dynamics._quiet_steps(e, *then)
            empty_count_table(e)
            dynamics._quiet_steps(e, *first)
            assert dynamics._quiet_steps(e, *then) == fresh


def empty_count_table(e):
    """Empty the letter-count table of ``e``: its cap, squares and levels
    of unreduced lengths, and nothing else the map keeps."""
    table = e._table
    table.cap, table.squares, table.repeat, table.levels = 0, [], None, {}


REFERENCE_SQUARES = {}


def reference_squares(images, cap, count):
    """The first ``count`` squares ``M^(2^i)`` of the letter-count matrix
    of the map with generator images ``images``, with every entry capped
    at ``cap``, each as its rows and its columns: each square the capped
    square of the one before, with no repeat rule.  Kept by images and cap
    across calls, and built further as a call asks."""
    squares = REFERENCE_SQUARES.setdefault((images, cap), [])
    if not squares:
        gens = range(1, len(images) + 1)
        rows = [[min(cap, sum(abs(k) for y, k in image.runs if y == x)) for x in gens] for image in images]
        squares.append((rows, list(zip(*rows))))
    while len(squares) < count:
        rows, cols = squares[-1]
        rows = [[min(cap, sum(map(mul, row, col))) for col in cols] for row in rows]
        squares.append((rows, list(zip(*rows))))
    return squares


def reference_quiet_steps(e, g, least, limit, bound, budget):
    """``_quiet_steps`` as it was before the count table kept levels of
    unreduced lengths: binary lifting that carries the letter counts of
    the iterate along, over capped squares built afresh at each call.
    The frozen reference of :class:`TestUnreducedLevels`."""
    if least > limit:
        return None
    cap = 2 * budget + 1
    squares = reference_squares(e.images, cap, limit.bit_length())

    def product(vector, rows):
        return [min(cap, sum(map(mul, vector, row))) for row in rows]

    low = (least & -least).bit_length() - 1
    lengths = [min(cap, sum(row)) for row in squares[low][0]]
    for i in range(low + 1, least.bit_length()):
        if least >> i & 1:
            lengths = product(lengths, squares[i][0])
    counts = [0] * len(lengths)
    total = 0
    for x, k in g.runs:
        counts[x - 1] += abs(k)
        total += abs(k) * lengths[x - 1]
        if total >= bound:
            return None
    for i in range(least.bit_length()):
        if least >> i & 1:
            counts = product(counts, squares[i][1])
    n = least
    for i in reversed(range((limit - least).bit_length())):
        if n + (1 << i) <= limit:
            rows, cols = squares[i]
            lifted = sum(map(mul, counts, [min(cap, sum(row)) for row in rows]))
            if lifted < bound:
                n, total = n + (1 << i), lifted
                counts = product(counts, cols)
                lengths = product(lengths, rows)
    if any(lengths[abs(y) - 1] > budget for y in dynamics._reachable_letters(e, g)):
        return None
    return n, total


def stepped_unreduced(e, top):
    """The exact unreduced lengths ``U_m(x)`` by generator for m = 0, ...,
    ``top``, each the last one times the letter-count matrix M."""
    gens = range(1, len(e.images) + 1)
    counts = [[sum(abs(k) for y, k in image.runs if y == x) for x in gens] for image in e.images]
    levels = [[1] * len(gens)]
    for _ in range(top):
        levels.append([sum(map(mul, row, levels[-1])) for row in counts])
    return levels


def level_maps():
    """The catalog maps and their inverses, and seeded random maps."""
    for _, pair, _ in catalog_seeds():
        yield pair.forward
        yield pair.backward
    rng = random.Random(33)
    for _ in range(8):
        pair = random_pair(rng, standard_alphabet(rng.randint(2, 4)), rng.randint(2, 8))
        yield pair.forward
        yield pair.backward


class TestUnreducedLevels:
    """The levels of unreduced lengths kept on a map's count table give
    the steps of the frozen reference whatever the table holds, and each
    kept level m is ``min(cap, U_m)``."""

    def test_levels_give_the_reference_steps(self):
        rng = random.Random(34)
        checked = 0
        for e in level_maps():
            letters = e.alphabet.signed_letters
            calls = []
            for _ in range(50):
                g = reduce(e.alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 8))])
                budget = rng.choice((300, 5000, 10**6))
                least = rng.choice((*range(1, 13), 64, 128))
                limit = rng.randint(1, rng.choice((12, 300, 5000, 10**6)))
                calls.append((g, least, limit, rng.randint(1, budget + 1), budget))
            expected = [reference_quiet_steps(e, *call) for call in calls]
            order = list(range(len(calls)))
            rng.shuffle(order)
            warm, fresh = fresh_map(e), fresh_map(e)
            exact = stepped_unreduced(e, 300)
            for i in order:
                assert dynamics._quiet_steps(warm, *calls[i]) == expected[i], calls[i]
                empty_count_table(fresh)
                assert dynamics._quiet_steps(fresh, *calls[i]) == expected[i], calls[i]
                cap, kept = warm._table.cap, warm._table.levels  # empty until least <= limit
                assert len(kept) <= automorphisms._KEPT_LEVELS
                for m, level in kept.items():
                    if m <= 300:
                        assert level == [min(cap, u) for u in exact[m]], m
                        checked += 1
        assert checked >= 50_000  # 63,061

    def test_planner_reads_the_stepped_levels(self, monkeypatch):
        # the orbit's planner reads level n - 1 at each step n where it
        # weighs assembly, kept or built
        rng = random.Random(35)
        reads = []
        original = _MapTable.level

        def recording(table, m, cap):
            level = original(table, m, cap)
            reads.append((table.cap, m, level))
            return level

        monkeypatch.setattr(_MapTable, "level", recording)
        checked = 0
        for e in level_maps():
            letters = e.alphabet.signed_letters
            e = fresh_map(e)
            for _ in range(4):
                g = reduce(e.alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 6))])
                try:
                    for _ in islice(dynamics._Orbit(e, g, 10**5), 300):
                        pass
                except GrowthOverflowError:
                    pass
            exact = stepped_unreduced(e, max((m for _, m, _ in reads), default=0))
            for cap, m, level in reads:
                assert level == [min(cap, u) for u in exact[m]], m
            checked += len(reads)
            del reads[:]
        assert checked >= 150  # 171

    @pytest.mark.parametrize("name, params", [("delta", {"n": 1}), ("beta", {"rank": 6})])
    def test_kept_levels_stay_within_the_bound(self, name, params):
        # b grows by one letter a step under both maps, so each jump to a
        # new p lifts over levels no other p reads
        pair = family(name, **params).pair
        b = parse_word(pair.alphabet, "b")
        steps = random.Random(36).sample(range(1, 10**6 + 1), 2000)
        warm, kept = [], []
        for p in steps:
            warm.append(iterate_outcome(pair, b, p, DEFAULT_CONFIG))
            kept.append(len(pair.forward._table.levels))
        assert max(kept) == automorphisms._KEPT_LEVELS  # reached, and never passed
        for p, got in zip(steps, warm):
            empty_count_table(pair.forward)
            assert iterate_outcome(pair, b, p, DEFAULT_CONFIG) == got


def cycle_maps():
    """Maps whose count squares repeat with period 2: a -> b -> c -> a on
    F3 (from square 0), and the same with d -> d a on F4, whose squares
    repeat only once the counts of d's iterates reach the cap."""
    F3 = standard_alphabet(3)
    return {
        "3-cycle": verify_pair(endo(F3, "b", "c", "a"), endo(F3, "c", "a", "b")),
        "3-cycle, d -> d a": verify_pair(endo(F4, "b", "c", "a", "d a"), endo(F4, "c", "a", "b", "d c^-1")),
    }


class TestMapTable:
    """Each part of a map's table stays within its bound, however far an
    orbit reaches, and the count squares read past their repeat are the
    squares that squaring on gives."""

    @pytest.mark.parametrize("label", ["beta:rank=26", "sigma", "3-cycle", "delta:n=1"])
    def test_parts_stay_within_their_bounds(self, label):
        pair = cycle_maps()[label] if label == "3-cycle" else parse_family_spec(label).pair
        seeds = [parse_word(pair.alphabet, text) for text in ("a", "b")]
        for p in (10**400, 10**4000):
            for g in seeds:
                iterate_outcome(pair, g, p, DEFAULT_CONFIG)
                iterate_outcome(pair, g, -p, DEFAULT_CONFIG)
                for e in (pair.forward, pair.backward):
                    table = e._table
                    # at most 22 distinct squares, and the repeat
                    assert len(table.squares) <= 23
                    assert len(table.levels) <= automorphisms._KEPT_LEVELS
                    assert table.runs <= automorphisms._KEPT_RUNS

    def test_squares_past_the_repeat_give_the_reference_steps(self, monkeypatch):
        rng = random.Random(42)
        past = []
        original = _MapTable._square

        def checking(table, i):
            square = original(table, i)
            if i >= len(table.squares):  # read past the repeat
                rows, _ = reference_squares(table.images, table.cap, i + 1)[i]
                assert square == (rows, [min(table.cap, sum(row)) for row in rows]), i
                past.append(i)
            return square

        monkeypatch.setattr(_MapTable, "_square", checking)
        maps = list(cycle_maps().values()) + [sigma(), order_three(), make_phi(1)]
        maps += [family(name, **params).pair for name, params in (("delta", {"n": 1}), ("inner", {"u": "a b"}))]
        calls = 0
        for pair in maps:
            for e in (pair.forward, pair.backward):
                letters = e.alphabet.signed_letters
                e = fresh_map(e)
                for _ in range(40):
                    g = reduce(e.alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 8))])
                    budget = rng.choice((1, 3, 10, 300, 10**6))
                    least = rng.choice((*range(1, 13), 64, rng.randint(1, 10**400)))
                    limit = rng.randint(1, rng.choice((300, 10**6, 10**100, 10**400)))
                    call = (g, least, limit, rng.randint(1, budget + 1), budget)
                    assert dynamics._quiet_steps(e, *call) == reference_quiet_steps(e, *call), call
                    calls += 1
                REFERENCE_SQUARES.clear()  # up to 1,329 squares a cap: keep one map's
        assert calls == 560
        assert len(past) >= 50_000  # 75,328


def order_three():
    # a -> b -> a^-1 b^-1 -> a
    return verify_pair(endo(F2, "b", "a^-1 b^-1"), endo(F2, "a^-1 b^-1", "a"))


class TestPeriodicOrbits:
    def test_stops_stepping_at_the_first_return(self, monkeypatch):
        phi = sigma()
        calls = apply_calls(monkeypatch)
        res = omega_limit(phi, parse_word(F2, "b"))
        assert isinstance(res, NotConverged)
        assert res.diagnostics == {"reason": "max-iterations", "iterations": 300}
        # b^-1, then b again; the period's one other word is stepped once more
        assert len(calls) == 3

    def test_same_result_as_stepping_every_iteration(self, monkeypatch):
        rng = random.Random(8)
        rotation = verify_pair(endo(F2, "b", "a^-1"), endo(F2, "b^-1", "a"))
        for phi in (sigma(), order_three(), rotation):
            for _ in range(15):
                g = reduce(F2, [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 9))])
                for n in (1, 2, 3, 7, 40, 300):
                    cfg = IterationConfig(max_iterations=n)
                    got = omega_limit(phi, g, cfg)
                    assert got.to_json() == whole_word_omega(monkeypatch, phi, g, cfg).to_json()


def stepped_orbit(e, g, budget):
    """The iterates of ``g`` with ``apply`` at every step: the reference
    the assembled orbit must agree with."""
    for n in count(1):
        g = e.apply(g)
        if len(g) > budget:
            raise GrowthOverflowError(n, len(g), budget, g)
        yield g


def orbit_outcome(orbit, steps):
    """The first ``steps`` iterates, and the overflow that cut them short."""
    words = []
    try:
        words.extend(islice(orbit, steps))
    except GrowthOverflowError as exc:
        return words, (exc.iteration, exc.length, exc.budget, exc.word)
    return words, None


def apply_calls(monkeypatch):
    """The words a map is applied to from now on: by
    ``Endomorphism.apply``, or by an orbit step that applies through the
    orbit's window table."""
    calls = []

    def counting(original):
        def applying(self, w):
            calls.append(w)
            return original(self, w)

        return applying

    monkeypatch.setattr(Endomorphism, "apply", counting(Endomorphism.apply))
    monkeypatch.setattr(dynamics._Orbit, "_apply", counting(dynamics._Orbit._apply))
    return calls


class TestOrbitAssembly:
    def test_agrees_with_stepping_apply(self, monkeypatch):
        rng = random.Random(11)
        pairs = [(label, pair) for label, pair, _ in catalog_seeds()]
        pairs += [(name, stock_theta(name)) for name in ("trace3", "trace4")]
        calls = apply_calls(monkeypatch)
        stepped = assembled = overflows = 0
        for label, pair in pairs:
            for e in (pair.forward, pair.backward):
                letters = e.alphabet.signed_letters
                for budget in (200, 5000, 10**5):
                    for _ in range(2):
                        g = reduce(e.alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 30))])
                        before = len(calls)
                        got = orbit_outcome(dynamics._Orbit(e, g, budget), 40)
                        steps = len(got[0]) + (got[1] is not None)
                        stepped += len(calls) - before
                        assembled += steps - (len(calls) - before)
                        overflows += got[1] is not None
                        expected = orbit_outcome(stepped_orbit(e, g, budget), 40)
                        assert got == expected, (label, str(g), budget)
        # both ways of stepping, and the overflow, are exercised
        assert stepped > 500 and assembled > 500 and overflows > 20

    def test_letter_iterates_past_the_budget_fall_back_to_apply(self, monkeypatch):
        # a -> b, b -> b a: [e^n(a)] = [e^(n-1)(b)], so the letter iterate of
        # b passes the budget a step before the iterate of a does
        e = endo(F2, "b", "b a")
        g = parse_word(F2, "a")
        calls = apply_calls(monkeypatch)
        got = orbit_outcome(dynamics._Orbit(e, g, 200), 100)
        steps = [i for i, w in enumerate([g] + got[0]) if any(c is w for c in calls)]
        # steps 1..5 apply; 6..10 assemble, as nothing cancels and the 7
        # runs of the 5th iterate outnumber the 1 + 3 an assembly step
        # reads; at 11 |[e^11(b)]| = 233 passes 200 and apply takes over
        assert steps == [0, 1, 2, 3, 4, 10, 11]
        assert got[1][:3] == (12, 233, 200)
        assert got == orbit_outcome(stepped_orbit(e, g, 200), 100)

    def test_cancelling_letter_iterates_keep_applying(self, monkeypatch):
        # conjugation by u = a b: [e^n(x)] = u^n x u^-n, so the product of
        # the letter iterates over u^-20 a u^20 cancels almost all of them
        u = parse_word(F2, "a b")
        e = inner(u).forward
        g = u**-20 * parse_word(F2, "a") * u**20
        calls = apply_calls(monkeypatch)
        got = orbit_outcome(dynamics._Orbit(e, g, 200), 100)
        assert [w for w in [g] + got[0] if any(c is w for c in calls)] == [g] + got[0][:69]
        assert got[1][:3] == (70, 201, 200)
        assert got == orbit_outcome(stepped_orbit(e, g, 200), 100)


def touched_letters(monkeypatch):
    """The letters ``_block_product`` touches from now on, in the calls of
    ``dynamics`` and of ``apply``: the summed lengths of the blocks it
    multiplies, a block read once per letter of its run."""
    touched = [0]

    def counting(pattern, blocks, limit=None, out=None, length=0, table=None):
        touched[0] += sum((k if k > 0 else -k) * blocks[x if k > 0 else -x][1] for x, k in pattern)
        return words._block_product(pattern, blocks, limit, out, length, table)

    monkeypatch.setattr(dynamics, "_block_product", counting)
    monkeypatch.setattr(automorphisms, "_block_product", counting)
    return touched


class TestPlannerWork:
    """Letter iterates that cancel in the product, or in their own steps,
    must not cost more than applying the map; counted, not timed."""

    def test_shrinking_seed_does_not_assemble(self, monkeypatch):
        # 157 letters down to a b^-1 a^2 in 4 steps, 6155 letters after 12;
        # the letter iterates of trace3 grow with every step
        theta = stock_theta("trace3")
        seed = iterate(theta, parse_word(theta.alphabet, "a b^-1 a^2"), -4)
        touched = touched_letters(monkeypatch)
        got = iterate(theta, seed, 12)
        planned = touched[0]
        touched[0] = 0
        assert stepped_iterate(monkeypatch, theta, seed, 12, DEFAULT_CONFIG) == got
        assert planned <= 2 * touched[0]

    def test_inner_orbits_do_not_assemble(self, monkeypatch):
        # the letter iterates u^n x u^-n of inner(a b) cancel in their own
        # steps and in the product over the seed
        touched = touched_letters(monkeypatch)
        orbits = [
            (phi, g)
            for u, pair, g in documented_inner_sample()
            if str(u) == "a b"
            for phi in (pair, pair.inverse())
        ]
        planned = [omega_limit(phi, g) for phi, g in orbits]
        work = touched[0]
        touched[0] = 0
        assert planned == [whole_word_omega(monkeypatch, phi, g) for phi, g in orbits]
        assert work <= 2 * touched[0]


    def test_steps_that_cannot_certify_are_not_built(self, monkeypatch):
        # b a^n gains one letter a step: b a^inf certifies at step 200, and
        # before step 199 no iterate has 200 letters; stepping built all
        # 200 iterates
        pair = family("alpha_k", k=1).pair
        b = parse_word(pair.alphabet, "b")
        built = orbit_words(monkeypatch)
        got = omega_limit(pair, b)
        assert isinstance(got, Boundary) and got.iterations_used == 200
        assert got.point.point == rational_point(b, parse_word(pair.alphabet, "a"))
        # the landing and the steps after it; the fixed-element check
        # applies the map to b once more
        assert len(built) + 1 <= DEFAULT_CONFIG.stability_window + 3

    def test_linear_orbit_overflows_after_a_jump(self, monkeypatch):
        # U_n(b) = n + 1 under delta: the jump lands at 999,999 and the one
        # step after it overflows, as stepping one n at a time does
        delta = family("delta", n=1).pair
        b = parse_word(delta.alphabet, "b")
        composed = []
        original = automorphisms._compose_blocks

        def counting(outer, inner):
            composed.append(len(inner))
            return original(outer, inner)

        monkeypatch.setattr(automorphisms, "_compose_blocks", counting)
        calls = apply_calls(monkeypatch)
        with pytest.raises(GrowthOverflowError) as exc:
            iterate(delta, b, 10**6)
        assert (exc.value.iteration, exc.value.length, exc.value.budget) == (10**6, 10**6 + 1, 10**6)
        assert exc.value.word == parse_word(delta.alphabet, f"b a^{10**6}")
        assert calls == [parse_word(delta.alphabet, f"b a^{10**6 - 1}")]
        assert len(composed) <= 2 * (10**6).bit_length()


def orbit_words(monkeypatch):
    """The iterates ``dynamics._Orbit`` builds from now on: the words its
    jumps land at and those its steps give."""
    built = []
    for name in ("jump", "__next__"):
        orbit_calls(monkeypatch, name, lambda orbit, args, w: built.append(w))
    return built


class TestOrbitMechanism:
    def test_long_orbit_applies_only_before_the_switch(self, monkeypatch):
        phi = family("phi_k", k=1).pair
        d = parse_word(phi.alphabet, "d")
        stepped = orbit_outcome(stepped_orbit(phi.forward, d, 10**6), 400)[0]
        outcomes = jump_outcomes(monkeypatch)
        calls = apply_calls(monkeypatch)
        # |phi^n(d)| grows quadratically, far below the budget: iterate
        # jumps, and an orbit stepped from n = 1 applies at steps 1..4; from
        # step 5 on, where the 7 runs of the 4th iterate outnumber the 1 + 5
        # an assembly step reads and nothing cancels, every step assembles
        last = iterate(phi, d, 400)
        assert outcomes == [True]
        assert calls == []
        orbit = dynamics._Orbit(phi.forward, d, 10**6)
        assert list(islice(orbit, 100)) == stepped[:100]
        assert calls == [d] + stepped[:3]
        assert last == stepped[-1]
        # an orbit jumped to step 200 assembles from there
        orbit = dynamics._Orbit(phi.forward, d, 10**6)
        assert orbit.jump(200) == stepped[199]
        assert list(islice(orbit, 200)) == stepped[200:]
        assert outcomes == [True, False, True]
        assert calls == [d] + stepped[:3]

    def test_orbit_of_few_runs_keeps_applying(self, monkeypatch):
        # [delta^n(b)] = b a^n has 2 runs, fewer than an assembly step
        # reads, so an orbit jumped to step 200 applies at every step after
        # it; iterate jumps to the end
        delta = family("delta", n=1).pair
        b = parse_word(delta.alphabet, "b")
        outcomes = jump_outcomes(monkeypatch)
        calls = apply_calls(monkeypatch)
        assert iterate(delta, b, 300) == parse_word(delta.alphabet, "b a^300")
        assert outcomes == [True]
        assert calls == []
        orbit = dynamics._Orbit(delta.forward, b, 10**6)
        assert orbit.jump(200) == parse_word(delta.alphabet, "b a^200")
        assert list(islice(orbit, 100)) == [parse_word(delta.alphabet, f"b a^{n}") for n in range(201, 301)]
        assert outcomes == [True, True]
        assert calls == [parse_word(delta.alphabet, f"b a^{n}") for n in range(200, 300)]


class TestOrbitWindowTable:
    """An orbit reduces the windows of its iterates in one table, kept
    across its steps; every iterate must be the one that applying the map
    step by step gives, runs and length."""

    @pytest.fixture
    def filled(self, monkeypatch):
        """For each windowed product from now on: its table, and the
        windows that table held before and after it."""
        products = []
        inner = words._window_product

        def spy(pattern, blocks, table):
            before = len(table.ids)
            result = inner(pattern, blocks, table)
            products.append((table, before, len(table.ids)))
            return result

        monkeypatch.setattr(words, "_window_product", spy)
        return products

    @staticmethod
    def check_steps(pair, g, p, filled):
        """``iterate(pair, g, p)`` and each of the first |p| iterates of
        the orbit against |p| plain applications; the windowed steps of
        the orbit share its table."""
        e = pair.forward if p > 0 else pair.backward
        plain = [g]
        for _ in range(abs(p)):
            plain.append(e.apply(plain[-1]))
        assert iterate(pair, g, p).runs == plain[-1].runs
        del filled[:]
        orbit = dynamics._Orbit(e, g, DEFAULT_CONFIG.max_word_length)
        for want in plain[1:]:
            got = next(orbit)
            assert (got.runs, len(got)) == (want.runs, len(want))
        steps = [(before, after) for table, before, after in filled if table is orbit.table]
        assert len(steps) == len(filled)
        return steps

    @pytest.mark.parametrize("name", ["trace3", "trace4", "beta"])
    def test_backward_iterates_of_a_substitution(self, filled, name):
        pair = family("beta", rank=6).pair if name == "beta" else stock_theta(name)
        # seeds whose last iterate within 120,000 letters has over 100,000
        seed = parse_word(pair.alphabet, {"trace3": "a b b", "trace4": "a a", "beta": "e f f"}[name])
        lengths = []
        w, p = seed, 0
        while len(w) <= 120_000:
            if len(w) >= 5000:
                lengths.append(len(w))
                steps = self.check_steps(pair, w, -p, filled)
                # the first windowed step fills the table; each later one
                # adds at most its last window, cut short by the end
                assert len(steps) >= 2 and steps[0][1] - steps[0][0] >= 10
                assert all(after - before <= 1 for before, after in steps[1:])
            w, p = pair.forward.apply(w), p + 1
        assert len(lengths) >= 3 and lengths[-1] > 100_000

    def test_conjugate_orbit_whose_window_images_cancel(self, filled):
        # each window image of inner(u) is u W u^-1, so u^-1 u cancels
        # wholly at every junction; the orbit of u^-20 a u^20 shrinks for
        # 20 steps and then grows, u^(n-20) a u^(20-n) at step n
        pair = family("inner", u="a b").pair
        F = pair.alphabet
        u, a = parse_word(F, "a b"), parse_word(F, "a")
        g = u ** -20 * a * u**20
        for p in (300, -300):
            steps = self.check_steps(pair, g, p, filled)
            assert len(steps) > 100
            assert iterate(pair, g, p) == u ** (p - 20) * a * u ** (20 - p)


def composed_blocks(monkeypatch):
    """The compositions of letter iterates made from now on: for each
    call of ``automorphisms._compose_blocks``, how many letters it composes."""
    composed = []
    original = automorphisms._compose_blocks

    def counting(outer, inner):
        composed.append(len(inner))
        return original(outer, inner)

    monkeypatch.setattr(automorphisms, "_compose_blocks", counting)
    return composed


def images_of(e, letters):
    """The image blocks of ``letters`` under ``e``, as the letter-iterate
    table is asked for them."""
    return {x: e._image_blocks[x] for x in letters}


def fresh_map(e):
    """A copy of ``e`` whose tables are all empty."""
    return Endomorphism(e.alphabet, e.images)


def table_catalog():
    """The catalog maps of the affine-jump grid, each direction, labelled."""
    specs = [("beta", {"rank": r, "theta": t}) for r in (6, 7) for t in ("trace3", "trace4")]
    specs += [("phi_k", {"k": k}) for k in range(6)] + [("alpha_k", {"k": k}) for k in (1, 2, 3)]
    specs += [("delta", {"n": 1}), ("sigma", {})]
    specs += [("twist", {"n": n, "k": k}) for n in (1, 2, 3) for k in range(-2, n + 3)]
    for name, params in specs:
        pair = family(name, **params).pair
        yield f"{name}:{params}", pair.forward
        yield f"{name}:{params}^-1", pair.backward


def stepped_levels(e, letters, top, longest):
    """``[e^n(x)]`` for n = 1..top by the stepped chain of compositions
    with the images, as ``{n: {x: block}}``; stops before the first level
    with a letter iterate longer than ``longest`` letters."""
    images = images_of(e, letters)
    levels = {1: images}
    for n in range(2, top + 1):
        level = automorphisms._compose_blocks(levels[n - 1], images)
        if max(length for _, length in level.values()) > longest:
            break
        levels[n] = level
    return levels


def check_table(e, letters, levels):
    """The table of ``e`` keeps at most ``_KEPT_RUNS`` runs, counts them
    right, and every block it keeps is the stepped one."""
    kept, table = e._table.runs, e._table.iterates
    assert kept <= automorphisms._KEPT_RUNS
    assert kept == sum(len(runs) for level in table.values() for runs, _ in level.values())
    for n, level in table.items():
        for x, block in level.items():
            if n in levels and x in letters:
                assert block == levels[n][x], (n, x)


class TestLetterTable:
    """Every level of a map's letter-iterate table is the stepped chain of
    compositions with the images, whatever order the levels are asked in
    and whether they are kept or not."""

    @staticmethod
    def orders(top, rng):
        ascending = list(range(1, top + 1))
        far_first = [top] + ascending[:-1]
        shuffled = ascending[:]
        rng.shuffle(shuffled)
        return {"ascending": ascending, "descending": ascending[::-1], "far-first": far_first,
                "random": shuffled}

    @pytest.mark.parametrize("kept", [None, 64])
    def test_levels_are_the_stepped_chain(self, monkeypatch, kept):
        if kept is not None:  # few levels kept: most are built and handed on
            monkeypatch.setattr(automorphisms, "_KEPT_RUNS", kept)
        rng = random.Random(29)
        checked = 0
        for label, e in table_catalog():
            # every letter, and those reachable from b d (from b in F2): on
            # beta, the phi_k block up to level 40 and the exponential e-f
            # iterates only as far as they stay short
            seed = Word.from_letters(e.alphabet, [2, min(4, e.alphabet.rank)])
            reachable = frozenset(dynamics._reachable_letters(e, seed))
            for letters in dict.fromkeys((frozenset(e.alphabet.signed_letters), reachable)):
                levels = stepped_levels(e, letters, 40, 20_000)
                for order, ns in self.orders(max(levels), rng).items():
                    table = fresh_map(e)
                    last = None
                    for n in ns:
                        # ascending, each level is handed the one before as
                        # an orbit hands its last level
                        got = table._table.letter_iterates(images_of(e, letters), n, last)
                        assert {x: got[x] for x in letters} == levels[n], (label, order, n)
                        last = got if order == "ascending" else None
                        checked += 1
                    check_table(table, letters, levels)
        assert checked > 10_000

    def test_far_levels(self):
        # delta: a -> a, b -> b a, so [delta^n(b)] = b a^n; sigma inverts
        # each letter, so its levels have period 2
        a, b = parse_word(F2, "a"), parse_word(F2, "b")
        for name in ("delta", "sigma"):
            pair = family(name).pair
            for sign, e in ((1, pair.forward), (-1, pair.backward)):
                letters = set(e.alphabet.signed_letters)
                table = fresh_map(e)
                for n in (10**6, 999_999, 2**20 + 1, 10**8, 10**8 + 1, 10**400 + 1, 3):
                    got = table._table.letter_iterates(images_of(e, letters), n)
                    if name == "delta":
                        want = {1: a, -1: ~a, 2: b * a ** (sign * n), -2: ~(b * a ** (sign * n))}
                    else:
                        want = {x: Word(F2, ((abs(x), (-1) ** n * (1 if x > 0 else -1)),)) for x in letters}
                    assert {x: Word._make(F2, *got[x]) for x in letters} == want, (name, sign, n)
                check_table(table, letters, {})

    def test_growing_letter_set(self, monkeypatch):
        # a seed over a-d asks for the phi_k block of beta, one over a-f
        # then adds e and f to the levels already kept
        beta = family("beta", rank=6).pair
        for e in (beta.forward, beta.backward):
            small = dynamics._reachable_letters(e, parse_word(e.alphabet, "b d c d"))
            large = dynamics._reachable_letters(e, parse_word(e.alphabet, "b d c d e f"))
            assert small < large
            levels = stepped_levels(e, large, 40, 20_000)
            table = fresh_map(e)
            for n in range(1, 41):
                table._table.letter_iterates(images_of(e, small), n)
            for n in (max(levels), *range(1, max(levels))):
                got = table._table.letter_iterates(images_of(e, large), n)
                assert {x: got[x] for x in large} == levels[n]
            check_table(table, large, levels)
            # an orbit's steps over the larger set, each from its last level,
            # on levels that hold the smaller set
            stepped = fresh_map(e)
            for n in range(1, 41):
                stepped._table.letter_iterates(images_of(e, small), n)
            for n in range(2, max(levels) + 1):
                got = stepped._table.letter_iterates(images_of(e, large), n, levels[n - 1])
                assert {x: got[x] for x in large} == levels[n]
            check_table(stepped, large, levels)
            # the kept levels are read again without composing
            kept = [n for n, level in table._table.iterates.items() if level.keys() >= large]
            assert len(kept) >= 5
            with monkeypatch.context() as m:
                composed = composed_blocks(m)
                for n in kept:
                    table._table.letter_iterates(images_of(e, large), n)
                assert composed == []

    def test_kept_runs_stay_within_the_bound(self):
        # beta's e-f iterates outgrow the bound within a few levels; the
        # levels past it are built, right, and not kept
        beta = family("beta", rank=6).pair
        e = fresh_map(beta.forward)
        letters = set(e.alphabet.signed_letters)
        levels = stepped_levels(e, letters, 40, 200_000)
        for n in levels:
            got = e._table.letter_iterates(images_of(e, letters), n)
            assert {x: got[x] for x in letters} == levels[n]
        kept, table = e._table.runs, e._table.iterates
        assert max(levels) not in table and kept <= automorphisms._KEPT_RUNS
        check_table(e, letters, levels)


def empty_letter_iterates(e):
    """Empty the letter iterates that ``e`` keeps, and nothing else."""
    e._table.iterates, e._table.runs = {}, 0


class TestWarmTable:
    """Results do not depend on what a map's table already holds."""

    @pytest.mark.parametrize("name, params", [("beta", {"rank": 6}), ("alpha_k", {"k": 1})])
    def test_warm_and_cold_agree(self, name, params):
        fam = family(name, **params)
        pair = fam.pair
        seeds = fam.default_seeds or default_seeds(pair.alphabet)

        def results(cold):
            out = []
            for g in seeds:
                for call in (
                    lambda: omega_limit(pair, g).to_json(),
                    lambda: omega_limit(pair.inverse(), g).to_json(),
                    lambda: detect_parabolic(pair, g).to_json(),
                    lambda: iterate_outcome(pair, g, 12, DEFAULT_CONFIG),
                    lambda: iterate_outcome(pair, g, -12, DEFAULT_CONFIG),
                ):
                    if cold:
                        empty_letter_iterates(pair.forward)
                        empty_letter_iterates(pair.backward)
                    out.append(call())
            return out

        cold = results(True)
        filling = results(False)
        assert pair.forward._table.iterates and pair.backward._table.iterates
        assert results(False) == filling == cold

    def test_second_jump_composes_nothing(self, monkeypatch):
        phi = family("phi_k", k=1).pair
        w = iterate(phi, parse_word(phi.alphabet, "b d c d"), 300)
        composed = composed_blocks(monkeypatch)
        e = fresh_map(phi.backward)
        landed = [dynamics._Orbit(e, w, DEFAULT_CONFIG.max_word_length).jump(300) for _ in range(2)]
        assert landed[0] == landed[1] == parse_word(phi.alphabet, "b d c d")
        assert 0 < len(composed) <= 2 * (300).bit_length()
        del composed[:]
        # the delta jump of the overflow test: cold within the bound, then none
        delta = family("delta", n=1).pair
        b = parse_word(delta.alphabet, "b")
        e = fresh_map(delta.forward)
        for bound in (2 * (10**6).bit_length(), 0):
            dynamics._Orbit(e, b, DEFAULT_CONFIG.max_word_length).jump(10**6 - 1)
            assert len(composed) <= bound
            del composed[:]


class TestJumpBound:
    """The jump is decided by the bound on unreduced lengths and a look
    at the first step; counted, not timed."""

    def test_only_reachable_letters_bound_the_jump(self, monkeypatch):
        # the letter iterates of e and f grow exponentially under beta^-1,
        # but no letter reachable from the b-d iterate leads to them
        beta = family("beta", rank=6).pair
        w = parse_word(beta.alphabet, "b d c d")
        image = iterate(beta, w, 300)
        outcomes = jump_outcomes(monkeypatch)
        calls = apply_calls(monkeypatch)
        assert iterate(beta, image, -300) == w
        assert outcomes == [True]
        assert calls == []

    def test_reachable_letter_past_the_budget_declines(self, monkeypatch):
        # a -> a b, b -> b c b^3 c b^3 c b^3, c -> c b^3: U_2(a) = 15 fits a
        # 20-letter budget, but the letter iterate of b, reachable from a,
        # has U_2(b) = 142 letters: the jump would build it, so it declines
        F3 = standard_alphabet(3)
        t_ab = verify_pair(endo(F3, "a b", "b", "c"), endo(F3, "a b^-1", "b", "c"))
        t_bc = verify_pair(endo(F3, "a", "b c^3", "c"), endo(F3, "a", "b c^-3", "c"))
        t_cb = verify_pair(endo(F3, "a", "b", "c b^3"), endo(F3, "a", "b", "c b^-3"))
        pair = compose_pairs(t_ab, compose_pairs(t_cb, t_bc))
        g = parse_word(F3, "a")
        cfg = IterationConfig(max_word_length=20)
        outcomes = jump_outcomes(monkeypatch)
        got = iterate(pair, g, 2, cfg)
        assert outcomes == [False]
        assert got == parse_word(F3, "a b^2 c b^3 c b^3 c b^3")
        assert got == stepped_iterate(monkeypatch, pair, g, 2, cfg)

    def test_shrinking_seed_declines_before_composing(self, monkeypatch):
        # 157 letters whose letter iterates cancel almost wholly: the
        # unreduced lengths of 12 trace3 steps pass the budget, so the
        # jump composes no blocks and the planner applies
        theta = stock_theta("trace3")
        seed = iterate(theta, parse_word(theta.alphabet, "a b^-1 a^2"), -4)
        composed = []
        original = automorphisms._compose_blocks

        def counting(outer, inner):
            composed.append(len(inner))
            return original(outer, inner)

        monkeypatch.setattr(automorphisms, "_compose_blocks", counting)
        outcomes = jump_outcomes(monkeypatch)
        touched = touched_letters(monkeypatch)
        got = iterate(theta, seed, 12)
        planned = touched[0]
        touched[0] = 0
        assert outcomes == [False]
        assert composed == []
        assert stepped_iterate(monkeypatch, theta, seed, 12, DEFAULT_CONFIG) == got
        assert planned <= 2 * touched[0]

    def test_seed_whose_first_step_cancels_declines(self, monkeypatch):
        # the same 157 letters: the unreduced lengths of 9 trace3 steps fit
        # the budget, but the first step keeps about a sixth of its letters
        # before free reduction, so the jump declines and the planner
        # applies (the jump built 9th letter iterates that cancelled almost
        # wholly over the seed)
        theta = stock_theta("trace3")
        seed = iterate(theta, parse_word(theta.alphabet, "a b^-1 a^2"), -4)
        budget = DEFAULT_CONFIG.max_word_length
        assert dynamics._quiet_steps(theta.forward, seed, 9, 9, budget + 1, budget) is not None
        composed = composed_blocks(monkeypatch)
        outcomes = jump_outcomes(monkeypatch)
        got = iterate(theta, seed, 9)
        assert outcomes == [False]
        assert composed == []
        assert got == stepped_iterate(monkeypatch, theta, seed, 9, DEFAULT_CONFIG)
        assert len(got) == 343


def jump_outcomes(monkeypatch):
    """For each ``dynamics._Orbit`` made from now on, whether it jumped:
    True where the jump was taken, False where it was declined."""
    outcomes = []
    orbit_calls(monkeypatch, "__init__", lambda orbit, args, _: outcomes.append(False))
    orbit_calls(monkeypatch, "jump", lambda orbit, args, w: outcomes.__setitem__(-1, True))
    return outcomes


def stepped_iterate(monkeypatch, phi, g, p, cfg):
    """``[phi^p(g)]`` by ``apply`` at every step, where the first return to
    ``g`` cuts whole periods, or the fields of the overflow that stopped
    it: the reference ``iterate`` must agree with."""
    e = phi.forward if p >= 0 else phi.backward
    orbit = stepped_orbit(e, g, cfg.max_word_length)
    w, last, n = g, abs(p), 0
    try:
        while n < last:
            n += 1
            w = next(orbit)
            if w == g:
                last = n + (last - n) % n
    except GrowthOverflowError as exc:
        return (exc.iteration, exc.length, exc.budget, exc.word)
    return w


def iterate_outcome(phi, g, p, cfg):
    """The iterate, or the fields of the overflow that stopped it."""
    try:
        return iterate(phi, g, p, cfg)
    except GrowthOverflowError as exc:
        return (exc.iteration, exc.length, exc.budget, exc.word)


def long_iterate(rng, e, letters):
    """An iterate ``[e^q(w)]`` of a random short word w with 50-20000
    letters, or the longest one before the orbit passes 20000; and q."""
    w = reduce(e.alphabet, [rng.choice(letters) for _ in range(rng.randint(1, 8))])
    target = rng.choice((50, 500, 5000, 20_000))
    seed, q = w, 0
    try:
        for q, u in enumerate(islice(dynamics._Orbit(e, w, 20_000), 80), 1):
            seed = u
            if len(u) >= target:
                break
    except GrowthOverflowError:
        pass
    return seed, q


class TestIterateJump:
    def test_agrees_with_stepping(self, monkeypatch):
        rng = random.Random(9)
        pairs = [(label, pair) for label, pair, _ in catalog_seeds()]
        pairs += [(name, stock_theta(name)) for name in ("trace3", "trace4")]
        outcomes = jump_outcomes(monkeypatch)
        overflows = 0
        for label, pair in pairs:
            periodic = label.startswith(("sigma", "identity"))
            for sign in (1, -1):
                e = pair.forward if sign > 0 else pair.backward
                for budget in (200, 5000, 10**5, 10**6):
                    cfg = IterationConfig(max_word_length=budget)
                    for _ in range(3):
                        seed, q = long_iterate(rng, e, e.alphabet.signed_letters)
                        # back at most to the short word, or further on
                        p = rng.choice((-sign * rng.randint(1, max(q, 1)), sign * rng.randint(1, 12)))
                        if periodic:
                            p *= 10**6 + rng.randint(0, 1)
                        got = iterate_outcome(pair, seed, p, cfg)
                        expected = stepped_iterate(monkeypatch, pair, seed, p, cfg)
                        assert got == expected, (label, str(seed), p, budget)
                        overflows += isinstance(got, tuple)
        # both ways, and the overflow, are exercised
        assert outcomes.count(True) > 50 and outcomes.count(False) > 50 and overflows > 20

    def test_budget_below_the_first_step_raises_as_stepping(self, monkeypatch):
        pair = family("phi_k", k=1).pair
        w = iterate(pair, parse_word(pair.alphabet, "b d c d"), 300)
        first = iterate(pair, w, -1)
        cfg = IterationConfig(max_word_length=len(first) - 1)
        outcomes = jump_outcomes(monkeypatch)
        with pytest.raises(GrowthOverflowError) as exc:
            iterate(pair, w, -300, cfg)
        assert outcomes == [False]
        assert (exc.value.iteration, exc.value.length, exc.value.budget) == (1, len(first), len(first) - 1)
        assert exc.value.word == first
        assert stepped_iterate(monkeypatch, pair, w, -300, cfg) == (1, len(first), len(first) - 1, first)

    def test_seed_whose_first_step_alone_cancels_jumps_after_it(self, monkeypatch):
        # a b^-1 keeps 1 of its 3 letters at its first step under delta, so
        # the jump declines there; its first iterate b^-1 cancels nothing,
        # and the orbit, one step on, jumps to [delta^(n-1)(b^-1)] =
        # a^-(n-1) b^-1: one step and one jump where 10^6 steps were taken
        delta = family("delta", n=1).pair
        w = partial(parse_word, delta.alphabet)
        outcomes = jump_outcomes(monkeypatch)
        steps = orbit_steps(monkeypatch)
        assert iterate(delta, w("a b^-1"), 10**6) == w(f"a^-{10**6 - 1} b^-1")
        assert outcomes == [True] and steps == [(1, w("b^-1"))]
        # an overflow still names its step counted from the seed
        with pytest.raises(GrowthOverflowError) as exc:
            iterate(delta, w("a b^-1"), 10**6 + 1)
        assert (exc.value.iteration, exc.value.length, exc.value.budget) == (10**6 + 1, 10**6 + 1, 10**6)
        cfg = IterationConfig(max_word_length=1000)
        for p in (2, 3, 64, 65, 999, 1000, 1001, 5000):
            got = iterate_outcome(delta, w("a b^-1"), p, cfg)
            assert got == stepped_iterate(monkeypatch, delta, w("a b^-1"), p, cfg), p

    def test_periodic_letter_iterates_reduce_the_power(self, monkeypatch):
        rng = random.Random(4)
        g = reduce(F2, [rng.choice((1, -1, 2, -2)) for _ in range(5000)])
        phi = sigma()
        image = phi.apply(g)
        outcomes = jump_outcomes(monkeypatch)
        calls = apply_calls(monkeypatch)
        # sigma squared is the identity: 10^8 steps are none, 10^8 + 1 one
        assert iterate(phi, g, 10**8) == g
        assert iterate(phi, g, -(10**8 + 1)) == image
        assert outcomes == [True, True]
        assert calls == []

    def test_fixed_seed_goes_back_to_stepping(self, monkeypatch):
        # the letter iterates u^n x u^-n of conjugation by u = a b grow
        # for ever, while u^50 is fixed: stepping finds that in one step
        u = parse_word(F2, "a b")
        conj = inner(u)
        steps = composed_blocks(monkeypatch)
        outcomes = jump_outcomes(monkeypatch)
        calls = apply_calls(monkeypatch)
        assert iterate(conj, u**50, 10**6) == u**50
        assert outcomes == [False]
        assert len(calls) == 1
        # the letter iterates built outgrow 100 runs a step after a few
        # steps, far before the length bound would stop them
        assert len(steps) < 40

    def test_polynomial_backward_jumps_and_exponential_steps(self, monkeypatch):
        phi = family("phi_k", k=1).pair
        w = parse_word(phi.alphabet, "b d c d")
        image = iterate(phi, w, 300)
        theta = stock_theta("trace3")
        u = parse_word(theta.alphabet, "a b a")
        dense = iterate(theta, u, 9)
        calls = apply_calls(monkeypatch)
        assert iterate(phi, image, -300) == w
        assert calls == []
        assert iterate(theta, dense, -9) == u
        assert len(calls) == 9

    def test_partial_jump_agrees_with_stepping(self, monkeypatch):
        # orbits whose unreduced length grows polynomially land short of p
        # where p passes the budget's bound, and step the rest
        cases = [(family("delta", n=1).pair, "b"), (family("delta", n=1).pair, "b a^3 b^-1 a"),
                 (family("twist", n=2, k=1).pair, "b"), (order_two(), "b a^2"),
                 (family("phi_k", k=1).pair, "d"), (family("phi_k", k=1).pair, "b d^-1")]
        outcomes = jump_outcomes(monkeypatch)
        for pair, text in cases:
            g = parse_word(pair.alphabet, text)
            for budget in (300, 5000):
                cfg = IterationConfig(max_word_length=budget)
                for p in (64, 150, 299, 300, 301, 1000, 2500, 5001, 20_000):
                    for sign in (1, -1):
                        got = iterate_outcome(pair, g, sign * p, cfg)
                        expected = stepped_iterate(monkeypatch, pair, g, sign * p, cfg)
                        assert got == expected, (text, budget, sign * p)
        assert outcomes.count(True) > 50

    def test_partial_jump_returns_to_the_landing_word(self, monkeypatch):
        # U_n(b) = n + 1, so the jump lands at 999,999 (a b); a b comes back
        # two steps later, so at most one more step follows; a return to
        # b, one step after the landing, would leave about 500,000
        phi = order_two()
        b = parse_word(F2, "b")
        outcomes = jump_outcomes(monkeypatch)
        calls = apply_calls(monkeypatch)
        assert iterate(phi, b, 1_500_000) == b
        assert iterate(phi, b, 1_500_001) == parse_word(F2, "a b")
        assert outcomes == [True, True]
        assert len(calls) <= 6

    def test_foreign_word_rejected_for_every_power(self):
        # every dynamics entry point checks the word's alphabet, since no
        # orbit step goes through Endomorphism.apply: a word over another
        # alphabet of the same rank gave a result, and one over a-f a
        # KeyError from the image blocks
        phi = family("phi_k", k=1).pair
        image = iterate(phi, parse_word(phi.alphabet, "b d c d"), 300)
        F6 = standard_alphabet(6)
        for g in (Word(Alphabet(("w", "x", "y", "z")), image.runs), Word(F6, image.runs) * parse_word(F6, "e f")):
            calls = [partial(iterate, phi, g, p) for p in (0, 1, -1, 300, -300)]
            calls += [
                partial(omega_limit, phi, g),
                partial(growth_classify, phi, g, 12),
                partial(verify_splitting, phi, [g, g], 3),
                partial(detect_boundary_period, phi, g, 1),
            ]
            for call in calls:
                with pytest.raises(AlphabetMismatchError):
                    call()
