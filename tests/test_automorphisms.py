import random

import pytest
from hypothesis import given, strategies as st

from fgdyn.automorphisms import (
    DilatationInfo,
    Endomorphism,
    IntMatrix,
    NotHyperbolicError,
    NotInverseError,
    UnboundedCancellationError,
    abelianize,
    cancellation_bound,
    compose,
    compose_pairs,
    conjugate,
    determinant,
    dilatation_info,
    identity_pair,
    inner,
    matrix_mul,
    matrix_power,
    power,
    squarefree_part,
    verify_pair,
)
from fgdyn.automorphisms import _junction_bounds
from fgdyn import words
from fgdyn.families import family, make_delta, stock_theta
from fgdyn.words import AlphabetMismatchError, Word, identity, parse_word, reduce, standard_alphabet
from random_maps import random_pair

F2 = standard_alphabet(2)
F3 = standard_alphabet(3)
F4 = standard_alphabet(4)

WORDS3 = st.lists(st.integers(-3, 3).filter(bool), max_size=5).map(lambda xs: reduce(F3, xs))
# the image shapes that take different paths when a power of an image is built
ONE_RUN3 = st.builds(lambda g, e: Word.from_runs(F3, [(g, e)]), st.integers(1, 3), st.integers(-3, 3))
IMAGES3 = st.one_of(
    WORDS3,
    ONE_RUN3,
    st.builds(lambda u, v: u * v * u, WORDS3, WORDS3),  # e.g. a b a
    st.builds(lambda u, v: u * v * u.inverse(), WORDS3, WORDS3),  # e.g. a b a^-1
    # e.g. c b a^2 b^-1 c^-1: a conjugate nested in a conjugate
    st.builds(
        lambda u, v, x: u * v * x * v.inverse() * u.inverse(), WORDS3, WORDS3, ONE_RUN3
    ),
    st.just(identity(F3)),
)
RUN_WORDS3 = st.lists(st.tuples(st.integers(1, 3), st.integers(-50, 50)), max_size=6).map(
    lambda runs: Word.from_runs(F3, runs)
)


def endo(alphabet, *images):
    return Endomorphism(alphabet, [parse_word(alphabet, t) for t in images])


def phi1():
    fwd = endo(F4, "a", "b a", "c a^2", "d c")
    bwd = endo(F4, "a", "b a^-1", "c a^-2", "d a^2 c^-1")
    return verify_pair(fwd, bwd)


def delta():
    return verify_pair(endo(F2, "a", "b a"), endo(F2, "a", "b a^-1"))


def sigma():
    e = endo(F2, "a^-1", "b^-1")
    return verify_pair(e, e)


def random_word(rng, alphabet, max_len=8):
    rank = alphabet.rank
    letters = [rng.choice([x for x in range(-rank, rank + 1) if x]) for _ in range(rng.randint(0, max_len))]
    return reduce(alphabet, letters)


class TestApply:
    def test_first_forward_step(self):
        assert str(phi1().apply(parse_word(F4, "b d^-1"))) == "b a c^-1 d^-1"

    def test_second_forward_step(self):
        got = phi1().apply(parse_word(F4, "b a c^-1 d^-1"))
        assert got == parse_word(F4, "b c^-1 c^-1 d^-1")

    def test_first_backward_step(self):
        assert str(phi1().apply_inverse(parse_word(F4, "b d^-1"))) == "b a^-1 c a^-2 d^-1"

    def test_identity_word(self):
        assert phi1().apply(identity(F4)).is_identity()
        with pytest.raises(AlphabetMismatchError):
            phi1().apply(identity(F2))

    def test_huge_power_of_conjugated_image(self):
        got = inner(parse_word(F2, "b")).apply(parse_word(F2, "a^1000000000"))
        assert got == parse_word(F2, "b a^1000000000 b^-1")

    @given(
        st.lists(st.integers(-4, 4).filter(bool), max_size=10),
        st.lists(st.integers(-4, 4).filter(bool), max_size=10),
    )
    def test_homomorphism_law(self, xs, ys):
        u, v = reduce(F4, xs), reduce(F4, ys)
        f = phi1().forward
        assert f.apply(u * v) == f.apply(u) * f.apply(v)

    def test_inverse_law_random(self):
        rng = random.Random(5)
        pair = phi1()
        for _ in range(100):
            g = random_word(rng, F4)
            assert pair.apply_inverse(pair.apply(g)) == g
            assert pair.apply(pair.apply_inverse(g)) == g

    @given(st.lists(IMAGES3, min_size=3, max_size=3), RUN_WORDS3)
    def test_matches_letter_level_reference(self, images, w):
        def image(letter):
            return images[letter - 1] if letter > 0 else images[-letter - 1].inverse()

        expected = reduce(F3, [x for l in w.letters() for x in image(l).letters()])
        assert Endomorphism(F3, images).apply(w) == expected

    @given(st.lists(IMAGES3, min_size=3, max_size=3), RUN_WORDS3, st.integers(0, 60))
    def test_limit_reads_a_prefix_of_runs(self, images, w, limit):
        e = Endomorphism(F3, images)
        runs, length = words._block_product(w.runs, e._image_blocks, limit)
        got = Word._make(F3, tuple(runs), length)
        # reading stops after the first run that brings the image to the limit
        heads = (e.apply(Word(F3, w.runs[:i])) for i in range(1, len(w.runs) + 1))
        assert got == next((h for h in heads if len(h) >= limit), e.apply(w))
        assert len(got) == sum(abs(x) for _, x in got.runs)

    def test_limit_on_a_cancelling_map_stops_where_the_length_bound_did(self):
        # apply once bounded the image length by the sum of the image
        # lengths read and re-summed the image whenever that bound reached
        # the limit; with the length kept exact it must stop at the same run
        pair = stock_theta("trace3")
        w = parse_word(pair.alphabet, "a b a")
        for _ in range(6):
            w = pair.apply(w)
        backward = pair.backward  # every image of the iterate's runs cancels
        reads = []
        for limit in (1, 2, 7, 50, 200, 300, len(backward.apply(w)) + 1):
            image, read = bounded_apply_reference(backward, w, limit)
            runs, length = words._block_product(w.runs, backward._image_blocks, limit)
            got = Word._make(pair.alphabet, tuple(runs), length)
            assert got == image, limit
            assert got == backward.apply(Word(pair.alphabet, w.runs[:read]))
            assert len(got) == sum(abs(x) for _, x in got.runs)
            reads.append(read)
        assert reads == sorted(reads) and reads[0] < reads[-2] < reads[-1] == len(w.runs)


def bounded_apply_reference(e, w, limit):
    """The image ``e(w)`` read run by run until it has ``limit`` letters,
    with the length test of the former ``apply`` loop: a bound that adds
    ``k * |image|`` per run ``x^k``, checked by a re-sum once it reaches
    the limit.  Returns the image and the number of runs read."""
    image, bound = identity(w.alphabet), 0
    for read, (gen, exp) in enumerate(w.runs, 1):
        image = image * e.apply(Word(w.alphabet, ((gen, exp),)))
        bound += abs(exp) * len(e.images[gen - 1])
        if bound >= limit and len(image) >= limit:
            break
    return image, read


def _max_cancellation(e, max_len):
    """Most letters cancelled between [e(u)] and [e(v)] over nonempty u, v
    of at most ``max_len`` letters with uv reduced, by listing them: the
    longest common prefix of [e(x)], [e(y)] with x, y starting differently.
    Sorted images put the best pair next to each other."""
    alphabet = e.alphabet
    images = []
    frontier = [[x] for x in alphabet.signed_letters]
    for _ in range(max_len):
        images += [(tuple(e.apply(reduce(alphabet, xs)).letters()), xs[0]) for xs in frontier]
        frontier = [xs + [y] for xs in frontier for y in alphabet.signed_letters if y != -xs[-1]]
    images.sort()
    best = 0
    for (u, x), (v, y) in zip(images, images[1:]):
        if x != y:
            best = max(best, next((i for i, (p, q) in enumerate(zip(u, v)) if p != q), min(len(u), len(v))))
    return best


def _lipschitz_bound(e, inverse):
    """A proven bound L_e * floor(L_e * L_inv / 2) + floor(L_e / 2), with L
    the longest generator image (a tree argument)."""
    le = max(len(img) for img in e.images)
    li = max(len(img) for img in inverse.images)
    return le * (le * li // 2) + le // 2


class TestCancellationBound:
    # exhaustive maxima over short words (forward, backward) and the
    # word length they were measured at
    MEASURED = {
        ("beta", (("rank", 6),)): (3, 3, 5),
        ("phi_k", (("k", 1),)): (3, 3, 7),
        ("phi_k", (("k", 3),)): (5, 5, 6),
    }

    @pytest.mark.parametrize("name, params", list(MEASURED))
    def test_between_measured_maxima_and_lipschitz_bound(self, name, params):
        pair = family(name, **dict(params)).pair
        forward_max, backward_max, _ = self.MEASURED[(name, params)]
        for e, inv, measured in ((pair.forward, pair.backward, forward_max), (pair.backward, pair.forward, backward_max)):
            c = cancellation_bound(e)
            assert measured <= c <= _lipschitz_bound(e, inv)
            assert _max_cancellation(e, 3) <= c
            # the maxima are attained, so C is exact here; a looser sound
            # bound would hold longer prefixes and lose the speed-up
            assert c == measured

    def test_random_small_pairs(self):
        rng = random.Random(11)
        for _ in range(12):
            alphabet = rng.choice((F2, F3))
            pair = random_pair(rng, alphabet, rng.randint(1, 4))
            for e, inv in ((pair.forward, pair.backward), (pair.backward, pair.forward)):
                c = cancellation_bound(e)
                assert _max_cancellation(e, 5 if alphabet is F2 else 3) <= c <= _lipschitz_bound(e, inv)

    def test_certifies_a_prefix_of_the_image(self):
        # the first |[e(p)]| - C letters of [e(p)] start [e(w)] for every prefix p of w
        rng = random.Random(2)
        pair = family("beta", rank=6).pair
        for e in (pair.forward, pair.backward):
            c = cancellation_bound(e)
            for _ in range(40):
                w = random_word(rng, pair.alphabet, 12)
                image = e.apply(w)
                for n in range(len(w) + 1):
                    head = e.apply(w.prefix(n))
                    assert head.prefix(len(head) - c) == image.prefix(len(head) - c)

    def test_computed_once_and_kept(self):
        e = endo(F2, "a", "b a")
        assert e._table.bounds is None  # not at construction
        assert cancellation_bound(e) == 1
        assert e._table.bounds[0] == 1
        assert cancellation_bound(Endomorphism.identity(F2)) == 0
        assert cancellation_bound(endo(F2, "a^-1", "b^-1")) == 0

    def test_inner(self):
        e = inner(parse_word(F2, "a b")).forward
        assert cancellation_bound(e) == _max_cancellation(e, 5) == 3

    @pytest.mark.parametrize("images", [("b", "b"), ("", "b")])
    def test_unbounded_cancellation_raises(self, images):
        # a -> b, b -> b: [e(a^k)] = b^k cancels all of [e(b^-k)] = b^-k;
        # a -> 1: [e(a b^k)] and [e(a^-1 b^k)] are both b^k
        with pytest.raises(UnboundedCancellationError):
            cancellation_bound(endo(F2, *images))


def _cone_images(e, max_len):
    """The reduced images, as letter tuples, of the reduced words of at
    most ``max_len`` letters, by first letter."""
    alphabet = e.alphabet
    cones = {x: [] for x in alphabet.signed_letters}
    frontier = [[x] for x in alphabet.signed_letters]
    for _ in range(max_len):
        for xs in frontier:
            cones[xs[0]].append(tuple(e.apply(reduce(alphabet, xs)).letters()))
        frontier = [xs + [y] for xs in frontier for y in alphabet.signed_letters if y != -xs[-1]]
    return cones


def _brute_junction_bounds(e, max_len):
    """C(x, y) and F(y) of :func:`automorphisms._junction_bounds` over the
    reduced words of at most ``max_len`` letters: the letters cancelled
    between [e(u)] and [e(v)] are the common prefix of [e(u^-1)] and
    [e(v)], and sorted images put the best pair next to each other."""
    cones = _cone_images(e, max_len)
    bounds = {}
    for x in cones:
        for y in cones:
            if y != -x:
                tagged = sorted([(u, 0) for u in cones[-x]] + [(v, 1) for v in cones[y]])
                bounds[x, y] = max(
                    (next((i for i, (p, q) in enumerate(zip(u, v)) if p != q), min(len(u), len(v)))
                     for (u, s), (v, t) in zip(tagged, tagged[1:]) if s != t),
                    default=0,
                )
    return bounds, {y: {image[0] for image in images} for y, images in cones.items()}


class TestJunctionBounds:
    CATALOG = [("phi_k", {"k": k}) for k in range(6)] + [("alpha_k", {"k": k}) for k in (1, 2, 3)] + [
        ("beta", {"rank": 6}), ("beta", {"rank": 7, "theta": "trace4"}), ("delta", {"n": 1}),
        ("sigma", {}), ("twist", {"n": 2, "k": 1}), ("inner", {"u": "a b"}),
    ]

    @pytest.mark.parametrize("name, params", CATALOG)
    def test_largest_is_c(self, name, params):
        # C is the largest junction bound, and every junction and cone has
        # its entry
        pair = family(name, **params).pair
        letters = pair.alphabet.signed_letters
        for e in (pair.forward, pair.backward):
            c, bounds, firsts = _junction_bounds(e)
            assert max(bounds.values()) == c == cancellation_bound(e)
            assert set(bounds) == {(x, y) for x in letters for y in letters if y != -x}
            assert set(firsts) == set(letters) and all(firsts.values())

    def test_random_maps_against_enumeration(self):
        # over these draws the short words attain every bound and every
        # first letter
        rng = random.Random(11)
        for _ in range(12):
            alphabet = rng.choice((F2, F3))
            pair = random_pair(rng, alphabet, rng.randint(1, 4))
            for e in (pair.forward, pair.backward):
                _, bounds, firsts = _junction_bounds(e)
                assert _brute_junction_bounds(e, 6 if alphabet is F2 else 4) == (bounds, firsts), e

    def test_first_letter_of_a_long_word(self):
        # a first letter of F(a) that only words of 7 letters or more show
        e = endo(F2, "b^2 a", "b^2 a b^3 a")
        assert _junction_bounds(e)[2][1] == {1, 2, -2}
        assert {image[0] for image in _cone_images(e, 6)[1]} == {2, -2}
        assert {image[0] for image in _cone_images(e, 7)[1]} == {1, 2, -2}


class TestVerifyPair:
    def test_valid_pair(self):
        phi1()  # does not raise

    def test_identity_pair(self):
        identity_pair(F4)

    def test_not_involution(self):
        e = endo(F2, "a", "b a")
        with pytest.raises(NotInverseError) as exc:
            verify_pair(e, e)
        assert exc.value.generator_name == "b"
        # nor is a pair of maps over different alphabets, nor a map with
        # the wrong number of images or an image over another alphabet
        with pytest.raises(AlphabetMismatchError):
            verify_pair(e, Endomorphism.identity(F3))
        with pytest.raises(ValueError, match="one image per generator"):
            endo(F2, "a")
        with pytest.raises(AlphabetMismatchError):
            Endomorphism(F2, [parse_word(F2, "a"), parse_word(F3, "b")])

    def test_error_names_first_failing_generator(self):
        fwd = endo(F4, "a", "b a", "c a^2", "d c")
        bad = endo(F4, "a", "b a^-1", "c a^-1", "d a^2 c^-1")
        with pytest.raises(NotInverseError) as exc:
            verify_pair(fwd, bad)
        assert exc.value.generator_name == "c"


class TestCompose:
    def test_inverse_pair_composes_to_identity(self):
        pair = phi1()
        assert compose(pair.forward, pair.backward) == Endomorphism.identity(F4)
        assert compose(pair.backward, pair.forward) == Endomorphism.identity(F4)

    def test_identity_neutral(self):
        e = endo(F2, "a b", "b")
        assert compose(Endomorphism.identity(F2), e) == e
        assert compose(e, Endomorphism.identity(F2)) == e
        with pytest.raises(AlphabetMismatchError):
            compose(e, Endomorphism.identity(F3))

    def test_associative(self):
        e1 = endo(F2, "a", "b a")
        e2 = endo(F2, "a b", "b")
        e3 = endo(F2, "b", "a")
        assert compose(compose(e1, e2), e3) == compose(e1, compose(e2, e3))

    def test_order_of_application(self):
        e1 = endo(F2, "a", "b a")
        e2 = endo(F2, "b", "a")
        g = parse_word(F2, "b")
        assert compose(e1, e2).apply(g) == e1.apply(e2.apply(g))


class TestInner:
    def test_conjugation_image(self):
        pair = inner(parse_word(F4, "a"))
        assert str(pair.apply(parse_word(F4, "b"))) == "a b a^-1"

    def test_trivial_conjugator(self):
        assert inner(identity(F4)) == identity_pair(F4)

    def test_extensional_on_random_words(self):
        rng = random.Random(11)
        u = parse_word(F4, "b a^2")
        pair = inner(u)
        for _ in range(50):
            g = random_word(rng, F4)
            assert pair.apply(g) == u * g * u.inverse()

    def test_twist_composition_images(self):
        # conjugation by a^k composed with a twist power sends b to a^k b a^(n-k)
        for n in (1, 2, 3):
            for k in (-2, 0, 1, 3):
                tw = compose_pairs(inner(parse_word(F2, "a") ** k), power(delta(), n))
                assert tw.apply(parse_word(F2, "b")) == parse_word(F2, "a") ** k * parse_word(F2, "b") * parse_word(F2, "a") ** (n - k)


class TestConjugateAndPower:
    def test_conjugate_by_identity(self):
        pair = phi1()
        assert conjugate(pair, identity_pair(F4)) == pair

    def test_conjugate_of_inner(self):
        psi = phi1()
        u = parse_word(F4, "b a")
        assert conjugate(inner(u), psi) == inner(psi.apply(u))

    def test_sigma_conjugation_identity(self):
        sg = sigma()
        for n in [n for n in range(-3, 4) if n]:
            for k in range(-3, n + 4):
                lhs = conjugate(compose_pairs(inner(parse_word(F2, "a") ** k), power(delta(), n)), sg)
                rhs = compose_pairs(inner(parse_word(F2, "a") ** (n - k)), power(delta(), n))
                assert lhs == rhs, (n, k)

    def test_power_squared_image_of_d(self):
        got = power(phi1(), 2).apply(parse_word(F4, "d"))
        assert got == parse_word(F4, "d c c a^2")

    def test_power_negative_one_is_inverse(self):
        pair = phi1()
        assert power(pair, -1) == pair.inverse()

    def test_power_zero_is_identity(self):
        assert power(phi1(), 0) == identity_pair(F4)

    def test_twist_power_by_induction(self):
        d = delta()
        b = parse_word(F2, "b")
        a = parse_word(F2, "a")
        for n in range(11):
            assert power(d, n).apply(b) == b * a**n

    def test_huge_power_by_squaring(self):
        d = power(make_delta(), 10**9)
        assert d.apply(parse_word(F2, "b")) == parse_word(F2, "b a^1000000000")
        assert d.apply_inverse(parse_word(F2, "b")) == parse_word(F2, "b a^-1000000000")

    def test_power_matches_repeated_composition(self):
        theta = stock_theta("trace3")
        for p in range(-8, 9):
            step = theta if p >= 0 else theta.inverse()
            expected = identity_pair(F2)
            for _ in range(abs(p)):
                expected = compose_pairs(step, expected)
            assert power(theta, p) == expected, p


class TestAbelianize:
    def test_phi1_matrix(self):
        m = abelianize(phi1().forward)
        assert m.entries == ((1, 1, 2, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1))

    def test_identity_matrix(self):
        assert abelianize(Endomorphism.identity(F4)) == IntMatrix.identity(4)

    def test_square_entry_matches_closed_form(self):
        # (1,4) entry of Ab(phi_1)^2 is (k+1)p(p-1)/2 = 2 at k=1, p=2
        m2 = matrix_mul(abelianize(phi1().forward), abelianize(phi1().forward))
        assert m2[0, 3] == 2

    def test_functorial_under_power(self):
        pair = phi1()
        m = abelianize(pair.forward)
        for p in range(9):
            assert abelianize(power(pair, p).forward) == matrix_power(m, p)

    def test_functorial_under_compose(self):
        e1 = endo(F2, "a b", "b")
        e2 = endo(F2, "b", "a b^-1")
        assert abelianize(compose(e1, e2)) == matrix_mul(abelianize(e1), abelianize(e2))


class TestMatrices:
    def test_power_zero(self):
        m = IntMatrix([[2, 1], [1, 1]])
        assert matrix_power(m, 0) == IntMatrix.identity(2)
        with pytest.raises(ValueError, match="negative"):
            matrix_power(m, -1)
        with pytest.raises(ValueError, match="dimension"):
            matrix_mul(m, IntMatrix.identity(3))
        with pytest.raises(ValueError, match="square"):
            IntMatrix([[1, 0], [0]])

    def test_closed_form_entries(self):
        for k in range(11):
            m = IntMatrix([[1, 1, k + 1, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
            for p in range(11):
                mp = matrix_power(m, p)
                assert mp[0, 1] == p
                assert mp[0, 2] == (k + 1) * p
                assert mp[0, 3] == (k + 1) * p * (p - 1) // 2
                assert mp[2, 3] == p

    def test_determinant_triangular(self):
        assert determinant(abelianize(phi1().forward)) == 1

    def test_determinant_general(self):
        assert determinant(IntMatrix([[2, 1], [1, 1]])) == 1
        assert determinant(IntMatrix([[1, 1], [1, 1]])) == 0
        assert determinant(IntMatrix([[0, 1], [1, 0]])) == -1
        assert determinant(IntMatrix([[0, 2, 1], [1, 0, 0], [0, 1, 1]])) == -1

    def test_huge_entries_exact(self):
        m = matrix_power(IntMatrix([[2, 1], [1, 1]]), 200)
        assert determinant(m) == 1  # no overflow, exact arithmetic


class TestDilatation:
    def test_golden_ratio_square(self):
        info = dilatation_info(IntMatrix([[2, 1], [1, 1]]))
        assert info == DilatationInfo(3, 5, 5)
        assert abs(info.value() - (3 + 5**0.5) / 2) < 1e-12

    def test_trace_four(self):
        info = dilatation_info(IntMatrix([[3, 1], [2, 1]]))
        assert (info.trace, info.discriminant, info.squarefree_part) == (4, 12, 3)

    def test_parabolic_rejected(self):
        with pytest.raises(NotHyperbolicError):
            dilatation_info(IntMatrix([[1, 1], [0, 1]]))

    def test_determinant_checked(self):
        with pytest.raises(ValueError):
            dilatation_info(IntMatrix([[3, 0], [0, 1]]))
        with pytest.raises(ValueError, match="2x2"):
            dilatation_info(IntMatrix.identity(3))

    def test_squarefree_part(self):
        assert squarefree_part(12) == 3
        assert squarefree_part(5) == 5
        assert squarefree_part(36) == 1
        assert squarefree_part(396) == 11
        with pytest.raises(ValueError):
            squarefree_part(0)
