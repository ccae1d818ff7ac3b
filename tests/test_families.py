import itertools
from fractions import Fraction

import pytest

from fgdyn.automorphisms import (
    abelianize,
    compose_pairs,
    conjugate,
    dilatation_info,
    identity_pair,
    inner,
    matrix_mul,
    matrix_power,
    IntMatrix,
    power,
)
from fgdyn.dynamics import detect_parabolic, PARABOLIC
from fgdyn.families import (
    TwistCase,
    UnknownFamilyError,
    _free_product,
    classify_twist,
    expected_graph,
    family,
    make_alpha_k,
    make_beta,
    make_delta,
    make_phi_k,
    make_sigma,
    make_twist,
    parse_family_spec,
    stock_theta,
    stock_theta_fixed,
    stock_theta_names,
    twist_reduce,
)
from fgdyn.graphs import build_graph, verify_fixed_generators
from fgdyn.subgroups import build_core_graph, contains
from fgdyn.words import Word, format_word, parse_word, standard_alphabet

F2 = standard_alphabet(2)
F4 = standard_alphabet(4)
F5 = standard_alphabet(5)


class TestPhiFamily:
    def test_k1_matches_first_example(self):
        phi = make_phi_k(1)
        assert str(phi.forward.images[2]) == "c a^2"
        assert str(phi.backward.images[3]) == "d a^2 c^-1"

    def test_k0_images(self):
        phi = make_phi_k(0)
        assert str(phi.forward.images[2]) == "c a"

    def test_pairs_verify_up_to_ten(self):
        for k in range(11):
            make_phi_k(k)

    def test_fixed_generators(self):
        for k in range(6):
            fam = family("phi_k", k=k)
            assert verify_fixed_generators(fam.pair, fam.fixed_generators)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            make_phi_k(-1)


class TestAlphaFamily:
    def test_fifth_generator_fixed(self):
        alpha = make_alpha_k(2)
        assert str(alpha.forward.images[4]) == "e"

    def test_restriction_matches_phi(self):
        for k in range(6):
            alpha, phi = make_alpha_k(k), make_phi_k(k)
            for i in range(4):
                assert str(alpha.forward.images[i]) == str(phi.forward.images[i])
                assert str(alpha.backward.images[i]) == str(phi.backward.images[i])

    @pytest.mark.parametrize("k", range(6))
    def test_literal_images(self, k):
        alpha = make_alpha_k(k)
        forward = ("a", "b a", f"c a^{k + 1}", "d c", "e")
        backward = ("a", "b a^-1", f"c a^{-(k + 1)}", f"d a^{k + 1} c^-1", "e")
        assert alpha.forward.images == tuple(parse_word(F5, t) for t in forward)
        assert alpha.backward.images == tuple(parse_word(F5, t) for t in backward)

    def test_parabolic_seed_still_works(self):
        report = detect_parabolic(make_alpha_k(1), parse_word(F5, "b d^-1"))
        assert report.verdict == PARABOLIC
        assert str(report.point.head) == "b"

    def test_fixed_generators(self):
        fam = family("alpha_k", k=3)
        assert verify_fixed_generators(fam.pair, fam.fixed_generators)


class TestBetaFamily:
    def test_block_abelianization(self):
        theta = stock_theta("trace3")
        beta = make_beta(7, theta)
        m = abelianize(beta.forward)
        phi_block = abelianize(make_phi_k(1).forward)
        theta_block = abelianize(theta.forward)
        for i, j in itertools.product(range(4), repeat=2):
            assert m[i, j] == phi_block[i, j]
        for i, j in itertools.product(range(2), repeat=2):
            assert m[4 + i, 4 + j] == theta_block[i, j]
        assert m[6, 6] == 1
        for i in range(4):
            for j in range(4, 7):
                assert m[i, j] == 0 and m[j, i] == 0

    def test_parabolic_seed(self):
        beta = make_beta(6, stock_theta("trace3"))
        report = detect_parabolic(beta, parse_word(beta.alphabet, "b d^-1"))
        assert report.verdict == PARABOLIC
        assert report.point.text() == "b (a^-1)^∞"

    def test_identity_tail(self):
        beta = make_beta(8, identity_pair(F2))
        for g in "gh":
            w = parse_word(beta.alphabet, g)
            assert beta.apply(w) == w

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            make_beta(5, stock_theta("trace3"))
        # a rank-3 theta would fill a-g at rank 7 if its rank were not checked
        with pytest.raises(ValueError):
            make_beta(7, identity_pair(standard_alphabet(3)))

    def test_catalog_lists_the_fixed_tail(self):
        six = family("beta", rank=6)
        assert [str(w) for w in six.fixed_generators] == ["a", "b a b^-1", "c a c^-1", "e^-1 f^-1 e f"]
        for rank in (7, 8):
            fam = family("beta", rank=rank)
            assert verify_fixed_generators(fam.pair, fam.fixed_generators)
            H = build_core_graph(fam.pair.alphabet, list(fam.fixed_generators))
            for g in range(7, rank + 1):
                assert contains(H, Word.from_letters(fam.pair.alphabet, [g])), (rank, g)


class TestFreeProduct:
    def test_blocks_then_fixed_tail(self):
        phi, theta = make_phi_k(1), stock_theta("trace4")
        pair = _free_product(8, phi, theta)
        F8 = pair.alphabet
        assert F8 == standard_alphabet(8)

        def moved(w, offset):
            return Word.from_runs(F8, [(g + offset, e) for g, e in w.runs])

        for text in ("a", "b", "a b^-1 a^2", "b^-3 a b"):
            w = parse_word(F2, text)
            assert pair.apply(moved(w, 4)) == moved(theta.apply(w), 4)
            assert pair.apply_inverse(moved(w, 4)) == moved(theta.apply_inverse(w), 4)
        for text in ("b d^-1", "c a^-2 d"):
            w = parse_word(F4, text)
            assert pair.apply(moved(w, 0)) == moved(phi.apply(w), 0)
        for g in "gh":
            w = parse_word(F8, g)
            assert pair.apply(w) == w and pair.apply_inverse(w) == w


class TestStockThetas:
    def test_names(self):
        assert stock_theta_names() == ["trace3", "trace4"]
        with pytest.raises(UnknownFamilyError):
            stock_theta("trace9")

    def test_dilatation_fields_differ(self):
        infos = [dilatation_info(abelianize(stock_theta(n).forward)) for n in stock_theta_names()]
        assert infos[0].squarefree_part != infos[1].squarefree_part
        assert infos[0].trace == 3 and infos[1].trace == 4

    def test_prime_field_separation(self):
        # matrices [[t, -1], [1, 0]] with traces picked per squarefree part
        samples = {2: 6, 3: 4, 5: 3, 7: 16, 11: 20, 13: 11}
        infos = {
            p: dilatation_info(IntMatrix([[t, -1], [1, 0]]))
            for p, t in samples.items()
        }
        for p, info in infos.items():
            assert info.squarefree_part == p
        for p, q in itertools.combinations(samples, 2):
            assert infos[p].squarefree_part != infos[q].squarefree_part


def fixed_words(pair, gens, length):
    """Every nontrivial reduced word of at most ``length`` letters over the
    generators ``gens`` that ``pair`` fixes.  Only the words whose exponent
    sums by generator equal those of their image are applied: a fixed word
    has them equal."""
    e, alphabet = pair.forward, pair.alphabet
    sums = {}  # the exponent sums of the image of each signed letter
    for g in range(1, alphabet.rank + 1):
        row = [0] * alphabet.rank
        for y, k in e.images[g - 1].runs:
            row[y - 1] += k
        sums[g], sums[-g] = row, [-k for k in row]
    letters = [x for g in gens for x in (g, -g)]
    zero = (0,) * alphabet.rank
    found, frontier = [], [((), zero, zero)]  # a word, its sums, and those of its image
    for _ in range(length):
        grown = []
        for w, own, image in frontier:
            for x in letters:
                if w and x == -w[-1]:
                    continue
                v = tuple(k + (1 if x > 0 else -1) * (i == abs(x) - 1) for i, k in enumerate(own))
                u = tuple(map(sum, zip(image, sums[x])))
                grown.append((w + (x,), v, u))
                if v == u:
                    word = Word.from_letters(alphabet, w + (x,))
                    if e.apply(word) == word:
                        found.append(word)
        frontier = grown
    return found


class TestFixedSubgroup:
    """H, the subgroup of the fixed generators a catalog family lists, is
    read by every graph as Fix: each short word the pair fixes lies in it."""

    @pytest.mark.parametrize(
        "spec, gens, length",
        [
            # the lengths searched: every letter of the family, or those of
            # theta's factor e-f
            ("phi_k:k=1", (1, 2, 3, 4), 6),
            ("alpha_k:k=1", (1, 2, 3, 4, 5), 5),
            ("beta:rank=6", (5, 6), 10),
            ("beta:rank=6", (1, 2, 3, 4, 5, 6), 4),
            ("beta:rank=7,theta=trace4", (5, 6), 10),
            ("twist:n=2,k=1", (1, 2), 10),
            ("delta:n=1", (1, 2), 10),
            ("sigma", (1, 2), 10),
            ("inner:u=a b", (1, 2), 6),
            ("identity:rank=2", (1, 2), 4),
        ],
    )
    def test_every_short_fixed_word_lies_in_h(self, spec, gens, length):
        fam = parse_family_spec(spec)
        H = build_core_graph(fam.pair.alphabet, list(fam.fixed_generators))
        found = fixed_words(fam.pair, gens, length)
        assert [str(w) for w in found if not contains(H, w)] == []
        if spec.startswith("beta") and len(gens) == 2:
            # the powers 1, -1, 2 and -2 of theta's commutator
            c = fam.fixed_generators[3]
            assert sorted(map(str, found)) == sorted(map(str, (c, c.inverse(), c * c, (c * c).inverse())))

    def test_stock_thetas_fix_their_commutators(self):
        for name in stock_theta_names():
            pair, c = stock_theta(name), stock_theta_fixed(name)
            x, y, x_inv, y_inv = c.letters()  # c = x y x^-1 y^-1, x and y letters of a and b
            assert (x_inv, y_inv) == (-x, -y) and {abs(x), abs(y)} == {1, 2}
            assert pair.apply(c) == c
        with pytest.raises(UnknownFamilyError):
            stock_theta_fixed("trace9")

    def test_beta_without_the_commutator_misses_a_fixed_word(self):
        # the fixed generators listed before theta's commutator was added
        fam = family("beta", rank=6)
        H = build_core_graph(fam.pair.alphabet, list(fam.fixed_generators[:3]))
        missing = [str(w) for w in fixed_words(fam.pair, (5, 6), 4) if not contains(H, w)]
        assert sorted(missing) == ["e^-1 f^-1 e f", "f^-1 e^-1 f e"]


class TestTwists:
    def test_delta_is_n1_k0(self):
        assert make_twist(1, 0) == make_delta()

    def test_images(self):
        tw = make_twist(2, 1)
        assert tw.apply(parse_word(F2, "b")) == parse_word(F2, "a b a")

    def test_verification_grid(self):
        for n in [n for n in range(-3, 4) if n]:
            for k in range(-5, 6):
                make_twist(n, k)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            make_twist(0, 1)
        with pytest.raises(ValueError):
            classify_twist(0, 1)
        with pytest.raises(ValueError):
            twist_reduce(parse_word(F2, "a"), 0)

    def test_classification(self):
        assert classify_twist(3, 0) is TwistCase.TWO_COMPONENT
        assert classify_twist(3, 3) is TwistCase.TWO_COMPONENT
        assert classify_twist(2, 5) is TwistCase.NORTH_SOUTH
        assert classify_twist(2, -1) is TwistCase.NORTH_SOUTH
        assert classify_twist(3, 1) is TwistCase.SEMI_NORTH_SOUTH
        assert classify_twist(3, 2) is TwistCase.SEMI_NORTH_SOUTH

    def test_sigma_involution(self):
        sg = make_sigma()
        assert compose_pairs(sg, sg) == identity_pair(F2)
        assert sg.apply(parse_word(F2, "a b")) == parse_word(F2, "a^-1 b^-1")

    def test_sigma_conjugation_swaps_parameter(self):
        sg = make_sigma()
        for n in (1, 2, 3):
            for k in range(-2, n + 3):
                assert conjugate(make_twist(n, k), sg) == make_twist(n, n - k)

    def test_twist_fixed_generators(self):
        for n in (1, 2, 3):
            for k in range(-2, n + 3):
                fam = family("twist", n=n, k=k)
                assert verify_fixed_generators(fam.pair, fam.fixed_generators), (n, k)


class TestTwistReduce:
    def test_power_of_a(self):
        w, k = twist_reduce(parse_word(F2, "a^4"), 2)
        assert w.is_identity() and k == 4
        # the identity is a^0, witnessed by the identity
        w, k = twist_reduce(Word.from_letters(F2, []), 2)
        assert w.is_identity() and k == 0

    def test_conjugated_power(self):
        w, k = twist_reduce(parse_word(F2, "b a^2 b^-1"), 1)
        assert str(w) == "b" and k == 3

    def test_unresolved_within_bound(self):
        assert twist_reduce(parse_word(F2, "b"), 1, search_bound=3) is None

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            twist_reduce(parse_word(F2, "b"), 1, search_bound=-3)

    def test_witness_is_sound(self):
        delta_n = power(make_delta(), 2)
        for text in ("a^-2", "b a^3 b^-1", "a b a^-1 b^-1 a b"):
            u = parse_word(F2, text)
            found = twist_reduce(u, 2, search_bound=4)
            if found is None:
                continue
            w, k = found
            assert w.inverse() * u * delta_n.apply(w) == parse_word(F2, "a") ** k


class TestCatalog:
    def test_parse_specs(self):
        fam = parse_family_spec("phi_k:k=3")
        assert fam.params == {"k": 3}
        fam = parse_family_spec("twist:n=2,k=1")
        assert fam.params == {"n": 2, "k": 1}
        fam = parse_family_spec("inner:u=a b,rank=2")
        assert fam.pair.apply(parse_word(F2, "a")) == parse_word(F2, "a b a b^-1 a^-1")

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            parse_family_spec("zeta:k=1")
        with pytest.raises(UnknownFamilyError):
            parse_family_spec("phi_k:k")

    def test_identity_family(self):
        fam = parse_family_spec("identity:rank=4")
        assert abelianize(fam.pair.forward) == IntMatrix.identity(4)


class TestExpectedGraphs:
    @pytest.mark.parametrize(
        "name, k", [("phi_k", k) for k in range(1, 6)] + [("alpha_k", k) for k in range(1, 4)]
    )
    def test_phi_template_matches_build(self, name, k):
        fam = family(name, k=k)
        graph = build_graph(fam.pair, fam.fixed_generators)
        template = expected_graph(name, k=k)
        assert template.mismatches(graph) == []

    @pytest.mark.parametrize("rank, theta", [(6, "trace3"), (7, "trace4")])
    def test_beta_resolves_with_one_loop(self, rank, theta):
        fam = family("beta", rank=rank, theta=theta)
        graph = build_graph(fam.pair, fam.fixed_generators)
        assert "unresolved" not in graph.diagnostics
        loops = [
            (graph.vertices[e.source].text(), tuple(format_word(w) for w in e.labels))
            for e in graph.edges
            if e.is_loop()
        ]
        assert loops == [("b (a^-1)^∞", ("b d^-1",))]

    def test_twist_templates_match_builds(self):
        for n in (1, 2, 3):
            for k in range(-2, n + 3):
                fam = family("twist", n=n, k=k)
                graph = build_graph(fam.pair, fam.fixed_generators, seeds=fam.default_seeds)
                template = expected_graph("twist", n=n, k=k)
                assert template.mismatches(graph) == [], (n, k, template.mismatches(graph))

    def test_twist_templates_negative_power(self):
        for n, k in ((-1, 0), (-2, -1), (-2, -2), (-3, 1)):
            fam = family("twist", n=n, k=k)
            graph = build_graph(fam.pair, fam.fixed_generators, seeds=fam.default_seeds)
            template = expected_graph("twist", n=n, k=k)
            assert template.mismatches(graph) == [], (n, k, template.mismatches(graph))

    def test_inner_template_matches_build(self):
        u = parse_word(F2, "a")
        graph = build_graph(inner(u), [u], seeds=[parse_word(F2, "b"), parse_word(F2, "b^-1")])
        template = expected_graph("inner", u="a")
        assert template.mismatches(graph) == []

    @pytest.mark.parametrize("u", ["a b^4", "a^4 b", "a^3 b", "a^5 b^2"])
    def test_inner_templates_whose_prefixes_end_in_a_run(self, u):
        # certified prefixes of (b^-4 a^-1)^infinity and the like end in
        # min_repeats copies of one letter
        fam = family("inner", u=u)
        graph = build_graph(fam.pair, fam.fixed_generators)
        assert expected_graph("inner", u=u).mismatches(graph) == []
        assert not any(cls.approximate for cls in graph.vertices)

    def test_unknown_template(self):
        with pytest.raises(UnknownFamilyError):
            expected_graph("sigma")


def _rational_nullspace(rows):
    """RREF nullspace of a homogeneous system over the rationals.

    Returns (pivot assignment, free variable indices): each solution is
    determined by values of the free variables; pivot variable i equals
    sum over free j of coeff[i][j] * value[j].
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    n_vars = len(rows[0])
    pivots = {}
    r = 0
    for col in range(n_vars):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
        if r == len(rows):
            break
    free = [j for j in range(n_vars) if j not in pivots]
    coeff = {col: {j: -rows[row][j] for j in free} for col, row in pivots.items()}
    return coeff, free


def _find_conjugation_solution(k, p, k2, p2, bound=2):
    """First integer matrix P with |entries| <= bound, det = +-1 and
    M_k^p P = P M_k2^p2, or None.  The box is screened through the exact
    rational solution space (free variables are matrix entries, so every
    integer solution in the box has its free entries in the box too)."""
    import numpy as np

    a = matrix_power(abelianize(make_phi_k(k).forward), p)
    b = matrix_power(abelianize(make_phi_k(k2).forward), p2)
    n = 4
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for m in range(n):
                row[m * n + j] += a[i, m]
                row[i * n + m] -= b[m, j]
            rows.append(row)
    coeff, free = _rational_nullspace(rows)
    pivot_vars = sorted(coeff)
    dens = []
    int_rows = []
    for var in pivot_vars:
        den = 1
        for j in free:
            den = den * coeff[var][j].denominator // _gcd(den, coeff[var][j].denominator)
        dens.append(den)
        int_rows.append([int(coeff[var][j] * den) for j in free])
    grids = np.meshgrid(*([np.arange(-bound, bound + 1)] * len(free)), indexing="ij")
    values = np.stack(grids, axis=-1).reshape(-1, len(free)).astype(np.int64)
    if pivot_vars:
        pivot_vals = values @ np.array(int_rows, dtype=np.int64).T
        dens_arr = np.array(dens, dtype=np.int64)
        mask = np.all(
            (pivot_vals % dens_arr == 0) & (np.abs(pivot_vals) <= bound * dens_arr),
            axis=1,
        )
        survivors = values[mask]
        survivor_pivots = pivot_vals[mask] // dens_arr
    else:
        survivors = values
        survivor_pivots = np.zeros((len(values), 0), dtype=np.int64)
    from fgdyn.automorphisms import determinant

    for row_values, row_pivots in zip(survivors, survivor_pivots):
        entries = [0] * (n * n)
        for idx, j in enumerate(free):
            entries[j] = int(row_values[idx])
        for idx, var in enumerate(pivot_vars):
            entries[var] = int(row_pivots[idx])
        candidate = IntMatrix([entries[i * n : (i + 1) * n] for i in range(n)])
        if determinant(candidate) not in (1, -1):
            continue
        if matrix_mul(a, candidate) == matrix_mul(candidate, b):
            return candidate
    return None


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestConjugationConstraints:
    def test_powers_separate_parameters(self):
        grid = [(k, p) for k in (1, 2, 3) for p in (1, 2, 3)]
        for (k, p), (k2, p2) in itertools.product(grid, repeat=2):
            solution = _find_conjugation_solution(k, p, k2, p2)
            if (k, p) == (k2, p2):
                assert solution is not None, (k, p, k2, p2)
            else:
                assert solution is None, (k, p, k2, p2)

    def test_matrix_closed_form(self):
        for k in range(11):
            m = abelianize(make_phi_k(k).forward)
            for p in range(11):
                mp = matrix_power(m, p)
                expected = IntMatrix(
                    [
                        [1, p, (k + 1) * p, (k + 1) * p * (p - 1) // 2],
                        [0, 1, 0, 0],
                        [0, 0, 1, p],
                        [0, 0, 0, 1],
                    ]
                )
                assert mp == expected
