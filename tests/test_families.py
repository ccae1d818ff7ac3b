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

    def test_catalog_lists_the_fixed_tail(self):
        six = family("beta", rank=6)
        assert [str(w) for w in six.fixed_generators] == ["a", "b a b^-1", "c a c^-1"]
        for rank in (7, 8):
            fam = family("beta", rank=rank)
            assert verify_fixed_generators(fam.pair, fam.fixed_generators)
            H = build_core_graph(fam.pair.alphabet, list(fam.fixed_generators))
            for g in range(7, rank + 1):
                assert contains(H, Word.from_letters(fam.pair.alphabet, [g])), (rank, g)


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
