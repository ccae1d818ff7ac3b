import hashlib
import itertools
import json
import random
import sys

import pytest

from fgdyn.automorphisms import Endomorphism, identity_pair, inner, verify_pair
from fgdyn.dynamics import (
    DEFAULT_CONFIG,
    IterationConfig,
    PrefixApprox,
    Rational,
    RationalPoint,
    omega_limit,
    prefix_of,
    rational_point,
    translate,
)
from fgdyn.families import family
from fgdyn.graphs import (
    DynamicsGraph,
    Edge,
    GraphTemplate,
    IsoglossyClass,
    build_graph,
    default_seeds,
    emit_dot,
    graph_to_json,
    has_parabolic_loop,
    isogloss,
    verify_fixed_generators,
)
from fgdyn.subgroups import build_core_graph, coset_power_membership, enumerate_elements
from fgdyn.words import Word, common_prefix_length, identity, parse_word, standard_alphabet

F2 = standard_alphabet(2)
F3 = standard_alphabet(3)
F4 = standard_alphabet(4)


def endo(alphabet, *images):
    return Endomorphism(alphabet, [parse_word(alphabet, t) for t in images])


def make_phi(k):
    fwd = endo(F4, "a", "b a", f"c a^{k + 1}", "d c")
    bwd = endo(F4, "a", "b a^-1", f"c a^{-(k + 1)}", f"d a^{k + 1} c^-1")
    return verify_pair(fwd, bwd)


def w4(text):
    return parse_word(F4, text)


def fix_words():
    return [w4("a"), w4("b a b^-1"), w4("c a c^-1")]


def fix_graph():
    return build_core_graph(F4, fix_words())


class TestIsogloss:
    def test_reflexive(self):
        x = rational_point(w4("b"), w4("a"))
        assert isogloss(fix_graph(), x, x)

    def test_distinct_vertices(self):
        a_plus = rational_point(identity(F4), w4("a"))
        b_plus = rational_point(w4("b"), w4("a"))
        assert not isogloss(fix_graph(), a_plus, b_plus)
        # periods of different lengths are never rotations of each other
        assert not isogloss(fix_graph(), a_plus, rational_point(identity(F4), w4("a b")))

    def test_translated_point(self):
        a_plus = rational_point(identity(F4), w4("a"))
        moved = rational_point(w4("b a b^-1"), w4("a"))
        assert isogloss(fix_graph(), moved, a_plus)
        assert isogloss(fix_graph(), a_plus, moved)

    def test_rotation_alignment(self):
        # (ab)^inf vs (ba)^inf differ by the translation a, which lies in <a>
        H = build_core_graph(F2, [parse_word(F2, "a")])
        x = rational_point(identity(F2), parse_word(F2, "a b"))
        y = rational_point(identity(F2), parse_word(F2, "b a"))
        assert isogloss(H, x, y)
        # the translations are exactly a (ba)^k, e.g. b^-1 at k = -1
        Hb = build_core_graph(F2, [parse_word(F2, "b")])
        assert isogloss(Hb, x, y)
        # no translation lies in <a^2>: the odd power a and the mixed words
        Ha2 = build_core_graph(F2, [parse_word(F2, "a^2")])
        assert not isogloss(Ha2, x, y)

    def test_opposite_periods_never_isogloss(self):
        a_plus = rational_point(identity(F4), w4("a"))
        a_minus = rational_point(identity(F4), w4("a^-1"))
        assert not isogloss(fix_graph(), a_plus, a_minus)

    def test_periods_of_one_length_that_are_not_rotations(self):
        x = rational_point(identity(F4), w4("a b"))
        y = rational_point(identity(F4), w4("a b^-1"))
        assert not isogloss(fix_graph(), x, y)

    def test_long_periods_match_the_rotation_loop(self):
        # g = h y-period[i:] head_y^-1 (times a power of y's stabilizer
        # head_y y-period head_y^-1) translates y to a point whose period is
        # a rotation of y's: a hit where g is in H, a miss where H holds g
        # only times another word, and a miss for an unrelated period
        rng = random.Random(26)
        found = {"hit": 0, "rotated_miss": 0, "unrelated": 0}
        for n in [100, 200, 400, 800] * 3 + [3000]:
            y = rational_point(random_reduced(rng, rng.randint(0, 4)), random_cyclic(rng, n))
            h = random_reduced(rng, rng.randint(0, 4))
            g = h * y.period.drop(rng.randrange(1, n)) * y.head.inverse()
            g = g * (y.head * y.period ** rng.randint(-2, 2) * y.head.inverse())
            x = translate(g, y)
            other = random_reduced(rng, rng.randint(2, 6))
            for H, z in (
                (build_core_graph(F3, [g, other]), x),
                (build_core_graph(F3, [g * other, other * other]), x),
                (build_core_graph(F3, [g, other]), rational_point(x.head, random_cyclic(rng, n))),
            ):
                expected = isogloss_by_rotation_loop(H, z, y)
                assert isogloss(H, z, y) == expected, (z, y)
                if z.period != y.period:
                    found["unrelated" if z is not x else "hit" if expected else "rotated_miss"] += 1
        assert min(found.values()) >= 10, found

    def test_equivalence_on_figure_vertices(self):
        H = fix_graph()
        base = [
            rational_point(w4("b"), w4("a")),
            rational_point(w4("b"), w4("a^-1")),
            rational_point(identity(F4), w4("a")),
            rational_point(identity(F4), w4("a^-1")),
            rational_point(w4("c"), w4("a")),
            rational_point(w4("c"), w4("a^-1")),
        ]
        translates = [
            translate(g, x)
            for g, x in itertools.product(
                [w4("a"), w4("b a b^-1"), w4("c a^-1 c^-1"), w4("a^2"), w4("b a^2 b^-1")],
                base[:2],
            )
        ]
        points = base + translates
        rel = {
            (i, j): isogloss(H, x, y)
            for (i, x), (j, y) in itertools.product(enumerate(points), repeat=2)
        }
        for i in range(len(points)):
            assert rel[(i, i)]
        for i, j in itertools.product(range(len(points)), repeat=2):
            assert rel[(i, j)] == rel[(j, i)]
            for k in range(len(points)):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]

    def test_isogloss_points_share_dynamical_type(self):
        from fgdyn.dynamics import Boundary, omega_limit_rational

        phi = make_phi(1)
        H = fix_graph()
        pairs = [
            (rational_point(w4("b"), w4("a^-1")), translate(w4("a"), rational_point(w4("b"), w4("a^-1")))),
            (rational_point(identity(F4), w4("a")), translate(w4("c a c^-1"), rational_point(identity(F4), w4("a")))),
        ]
        for x, y in pairs:
            assert isogloss(H, x, y)
            rx = omega_limit_rational(phi, x)
            ry = omega_limit_rational(phi, y)
            assert isinstance(rx, Boundary) and isinstance(ry, Boundary)
            # both are fixed singular points, certified without iteration
            assert rx.iterations_used == ry.iterations_used == 0

    def test_prefix_approx_comparison(self):
        H = fix_graph()
        phi = make_phi(1)
        from fgdyn.dynamics import omega_limit

        x = omega_limit(phi, w4("d")).point
        y = omega_limit(phi, w4("a d")).point  # a . X+
        z = omega_limit(phi.inverse(), w4("d")).point  # X-
        assert isinstance(x, PrefixApprox) and isinstance(y, PrefixApprox)
        assert isogloss(H, x, y)
        assert not isogloss(H, x, z)

    def test_rational_prefix_length_follows_config(self):
        # a^inf and a^300 b ... agree on 300 letters: enough for the default
        # 200-letter target, not for a 400-letter one
        H = build_core_graph(F2, [])
        x = rational_point(identity(F2), parse_word(F2, "a"))
        y = PrefixApprox(parse_word(F2, "a^300 b^100"), 400)
        assert isogloss(H, x, y)
        assert not isogloss(H, x, y, cfg=IterationConfig(target_prefix=400))


def random_reduced(rng, n):
    letters = []
    while len(letters) < n:
        x = rng.choice((1, -1, 2, -2, 3, -3))
        if not letters or x != -letters[-1]:
            letters.append(x)
    return Word.from_letters(F3, letters)


def random_cyclic(rng, n):
    while True:
        w = random_reduced(rng, n)
        if len(w) == 1 or w.first_letter() != -w.last_letter():
            return w


def isogloss_by_rotation_loop(H, x, y):
    """Reference for rational points: build every rotation of y's period."""
    if len(x.period) != len(y.period):
        return False
    for i in range(len(y.period)):
        tail = y.period.drop(i)
        if tail * y.period.prefix(i) == x.period:
            return coset_power_membership(H, x.head * tail, y.period, y.head.inverse()) is not None
    return False


def isogloss_by_enumeration(elements, x, y, search_bound):
    """Reference for prefix comparisons: try every element of H's ball."""

    def prefix(p):
        p = p.point if isinstance(p, Rational) else p
        if isinstance(p, RationalPoint):
            n = DEFAULT_CONFIG.target_prefix + search_bound + 4
            return prefix_of(p, n), n
        return p.prefix, p.certified_length

    (wx, nx), (wy, ny) = prefix(x), prefix(y)
    floor = max(1, min(nx, ny) - search_bound)
    for h in elements:
        t = h * wy
        overlap = min(len(wx), len(t))
        if overlap >= floor and common_prefix_length(wx, t) == overlap:
            return True
    return False


class TestIsoglossSearch:
    def test_matches_ball_enumeration(self):
        rng = random.Random(4)
        cases = hits = 0
        for _ in range(25):
            gens = [random_reduced(rng, rng.randint(2, 5)) for _ in range(rng.randint(0, 3))]
            H = build_core_graph(F3, gens)
            for bound in range(9):
                elements = enumerate_elements(H, bound)
                base = random_reduced(rng, rng.randint(0, 20))
                period = random_reduced(rng, rng.randint(1, 3))
                ray = rational_point(base, period)

                def prefix_point():
                    kind = rng.random()
                    if kind < 0.2:  # no longer than the bound
                        w = random_reduced(rng, rng.randint(0, bound))
                        return PrefixApprox(w, rng.randint(0, len(w)))
                    start = base if kind < 0.6 else prefix_of(ray, len(base) + rng.randint(0, 40))
                    w = rng.choice(elements) * start * random_reduced(rng, rng.choice((0, 0, 4)))
                    return PrefixApprox(w, rng.randint(max(0, len(w) - 10), len(w)))

                for _ in range(6):
                    x = prefix_point()
                    y = rng.choice([prefix_point(), Rational(ray), translate(rng.choice(elements), ray)])
                    if rng.random() < 0.5:
                        x, y = y, x
                    expected = isogloss_by_enumeration(elements, x, y, bound)
                    assert isogloss(H, x, y, bound) == expected, (gens, bound, x, y)
                    cases += 1
                    hits += expected
        assert hits >= 0.2 * cases, (hits, cases)

    @pytest.mark.parametrize(
        "gens, x, y, bound, expected",
        [
            # h = a cancels a^-1, the next letter b does not extend x = a
            (["a"], "a", "a^-1 b", 1, False),
            (["a"], "a", "a^-1 b", 2, True),  # h = a^2
            # h = a b runs past x = a and cancels b^-1 a^-1
            (["a b"], "a", "b^-1 a^-1 c", 3, False),
            (["a b"], "a", "c", 1, False),  # a b is longer than the bound
            (["a b"], "a", "c", 2, True),
            (["a b"], "a", "b^-1 c", 3, True),  # a b . b^-1 c = a c
        ],
    )
    def test_short_prefix_cases(self, gens, x, y, bound, expected):
        H = build_core_graph(F3, [parse_word(F3, g) for g in gens])
        x, y = (PrefixApprox(parse_word(F3, t), len(parse_word(F3, t))) for t in (x, y))
        assert isogloss_by_enumeration(enumerate_elements(H, bound), x, y, bound) == expected
        assert isogloss(H, x, y, bound) == expected

    def test_negative_bound_rejected(self):
        # and a bound past sys.maxsize, the most letters a prefix can be cut to
        x = rational_point(identity(F4), w4("a"))
        for bound in (-1, sys.maxsize + 1):
            with pytest.raises(ValueError, match="search bound"):
                isogloss(fix_graph(), x, x, search_bound=bound)
            with pytest.raises(ValueError, match="search bound"):
                build_graph(make_phi(1), fix_words(), search_bound=bound)
        assert isogloss(fix_graph(), x, x, search_bound=sys.maxsize)  # rational: decided exactly


class TestVerifyFixedGenerators:
    def test_phi_fixed_set(self):
        assert verify_fixed_generators(make_phi(1), fix_words())
        assert verify_fixed_generators(make_phi(4), fix_words())

    def test_twist_fixed_set(self):
        delta = verify_pair(endo(F2, "a", "b a"), endo(F2, "a", "b a^-1"))
        assert verify_fixed_generators(delta, [parse_word(F2, "a"), parse_word(F2, "b a b^-1")])

    def test_rejects_moving_generator(self):
        assert not verify_fixed_generators(make_phi(1), [w4("b")])


class TestBuildGraph:
    def test_default_seed_set(self):
        seeds = default_seeds(F2)
        assert len(seeds) == 4 + 4 * 3
        assert len(set(seeds)) == len(seeds)
        assert all(len(s) <= 2 for s in seeds)

    def test_figure_shape_for_phi1(self):
        graph = build_graph(make_phi(1), fix_words())
        assert len(graph.vertices) == 8
        assert len(graph.edges) == 7
        assert graph.n_components() == 3
        loops = [e for e in graph.edges if e.is_loop()]
        assert len(loops) == 1
        loop_vertex = graph.vertices[loops[0].source]
        assert isinstance(loop_vertex.representative, Rational)
        assert loop_vertex.representative.point == rational_point(w4("b"), w4("a^-1"))
        assert w4("b d^-1") in loops[0].labels
        assert graph.completeness == "sample-based under-approximation"

    def test_documented_seed_subset(self):
        seeds = [w4(t) for t in ("b", "b^-1", "c", "c^-1", "d", "d^-1", "b c^-1", "b d^-1")]
        graph = build_graph(make_phi(1), fix_words(), seeds=seeds)
        assert len(graph.vertices) == 8
        assert len(graph.edges) == 7
        assert graph.n_components() == 3

    def test_north_south_graph(self):
        pair = inner(parse_word(F2, "a"))
        graph = build_graph(pair, [parse_word(F2, "a")], seeds=[parse_word(F2, "b"), parse_word(F2, "b^-1")])
        assert len(graph.vertices) == 2
        assert len(graph.edges) == 1
        edge = graph.edges[0]
        assert graph.vertices[edge.source].representative.point == rational_point(
            identity(F2), parse_word(F2, "a^-1")
        )
        assert graph.vertices[edge.target].representative.point == rational_point(
            identity(F2), parse_word(F2, "a")
        )

    def test_identity_graph_is_empty(self):
        graph = build_graph(identity_pair(F4), [w4("a"), w4("b"), w4("c"), w4("d")])
        assert graph.edges == []
        assert graph.vertices == []
        assert len(graph.diagnostics["fixed_seeds"]) == len(default_seeds(F4))

    def test_seed_whose_limits_do_not_certify_is_unresolved(self):
        cfg = IterationConfig(max_iterations=10)
        phi, b = make_phi(1), w4("b")
        graph = build_graph(phi, fix_words(), seeds=[b], cfg=cfg)
        assert graph.vertices == [] and graph.edges == []
        assert graph.diagnostics["unresolved"] == [
            {
                "seed": "b",
                "forward": omega_limit(phi, b, cfg).to_json(),
                "backward": omega_limit(phi.inverse(), b, cfg).to_json(),
            }
        ]
        assert graph.diagnostics["unresolved"][0]["forward"]["kind"] == "not-converged"
        assert graph.diagnostics["unresolved"][0]["backward"]["kind"] == "not-converged"

    def test_bad_fixed_generator_aborts(self):
        with pytest.raises(ValueError):
            build_graph(make_phi(1), [w4("b")])

    def test_vertex_count_invariant_under_fixed_translation(self):
        phi = make_phi(1)
        seeds = [w4(t) for t in ("b", "b^-1", "c", "c^-1", "d", "d^-1", "b c^-1", "b d^-1")]
        reference = build_graph(phi, fix_words(), seeds=seeds)
        for u in fix_words():
            moved = [u * s for s in seeds]
            graph = build_graph(phi, fix_words(), seeds=moved)
            assert len(graph.vertices) == len(reference.vertices)

    def test_soundness_of_edges(self):
        from fgdyn.dynamics import omega_limit

        phi = make_phi(1)
        H = fix_graph()
        seeds = [w4(t) for t in ("b", "d", "b d^-1")]
        graph = build_graph(phi, fix_words(), seeds=seeds)
        for edge in graph.edges:
            for label in edge.labels:
                fwd = omega_limit(phi, label)
                bwd = omega_limit(phi.inverse(), label)
                assert isogloss(H, graph.vertices[edge.target].representative, fwd.point)
                assert isogloss(H, graph.vertices[edge.source].representative, bwd.point)


class TestLoopsAndOutputs:
    def test_parabolic_loop_found(self):
        graph = build_graph(make_phi(1), fix_words())
        found = has_parabolic_loop(graph)
        assert found is not None
        vertex, labels = found
        assert vertex.representative.point == rational_point(w4("b"), w4("a^-1"))
        assert w4("b d^-1") in labels

    def test_beta_graph_resolves_every_seed(self):
        # the mixed seeds (a letter of b-d, then one of e-f) outgrow the
        # word budget long before their prefix b a^p certifies; held
        # prefixes certify them, so every seed resolves
        fam = family("beta", rank=6)
        graph = build_graph(fam.pair, fam.fixed_generators)
        assert graph.diagnostics["seeds"] == 144
        assert "unresolved" not in graph.diagnostics
        vertex, labels = has_parabolic_loop(graph)
        alphabet = fam.pair.alphabet
        assert vertex.representative.point == rational_point(
            parse_word(alphabet, "b"), parse_word(alphabet, "a^-1")
        )
        assert parse_word(alphabet, "b d^-1") in labels

    @pytest.mark.parametrize(
        "rank, theta, json_sha, dot_sha",
        [
            (6, "trace3", "2032500ff2c64dfec14bed4bd90eb284727b3d280cecad5b60aeb6cce39d3622",
             "e9dc37a227dac5057f416def1f95b805e5da67442f93420ff631ddbf8399e909"),
            (6, "trace4", "0da9fcb3e21d9aae2150a5a90071c939ee24ae3e6d0e3f0ec37cc1e2161d6d72",
             "ccbb8950f597df42605cbc4d2bc73d7a3d81992a79c95cf82f4f5c3b664b1fc6"),
            (7, "trace3", "4e1729eabea6ca3367cdfcd22dd4401f31992f0e4dc0324130e03455237a6ed4",
             "aa1836582c37a0fca9b49520c7e165190098028176afa7d9b8540501a5af83eb"),
            (7, "trace4", "e4621bb4167f10394aedf10d0ba96e44fd34df3a01ac89f1e3abd3f2ac75a5ab",
             "ad4c366f0e8324a808a9b98765310045e0515eb8475bd26d86a4fc20f84ce67b"),
        ],
        ids=["6-trace3", "6-trace4", "7-trace3", "7-trace4"],
    )
    def test_beta_graph_outputs_are_pinned(self, rank, theta, json_sha, dot_sha):
        # the SHA-256 of what `fgdyn graph beta:rank=...,theta=...` prints as
        # JSON and of its DOT, with the letter-level rational points; H holds
        # theta's fixed commutator on e-f, so each graph has 12 vertices, 11
        # edges, 4 components and 6 approximate classes
        fam = family("beta", rank=rank, theta=theta)
        graph = build_graph(fam.pair, fam.fixed_generators)
        js = graph_to_json(graph)
        counts = (len(js["vertices"]), len(js["edges"]), js["components"], sum(v["approximate"] for v in js["vertices"]))
        assert counts == (12, 11, 4, 6)
        text = json.dumps(js, indent=2, ensure_ascii=False) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == json_sha
        assert hashlib.sha256(emit_dot(graph).encode()).hexdigest() == dot_sha

    def test_no_loop_in_north_south(self):
        pair = inner(parse_word(F2, "a"))
        graph = build_graph(pair, [parse_word(F2, "a")], seeds=[parse_word(F2, "b"), parse_word(F2, "b^-1")])
        assert has_parabolic_loop(graph) is None

    def test_empty_graph(self):
        graph = build_graph(identity_pair(F2), [parse_word(F2, "a"), parse_word(F2, "b")], seeds=[])
        assert has_parabolic_loop(graph) is None

    def test_dot_deterministic(self):
        graph1 = build_graph(make_phi(1), fix_words())
        graph2 = build_graph(make_phi(1), fix_words())
        assert emit_dot(graph1) == emit_dot(graph2)

    def test_dot_structure(self):
        dot = emit_dot(build_graph(make_phi(1), fix_words()))
        assert dot.startswith("digraph dynamics {")
        assert dot.count(" -> ") == 7
        assert '"b (a^-1)^∞" -> "b (a^-1)^∞"' in dot
        assert "b d^-1" in dot

    def test_dot_keeps_classes_with_equal_text_apart(self):
        # both prefixes start with the same 12 letters, so both texts are "a^12 …"
        first = PrefixApprox(w4("a^12 b"), 13)
        second = PrefixApprox(w4("a^12 c"), 13)
        assert first.text() == second.text() == "a^12 …"
        graph = DynamicsGraph(
            F4,
            [IsoglossyClass(first, [first]), IsoglossyClass(second, [second])],
            [Edge(0, 1, (w4("d"),))],
        )
        lines = emit_dot(graph).splitlines()
        assert '  "a^12 … #0" [style=dashed];' in lines
        assert '  "a^12 … #1" [style=dashed];' in lines
        assert '  "a^12 … #0" -> "a^12 … #1" [label="d"];' in lines

    def test_json_dump(self):
        graph = build_graph(make_phi(1), fix_words())
        js = graph_to_json(graph)
        assert len(js["vertices"]) == 8
        assert len(js["edges"]) == 7
        assert js["components"] == 3
        assert js["completeness"] == "sample-based under-approximation"
        approx = [v for v in js["vertices"] if v["point"]["type"] == "prefix"]
        assert len(approx) == 2  # the two irrational classes

    def test_vertex_point_matches_limit_json(self):
        phi = make_phi(1)
        graph = build_graph(phi, fix_words(), seeds=[w4("b d^-1"), w4("d")])
        js = graph_to_json(graph)
        limits = [omega_limit(phi, w4("b d^-1")), omega_limit(phi, w4("d"))]
        assert [type(limit.point) for limit in limits] == [Rational, PrefixApprox]
        reps = [cls.representative for cls in graph.vertices]
        for limit in limits:
            vertex = js["vertices"][reps.index(limit.point)]
            assert vertex["point"] == limit.to_json()["point"]


class TestTemplates:
    def test_matching(self):
        graph = build_graph(make_phi(1), fix_words())
        template = GraphTemplate(
            n_vertices=8,
            n_edges=7,
            n_components=3,
            loops=(("b (a^-1)^∞", "b d^-1"),),
        )
        assert template.matches(graph)

    def test_mismatch_reporting(self):
        graph = build_graph(make_phi(1), fix_words())
        template = GraphTemplate(n_vertices=2, n_edges=1, n_components=1)
        problems = template.mismatches(graph)
        assert problems and any("vertices" in p for p in problems)
