import itertools
import random
from collections import Counter

import pytest

from fgdyn import subgroups
from fgdyn.families import family
from fgdyn.graphs import build_graph
from fgdyn.subgroups import (
    StallingsGraph,
    build_core_graph,
    contains,
    core_graph_dot,
    coset_power_membership,
    enumerate_elements,
    product_oracle,
)
from fgdyn.words import AlphabetMismatchError, Word, identity, invert, parse_word, standard_alphabet

F2 = standard_alphabet(2)
F3 = standard_alphabet(3)
F4 = standard_alphabet(4)


def words(alphabet, *texts):
    return [parse_word(alphabet, t) for t in texts]


def fix_phi_graph():
    return build_core_graph(F4, words(F4, "a", "b a b^-1", "c a c^-1"))


def random_reduced(rng, n, alphabet=F3):
    letters = []
    while len(letters) < n:
        x = rng.choice(alphabet.signed_letters)
        if not letters or x != -letters[-1]:
            letters.append(x)
    return Word.from_letters(alphabet, letters)


def random_cyclic(rng, n, alphabet=F3):
    while True:
        w = random_reduced(rng, n, alphabet)
        if len(w) == 1 or w.first_letter() != -w.last_letter():
            return w


def fold_by_rescan(alphabet, generators):
    """Reference fold: sets of targets folded until deterministic, then a
    trim that rescans every transition per removed state and a numbering
    that scans every transition per state.  O(V*E), so small inputs only."""
    adjacency = [dict()]
    parent = [0]

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    def add_state():
        adjacency.append(dict())
        parent.append(len(parent))
        return len(parent) - 1

    for gen in generators:
        if gen.is_identity():
            continue
        prev = 0
        letters = list(gen.letters())
        for i, letter in enumerate(letters):
            nxt = 0 if i == len(letters) - 1 else add_state()
            adjacency[prev].setdefault(letter, set()).add(nxt)
            adjacency[nxt].setdefault(-letter, set()).add(prev)
            prev = nxt

    work = list(range(len(parent)))
    while work:
        s = find(work.pop())
        for letter, targets in list(adjacency[s].items()):
            canon = {find(t) for t in targets}
            if len(canon) > 1:
                keep, *drops = sorted(canon)
                for drop in drops:
                    parent[drop] = keep
                    for lt, ts in adjacency[drop].items():
                        adjacency[keep].setdefault(lt, set()).update(ts)
                    adjacency[drop] = dict()
                    work.append(keep)
                work.append(s)
                break

    trans = {}
    for s in sorted({find(s) for s in range(len(parent))}):
        for letter, targets in adjacency[s].items():
            (t,) = {find(t) for t in targets}
            trans[(s, letter)] = t

    base = find(0)
    changed = True
    while changed:
        changed = False
        degrees = Counter(s for (s, _letter) in trans)
        for s in list(degrees):
            if s != base and degrees[s] <= 1:
                for key in [k for k in trans if k[0] == s or trans[k] == s]:
                    del trans[key]
                changed = True

    order = {base: 0}
    queue = [base]
    for s in queue:
        out = sorted((lt for (st, lt) in trans if st == s), key=lambda x: (abs(x), x < 0))
        for letter in out:
            if trans[(s, letter)] not in order:
                order[trans[(s, letter)]] = len(order)
                queue.append(trans[(s, letter)])
    renumbered = {(order[s], x): order[t] for (s, x), t in trans.items() if s in order}
    return StallingsGraph(alphabet, len(order), renumbered)


def random_generator_sets(seed, count):
    """Generator sets over F2, F3 and F4 that mix random words with an
    identity generator, a redundant product of two generators, and a
    conjugate of a power ``x u^m x^-1`` of one of them."""
    rng = random.Random(seed)
    for i in range(count):
        alphabet = (F2, F3, F4)[i % 3]
        gens = [random_reduced(rng, rng.randint(1, 6), alphabet) for _ in range(rng.randint(0, 3))]
        if gens:
            u = rng.choice(gens)
            x = random_reduced(rng, rng.randint(0, 3), alphabet)
            gens.append(x * u ** rng.randint(-3, 3) * x.inverse())
            if i % 2:
                gens.append(rng.choice(gens) * rng.choice(gens) ** rng.choice((1, -1)))
        if i % 4 == 0:
            gens.append(identity(alphabet))
        rng.shuffle(gens)
        yield alphabet, gens


def coset_power_by_words(graph, p, c, q):
    """Reference: build ``[p c^k q]`` for every |k| up to a complete bound."""
    bound = (len(p) + len(q)) // len(c) + 2 * graph.n_states + 4
    for j in range(bound + 1):
        for k in ((j,) if j == 0 else (j, -j)):
            if contains(graph, p * c**k * q):
                return k
    return None


class TestBuildCoreGraph:
    def test_two_generator_fold(self):
        graph = build_core_graph(F4, words(F4, "a", "b a b^-1"))
        assert graph.n_states == 2
        # loop a at base, edge b to the other state, loop a there
        assert graph.step(0, 1) == 0
        assert graph.step(0, 2) == 1
        assert graph.step(1, 1) == 1

    def test_trivial_subgroup(self):
        graph = build_core_graph(F4, [])
        assert graph.n_states == 1
        assert graph.transitions == {}

    def test_three_state_fixed_subgroup(self):
        graph = fix_phi_graph()
        assert graph.n_states == 3
        assert graph.step(0, 1) == 0

    def test_identity_generator_skipped(self):
        assert build_core_graph(F4, [identity(F4)]) == build_core_graph(F4, [])

    def test_order_independence(self):
        gens = words(F4, "a", "b a b^-1", "c a c^-1", "d b^2 d^-1")
        graphs = [build_core_graph(F4, list(perm)) for perm in itertools.permutations(gens)]
        # the fold orders differ, so the rows do; the graphs are one
        assert len({repr([sorted(row.items()) for row in g.rows]) for g in graphs}) > 1
        assert all(g == graphs[0] and hash(g) == hash(graphs[0]) for g in graphs)
        assert len(set(graphs)) == 1

    def test_matches_fold_by_rescan(self):
        for alphabet, gens in random_generator_sets(5, 2400):
            assert build_core_graph(alphabet, gens) == fold_by_rescan(alphabet, gens), gens

    def test_folded_graph_invariants(self):
        for alphabet, gens in random_generator_sets(6, 600):
            graph = build_core_graph(alphabet, gens)
            trans = graph.transitions
            assert all(trans.get((t, -x)) == s for (s, x), t in trans.items())
            degree = Counter(s for s, _x in trans)
            assert all(degree[s] >= 2 for s in range(1, graph.n_states))
            # states are numbered in breadth-first discovery order over 1, -1, 2, -2, ...
            discovered = [0]
            for s in discovered:
                for x in alphabet.signed_letters:
                    t = trans.get((s, x))
                    if t is not None and t not in discovered:
                        discovered.append(t)
            assert discovered == list(range(graph.n_states))
            assert {s for s, _x in trans} <= set(discovered)
            assert all(graph.read(g) == 0 for g in gens)

    def test_redundant_generators_collapse(self):
        # <ab, a> = <a, b>
        graph = build_core_graph(F2, words(F2, "a b", "a"))
        assert graph == build_core_graph(F2, words(F2, "a", "b"))
        assert graph.n_states == 1


class TestTwoEndedInsertion:
    """Folding lays each generator only where the graph does not already
    spell it; every graph must be the one of folding the whole wedge."""

    def test_shared_prefix_conjugates(self):
        # the benchmark's shape: conjugates x u^m x^-1 whose x extend a few
        # shared prefixes, beside random words
        rng = random.Random(17)
        for _ in range(400):
            alphabet = rng.choice((F2, F3, F4))
            prefixes = [random_reduced(rng, rng.randint(0, 4), alphabet) for _ in range(rng.randint(1, 3))]
            gens = []
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.3:
                    gens.append(random_reduced(rng, rng.randint(1, 8), alphabet))
                    continue
                x = rng.choice(prefixes) * random_reduced(rng, rng.randint(0, 3), alphabet)
                u = random_cyclic(rng, rng.randint(1, 5), alphabet)
                gens.append(x * u ** rng.choice((1, 1, 2, 3, -1)) * x.inverse())
            assert build_core_graph(alphabet, gens) == fold_by_rescan(alphabet, gens), gens

    def test_generator_already_spelled(self):
        # a b reads forward from the base to the end of b: the reads meet
        # at the end of the generator, which merges with the base
        gens = words(F3, "a b c", "a b")
        graph = build_core_graph(F3, gens)
        assert graph == fold_by_rescan(F3, gens) == build_core_graph(F3, words(F3, "a b", "c"))
        assert graph.n_states == 2
        # a c^-1 reads forward to the end of a and back to the end of c:
        # the reads meet in the middle, whose two states merge
        gens = words(F3, "a b a^-1", "c b c^-1", "a c^-1")
        graph = build_core_graph(F3, gens)
        assert graph == fold_by_rescan(F3, gens)
        assert graph.n_states == 2
        assert graph.read(parse_word(F3, "a")) == graph.read(parse_word(F3, "c"))
        # a b^2 a^-1 reads as a loop already: nothing is laid or merged
        gens = words(F3, "a b a^-1", "a b^2 a^-1")
        assert build_core_graph(F3, gens) == build_core_graph(F3, gens[:1])

    def test_conjugator_partly_spelled(self):
        # x = a b c is spelled up to c, and x^-1 read back from the base
        # stops at the same state: the middle c d c^-1 is laid as a path
        # from that state to itself, whose two c-edges clash
        gens = words(F4, "a b d", "a b c d c^-1 b^-1 a^-1")
        graph = build_core_graph(F4, gens)
        assert graph == fold_by_rescan(F4, gens)
        assert graph.n_states == 4
        assert graph.read(parse_word(F4, "a b c d^5 c^-1")) == graph.read(parse_word(F4, "a b"))
        # the same with the conjugate laid first
        assert build_core_graph(F4, gens[::-1]) == graph


def merge_heavy_sets(seed, count):
    """Small generator sets that fold with many merges: conjugates and
    powers over a few shared prefixes, generators already spelled, and
    products of the generators before them."""
    rng = random.Random(seed)
    for _ in range(count):
        alphabet = rng.choice((F2, F3, F4))
        prefixes = [random_reduced(rng, rng.randint(0, 4), alphabet) for _ in range(2)]
        gens = []
        for _ in range(rng.randint(2, 7)):
            r = rng.random()
            if r < 0.2 and gens:
                gens.append(rng.choice(gens) * rng.choice(gens) ** rng.choice((1, -1)))
            elif r < 0.35:
                gens.append(rng.choice(prefixes) * random_reduced(rng, rng.randint(0, 2), alphabet))
            else:
                x = rng.choice(prefixes) * random_reduced(rng, rng.randint(0, 2), alphabet)
                u = random_cyclic(rng, rng.randint(1, 4), alphabet)
                gens.append(x * u ** rng.choice((1, 2, 3, -1, -2)) * x.inverse())
        yield alphabet, gens


def assert_fold_order_rows(graph):
    """The rows the fold leaves: every target is a state, and every edge
    has its inverse."""
    rows = graph.rows
    assert all(0 <= t < len(rows) and rows[t].get(-x) == s for s, row in enumerate(rows) for x, t in row.items())


class TestCompaction:
    """The fold keeps its own rows, compacted in place; the canonical
    numbering is the graph's, computed only when it is compared, hashed or
    printed."""

    def test_base_merged_with_a_larger_map(self):
        # a b c lays states 1 (after a) and 2; a d a^-1 reads a forward and
        # back and lays a d-loop at 1, which then has four edges to the
        # base's two; a is spelled whole, so its end, state 1, merges with
        # the base, which must stay the root
        gens = words(F4, "a b c", "a d a^-1", "a")
        graph = build_core_graph(F4, gens)
        assert graph == fold_by_rescan(F4, gens)
        assert graph.n_states == 2
        assert_fold_order_rows(graph)
        assert all(contains(graph, g) for g in words(F4, "a", "d", "b c", "a d^5 b c"))
        assert not contains(graph, parse_word(F4, "b"))

    def test_last_state_moved_with_a_loop(self):
        # b a b^-1 lays states 1 and 2 and c a c^-1 states 3 and 4; the
        # merges fold 4 into 3, which gets an a-loop, and 2 into 1, so the
        # last state, 3, moves with its loop into the hole at 2
        gens = words(F3, "b a b^-1", "c a c^-1")
        graph = build_core_graph(F3, gens)
        assert graph.rows == [{2: 1, 3: 2}, {-2: 0, 1: 1, -1: 1}, {-3: 0, 1: 2, -1: 2}]
        assert graph == fold_by_rescan(F3, gens)
        assert_fold_order_rows(graph)
        c = graph.read(parse_word(F3, "c"))
        assert graph.read(parse_word(F3, "c a^7"), 0) == graph.read(parse_word(F3, "a^-3"), c) == c

    def test_merge_heavy_sets_match_fold_by_rescan(self):
        folded = 0  # edges of the wedges that folding removed
        for alphabet, gens in merge_heavy_sets(23, 1000):
            graph = build_core_graph(alphabet, gens)
            reference = fold_by_rescan(alphabet, gens)
            rank = {x: i for i, x in enumerate(alphabet.signed_letters)}
            trans = graph.transitions
            assert list(trans.items()) == list(reference.transitions.items()), gens
            assert list(trans) == sorted(trans, key=lambda k: (k[0], rank[k[1]]))
            assert core_graph_dot(graph) == core_graph_dot(reference)
            assert hash(graph) == hash(reference)
            assert graph.n_states == reference.n_states
            assert_fold_order_rows(graph)
            folded += sum(len(g) for g in gens) - sum(map(len, graph.rows)) // 2
        assert folded > 15000

    def test_membership_never_numbers(self, monkeypatch):
        numbered = []
        original = subgroups._breadth_first

        def counting(rows, letters):
            numbered.append(rows)
            return original(rows, letters)

        monkeypatch.setattr(subgroups, "_breadth_first", counting)
        graph = fix_phi_graph()
        assert graph.n_states == 3
        assert contains(graph, parse_word(F4, "b a^3 b^-1"))
        assert graph.read(parse_word(F4, "c a")) == graph.step(0, 3)
        assert coset_power_membership(graph, parse_word(F4, "b"), parse_word(F4, "a"), parse_word(F4, "b^-1")) == 0
        assert len(enumerate_elements(graph, 3)) > 1
        # isogloss reads H by steps only
        phi = family("phi_k", k=1).pair
        seeds = words(F4, "b", "b^-1", "c", "c^-1", "b c^-1", "b d^-1")
        assert len(build_graph(phi, words(F4, "a", "b a b^-1", "c a c^-1"), seeds=seeds).edges) > 1
        assert numbered == []
        # comparing, hashing and printing number each graph once
        other = fix_phi_graph()
        for _ in range(3):
            assert graph == other
            assert hash(graph) == hash(other)
            assert graph.transitions == other.transitions
            assert core_graph_dot(graph) == core_graph_dot(other)
        assert len(numbered) == 2


class TestRows:
    def test_transitions_round_trip(self):
        for alphabet, gens in random_generator_sets(7, 300):
            graph = build_core_graph(alphabet, gens)
            copy = StallingsGraph(alphabet, graph.n_states, graph.transitions)
            assert copy == graph
            assert hash(copy) == hash(graph)
            assert copy.transitions == graph.transitions

    def test_read_long_runs(self):
        loop = build_core_graph(F2, words(F2, "a"))
        assert loop.read(parse_word(F2, "a^1000")) == 0
        assert loop.read(parse_word(F2, "a^-1000 b")) is None
        conjugate = build_core_graph(F2, words(F2, "b a^3 b^-1"))
        assert conjugate.read(parse_word(F2, "b a^999 b^-1")) == 0
        assert conjugate.read(parse_word(F2, "b a^1000 b^-1")) is None
        b = conjugate.read(parse_word(F2, "b"))
        assert conjugate.read(parse_word(F2, "a^-1000"), b) == conjugate.read(parse_word(F2, "a^2"), b)

    def test_read_dies_mid_run(self):
        path = build_core_graph(F2, words(F2, "a^5 b"))
        assert path.n_states == 6
        end = path.read(parse_word(F2, "a^5"))
        assert end not in (None, 0)
        assert path.read(parse_word(F2, "b^-1")) == end
        assert path.read(parse_word(F2, "a^7")) is None
        assert path.read(parse_word(F2, "a^3 b")) is None
        assert path.read(parse_word(F2, "b^-1 a^-5")) == 0
        assert path.read(parse_word(F2, "a^-1")) is None


class TestContains:
    def test_product_of_fixed_generators(self):
        assert contains(fix_phi_graph(), parse_word(F4, "b a^3 b^-1 a^-1"))

    def test_identity_always_member(self):
        assert contains(fix_phi_graph(), identity(F4))
        assert contains(build_core_graph(F4, []), identity(F4))

    def test_missing_letter(self):
        assert not contains(fix_phi_graph(), parse_word(F4, "d"))

    def test_off_graph_path(self):
        assert not contains(fix_phi_graph(), parse_word(F4, "c b^-1"))

    def test_closure_under_product_and_inverse(self):
        graph = fix_phi_graph()
        members = words(F4, "a^2", "b a b^-1", "c a^-2 c^-1 a")
        for g, h in itertools.product(members, repeat=2):
            assert contains(graph, g * h)
        for g in members:
            assert contains(graph, invert(g))

    def test_oracle_agreement_random_generators(self):
        rng = random.Random(31337)
        for _ in range(25):
            n_gens = rng.randint(1, 3)
            gens = []
            for _ in range(n_gens):
                letters = []
                for _ in range(rng.randint(1, 4)):
                    options = [x for x in (1, -1, 2, -2, 3, -3) if not letters or x != -letters[-1]]
                    letters.append(rng.choice(options))
                gens.append(Word.from_letters(F3, letters))
            graph = build_core_graph(F3, gens)
            for w in product_oracle(F3, gens, 6):
                assert contains(graph, w)


class TestEnumerateElements:
    def test_cyclic_subgroup(self):
        graph = build_core_graph(F2, words(F2, "a"))
        got = {str(w) for w in enumerate_elements(graph, 2)}
        assert got == {"", "a", "a^-1", "a^2", "a^-2"}

    def test_trivial_subgroup(self):
        graph = build_core_graph(F2, [])
        assert [str(w) for w in enumerate_elements(graph, 5)] == [""]

    def test_twist_fixed_subgroup(self):
        graph = build_core_graph(F2, words(F2, "a", "b a b^-1"))
        got = {str(w) for w in enumerate_elements(graph, 3)}
        assert "b a b^-1" in got

    def test_all_enumerated_are_members(self):
        graph = fix_phi_graph()
        elements = enumerate_elements(graph, 5)
        assert len(elements) == len(set(elements))
        for w in elements:
            assert contains(graph, w)
            assert len(w) <= 5


class TestCosetPowerMembership:
    def test_head_tail_cancellation(self):
        graph = build_core_graph(F2, words(F2, "a"))
        k = coset_power_membership(graph, identity(F2), parse_word(F2, "a"), parse_word(F2, "a^-3"))
        # membership holds for every k; smallest absolute value wins
        assert k == 0

    def test_conjugate_never_member(self):
        # [b a^k b^-1] enters <a> only for k = 0, where it reduces to the identity
        graph = build_core_graph(F2, words(F2, "a"))
        k = coset_power_membership(graph, parse_word(F2, "b"), parse_word(F2, "a"), parse_word(F2, "b^-1"))
        assert k == 0

    def test_no_solution(self):
        graph = build_core_graph(F2, words(F2, "a"))
        k = coset_power_membership(graph, parse_word(F2, "b"), parse_word(F2, "a"), identity(F2))
        assert k is None

    def test_always_member_returns_zero(self):
        graph = fix_phi_graph()
        k = coset_power_membership(graph, parse_word(F4, "b"), parse_word(F4, "a^-1"), parse_word(F4, "b^-1"))
        assert k == 0

    def test_specific_power_needed(self):
        # [b a^(k-1) b^-1] is in <b a^3 b^-1> iff k = 1 mod 3
        graph = build_core_graph(F4, words(F4, "b a^3 b^-1"))
        k = coset_power_membership(graph, parse_word(F4, "b"), parse_word(F4, "a"), parse_word(F4, "a^-1 b^-1"))
        assert k == 1

    def test_negative_power(self):
        # [b a^(k-2) b^-1] is in <b a^3 b^-1> iff k = 2 mod 3; -1 beats 2
        graph = build_core_graph(F4, words(F4, "b a^3 b^-1"))
        k = coset_power_membership(graph, parse_word(F4, "b"), parse_word(F4, "a"), parse_word(F4, "a^-2 b^-1"))
        assert k == -1

    def test_positive_preferred_on_tie(self):
        # [b a^(k+1) b^-1] is in <b a^2 b^-1> iff k is odd; +1 ties with -1
        graph = build_core_graph(F4, words(F4, "b a^2 b^-1"))
        k = coset_power_membership(graph, parse_word(F4, "b a"), parse_word(F4, "a"), parse_word(F4, "b^-1"))
        assert k == 1

    def test_self_consistency(self):
        rng = random.Random(99)
        graph = fix_phi_graph()
        atoms = words(F4, "a", "b", "c", "a^-1", "b^-1", "c^-1")
        for _ in range(40):
            p = rng.choice(atoms) * rng.choice(atoms)
            q = rng.choice(atoms)
            c = rng.choice(words(F4, "a", "a^-1", "a b"))
            k = coset_power_membership(graph, p, c, q)
            if k is not None:
                assert contains(graph, p * c**k * q)

    def test_matches_word_building_reference(self):
        rng = random.Random(2024)
        found = {"hit": 0, "miss": 0, "beyond_depth": 0}
        for _ in range(150):
            c = random_cyclic(rng, rng.randint(1, 3))
            x = random_reduced(rng, rng.randint(0, 3))
            z = random_reduced(rng, rng.randint(1, 2))
            m = rng.randint(3, 12)
            gens = [random_reduced(rng, rng.randint(2, 7)) for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.8:
                # x c^k z is in <x c^m x^-1, x c^j z> for k = j mod m
                gens += [x * c**m * x.inverse(), x * c ** rng.randint(0, m) * z]
            graph = build_core_graph(F3, gens)
            for _ in range(4):
                p = x * random_reduced(rng, rng.choice((0, 0, 1, 2)))
                q = z if rng.random() < 0.5 else random_reduced(rng, rng.randint(0, 3))
                k = coset_power_membership(graph, p, c, q)
                assert k == coset_power_by_words(graph, p, c, q), (gens, p, c, q)
                found["miss" if k is None else "hit"] += 1
                depth = len(p) // len(c) + len(q) // len(c) + 2
                found["beyond_depth"] += k is not None and abs(k) >= depth
        assert min(found.values()) >= 20, found

    def test_orbit_on_large_graph(self):
        # x a^k d is in <x a^1500 x^-1, x a^750 d> iff k = 750 mod 1500, so
        # +750 ties with -750; no x a^k d^-1 is, so that miss steps the
        # a-orbit all the way round
        x = parse_word(F4, "c b")
        graph = build_core_graph(
            F4, [x * parse_word(F4, "a^1500") * x.inverse(), x * parse_word(F4, "a^750 d")]
        )
        assert graph.n_states >= 1500
        a = parse_word(F4, "a")
        assert coset_power_membership(graph, x, a, parse_word(F4, "d")) == 750
        assert coset_power_membership(graph, x, a, parse_word(F4, "d^-1")) is None

    def test_deep_cancellation_matches_word_building_reference(self):
        # p = x c^±d r and q = c^±e z cancel up to 15 periods into the power
        # block; without the loop x c^m x^-1 the c-path of x c^j z is open,
        # so the walk from p leaves the core and reads its way back
        rng = random.Random(2026)
        found = {"hit": 0, "miss": 0, "back_to_core": 0}
        for _ in range(200):
            c = random_cyclic(rng, rng.randint(1, 3))
            x = random_reduced(rng, rng.randint(0, 3))
            z = random_reduced(rng, rng.randint(1, 2))
            m, j = rng.randint(2, 9), rng.randint(0, 9)
            gens = [x * c**j * z]
            gens += [random_reduced(rng, rng.randint(2, 6)) for _ in range(rng.randint(0, 1))]
            if rng.random() < 0.5:
                gens.append(x * c**m * x.inverse())
            graph = build_core_graph(F3, gens)
            for _ in range(3):
                r = random_reduced(rng, rng.choice((0, 0, 1)))
                p = x * c ** (rng.choice((1, -1)) * rng.randint(0, 15)) * r
                z_or_other = z if rng.random() < 0.7 else random_reduced(rng, 2)
                q = c ** (rng.choice((1, -1)) * rng.randint(0, 15)) * z_or_other
                k = coset_power_membership(graph, p, c, q)
                assert k == coset_power_by_words(graph, p, c, q), (gens, p, c, q)
                found["miss" if k is None else "hit"] += 1
                if k is not None and graph.read(p) is None:
                    found["back_to_core"] += graph.read(p * c**k) is not None
        assert min(found.values()) >= 20, found

    def test_deep_miss_reads_each_letter_a_bounded_number_of_times(self):
        # x a^k d is in <x a^40 x^-1, x a^7 d> iff k = 7 mod 40; p and q
        # cancel 50 periods of the 40-letter loop into the block
        x = parse_word(F4, "c b")
        graph = build_core_graph(
            F4, [x * parse_word(F4, "a^40") * x.inverse(), x * parse_word(F4, "a^7 d")]
        )
        p, a, q = x * parse_word(F4, "a^2000"), parse_word(F4, "a"), parse_word(F4, "a^2000 d")
        assert coset_power_membership(graph, p, a, q) == 7
        # a miss that built [p a^k q] for every |k| below the cancellation
        # depth read about 16 million letters; the walk reads about 4,100
        assert coset_power_membership(graph, p, a, q.inverse()) is None

    @pytest.mark.parametrize("other", ["p", "c", "q"])
    def test_word_over_another_alphabet_rejected(self, other):
        graph = fix_phi_graph()
        words4 = {"p": parse_word(F4, "b"), "c": parse_word(F4, "a"), "q": parse_word(F4, "b^-1")}
        assert coset_power_membership(graph, **words4) == 0
        words4[other] = parse_word(F3, "a")
        with pytest.raises(AlphabetMismatchError):
            coset_power_membership(graph, **words4)

    def test_unreduced_power_block_rejected(self):
        graph = fix_phi_graph()
        with pytest.raises(ValueError):
            coset_power_membership(graph, identity(F4), parse_word(F4, "b a b^-1"), identity(F4))
        with pytest.raises(ValueError):
            coset_power_membership(graph, identity(F4), identity(F4), identity(F4))


class TestDotExport:
    def test_deterministic_and_wellformed(self):
        graph = fix_phi_graph()
        dot = core_graph_dot(graph)
        assert dot == core_graph_dot(fix_phi_graph())
        assert dot.startswith("digraph stallings {")
        assert dot.rstrip().endswith("}")
        assert '[label="a"]' in dot

    def test_demo_subgroup(self):
        # the fixed subgroup <a, b a b^-1, c a c^-1> of demos/subgroup_membership.py
        assert core_graph_dot(fix_phi_graph()) == (
            "digraph stallings {\n"
            "  rankdir=LR;\n"
            "  s0 [shape=doublecircle];\n"
            "  s1 [shape=circle];\n"
            "  s2 [shape=circle];\n"
            '  s0 -> s0 [label="a"];\n'
            '  s0 -> s1 [label="b"];\n'
            '  s0 -> s2 [label="c"];\n'
            '  s1 -> s1 [label="a"];\n'
            '  s2 -> s2 [label="a"];\n'
            "}\n"
        )
