"""The four benchmark workloads: inputs, tasks and output checks.

Every workload is a closed loop with one caller.  Its inputs come in
rounds of fixed composition, each round drawn from ``random.Random``
seeded by the workload seed and the round number, so the same seed
always gives the same inputs and a run always holds whole rounds.  The
library receives only the generated words and catalog pairs.

A task returns the library's result; its ``check`` returns ``None`` when
the result is correct and a short problem text otherwise, and its
``decided`` says whether the result is a certified verdict.  Checks run
outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    decided: Callable[[Any], bool] = lambda result: True
    shape: dict = field(default_factory=dict)


def _round_rng(seed: int, name: str, r: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{r}")


def _deal(rng: random.Random, words: list, parts: int) -> list[list]:
    """Split ``words`` into ``parts`` draws that each hold an even share
    of every stratum (words over the same generators, signs aside): the
    strata are shuffled within and dealt out round-robin."""
    strata: dict = {}
    for w in words:
        strata.setdefault(tuple(g for g, _ in w.runs), []).append(w)
    ordered: list = []
    for key in sorted(strata):
        rng.shuffle(strata[key])
        ordered += strata[key]
    return [ordered[q::parts] for q in range(parts)]


def _random_reduced(rng: random.Random, n: int, gens=(1, 2, 3)) -> list[int]:
    letters: list[int] = []
    while len(letters) < n:
        x = rng.choice(gens) * rng.choice((1, -1))
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return letters


def _cyclically_reduced(rng: random.Random, n: int) -> list[int]:
    while True:
        letters = _random_reduced(rng, n)
        if letters[0] != -letters[-1]:
            return letters


def _inverse(letters: list[int]) -> list[int]:
    return [-x for x in reversed(letters)]


# ---------------------------------------------------------------------------
# orbit_beta
# ---------------------------------------------------------------------------


class OrbitBeta:
    """``detect_parabolic`` on default seeds of ``beta:rank=6``.

    The 140 unfixed seeds split into 24 mixed-growth seeds (a letter of
    b-d followed by a letter of e-f, which overflow the word budget) and
    116 others.  Each round is a disjoint stratified quarter of the
    population: 6 mixed and 29 other seeds, the natural share.
    """

    name = "orbit_beta"
    min_rounds = 2

    @staticmethod
    def catalog(fg) -> dict:
        return {"beta": fg.family("beta", rank=6), "phi": fg.family("phi_k", k=1)}

    def __init__(self, fg, cat: dict, seed: int):
        self.fg = fg
        self.seed = seed
        self.pair = cat["beta"].pair
        self.phi = cat["phi"].pair
        self.parabolic_seed = cat["beta"].parabolic_seed
        self.mixed, self.other = [], []
        for s in fg.default_seeds(self.pair.alphabet):
            gens = [g for g, e in s.runs for _ in range(abs(e))]
            if all(g == 1 for g in gens):
                continue  # words in a alone are fixed
            if len(gens) == 2 and 2 <= gens[0] <= 4 and gens[1] >= 5:
                self.mixed.append(s)
            else:
                self.other.append(s)
        self._reference: dict = {}

    def round(self, r: int) -> list[Task]:
        cycle, quarter = divmod(r, 4)
        order = _round_rng(self.seed, self.name, cycle)
        drawn = _deal(order, self.mixed, 4)[quarter] + _deal(order, self.other, 4)[quarter]
        _round_rng(self.seed, self.name + "-order", r).shuffle(drawn)
        return [self._task(s) for s in drawn]

    def _task(self, seed_word) -> Task:
        fg, pair = self.fg, self.pair
        mixed = seed_word in self.mixed

        def check(report) -> Optional[str]:
            for half, endo in ((report.forward, pair.forward), (report.backward, pair.backward)):
                if isinstance(half, fg.Boundary) and isinstance(half.point, fg.Rational):
                    point = half.point.point
                    if fg.apply_rational(endo, point) != point:
                        return f"{seed_word}: limit {point} is not fixed"
            if seed_word == self.parabolic_seed and (
                report.verdict != "parabolic" or report.certification != "exact"
            ):
                return f"{seed_word}: expected an exact parabolic verdict"
            if report.verdict != "inconclusive" and all(g <= 4 for g, _ in seed_word.runs):
                want = self._phi_reference(seed_word)
                got = (report.verdict, _limit_text(report.forward), _limit_text(report.backward))
                if got != want:
                    return f"{seed_word}: {got} differs from phi_k:k=1 {want}"
            return None

        return Task(
            "mixed" if mixed else "other",
            lambda: fg.detect_parabolic(pair, seed_word),
            check,
            lambda report: report.verdict != "inconclusive",
            {"seed": str(seed_word), "mixed": mixed},
        )

    def _phi_reference(self, seed_word):
        key = str(seed_word)
        if key not in self._reference:
            w = self.fg.Word(self.phi.alphabet, seed_word.runs)
            report = self.fg.detect_parabolic(self.phi, w)
            self._reference[key] = (
                report.verdict,
                _limit_text(report.forward),
                _limit_text(report.backward),
            )
        return self._reference[key]


def _limit_text(result) -> str:
    point = getattr(result, "point", None)
    if point is None:
        return type(result).__name__
    return f"{type(point).__name__}:{point.text()}"


# ---------------------------------------------------------------------------
# graph_alpha
# ---------------------------------------------------------------------------


class GraphAlpha:
    """``build_graph`` for ``alpha_k:k=1`` on anchors plus one drawn seed.

    The anchors b, b^-1, c, c^-1, d, d^-1 come first in every build, so
    each of the eight documented classes is created with its canonical
    representative; the drawn seed then has to be recognised as a member
    of one of them.  Of the 78 other unfixed seeds, 13 start (after
    letters of the fixed subgroup) with d, so their forward limit is the
    irrational attractor and classifying them takes bounded isogloss
    searches.  Each round draws one of those and five of the rest, the
    natural share.
    """

    name = "graph_alpha"
    min_rounds = 4
    anchors = ("b", "b^-1", "c", "c^-1", "d", "d^-1")

    @staticmethod
    def catalog(fg) -> dict:
        return {"alpha": fg.family("alpha_k", k=1), "template": fg.expected_graph("phi_k", k=1)}

    def __init__(self, fg, cat: dict, seed: int):
        self.fg = fg
        self.seed = seed
        self.fam = cat["alpha"]
        self.template = cat["template"]
        alphabet = self.fam.pair.alphabet
        self.anchor_words = [fg.parse_word(alphabet, t) for t in self.anchors]
        self.parabolic_seed = self.fam.parabolic_seed
        self.heavy, self.light = [], []
        for s in fg.default_seeds(alphabet):
            gens = [g for g, e in s.runs for _ in range(abs(e))]
            if all(g in (1, 5) for g in gens) or s in self.anchor_words:
                continue  # words in a and e alone are fixed
            lead = next(x for x in s.letters() if abs(x) not in (1, 5))
            (self.heavy if lead == 4 else self.light).append(s)

    def round(self, r: int) -> list[Task]:
        parts = len(self.heavy)
        cycle, part = divmod(r, parts)
        order = _round_rng(self.seed, self.name, cycle)
        drawn = _deal(order, self.heavy, parts)[part] + _deal(order, self.light, parts)[part]
        _round_rng(self.seed, self.name + "-order", r).shuffle(drawn)
        return [self._task(s) for s in drawn]

    def _task(self, drawn) -> Task:
        fg, fam = self.fg, self.fam
        seeds = self.anchor_words + [drawn]
        expected = sorted(self.template.vertex_texts)
        loop_text = self.template.loops[0][0]

        def check(graph) -> Optional[str]:
            texts = sorted(cls.text() for cls in graph.vertices)
            if texts != expected:
                return f"{drawn}: vertices {texts}"
            loop = fg.has_parabolic_loop(graph)
            if (loop is not None) != (drawn == self.parabolic_seed):
                return f"{drawn}: parabolic loop {'present' if loop else 'missing'}"
            if loop is not None and (
                loop[0].text() != loop_text or self.parabolic_seed not in loop[1]
            ):
                return f"{drawn}: loop at {loop[0].text()}"
            return None

        return Task(
            "heavy" if drawn in self.heavy else "light",
            lambda: fg.build_graph(fam.pair, fam.fixed_generators, seeds=seeds),
            check,
            lambda graph: "unresolved" not in graph.diagnostics,
            {"seed": str(drawn)},
        )


# ---------------------------------------------------------------------------
# fold_membership
# ---------------------------------------------------------------------------


class FoldMembership:
    """``build_core_graph`` at two sizes, then membership query batches.

    Generators live in the free factor <a, b, c> of F_4, so any reduced
    word containing d is certainly not a member.  Half the generators
    are conjugates ``x u x^-1`` whose conjugators ``x`` extend one of a
    few shared prefixes, so folding merges real paths; some conjugates
    are powers ``x u^m x^-1``, which give coset-power queries with a
    known answer.  Each round folds two small (about 4k states) sets and
    one large (about 8k states) set, each followed by five query
    batches.
    """

    name = "fold_membership"
    min_rounds = 4
    sizes = (("small", 6300), ("small", 6300), ("large", 12600))  # letters
    batches = 5

    @staticmethod
    def catalog(fg) -> dict:
        return {"alphabet": fg.standard_alphabet(4)}

    def __init__(self, fg, cat: dict, seed: int):
        from fgdyn.subgroups import product_oracle

        self.fg = fg
        self.seed = seed
        self.alphabet = cat["alphabet"]
        self.oracle = product_oracle
        self.d = fg.Word.from_letters(self.alphabet, [4])

    def round(self, r: int) -> list[Task]:
        rng = _round_rng(self.seed, self.name, r)
        tasks: list[Task] = []
        for label, letters in self.sizes:
            gens, powers = self._generators(rng, letters)
            holder: dict = {}
            tasks.append(self._fold_task(label, gens, holder))
            sample = sorted(self.oracle(self.alphabet, gens[:12], 2), key=str)
            for _ in range(self.batches):
                tasks.append(self._query_task(rng, label, gens, powers, sample, holder))
        return tasks

    def _word(self, letters: list[int]):
        return self.fg.Word.from_letters(self.alphabet, letters)

    def _generators(self, rng: random.Random, total: int):
        """About ``total`` letters of generators in units of twenty: ten
        random words, seven conjugates ``x u x^-1`` and three power
        conjugates ``x u^3 x^-1``, each of about 45 letters, with every
        ``x`` extending one of six shared 12-letter prefixes."""
        prefixes = [_random_reduced(rng, 12) for _ in range(6)]
        gens, powers = [], []
        for _ in range(round(total / 900)):
            for i in range(20):
                if i < 10:
                    gens.append(self._word(_random_reduced(rng, 45)))
                    continue
                x = rng.choice(prefixes) + _random_reduced(rng, 3)
                u = _cyclically_reduced(rng, 14 if i < 17 else 5)
                m = 1 if i < 17 else 3
                word = self._word(x + u * m + _inverse(x))
                gens.append(word)
                if m > 1:
                    powers.append((self._word(x), self._word(u), m, word))
        rng.shuffle(gens)
        return gens, powers

    def _fold_task(self, label: str, gens: list, holder: dict) -> Task:
        fg, alphabet = self.fg, self.alphabet
        n_letters = sum(len(g) for g in gens)

        def run():
            holder["graph"] = fg.build_core_graph(alphabet, gens)
            return holder["graph"]

        shape = {"letters": n_letters, "generators": len(gens)}

        def check(graph) -> Optional[str]:
            shape["states"] = graph.n_states
            if not 0 < graph.n_states <= n_letters:
                return f"fold {label}: {graph.n_states} states from {n_letters} letters"
            return None

        return Task(f"fold_{label}", run, check, shape=shape)

    def _query_task(self, rng, label, gens, powers, sample, holder) -> Task:
        fg = self.fg
        positives = rng.sample(sample, 10)
        negatives = [a * self.d * b for a, b in zip(rng.sample(sample, 10), rng.sample(sample, 10))]
        hits = []
        for x, u, m, generator in rng.sample(powers, 2):
            j = rng.randint(1, m - 1)
            k = m - j if m - j <= j else -j
            hits.append((x * u**j, u, x.inverse(), k, generator))
        x, u, m, generator = rng.choice(powers)
        miss = (x, u, self.d * x.inverse(), generator)

        def run():
            graph = holder["graph"]
            members = [fg.contains(graph, w) for w in positives + negatives]
            answers = [fg.coset_power_membership(graph, p, c, q) for p, c, q, _, _ in hits]
            small = fg.build_core_graph(self.alphabet, [miss[3]])
            answers.append(fg.coset_power_membership(small, miss[0], miss[1], miss[2]))
            return members, answers

        def check(result) -> Optional[str]:
            members, answers = result
            if members != [True] * 10 + [False] * 10:
                return f"query {label}: membership {members}"
            expected = [k for _, _, _, k, _ in hits] + [None]
            if answers != expected:
                return f"query {label}: coset powers {answers} != {expected}"
            for (p, c, q, k, generator) in hits:
                if p * c**k * q not in (generator, fg.Word(self.alphabet)):
                    return f"query {label}: coset witness outside the oracle sample"
            return None

        return Task(f"query_{label}", run, check)


# ---------------------------------------------------------------------------
# iterate_exact
# ---------------------------------------------------------------------------


class IterateExact:
    """Exact ``iterate`` forward and back, and ``growth_classify``.

    Seed words are positive words, and every forward image in these
    pairs is a positive word, so iterates never cancel: the exact length
    of ``phi^p(w)`` is the column sum of the abelianization power, which
    chooses the power and checks the result without the library.  Run-
    dense words come from trace3, trace4 and the e-f factor of beta;
    block-heavy words from phi_k, k = 1..3, with a letter d (quadratic
    growth).  Each round has one item of each source; an item is three
    tasks: forward iterate, backward iterate of that image (which must
    give the seed back), and growth classification.
    """

    name = "iterate_exact"
    min_rounds = 6
    dense_target = 120_000
    block_target = 180_000

    @staticmethod
    def catalog(fg) -> dict:
        beta = fg.family("beta", rank=6).pair
        return {
            "trace3": fg.stock_theta("trace3"),
            "trace4": fg.stock_theta("trace4"),
            "beta": beta,
            "phi1": fg.make_phi_k(1),
            "phi2": fg.make_phi_k(2),
            "phi3": fg.make_phi_k(3),
        }

    def __init__(self, fg, cat: dict, seed: int):
        self.fg = fg
        self.seed = seed
        self.sources = [
            ("trace3", cat["trace3"], (1, 2), "exponential", self.dense_target),
            ("trace4", cat["trace4"], (1, 2), "exponential", self.dense_target),
            ("beta_ef", cat["beta"], (5, 6), "exponential", self.dense_target),
            ("phi_k1", cat["phi1"], (2, 3, 4), "polynomial", self.block_target),
            ("phi_k2", cat["phi2"], (2, 3, 4), "polynomial", self.block_target),
            ("phi_k3", cat["phi3"], (2, 3, 4), "polynomial", self.block_target),
        ]

    def round(self, r: int) -> list[Task]:
        rng = _round_rng(self.seed, self.name, r)
        tasks: list[Task] = []
        for source in self.sources:
            tasks.extend(self._item(rng, *source))
        return tasks

    def _item(self, rng, label, pair, gens, kind, target) -> list[Task]:
        fg = self.fg
        matrix = _exponent_matrix(pair)
        # Of several candidate words, keep the one whose longest iterate
        # within the target comes closest to it, so that items of a
        # source cost about the same.
        best = None
        while best is None:
            for _ in range(24):
                letters = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
                if kind == "polynomial" and 4 not in letters:
                    letters[rng.randrange(len(letters))] = 4
                p, length = _power_for(matrix, letters, target)
                if p >= 8 and (best is None or length > best[2]):
                    best = (letters, p, length)
        letters, p, length = best
        w = fg.Word.from_letters(pair.alphabet, letters)
        holder: dict = {}
        shape = {"source": label, "power": p, "length": length}

        def forward():
            holder["image"] = fg.iterate(pair, w, p)
            return holder["image"]

        def check_forward(image) -> Optional[str]:
            shape["runs"] = len(image.runs)
            if len(image) != length:
                return f"{label} {w}^{p}: length {len(image)} != {length}"
            return None

        def check_backward(back) -> Optional[str]:
            return None if back == w else f"{label} {w}: backward iterate does not return"

        def check_growth(growth) -> Optional[str]:
            return None if growth.kind == kind else f"{label} {w}: growth {growth.kind} != {kind}"

        return [
            Task(f"forward_{label}", forward, check_forward, shape=shape),
            Task(f"backward_{label}", lambda: fg.iterate(pair, holder["image"], -p), check_backward),
            Task(f"growth_{label}", lambda: fg.growth_classify(pair, w, p), check_growth),
        ]


def _exponent_matrix(pair) -> list[list[int]]:
    n = pair.alphabet.rank
    cols = []
    for image in pair.forward.images:
        col = [0] * n
        for g, e in image.runs:
            col[g - 1] += e
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _power_for(matrix, letters: list[int], target: int) -> tuple[int, int]:
    """Largest p with |phi^p(w)| <= target, for a positive word w."""
    v = [0] * len(matrix)
    for g in letters:
        v[g - 1] += 1
    p, length = 0, sum(v)
    while True:
        nxt = [sum(row[j] * v[j] for j in range(len(v))) for row in matrix]
        if sum(nxt) > target:
            return p, length
        v, p, length = nxt, p + 1, sum(nxt)


WORKLOADS = {w.name: w for w in (OrbitBeta, GraphAlpha, FoldMembership, IterateExact)}
