"""Dynamics graphs: isoglossy classes of limit points and labeled edges.

A vertex is an isoglossy class (orbit of a limit point under left
translation by the fixed subgroup); an edge labeled ``g`` runs from the
class of the backward limit of ``g`` to the class of its forward limit.
A loop certifies a parabolic orbit.

The graph built from a finite seed set is an under-approximation of the
full dynamics graph and is flagged as such.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .automorphisms import AutoPair
from .dynamics import (
    Boundary,
    DEFAULT_CONFIG,
    FixedElement,
    IterationConfig,
    LimitPoint,
    PrefixApprox,
    Rational,
    RationalPoint,
    omega_limit,
    prefix_of,
)
from .subgroups import (
    StallingsGraph,
    build_core_graph,
    coset_power_membership,
)
from .words import Alphabet, Word, _spelling, common_prefix_length, format_word

COMPLETENESS_FLAG = "sample-based under-approximation"


def verify_fixed_generators(phi: AutoPair, gens: Sequence[Word]) -> bool:
    """True iff every generator is fixed by the forward map."""
    return first_unfixed_generator(phi, gens) is None


def first_unfixed_generator(phi: AutoPair, gens: Sequence[Word]) -> Optional[Word]:
    for g in gens:
        if phi.apply(g) != g:
            return g
    return None


def isogloss(
    H: StallingsGraph,
    x: LimitPoint | RationalPoint,
    y: LimitPoint | RationalPoint,
    search_bound: int = 8,
    cfg: IterationConfig = DEFAULT_CONFIG,
) -> bool:
    """Whether some element of H translates ``y`` onto ``x``.

    Rational against rational is decided exactly: the periods must agree
    up to cyclic rotation (the head absorbs the phase shift) and a
    coset-power query finds the translating element.  Comparisons that
    involve a prefix approximation fall back to a search over the elements
    of H of length at most ``search_bound``, read off H's automaton, and
    are heuristic; there a rational point is cut to its first
    ``cfg.target_prefix + search_bound + 4`` letters.
    """
    if not 0 <= search_bound <= sys.maxsize:  # past that, no prefix can be cut to it
        raise ValueError(f"search bound must be between 0 and {sys.maxsize}, got {search_bound}")
    x = _as_point(x)
    y = _as_point(y)
    if isinstance(x, RationalPoint) and isinstance(y, RationalPoint):
        if len(x.period) != len(y.period):
            return False
        # the first i with x-period = y-period[i:] y-period[:i], by one search
        spelled = _spelling(y.period.runs)
        i = (spelled + spelled).find(_spelling(x.period.runs))
        if i < 0:
            return False
        # X = head_x . (y-period[i:] y-period[:i])^inf = (head_x . y-period[i:]) . y-period^inf
        k = coset_power_membership(H, x.head * y.period.drop(i), y.period, y.head.inverse())
        return k is not None
    wx, nx = _point_prefix(x, search_bound, cfg)
    wy, ny = _point_prefix(y, search_bound, cfg)
    floor = max(1, min(nx, ny) - search_bound)
    return _prefix_translate(H, wx, wy, floor, search_bound)


def _prefix_translate(H: StallingsGraph, wx: Word, wy: Word, floor: int, bound: int) -> bool:
    """Whether some ``h`` in H with ``|h| <= bound`` makes ``[h wy]`` agree
    with ``wx`` over ``min(|wx|, |[h wy]|) >= floor`` letters.

    Split ``h = wx[:i] . wy[:j]^-1`` where ``j`` letters of ``wy`` cancel.
    Then ``h`` is in H iff ``wx[:i]`` and ``wy[:j]`` read to the same state
    from the base, and ``[h wy] = wx[:i] wy[j:]``, so only the split points
    with ``i + j <= bound`` need checking.  An ``h`` that runs past the end
    of a short ``wx`` is ``wx s wy[:j]^-1`` for a walk ``s`` in H from the
    state ``wx`` reaches.
    """
    lx = list(itertools.islice(wx.letters(), bound))
    ly = list(itertools.islice(wy.letters(), bound + 1))
    sx = _path_states(H, lx)
    sy = _path_states(H, ly[:bound])
    nwx, nwy = len(wx), len(wy)
    for j, state in enumerate(sy):
        for i in range(min(len(sx), bound - j + 1)):
            if sx[i] != state:
                continue  # h is not in H
            if i and j and lx[i - 1] == ly[j - 1]:
                continue  # h is not reduced; the pair (i - 1, j - 1) spells it
            if i and j < nwy and lx[i - 1] == -ly[j]:
                continue  # h cancels more than j letters of wy
            overlap = min(nwx, i + nwy - j)
            if overlap >= floor and common_prefix_length(wx.drop(i), wy.drop(j)) >= overlap - i:
                return True
    if nwx >= bound or len(sx) <= nwx or nwx < floor:
        return False  # no h runs past wx, or wx itself is too short a match
    # h = wx s wy[:j]^-1 makes [h wy] start with all of wx: search the walks s
    # breadth-first, keeping one entry per (state, last letter)
    frontier = {(sx[nwx], lx[-1] if lx else 0)}
    for length in range(1, bound - nwx + 1):
        frontier = {
            (t, x)
            for state, last in frontier
            for x in H.alphabet.signed_letters
            if x != -last and (t := H.step(state, x)) is not None
        }
        for state, last in frontier:
            for j in range(min(len(sy), bound - nwx - length + 1)):
                if (
                    sy[j] == state
                    and (j == 0 or last != ly[j - 1])
                    and (j == nwy or last != -ly[j])
                ):
                    return True
    return False


def _path_states(H: StallingsGraph, letters: list[int]) -> list[int]:
    """States reached from the base after each prefix of ``letters``, up to
    the point where the path leaves H's graph."""
    states = [0]
    for x in letters:
        t = H.step(states[-1], x)
        if t is None:
            break
        states.append(t)
    return states


def _as_point(p):
    if isinstance(p, Rational):
        return p.point
    return p


def _point_prefix(p, search_bound: int, cfg: IterationConfig) -> tuple[Word, int]:
    if isinstance(p, RationalPoint):
        n = cfg.target_prefix + search_bound + 4
        return prefix_of(p, n), n
    return p.prefix, p.certified_length


@dataclass
class IsoglossyClass:
    representative: LimitPoint
    members: list[LimitPoint] = field(default_factory=list)
    approximate: bool = False

    def text(self) -> str:
        return self.representative.text()


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    labels: tuple[Word, ...]

    def is_loop(self) -> bool:
        return self.source == self.target


@dataclass
class DynamicsGraph:
    alphabet: Alphabet
    vertices: list[IsoglossyClass]
    edges: list[Edge]
    completeness: str = COMPLETENESS_FLAG
    diagnostics: dict = field(default_factory=dict)

    def n_components(self) -> int:
        parent = list(range(len(self.vertices)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in self.edges:
            a, b = find(e.source), find(e.target)
            if a != b:
                parent[a] = b
        return len({find(i) for i in range(len(self.vertices))})


def default_seeds(alphabet: Alphabet) -> list[Word]:
    """All reduced words of length at most 2, in deterministic order."""
    letters = alphabet.signed_letters
    seeds = [Word.from_letters(alphabet, [x]) for x in letters]
    for x, y in itertools.product(letters, repeat=2):
        if y != -x:
            seeds.append(Word.from_letters(alphabet, [x, y]))
    return seeds


def build_graph(
    phi: AutoPair,
    fix_generators: Sequence[Word],
    seeds: Optional[Sequence[Word]] = None,
    cfg: IterationConfig = DEFAULT_CONFIG,
    search_bound: int = 8,
) -> DynamicsGraph:
    """Sample the dynamics graph of ``phi`` over a seed set.

    Every seed with both limits certified contributes one edge from the
    class of its backward limit to the class of its forward limit; edges
    with equal endpoints are merged and keep all labels.  Seeds fixed by
    ``phi`` carry no dynamics and are skipped; seeds whose limits fail to
    certify are reported in the diagnostics.
    """
    if not 0 <= search_bound <= sys.maxsize:  # past that, no prefix can be cut to it
        raise ValueError(f"search bound must be between 0 and {sys.maxsize}, got {search_bound}")
    bad = first_unfixed_generator(phi, fix_generators)
    if bad is not None:
        raise ValueError(f"claimed fixed generator is not fixed: {format_word(bad)}")
    H = build_core_graph(phi.alphabet, list(fix_generators))
    seeds = default_seeds(phi.alphabet) if seeds is None else list(seeds)

    classes: list[IsoglossyClass] = []
    edge_labels: dict[tuple[int, int], list[Word]] = {}
    skipped_fixed: list[str] = []
    unresolved: list[dict] = []

    def classify(point: LimitPoint) -> int:
        for i, cls in enumerate(classes):
            if isogloss(H, cls.representative, point, search_bound, cfg):
                cls.members.append(point)
                if isinstance(point, PrefixApprox) or isinstance(
                    cls.representative, PrefixApprox
                ):
                    cls.approximate = True
                return i
        classes.append(IsoglossyClass(point, [point]))
        return len(classes) - 1

    for seed in seeds:
        forward = omega_limit(phi, seed, cfg)
        if isinstance(forward, FixedElement):
            skipped_fixed.append(format_word(seed))
            continue
        backward = omega_limit(phi.inverse(), seed, cfg)
        if not isinstance(forward, Boundary) or not isinstance(backward, Boundary):
            unresolved.append(
                {
                    "seed": format_word(seed),
                    "forward": forward.to_json(),
                    "backward": backward.to_json(),
                }
            )
            continue
        source = classify(backward.point)
        target = classify(forward.point)
        edge_labels.setdefault((source, target), []).append(seed)

    edges = [
        Edge(s, t, tuple(sorted(labels, key=format_word)))
        for (s, t), labels in sorted(edge_labels.items())
    ]
    diagnostics = {"seeds": len(seeds), "fixed_seeds": skipped_fixed}
    if unresolved:
        diagnostics["unresolved"] = unresolved
    return DynamicsGraph(phi.alphabet, classes, edges, COMPLETENESS_FLAG, diagnostics)


def has_parabolic_loop(graph: DynamicsGraph) -> Optional[tuple[IsoglossyClass, tuple[Word, ...]]]:
    """The first loop edge with its vertex and labels, if any."""
    for edge in graph.edges:
        if edge.is_loop():
            return graph.vertices[edge.source], edge.labels
    return None


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(graph: DynamicsGraph) -> str:
    """Deterministic DOT rendering; node names are canonical point texts,
    with `` #<vertex index>`` appended to texts that two classes share."""
    texts = [cls.text() for cls in graph.vertices]
    counts = Counter(texts)
    names = [text if counts[text] == 1 else f"{text} #{i}" for i, text in enumerate(texts)]
    lines = ["digraph dynamics {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for name, idx in sorted(zip(names, range(len(names)))):
        style = " [style=dashed]" if isinstance(graph.vertices[idx].representative, PrefixApprox) else ""
        lines.append(f"  {_dot_quote(name)}{style};")
    rendered = sorted(
        (names[e.source], names[e.target], ", ".join(format_word(w) for w in e.labels))
        for e in graph.edges
    )
    for src, dst, label in rendered:
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: DynamicsGraph) -> dict:
    vertices = []
    for cls in graph.vertices:
        vertices.append(
            {
                "text": cls.text(),
                "point": cls.representative.to_json(),
                "members": len(cls.members),
                "approximate": cls.approximate,
            }
        )
    return {
        "vertices": vertices,
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "labels": [format_word(w) for w in e.labels],
            }
            for e in graph.edges
        ],
        "components": graph.n_components(),
        "completeness": graph.completeness,
        "diagnostics": graph.diagnostics,
    }


@dataclass(frozen=True)
class GraphTemplate:
    """Expected shape of a dynamics graph, for comparisons against builds."""

    n_vertices: int
    n_edges: int
    n_components: int
    loops: tuple[tuple[str, str], ...] = ()  # (vertex text, one expected label)
    vertex_texts: Optional[tuple[str, ...]] = None
    edge_texts: Optional[tuple[tuple[str, str], ...]] = None

    def matches(self, graph: DynamicsGraph) -> bool:
        return not self.mismatches(graph)

    def mismatches(self, graph: DynamicsGraph) -> list[str]:
        problems = []
        if len(graph.vertices) != self.n_vertices:
            problems.append(f"vertices: {len(graph.vertices)} != {self.n_vertices}")
        if len(graph.edges) != self.n_edges:
            problems.append(f"edges: {len(graph.edges)} != {self.n_edges}")
        if graph.n_components() != self.n_components:
            problems.append(f"components: {graph.n_components()} != {self.n_components}")
        loops = [e for e in graph.edges if e.is_loop()]
        if len(loops) != len(self.loops):
            problems.append(f"loops: {len(loops)} != {len(self.loops)}")
        else:
            got = {
                (graph.vertices[e.source].text(), tuple(format_word(w) for w in e.labels))
                for e in loops
            }
            for vertex_text, label in self.loops:
                if not any(v == vertex_text and label in labels for v, labels in got):
                    problems.append(f"missing loop at {vertex_text} labeled {label}")
        if self.vertex_texts is not None:
            got_texts = sorted(cls.text() for cls in graph.vertices)
            if got_texts != sorted(self.vertex_texts):
                problems.append(f"vertex texts: {got_texts} != {sorted(self.vertex_texts)}")
        if self.edge_texts is not None:
            got_edges = sorted(
                (graph.vertices[e.source].text(), graph.vertices[e.target].text())
                for e in graph.edges
            )
            if got_edges != sorted(self.edge_texts):
                problems.append(f"edge endpoints: {got_edges} != {sorted(self.edge_texts)}")
        return problems
