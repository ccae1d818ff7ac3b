"""Re-measure the single-run figures quoted in ROADMAP item 1.

Each figure is timed ``REPEAT`` times, with the calibration loop of
``run.py`` around it, and the median wall and reference-scaled times
are printed as JSON, in the shape of the ``roadmap_item1`` block of
``baseline.json``.  The full ``beta:rank=6`` dynamics graph takes about
a minute, so it is timed once.

Usage, from the repository root:

    python3 perfbench/roadmap_figures.py
"""

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import REFERENCE_CAL_S, calibrate  # noqa: E402
from workloads import FoldMembership, _round_rng  # noqa: E402

REPEAT = 3


def timed(fn, repeat: int = REPEAT) -> dict:
    walls, scaled = [], []
    for _ in range(repeat):
        before = calibrate()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        walls.append(wall)
        scaled.append(wall * 2 * REFERENCE_CAL_S / (before + calibrate()))
    return {"wall_s": statistics.median(walls), "reference_s": statistics.median(scaled), "result": result}


def main() -> None:
    import fgdyn

    figures = {}
    phi = fgdyn.family("phi_k", k=1)
    out = timed(lambda: fgdyn.build_graph(phi.pair, phi.fixed_generators))
    out["result"] = f"{len(out['result'].vertices)} vertices"
    figures["build_graph phi_k:k=1"] = out

    seeds = [(fgdyn.make_phi_k(k), k) for k in range(1, 6)]

    def parabolic_k1_to_5():
        return [fgdyn.detect_parabolic(pair, fgdyn.parse_word(pair.alphabet, "b d^-1")).verdict
                for pair, _ in seeds]

    figures["detect_parabolic b d^-1, k=1..5"] = timed(parabolic_k1_to_5)

    fold = FoldMembership(fgdyn, FoldMembership.catalog(fgdyn), 0)
    for label, letters in dict(FoldMembership.sizes).items():
        gens, _ = fold._generators(_round_rng(0, "roadmap", letters), letters)
        out = timed(lambda: fgdyn.build_core_graph(fold.alphabet, gens))
        out["result"] = f"{out['result'].n_states} states from {sum(len(g) for g in gens)} letters"
        figures[f"build_core_graph {label}"] = out

    beta = fgdyn.family("beta", rank=6)
    out = timed(lambda: fgdyn.build_graph(beta.pair, beta.fixed_generators), 1)
    graph = out["result"]
    unresolved = len(graph.diagnostics.get("unresolved", []))
    out["result"] = f"{len(graph.vertices)} vertices, {unresolved} of {graph.diagnostics['seeds']} seeds unresolved"
    figures["build_graph beta:rank=6"] = out

    print(json.dumps(figures, indent=1, sort_keys=True, default=str))


if __name__ == "__main__":
    main()
