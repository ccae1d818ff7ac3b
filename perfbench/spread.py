"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` for ``run_seconds`` of ``BENCHMARK.json`` once per seed
and workload, one run at a time, and prints for every metric the median
and the spread: the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, flagged when
it is above a third of the metric's ``bound``.  ``--json`` writes the
figures in the shape of the ``untraced`` block of ``baseline.json``.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads orbit_beta graph_alpha --seeds 1 2 3 4 5 [--json out.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--json", help="also write the medians, quartiles and spreads here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict = {}
    elapsed_s: dict = {}
    ok = True
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            elapsed = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            runs.setdefault(workload, []).append({k: v["value"] for k, v in result["metrics"].items()})
            elapsed_s.setdefault(workload, []).append(elapsed)
            print(f"{workload} seed {seed}: correct={result['correct']} run {elapsed:.1f} s "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[workload][-1].items()), flush=True)
    summary: dict = {}
    for workload, values in runs.items():
        entry = summary[workload] = {}
        for name in values[0]:
            series = [v[name] for v in values]
            q1, _, q3 = statistics.quantiles(series, n=4)
            med = statistics.median(series)
            entry[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            spread = entry[name]["spread"]
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:16s} {name:14s} median {med:<12.6g} spread {spread:.4f} bound {bounds[name]}{flag}")
        entry["_seeds"] = len(values)
        entry["_run_wall_s_median"] = statistics.median(elapsed_s[workload])
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
