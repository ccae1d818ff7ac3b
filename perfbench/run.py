"""fgdyn benchmark: four workloads, end-to-end metrics and a traced run.

Usage, from the repository root (the package is imported from ``src/``
without being installed; only the standard library is needed here):

    python3 perfbench/run.py --workload orbit_beta --seed 1 --seconds 12 --trace 0

A run repeats whole rounds of its workload (see ``workloads.py``) until
it has measured ``--seconds`` and at least the workload's minimum number
of rounds.

Times are reported in reference seconds.  On a shared machine the speed
a process gets drifts by tens of percent over spans of seconds, which
hides any change in the code.  So a fixed pure-Python calibration loop
runs between tasks, every ``SAMPLE_INTERVAL_S`` of CPU time inside a
long task (from a ``SIGVTALRM`` handler, its time subtracted from the
task's) and around each set-up probe, and each measured time is scaled
by ``REFERENCE_CAL_S`` over the median of the calibration times around
and within it: the time the work would take on a machine where the loop
takes exactly ``REFERENCE_CAL_S``.  Raw wall times are printed in the
``stats`` line beside the scaled ones.

Each task runs under a wall-time guard; a task that raises, overruns
the guard or fails its output check counts as failed.  The bundled
``fgdyn repro`` scenarios are then run in process and must report OK,
and two documented growth classes must come out right.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs exactly
the minimum number of rounds with every layer wrapped (``layertrace.py``),
prints the per-layer metrics, and reports the tracing overhead as the
untraced over the traced task rate on the rounds after round 0, re-run
untraced after the traced run: both runs then find the caches that
round 0 filled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
package under ``src/`` the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402
from layertrace import Tracer  # noqa: E402

# Each workload is a single-threaded process, numpy's BLAS included; its
# thread start-up at import otherwise adds tens of milliseconds of noise
# to set-up time.  Set-up probes inherit this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

TASK_GUARD_S = 60.0  # a task running longer counts as hung
ROUND_DEADLINE_S = 110.0  # start no round after this
TASK_DEADLINE_S = 150.0  # start no task after this
SETUP_PROBES = 5  # at least this many fresh-process set-ups per run
PROBE_INTERVAL_S = 6.0  # one set-up probe per this much wall time of measuring
REFERENCE_CAL_S = 0.005  # the calibration loop's time on the reference machine
SAMPLE_INTERVAL_S = 0.4  # CPU time between calibrations inside a task
_IN_TASK_CALS: list = []
_CAL_RNG = random.Random(7)
_CAL_RUNS = [(_CAL_RNG.randint(1, 4), _CAL_RNG.choice((1, -1, 2))) for _ in range(3000)]

# Per-layer metrics: "<layer>.<field>", a layer as named by layertrace.
PER_LAYER = (
    "automorphisms.apply.calls", "automorphisms.apply.self_s",
    "automorphisms.apply.letters_out", "automorphisms.apply.runs_out",
    "dynamics.omega_limit.calls", "dynamics.omega_limit.self_s", "dynamics.omega_limit.iterations",
    "dynamics.omega_limit.overflows", "dynamics.omega_limit.certified_letters",
    "dynamics.recognize_rational.self_s",
    "graphs.isogloss.calls", "graphs.isogloss.self_s", "graphs.isogloss.hits",
    "graphs.build_graph.self_s",
    "subgroups.enumerate_elements.calls", "subgroups.enumerate_elements.self_s",
    "subgroups.enumerate_elements.elements",
    "words.concat.calls", "words.concat.self_s",
    "words.common_prefix_length.calls", "words.common_prefix_length.self_s",
    "subgroups.build_core_graph.calls", "subgroups.build_core_graph.self_s",
    "subgroups.build_core_graph.letters_in", "subgroups.build_core_graph.states_out",
    "subgroups.contains.calls", "subgroups.contains.self_s",
    "subgroups.coset_power_membership.calls", "subgroups.coset_power_membership.self_s",
    "subgroups.coset_power_membership.hits",
    "dynamics.iterate.self_s", "dynamics.growth_classify.self_s",
    "automorphisms.verify_pair.self_s", "families.family.self_s", "cli.repro.self_s",
)


class TaskTimeout(BaseException):
    """Raised by the guard's alarm; a BaseException so no handler in the library swallows it."""


def _alarm(signum, frame):
    raise TaskTimeout


def _sample_speed(signum, frame):
    _IN_TASK_CALS.append(calibrate())


def guarded(fn, guard_s: float):
    """Run ``fn`` under the wall-time guard: (result, seconds, error text or None)."""
    signal.setitimer(signal.ITIMER_REAL, guard_s)
    t0 = time.perf_counter()
    try:
        result = fn()
        return result, time.perf_counter() - t0, None
    except TaskTimeout:
        return None, time.perf_counter() - t0, f"hung past the {guard_s:g} s guard"
    except Exception as exc:  # a task that raises is a failed task, not a crashed benchmark
        return None, time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def check_guard() -> None:
    """The guard must stop a pure-Python loop that never returns."""

    def spin():
        while True:
            pass

    _, seconds, error = guarded(spin, 0.05)
    if error is None or seconds > 1.0:
        raise SystemExit("task guard failed to interrupt a hung task")


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    It merges runs, hashes tuples and compares them, as the word kernels
    do, so its speed follows the speed the library gets.  The garbage
    collector is off meanwhile: a collection of the library's heap that
    happened to fall into the loop would be charged to the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(6):
            out: list = []
            for g, e in _CAL_RUNS:
                if out and out[-1][0] == g:
                    merged = out[-1][1] + e
                    out.pop()
                    if merged:
                        out.append((g, merged))
                else:
                    out.append((g, e))
            index = {run: i for i, run in enumerate(out)}
            sum(1 for a, b in zip(out, out[1:]) if a < b and index[a] >= 0)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def measure(wl, min_rounds: int, seconds: float, started: float, tracer=None,
            between=None, calibrate_inside=True, first_round=0) -> list[dict]:
    """Run whole rounds from ``first_round`` on; one record per task attempted.

    ``seconds`` in a record is the task's time in reference seconds,
    ``wall_s`` its wall time and ``scale`` the ratio of the two.
    ``between`` is called after each task.  The first task always runs;
    no round starts after ``ROUND_DEADLINE_S`` and no task after
    ``TASK_DEADLINE_S``.  With ``calibrate_inside`` false (always under
    a tracer, so that no calibration is counted in a span) tasks are
    scaled by the calibrations around them only.
    """
    calibrate_inside = calibrate_inside and tracer is None
    records: list[dict] = []
    cal_before = calibrate()
    t0 = time.perf_counter()
    r = first_round
    while r < first_round + min_rounds or time.perf_counter() - t0 < seconds:
        if records and time.perf_counter() - started > ROUND_DEADLINE_S:
            break
        for task in wl.round(r):
            if records and time.perf_counter() - started > TASK_DEADLINE_S:
                break
            if tracer is not None:
                tracer.task = len(records)
            _IN_TASK_CALS.clear()
            if calibrate_inside:
                signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            result, elapsed, error = guarded(task.run, TASK_GUARD_S)
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            inside = list(_IN_TASK_CALS)
            elapsed -= sum(inside)
            if tracer is not None:
                tracer.task = None
            decided = False
            if error is None:
                try:
                    error = task.check(result)
                    decided = task.decided(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if between is not None:
                between()
            cal_after = calibrate()
            scale = REFERENCE_CAL_S / statistics.median([cal_before, *inside, cal_after])
            cal_before = cal_after
            records.append(
                {"round": r, "kind": task.kind, "seconds": elapsed * scale, "wall_s": elapsed, "scale": scale,
                 "decided": decided and error is None, "error": error, **task.shape}
            )
        r += 1
    return records


GOLDEN_GROWTH = (
    # (pair, word, steps, kind, degree range): documented growth classes
    (lambda fg: fg.make_phi_k(1), "d", 40, "polynomial", (1.8, 2.2)),
    (lambda fg: fg.stock_theta("trace3"), "a", 20, "exponential", None),
)


def golden_check(fg, tracer=None) -> tuple[int, list[str]]:
    """Run every bundled ``fgdyn repro`` scenario in process, and the
    documented growth classes; return (checks, failures)."""
    failures = []
    for sid in sorted(fg.cli.SCENARIOS):
        out = io.StringIO()
        if tracer is not None:
            tracer.task = f"golden:repro {sid}"
        with contextlib.redirect_stdout(out):
            code, _, error = guarded(lambda: fg.cli.main(["repro", sid]), TASK_GUARD_S)
        expected = f"{sid}: OK ({fg.cli.SCENARIOS[sid][0]})"
        if error or code != 0 or out.getvalue().strip() != expected:
            failures.append(f"repro {sid}: {error or out.getvalue().strip()[:200]}")
    for make, text, steps, kind, degree in GOLDEN_GROWTH:
        pair = make(fg)
        if tracer is not None:
            tracer.task = f"golden:growth {text}"
        got, _, error = guarded(lambda: fg.growth_classify(pair, fg.parse_word(pair.alphabet, text), steps), TASK_GUARD_S)
        if error or got.kind != kind or (degree and not degree[0] <= got.degree <= degree[1]):
            failures.append(f"growth of {text}: {error or got}")
    if tracer is not None:
        tracer.task = None
    return len(fg.cli.SCENARIOS) + len(GOLDEN_GROWTH), failures


class SetupProbes:
    """Fresh-process set-ups (``setup_probe.py``), spread over the run.

    Import time drifts with the machine in phases of several seconds,
    longer than a batch of probes takes, so probes run between tasks
    every ``PROBE_INTERVAL_S`` and the run reports their median.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.samples: dict = {"setup_s": [], "import_s": [], "setup_wall_s": []}
        self.last = time.perf_counter()

    def due(self) -> None:
        if time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.probe()

    def probe(self) -> None:
        cal_before = calibrate()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), self.workload],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        scale = 2 * REFERENCE_CAL_S / (cal_before + calibrate())
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.samples["setup_s"].append(result["setup_s"] * scale)
        self.samples["import_s"].append(result["import_s"] * scale)
        self.samples["setup_wall_s"].append(result["setup_s"])
        self.last = time.perf_counter()

    def medians(self) -> dict:
        while len(self.samples["setup_s"]) < SETUP_PROBES:
            self.probe()
        return {name: statistics.median(values) for name, values in self.samples.items()}


def tail_percentile(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, tasks beyond): the highest integer percentile,
    by nearest rank, with at least ten tasks beyond it (the median when
    fewer than twenty tasks ran)."""
    n = len(values)
    ordered = sorted(values)
    p = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    rank = max(1, math.ceil(p * n / 100))
    return ordered[rank - 1], p, n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize(records: list[dict]) -> dict:
    done = [r for r in records if r["error"] is None or not r["error"].startswith(("hung", "raised"))]
    busy = sum(r["seconds"] for r in records)
    wall = sum(r["wall_s"] for r in records)
    times_ms = [r["seconds"] * 1000.0 for r in records]
    tail, pct, beyond = tail_percentile(times_ms)
    wall_ms = [r["wall_s"] * 1000.0 for r in records]
    return {
        "tasks": len(records),
        "completed": len(done),
        "busy_s": busy,
        "wall_busy_s": wall,
        "wall_tasks_per_s": len(done) / wall,
        "wall_p50_ms": statistics.median(wall_ms),
        "wall_tail_ms": tail_percentile(wall_ms)[0],
        "tasks_per_s": len(done) / busy,
        "p50_ms": statistics.median(times_ms),
        "tail_ms": tail,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "decided": sum(r["decided"] for r in records),
        "failed": sum(r["error"] is not None for r in records),
    }


def input_shape(records: list[dict]) -> dict:
    """What ran: task counts and median time by kind, plus each task's inputs."""
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["seconds"])
    keep = ("seed", "mixed", "source", "power", "length", "runs", "letters", "generators", "states")
    return {
        "by_kind": {k: {"tasks": len(v), "median_ms": statistics.median(v) * 1000.0} for k, v in sorted(kinds.items())},
        "tasks": [{k: r[k] for k in ("kind", *keep) if k in r} for r in records if any(k in r for k in keep)],
        "undecided": sum(not r["decided"] and r["error"] is None for r in records),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "fgdyn", "__init__.py")):
        print(f"error: no fgdyn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGVTALRM, _sample_speed)
    check_guard()
    try:
        import fgdyn
        import fgdyn.cli
    except ImportError as exc:
        print(f"error: cannot import fgdyn: {exc}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(fgdyn)
        tracer.task = "setup"
    cal_before = calibrate()
    catalog = spec.catalog(fgdyn)
    setup_scale = 2 * REFERENCE_CAL_S / (cal_before + calibrate())
    if tracer is not None:
        tracer.task = None
    wl = spec(fgdyn, catalog, args.seed)

    probes = SetupProbes(args.workload)
    if tracer is None:
        records = measure(wl, spec.min_rounds, args.seconds, started, between=probes.due)
    else:
        records = measure(wl, spec.min_rounds, 0, started, tracer)
    rss = peak_rss_mb()
    cal_before = calibrate()
    golden_checks, golden_failures = golden_check(fgdyn, tracer)
    golden_scale = 2 * REFERENCE_CAL_S / (cal_before + calibrate())
    setup = probes.medians()

    stats = summarize(records)
    failed = stats["failed"] + len(golden_failures)
    attempted = stats["tasks"] + golden_checks
    shape = input_shape(records)
    errors = [f"{r['kind']}: {r['error']}" for r in records if r["error"]] + golden_failures

    if tracer is None:
        metrics = {
            "setup_s": metric(setup["setup_s"], "s"),
            "tasks_per_s": metric(stats["tasks_per_s"], "1/s"),
            "task_p50_ms": metric(stats["p50_ms"], "ms"),
            "task_tail_ms": metric(stats["tail_ms"], "ms"),
            "decided_frac": metric(stats["decided"] / stats["tasks"], "ratio"),
            "ok_frac": metric(1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": metric(rss, "MB"),
        }
    else:
        scales = {i: r["scale"] for i, r in enumerate(records)}
        totals = tracer.layer_totals(
            lambda task: scales[task] if isinstance(task, int) else setup_scale if task == "setup" else golden_scale
        )
        metrics = {}
        for name in PER_LAYER:
            layer, field = name.rsplit(".", 1)
            metrics[name] = metric(totals.get(layer, {}).get(field, 0), "s" if field == "self_s" else "count")
        metrics["fgdyn.import_s"] = metric(setup["import_s"], "s")
        stats["spans"] = len(tracer.spans)
        tracer.uninstall()
        tracer.spans.clear()  # the re-run below runs without them on the heap, as an untraced run does
        untraced = measure(wl, spec.min_rounds - 1, 0, started, calibrate_inside=False, first_round=1)
        traced = [r for r in records if r["round"] >= 1]
        n = min(len(traced), len(untraced))
        stats["untraced_warm_tasks_per_s"] = summarize(untraced[:n])["tasks_per_s"]
        stats["traced_warm_tasks_per_s"] = summarize(traced[:n])["tasks_per_s"]
        metrics["trace.slowdown"] = metric(
            stats["untraced_warm_tasks_per_s"] / stats["traced_warm_tasks_per_s"], "x"
        )

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    stats["failed_frac"] = failed / attempted
    stats["setup_import_s"] = setup["import_s"]
    stats["setup_wall_s"] = setup["setup_wall_s"]
    print("stats: " + json.dumps(stats, sort_keys=True))
    print("shape: " + json.dumps(shape, sort_keys=True))
    for e in errors[:20]:
        print(f"FAILED {e}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
