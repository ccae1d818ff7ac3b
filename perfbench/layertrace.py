"""In-memory span tracing of fgdyn's layers, installed from outside.

``Tracer.install`` replaces public functions of the package modules with
wrappers; nothing under ``src/`` changes.  Each wrapped call records a
span ``[name, start, end, parent, task, counters]``.  The hot word
kernels (``concat``, ``common_prefix_length``) are called millions of
times, so they record no spans: their calls and time are summed into
the enclosing span's record.  A span's self time is its duration minus the time of its
child spans and of the kernels it called.
"""

from __future__ import annotations

import time
from collections import defaultdict

NAME, START, END, PARENT, TASK, COUNTS, KERNELS = range(7)


def _apply_counts(args, kwargs, word):
    return {"letters_out": len(word), "runs_out": len(word.runs)}


def _omega_counts(args, kwargs, result):
    kind = type(result).__name__
    if kind == "Boundary":
        return {"iterations": result.iterations_used, "certified_letters": result.certified_length}
    if kind == "NotConverged":
        diag = result.diagnostics
        return {
            "iterations": diag.get("iterations", 0),
            "overflows": int(diag.get("reason") == "growth-overflow"),
            "certified_letters": result.certified_length,
        }
    return {}


def _fold_counts(args, kwargs, graph):
    gens = args[1] if len(args) > 1 else kwargs["generators"]
    return {"letters_in": sum(len(g) for g in gens), "states_out": graph.n_states}


# (module, attribute, counters); a dotted attribute names a method.
SPANNED = (
    ("automorphisms", "Endomorphism.apply", _apply_counts),
    ("automorphisms", "verify_pair", None),
    ("dynamics", "omega_limit", _omega_counts),
    ("dynamics", "recognize_rational", None),
    ("dynamics", "detect_parabolic", None),
    ("dynamics", "iterate", None),
    ("dynamics", "growth_classify", None),
    ("subgroups", "build_core_graph", _fold_counts),
    ("subgroups", "contains", None),
    ("subgroups", "coset_power_membership", lambda a, k, r: {"hits": int(r is not None)}),
    ("subgroups", "enumerate_elements", lambda a, k, r: {"elements": len(r)}),
    ("graphs", "isogloss", lambda a, k, r: {"hits": int(bool(r))}),
    ("graphs", "build_graph", None),
    ("families", "family", None),
    ("cli", "cmd_repro", None),
)
AGGREGATED = (("words", "concat"), ("words", "common_prefix_length"))
KERNEL_NAMES = [f"{mod}.{attr}" for mod, attr in AGGREGATED]
LAYER_NAMES = {"cli.cmd_repro": "cli.repro", "automorphisms.Endomorphism.apply": "automorphisms.apply"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        # kernel [calls, seconds, ...] per open span; the first entry
        # collects kernel calls made outside any span
        self.kernel_stack: list[list] = [_kernel_slots()]
        self.task = "setup"
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [getattr(package, m) for m in dir(package) if _is_submodule(package, m)]
        for mod_name, attr, counts in SPANNED:
            owner, original = _resolve(package, mod_name, attr)
            name = LAYER_NAMES.get(f"{mod_name}.{attr}", f"{mod_name}.{attr}")
            self._replace(modules, owner, attr, original, self._span(name, original, counts))
        for slot, (mod_name, attr) in enumerate(AGGREGATED):
            owner, original = _resolve(package, mod_name, attr)
            self._replace(modules, owner, attr, original, self._kernel(2 * slot, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def _replace(self, modules, owner, attr, original, wrapper) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            self._restore.append((cls, meth, original))
            setattr(cls, meth, wrapper)
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _span(self, name, fn, counts):
        spans, stack, kstack, perf = self.spans, self.stack, self.kernel_stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None, _kernel_slots()]
            stack.append(len(spans))
            kstack.append(rec[KERNELS])
            spans.append(rec)
            rec[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()
                kstack.pop()
            if counts is not None:
                rec[COUNTS] = counts(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, slot, fn):
        kstack, perf = self.kernel_stack, time.perf_counter

        def wrapper(*args):
            t0 = perf()
            result = fn(*args)
            slots = kstack[-1]
            slots[slot] += 1
            slots[slot + 1] += perf() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation --------------------------------------------------------

    def layer_totals(self, scale_of=lambda task: 1.0) -> dict:
        """Per layer name: calls, self_s and summed counters.

        Only spans recorded under a task id count; calls the harness
        itself makes between tasks (``task`` is None) are left out.
        Times are multiplied by ``scale_of(task id)``.
        """
        covered = [sum(rec[KERNELS][1::2]) for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        totals: dict = defaultdict(lambda: defaultdict(float))
        for i, rec in enumerate(self.spans):
            if rec[TASK] is None:
                continue
            scale = scale_of(rec[TASK])
            for j, name in enumerate(KERNEL_NAMES):
                totals[name]["calls"] += rec[KERNELS][2 * j]
                totals[name]["self_s"] += rec[KERNELS][2 * j + 1] * scale
            t = totals[rec[NAME]]
            t["calls"] += 1
            t["self_s"] += (rec[END] - rec[START] - covered[i]) * scale
            for key, value in (rec[COUNTS] or {}).items():
                t[key] += value
        return {name: dict(values) for name, values in totals.items()}


def _kernel_slots() -> list:
    return [0, 0.0] * len(AGGREGATED)


def _is_submodule(package, name: str) -> bool:
    value = getattr(package, name)
    return getattr(value, "__name__", "").startswith(package.__name__ + ".") and hasattr(value, "__file__")


def _resolve(package, mod_name: str, attr: str):
    owner = getattr(package, mod_name)
    value = owner
    for part in attr.split("."):
        value = getattr(value, part)
    return owner, value
