"""Command-line front end.

Automorphisms are given either as a catalog spec (``phi_k:k=2``,
``twist:n=2,k=1``, ``inner:u=a b``) or as a path to a definition file
(see :mod:`fgdyn.autofiles`).  Exit codes: 0 success or positive verdict,
1 negative verdict, 2 inconclusive, 3 input error.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
from dataclasses import replace
from importlib import resources
from typing import Optional, Sequence

from .autofiles import AutoFileError, load_autofile, parse_word_list
from .automorphisms import abelianize, matrix_power
from .dynamics import (
    DEFAULT_CONFIG,
    GrowthOverflowError,
    IterationConfig,
    NOT_PARABOLIC,
    NotConverged,
    PARABOLIC,
    detect_parabolic,
    iterate,
    omega_limit,
)
from .families import (
    UnknownFamilyError,
    classify_twist,
    parse_family_spec,
    twist_reduce,
)
from .graphs import build_graph, emit_dot, graph_to_json
from .words import format_word, parse_word, standard_alphabet

CONFIG_ENV_VAR = "FGDYN_CONFIG"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _resolve_auto(spec: str):
    """A catalog spec or a definition-file path -> (pair, fix, seeds)."""
    if os.path.exists(spec):
        loaded = load_autofile(spec)
        return loaded.pair, loaded.fixed_generators, loaded.seeds
    fam = parse_family_spec(spec)
    return fam.pair, fam.fixed_generators, fam.default_seeds


def _load_config(args) -> IterationConfig:
    cfg = DEFAULT_CONFIG
    path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
            cfg = replace(cfg, **overrides)
        except (OSError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise AutoFileError(f"bad config file {path!r}: {exc}") from exc
    updates = {}
    if getattr(args, "max_iter", None) is not None:
        updates["max_iterations"] = args.max_iter
    if getattr(args, "prefix", None) is not None:
        updates["target_prefix"] = args.prefix
    if getattr(args, "window", None) is not None:
        updates["stability_window"] = args.window
    if getattr(args, "max_len", None) is not None:
        updates["max_word_length"] = args.max_len
    return replace(cfg, **updates) if updates else cfg


def _add_length_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-len", type=int, help="word length budget (letters)")


def _add_iteration_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-iter", type=int, help="iteration budget")
    parser.add_argument("--prefix", type=int, help="certified prefix target (letters)")
    parser.add_argument("--window", type=int, help="stability window (steps)")
    _add_length_flag(parser)


def cmd_iterate(args) -> int:
    pair, _fix, _seeds = _resolve_auto(args.auto)
    word = parse_word(pair.alphabet, args.word)
    cfg = _load_config(args)
    try:
        result = iterate(pair, word, args.power, cfg)
    except GrowthOverflowError as exc:
        _print_json(
            {
                "error": "growth-overflow",
                "iteration": exc.iteration,
                "length": exc.length,
                "budget": exc.budget,
            }
        )
        return EXIT_INCONCLUSIVE
    if args.json:
        _print_json({"word": format_word(result), "length": len(result)})
    else:
        print(format_word(result))
    return EXIT_OK


def cmd_omega(args) -> int:
    pair, _fix, _seeds = _resolve_auto(args.auto)
    word = parse_word(pair.alphabet, args.word)
    cfg = _load_config(args)
    if args.backward:
        pair = pair.inverse()
    result = omega_limit(pair, word, cfg)
    _print_json(result.to_json())
    return EXIT_INCONCLUSIVE if isinstance(result, NotConverged) else EXIT_OK


def cmd_parabolic(args) -> int:
    pair, _fix, _seeds = _resolve_auto(args.auto)
    seed = parse_word(pair.alphabet, args.seed)
    cfg = _load_config(args)
    report = detect_parabolic(pair, seed, cfg)
    _print_json(report.to_json())
    if report.verdict == PARABOLIC:
        return EXIT_OK
    if report.verdict == NOT_PARABOLIC:
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def cmd_graph(args) -> int:
    pair, fix, default_seeds = _resolve_auto(args.auto)
    cfg = _load_config(args)
    if args.fix is not None:
        fix = parse_word_list(pair.alphabet, args.fix)
    if not fix:
        raise AutoFileError(
            "no fixed generators known; pass --fix or add a fix: line to the file"
        )
    seeds = default_seeds
    if args.seeds is not None:
        seeds = parse_word_list(pair.alphabet, args.seeds)
    graph = build_graph(pair, fix, seeds=seeds, cfg=cfg, search_bound=args.bound)
    dot = emit_dot(graph)
    if args.dot == "-":
        print(dot, end="")
    elif args.dot:
        with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dot)
    if args.dot != "-":
        _print_json(graph_to_json(graph))
    return EXIT_OK


def cmd_abelianize(args) -> int:
    pair, _fix, _seeds = _resolve_auto(args.auto)
    matrix = matrix_power(abelianize(pair.forward), args.power)
    _print_json(
        {
            "alphabet": list(pair.alphabet.names),
            "power": args.power,
            "matrix": [list(row) for row in matrix.entries],
        }
    )
    return EXIT_OK


def cmd_twist_classify(args) -> int:
    case = classify_twist(args.n, args.k)
    _print_json({"n": args.n, "k": args.k, "case": case.value})
    return EXIT_OK


def cmd_twist_reduce(args) -> int:
    u = parse_word(standard_alphabet(2), args.word)
    found = twist_reduce(u, args.n, args.bound)
    if found is None:
        _print_json({"result": "unresolved", "bound": args.bound})
        return EXIT_INCONCLUSIVE
    w, k = found
    _print_json({"result": "elliptic", "w": format_word(w), "k": k})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Bundled reproduction scenarios with golden outputs
# ---------------------------------------------------------------------------


def _scenario_sec2() -> str:
    pair = parse_family_spec("phi_k:k=1").pair
    seed = parse_word(pair.alphabet, "b d^-1")
    lines = [f"seed: {format_word(seed)}", "forward:"]
    for p in range(1, 5):
        lines.append(f"p={p}: {format_word(iterate(pair, seed, p))}")
    lines.append("backward:")
    for p in range(1, 4):
        lines.append(f"p={p}: {format_word(iterate(pair, seed, -p))}")
    return "\n".join(lines) + "\n"


def _scenario_graph(spec: str, seed_text: Optional[str]) -> str:
    pair, fix, default_seeds = _resolve_auto(spec)
    seeds = default_seeds
    if seed_text is not None:
        seeds = parse_word_list(pair.alphabet, seed_text)
    return emit_dot(build_graph(pair, fix, seeds=seeds))


SCENARIOS = {
    "sec2": ("sec2.txt", _scenario_sec2),
    "fig1": ("fig1.dot", lambda: _scenario_graph("inner:u=a", "b; b^-1")),
    "fig2": ("fig2.dot", lambda: _scenario_graph("phi_k:k=1", None)),
    "fig3": ("fig3.dot", lambda: _scenario_graph("twist:n=1,k=0", "b; b^-1")),
    "fig4": ("fig4.dot", lambda: _scenario_graph("twist:n=1,k=2", "b; b^-1")),
    "fig5": ("fig5.dot", lambda: _scenario_graph("twist:n=2,k=1", "b; b^-1")),
    "beta6": ("beta6.dot", lambda: _scenario_graph("beta:rank=6", None)),
}


def _golden_text(filename: str) -> str:
    return (resources.files("fgdyn") / "golden" / filename).read_text(encoding="utf-8")


def cmd_repro(args) -> int:
    if args.list:
        for name in sorted(SCENARIOS):
            print(name)
        return EXIT_OK
    if args.id is None:
        raise UnknownFamilyError("repro needs a scenario id (or --list)")
    if args.id not in SCENARIOS:
        raise UnknownFamilyError(
            f"unknown scenario {args.id!r}; available: {sorted(SCENARIOS)}"
        )
    filename, builder = SCENARIOS[args.id]
    produced = builder()
    expected = _golden_text(filename)
    if produced == expected:
        print(f"{args.id}: OK ({filename})")
        return EXIT_OK
    sys.stdout.writelines(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            produced.splitlines(keepends=True),
            fromfile=f"golden/{filename}",
            tofile="produced",
        )
    )
    return EXIT_NEGATIVE


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 3): argparse's own
    exit code 2 means an inconclusive result here."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fgdyn",
        description="boundary dynamics of free-group automorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iterate", help="apply an automorphism p times")
    p.add_argument("auto", help="family spec or definition file")
    p.add_argument("word")
    p.add_argument("power", type=int)
    p.add_argument("--json", action="store_true")
    _add_length_flag(p)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("omega", help="limit of the forward orbit")
    p.add_argument("auto")
    p.add_argument("word")
    p.add_argument("--backward", action="store_true", help="use the inverse")
    _add_iteration_flags(p)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("parabolic", help="compare forward and backward limits")
    p.add_argument("auto")
    p.add_argument("seed")
    _add_iteration_flags(p)
    p.set_defaults(func=cmd_parabolic)

    p = sub.add_parser("graph", help="build the sampled dynamics graph")
    p.add_argument("auto")
    p.add_argument("--seeds", help="semicolon-separated seed words")
    p.add_argument("--fix", help="semicolon-separated fixed generators")
    p.add_argument("--dot", help="write DOT here ('-' for stdout)")
    p.add_argument("--bound", type=int, default=8, help="isoglossy search bound")
    _add_iteration_flags(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("abelianize", help="exponent-sum matrix")
    p.add_argument("auto")
    p.add_argument("--power", type=int, default=1)
    p.set_defaults(func=cmd_abelianize)

    p = sub.add_parser("twist-classify", help="dynamics type of the (n, k) twist")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_twist_classify)

    p = sub.add_parser("twist-reduce", help="search a conjugating witness")
    p.add_argument("word")
    p.add_argument("n", type=int)
    p.add_argument("--bound", type=int, default=4)
    p.set_defaults(func=cmd_twist_reduce)

    p = sub.add_parser("repro", help="re-run a bundled scenario against its golden file")
    p.add_argument("id", nargs="?")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (AutoFileError, UnknownFamilyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        # a word within the length budget can still have an image too
        # large to build, such as that of b^(10^12) under phi_k
        print("error: out of memory: the words of this input are too long to build", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
