"""The docstring examples in ``fgdyn`` and the scripts in ``demos/`` run."""

import ast
import doctest
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fgdyn
from fgdyn import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = ["fgdyn"] + [f"fgdyn.{m.name}" for m in pkgutil.iter_modules(fgdyn.__path__)]


def test_doctests_pass():
    # doctest prints each failing example; pytest shows it with the failure
    results = [doctest.testmod(importlib.import_module(name)) for name in MODULES]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) > 0


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_examples(capsys):
    # the "Library tour" block runs as written and gives what its comments
    # say; so do the command lines whose comments name a result
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    results = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            results[ast.unparse(stmt.value)] = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    phi, seed, graph = namespace["phi"], namespace["seed"], namespace["graph"]
    assert results["iterate(phi, seed, 3)"] == phi.apply(phi.apply(phi.apply(seed)))
    limit = results["omega_limit(phi, seed)"]
    assert isinstance(limit, fgdyn.Boundary) and limit.point.point.text() == "b (a^-1)^∞"
    assert results["detect_parabolic(phi, seed).verdict"] == "parabolic"
    assert results["contains(H, parse_word(phi.alphabet, 'b a^3 b^-1 a^-1'))"] is True
    assert (len(graph.vertices), len(graph.edges)) == (8, 7)
    vertex, _ = results["has_parabolic_loop(graph)"]
    assert vertex.text() == "b (a^-1)^∞"

    def run(*argv):
        assert cli.main(list(argv)) == 0
        return capsys.readouterr().out

    assert run("iterate", "phi_k:k=1", "b d^-1", "--", "-3").strip() == "b a^-3 c a^-6 c a^-4 c a^-2 d^-1"
    assert json.loads(run("omega", "phi_k:k=2", "c"))["point"] == {"type": "rational", "head": "c", "period": "a"}
    assert json.loads(run("twist-classify", "3", "1"))["case"] == "semi-north-south"
    got = json.loads(run("twist-reduce", "b a^2 b^-1", "1"))
    assert (got["w"], got["k"]) == ("b", 3)
