"""The docstring examples in ``fgdyn`` and the scripts in ``demos/`` run."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fgdyn

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
