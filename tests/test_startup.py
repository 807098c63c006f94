"""What a cold process loads: each test starts a fresh interpreter, as a CLI
run and each benchmark sample do, since this test process has long loaded
everything."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fresh(script: str, *paths: Path) -> list:
    """The values that `script`, run in a new interpreter with `src` and
    `paths` importable, prints one per line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(p) for p in (ROOT / "src", *paths)))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    return [ast.literal_eval(line) for line in out.stdout.splitlines()]


COLD_RUN = """
import gc, sys
from extcheck import cli
loaded = lambda: "extcheck.semilattice" in sys.modules
print(["argparse" in sys.modules, loaded(), gc.get_freeze_count() > 0])
entered, checker = [], cli.run_checker

def run_checker(theorem, *args):
    entered.append((theorem, loaded()))
    return checker(theorem, *args)

cli.run_checker = run_checker
cli.run(cli.RunConfig(context="finset", theorems=("C",), bound=1))
print([entered, loaded()])
entered.clear()
cli.run(cli.RunConfig(context="finset", theorems=("biproduct",), bound=1))
print(entered)
"""


def test_cold_run_loads_the_biproduct_algebra_only_for_biproduct():
    """`import extcheck.cli` loads neither `argparse` nor `semilattice` and
    freezes the loaded heap; a run of C never loads `semilattice`, and a
    run of biproduct has loaded it before its first checker is entered,
    so that its compile is set-up time, not checker time."""
    imported, c_run, biproduct_run = _fresh(COLD_RUN)
    assert imported == [False, False, True]
    assert c_run == [[("C", False), ("C", False)], False]
    assert biproduct_run == [("biproduct", True), ("biproduct", True)]


TRACED_RUN = """
from extcheck import cli
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
cli.run(cli.RunConfig(context="finset", theorems=("biproduct",), bound=1))
metrics = layer_metrics(tracer.table())
print([metrics["semilattice.calls"] > 0, metrics["theorems.calls"] > 0])
"""


def test_benchmark_tracer_installs_on_the_tree():
    """perfbench/tracer.py wraps every function one module of the package
    imports from another, at module level or in a function body, and
    raises on a binding it cannot wrap; installed here, a biproduct run's
    calls into `semilattice`, imported in the checker's own body, count."""
    assert _fresh(TRACED_RUN, ROOT / "perfbench") == [[True, True]]
