"""Every checker's structured report, pinned byte for byte.

The files under tests/golden/ hold the structured report of every theorem
and closure family on the builtin contexts and on their self-test variants,
so that a change to how a checker sweeps its instances cannot change a
verdict, a witness or a count unnoticed.  Regenerate them, only when a
report is meant to change, with

    PYTHONPATH=src python3 tests/test_golden_reports.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from extcheck import cli, contexts
from extcheck.theorems import FAMILY_FREE, run_checker

GOLDEN = Path(__file__).parent / "golden"

ALL = ("all",)
NO_BIPRODUCT = tuple(t for t in cli.RUN_ORDER if t != "biproduct")
BIPRODUCT = ("biproduct",)

# file stem -> (builtin context, variant or None, bound, theorems)
CASES = {
    "finset-b1": ("finset", None, 1, ALL),
    "finset-b2": ("finset", None, 2, ALL),
    "finset-swapped-b1": ("finset", "swapped_system_context", 1, NO_BIPRODUCT),
    "finset-split-b1": ("finset", "split_mono_context", 1, NO_BIPRODUCT),
    "finpre-b1": ("finpre", None, 1, ALL),
    "finpre-crossed-b1": ("finpre", "crossed_coproduct_context", 1, ALL),
    "finpre-swapped-b1": ("finpre", "swapped_system_context", 1, NO_BIPRODUCT),
    "finpre-split-b1": ("finpre", "split_mono_context", 1, NO_BIPRODUCT),
    # The biproduct checker on the variants whose admissible subobjects miss
    # the empty one, where its lattice hypothesis fails.
    "finset-swapped-biproduct-b1": ("finset", "swapped_system_context", 1, BIPRODUCT),
    "finset-split-biproduct-b1": ("finset", "split_mono_context", 1, BIPRODUCT),
    "finpre-swapped-biproduct-b1": ("finpre", "swapped_system_context", 1, BIPRODUCT),
    "finpre-split-biproduct-b1": ("finpre", "split_mono_context", 1, BIPRODUCT),
}


def structured_report(base: str, variant: str | None, bound: int,
                      theorems: tuple[str, ...]) -> str:
    """Run the selected checkers over every family, in the CLI's order and
    with one memo, and render the CLI's structured report."""
    ctx = contexts.builtin(base)
    if variant is not None:
        ctx = getattr(contexts, variant)(ctx)
    config = cli.RunConfig(context=base, theorems=theorems, bound=bound,
                           fmt="structured")
    result = cli.RunResult(config, ctx)
    memo: dict = {}
    for thm in cli.RUN_ORDER:
        if theorems != ALL and thm not in theorems:
            continue
        fams = ([None] if thm in FAMILY_FREE or thm == "validate"
                else list(ctx.families))
        for fam in fams:
            result.verdicts.append(run_checker(thm, ctx, fam, bound, memo))
    return cli.format_structured(result)


@pytest.mark.parametrize("stem", sorted(CASES))
def test_structured_report_matches_golden(stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert structured_report(*CASES[stem]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(CASES):
        (GOLDEN / f"{name}.json").write_text(
            structured_report(*CASES[name]), encoding="utf-8")
        print(f"tests/golden/{name}.json")
