"""Every checker's structured report, pinned byte for byte.

The files under tests/golden/ hold the structured report of every theorem
and closure family on the builtin contexts and on their self-test variants,
so that a change to how a checker sweeps its instances cannot change a
verdict, a witness or a count unnoticed.  The `validators-*` files hold the
full reports of the three validators, whose passing checks' counts the
structured report leaves out.  Regenerate them, only when a report is meant
to change, with

    PYTHONPATH=src python3 tests/test_golden_reports.py

and compare one of them, rendered alone in a fresh process, with

    PYTHONPATH=src python3 tests/test_golden_reports.py --check STEM

which exits 1 when the report differs from its file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from extcheck import cli, contexts
from extcheck.closure import validate_closure
from extcheck.core import FiniteObject, make_preorder
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


# The three 3-point preorders that the `validators` benchmark workload adds
# to the bound-2 finpre pool, so that the counts it times are pinned too.
POINTS3 = ("p1", "p2", "p3")
WORKLOAD_EXTRAS = tuple(
    FiniteObject(POINTS3, make_preorder(POINTS3, pairs), name=name)
    for name, pairs in (
        ("fork3", [("p1", "p2"), ("p1", "p3")]),
        ("chain3", [("p1", "p2"), ("p1", "p3"), ("p2", "p3")]),
        ("clique3", [(a, b) for a in POINTS3 for b in POINTS3])))

# file stem -> (builtin context, variant or None, extra objects), each
# validated at bound 2
VALIDATOR_CASES = {
    "validators-finset-b2": ("finset", None, ()),
    "validators-finset-swapped-b2": ("finset", "swapped_system_context", ()),
    "validators-finset-split-b2": ("finset", "split_mono_context", ()),
    "validators-finpre-b2": ("finpre", None, ()),
    "validators-finpre-crossed-b2": ("finpre", "crossed_coproduct_context", ()),
    "validators-finpre-swapped-b2": ("finpre", "swapped_system_context", ()),
    "validators-finpre-split-b2": ("finpre", "split_mono_context", ()),
    "validators-finpre-extra-b2": ("finpre", None, WORKLOAD_EXTRAS),
    "validators-finpre-extra-crossed-b2": (
        "finpre", "crossed_coproduct_context", WORKLOAD_EXTRAS),
    "validators-finpre-extra-swapped-b2": (
        "finpre", "swapped_system_context", WORKLOAD_EXTRAS),
    "validators-finpre-extra-split-b2": (
        "finpre", "split_mono_context", WORKLOAD_EXTRAS),
}


def _context(base: str, variant: str | None, extras=()) -> contexts.Context:
    ctx = contexts.builtin(base).with_extra_objects(extras)
    return ctx if variant is None else getattr(contexts, variant)(ctx)


def structured_report(base: str, variant: str | None, bound: int,
                      theorems: tuple[str, ...]) -> str:
    """Run the selected checkers over every family, in the CLI's order and
    with one memo, and render the CLI's structured report."""
    ctx = _context(base, variant)
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


def validator_reports(base: str, variant: str | None, extras=(),
                      bound: int = 2) -> str:
    """`Report.to_dict()` of the extensivity, factorization and closure
    validators (every family), with every check's count, as sorted JSON."""
    ctx = _context(base, variant, extras)
    pool = ctx.objects(bound)
    reports = [ctx.validate_extensive(bound), ctx.validate_factorization(bound)]
    reports += [validate_closure(fam, ctx.sub_lattice, pool) for fam in ctx.families]
    return json.dumps([r.to_dict() for r in reports], indent=2,
                      sort_keys=True) + "\n"


def render(stem: str) -> str:
    if stem in VALIDATOR_CASES:
        return validator_reports(*VALIDATOR_CASES[stem])
    return structured_report(*CASES[stem])


@pytest.mark.parametrize("stem", sorted(CASES))
def test_structured_report_matches_golden(stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert structured_report(*CASES[stem]) == expected


@pytest.mark.parametrize("stem", sorted(VALIDATOR_CASES))
def test_validator_reports_match_golden(stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert validator_reports(*VALIDATOR_CASES[stem]) == expected


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        for name in sys.argv[2:]:
            path = GOLDEN / f"{name}.json"
            if render(name) != path.read_text(encoding="utf-8"):
                sys.exit(f"tests/golden/{name}.json: report differs")
            print(f"tests/golden/{name}.json: matches")
        sys.exit(0)
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(CASES | VALIDATOR_CASES):
        (GOLDEN / f"{name}.json").write_text(render(name), encoding="utf-8")
        print(f"tests/golden/{name}.json")
