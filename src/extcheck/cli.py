"""Command line front end for the finite-instance checkers.

Runs any subset of the theorem checkers over a builtin context, optionally
extended with user-supplied objects, and renders the verdicts either as a
human-readable text report or as deterministic JSON.  Exit status is 0 when
every verdict passes, 1 when some check found a counterexample, and 2 for
usage errors.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .closure import ClosureFamily
from .contexts import BUILTIN_CONTEXTS, Context, builtin
from .core import FiniteObject
from .theorems import FAMILY_FREE, THEOREM_IDS, Verdict, preload, run_checker

if TYPE_CHECKING:
    import argparse

MAX_BOUND = 5
MAX_CARRIER = 5

DEFAULT_BOUNDS = {thm: 2 if thm in ("G", "H") else 3 for thm in THEOREM_IDS}

RUN_ORDER = ("validate", "adjunctions", "biproduct",
             "A", "B", "C", "D", "E", "F", "G", "H")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    context: str = "finset"
    theorems: tuple[str, ...] = ("all",)
    families: tuple[str, ...] | None = None
    bound: int | None = None
    objects_path: str | None = None
    report_path: str | None = None
    fmt: str = "text"


@dataclass
class RunResult:
    config: RunConfig
    context: Context
    verdicts: list[Verdict] = field(default_factory=list)
    timings: list[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def load_objects(path: str, ordered: bool) -> list[FiniteObject]:
    """Read extra objects from a JSON file.

    Each record is {"name": ..., "carrier": [labels], "order": [[a, b], ...]}
    with "order" only meaningful for ordered contexts.  The order is
    reflexively completed; a missing transitive pair is an error rather than
    something to silently repair.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read objects file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"objects file is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"objects file is not valid UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise UsageError("objects file nests JSON too deeply to read") from exc
    if not isinstance(data, list):
        raise UsageError("objects file must contain a JSON list of records")
    out = []
    # Witnesses name objects, so two records of one name would be ambiguous.
    first_of: dict[str, int] = {}
    for i, rec in enumerate(data):
        if not isinstance(rec, dict) or "carrier" not in rec:
            raise UsageError(f"objects[{i}]: each record needs a 'carrier'")
        name = str(rec.get("name", f"user{i}"))
        if first_of.setdefault(name, i) != i:
            raise UsageError(f"objects[{i}]: name {name!r} is already the name "
                             f"of objects[{first_of[name]}]")
        carrier = rec["carrier"]
        if (not isinstance(carrier, list)
                or any(not isinstance(e, str) for e in carrier)):
            raise UsageError(f"objects[{i}]: 'carrier' must be a list of strings")
        if len(set(carrier)) != len(carrier):
            raise UsageError(f"objects[{i}]: duplicate carrier element")
        # Product and pullback elements are labelled "(a,b)", so these
        # characters could give two different pairs one label.
        for e in carrier:
            if any(c in e for c in "(,)"):
                raise UsageError(
                    f"objects[{i}]: carrier label {e!r} contains '(', ',' "
                    "or ')', which pair labels such as '(a,b)' reserve")
        if len(carrier) > MAX_CARRIER:
            raise UsageError(
                f"objects[{i}]: carrier has {len(carrier)} elements; "
                f"the checkers cap carriers at {MAX_CARRIER}")
        order_pairs = rec.get("order")
        if order_pairs is not None and not ordered:
            raise UsageError(
                f"objects[{i}]: 'order' is not meaningful in an unordered "
                "context; drop it or use --context finpre")
        if not ordered:
            out.append(FiniteObject(tuple(carrier), None, name=name))
            continue
        if order_pairs is not None and not isinstance(order_pairs, list):
            raise UsageError(
                f"objects[{i}]: 'order' must be a list of [a, b] pairs")
        pairs = set()
        for p in order_pairs or ():
            if (not isinstance(p, (list, tuple)) or len(p) != 2
                    or any(q not in carrier for q in p)):
                raise UsageError(
                    f"objects[{i}]: order pair {p!r} is not a pair of "
                    "carrier elements")
            pairs.add((p[0], p[1]))
        pairs.update((e, e) for e in carrier)
        try:
            out.append(FiniteObject(tuple(carrier), frozenset(pairs), name=name))
        except ValueError as exc:
            raise UsageError(f"objects[{i}]: {exc}") from exc
    return out


def _select_families(ctx: Context, names: tuple[str, ...] | None):
    available = {fam.name: fam for fam in ctx.families}
    if names is None:
        return list(ctx.families)
    picked = []
    for n in names:
        if n not in available:
            raise UsageError(
                f"closure family '{n}' is not available on context "
                f"'{ctx.name}' (choose from: {', '.join(sorted(available))})")
        if available[n] not in picked:
            picked.append(available[n])
    return picked


def _select_theorems(names: tuple[str, ...]):
    if "all" in names:
        return list(RUN_ORDER)
    seen = []
    for n in names:
        if n not in THEOREM_IDS:
            raise UsageError(
                f"unknown theorem id '{n}' (choose from: "
                f"{', '.join(THEOREM_IDS)} or 'all')")
        if n not in seen:
            seen.append(n)
    return [t for t in RUN_ORDER if t in seen]


def run(config: RunConfig) -> RunResult:
    if config.context not in BUILTIN_CONTEXTS:
        raise UsageError(
            f"unknown context '{config.context}' (choose from: "
            f"{', '.join(sorted(BUILTIN_CONTEXTS))})")
    if config.bound is not None:
        if config.bound < 0:
            raise UsageError("bound must be non-negative")
        if config.bound > MAX_BOUND:
            raise UsageError(
                f"bound {config.bound} exceeds the cap of {MAX_BOUND}; "
                "exhaustive checking beyond that is not tractable")
    ctx = builtin(config.context)
    if config.objects_path is not None:
        extras = load_objects(config.objects_path, ctx.ordered)
        ctx = ctx.with_extra_objects(extras)
    families = _select_families(ctx, config.families)
    theorems = _select_theorems(config.theorems)

    result = RunResult(config, ctx)
    memo: dict = {}
    preload(theorems)
    for thm in theorems:
        bound = config.bound if config.bound is not None else DEFAULT_BOUNDS[thm]
        if thm in FAMILY_FREE:
            fams: list[ClosureFamily | None] = [None]
        else:
            fams = list(families)
        for fam in fams:
            t0 = time.perf_counter()
            verdict = run_checker(thm, ctx, fam, bound, memo)
            result.verdicts.append(verdict)
            result.timings.append(time.perf_counter() - t0)
    return result


def format_text(result: RunResult) -> str:
    lines = []
    cfg = result.config
    lines.append(f"context: {result.context.name}")
    pool_bound = cfg.bound if cfg.bound is not None else max(
        DEFAULT_BOUNDS[t] for t in _select_theorems(cfg.theorems))
    pool_bound = min(pool_bound, MAX_BOUND)
    pool = result.context.objects(pool_bound)
    enumerated = len(result.context.enumerate_objects(pool_bound))
    extra = len(pool) - enumerated
    note = f" (plus {extra} supplied)" if extra else ""
    lines.append(f"objects enumerated up to size {pool_bound}: "
                 f"{enumerated}{note}")
    lines.append("")
    for verdict, secs in zip(result.verdicts, result.timings):
        fam = f", family {verdict.family}" if verdict.family else ""
        lines.append(f"== {verdict.theorem} [{verdict.context}{fam}, "
                     f"bound {verdict.bound}] ==")
        if verdict.status == "hypothesis-failed":
            lines.append(f"  skipped: hypothesis does not hold "
                         f"({verdict.hypothesis})")
        else:
            for name, value in verdict.sides:
                lines.append(f"  {name}: {'true' if value else 'false'}")
            if verdict.equivalence_ok is not None:
                lines.append(f"  sides agree: "
                             f"{'yes' if verdict.equivalence_ok else 'NO'}")
            if verdict.counts:
                lines.append("  counts: " + ", ".join(
                    f"{k}={v}" for k, v in verdict.counts))
        for wit in verdict.witnesses:
            kind = wit.get("kind", "witness") if isinstance(wit, dict) else "witness"
            lines.append(f"  witness ({kind}): "
                         + json.dumps(wit, sort_keys=True, default=str))
        lines.append(f"  verdict: {'pass' if verdict.passed else 'FAIL'} "
                     f"({secs:.2f}s)")
        lines.append("")
    n_fail = sum(1 for v in result.verdicts if not v.passed)
    lines.append(f"RESULT: {'pass' if result.passed else 'FAIL'} "
                 f"({len(result.verdicts)} verdicts, {n_fail} failures)")
    return "\n".join(lines) + "\n"


def format_structured(result: RunResult) -> str:
    cfg = result.config
    doc = {
        "tool": "extcheck",
        "context": result.context.name,
        "theorems": _select_theorems(cfg.theorems),
        "families": [f.name for f in _select_families(result.context,
                                                      cfg.families)],
        "bound": cfg.bound,
        "verdicts": [v.to_dict() for v in result.verdicts],
        "passed": result.passed,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    # Imported here: only `main` parses arguments, and `run` needs none.
    import argparse

    parser = argparse.ArgumentParser(
        prog="extcheck",
        description="Exhaustively verify structural facts about finite sums "
                    "of sets or preorders under a closure operator.")
    parser.add_argument("--context", default="finset",
                        choices=sorted(BUILTIN_CONTEXTS),
                        help="which builtin context to check")
    parser.add_argument("--closure", action="append", metavar="FAMILY",
                        help="closure family to use (repeatable; default: "
                             "all families of the context)")
    parser.add_argument("--theorem", action="append", metavar="ID",
                        help="theorem id to check (repeatable; 'all' runs "
                             "everything; default: all)")
    parser.add_argument("--bound", type=int, default=None,
                        help="carrier-size bound for enumeration (default: "
                             "3, or 2 for G and H; capped at 5)")
    parser.add_argument("--objects", metavar="FILE", default=None,
                        help="JSON file with extra objects to add to the pool")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "structured"),
                        help="report format (structured output is "
                             "byte-deterministic)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    config = RunConfig(
        context=args.context,
        theorems=tuple(args.theorem) if args.theorem else ("all",),
        families=tuple(args.closure) if args.closure else None,
        bound=args.bound,
        objects_path=args.objects,
        report_path=args.report,
        fmt=args.fmt,
    )
    try:
        result = run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = (format_text if config.fmt == "text" else format_structured)(result)
    if config.report_path:
        try:
            with open(config.report_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
