"""One cold benchmark sample: run one workload once in this interpreter.

    python3 perfbench/child.py WORKLOAD OUT_PATH [--trace]

`run.py` starts this in a fresh process per sample, with `src` on
PYTHONPATH.  It builds the workload's context(s) and object pool (the
set-up), runs the checkers through the public entry points, and writes one
JSON record to OUT_PATH:

* `report`: the structured report (`extcheck.cli.format_structured`);
* `verdicts`: theorem, context, family, bound, status, sides and passed of
  each verdict, in run order;
* `spans`: one span per checker call, on the monotonic clock, which is
  shared by all processes of the machine, so the parent can measure set-up
  from its own spawn time;
* `enumerate_morphisms`: hits and misses of that function's cache;
* `probes`: the host-speed probes of speed.py, [monotonic time, ns] pairs;
* with --trace, `calls`: the aggregate table of tracer.py.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import speed
from workloads import MUTANTS, SRC, WORKLOADS


def main(argv: list[str]) -> int:
    wl = WORKLOADS[argv[0]]
    out_path = Path(argv[1])
    traced = argv[2:] == ["--trace"]
    speed.install()

    import extcheck
    from extcheck import cli, contexts
    from extcheck.core import enumerate_morphisms

    if Path(extcheck.__file__).resolve().parent != SRC / "extcheck":
        raise SystemExit(f"imported {extcheck.__file__}, not the checkout's")
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    spans = []
    checker = cli.run_checker

    def timed_checker(theorem, ctx, family, bound, memo=None):
        start = time.monotonic()
        try:
            return checker(theorem, ctx, family, bound, memo)
        finally:
            spans.append({"name": "run_checker", "theorem": theorem,
                          "context": ctx.name,
                          "family": family.name if family else None,
                          "start": start, "end": time.monotonic()})

    cli.run_checker = timed_checker

    base = contexts.builtin(wl.context)
    if wl.objects_path is not None:
        extras = cli.load_objects(str(wl.objects_path), base.ordered)
        base = base.with_extra_objects(extras)
    if wl.kind == "validators":
        ctxs = [base] + [getattr(contexts, m)(base) for m in MUTANTS]
    else:
        ctxs = [base]
    pool_bound = (wl.bound if wl.bound is not None
                  else max(cli.DEFAULT_BOUNDS.values()))
    for ctx in ctxs:
        ctx.objects(pool_bound)

    config = cli.RunConfig(context=wl.context, theorems=wl.theorems,
                           families=wl.families, bound=wl.bound,
                           objects_path=(str(wl.objects_path)
                                         if wl.objects_path else None),
                           fmt="structured")
    if wl.kind == "validators":
        parts, verdicts = [], []
        for ctx in ctxs:
            verdict = timed_checker("validate", ctx, None, wl.bound)
            parts.append(cli.format_structured(
                cli.RunResult(config, ctx, [verdict])))
            verdicts.append(verdict)
        report = "".join(parts)
    else:
        result = cli.run(config)
        report = cli.format_structured(result)
        verdicts = result.verdicts

    info = enumerate_morphisms.cache_info()
    probes = speed.stop()
    record = {
        "report": report,
        "verdicts": [{"theorem": v.theorem, "context": v.context,
                      "family": v.family, "bound": v.bound,
                      "status": v.status, "sides": [list(s) for s in v.sides],
                      "passed": v.passed} for v in verdicts],
        "spans": spans,
        "enumerate_morphisms": {"hits": info.hits, "misses": info.misses},
        "probes": probes,
    }
    if tracer is not None:
        record["calls"] = tracer.table()
    out_path.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
