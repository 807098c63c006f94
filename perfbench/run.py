"""Cold-process benchmark for extcheck.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
workloads.py (`closed-maps`, `sum-extensions`, `validators`,
`lattice-algebra`), `all` for those four in an order drawn from the seed,
or `full-finset` / `full-finpre` for the ungated default CLI runs.

Every sample is a new interpreter (child.py), one at a time, so the
process-wide caches of the program start empty as they do for a CLI user.
Samples are started until S seconds have passed (at least one), and each
metric is the median over the run's samples.  Successive samples are pinned
to the usable CPUs in turn, so that every run samples each of them.

With --trace 0 it prints the end-to-end metrics: wall_s (spawn to exit,
report written), setup_s (spawn to the first checker call), check_s
(seconds inside checker calls) and peak_rss_mb (the child's own peak
resident set, from wait4).  The three times are reference seconds:
wall-clock seconds scaled by the host speed that the child's probes
measured (speed.py), so that a neighbour slowing the shared CPU does not
read as the program slowing.  With --trace 1 it alternates untraced and
traced samples and prints the per-layer metrics of tracer.py, plus
proc.cpu_s (untraced child CPU seconds), proc.wall_clock_s (untraced
wall-clock seconds, unscaled), host.slowdown (wall-clock over reference
seconds) and trace.overhead_ratio (traced over untraced wall_s).

Each verdict is checked against the hand-written table in workloads.py and
the sample's structured report against golden/<workload>.json; a mismatch,
crash or timeout counts as failed.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}, and the exit code is
nonzero when any verdict failed.  A run record (commit, Python, nproc,
load average around each sample, seed) and, when traced, the verdict-level
spans and call table are written to perfbench/out/.

The workloads have no random input: the seed orders the workloads of
`all`, the CPUs the samples are pinned to, and whether a traced run starts
with a traced sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import reference_seconds
from workloads import GATED, HERE, ROOT, SRC, WORKLOADS
from tracer import layer_metrics

OUT = HERE / "out"
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("check_s", "s"),
              ("peak_rss_mb", "MB"))
# No sample of a gated workload starts or runs past this many seconds, so
# that a run of one workload ends within three minutes.
RUN_LIMIT_S = 170.0


class SampleTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise SampleTimeout


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def commit_hash() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def check_verdicts(wl, rec: dict | None, golden: str) -> tuple[int, int, str]:
    """(verdicts, failed verdicts, reason) of one sample."""
    total = len(wl.expected) if wl.expected is not None else None
    if rec is None:
        return total or 1, total or 1, "no record"
    got = rec["verdicts"]
    if total is None:
        total = len(got)
    reasons = []
    report_ok = rec["report"] == golden
    if not report_ok:
        reasons.append("report differs from golden")
    if len(got) != total:
        reasons.append(f"{len(got)} verdicts, expected {total}")
        return total, total, "; ".join(reasons)
    failed = 0
    for i, v in enumerate(got):
        row = (v["theorem"], v["context"], v["family"], v["bound"],
               v["status"], tuple((n, b) for n, b in v["sides"]), v["passed"])
        ok = row == wl.expected[i] if wl.expected is not None else v["passed"]
        if not ok:
            reasons.append(f"verdict {i} is {row}")
        failed += not (ok and report_ok)
    return total, failed, "; ".join(reasons)


def run_sample(wl, traced: bool, cpu: int, deadline: float) -> dict:
    """Spawn one child pinned to `cpu`, wait for it with wait4 and check
    its verdicts."""
    OUT.mkdir(exist_ok=True)
    rec_path = OUT / f"sample-{os.getpid()}.json"
    rec_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "child.py"), wl.name, str(rec_path)]
    if traced:
        cmd.append("--trace")
    timeout = max(1.0, min(wl.timeout_s, deadline - time.monotonic()))
    load_before = loadavg()
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    timed_out = False
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except SampleTimeout:
        timed_out = True
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"traced": traced, "cpu": cpu, "exit_code": proc.returncode,
              "timed_out": timed_out, "wall_s": None,
              "wall_clock_s": t1 - t0,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "loadavg_before": load_before, "loadavg_after": loadavg()}
    rec = None
    if proc.returncode == 0 and not timed_out:
        rec = json.loads(rec_path.read_text(encoding="utf-8"))
        rec_path.unlink()
        spans, probes = rec["spans"], rec["probes"]
        sample["wall_s"] = reference_seconds(t0, t1, probes)
        sample["slowdown"] = sample["wall_clock_s"] / sample["wall_s"]
        sample["probes"] = len(probes)
        sample["setup_s"] = (reference_seconds(t0, spans[0]["start"], probes)
                             if spans else None)
        sample["check_s"] = sum(reference_seconds(s["start"], s["end"], probes)
                                for s in spans)
        sample["spans"] = [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                           for s in spans]
        sample["enumerate_morphisms"] = rec["enumerate_morphisms"]
        if traced:
            sample["calls"] = rec["calls"]
    golden = wl.golden_path.read_text(encoding="utf-8")
    sample["verdicts"], sample["verdicts_failed"], sample["why"] = (
        check_verdicts(wl, rec, golden))
    if rec is not None and sample["setup_s"] is None:
        sample["verdicts_failed"] = sample["verdicts"]
        sample["why"] = "no checker call"
    sample["report"] = rec["report"] if rec is not None else None
    return sample


def median(samples, key):
    values = [s[key] for s in samples if s.get(key) is not None]
    return statistics.median(values) if values else None


def hit_ratio(counts: dict) -> float:
    calls = counts["hits"] + counts["misses"]
    return counts["hits"] / calls if calls else 0.0


def measure(wl, seed: int, seconds: float, traced: bool, deadline: float):
    """Run samples for `seconds`; return (samples, metrics)."""
    start = time.monotonic()
    # An untimed import: compiles the program's bytecode and warms the file
    # cache, so the first sample pays no more than the others.
    subprocess.run([sys.executable, "-c", "import extcheck.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    rng = random.Random(seed)
    cpus = sorted(os.sched_getaffinity(0))
    rng.shuffle(cpus)
    samples = []
    kinds = [False, True] if traced else [False]
    if traced and rng.random() < 0.5:
        kinds.reverse()
    while True:
        for kind in kinds:
            cpu = cpus[len(samples) % len(cpus)]
            samples.append(run_sample(wl, kind, cpu, deadline))
        if (time.monotonic() - start >= seconds
                or time.monotonic() >= deadline
                or any(s["verdicts_failed"] for s in samples)):
            break
    plain = [s for s in samples if not s["traced"]]
    if not traced:
        metrics = {name: median(plain, name) for name, _ in END_TO_END}
        return samples, metrics
    with_calls = [s for s in samples if "calls" in s]
    per_sample = [layer_metrics(s["calls"]) for s in with_calls]
    metrics = {}
    for name in (per_sample[0] if per_sample else {}):
        values = [m[name] for m in per_sample]
        # Counts repeat exactly; keep them whole numbers.
        exact = all(isinstance(v, int) for v in values)
        metrics[name] = (statistics.median_low if exact
                         else statistics.median)(values)
    if with_calls:
        metrics["core.enumerate_morphisms.hit_ratio"] = hit_ratio(
            with_calls[0]["enumerate_morphisms"])
    metrics["proc.cpu_s"] = median(plain, "cpu_s")
    metrics["proc.wall_clock_s"] = median(plain, "wall_clock_s")
    metrics["host.slowdown"] = median(plain, "slowdown")
    traced_wall = median([s for s in samples if s["traced"]], "wall_s")
    plain_wall = median(plain, "wall_s")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall
                                       if traced_wall and plain_wall else None)
    return samples, metrics


def units(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def report_run(wl, seed, traced, samples, metrics):
    """Print the human-readable summary and write the run record."""
    n_verdicts = sum(s["verdicts"] for s in samples)
    n_failed = sum(s["verdicts_failed"] for s in samples)
    per_sample = samples[0]["verdicts"] if samples else 0
    mode = "traced" if traced else "untraced"
    print(f"== {wl.name} (seed {seed}, {mode}, {len(samples)} cold samples)")
    for s in samples:
        tag = "traced  " if s["traced"] else "untraced"
        setup = s.get("setup_s")
        print(f"   sample {tag} wall-clock {s['wall_clock_s']:.3f} s"
              + (f"  wall {s['wall_s']:.3f} s  setup {setup:.3f} s  check "
                 f"{s['check_s']:.3f} s" if setup is not None else "")
              + f"  rss {s['peak_rss_mb']:.1f} MB  failed "
              f"{s['verdicts_failed']}/{s['verdicts']}"
              + (f"  ({s['why']})" if s["why"] else ""))
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {name:42s} {shown}")
    print(f"   verdicts_failed {n_failed} / verdicts_total {per_sample} per "
          f"sample ({n_failed} / {n_verdicts} over the run)")

    record = {
        "workload": wl.name, "seed": seed, "traced": traced,
        "commit": commit_hash(), "python": sys.version,
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "metrics": metrics,
        "samples": [{k: v for k, v in s.items()
                     if k not in ("calls", "report", "spans")}
                    for s in samples],
    }
    stem = f"{wl.name}-seed{seed}-trace{int(traced)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        write_trace(wl, seed, samples, OUT / f"{stem}-spans.json")
    return n_verdicts, n_failed


def write_trace(wl, seed, samples, path: Path) -> None:
    """Verdict-level spans (one trace per sample, children linked to the
    sample's root span) and each traced sample's call table."""
    spans, tables = [], []
    for i, s in enumerate(samples):
        trace_id = f"{wl.name}-{seed}-{i}"
        root = f"{trace_id}/0"
        spans.append({"trace_id": trace_id, "span_id": root,
                      "parent_id": None, "name": "sample",
                      "traced": s["traced"], "start": 0.0,
                      "end": s["wall_clock_s"]})
        for j, span in enumerate(s.get("spans", ()), start=1):
            spans.append(dict(span, trace_id=trace_id,
                              span_id=f"{trace_id}/{j}", parent_id=root))
        if "calls" in s:
            calls = s["calls"]
            tables.append({
                "trace_id": trace_id,
                "rows": [{"caller_layer": caller, "callee": key,
                          "layer": calls["layers"][key], "count": acc[0],
                          "total_s": acc[1], "self_s": acc[2]}
                         for key, by_caller in sorted(calls["calls"].items())
                         for caller, acc in sorted(by_caller.items())]})
    path.write_text(json.dumps({"spans": spans, "calls": tables}, indent=1)
                    + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "extcheck" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'extcheck'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    names = list(GATED) if args.workload == "all" else [args.workload]
    if args.workload == "all":
        random.Random(args.seed).shuffle(names)
    traced = bool(args.trace)
    wanted = units(traced)
    attempted = failed = 0
    out_metrics = {}
    for name in names:
        wl = WORKLOADS[name]
        limit = RUN_LIMIT_S if name in GATED else wl.timeout_s
        samples, metrics = measure(wl, args.seed, args.seconds, traced,
                                   time.monotonic() + limit)
        n, f = report_run(wl, args.seed, traced, samples, metrics)
        attempted += n
        failed += f
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in wanted.items():
            value = metrics.get(metric)
            if value is None:
                failed = failed or 1
                continue
            out_metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
