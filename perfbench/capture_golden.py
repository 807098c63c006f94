"""Write golden/<workload>.json: each workload's structured report.

    python3 perfbench/capture_golden.py WORKLOAD [WORKLOAD ...]

Run once on the commit whose reports every later commit must reproduce
byte for byte.  Each workload runs once, in a fresh interpreter, through
the same child as the benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import HERE, ROOT, SRC, WORKLOADS


def main(names: list[str]) -> int:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for name in names:
        wl = WORKLOADS[name]
        rec_path = out / f"golden-{name}.json"
        subprocess.run([sys.executable, str(HERE / "child.py"), name,
                        str(rec_path)], check=True, cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=str(SRC)),
                       timeout=wl.timeout_s)
        rec = json.loads(rec_path.read_text(encoding="utf-8"))
        rec_path.unlink()
        wl.golden_path.write_text(rec["report"], encoding="utf-8")
        print(f"{wl.golden_path.relative_to(ROOT)}: "
              f"{len(rec['verdicts'])} verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
