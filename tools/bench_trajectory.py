"""One point of the benchmark trajectory: ``BENCH_<label>.json``.

    python tools/bench_trajectory.py --label 47

It runs ``perfbench/run.py`` on each of its four workloads (``rewrite``,
``hopf``, ``numeric`` and ``cli``), one run at a time: at seeds 1, 2 and 3
with ``--trace 0``, then once at seed 1 with ``--trace 1``, each for the
``run_seconds`` of ``BENCHMARK.json``.  It writes, per workload:

- the median of each end-to-end metric, with its unit and the untraced
  runs behind it: each run's seed, correctness, attempted and failed
  request counts, metrics and environment line;
- the traced run's per-layer metrics, among them the deterministic work
  counters (``algebra.words_reduced``, ``hopf.calls``, ``scalars.calls``,
  ``measure.mc_samples``, ...), with its counts and environment line.

The file goes to the repository root.  The script uses the standard
library alone, only invokes ``perfbench/run.py`` and changes nothing under
``perfbench/``.  A run that exits non-zero or prints no result stops it
before any file is written.  It took about 40 s on a 2-core x86 host: a
run ends when its fixed number of request cycles does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("rewrite", "hopf", "numeric", "cli")
SEEDS = (1, 2, 3)
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its result line, with its environment line
    under "environment"."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("# environment "):
        raise SystemExit(f"bench_trajectory: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2][len("# environment "):])
    return result


def workload_point(workload: str, seconds: float) -> dict:
    runs = []
    for seed in SEEDS:
        result = run(workload, seed, seconds, trace=0)
        metrics = result.pop("metrics")
        runs.append({"seed": seed, **result,
                     "metrics": {name: m["value"] for name, m in metrics.items()}})
        units = {name: m["unit"] for name, m in metrics.items()}
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name} {m['value']:.4g}" for name, m in sorted(metrics.items())), file=sys.stderr)
    traced = run(workload, TRACE_SEED, seconds, trace=1)
    return {
        "end_to_end": {name: {"median": statistics.median(r["metrics"][name] for r in runs),
                              "unit": unit}
                       for name, unit in sorted(units.items())},
        "runs": runs,
        "traced": {"seed": TRACE_SEED, **traced},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write one point of the benchmark trajectory")
    ap.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    doc = {
        "label": args.label,
        "command": ["python3", "perfbench/run.py"],
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {w: workload_point(w, seconds) for w in WORKLOADS},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
