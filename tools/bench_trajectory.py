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

Then it times the command-line rows of ``CLI_ROWS`` under ``"cli"``: each
is run ``CLI_REPEATS`` times, each time in a fresh interpreter on this
tree's ``src``, and a row records the median wall time, the largest peak
RSS of the child and the exit code.

The file goes to the repository root.  The script uses the standard
library alone, only invokes ``perfbench/run.py`` and the tree's
``ccr_hopf.cli``, and changes nothing under ``perfbench/``.  A run that
exits non-zero or prints no result, and a CLI row whose runs exit with
different codes, stop it before any file is written.  The workloads took
about 40 s on a 2-core x86 host, as a run ends when its fixed number of
request cycles does, and the CLI rows about two minutes, most of it the
coproduct of ``(phi(0)+pi(0))^12``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("rewrite", "hopf", "numeric", "cli")
SEEDS = (1, 2, 3)
TRACE_SEED = 1
CLI_REPEATS = 3
_SUM_POWERS = [("normalize", "(phi(0)*pi(1)+pi(0)*phi(1))^{}"), ("coproduct", "(phi(0)+pi(0))^{}")]
# the baseline's command-line rows: the acceptance suite, cold starts of
# each command family, the collapsed Hopf sweep, the deep words, and the
# sum powers up to the first the free-product budget refuses (^13)
CLI_ROWS = [
    ["selftest", "--seed", "42"],
    ["normalize", "pi(0)*phi(0)"],
    ["fock", "spectrum", "--d", "2", "--nmax", "10", "--family", "uniform"],
    ["fock", "genfun", "--v", "1.0"],
    ["fock", "trend"],
    ["measure", "eta"],
    ["hopf-check", "--flavor", "deformed", "--variant", "deformed-collapsed", "--modes", "2",
     "--degree", "5"],
    ["normalize", "pi(0)^200*phi(0)^200"],
    ["coproduct", "phi(0)^400"],
    ["coproduct", "pi(0)^30*phi(0)^30"],
    ["normalize", "pi(0)^20*pi(1)^20*phi(0)^20*phi(1)^20", "--gram", "tests/golden/gram2.json"],
] + [[sub, text.format(n)] for sub, text in _SUM_POWERS for n in (10, 12, 13)]


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


def cli_run(argv: list) -> tuple:
    """(wall time in s, peak RSS in MB, exit code) of one cold run of the
    tree's ccr_hopf.cli on argv, its output discarded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ccr_hopf.cli", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, usage.ru_maxrss / 1024, proc.returncode


def cli_point(argv: list) -> dict:
    runs = [cli_run(argv) for _ in range(CLI_REPEATS)]
    codes = {code for _, _, code in runs}
    if len(codes) != 1:
        raise SystemExit(f"bench_trajectory: {' '.join(argv)} exited {sorted(codes)}")
    row = {"argv": argv, "exit": codes.pop(), "median_s": statistics.median(t for t, _, _ in runs),
           "peak_rss_mb": max(rss for _, rss, _ in runs), "runs_s": [t for t, _, _ in runs]}
    print(f"cli {' '.join(argv)}: exit {row['exit']}, {row['median_s']:.3g} s, "
          f"{row['peak_rss_mb']:.0f} MB", file=sys.stderr)
    return row


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
        "cli": {"repeats": CLI_REPEATS, "rows": [cli_point(row) for row in CLI_ROWS]},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
