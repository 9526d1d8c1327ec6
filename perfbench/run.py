"""Benchmark entry point.

    python3 perfbench/run.py --workload rewrite|hopf|numeric|cli --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in a fresh interpreter
(``worker.py``) with the BLAS thread count fixed at 1.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics when ``--trace 0``,
the per-layer metrics when ``--trace 1``.  The line before it records
the environment.  Exits non-zero, printing no result, when the package
sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import hostspeed
from workloads import WORKLOADS  # stdlib only; the package loads in the worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

BLAS_THREADS = 1
# fresh interpreters timed for setup_s, after one unmeasured warm-up
# (byte-code caches)
SETUP_SPAWNS = 5
DEADLINE_S = 170.0
E2E_UNITS = {"throughput_rps": "1/s", "latency_p50_s": "s", "latency_p90_s": "s",
             "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, extra, env):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line.strip()!r}")
    return proc, ready


def _setup_time(args, env):
    """(seconds from spawning a worker until it is ready, the same scaled
    to reference host speed).  The scale comes from host probes made in
    this process right before the spawn and in the worker right after
    it is ready (see hostspeed)."""
    before = [hostspeed.probe() for _ in range(5)]
    proc, ready = _spawn(args, ["--setup-only"], env)
    after = json.loads(proc.stdout.readline())
    proc.stdout.close()
    if proc.wait(timeout=60) != 0:
        raise RuntimeError(f"set-up run exited with {proc.returncode}")
    return ready, ready * hostspeed.REF_PROBE_S / statistics.median(before + after)


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _environment() -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "pythonhashseed": 0}
    for dist in ("numpy", "scipy"):
        try:
            info[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            info[dist] = "not installed"
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ccr-hopf benchmark")
    ap.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ccr_hopf", "__init__.py")):
        print("perfbench: src/ccr_hopf not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = _env()
    try:
        setup = []
        if not args.trace:
            _setup_time(args, env)
            setup = [_setup_time(args, env) for _ in range(SETUP_SPAWNS)]
        proc, _ = _spawn(args, [], env)
        result = _finish(proc, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for line in result.get("tiers", []):
        print(f"perfbench: tier {line}", file=sys.stderr)
    for line in result["unexpected"][:10]:
        print(f"perfbench: unexpected failure: {line}", file=sys.stderr)
    env_info = _environment()
    if args.trace:
        metrics = result["metrics"]
    else:
        metrics = {"setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"}}
        for name, value in result["metrics"].items():
            metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
        env_info["tier_margin_points"] = round(result["tier_margin"], 2)
        env_info["host_speed"] = result["host_speed"]
        env_info["host_probes"] = result["probes"]
        env_info["raw"] = dict(result["raw"], setup_s=statistics.median(r for r, _ in setup))
    print("# environment " + json.dumps(env_info, sort_keys=True))
    print(json.dumps({
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
