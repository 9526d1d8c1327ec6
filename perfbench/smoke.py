"""Tiny-size smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs the cheap tiers of cycle 0 of every workload through the untraced
and the traced path, with every oracle, times one cold start per
workload, and prints every metric named in BENCHMARK.json with its unit.
Exits non-zero when an oracle cannot run, a request fails that is not
registered against a known defect, or a metric is missing.  It takes
about half a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

# the same BLAS threads as a benchmark worker, set before numpy loads
os.environ.update({k: v for k, v in run._env().items() if k.endswith("_NUM_THREADS")})

import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402

SEED = 1
# tiers each workload keeps here: its cheap requests only
SMOKE_TIERS = {
    "rewrite": ("cheap", "heavy-1"),
    "hopf": ("light",),
    "numeric": ("fast", "mid"),
    "cli": ("body", "heavy"),
}


def smoke_requests(name: str, seed: int) -> list:
    wl = workloads.WORKLOADS[name]
    rng = random.Random(f"{seed}:{name}")
    if name == "cli":
        workloads.cli_setup(rng)
    return [r for r in wl.cycle(rng, 0) if r.tier in SMOKE_TIERS[name]]


def main() -> int:
    warnings.simplefilter("ignore")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        reqs = smoke_requests(name, SEED)
        e2e = worker.untraced(workloads.Layers(wl.modules), [reqs])
        _, setup_s = run._setup_time(argparse.Namespace(workload=name, seed=SEED, seconds=0.0,
                                                        trace=0), run._env())
        metrics = {"setup_s": (setup_s, "s")}
        metrics.update({k: (v, run.E2E_UNITS[k]) for k, v in e2e["metrics"].items()})
        per_layer = worker.traced(wl.modules, smoke_requests(name, SEED), f"{name}-smoke")
        metrics.update({k: (v["value"], v["unit"]) for k, v in per_layer["metrics"].items()})
        print(f"== {name}: {e2e['attempted']} requests, {e2e['failed']} failed "
              f"({len(e2e['unexpected'])} outside known defects)")
        for m in spec["end_to_end"] + spec["per_layer"]:
            if m["name"] not in metrics:
                problems.append(f"{name}: metric {m['name']} missing")
                continue
            value, unit = metrics[m["name"]]
            if unit != m["unit"]:
                problems.append(f"{name}: {m['name']} in {unit}, BENCHMARK.json says {m['unit']}")
            print(f"  {m['name']:28s} {value:>14.6g} {unit}")
        problems += [f"{name}: {u}" for u in e2e["unexpected"] + per_layer["unexpected"]]
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
