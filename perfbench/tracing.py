"""Tracing for the traced benchmark run.

Two independent instruments, used in separate passes over the same
requests so that one does not inflate the other:

* ``Spans`` wraps the public functions the benchmark calls into each
  ``ccr_hopf`` module and records one span per call (name, start, end,
  parent span, request id).  Spans stay in memory and are written once
  when the run ends.
* ``layer_profile`` groups a ``cProfile`` pass by ``ccr_hopf.<module>``.
  Time spent in stdlib or third-party callees (``Fraction`` arithmetic,
  numpy, scipy) is folded into the nearest calling ``ccr_hopf`` module,
  so nested layers such as ``scalars`` under ``algebra`` keep their own
  share.
"""

from __future__ import annotations

import json
import os
import time

LAYERS = (
    "scalars",
    "algebra",
    "hopf",
    "fock",
    "measure",
    "exprparse",
    "reports",
    "cli",
    "selftest",
)


class Spans:
    """In-memory span recorder for calls made from the benchmark's files."""

    def __init__(self):
        self.rows = []
        self.request = None
        self._stack = []
        self._next = 0

    def wrap(self, name, fn):
        rows, stack = self.rows, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rows.append((sid, parent, self.request, name, t0, t1))

        return traced

    def durations(self):
        """Total seconds per span name."""
        out = {}
        for _, _, _, name, t0, t1 in self.rows:
            out[name] = out.get(name, 0.0) + (t1 - t0) * 1e-9
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, rid, name, t0, t1 in self.rows:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "request": rid, "name": name,
                         "start_ns": t0, "end_ns": t1}
                    )
                    + "\n"
                )


def module_of(filename: str):
    """``ccr_hopf`` module name for a source path, else None."""
    head, tail = os.path.split(filename)
    if os.path.basename(head) == "ccr_hopf" and tail.endswith(".py"):
        name = tail[:-3]
        return name if name in LAYERS else None
    return None


def layer_profile(stats: dict) -> dict:
    """Fold a ``pstats.Stats(...).stats`` table into per-layer figures.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n},
    "func_calls": {(module, function): n}, "callee_calls": {(module,
    callee): n}}``.  A non-package function's own time is split among
    its callers in proportion to the cumulative time each caller spent
    in it, recursively, until a ``ccr_hopf`` frame is reached; time with
    no ``ccr_hopf`` frame above it (the benchmark's own loop) is left
    out.
    """
    layer = {f: module_of(f[0]) for f in stats}
    memo = {}

    def dist(f, active):
        if layer[f] is not None:
            return {layer[f]: 1.0}
        if f in memo:
            return memo[f]
        if f in active:
            return {}
        active.add(f)
        callers = stats[f][4]
        weights = {c: v[3] for c, v in callers.items() if c in stats and v[3] > 0}
        total = sum(weights.values())
        out = {}
        for c, w in weights.items():
            for name, share in dist(c, active).items():
                out[name] = out.get(name, 0.0) + share * w / total
        active.discard(f)
        memo[f] = out
        return out

    self_s = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    func_calls = {}
    callee_calls = {}
    for f, (_, nc, tt, _, callers) in stats.items():
        for name, share in dist(f, set()).items():
            self_s[name] += tt * share
        if layer[f] is not None:
            calls[layer[f]] += nc
            key = (layer[f], f[2])
            func_calls[key] = func_calls.get(key, 0) + nc
        for c, v in callers.items():
            if c in layer and layer[c] is not None:
                key = (layer[c], f[2])
                callee_calls[key] = callee_calls.get(key, 0) + v[0]
    return {"self_s": self_s, "calls": calls, "func_calls": func_calls,
            "callee_calls": callee_calls}
