"""One workload run in a fresh interpreter (started by ``run.py``).

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``READY`` as soon as the package is imported and the first cycle
of requests is built; ``run.py`` times set-up up to that line.  With
``--setup-only`` it then prints the times of five host-speed probes and
stops.  Otherwise it prints one JSON line with the run's figures and
exits.

Untraced (``--trace 0``): a fixed number of whole cycles, set from
``--seconds`` (see ``Workload.cycles``), each followed by its oracle
pass.  Traced (``--trace 1``): a third as many cycles run three times: each
request untraced and with spans back to back, then the whole list under
``cProfile``.  The untraced answers are checked by the
oracles and their time is the base of ``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (imports no package module by itself)


def _execute(L, reqs, record=None, speed=None):
    """Run requests closed-loop; returns (latencies, outputs).  With a
    span recorder each request also gets a root span; with a
    ``HostSpeed`` the host is probed between requests and each latency
    comes back as (start, end)."""
    clock = time.perf_counter
    lat, outs = [], []
    for req in reqs:
        fn = workloads.EXECUTORS[req.kind]
        if record is not None:
            record.request = req.rid
            fn = record.wrap(f"request.{label(req)}", fn)
        if speed is not None:
            speed.tick()
        t0 = clock()
        try:
            out = fn(L, req.params)
        except Exception as exc:  # the program's failure, counted by the oracle pass
            out = exc
        t1 = clock()
        lat.append(t1 - t0 if speed is None else (t0, t1))
        outs.append(out)
    return lat, outs


def label(req) -> str:
    return req.params["name"] if req.kind == "cli" else req.kind


def _judge(reqs, outs):
    """Oracle pass: (failure count, lines for failures outside the known
    defects, largest eigenvalue error)."""
    import oracles

    failures, unexpected = 0, []
    eig_err = 0.0
    for req, out in zip(reqs, outs):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        elif req.kind == "spectrum":
            reason, err = oracles.check_spectrum(req.params, out)
            eig_err = max(eig_err, err)
        else:
            reason = oracles.CHECKS[req.kind](req.params, out)
        if reason is not None:
            failures += 1
            if req.defect is None or not oracles.DEFECTS[req.defect](req.params, out):
                unexpected.append(f"{label(req)}: {reason} :: {json.dumps(req.params, default=str)[:300]}")
    return failures, unexpected, eig_err


def _tier_layout(reqs, lat):
    """Tiers ordered by median latency with their cumulative share, and the
    distance of the 50th and 90th ranks from the nearest tier boundary."""
    by_tier = {}
    for req, x in zip(reqs, lat):
        by_tier.setdefault(req.tier, []).append(x)
    order = sorted(by_tier, key=lambda t: statistics.median(by_tier[t]))
    bounds, acc, rows = [], 0.0, []
    for t in order:
        share = 100.0 * len(by_tier[t]) / len(lat)
        rows.append(f"{t} {acc:.1f}-{acc + share:.1f}% med {statistics.median(by_tier[t]):.4f}s")
        acc += share
        bounds.append(acc)
    margin = min(abs(b - r) for b in bounds[:-1] for r in (50.0, 90.0)) if len(bounds) > 1 else 100.0
    return rows, margin


def _latency_metrics(lat):
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {"throughput_rps": len(lat) / sum(lat), "latency_p50_s": deciles[4],
            "latency_p90_s": deciles[8]}


def untraced(L, cycles):
    """Run the cycles; each cycle's answers are checked, outside the
    timed region, before the next cycle starts, and then dropped.
    Latencies are scaled to reference host speed (see ``hostspeed``)."""
    speed = hostspeed.HostSpeed()
    reqs, spans = [], []
    failures, unexpected = 0, []
    for cycle in cycles:
        for i, req in enumerate(cycle):
            req.rid = len(reqs) + i
        s, outs = _execute(L, cycle, speed=speed)
        speed.tick(force=True)
        reqs += cycle
        spans += s
        f, u, _ = _judge(cycle, outs)
        failures += f
        unexpected += u
        del outs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = [t1 - t0 for t0, t1 in spans]
    lat = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
    rows, margin = _tier_layout(reqs, lat)
    metrics = _latency_metrics(lat)
    metrics["peak_rss_mb"] = peak_rss_mb
    return {
        "attempted": len(reqs),
        "failed": failures,
        "unexpected": unexpected,
        "metrics": metrics,
        "raw": _latency_metrics(raw),
        "host_speed": hostspeed.REF_PROBE_S / statistics.median(speed.times),
        "probes": len(speed.times),
        "tiers": rows,
        "tier_margin": margin,
    }


SPAN_GROUPS = {
    "exprparse.parse_s": ("exprparse.parse_expr",),
    "algebra.nf_s": ("algebra.normal_form", "algebra.commutator", "algebra.basis_convert"),
    "hopf.check_s": ("hopf.check_coassociativity", "hopf.check_counit", "hopf.check_antipode",
                     "hopf.cocommutativity_probe", "hopf.check_multiplicativity",
                     "hopf.check_respects_relations"),
    "hopf.coproduct_s": ("hopf.coproduct",),
    "fock.eig_s": ("fock.smallest_eigenvalues",),
    "fock.build_s": ("fock.ModeSpace", "fock.number_operator", "fock.transfer_rep"),
    "fock.expr_matrix_s": ("fock.expr_matrix",),
    "fock.expm_s": ("fock.vacuum_generating_function",),
    "measure.mc_s": ("measure.bochner_mc",),
    "measure.check_s": ("measure.cocycle_check", "measure.density_ratio_check", "measure.eta",
                        "measure.weyl_relation_check", "measure.positive_definiteness_check"),
    "cli.main_s": ("cli.main",),
}


def traced(modules, reqs, tag):
    """Untraced, span and profile passes over the same requests."""
    import cProfile

    import tracing

    for i, req in enumerate(reqs):
        req.rid = i

    # untraced and span-traced runs of each request back to back, in
    # alternating order, so warm-up favours neither side of the overhead
    raw = workloads.Layers(modules)
    spans = tracing.Spans()
    with_spans = workloads.Layers(modules, spans)
    base_lat, span_lat, outs = [], [], []
    for req in reqs:
        for with_tracing in ((False, True) if req.rid % 2 == 0 else (True, False)):
            if with_tracing:
                lat, _ = _execute(with_spans, [req], spans)
                span_lat += lat
            else:
                lat, out = _execute(raw, [req])
                base_lat += lat
                outs += out
    # every leftmost miss of _reduce_word adds one key to the request's
    # own cache; counted before the oracles reduce words of their own
    words_reduced = sum(len(o["p"]._nf_cache) for o in outs
                        if not isinstance(o, Exception) and "p" in o)
    failures, unexpected, eig_err = _judge(reqs, outs)

    profile = cProfile.Profile()
    prof_lat = []
    for req in reqs:
        profile.enable()
        lat, _ = _execute(raw, [req])
        profile.disable()
        prof_lat += lat
    profile.create_stats()
    folded = tracing.layer_profile(profile.stats)
    spans.write(os.path.join(workloads.OUT_DIR, f"spans-{tag}.jsonl"))

    m = {}
    dur = spans.durations()
    for metric, names in SPAN_GROUPS.items():
        m[metric] = (sum(dur.get(n, 0.0) for n in names), "s")
    m["reports.serialize_s"] = (sum(v for k, v in dur.items() if k.startswith("reports.")), "s")
    selftest_ids = {r.rid for r in reqs if r.kind == "cli" and r.params["name"] == "selftest"}
    m["selftest.run_s"] = (sum((t1 - t0) * 1e-9 for _, _, rid, name, t0, t1 in spans.rows
                               if name == "cli.main" and rid in selftest_ids), "s")

    good = [o for o in outs if not isinstance(o, Exception)]
    m["reports.bytes_out"] = (sum(len(o["doc"].encode("utf-8")) for o in good), "bytes")
    m["algebra.terms_out"] = (sum(len(o["nf"].terms) if "nf" in o else len(o["t"].terms)
                                  for o in good if "nf" in o or "t" in o), "count")
    m["hopf.failures_reported"] = (sum(len(o["report"].failures) for o in good if "report" in o),
                                   "count")
    m["fock.eig_max_err"] = (eig_err, "abs")
    m["fock.nnz_total"] = (sum(o["nnz"] for o in good if "nnz" in o), "count")
    m["measure.mc_samples"] = (sum(o["est"].samples for o in good if "est" in o), "count")
    m["cli.exit_mismatch"] = (sum(1 for r, o in zip(reqs, outs) if r.kind == "cli"
                                  and (isinstance(o, Exception) or o["code"] != r.params["expect"])),
                              "count")
    m["failed_frac"] = (failures / len(reqs), "frac")

    calls = folded["func_calls"]
    callee = folded["callee_calls"]
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (folded["self_s"][layer], "s")
        m[f"{layer}.calls"] = (folded["calls"][layer], "count")
    m["algebra.nf_calls"] = (calls.get(("algebra", "normal_form"), 0), "count")
    m["algebra.rewrite_steps"] = (calls.get(("algebra", "_apply_redex"), 0), "count")
    m["algebra.words_reduced"] = (words_reduced, "count")
    m["fock.eig_dense_calls"] = (callee.get(("fock", "eigvalsh"), 0) + callee.get(("fock", "eigh"), 0),
                                 "count")
    m["fock.eig_lanczos_calls"] = (callee.get(("fock", "eigsh"), 0), "count")
    m["trace.overhead_frac"] = (sum(span_lat) / sum(base_lat) - 1.0, "frac")
    m["trace.profile_overhead_frac"] = (sum(prof_lat) / sum(base_lat) - 1.0, "frac")
    m["trace.requests"] = (len(reqs), "count")
    return {
        "attempted": len(reqs),
        "failed": failures,
        "unexpected": unexpected,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")

    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(f"{args.seed}:{args.workload}")
    if args.workload == "cli":
        workloads.cli_setup(rng)
    L = workloads.Layers(wl.modules)
    first = wl.cycle(rng, 0)
    print("READY", flush=True)
    if args.setup_only:
        print(json.dumps([hostspeed.probe() for _ in range(5)]), flush=True)
        return 0

    count = wl.cycles(args.seconds)
    if args.trace:
        # three passes over a third of the work, the last one under the
        # profiler, keep a traced run near 2x --seconds
        reqs = list(first)
        for index in range(1, max(1, count // 3)):
            reqs += wl.cycle(rng, index)
        tag = f"{args.workload}-seed{args.seed}"
        result = traced(wl.modules, reqs, tag)
    else:
        cycles = itertools.chain([first], (wl.cycle(rng, i) for i in range(1, count)))
        result = untraced(L, cycles)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
