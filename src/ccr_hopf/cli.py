"""Command line front end.

Every subcommand prints one JSON document to stdout (UTF-8, sorted keys)
and a short human-readable status line to stderr, so scripts can pipe
the data while a person watches the progress.  Exit codes: 0 when every
check in the invocation passed, 1 when a check failed, 2 for usage or
configuration errors.  CCR_HOPF_SEED in the environment overrides the
--seed flag; all randomness flows from that one seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np

from .algebra import (
    AlgebraError,
    BASIS_FIELD,
    BASIS_LADDER,
    DEFORMED_STRICT,
    Presentation,
    UNDEFORMED,
    adjoint,
    basis_convert,
    commutator,
    deformation_constant,
    evaluate_numeric,
    legal_letter_count,
    normal_form,
)
from .exprparse import ParseError, expr_to_text, parse_expr
from .fock import (
    BogoliubovSpec,
    FockError,
    ModeSpace,
    boundedness_trend,
    commutator_matrix,
    invariant_blocks,
    number_operator,
    phi_pi_matrices,
    restricted_norm,
    smallest_eigenvalues,
    transfer_rep,
    vacuum_generating_function,
)
from .hopf import (
    HopfError,
    HopfSpec,
    antipode,
    check_antipode,
    check_coassociativity,
    check_counit,
    check_multiplicativity,
    check_respects_relations,
    cocommutativity_probe,
    coproduct,
    counit,
)
from .measure import (
    GaussianModel,
    MeasureError,
    bochner_mc,
    cocycle_check,
    density_ratio_check,
    eta,
    positive_definiteness_check,
    random_test_function,
    weyl_relation_check,
)
from .reports import (
    axiom_report_json,
    dump_json,
    expr_json,
    expr_numeric_json,
    report_json,
    scalar_json,
    tensor_json,
)
from .scalars import ScalarError
from .selftest import run_selftest

_VARIANT_CHOICES = ("undeformed", "deformed", "deformed-strict", "deformed-collapsed")

# hopf-check name -> check(h, p, args, seed), in report order
_HOPF_CHECK_TABLE = {
    "coassociativity": lambda h, p, a, seed: check_coassociativity(h, p, a.degree, a.modes),
    "counit": lambda h, p, a, seed: check_counit(h, p, a.degree, a.modes),
    "antipode": lambda h, p, a, seed: check_antipode(h, p, a.degree, a.modes),
    "cocommutativity": lambda h, p, a, seed: cocommutativity_probe(h, p, a.degree, a.modes),
    "multiplicativity": lambda h, p, a, seed: check_multiplicativity(
        h, p, a.degree, a.modes, seed=seed
    ),
    "respects-relations": lambda h, p, a, seed: check_respects_relations(h, p, a.modes),
}
_HOPF_CHECKS = tuple(_HOPF_CHECK_TABLE)
# respects-relations is opt-in: with the idempotent identity in force it
# reports the structural 2*I(x)I finding, which is not a usage failure
_DEFAULT_CHECKS = tuple(n for n in _HOPF_CHECKS if n != "respects-relations")
# most candidate words one hopf-check may enumerate; degree 5 over the 7
# letters of a deformed presentation with 2 modes needs comb(12, 5) = 792
MAX_CHECK_WORDS = 1000


class CliError(ValueError):
    """Configuration problem surfaced with exit code 2."""


def _effective_seed(args) -> int:
    env = os.environ.get("CCR_HOPF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"CCR_HOPF_SEED must be an integer, got {env!r}")
    return args.seed


def _load_gram_rows(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            rows = json.load(fh)
        except ValueError as exc:
            raise CliError(f"gram file {path} is not valid JSON: {exc}")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise CliError(f"gram file {path} must hold a JSON list of rows")
    return rows


def _gram_array(rows) -> np.ndarray:
    def entry(x):
        if isinstance(x, str):
            return float(Fraction(x))
        if isinstance(x, (int, float)):
            return float(x)
        if isinstance(x, list) and len(x) == 2:
            return complex(float(x[0]), float(x[1]))
        raise CliError(f"cannot read gram entry {x!r}")

    return np.array([[entry(x) for x in row] for row in rows])


def _presentation(args) -> Presentation:
    variant = args.variant
    if variant == "deformed":
        variant = DEFORMED_STRICT
    if (args.q is None) != (args.c is None):
        raise CliError("numeric deformation needs both --q and --c")
    gram = _load_gram_rows(args.gram) if getattr(args, "gram", None) else None
    return Presentation(
        variant=variant,
        basis=args.basis,
        gram=gram,
        q=args.q,
        c=args.c,
    )


def _mode_space(args) -> ModeSpace:
    gram = None
    if getattr(args, "gram", None):
        gram = _gram_array(_load_gram_rows(args.gram))
    return ModeSpace(args.d, args.nmax, gram=gram)


def _model(args) -> GaussianModel:
    gram = None
    if getattr(args, "gram", None):
        gram = _gram_array(_load_gram_rows(args.gram)).astype(float)
    if getattr(args, "kmat", None):
        k = _gram_array(_load_gram_rows(args.kmat)).astype(float)
        return GaussianModel(k, gram=gram)
    if getattr(args, "scale", None) is not None:
        if args.scale <= 0:
            raise CliError("--scale must be positive")
        return GaussianModel(np.eye(args.d) / args.scale, gram=gram)
    return GaussianModel(math.sqrt(2.0) * np.eye(args.d), gram=gram)


def _vector(text: str, d: int | None = None) -> np.ndarray:
    try:
        v = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise CliError(f"cannot read vector {text!r}; use comma-separated floats")
    if not np.all(np.isfinite(v)):
        raise CliError(f"vector {text!r} has a non-finite entry")
    if d is not None and len(v) != d:
        raise CliError(f"vector {text!r} has {len(v)} entries, expected {d}")
    return v


def _config_echo(args, seed=None) -> dict:
    skip = {"func", "command", "output"}
    cfg = {}
    for k, v in sorted(vars(args).items()):
        if k in skip or callable(v):
            continue
        cfg[k.replace("_", "-")] = v
    if seed is not None:
        cfg["seed"] = seed
    cfg["format"] = "json"
    cfg["output"] = getattr(args, "output", None)
    return cfg


def _matrix_json(a) -> dict:
    a = np.asarray(a.toarray() if hasattr(a, "toarray") else a, dtype=complex)
    return {"im": a.imag.tolist(), "re": a.real.tolist()}


def _emit(doc: dict, args, passed: bool, summary: str) -> int:
    text = dump_json(doc)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    tag = "ok" if passed else "FAIL"
    print(f"{tag}: {summary}", file=sys.stderr)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Algebra commands

def _cmd_normalize(args) -> int:
    p = _presentation(args)
    e = parse_expr(args.expr)
    nf = normal_form(e, p, args.schedule)
    results = {"input": args.expr, "normal_form": expr_json(nf)}
    if args.numeric:
        results["normal_form_numeric"] = expr_numeric_json(evaluate_numeric(nf))
    doc = {
        "command": "normalize",
        "config": _config_echo(args),
        "passed": True,
        "results": results,
    }
    return _emit(doc, args, True, f"normalize -> {expr_to_text(nf)}")


def _cmd_commutator(args) -> int:
    p = _presentation(args)
    x = parse_expr(args.left)
    y = parse_expr(args.right)
    nf = commutator(x, y, p)
    doc = {
        "command": "commutator",
        "config": _config_echo(args),
        "passed": True,
        "results": {"commutator": expr_json(nf), "left": args.left, "right": args.right},
    }
    return _emit(doc, args, True, f"commutator -> {expr_to_text(nf)}")


def _cmd_adjoint(args) -> int:
    p = _presentation(args)
    e = parse_expr(args.expr)
    nf = adjoint(e, p)
    doc = {
        "command": "adjoint",
        "config": _config_echo(args),
        "passed": True,
        "results": {"adjoint": expr_json(nf), "input": args.expr},
    }
    return _emit(doc, args, True, f"adjoint -> {expr_to_text(nf)}")


def _cmd_convert(args) -> int:
    p = _presentation(args)
    e = parse_expr(args.expr)
    nf = basis_convert(e, args.to, p)
    doc = {
        "command": "convert",
        "config": _config_echo(args),
        "passed": True,
        "results": {"converted": expr_json(nf), "input": args.expr, "target": args.to},
    }
    return _emit(doc, args, True, f"convert -> {expr_to_text(nf)}")


def _flavor(args) -> HopfSpec:
    return HopfSpec.classical() if args.flavor == "classical" else HopfSpec.deformed()


def _cmd_coproduct(args) -> int:
    p = _presentation(args)
    h = _flavor(args)
    t = coproduct(parse_expr(args.expr), h, p)
    doc = {
        "command": "coproduct",
        "config": _config_echo(args),
        "passed": True,
        "results": {"coproduct": tensor_json(t), "input": args.expr},
    }
    return _emit(doc, args, True, f"coproduct of {args.expr}")


def _cmd_counit(args) -> int:
    _presentation(args)  # the counit needs no reduction; this validates flags
    h = _flavor(args)
    s = counit(parse_expr(args.expr), h)
    doc = {
        "command": "counit",
        "config": _config_echo(args),
        "passed": True,
        "results": {"counit": scalar_json(s), "input": args.expr},
    }
    return _emit(doc, args, True, f"counit of {args.expr}")


def _cmd_antipode(args) -> int:
    p = _presentation(args)
    h = _flavor(args)
    nf = antipode(parse_expr(args.expr), h, p)
    doc = {
        "command": "antipode",
        "config": _config_echo(args),
        "passed": True,
        "results": {"antipode": expr_json(nf), "input": args.expr},
    }
    return _emit(doc, args, True, f"antipode -> {expr_to_text(nf)}")


def _cmd_hopf_check(args) -> int:
    p = _presentation(args)
    h = _flavor(args)
    seed = _effective_seed(args)
    wanted = args.checks.split(",") if args.checks else list(_DEFAULT_CHECKS)
    for name in wanted:
        if name not in _HOPF_CHECKS:
            raise CliError(f"unknown check {name!r}; choose from {', '.join(_HOPF_CHECKS)}")
    if args.degree < 0:
        raise CliError("--degree must be non-negative")
    # the exhaustive checks normal-order every non-decreasing word of degree
    # <= --degree; each check builds at least its letter list (the degree-1
    # words), and respects-relations builds degree-2 relation words instead
    depth = max(2 if name == "respects-relations" else max(args.degree, 1) for name in wanted)
    letters = legal_letter_count(p, args.modes)
    words = math.comb(letters + depth, depth)
    if words > MAX_CHECK_WORDS:
        raise CliError(
            f"{words} candidate words up to degree {depth} over {letters} letters "
            f"exceed the budget of {MAX_CHECK_WORDS}; lower --degree or --modes"
        )
    reports = [_HOPF_CHECK_TABLE[name](h, p, args, seed) for name in wanted]
    passed = all(r.passed for r in reports)
    doc = {
        "command": "hopf-check",
        "config": _config_echo(args, seed=seed),
        "passed": passed,
        "results": {"reports": [axiom_report_json(r) for r in reports]},
    }
    failing = [r.axiom for r in reports if not r.passed]
    summary = "hopf-check all passed" if passed else f"hopf-check failed: {', '.join(failing)}"
    return _emit(doc, args, passed, summary)


# ---------------------------------------------------------------------------
# Fock commands

def _bogoliubov(args) -> BogoliubovSpec:
    if args.family == "fock":
        return BogoliubovSpec.fock(args.d)
    if args.family == "uniform":
        return BogoliubovSpec.uniform(args.d, args.r)
    return BogoliubovSpec.summable(args.d, args.r)


def _cmd_fock_matrices(args) -> int:
    m = _mode_space(args)
    phis, pis = phi_pi_matrices(m)
    doc = {
        "command": "fock matrices",
        "config": _config_echo(args),
        "passed": True,
        "results": {
            "dim": m.dim,
            "modes": [
                {"mode": j, "phi": _matrix_json(phis[j]), "pi": _matrix_json(pis[j])}
                for j in range(m.d)
            ],
            "states": [list(s) for s in m.states],
        },
    }
    return _emit(doc, args, True, f"fock matrices d={m.d} nmax={m.nmax} dim={m.dim}")


def _cmd_fock_spectrum(args) -> int:
    m = _mode_space(args)
    spec = _bogoliubov(args)
    n = number_operator(m, spec)
    vac = m.vacuum()
    occupancy = float(np.real(np.vdot(vac, n @ vac)))
    eigs = smallest_eigenvalues(n, args.k)
    sizes = invariant_blocks(n)[1]
    passed = not eigs or eigs[0] > -1e-8
    doc = {
        "command": "fock spectrum",
        "config": _config_echo(args),
        "passed": passed,
        "results": {
            "eigenvalues": list(eigs),
            "nonnegative_tolerance": 1e-8,
            "rs": list(spec.rs),
            "solver": {
                "blocks": len(sizes),
                "largest_block": int(sizes.max()),
                "method": "dense-blocks",
            },
            "vacuum_occupancy": occupancy,
        },
    }
    return _emit(doc, args, passed, f"fock spectrum min={eigs[0] if eigs else None}")


def _cmd_fock_genfun(args) -> int:
    m = _mode_space(args)
    spec = _bogoliubov(args)
    v = _vector(args.v, args.d)
    z = vacuum_generating_function(m, v, spec)
    results = {"value_im": z.imag, "value_re": z.real}
    passed = True
    if args.family == "fock" and not getattr(args, "gram", None):
        expected = math.exp(-float(v @ v) / 4.0)
        gap = abs(z - expected)
        passed = gap <= 1e-8
        results.update({"expected": expected, "error": gap, "tolerance": 1e-8})
    doc = {
        "command": "fock genfun",
        "config": _config_echo(args),
        "passed": passed,
        "results": results,
    }
    return _emit(doc, args, passed, f"fock genfun value={z.real:.12f}")


def _cmd_fock_transfer(args) -> int:
    seed = _effective_seed(args)
    m = _mode_space(args)
    rng = random.Random(f"{seed}:transfer-cli")
    v = _vector(args.v, args.d) if args.v else np.array([rng.gauss(0, 1) for _ in range(args.d)])
    w = _vector(args.w, args.d) if args.w else np.array([rng.gauss(0, 1) for _ in range(args.d)])
    q = args.q if args.q is not None else 1.5
    c = args.c if args.c is not None else 0.8
    rep = transfer_rep(m, q, c)
    comm = commutator_matrix(rep.pi(v), rep.phi(w))
    constant = deformation_constant(q, c)
    target = -1j * constant * float(v @ w) * np.eye(m.dim)
    residual = restricted_norm(m, comm - target, 2)
    passed = residual < 1e-12
    doc = {
        "command": "fock transfer",
        "config": _config_echo(args, seed=seed),
        "passed": passed,
        "results": {
            "c_qc": constant,
            "residual": residual,
            "scale": rep.scale,
            "tolerance": 1e-12,
            "v": list(map(float, v)),
            "w": list(map(float, w)),
        },
    }
    return _emit(doc, args, passed, f"fock transfer residual={residual:.3e}")


def _cmd_fock_trend(args) -> int:
    try:
        d_values = tuple(int(x) for x in args.dvalues.split(","))
    except ValueError:
        raise CliError(f"cannot read --dvalues {args.dvalues!r}; use comma-separated integers")
    trend = boundedness_trend(d_values=d_values, nmax=args.nmax)
    converged = all(r.converged for r in trend.uniform + trend.summable)
    passed = trend.slope_ratio >= 5.0 and converged
    doc = {
        "command": "fock trend",
        "config": _config_echo(args),
        "passed": passed,
        "results": {
            "converged": converged,
            "slope_ratio_floor": 5.0,
            "trend": report_json(trend),
        },
    }
    return _emit(doc, args, passed, f"fock trend slope_ratio={trend.slope_ratio:.2f}")


# ---------------------------------------------------------------------------
# Measure commands

def _cmd_measure_cocycle(args) -> int:
    seed = _effective_seed(args)
    model = _model(args)
    rng = random.Random(f"{seed}:cocycle-cli")
    worst_c = worst_r = 0.0
    for _ in range(args.samples):
        v = np.array([rng.gauss(0, 1) for _ in range(args.d)])
        vp = np.array([rng.gauss(0, 1) for _ in range(args.d)])
        u = np.array([rng.gauss(0, 1) for _ in range(args.d)])
        worst_c = max(worst_c, cocycle_check(model, v, vp, u))
        worst_r = max(worst_r, density_ratio_check(model, v, u))
    passed = worst_c < 1e-10 and worst_r < 1e-10
    doc = {
        "command": "measure cocycle",
        "config": _config_echo(args, seed=seed),
        "passed": passed,
        "results": {
            "cocycle_max_residual": worst_c,
            "density_ratio_max_residual": worst_r,
            "samples": args.samples,
            "tolerance": 1e-10,
        },
    }
    return _emit(doc, args, passed, f"measure cocycle max={max(worst_c, worst_r):.3e}")


def _cmd_measure_eta(args) -> int:
    seed = _effective_seed(args)
    model = _model(args)
    rng = random.Random(f"{seed}:eta-cli")
    pairs = []
    if args.v and args.u:
        pairs.append((_vector(args.v, args.d), _vector(args.u, args.d)))
    else:
        for _ in range(3):
            pairs.append(
                (
                    np.array([rng.gauss(0, 1) for _ in range(args.d)]),
                    np.array([rng.gauss(0, 1) for _ in range(args.d)]),
                )
            )
    worst = 0.0
    rows = []
    for v, u in pairs:
        want = -0.5 * float((model.C @ v) @ u)
        got = eta(model, v, u)
        err = abs(got - want)
        worst = max(worst, err)
        rows.append({"error": err, "estimate": got, "exact": want})
    passed = worst < 1e-8
    doc = {
        "command": "measure eta",
        "config": _config_echo(args, seed=seed),
        "passed": passed,
        "results": {"max_error": worst, "points": rows, "tolerance": 1e-8},
    }
    return _emit(doc, args, passed, f"measure eta max error={worst:.3e}")


def _cmd_measure_bochner(args) -> int:
    seed = _effective_seed(args)
    model = _model(args)
    if args.v:
        v = _vector(args.v, args.d)
    else:
        rng = random.Random(f"{seed}:bochner-cli")
        v = np.array([rng.gauss(0, 1) for _ in range(args.d)])
    est = bochner_mc(model, v, samples=args.samples, seed=seed)
    exact = model.Z(v)
    gap = abs(est.estimate - exact)
    passed = gap <= 3.0 * est.stderr
    doc = {
        "command": "measure bochner",
        "config": _config_echo(args, seed=seed),
        "passed": passed,
        "results": {
            "estimate_im": est.estimate.imag,
            "estimate_re": est.estimate.real,
            "exact": exact,
            "gap": gap,
            "samples": est.samples,
            "stderr": est.stderr,
            "tolerance": "3 standard errors",
            "v": list(map(float, v)),
        },
    }
    return _emit(doc, args, passed, f"measure bochner gap={gap:.3e} (3se={3*est.stderr:.3e})")


def _cmd_measure_weyl(args) -> int:
    seed = _effective_seed(args)
    model = _model(args)
    rng = random.Random(f"{seed}:weyl-cli")
    worst = 0.0
    for _ in range(args.count):
        v = np.array([rng.gauss(0, 1) for _ in range(args.d)])
        vp = np.array([rng.gauss(0, 1) for _ in range(args.d)])
        u = np.array([rng.gauss(0, 1) for _ in range(args.d)])
        f = random_test_function(rng, args.d)
        worst = max(worst, abs(weyl_relation_check(model, v, vp, f, u)))
    passed = worst < 1e-10
    doc = {
        "command": "measure weyl",
        "config": _config_echo(args, seed=seed),
        "passed": passed,
        "results": {"max_residual": worst, "points": args.count, "tolerance": 1e-10},
    }
    return _emit(doc, args, passed, f"measure weyl max residual={worst:.3e}")


def _cmd_measure_pd(args) -> int:
    seed = _effective_seed(args)
    model = _model(args)
    rng = random.Random(f"{seed}:pd-cli")
    vectors = [np.array([rng.gauss(0, 1) for _ in range(args.d)]) for _ in range(args.count)]
    min_eig = positive_definiteness_check(model.Z, vectors)
    passed = min_eig >= -1e-10
    doc = {
        "command": "measure pd-check",
        "config": _config_echo(args, seed=seed),
        "passed": passed,
        "results": {"min_eigenvalue": min_eig, "tolerance": -1e-10, "vectors": args.count},
    }
    return _emit(doc, args, passed, f"measure pd-check min eigenvalue={min_eig:.3e}")


# ---------------------------------------------------------------------------
# Selftest

def _cmd_selftest(args) -> int:
    seed = _effective_seed(args)
    doc = run_selftest(seed)
    doc = {
        "command": "selftest",
        "config": _config_echo(args, seed=seed),
        "passed": doc["passed"],
        "results": doc,
    }
    for c in doc["results"]["criteria"]:
        tag = "pass" if c["passed"] else "FAIL"
        print(f"criterion {c['criterion']:2d} [{tag}] {c['name']}", file=sys.stderr)
    return _emit(doc, args, doc["passed"], "selftest")


# ---------------------------------------------------------------------------
# Parser assembly

def _add_algebra_flags(sp, schedule=False):
    sp.add_argument("--variant", choices=_VARIANT_CHOICES, default=UNDEFORMED)
    sp.add_argument("--basis", choices=(BASIS_FIELD, BASIS_LADDER), default=BASIS_FIELD)
    sp.add_argument("--q", type=float, default=None, help="numeric deformation base")
    sp.add_argument("--c", type=float, default=None, help="numeric deformation exponent")
    sp.add_argument("--gram", default=None, help="JSON file with the gram matrix")
    if schedule:
        sp.add_argument("--schedule", choices=("leftmost", "rightmost"), default="leftmost")


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--output", default=None, help="write the JSON report here instead of stdout")


def _add_flavor(sp):
    sp.add_argument("--flavor", choices=("classical", "deformed"), default="classical")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ccr-hopf",
        description="Normal forms, Hopf-structure checks, and representation "
        "numerics for a deformed oscillator algebra.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="reduce an expression to normal form")
    p.add_argument("expr")
    p.add_argument("--numeric", action="store_true", help="also evaluate coefficients")
    _add_algebra_flags(p, schedule=True)
    _add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("commutator", help="normal form of [left, right]")
    p.add_argument("left")
    p.add_argument("right")
    _add_algebra_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("adjoint", help="star of an expression, reduced")
    p.add_argument("expr")
    _add_algebra_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_adjoint)

    p = sub.add_parser("convert", help="rewrite over the other generator basis")
    p.add_argument("expr")
    p.add_argument("--to", choices=(BASIS_FIELD, BASIS_LADDER), required=True)
    _add_algebra_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("coproduct", help="apply the coproduct")
    p.add_argument("expr")
    _add_flavor(p)
    _add_algebra_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_coproduct)

    p = sub.add_parser("counit", help="apply the counit")
    p.add_argument("expr")
    _add_flavor(p)
    _add_algebra_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_counit)

    p = sub.add_parser("antipode", help="apply the antipode")
    p.add_argument("expr")
    _add_flavor(p)
    _add_algebra_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_antipode)

    p = sub.add_parser("hopf-check", help="run coalgebra axiom checks")
    _add_flavor(p)
    p.add_argument("--degree", type=int, default=3, help="maximal word degree")
    p.add_argument("--modes", type=int, default=2)
    p.add_argument(
        "--checks",
        default=None,
        help="comma list from: " + ", ".join(_HOPF_CHECKS) + " (default: all but respects-relations)",
    )
    _add_algebra_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_hopf_check)

    pf = sub.add_parser("fock", help="truncated occupation-number numerics")
    fsub = pf.add_subparsers(dest="fock_command", required=True)

    p = fsub.add_parser("matrices", help="per-mode field and momentum matrices")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--gram", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_fock_matrices)

    p = fsub.add_parser("spectrum", help="lowest number-operator eigenvalues")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--gram", default=None)
    p.add_argument("--family", choices=("fock", "uniform", "summable"), default="fock")
    p.add_argument("--r", type=float, default=0.5 * math.log(2.0), help="squeezing parameter")
    p.add_argument("--k", type=int, default=5, help="how many eigenvalues")
    _add_common(p)
    p.set_defaults(func=_cmd_fock_spectrum)

    p = fsub.add_parser("genfun", help="vacuum generating function at v")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--gram", default=None)
    p.add_argument("--v", required=True, help="comma-separated coefficient vector")
    p.add_argument("--family", choices=("fock", "uniform", "summable"), default="fock")
    p.add_argument("--r", type=float, default=0.5 * math.log(2.0))
    _add_common(p)
    p.set_defaults(func=_cmd_fock_genfun)

    p = fsub.add_parser("transfer", help="deformed commutator residual")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--gram", default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--w", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_fock_transfer)

    p = fsub.add_parser("trend", help="number-operator growth comparison")
    p.add_argument("--nmax", type=int, default=30)
    p.add_argument("--dvalues", default="1,2,3")
    _add_common(p)
    p.set_defaults(func=_cmd_fock_trend)

    pm = sub.add_parser("measure", help="Gaussian measure checks")
    msub = pm.add_subparsers(dest="measure_command", required=True)

    def add_model_flags(q):
        q.add_argument("--d", type=int, default=2)
        q.add_argument("--kmat", default=None, help="JSON file with the covariance factor K")
        q.add_argument("--scale", type=float, default=None, help="use K = I/c for this c")
        q.add_argument("--gram", default=None)

    p = msub.add_parser("cocycle", help="cocycle identity and density ratio")
    add_model_flags(p)
    p.add_argument("--samples", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_measure_cocycle)

    p = msub.add_parser("eta", help="extrapolated shift derivative")
    add_model_flags(p)
    p.add_argument("--v", default=None)
    p.add_argument("--u", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_measure_eta)

    p = msub.add_parser("bochner", help="Monte-Carlo Fourier transform")
    add_model_flags(p)
    p.add_argument("--v", default=None)
    p.add_argument("--samples", type=int, default=100000)
    _add_common(p)
    p.set_defaults(func=_cmd_measure_bochner)

    p = msub.add_parser("weyl", help="pointwise Weyl relation residual")
    add_model_flags(p)
    p.add_argument("--count", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_measure_weyl)

    p = msub.add_parser("pd-check", help="positive definiteness of the transform")
    add_model_flags(p)
    p.add_argument("--count", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=_cmd_measure_pd)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_common(p)
    p.set_defaults(func=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"ccr-hopf: parse error: {exc}", file=sys.stderr)
        return 2
    except (CliError, AlgebraError, HopfError, FockError, MeasureError, ScalarError) as exc:
        print(f"ccr-hopf: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ccr-hopf: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
