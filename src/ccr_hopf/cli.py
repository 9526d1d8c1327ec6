"""Command line front end.

Every subcommand prints one JSON document to stdout (UTF-8, sorted keys)
and a short human-readable status line to stderr, so scripts can pipe
the data while a person watches the progress.  Exit codes: 0 when every
check in the invocation passed, 1 when a check failed, 2 for usage or
configuration errors.  CCR_HOPF_SEED in the environment overrides the
--seed flag of the seeded commands; all randomness flows from that one
seed, which must be a non-negative integer.

The parser is built from one table, ``COMMANDS``, with one row per
subcommand: its path, help text, function, whether it is seeded, and
its argument adders in --help order.  A command function takes the
parsed arguments and returns ``(results, passed, summary)``; ``_run``
builds the report document around it, writes it and prints the status
line.  Adding a command means one function plus one table row.

Each invocation pays only for what its command uses: the parser is built
once per process, and numpy, scipy and the ``fock``, ``measure`` and
``selftest`` modules are imported inside the commands that need them, so
the exact algebra commands never load them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from typing import Callable, NamedTuple

from .algebra import (
    BASIS_FIELD,
    BASIS_LADDER,
    DEFORMED_COLLAPSED,
    DEFORMED_STRICT,
    Presentation,
    UNDEFORMED,
    adjoint,
    basis_convert,
    commutator,
    evaluate_numeric,
    gram_entry,
    legal_letter_count,
    normal_form,
)
from .exprparse import ParseError, expr_to_text, parse_expr
from .hopf import (
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
from .reports import (
    axiom_report_json,
    dump_json,
    expr_json,
    expr_numeric_json,
    report_json,
    scalar_json,
    tensor_json,
)
from .scalars import CcrHopfError

# hopf-check name -> check(h, p, args), in report order
_HOPF_CHECK_TABLE = {
    "coassociativity": lambda h, p, a: check_coassociativity(h, p, a.degree, a.modes),
    "counit": lambda h, p, a: check_counit(h, p, a.degree, a.modes),
    "antipode": lambda h, p, a: check_antipode(h, p, a.degree, a.modes),
    "cocommutativity": lambda h, p, a: cocommutativity_probe(h, p, a.degree, a.modes),
    "multiplicativity": lambda h, p, a: check_multiplicativity(
        h, p, a.degree, a.modes, seed=a.seed
    ),
    "respects-relations": lambda h, p, a: check_respects_relations(h, p, a.modes),
}
_HOPF_CHECKS = tuple(_HOPF_CHECK_TABLE)
# respects-relations is opt-in: with the idempotent identity in force it
# reports the structural 2*I(x)I finding, which is not a usage failure
_DEFAULT_CHECKS = tuple(n for n in _HOPF_CHECKS if n != "respects-relations")
# most candidate words one hopf-check may enumerate; degree 5 over the 7
# letters of a deformed presentation with 2 modes needs comb(12, 5) = 792
MAX_CHECK_WORDS = 1000
# most Poisson weight exp(i phi(v))|0> may hold above the cutoff before fock
# genfun refuses to truncate it; runs inside the budget measured off by less
# than 1e-11 on one to three modes, far inside the 1e-8 check
GENFUN_TAIL_BUDGET = 1e-8


class CliError(CcrHopfError):
    """Configuration problem surfaced with exit code 2."""


def _load_gram_rows(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            rows = json.load(fh)
        except ValueError as exc:
            raise CliError(f"gram file {path} is not valid JSON: {exc}")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise CliError(f"gram file {path} must hold a JSON list of rows")
    return rows


def _gram_array(path: str, real: bool = False):
    """The matrix in a --gram/--kmat file, read entry by entry as a Gram
    reads its entries; real=True refuses a nonzero imaginary part."""
    import numpy as np

    rows = _load_gram_rows(path)
    if any(len(row) != len(rows) for row in rows):
        raise CliError(f"matrix file {path} must hold a square matrix")
    a = np.array([[gram_entry(x).to_complex() for x in row] for row in rows])
    if not real:
        return a
    if np.any(a.imag != 0):
        raise CliError(f"matrix file {path} has an entry with a nonzero imaginary part")
    return np.ascontiguousarray(a.real)


def _presentation(args) -> Presentation:
    variant = args.variant
    if variant == "deformed":
        variant = DEFORMED_STRICT
    if (args.q is None) != (args.c is None):
        raise CliError("numeric deformation needs both --q and --c")
    gram = _load_gram_rows(args.gram) if args.gram else None
    return Presentation(
        variant=variant,
        basis=args.basis,
        gram=gram,
        q=args.q,
        c=args.c,
    )


def _mode_space(args):
    from .fock import ModeSpace

    gram = _gram_array(args.gram) if args.gram else None
    return ModeSpace(args.d, args.nmax, gram=gram)


def _model(args):
    import numpy as np

    from .measure import GaussianModel

    if args.d < 1:
        raise CliError("--d must be positive")
    gram = _gram_array(args.gram, real=True) if args.gram else None
    if args.kmat:
        model = GaussianModel(_gram_array(args.kmat, real=True), gram=gram)
        if model.d != args.d:
            raise CliError(f"--kmat holds a {model.d} x {model.d} matrix but --d is {args.d}")
        return model
    if args.scale is not None:
        if args.scale <= 0:
            raise CliError("--scale must be positive")
        return GaussianModel(np.eye(args.d) / args.scale, gram=gram)
    return GaussianModel(math.sqrt(2.0) * np.eye(args.d), gram=gram)


def _vector(text: str, d: int | None = None):
    import numpy as np

    try:
        v = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise CliError(f"cannot read vector {text!r}; use comma-separated floats")
    if not np.all(np.isfinite(v)):
        raise CliError(f"vector {text!r} has a non-finite entry")
    if d is not None and len(v) != d:
        raise CliError(f"vector {text!r} has {len(v)} entries, expected {d}")
    return v


def _matrix_json(a) -> dict:
    import numpy as np

    a = np.asarray(a.toarray() if hasattr(a, "toarray") else a, dtype=complex)
    return {"im": a.imag.tolist(), "re": a.real.tolist()}


# ---------------------------------------------------------------------------
# Algebra commands: each returns (results, passed, summary)

def _cmd_normalize(args):
    p = _presentation(args)
    nf = normal_form(parse_expr(args.expr), p, args.schedule)
    results = {"input": args.expr, "normal_form": expr_json(nf)}
    if args.numeric:
        results["normal_form_numeric"] = expr_numeric_json(evaluate_numeric(nf))
    return results, True, f"normalize -> {expr_to_text(nf)}"


def _cmd_commutator(args):
    p = _presentation(args)
    nf = commutator(parse_expr(args.left), parse_expr(args.right), p)
    results = {"commutator": expr_json(nf), "left": args.left, "right": args.right}
    return results, True, f"commutator -> {expr_to_text(nf)}"


def _cmd_adjoint(args):
    p = _presentation(args)
    nf = adjoint(parse_expr(args.expr), p)
    return {"adjoint": expr_json(nf), "input": args.expr}, True, f"adjoint -> {expr_to_text(nf)}"


def _cmd_convert(args):
    p = _presentation(args)
    nf = basis_convert(parse_expr(args.expr), args.to, p)
    results = {"converted": expr_json(nf), "input": args.expr, "target": args.to}
    return results, True, f"convert -> {expr_to_text(nf)}"


def _flavor(args) -> HopfSpec:
    return HopfSpec.classical() if args.flavor == "classical" else HopfSpec.deformed()


def _cmd_coproduct(args):
    p = _presentation(args)
    t = coproduct(parse_expr(args.expr), _flavor(args), p)
    return {"coproduct": tensor_json(t), "input": args.expr}, True, f"coproduct of {args.expr}"


def _cmd_counit(args):
    s = counit(parse_expr(args.expr), _flavor(args), _presentation(args))
    return {"counit": scalar_json(s), "input": args.expr}, True, f"counit of {args.expr}"


def _cmd_antipode(args):
    p = _presentation(args)
    nf = antipode(parse_expr(args.expr), _flavor(args), p)
    return {"antipode": expr_json(nf), "input": args.expr}, True, f"antipode -> {expr_to_text(nf)}"


def _cmd_hopf_check(args):
    p = _presentation(args)
    h = _flavor(args)
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
    reports = [_HOPF_CHECK_TABLE[name](h, p, args) for name in wanted]
    passed = all(r.passed for r in reports)
    failing = [r.axiom for r in reports if not r.passed]
    summary = "hopf-check all passed" if passed else f"hopf-check failed: {', '.join(failing)}"
    return {"reports": [axiom_report_json(r) for r in reports]}, passed, summary


# ---------------------------------------------------------------------------
# Fock commands: these, the measure commands and selftest import the
# numeric modules when they run

def _bogoliubov(args):
    from .fock import BogoliubovSpec

    if args.family == "fock":
        return BogoliubovSpec.fock(args.d)
    if args.family == "uniform":
        return BogoliubovSpec.uniform(args.d, args.r)
    return BogoliubovSpec.summable(args.d, args.r)


def _cmd_fock_matrices(args):
    from .fock import phi_pi_matrices

    m = _mode_space(args)
    phis, pis = phi_pi_matrices(m)
    results = {
        "dim": m.dim,
        "modes": [
            {"mode": j, "phi": _matrix_json(phis[j]), "pi": _matrix_json(pis[j])}
            for j in range(m.d)
        ],
        "states": [list(s) for s in m.states],
    }
    return results, True, f"fock matrices d={m.d} nmax={m.nmax} dim={m.dim}"


def _cmd_fock_spectrum(args):
    import numpy as np

    from .fock import invariant_blocks, number_operator, smallest_eigenvalues

    m = _mode_space(args)
    spec = _bogoliubov(args)
    n = number_operator(m, spec)
    vac = m.vacuum()
    occupancy = float(np.real(np.vdot(vac, n @ vac)))
    eigs = smallest_eigenvalues(n, args.k)
    sizes = invariant_blocks(n)[1]
    passed = not eigs or eigs[0] > -1e-8
    results = {
        "eigenvalues": list(eigs),
        "nonnegative_tolerance": 1e-8,
        "rs": list(spec.rs),
        "solver": {
            "blocks": len(sizes),
            "largest_block": int(sizes.max()),
            "method": "dense-blocks",
        },
        "vacuum_occupancy": occupancy,
    }
    return results, passed, f"fock spectrum min={eigs[0] if eigs else None}"


def _poisson_tail(mu: float, n: int) -> float:
    """P(N > n) for N ~ Poisson(mu), summed on whichever side of n the
    terms fall off geometrically; math only, so scipy is not imported."""
    if mu == 0.0:
        return 0.0
    if math.isinf(mu):
        return 1.0
    k = n + 1 if n + 1 >= mu else n
    term = math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
    total = 0.0
    if k > n:  # above n the terms shrink by mu / k
        while term > total * 1e-17:
            total += term
            k += 1
            term *= mu / k
        return total
    while k >= 0 and term > total * 1e-17:  # up to n they shrink going down
        total += term
        term *= k / mu
        k -= 1
    return 1.0 - total


def _genfun_mean(m, v, spec) -> float:
    """Mean total occupation of exp(i phi(v))|0>, a coherent state for
    every family.  With w = m.coords(v), phi(v) = sum_j (alpha_j a+_j +
    conj(alpha_j) a-_j) / sqrt2 where alpha_j = Re(w_j) e^{r_j} +
    i Im(w_j) e^{-r_j}, since b+_j + b-_j = e^{r_j} (a+_j + a-_j).  So the
    mean is 1/2 sum_j |alpha_j|^2 and <0|exp(i phi(v))|0> = exp(-mean / 2)."""
    import numpy as np

    w, rs = m.coords(v), np.array(spec.rs)
    with np.errstate(over="ignore"):
        x, y = w.real * np.exp(rs), w.imag * np.exp(-rs)
        return 0.5 * float(x @ x + y @ y)


def _genfun_refusal(m, mu: float, weight: float) -> str:
    """Why the cutoff is too small, with the nmax the budget would need."""
    from .fock import MAX_STATES

    top = m.nmax  # the largest cutoff the state budget admits at this d
    while math.comb(m.d + top + 1, m.d) <= MAX_STATES:
        top += 1
    if _poisson_tail(mu, top) > GENFUN_TAIL_BUDGET:
        need = f"no --nmax within the {MAX_STATES}-state budget (at most {top} for d={m.d}) suffices"
    else:
        lo, hi = m.nmax, top  # the tail is over the budget at lo, within it at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _poisson_tail(mu, mid) > GENFUN_TAIL_BUDGET else (lo, mid)
        need = f"it needs --nmax {hi}"
    return (f"exp(i phi(v))|0> holds weight {weight:.3g} above nmax={m.nmax} (mean occupation "
            f"{mu:.4g}), over the budget of {GENFUN_TAIL_BUDGET:g}; {need}")


def _cmd_fock_genfun(args):
    from .fock import vacuum_generating_function

    m = _mode_space(args)
    spec = _bogoliubov(args)
    v = _vector(args.v, args.d)
    mu = _genfun_mean(m, v, spec)
    weight = _poisson_tail(mu, m.nmax)
    if weight > GENFUN_TAIL_BUDGET:
        raise CliError(_genfun_refusal(m, mu, weight))
    z = vacuum_generating_function(m, v, spec)
    results = {"value_im": z.imag, "value_re": z.real}
    passed = True
    if not args.gram:
        expected = math.exp(-mu / 2.0)
        gap = abs(z - expected)
        passed = gap <= 1e-8
        results.update({"expected": expected, "error": gap, "tolerance": 1e-8})
    return results, passed, f"fock genfun value={z.real:.12f}"


def _cmd_fock_transfer(args):
    from .fock import transfer_rep, transfer_residual
    from .measure import gauss_vector

    m = _mode_space(args)
    rng = random.Random(f"{args.seed}:transfer-cli")
    v = _vector(args.v, args.d) if args.v else gauss_vector(rng, args.d)
    w = _vector(args.w, args.d) if args.w else gauss_vector(rng, args.d)
    rep = transfer_rep(m, 1.5 if args.q is None else args.q, 0.8 if args.c is None else args.c)
    residual = transfer_residual(m, rep, v, w)
    results = {
        "c_qc": rep.constant,
        "residual": residual,
        "scale": rep.scale,
        "tolerance": 1e-12,
        "v": list(map(float, v)),
        "w": list(map(float, w)),
    }
    return results, residual < 1e-12, f"fock transfer residual={residual:.3e}"


def _cmd_fock_trend(args):
    from .fock import boundedness_trend

    try:
        d_values = tuple(int(x) for x in args.dvalues.split(","))
    except ValueError:
        raise CliError(f"cannot read --dvalues {args.dvalues!r}; use comma-separated integers")
    trend = boundedness_trend(d_values=d_values, nmax=args.nmax)
    converged = all(r.converged for r in trend.uniform + trend.summable)
    passed = trend.slope_ratio >= 5.0 and converged
    results = {"converged": converged, "slope_ratio_floor": 5.0, "trend": report_json(trend)}
    return results, passed, f"fock trend slope_ratio={trend.slope_ratio:.2f}"


# ---------------------------------------------------------------------------
# Measure commands

def _cmd_measure_cocycle(args):
    from .measure import cocycle_sweep

    model = _model(args)
    rng = random.Random(f"{args.seed}:cocycle-cli")
    worst_c, worst_r = cocycle_sweep(model, rng, args.samples)
    results = {
        "cocycle_max_residual": worst_c,
        "density_ratio_max_residual": worst_r,
        "samples": args.samples,
        "tolerance": 1e-10,
    }
    passed = worst_c < 1e-10 and worst_r < 1e-10
    return results, passed, f"measure cocycle max={max(worst_c, worst_r):.3e}"


def _cmd_measure_eta(args):
    from .measure import eta_error, gauss_vector

    model = _model(args)
    if bool(args.v) != bool(args.u):
        raise CliError("an explicit eta point needs both --v and --u")
    if args.v:
        pairs = [(_vector(args.v, args.d), _vector(args.u, args.d))]
    else:
        rng = random.Random(f"{args.seed}:eta-cli")
        pairs = [(gauss_vector(rng, args.d), gauss_vector(rng, args.d)) for _ in range(3)]
    worst = 0.0
    rows = []
    for v, u in pairs:
        err, got, want = eta_error(model, v, u)
        worst = max(worst, err)
        rows.append({"error": err, "estimate": got, "exact": want})
    results = {"max_error": worst, "points": rows, "tolerance": 1e-8}
    return results, worst < 1e-8, f"measure eta max error={worst:.3e}"


def _cmd_measure_bochner(args):
    from .measure import bochner_mc, gauss_vector

    model = _model(args)
    if args.v:
        v = _vector(args.v, args.d)
    else:
        v = gauss_vector(random.Random(f"{args.seed}:bochner-cli"), args.d)
    est = bochner_mc(model, v, samples=args.samples, seed=args.seed)
    exact = model.Z(v)
    gap = abs(est.estimate - exact)
    results = {
        "estimate_im": est.estimate.imag,
        "estimate_re": est.estimate.real,
        "exact": exact,
        "gap": gap,
        "samples": est.samples,
        "stderr": est.stderr,
        "tolerance": "3 standard errors",
        "v": list(map(float, v)),
    }
    summary = f"measure bochner gap={gap:.3e} (3se={3*est.stderr:.3e})"
    return results, gap <= 3.0 * est.stderr, summary


def _cmd_measure_weyl(args):
    from .measure import weyl_sweep

    model = _model(args)
    worst = weyl_sweep(model, random.Random(f"{args.seed}:weyl-cli"), args.count)
    results = {"max_residual": worst, "points": args.count, "tolerance": 1e-10}
    return results, worst < 1e-10, f"measure weyl max residual={worst:.3e}"


def _cmd_measure_pd(args):
    from .measure import gauss_vector, positive_definiteness_check

    model = _model(args)
    rng = random.Random(f"{args.seed}:pd-cli")
    vectors = [gauss_vector(rng, args.d) for _ in range(args.count)]
    min_eig = positive_definiteness_check(model.Z, vectors)
    results = {"min_eigenvalue": min_eig, "tolerance": -1e-10, "vectors": args.count}
    return results, min_eig >= -1e-10, f"measure pd-check min eigenvalue={min_eig:.3e}"


# ---------------------------------------------------------------------------
# Selftest

def _cmd_selftest(args):
    from .selftest import run_selftest

    doc = run_selftest(args.seed)
    for c in doc["criteria"]:
        tag = "pass" if c["passed"] else "FAIL"
        print(f"criterion {c['criterion']:2d} [{tag}] {c['name']}", file=sys.stderr)
    return doc, doc["passed"], "selftest"


# ---------------------------------------------------------------------------
# Command table and parser

def _arg(*names, **kw) -> Callable:
    return lambda parser: parser.add_argument(*names, **kw)


_EXPR = (_arg("expr"),)
_ALGEBRA = (
    _arg("--variant", choices=(UNDEFORMED, "deformed", DEFORMED_STRICT, DEFORMED_COLLAPSED),
         default=UNDEFORMED),
    _arg("--basis", choices=(BASIS_FIELD, BASIS_LADDER), default=BASIS_FIELD),
    _arg("--q", type=float, default=None, help="numeric deformation base"),
    _arg("--c", type=float, default=None, help="numeric deformation exponent"),
    _arg("--gram", default=None, help="JSON file with the gram matrix"),
)
_FLAVOR = (_arg("--flavor", choices=("classical", "deformed"), default="classical"),)
_COMMON = (
    _arg("--seed", type=int, default=42),
    _arg("--output", default=None, help="write the JSON report here instead of stdout"),
)


def _mode_space_flags(d: int) -> tuple:
    return (
        _arg("--d", type=int, default=d),
        _arg("--nmax", type=int, default=10),
        _arg("--gram", default=None),
    )


def _squeezing(**r_help) -> tuple:
    return (
        _arg("--family", choices=("fock", "uniform", "summable"), default="fock"),
        _arg("--r", type=float, default=0.5 * math.log(2.0), **r_help),
    )


_MODEL = (
    _arg("--d", type=int, default=2),
    _arg("--kmat", default=None, help="JSON file with the covariance factor K"),
    _arg("--scale", type=float, default=None, help="use K = I/c for this c"),
    _arg("--gram", default=None),
)


class Command(NamedTuple):
    path: str  # "normalize", or "<group> <name>" for a fock/measure command
    help: str
    run: Callable  # args -> (results, passed, summary)
    seeded: bool  # CCR_HOPF_SEED overrides --seed
    flags: tuple  # argument adders, in --help order


_GROUPS = {"fock": "truncated occupation-number numerics", "measure": "Gaussian measure checks"}

COMMANDS = (
    Command("normalize", "reduce an expression to normal form", _cmd_normalize, False,
            _EXPR + (_arg("--numeric", action="store_true", help="also evaluate coefficients"),)
            + _ALGEBRA
            + (_arg("--schedule", choices=("leftmost", "rightmost"), default="leftmost"),)
            + _COMMON),
    Command("commutator", "normal form of [left, right]", _cmd_commutator, False,
            (_arg("left"), _arg("right")) + _ALGEBRA + _COMMON),
    Command("adjoint", "star of an expression, reduced", _cmd_adjoint, False,
            _EXPR + _ALGEBRA + _COMMON),
    Command("convert", "rewrite over the other generator basis", _cmd_convert, False,
            _EXPR + (_arg("--to", choices=(BASIS_FIELD, BASIS_LADDER), required=True),)
            + _ALGEBRA + _COMMON),
    Command("coproduct", "apply the coproduct", _cmd_coproduct, False,
            _EXPR + _FLAVOR + _ALGEBRA + _COMMON),
    Command("counit", "apply the counit", _cmd_counit, False,
            _EXPR + _FLAVOR + _ALGEBRA + _COMMON),
    Command("antipode", "apply the antipode", _cmd_antipode, False,
            _EXPR + _FLAVOR + _ALGEBRA + _COMMON),
    Command("hopf-check", "run coalgebra axiom checks", _cmd_hopf_check, True,
            _FLAVOR + (
                _arg("--degree", type=int, default=3, help="maximal word degree"),
                _arg("--modes", type=int, default=2),
                _arg("--checks", default=None, help="comma list from: " + ", ".join(_HOPF_CHECKS)
                     + " (default: all but respects-relations)"),
            ) + _ALGEBRA + _COMMON),
    Command("fock matrices", "per-mode field and momentum matrices", _cmd_fock_matrices, False,
            _mode_space_flags(2) + _COMMON),
    Command("fock spectrum", "lowest number-operator eigenvalues", _cmd_fock_spectrum, False,
            _mode_space_flags(2) + _squeezing(help="squeezing parameter")
            + (_arg("--k", type=int, default=5, help="how many eigenvalues"),) + _COMMON),
    Command("fock genfun", "vacuum generating function at v", _cmd_fock_genfun, False,
            _mode_space_flags(1)
            + (_arg("--v", required=True, help="comma-separated coefficient vector"),)
            + _squeezing() + _COMMON),
    Command("fock transfer", "deformed commutator residual", _cmd_fock_transfer, True,
            _mode_space_flags(2) + (
                _arg("--q", type=float, default=None),
                _arg("--c", type=float, default=None),
                _arg("--v", default=None),
                _arg("--w", default=None),
            ) + _COMMON),
    Command("fock trend", "number-operator growth comparison", _cmd_fock_trend, False,
            (_arg("--nmax", type=int, default=30), _arg("--dvalues", default="1,2,3")) + _COMMON),
    Command("measure cocycle", "cocycle identity and density ratio", _cmd_measure_cocycle, True,
            _MODEL + (_arg("--samples", type=int, default=100),) + _COMMON),
    Command("measure eta", "extrapolated shift derivative", _cmd_measure_eta, True,
            _MODEL + (_arg("--v", default=None), _arg("--u", default=None)) + _COMMON),
    Command("measure bochner", "Monte-Carlo Fourier transform", _cmd_measure_bochner, True,
            _MODEL + (_arg("--v", default=None), _arg("--samples", type=int, default=100000))
            + _COMMON),
    Command("measure weyl", "pointwise Weyl relation residual", _cmd_measure_weyl, True,
            _MODEL + (_arg("--count", type=int, default=100),) + _COMMON),
    Command("measure pd-check", "positive definiteness of the transform", _cmd_measure_pd, True,
            _MODEL + (_arg("--count", type=int, default=8),) + _COMMON),
    Command("selftest", "run the full acceptance suite", _cmd_selftest, True, _COMMON),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args fills a fresh
    namespace on every call, and help is formatted when printed, so
    COLUMNS still applies."""
    ap = argparse.ArgumentParser(
        prog="ccr-hopf",
        description="Normal forms, Hopf-structure checks, and representation "
        "numerics for a deformed oscillator algebra.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for cmd in COMMANDS:
        group, _, name = cmd.path.rpartition(" ")
        if group and group not in groups:
            gp = sub.add_parser(group, help=_GROUPS[group])
            groups[group] = gp.add_subparsers(dest=f"{group}_command", required=True)
        p = (groups[group] if group else sub).add_parser(name, help=cmd.help)
        for add in cmd.flags:
            add(p)
        p.set_defaults(func=cmd)
    return ap


def _run(cmd: Command, args) -> int:
    """Run one command and write its report; the exit code is 0 or 1."""
    env = os.environ.get("CCR_HOPF_SEED")
    if cmd.seeded and env is not None:
        try:
            args.seed = int(env)
        except ValueError:
            raise CliError(f"CCR_HOPF_SEED must be an integer, got {env!r}")
    if cmd.seeded and args.seed < 0:
        raise CliError(f"the seed must be a non-negative integer, got {args.seed}")
    results, passed, summary = cmd.run(args)
    config = {k.replace("_", "-"): v for k, v in vars(args).items() if k not in ("command", "func")}
    config["format"] = "json"
    doc = {"command": cmd.path, "config": config, "passed": passed, "results": results}
    text = dump_json(doc) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"{'ok' if passed else 'FAIL'}: {summary}", file=sys.stderr)
    return 0 if passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args.func, args)
    except ParseError as exc:
        print(f"ccr-hopf: parse error: {exc}", file=sys.stderr)
        return 2
    except (CcrHopfError, OSError) as exc:
        print(f"ccr-hopf: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
