"""Command line front end.

Every subcommand prints one JSON document to stdout (UTF-8, sorted keys)
and a short human-readable status line to stderr, so scripts can pipe
the data while a person watches the progress.  Exit codes: 0 when every
check in the invocation passed, 1 when a check failed, 2 for usage or
configuration errors.  All randomness of a seeded command flows from its
--seed, which must be a non-negative integer.

The parser is built from one table, ``COMMANDS``, with one row per
subcommand: its path, help text, function, whether it is seeded, and
its argument adders in --help order.  A command function takes the
parsed arguments and returns ``(results, passed, summary)``; ``_run``
builds the report document around it, writes it and prints the status
line.  Adding a command means one function plus one table row.

Each invocation pays only for what its command uses: the parser is built
once per process, and numpy and the ``fock``, ``measure`` and
``selftest`` modules are imported inside the commands that need them, so
the exact algebra commands never load them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
    normal_form,
)
from .exprparse import ParseError, parse_expr
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
    from .measure import GaussianModel

    if args.d < 1:
        raise CliError("--d must be positive")
    if args.kmat and args.scale is not None:
        raise CliError("--kmat and --scale each set the covariance factor K; give one of them")
    gram = _gram_array(args.gram, real=True) if args.gram else None
    if args.kmat:
        model = GaussianModel(_gram_array(args.kmat, real=True), gram=gram)
        if model.d != args.d:
            raise CliError(f"--kmat holds a {model.d} x {model.d} matrix but --d is {args.d}")
        return model
    if args.scale is not None:
        if args.scale <= 0:
            raise CliError("--scale must be positive")
        return GaussianModel.scaled(args.d, args.scale, gram=gram)
    return GaussianModel.fock(args.d, gram=gram)


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

    a = np.asarray(a.toarray(), dtype=complex)
    return {"im": a.imag.tolist(), "re": a.real.tolist()}


# ---------------------------------------------------------------------------
# Algebra commands: each returns (results, passed, summary)

def _cmd_normalize(args):
    p = _presentation(args)
    nf = normal_form(parse_expr(args.expr), p, args.schedule)
    report = expr_json(nf)
    results = {"input": args.expr, "normal_form": report}
    if args.numeric:
        results["normal_form_numeric"] = expr_numeric_json(evaluate_numeric(nf))
    return results, True, f"normalize -> {report['text']}"


def _cmd_commutator(args):
    p = _presentation(args)
    report = expr_json(commutator(parse_expr(args.left), parse_expr(args.right), p))
    results = {"commutator": report, "left": args.left, "right": args.right}
    return results, True, f"commutator -> {report['text']}"


def _cmd_adjoint(args):
    p = _presentation(args)
    report = expr_json(normal_form(adjoint(parse_expr(args.expr), p), p))
    return {"adjoint": report, "input": args.expr}, True, f"adjoint -> {report['text']}"


def _cmd_convert(args):
    p = _presentation(args)
    report = expr_json(basis_convert(parse_expr(args.expr), args.to, p))
    results = {"converted": report, "input": args.expr, "target": args.to}
    return results, True, f"convert -> {report['text']}"


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
    report = expr_json(antipode(parse_expr(args.expr), _flavor(args), p))
    return {"antipode": report, "input": args.expr}, True, f"antipode -> {report['text']}"


def _cmd_hopf_check(args):
    p = _presentation(args)
    h = _flavor(args)
    wanted = list(_DEFAULT_CHECKS) if args.checks is None else args.checks.split(",")
    for i, name in enumerate(wanted):
        if name not in _HOPF_CHECKS:
            raise CliError(f"unknown check {name!r}; choose from {', '.join(_HOPF_CHECKS)}")
        if name in wanted[:i]:
            raise CliError(f"check {name!r} is named more than once")
    if args.degree < 0:
        raise CliError("--degree must be non-negative")
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
    from .fock import matrices_budget, phi_pi_matrices

    matrices_budget(args.d, args.nmax)
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
    from .fock import number_operator, spectrum_check

    m = _mode_space(args)
    spec = _bogoliubov(args)
    n = number_operator(m, spec)
    fields, passed = spectrum_check(n, args.k)
    results = {**fields, "rs": list(spec.rs)}
    return results, passed, f"fock spectrum min={min(fields['eigenvalues'], default=None)}"


def _cmd_fock_genfun(args):
    from .fock import genfun_budget, genfun_check

    v = _vector(args.v, args.d)
    m = _mode_space(args)
    spec = _bogoliubov(args)
    genfun_budget(m, v, spec)
    fields, passed = genfun_check(m, v, spec)
    return fields, passed, f"fock genfun value={fields['value_re']:.12f}"


def _cmd_fock_transfer(args):
    from .fock import transfer_check, transfer_rep
    from .measure import gauss_vector

    # a given vector is read before the space is built, a drawn one after
    v, w = (_vector(text, args.d) if text else None for text in (args.v, args.w))
    m = _mode_space(args)
    rng = random.Random(f"{args.seed}:transfer-cli")
    v = gauss_vector(rng, args.d) if v is None else v
    w = gauss_vector(rng, args.d) if w is None else w
    rep = transfer_rep(m, args.q, args.c)
    fields, passed = transfer_check(rep, v, w)
    results = {**fields, "c_qc": rep.constant, "scale": rep.scale,
               "v": list(map(float, v)), "w": list(map(float, w))}
    return results, passed, f"fock transfer residual={fields['residual']:.3e}"


def _cmd_fock_trend(args):
    from .fock import SLOPE_RATIO_FLOOR, boundedness_trend

    try:
        d_values = tuple(int(x) for x in args.dvalues.split(","))
    except ValueError:
        raise CliError(f"cannot read --dvalues {args.dvalues!r}; use comma-separated integers")
    trend, passed = boundedness_trend(d_values=d_values, nmax=args.nmax)
    results = {"slope_ratio_floor": SLOPE_RATIO_FLOOR, "trend": trend}
    return results, passed, f"fock trend slope_ratio={trend['slope_ratio']:.2f}"


# ---------------------------------------------------------------------------
# Measure commands

def _cmd_measure_cocycle(args):
    from .measure import cocycle_sweep

    model = _model(args)
    fields, passed = cocycle_sweep(model, random.Random(f"{args.seed}:cocycle-cli"), args.samples)
    worst = max(fields["cocycle_max_residual"], fields["density_ratio_max_residual"])
    return {**fields, "samples": args.samples}, passed, f"measure cocycle max={worst:.3e}"


def _cmd_measure_eta(args):
    from .measure import eta_check, eta_error, eta_sweep

    model = _model(args)
    if bool(args.v) != bool(args.u):
        raise CliError("an explicit eta point needs both --v and --u")
    if args.v:
        points = [eta_error(model, _vector(args.v, args.d), _vector(args.u, args.d))]
    else:
        points = eta_sweep(model, random.Random(f"{args.seed}:eta-cli"), 3)
    fields, passed = eta_check(points)
    return fields, passed, f"measure eta max error={fields['max_error']:.3e}"


def _cmd_measure_bochner(args):
    from .measure import BOCHNER_SIGMAS, bochner_check, gauss_vector

    model = _model(args)
    if args.v:
        v = _vector(args.v, args.d)
    else:
        v = gauss_vector(random.Random(f"{args.seed}:bochner-cli"), args.d)
    fields, passed = bochner_check(model, v, args.samples, args.seed)
    results = {**fields, "samples": args.samples, "v": list(map(float, v))}
    bracket = BOCHNER_SIGMAS * fields["stderr"]
    summary = f"measure bochner gap={fields['gap']:.3e} ({BOCHNER_SIGMAS}se={bracket:.3e})"
    return results, passed, summary


def _cmd_measure_weyl(args):
    from .measure import weyl_sweep

    model = _model(args)
    fields, passed = weyl_sweep(model, random.Random(f"{args.seed}:weyl-cli"), args.count)
    summary = f"measure weyl max residual={fields['max_residual']:.3e}"
    return {**fields, "points": args.count}, passed, summary


def _cmd_measure_pd(args):
    from .measure import pd_sweep

    fields, passed = pd_sweep(_model(args), random.Random(f"{args.seed}:pd-cli"), args.count)
    summary = f"measure pd-check min eigenvalue={fields['min_eigenvalue']:.3e}"
    return {**fields, "vectors": args.count}, passed, summary


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
    seeded: bool  # refuses a negative --seed
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
                _arg("--q", type=float, default=1.5),
                _arg("--c", type=float, default=0.8),
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
