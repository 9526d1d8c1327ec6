"""The acceptance suite: thirteen numbered checks covering the rewrite
engine, the coalgebra layer, both representation backends, and the
reporting pipeline itself.

Each criterion function returns a JSON-plain dict with a "passed" flag
and every measured float sitting next to the tolerance it was judged
against.  ``run_selftest`` executes checks 1 through 12 twice and makes
byte-equality of the two serialized halves criterion 13, so determinism
is part of the contract rather than an afterthought.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .algebra import (
    BASIS_LADDER,
    DEFORMED_COLLAPSED,
    DEFORMED_STRICT,
    Expr,
    Presentation,
    commutator,
    deformation_constant,
    expand_k,
    gen_I,
    gen_K,
    gen_Kinv,
    normal_form,
    phi,
    pi,
    random_expr,
    random_word,
    word_text,
)
from .exprparse import expr_to_text
from .fock import (
    ModeSpace,
    boundedness_trend,
    expr_matrix,
    ladder_of,
    restricted_norm,
    transfer_rep,
    transfer_residual,
    vacuum_generating_function,
)
from .hopf import (
    HopfSpec,
    check_antipode,
    check_coassociativity,
    check_counit,
    check_multiplicativity,
    check_respects_relations,
    cocommutativity_probe,
    tensor_of,
)
from .measure import (
    GaussianModel,
    bochner_mc,
    cocycle_sweep,
    eta_error,
    gauss_vector,
    weyl_sweep,
)
from .reports import axiom_report_json, dump_json, report_json
from .scalars import IMAG, KAPPA, S_PARAM, Scalar


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def criterion_01(seed: int) -> dict:
    """Exact CCR normal forms for the momentum-field commutator."""
    strict = Presentation(variant=DEFORMED_STRICT)
    plain = Presentation()
    got_deformed = commutator(pi(0), phi(0), strict)
    want_deformed = gen_I() * (-(IMAG * KAPPA))
    got_plain = commutator(pi(0), phi(0), plain)
    want_plain = gen_I() * (-IMAG)
    ok = got_deformed == want_deformed and got_plain == want_plain
    return {
        "criterion": 1,
        "name": "exact-ccr-normal-forms",
        "passed": bool(ok),
        "tolerance": 0.0,
        "details": {
            "deformed": expr_to_text(got_deformed),
            "deformed_expected": expr_to_text(want_deformed),
            "undeformed": expr_to_text(got_plain),
            "undeformed_expected": expr_to_text(want_plain),
        },
    }


def criterion_02(seed: int) -> dict:
    """1000 random words reduce identically under both rewrite schedules:
    the memoized insertion engine (leftmost) and the reference stack
    walker (rightmost)."""
    rng = _rng(seed, "confluence")
    plans = [
        (Presentation(variant=DEFORMED_STRICT), 500),
        (Presentation(basis=BASIS_LADDER), 250),
        (Presentation(variant=DEFORMED_COLLAPSED), 250),
    ]
    mismatches = []
    total = 0
    for p, count in plans:
        for _ in range(count):
            w = random_word(rng, p, max_degree=8, modes=4)
            total += 1
            e = Expr.from_word(w)
            if normal_form(e, p, "leftmost") != normal_form(e, p, "rightmost"):
                mismatches.append(word_text(w))
    return {
        "criterion": 2,
        "name": "confluence-two-schedules",
        "passed": not mismatches,
        "tolerance": 0.0,
        "details": {
            "mismatches": mismatches[:10],
            "words_checked": total,
        },
    }


def criterion_03(seed: int) -> dict:
    """K-collapse identity, symbolically and at 20 numeric points."""
    collapsed = Presentation(variant=DEFORMED_COLLAPSED)
    got = expand_k(gen_K() ** 2 - gen_Kinv() ** 2, collapsed)
    want = gen_I() * (S_PARAM ** 2 - S_PARAM ** -2)
    rng = _rng(seed, "collapse")
    worst = 0.0
    for _ in range(20):
        q = rng.uniform(0.2, 3.0)
        if abs(q - 1.0) < 1e-2:
            q += 0.05
        c = rng.uniform(0.2, 3.0)
        s = q ** (c / 2.0)
        ratio = (s * s - 1.0 / (s * s)) / (c * (q - 1.0 / q))
        worst = max(worst, abs(ratio - deformation_constant(q, c)))
    ok = got == want and worst < 1e-12
    return {
        "criterion": 3,
        "name": "k-collapse-identity",
        "passed": bool(ok),
        "details": {
            "symbolic": expr_to_text(got),
            "symbolic_expected": expr_to_text(want),
            "numeric_max_error": worst,
            "numeric_tolerance": 1e-12,
            "points": 20,
        },
    }


def criterion_04(seed: int) -> dict:
    """Special values of the deformation constant."""
    rng = _rng(seed, "special")
    worst_c1 = max(
        abs(deformation_constant(rng.uniform(0.1, 5.0), 1.0) - 1.0) for _ in range(100)
    )
    worst_limit = 0.0
    for _ in range(20):
        c = rng.uniform(0.2, 4.0)
        for q in (1.0 + 1e-5, 1.0 - 1e-5):
            worst_limit = max(worst_limit, abs(deformation_constant(q, c) - 1.0))
    ok = worst_c1 <= 1e-12 and worst_limit < 1e-8
    return {
        "criterion": 4,
        "name": "deformation-constant-special-cases",
        "passed": bool(ok),
        "details": {
            "c_equals_1_max_error": worst_c1,
            "c_equals_1_tolerance": 1e-12,
            "q_near_1_max_error": worst_limit,
            "q_near_1_tolerance": 1e-8,
        },
    }


def criterion_05(seed: int) -> dict:
    """Classical coalgebra axioms over the strict presentation, degree 3."""
    h = HopfSpec.classical()
    p = Presentation(variant=DEFORMED_STRICT)
    reports = [
        check_coassociativity(h, p, degree=3, modes=2),
        check_counit(h, p, degree=3, modes=2),
        check_antipode(h, p, degree=3, modes=2),
        cocommutativity_probe(h, p, degree=3, modes=2),
    ]
    return {
        "criterion": 5,
        "name": "classical-hopf-axioms",
        "passed": all(r.passed for r in reports),
        "tolerance": 0.0,
        "details": {"reports": [axiom_report_json(r) for r in reports]},
    }


def criterion_06(seed: int) -> dict:
    """Deformed coproduct: multiplicative, counital, antipodal; fails
    cocommutativity with the recorded witness until s = 1."""
    h = HopfSpec.deformed()
    strict = Presentation(variant=DEFORMED_STRICT)
    axioms = [
        check_multiplicativity(h, strict, degree=2, modes=2, seed=seed),
        check_counit(h, strict, degree=2, modes=2),
        check_antipode(h, strict, degree=2, modes=2),
    ]
    probe = cocommutativity_probe(h, strict, degree=1, modes=1)
    expected = tensor_of(phi(0), gen_K() - gen_Kinv()) + tensor_of(
        gen_Kinv() - gen_K(), phi(0)
    )
    by_witness = {f.witness: f.residual for f in probe.failures}
    witness_ok = (
        probe.status == "fail"
        and "phi(0)" in by_witness
        and by_witness["phi(0)"] == expected
    )
    # s = 1 sits at q = 1, where the collapsed K letters expand to the unit
    at_one = cocommutativity_probe(
        h, Presentation(variant=DEFORMED_COLLAPSED, q=1.0, c=1.0), degree=2, modes=2
    )
    ok = all(r.passed for r in axioms) and witness_ok and at_one.passed
    return {
        "criterion": 6,
        "name": "deformed-hopf-axioms",
        "passed": bool(ok),
        "tolerance": 0.0,
        "details": {
            "axioms": [axiom_report_json(r) for r in axioms],
            "cocommutativity_witness": axiom_report_json(probe),
            "cocommutativity_at_s_equals_1": axiom_report_json(at_one),
            "witness_matches_recorded_residual": bool(witness_ok),
        },
    }


def criterion_07(seed: int) -> dict:
    """Collapsed-mode diagnostics: the primitive Delta(I) residuals on
    I*I = I are exactly 2 I(x)I and 2 I, recorded as a finding."""
    rep = check_respects_relations(
        HopfSpec.classical(), Presentation(variant=DEFORMED_COLLAPSED), modes=2
    )
    two = Scalar.rational(2)
    want = {
        "Delta on I*I = I": tensor_of(gen_I(), gen_I()) * two,
        "S on I*I = I": gen_I() * two,
    }
    got = {f.witness: f.residual for f in rep.failures}
    ok = (
        set(got) == set(want)
        and all(got[k] == want[k] for k in want)
        and len(rep.notes) > 0
    )
    return {
        "criterion": 7,
        "name": "idempotent-identity-finding",
        "passed": bool(ok),
        "tolerance": 0.0,
        "details": {
            "report": axiom_report_json(rep),
            "expected_residuals": {
                "Delta on I*I = I": str(want["Delta on I*I = I"]),
                "S on I*I = I": expr_to_text(want["S on I*I = I"]),
            },
            "recorded_as_finding": len(rep.notes) > 0,
        },
    }


def criterion_08(seed: int) -> dict:
    """Truncated ladder CCR and the vacuum generating function."""
    rng = _rng(seed, "fock")
    m = ModeSpace(2, 10)
    eye = np.eye(m.dim)
    worst_ccr = 0.0
    for _ in range(5):
        v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)])
        w = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)])
        ap_v, am_v = ladder_of(m, v)
        ap_w, am_w = ladder_of(m, w)
        comm = (am_v @ ap_w - ap_w @ am_v) - np.vdot(v, w) * eye
        worst_ccr = max(worst_ccr, restricted_norm(m, comm, 2))
    target = math.exp(-0.25)
    errs = []
    for nmax in (5, 10, 20, 40):
        z = vacuum_generating_function(ModeSpace(1, nmax), [1.0])
        errs.append(abs(z - target))
    monotone = all(b < a or b < 1e-12 for a, b in zip(errs, errs[1:]))
    ok = worst_ccr < 1e-12 and errs[2] < 1e-8 and monotone
    return {
        "criterion": 8,
        "name": "fock-ccr-and-generating-function",
        "passed": bool(ok),
        "details": {
            "ccr_max_residual": worst_ccr,
            "ccr_tolerance": 1e-12,
            "genfun_error_nmax20": errs[2],
            "genfun_tolerance": 1e-8,
            "truncation_errors": {
                "nmax=5": errs[0],
                "nmax=10": errs[1],
                "nmax=20": errs[2],
                "nmax=40": errs[3],
            },
            "monotone": bool(monotone),
        },
    }


def criterion_09(seed: int) -> dict:
    """Matrices do not see the difference between an expression and its
    normal form: 200 random elements, four presentations."""
    rng = _rng(seed, "functor")
    m = ModeSpace(2, 10)
    configs = [
        (Presentation(), 1.0, 1.0),
        (Presentation(variant=DEFORMED_STRICT), 1.3, 0.7),
        (Presentation(variant=DEFORMED_STRICT, basis=BASIS_LADDER), 1.7, 1.1),
        (Presentation(variant=DEFORMED_COLLAPSED), 0.8, 1.9),
    ]
    worst = 0.0
    for k in range(200):
        p, q, c = configs[k % len(configs)]
        e = random_expr(rng, p, max_degree=3, modes=2)
        a = expr_matrix(e, m, p, q=q, c=c)
        b = expr_matrix(normal_form(e, p), m, p, q=q, c=c)
        worst = max(worst, restricted_norm(m, a - b, 3))
    return {
        "criterion": 9,
        "name": "normal-form-representation-functor",
        "passed": worst < 1e-10,
        "details": {
            "max_residual": worst,
            "tolerance": 1e-10,
            "expressions": 200,
        },
    }


def criterion_10(seed: int) -> dict:
    """Transfer representation: deformed momentum against the field."""
    rng = _rng(seed, "transfer")
    m = ModeSpace(2, 10)
    worst = 0.0
    for _ in range(20):
        q = rng.uniform(0.3, 2.5)
        c = rng.uniform(0.3, 2.5)
        v = gauss_vector(rng, 2)
        w = gauss_vector(rng, 2)
        worst = max(worst, transfer_residual(m, transfer_rep(m, q, c), v, w))
    return {
        "criterion": 10,
        "name": "transfer-representation-ccr",
        "passed": worst < 1e-12,
        "details": {"max_residual": worst, "tolerance": 1e-12, "points": 20},
    }


def criterion_11(seed: int) -> dict:
    """Number-operator cost of the squeezed vacuum: linear growth d/8
    for uniform squeezing against a plateau for the summable family.

    The truncated operator keeps the squeezed vacuum inside the cutoff,
    so its smallest eigenvalue is numerically zero for both families;
    the quantity that separates them is the vacuum occupancy, which the
    trend report carries per d."""
    trend = boundedness_trend(d_values=(1, 2, 3), nmax=30)
    uniform = [r.vacuum_occupancy for r in trend.uniform]
    summable = [r.vacuum_occupancy for r in trend.summable]
    rel_errors = [abs(occ - (d / 8.0)) / (d / 8.0) for d, occ in zip((1, 2, 3), uniform)]
    increments = [b - a for a, b in zip(summable, summable[1:])]
    plateau = increments[1] < 0.5 * increments[0]
    converged = all(r.converged for r in trend.uniform + trend.summable)
    ok = (
        max(rel_errors) <= 0.02
        and trend.slope_ratio >= 5.0
        and plateau
        and converged
    )
    return {
        "criterion": 11,
        "name": "number-operator-growth-trend",
        "passed": bool(ok),
        "details": {
            "uniform_occupancy": uniform,
            "uniform_relative_errors": rel_errors,
            "uniform_tolerance": 0.02,
            "summable_occupancy": summable,
            "summable_increments": increments,
            "slope_ratio": trend.slope_ratio,
            "slope_ratio_floor": 5.0,
            "trend": report_json(trend),
        },
    }


def criterion_12(seed: int) -> dict:
    """Gaussian measure layer: cocycle identity, Radon-Nikodym ratio,
    eta extrapolation, Bochner Monte Carlo, and the Weyl relation."""
    rng = _rng(seed, "measure")
    models = [
        ("sqrt2-identity", GaussianModel.fock(2)),
        ("triangular", GaussianModel(np.array([[1.0, 0.3], [0.0, 2.0]]))),
    ]
    worst_cocycle = 0.0
    worst_ratio = 0.0
    worst_eta = 0.0
    worst_weyl = 0.0
    bochner = {}
    bochner_ok = True
    for idx, (label, model) in enumerate(models):
        cocycle, ratio = cocycle_sweep(model, rng, 100)
        worst_cocycle = max(worst_cocycle, cocycle)
        worst_ratio = max(worst_ratio, ratio)
        for _ in range(10):
            v = gauss_vector(rng, 2)
            u = gauss_vector(rng, 2)
            worst_eta = max(worst_eta, eta_error(model, v, u)[0])
        worst_weyl = max(worst_weyl, weyl_sweep(model, rng, 50))
        v = np.array([1.0, 0.5]) if idx == 0 else np.array([0.3, -1.0])
        est = bochner_mc(model, v, samples=100000, seed=seed + idx)
        gap = abs(est.estimate - model.Z(v))
        within = gap <= 3.0 * est.stderr
        bochner_ok = bochner_ok and within
        bochner[label] = {
            "estimate_re": est.estimate.real,
            "estimate_im": est.estimate.imag,
            "exact": model.Z(v),
            "gap": gap,
            "stderr": est.stderr,
            "tolerance": "3 standard errors",
            "within_3_sigma": bool(within),
        }
    ok = (
        worst_cocycle < 1e-10
        and worst_ratio < 1e-10
        and worst_eta < 1e-8
        and worst_weyl < 1e-10
        and bochner_ok
    )
    return {
        "criterion": 12,
        "name": "gaussian-measure-checks",
        "passed": bool(ok),
        "details": {
            "cocycle_max_residual": worst_cocycle,
            "cocycle_tolerance": 1e-10,
            "density_ratio_max_residual": worst_ratio,
            "density_ratio_tolerance": 1e-10,
            "eta_max_error": worst_eta,
            "eta_tolerance": 1e-8,
            "weyl_max_residual": worst_weyl,
            "weyl_tolerance": 1e-10,
            "bochner": bochner,
        },
    }


CRITERION_FUNCS = (
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_criteria(seed: int) -> list:
    return [f(seed) for f in CRITERION_FUNCS]


def run_selftest(seed: int = 42) -> dict:
    """All thirteen checks.  Criterion 13 is determinism: the first
    twelve run twice and their serialized forms must agree byte for
    byte."""
    first = run_criteria(seed)
    second = run_criteria(seed)
    b1 = dump_json(first).encode("utf-8")
    b2 = dump_json(second).encode("utf-8")
    identical = b1 == b2
    criteria = list(first)
    criteria.append(
        {
            "criterion": 13,
            "name": "deterministic-reports",
            "passed": bool(identical),
            "tolerance": 0.0,
            "details": {"bytes": len(b1), "identical": bool(identical)},
        }
    )
    return {
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
        "seed": seed,
    }
