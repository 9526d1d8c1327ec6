"""The acceptance suite: thirteen numbered checks covering the rewrite
engine, the coalgebra layer, both representation backends, and the
reporting pipeline itself.

Each criterion function computes its verdict and its details, in which
every measured float sits next to the tolerance it was judged against,
and hands them to ``_criterion``, which builds every criterion document
that ``dump_json`` writes.  A check that a command also judges (criteria 8,
10, 11 and 12) takes its sampling loop and its verdict, report fields
plus passed, from the fock or measure module that owns its tolerance,
and compares nothing itself.  ``run_selftest`` executes checks 1
through 12 twice and makes byte-equality of the two serialized halves
criterion 13, so determinism is part of the contract rather than an
afterthought.
"""

from __future__ import annotations

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
    SLOPE_RATIO_FLOOR,
    ModeSpace,
    boundedness_trend,
    commutator_matrix,
    expr_matrix,
    genfun_check,
    ladder_of,
    restricted_norm,
    transfer_check,
    transfer_rep,
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
    bochner_check,
    cocycle_sweep,
    eta_check,
    eta_sweep,
    gauss_vector,
    weyl_sweep,
)
from .reports import axiom_report_json, dump_json
from .scalars import IMAG, KAPPA, S_PARAM, Scalar


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def _criterion(number: int, name: str, passed, details: dict, exact: bool = False) -> dict:
    """The document of one criterion; one that compares exactly carries
    "tolerance": 0.0 next to its verdict."""
    doc = {"criterion": number, "name": name, "passed": bool(passed), "details": details}
    if exact:
        doc["tolerance"] = 0.0
    return doc


def criterion_01(seed: int) -> dict:
    """Exact CCR normal forms for the momentum-field commutator."""
    strict = Presentation(variant=DEFORMED_STRICT)
    plain = Presentation()
    got_deformed = commutator(pi(0), phi(0), strict)
    want_deformed = gen_I() * (-(IMAG * KAPPA))
    got_plain = commutator(pi(0), phi(0), plain)
    want_plain = gen_I() * (-IMAG)
    ok = got_deformed == want_deformed and got_plain == want_plain
    return _criterion(1, "exact-ccr-normal-forms", ok, {
        "deformed": expr_to_text(got_deformed),
        "deformed_expected": expr_to_text(want_deformed),
        "undeformed": expr_to_text(got_plain),
        "undeformed_expected": expr_to_text(want_plain),
    }, exact=True)


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
    return _criterion(2, "confluence-two-schedules", not mismatches, {
        "mismatches": mismatches[:10],
        "words_checked": total,
    }, exact=True)


# the K-collapse ratio at COLLAPSE_POINTS numeric points passes within this of the
# deformation constant
COLLAPSE_TOLERANCE = 1e-12
COLLAPSE_POINTS = 20


def criterion_03(seed: int) -> dict:
    """K-collapse identity, symbolically and at COLLAPSE_POINTS numeric points."""
    collapsed = Presentation(variant=DEFORMED_COLLAPSED)
    got = expand_k(gen_K() ** 2 - gen_Kinv() ** 2, collapsed)
    want = gen_I() * (S_PARAM ** 2 - S_PARAM ** -2)
    rng = _rng(seed, "collapse")
    worst = 0.0
    for _ in range(COLLAPSE_POINTS):
        q = rng.uniform(0.2, 3.0)
        if abs(q - 1.0) < 1e-2:
            q += 0.05
        c = rng.uniform(0.2, 3.0)
        s = q ** (c / 2.0)
        ratio = (s * s - 1.0 / (s * s)) / (c * (q - 1.0 / q))
        worst = max(worst, abs(ratio - deformation_constant(q, c)))
    ok = got == want and worst < COLLAPSE_TOLERANCE
    return _criterion(3, "k-collapse-identity", ok, {
        "symbolic": expr_to_text(got),
        "symbolic_expected": expr_to_text(want),
        "numeric_max_error": worst,
        "numeric_tolerance": COLLAPSE_TOLERANCE,
        "points": COLLAPSE_POINTS,
    })


C_EQUALS_1_TOLERANCE = 1e-12  # the deformation constant at c = 1 passes within this of 1
Q_NEAR_1_TOLERANCE = 1e-8  # the deformation constant at q = 1 +- 1e-5 passes within this of 1


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
    ok = worst_c1 <= C_EQUALS_1_TOLERANCE and worst_limit < Q_NEAR_1_TOLERANCE
    return _criterion(4, "deformation-constant-special-cases", ok, {
        "c_equals_1_max_error": worst_c1,
        "c_equals_1_tolerance": C_EQUALS_1_TOLERANCE,
        "q_near_1_max_error": worst_limit,
        "q_near_1_tolerance": Q_NEAR_1_TOLERANCE,
    })


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
    ok = all(r.passed for r in reports)
    details = {"reports": [axiom_report_json(r) for r in reports]}
    return _criterion(5, "classical-hopf-axioms", ok, details, exact=True)


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
    return _criterion(6, "deformed-hopf-axioms", ok, {
        "axioms": [axiom_report_json(r) for r in axioms],
        "cocommutativity_witness": axiom_report_json(probe),
        "cocommutativity_at_s_equals_1": axiom_report_json(at_one),
        "witness_matches_recorded_residual": witness_ok,
    }, exact=True)


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
    return _criterion(7, "idempotent-identity-finding", ok, {
        "report": axiom_report_json(rep),
        "expected_residuals": {
            "Delta on I*I = I": str(want["Delta on I*I = I"]),
            "S on I*I = I": expr_to_text(want["S on I*I = I"]),
        },
        "recorded_as_finding": len(rep.notes) > 0,
    }, exact=True)


CCR_TOLERANCE = 1e-12  # the truncated ladder CCR passes below this on the degree-2 safe subspace


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
        comm = commutator_matrix(am_v, ap_w) - np.vdot(v, w) * eye
        worst_ccr = max(worst_ccr, restricted_norm(m, comm, 2))
    cutoffs = (5, 10, 20, 40)
    genfun = [genfun_check(ModeSpace(1, nmax), [1.0]) for nmax in cutoffs]
    errs = [fields["error"] for fields, _ in genfun]
    monotone = all(b < a or b < 1e-12 for a, b in zip(errs, errs[1:]))
    ok = worst_ccr < CCR_TOLERANCE and genfun[2][1] and monotone
    return _criterion(8, "fock-ccr-and-generating-function", ok, {
        "ccr_max_residual": worst_ccr,
        "ccr_tolerance": CCR_TOLERANCE,
        "genfun_error_nmax20": errs[2],
        "genfun_tolerance": genfun[2][0]["tolerance"],
        "truncation_errors": {f"nmax={n}": err for n, err in zip(cutoffs, errs)},
        "monotone": monotone,
    })


# the restricted norm of expr_matrix(e) - expr_matrix(normal_form(e)) passes below this,
# over FUNCTOR_EXPRESSIONS random expressions
FUNCTOR_TOLERANCE = 1e-10
FUNCTOR_EXPRESSIONS = 200


def criterion_09(seed: int) -> dict:
    """Matrices do not see the difference between an expression and its
    normal form: FUNCTOR_EXPRESSIONS random elements, four presentations."""
    rng = _rng(seed, "functor")
    m = ModeSpace(2, 10)
    configs = [
        (Presentation(), 1.0, 1.0),
        (Presentation(variant=DEFORMED_STRICT), 1.3, 0.7),
        (Presentation(variant=DEFORMED_STRICT, basis=BASIS_LADDER), 1.7, 1.1),
        (Presentation(variant=DEFORMED_COLLAPSED), 0.8, 1.9),
    ]
    worst = 0.0
    for k in range(FUNCTOR_EXPRESSIONS):
        p, q, c = configs[k % len(configs)]
        e = random_expr(rng, p, max_degree=3, modes=2)
        a = expr_matrix(e, m, p, q=q, c=c)
        b = expr_matrix(normal_form(e, p), m, p, q=q, c=c)
        worst = max(worst, restricted_norm(m, a - b, 3))
    return _criterion(9, "normal-form-representation-functor", worst < FUNCTOR_TOLERANCE, {
        "max_residual": worst,
        "tolerance": FUNCTOR_TOLERANCE,
        "expressions": FUNCTOR_EXPRESSIONS,
    })


TRANSFER_POINTS = 20  # random (q, c, v, w) points of the transfer residual


def criterion_10(seed: int) -> dict:
    """Transfer representation: deformed momentum against the field."""
    rng = _rng(seed, "transfer")
    m = ModeSpace(2, 10)
    checks = []
    for _ in range(TRANSFER_POINTS):
        q = rng.uniform(0.3, 2.5)
        c = rng.uniform(0.3, 2.5)
        v = gauss_vector(rng, 2)
        w = gauss_vector(rng, 2)
        checks.append(transfer_check(transfer_rep(m, q, c), v, w))
    ok = all(passed for _, passed in checks)
    return _criterion(10, "transfer-representation-ccr", ok, {
        "max_residual": max(fields["residual"] for fields, _ in checks),
        "tolerance": checks[0][0]["tolerance"],
        "points": TRANSFER_POINTS,
    })


# the uniform family's vacuum occupancy passes within this relative error of d/8
UNIFORM_TOLERANCE = 0.02


def criterion_11(seed: int) -> dict:
    """Number-operator cost of the squeezed vacuum: linear growth d/8
    for uniform squeezing against a plateau for the summable family.

    The truncated operator keeps the squeezed vacuum inside the cutoff,
    so its smallest eigenvalue is numerically zero for both families;
    the quantity that separates them is the vacuum occupancy, which the
    trend's uniform and summable fields carry, one cost per d."""
    trend, passed = boundedness_trend(d_values=(1, 2, 3), nmax=30)
    uniform, summable = trend["uniform"], trend["summable"]
    rel_errors = [abs(occ - (d / 8.0)) / (d / 8.0) for d, occ in zip((1, 2, 3), uniform)]
    increments = [b - a for a, b in zip(summable, summable[1:])]
    plateau = increments[1] < 0.5 * increments[0]
    ok = max(rel_errors) <= UNIFORM_TOLERANCE and plateau and passed
    return _criterion(11, "number-operator-growth-trend", ok, {
        "uniform_occupancy": uniform,
        "uniform_relative_errors": rel_errors,
        "uniform_tolerance": UNIFORM_TOLERANCE,
        "summable_occupancy": summable,
        "summable_increments": increments,
        "slope_ratio": trend["slope_ratio"],
        "slope_ratio_floor": SLOPE_RATIO_FLOOR,
        "trend": trend,
    })


def criterion_12(seed: int) -> dict:
    """Gaussian measure layer: cocycle identity, Radon-Nikodym ratio,
    eta extrapolation, Bochner Monte Carlo, and the Weyl relation."""
    rng = _rng(seed, "measure")
    models = [
        ("sqrt2-identity", GaussianModel.fock(2)),
        ("triangular", GaussianModel(np.array([[1.0, 0.3], [0.0, 2.0]]))),
    ]
    runs = []  # per model: its cocycle, eta, Weyl and Bochner verdicts
    bochner = {}
    for idx, (label, model) in enumerate(models):
        v = np.array([1.0, 0.5]) if idx == 0 else np.array([0.3, -1.0])
        runs.append((cocycle_sweep(model, rng, 100), eta_check(eta_sweep(model, rng, 10)),
                     weyl_sweep(model, rng, 50), bochner_check(model, v, 100000, seed + idx)))
        fields, within = runs[-1][3]
        bochner[label] = {**fields, "within_3_sigma": within}
    cocycle, eta, weyl = ([run[check][0] for run in runs] for check in range(3))
    ok = all(passed for run in runs for _, passed in run)
    return _criterion(12, "gaussian-measure-checks", ok, {
        "cocycle_max_residual": max(f["cocycle_max_residual"] for f in cocycle),
        "cocycle_tolerance": cocycle[0]["tolerance"],
        "density_ratio_max_residual": max(f["density_ratio_max_residual"] for f in cocycle),
        "density_ratio_tolerance": cocycle[0]["tolerance"],
        "eta_max_error": max(f["max_error"] for f in eta),
        "eta_tolerance": eta[0]["tolerance"],
        "weyl_max_residual": max(f["max_residual"] for f in weyl),
        "weyl_tolerance": weyl[0]["tolerance"],
        "bochner": bochner,
    })


CRITERION_FUNCS = (
    criterion_01, criterion_02, criterion_03, criterion_04, criterion_05, criterion_06,
    criterion_07, criterion_08, criterion_09, criterion_10, criterion_11, criterion_12,
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
    criteria = first + [_criterion(13, "deterministic-reports", identical,
                                   {"bytes": len(b1), "identical": identical}, exact=True)]
    return {
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
        "seed": seed,
    }
