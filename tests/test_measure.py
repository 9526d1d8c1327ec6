"""Gaussian-measure realization: exact cocycle identities, the eta limit,
Bochner Monte Carlo, and the Weyl relation; and the paper's measure
picture checked by oracles kept here: the Weyl group composing with exact
phases, the field and momentum formulas on test functions, and the
constant function as the vacuum exactly when C = 2I."""

from __future__ import annotations

import cmath
import itertools
import math
import random
import tracemalloc
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from ccr_hopf import measure
from ccr_hopf.cli import main
from ccr_hopf.measure import (
    COCYCLE_TOLERANCE,
    MAX_COCYCLE_SAMPLES,
    MAX_MC_DRAWS,
    MAX_MODES,
    MAX_PD_VECTORS,
    MAX_TRANSLATE_MONOMIALS,
    MAX_WEYL_MONOMIALS,
    MC_CHUNK_ROWS,
    PD_EIGENVALUE_FLOOR,
    ROOT2,
    WEYL_TOLERANCE,
    GaussianModel,
    MeasureError,
    TestFunction,
    bochner_mc,
    cocycle,
    cocycle_check,
    cocycle_sweep,
    density_ratio_check,
    eta,
    eta_error,
    eta_sweep,
    gauss_vector,
    p_op,
    pd_sweep,
    positive_definiteness_check,
    random_test_function,
    weyl_relation_check,
    weyl_sweep,
)


def _rand_vec(rng, d, scale=1.0):
    return np.array([rng.uniform(-scale, scale) for _ in range(d)])


def _scaled(d, c):
    """The model of the CLI's --scale c: K = I / c."""
    return GaussianModel.scaled(d, c)


# ---------------------------------------------------------------------------
# Oracles for the measure picture.  No command runs them, so they live
# here: the field, momentum and lowering operators on test functions, made
# from the public TestFunction constructor, and the Weyl group with exact
# rational phases.

def _constant(d, value=1.0):
    return TestFunction(d, {(0,) * d: value})


def _like(f, poly):
    """poly times the Gaussian factor of f."""
    return TestFunction(f.d, poly, f.quad, f.lin, f.const)


def _add(f, g):
    # only same-exponent combinations arise in the operator formulas
    if not (f.d == g.d and np.array_equal(f.quad, g.quad) and np.array_equal(f.lin, g.lin)
            and f.const == g.const):
        raise MeasureError("cannot add test functions with different exponents")
    poly = dict(f.poly)
    for k, v in g.poly.items():
        poly[k] = poly.get(k, 0) + v
    return _like(f, poly)


def _scale(f, z):
    return _like(f, {k: z * v for k, v in f.poly.items()})


def _sub(f, g):
    return _add(f, _scale(g, -1.0))


def _mul_affine(f, w, const=0.0):
    """f times <w,u> + const."""
    w = np.asarray(w, dtype=complex)
    poly = {}
    for k, coeff in f.poly.items():
        if const != 0:
            poly[k] = poly.get(k, 0) + coeff * const
        for i in range(f.d):
            if w[i] != 0:
                key = k[:i] + (k[i] + 1,) + k[i + 1:]
                poly[key] = poly.get(key, 0) + coeff * w[i]
    return _like(f, poly)


def _dderiv(f, v):
    """The exact directional derivative of f along v."""
    v = np.asarray(v, dtype=float)
    poly = {}
    for k, coeff in f.poly.items():
        for i in range(f.d):
            if k[i] and v[i] != 0:
                key = k[:i] + (k[i] - 1,) + k[i + 1:]
                poly[key] = poly.get(key, 0) + coeff * k[i] * v[i]
    return _add(_like(f, poly), _mul_affine(f, -(f.quad @ v), complex(f.lin @ v)))


def apply_phi(model, v, f):
    """phi(v)f = <v,u> f."""
    return _mul_affine(f, np.asarray(v, dtype=float))


def apply_pi(model, v, f):
    """pi(v)f = -i (d_v f - <C u_v,u> f / 2), the derivative taken along u_v."""
    uv = model.embed(v)
    return _scale(_add(_dderiv(f, uv), _scale(_mul_affine(f, model.C @ uv), -0.5)), -1j)


def lowering(model, v, f):
    """a-(v) = (phi(v) + i pi(v)) / sqrt2."""
    return _scale(_add(apply_phi(model, v, f), _scale(apply_pi(model, v, f), 1j)), 1.0 / ROOT2)


def vacuum_lowering_check(model, v, points):
    """max |(a-(v) 1)(u)| over the points; vanishes when C = 2I (up to the
    roundoff in forming C from K)."""
    f = lowering(model, v, _constant(model.d))
    return max(abs(f.evaluate(u)) for u in points)


def functional_operator_check(model, v, vp, f, u):
    """([pi(v), phi(v')] f)(u) + i <v|v'> f(u); zero for the exact formulas."""
    comm = _sub(apply_pi(model, v, apply_phi(model, vp, f)),
                apply_phi(model, vp, apply_pi(model, v, f)))
    return comm.evaluate(u) + 1j * model.inner(vp, v) * f.evaluate(u)


def _fractions(vec):
    return tuple(Fraction(x) for x in vec)


@dataclass(frozen=True)
class WeylElement:
    """(v1, v2, lambda) with exact rational coordinates; the phase is kept
    as the rational angle theta with lambda = exp(i theta), so composition
    is exactly associative."""

    v1: tuple
    v2: tuple
    theta: Fraction = Fraction(0)

    @classmethod
    def make(cls, v1, v2, theta=0):
        v1 = _fractions(v1)
        v2 = _fractions(v2)
        if len(v1) != len(v2):
            raise MeasureError("v1 and v2 must have the same dimension")
        return cls(v1, v2, Fraction(theta))

    @property
    def lam(self):
        return cmath.exp(1j * float(self.theta))

    @property
    def d(self):
        return len(self.v1)


def weyl_identity(d):
    return WeylElement.make((0,) * d, (0,) * d)


def weyl_compose(g, h, gram=None):
    """(v1+v1', v2+v2', exp(i<v2,v1'>) lam lam'), phases added exactly."""
    if g.d != h.d:
        raise MeasureError("dimension mismatch")
    if gram is None:
        pairing = sum(a * b for a, b in zip(g.v2, h.v1))
    else:
        rows = [[Fraction(x) for x in row] for row in gram]
        if len(rows) != g.d or any(len(r) != g.d for r in rows):
            raise MeasureError("gram must be d x d")
        pairing = sum(
            g.v2[i] * rows[i][j] * h.v1[j] for i in range(g.d) for j in range(g.d)
        )
    v1 = tuple(a + b for a, b in zip(g.v1, h.v1))
    v2 = tuple(a + b for a, b in zip(g.v2, h.v2))
    return WeylElement(v1, v2, g.theta + h.theta + pairing)


def test_model_basics():
    m = GaussianModel.fock(2)
    assert np.allclose(m.C, 2.0 * np.eye(2), atol=1e-15)
    v = np.array([0.3, -1.1])
    assert abs(m.M(v) - 0.5 * float(v @ v)) < 1e-14
    assert abs(m.Z(v) - math.exp(-0.25 * float(v @ v))) < 1e-14
    mc = _scaled(2, 1.7)
    assert abs(mc.M(v) - 1.7 ** 2 * float(v @ v)) < 1e-12
    with pytest.raises(MeasureError):
        GaussianModel(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(MeasureError):
        GaussianModel(np.eye(0))
    rng = np.random.default_rng(4)
    u = m.sample(40000, rng)
    cov = np.cov(u.T)
    assert np.allclose(cov, np.linalg.inv(m.C), atol=0.03)


def test_mode_budget_and_scale_are_checked_before_any_array(monkeypatch):
    # the largest d the tests and the benchmark use is 22, far inside the
    # budget; past it no d x d array is built
    assert GaussianModel.fock(MAX_MODES).d == MAX_MODES
    with pytest.raises(MeasureError, match=f"of {MAX_MODES + 1} modes is over the budget"):
        GaussianModel(np.eye(MAX_MODES + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(GaussianModel.scaled(2, 1e-100).K, np.eye(2) / 1e-100)
    monkeypatch.setattr(np, "eye", lambda *a, **k: pytest.fail("np.eye was called"))
    for build in (GaussianModel.fock, lambda d: GaussianModel.scaled(d, 0.5)):
        for d in (MAX_MODES + 1, 10 ** 400):
            with pytest.raises(MeasureError, match=f"of {d} modes is over the budget of {MAX_MODES}"):
                build(d)
    # a scale whose reciprocal overflows, or is zero, would make numpy warn
    for scale in (1e-320, 0.0, -1e-320):
        with pytest.raises(MeasureError, match="^K must have finite entries$"):
            GaussianModel.scaled(2, scale)


def test_cocycle_identities():
    models = [GaussianModel.fock(2), GaussianModel(np.array([[1.0, 0.3], [0.0, 2.0]]))]
    rng = random.Random(20240817)
    for model in models:
        pts = model.sample(50, np.random.default_rng(7))
        assert all(cocycle(model, np.zeros(2), u) == 1.0 for u in pts)
        for i in range(50):
            v = _rand_vec(rng, 2)
            vp = _rand_vec(rng, 2)
            u = pts[i]
            assert cocycle_check(model, v, vp, u) < 1e-10
            assert density_ratio_check(model, v, u) < 1e-10


def test_shared_sweeps_follow_the_explicit_loops():
    model = GaussianModel(np.array([[1.0, 0.3], [0.0, 2.0]]))
    rng, ref = random.Random("sweep"), random.Random("sweep")
    fields, passed = cocycle_sweep(model, rng, 20)
    # each residual is scaled by the larger of the two sides it compares
    want_c = want_r = 0.0
    for _ in range(20):
        v, vp, u = (np.array([ref.gauss(0, 1) for _ in range(2)]) for _ in range(3))
        lhs = cocycle(model, v + vp, u)
        rhs = cocycle(model, v, u) * cocycle(model, vp, u + model.embed(v))
        assert cocycle_check(model, v, vp, u) == abs(lhs - rhs)
        want_c = max(want_c, abs(lhs - rhs) / max(1.0, lhs, rhs))
        ratio = model.density(u + model.embed(v)) / model.density(u)
        square = cocycle(model, v, u) ** 2
        assert density_ratio_check(model, v, u) == abs(ratio - square)
        want_r = max(want_r, abs(ratio - square) / max(1.0, ratio, square))
    assert fields == {"cocycle_max_residual": want_c, "density_ratio_max_residual": want_r,
                      "tolerance": COCYCLE_TOLERANCE}
    assert passed and max(want_c, want_r) < 1e-10
    fields, passed = weyl_sweep(model, rng, 5)
    want = 0.0
    for _ in range(5):
        v, vp, u = (np.array([ref.gauss(0, 1) for _ in range(2)]) for _ in range(3))
        f = random_test_function(ref, 2)
        p = p_op(model, v)
        lhs = p(f.phase(vp)).evaluate(u)
        rhs = cmath.exp(1j * model.inner(v, vp)) * p(f).phase(vp).evaluate(u)
        assert weyl_relation_check(model, v, vp, f, u) == lhs - rhs
        want = max(want, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    assert fields == {"max_residual": want, "tolerance": WEYL_TOLERANCE}
    assert passed and want < 1e-10
    assert rng.random() == ref.random()  # both streams consumed alike
    v, u = gauss_vector(rng, 2), gauss_vector(rng, 2)
    err, estimate, exact = eta_error(model, v, u)
    assert exact == -0.5 * float((model.C @ model.embed(v)) @ u)
    assert estimate == eta(model, v, u) and err == abs(estimate - exact) < 1e-8
    for count in (0, -1):
        with pytest.raises(MeasureError):
            cocycle_sweep(model, rng, count)
        with pytest.raises(MeasureError):
            weyl_sweep(model, rng, count)


def _explicit_cocycle_residuals(model, rng, count):
    # the sweep's worst scaled residuals, from a(v, u) computed once for
    # each identity: four cocycle calls a point
    worst_c = worst_r = 0.0
    for _ in range(count):
        v, vp, u = (gauss_vector(rng, model.d) for _ in range(3))
        lhs = cocycle(model, v + vp, u)
        rhs = cocycle(model, v, u) * cocycle(model, vp, u + model.embed(v))
        ratio = model.density(u + model.embed(v)) / model.density(u)
        square = cocycle(model, v, u) ** 2
        worst_c = max(worst_c, abs(lhs - rhs) / max(1.0, lhs, rhs))
        worst_r = max(worst_r, abs(ratio - square) / max(1.0, ratio, square))
    return worst_c, worst_r


def test_cocycle_sweep_computes_a_v_u_once_per_point(monkeypatch):
    # a(v, u) is a factor of the cocycle identity and squared in the
    # density ratio: one call serves both, so a point costs three calls
    # and the residuals are the floats the four-call loop gives
    models = [GaussianModel.fock(3), GaussianModel(np.array([[1.0, 0.3], [0.0, 2.0]])),
              _scaled(2, 1.7)]
    calls = []
    counted = measure.cocycle
    for seed in range(6):
        for model in models:
            want = _explicit_cocycle_residuals(model, random.Random(f"{seed}:calls"), 40)
            monkeypatch.setattr(measure, "cocycle", lambda *a: calls.append(1) or counted(*a))
            del calls[:]
            fields, _ = cocycle_sweep(model, random.Random(f"{seed}:calls"), 40)
            monkeypatch.undo()
            assert len(calls) == 3 * 40
            assert (fields["cocycle_max_residual"], fields["density_ratio_max_residual"]) == want


def test_eta_extrapolation():
    model = GaussianModel(np.array([[1.0, 0.4], [0.0, 1.5]]))
    rng = random.Random(5)
    for _ in range(10):
        v = _rand_vec(rng, 2)
        u = _rand_vec(rng, 2)
        want = -0.5 * float((model.C @ v) @ u)
        assert abs(eta(model, v, u) - want) < 1e-8
    u = _rand_vec(rng, 2)
    assert eta(model, np.zeros(2), u) == 0.0
    v, vp = _rand_vec(rng, 2), _rand_vec(rng, 2)
    lin = eta(model, v + vp, u) - eta(model, v, u) - eta(model, vp, u)
    assert abs(lin) < 1e-8


def test_bochner_estimates():
    model = GaussianModel.fock(2)
    exact = bochner_mc(model, np.zeros(2), samples=1000, seed=1)
    assert exact.estimate == 1.0 + 0.0j
    assert exact.stderr == 0.0
    v = np.array([1.0, 0.0])
    est = bochner_mc(model, v, samples=100000, seed=42)
    assert abs(est.estimate - math.exp(-0.25)) <= 3.0 * est.stderr
    diag = GaussianModel(np.diag([1.0, 2.0]))
    est2 = bochner_mc(diag, np.array([0.0, 1.0]), samples=100000, seed=42)
    assert abs(est2.estimate - math.exp(-0.125)) <= 3.0 * est2.stderr
    # reproducibility and the n^-1/2 scaling of the error bar
    again = bochner_mc(model, v, samples=100000, seed=42)
    assert again.estimate == est.estimate and again.stderr == est.stderr
    se1 = bochner_mc(model, v, samples=20000, seed=3).stderr
    se2 = bochner_mc(model, v, samples=200000, seed=3).stderr
    assert 0.5 < se2 * math.sqrt(10.0) / se1 < 2.0


def _unchunked_bochner(model, v, samples, seed):
    # a second oracle: every draw held at once, the phases taken through
    # the complex exponential, and numpy's mean and variance
    phases = np.exp(1j * (model.sample(samples, np.random.default_rng(seed)) @ v))
    var = phases.real.var(ddof=1) + phases.imag.var(ddof=1)
    return complex(phases.mean()), float(math.sqrt(var / samples))


def _fsum_bochner(model, v, samples, seed):
    # the oracle: every cos and sin held at once and summed correctly
    # rounded, the squared deviations taken about the rounded means
    x = model.sample(samples, np.random.default_rng(seed)) @ v
    parts = (np.cos(x), np.sin(x))
    means = [math.fsum(p) / samples for p in parts]
    m2 = sum(math.fsum(np.square(p - m)) for p, m in zip(parts, means))
    return complex(*means), math.sqrt(m2 / (samples - 1) / samples)


# bochner_mc sums each block pairwise, at most log2(65536) = 16 levels of
# one rounding each, and folds in at most 16 blocks (10^6 rows), each fold
# a few roundings; so with |cos|, |sin| <= 1 the estimate lies within about
# (16 + 3 * 16) * 2^-53 = 7e-15 of the correctly rounded mean, and the sum
# of squared deviations, a sum of terms >= 0 whose block means enter only
# to second order, within about that many ulps of its own size, halved by
# the square root.  numpy's mean and var of the second oracle round
# alike.  The bounds leave a margin of over ten on both.
ESTIMATE_BOUND = 1e-13
STDERR_RTOL = 1e-12


def _assert_matches_oracles(est, model, v, samples, seed):
    for estimate, stderr in (_fsum_bochner(model, v, samples, seed),
                             _unchunked_bochner(model, v, samples, seed)):
        assert abs(est.estimate - estimate) <= ESTIMATE_BOUND
        assert abs(est.stderr - stderr) <= STDERR_RTOL * stderr


def _bochner_model(d):
    rng = np.random.default_rng(100 + d)
    return GaussianModel(np.eye(d) + 0.3 * rng.standard_normal((d, d))), rng.standard_normal(d)


@pytest.mark.parametrize("chunk", [MC_CHUNK_ROWS, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bochner_chunks_match_the_unchunked_estimate(d, chunk, monkeypatch):
    monkeypatch.setattr(measure, "MC_CHUNK_ROWS", chunk)
    model, v = _bochner_model(d)
    for samples in (2, 3, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        est = bochner_mc(model, v, samples=samples, seed=samples)
        _assert_matches_oracles(est, model, v, samples, samples)


def test_bochner_draws_blocks_through_the_sampler(monkeypatch):
    rows = []
    sample = GaussianModel.sample
    monkeypatch.setattr(GaussianModel, "sample",
                        lambda self, n, rng: rows.append(n) or sample(self, n, rng))
    model, v = _bochner_model(2)
    bochner_mc(model, v, samples=2 * MC_CHUNK_ROWS + 3, seed=1)
    assert rows == [MC_CHUNK_ROWS, MC_CHUNK_ROWS, 3]


def _traced_bochner(model, v, samples):
    bochner_mc(model, v, samples=2, seed=5)  # first-use allocations stay out of the peak
    tracemalloc.start()
    try:
        est = bochner_mc(model, v, samples=samples, seed=5)
        return est, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bochner_million_draws_match_and_stay_small():
    model, v = _bochner_model(3)
    est, peak = _traced_bochner(model, v, 10 ** 6)
    # one block of draws and its few block-sized temporaries, about 5 MB;
    # holding the phases peaked at 24 MB, and all 10^6 x 3 draws at 56 MB
    assert peak < 8e6
    _assert_matches_oracles(est, model, v, 10 ** 6, 5)
    # the peak does not grow with the sample count: the whole budget at
    # d = 1 peaked at 96 MB with the phases held
    model, v = _bochner_model(1)
    est, peak = _traced_bochner(model, v, MAX_MC_DRAWS)
    assert peak < 8e6
    assert est.samples == MAX_MC_DRAWS


def test_positive_definiteness():
    model = GaussianModel.fock(2)
    rng = random.Random(11)
    vecs = [_rand_vec(rng, 2, 2.0) for _ in range(8)]
    assert positive_definiteness_check(model.Z, vecs) >= -1e-10
    assert positive_definiteness_check(model.Z, [np.zeros(2)]) == 1.0
    mc = _scaled(2, 1.0)
    assert positive_definiteness_check(mc.Z, vecs) >= -1e-10
    # the quadratic form sum_ij conj(c_i) Z(v_i - v_j) c_j at random c
    coeffs = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)])
    gram = np.array([[mc.Z(np.asarray(a) - np.asarray(b)) for b in vecs] for a in vecs])
    assert float((np.conj(coeffs) @ gram @ coeffs).real) >= -1e-10


def test_weyl_group():
    rng = random.Random(20240818)

    def rand_el():
        v1 = [Fraction(rng.randint(-6, 6), 2) for _ in range(2)]
        v2 = [Fraction(rng.randint(-6, 6), 2) for _ in range(2)]
        return WeylElement.make(v1, v2, Fraction(rng.randint(-3, 3), 4))

    e = weyl_identity(2)
    for _ in range(100):
        g, h, k = rand_el(), rand_el(), rand_el()
        assert weyl_compose(weyl_compose(g, h), k) == weyl_compose(g, weyl_compose(h, k))
        assert weyl_compose(e, g) == g and weyl_compose(g, e) == g
        assert abs(abs(g.lam) - 1.0) < 1e-14
    # the phase-free vectors form subgroups
    t1 = WeylElement.make((1, 0), (0, 0))
    t2 = WeylElement.make((0, Fraction(1, 2)), (0, 0))
    assert weyl_compose(t1, t2) == WeylElement.make((1, Fraction(1, 2)), (0, 0))
    p1 = WeylElement.make((0, 0), (1, 1))
    p2 = WeylElement.make((0, 0), (2, 0))
    assert weyl_compose(p1, p2).theta == 0
    # composing P then T can pick up a phase
    mixed = weyl_compose(WeylElement.make((0, 0), (1, 0)), WeylElement.make((3, 0), (0, 0)))
    assert mixed.theta == 3
    g = [[1, Fraction(1, 2)], [Fraction(1, 2), 2]]
    withg = weyl_compose(
        WeylElement.make((0, 0), (1, 0)), WeylElement.make((0, 1), (0, 0)), gram=g
    )
    assert withg.theta == Fraction(1, 2)


def test_weyl_relation_pointwise():
    model = GaussianModel.fock(2)
    rng = random.Random(77)
    for _ in range(100):
        v = _rand_vec(rng, 2)
        vp = _rand_vec(rng, 2)
        u = _rand_vec(rng, 2, 1.5)
        f = random_test_function(rng, 2)
        assert abs(weyl_relation_check(model, v, vp, f, u)) < 1e-10
    f = random_test_function(rng, 2)
    u = _rand_vec(rng, 2)
    vp = _rand_vec(rng, 2)
    lhs = p_op(model, np.zeros(2))(f.phase(vp)).evaluate(u)
    assert abs(lhs - f.phase(vp).evaluate(u)) < 1e-12
    v = _rand_vec(rng, 2)
    lhs = p_op(model, v)(f.phase(np.zeros(2))).evaluate(u)
    assert abs(lhs - p_op(model, v)(f).evaluate(u)) < 1e-12


def test_test_function_calculus():
    rng = random.Random(13)
    for _ in range(25):
        f = random_test_function(rng, 2)
        u = _rand_vec(rng, 2)
        t = _rand_vec(rng, 2)
        w = _rand_vec(rng, 2)
        assert abs(f.translate(t).evaluate(u) - f.evaluate(u + t)) < 1e-10
        assert abs(
            f.phase(w).evaluate(u) - np.exp(1j * float(w @ u)) * f.evaluate(u)
        ) < 1e-12
        assert abs(
            _mul_affine(f, w, 0.7).evaluate(u) - (float(w @ u) + 0.7) * f.evaluate(u)
        ) < 1e-12
        # exact directional derivative against a central difference
        h = 1e-6
        v = _rand_vec(rng, 2)
        num = (f.evaluate(u + h * v) - f.evaluate(u - h * v)) / (2 * h)
        assert abs(_dderiv(f, v).evaluate(u) - num) < 1e-6
    with pytest.raises(MeasureError):
        _add(f, f.phase(np.array([1.0, 0.0])))
    with pytest.raises(MeasureError):
        TestFunction(2, {(0, 1, 2): 1.0})


def _assert_same_function(got: TestFunction, want: TestFunction):
    assert got.d == want.d and got.quad is want.quad
    assert list(got.poly.items()) == list(want.poly.items())
    assert all(type(k) is tuple and all(type(i) is int for i in k) for k in got.poly)
    assert all(type(v) is complex for v in got.poly.values())
    assert got.lin.dtype == complex and np.array_equal(got.lin, want.lin)
    assert type(got.const) is complex and got.const == want.const


def test_derived_test_functions_match_the_constructor(monkeypatch):
    # each operation's result equals the validating constructor's rebuild
    # of it, and only the constructor runs the symmetry check
    rng = random.Random(21)
    calls = []
    hermitian = measure._hermitian
    monkeypatch.setattr(measure, "_hermitian", lambda a: calls.append(1) or hermitian(a))
    for d in (1, 2, 3):
        for _ in range(10):
            f = random_test_function(rng, d)
            t, w = _rand_vec(rng, d), _rand_vec(rng, d)
            del calls[:]
            derived = [f.translate(t), f.phase(w), f.with_exponent(0.3 * w, -0.2)]
            assert not calls
            for h in derived:
                _assert_same_function(h, TestFunction(h.d, h.poly, h.quad, h.lin, h.const))
    # zero coefficients are dropped, as the constructor drops them: u - 1/2
    # translated by 1/2 is u
    f = TestFunction(2, {(1, 0): 1.0, (0, 1): 2.0})
    assert list(_sub(f, f).poly) == []
    assert list(TestFunction(1, {(1,): 1.0, (0,): -0.5}).translate([0.5]).poly) == [(1,)]
    model = GaussianModel.fock(2)
    del calls[:]
    weyl_sweep(model, random.Random(3), 7)
    assert len(calls) == 7  # one random function per point


def test_symmetry_checks_have_no_relative_slack():
    # an asymmetry of 1e-6 on entries near 0.5 is far past 1e-12, though a
    # relative tolerance of 1e-5 would forgive it
    with pytest.raises(MeasureError, match="symmetric"):
        TestFunction(2, {(0, 0): 1}, quad=[[1, 0.5], [0.500001, 1]])
    f = TestFunction(2, {(0, 0): 1}, quad=[[1, 0.5], [0.5 + 1e-13, 1]])
    assert f.quad[1, 0] == 0.5 + 1e-13
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused without a numpy warning
        for bad in ([[1.0, math.nan], [math.nan, 1.0]], [[math.nan, 0.0], [0.0, 1.0]],
                    [[math.inf, 0.0], [0.0, 1.0]]):
            with pytest.raises(MeasureError, match="symmetric"):
                TestFunction(2, {(0, 0): 1}, quad=bad)
            with pytest.raises(MeasureError, match="symmetric"):
                GaussianModel.fock(2, gram=bad)


# reference test-function operations on numpy scalars: t[i] and u[i] are
# numpy float64 entries, and P(v) forms Cv, u_v and M_K(Cv) once
# for each side of the Weyl relation.  The library reads t and u as Python
# floats and forms P(v) once a point; both must give the same floats.

def _numpy_translate(f, t):
    t = np.asarray(t, dtype=float)
    poly = {}
    for k, coeff in f.poly.items():
        axes = []
        for i, n in enumerate(k):
            axes.append([(j, math.comb(n, j) * t[i] ** (n - j)) for j in range(n + 1)])
        for combo in itertools.product(*axes):
            key = tuple(j for j, _ in combo)
            val = coeff
            for _, factor in combo:
                val *= factor
            poly[key] = poly.get(key, 0) + val
    lin = f.lin - f.quad @ t
    const = f.const + complex(f.lin @ t) - 0.5 * float(t @ f.quad @ t)
    return TestFunction(f.d, poly, f.quad, lin, const)


def _numpy_evaluate(f, u):
    u = np.asarray(u, dtype=float)
    p = 0.0 + 0.0j
    for k, coeff in sorted(f.poly.items()):
        term = coeff
        for i, n in enumerate(k):
            if n:
                term *= u[i] ** n
        p += term
    expo = -0.5 * float(u @ f.quad @ u) + complex(f.lin @ u) + f.const
    return p * cmath.exp(expo)


def _numpy_p_op(model, v, f):
    uv = model.embed(v)
    cu = model.C @ uv
    return _numpy_translate(f, uv).with_exponent(-0.5 * cu, -0.25 * model.M(cu))


def _numpy_weyl_sides(model, v, vp, f, u):
    lhs = _numpy_evaluate(_numpy_p_op(model, v, f.phase(vp)), u)
    return lhs, cmath.exp(1j * model.inner(v, vp)) * _numpy_evaluate(
        _numpy_p_op(model, v, f).phase(vp), u)


def _assert_same_floats(got, want):
    assert list(got.poly) == list(want.poly)
    assert [(z.real.hex(), z.imag.hex()) for z in got.poly.values()] == \
        [(z.real.hex(), z.imag.hex()) for z in want.poly.values()]
    assert got.lin.tobytes() == want.lin.tobytes() and got.const == want.const


def test_test_function_operations_match_the_numpy_scalar_oracle(monkeypatch):
    # bit for bit: the translated polynomial's keys, order and complex
    # values, the values at random points, and the Weyl sweep maxima
    rng = random.Random(3535)
    for d in (1, 2, 3, 4):
        for _ in range(40):
            f = random_test_function(rng, d)
            t, u = _rand_vec(rng, d, 3.0), _rand_vec(rng, d, 3.0)
            _assert_same_floats(f.translate(t), _numpy_translate(f, t))
            assert f.evaluate(u) == _numpy_evaluate(f, u)
            g = f.translate(t)
            assert g.evaluate(u) == _numpy_evaluate(_numpy_translate(f, t), u)
    # a d = 8 function at the translate budget of a Weyl sweep
    f = _worst_test_function(random.Random(8), 8)
    t, u = _rand_vec(rng, 8), _rand_vec(rng, 8)
    assert sum(math.prod(n + 1 for n in k) for k in f.poly) == 5 * 3 ** 7
    _assert_same_floats(f.translate(t), _numpy_translate(f, t))
    assert f.translate(t).evaluate(u) == _numpy_evaluate(_numpy_translate(f, t), u)
    sweeps = [(GaussianModel.fock(d), seed, 30) for d in (1, 2, 3, 4) for seed in (1, 2)]
    sweeps += [(_scaled(3, 0.7), 5, 30), (GaussianModel.fock(8), 9, 2)]

    def worst(model, seed, count):
        return weyl_sweep(model, random.Random(seed), count)[0]["max_residual"]

    got = [worst(*sweep) for sweep in sweeps]
    monkeypatch.setattr(measure, "_weyl_sides", _numpy_weyl_sides)
    want = [worst(*sweep) for sweep in sweeps]
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_weyl_sweep_refuses_a_shift_past_the_float_range():
    # u_v = gram v near 1e200 squares past the float range: the power
    # raises, and a residual left infinite or NaN is refused, not dropped
    # by the running maximum as a pass
    model = GaussianModel.fock(2, gram=1e200 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns on stderr
        with pytest.raises(MeasureError, match="overflows a float"):
            weyl_sweep(model, random.Random(1), 3)
    f = TestFunction(1, {(2,): 1.0})
    with pytest.raises(OverflowError):
        f.translate([1e200])
    with pytest.raises(OverflowError):
        f.evaluate([1e200])


def test_translate_budget():
    # prod_i (k_i + 1) monomials: 141^2 fit the budget, 142^2 do not
    assert 141 ** 2 <= MAX_TRANSLATE_MONOMIALS < 142 ** 2
    t = np.array([0.1, -0.2])
    assert len(TestFunction(2, {(140, 140): 1.0}).translate(t).poly) == 141 ** 2
    big = TestFunction(2, {(141, 141): 1.0})
    with pytest.raises(MeasureError, match="budget"):
        big.translate(t)
    # the count sums over the terms
    with pytest.raises(MeasureError, match="budget"):
        TestFunction(2, {(140, 140): 1.0, (0, 140): 1.0}).translate(t)


def test_density_normalisation_and_singular_covariance():
    rng = random.Random(4)
    for model in (GaussianModel.fock(2), GaussianModel(np.array([[1.0, 0.3], [0.0, 2.0]])),
                  _scaled(3, 0.7)):
        for _ in range(5):
            u = _rand_vec(rng, model.d, 2.0)
            norm = (2.0 * math.pi) ** (-0.5 * model.d) * math.sqrt(np.linalg.det(model.C))
            assert model.density(u) == norm * math.exp(-0.5 * float(u @ model.C @ u))
    # K passes the invertibility check while det(K K^T) rounds to 0 or below
    for k in ([[1.0, 1.0], [1.0, 1.0 + 1e-9]], [[10.0, 10.0], [10.0, 10.0 + 1e-9]]):
        model = GaussianModel(np.array(k))
        assert not np.linalg.det(model.C) > 0
        assert math.isfinite(model.M(np.array([0.1, 0.2])))  # the rest of the model works
        with pytest.raises(MeasureError, match="singular"):
            model.density(np.zeros(2))


def test_checks_refuse_values_that_overflow_a_float():
    model = GaussianModel.fock(2)
    big = np.array([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns on stderr
        with pytest.raises(MeasureError, match="not finite"):
            measure.bochner_check(model, big, 2000, 42)
        with pytest.raises(MeasureError, match="not finite"):
            eta_error(model, big, np.ones(2))
        # math.exp of the cocycle overflows a float here
        with pytest.raises(MeasureError, match="not finite"):
            eta_error(model, np.ones(2), np.array([-1e300, -1e300]))
        # large but finite phases u.v keep a finite estimate
        fields, _ = measure.bochner_check(model, np.array([1e200, 1e200]), 2000, 42)
    assert all(math.isfinite(fields[k]) for k in ("estimate_re", "estimate_im", "gap", "stderr"))


def test_bochner_budget(monkeypatch):
    # the selftest and the benchmark draw at most 1e6 x 3.  MAX_MC_DRAWS //
    # d samples reach the first draw and one more is refused, also where d
    # does not divide the budget; the refusal names samples and d, not
    # their product
    assert 10 ** 6 * 3 <= MAX_MC_DRAWS

    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(GaussianModel, "sample", drawn)
    for d in (1, 3, 7):
        model, edge = GaussianModel.fock(d), MAX_MC_DRAWS // d
        with pytest.raises(Drawn):
            bochner_mc(model, np.ones(d), samples=edge)
        with pytest.raises(MeasureError, match=f"^{edge + 1} samples in d={d} need more normal "
                                               f"draws than the budget of {MAX_MC_DRAWS}; "
                                               f"lower them to {edge}$"):
            bochner_mc(model, np.ones(d), samples=edge + 1)


def test_cocycle_sweep_budget_is_checked_before_drawing():
    model = GaussianModel.fock(2)
    rng, ref = random.Random(6), random.Random(6)
    with pytest.raises(MeasureError, match="budget"):
        cocycle_sweep(model, rng, MAX_COCYCLE_SAMPLES + 1)
    assert rng.random() == ref.random()  # refused before any draw
    # the budget itself is accepted; a few points stand in for it here
    assert 10 ** 5 <= MAX_COCYCLE_SAMPLES < 10 ** 6
    assert cocycle_sweep(model, rng, 3)[1]


@pytest.mark.parametrize("sweep, budget", [(pd_sweep, MAX_PD_VECTORS)])
def test_weyl_and_pd_budgets_are_checked_before_drawing(sweep, budget):
    # the benchmark draws up to 30 vectors; the budget sits well above it
    assert budget >= 1000
    model = GaussianModel.fock(2)
    rng, ref = random.Random(6), random.Random(6)
    with pytest.raises(MeasureError, match="budget"):
        sweep(model, rng, budget + 1)
    assert rng.random() == ref.random()  # refused before any draw
    assert sweep(model, rng, 3)[1]  # a count under the budget runs


def _worst_test_function(rng, d):
    """A d-mode test function with the most monomials random_test_function
    can draw: exponent vectors (2, ..., 2) and (2, ..., 2, 1)."""
    f = random_test_function(rng, d)
    poly = {(2,) * d: 1.0 + 0.5j, (2,) * (d - 1) + (1,): -0.3 + 1.0j}
    return TestFunction(d, poly, f.quad, f.lin, 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_weyl_budget_bounds_count_times_monomials(d):
    # a random d-mode test function translates into at most 5 * 3^(d-1)
    # monomials, the worst case drawn by _worst_test_function
    per = 5 * 3 ** (d - 1)
    f = _worst_test_function(random.Random(1), d)
    assert sum(math.prod(n + 1 for n in k) for k in f.poly) == per
    rng = random.Random(f"max:{d}")
    for _ in range(200):
        g = random_test_function(rng, d)
        assert sum(math.prod(n + 1 for n in k) for k in g.poly) <= per
    # the selftest checks 50 triples at d = 2, the benchmark up to 100 at
    # d <= 3; both fit with room to spare
    assert 100 * 5 * 3 ** 2 * 10 <= MAX_WEYL_MONOMIALS
    model = GaussianModel.fock(d)
    top = MAX_WEYL_MONOMIALS // per
    rng, ref = random.Random(6), random.Random(6)
    with pytest.raises(MeasureError, match="budget"):
        weyl_sweep(model, rng, top + 1)
    assert rng.random() == ref.random()  # refused before any draw
    assert weyl_sweep(model, rng, min(top, 3))[1]


@pytest.mark.parametrize("d", [9, 10, 14])
def test_weyl_sweep_beyond_the_translate_budget_is_refused_for_every_seed(d):
    # from d = 9 on the worst-case test function is over the translate
    # budget; the sweep is refused up front, not on an unlucky draw
    assert 5 * 3 ** (d - 1) > MAX_TRANSLATE_MONOMIALS >= 5 * 3 ** 7
    model = GaussianModel.fock(d)
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        with pytest.raises(MeasureError, match="translate into .* over the budget"):
            weyl_sweep(model, rng, 1)
        assert rng.random() == ref.random()


def test_weyl_sweep_worst_case_draws_stay_in_the_translate_budget(monkeypatch):
    # at d = 8 even the worst-case test function translates within budget
    monkeypatch.setattr(measure, "random_test_function", _worst_test_function)
    assert weyl_sweep(GaussianModel.fock(8), random.Random(2), 1)[1]


def test_pd_sweep_draws_like_the_vector_list():
    model = _scaled(2, 1.0)
    rng, ref = random.Random(9), random.Random(9)
    vecs = [gauss_vector(ref, 2) for _ in range(12)]
    assert pd_sweep(model, rng, 12) == ({"min_eigenvalue": positive_definiteness_check(
        model.Z, vecs), "tolerance": PD_EIGENVALUE_FLOOR}, True)
    with pytest.raises(MeasureError, match="at least one vector"):
        pd_sweep(model, rng, 0)


@pytest.mark.parametrize(
    "argv",
    [["measure", "cocycle", "--samples", "1000000000"],
     ["measure", "cocycle", "--d", "3", "--samples", str(MAX_COCYCLE_SAMPLES + 1)],
     ["measure", "weyl", "--d", "22", "--count", "1"],
     ["measure", "weyl", "--d", "18", "--count", "3"],
     # at the default d = 2 a test function translates into at most 15 monomials
     ["measure", "weyl", "--count", str(MAX_WEYL_MONOMIALS // 15 + 1)],
     ["measure", "pd-check", "--d", "3", "--count", str(MAX_PD_VECTORS + 1)],
     ["measure", "bochner", "--samples", "100000000000"],
     ["measure", "bochner", "--d", "3", "--samples", str(MAX_MC_DRAWS // 3 + 1)]],
)
def test_cli_measure_budgets_exit_2(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("ccr-hopf: ") and err.count("\n") == 1 and "budget" in err


def test_cli_density_of_singular_covariance_exits_2(tmp_path, capsys):
    kmat = tmp_path / "k.json"
    kmat.write_text("[[10.0, 10.0], [10.0, 10.000000001]]")
    code = main(["measure", "cocycle", "--kmat", str(kmat)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("ccr-hopf: ") and err.count("\n") == 1 and "singular" in err


def test_fock_point_model_takes_a_gram():
    gram = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = GaussianModel.fock(2, gram=gram)
    assert np.array_equal(model.K, math.sqrt(2.0) * np.eye(2))
    assert np.array_equal(model.gram, gram)
    assert np.array_equal(GaussianModel.fock(2).gram, np.eye(2))


def test_p_shifts_and_weights_by_the_embedded_vector():
    # P(v) shifts by u_v = G v, so the cocycle weights by C u_v: under a
    # non-identity real gram the cocycle and density-ratio identities hold
    # to rounding, where weighting by C v left residuals near 1
    gram = np.array([[1.0, 0.5], [0.5, 2.0]])
    k = np.array([[1.0, 0.3], [0.0, 2.0]])
    for model in (GaussianModel.fock(2, gram=gram), GaussianModel(k, gram=gram)):
        fields, passed = cocycle_sweep(model, random.Random(42), 100)
        assert passed
        assert max(fields["cocycle_max_residual"], fields["density_ratio_max_residual"]) < 1e-13
        assert weyl_sweep(model, random.Random(42), 20)[1]
        v, u = gauss_vector(random.Random(3), 2), gauss_vector(random.Random(4), 2)
        err, _, exact = eta_error(model, v, u)
        assert exact == -0.5 * float((model.C @ (gram @ v)) @ u) and err < 1e-8
    # the identity gram gives the floats of no gram, bit for bit
    plain, eye = GaussianModel(k), GaussianModel(k, gram=np.eye(2))
    for sweep, count in ((cocycle_sweep, 50), (weyl_sweep, 20), (eta_sweep, 5)):
        assert sweep(plain, random.Random(9), count) == sweep(eye, random.Random(9), count)


def test_delta_pairing_and_vacuum():
    model = GaussianModel.fock(3)
    rng = random.Random(2)
    one = _constant(3)
    for _ in range(10):
        v = _rand_vec(rng, 3)
        vp = _rand_vec(rng, 3)
        g = _dderiv(apply_phi(model, vp, one), v)
        assert set(g.poly) <= {(0, 0, 0)}
        got = g.poly.get((0, 0, 0), 0.0)
        assert abs(got - float(vp @ v)) < 1e-14
        # cancellation is limited only by the roundoff in C = K K^T
        low = lowering(model, v, one)
        assert all(abs(c) < 1e-15 for c in low.poly.values())
    pts = [_rand_vec(rng, 3) for _ in range(5)]
    assert vacuum_lowering_check(model, np.array([1.0, 0.0, 0.0]), pts) < 1e-12
    other = _scaled(3, 1.0)
    assert vacuum_lowering_check(other, np.array([1.0, 0.0, 0.0]), pts) > 0.01


def test_functional_commutator():
    rng = random.Random(8)
    for d in (1, 2, 3):
        model = GaussianModel.fock(d) if d != 2 else _scaled(2, 1.3)
        for _ in range(20):
            v = _rand_vec(rng, d)
            vp = _rand_vec(rng, d)
            u = _rand_vec(rng, d)
            f = random_test_function(rng, d)
            assert abs(functional_operator_check(model, v, vp, f, u)) < 1e-10


@pytest.mark.parametrize("k", [math.nan, math.inf, 1e200])
def test_model_refuses_non_finite_matrices(k):
    # a NaN or infinite K, and a K whose covariance K K^T overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeasureError):
            GaussianModel(np.diag([k, 1.0]))


def test_mode_count_below_one_is_refused_before_any_array(monkeypatch):
    # numpy refused np.eye(-1) with its own ValueError; the mode admission
    # names the model's smallest size first, as GaussianModel does for a
    # 0 x 0 K
    monkeypatch.setattr(np, "eye", lambda *a, **k: pytest.fail("np.eye was called"))
    for build in (GaussianModel.fock, lambda d: GaussianModel.scaled(d, 0.5)):
        for d in (0, -1, -10 ** 400):
            with pytest.raises(MeasureError, match=r"^K must be at least 1 x 1$"):
                build(d)
