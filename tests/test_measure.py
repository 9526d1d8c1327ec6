"""Gaussian-measure realization: exact cocycle identities, the eta limit,
Bochner Monte Carlo, Weyl composition with symbolic phases, and the
functional operator formulas cross-checked against the matrix picture."""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ccr_hopf import measure
from ccr_hopf.cli import main
from ccr_hopf.measure import (
    MAX_MC_DRAWS,
    MAX_TRANSLATE_MONOMIALS,
    GaussianModel,
    MeasureError,
    TestFunction,
    WeylElement,
    apply_phi,
    apply_pi,
    bochner_mc,
    cocycle,
    cocycle_check,
    cocycle_sweep,
    density_ratio_check,
    eta,
    eta_error,
    functional_operator_check,
    gauss_vector,
    hermite_matrix_check,
    lowering,
    p_op,
    positive_definiteness_check,
    random_test_function,
    t_op,
    vacuum_lowering_check,
    weyl_compose,
    weyl_identity,
    weyl_relation_check,
    weyl_sweep,
)


def _rand_vec(rng, d, scale=1.0):
    return np.array([rng.uniform(-scale, scale) for _ in range(d)])


def test_model_basics():
    m = GaussianModel.fock(2)
    assert np.allclose(m.C, 2.0 * np.eye(2), atol=1e-15)
    v = np.array([0.3, -1.1])
    assert abs(m.M(v) - 0.5 * float(v @ v)) < 1e-14
    assert abs(m.Z(v) - math.exp(-0.25 * float(v @ v))) < 1e-14
    mc = GaussianModel.scalar_c(2, 1.7)
    assert abs(mc.M(v) - 1.7 ** 2 * float(v @ v)) < 1e-12
    with pytest.raises(MeasureError):
        GaussianModel(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(MeasureError):
        GaussianModel.scalar_c(2, 0.0)
    with pytest.raises(MeasureError):
        GaussianModel(np.eye(0))
    rng = np.random.default_rng(4)
    u = m.sample(40000, rng)
    cov = np.cov(u.T)
    assert np.allclose(cov, np.linalg.inv(m.C), atol=0.03)


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
    worst_c, worst_r = cocycle_sweep(model, rng, 20)
    want_c = want_r = 0.0
    for _ in range(20):
        v, vp, u = (np.array([ref.gauss(0, 1) for _ in range(2)]) for _ in range(3))
        want_c = max(want_c, cocycle_check(model, v, vp, u))
        want_r = max(want_r, density_ratio_check(model, v, u))
    assert (worst_c, worst_r) == (want_c, want_r) and max(want_c, want_r) < 1e-10
    worst = weyl_sweep(model, rng, 5)
    want = 0.0
    for _ in range(5):
        v, vp, u = (np.array([ref.gauss(0, 1) for _ in range(2)]) for _ in range(3))
        f = random_test_function(ref, 2)
        want = max(want, abs(weyl_relation_check(model, v, vp, f, u)))
    assert worst == want < 1e-10
    assert rng.random() == ref.random()  # both streams consumed alike
    v, u = gauss_vector(rng, 2), gauss_vector(rng, 2)
    err, estimate, exact = eta_error(model, v, u)
    assert exact == -0.5 * float((model.C @ v) @ u)
    assert estimate == eta(model, v, u) and err == abs(estimate - exact) < 1e-8
    for count in (0, -1):
        with pytest.raises(MeasureError):
            cocycle_sweep(model, rng, count)
        with pytest.raises(MeasureError):
            weyl_sweep(model, rng, count)


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


def test_positive_definiteness():
    model = GaussianModel.fock(2)
    rng = random.Random(11)
    vecs = [_rand_vec(rng, 2, 2.0) for _ in range(8)]
    assert positive_definiteness_check(model.Z, vecs) >= -1e-10
    assert positive_definiteness_check(model.Z, [np.zeros(2)]) == 1.0
    mc = GaussianModel.scalar_c(2, 1.0)
    assert positive_definiteness_check(mc.Z, vecs) >= -1e-10
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
    assert positive_definiteness_check(mc.Z, vecs, coeffs) >= -1e-10
    with pytest.raises(MeasureError):
        positive_definiteness_check(model.Z, vecs, coeffs[:3])


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
    lhs = p_op(model, np.zeros(2), t_op(model, vp, f)).evaluate(u)
    assert abs(lhs - t_op(model, vp, f).evaluate(u)) < 1e-12
    v = _rand_vec(rng, 2)
    lhs = p_op(model, v, t_op(model, np.zeros(2), f)).evaluate(u)
    assert abs(lhs - p_op(model, v, f).evaluate(u)) < 1e-12


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
            f.mul_affine(w, 0.7).evaluate(u) - (float(w @ u) + 0.7) * f.evaluate(u)
        ) < 1e-12
        # exact directional derivative against a central difference
        h = 1e-6
        v = _rand_vec(rng, 2)
        num = (f.evaluate(u + h * v) - f.evaluate(u - h * v)) / (2 * h)
        assert abs(f.dderiv(v).evaluate(u) - num) < 1e-6
    with pytest.raises(MeasureError):
        f + f.phase(np.array([1.0, 0.0]))
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
    allclose = np.allclose
    monkeypatch.setattr(np, "allclose", lambda *a, **k: calls.append(1) or allclose(*a, **k))
    for d in (1, 2, 3):
        for _ in range(10):
            f = random_test_function(rng, d)
            g = random_test_function(rng, d)
            g = TestFunction(d, g.poly, f.quad, f.lin, f.const)
            t, w = _rand_vec(rng, d), _rand_vec(rng, d)
            del calls[:]
            derived = [f.translate(t), f.phase(w), f.with_exponent(0.3 * w, -0.2), f.scale(1.5j),
                       f + g, f - g, f.mul_affine(w, 0.7), f.mul_affine(w), f.dderiv(t)]
            assert not calls
            for h in derived:
                _assert_same_function(h, TestFunction(h.d, h.poly, h.quad, h.lin, h.const))
    # zero coefficients are dropped, as the constructor drops them
    f = TestFunction(2, {(1, 0): 1.0, (0, 1): 2.0})
    assert list((f - f).poly) == [] and (f - f).is_zero()
    model = GaussianModel.fock(2)
    del calls[:]
    weyl_sweep(model, random.Random(3), 7)
    assert len(calls) == 7  # one random function per point


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
                  GaussianModel.scalar_c(3, 0.7)):
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


def test_bochner_budget():
    # the selftest and the benchmark draw at most 1e6 x 3
    assert 10 ** 6 * 3 <= MAX_MC_DRAWS
    for d in (1, 3):
        with pytest.raises(MeasureError, match="budget"):
            bochner_mc(GaussianModel.fock(d), np.ones(d), samples=MAX_MC_DRAWS // d + 1)


@pytest.mark.parametrize(
    "argv",
    [["measure", "weyl", "--d", "22", "--count", "1"],
     ["measure", "weyl", "--d", "18", "--count", "3"],
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


def test_delta_pairing_and_vacuum():
    model = GaussianModel.fock(3)
    rng = random.Random(2)
    one = TestFunction.constant(3)
    for _ in range(10):
        v = _rand_vec(rng, 3)
        vp = _rand_vec(rng, 3)
        g = apply_phi(model, vp, one).dderiv(v)
        assert set(g.poly) <= {(0, 0, 0)}
        got = g.poly.get((0, 0, 0), 0.0)
        assert abs(got - float(vp @ v)) < 1e-14
        # cancellation is limited only by the roundoff in C = K K^T
        low = lowering(model, v, one)
        assert all(abs(c) < 1e-15 for c in low.poly.values())
    pts = [_rand_vec(rng, 3) for _ in range(5)]
    assert vacuum_lowering_check(model, np.array([1.0, 0.0, 0.0]), pts) < 1e-12
    other = GaussianModel.scalar_c(3, 1.0)
    assert vacuum_lowering_check(other, np.array([1.0, 0.0, 0.0]), pts) > 0.01


def test_functional_commutator():
    rng = random.Random(8)
    for d in (1, 2, 3):
        model = GaussianModel.fock(d) if d != 2 else GaussianModel.scalar_c(2, 1.3)
        for _ in range(20):
            v = _rand_vec(rng, d)
            vp = _rand_vec(rng, d)
            u = _rand_vec(rng, d)
            f = random_test_function(rng, d)
            assert abs(functional_operator_check(model, v, vp, f, u)) < 1e-10


def test_hermite_cross_check():
    diffs = hermite_matrix_check(nmax=10)
    assert diffs["phi"] < 1e-10
    assert diffs["pi"] < 1e-10


@pytest.mark.parametrize("k", [math.nan, math.inf, 1e200])
def test_model_refuses_non_finite_matrices(k):
    # a NaN or infinite K, and a K whose covariance K K^T overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeasureError):
            GaussianModel(np.diag([k, 1.0]))
