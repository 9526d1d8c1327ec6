"""Truncated Fock numerics against independent oracles: the tridiagonal
oscillator matrix, Gauss-Hermite quadrature, counting degeneracies, the
exact squeezed-vacuum cost, and dense solves of the unsplit matrix."""

from __future__ import annotations

import math
import random
import tracemalloc
from math import comb

import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity, random as sparse_random, vstack
from scipy.sparse.linalg import norm as sparse_norm

from ccr_hopf.algebra import (
    FAM_I,
    UNDEFORMED,
    AlgebraError,
    Presentation,
    adjoint,
    deformation_pair,
    evaluate_numeric,
    normal_form,
    phi,
    random_expr,
)
from ccr_hopf import fock
from ccr_hopf.fock import (
    BogoliubovSpec,
    MAX_STATES,
    FockError,
    ModeSpace,
    bogoliubov_ladder,
    boundedness_trend,
    commutator_matrix,
    expr_matrix,
    field_pair,
    invariant_blocks,
    ladder_of,
    number_operator,
    occupation_states,
    phi_pi_matrices,
    restricted_norm,
    smallest_eigenvalues,
    transfer_rep,
    transfer_residual,
    vacuum_generating_function,
)


def test_basis_enumeration():
    states = occupation_states(2, 2)
    assert states == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    m = ModeSpace(3, 5)
    assert m.dim == comb(5 + 3, 3)
    assert m.states[0] == (0, 0, 0)
    for i, s in enumerate(m.states):
        assert m.index(s) == i
    with pytest.raises(FockError):
        m.index((6, 0, 0))


def _recursive_states(d, nmax):
    # the recursive enumeration occupation_states replaced, kept as the oracle
    out = []

    def grow(prefix, left):
        if len(prefix) == d:
            out.append(prefix)
            return
        for n in range(left + 1):
            grow(prefix + (n,), left - n)

    grow((), nmax)
    return out


def test_occupation_states_match_recursion():
    for d in range(1, 6):
        for nmax in range(0, 7):
            assert occupation_states(d, nmax) == _recursive_states(d, nmax), (d, nmax)
    states = occupation_states(1100, 1)
    assert len(states) == 1101 and states[-1] == (1,) + (0,) * 1099
    with pytest.raises(FockError, match="budget"):
        occupation_states(1000, 30)
    assert len(occupation_states(3, 30)) == comb(33, 3) <= MAX_STATES


def _per_state_lowering(m, index, j):
    # the per-state dict loop the numpy ladders replaced, kept as the
    # oracle; index maps each state to its row
    rows, cols, vals = [], [], []
    for i, s in enumerate(m.states):
        n = s[j]
        if n:
            t = s[:j] + (n - 1,) + s[j + 1 :]
            rows.append(index[t])
            cols.append(i)
            vals.append(math.sqrt(n))
    return csr_matrix((vals, (rows, cols)), shape=(m.dim, m.dim))


def _tridiagonal_gram(d):
    return np.eye(d) * 2.0 + np.eye(d, k=1) * 0.4 + np.eye(d, k=-1) * 0.4


@pytest.mark.parametrize(
    "d, nmax",
    [(d, nmax) for d in range(1, 6) for nmax in range(0, 7)] + [(198, 2), (1100, 1), (1, 19999)],
)
def test_numpy_ladders_match_per_state_loop(d, nmax):
    # a gram enters only the coefficient vectors; the grid checks that the
    # ladders ignore it, the extremes (up to 19900 states, or 1100 modes)
    # run without one
    for gram in (None, _tridiagonal_gram(d)) if d < 6 else (None,):
        m = ModeSpace(d, nmax, gram=gram)
        assert m.states == occupation_states(d, nmax)
        assert np.array_equal(m.occupancy, [sum(s) for s in m.states])
        index = {s: i for i, s in enumerate(m.states)}
        for j in range(d):
            got, want = m._am[j], _per_state_lowering(m, index, j)
            assert got.dtype == np.float64 and got.has_canonical_format
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


def test_index_is_the_lexicographic_rank():
    for d, nmax, step in ((1, 7, 1), (3, 4, 1), (5, 3, 1), (198, 2, 41)):
        m = ModeSpace(d, nmax)
        assert all(m.index(m.states[i]) == i for i in range(0, m.dim, step))
    m = ModeSpace(2, 3)
    for bad in ((4, 0), (2, 2), (-1, 1), (0, 0, 0), (1,)):
        with pytest.raises(FockError, match="outside the cutoff"):
            m.index(bad)


def test_single_mode_ladder_entries():
    m = ModeSpace(1, 2)
    ap, am = bogoliubov_ladder(m)
    want = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]], dtype=complex)
    assert np.allclose(am[0].toarray(), want, atol=0)
    assert np.allclose(ap[0].toarray(), want.T, atol=0)


def test_field_matches_tridiagonal_oscillator():
    # independent construction: <n|x|n+1> = sqrt((n+1)/2) for x=(a+ + a-)/sqrt2
    m = ModeSpace(1, 12)
    phis, pis = phi_pi_matrices(m)
    off = np.sqrt(np.arange(1, 13) / 2.0)
    x = np.diag(off, 1) + np.diag(off, -1)
    assert np.max(np.abs(phis[0].toarray() - x)) < 1e-14
    mom = 1j * (np.diag(off, -1) - np.diag(off, 1))
    assert np.max(np.abs(pis[0].toarray() - mom)) < 1e-14


def test_ladder_ccr_on_safe_subspace():
    rng = random.Random(20240815)
    m = ModeSpace(2, 10)
    eye = np.eye(m.dim)
    for _ in range(5):
        v = np.array([rng.uniform(-1, 1) for _ in range(2)])
        w = np.array([rng.uniform(-1, 1) for _ in range(2)])
        apv, amv = ladder_of(m, v)
        apw, _ = ladder_of(m, w)
        comm = commutator_matrix(amv, apw) - float(v @ w) * eye
        assert restricted_norm(m, comm, 2) < 1e-12


def test_ladder_ccr_with_gram():
    g = np.array([[2.0, 0.3], [0.3, 1.0]])
    m = ModeSpace(2, 8, gram=g)
    rng = random.Random(7)
    eye = np.eye(m.dim)
    for _ in range(5):
        v = np.array([rng.uniform(-1, 1) for _ in range(2)])
        w = np.array([rng.uniform(-1, 1) for _ in range(2)])
        apv, amv = ladder_of(m, v)
        apw, _ = ladder_of(m, w)
        comm = commutator_matrix(amv, apw) - float(v @ g @ w) * eye
        assert restricted_norm(m, comm, 2) < 1e-12


def test_vacuum_annihilated():
    rng = random.Random(99)
    m = ModeSpace(3, 4)
    for _ in range(5):
        v = np.array([rng.uniform(-1, 1) for _ in range(3)])
        _, amv = ladder_of(m, v)
        assert np.linalg.norm(amv @ m.vacuum()) == 0.0


def test_field_hermitian_and_ccr():
    m = ModeSpace(2, 10)
    rng = random.Random(3)
    eye = np.eye(m.dim)
    for _ in range(5):
        v = np.array([rng.uniform(-1, 1) for _ in range(2)])
        w = np.array([rng.uniform(-1, 1) for _ in range(2)])
        phv, piv = field_pair(m, v)
        phw, _ = field_pair(m, w)
        for mat in (phv, piv):
            assert abs(mat - mat.conj().T).max() < 1e-14
        comm = commutator_matrix(piv, phw) + 1j * float(v @ w) * eye
        assert restricted_norm(m, comm, 2) < 1e-12


def test_number_operator_spectrum_and_shift():
    m = ModeSpace(2, 4)
    n = number_operator(m)
    vals = np.sort(np.linalg.eigvalsh(n.toarray()))
    want = sorted(k for k in range(5) for _ in range(comb(k + 1, 1)))
    assert np.allclose(vals, want, atol=1e-12)
    v = np.array([0.6, -0.8])
    m10 = ModeSpace(2, 10)
    n10 = number_operator(m10)
    apv, _ = ladder_of(m10, v)
    resid = commutator_matrix(n10, apv) - apv
    assert restricted_norm(m10, resid, 3) < 1e-10


def test_bogoliubov_fock_point_and_ccr():
    m = ModeSpace(2, 8)
    bp, bm = bogoliubov_ladder(m, BogoliubovSpec.fock(2))
    ap, am = bogoliubov_ladder(m)
    for j in range(2):
        assert abs(bm[j] - am[j]).max() == 0.0
        assert abs(bp[j] - ap[j]).max() == 0.0
    rng = random.Random(11)
    eye = np.eye(m.dim)
    for _ in range(5):
        spec = BogoliubovSpec(tuple(rng.uniform(-1, 1) for _ in range(2)))
        v = np.array([rng.uniform(-1, 1) for _ in range(2)])
        w = np.array([rng.uniform(-1, 1) for _ in range(2)])
        bpv, bmv = ladder_of(m, v, spec)
        bpw, _ = ladder_of(m, w, spec)
        comm = commutator_matrix(bmv, bpw) - float(v @ w) * eye
        assert restricted_norm(m, comm, 2) < 1e-10


def test_bogoliubov_parameterizations():
    spec = BogoliubovSpec.from_c(1, 1.0)
    assert abs(spec.rs[0] - 0.5 * math.log(2.0)) < 1e-15
    assert abs(spec.gammas[0] - 0.5) < 1e-15
    assert abs(spec.cs[0] - 1.0) < 1e-15
    assert abs(BogoliubovSpec.from_c(1, math.sqrt(0.5)).rs[0]) < 1e-15
    assert BogoliubovSpec.from_gamma(2, 1.0).rs == (0.0, 0.0)
    for c in (0.3, 1.7):
        s = BogoliubovSpec.from_c(1, c)
        assert abs(s.gammas[0] - 1.0 / (2 * c * c)) < 1e-14
    with pytest.raises(FockError):
        BogoliubovSpec.from_c(1, 0.0)
    with pytest.raises(FockError):
        bogoliubov_ladder(ModeSpace(2, 3), BogoliubovSpec.fock(3))


def test_squeezed_number_cost_and_true_minimum():
    # the vacuum cost <0|N_b|0> = sinh^2(r) is exact already at small
    # cutoffs; the smallest eigenvalue of the truncated N_b is numerical
    # zero instead, because the squeezed vacuum survives truncation (its
    # amplitudes fall off like tanh(r)^n).  Both facts are pinned.
    r = 0.5 * math.log(2.0)
    m = ModeSpace(1, 30)
    n = number_operator(m, BogoliubovSpec.uniform(1, r))
    vac = m.vacuum()
    occ = float(np.vdot(vac, n @ vac).real)
    assert abs(occ - 0.125) < 1e-12
    low = smallest_eigenvalues(n, 1)
    assert -1e-10 < low[0] < 1e-8



def _spec(family, d, r):
    if family == "fock":
        return BogoliubovSpec.fock(d)
    if family == "uniform":
        return BogoliubovSpec.uniform(d, r)
    return BogoliubovSpec.summable(d, r)


@pytest.mark.parametrize("family", ["fock", "uniform", "summable"])
def test_smallest_eigenvalues_match_unsplit_dense(family):
    rng = random.Random(f"blocks:{family}")
    for d, nmax in ((1, 9), (2, 6), (3, 4), (4, 3)):
        n = number_operator(ModeSpace(d, nmax), _spec(family, d, rng.uniform(0.1, 0.6)))
        full = np.linalg.eigvalsh(n.toarray())
        for k in (5, n.shape[0], n.shape[0] + 3):
            got = smallest_eigenvalues(n, k)
            assert len(got) == min(k, n.shape[0])
            assert np.allclose(got, full[:k], rtol=0, atol=1e-10)


def test_smallest_eigenvalues_any_hermitian_matrix():
    # blocks of a generic complex Hermitian matrix, states shuffled so
    # that no block is contiguous, plus isolated diagonal states
    rng = np.random.default_rng(7)
    dim, sizes = 40, (7, 5, 5, 3, 2)
    perm = rng.permutation(dim)
    a = np.zeros((dim, dim), dtype=complex)
    start = 0
    for size in sizes:
        x = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        idx = perm[start : start + size]
        a[np.ix_(idx, idx)] = x + x.conj().T
        start += size
    for i in perm[start:]:
        a[i, i] = rng.normal()
    m = csr_matrix(a)
    labels, block_sizes = invariant_blocks(m)
    assert sorted(block_sizes) == sorted(sizes + (1,) * (dim - start))
    full = np.linalg.eigvalsh(a)
    for k in (1, 6, dim):
        assert np.allclose(smallest_eigenvalues(m, k), full[:k], rtol=0, atol=1e-10)


@pytest.mark.parametrize("family", ["fock", "uniform", "summable"])
def test_number_operator_is_real(family):
    for gram in (None, _tridiagonal_gram(3)):
        m = ModeSpace(3, 5, gram=gram)
        spec = _spec(family, 3, 0.4)
        n = number_operator(m, spec)
        assert n.dtype == np.float64
        assert abs(n - n.T).max() == 0.0
        # one stacked product against the per-mode sum it replaced: the
        # order of the additions differs, the vacuum entry does not
        bp, bm = bogoliubov_ladder(m, spec)
        ref = sum(p @ q for p, q in zip(bp, bm))
        assert abs(n - ref).max() <= 1e-13
        assert n[0, 0] == ref[0, 0]
    assert number_operator(ModeSpace(2, 4)).dtype == np.float64


def _per_mode_lowerings(m, spec):
    # the per-mode sums the one-pass stack replaced, kept as the oracle
    return [
        (math.cosh(r) * a + math.sinh(r) * a.conj().T.tocsr()).tocsr()
        for a, r in zip(m._am, spec.rs)
    ]


def _same_csr(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data))


@pytest.mark.parametrize("d, nmax", [(1, 0), (1, 9), (2, 6), (3, 5), (4, 4), (198, 2), (1100, 1)])
def test_one_pass_lowerings_match_per_mode_sums(d, nmax):
    # every b-_j and the number operator B^T B, array for array, against the
    # per-mode scipy sums, for zero, uniform, halving and mixed-sign squeezing
    rng = random.Random(d * 100 + nmax)
    m = ModeSpace(d, nmax, gram=_tridiagonal_gram(d) if d < 6 else None)
    specs = [BogoliubovSpec.fock(d), BogoliubovSpec.uniform(d, 0.45),
             BogoliubovSpec.summable(d, 1.3),
             BogoliubovSpec(tuple(rng.uniform(-3.0, 3.0) for _ in range(d)))]
    for spec in specs if d < 6 else specs[::3]:  # the oracle is slow at many modes
        want = _per_mode_lowerings(m, spec)
        got = fock._lowering_ladder(m, spec)
        assert len(got) == d and all(_same_csr(g, w) for g, w in zip(got, want))
        stacked = vstack(want, format="csr")
        assert _same_csr(number_operator(m, spec), (stacked.T @ stacked).tocsr())
    stacked = vstack(m._am, format="csr")
    assert _same_csr(number_operator(m), (stacked.T @ stacked).tocsr())


@pytest.mark.parametrize("d, nmax", [(2, 62), (3, 21), (4, 13)])
def test_real_block_solve_matches_complex(d, nmax):
    # the float64 blocks take the real symmetric eigen-solver; the same
    # matrix as complex takes the Hermitian one
    n = number_operator(ModeSpace(d, nmax), BogoliubovSpec.summable(d, 0.45))
    real = smallest_eigenvalues(n, 7)
    cplx = smallest_eigenvalues(n.astype(complex), 7)
    assert np.allclose(real, cplx, rtol=0, atol=1e-12)


def test_invariant_blocks_are_parity_sectors():
    for d, nmax in ((1, 7), (2, 6), (4, 5)):
        m = ModeSpace(d, nmax)
        labels, sizes = invariant_blocks(number_operator(m, BogoliubovSpec.uniform(d, 0.3)))
        assert len(sizes) == 2**d and sizes.sum() == m.dim
        parity = [tuple(x % 2 for x in s) for s in m.states]
        assert len(set(zip(labels, parity))) == 2**d
        _, sizes = invariant_blocks(number_operator(m))
        assert len(sizes) == m.dim


def test_fock_family_above_the_old_dense_limit():
    # dim 2016, where a fixed-start Lanczos used to return [1, 2, 2, 3, 3]
    m = ModeSpace(2, 62)
    assert m.dim == 2016
    got = smallest_eigenvalues(number_operator(m), 5)
    assert np.allclose(got, [0, 1, 1, 2, 2], rtol=0, atol=1e-12)


def test_pinned_four_fold_cluster():
    # mode-permutation symmetry makes the first excited level exactly
    # 4-fold at d=4; a Lanczos solve used to split it
    n = number_operator(ModeSpace(4, 13), BogoliubovSpec.uniform(4, 0.175))
    vals = smallest_eigenvalues(n, 5)
    # the truncated ground state sits just above zero
    assert abs(vals[0]) < 1e-6
    assert max(vals[1:]) - min(vals[1:]) < 1e-9
    assert abs(vals[1] - 1.0) < 1e-6


def test_smallest_eigenvalues_budget_and_k():
    n = number_operator(ModeSpace(1, 4), BogoliubovSpec.uniform(1, 0.3))
    assert smallest_eigenvalues(n, 0) == ()
    with pytest.raises(FockError, match="non-negative"):
        smallest_eigenvalues(n, -1)
    # one mode splits into two parity blocks of 2051 states each
    big = number_operator(ModeSpace(1, 4100), BogoliubovSpec.uniform(1, 0.3))
    with pytest.raises(FockError, match="budget"):
        smallest_eigenvalues(big, 5)


def test_generating_function_fock():
    m = ModeSpace(2, 12)
    assert abs(vacuum_generating_function(m, np.zeros(2)) - 1.0) == 0.0
    m1 = ModeSpace(1, 20)
    z = vacuum_generating_function(m1, np.array([1.0]))
    assert abs(z - math.exp(-0.25)) < 1e-8
    errs = []
    for nmax in (5, 10, 20, 40):
        zz = vacuum_generating_function(ModeSpace(1, nmax), np.array([1.0]))
        errs.append(abs(zz - math.exp(-0.25)))
    # strictly decreasing until the roundoff floor
    for a, b in zip(errs, errs[1:]):
        assert b < a or b < 1e-12


def test_generating_function_overflow_is_a_fock_error():
    # scipy's step-count estimate overflows at this |v|
    with pytest.raises(FockError, match="too large"):
        vacuum_generating_function(ModeSpace(1, 10), np.array([1e300]))


def test_generating_function_bogoliubov_quadrature():
    # oracle: the ground-state distribution is exp(-u^2)/sqrt(pi) in these
    # units, and squeezing scales the field by exp(r), so Z is a direct
    # Gauss-Hermite sum of exp(i exp(r) u)
    r = 0.5 * math.log(2.0)
    m = ModeSpace(1, 40)
    z = vacuum_generating_function(m, np.array([1.0]), BogoliubovSpec.uniform(1, r))
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    quad = np.sum(weights * np.exp(1j * math.exp(r) * nodes)) / math.sqrt(math.pi)
    assert abs(z - quad) < 1e-10
    assert abs(z - math.exp(-0.5)) < 1e-6


def test_transfer_commutator_and_identity_points():
    m = ModeSpace(2, 10)
    rng = random.Random(21)
    eye = np.eye(m.dim)
    for _ in range(6):
        q = rng.uniform(0.2, 3.0)
        c = rng.uniform(0.2, 3.0)
        rep = transfer_rep(m, q, c)
        v = np.array([rng.uniform(-1, 1) for _ in range(2)])
        w = np.array([rng.uniform(-1, 1) for _ in range(2)])
        comm = commutator_matrix(rep.pi(v), rep.phi(w)) + 1j * rep.constant * float(
            v @ w
        ) * eye
        assert restricted_norm(m, comm, 2) < 1e-12
        assert transfer_residual(m, rep, v, w) < 1e-12
    v = np.array([0.3, 0.4])
    plain = field_pair(m, v)
    for q, c in ((1.0, 2.5), (1.7, 1.0)):
        rep = transfer_rep(m, q, c)
        assert abs(rep.pi(v) - plain[1]).max() < 1e-15
        assert abs(rep.phi(v) - plain[0]).max() == 0.0


def test_transfer_residual_stays_sparse():
    # one dense dim x dim complex matrix at dim 2556 takes 105 MB
    m = ModeSpace(2, 70)
    assert m.dim >= 2500
    rep = transfer_rep(m, 1.5, 2.0)
    v, w = np.array([0.3, -0.7]), np.array([0.5, 0.2])
    transfer_residual(m, rep, v, w)  # first-use imports stay out of the peak
    tracemalloc.start()
    try:
        res = transfer_residual(m, rep, v, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res < 1e-12
    assert peak < 32e6


def test_expr_matrix_functor_property():
    # the transfer representation factors through the rewrite relations
    m = ModeSpace(2, 8)
    rng = random.Random(20240816)
    cases = [
        Presentation(variant="deformed-strict", q=1.3, c=0.7),
        Presentation(variant="deformed-strict", q=1.3, c=0.7, basis="ladder"),
        Presentation(variant="deformed-collapsed", q=0.8, c=1.9),
        Presentation(),
    ]
    for p in cases:
        for _ in range(8):
            e = random_expr(rng, p, 3, 2)
            lhs = expr_matrix(normal_form(e, p), m, p)
            rhs = expr_matrix(e, m, p)
            assert restricted_norm(m, lhs - rhs, 3) < 1e-10


def test_expr_matrix_functor_with_gram():
    from fractions import Fraction

    g = [[1, Fraction(1, 2)], [Fraction(1, 2), 2]]
    p = Presentation(variant="deformed-strict", q=1.4, c=0.6, gram=g)
    m = ModeSpace(2, 8, gram=np.array([[1.0, 0.5], [0.5, 2.0]]))
    rng = random.Random(5)
    for _ in range(6):
        e = random_expr(rng, p, 3, 2)
        lhs = expr_matrix(normal_form(e, p), m, p)
        rhs = expr_matrix(e, m, p)
        assert restricted_norm(m, lhs - rhs, 3) < 1e-10


def test_expr_matrix_adjoint_consistency():
    m = ModeSpace(2, 6)
    p = Presentation(variant="deformed-strict", q=1.2, c=1.5)
    rng = random.Random(17)
    for _ in range(10):
        e = random_expr(rng, p, 3, 2)
        lhs = expr_matrix(adjoint(e, p), m, p)
        rhs = expr_matrix(e, m, p).conj().T
        assert abs(lhs - rhs).max() < 1e-12


def test_expr_matrix_requirements():
    m = ModeSpace(1, 4)
    p = Presentation(variant="deformed-strict")
    from ccr_hopf.algebra import phi

    with pytest.raises(FockError):
        expr_matrix(phi(0), m, p)  # symbolic presentation, no q, c
    with pytest.raises(FockError):
        expr_matrix(phi(1), m, p, q=1.5, c=0.5)  # mode out of range


@pytest.mark.parametrize(
    "gram", [[[1.0, 0.5], [0.5, 2.0]], [[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.5]]]
)
def test_transfer_residual_with_gram(gram):
    # [pi(v), phi(w)] = -i c(q,c) Re(v^H G w) on the safe subspace; the
    # oracle reads the scalar off the vacuum entry of the commutator
    g = np.array(gram)
    m = ModeSpace(2, 6, gram=g)
    rng = random.Random(42)
    for _ in range(4):
        rep = transfer_rep(m, rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5))
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(2)])
        w = np.array([rng.gauss(0.0, 1.0) for _ in range(2)])
        inner = sum(v[j] * g[j, k] * w[k] for j in range(2) for k in range(2)).real
        comm = commutator_matrix(rep.pi(v), rep.phi(w))
        assert abs(comm[0, 0] + 1j * rep.constant * inner) < 1e-12
        assert transfer_residual(m, rep, v, w) < 1e-12
        # the Euclidean v.w is the wrong target whenever it differs
        euclid = comm + 1j * rep.constant * float(v @ w) * np.eye(m.dim)
        assert restricted_norm(m, euclid, 2) > 1e-3


def test_letter_matrix_cache_matches_fresh_spaces():
    # one shared space while (q, c) alternates: each matrix equals, entry by
    # entry, the one built on a fresh space, although every earlier result
    # was changed in place by its caller
    shared = ModeSpace(2, 6)
    cases = [
        (Presentation(variant="deformed-strict"), 1.3, 0.7),
        (Presentation(), None, None),
        (Presentation(variant="deformed-strict", basis="ladder"), 1.7, 1.1),
        (Presentation(variant="deformed-collapsed"), 0.8, 1.9),
    ]
    from ccr_hopf.algebra import phi, unit

    rng = random.Random(44)
    for k in range(24):
        p, q, c = cases[k % len(cases)]
        e = (unit(), phi(0), random_expr(rng, p, 3, 2))[k % 3]
        got = expr_matrix(e, shared, p, q=q, c=c)
        want = expr_matrix(e, ModeSpace(2, 6), p, q=q, c=c)
        assert np.array_equal(got.toarray(), want.toarray())
        got.data[:] = 7.0


def test_criterion_9_builds_each_letter_set_once(monkeypatch):
    from ccr_hopf import fock, selftest

    builds = []
    build = fock._build_letter_matrices

    def counted(m, constant, scale):
        builds.append((constant, scale))
        return build(m, constant, scale)

    monkeypatch.setattr(fock, "_build_letter_matrices", counted)
    cached = selftest.criterion_09(42)
    assert len(builds) == 4
    # the same criterion with a fresh build for every expression
    monkeypatch.setattr(fock, "_letter_matrices", build)
    assert selftest.criterion_09(42) == cached


def _expr_matrix_loop(e, m, p, q, c):
    # the per-call loop the word cache replaced, kept as the oracle: every
    # word multiplied out from the identity, on letter matrices built afresh
    constant, scale = (1.0, 1.0) if p.variant == UNDEFORMED else deformation_pair(q, c)
    mats = fock._build_letter_matrices(m, constant, scale)
    total = csr_matrix((m.dim, m.dim), dtype=complex)
    for word, coeff in sorted(evaluate_numeric(e, {"kappa": constant, "s": scale}).items()):
        cur = mats[(FAM_I, 0)]
        for letter in word:
            cur = cur @ mats[letter]
        total = total + coeff * cur
    return total


_CRITERION_9_CONFIGS = [
    (Presentation(), 1.0, 1.0),
    (Presentation(variant="deformed-strict"), 1.3, 0.7),
    (Presentation(variant="deformed-strict", basis="ladder"), 1.7, 1.1),
    (Presentation(variant="deformed-collapsed"), 0.8, 1.9),
]


@pytest.mark.parametrize(
    "d, nmax, gram", [(2, 10, None), (2, 7, [[1.0, 0.4], [0.4, 1.5]]), (3, 5, None),
                      (3, 5, [[2.0, 0.4, 0.1], [0.4, 1.5, 0.3], [0.1, 0.3, 1.0]])]
)
def test_expr_matrix_matches_the_per_call_loop(d, nmax, gram):
    # one shared space, so later expressions start from prefixes cached by
    # earlier ones; every entry equals the loop's float.  A gram puts three
    # or more terms into one entry, where the order of the sum shows.
    m = ModeSpace(d, nmax, gram=gram)
    rng = random.Random(90 + d)
    for k in range(48):
        p, q, c = _CRITERION_9_CONFIGS[k % 4]
        e = random_expr(rng, p, max_degree=4, modes=d)
        for x in (e, normal_form(e, p)):
            got = expr_matrix(x, m, p, q=q, c=c)
            want = _expr_matrix_loop(x, m, p, q, c)
            assert np.array_equal(got.toarray(), want.toarray())
    assert len(m._words) == 4 and all(len(w) > 20 for w in m._words.values())


def test_expr_matrix_result_is_never_a_cached_matrix():
    m = ModeSpace(2, 5)
    p = Presentation(variant="deformed-strict")
    rng = random.Random(17)
    exprs = [phi(0), random_expr(rng, p, 3, 2), random_expr(rng, p, 3, 2)]
    first = [expr_matrix(e, m, p, q=1.4, c=0.6).toarray() for e in exprs]
    for e, want in zip(exprs * 2, first * 2):
        got = expr_matrix(e, m, p, q=1.4, c=0.6)
        for cached in m._words[deformation_pair(1.4, 0.6)].values():
            assert not np.shares_memory(got.data, cached.data)
        assert np.array_equal(got.toarray(), want)
        got.data[:] = 7.0  # a caller changing its result in place
        got.indices[:] = 0


def test_restricted_norm_matches_scipy_column_slice():
    # the same float, not merely a close one: 300 random matrices, complex
    # and real, with CSR rows in scrambled column order half of the time
    gen = np.random.default_rng(5)
    m = ModeSpace(2, 10)
    for k in range(300):
        a = sparse_random(66, 66, density=gen.uniform(0.02, 0.5), format="csr", rng=gen,
                          dtype=complex if k % 3 else float)
        if k % 3:
            a.data += 1j * gen.standard_normal(a.nnz)
        if k % 2:
            for i in range(66):  # unsorted column indices within each row
                lo, hi = a.indptr[i], a.indptr[i + 1]
                order = lo + gen.permutation(hi - lo)
                a.indices[lo:hi], a.data[lo:hi] = a.indices[order], a.data[order]
            a.has_sorted_indices = False
        for degree in (0, 2, 3):
            cols = np.where(m.safe_mask(degree))[0]
            assert restricted_norm(m, a, degree) == float(sparse_norm(a.tocsc()[:, cols]))
            dense = a.toarray()
            assert restricted_norm(m, dense, degree) == float(np.linalg.norm(dense[:, cols]))
    assert restricted_norm(m, csr_matrix((66, 66)), 3) == 0.0
    assert restricted_norm(m, identity(66, format="csr"), 10) == 1.0


def test_boundedness_trend():
    rep = boundedness_trend()
    occs = [r.vacuum_occupancy for r in rep.uniform]
    assert np.allclose(occs, [0.125, 0.25, 0.375], atol=1e-10)
    want = [
        sum(math.sinh(0.5 * math.log(2.0) * 2.0 ** (-j)) ** 2 for j in range(d))
        for d in (1, 2, 3)
    ]
    got = [r.vacuum_occupancy for r in rep.summable]
    assert np.allclose(got, want, atol=1e-10)
    assert all(r.converged for r in rep.uniform + rep.summable)
    assert abs(rep.uniform_slope - 0.125) < 1e-10
    assert rep.slope_ratio >= 5.0
    # all-zero squeezing keeps the cost and the spectrum floor at zero
    m = ModeSpace(2, 6)
    n = number_operator(m, BogoliubovSpec.fock(2))
    assert abs(smallest_eigenvalues(n, 1)[0]) < 1e-12


def test_gram_validation():
    with pytest.raises(FockError):
        ModeSpace(2, 3, gram=np.array([[1.0, 0.9], [0.2, 1.0]]))
    with pytest.raises(FockError):
        ModeSpace(2, 3, gram=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(FockError):
        ModeSpace(2, 3, gram=np.eye(3))
    with pytest.raises(FockError):
        ModeSpace(0, 3)


@pytest.mark.parametrize("q, c", [(math.nan, 1.0), (1.5, math.nan), (math.inf, 0.8), (1e300, 2.0)])
def test_transfer_refuses_unusable_deformation(q, c):
    m = ModeSpace(1, 2)
    with pytest.raises(AlgebraError):
        transfer_rep(m, q, c)
    with pytest.raises(AlgebraError):
        expr_matrix(phi(0), m, Presentation(variant="deformed-strict"), q=q, c=c)
