"""Truncated Fock numerics against independent oracles: the tridiagonal
oscillator matrix, Gauss-Hermite quadrature, counting degeneracies, the
exact squeezed-vacuum cost, dense solves of the unsplit matrix, and
scipy's sparse matrices, entry for entry, as the reference for the
SparseOp arithmetic."""

from __future__ import annotations

import math
import random
import re
import time
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, identity, random as sparse_random, vstack
from scipy.sparse.linalg import norm as sparse_norm

from ccr_hopf.algebra import (
    FAM_AM,
    FAM_AP,
    FAM_I,
    FAM_K,
    FAM_KINV,
    FAM_PHI,
    FAM_PI,
    UNDEFORMED,
    AlgebraError,
    Presentation,
    adjoint,
    am,
    ap,
    deformation_pair,
    evaluate_numeric,
    normal_form,
    phi,
    pi,
    random_expr,
)
from ccr_hopf import fock, measure
from ccr_hopf.fock import (
    GENFUN_TAIL_BUDGET,
    BogoliubovSpec,
    MAX_DENSE_ENTRIES,
    MAX_STATES,
    MAX_TABLE_ENTRIES,
    FockError,
    ModeSpace,
    SparseOp,
    boundedness_trend,
    commutator_matrix,
    expr_matrix,
    field_pair,
    genfun_budget,
    invariant_blocks,
    ladder_of,
    matrices_budget,
    number_operator,
    occupation_array,
    phi_pi_matrices,
    restricted_norm,
    smallest_eigenvalues,
    spectrum_check,
    transfer_rep,
    transfer_check,
    vacuum_generating_function,
)


def _states(d, nmax):
    return list(map(tuple, occupation_array(d, nmax).tolist()))


def _index(m, occ):
    # the row of an occupation tuple: its lexicographic rank, from the
    # prefix sums and the library's _tail_counts table
    occ = tuple(int(n) for n in occ)
    if len(occ) != m.d or min(occ) < 0 or sum(occ) > m.nmax:
        raise FockError(f"occupation {occ} outside the cutoff")
    prefix = np.cumsum((0,) + occ)[None, :]
    return int(fock._ranks(prefix, fock._tail_counts(m.d, m.nmax))[0])


def _lowering_ladder(m, spec):
    # the per-mode b-_j, the row blocks of the library's one stack; the
    # a-_j when spec is None
    b = fock._squeezed_stack(m, spec)
    ends = np.searchsorted(b.rows, np.arange(m.d + 1) * m.dim)
    return [SparseOp(b.rows[lo:hi] - j * m.dim, b.cols[lo:hi], b.vals[lo:hi], (m.dim, m.dim))
            for j, (lo, hi) in enumerate(zip(ends[:-1], ends[1:]))]


def _per_mode_ladder(m, v, spec=None):
    # ladder_of as the per-mode row blocks combined one mode at a time,
    # kept as the oracle for weighting the stack row by row
    w = m.coords(v)
    lowering = _lowering_ladder(m, spec)
    am = fock._linear_combination(
        ((np.conj(w[j]), lowering[j]) for j in range(m.d) if w[j] != 0), m.dim)
    return am.conj().T, am


def test_basis_enumeration():
    states = ModeSpace(2, 2).states
    assert states == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    m = ModeSpace(3, 5)
    assert m.dim == comb(5 + 3, 3)
    assert m.states[0] == (0, 0, 0)
    for i, s in enumerate(m.states):
        assert _index(m, s) == i
    with pytest.raises(FockError):
        _index(m, (6, 0, 0))


def _recursive_states(d, nmax):
    # the recursive enumeration occupation_array replaced, kept as the oracle
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
            assert _states(d, nmax) == _recursive_states(d, nmax), (d, nmax)
    states = _states(1100, 1)
    assert len(states) == 1101 and states[-1] == (1,) + (0,) * 1099
    with pytest.raises(FockError, match="budget"):
        occupation_array(1000, 30)
    assert len(_states(3, 30)) == comb(33, 3) <= MAX_STATES


def test_state_budget_is_decided_without_the_exact_binomial():
    # refused exactly when comb(d + nmax, d) passes the budget, at every
    # size around it
    for d in range(1, 40):
        for nmax in range(0, 40):
            over = comb(d + nmax, d) > MAX_STATES
            try:
                states = fock._check_states(d, nmax)
            except FockError as exc:
                assert over and f"d={d}, nmax={nmax} exceeds the budget" in str(exc)
            else:
                assert not over and states == comb(d + nmax, d), (d, nmax)
    # comb(2n, n) at n = 10^6 took 37 s; the factors pass the budget at once
    for d, nmax in ((4_000_000, 4_000_000), (1, 10 ** 9), (10 ** 9, 1), (10 ** 12, 10 ** 12)):
        with pytest.raises(FockError, match="budget"):
            fock._check_states(d, nmax)
    fock._check_states(MAX_STATES - 1, 1)
    fock._check_states(1, MAX_STATES - 1)
    # at nmax = 0 the basis is one state whatever d is; the mode budget
    # admits the modes a basis with nmax >= 1 may span, and no more
    fock._check_states(MAX_STATES - 1, 0)
    for d in (MAX_STATES, 10 ** 400):
        with pytest.raises(FockError, match=f"over the budget of {MAX_STATES - 1} modes"):
            fock._check_states(d, 0)


def test_matrices_budget_counts_the_dense_entries():
    # 2 d dim^2 entries against the budget, at every small size and across
    # its edge; what the CLI, the contract table and the benchmark print
    # stays inside it
    for d in range(1, 30):
        for nmax in range(0, 12):
            dim = comb(d + nmax, d)
            if dim > MAX_STATES:
                continue
            try:
                matrices_budget(d, nmax)
            except FockError as exc:
                assert 2 * d * dim * dim > MAX_DENSE_ENTRIES, (d, nmax)
                assert f"hold {2 * d * dim * dim} entries, over the budget" in str(exc)
            else:
                assert 2 * d * dim * dim <= MAX_DENSE_ENTRIES, (d, nmax)
    matrices_budget(1, 352)  # 247,808 entries
    for d, nmax in ((1, 353), (120, 1), (1, MAX_STATES - 1), (MAX_STATES - 1, 1)):
        with pytest.raises(FockError, match=f"over the budget of {MAX_DENSE_ENTRIES}"):
            matrices_budget(d, nmax)
    for d, nmax in ((2, 10), (2, 3), (1, 5), (2, 5), (MAX_STATES - 1, 0)):
        matrices_budget(d, nmax)
    # the state and mode budgets come first; what ModeSpace refuses is left to it
    with pytest.raises(FockError, match="occupation basis"):
        matrices_budget(4_000_000, 4_000_000)
    with pytest.raises(FockError, match="modes"):
        matrices_budget(MAX_STATES, 0)
    matrices_budget(0, 3)
    matrices_budget(2, -1)


def test_space_admission_refuses_outside_the_domain():
    # one refusal text for d < 1 or nmax < 0, wherever a size enters;
    # occupation_array(0, 3) ended in an IndexError
    for d, nmax in ((0, 3), (2, -1), (-5, -5), (-(10 ** 400), 0)):
        for admit in (fock._check_states, fock._check_space, occupation_array, ModeSpace):
            with pytest.raises(FockError, match=r"^need d >= 1 and nmax >= 0$"):
                admit(d, nmax)
    with pytest.raises(FockError, match=r"^need d >= 1 and nmax >= 0$"):
        boundedness_trend((0, 1), 4)


def test_table_budget_refuses_before_any_array(monkeypatch):
    # the state budget admits 20000 states over 19999 modes, whose (dim, d)
    # table would take 3.2 GB; the space's admission counts dim * d first.
    # The largest table within the state budget at nmax >= 2 is admitted
    assert fock._check_states(MAX_STATES - 1, 1) == MAX_STATES
    assert fock._check_space(198, 2) == 19900 and 19900 * 198 <= MAX_TABLE_ENTRIES
    assert fock._check_space(1999, 1) == 2000 and 2000 * 1999 <= MAX_TABLE_ENTRIES
    assert fock._check_space(MAX_STATES - 1, 0) == 1

    def built(*args, **kwargs):
        raise AssertionError("an array was built")

    for name in ("array", "arange", "empty", "zeros", "zeros_like", "cumsum"):
        monkeypatch.setattr(np, name, built)
    monkeypatch.setattr(fock, "_tail_counts", built)
    for d in (2000, MAX_STATES - 1):
        needle = f"for d={d}, nmax=1 ({d + 1} states) holds {(d + 1) * d} entries, over the budget"
        for admit in (fock._check_space, occupation_array, ModeSpace):
            with pytest.raises(FockError, match=re.escape(needle)):
                admit(d, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 30, 198, 1999, 2000, 2500])
def test_genfun_budget_names_only_cutoffs_a_run_admits(d):
    # over a grid of mean occupations 0.5 x^2, the cutoff a refusal names,
    # the least within the tail budget or else the largest a run admits,
    # builds a space and passes the Krylov budget; past the largest, a
    # space or its solve is refused
    m, named = ModeSpace(d, 0), set()
    for x in (0.5, 2.0, 8.0, 40.0):
        with pytest.raises(FockError) as exc:
            genfun_budget(m, np.full(d, x / math.sqrt(d)))
        n = re.search(r"it needs --nmax (\d+)|at most (\d+) for d=", str(exc.value)).groups()
        if n[1] is not None:
            top = int(n[1])
            with pytest.raises(FockError):
                fock._check_space(d, top + 1)
                fock._check_krylov(top + 1)
        named.add(int(n[0] or n[1]))
    for nmax in named:
        assert ModeSpace(d, nmax).nmax == nmax
        fock._check_krylov(nmax)


def test_phi_pi_matrices_are_built_from_one_stack(monkeypatch):
    # each mode's matrices equal field_pair at its unit vector, with and
    # without a gram; many modes build without a d x d identity, which
    # took 3.2 GB at the 19999 modes the budgets admit at nmax = 0
    off = np.diag(np.ones(2), 1)
    for gram in (None, 2 * np.eye(3) + (0.3 + 0.4j) * off + (0.3 - 0.4j) * off.T):
        m = ModeSpace(3, 4, gram=gram)
        for j, pair in enumerate(zip(*phi_pi_matrices(m))):
            assert all(map(_same_bits, pair, field_pair(m, np.eye(3)[j])))
    m = ModeSpace(2000, 0)

    def eye(*args, **kwargs):
        raise AssertionError("a d x d identity was built")

    monkeypatch.setattr(np, "eye", eye)
    phis, pis = phi_pi_matrices(m)
    assert len(phis) == len(pis) == 2000
    assert all(p.shape == (1, 1) and p.nnz == 0 for p in phis + pis)


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


def _vacuum_entry(m, n):
    # <0|N|0> of an operator N built on m
    vac = m.vacuum()
    return float(np.vdot(vac, n @ vac).real)


def _op(a):
    # the SparseOp of a dense array's nonzero entries
    rows, cols = np.nonzero(a)
    return SparseOp(rows, cols, a[rows, cols], a.shape)


def _op_of_csr(a):
    # the SparseOp of a scipy matrix, explicit zeros included
    a = a.tocsr()
    a.sum_duplicates()
    c = a.tocoo()
    return SparseOp(c.row.astype(np.int64), c.col.astype(np.int64), c.data, a.shape)


def _csr(a):
    return csr_matrix((a.vals, (a.rows, a.cols)), shape=a.shape)


def _same_entries(got, want):
    # a SparseOp against a scipy matrix: dtype, positions and floats
    want = _op_of_csr(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
            and np.array_equal(got.vals, want.vals))


def _canonical(a):
    # row-major order with one entry per position
    keys = a.rows * a.shape[1] + a.cols
    return bool(np.all(keys[1:] > keys[:-1]))


def _max_abs(a):
    return float(np.abs(a.toarray()).max(initial=0.0))


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
        assert m.states == _states(d, nmax)
        assert np.array_equal(m.occupancy, [sum(s) for s in m.states])
        index = {s: i for i, s in enumerate(m.states)}
        ladders = _lowering_ladder(m, None)
        for j in range(d):
            got, want = ladders[j], _per_state_lowering(m, index, j)
            assert got.dtype == np.float64 and _canonical(got)
            assert _same_entries(got, want)


def test_index_is_the_lexicographic_rank():
    for d, nmax, step in ((1, 7, 1), (3, 4, 1), (5, 3, 1), (198, 2, 41)):
        m = ModeSpace(d, nmax)
        assert all(_index(m, m.states[i]) == i for i in range(0, m.dim, step))
    m = ModeSpace(2, 3)
    for bad in ((4, 0), (2, 2), (-1, 1), (0, 0, 0), (1,)):
        with pytest.raises(FockError, match="outside the cutoff"):
            _index(m, bad)


def test_single_mode_ladder_entries():
    m = ModeSpace(1, 2)
    ap, am = ladder_of(m, [1.0])
    want = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]], dtype=complex)
    assert np.allclose(am.toarray(), want, atol=0)
    assert np.allclose(ap.toarray(), want.T, atol=0)


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
            assert _max_abs(mat - mat.conj().T) < 1e-14
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
    bm = _lowering_ladder(m, BogoliubovSpec.fock(2))
    am = _lowering_ladder(m, None)
    for j in range(2):
        assert _max_abs(bm[j] - am[j]) == 0.0
        assert _max_abs(bm[j].conj().T - am[j].conj().T) == 0.0
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
    with pytest.raises(FockError):
        ladder_of(ModeSpace(2, 3), [1.0, 0.0], BogoliubovSpec.fock(3))


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
    # that no block is contiguous, plus isolated diagonal states, and
    # stored zeros that join two blocks and a block to an isolated state
    rng = np.random.default_rng(7)
    dim, sizes = 40, (7, 5, 5, 3, 2)
    perm = rng.permutation(dim)
    a = np.zeros((dim, dim), dtype=complex)
    start, blocks = 0, []
    for size in sizes:
        x = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        idx = perm[start : start + size]
        a[np.ix_(idx, idx)] = x + x.conj().T
        blocks.append(np.sort(idx))
        start += size
    for i in perm[start:]:
        a[i, i] = rng.normal()
    zeros = [(perm[0], perm[7]), (perm[8], perm[start]), (perm[12], perm[start + 1])]
    zeros += [(j, i) for i, j in zeros]
    rows, cols = np.nonzero(a)
    rows = np.concatenate((rows, [i for i, _ in zeros]))
    cols = np.concatenate((cols, [j for _, j in zeros]))
    vals = np.concatenate((a[np.nonzero(a)], np.zeros(len(zeros))))
    order = np.argsort(rows * dim + cols)
    m = SparseOp(rows[order], cols[order], vals[order], a.shape)
    assert m.nnz == np.count_nonzero(a) + 6 and _canonical(m)
    labels, block_sizes = invariant_blocks(m)
    assert sorted(block_sizes) == sorted(sizes + (1,) * (dim - start))
    full = np.linalg.eigvalsh(a)
    for k in (1, 6, dim):
        got = smallest_eigenvalues(m, k)
        assert np.allclose(got, full[:k], rtol=0, atol=1e-10)
        # each block solved on its own, its states in rising order
        parts = [a.diagonal()[perm[start:]].real]
        parts += [np.linalg.eigvalsh(a[np.ix_(idx, idx)])[:k] for idx in blocks]
        assert got == tuple(float(x) for x in np.sort(np.concatenate(parts))[:k])


@pytest.mark.parametrize("family", ["fock", "uniform", "summable"])
def test_number_operator_is_real(family):
    for gram in (None, _tridiagonal_gram(3)):
        m = ModeSpace(3, 5, gram=gram)
        spec = _spec(family, 3, 0.4)
        n = number_operator(m, spec)
        assert n.dtype == np.float64
        assert _max_abs(n - n.T) == 0.0
        # one stacked product against the per-mode sum it replaced: the
        # order of the additions differs, the vacuum entry does not
        bm = _lowering_ladder(m, spec)
        ref = bm[0].conj().T @ bm[0]
        for b in bm[1:]:
            ref = ref + b.conj().T @ b
        assert _max_abs(n - ref) <= 1e-13
        assert n.diagonal()[0] == ref.diagonal()[0]
    assert number_operator(ModeSpace(2, 4)).dtype == np.float64


def _scipy_lowering(m):
    # the per-mode a-_j as scipy matrices, from the entries of the mode space
    modes, rows, cols, vals = m._am_entries
    return [csr_matrix((vals[modes == j], (rows[modes == j], cols[modes == j])),
                       shape=(m.dim, m.dim)) for j in range(m.d)]


def _per_mode_lowerings(m, spec):
    # the per-mode sums the one-pass stack replaced, kept as the oracle
    return [
        (math.cosh(r) * a + math.sinh(r) * a.conj().T.tocsr()).tocsr()
        for a, r in zip(_scipy_lowering(m), spec.rs)
    ]


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
        got = _lowering_ladder(m, spec)
        assert len(got) == d and all(_same_entries(g, w) for g, w in zip(got, want))
        stacked = vstack(want, format="csr")
        assert _same_entries(number_operator(m, spec), (stacked.T @ stacked).tocsr())
    stacked = vstack(_scipy_lowering(m), format="csr")
    assert _same_entries(number_operator(m), (stacked.T @ stacked).tocsr())


@pytest.mark.parametrize("d, nmax", [(2, 62), (3, 21), (4, 13)])
def test_real_block_solve_matches_complex(d, nmax):
    # the float64 blocks take the real symmetric eigen-solver; the same
    # matrix as complex takes the Hermitian one
    n = number_operator(ModeSpace(d, nmax), BogoliubovSpec.summable(d, 0.45))
    real = smallest_eigenvalues(n, 7)
    cplx = smallest_eigenvalues((1 + 0j) * n, 7)
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


@st.composite
def _symmetric_patterns(draw):
    """A symmetric n x n CSR matrix with edges drawn at random, so that it
    has empty rows and one-state blocks, plus explicit zeros stored off
    the edges (and sums that cancel to zero on repeated edges)."""
    n = draw(st.integers(1, 30))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rows, cols, vals = [], [], []
    for i, j in draw(st.lists(pair, max_size=2 * n)):
        x = draw(st.sampled_from([1.0, -1.0, 2.0 + 1j]))
        rows += [i, j]
        cols += [j, i]
        vals += [x, np.conj(x)]
    for i, j in draw(st.lists(pair, max_size=n)):
        rows += [i, j]
        cols += [j, i]
        vals += [0.0, 0.0]
    return csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_symmetric_patterns())
def test_invariant_blocks_match_connected_components(a):
    # oracle: scipy's graph search over the nonzero pattern
    from scipy.sparse.csgraph import connected_components

    labels, sizes = invariant_blocks(_op_of_csr(a))
    want = connected_components(a != 0, directed=False)[1]
    assert labels.tolist() == want.tolist()
    assert sizes.tolist() == np.bincount(want).tolist()


@pytest.mark.parametrize("d, nmax", [(1, 7), (2, 23), (3, 12), (4, 10), (2, 62), (3, 22)])
@pytest.mark.parametrize("family", ["fock", "uniform", "summable"])
def test_number_operator_blocks_match_connected_components(d, nmax, family):
    from scipy.sparse.csgraph import connected_components

    n = number_operator(ModeSpace(d, nmax), _spec(family, d, 0.3))
    labels, _ = invariant_blocks(n)
    assert labels.tolist() == connected_components(_csr(n) != 0, directed=False)[1].tolist()


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
    # the norm of phi(v)|vac> overflows at this |v|
    with pytest.raises(FockError, match="too large"):
        vacuum_generating_function(ModeSpace(1, 10), np.array([1e300]))


def test_generating_function_work_is_bounded_in_v():
    # nmax mat-vecs and one eigh of an (nmax + 1)-state T, whatever |v|
    # is; a step count that grew with |v| took seconds at 1e4
    from scipy.linalg import expm

    m = ModeSpace(1, 10)
    start = time.perf_counter()
    z = vacuum_generating_function(m, np.array([1e4]))
    assert time.perf_counter() - start < 0.5
    phi = field_pair(m, np.array([1e4]))[0]
    assert abs(z - expm(1j * phi.toarray())[0, 0]) < 1e-10
    # rounding the phases alone breaks GENFUN_TOLERANCE, or the norms overflow
    for v in (1e20, 1e300):
        start = time.perf_counter()
        with pytest.raises(FockError, match="too large"):
            vacuum_generating_function(m, np.array([v]))
        assert time.perf_counter() - start < 0.5


def _poisson_tail_oracle(mu, n):
    # every term of the upper tail, far past the mode, added exactly
    top = int(mu + 40 * math.sqrt(mu) + n + 200)
    return math.fsum(math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
                     for k in range(n + 1, top))


def test_poisson_tail_matches_direct_sum():
    for mu in (1e-3, 0.5, 0.9571, 3.7, 40.0, 201.7, 900.0):
        for n in (0, 1, 5, 10, 20, 60, 286, 1200):
            want = _poisson_tail_oracle(mu, n)
            got = fock._poisson_tail(mu, n)
            assert abs(got - want) <= 1e-12 + 1e-9 * want, (mu, n, got, want)
    assert fock._poisson_tail(0.0, 3) == 0.0
    assert fock._poisson_tail(math.inf, 3) == 1.0
    assert fock._poisson_tail(5e9, 19999) == 1.0


@pytest.mark.parametrize(
    "d, nmax, v, spec, needle",
    [
        (1, 10, [1e5], None, "no --nmax within the 20000-state budget"),
        (1, 20, [1e3], None, "no --nmax within the 20000-state budget"),
        (1, 20, [1.0], BogoliubovSpec.uniform(1, 3.0), "it needs --nmax 286"),
        (1, 10, [1.0], BogoliubovSpec.uniform(1, 10.0), "no --nmax"),
        (2, 30, [1.5, -2.0], BogoliubovSpec.summable(2, 1.0), "it needs --nmax 39"),
        # at d = 1 the 2000-state Krylov budget binds before the state budget
        (1, 20, [70.0], None, "2000-state Krylov budget (at most 1999 for d=1)"),
    ],
)
def test_genfun_budget_refuses_before_the_solve(monkeypatch, d, nmax, v, spec, needle):
    # the refusals fock genfun prints, from the library: the budget reads
    # the closed-form mean alone
    def unreachable(*args, **kwargs):
        raise AssertionError("the budget must refuse before the Lanczos solve runs")

    monkeypatch.setattr(fock, "vacuum_generating_function", unreachable)
    with pytest.raises(FockError) as exc:
        genfun_budget(ModeSpace(d, nmax), np.array(v), spec)
    assert f"budget of {GENFUN_TAIL_BUDGET:g}" in str(exc.value) and needle in str(exc.value)


def test_genfun_budget_admits_without_the_solve(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the budget must not run the Lanczos solve")

    monkeypatch.setattr(fock, "vacuum_generating_function", unreachable)
    assert genfun_budget(ModeSpace(1, 10), np.array([1.0])) is None
    m = ModeSpace(2, 39)
    assert genfun_budget(m, np.array([1.5, -2.0]), BogoliubovSpec.summable(2, 1.0)) is None


def test_spectrum_check_reports_the_vacuum_occupancy():
    for m, spec in ((ModeSpace(2, 8), BogoliubovSpec.uniform(2, 0.3)),
                    (ModeSpace(3, 5), BogoliubovSpec.summable(3, -0.6)),
                    (ModeSpace(2, 0), BogoliubovSpec.uniform(2, 0.3))):
        n = number_operator(m, spec)
        for k in (0, 3):
            assert spectrum_check(n, k)[0]["vacuum_occupancy"] == float(n.diagonal()[0])


def test_generating_function_krylov_budget():
    with pytest.raises(FockError, match="Krylov space of nmax \\+ 1 = 2001 states"):
        vacuum_generating_function(ModeSpace(1, fock.DENSE_EIG_LIMIT), np.array([1.0]))


@pytest.mark.parametrize("d, nmax", [(1, 12), (2, 8), (3, 5)])
@pytest.mark.parametrize("family", ["fock", "uniform", "summable"])
def test_generating_function_matches_dense_expm(d, nmax, family):
    # oracle: the dense exponential of the unsplit field matrix on the
    # vacuum, with no gram, a real one and a complex one, for a real and a
    # complex coefficient vector
    from scipy.linalg import expm

    off = np.diag(np.ones(d - 1), 1)
    for gram in (None, np.eye(d) + 0.3 * (off + off.T),
                 2 * np.eye(d) + (0.3 + 0.4j) * off + (0.3 - 0.4j) * off.T):
        m = ModeSpace(d, nmax, gram=gram)
        spec = _spec(family, d, 0.4)
        for v in (np.linspace(0.5, -0.7, d), np.linspace(0.3, 1.1, d) * (1 - 0.5j)):
            z = vacuum_generating_function(m, v, spec)
            phi = field_pair(m, v, spec)[0]
            assert abs(z - expm(1j * phi.toarray())[0, 0]) < 1e-14
            assert z.imag == 0.0


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
        assert transfer_check(rep, v, w)[1]
    v = np.array([0.3, 0.4])
    plain = field_pair(m, v)
    for q, c in ((1.0, 2.5), (1.7, 1.0)):
        rep = transfer_rep(m, q, c)
        assert _max_abs(rep.pi(v) - plain[1]) < 1e-15
        assert _max_abs(rep.phi(v) - plain[0]) == 0.0


def test_transfer_residual_refuses_an_overflowing_vector():
    m = ModeSpace(2, 6)
    rep = transfer_rep(m, 1.5, 0.8)
    big, unit = np.array([1e308, 1e308]), np.array([1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns on stderr
        for v, w in ((big, unit), (unit, big)):
            with pytest.raises(FockError, match="not finite"):
                transfer_check(rep, v, w)


def test_transfer_residual_stays_sparse():
    # one dense dim x dim complex matrix at dim 2556 takes 105 MB
    m = ModeSpace(2, 70)
    assert m.dim >= 2500
    rep = transfer_rep(m, 1.5, 2.0)
    v, w = np.array([0.3, -0.7]), np.array([0.5, 0.2])
    transfer_check(rep, v, w)  # first-use imports stay out of the peak
    tracemalloc.start()
    try:
        fields, passed = transfer_check(rep, v, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed and fields["residual"] < 1e-12
    assert peak < 32e6


def _matrix_of(e, m, p):
    # expr_matrix of e at p's numeric point, passed as q and c beside a
    # presentation of p's variant that carries none
    return expr_matrix(e, m, Presentation(variant=p.variant), q=p.q, c=p.c)


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
            lhs = _matrix_of(normal_form(e, p), m, p)
            rhs = _matrix_of(e, m, p)
            assert restricted_norm(m, lhs - rhs, 3) < 1e-10


def test_expr_matrix_functor_with_gram():
    from fractions import Fraction

    g = [[1, Fraction(1, 2)], [Fraction(1, 2), 2]]
    p = Presentation(variant="deformed-strict", q=1.4, c=0.6, gram=g)
    m = ModeSpace(2, 8, gram=np.array([[1.0, 0.5], [0.5, 2.0]]))
    rng = random.Random(5)
    for _ in range(6):
        e = random_expr(rng, p, 3, 2)
        lhs = _matrix_of(normal_form(e, p), m, p)
        rhs = _matrix_of(e, m, p)
        assert restricted_norm(m, lhs - rhs, 3) < 1e-10


def test_expr_matrix_adjoint_consistency():
    m = ModeSpace(2, 6)
    p = Presentation(variant="deformed-strict", q=1.2, c=1.5)
    rng = random.Random(17)
    for _ in range(10):
        e = random_expr(rng, p, 3, 2)
        lhs = _matrix_of(adjoint(e, p), m, p)
        rhs = _matrix_of(e, m, p).conj().T
        assert _max_abs(lhs - rhs) < 1e-12


def test_expr_matrix_requirements():
    m = ModeSpace(1, 4)
    p = Presentation(variant="deformed-strict")
    from ccr_hopf.algebra import phi

    with pytest.raises(FockError):
        expr_matrix(phi(0), m, p)  # symbolic presentation, no q, c
    with pytest.raises(FockError):
        expr_matrix(phi(1), m, p, q=1.5, c=0.5)  # mode out of range


def test_expr_matrix_takes_the_point_from_one_place():
    # the point comes in as q and c alone: a presentation that carries one
    # is refused, with or without a point passed beside it
    m = ModeSpace(2, 4)
    e = pi(0) * phi(1) + phi(0)
    for p in (Presentation(variant="deformed-strict", q=1.5, c=0.8),
              Presentation(variant="deformed-collapsed", q=1.3, c=0.7)):
        for q, c in ((None, None), (3.0, 2.0), (1.5, 0.8), (None, 2.0)):
            with pytest.raises(FockError, match="pass the deformation point as q and c"):
                expr_matrix(e, m, p, q=q, c=c)
    # the undeformed variant has kappa = 1 and ignores a point passed to it
    plain = Presentation()
    assert np.array_equal(expr_matrix(e, m, plain, q=3.0, c=2.0).toarray(),
                          expr_matrix(e, m, plain).toarray())


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
        assert abs(comm.toarray()[0, 0] + 1j * rep.constant * inner) < 1e-12
        assert transfer_check(rep, v, w)[1]
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
        got.vals[:] = 7.0


def test_criterion_9_builds_each_letter_set_once(monkeypatch):
    from ccr_hopf import fock, selftest

    # a letter set is built from phi_pi_matrices, once per (q, c)
    builds = []
    build = fock.phi_pi_matrices

    def counted(m):
        builds.append(m)
        return build(m)

    monkeypatch.setattr(fock, "phi_pi_matrices", counted)
    cached = selftest.criterion_09(42)
    assert len(builds) == 4
    # the same criterion with a fresh build for every expression
    words = fock._word_matrices

    def fresh(m, constant, scale):
        m._words.clear()
        return words(m, constant, scale)

    monkeypatch.setattr(fock, "_word_matrices", fresh)
    assert selftest.criterion_09(42) == cached
    assert len(builds) == 4 + 2 * selftest.FUNCTOR_EXPRESSIONS


def _expr_matrix_loop(e, m, p, q, c):
    # the per-call loop the word cache replaced, kept as the oracle: every
    # word multiplied out from the identity, on letter matrices built afresh
    # on a space of their own
    constant, scale = (1.0, 1.0) if p.variant == UNDEFORMED else deformation_pair(q, c)
    mats = fock._word_matrices(ModeSpace(m.d, m.nmax, gram=m.gram), constant, scale)
    total = fock._linear_combination([], m.dim)
    for word, coeff in sorted(evaluate_numeric(e, {"kappa": constant, "s": scale}).items()):
        cur = mats[()]
        for letter in word:
            cur = cur @ mats[(letter,)]
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
            assert not np.shares_memory(got.vals, cached.vals)
        assert np.array_equal(got.toarray(), want)
        got.vals[:] = 7.0  # a caller changing its result in place
        got.cols[:] = 0


def test_restricted_norm_matches_scipy_column_slice():
    # the same float, not merely a close one: 300 random matrices, complex
    # and real, read row-major by the SparseOp and column-major by scipy
    gen = np.random.default_rng(5)
    m = ModeSpace(2, 10)
    for k in range(300):
        a = sparse_random(66, 66, density=gen.uniform(0.02, 0.5), format="csr", rng=gen,
                          dtype=complex if k % 3 else float)
        if k % 3:
            a.data += 1j * gen.standard_normal(a.nnz)
        op = _op_of_csr(a)
        for degree in (0, 2, 3):
            cols = np.where(m.safe_mask(degree))[0]
            assert restricted_norm(m, op, degree) == float(sparse_norm(a.tocsc()[:, cols]))
            dense = a.toarray()
            assert restricted_norm(m, dense, degree) == float(np.linalg.norm(dense[:, cols]))
    assert restricted_norm(m, fock._linear_combination([], 66), 3) == 0.0
    assert restricted_norm(m, fock._scalar_op(66, 1.0), 10) == 1.0


def test_boundedness_trend_builds_one_space_per_mode_count(monkeypatch):
    calls = {"spaces": 0, "operators": 0}

    def counted(key, build):
        def wrapper(*args, **kw):
            calls[key] += 1
            return build(*args, **kw)
        return wrapper

    monkeypatch.setattr(fock, "ModeSpace", counted("spaces", fock.ModeSpace))
    monkeypatch.setattr(fock, "number_operator", counted("operators", fock.number_operator))
    rep, passed = boundedness_trend((1, 2, 3), 30)
    # the costs are the closed form: no space and no number operator is built
    assert calls == {"spaces": 0, "operators": 0}
    monkeypatch.undo()
    # each cost is the one a space of its own gives, and every cutoff that
    # admits one quantum gives the same floats
    r = 0.5 * math.log(2.0)
    for family, costs in ((BogoliubovSpec.uniform, rep["uniform"]),
                          (BogoliubovSpec.summable, rep["summable"])):
        for d, cost in zip((1, 2, 3), costs):
            m = ModeSpace(d, 30)
            assert cost == _vacuum_entry(m, number_operator(m, family(d, r)))
    for nmax in (1, 2, 3):
        low, low_passed = boundedness_trend((1, 2, 3), nmax)
        assert (low["uniform"], low["summable"]) == (rep["uniform"], rep["summable"])
        assert low_passed == passed
    assert (rep["d_values"], rep["nmax"]) == ([1, 2, 3], 30)
    # a space's refusals stand, in its order, with none built
    with pytest.raises(FockError, match="need d >= 1"):
        boundedness_trend((3, -1, 2), 30)
    with pytest.raises(FockError, match="need d >= 1"):
        boundedness_trend((0, 1), 30)
    with pytest.raises(FockError, match="d=8, nmax=30 exceeds the budget"):
        boundedness_trend((1, 8, 0), 30)


def _closed_form_cost(rs) -> float:
    # sum_j sinh(r_j)^2, added mode by mode from 0.0
    cost = 0.0
    for r in rs:
        cost += math.sinh(r) * math.sinh(r)
    return cost


def test_vacuum_cost_is_the_built_operators_vacuum_entry():
    # the closed form sum_j sinh^2(r_j) the trend adds is <0|N|0> bit for
    # bit, for both trend families and for zero, mixed-sign and random
    # squeezing; a basis over the budget is refused before either path runs
    rng = random.Random(35)
    r = 0.5 * math.log(2.0)
    for d in (1, 2, 3, 4):
        specs = [BogoliubovSpec.uniform(d, r), BogoliubovSpec.summable(d, r),
                 BogoliubovSpec.fock(d),
                 BogoliubovSpec(tuple((-1.0) ** j * 0.3 * (j + 1) for j in range(d))),
                 BogoliubovSpec(tuple(rng.uniform(-2.0, 2.0) for _ in range(d)))]
        for nmax in (1, 2, 12, 30):
            if comb(d + nmax, d) > MAX_STATES:
                with pytest.raises(FockError, match="budget"):
                    ModeSpace(d, nmax)
                with pytest.raises(FockError, match="budget"):
                    boundedness_trend((1, d), nmax)
                continue
            m = ModeSpace(d, nmax)
            for spec in specs:
                n = number_operator(m, spec)
                want = _vacuum_entry(m, n)
                assert _closed_form_cost(spec.rs).hex() == want.hex()
                assert float(n.diagonal()[0]).hex() == want.hex()
            rep, _ = boundedness_trend((d, 1 if d > 1 else 2), nmax)
            assert rep["uniform"][0].hex() == _closed_form_cost(specs[0].rs).hex()
            assert rep["summable"][0].hex() == _closed_form_cost(specs[1].rs).hex()


def test_boundedness_trend():
    rep, passed = boundedness_trend()
    assert np.allclose(rep["uniform"], [0.125, 0.25, 0.375], atol=1e-10)
    want = [
        sum(math.sinh(0.5 * math.log(2.0) * 2.0 ** (-j)) ** 2 for j in range(d))
        for d in (1, 2, 3)
    ]
    assert np.allclose(rep["summable"], want, atol=1e-10)
    with pytest.raises(FockError, match="nmax=0"):
        boundedness_trend(nmax=0)
    assert abs(rep["uniform_slope"] - 0.125) < 1e-10
    assert rep["slope_ratio"] >= 5.0 and passed
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


@pytest.mark.parametrize("gram", [
    [[math.inf, 0.0], [0.0, 1.0]],
    [[1.0, math.inf], [math.inf, 1.0]],
    [[1.0, math.nan], [math.nan, 1.0]],
    [[1.0, complex(0.5, math.inf)], [complex(0.5, -math.inf), 1.0]],
])
def test_gram_refuses_non_finite_entries(gram):
    # numpy's allclose counts equal infinities as close and Cholesky does
    # not raise on them; the one entrywise rule of both numeric layers
    # refuses any non-finite entry
    assert fock._hermitian is measure._hermitian
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FockError, match="gram must be Hermitian"):
            ModeSpace(2, 3, gram=gram)
    assert not measure._hermitian(np.array(gram, dtype=complex))


@pytest.mark.parametrize("q, c", [(math.nan, 1.0), (1.5, math.nan), (math.inf, 0.8), (1e300, 2.0)])
def test_transfer_refuses_unusable_deformation(q, c):
    m = ModeSpace(1, 2)
    with pytest.raises(AlgebraError):
        transfer_rep(m, q, c)
    with pytest.raises(AlgebraError):
        expr_matrix(phi(0), m, Presentation(variant="deformed-strict"), q=q, c=c)


# ---------------------------------------------------------------------------
# scipy as the reference: the SparseOp arithmetic, and the Fock matrices
# built the way scipy sums and multiplies them


@pytest.mark.parametrize("kind", [float, complex])
def test_sparse_op_arithmetic_matches_scipy(kind):
    # every operation of the type, float for float, on random matrices with
    # up to a dozen terms in an entry of a product
    gen = np.random.default_rng(3 if kind is float else 4)

    def draw(rows, cols, density):
        a = sparse_random(rows, cols, density=density, format="csr", rng=gen, dtype=float)
        if kind is complex:
            a = a + 1j * a.multiply(gen.standard_normal(a.shape))
        return a.tocsr()

    for _ in range(40):
        n, k = (int(x) for x in gen.integers(1, 30, size=2))
        a, b = draw(n, k, gen.uniform(0.05, 0.6)), draw(k, n, gen.uniform(0.05, 0.6))
        c = draw(n, k, gen.uniform(0.05, 0.6))
        oa, ob, oc = _op_of_csr(a), _op_of_csr(b), _op_of_csr(c)
        assert _same_entries(oa @ ob, a @ b)
        assert _same_entries(oa + oc, a + c) and _same_entries(oa - oc, a - c)
        assert _same_entries(oa - oa, a - a) and (oa - oa).nnz == 0
        for x in (1.7, -0.3 + 2.1j):
            assert _same_entries(x * oa, x * a) and _same_entries(oa * x, a * x)
            assert _same_entries(oa / x, (a / x).tocsr())
        assert _same_entries(oa.conj(), a.conj()) and _same_entries(oa.T, a.T)
        assert np.array_equal(oa.diagonal(), a.diagonal())
        assert np.array_equal(oa.toarray(), a.toarray()) and oa.nnz == a.nnz
        for x in (gen.standard_normal(k), gen.standard_normal((k, 3)) * (1 - 2j)):
            assert np.array_equal(oa @ x, a @ x)
        dense = gen.standard_normal((n, k))
        assert np.array_equal(oa - dense, np.asarray(a - dense))
        assert np.array_equal(oa + dense, np.asarray(a + dense))
    with pytest.raises(ValueError, match="cannot multiply"):
        _op_of_csr(draw(3, 4, 0.5)) @ np.ones(3)


def _scipy_ladder(m, v, spec=None):
    # ladder_of as a sum of scipy matrices, one mode at a time
    w = m.coords(v)
    lowering = _scipy_lowering(m) if spec is None else _per_mode_lowerings(m, spec)
    lower = csr_matrix((m.dim, m.dim), dtype=complex)
    for j in range(m.d):
        if w[j] != 0:
            lower = lower + np.conj(w[j]) * lowering[j]
    return lower.conj().T.tocsr(), lower.tocsr()


def _scipy_fields(m, v, spec=None):
    raising, lower = _scipy_ladder(m, v, spec)
    return (((raising + lower) / math.sqrt(2)).tocsr(),
            ((1j * (raising - lower)) / math.sqrt(2)).tocsr())


def _scipy_letters(m, constant, scale):
    eye = identity(m.dim, dtype=complex, format="csr")
    mats = {(FAM_I, 0): eye, (FAM_K, 0): (scale * eye).tocsr(),
            (FAM_KINV, 0): ((1.0 / scale) * eye).tocsr()}
    for j, e in enumerate(np.eye(m.d)):
        ph, mom = _scipy_fields(m, e)
        pj = (constant * mom).tocsr()
        mats[(FAM_PHI, j)], mats[(FAM_PI, j)] = ph, pj
        mats[(FAM_AP, j)] = ((ph - 1j * pj) / math.sqrt(2)).tocsr()
        mats[(FAM_AM, j)] = ((ph + 1j * pj) / math.sqrt(2)).tocsr()
    return mats


_COMPLEX_GRAM = [[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.5]]


@pytest.mark.parametrize("d, nmax, gram", [(1, 9, None), (2, 8, None), (3, 5, None),
                                           (2, 7, [[1.0, 0.4], [0.4, 1.5]]), (2, 6, _COMPLEX_GRAM)])
def test_fock_operators_match_scipy_entry_for_entry(d, nmax, gram):
    # ladder_of, field_pair, commutator_matrix and number_operator against
    # the scipy sums and products they replaced, bit for bit: each entry of
    # these sums and products holds at most two terms, so no order shows
    m = ModeSpace(d, nmax, gram=gram)
    rng = random.Random(d * 10 + nmax)
    for spec in (None, BogoliubovSpec.summable(d, 0.7)):
        ops = []
        for _ in range(3):
            v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)])
            w = np.array([rng.gauss(0, 1) for _ in range(d)])
            for x in (v, w):
                got, want = ladder_of(m, x, spec), _scipy_ladder(m, x, spec)
                assert all(_same_entries(g, h) for g, h in zip(got, want))
                got, want = field_pair(m, x, spec), _scipy_fields(m, x, spec)
                assert all(_same_entries(g, h) for g, h in zip(got, want))
                ops.append((ladder_of(m, x, spec), _scipy_ladder(m, x, spec)))
        for (a, sa), (b, sb) in zip(ops, ops[1:]):
            assert _same_entries(commutator_matrix(a[1], b[0]), (sa[1] @ sb[0] - sb[0] @ sa[1]))
        lowering = _scipy_lowering(m) if spec is None else _per_mode_lowerings(m, spec)
        stacked = vstack(lowering, format="csr")
        assert _same_entries(number_operator(m, spec), (stacked.T @ stacked).tocsr())


def _same_bits(a, b):
    # two SparseOps with the same shape, dtype, positions and bytes
    return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols) and a.vals.tobytes() == b.vals.tobytes())


@pytest.mark.parametrize("d, nmax", [(1, 9), (2, 6), (3, 4)])
def test_weighted_stack_matches_the_per_mode_ladders(d, nmax, monkeypatch):
    # ladder_of weights the rows of one stack; the per-mode row blocks
    # combined mode by mode give the same bytes, and so do field_pair and
    # the generating function built on them
    off = np.diag(np.ones(d - 1), 1)
    grams = (None, np.eye(d) + 0.3 * (off + off.T),
             2 * np.eye(d) + (0.3 + 0.4j) * off + (0.3 - 0.4j) * off.T)
    specs = (None, BogoliubovSpec.fock(d), BogoliubovSpec.uniform(d, 0.4),
             BogoliubovSpec.summable(d, -0.7))
    vs = (np.linspace(0.5, -0.7, d), np.linspace(0.3, 1.1, d) * (1 - 0.5j),
          np.where(np.arange(d) == d // 2, 0.0, np.linspace(0.9, -0.4, d)), np.zeros(d))
    for gram in grams:
        m = ModeSpace(d, nmax, gram=gram)
        for spec in specs:
            for v in vs:
                assert all(map(_same_bits, ladder_of(m, v, spec), _per_mode_ladder(m, v, spec)))
                got = field_pair(m, v, spec)
                z = vacuum_generating_function(m, v, spec)
                with monkeypatch.context() as mp:
                    mp.setattr(fock, "ladder_of", _per_mode_ladder)
                    assert all(map(_same_bits, got, field_pair(m, v, spec)))
                    assert z == vacuum_generating_function(m, v, spec)


def _scipy_expr_matrix(e, m, p, q, c):
    """expr_matrix with scipy: every word multiplied out from the identity
    and the words summed in sorted order; with the entrywise sum M of
    |coeff| |L_1| ... |L_k| over the words, the size that bounds rounding,
    the number of words and the longest word."""
    constant, scale = (1.0, 1.0) if p.variant == UNDEFORMED else deformation_pair(q, c)
    mats = _scipy_letters(m, constant, scale)
    total = csr_matrix((m.dim, m.dim), dtype=complex)
    size = np.zeros((m.dim, m.dim))
    words = sorted(evaluate_numeric(e, {"kappa": constant, "s": scale}).items())
    for word, coeff in words:
        cur, mag = mats[(FAM_I, 0)], abs(mats[(FAM_I, 0)])
        for letter in word:
            cur, mag = cur @ mats[letter], mag @ abs(mats[letter])
        total = total + coeff * cur
        size += abs(coeff) * mag.toarray()
    return total, size, len(words), max((len(w) for w, _ in words), default=0)


@pytest.mark.parametrize("d, nmax, gram", [(2, 8, None), (3, 5, None),
                                           (2, 7, [[1.0, 0.4], [0.4, 1.5]]), (2, 6, _COMPLEX_GRAM),
                                           (3, 5, [[2.0, 0.4, 0.1], [0.4, 1.5, 0.3], [0.1, 0.3, 1.0]])])
def test_expr_matrix_matches_scipy(d, nmax, gram):
    # without a gram a letter's column holds at most two entries, so every
    # sum in a word product has at most two terms and the floats are
    # scipy's, bit for bit.  A gram puts up to s = 2d terms into a sum, and
    # scipy adds them in another order.  Each result is then within
    # gamma_K M of the exact matrix (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2002, ch. 3), where one word step costs at most
    # s + 3 roundings (s - 1 additions, a complex product's 3, one more
    # addition), a coefficient 3 and the sum of N words N: K = k (s + 3) +
    # 3 + N for words of at most k letters.  So the two differ by at most
    # 2 gamma_K M, entry by entry.
    m = ModeSpace(d, nmax, gram=gram)
    rng = random.Random(70 + d)
    u = np.finfo(float).eps / 2
    for k in range(24):
        p, q, c = _CRITERION_9_CONFIGS[k % 4]
        e = random_expr(rng, p, max_degree=4, modes=d)
        for x in (e, normal_form(e, p)):
            got = expr_matrix(x, m, p, q=q, c=c)
            want, size, words, longest = _scipy_expr_matrix(x, m, p, q, c)
            if gram is None:
                assert _same_entries(got, want)
                continue
            big_k = longest * (2 * d + 3) + 3 + words
            bound = 2 * big_k * u / (1 - big_k * u) * size
            assert np.all(np.abs(got.toarray() - want.toarray()) <= bound)


# gram [[1, i/2], [-i/2, 1]]: the algebra's entries and the space's floats
_NON_REAL_GRAM = [[1, [0, "1/2"]], [[0, "-1/2"], 1]]
_NON_REAL_GRAM_FLOATS = np.array([[1.0, 0.5j], [-0.5j, 1.0]])


def _ladder_functor_residuals(p, seed):
    # restricted norm of expr_matrix(normal_form(e)) - expr_matrix(e) for
    # the directed cross-mode words, where the gram's imaginary part enters
    # the contraction, and for random ladder expressions
    m = ModeSpace(2, 8, gram=_NON_REAL_GRAM_FLOATS)
    rng = random.Random(seed)
    exprs = [am(0) * ap(1), am(1) * ap(0), am(1) * am(0) * ap(0) * ap(1)]
    exprs += [random_expr(rng, p, 3, 2) for _ in range(10)]
    return [restricted_norm(m, _matrix_of(normal_form(e, p), m, p) - _matrix_of(e, m, p), 4)
            for e in exprs]


def test_ladder_functor_under_a_non_real_gram():
    # conjugating the gram in the a-/a+ contraction makes the first word's
    # residual 3.87 and the four-letter word's 10.1
    p = Presentation(basis="ladder", gram=_NON_REAL_GRAM)
    assert max(_ladder_functor_residuals(p, 19)) < 1e-10


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 8: the transfer representation's am is ((1+C)a- + (1-C)a+)/2, so "
           "[am(j), ap(k)] = C Re g + i(1+C^2)/2 Im g where the rules give C g",
)
def test_deformed_ladder_functor_under_a_non_real_gram():
    p = Presentation(variant="deformed-strict", basis="ladder", gram=_NON_REAL_GRAM,
                     q=1.3, c=0.7)
    assert max(_ladder_functor_residuals(p, 19)) < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3])
def test_generating_function_matches_gauss_hermite(d):
    # oracle: phi(v) on the vacuum's Krylov space is sigma x / sqrt2 for the
    # Jacobi matrix x of the probabilists' Hermite polynomials, cut at nmax
    # + 1 states, with sigma^2 = v^H G v (times e^(2 r_j) per mode under a
    # squeezing and a real v).  So the value is the (nmax + 1)-point
    # Gauss-Hermite sum of cos(sigma x / sqrt2), exactly; it shares no code
    # with the Lanczos mat-vecs
    off = np.diag(np.ones(d - 1), 1)
    grams = (None, np.eye(d) + 0.3 * (off + off.T),
             2 * np.eye(d) + (0.3 + 0.4j) * off + (0.3 - 0.4j) * off.T)
    real = np.linspace(0.9, -0.6, d)
    for nmax in (5, 12, 30):
        nodes, weights = np.polynomial.hermite_e.hermegauss(nmax + 1)

        def gauss(sigma):
            return float(weights @ np.cos(sigma * nodes / math.sqrt(2))) / math.sqrt(2 * math.pi)

        for gram in grams:
            m = ModeSpace(d, nmax, gram=gram)
            g = np.eye(d) if gram is None else gram
            for v in (real, np.linspace(0.3, 1.1, d) * (1 - 0.5j)):
                sigma = math.sqrt(float((np.conj(v) @ g @ v).real))
                assert abs(vacuum_generating_function(m, v) - gauss(sigma)) < 1e-14
        m = ModeSpace(d, nmax)
        for spec in (BogoliubovSpec.uniform(d, 0.4), BogoliubovSpec.summable(d, -0.7)):
            sigma = float(np.linalg.norm(np.exp(spec.rs) * real))
            assert abs(vacuum_generating_function(m, real, spec) - gauss(sigma)) < 1e-14


def _hermite_matrices(nmax):
    """phi and pi of the d = 1 Fock-point measure in its orthonormal Hermite
    basis, by 64-point Gauss-Hermite quadrature: an oracle for the ladder
    construction that shares no code with it."""
    x, w = np.polynomial.hermite.hermgauss(64)
    w = w / math.sqrt(math.pi)
    # orthonormal for weight exp(-x^2)/sqrt(pi): h_{n+1} = (sqrt2 x h_n - sqrt(n) h_{n-1})/sqrt(n+1)
    h = np.zeros((nmax + 1, len(x)))
    h[0] = 1.0
    if nmax >= 1:
        h[1] = math.sqrt(2.0) * x
    for n in range(1, nmax):
        h[n + 1] = (math.sqrt(2.0) * x * h[n] - math.sqrt(n) * h[n - 1]) / math.sqrt(n + 1)
    # h_n' = sqrt(2n) h_{n-1}
    dh = np.zeros_like(h)
    for n in range(1, nmax + 1):
        dh[n] = math.sqrt(2 * n) * h[n - 1]
    phi_quad = np.einsum("k,mk,k,nk->mn", w, h, x, h)
    pi_quad = -1j * (np.einsum("k,mk,nk->mn", w, h, dh) - phi_quad)
    return phi_quad, pi_quad


def test_hermite_cross_check():
    # the Gauss-Hermite matrix elements of phi and pi equal the ladder matrices
    phi_quad, pi_quad = _hermite_matrices(10)
    phis, pis = phi_pi_matrices(ModeSpace(1, 10))
    assert float(np.max(np.abs(phi_quad - phis[0].toarray()))) < 1e-10
    assert float(np.max(np.abs(pi_quad - pis[0].toarray()))) < 1e-10
