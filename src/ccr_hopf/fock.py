"""Truncated bosonic Fock-space numerics.

Occupation-number bases with a total-occupation cutoff, per-mode ladder
matrices, Bogoliubov (squeezed) families, vacuum generating functions via
the action of a matrix exponential on the vacuum vector, and the transfer
representation that keeps the field quadrature while scaling the momentum
quadrature by the deformation constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, identity as sparse_identity

from .algebra import (
    FAM_AM,
    FAM_AP,
    FAM_I,
    FAM_K,
    FAM_KINV,
    FAM_PHI,
    FAM_PI,
    UNDEFORMED,
    Expr,
    Presentation,
    deformation_pair,
    evaluate_numeric,
)
from .scalars import CcrHopfError


class FockError(CcrHopfError):
    pass


ROOT2 = math.sqrt(2.0)

# largest invariant block smallest_eigenvalues solves with a dense eigvalsh
DENSE_EIG_LIMIT = 2000

# most occupation states, comb(d + nmax, d), a ModeSpace may hold; the
# tests, selftest and perfbench build at most 5456 (d=3, nmax=30)
MAX_STATES = 20000

# largest squeezing |r| whose gamma = exp(-2r) and c^2 = exp(2r)/2 are
# finite floats
R_MAX = 354


def _tail_counts(d: int, nmax: int) -> np.ndarray:
    """tail[i, p] = comb(nmax - p + d - i, d - i), the number of occupations
    of modes i, ..., d-1 with total at most nmax - p, for 0 <= i < d and
    0 <= p <= nmax.  Each row falls strictly with p, and no entry exceeds
    tail[0, 0] = comb(nmax + d, d), the size of the basis.

    In lexicographic order the states below s that first differ from it at
    mode i number tail[i, P_i] - tail[i, P_{i+1}], where P_i = s_0 + ... +
    s_{i-1}; summed over i this is the rank of s."""
    return np.array(
        [[math.comb(nmax - p + d - i, d - i) for p in range(nmax + 1)] for i in range(d)],
        dtype=np.int64,
    )


def occupation_array(d: int, nmax: int) -> np.ndarray:
    """The (dim, d) int64 array whose rows are the occupations of
    occupation_states, unranked mode by mode from their row numbers.  More
    than MAX_STATES rows raise FockError before any is built."""
    if math.comb(d + nmax, d) > MAX_STATES:
        raise FockError(f"the occupation basis for d={d}, nmax={nmax} exceeds the "
                        f"budget of {MAX_STATES} states; lower d or nmax")
    tail = _tail_counts(d, nmax)
    left = np.arange(tail[0, 0])  # rank not yet placed
    total = np.zeros_like(left)  # P_i
    occ = np.empty((left.size, d), dtype=np.int64)
    for i in range(d):
        # the largest total p with tail[i, P_i] - tail[i, p] <= left
        p = np.searchsorted(-tail[i], left - tail[i, total], side="right") - 1
        occ[:, i] = p - total
        left -= tail[i, total] - tail[i, p]
        total = p
    return occ


def occupation_states(d: int, nmax: int) -> list:
    """All occupation tuples (n_0, ..., n_{d-1}) with sum <= nmax, in
    lexicographic order.  The all-zero tuple comes first.  More than
    MAX_STATES of them raise FockError before any is built."""
    return list(map(tuple, occupation_array(d, nmax).tolist()))


def _ranks(prefix: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of the states whose prefix sums P_0, ..., P_d
    are the rows of prefix; see _tail_counts."""
    modes = np.arange(tail.shape[0])
    return (tail[modes, prefix[:, :-1]] - tail[modes, prefix[:, 1:]]).sum(axis=1)


def _lowering_matrices(occ: np.ndarray, tail: np.ndarray) -> tuple:
    """Per-mode a-_j, <n - e_j| a-_j |n> = sqrt(n_j), as float64 CSR
    matrices over the basis whose occupation array is occ and whose
    _tail_counts table is tail, and all their entries as four arrays
    (mode, row, col, value), mode by mode.

    The row of n - e_j is its rank; ranks are at most dim, so they fit
    int64 at any d.  Lowering keeps lexicographic order, so the rows rise
    with the columns and each row holds at most one entry: the CSR arrays
    are written directly."""
    dim, d = occ.shape
    prefix = np.zeros((dim, d + 1), dtype=np.int64)
    np.cumsum(occ, axis=1, out=prefix[:, 1:])
    out, parts = [], []
    for j in range(d):
        cols = np.flatnonzero(occ[:, j])
        rows = _ranks(prefix[cols] - (np.arange(d + 1) > j), tail)  # ranks of n - e_j
        indptr = np.searchsorted(rows, np.arange(dim + 1))
        vals = np.sqrt(occ[cols, j].astype(float))
        out.append(csr_matrix((vals, cols, indptr), shape=(dim, dim)))
        parts.append((np.full(cols.size, j), rows, cols, vals))
    return out, tuple(np.concatenate(a) for a in zip(*parts))


class ModeSpace:
    """d truncated modes with total occupation at most nmax.

    A non-identity gram is absorbed by Cholesky orthonormalization: the
    per-mode matrices act in orthonormal coordinates and coefficient
    vectors enter through L^H, so that [a-(v), a+(w)] = <v|w> with the
    inner product induced by the gram.

    The per-mode ladders a-_j are real float64 matrices, and so are the
    squeezed b-_j and the number operator built from them.  Complex
    arithmetic enters with a complex coefficient: the gram coordinates and
    conj(w) in ladder_of, the i of pi in field_pair, the vacuum vector and
    exp(i phi(v)), and the transfer letter matrices.

    The transfer-representation letter matrices are built once per
    (constant, scale) and kept on the instance, and so are the word
    products expr_matrix forms from them; see _letter_matrices and
    _word_matrices.
    """

    def __init__(self, d: int, nmax: int, gram=None):
        if d < 1 or nmax < 0:
            raise FockError("need d >= 1 and nmax >= 0")
        self.d = int(d)
        self.nmax = int(nmax)
        if gram is None:
            self.gram = None
            self._chol = None
        else:
            g = np.asarray(gram, dtype=complex)
            if g.shape != (self.d, self.d):
                raise FockError("gram must be a d x d matrix")
            if not np.allclose(g, g.conj().T, atol=1e-12):
                raise FockError("gram must be Hermitian")
            try:
                self._chol = np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                raise FockError("gram must be positive definite") from None
            self.gram = g
        self._occ = occupation_array(self.d, self.nmax)
        self._tail = _tail_counts(self.d, self.nmax)
        self.occupancy = self._occ.sum(axis=1)
        self._am, self._am_entries = _lowering_matrices(self._occ, self._tail)
        self._letters = {}  # (constant, scale) -> letter -> matrix
        self._words = {}  # (constant, scale) -> word -> matrix

    @property
    def dim(self) -> int:
        return len(self._occ)

    @functools.cached_property
    def states(self) -> list:
        """The occupation tuples, in basis order; built on first use."""
        return list(map(tuple, self._occ.tolist()))

    def index(self, occ) -> int:
        occ = tuple(int(n) for n in occ)
        if len(occ) != self.d or min(occ) < 0 or sum(occ) > self.nmax:
            raise FockError(f"occupation {occ} outside the cutoff")
        prefix = np.cumsum((0,) + occ)[None, :]
        return int(_ranks(prefix, self._tail)[0])

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def safe_mask(self, degree: int) -> np.ndarray:
        """States whose image under a degree-step operator never crosses
        the cutoff, so truncation artifacts cannot reach them."""
        if degree > self.nmax:
            raise FockError("cutoff too small for this operator degree")
        return self.occupancy <= self.nmax - degree

    def coords(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex).reshape(self.d)
        if self._chol is None:
            return v
        return self._chol.conj().T @ v


def ladder_of(m: ModeSpace, v, spec=None):
    """(a+(v), a-(v)) for a coefficient vector v, linear through the gram;
    a-(v) is antilinear in v so that [a-(v), a+(w)] = <v|w>.  With a
    spec, the Bogoliubov (b+(v), b-(v)) by the same (anti)linearity."""
    w = m.coords(v)
    lowering = _lowering_ladder(m, spec)
    am = csr_matrix((m.dim, m.dim), dtype=complex)
    for j in range(m.d):
        if w[j] != 0:
            am = am + np.conj(w[j]) * lowering[j]
    return am.conj().T.tocsr(), am.tocsr()


def field_pair(m: ModeSpace, v, spec=None):
    """(phi(v), pi(v)); built on the Bogoliubov ladder when spec is given."""
    ap, am = ladder_of(m, v, spec)
    phi = ((ap + am) / ROOT2).tocsr()
    pi = ((1j * (ap - am)) / ROOT2).tocsr()
    return phi, pi


def phi_pi_matrices(m: ModeSpace):
    """Per-mode field and momentum matrices phi(e_j), pi(e_j)."""
    phis, pis = zip(*(field_pair(m, e) for e in np.eye(m.d)))
    return list(phis), list(pis)


@dataclass(frozen=True)
class BogoliubovSpec:
    """Per-mode squeezing parameters r_j.

    Equivalent parameterizations: covariance scalar gamma = exp(-2r) and
    generating-function parameter c with c^2 = exp(2r)/2, so gamma =
    1/(2c^2) and r = 0 <=> gamma = 1 <=> c^2 = 1/2 (the Fock point).
    """

    rs: tuple

    def __post_init__(self):
        rs = tuple(float(r) for r in self.rs)
        if not rs:
            raise FockError("need at least one mode")
        if any(not math.isfinite(r) for r in rs):
            raise FockError("squeezing parameters must be finite")
        if any(abs(r) > R_MAX for r in rs):
            raise FockError(f"squeezing parameters must lie in [-{R_MAX}, {R_MAX}]")
        object.__setattr__(self, "rs", rs)

    @classmethod
    def fock(cls, d: int) -> "BogoliubovSpec":
        return cls((0.0,) * d)

    @classmethod
    def uniform(cls, d: int, r: float) -> "BogoliubovSpec":
        return cls((float(r),) * d)

    @classmethod
    def summable(cls, d: int, r: float) -> "BogoliubovSpec":
        return cls(tuple(float(r) * 2.0 ** (-j) for j in range(d)))

    @classmethod
    def from_c(cls, d: int, c: float) -> "BogoliubovSpec":
        c = float(c)
        if c <= 0:
            raise FockError("c must be positive")
        return cls.uniform(d, 0.5 * math.log(2.0 * c * c))

    @classmethod
    def from_gamma(cls, d: int, gamma: float) -> "BogoliubovSpec":
        gamma = float(gamma)
        if gamma <= 0:
            raise FockError("gamma must be positive")
        return cls.uniform(d, -0.5 * math.log(gamma))

    @property
    def gammas(self) -> tuple:
        return tuple(math.exp(-2.0 * r) for r in self.rs)

    @property
    def cs(self) -> tuple:
        return tuple(math.sqrt(math.exp(2.0 * r) / 2.0) for r in self.rs)


def _squeezed_stack(m: ModeSpace, spec: BogoliubovSpec | None) -> tuple:
    """The CSR arrays (data, indices, indptr) of B, the per-mode
    b-_j = cosh(r_j) a-_j + sinh(r_j) a+_j stacked vertically (d dim rows,
    dim columns), written in one pass from the a-_j entries; r_j = 0 when
    spec is None.

    a-_j and its transpose never share a position, so every entry is one
    product, cosh(r_j) or sinh(r_j) times sqrt(n_j), exactly as the sum of
    the two scaled matrices gives it.  As that sum does, B leaves out the
    entries that are zero (all of a+_j when r_j = 0) and keeps each row's
    columns rising."""
    if spec is None:
        spec = BogoliubovSpec.fock(m.d)
    if len(spec.rs) != m.d:
        raise FockError("spec and mode space disagree on the mode count")
    modes, rows, cols, vals = m._am_entries
    cosh = np.array([math.cosh(r) for r in spec.rs])[modes] * vals
    sinh = np.array([math.sinh(r) for r in spec.rs])[modes] * vals
    offset = modes * m.dim
    r = np.concatenate((offset + rows, offset + cols))
    c = np.concatenate((cols, rows))
    x = np.concatenate((cosh, sinh))
    keep = x != 0
    r, c, x = r[keep], c[keep], x[keep]
    order = np.argsort(r * m.dim + c)  # no two entries share a position
    return x[order], c[order], np.searchsorted(r[order], np.arange(m.d * m.dim + 1))


def _lowering_ladder(m: ModeSpace, spec: BogoliubovSpec | None) -> list:
    """Per-mode b-_j = cosh(r_j) a-_j + sinh(r_j) a+_j; a-_j when spec is
    None.  The b-_j are the row blocks of _squeezed_stack."""
    if spec is None:
        return list(m._am)
    data, indices, indptr = _squeezed_stack(m, spec)
    out = []
    for j in range(m.d):
        ptr = indptr[j * m.dim : (j + 1) * m.dim + 1]
        lo, hi = ptr[0], ptr[-1]
        out.append(csr_matrix((data[lo:hi], indices[lo:hi], ptr - lo), shape=(m.dim, m.dim)))
    return out


def bogoliubov_ladder(m: ModeSpace, spec: BogoliubovSpec | None = None):
    """Per-mode (b+_j, b-_j); the Fock ladder (a+_j, a-_j) in
    orthonormalized coordinates when spec is None."""
    bm = _lowering_ladder(m, spec)
    return [b.conj().T.tocsr() for b in bm], bm


def number_operator(m: ModeSpace, spec: BogoliubovSpec | None = None):
    """N = sum_j b+_j b-_j; the plain Fock number operator when spec is
    None (then N is diagonal with the total occupation as eigenvalue).

    N is a real symmetric float64 matrix for every family and gram: the
    entries of b-_j are sqrt(n) times cosh r_j or sinh r_j, and a gram
    enters only the coefficient vectors, never the per-mode ladders.  So
    smallest_eigenvalues solves its blocks with the real eigen-solver.  The
    sum is one product B^T B, where B stacks the b-_j."""
    stacked = csr_matrix(_squeezed_stack(m, spec), shape=(m.d * m.dim, m.dim))
    return (stacked.T @ stacked).tocsr()


def vacuum_generating_function(m: ModeSpace, v, spec=None) -> complex:
    """<vac| exp(i phi(v)) |vac>, computed by applying the exponential to
    the vacuum vector rather than forming a dense exponential."""
    from scipy.sparse.linalg import expm_multiply

    phi, _ = field_pair(m, v, spec)
    try:
        # a huge |v| overflows the step-count estimate (an inf / inf first)
        with np.errstate(invalid="raise"):
            image = expm_multiply(1j * phi, m.vacuum())
    except (OverflowError, FloatingPointError):
        raise FockError("exp(i phi(v)) leaves the float range; |v| is too large") from None
    return complex(np.vdot(m.vacuum(), image))


@dataclass(frozen=True)
class TransferRep:
    """Representation keeping phi and scaling pi by the deformation
    constant; the group-like generator acts as the scalar q^(c/2)."""

    space: ModeSpace
    q: float
    c: float
    constant: float
    scale: float

    def phi(self, v):
        return field_pair(self.space, v)[0]

    def pi(self, v):
        return (self.constant * field_pair(self.space, v)[1]).tocsr()


def transfer_rep(m: ModeSpace, q: float, c: float) -> TransferRep:
    return TransferRep(m, float(q), float(c), *deformation_pair(q, c))


def _letter_matrices(m: ModeSpace, constant: float, scale: float) -> dict:
    """Letter -> matrix under the transfer representation, cached on m.
    Callers must not change the matrices in place."""
    key = (constant, scale)
    if key not in m._letters:
        m._letters[key] = _build_letter_matrices(m, constant, scale)
    return m._letters[key]


def _build_letter_matrices(m: ModeSpace, constant: float, scale: float) -> dict:
    eye = sparse_identity(m.dim, dtype=complex, format="csr")
    phis, pis = phi_pi_matrices(m)
    mats = {
        (FAM_I, 0): eye,
        (FAM_K, 0): (scale * eye).tocsr(),
        (FAM_KINV, 0): ((1.0 / scale) * eye).tocsr(),
    }
    for j in range(m.d):
        ph = phis[j]
        pj = (constant * pis[j]).tocsr()
        mats[(FAM_PHI, j)] = ph
        mats[(FAM_PI, j)] = pj
        mats[(FAM_AP, j)] = ((ph - 1j * pj) / ROOT2).tocsr()
        mats[(FAM_AM, j)] = ((ph + 1j * pj) / ROOT2).tocsr()
    return mats


def _word_matrices(m: ModeSpace, constant: float, scale: float) -> dict:
    """Word -> matrix under the transfer representation, cached on m next
    to the letter matrices and seeded with the empty word, the identity.
    Callers must not change the matrices in place."""
    key = (constant, scale)
    if key not in m._words:
        m._words[key] = {(): _letter_matrices(m, constant, scale)[(FAM_I, 0)]}
    return m._words[key]


def _word_matrix(words: dict, letters: dict, word: tuple, d: int):
    """The matrix of word: its longest cached prefix times the remaining
    letters, left to right, caching every longer prefix.

    Every word grows from the empty word, so a one-letter word is cached
    as identity @ letter.  That product lists each row's columns in falling
    order, and the later products sum their terms in the order of those
    columns; so each entry is the same float as multiplying the word out
    from the identity, also where a gram puts three or more terms into one
    entry."""
    k = len(word)
    while word[:k] not in words:
        k -= 1
    cur = words[word[:k]]
    for i in range(k, len(word)):
        if word[i] not in letters:
            raise FockError(f"generator {word[i]} needs a mode index below d={d}")
        cur = cur @ letters[word[i]]
        words[word[: i + 1]] = cur
    return cur


def expr_matrix(e: Expr, m: ModeSpace, p: Presentation, q=None, c=None):
    """Numeric matrix of a symbolic element under the transfer
    representation.  A numeric presentation supplies (q, c) itself; a
    symbolic deformed presentation needs them passed explicitly; the
    undeformed variant uses constant 1.

    Each word's matrix is formed once per space and (q, c), and the words
    are summed in sorted order into a fresh matrix, never a cached one."""
    if p.q is not None:
        q, c = p.q, p.c
    if p.variant == UNDEFORMED:
        constant, scale = 1.0, 1.0
    elif q is None or c is None:
        raise FockError("numeric q and c are required for a symbolic presentation")
    else:
        constant, scale = deformation_pair(q, c)
    letters = _letter_matrices(m, constant, scale)
    words = _word_matrices(m, constant, scale)
    total = csr_matrix((m.dim, m.dim), dtype=complex)
    for word, coeff in sorted(evaluate_numeric(e, {"kappa": constant, "s": scale}).items()):
        total = total + coeff * _word_matrix(words, letters, word, m.d)
    return total


def commutator_matrix(a, b):
    return (a @ b - b @ a).tocsr()


def transfer_residual(m: ModeSpace, rep: TransferRep, v, w) -> float:
    """Deformed CCR residual of the transfer representation: the norm of
    [pi(v), phi(w)] + i c(q,c) Re<v|w> on the degree-2 safe subspace, where
    <v|w> = v^H G w is the inner product of the space's gram G (the plain
    dot product when there is none)."""
    comm = commutator_matrix(rep.pi(v), rep.phi(w))
    g = rep.space.gram
    inner = float(v @ w) if g is None else float(np.real(np.conj(v) @ g @ w))
    target = -1j * rep.constant * inner * sparse_identity(m.dim, dtype=complex, format="csr")
    return restricted_norm(m, comm - target, 2)


def restricted_norm(m: ModeSpace, a, degree: int) -> float:
    """Frobenius norm of the columns of a indexed by the safe subspace for
    operators of the given degree.

    A sparse a is read in column-major order, the order of its CSC arrays:
    np.linalg.norm sums its squares in the order given, and this is the
    order scipy's sparse norm of the column slice would hand it."""
    safe = m.safe_mask(degree)
    if hasattr(a, "tocsc"):
        a = a.tocsc()
        return float(np.linalg.norm(a.data[np.repeat(safe, np.diff(a.indptr))]))
    return float(np.linalg.norm(np.asarray(a)[:, safe]))


def invariant_blocks(a):
    """Connected components of the sparsity graph of a Hermitian matrix,
    as (labels, sizes): state i lies in block labels[i], which holds
    sizes[labels[i]] states.  No nonzero couples two blocks, so each one
    is an invariant subspace and the spectrum is the union of theirs.
    For the squeezed number operator these are the per-mode parity
    sectors; for the plain Fock operator every state is its own block."""
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(a != 0, directed=False)
    return labels, np.bincount(labels)


def smallest_eigenvalues(a, k: int) -> tuple:
    """Lowest k eigenvalues of a Hermitian sparse matrix, ascending.

    The matrix is split into its invariant blocks; one-state blocks are
    read off the diagonal and every larger one is solved with a dense
    eigvalsh.  A block above DENSE_EIG_LIMIT states raises FockError."""
    if k < 0:
        raise FockError("k must be non-negative")
    if k == 0:
        return ()
    a = a.tocsr()
    labels, sizes = invariant_blocks(a)
    if sizes.max() > DENSE_EIG_LIMIT:
        raise FockError(
            f"an invariant block of {sizes.max()} states exceeds the dense "
            f"eigen-solver budget of {DENSE_EIG_LIMIT}; a smaller nmax shrinks it"
        )
    parts = [a.diagonal()[sizes[labels] == 1].real]
    # order the states block by block, so each block is a diagonal slice
    order = np.argsort(labels, kind="stable")
    a = a[order][:, order]
    ends = np.cumsum(sizes)
    for b in np.flatnonzero(sizes > 1):
        lo, hi = ends[b] - sizes[b], ends[b]
        parts.append(np.linalg.eigvalsh(a[lo:hi, lo:hi].toarray())[:k])
    vals = np.sort(np.concatenate(parts))[:k]
    return tuple(float(x) for x in vals)


@dataclass(frozen=True)
class SpectrumReport:
    name: str
    d: int
    nmax: int
    vacuum_occupancy: float
    eigenvalues: tuple
    converged: bool


@dataclass(frozen=True)
class TrendReport:
    uniform: tuple
    summable: tuple
    uniform_slope: float
    summable_slope: float
    slope_ratio: float


def fit_slope(xs, ys) -> float:
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


def _vacuum_cost(d, nmax, spec) -> float:
    m = ModeSpace(d, nmax)
    vac = m.vacuum()
    return float(np.vdot(vac, number_operator(m, spec) @ vac).real)


def boundedness_trend(d_values=(1, 2, 3), nmax: int = 30) -> TrendReport:
    """Growth of the Bogoliubov vacuum cost with the mode count, at
    squeezing r = log(2)/2.

    Each report carries <vac| N_b |vac> = sum_j sinh^2(r_j), the quantity
    whose divergence as d grows marks a ladder family leaving the Fock
    class: linear growth for uniform r_j = r, a bounded plateau for the
    summable family r_j = r 2^-j.  The smallest eigenvalues of the
    truncated N_b itself sit at numerical zero for every finite d (the
    squeezed vacuum survives truncation, its amplitudes fall off like
    tanh(r)^n), so the reports carry none: the trend lives in the vacuum
    cost, not in the minimum of the spectrum.
    """
    if len(set(d_values)) < 2:
        raise FockError("a growth trend needs at least two distinct mode counts")
    r = 0.5 * math.log(2.0)
    families = (
        ("uniform", lambda d: BogoliubovSpec.uniform(d, r)),
        ("summable", lambda d: BogoliubovSpec.summable(d, r)),
    )
    reports = {}
    for name, make in families:
        rows = []
        for d in d_values:
            spec = make(d)
            occ = _vacuum_cost(d, nmax, spec)
            conv = abs(occ - _vacuum_cost(d, max(nmax - 2, 1), spec)) <= 1e-9
            rows.append(SpectrumReport(f"number[{name}, d={d}]", d, nmax, occ, (), conv))
        reports[name] = rows
    ds = [float(d) for d in d_values]
    us = fit_slope(ds, [rep.vacuum_occupancy for rep in reports["uniform"]])
    ss = fit_slope(ds, [rep.vacuum_occupancy for rep in reports["summable"]])
    ratio = math.inf if ss == 0.0 else abs(us / ss)
    return TrendReport(tuple(reports["uniform"]), tuple(reports["summable"]), us, ss, ratio)
