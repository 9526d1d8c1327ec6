"""Truncated bosonic Fock-space numerics.

Occupation-number bases with a total-occupation cutoff, per-mode ladder
matrices, Bogoliubov (squeezed) families, vacuum generating functions by
Lanczos from the vacuum vector, and the transfer representation that
keeps the field quadrature while scaling the momentum quadrature by the
deformation constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
from .measure import _hermitian
from .scalars import CcrHopfError


class FockError(CcrHopfError):
    pass


ROOT2 = math.sqrt(2.0)

# largest invariant block smallest_eigenvalues solves with a dense eigvalsh,
# and largest Krylov space vacuum_generating_function solves with eigh
DENSE_EIG_LIMIT = 2000

# most occupation states, comb(d + nmax, d), a ModeSpace may hold; the
# tests, selftest and perfbench build at most 5456 (d=3, nmax=30)
MAX_STATES = 20000

# most entries, dim * d, of a built space's occupation table: 32 MB of
# int64, and as much again for the prefix sums of its lowering entries.
# The largest table within MAX_STATES at nmax >= 2 is d=198, nmax=2
# (3940200 entries), which the tests build, so the budget bounds nmax = 1
# alone, at d <= 1999; there nmax = 1 at d = 19999 would take 3.2 GB
MAX_TABLE_ENTRIES = 4_000_000

# most dense entries, 2 d dim^2, that the d per-mode phi and pi matrices
# of fock matrices may print: about 10 MB of report JSON
MAX_DENSE_ENTRIES = 250000

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


def _check_states(d: int, nmax: int) -> int:
    """comb(d + nmax, d), the size of the occupation basis of d modes at
    cutoff nmax; FockError when d < 1 or nmax < 0, or when it holds more
    than MAX_STATES.  The binomial is built factor by factor, comb(n, j)
    for j up to min(d, nmax), and grows with j, so the first factor past
    the budget refuses: huge d and nmax never compute the exact value.

    A basis with nmax >= 1 holds at least d + 1 states, so it spans at
    most MAX_STATES - 1 modes.  At nmax = 0 it is the vacuum alone, yet
    the tables built with it are d long, so the same mode budget holds."""
    if d < 1 or nmax < 0:
        raise FockError("need d >= 1 and nmax >= 0")
    n, states = d + nmax, 1
    for j in range(1, min(d, nmax) + 1):
        states = states * (n - j + 1) // j
        if states > MAX_STATES:
            raise FockError(f"the occupation basis for d={d}, nmax={nmax} exceeds the "
                            f"budget of {MAX_STATES} states; lower d or nmax")
    if d >= MAX_STATES:
        raise FockError(f"{d} modes are over the budget of {MAX_STATES - 1} modes; lower d")
    return states


def _check_space(d: int, nmax: int) -> int:
    """The admission of a space that is built: _check_states, and then
    FockError when its (dim, d) occupation table holds more than
    MAX_TABLE_ENTRIES entries.  Returns dim."""
    dim = _check_states(d, nmax)
    if dim * d > MAX_TABLE_ENTRIES:
        raise FockError(f"the occupation table for d={d}, nmax={nmax} ({dim} states) holds "
                        f"{dim * d} entries, over the budget of {MAX_TABLE_ENTRIES}; "
                        f"lower d or nmax")
    return dim


def matrices_budget(d: int, nmax: int) -> None:
    """Raise FockError when the per-mode phi(e_j) and pi(e_j) of d modes
    at cutoff nmax, written densely, hold more than MAX_DENSE_ENTRIES
    entries, 2 d dim^2 for dim = comb(d + nmax, d).  It reads d and nmax
    alone, so no basis or matrix is built for a refused pair; the state
    and mode budgets are checked first, and d < 1 or nmax < 0 is left to
    ModeSpace to refuse."""
    if d < 1 or nmax < 0:
        return
    dim = _check_states(d, nmax)
    entries = 2 * d * dim * dim
    if entries > MAX_DENSE_ENTRIES:
        raise FockError(f"the dense phi and pi matrices for d={d}, nmax={nmax} ({dim} states) "
                        f"hold {entries} entries, over the budget of {MAX_DENSE_ENTRIES}; "
                        f"lower d or nmax")


def occupation_array(d: int, nmax: int) -> np.ndarray:
    """The (dim, d) int64 array whose rows are the occupation tuples
    (n_0, ..., n_{d-1}) with sum <= nmax in lexicographic order, the
    all-zero tuple first, unranked mode by mode from their row numbers.
    A pair _check_space refuses raises FockError before any is built."""
    _check_space(d, nmax)
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


def _ranks(prefix: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of the states whose prefix sums P_0, ..., P_d
    are the rows of prefix; see _tail_counts."""
    modes = np.arange(tail.shape[0])
    return (tail[modes, prefix[:, :-1]] - tail[modes, prefix[:, 1:]]).sum(axis=1)


def _mixed(z: np.ndarray) -> bool:
    """Whether z holds both nonzero real and nonzero imaginary parts."""
    return z.dtype.kind == "c" and bool(z.real.any()) and bool(z.imag.any())


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, each complex product rounded part by part,
    (ar br - ai bi) + i (ar bi + ai br), as compiled sparse-matrix kernels
    round it, on every machine.  numpy's complex multiply fuses a part into
    one FMA where the processor has one.  That changes nothing when one
    factor is real or imaginary throughout, as each part then holds at
    most one nonzero product, so numpy's multiply serves there."""
    if not (_mixed(a) and _mixed(b)):
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _sums(index: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """out[i] = the sum of vals[index == i], added one by one in the order
    given, starting from zero."""
    out = np.zeros(n, dtype=vals.dtype)
    np.add.at(out, index, vals)
    return out


class SparseOp:
    """A sparse matrix as coordinate arrays: rows, cols and vals, in
    row-major order with one entry per position (a stored value may be
    zero), and the shape.  Callers must not change one in place.

    It carries what the Fock layer's callers use: @ with a dense vector or
    matrix or with another operator; + and -, which give an operator
    between two operators and a dense array with a dense array; scalar *
    and /; conj(), T, diagonal(), toarray(), nnz and dtype.

    The arithmetic rounds as the usual compressed-sparse-row kernels do:
    an entry of a sum or a product adds its terms one by one from zero, a
    product's in the order of the left operand's columns, and a sum that
    is exactly zero is not stored; a scalar scales vals, and / multiplies
    by the reciprocal."""

    __slots__ = ("rows", "cols", "vals", "shape")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, rows, cols, vals, shape):
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, tuple(shape)

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return self.vals.size

    @property
    def dtype(self):
        return self.vals.dtype

    def _with(self, vals) -> "SparseOp":
        return SparseOp(self.rows, self.cols, vals, self.shape)

    def conj(self) -> "SparseOp":
        return self._with(self.vals.conj())

    @property
    def T(self) -> "SparseOp":
        order = np.argsort(self.cols * self.shape[0] + self.rows)
        return SparseOp(self.cols[order], self.rows[order], self.vals[order], self.shape[::-1])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self.rows, self.cols] += self.vals
        return out

    def diagonal(self) -> np.ndarray:
        out = np.zeros(min(self.shape), dtype=self.dtype)
        on = self.rows == self.cols
        out[self.rows[on]] += self.vals[on]
        return out

    def __mul__(self, scalar) -> "SparseOp":
        return self._with(self.vals * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SparseOp":
        return self * (1 / scalar)

    def __add__(self, other):
        if isinstance(other, SparseOp):
            return _coalesced(np.concatenate((self.rows, other.rows)),
                              np.concatenate((self.cols, other.cols)),
                              np.concatenate((self.vals, other.vals)), self.shape)
        return self.toarray() + other

    def __sub__(self, other):
        if isinstance(other, SparseOp):
            return self + other._with(-other.vals)
        return self.toarray() - other

    def __matmul__(self, other):
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"cannot multiply shapes {self.shape} and {other.shape}")
        if isinstance(other, SparseOp):
            # every (left entry, right entry) pair that meets on a column
            # of the left operand, the right operand's row by row
            starts = np.searchsorted(other.rows, np.arange(other.shape[0] + 1))
            count = np.diff(starts)[self.cols]
            left = np.repeat(np.arange(self.nnz), count)
            first = np.repeat(starts[self.cols] - (np.cumsum(count) - count), count)
            right = first + np.arange(left.size)
            return _coalesced(self.rows[left], other.cols[right],
                              _mul(self.vals[left], other.vals[right]),
                              (self.shape[0], other.shape[1]))
        x = np.asarray(other)
        if x.ndim == 2:
            return np.stack([self @ column for column in x.T], axis=1)
        return _sums(self.rows, _mul(self.vals, x[self.cols]), self.shape[0])


def _coalesced(rows, cols, vals, shape) -> SparseOp:
    """The operator whose entry at a position is the sum of the vals given
    there, added in the order given from zero; exactly zero sums are not
    stored."""
    keys = rows * shape[1] + cols
    order = np.argsort(keys, kind="stable")  # keeps the order within a position
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    sums = _sums(np.cumsum(first) - 1, vals[order], keys.size)
    keep = sums != 0
    keys = keys[keep]
    return SparseOp(keys // shape[1], keys % shape[1], sums[keep], shape)


def _scalar_op(dim: int, value) -> SparseOp:
    """value times the identity on dim states, as a complex operator."""
    diag = np.arange(dim)
    return SparseOp(diag, diag, np.full(dim, value, dtype=complex), (dim, dim))


def _linear_combination(terms, dim: int) -> SparseOp:
    """sum of coeff * op over the (coeff, op) pairs, as a complex dim x dim
    operator: the scaled entries are gathered and coalesced once, so each
    entry adds its terms in the order of the pairs, as adding the scaled
    operators one at a time would."""
    terms = list(terms)
    if not terms:
        empty = np.zeros(0, dtype=np.int64)
        return SparseOp(empty, empty, np.zeros(0, dtype=complex), (dim, dim))
    return _coalesced(np.concatenate([op.rows for _, op in terms]),
                      np.concatenate([op.cols for _, op in terms]),
                      np.concatenate([op.vals * coeff for coeff, op in terms], dtype=complex),
                      (dim, dim))


def _lowering_entries(occ: np.ndarray, tail: np.ndarray) -> tuple:
    """The entries of the per-mode a-_j, <n - e_j| a-_j |n> = sqrt(n_j),
    over the basis whose occupation array is occ and whose _tail_counts
    table is tail, as four arrays (mode, row, col, value), mode by mode.

    The row of n - e_j is its rank; ranks are at most dim, so they fit
    int64 at any d.  Lowering keeps lexicographic order, so within a mode
    the rows rise with the columns and each row holds at most one entry."""
    dim, d = occ.shape
    prefix = np.zeros((dim, d + 1), dtype=np.int64)
    np.cumsum(occ, axis=1, out=prefix[:, 1:])
    parts = []
    for j in range(d):
        cols = np.flatnonzero(occ[:, j])
        rows = _ranks(prefix[cols] - (np.arange(d + 1) > j), tail)  # ranks of n - e_j
        parts.append((np.full(cols.size, j), rows, cols, np.sqrt(occ[cols, j].astype(float))))
    return tuple(np.concatenate(a) for a in zip(*parts))


class ModeSpace:
    """d truncated modes with total occupation at most nmax.

    A non-identity gram is absorbed by Cholesky orthonormalization: the
    per-mode matrices act in orthonormal coordinates and coefficient
    vectors enter through L^H, so that [a-(v), a+(w)] = <v|w> with the
    inner product induced by the gram.

    Matrices are SparseOp operators built from _am_entries, the entries of
    the per-mode ladders a-_j.  Those are real float64, and so are the
    squeezed b-_j, stacked in _squeezed_stack, and the number operator
    built from them.  Complex arithmetic enters with a complex
    coefficient: the gram coordinates and conj(w) in ladder_of, the i of
    pi in field_pair, the vacuum vector and exp(i phi(v)), and the
    transfer letter matrices.

    The transfer representation's matrices are kept on the instance, one
    word cache per (constant, scale), seeded with the letters and grown
    with the word products expr_matrix forms; see _word_matrices.
    """

    def __init__(self, d: int, nmax: int, gram=None):
        self.d, self.nmax = int(d), int(nmax)
        if gram is None:
            self.gram = None
            self._chol = None
        else:
            g = np.asarray(gram, dtype=complex)
            if g.shape != (self.d, self.d):
                raise FockError("gram must be a d x d matrix")
            if not _hermitian(g):
                raise FockError("gram must be Hermitian")
            try:
                self._chol = np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                raise FockError("gram must be positive definite") from None
            self.gram = g
        self._occ = occupation_array(self.d, self.nmax)
        self.occupancy = self._occ.sum(axis=1)
        self._am_entries = _lowering_entries(self._occ, _tail_counts(self.d, self.nmax))
        self._words = {}  # (constant, scale) -> word -> matrix

    @property
    def dim(self) -> int:
        return len(self._occ)

    @functools.cached_property
    def states(self) -> list:
        """The occupation tuples, in basis order; built on first use."""
        return list(map(tuple, self._occ.tolist()))

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
    return _ladder(m, np.conj(m.coords(v)), _squeezed_stack(m, spec))


def _ladder(m: ModeSpace, w: np.ndarray, b: SparseOp) -> tuple:
    """(a+, a-) for a- = sum_j w_j b-_j, where b stacks the b-_j: each row
    of b is weighted by w_j of its mode j and the rows are folded onto one
    another, so an entry adds its terms mode by mode."""
    mode = b.rows // m.dim
    am = _coalesced(b.rows - mode * m.dim, b.cols, b.vals * w[mode], (m.dim, m.dim))
    return am.conj().T, am


def _fields(ap: SparseOp, am: SparseOp) -> tuple:
    """(phi, pi) = ((a+ + a-) / sqrt2, i (a+ - a-) / sqrt2)."""
    return (ap + am) / ROOT2, (1j * (ap - am)) / ROOT2


def field_pair(m: ModeSpace, v, spec=None):
    """(phi(v), pi(v)); built on the Bogoliubov ladder when spec is given."""
    return _fields(*ladder_of(m, v, spec))


def phi_pi_matrices(m: ModeSpace):
    """Per-mode field and momentum matrices phi(e_j), pi(e_j), all from one
    ladder stack and one unit vector reused mode by mode, so no d x d
    array is built."""
    b = _squeezed_stack(m, None)
    e = np.zeros(m.d)
    phis, pis = [], []
    for j in range(m.d):
        e[j] = 1.0
        phi, pi = _fields(*_ladder(m, np.conj(m.coords(e)), b))
        e[j] = 0.0
        phis.append(phi)
        pis.append(pi)
    return phis, pis


@dataclass(frozen=True)
class BogoliubovSpec:
    """Per-mode squeezing parameters r_j; r_j = 0 on every mode is the
    Fock point."""

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


def _squeezed_stack(m: ModeSpace, spec: BogoliubovSpec | None) -> SparseOp:
    """B, the per-mode b-_j = cosh(r_j) a-_j + sinh(r_j) a+_j stacked
    vertically (d dim rows, dim columns), written in one pass from the a-_j
    entries; r_j = 0 when spec is None.

    a-_j and its transpose never share a position, so every entry is one
    product, cosh(r_j) or sinh(r_j) times sqrt(n_j), exactly as the sum of
    the two scaled matrices gives it.  As that sum does, B leaves out the
    entries that are zero (all of a+_j when r_j = 0)."""
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
    return SparseOp(r[order], c[order], x[order], (m.d * m.dim, m.dim))


def number_operator(m: ModeSpace, spec: BogoliubovSpec | None = None) -> SparseOp:
    """N = sum_j b+_j b-_j; the plain Fock number operator when spec is
    None (then N is diagonal with the total occupation as eigenvalue).

    N is a real symmetric float64 matrix for every family and gram: the
    entries of b-_j are sqrt(n) times cosh r_j or sinh r_j, and a gram
    enters only the coefficient vectors, never the per-mode ladders.  So
    smallest_eigenvalues solves its blocks with the real eigen-solver.  The
    sum is one product B^T B, where B stacks the b-_j: an entry adds its
    products over the rows of B in order, mode by mode."""
    b = _squeezed_stack(m, spec)
    return b.T @ b


GENFUN_TOLERANCE = 1e-8  # the vacuum generating function passes within this of its closed form
# most Poisson weight exp(i phi(v))|0> may hold above the cutoff before
# genfun_budget refuses to truncate it; runs inside the budget measured off
# by less than 1e-11 on one to three modes, far inside GENFUN_TOLERANCE
GENFUN_TAIL_BUDGET = 1e-8


def _check_krylov(nmax: int) -> None:
    if nmax + 1 > DENSE_EIG_LIMIT:
        raise FockError(f"the vacuum's Krylov space of nmax + 1 = {nmax + 1} states exceeds "
                        f"the dense eigen-solver budget of {DENSE_EIG_LIMIT}; lower nmax")


def vacuum_generating_function(m: ModeSpace, v, spec=None) -> complex:
    """<vac| exp(i phi(v)) |vac> by Lanczos from the vacuum; see Golub &
    Meurant, Matrices, Moments and Quadrature (2010), ch. 6-7.

    phi(v) is the field of one mode, the one along the gram-mapped (and
    squeezed) coefficient vector, and it moves the total occupation by
    exactly one.  So the Lanczos vector q_k is that mode's k-th number
    state, on the states of total occupation k, and the vacuum's Krylov
    space has nmax + 1 dimensions whatever |v| is.  Full
    reorthogonalization is exact here: the part of phi(v) q_k orthogonal
    to q_0, ..., q_k is its part on occupation k + 1, so a step is one
    sparse mat-vec that keeps only that part.  The projected phi(v) is
    then tridiagonal with a zero diagonal; odd powers of it have a zero
    corner, so the value is the real e_1^T cos(T) e_1, taken from eigh(T),
    and its imaginary part is exactly 0.0.

    A Krylov space _check_krylov refuses raises FockError before any work.
    So does a |v| whose phases leave the float range, or whose largest
    phase max|lambda(T)| is so large that its rounding alone,
    max|lambda(T)| * 2^-52, exceeds GENFUN_TOLERANCE."""
    _check_krylov(m.nmax)
    q = m.vacuum()
    betas = []
    with np.errstate(over="ignore", invalid="ignore"):
        phi, _ = field_pair(m, v, spec)
        for k in range(1, m.nmax + 1):
            w = phi @ q
            w[m.occupancy != k] = 0.0  # the rest lies along q_(k-2)
            beta = float(np.linalg.norm(w))
            if not math.isfinite(beta):
                raise FockError("exp(i phi(v)) leaves the float range; |v| is too large")
            if beta == 0.0:  # phi(v) = 0
                break
            betas.append(beta)
            q = w / beta
    t = np.diag(betas, 1)
    lam, u = np.linalg.eigh(t + t.T)
    top = np.abs(lam).max()
    if top * np.finfo(float).eps > GENFUN_TOLERANCE:
        raise FockError(f"the phases of exp(i phi(v)) reach {top:.3g}, whose rounding "
                        f"alone exceeds the tolerance {GENFUN_TOLERANCE:g}; |v| is too large")
    return complex(u[0] ** 2 @ np.cos(lam))


def genfun_mean(m: ModeSpace, v, spec=None) -> float:
    """Mean total occupation of exp(i phi(v))|0>, a coherent state for
    every family.  With w = m.coords(v), phi(v) = sum_j (alpha_j a+_j +
    conj(alpha_j) a-_j) / sqrt2 where alpha_j = Re(w_j) e^{r_j} +
    i Im(w_j) e^{-r_j}, since b+_j + b-_j = e^{r_j} (a+_j + a-_j).  So the
    mean is 1/2 sum_j |alpha_j|^2 and <0|exp(i phi(v))|0> = exp(-mean / 2)."""
    w = m.coords(v)
    rs = np.zeros(m.d) if spec is None else np.array(spec.rs)
    with np.errstate(over="ignore"):
        x, y = w.real * np.exp(rs), w.imag * np.exp(-rs)
        return 0.5 * float(x @ x + y @ y)


def _poisson_tail(mu: float, n: int) -> float:
    """P(N > n) for N ~ Poisson(mu), summed on whichever side of n the
    terms fall off geometrically, with math alone."""
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


def genfun_budget(m: ModeSpace, v, spec=None) -> None:
    """Raise FockError when exp(i phi(v))|0> holds more than GENFUN_TAIL_BUDGET
    of its Poisson weight above m.nmax, naming the least --nmax within the
    budget, or saying that none passes both _check_space and _check_krylov."""
    mu = genfun_mean(m, v, spec)
    weight = _poisson_tail(mu, m.nmax)
    if weight <= GENFUN_TAIL_BUDGET:
        return
    top = 0  # the largest cutoff both admissions pass at this d
    try:
        while True:
            _check_space(m.d, top + 1)
            _check_krylov(top + 1)
            top += 1
    except FockError:
        pass
    if _poisson_tail(mu, top) > GENFUN_TAIL_BUDGET:
        need = (f"no --nmax within the {MAX_STATES}-state budget and the {DENSE_EIG_LIMIT}-state "
                f"Krylov budget (at most {top} for d={m.d}) suffices")
    else:
        lo, hi = m.nmax, top  # the tail is over the budget at lo, within it at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _poisson_tail(mu, mid) > GENFUN_TAIL_BUDGET else (lo, mid)
        need = f"it needs --nmax {hi}"
    raise FockError(f"exp(i phi(v))|0> holds weight {weight:.3g} above nmax={m.nmax} (mean "
                    f"occupation {mu:.4g}), over the budget of {GENFUN_TAIL_BUDGET:g}; {need}")


def genfun_check(m: ModeSpace, v, spec=None) -> tuple:
    """(report fields, passed) of vacuum_generating_function at v against
    its closed form exp(-genfun_mean / 2), judged within GENFUN_TOLERANCE."""
    z = vacuum_generating_function(m, v, spec)
    expected = math.exp(-genfun_mean(m, v, spec) / 2.0)
    error = abs(z - expected)
    fields = {"error": error, "expected": expected, "tolerance": GENFUN_TOLERANCE,
              "value_im": z.imag, "value_re": z.real}
    return fields, error <= GENFUN_TOLERANCE


@dataclass(frozen=True)
class TransferRep:
    """Representation keeping phi and scaling pi by the deformation
    constant; the group-like generator acts as the scalar q^(c/2)."""

    space: ModeSpace
    constant: float
    scale: float

    def phi(self, v):
        return field_pair(self.space, v)[0]

    def pi(self, v):
        return self.constant * field_pair(self.space, v)[1]


def transfer_rep(m: ModeSpace, q: float, c: float) -> TransferRep:
    return TransferRep(m, *deformation_pair(q, c))


def _word_matrices(m: ModeSpace, constant: float, scale: float) -> dict:
    """Word -> matrix under the transfer representation, cached on m per
    (constant, scale).  It is seeded with the empty word, the identity,
    and every one-letter word, the letter's matrix; _word_matrix adds the
    longer words.  Callers must not change the matrices in place."""
    key = (constant, scale)
    if key not in m._words:
        phis, pis = phi_pi_matrices(m)
        one = _scalar_op(m.dim, 1.0)
        words = {(): one, ((FAM_I, 0),): one, ((FAM_K, 0),): _scalar_op(m.dim, scale),
                 ((FAM_KINV, 0),): _scalar_op(m.dim, 1.0 / scale)}
        for j, (ph, mom) in enumerate(zip(phis, pis)):
            pj = constant * mom
            words[((FAM_PHI, j),)] = ph
            words[((FAM_PI, j),)] = pj
            words[((FAM_AP, j),)] = (ph - 1j * pj) / ROOT2
            words[((FAM_AM, j),)] = (ph + 1j * pj) / ROOT2
        m._words[key] = words
    return m._words[key]


def _word_matrix(words: dict, word: tuple, d: int):
    """The matrix of word: its longest cached prefix times the remaining
    letters, left to right, caching every longer prefix.  A product's
    floats depend only on its two factors, and the identity times a letter
    is that letter entry for entry, so each entry is the same float as
    multiplying the word out from the identity."""
    k = len(word)
    while word[:k] not in words:
        k -= 1
    cur = words[word[:k]]
    for i in range(k, len(word)):
        if word[i : i + 1] not in words:
            raise FockError(f"generator {word[i]} needs a mode index below d={d}")
        cur = cur @ words[word[i : i + 1]]
        words[word[: i + 1]] = cur
    return cur


def expr_matrix(e: Expr, m: ModeSpace, p: Presentation, q=None, c=None):
    """Numeric matrix of a symbolic element under the transfer
    representation at the deformation point (q, c).  The point comes in
    only as q and c: a deformed variant needs them, the undeformed one uses
    constant 1 and ignores them, and a presentation that carries its own
    numeric q and c is refused.

    Each word's matrix is formed once per space and (q, c).  The entries of
    every word times its coefficient are gathered in sorted word order and
    coalesced once, into a fresh matrix, never a cached one."""
    if p.q is not None:
        raise FockError("pass the deformation point as q and c, not on the presentation")
    if p.variant == UNDEFORMED:
        constant, scale = 1.0, 1.0
    elif q is None or c is None:
        raise FockError("numeric q and c are required for a deformed variant")
    else:
        constant, scale = deformation_pair(q, c)
    words = _word_matrices(m, constant, scale)
    terms = sorted(evaluate_numeric(e, {"kappa": constant, "s": scale}).items())
    return _linear_combination(((coeff, _word_matrix(words, word, m.d))
                                for word, coeff in terms), m.dim)


def commutator_matrix(a: SparseOp, b: SparseOp) -> SparseOp:
    return a @ b - b @ a


TRANSFER_TOLERANCE = 1e-12  # transfer_check's scaled residual passes below this


def transfer_check(rep: TransferRep, v, w) -> tuple:
    """(report fields, passed) of the deformed CCR residual of the
    transfer representation, judged below TRANSFER_TOLERANCE: the norm of
    [pi(v), phi(w)] + i c(q,c) Re<v|w> on the degree-2 safe subspace, where
    <v|w> = v^H G w is the inner product of the space's gram G (the plain
    dot product when there is none).  A residual past the float range
    raises FockError.  The residual is reported over max(1, c(q,c) |v| |w|
    (nmax + 1) sqrt(S)), in gram norms with S safe states: 1.25 times that
    bounds either product's norm on those columns, and so their rounding."""
    m = rep.space
    with np.errstate(over="ignore", invalid="ignore"):
        comm = commutator_matrix(rep.pi(v), rep.phi(w))
        inner = float(v @ w) if m.gram is None else float(np.real(np.conj(v) @ m.gram @ w))
        target = -1j * rep.constant * inner
        residual = restricted_norm(m, comm - _scalar_op(m.dim, target), 2)
        size = (rep.constant * np.linalg.norm(m.coords(v)) * np.linalg.norm(m.coords(w))
                * (m.nmax + 1) * math.sqrt(m.safe_mask(2).sum()))
    if not math.isfinite(residual):
        raise FockError("the transfer residual at (v, w) is not finite; lower |v| or |w|")
    residual /= max(1.0, float(size))
    return {"residual": residual, "tolerance": TRANSFER_TOLERANCE}, residual < TRANSFER_TOLERANCE


def restricted_norm(m: ModeSpace, a, degree: int) -> float:
    """Frobenius norm of the columns of a, a SparseOp or a dense array,
    indexed by the safe subspace for operators of the given degree.

    A SparseOp's stored entries in those columns are read in column-major
    order, rows rising within a column: np.linalg.norm sums its squares in
    the order given, and this is the order of a column slice's CSC data."""
    safe = m.safe_mask(degree)
    if isinstance(a, SparseOp):
        inside = safe[a.cols]
        return float(np.linalg.norm(a.vals[inside][np.argsort(a.cols[inside], kind="stable")]))
    return float(np.linalg.norm(np.asarray(a)[:, safe]))


def invariant_blocks(a):
    """Connected components of the sparsity graph of a Hermitian matrix,
    as (labels, sizes): state i lies in block labels[i], which holds
    sizes[labels[i]] states; blocks are numbered by their first state.
    No nonzero couples two blocks, so each one is an invariant subspace
    and the spectrum is the union of theirs.  For the squeezed number
    operator these are the per-mode parity sectors; for the plain Fock
    operator every state is its own block.

    Found by min-label propagation with pointer jumping (Shiloach &
    Vishkin, J. Algorithms 3, 1982) over the stored nonzero entries,
    read both ways.  Labels start as the states' own indices, only fall
    and always name a state of the same block, so they settle on each
    block's first state."""
    keep = a.vals != 0
    rows, cols = a.rows[keep], a.cols[keep]
    rows, cols = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    label = np.arange(a.shape[0])
    while True:
        # each state takes its neighbours' least label and hooks its old
        # label's state to it; then every label jumps to its label's label
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, label, low.copy())
        jumped = low[low]
        while not np.array_equal(jumped, low):
            low, jumped = jumped, jumped[jumped]
        if np.array_equal(low, label):
            break
        label = low
    labels = np.unique(label, return_inverse=True)[1]
    return labels, np.bincount(labels)


NONNEGATIVE_TOLERANCE = 1e-8  # a number operator's lowest eigenvalue passes above minus this


def _solver_blocks(a, k: int) -> tuple:
    """invariant_blocks(a) for a solve of the lowest k eigenvalues.  A
    negative k is refused first; for k > 0 so is a block above
    DENSE_EIG_LIMIT states."""
    if k < 0:
        raise FockError("k must be non-negative")
    labels, sizes = invariant_blocks(a)
    if k > 0 and sizes.max() > DENSE_EIG_LIMIT:
        raise FockError(
            f"an invariant block of {sizes.max()} states exceeds the dense "
            f"eigen-solver budget of {DENSE_EIG_LIMIT}; a smaller nmax shrinks it"
        )
    return labels, sizes


def _block_eigenvalues(a, k: int, labels, sizes) -> tuple:
    """smallest_eigenvalues(a, k) from a's invariant blocks (labels, sizes)."""
    if k == 0:
        return ()
    parts = [a.diagonal()[sizes[labels] == 1].real]
    block = np.where(labels[a.rows] == labels[a.cols], labels[a.rows], -1)
    for b in np.flatnonzero(sizes > 1):
        states = np.flatnonzero(labels == b)
        at = block == b
        dense = np.zeros((states.size, states.size), dtype=a.dtype)
        rows, cols = np.searchsorted(states, a.rows[at]), np.searchsorted(states, a.cols[at])
        dense[rows, cols] += a.vals[at]
        parts.append(np.linalg.eigvalsh(dense)[:k])
    vals = np.sort(np.concatenate(parts))[:k]
    return tuple(float(x) for x in vals)


def smallest_eigenvalues(a, k: int) -> tuple:
    """Lowest k eigenvalues of a Hermitian SparseOp, ascending.

    The matrix is split into its invariant blocks; one-state blocks are
    read off the diagonal and every larger one is solved with a dense
    eigvalsh, its states in rising order, placed by np.searchsorted.  Only
    the entries whose row and column both lie in the block enter it, so a
    stored zero between two blocks is left out.  A negative k and, for
    k > 0, a block above DENSE_EIG_LIMIT states raise FockError."""
    return _block_eigenvalues(a, k, *_solver_blocks(a, k))


def spectrum_check(n, k: int) -> tuple:
    """(report fields, passed) of the lowest k eigenvalues of a number
    operator, judged above -NONNEGATIVE_TOLERANCE, with the block layout
    the solver ran on and the vacuum occupancy N[0, 0].

    A dense symmetric eigen-solve is backward stable: the eigenvalues
    eigvalsh returns for an s-state block B are exact for a matrix within
    about s u ||B||_F of B, u = 2^-53, so by Weyl's inequality they lie
    about that close to B's own.  When s u ||n||_F, with s the largest
    invariant block, exceeds NONNEGATIVE_TOLERANCE, the verdict would rest
    on rounding, and FockError is raised before the solve; a negative k
    and a block over the solver's budget are refused first.  k = 0 asks
    for no eigenvalue, so no refusal applies.  At d = 2, nmax = 10 and
    summable r = 100 the bound is 3.4e73; at d = 2, nmax = 68 and r = 0.5
    it is at most 2.8e-10."""
    labels, sizes = _solver_blocks(n, k)
    largest = int(sizes.max())
    if k > 0:
        bound = largest * 2.0 ** -53 * float(np.linalg.norm(n.vals))
        if bound > NONNEGATIVE_TOLERANCE:
            raise FockError(
                f"the eigen-solver's rounding bound {bound:.3g} (largest block of {largest} "
                f"states) exceeds the nonnegativity tolerance of {NONNEGATIVE_TOLERANCE:g}; "
                f"lower --r or --nmax")
    eigs = _block_eigenvalues(n, k, labels, sizes)
    fields = {"eigenvalues": list(eigs), "nonnegative_tolerance": NONNEGATIVE_TOLERANCE,
              "solver": {"blocks": len(sizes), "largest_block": largest,
                         "method": "dense-blocks"},
              "vacuum_occupancy": float(n.diagonal()[0])}
    return fields, not eigs or eigs[0] > -NONNEGATIVE_TOLERANCE


SLOPE_RATIO_FLOOR = 5.0  # the least uniform-to-summable slope ratio that passes


def boundedness_trend(d_values=(1, 2, 3), nmax: int = 30) -> tuple:
    """(report fields, passed) of the growth of the Bogoliubov vacuum cost
    with the mode count at squeezing r = log(2)/2: the uniform and summable
    costs per mode count in d_values at cutoff nmax, their least-squares
    slopes in d and the ratio, which passes at SLOPE_RATIO_FLOOR or above.

    The cost <vac| N_b |vac> = sum_j sinh^2(r_j) diverges with d when a
    ladder family leaves the Fock class: linear growth for uniform
    r_j = r, a plateau for the summable r_j = r 2^-j.  As a+_j|vac> is a
    unit vector at every nmax >= 1, the sum added mode by mode from 0.0
    is the float N[0, 0] of number_operator(ModeSpace(d, nmax), spec).  No
    space is built, but its refusals stand: a cutoff below one quantum, a
    d below 1 and a basis over MAX_STATES raise FockError.  The smallest
    eigenvalues of the truncated N_b sit at numerical zero for every
    finite d (the squeezed vacuum survives truncation), so the trend
    lives in the vacuum cost, not in the spectrum.
    """
    if len(set(d_values)) < 2:
        raise FockError("a growth trend needs at least two distinct mode counts")
    if nmax < 1:
        raise FockError(f"the vacuum cost needs a cutoff of at least one quantum, got nmax={nmax}")
    r = 0.5 * math.log(2.0)
    uniform, summable = [], []
    for d in d_values:
        _check_states(d, nmax)
        for costs, spec in ((uniform, BogoliubovSpec.uniform(d, r)),
                            (summable, BogoliubovSpec.summable(d, r))):
            cost = 0.0
            for r_j in spec.rs:
                b = math.sinh(r_j)
                cost += b * b
            costs.append(cost)
    ds = np.asarray(d_values, float)
    us, ss = (float(np.polyfit(ds, costs, 1)[0]) for costs in (uniform, summable))
    ratio = math.inf if ss == 0.0 else abs(us / ss)
    fields = {"d_values": list(d_values), "nmax": nmax, "uniform": uniform, "summable": summable,
              "uniform_slope": us, "summable_slope": ss, "slope_ratio": ratio}
    return fields, ratio >= SLOPE_RATIO_FLOOR
