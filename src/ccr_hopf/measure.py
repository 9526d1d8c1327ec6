"""L2-over-Gaussian-measure realization at finite dimension.

A centered Gaussian measure with Fourier transform exp(-M_K(v)/2),
M_K(v) = |K^-1 v|^2, carries multiplication operators T(v), translation
operators P(v) weighted by the Radon-Nikodym cocycle, acting exactly on
a polynomial-times-Gaussian function class, and the Weyl relation
between them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product as cartesian

import numpy as np

from .scalars import CcrHopfError


class MeasureError(CcrHopfError):
    pass


ROOT2 = math.sqrt(2.0)

# most monomials TestFunction.translate may expand: a term with exponents k
# becomes prod_i (k_i + 1) of them, and the random test functions of a
# d-mode sweep hold up to 3^d per term.  Expanding 141^2 = 19881 of them,
# exponents (140, 140), takes about 10 ms (one BLAS thread, 2-vCPU x86-64 VM)
MAX_TRANSLATE_MONOMIALS = 20_000

# most standard normal draws, samples * d, bochner_mc may make in one run;
# the selftest draws 100000 x 2.  The draws are taken MC_CHUNK_ROWS rows at
# a time and reduced block by block, so a run holds one block whatever the
# sample count (under 5 MB, tracemalloc) and the budget bounds only the run
# time: 0.17-0.25 s at d = 1 and 0.10-0.11 s at d = 4 (one BLAS thread,
# 2-vCPU VM), where cos and sin of each sample dominate
MAX_MC_DRAWS = 4_000_000

# rows of draws bochner_mc holds at once
MC_CHUNK_ROWS = 65_536

# most (v, v', u) triples cocycle_sweep may check: it is a Python loop at
# about 45-70 us a triple, so 5-7 s at the budget
MAX_COCYCLE_SAMPLES = 100_000

# most monomials weyl_sweep may translate: its count of triples times the
# most one d-mode random test function expands.  With worst-case test
# functions a triple took 0.10 ms at d = 1 and about 3 us a monomial at
# d = 4..8 (34 ms a triple at d = 8), so a sweep at the budget takes at
# most about 2 s at d = 1 (20000 triples) and 0.3 s at d >= 4 (one BLAS
# thread, 2-vCPU x86-64 VM)
MAX_WEYL_MONOMIALS = 100_000

# most modes a GaussianModel may have, checked before any d x d array is
# built.  At the budget K, K^-1, C and the gram hold 512 KiB each, and
# GaussianModel.fock(256) takes about 9 ms (one BLAS thread, 2-vCPU x86-64
# VM); weyl_sweep's refusal prints 5 * 3^255, 123 digits.  At d = 1000 the
# Fock model's density already leaves the float range
MAX_MODES = 256

# most vectors pd_sweep may draw: the matrix Z(v_i - v_j) takes count^2
# Python calls of Z at about 5 us each, so about 5 s at the budget
MAX_PD_VECTORS = 1_000


SYMMETRY_TOLERANCE = 1e-12  # most |A - A^H| entry a gram or quadratic part may hold


def _check_modes(d: int) -> None:
    """Every model's admission of its mode count: 1 <= d <= MAX_MODES."""
    if d < 1:
        raise MeasureError("K must be at least 1 x 1")
    if d > MAX_MODES:
        raise MeasureError(f"a model of {d} modes is over the budget of {MAX_MODES}; lower d")


def _hermitian(a: np.ndarray) -> bool:
    """Whether every entry of |a - a^H| is at most SYMMETRY_TOLERANCE, with
    no relative slack; a NaN or infinite entry fails.  The one rule for
    the grams of both numeric layers and the quadratic parts of test
    functions; on a real matrix it is symmetry."""
    with np.errstate(invalid="ignore"):
        return bool((np.abs(a - a.conj().T) <= SYMMETRY_TOLERANCE).all())


# ---------------------------------------------------------------------------
# Gaussian model

class GaussianModel:
    """Centered Gaussian measure determined by an invertible real K.

    The covariance form is M_K(v) = <K^-1 v|K^-1 v>, the generating
    function Z(v) = exp(-M_K(v)/2), and the density of the measure is
    proportional to exp(-u.C.u/2) with C = K K^T.  The embedding of test
    vectors into the sample space is u_v = gram.v (identity by default),
    and embed is the only map that forms it: P(v) shifts by u_v and is
    weighted by the cocycle of that same shift.
    """

    def __init__(self, K, gram=None):
        K = np.asarray(K, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise MeasureError("K must be a square real matrix")
        self.d = K.shape[0]
        _check_modes(self.d)
        if not np.all(np.isfinite(K)):
            raise MeasureError("K must have finite entries")
        with np.errstate(over="ignore"):
            if abs(np.linalg.det(K)) < 1e-12:
                raise MeasureError("K must be invertible")
            Kinv, C = np.linalg.inv(K), K @ K.T
        if not (np.all(np.isfinite(Kinv)) and np.all(np.isfinite(C))):
            raise MeasureError("K^-1 and the covariance C = K K^T must be finite")
        self.K, self.Kinv, self.C = K, Kinv, C
        # the density's normalisation; a nearly singular K can leave det(C)
        # rounded to zero or below, and then the density is undefined
        with np.errstate(over="ignore"):
            det_c = float(np.linalg.det(C))
        self._density_norm = (
            (2.0 * math.pi) ** (-0.5 * self.d) * math.sqrt(det_c) if det_c > 0 else None
        )
        if gram is None:
            self.gram = np.eye(self.d)
        else:
            g = np.asarray(gram, dtype=float)
            if g.shape != (self.d, self.d) or not _hermitian(g):
                raise MeasureError("gram must be a real symmetric d x d matrix")
            self.gram = g

    @classmethod
    def fock(cls, d: int, gram=None) -> "GaussianModel":
        # C = 2 I reproduces Z(v) = exp(-|v|^2/4)
        _check_modes(d)
        return cls(ROOT2 * np.eye(d), gram=gram)

    @classmethod
    def scaled(cls, d: int, scale: float, gram=None) -> "GaussianModel":
        """K = I/scale.  A scale whose reciprocal is not a finite float is
        refused before the division, which would warn."""
        _check_modes(d)
        if scale == 0 or not math.isfinite(1.0 / scale):
            raise MeasureError("K must have finite entries")
        return cls(np.eye(d) / scale, gram=gram)

    def M(self, v) -> float:
        w = self.Kinv @ np.asarray(v, dtype=float)
        return float(w @ w)

    def Z(self, v) -> float:
        return math.exp(-0.5 * self.M(v))

    def inner(self, v, w) -> float:
        return float(np.asarray(v, float) @ self.gram @ np.asarray(w, float))

    def embed(self, v) -> np.ndarray:
        """u_v, the sample-space direction paired with v."""
        return self.gram @ np.asarray(v, dtype=float)

    def density(self, u) -> float:
        if self._density_norm is None:
            raise MeasureError("det(K K^T) rounds to zero or below; K is too close to "
                               "singular for the density")
        u = np.asarray(u, dtype=float)
        return self._density_norm * math.exp(-0.5 * float(u @ self.C @ u))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n rows distributed as the measure (covariance C^-1)."""
        z = rng.standard_normal((n, self.d))
        return z @ self.Kinv


def gauss_vector(rng, d: int) -> np.ndarray:
    """d standard normal draws from a random.Random, as one vector."""
    return np.array([rng.gauss(0, 1) for _ in range(d)])


# ---------------------------------------------------------------------------
# Cocycle, eta limit, Bochner

def cocycle(model: GaussianModel, v, u) -> float:
    """a_K(v,u) = exp(-M_K(C u_v)/4 - <C u_v,u>/2), the square root of
    the Radon-Nikodym derivative of the shift by u_v."""
    cu = model.C @ model.embed(v)
    return math.exp(-0.25 * model.M(cu) - 0.5 * float(cu @ np.asarray(u, float)))


def _cocycle_sides(model: GaussianModel, v, vp, u, a_vu: float) -> tuple:
    """a(v+v', u) and a(v, u) a(v', u + u_v), given a_vu = a(v, u)."""
    lhs = cocycle(model, np.asarray(v, float) + np.asarray(vp, float), u)
    return lhs, a_vu * cocycle(model, vp, np.asarray(u, float) + model.embed(v))


def cocycle_check(model: GaussianModel, v, vp, u) -> float:
    """|a(v+v', u) - a(v, u) a(v', u + u_v)|."""
    lhs, rhs = _cocycle_sides(model, v, vp, u, cocycle(model, v, u))
    return abs(lhs - rhs)


def _density_ratio_sides(model: GaussianModel, v, u, a_vu: float) -> tuple:
    """density(u+u_v)/density(u) and a(v,u)^2, given a_vu = a(v, u)."""
    u = np.asarray(u, dtype=float)
    return model.density(u + model.embed(v)) / model.density(u), a_vu ** 2


def density_ratio_check(model: GaussianModel, v, u) -> float:
    """|density(u+u_v)/density(u) - a(v,u)^2|."""
    ratio, square = _density_ratio_sides(model, v, u, cocycle(model, v, u))
    return abs(ratio - square)


def scaled_residual(lhs, rhs) -> float:
    """|lhs - rhs| / max(1, |lhs|, |rhs|): an identity's residual in units
    of the larger side it compares, absolute while both are below 1."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


COCYCLE_TOLERANCE = 1e-10  # the scaled cocycle and density-ratio residuals pass below this


def cocycle_sweep(model: GaussianModel, rng, count: int) -> tuple:
    """(report fields, passed) of the worst scaled_residual of the cocycle
    identity and of the density ratio over count random (v, v', u) triples
    drawn from rng, each judged below COCYCLE_TOLERANCE; a residual that
    leaves the float range raises MeasureError."""
    if count < 1:
        raise MeasureError(f"need at least one sample point, got {count}")
    if count > MAX_COCYCLE_SAMPLES:
        raise MeasureError(f"{count} cocycle samples are over the budget of "
                           f"{MAX_COCYCLE_SAMPLES}; lower the samples")
    worst_c = worst_r = 0.0
    # numpy warns of no overflow: a residual it leaves non-finite is refused
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(count):
            v, vp, u = (gauss_vector(rng, model.d) for _ in range(3))
            try:
                a_vu = cocycle(model, v, u)  # a(v, u), a factor of both identities
                res_c = scaled_residual(*_cocycle_sides(model, v, vp, u, a_vu))
                res_r = scaled_residual(*_density_ratio_sides(model, v, u, a_vu))
            # math.exp of a cocycle past the float range, or a density that rounds to 0
            except (OverflowError, ZeroDivisionError):
                res_c = res_r = math.nan
            # max() would drop the NaN that an infinite density leaves
            if not (math.isfinite(res_c) and math.isfinite(res_r)):
                raise MeasureError("a cocycle or density ratio at a sample point is not finite: "
                                   "it leaves the float range")
            worst_c, worst_r = max(worst_c, res_c), max(worst_r, res_r)
    fields = {"cocycle_max_residual": worst_c, "density_ratio_max_residual": worst_r,
              "tolerance": COCYCLE_TOLERANCE}
    return fields, worst_c < COCYCLE_TOLERANCE and worst_r < COCYCLE_TOLERANCE


def eta(model: GaussianModel, v, u) -> float:
    """Richardson-extrapolated limit of (a(alpha v, u) - 1)/alpha as
    alpha -> 0 over six halvings from alpha = 1e-2; converges to
    -<C u_v,u>/2."""
    v = np.asarray(v, dtype=float)
    table = []
    for i in range(6):
        a = 1e-2 * 2.0 ** (-i)
        row = [(cocycle(model, a * v, u) - 1.0) / a]
        for j in range(1, i + 1):
            w = 2.0 ** j
            row.append((w * row[j - 1] - table[i - 1][j - 1]) / (w - 1.0))
        table.append(row)
    return float(table[-1][-1])


def eta_error(model: GaussianModel, v, u) -> tuple:
    """(error, estimate, exact) of eta against its limit -<C u_v,u>/2;
    an error that overflows a float raises MeasureError."""
    with np.errstate(over="ignore", invalid="ignore"):
        exact = -0.5 * float((model.C @ model.embed(v)) @ u)
        try:
            estimate = eta(model, v, u)
        except OverflowError:  # math.exp of a cocycle past the float range
            estimate = math.nan
    if not math.isfinite(abs(estimate - exact)):
        raise MeasureError("eta at (v, u) is not finite: the cocycle overflows a float")
    return abs(estimate - exact), estimate, exact


ETA_TOLERANCE = 1e-8  # eta passes when it lies within this of its limit


def eta_sweep(model: GaussianModel, rng, count: int) -> list:
    """eta_error at count random points (v, u) drawn from rng, v first."""
    points = []
    for _ in range(count):
        v = gauss_vector(rng, model.d)
        u = gauss_vector(rng, model.d)
        points.append(eta_error(model, v, u))
    return points


def eta_check(points) -> tuple:
    """(report fields, passed) of eta_error points, judged within
    ETA_TOLERANCE at the worst one."""
    worst = max(0.0, *(err for err, _, _ in points))
    rows = [{"error": err, "estimate": got, "exact": want} for err, got, want in points]
    return {"max_error": worst, "points": rows, "tolerance": ETA_TOLERANCE}, worst < ETA_TOLERANCE


@dataclass(frozen=True)
class MCEstimate:
    estimate: complex
    stderr: float
    samples: int
    seed: int


def bochner_mc(model: GaussianModel, v, samples: int = 100000, seed: int = 42) -> MCEstimate:
    """Monte-Carlo estimate of the Fourier transform of the measure at v;
    deterministic for a fixed seed, and refused past MAX_MC_DRAWS // d samples.

    The draws go through model.sample MC_CHUNK_ROWS rows at a time, and
    the estimate is taken in one pass over the blocks: each block's
    cos(u.v) and sin(u.v) give its means and sums of squared deviations,
    which the pairwise update of Chan, Golub & LeVeque ("Algorithms for
    computing the sample variance", Amer. Statist. 37, 1983) folds into a
    running (count, mean, M2) for each part, so nothing of length samples
    is held.  The blocks are the same stream of draws as one
    model.sample(samples, rng).  The tests hold a correctly rounded sum
    over every draw as the oracle."""
    if samples < 2:
        raise MeasureError("need at least two samples")
    if samples > MAX_MC_DRAWS // model.d:
        raise MeasureError(f"{samples} samples in d={model.d} need more normal draws than "
                           f"the budget of {MAX_MC_DRAWS}; lower them to {MAX_MC_DRAWS // model.d}")
    rng = np.random.default_rng(seed)
    v = np.asarray(v, dtype=float)
    count, mean, m2 = 0, np.zeros(2), np.zeros(2)  # of (cos, sin)
    for lo in range(0, samples, MC_CHUNK_ROWS):
        rows = min(MC_CHUNK_ROWS, samples - lo)
        x = model.sample(rows, rng) @ v
        parts = np.empty((2, rows))
        np.cos(x, out=parts[0])
        np.sin(x, out=parts[1])
        block_mean = parts.mean(axis=1)
        parts -= block_mean[:, None]
        block_m2 = np.square(parts, out=parts).sum(axis=1)
        delta = block_mean - mean
        count += rows
        mean += delta * (rows / count)
        m2 += block_m2 + np.square(delta) * ((count - rows) * rows / count)
    stderr = math.sqrt(float(m2.sum()) / (samples - 1) / samples)
    return MCEstimate(complex(mean[0], mean[1]), stderr, samples, seed)


BOCHNER_SIGMAS = 3  # bochner_mc passes within this many standard errors of Z(v)


def bochner_check(model: GaussianModel, v, samples: int, seed: int) -> tuple:
    """(report fields, passed) of bochner_mc at v against the exact Z(v),
    judged within BOCHNER_SIGMAS standard errors; a gap or standard error
    that overflows a float raises MeasureError."""
    with np.errstate(over="ignore", invalid="ignore"):
        est = bochner_mc(model, v, samples=samples, seed=seed)
        exact = model.Z(v)
    gap = abs(est.estimate - exact)
    if not (math.isfinite(gap) and math.isfinite(est.stderr)):
        raise MeasureError("the Monte-Carlo estimate at v is not finite: u.v overflows a float")
    fields = {
        "estimate_im": est.estimate.imag,
        "estimate_re": est.estimate.real,
        "exact": exact,
        "gap": gap,
        "stderr": est.stderr,
        "tolerance": f"{BOCHNER_SIGMAS} standard errors",
    }
    return fields, gap <= BOCHNER_SIGMAS * est.stderr


def positive_definiteness_check(Z, vectors):
    """Gram matrix Z(v_i - v_j); returns its minimum eigenvalue."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    m = len(vs)
    if m == 0:
        raise MeasureError("need at least one vector")
    mat = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            mat[i, j] = Z(vs[i] - vs[j])
    return float(np.min(np.linalg.eigvalsh(mat)))


PD_EIGENVALUE_FLOOR = -1e-10  # the least eigenvalue of the matrix Z(v_i - v_j) that passes


def pd_sweep(model: GaussianModel, rng, count: int) -> tuple:
    """(report fields, passed) of positive_definiteness_check of model.Z
    over count random vectors drawn from rng, judged at or above
    PD_EIGENVALUE_FLOOR."""
    if count > MAX_PD_VECTORS:
        raise MeasureError(f"{count} vectors are over the budget of "
                           f"{MAX_PD_VECTORS}; lower the count")
    low = positive_definiteness_check(model.Z, [gauss_vector(rng, model.d) for _ in range(count)])
    return {"min_eigenvalue": low, "tolerance": PD_EIGENVALUE_FLOOR}, low >= PD_EIGENVALUE_FLOOR


# ---------------------------------------------------------------------------
# Test functions: polynomial times Gaussian, exact operations

def _poly_clean(poly: dict) -> dict:
    return {k: v for k, v in poly.items() if v != 0}


class TestFunction:
    """p(u) * exp(-u.A.u/2 + b.u + c) with a complex polynomial p.

    Closed under translation and multiplication by the exponential of an
    affine function, the operations of T(v) and P(v); evaluation is exact
    up to floating point.
    """

    __test__ = False  # not a test case, despite the mathematical name

    def __init__(self, d: int, poly: dict, quad=None, lin=None, const=0.0):
        self.d = int(d)
        self.poly = _poly_clean(
            {tuple(int(i) for i in k): complex(v) for k, v in poly.items()}
        )
        for k in self.poly:
            if len(k) != self.d or any(i < 0 for i in k):
                raise MeasureError(f"bad multi-index {k}")
        self.quad = np.zeros((d, d)) if quad is None else np.asarray(quad, dtype=float)
        if self.quad.shape != (self.d, self.d) or not _hermitian(self.quad):
            raise MeasureError("quadratic part must be real symmetric")
        self.lin = (
            np.zeros(d, dtype=complex) if lin is None else np.asarray(lin, dtype=complex)
        )
        self.const = complex(const)

    def _derived(self, poly: dict, lin=None, const=None) -> "TestFunction":
        """A function with this one's d and quadratic part, and its linear
        and constant exponents unless given, built without the checks of
        the constructor: the operations form poly's multi-indices from this
        function's and its complex values from its coefficients, and the
        quadratic part is this function's array."""
        f = object.__new__(TestFunction)
        f.d, f.quad = self.d, self.quad
        f.poly = _poly_clean(poly)
        f.lin = self.lin if lin is None else np.asarray(lin, dtype=complex)
        f.const = self.const if const is None else complex(const)
        return f

    def evaluate(self, u) -> complex:
        """f(u).  The powers of the u_i are Python float powers, so one
        past the float range raises OverflowError."""
        u = np.asarray(u, dtype=float)
        us = u.tolist()
        p = 0.0 + 0.0j
        for k, coeff in sorted(self.poly.items()):
            term = coeff
            for i, n in enumerate(k):
                if n:
                    term *= us[i] ** n
            p += term
        expo = -0.5 * float(u @ self.quad @ u) + complex(self.lin @ u) + self.const
        return p * cmath.exp(expo)

    def translate(self, t) -> "TestFunction":
        """u -> u + t.  The powers of the t_i are Python float powers, so
        one past the float range raises OverflowError."""
        t = np.asarray(t, dtype=float)
        count = sum(math.prod(n + 1 for n in k) for k in self.poly)
        if count > MAX_TRANSLATE_MONOMIALS:
            raise MeasureError(f"translating this test function expands {count} monomials, "
                               f"over the budget of {MAX_TRANSLATE_MONOMIALS}; lower d or the degree")
        ts = t.tolist()
        poly = {}
        for k, coeff in self.poly.items():
            # binomial factor comb(n, j) t_i^(n - j) of exponent j on axis i
            factors = [[math.comb(n, j) * ti ** (n - j) for j in range(n + 1)]
                       for ti, n in zip(ts, k)]
            for key, combo in zip(cartesian(*(range(n + 1) for n in k)), cartesian(*factors)):
                val = coeff
                for f in combo:
                    val *= f
                poly[key] = poly.get(key, 0) + val
        lin = self.lin - self.quad @ t
        const = self.const + complex(self.lin @ t) - 0.5 * float(t @ self.quad @ t)
        return self._derived(poly, lin, const)

    def phase(self, w) -> "TestFunction":
        """Multiply by exp(i <w,u>)."""
        lin = self.lin + 1j * np.asarray(w, dtype=float)
        return self._derived(self.poly, lin)

    def with_exponent(self, dlin, dconst) -> "TestFunction":
        """Multiply by exp(<dlin,u> + dconst)."""
        lin = self.lin + np.asarray(dlin, dtype=complex)
        return self._derived(self.poly, lin, self.const + dconst)


def random_test_function(rng, d: int) -> TestFunction:
    """Small random profile for property loops (plain random.Random)."""
    poly = {}
    for _ in range(rng.randint(1, 2)):
        key = tuple(rng.randint(0, 2) for _ in range(d))
        poly[key] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    quad = np.diag([rng.uniform(0.0, 0.5) for _ in range(d)])
    lin = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)])
    return TestFunction(d, poly, quad, lin, 0.0)


# ---------------------------------------------------------------------------
# Representation operators on test functions

def p_op(model: GaussianModel, v):
    """P(v) as a map on test functions, (P(v)f)(u) = a(v,u) f(u + u_v);
    u_v, C u_v and M_K(C u_v) are formed once for every f it is applied to."""
    shift = model.embed(v)
    cu = model.C @ shift
    dlin, dconst = -0.5 * cu, -0.25 * model.M(cu)
    return lambda f: f.translate(shift).with_exponent(dlin, dconst)


def _weyl_sides(model: GaussianModel, v, vp, f: TestFunction, u) -> tuple:
    """(P(v)T(v')f)(u) and exp(i<v|v'>) (T(v')P(v)f)(u), where T(v') is
    the multiplication by exp(i<v',u>), f.phase(v')."""
    p = p_op(model, v)
    lhs = p(f.phase(vp)).evaluate(u)
    return lhs, cmath.exp(1j * model.inner(v, vp)) * p(f).phase(vp).evaluate(u)


def weyl_relation_check(model: GaussianModel, v, vp, f: TestFunction, u) -> complex:
    """(P(v)T(v')f)(u) - exp(i<v|v'>) (T(v')P(v)f)(u)."""
    lhs, rhs = _weyl_sides(model, v, vp, f, u)
    return lhs - rhs


WEYL_TOLERANCE = 1e-10  # the scaled Weyl relation residuals pass below this


def weyl_sweep(model: GaussianModel, rng, count: int) -> tuple:
    """(report fields, passed) of the worst scaled_residual of the Weyl
    relation over count random (v, v', u) triples and test functions drawn
    from rng, judged below WEYL_TOLERANCE.  Both budgets are checked against
    the worst-case test function before the first draw, so whether a sweep
    is refused never depends on the draws.  A residual that overflows a
    float, or is not finite, raises MeasureError."""
    if count < 1:
        raise MeasureError(f"need at least one sample point, got {count}")
    # a random_test_function has at most two distinct exponent vectors in
    # {0, 1, 2}^d, so its translation expands at most 3^d + 2 * 3^(d-1)
    # monomials, from (2, ..., 2) and (2, ..., 2, 1)
    per = 5 * 3 ** (model.d - 1)
    if per > MAX_TRANSLATE_MONOMIALS:
        raise MeasureError(f"a {model.d}-mode test function may translate into {per} monomials, "
                           f"over the budget of {MAX_TRANSLATE_MONOMIALS}; lower d")
    if count * per > MAX_WEYL_MONOMIALS:
        raise MeasureError(f"{count} Weyl samples of up to {per} monomials each are over the "
                           f"budget of {MAX_WEYL_MONOMIALS} monomials; lower the count or d")
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(count):
            v, vp, u = (gauss_vector(rng, model.d) for _ in range(3))
            f = random_test_function(rng, model.d)
            try:
                residual = scaled_residual(*_weyl_sides(model, v, vp, f, u))
            # a float power or cmath.exp of a test function past the float range
            except OverflowError:
                residual = math.nan
            # max() would drop the NaN that an infinite exponent leaves
            if not math.isfinite(residual):
                raise MeasureError("a Weyl residual at a sample point overflows a float")
            worst = max(worst, residual)
    return {"max_residual": worst, "tolerance": WEYL_TOLERANCE}, worst < WEYL_TOLERANCE
