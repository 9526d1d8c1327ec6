"""L2-over-Gaussian-measure realization at finite dimension.

A centered Gaussian measure with Fourier transform exp(-M_K(v)/2),
M_K(v) = |K^-1 v|^2, carries multiplication operators T(v), translation
operators P(v) weighted by the Radon-Nikodym cocycle, the exact Weyl
composition law, and the field/momentum formulas with closed-form
directional derivatives on a polynomial-times-Gaussian function class.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian

import numpy as np

from .scalars import CcrHopfError


class MeasureError(CcrHopfError):
    pass


ROOT2 = math.sqrt(2.0)

# most monomials TestFunction.translate may expand: a term with exponents k
# becomes prod_i (k_i + 1) of them, and the random test functions of a
# d-mode sweep hold up to 3^d per term
MAX_TRANSLATE_MONOMIALS = 20_000

# most standard normal draws, samples * d, bochner_mc may make at once; the
# selftest draws 100000 x 2.  A run peaks near 16 d + 24 bytes per sample
# (tracemalloc), so about 160 MB at the budget with d = 1
MAX_MC_DRAWS = 4_000_000


# ---------------------------------------------------------------------------
# Gaussian model

class GaussianModel:
    """Centered Gaussian measure determined by an invertible real K.

    The covariance form is M_K(v) = <K^-1 v|K^-1 v>, the generating
    function Z(v) = exp(-M_K(v)/2), and the density of the measure is
    proportional to exp(-u.C.u/2) with C = K K^T.  The embedding of test
    vectors into the sample space is u_v = gram.v (identity by default).
    """

    def __init__(self, K, gram=None):
        K = np.asarray(K, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise MeasureError("K must be a square real matrix")
        self.d = K.shape[0]
        if self.d == 0:
            raise MeasureError("K must be at least 1 x 1")
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
        det_c = float(np.linalg.det(C))
        self._density_norm = (
            (2.0 * math.pi) ** (-0.5 * self.d) * math.sqrt(det_c) if det_c > 0 else None
        )
        if gram is None:
            self.gram = np.eye(self.d)
        else:
            g = np.asarray(gram, dtype=float)
            if g.shape != (self.d, self.d) or not np.allclose(g, g.T, atol=1e-12):
                raise MeasureError("gram must be a real symmetric d x d matrix")
            self.gram = g

    @classmethod
    def fock(cls, d: int) -> "GaussianModel":
        # C = 2 I reproduces Z(v) = exp(-|v|^2/4)
        return cls(ROOT2 * np.eye(d))

    @classmethod
    def scalar_c(cls, d: int, c: float) -> "GaussianModel":
        c = float(c)
        if c <= 0:
            raise MeasureError("c must be positive")
        return cls(np.eye(d) / c)

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
    """a_K(v,u) = exp(-M_K(Cv)/4 - <Cv,u>/2), the square root of the
    Radon-Nikodym derivative of the shift by u_v."""
    v = np.asarray(v, dtype=float)
    cv = model.C @ v
    return math.exp(-0.25 * model.M(cv) - 0.5 * float(cv @ np.asarray(u, float)))


def cocycle_check(model: GaussianModel, v, vp, u) -> float:
    """|a(v+v', u) - a(v, u) a(v', u + u_v)|."""
    lhs = cocycle(model, np.asarray(v, float) + np.asarray(vp, float), u)
    rhs = cocycle(model, v, u) * cocycle(model, vp, np.asarray(u, float) + model.embed(v))
    return abs(lhs - rhs)


def density_ratio_check(model: GaussianModel, v, u) -> float:
    """|density(u+u_v)/density(u) - a(v,u)^2|."""
    u = np.asarray(u, dtype=float)
    ratio = model.density(u + model.embed(v)) / model.density(u)
    return abs(ratio - cocycle(model, v, u) ** 2)


def cocycle_sweep(model: GaussianModel, rng, count: int) -> tuple:
    """Worst cocycle and density-ratio residuals over count random
    (v, v', u) triples drawn from rng."""
    if count < 1:
        raise MeasureError(f"need at least one sample point, got {count}")
    worst_c = worst_r = 0.0
    for _ in range(count):
        v, vp, u = (gauss_vector(rng, model.d) for _ in range(3))
        worst_c = max(worst_c, cocycle_check(model, v, vp, u))
        worst_r = max(worst_r, density_ratio_check(model, v, u))
    return worst_c, worst_r


def eta(model: GaussianModel, v, u) -> float:
    """Richardson-extrapolated limit of (a(alpha v, u) - 1)/alpha as
    alpha -> 0 over six halvings from alpha = 1e-2; converges to
    -<Cv,u>/2."""
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
    """(error, estimate, exact) of eta against its limit -<Cv,u>/2."""
    exact = -0.5 * float((model.C @ v) @ u)
    estimate = eta(model, v, u)
    return abs(estimate - exact), estimate, exact


@dataclass(frozen=True)
class MCEstimate:
    estimate: complex
    stderr: float
    samples: int
    seed: int


def bochner_mc(model: GaussianModel, v, samples: int = 100000, seed: int = 42) -> MCEstimate:
    """Monte-Carlo estimate of the Fourier transform of the measure at v;
    deterministic for a fixed seed."""
    if samples < 2:
        raise MeasureError("need at least two samples")
    if samples * model.d > MAX_MC_DRAWS:
        raise MeasureError(f"{samples} samples in d={model.d} need {samples * model.d} normal "
                           f"draws, over the budget of {MAX_MC_DRAWS}; lower the samples")
    rng = np.random.default_rng(seed)
    u = model.sample(samples, rng)
    phases = np.exp(1j * (u @ np.asarray(v, dtype=float)))
    est = complex(phases.mean())
    var = phases.real.var(ddof=1) + phases.imag.var(ddof=1)
    return MCEstimate(est, float(math.sqrt(var / samples)), samples, seed)


def positive_definiteness_check(Z, vectors, coefficients=None):
    """Gram matrix Z(v_i - v_j); returns its minimum eigenvalue, or the
    quadratic form value when coefficients are supplied."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    m = len(vs)
    if m == 0:
        raise MeasureError("need at least one vector")
    mat = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            mat[i, j] = Z(vs[i] - vs[j])
    if coefficients is not None:
        c = np.asarray(coefficients, dtype=complex)
        if c.shape != (m,):
            raise MeasureError("one coefficient per vector")
        return float((np.conj(c) @ mat @ c).real)
    return float(np.min(np.linalg.eigvalsh(mat)))


# ---------------------------------------------------------------------------
# Test functions: polynomial times Gaussian, exact operations

def _poly_clean(poly: dict) -> dict:
    return {k: v for k, v in poly.items() if v != 0}


class TestFunction:
    """p(u) * exp(-u.A.u/2 + b.u + c) with a complex polynomial p.

    Closed under translation, linear-phase multiplication, multiplication
    by affine functions, and directional derivatives; evaluation is exact
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
        if self.quad.shape != (self.d, self.d) or not np.allclose(
            self.quad, self.quad.T, atol=1e-12
        ):
            raise MeasureError("quadratic part must be real symmetric")
        self.lin = (
            np.zeros(d, dtype=complex) if lin is None else np.asarray(lin, dtype=complex)
        )
        self.const = complex(const)

    def _derived(self, poly: dict, lin=None, const=None) -> "TestFunction":
        """A function with this one's d and quadratic part, and its linear
        and constant exponents unless given, built without the checks of
        the constructor: the operations form poly's multi-indices from this
        function's, and the quadratic part is this function's array."""
        f = object.__new__(TestFunction)
        f.d, f.quad = self.d, self.quad
        f.poly = _poly_clean({k: complex(v) for k, v in poly.items()})
        f.lin = self.lin if lin is None else np.asarray(lin, dtype=complex)
        f.const = self.const if const is None else complex(const)
        return f

    @classmethod
    def constant(cls, d: int, value=1.0) -> "TestFunction":
        return cls(d, {(0,) * d: value})

    def is_zero(self) -> bool:
        return not self.poly

    def evaluate(self, u) -> complex:
        u = np.asarray(u, dtype=float)
        p = 0.0 + 0.0j
        for k, coeff in sorted(self.poly.items()):
            term = coeff
            for i, n in enumerate(k):
                if n:
                    term *= u[i] ** n
            p += term
        expo = -0.5 * float(u @ self.quad @ u) + complex(self.lin @ u) + self.const
        return p * cmath.exp(expo)

    def _same_gaussian(self, other: "TestFunction") -> bool:
        return (
            self.d == other.d
            and np.array_equal(self.quad, other.quad)
            and np.array_equal(self.lin, other.lin)
            and self.const == other.const
        )

    def __add__(self, other: "TestFunction") -> "TestFunction":
        # only same-exponent combinations arise in the operator formulas
        if not self._same_gaussian(other):
            raise MeasureError("cannot add test functions with different exponents")
        poly = dict(self.poly)
        for k, v in other.poly.items():
            poly[k] = poly.get(k, 0) + v
        return self._derived(poly)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        return self + other.scale(-1.0)

    def scale(self, z) -> "TestFunction":
        return self._derived({k: z * v for k, v in self.poly.items()})

    def translate(self, t) -> "TestFunction":
        """u -> u + t."""
        t = np.asarray(t, dtype=float)
        count = sum(math.prod(n + 1 for n in k) for k in self.poly)
        if count > MAX_TRANSLATE_MONOMIALS:
            raise MeasureError(f"translating this test function expands {count} monomials, "
                               f"over the budget of {MAX_TRANSLATE_MONOMIALS}; lower d or the degree")
        poly = {}
        for k, coeff in self.poly.items():
            axes = []
            for i, n in enumerate(k):
                axes.append(
                    [(j, math.comb(n, j) * t[i] ** (n - j)) for j in range(n + 1)]
                )
            for combo in cartesian(*axes):
                key = tuple(j for j, _ in combo)
                val = coeff
                for _, f in combo:
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

    def mul_affine(self, w, const=0.0) -> "TestFunction":
        """Multiply by <w,u> + const."""
        w = np.asarray(w, dtype=complex)
        poly = {}
        for k, coeff in self.poly.items():
            if const != 0:
                poly[k] = poly.get(k, 0) + coeff * const
            for i in range(self.d):
                if w[i] != 0:
                    key = k[:i] + (k[i] + 1,) + k[i + 1 :]
                    poly[key] = poly.get(key, 0) + coeff * w[i]
        return self._derived(poly)

    def dderiv(self, v) -> "TestFunction":
        """Exact directional derivative along v."""
        v = np.asarray(v, dtype=float)
        poly = {}
        for k, coeff in self.poly.items():
            for i in range(self.d):
                if k[i] and v[i] != 0:
                    key = k[:i] + (k[i] - 1,) + k[i + 1 :]
                    poly[key] = poly.get(key, 0) + coeff * k[i] * v[i]
        dpoly = self._derived(poly)
        dexp = self.mul_affine(-(self.quad @ v), complex(self.lin @ v))
        return dpoly + dexp


def random_test_function(rng, d: int) -> TestFunction:
    """Small random profile for property loops (plain random.Random)."""
    poly = {}
    for _ in range(rng.randint(1, 2)):
        key = tuple(rng.randint(0, 2) for _ in range(d))
        poly[key] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    if not poly:
        poly = {(0,) * d: 1.0}
    quad = np.diag([rng.uniform(0.0, 0.5) for _ in range(d)])
    lin = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)])
    return TestFunction(d, poly, quad, lin, 0.0)


# ---------------------------------------------------------------------------
# Representation operators on test functions

def t_op(model: GaussianModel, v, f: TestFunction) -> TestFunction:
    """(T(v)f)(u) = exp(i<v,u>) f(u)."""
    return f.phase(v)


def p_op(model: GaussianModel, v, f: TestFunction) -> TestFunction:
    """(P(v)f)(u) = a(v,u) f(u + u_v)."""
    v = np.asarray(v, dtype=float)
    cv = model.C @ v
    shifted = f.translate(model.embed(v))
    return shifted.with_exponent(-0.5 * cv, -0.25 * model.M(cv))


def weyl_relation_check(model: GaussianModel, v, vp, f: TestFunction, u) -> complex:
    """(P(v)T(v')f)(u) - exp(i<v|v'>) (T(v')P(v)f)(u)."""
    lhs = p_op(model, v, t_op(model, vp, f)).evaluate(u)
    rhs = cmath.exp(1j * model.inner(v, vp)) * t_op(model, vp, p_op(model, v, f)).evaluate(u)
    return lhs - rhs


def weyl_sweep(model: GaussianModel, rng, count: int) -> float:
    """Worst Weyl-relation residual over count random (v, v', u) triples
    and test functions drawn from rng."""
    if count < 1:
        raise MeasureError(f"need at least one sample point, got {count}")
    worst = 0.0
    for _ in range(count):
        v, vp, u = (gauss_vector(rng, model.d) for _ in range(3))
        f = random_test_function(rng, model.d)
        worst = max(worst, abs(weyl_relation_check(model, v, vp, f, u)))
    return worst


def apply_phi(model: GaussianModel, v, f: TestFunction) -> TestFunction:
    """phi(v)f = <v,u> f."""
    return f.mul_affine(np.asarray(v, dtype=float))


def apply_pi(model: GaussianModel, v, f: TestFunction) -> TestFunction:
    """pi(v)f = -i (d_v f - <Cv,u> f / 2), the derivative taken along u_v."""
    uv = model.embed(v)
    cv = model.C @ np.asarray(v, dtype=float)
    return (f.dderiv(uv) + f.mul_affine(cv).scale(-0.5)).scale(-1j)


def lowering(model: GaussianModel, v, f: TestFunction) -> TestFunction:
    """a-(v) = (phi(v) + i pi(v)) / sqrt2."""
    return (apply_phi(model, v, f) + apply_pi(model, v, f).scale(1j)).scale(1.0 / ROOT2)


def vacuum_lowering_check(model: GaussianModel, v, points) -> float:
    """max |(a-(v) 1)(u)| over the points; vanishes when C = 2I (up to the
    roundoff in forming C from K)."""
    f = lowering(model, v, TestFunction.constant(model.d))
    return max(abs(f.evaluate(u)) for u in points)


def functional_operator_check(model: GaussianModel, v, vp, f: TestFunction, u) -> complex:
    """([pi(v), phi(v')] f)(u) + i <v|v'> f(u); zero for the exact formulas."""
    comm = apply_pi(model, v, apply_phi(model, vp, f)) - apply_phi(
        model, vp, apply_pi(model, v, f)
    )
    return comm.evaluate(u) + 1j * model.inner(vp, v) * f.evaluate(u)


# ---------------------------------------------------------------------------
# Weyl CCR group with exact phases

def _fractions(vec) -> tuple:
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
    def make(cls, v1, v2, theta=0) -> "WeylElement":
        v1 = _fractions(v1)
        v2 = _fractions(v2)
        if len(v1) != len(v2):
            raise MeasureError("v1 and v2 must have the same dimension")
        return cls(v1, v2, Fraction(theta))

    @property
    def lam(self) -> complex:
        return cmath.exp(1j * float(self.theta))

    @property
    def d(self) -> int:
        return len(self.v1)


def weyl_identity(d: int) -> WeylElement:
    return WeylElement.make((0,) * d, (0,) * d)


def weyl_compose(g: WeylElement, h: WeylElement, gram=None) -> WeylElement:
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


# ---------------------------------------------------------------------------
# Hermite cross-check against the matrix picture

def hermite_matrix_check(nmax: int = 10) -> dict:
    """Matrix elements of phi and pi in the orthonormal Hermite basis of
    the d=1 Fock-point measure, computed by Gauss-Hermite quadrature, versus
    the ladder-matrix construction.  Returns the max absolute deviations."""
    from .fock import ModeSpace, phi_pi_matrices

    x, w = np.polynomial.hermite.hermgauss(64)
    w = w / math.sqrt(math.pi)
    # orthonormal for weight exp(-x^2)/sqrt(pi): h_{n+1} = (sqrt2 x h_n - sqrt(n) h_{n-1})/sqrt(n+1)
    h = np.zeros((nmax + 1, len(x)))
    h[0] = 1.0
    if nmax >= 1:
        h[1] = ROOT2 * x
    for n in range(1, nmax):
        h[n + 1] = (ROOT2 * x * h[n] - math.sqrt(n) * h[n - 1]) / math.sqrt(n + 1)
    # h_n' = sqrt(2n) h_{n-1}
    dh = np.zeros_like(h)
    for n in range(1, nmax + 1):
        dh[n] = math.sqrt(2 * n) * h[n - 1]
    phi_quad = np.einsum("k,mk,k,nk->mn", w, h, x, h)
    pi_quad = -1j * (np.einsum("k,mk,nk->mn", w, h, dh) - phi_quad)
    m = ModeSpace(1, nmax)
    phis, pis = phi_pi_matrices(m)
    return {
        "phi": float(np.max(np.abs(phi_quad - phis[0].toarray()))),
        "pi": float(np.max(np.abs(pi_quad - pis[0].toarray()))),
    }
