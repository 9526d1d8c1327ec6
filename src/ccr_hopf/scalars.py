"""Exact coefficient arithmetic for operator expressions.

Coefficients live in the fraction field of Gaussian-rational Laurent
polynomials in a finite set of commuting real parameters.  Two names are
reserved by the algebra layer:

* ``kappa`` -- the deformation constant attached to commutator contractions,
* ``s``     -- the group-like collapse parameter,

and ``r2`` denotes a formal square root of two: its exponent is kept in
{0, 1} and ``r2**2`` folds to the rational number 2 (so ``1/r2 == r2/2``).

Internally a scalar is ``num / den`` where both parts are dicts mapping
monomials to Gaussian rationals.  A single-term divisor is a unit of the
Laurent ring and is folded straight into the numerator, so denominators
other than 1 only appear when a caller divides by a genuinely multi-term
scalar.  Zero-testing is emptiness of the numerator and equality is decided
by cross multiplication; both are exact.  No floating point enters unless
:meth:`Scalar.to_complex` is called.

A Gaussian rational is a pair ``(re, im)`` whose parts are each an ``int``
when integral and a ``Fraction`` only when the denominator exceeds 1 (never
a ``bool`` or a ``float``).  Nearly every coefficient the algebra meets is
an integer, and ``int`` arithmetic skips the gcd that every ``Fraction``
operation pays.  The invariant holds because parts enter only through
:func:`_part` and every helper below that can turn a ``Fraction`` integral
(a sum, a product, an inverse) passes its result through :func:`_q`.  Both
kinds print, compare and hash alike (``str(3) == str(Fraction(3))``), so
output does not depend on which one a part is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

__all__ = [
    "Scalar",
    "ScalarError",
    "ZERO",
    "ONE",
    "IMAG",
    "KAPPA",
    "S_PARAM",
    "R2",
    "ROOT2_NAME",
]

Part = Union[int, Fraction]  # an int unless a true fraction
Coeff = Tuple[Part, Part]  # re + im*i
Mono = Tuple[Tuple[str, int], ...]  # sorted by parameter name, exponents != 0

_C_ZERO: Coeff = (0, 0)
_C_ONE: Coeff = (1, 0)
_UNIT: Mono = ()

ROOT2_NAME = "r2"


class CcrHopfError(ValueError):
    """Common base of the package's error classes: bad input or a
    configuration the requested computation cannot take."""


class ScalarError(CcrHopfError):
    pass


# ---------------------------------------------------------------------------
# Gaussian-rational helpers


def _q(x: Part) -> Part:
    """x with an integral Fraction demoted to its int."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _part(x) -> Part:
    """x as a part; x is anything ``Fraction()`` takes (an int or bool, a
    Fraction, decimal text, a float by its exact binary value)."""
    return x if type(x) is int else _q(Fraction(x))


def _c_add(a: Coeff, b: Coeff) -> Coeff:
    return _q(a[0] + b[0]), _q(a[1] + b[1])


def _c_neg(a: Coeff) -> Coeff:
    return (-a[0], -a[1])


def _c_mul(a: Coeff, b: Coeff) -> Coeff:
    a0, a1 = a
    b0, b1 = b
    return _q(a0 * b0 - a1 * b1), _q(a0 * b1 + a1 * b0)


def _c_scale(a: Coeff, q: Part) -> Coeff:
    return _q(a[0] * q), _q(a[1] * q)


def _c_conj(a: Coeff) -> Coeff:
    return (a[0], -a[1])


def _c_inv(a: Coeff) -> Coeff:
    n = a[0] * a[0] + a[1] * a[1]
    if not n:
        raise ZeroDivisionError("inverse of zero coefficient")
    # through Fraction: int / int would be a float
    return _q(Fraction(a[0], n)), _q(Fraction(-a[1], n))


# ---------------------------------------------------------------------------
# Laurent monomials.  r2 carries the relation r2**2 = 2, so exponent folding
# can emit a rational side factor.


def _exps_normalize(exps: dict) -> tuple[Mono, Part]:
    factor = 1
    e = exps.get(ROOT2_NAME)
    if e is not None:
        exps[ROOT2_NAME] = e % 2
        k = e // 2
        if k:
            factor = 2 ** k if k > 0 else Fraction(1, 2 ** -k)
    return tuple(sorted((n, x) for n, x in exps.items() if x)), factor


def _mono_mul(m1: Mono, m2: Mono) -> tuple[Mono, Part]:
    if not m1:
        return m2, 1
    if not m2:
        return m1, 1
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return _exps_normalize(exps)


def _mono_inv(m: Mono) -> tuple[Mono, Part]:
    return _exps_normalize({n: -e for n, e in m})


Poly = dict  # Mono -> Coeff


def _p_add_into(target: Poly, src: Poly) -> None:
    for m, c in src.items():
        acc = _c_add(target.get(m, _C_ZERO), c)
        if acc[0] or acc[1]:
            target[m] = acc
        else:
            target.pop(m, None)


def _p_neg(a: Poly) -> Poly:
    return {m: _c_neg(c) for m, c in a.items()}


def _p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, f = _mono_mul(m1, m2)
            c = _c_mul(c1, c2)
            if f != 1:
                c = _c_scale(c, f)
            acc = _c_add(out.get(m, _C_ZERO), c)
            if acc[0] or acc[1]:
                out[m] = acc
            else:
                out.pop(m, None)
    return out


def _p_scale(a: Poly, c: Coeff) -> Poly:
    """a times a nonzero coefficient c."""
    return {m: _c_mul(cc, c) for m, cc in a.items()}


def _p_conj(a: Poly) -> Poly:
    # parameters are real and r2 is real, so conjugation acts on coefficients
    return {m: _c_conj(c) for m, c in a.items()}


_P_ONE: Poly = {_UNIT: _C_ONE}


def _mono_content(terms: Iterable[Mono]) -> Mono:
    """Common monomial factor (per-parameter minimum exponent, capped at 0
    from above for parameters absent in some term)."""
    it = iter(terms)
    try:
        first = next(it)
    except StopIteration:
        return _UNIT
    content = dict(first)
    for m in it:
        d = dict(m)
        for name in list(content):
            content[name] = min(content[name], d.get(name, 0))
        for name, e in d.items():
            if name not in content:
                content[name] = min(e, 0)
        if not content:
            break
    return tuple(sorted((n, e) for n, e in content.items() if e))


def signed_join(parts) -> str:
    """Join signed term texts into a sum: a part "-t" joins as " - t" and
    any other part t as " + t"; no parts give "0"."""
    if not parts:
        return "0"
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


class Scalar:
    """An element of the exact coefficient field."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = _P_ONE
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            num, den = {}, dict(_P_ONE)
        elif den != _P_ONE:
            # one rule for every other denominator: divide both parts by a
            # unit of the Laurent ring (the denominator itself when it is a
            # single term, else the common monomial content), then scale so
            # the denominator's largest monomial has coefficient one.  A
            # single-term denominator comes out as 1.
            unit = next(iter(den)) if len(den) == 1 else _mono_content(list(num) + list(den))
            if unit:
                inv_m, f = _mono_inv(unit)
                shift = {inv_m: (f, 0)}
                num, den = _p_mul(num, shift), _p_mul(den, shift)
            lc = den[max(den)]
            if lc != _C_ONE:
                ci = _c_inv(lc)
                num, den = _p_scale(num, ci), _p_scale(den, ci)
        self._num, self._den = num, den

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls({})

    @classmethod
    def one(cls) -> "Scalar":
        return cls(dict(_P_ONE))

    @classmethod
    def i(cls) -> "Scalar":
        return cls({_UNIT: (0, 1)})

    @classmethod
    def rational(cls, re, im=0) -> "Scalar":
        re, im = _part(re), _part(im)
        if not (re or im):
            return cls({})
        return cls({_UNIT: (re, im)})

    @classmethod
    def param(cls, name: str, exp: int = 1) -> "Scalar":
        if not name.isidentifier():
            raise ScalarError(f"bad parameter name {name!r}")
        mono, f = _exps_normalize({name: exp})
        return cls({mono: (f, 0)})

    @classmethod
    def from_complex(cls, z: complex) -> "Scalar":
        """Exact embedding of a complex float (binary rationals)."""
        z = complex(z)
        return cls.rational(z.real, z.imag)

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Scalar | None":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.rational(x)
        return None

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == _P_ONE and self._den == _P_ONE

    def is_constant(self) -> bool:
        return (not self._num or set(self._num) == {_UNIT}) and self._den == _P_ONE

    def constant_value(self) -> Coeff:
        if not self.is_constant():
            raise ScalarError("scalar is not constant")
        return self._num.get(_UNIT, _C_ZERO)

    # -- ring / field operations ---------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._den == other._den:
            num = dict(self._num)
            _p_add_into(num, other._num)
            if self._den == _P_ONE:
                s = Scalar.__new__(Scalar)
                s._num, s._den = num, dict(_P_ONE)
                return s
            return Scalar(num, dict(self._den))
        num = _p_mul(self._num, other._den)
        _p_add_into(num, _p_mul(other._num, self._den))
        return Scalar(num, _p_mul(self._den, other._den))

    __radd__ = __add__

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s._num, s._den = _p_neg(self._num), self._den
        return s

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self._den == _P_ONE and other._den == _P_ONE:
            # scalars are never mutated in place, so a unit factor can
            # hand back the other operand itself
            if other._num == _P_ONE:
                return self
            if self._num == _P_ONE:
                return other
            s = Scalar.__new__(Scalar)
            s._num, s._den = _p_mul(self._num, other._num), dict(_P_ONE)
            return s
        return Scalar(_p_mul(self._num, other._num), _p_mul(self._den, other._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(_p_mul(self._num, other._den), _p_mul(self._den, other._num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(dict(self._den), dict(self._num))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Scalar":
        s = Scalar.__new__(Scalar)
        s._num, s._den = _p_conj(self._num), _p_conj(self._den)
        return s

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._den == other._den:
            return self._num == other._num
        return _p_mul(self._num, other._den) == _p_mul(other._num, self._den)

    __hash__ = None  # mutable-dict backed; equality is semantic

    # -- evaluation ----------------------------------------------------------

    def substitute(self, assignment: Mapping[str, int | Fraction]) -> "Scalar":
        """Exact substitution of rational values for parameters.

        Parameters not mentioned stay symbolic; ``r2`` cannot be substituted
        (it is pinned by r2**2 = 2).
        """
        if ROOT2_NAME in assignment:
            raise ScalarError("r2 is fixed by its defining relation")

        def sub(p: Poly) -> Poly:
            out: Poly = {}
            for m, c in p.items():
                factor = 1
                kept = {}
                for name, e in m:
                    if name in assignment:
                        factor *= Fraction(assignment[name]) ** e
                    else:
                        kept[name] = e
                mono, f2 = _exps_normalize(kept)
                _p_add_into(out, {mono: _c_scale(c, factor * f2)})
            return out

        return Scalar(sub(self._num), sub(self._den))

    def to_complex(self, assignment: Mapping[str, float] | None = None) -> complex:
        """Numeric evaluation; every parameter except r2 must be assigned."""
        assignment = assignment or {}

        def ev(p: Poly) -> complex:
            total = 0j
            for m, c in p.items():
                v = complex(c[0]) + 1j * complex(c[1])
                for name, e in m:
                    if name == ROOT2_NAME:
                        v *= math.sqrt(2.0) ** e
                    elif name in assignment:
                        v *= float(assignment[name]) ** e
                    else:
                        raise ScalarError(f"unassigned parameter {name!r}")
                total += v
            return total

        den = ev(self._den)
        if den == 0:
            raise ZeroDivisionError("denominator evaluates to zero")
        return ev(self._num) / den

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _coeff_str(c: Coeff) -> str:
        re, im = c
        if not im:
            return str(re)
        if not re:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        mag = "i" if abs(im) == 1 else f"{abs(im)}*i"
        sign = " + " if im > 0 else " - "
        return f"({re}{sign}{mag})"

    @staticmethod
    def _mono_str(m: Mono) -> str:
        parts = []
        for name, e in m:
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    @classmethod
    def _poly_str(cls, p: Poly) -> str:
        pieces = []
        for m in sorted(p):
            c = p[m]
            ctext = cls._coeff_str(c)
            mtext = cls._mono_str(m)
            if not mtext:
                term = ctext
            elif ctext == "1":
                term = mtext
            elif ctext == "-1":
                term = f"-{mtext}"
            else:
                term = f"{ctext}*{mtext}"
            pieces.append(term)
        return signed_join(pieces)

    def __str__(self) -> str:
        if self._den == _P_ONE:
            return self._poly_str(self._num)
        return f"({self._poly_str(self._num)})/({self._poly_str(self._den)})"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    # -- structured form (used by the report layer) ---------------------------

    def denominator_terms(self) -> list[tuple[Mono, Coeff]] | None:
        if self._den == _P_ONE:
            return None
        return sorted(self._den.items())

    def numerator(self) -> "Scalar":
        return Scalar(dict(self._num))

    def denominator(self) -> "Scalar":
        return Scalar(dict(self._den))


ZERO = Scalar.zero()
ONE = Scalar.one()
IMAG = Scalar.i()
KAPPA = Scalar.param("kappa")
S_PARAM = Scalar.param("s")
R2 = Scalar.param(ROOT2_NAME)
