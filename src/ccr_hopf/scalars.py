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

A Gaussian rational is a triple ``(a, b, d)`` of ``int``s meaning
``(a + b*i)/d``, kept canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so
zero is ``(0, 0, 1)`` and equal values are equal tuples.  The helpers below
do plain integer arithmetic and reduce each result by one three-argument
``gcd``, skipped when its denominator is 1.  Nearly every coefficient the
algebra meets is a Gaussian integer, and those never pay a gcd (Knuth,
TAOCP vol. 2, 4.5.1; FLINT's ``fmpq_poly`` keeps one common denominator the
same way).  Exact text enters and leaves as integers too: :func:`read_rational`
reads integer and ``p/q`` text with ``int`` and one ``gcd``, and
:func:`_c_texts` prints each part of a triple with one ``gcd``.
``Fraction`` appears only where other values enter (:func:`_coeff`:
:meth:`Scalar.rational`, :meth:`Scalar.substitute`, and decimal, float,
signed or spaced text in :func:`read_rational`).

A constant (denominator 1, no monomial but the unit) also carries its
triple in the slot ``_c``, which is None for every other scalar and is
set wherever a scalar is made.  ``*``, ``+``, unary ``-`` and ``==`` on
two constants are then one ``_c_mul``, ``_c_add``, ``_c_neg`` or tuple
compare: no monomial product and no polynomial dict but the result's.
Most coefficients of the Hopf sweeps are constants.  The unit-factor
returns come first, so ``x * ONE`` is ``x`` itself, which callers test
with ``is ONE``.  :meth:`Scalar.is_constant` and
:meth:`Scalar.constant_texts` read the same slot.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Tuple

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

Coeff = Tuple[int, int, int]  # (a, b, d): (a + b*i)/d, d > 0, gcd(a, b, d) == 1
Mono = Tuple[Tuple[str, int], ...]  # sorted by parameter name, exponents != 0

_C_ZERO: Coeff = (0, 0, 1)
_C_ONE: Coeff = (1, 0, 1)
_UNIT: Mono = ()

ROOT2_NAME = "r2"


class CcrHopfError(ValueError):
    """Common base of the package's error classes: bad input or a
    configuration the requested computation cannot take."""


class ScalarError(CcrHopfError):
    pass


# ---------------------------------------------------------------------------
# Gaussian-rational helpers


def _coeff(re, im=0) -> Coeff:
    """re + im*i as a canonical triple; re and im are anything
    ``Fraction()`` takes (an int or bool, a Fraction, decimal text, a float
    by its exact binary value)."""
    if type(re) is int and type(im) is int:
        return re, im, 1
    re, im = Fraction(re), Fraction(im)
    d = math.lcm(re.denominator, im.denominator)
    # each part's denominator divides d, so no prime divides all three
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def read_rational(x) -> Coeff:
    """The canonical real triple of x: an int, integer or ``p/q`` text (an
    optional "-" and decimal digits), or else anything ``Fraction()`` takes,
    read through it.  A ``p/q`` text with q = 0 raises ZeroDivisionError,
    checked before p is read; text with more digits than the interpreter
    converts raises ValueError, as ``Fraction`` does."""
    if type(x) is int:
        return x, 0, 1
    if type(x) is str:
        p, slash, q = x.partition("/")
        digits = p[1:] if p.startswith("-") else p
        if digits.isdecimal() and (not slash or q.isdecimal()):
            if not slash:
                return int(p), 0, 1
            d = int(q)
            if not d:
                raise ZeroDivisionError(f"zero denominator in {x!r}")
            n = int(p)
            h = gcd(n, d)
            return n // h, 0, d // h
    return _coeff(x)


def read_gaussian(re, im) -> Coeff:
    """The canonical triple of re + im*i, each part read by read_rational."""
    a, _, d = read_rational(re)
    b, _, g = read_rational(im)
    if d == g:
        return a, b, d
    # each part is in lowest terms, so no prime divides all three
    m = d * g // gcd(d, g)
    return a * (m // d), b * (m // g), m


def _ratio_text(n: int, d: int) -> str:
    h = gcd(n, d)
    return str(n // h) if h == d else f"{n // h}/{d // h}"


def _c_texts(c: Coeff) -> tuple:
    """(re, im) of a triple as text, each part as ``str`` prints
    ``Fraction(part, d)``, reduced by one gcd.  A part with an integer of
    more decimal digits than the interpreter converts to text
    (sys.get_int_max_str_digits) is refused."""
    a, b, d = c
    try:
        if d == 1:
            return str(a), str(b)
        return _ratio_text(a, d), _ratio_text(b, d)
    except ValueError:
        raise ScalarError(
            f"a coefficient has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, over the interpreter's limit for printing one"
        ) from None


def coeff_text(re: str, im: str) -> str:
    """Text of the Gaussian rational re + im*i from the texts of its parts."""
    if im == "0":
        return re
    if re == "0":
        if im == "1":
            return "i"
        if im == "-1":
            return "-i"
        return f"{im}*i"
    sign, mag = (" - ", im[1:]) if im[0] == "-" else (" + ", im)
    return f"({re}{sign}{'i' if mag == '1' else mag + '*i'})"


def _c_add(x: Coeff, y: Coeff) -> Coeff:
    a, b, d = x
    e, f, g = y
    if d == g:
        a += e
        b += f
    else:
        a = a * g + e * d
        b = b * g + f * d
        d *= g
    if d != 1:
        h = gcd(a, b, d)
        if h != 1:
            return a // h, b // h, d // h
    return a, b, d


def _c_neg(x: Coeff) -> Coeff:
    return -x[0], -x[1], x[2]


def _c_mul(x: Coeff, y: Coeff) -> Coeff:
    a, b, d = x
    e, f, g = y
    re = a * e - b * f
    im = a * f + b * e
    d *= g
    if d != 1:
        h = gcd(re, im, d)
        if h != 1:
            return re // h, im // h, d // h
    return re, im, d


def _c_conj(x: Coeff) -> Coeff:
    return x[0], -x[1], x[2]


def _c_inv(x: Coeff) -> Coeff:
    # d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)
    a, b, d = x
    n = a * a + b * b
    if not n:
        raise ZeroDivisionError("inverse of zero coefficient")
    a, b = d * a, -d * b
    h = gcd(a, b, n)
    return a // h, b // h, n // h


# ---------------------------------------------------------------------------
# Laurent monomials.  r2 carries the relation r2**2 = 2, so exponent folding
# can emit a rational side factor, a real triple that is _C_ONE itself when
# nothing folds.


def _exps_normalize(exps: dict) -> tuple[Mono, Coeff]:
    factor = _C_ONE
    e = exps.get(ROOT2_NAME)
    if e is not None:
        exps[ROOT2_NAME] = e % 2
        k = e // 2
        if k:
            factor = (2 ** k, 0, 1) if k > 0 else (1, 0, 2 ** -k)
    return tuple(sorted((n, x) for n, x in exps.items() if x)), factor


def _mono_mul(m1: Mono, m2: Mono) -> tuple[Mono, Coeff]:
    if not m1:
        return m2, _C_ONE
    if not m2:
        return m1, _C_ONE
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return _exps_normalize(exps)


def _mono_inv(m: Mono) -> tuple[Mono, Coeff]:
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
            if f is not _C_ONE:
                c = _c_mul(c, f)
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


def quotient_str(num: str, den: str | None) -> str:
    """``str`` of a scalar from its :meth:`Scalar.text_parts`."""
    return num if den is None else f"({num})/({den})"


def _constant_of(num: Poly, den: Poly) -> Coeff | None:
    """The triple of num/den when it is a constant (denominator 1, no
    monomial but the unit), else None."""
    if den != _P_ONE:
        return None
    if not num:
        return _C_ZERO
    return num.get(_UNIT) if len(num) == 1 else None


def _raw(num: Poly, den: Poly) -> "Scalar":
    """num/den as they stand; the parts must already be normal."""
    s = Scalar.__new__(Scalar)
    s._num, s._den, s._c = num, den, _constant_of(num, den)
    return s


def _constant(c: Coeff) -> "Scalar":
    """The constant scalar of a canonical triple."""
    s = Scalar.__new__(Scalar)
    s._num, s._den, s._c = ({_UNIT: c} if c[0] or c[1] else {}), _P_ONE, c
    return s


class Scalar:
    """An element of the exact coefficient field.  ``_c`` is the triple of
    a constant and None for any other scalar."""

    __slots__ = ("_num", "_den", "_c")

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
                shift = {inv_m: f}
                num, den = _p_mul(num, shift), _p_mul(den, shift)
            lc = den[max(den)]
            if lc != _C_ONE:
                ci = _c_inv(lc)
                num, den = _p_scale(num, ci), _p_scale(den, ci)
        self._num, self._den, self._c = num, den, _constant_of(num, den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def rational(cls, re, im=0) -> "Scalar":
        c = _coeff(re, im)
        if not (c[0] or c[1]):
            return cls({})
        return cls({_UNIT: c})

    @classmethod
    def param(cls, name: str) -> "Scalar":
        if not name.isidentifier():
            raise ScalarError(f"bad parameter name {name!r}")
        return cls({((name, 1),): _C_ONE})

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

    def is_constant(self) -> bool:
        return self._c is not None

    def denominator(self) -> "Scalar":
        """The denominator as a scalar: 1 unless a multi-term divisor
        survived normalisation."""
        return ONE if self._den == _P_ONE else _raw(self._den, _P_ONE)

    def _constant_triple(self) -> Coeff:
        if self._c is None:
            raise ScalarError("scalar is not constant")
        return self._c

    # -- ring / field operations ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self._c, other._c
        if a is not None and b is not None:
            return _constant(_c_add(a, b))
        if self._den == other._den:
            num = dict(self._num)
            _p_add_into(num, other._num)
            if self._den == _P_ONE:
                return _raw(num, _P_ONE)
            return Scalar(num, dict(self._den))
        num = _p_mul(self._num, other._den)
        _p_add_into(num, _p_mul(other._num, self._den))
        return Scalar(num, _p_mul(self._den, other._den))

    def __neg__(self):
        if self._c is not None:
            return _constant(_c_neg(self._c))
        return _raw(_p_neg(self._num), self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        # scalars are never mutated in place, so a unit factor can hand
        # back the other operand itself
        a, b = self._c, other._c
        if b == _C_ONE:
            return self
        if a == _C_ONE:
            return other
        if a is not None and b is not None:
            return _constant(_c_mul(a, b))
        if self._den == _P_ONE and other._den == _P_ONE:
            return _raw(_p_mul(self._num, other._num), _P_ONE)
        return Scalar(_p_mul(self._num, other._num), _p_mul(self._den, other._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(_p_mul(self._num, other._den), _p_mul(self._den, other._num))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(dict(self._den), dict(self._num))

    def __pow__(self, n: int):
        # |n| multiplications by the base (its inverse for n < 0), as
        # Expr powers are built: squaring a multi-term base multiplies ever
        # longer sums, and (1+s+kappa)**-100 took 21.6 s that way, not 1.2 s
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        out = ONE
        for _ in range(abs(n)):
            out = out * base
        return out

    def conjugate(self) -> "Scalar":
        if self._c is not None:
            return _constant(_c_conj(self._c))
        return _raw(_p_conj(self._num), _p_conj(self._den))

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self._c, other._c
        if a is not None and b is not None:
            return a == b
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
                _p_add_into(out, {mono: _c_mul(_c_mul(c, _coeff(factor)), f2)})
            return out

        return Scalar(sub(self._num), sub(self._den))

    def to_complex(self, assignment: Mapping[str, float] | None = None) -> complex:
        """Numeric evaluation; every parameter except r2 must be assigned.
        A value outside the float range is refused."""
        assignment = assignment or {}

        def ev(p: Poly) -> complex:
            total = 0j
            for m, c in p.items():
                # int true division is correctly rounded, as float(Fraction) is
                v = complex(c[0] / c[2]) + 1j * complex(c[1] / c[2])
                for name, e in m:
                    if name == ROOT2_NAME:
                        v *= math.sqrt(2.0) ** e
                    elif name in assignment:
                        v *= float(assignment[name]) ** e
                    else:
                        raise ScalarError(f"unassigned parameter {name!r}")
                total += v
            return total

        try:
            den = ev(self._den)
            if den == 0:
                raise ZeroDivisionError("denominator evaluates to zero")
            z = ev(self._num) / den
            if cmath.isfinite(z):
                return z
        except OverflowError:
            pass
        raise ScalarError("a coefficient leaves the float range when evaluated")

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _poly_str(p: Poly) -> str:
        pieces = []
        for m in sorted(p):
            ctext = coeff_text(*_c_texts(p[m]))
            if not m:
                pieces.append(ctext)
                continue
            mtext = "*".join([name if e == 1 else f"{name}^{e}" for name, e in m])
            if ctext == "1":
                pieces.append(mtext)
            elif ctext == "-1":
                pieces.append(f"-{mtext}")
            else:
                pieces.append(f"{ctext}*{mtext}")
        return signed_join(pieces)

    def text_parts(self, memo: dict | None = None) -> tuple:
        """(numerator text, denominator text), the second None when the
        denominator is 1: every printed form of a scalar is built from
        these.  Calls that share a memo dict render each distinct
        polynomial once, such as a denominator that many terms share."""
        den = None if self._den == _P_ONE else _poly_text(self._den, memo)
        return _poly_text(self._num, memo), den

    def constant_texts(self) -> tuple:
        """(re, im) of a constant as text."""
        return _c_texts(self._constant_triple())

    def __str__(self) -> str:
        return quotient_str(*self.text_parts())

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _poly_text(p: Poly, memo: dict | None) -> str:
    if memo is None:
        return Scalar._poly_str(p)
    key = frozenset(p.items())
    text = memo.get(key)
    if text is None:
        text = memo[key] = Scalar._poly_str(p)
    return text


ZERO = Scalar.rational(0)
ONE = Scalar.rational(1)
IMAG = Scalar.rational(0, 1)
KAPPA = Scalar.param("kappa")
S_PARAM = Scalar.param("s")
R2 = Scalar.param(ROOT2_NAME)
