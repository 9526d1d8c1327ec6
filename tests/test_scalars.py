"""Exactness and field-law tests for the coefficient layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccr_hopf import scalars
from ccr_hopf.reports import scalar_json
from ccr_hopf.scalars import (
    _C_ONE,
    _C_ZERO,
    _P_ONE,
    _UNIT,
    IMAG,
    KAPPA,
    ONE,
    R2,
    S_PARAM,
    ZERO,
    Scalar,
    ScalarError,
    _c_add,
    _c_inv,
    _c_mul,
    _c_scale,
    _mono_content,
    _mono_inv,
    _mono_mul,
)


def test_constants_identities():
    assert ZERO.is_zero()
    assert ONE.is_one()
    assert (IMAG * IMAG) == Scalar.rational(-1)
    assert (ONE + ZERO) == ONE
    assert (KAPPA * ONE) == KAPPA
    assert not KAPPA.is_zero()


def test_root_two_folding():
    # r2**2 = 2 exactly, including through negative powers
    assert R2 * R2 == Scalar.rational(2)
    assert R2 ** 4 == Scalar.rational(4)
    assert R2 ** -2 == Scalar.rational(Fraction(1, 2))
    # 1/r2 folds to r2/2 since single-term divisors are units
    half_r2 = Scalar.rational(Fraction(1, 2)) * R2
    assert ONE / R2 == half_r2
    assert (ONE / R2) * R2 == ONE
    assert R2 ** 3 == Scalar.rational(2) * R2


def test_single_term_denominator_folds():
    x = Scalar.param("x")
    y = Scalar.param("y")
    q = (x * y + y) / y
    assert q == x + ONE
    assert q.denominator_terms() is None
    # dividing by a pure monomial lands back in the Laurent ring
    r = (x ** 2 + y) / x
    assert r == x + y * x ** -1
    assert r.denominator_terms() is None


def test_multi_term_denominator_survives_and_cancels():
    x = Scalar.param("x")
    d = x + ONE
    q = (x * x - ONE) / d
    # equality is decided by cross multiplication, so the uncancelled
    # representation still compares equal to x - 1
    assert q == x - ONE
    assert q * d == x * x - ONE
    assert (q - (x - ONE)).is_zero() or q == x - ONE


def test_unit_factor_keeps_the_other_operand():
    x = Scalar.param("x")
    q = (x * x - ONE) / (x + ONE)  # keeps a two-term denominator
    assert q.denominator_terms() is not None
    assert ONE * q == q == q * 1
    assert str(ONE * q) == str(q) == str(q * 1)
    assert KAPPA * ONE == ONE * KAPPA == KAPPA


def test_zero_divisor_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugation():
    z = Scalar.rational(Fraction(1, 3), Fraction(-2, 5))
    assert z.conjugate().conjugate() == z
    assert (z * z.conjugate()).constant_value()[1] == 0
    # parameters are real: conjugation fixes kappa, s, r2
    w = KAPPA * IMAG + S_PARAM
    assert w.conjugate() == S_PARAM - KAPPA * IMAG
    assert R2.conjugate() == R2


def test_substitute_exact():
    expr = KAPPA ** 2 * S_PARAM - Scalar.rational(Fraction(1, 2))
    got = expr.substitute({"kappa": Fraction(3, 2), "s": 2})
    assert got == Scalar.rational(Fraction(9, 4) * 2 - Fraction(1, 2))
    assert got.is_constant()
    # partial substitution keeps the rest symbolic
    part = expr.substitute({"s": 1})
    assert part == KAPPA ** 2 - Scalar.rational(Fraction(1, 2))
    with pytest.raises(ScalarError):
        expr.substitute({"r2": 1})


def test_to_complex():
    z = (ONE + IMAG) * R2
    v = z.to_complex()
    assert abs(v - (1 + 1j) * 2 ** 0.5) < 1e-15
    w = KAPPA * Scalar.rational(2)
    assert abs(w.to_complex({"kappa": 0.75}) - 1.5) < 1e-15
    with pytest.raises(ScalarError):
        w.to_complex({})


def test_from_complex_roundtrip():
    z = Scalar.from_complex(0.359375 - 2.5j)
    assert z.to_complex() == 0.359375 - 2.5j


def _random_scalar(rng: random.Random, depth: int = 0) -> Scalar:
    pool = [
        ONE,
        IMAG,
        KAPPA,
        S_PARAM,
        R2,
        Scalar.param("x"),
        Scalar.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 5))),
    ]
    a = rng.choice(pool)
    b = rng.choice(pool)
    op = rng.randrange(4 if depth < 2 else 3)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    return _random_scalar(rng, depth + 1) + _random_scalar(rng, depth + 1)


def test_field_laws_randomized():
    rng = random.Random(20240811)
    for _ in range(200):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a / b) * b == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_pow_and_inverse():
    k = KAPPA + ONE
    assert k ** 0 == ONE
    assert k ** 3 == k * k * k
    assert (k ** -2) * k ** 2 == ONE
    assert k.inverse() * k == ONE


def test_int_and_fraction_mixing():
    assert 2 * KAPPA == KAPPA + KAPPA
    assert KAPPA - Fraction(1, 2) == KAPPA + Fraction(-1, 2)
    assert Fraction(1, 2) / (ONE + ONE) == Scalar.rational(Fraction(1, 4))


def test_str_deterministic():
    e = IMAG * KAPPA - Scalar.rational(Fraction(1, 2)) + R2 * S_PARAM
    assert str(e) == str(e)
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-ONE) == "-1"
    assert str(IMAG) == "i"
    assert "kappa" in str(KAPPA)


def _reference_init(self, num, den=None):
    """The three-branch constructor that preceded the one normalisation
    rule, kept as the oracle for it: a unit denominator is stored as
    given, a one-term denominator is folded into the numerator by its own
    loop, and a multi-term one is shifted by the common monomial content
    and scaled to a monic largest monomial."""
    if den is None:
        den = _P_ONE
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    if not num:
        self._num, self._den = {}, dict(_P_ONE)
        return
    if len(den) == 1:
        ((dm, dc),) = den.items()
        if dm == _UNIT and dc == _C_ONE:
            self._num, self._den = num, den
            return
        inv_m, f = _mono_inv(dm)
        ci = _c_scale(_c_inv(dc), f)
        out = {}
        for m, c in num.items():
            mm, f2 = _mono_mul(m, inv_m)
            v = _c_mul(c, ci)
            if f2 != 1:
                v = _c_scale(v, f2)
            acc = _c_add(out.get(mm, _C_ZERO), v)
            if acc[0] or acc[1]:
                out[mm] = acc
            else:
                out.pop(mm, None)
        self._num, self._den = out, dict(_P_ONE)
        return
    content = _mono_content(list(num) + list(den))
    if content:
        inv_m, f = _mono_inv(content)

        def shift(p):
            out = {}
            for m, c in p.items():
                mm, f2 = _mono_mul(m, inv_m)
                out[mm] = _c_scale(c, f * f2) if (f != 1 or f2 != 1) else c
            return out

        num, den = shift(num), shift(den)
    lc = den[max(den)]
    if lc != _C_ONE:
        ci = _c_inv(lc)
        num = {m: v for m, v in ((m, _c_mul(c, ci)) for m, c in num.items()) if v[0] or v[1]}
        den = {m: v for m, v in ((m, _c_mul(c, ci)) for m, c in den.items()) if v[0] or v[1]}
    self._num, self._den = num, den


def _quotient_chain(seed: int) -> list:
    """Every intermediate of a seeded chain of + - * / over parameters,
    r2, i and Gaussian rationals; divisors are often two- or three-term
    sums, so multi-term denominators with Gaussian lead coefficients
    arise as well as one-term ones."""
    rng = random.Random(seed)
    fixed = [IMAG, R2, KAPPA, S_PARAM, S_PARAM ** -1, Scalar.param("x"), R2 * IMAG * KAPPA]

    def atom():
        if rng.random() < 0.25:
            return Scalar.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                                   Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        return rng.choice(fixed)

    def operand():
        b = atom()
        for _ in range(rng.choice((0, 0, 1))):
            b = b + atom() * atom()
        return b

    acc, out = operand(), []
    for _ in range(rng.randint(1, 3)):
        b = operand()
        op = rng.randrange(4)
        if op == 0:
            acc = acc + b
        elif op == 1:
            acc = acc - b
        elif op == 2:
            acc = acc * b
        elif not b.is_zero():
            acc = acc / b
        out.append(acc)
    return out


def test_constructor_matches_three_branch_reference(monkeypatch):
    seen = {"one-term r2 or i": 0, "multi-term": 0, "gaussian lead": 0}
    init = Scalar.__init__

    def tally(self, num, den=None):
        if den is not None and den != _P_ONE and num:
            if len(den) > 1:
                seen["multi-term"] += 1
            elif any(n == "r2" for n, _ in next(iter(den))) or next(iter(den.values()))[1]:
                seen["one-term r2 or i"] += 1
            if den[max(den)][1]:
                seen["gaussian lead"] += 1
        init(self, num, den)

    seeds = range(2000)
    monkeypatch.setattr(Scalar, "__init__", _reference_init)
    want = [[(x._num, x._den, list(x._num), list(x._den), str(x)) for x in _quotient_chain(n)]
            for n in seeds]
    monkeypatch.setattr(Scalar, "__init__", tally)
    got = [[(x._num, x._den, list(x._num), list(x._den), str(x)) for x in _quotient_chain(n)]
           for n in seeds]
    assert got == want
    assert min(seen.values()) >= 200, seen


def _is_part(x) -> bool:
    """The part invariant: an int, or a Fraction that is a true fraction;
    never a bool or a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _parts_ok(x: Scalar) -> bool:
    return all(_is_part(v) for p in (x._num, x._den) for c in p.values() for v in c)


# The Fraction-pair helpers that preceded integer-first parts, kept as the
# oracle for them: every part they return is a Fraction, integral or not,
# whatever kind of part they are given.

def _ref_c_add(a, b):
    return (Fraction(a[0]) + b[0], Fraction(a[1]) + b[1])


def _ref_c_neg(a):
    return (-Fraction(a[0]), -Fraction(a[1]))


def _ref_c_mul(a, b):
    a0, a1, b0, b1 = (Fraction(x) for x in (*a, *b))
    return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)


def _ref_c_scale(a, q):
    return (Fraction(a[0]) * q, Fraction(a[1]) * q)


def _ref_c_conj(a):
    return (Fraction(a[0]), -Fraction(a[1]))


def _ref_c_inv(a):
    re, im = Fraction(a[0]), Fraction(a[1])
    n = re * re + im * im
    if not n:
        raise ZeroDivisionError("inverse of zero coefficient")
    return (re / n, -im / n)


def _ref_exps_normalize(exps):
    factor = Fraction(1)
    e = exps.get("r2")
    if e is not None:
        exps["r2"] = e % 2
        factor = Fraction(2) ** (e // 2)
    return tuple(sorted((n, x) for n, x in exps.items() if x)), factor


def _ref_rational(cls, re, im=0):
    re, im = Fraction(re), Fraction(im)
    if not (re or im):
        return cls({})
    return cls({_UNIT: (re, im)})


def test_integer_first_parts_match_fraction_pair_reference(monkeypatch):
    seeds = range(2000)
    with monkeypatch.context() as m:
        for name in ("c_add", "c_neg", "c_mul", "c_scale", "c_conj", "c_inv", "exps_normalize"):
            m.setattr(scalars, f"_{name}", globals()[f"_ref_{name}"])
        m.setattr(Scalar, "rational", classmethod(_ref_rational))
        want = [[(str(x), scalar_json(x)) for x in _quotient_chain(n)] for n in seeds]
    got, fractions = [], 0
    for n in seeds:
        chain = _quotient_chain(n)
        assert all(_parts_ok(x) for x in chain), n
        fractions += sum(type(v) is Fraction for x in chain for c in x._num.values() for v in c)
        got.append([(str(x), scalar_json(x)) for x in chain])
    assert got == want
    assert fractions >= 1000  # true fractions are kept, not only integers


def test_entry_points_keep_part_invariant():
    made = [
        Scalar.rational(True, False),
        Scalar.rational(Fraction(4, 2), "3/1"),
        Scalar.rational(0.5, "1.25"),
        Scalar.from_complex(2.0 - 0.5j),
        Scalar.param("r2", -3),
        Scalar.param("r2", 4),
        (KAPPA ** 2 * R2 + S_PARAM).substitute({"kappa": Fraction(4, 2), "s": 0.5}),
        (ONE + IMAG).inverse(),
        Scalar.rational(Fraction(2, 3), 1) * Scalar.rational(3, Fraction(-3, 2)),
    ]
    assert all(_parts_ok(x) for x in made)
    assert [type(v) for v in made[0].constant_value()] == [int, int]
    assert str(made[1]) == "(2 + 3*i)" and str(made[4]) == "1/4*r2"


_PARAMS = ("kappa", "s", "r2", "x")
_part_values = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)
_monomials = st.dictionaries(st.sampled_from(_PARAMS), st.integers(-3, 3), max_size=3)


@st.composite
def _scalars(draw):
    out = ZERO
    for _ in range(draw(st.integers(1, 3))):
        term = Scalar.rational(draw(_part_values), draw(_part_values))
        for name, e in draw(_monomials).items():
            term = term * Scalar.param(name, e)
        out = out + term
    return out


@settings(max_examples=150, deadline=None, database=None)
@given(_scalars(), _scalars())
def test_field_laws_and_part_invariant_property(a, b):
    assert (a - a).is_zero()
    results = [a, b, a + b, a - b, a * b, a.conjugate()]
    if not b.is_zero():
        q = (a * b) / b
        assert q == a
        results += [q, a / b, b.inverse()]
    assert all(_parts_ok(x) for x in results)
