"""Exactness and field-law tests for the coefficient layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ccr_hopf.scalars import (
    IMAG,
    KAPPA,
    ONE,
    R2,
    S_PARAM,
    ZERO,
    Scalar,
    ScalarError,
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
