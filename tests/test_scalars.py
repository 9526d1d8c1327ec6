"""Exactness and field-law tests for the coefficient layer."""

from __future__ import annotations

import math
import random
import sys
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
    _c_texts,
    _coeff,
    _mono_content,
    _mono_inv,
    _mono_mul,
    _p_add_into,
    _p_mul,
    _p_conj,
    _p_neg,
    read_gaussian,
    read_rational,
)


def test_constants_identities():
    assert ZERO.is_zero()
    assert ONE == Scalar.rational(1)
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
    assert q.text_parts()[1] is None
    # dividing by a pure monomial lands back in the Laurent ring
    r = (x ** 2 + y) / x
    assert r == x + y * x ** -1
    assert r.text_parts()[1] is None


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
    assert q.text_parts()[1] is not None
    assert ONE * q == q == q * 1
    assert str(ONE * q) == str(q) == str(q * 1)
    assert KAPPA * ONE == ONE * KAPPA == KAPPA


def test_denominator_is_one_unless_a_multi_term_divisor_survives():
    x = Scalar.param("x")
    assert (x * x + ONE).denominator() is ONE
    assert ((x + ONE) / x).denominator() is ONE  # a monomial divisor folds
    q = (x * x + x) / (x * x - ONE)  # no polynomial gcd is taken
    den = q.denominator()
    assert den == x * x - ONE and den.text_parts()[1] is None
    assert q * den == x * x + x and den.substitute({"x": 1}).is_zero()


def test_zero_divisor_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugation():
    z = Scalar.rational(Fraction(1, 3), Fraction(-2, 5))
    assert z.conjugate().conjugate() == z
    assert (z * z.conjugate()).constant_texts()[1] == "0"
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


def test_float_parts_roundtrip():
    z = Scalar.rational(0.359375, -2.5)
    assert z.to_complex() == 0.359375 - 2.5j


def test_to_complex_refuses_values_outside_the_float_range():
    big = Scalar.rational(10) ** 400
    with pytest.raises(ScalarError, match="float range"):
        big.to_complex()
    with pytest.raises(ScalarError, match="float range"):
        (KAPPA ** 400).to_complex({"kappa": 1e10})
    with pytest.raises(ScalarError, match="float range"):
        (KAPPA * Scalar.rational(10) ** 300).to_complex({"kappa": 1e10})
    # an exact value below the float range rounds to zero, as float() does
    assert big.inverse().to_complex() == 0


def test_printing_refuses_integers_over_the_str_digit_limit():
    # the limit is read when a coefficient is printed, so it is set here
    # rather than taken from the environment
    limit, saved = 1000, sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        fits = Scalar.rational(10 ** limit - 1)
        assert str(fits) == "9" * limit and scalar_json(fits)["re"] == "9" * limit
        assert str(Scalar.rational(Fraction(1, 10 ** limit - 1))) == "1/" + "9" * limit
        for over in (Scalar.rational(10 ** limit), Scalar.rational(Fraction(1, 10 ** limit)),
                     Scalar.rational(1, -(10 ** limit)), KAPPA * 10 ** limit):
            with pytest.raises(ScalarError, match=f"more than {limit} digits"):
                str(over)
        with pytest.raises(ScalarError, match="digits"):
            scalar_json(Scalar.rational(10 ** limit))
    finally:
        sys.set_int_max_str_digits(saved)


def _power_bases():
    s_inv_type = (ONE + S_PARAM).inverse()
    return [
        Scalar.rational(3) * KAPPA ** 2 * S_PARAM ** -1,  # a monomial
        Scalar.rational(Fraction(-2, 3), 1),  # a constant
        Scalar.rational(1.3),  # a binary fraction, as numeric q and c give
        ONE + S_PARAM + KAPPA,  # a multi-term base
        s_inv_type,  # a (1+s)^-1-type base
        Scalar.rational(Fraction(5, 7)) * s_inv_type + KAPPA * R2,
    ]


@pytest.mark.parametrize("base", _power_bases(), ids=str)
def test_power_is_repeated_multiplication(base):
    for n in range(-7, 8):
        step = base if n >= 0 else base.inverse()
        loop = ONE
        for _ in range(abs(n)):
            loop = loop * step
        got = base ** n
        assert (got._num, got._den) == (loop._num, loop._den)
        assert str(got) == str(loop)


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
    assert KAPPA - Fraction(1, 2) == KAPPA + Scalar.rational(Fraction(-1, 2))
    assert ONE / (ONE + ONE) == Scalar.rational(Fraction(1, 2))
    # a sum, a comparison and a divisor take no int or Fraction operand
    for op in (lambda: KAPPA + Fraction(-1, 2), lambda: 1 + ONE, lambda: Fraction(1, 2) / ONE):
        with pytest.raises(TypeError):
            op()
    assert ONE != 1 and not ONE == Fraction(1)


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
    and scaled to a monic largest monomial.  The constant slot is set by
    the test is_constant made on the parts before the slot existed."""
    _three_branch_parts(self, num, den)
    self._c = (self._num.get(_UNIT, _C_ZERO)
               if set(self._num) <= {_UNIT} and self._den == _P_ONE else None)


def _three_branch_parts(self, num, den):
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
        ci = _c_mul(_c_inv(dc), f)
        out = {}
        for m, c in num.items():
            mm, f2 = _mono_mul(m, inv_m)
            v = _c_mul(c, ci)
            if f2 != _C_ONE:
                v = _c_mul(v, f2)
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
                out[mm] = _c_mul(_c_mul(c, f), f2) if (f != _C_ONE or f2 != _C_ONE) else c
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
    want = [[(x._num, x._den, x._c, list(x._num), list(x._den), str(x))
             for x in _quotient_chain(n)] for n in seeds]
    monkeypatch.setattr(Scalar, "__init__", tally)
    got = [[(x._num, x._den, x._c, list(x._num), list(x._den), str(x))
            for x in _quotient_chain(n)] for n in seeds]
    assert got == want
    assert min(seen.values()) >= 200, seen


def _is_coeff(c) -> bool:
    """The coefficient invariant: three ints (never a bool, a float or a
    Fraction), a positive denominator and no common factor."""
    return (len(c) == 3 and all(type(v) is int for v in c) and c[2] > 0
            and math.gcd(*c) == 1)


def _parts_ok(x: Scalar) -> bool:
    return all(_is_coeff(c) for p in (x._num, x._den) for c in p.values())


# The Fraction-pair helpers that preceded integer triples, kept as the
# oracle for them: a coefficient is a pair (re, im) of Fractions, whatever
# kind of value it is given, and the r2 side factor a real pair.

def _ref_coeff(re, im=0):
    return (Fraction(re), Fraction(im))


def _ref_c_texts(c):
    return str(c[0]), str(c[1])


def _ref_c_add(a, b):
    return (Fraction(a[0]) + b[0], Fraction(a[1]) + b[1])


def _ref_c_neg(a):
    return (-Fraction(a[0]), -Fraction(a[1]))


def _ref_c_mul(a, b):
    a0, a1, b0, b1 = (Fraction(x) for x in (*a, *b))
    return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)


def _ref_c_scale(a, q):
    return (Fraction(a[0]) * q[0], Fraction(a[1]) * q[0])


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
    return tuple(sorted((n, x) for n, x in exps.items() if x)), (factor, Fraction(0))


def test_integer_first_parts_match_fraction_pair_reference(monkeypatch):
    seeds = range(2000)
    with monkeypatch.context() as m:
        for name in ("coeff", "c_texts", "c_add", "c_neg", "c_mul", "c_conj", "c_inv",
                     "exps_normalize"):
            m.setattr(scalars, f"_{name}", globals()[f"_ref_{name}"])
        m.setattr(scalars, "_C_ZERO", (0, 0))
        m.setattr(scalars, "_C_ONE", (1, 0))
        m.setattr(scalars, "_P_ONE", {_UNIT: (1, 0)})
        # powers start from the module's ONE; the chain's fixed atoms, all
        # rebuilt as pairs
        m.setattr(scalars, "ONE", Scalar.rational(1))
        for name, value in (("IMAG", Scalar.rational(0, 1)), ("R2", Scalar.param("r2")),
                            ("KAPPA", Scalar.param("kappa")), ("S_PARAM", Scalar.param("s"))):
            m.setitem(globals(), name, value)
        assert all(len(c) == 2 for c in IMAG._num.values())
        want = [[(str(x), scalar_json(x)) for x in _quotient_chain(n)] for n in seeds]
    got, fractions = [], 0
    for n in seeds:
        chain = _quotient_chain(n)
        assert all(_parts_ok(x) for x in chain), n
        fractions += sum(c[2] > 1 for x in chain for c in x._num.values())
        got.append([(str(x), scalar_json(x)) for x in chain])
    assert got == want
    assert fractions >= 1000  # true fractions are kept, not only integers


def test_c_mul_by_a_real_factor_matches_the_scaling_reference():
    # the r2 side factors and substituted values are real triples, and
    # _c_mul by one is the reference's scaling by a real number
    rng = random.Random(5)

    def pair(c):
        return Fraction(c[0], c[2]), Fraction(c[1], c[2])

    def part():
        return Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 8, 12, 2 ** 53)))

    for _ in range(20000):
        x = _coeff(part(), part())
        q = rng.choice(((2 ** rng.randint(1, 9), 0, 1), (1, 0, 2 ** rng.randint(1, 9)),
                        _coeff(part())))
        got = _c_mul(x, q)
        assert _is_coeff(got) and pair(got) == _ref_c_scale(pair(x), pair(q)), (x, q)


def test_entry_points_keep_part_invariant():
    made = [
        Scalar.rational(True, False),
        Scalar.rational(Fraction(4, 2), "3/1"),
        Scalar.rational(0.5, "1.25"),
        Scalar.rational(2.0, -0.5),
        R2 ** -3,
        R2 ** 4,
        (KAPPA ** 2 * R2 + S_PARAM).substitute({"kappa": Fraction(4, 2), "s": 0.5}),
        (ONE + IMAG).inverse(),
        Scalar.rational(Fraction(2, 3), 1) * Scalar.rational(3, Fraction(-3, 2)),
        Scalar.rational(Fraction(1, 6), Fraction(-3, 4)) + Scalar.rational(Fraction(1, 3), Fraction(1, 4)),
        Scalar.rational(0.3),
        Scalar.rational(Fraction(1, 2), Fraction(1, 2)) * Scalar.rational(1, -1),
    ]
    assert all(_parts_ok(x) for x in made)
    assert made[0]._c[2] == 1
    assert str(made[1]) == "(2 + 3*i)" and str(made[4]) == "1/4*r2"
    assert made[2]._num == {_UNIT: (2, 5, 4)} and made[3]._num == {_UNIT: (4, -1, 2)}
    assert made[7]._num == {_UNIT: (1, -1, 2)} and made[9]._num == {_UNIT: (1, -1, 2)}
    assert made[8]._num == {_UNIT: (7, 4, 2)}
    # a product whose denominator cancels comes out with denominator 1
    assert made[11]._num == {_UNIT: (1, 0, 1)} and made[11] == ONE
    a, b, d = made[10]._c
    assert (Fraction(a, d), b) == (Fraction(0.3), 0) and d == 2 ** 54
    assert (made[10] - made[10])._num == {}  # a cancelled term is dropped, not kept as (0, 0, d)


_PARAMS = ("kappa", "s", "r2", "x")
_part_values = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    # binary fractions with denominators near 2^52, the shape numeric q and c
    # give kappa and s
    st.floats(0.3, 2.5).map(Fraction),
)
_monomials = st.dictionaries(st.sampled_from(_PARAMS), st.integers(-3, 3), max_size=3)


@st.composite
def _scalars(draw):
    out = ZERO
    for _ in range(draw(st.integers(1, 3))):
        term = Scalar.rational(draw(_part_values), draw(_part_values))
        for name, e in draw(_monomials).items():
            term = term * Scalar.param(name) ** e
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


# Constants as the constant path meets them: 0, +-1, +-i, integers past
# 64 bits, true fractions and the binary fractions of float parts.
_constant_parts = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(2 ** 64, 2 ** 90),
    st.integers(-(2 ** 90), -(2 ** 64)),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
)
_constants = st.one_of(
    st.sampled_from([ZERO, ONE, -ONE, IMAG, -IMAG]),
    st.builds(Scalar.rational, _constant_parts, _constant_parts),
    st.builds(lambda z: Scalar.rational(z.real, z.imag),
              st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)),
)
_operands = st.one_of(
    _constants,
    _scalars(),
    # r2 * r2 and s * s^-1 are constants made by the polynomial path; the
    # last two keep a multi-term denominator
    st.sampled_from([KAPPA, R2, S_PARAM ** -1, (ONE + S_PARAM).inverse(),
                     (KAPPA - IMAG) / (ONE + S_PARAM * R2)]),
)


def _general_mul(a, b):
    return Scalar(_p_mul(a._num, b._num), _p_mul(a._den, b._den))


def _general_add(a, b):
    if a._den == b._den:
        num = dict(a._num)
        _p_add_into(num, b._num)
        return Scalar(num, a._den)
    num = _p_mul(a._num, b._den)
    _p_add_into(num, _p_mul(b._num, a._den))
    return Scalar(num, _p_mul(a._den, b._den))


def _general_eq(a, b):
    return _p_mul(a._num, b._den) == _p_mul(b._num, a._den)


def _refuse(*_args):
    raise AssertionError("a constant took the polynomial path")


def _same(got, want):
    """Equal parts, equal text, and constness as the parts show it."""
    assert (got._num, got._den) == (want._num, want._den)
    assert str(got) == str(want)
    assert got.is_constant() == (set(want._num) <= {_UNIT} and want._den == _P_ONE)
    if got.is_constant():
        assert got._c == want._num.get(_UNIT, _C_ZERO)
    if not want._num:
        assert got._num == {} and got.is_zero()


# 400 examples per test, 0.7-1.5 s each
@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(_constants, _operands), st.one_of(_constants, _operands))
def test_constant_path_matches_the_polynomial_path(a, b):
    for x, y in ((a, b), (b, a), (a, a)):
        _same(x * y, _general_mul(x, y))
        _same(x + y, _general_add(x, y))
        _same(x - y, _general_add(x, Scalar(_p_neg(y._num), y._den)))
        assert (x == y) == _general_eq(x, y)
    _same(-a, Scalar(_p_neg(a._num), a._den))
    _same(a.conjugate(), Scalar(_p_conj(a._num), _p_conj(a._den)))
    for x in (a, b):
        # a unit factor hands back the other operand, ONE itself for ONE * 1
        assert x * ONE is x and ONE * x is (ONE if x.is_constant() and x == ONE else x)
        assert x == Scalar(dict(x._num), dict(x._den))


@settings(max_examples=400, deadline=None, database=None)
@given(_constants, _constants)
def test_constant_path_is_taken_for_two_constants(a, b):
    # both operands constant: no polynomial helper is reached
    with pytest.MonkeyPatch.context() as m:
        for name in ("_p_mul", "_p_add_into", "_mono_mul", "_p_neg"):
            m.setattr(scalars, name, _refuse)
        results = [a * b, a + b, a - b, -a, a == b]
    assert all(x.is_constant() for x in results[:4])
    assert results[4] == _general_eq(a, b)


# ---------------------------------------------------------------------------
# Exact text in and out: read_rational and _c_texts against Fraction

_RATIO_TEXT = st.one_of(
    st.sampled_from(["3/0", "0/0", "-0", "0", "-0/5", "2/4", "-3/6", "007/014", " 1/2", "1/2 ",
                     "+1/4", "0.5", "-0.25", "1e3", "1/-2", "1 /2", "", "-", "--1", "/2", "2/",
                     "1_000", "1/2/3", "٣", "-٣/٤", "²", "nan", "inf", "1.5/2"]),
    st.builds("{}{}".format, st.sampled_from(["", "-", "+", " "]),
              st.integers(0, 10 ** 30).map(str)),
    st.builds("{}{}/{}".format, st.sampled_from(["", "-"]), st.integers(0, 10 ** 20),
              st.integers(0, 10 ** 20)),
    st.text(st.sampled_from("0123456789-+/. e_"), max_size=8),
)
_READ_VALUES = (_RATIO_TEXT | st.integers(-10 ** 30, 10 ** 30) | st.floats() | st.fractions()
                | st.booleans())


def _fraction_path(read, *args):
    """What read(*args) gives: a triple, or the class of what it raises."""
    try:
        return read(*args)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        return type(exc)


# 600 examples, derandomized, so every run reads the same values
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_READ_VALUES, _READ_VALUES)
def test_read_rational_matches_the_fraction_path(x, y):
    # integer and p/q text is read with int and one gcd, the rest through
    # Fraction: each gives the triple of Fraction(x), or raises as it does
    got = _fraction_path(read_rational, x)
    assert got == _fraction_path(lambda v: _coeff(Fraction(v)), x)
    if isinstance(got, tuple):
        assert all(type(v) is int for v in got) and math.gcd(*got) == 1 and got[2] > 0
    assert _fraction_path(read_gaussian, x, y) == _fraction_path(
        lambda u, v: _coeff(Fraction(u), Fraction(v)), x, y)


def test_read_rational_reads_the_denominator_first():
    # a zero denominator is refused before the numerator is converted, as
    # the expression parser always did
    with pytest.raises(ZeroDivisionError):
        read_rational("1" * 5000 + "/0")
    with pytest.raises(ValueError, match="4300"):
        read_rational("1/" + "1" * 5000)


_PART = st.integers(-10 ** 6, 10 ** 6) | st.integers(-10 ** 700, 10 ** 700)
_DEN = st.sampled_from([1, 2, 3, 6, 2 ** 52]) | st.integers(1, 10 ** 700)


# 400 examples, derandomized; integers of up to 700 digits meet a limit of 640
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_PART, _PART, _DEN)
def test_c_texts_prints_what_str_of_fraction_prints(a, b, d):
    h = math.gcd(a, b, d)
    c = (a // h, b // h, d // h)
    limit, saved = 640, sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        try:
            want = tuple(str(Fraction(v, c[2])) for v in c[:2])
        except ValueError:
            with pytest.raises(ScalarError, match=f"more than {limit} digits"):
                _c_texts(c)
        else:
            assert _c_texts(c) == want
    finally:
        sys.set_int_max_str_digits(saved)
