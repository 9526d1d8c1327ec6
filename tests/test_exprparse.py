"""``parse_expr`` against the recursive parser it replaced.

The reference parser below builds one ``Expr`` per token and multiplies
and adds them; ``parse_expr`` reads each term as one (coefficient, word)
pair.  On every text the two must agree: the same terms in the same
insertion order, each coefficient with the same numerator, denominator
and constant slot, the same printed text, and on bad input the same
``ParseError`` message and position (or the same other exception).
"""

from __future__ import annotations

import re
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccr_hopf.algebra import Expr, am, ap, gen_I, gen_K, gen_Kinv, phi, pi, unit
from ccr_hopf.exprparse import MAX_EXPONENT, ParseError, expr_to_text, parse_expr
from ccr_hopf.scalars import IMAG, KAPPA, R2, S_PARAM, ZERO, Scalar

# ---------------------------------------------------------------------------
# The reference: one Expr per token


_TOKEN = re.compile(
    r"(?P<number>\d+(?:\.\d+|/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()])"
)
_SCALAR_NAMES = {"i": IMAG, "kappa": KAPPA, "s": S_PARAM, "r2": R2}
_CENTRAL_NAMES = {"I": gen_I, "K": gen_K, "Kinv": gen_Kinv}
_MODE_NAMES = {"phi": phi, "pi": pi, "ap": ap, "am": am}


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


def _number(text: str, pos: int) -> Fraction:
    try:
        if "/" not in text:
            return Fraction(text)
        p, q = text.split("/")
        if int(q):
            return Fraction(int(p), int(q))
    except ValueError:  # more digits than the interpreter converts
        raise ParseError("too many digits in a number", pos) from None
    raise ParseError(f"zero denominator in {text!r}", pos)


def _as_scalar(e: Expr) -> Scalar | None:
    if not e.terms:
        return ZERO
    if set(e.terms) == {()}:
        return e.terms[()]
    return None


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"found {text or 'end of input'!r}", pos, [repr(op)])
        return self.next()

    def expr(self) -> Expr:
        negate = False
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            negate = True
        total = self.term()
        if negate:
            total = -total
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                total = total + rhs if text == "+" else total - rhs
            else:
                return total

    def term(self) -> Expr:
        total = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.next()
                total = total * self.factor()
            else:
                return total

    def factor(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if not (kind == "op" and text == "^"):
            return base
        self.next()
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.next()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "number" or not text.isdigit():
            raise ParseError(f"found {text or 'end of input'!r}", pos, ["a natural exponent"])
        self.next()
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError(f"exponent above the limit {MAX_EXPONENT}", pos)
        n = int(digits)
        if sign > 0:
            return base ** n
        coeff = _as_scalar(base)
        if coeff is None or coeff.is_zero():
            raise ParseError("negative powers need an invertible scalar base", pos)
        return unit() * coeff ** (-n)

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "number":
            return unit() * Scalar.rational(_number(text, pos))
        if kind == "name":
            if text in _SCALAR_NAMES:
                return unit() * _SCALAR_NAMES[text]
            if text == "one":
                return unit()
            if text in _CENTRAL_NAMES:
                return _CENTRAL_NAMES[text]()
            if text in _MODE_NAMES:
                self.expect_op("(")
                mkind, mtext, mpos = self.next()
                if mkind != "number" or not mtext.isdigit():
                    raise ParseError(f"found {mtext or 'end of input'!r}", mpos, ["a mode number"])
                self.expect_op(")")
                try:
                    mode = int(mtext)
                except ValueError:
                    raise ParseError("too many digits in a mode number", mpos) from None
                return _MODE_NAMES[text](mode)
            raise ParseError(f"unknown name {text!r}", pos)
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"found {text or 'end of input'!r}", pos, ["a number", "a generator", "'('"])


def reference_parse(text: str) -> Expr:
    p = _ReferenceParser(text)
    out = p.expr()
    kind, tok, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok!r}", pos)
    return out


# ---------------------------------------------------------------------------
# Texts: grammar-built token lists, then as often as not one token dropped,
# put in or replaced.  Numbers include zero, unreduced and zero-denominator
# ratios and decimals; exponents stay small, so the degree stays small.

_NUMBER = st.sampled_from(["0", "1", "2", "7", "12", "007", "2/4", "6/8", "0/5", "3/0", "1/1",
                           "9/9", "0.5", "1.50", "2.0", "٣", "٣/٤"])
_NAMED = st.sampled_from(["i", "kappa", "s", "r2", "one"])
_GEN = st.one_of(
    st.builds(lambda f, j: [f, "(", j, ")"], st.sampled_from(["phi", "pi", "ap", "am"]),
              st.sampled_from(["0", "1", "2", "00"])),
    st.sampled_from(["I", "K", "Kinv"]).map(lambda g: [g]),
)
_POWER = st.sampled_from([[], [], ["^", "0"], ["^", "1"], ["^", "2"], ["^", "3"], ["^", "-", "0"],
                          ["^", "-", "1"], ["^", "-", "2"], ["^", "0002"]])
# a negative power of a generator is bad input, so it is drawn rarely
_GEN_POWER = st.sampled_from([[]] * 6 + [["^", "0"], ["^", "2"], ["^", "3"], ["^", "-", "1"]])
# groups that are scalars with several monomials: their negative powers
# make coefficients with denominators
_SCALAR_GROUP = st.sampled_from(["(1+s)", "(kappa - s)", "(2/4 + 6/8*i)", "(s*r2 + kappa)",
                                 "(1 + s - s)"]).map(lambda g: [g])
_STRAY = ["(", ")", "^", "-", "+", "*", "/", ".", "phi", "7", "1.5", "@", "Kinv", "x", "2/", "1e3",
          "^-", "1001", "_", "²"]


@st.composite
def _expr_tokens(draw, depth=0):
    terms = []
    for _ in range(draw(st.integers(1, 3 if depth == 0 else 2))):
        factors = []
        for _ in range(draw(st.integers(1, 4 if depth == 0 else 2))):
            kind = draw(st.sampled_from(["number", "name", "gen", "gen", "scalar", "group"]
                                        if depth < 2 else ["number", "name", "gen", "scalar"]))
            if kind == "number":
                atom = [draw(_NUMBER)]
            elif kind == "scalar":
                atom = draw(_SCALAR_GROUP)
            elif kind == "name":
                atom = [draw(_NAMED)]
            elif kind == "gen":
                atom = draw(_GEN) + draw(_GEN_POWER)
            else:
                atom = ["(", *draw(_expr_tokens(depth + 1)), ")"]
            factors.append(atom if kind == "gen" else atom + draw(_POWER))
        terms.append([t for i, f in enumerate(factors) for t in ([] if i == 0 else ["*"]) + f])
    signs = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(terms), max_size=len(terms)))
    lead = ["-"] if signs[0] == "-" and draw(st.booleans()) else []
    return lead + [t for i, term in enumerate(terms) for t in ([] if i == 0 else [signs[i]]) + term]


@st.composite
def _texts(draw):
    tokens = draw(_expr_tokens())
    edit = draw(st.sampled_from(["none", "none", "drop", "insert", "replace"]))
    k = draw(st.integers(0, len(tokens) - (edit in ("drop", "replace"))))
    if edit == "drop":
        del tokens[k]
    elif edit == "insert":
        tokens.insert(k, draw(st.sampled_from(_STRAY)))
    elif edit == "replace":
        tokens[k] = draw(st.sampled_from(_STRAY))
    # spaced tokens, or none between them, which can merge two into one
    return draw(st.sampled_from([" ", ""])).join(tokens)


def _outcome(parse, text):
    try:
        e = parse(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.position, exc.expected
    except Exception as exc:  # noqa: BLE001 -- what escapes must escape alike
        return type(exc).__name__, str(exc)
    coeffs = [(w, c._num, c._den, c._c) for w, c in e.terms.items()]
    return "ok", coeffs, expr_to_text(e)


# 1000 examples, derandomized, so every run checks the same texts
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_texts())
@example("(0)^-1")
@example("3/0*phi(0)")
@example("one^-1*phi(0)")
@example("(2/4 + 6/8*i)*one^-1*phi(0) + 0.5*pi(0)")
@example("0^0 + (phi(0) - phi(0))^0 + (phi(0) + pi(0))^0*2")
@example("-(phi(0) + pi(0))*(1+s)^-1*phi(1) - 2*(ap(0) - am(1))^2*kappa*ap(0)^3")
@example("(1+s)^-2*(kappa - s)*(phi(0) + 1)*(1 + s)^-1")
@example("1" * 5000 + "*phi(0)")
@example("phi(0) $ pi(0)")
@example("phi(0")
@example("")
def test_parse_expr_matches_the_reference_parser(text):
    assert _outcome(parse_expr, text) == _outcome(reference_parse, text)
