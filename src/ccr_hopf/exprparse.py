"""Text form of algebra elements: a small expression grammar and a
printer whose output always re-parses to the same element.

Grammar (whitespace insensitive):

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" ["-"] NAT)?
    atom   := NUMBER | "i" | "kappa" | "s" | "r2" | GEN | "(" expr ")"
    GEN    := ("phi" | "pi" | "ap" | "am") "(" NAT ")" | "I" | "K" | "Kinv" | "one"

NUMBER is a natural, an exact ratio p/q, or a decimal literal.  Negative
exponents are accepted on scalar-valued bases only (s^-2, (1+s)^-1); the
printer uses them to express denominators, since there is no division
operator.  An exponent above MAX_EXPONENT is refused before any power is
built.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Expr, am, ap, gen_I, gen_K, gen_Kinv, phi, pi, unit, word_text
from .scalars import IMAG, KAPPA, R2, S_PARAM, ZERO, CcrHopfError, Scalar, signed_join


class ParseError(CcrHopfError):
    def __init__(self, message: str, position: int, expected=None):
        self.position = position
        self.expected = tuple(expected or ())
        hint = f"; expected {' or '.join(self.expected)}" if self.expected else ""
        super().__init__(f"{message} at position {position}{hint}")


_TOKEN = re.compile(
    r"(?P<number>\d+(?:\.\d+|/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()])"
)

# a power is built by repeated multiplication, so its exponent is capped
MAX_EXPONENT = 1000

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
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


def _number(text: str, pos: int) -> Fraction:
    if "/" in text:
        p, q = text.split("/")
        if not int(q):
            raise ParseError(f"zero denominator in {text!r}", pos)
        return Fraction(int(p), int(q))
    return Fraction(text)


class _Parser:
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
            raise ParseError(
                "negative powers need an invertible scalar base", pos
            )
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
                    raise ParseError(
                        f"found {mtext or 'end of input'!r}", mpos, ["a mode number"]
                    )
                self.expect_op(")")
                return _MODE_NAMES[text](int(mtext))
            raise ParseError(f"unknown name {text!r}", pos)
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(
            f"found {text or 'end of input'!r}", pos, ["a number", "a generator", "'('"]
        )


def _as_scalar(e: Expr) -> Scalar | None:
    """The coefficient when e is a pure scalar multiple of the unit."""
    if not e.terms:
        return ZERO
    if set(e.terms) == {()}:
        return e.terms[()]
    return None


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    out = p.expr()
    kind, tok, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok!r}", pos)
    return out


# ---------------------------------------------------------------------------
# Printing

def scalar_text(s: Scalar) -> str:
    """Grammar-parseable text for a coefficient; denominators become
    negative powers."""
    return quotient_text(*s.text_parts())


def quotient_text(num: str, den: str | None) -> str:
    """scalar_text from a scalar's text_parts."""
    return num if den is None else f"({num})*({den})^-1"


def word_order(word):
    """Sort key of the words of an Expr in every printed form."""
    return len(word), word


def term_text(wtext: str, ctext: str) -> str:
    """One signed term of expr_to_text from its word's text and its
    coefficient's scalar_text."""
    if ctext == "1":
        return wtext
    if ctext == "-1":
        return f"-{wtext}"
    factor = f"({ctext})" if " " in ctext else ctext
    return factor if wtext == "one" else f"{factor}*{wtext}"


def expr_to_text(e: Expr) -> str:
    """Deterministic text form; parse_expr(expr_to_text(e)) == e."""
    terms = e.terms
    return signed_join(
        [term_text(word_text(w), scalar_text(terms[w])) for w in sorted(terms, key=word_order)]
    )
