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

The parser reads each term as one (coefficient, word) pair and builds no
``Expr`` per token.  Scalar factors (numbers, scalar names, ``one``, which
is the scalar 1, and parenthesised groups that are scalars) multiply into
the coefficient in the order they are read; a generator, its power, or a
group of one word extends the word.  Only a factor that is a sum of
several words turns the term into an ``Expr``, which the later factors
multiply.  Terms are added into one dict in the order read.  Numbers go
through :func:`scalars.read_rational`, which reads integer and ``p/q``
text with integers alone.  The result is what multiplying and adding one
``Expr`` per token gives: the same terms in the same order, each
coefficient with the same parts (``tests/test_exprparse.py`` keeps that
parser as the reference).
"""

from __future__ import annotations

import re

from .algebra import FAM_AM, FAM_AP, FAM_PHI, FAM_PI, GEN_I, GEN_K, GEN_KINV, Expr, _acc, word_text
from .scalars import (IMAG, KAPPA, ONE, R2, S_PARAM, ZERO, CcrHopfError, Scalar, _constant,
                      read_rational, signed_join)


class ParseError(CcrHopfError):
    def __init__(self, message: str, position: int, expected=None):
        self.position = position
        self.expected = tuple(expected or ())
        hint = f"; expected {' or '.join(self.expected)}" if self.expected else ""
        super().__init__(f"{message} at position {position}{hint}")


# one token per match, after any whitespace: (number, name, op, bad), of
# which exactly one part is non-empty; bad is a character no token starts with
_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+|/\d+)?)|([A-Za-z][A-Za-z0-9]*)|([-+*^()])|(\S))")
_END = ("", "", "", "")

# a power is built by repeated multiplication, so its exponent is capped
MAX_EXPONENT = 1000

_SCALAR_NAMES = {"i": IMAG, "kappa": KAPPA, "s": S_PARAM, "r2": R2, "one": ONE}
_CENTRAL_NAMES = {"I": GEN_I, "K": GEN_K, "Kinv": GEN_KINV}
_MODE_NAMES = {"phi": FAM_PHI, "pi": FAM_PI, "ap": FAM_AP, "am": FAM_AM}


def _factor_of(terms: dict) -> tuple:
    """A parsed sum as a factor: (coefficient, word, None) when it has at
    most one term, else (None, None, the Expr)."""
    if len(terms) > 1:
        return None, None, _expr(terms)
    if not terms:
        return ZERO, (), None
    (w, c), = terms.items()
    return c, w, None


def _expr(terms: dict) -> Expr:
    e = Expr.zero()
    e.terms = terms
    return e


def _found(tok) -> str:
    return "found " + repr("".join(tok) or "end of input")


class _Parser:
    """Recursive descent over the tokens of one text.  A token's position
    in the text is looked up only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokens = _TOKEN.findall(text)
        bad = [tok for tok in tokens if tok[3]]
        if bad:
            raise self.error(f"unexpected character {bad[0][3]!r}", tokens.index(bad[0]))
        tokens.append(_END)
        self.k = 0

    def error(self, message: str, k: int, expected=None) -> ParseError:
        """The ParseError for token k, located in the text."""
        starts = [m.start(m.lastindex) for m in _TOKEN.finditer(self.text)]
        return ParseError(message, starts[k] if k < len(starts) else len(self.text), expected)

    def expect_op(self, op: str) -> None:
        tok = self.tokens[self.k]
        if tok[2] != op:
            raise self.error(_found(tok), self.k, [repr(op)])
        self.k += 1

    def expr(self) -> dict:
        """The terms of a sum, word -> coefficient, in the order read."""
        out = {}
        negate = self.tokens[self.k][2] == "-"
        if negate:
            self.k += 1
        while True:
            c, w, e = self.term()
            if e is None:
                if not c.is_zero():
                    _acc(out, w, -c if negate else c)
            else:
                for k, c in e.terms.items():
                    _acc(out, k, -c if negate else c)
            op = self.tokens[self.k][2]
            if op != "+" and op != "-":
                return out
            self.k += 1
            negate = op == "-"

    def term(self) -> tuple:
        """(coefficient, word, None), or (None, None, Expr) once a factor is
        a sum of several words."""
        c, w, e = self.factor()
        while self.tokens[self.k][2] == "*":
            self.k += 1
            c2, w2, e2 = self.factor()
            if e is None and e2 is None:
                if c2 is not ONE:
                    c = c * c2
                w += w2
            else:
                left = Expr.from_word(w, c) if e is None else e
                e = left * (Expr.from_word(w2, c2) if e2 is None else e2)
        return c, w, e

    def factor(self) -> tuple:
        """One atom with its power applied, as term returns it."""
        c, w, e = self.atom()
        tokens = self.tokens
        if tokens[self.k][2] != "^":
            return c, w, e
        k = self.k + 1
        negative = tokens[k][2] == "-"
        if negative:
            k += 1
        text = tokens[k][0]
        if not text.isdigit():
            raise self.error(_found(tokens[k]), k, ["a natural exponent"])
        self.k = k + 1
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise self.error(f"exponent above the limit {MAX_EXPONENT}", k)
        n = int(digits)
        if negative:
            if w or e is not None or c.is_zero():
                raise self.error("negative powers need an invertible scalar base", k)
            return c ** -n, (), None
        if e is not None:
            return _factor_of((e ** n).terms)
        return (c if c is ONE else c ** n), w * n, None

    def atom(self) -> tuple:
        k = self.k
        number, name, op, _ = tok = self.tokens[k]
        self.k = k + 1
        if number:
            try:
                c = read_rational(number)
            except ZeroDivisionError:
                raise self.error(f"zero denominator in {number!r}", k) from None
            except ValueError:  # more digits than the interpreter converts
                raise self.error("too many digits in a number", k) from None
            return (ONE if c == (1, 0, 1) else _constant(c)), (), None
        if name:
            fam = _MODE_NAMES.get(name)
            if fam is not None:
                tokens = self.tokens
                if tokens[k + 1][2] != "(":
                    raise self.error(_found(tokens[k + 1]), k + 1, ["'('"])
                mode = tokens[k + 2][0]
                if not mode.isdigit():
                    raise self.error(_found(tokens[k + 2]), k + 2, ["a mode number"])
                if tokens[k + 3][2] != ")":
                    raise self.error(_found(tokens[k + 3]), k + 3, ["')'"])
                try:
                    mode = int(mode)
                except ValueError:
                    raise self.error("too many digits in a mode number", k + 2) from None
                self.k = k + 4
                return ONE, ((fam, mode),), None
            s = _SCALAR_NAMES.get(name)
            if s is not None:
                return s, (), None
            if name in _CENTRAL_NAMES:
                return ONE, (_CENTRAL_NAMES[name],), None
            raise self.error(f"unknown name {name!r}", k)
        if op == "(":
            inner = self.expr()
            self.expect_op(")")
            return _factor_of(inner)
        raise self.error(_found(tok), k, ["a number", "a generator", "'('"])


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    out = p.expr()
    tok = p.tokens[p.k]
    if tok is not _END:
        raise p.error(f"trailing input {''.join(tok)!r}", p.k)
    return _expr(out)


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
    terms, memo = e.terms, {}
    return signed_join([term_text(word_text(w), quotient_text(*terms[w].text_parts(memo)))
                        for w in sorted(terms, key=word_order)])
