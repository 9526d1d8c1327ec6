"""The report layer: ``dump_json`` against the stdlib encoder, and the
``terms`` rows of a report against its ``text``.

``dump_json`` writes its bytes itself; the reference it must equal byte
for byte is ``json.dumps(doc, sort_keys=True, ensure_ascii=False,
indent=2, allow_nan=False)``, on documents of exact JSON types with
``str`` keys and finite floats.  Anything else it refuses.  ``expr_json``
and ``tensor_json`` build rows and text from the same rendered pieces, so
each is checked against an independent reading of the other: the parser,
the tensor arithmetic and ``str``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccr_hopf.cli as cli
import ccr_hopf.selftest as selftest
from ccr_hopf.algebra import Expr, Presentation, normal_form, random_expr
from ccr_hopf.exprparse import parse_expr
from ccr_hopf.hopf import HopfSpec, TensorExpr, coproduct, tensor_of
from ccr_hopf.reports import dump_json, expr_json, tensor_json
from ccr_hopf.scalars import CcrHopfError, IMAG, KAPPA, ONE, R2, S_PARAM, ZERO, Scalar


def _reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# dump_json == the stdlib call


@dataclass(frozen=True)
class _Point:
    x: float
    label: str
    tags: tuple = ()


_FLOATS = (st.sampled_from([-0.0, 0.0, 5e-324, 0.1, 1e300])
           | st.floats(allow_nan=False, allow_infinity=False))
_INTS = st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 200).map(lambda n: n * (-1) ** n)
_TEXT = st.text(
    st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", " ", "é", "漢", "😀", "a", " "])
    | st.characters(),
    max_size=8,
)
_LEAVES = (
    st.none()
    | st.booleans()
    | _INTS
    | _FLOATS
    | _TEXT
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


# 400 examples, derandomized, so every run checks the same documents
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_DOCS)
def test_dump_json_is_the_stdlib_encoding(doc):
    assert dump_json(doc) == _reference(doc)


@pytest.mark.parametrize(
    "bad",
    # a dataclass is refused as json.dumps refuses it: no report holds one
    [object(), {1, 2}, b"bytes", np.bool_(True), {"a": [1, {"b": object()}]}, [_Point(1.0, "x", (object(),))],
     {"p": _Point(1.0, "x")}],
)
def test_dump_json_refuses_what_the_stdlib_refuses(bad):
    with pytest.raises(TypeError):
        _reference(bad)
    with pytest.raises(TypeError):
        dump_json(bad)


@pytest.mark.parametrize(
    "bad",
    # numpy values, complex numbers and keys that are not str: no report
    # holds one, so the writer coerces none of them
    [np.float64(1.5), np.int64(3), np.array([1.0, 2.0]), {"a": [np.float64(0.5)]}, 1 + 2j,
     {"z": [1j]}, {1: "a"}, {"a": {(1, "b"): 2}}],
    ids=["float64", "int64", "array", "nested-float64", "complex", "nested-complex", "int-key",
         "tuple-key"],
)
def test_dump_json_refuses_values_outside_json(bad):
    with pytest.raises(TypeError):
        dump_json(bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_dump_json_refuses_non_finite_numbers(value):
    # json.dumps writes NaN or Infinity unless allow_nan=False; neither is JSON
    with pytest.raises(ValueError):
        _reference({"a": [value]})
    with pytest.raises(CcrHopfError):
        dump_json({"results": {"trend": [1.0, {"slope": value}]}})


def test_real_report_documents_are_the_stdlib_encoding(monkeypatch, capsys):
    """Reports whose floats the golden corpus leaves out (they depend on
    the BLAS build), compared in-process."""
    seen = []

    def checked(doc):
        text = dump_json(doc)
        assert text == _reference(doc)
        seen.append(doc)
        return text

    monkeypatch.setattr(cli, "dump_json", checked)
    monkeypatch.setattr(selftest, "dump_json", checked)
    for argv in (["fock", "spectrum", "--nmax", "6"], ["measure", "bochner", "--samples", "2000"],
                 ["selftest", "--seed", "42"]):
        assert cli.main(argv) == 0
    assert [d.get("command") for d in seen if "command" in d] == ["fock spectrum", "measure bochner",
                                                                "selftest"]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# rows and text agree

_SCALARS = [
    ONE,
    -ONE,
    IMAG,
    ONE + IMAG,
    KAPPA,
    R2,
    Scalar.rational(Fraction(-3, 4), Fraction(2, 5)),
    (ONE + S_PARAM).inverse(),
    KAPPA * (S_PARAM ** 2 - IMAG).inverse(),
    S_PARAM ** -1 - ONE,
]


def _row_scalar(value, kinds: set) -> Scalar:
    """The scalar a row's coefficient names; kinds collects its form."""
    kinds.add("constant" if isinstance(value, dict) else "quotient" if "^-1" in value else "text")
    if isinstance(value, dict):
        return Scalar.rational(Fraction(value["re"]), Fraction(value["im"]))
    e = parse_expr(value)
    assert set(e.terms) <= {()}
    return e.terms.get((), ZERO)


def _random_element(rng, p) -> Expr:
    e = random_expr(rng, p, max_degree=3, modes=2) * rng.choice(_SCALARS)
    return normal_form(e + random_expr(rng, p, max_degree=2, modes=2) * rng.choice(_SCALARS), p)


@pytest.mark.parametrize("basis", ["phi-pi", "ladder"])
@pytest.mark.parametrize("variant", ["undeformed", "deformed-strict", "deformed-collapsed"])
def test_expr_rows_and_text_agree(variant, basis):
    rng = random.Random(f"{variant}/{basis}")
    p = Presentation(variant=variant, basis=basis)
    kinds = set()
    for _ in range(60):
        e = _random_element(rng, p)
        doc = expr_json(e)
        assert parse_expr(doc["text"]) == e
        rebuilt = Expr.zero()
        for row in doc["terms"]:
            rebuilt = rebuilt + parse_expr(row["word"]) * _row_scalar(row["coeff"], kinds)
        assert rebuilt == e and len(doc["terms"]) == len(e.terms)
    assert kinds == {"constant", "quotient", "text"}


@pytest.mark.parametrize(
    "variant, flavor",
    [("undeformed", "classical"), ("deformed-strict", "deformed"), ("deformed-collapsed", "deformed")],
)
def test_tensor_rows_and_text_agree(variant, flavor):
    rng = random.Random(f"{variant}/{flavor}")
    p = Presentation(variant=variant)
    h = HopfSpec.classical() if flavor == "classical" else HopfSpec.deformed()
    kinds = set()
    for _ in range(25):
        t = coproduct(_random_element(rng, p), h, p)
        doc = tensor_json(t)
        assert doc["text"] == str(t) and doc["order"] == t.order == 2
        rebuilt = TensorExpr(2)
        for row in doc["terms"]:
            rebuilt = rebuilt + tensor_of(*map(parse_expr, row["slots"])) * _row_scalar(row["coeff"], kinds)
        assert rebuilt == t and len(doc["terms"]) == len(t.terms)
    assert kinds == {"constant", "quotient", "text"}


def test_a_report_renders_each_polynomial_once(monkeypatch):
    # the deformed coproduct of this word under the collapsed variant has
    # 186 terms, 88 of them over 1 + s, and its normal form 5, all over
    # 1 + s: a report renders that denominator once, and no polynomial twice
    p = Presentation(variant="deformed-collapsed")
    e = parse_expr("(1+s)^-1*pi(0)^4*phi(0)^4")
    nf, t = normal_form(e, p), coproduct(e, HopfSpec.deformed(), p)
    for sum_, size, shared in ((nf, 5, 5), (t, 186, 88)):
        assert len(sum_.terms) == size
        assert sum(c.denominator() == ONE + S_PARAM for c in sum_.terms.values()) == shared
    render = Scalar._poly_str
    for report, sum_ in ((expr_json, nf), (tensor_json, t)):
        text = str(sum_)
        rendered = []
        monkeypatch.setattr(Scalar, "_poly_str",
                            staticmethod(lambda q: rendered.append(render(q)) or rendered[-1]))
        assert report(sum_)["text"] == text
        monkeypatch.undo()
        assert rendered.count("1 + s") == 1 and len(rendered) == len(set(rendered))
