"""JSON-able views of algebra elements and check results.

Two serialization modes for coefficients: symbolic, where exact constants
become {"re": "p/q", "im": "p/q"} and anything with parameters becomes
text in the expression grammar; and numeric, where evaluated complex
values become {"re": float, "im": float}.

``expr_json`` and ``tensor_json`` render each word and each coefficient
once and build a report's ``terms`` rows and its ``text`` from the same
pieces, through the term printers that ``expr_to_text`` and
``TensorExpr.__str__`` use.  A polynomial that several coefficients share,
typically a common denominator, is rendered once per report.

``dump_json`` writes the report bytes itself, in one recursive pass.
It takes the JSON documents the package builds: exact ``str``, ``int``,
``float``, ``bool`` and ``None`` leaves, lists, tuples, and dicts with
``str`` keys.  For every document it accepts, ``dump_json(doc) ==
json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2,
allow_nan=False)``, so every report is strict JSON (RFC 8259).  Any
other value, or a key that is not a ``str``, raises TypeError; a NaN or
infinite float raises CcrHopfError, which the CLI turns into exit 2.
The package does not call ``json.dumps`` here because CPython 3.11 uses
its C encoder only when ``indent`` is None, and the pure-Python encoder
it falls back to costs more than writing the bytes directly.  A property
test in ``tests/test_reports.py`` pins the equality.  Keys are sorted, so
identical runs produce identical bytes.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from math import isfinite

from .algebra import Expr, word_text
from .exprparse import quotient_text, term_text, word_order
from .hopf import AxiomReport, Failure, TensorExpr, tensor_term_text, tensor_text_order
from .scalars import CcrHopfError, Scalar, coeff_text, quotient_str, signed_join


def _coeff_forms(s: Scalar, memo: dict | None = None) -> tuple:
    """(scalar_json, scalar_text, str) of one coefficient, all built
    from one rendering of its parts; a report passes one memo to all its
    coefficients (see Scalar.text_parts)."""
    if s.is_constant():
        re, im = s.constant_texts()
        text = coeff_text(re, im)
        return {"im": im, "re": re}, text, text
    parts = s.text_parts(memo)
    text = quotient_text(*parts)
    return text, text, quotient_str(*parts)


def scalar_json(s: Scalar):
    return _coeff_forms(s)[0]


def complex_json(z):
    z = complex(z)
    return {"im": z.imag, "re": z.real}


def expr_json(e: Expr):
    rows, pieces, memo = [], [], {}
    for w in sorted(e.terms, key=word_order):
        coeff, ctext, _ = _coeff_forms(e.terms[w], memo)
        wtext = word_text(w)
        rows.append({"coeff": coeff, "word": wtext})
        pieces.append(term_text(wtext, ctext))
    return {"terms": rows, "text": signed_join(pieces)}


def expr_numeric_json(values: dict):
    """Serialize an evaluated expression, word -> complex coefficient."""
    return [
        {"coeff": complex_json(values[w]), "word": word_text(w)}
        for w in sorted(values, key=word_order)
    ]


def tensor_json(t: TensorExpr):
    words, pieces, rows, memo = {}, {}, [], {}
    for k in sorted(t.terms, key=lambda k: (tuple(map(len, k)), k)):
        coeff, _, ctext = _coeff_forms(t.terms[k], memo)
        slots = [words[w] if w in words else words.setdefault(w, word_text(w)) for w in k]
        rows.append({"coeff": coeff, "slots": slots})
        pieces[k] = tensor_term_text(slots, ctext)
    text = signed_join([pieces[k] for k in sorted(pieces, key=tensor_text_order)])
    return {"order": t.order, "terms": rows, "text": text}


def failure_json(f: Failure):
    return {"residual": f.residual_text, "witness": f.witness}


def axiom_report_json(r: AxiomReport):
    return {
        "axiom": r.axiom,
        "degree": r.degree,
        "failures": [failure_json(f) for f in r.failures],
        "notes": list(r.notes),
        "status": r.status,
    }


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write(value, nl: str, emit) -> None:
    """Emit the indented JSON text of value; nl is the newline plus the
    indentation of the line value starts on."""
    t = type(value)
    if t is str:
        emit(encode_basestring(value))
    elif t is dict:
        if not value:
            emit("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for k in sorted(value):
            v = value[k]
            # encode_basestring raises TypeError on a key that is not a str
            head = lead + encode_basestring(k) + ": "
            # a text value, the commonest leaf, is written with its key
            if type(v) is str:
                emit(head + encode_basestring(v))
            else:
                emit(head)
                _write(v, inner, emit)
            lead = "," + inner
        emit(nl + "}")
    elif t is list or t is tuple:
        if not value:
            emit("[]")
            return
        inner = nl + "  "
        lead = "[" + inner
        for v in value:
            emit(lead)
            _write(v, inner, emit)
            lead = "," + inner
        emit(nl + "]")
    elif t is int:
        emit(int.__repr__(value))
    elif t is float:
        if not isfinite(value):
            raise CcrHopfError(f"a report value is {value!r}, which JSON cannot hold")
        emit(float.__repr__(value))
    elif value is None or t is bool:
        emit(_CONSTANTS[value])
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def dump_json(doc) -> str:
    out = []
    _write(doc, "\n", out.append)
    return "".join(out)
