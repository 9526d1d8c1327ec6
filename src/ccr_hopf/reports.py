"""JSON-able views of algebra elements and check results.

Two serialization modes for coefficients: symbolic, where exact constants
become {"re": "p/q", "im": "p/q"} and anything with parameters becomes
text in the expression grammar; and numeric, where evaluated complex
values become {"re": float, "im": float}.  Documents are rendered with
sorted keys so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, is_dataclass

from .algebra import Expr, word_text
from .exprparse import expr_to_text, scalar_text
from .hopf import AxiomReport, Failure, TensorExpr
from .scalars import Scalar


def scalar_json(s: Scalar):
    if s.is_constant():
        re, im = s.constant_value()
        return {"im": str(im), "re": str(re)}
    return scalar_text(s)


def complex_json(z):
    z = complex(z)
    return {"im": z.imag, "re": z.real}


def expr_json(e: Expr):
    return {
        "terms": [
            {"coeff": scalar_json(e.terms[w]), "word": word_text(w)}
            for w in sorted(e.terms, key=lambda w: (len(w), w))
        ],
        "text": expr_to_text(e),
    }


def expr_numeric_json(values: dict):
    """Serialize an evaluated expression, word -> complex coefficient."""
    return [
        {"coeff": complex_json(values[w]), "word": word_text(w)}
        for w in sorted(values, key=lambda w: (len(w), w))
    ]


def tensor_json(t: TensorExpr):
    return {
        "order": t.order,
        "terms": [
            {
                "coeff": scalar_json(t.terms[k]),
                "slots": [word_text(w) for w in k],
            }
            for k in sorted(t.terms, key=lambda k: (tuple(len(w) for w in k), k))
        ],
        "text": str(t),
    }


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


def _plain(value):
    """Recursively coerce numpy scalars and arrays to JSON-native types.
    numpy values can only exist once numpy is imported, so it is looked up
    rather than imported here."""
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.ndarray):
            return [_plain(v) for v in value.tolist()]
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
    if isinstance(value, complex):
        return complex_json(value)
    if is_dataclass(value) and not isinstance(value, type):
        return _plain(asdict(value))
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def report_json(obj):
    """Serialize the dataclass reports from the representation modules."""
    return _plain(obj)


def dump_json(doc) -> str:
    return json.dumps(_plain(doc), sort_keys=True, ensure_ascii=False, indent=2)
