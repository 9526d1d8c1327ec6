"""Exact normal ordering, Hopf-structure checks and finite-mode numerics
for q-deformed canonical commutation relation algebras.

The public names resolve on first access (PEP 562), so importing the
package, or only its exact-algebra modules, does not import numpy or
scipy; ``fock``, ``measure`` and ``selftest`` load when one of their
names is first used.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it provides
_EXPORTS = {
    "algebra": (
        "AlgebraError", "Expr", "Gram", "Presentation", "adjoint", "am", "ap",
        "basis_convert", "commutator", "deformation_constant", "evaluate_numeric",
        "expand_k", "gen_I", "gen_K", "gen_Kinv", "normal_form", "phi", "pi", "unit",
        "word_text",
    ),
    "exprparse": ("ParseError", "expr_to_text", "parse_expr", "scalar_text"),
    "fock": (
        "BogoliubovSpec", "FockError", "ModeSpace", "SpectrumReport", "TransferRep",
        "TrendReport", "boundedness_trend", "expr_matrix", "ladder_of", "number_operator",
        "transfer_rep", "vacuum_generating_function",
    ),
    "hopf": (
        "AxiomReport", "Failure", "HopfError", "HopfSpec", "TensorExpr", "antipode",
        "check_antipode", "check_coassociativity", "check_counit", "check_multiplicativity",
        "check_respects_relations", "cocommutativity_probe", "coproduct", "counit",
        "tensor_of",
    ),
    "measure": (
        "GaussianModel", "MCEstimate", "MeasureError", "TestFunction", "WeylElement",
        "bochner_mc", "cocycle", "eta", "positive_definiteness_check", "weyl_compose",
    ),
    "reports": ("dump_json",),
    "scalars": ("IMAG", "KAPPA", "ONE", "R2", "S_PARAM", "ZERO", "Scalar", "ScalarError"),
    "selftest": ("run_selftest",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
