"""Seeded request streams for the four workloads, and the code that runs
one request against the package.

A workload is a stream of *cycles*.  Every cycle of a workload has the
same composition: the same request kinds at the same sizes, in a seeded
order, with continuous parameters (coefficients, gram entries, q, c, r,
v, sample counts) drawn afresh for every request.  A run executes whole
cycles, so the class mix of a run does not depend on where the clock
stopped, and no request repeats an earlier one, so a cache that outlives
one request gains nothing here, just as it gains nothing for a CLI user.

Every request carries a cost tier.  The tiers of a cycle are sized so
that the 50th and 90th latency ranks fall at least three points inside
one tier, so the percentiles do not flip between request classes; a run
reports the distance it measured (``tier_margin_points``).

Requests call the package only through a ``Layers`` object, which holds
the public functions of the ``ccr_hopf`` modules a workload uses.  In a
traced run every one of those functions is wrapped by the span recorder;
otherwise they are the functions themselves.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
CLI_DIR = os.path.join(OUT_DIR, "cli")

# fock.DENSE_EIG_LIMIT at the time the benchmark was written; spectrum
# sizes are drawn on both sides of it
DENSE_LIMIT = 2000


@dataclass
class Request:
    kind: str
    tier: str
    params: dict
    # key of ``oracles.DEFECTS`` when the request is registered against a
    # known defect: a failure that shows exactly that defect is counted
    # but does not make the run incorrect
    defect: str | None = None
    rid: int = field(default=-1)


class Layers:
    """Public functions of the package, by name, optionally span-wrapped."""

    def __init__(self, modules: dict, spans=None):
        for mod, names in modules.items():
            m = importlib.import_module(f"ccr_hopf.{mod}")
            for name in names:
                fn = getattr(m, name)
                if spans is not None:
                    traced = spans.wrap(f"{mod}.{name}", fn)
                    if isinstance(fn, type):
                        # keep alternate constructors reachable as L.Class.make(...)
                        for attr, raw in vars(fn).items():
                            if isinstance(raw, classmethod) and not attr.startswith("_"):
                                setattr(traced, attr,
                                        spans.wrap(f"{mod}.{name}.{attr}", getattr(fn, attr)))
                    fn = traced
                setattr(self, name, fn)


# ---------------------------------------------------------------------------
# Random text in the package's expression grammar

CONFIGS = (
    ("undeformed", "phi-pi"),
    ("undeformed", "ladder"),
    ("deformed-strict", "phi-pi"),
    ("deformed-strict", "ladder"),
    ("deformed-collapsed", "phi-pi"),
)

_SYMBOLIC = ("", "*kappa", "*s", "*(1+s)^-1", "*kappa*(1+s)^-1", "*i", "*r2", "*s^-1")
_CONSTANT = ("", "*i", "*r2")


def rational_text(rng) -> str:
    p, q = rng.randint(1, 9), rng.randint(1, 11)
    sign = "-" if rng.random() < 0.3 else ""
    return f"{sign}{p}/{q}"


def coeff_text(rng, constant=False) -> str:
    return rational_text(rng) + rng.choice(_CONSTANT if constant else _SYMBOLIC)


def letters(variant: str, basis: str, modes: int) -> list:
    out = ["I"]
    if variant != "undeformed":
        out += ["K", "Kinv"]
    fams = ("phi", "pi") if basis == "phi-pi" else ("ap", "am")
    for f in fams:
        out += [f"{f}({j})" for j in range(modes)]
    return out


def word_text(rng, pool, degree) -> str:
    if degree == 0:
        return "one"
    return "*".join(rng.choice(pool) for _ in range(degree))


def expr_text(rng, pool, max_degree, max_terms=3, constant=False, slot=None) -> str:
    """Random expression text.  With a slot the number of terms and their
    degrees rotate with it, so that only letters and coefficients are
    drawn; without one they are drawn too."""
    if slot is None:
        degrees = [rng.randint(0, max_degree) for _ in range(rng.randint(1, max_terms))]
    else:
        degrees = [(5 * slot + 2 * t) % (max_degree + 1) for t in range(1 + slot // 2 % max_terms)]
    terms = []
    for degree in degrees:
        coeff = coeff_text(rng, constant)
        terms.append(f"({coeff})*{word_text(rng, pool, degree)}")
    return " + ".join(terms)


def _rotate(slot, lo, hi) -> int:
    """A size from lo..hi that rotates with the slot."""
    return lo + slot % (hi - lo + 1)


def gram_rows(rng, n: int) -> list:
    """Hermitian gram with positive rational diagonal, in the CLI's JSON
    entry format ("p/q" strings and [re, im] pairs)."""
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = f"{rng.randint(1, 7)}/{rng.randint(1, 5)}"
        for k in range(j + 1, n):
            re, im = rng.randint(-3, 3), rng.randint(-3, 3)
            den = rng.randint(2, 9)
            rows[j][k] = [f"{re}/{den}", f"{im}/{den}"]
            rows[k][j] = [f"{re}/{den}", f"{-im}/{den}"]
    return rows


def numeric_qc(rng):
    return rng.uniform(0.5, 2.0), rng.uniform(0.3, 2.0)


# ---------------------------------------------------------------------------
# rewrite: exact normal ordering on deep and shallow words

# (kind, n, flavor, tier) once per cycle.  With 42 cheap requests the
# tiers take ranks 0-70, 70-81.7, 81.7-93.3 and 93.3-100 of a run's
# latencies; the 90th rank falls inside the n=5 field block of heavy-2.
REWRITE_HEAVY = (
    ("power-ladder", 4, None, "heavy-1"),
    ("power-field", 4, None, "heavy-1"),
    ("power-field", 4, None, "heavy-1"),
    ("coproduct", 3, "classical", "heavy-1"),
    ("coproduct", 3, "deformed", "heavy-1"),
    ("convert", 3, None, "heavy-1"),
    ("coproduct", 4, "classical", "heavy-1"),
    ("power-ladder", 5, None, "heavy-2"),
    ("power-ladder", 5, None, "heavy-2"),
    ("power-field", 5, None, "heavy-2"),
    ("power-field", 5, None, "heavy-2"),
    ("power-field", 5, None, "heavy-2"),
    ("power-field", 5, None, "heavy-2"),
    ("coproduct", 5, "classical", "heavy-2"),
    ("coproduct", 4, "deformed", "heavy-3"),
    ("power-ladder", 6, None, "heavy-3"),
    ("convert", 4, None, "heavy-3"),
    ("power-field", 6, None, "heavy-3"),
)


# cheap kinds per cycle: half normalize, a third commutators (half of
# them generator pairs), the rest adjoints
REWRITE_CHEAP = ("normalize",) * 21 + ("pair",) * 6 + ("commutator",) * 7 + ("adjoint",) * 8


def _rewrite_cheap(rng, kind, slot) -> Request:
    # discrete choices (configuration, modes, term count and degrees)
    # rotate with the slot, so every cycle holds the same mix; letters and
    # numbers are drawn
    variant, basis = CONFIGS[slot % len(CONFIGS)]
    modes = 1 + (slot // len(CONFIGS)) % 3
    params = {"variant": variant, "basis": basis, "gram": None, "q": None, "c": None}
    if slot % 3 == 0:
        params["gram"] = gram_rows(rng, 3)
    if variant != "undeformed" and slot % 3 == 1:
        params["q"], params["c"] = numeric_qc(rng)
    pool = letters(variant, basis, modes)
    if kind == "normalize":
        params["text"] = expr_text(rng, pool, 8, slot=slot)
        params["rightmost"] = slot % 5 == 0
        return Request("normalize", "cheap", params)
    if kind == "pair":
        j, k = rng.randrange(modes), rng.randrange(modes)
        lo, hi = ("pi", "phi") if basis == "phi-pi" else ("am", "ap")
        params["pair"] = (lo, j, hi, k)
        params["left"], params["right"] = f"{lo}({j})", f"{hi}({k})"
        return Request("commutator", "cheap", params)
    if kind == "commutator":
        params["pair"] = None
        params["left"] = expr_text(rng, pool, 4, 2, slot=slot)
        params["right"] = expr_text(rng, pool, 4, 2, slot=slot + 1)
        return Request("commutator", "cheap", params)
    params["text"] = expr_text(rng, pool, 8, slot=slot)
    return Request("adjoint", "cheap", params)


_HEAVY_VARIANTS = {
    "power-field": ("undeformed", "deformed-strict", "deformed-collapsed"),
    "power-ladder": ("undeformed", "deformed-strict"),
    "convert": ("undeformed", "deformed-strict"),
    "classical": ("undeformed", "deformed-strict", "deformed-collapsed"),
    "deformed": ("deformed-strict",),
}


def _rewrite_heavy(rng, kind, n, flavor, tier, slot) -> Request:
    j = rng.randrange(3)
    coef = rational_text(rng) + _SYMBOLIC[slot % len(_SYMBOLIC)]
    variant = _HEAVY_VARIANTS[flavor or kind][slot % len(_HEAVY_VARIANTS[flavor or kind])]
    params = {"n": n, "j": j, "coef": coef, "variant": variant, "gram": None, "q": None,
              "c": None, "basis": "ladder" if kind in ("power-ladder", "convert") else "phi-pi"}
    if flavor:
        params["flavor"] = flavor
    if slot % 3 == 1:
        params["gram"] = gram_rows(rng, 3)
    elif slot % 3 == 2 and variant != "undeformed":
        params["q"], params["c"] = numeric_qc(rng)
    if kind in ("power-field", "coproduct"):
        params["text"] = f"({coef})*pi({j})^{n}*phi({j})^{n}"
    else:
        params["text"] = f"({coef})*am({j})^{n}*ap({j})^{n}"
    return Request(kind, tier, params)


def rewrite_cycle(rng, index: int) -> list:
    # slots advance by one more than the cycle length, so an item's
    # configuration rotates from cycle to cycle
    reqs = [_rewrite_cheap(rng, kind, index * (len(REWRITE_CHEAP) + 1) + k)
            for k, kind in enumerate(REWRITE_CHEAP)]
    reqs += [_rewrite_heavy(rng, *h, index * (len(REWRITE_HEAVY) + 1) + k)
             for k, h in enumerate(REWRITE_HEAVY)]
    rng.shuffle(reqs)
    return reqs


def _presentation(L, params):
    return L.Presentation(
        variant=params["variant"], basis=params["basis"], gram=params["gram"],
        q=params["q"], c=params["c"],
    )


def _expr_doc(L, key, text, nf):
    return L.dump_json({"input": text, key: L.expr_json(nf)})


def run_normalize(L, params):
    p = _presentation(L, params)
    e = L.parse_expr(params["text"])
    nf = L.normal_form(e, p)
    return {"p": p, "e": e, "nf": nf, "doc": _expr_doc(L, "normal_form", params["text"], nf)}


def run_commutator(L, params):
    p = _presentation(L, params)
    x = L.parse_expr(params["left"])
    y = L.parse_expr(params["right"])
    nf = L.commutator(x, y, p)
    doc = L.dump_json(
        {"commutator": L.expr_json(nf), "left": params["left"], "right": params["right"]}
    )
    return {"p": p, "x": x, "y": y, "nf": nf, "doc": doc}


def run_adjoint(L, params):
    p = _presentation(L, params)
    e = L.parse_expr(params["text"])
    adj = L.adjoint(e, p)
    return {"p": p, "e": e, "nf": adj, "doc": _expr_doc(L, "adjoint", params["text"], adj)}


def run_convert(L, params):
    p = _presentation(L, params)
    e = L.parse_expr(params["text"])
    nf = L.basis_convert(e, "phi-pi", p)
    return {"p": p, "e": e, "nf": nf, "doc": _expr_doc(L, "converted", params["text"], nf)}


def run_coproduct(L, params):
    p = _presentation(L, params)
    e = L.parse_expr(params["text"])
    h = L.HopfSpec.classical() if params["flavor"] == "classical" else L.HopfSpec.deformed()
    t = L.coproduct(e, h, p)
    doc = L.dump_json({"coproduct": L.tensor_json(t), "input": params["text"]})
    return {"p": p, "e": e, "t": t, "doc": doc}


# ---------------------------------------------------------------------------
# hopf: exhaustive axiom sweeps over many short words

HOPF_CHECKS = ("coassociativity", "counit", "antipode", "cocommutativity", "multiplicativity")
_VARIANTS = ("undeformed", "deformed-strict", "deformed-collapsed")


# Cost classes of the sweeps (about 3-45 ms "light", 40-210 ms "body",
# 250-430 ms "p90", 0.6-1.3 s "top").  Per cycle of 70 they take ranks
# 0-55.7, 55.7-85.7, 85.7-94.3 and 94.3-100, so the 50th and 90th ranks
# sit more than four points inside a class.
_HOPF_TOP = {("deformed", "collapsed-at-one", 3, "multiplicativity"),
             ("deformed", "collapsed-at-one", 3, "coassociativity"),
             ("classical", 4, "coassociativity"), ("classical", 4, "multiplicativity")}
_HOPF_P90 = {("classical", 3, "multiplicativity"), ("classical", 4, "antipode"),
             ("deformed", "deformed-strict", 3, "coassociativity"),
             ("deformed", "collapsed-at-one", 2, "multiplicativity")}
_HOPF_LIGHT = {("classical", 2, "coassociativity"), ("classical", 2, "counit"),
               ("classical", 2, "antipode"), ("classical", 2, "cocommutativity"),
               ("classical", 3, "counit"), ("classical", 3, "cocommutativity"),
               ("deformed", 2, "counit"), ("deformed", 2, "antipode"),
               ("deformed", 2, "cocommutativity"), ("classical", None, "respects-relations")}


def _hopf_tier(flavor, variant, degree, check, modes):
    for key in ((flavor, variant, degree, check), (flavor, degree, check)):
        if key in _HOPF_TOP:
            return "top"
        if key in _HOPF_P90:
            return "p90"
        if key in _HOPF_LIGHT or modes == 1:
            return "light"
    return "body"


def hopf_cycle(rng, index: int) -> list:
    plan = []
    for degree in (2, 3):
        for variant in _VARIANTS:
            for check in HOPF_CHECKS:
                plan.append(("classical", variant, degree, check, 2))
    # one classical variant at degree 4 per cycle, rotating
    for check in HOPF_CHECKS:
        plan.append(("classical", _VARIANTS[index % 3], 4, check, 2))
    for variant in _VARIANTS:
        plan.append(("classical", variant, None, "respects-relations", 2))
        for check in HOPF_CHECKS[:4]:
            plan.append(("classical", variant, 2, check, 1))
    for degree in (2, 3):
        for check in HOPF_CHECKS:
            plan.append(("deformed", "deformed-strict", degree, check, 2))
            plan.append(("deformed", "collapsed-at-one", degree, check, 2))
    reqs = []
    for k, (flavor, variant, degree, check, modes) in enumerate(plan):
        slot = index * (len(plan) + 1) + k
        # the multiplicativity trial seed is tied to the slot: its random
        # words change the cost by a quarter, which the gram and q, c
        # draws below do not
        params = {"flavor": flavor, "degree": degree, "check": check, "modes": modes,
                  "gram": gram_rows(rng, modes), "q": None, "c": None, "seed": slot}
        if variant == "collapsed-at-one":
            params.update(variant="deformed-collapsed", q=1.0, c=1.0)
        else:
            params["variant"] = variant
            if variant != "undeformed" and slot % 2 == 0:
                params["q"], params["c"] = numeric_qc(rng)
        reqs.append(Request("axiom", _hopf_tier(flavor, variant, degree, check, modes), params))
    rng.shuffle(reqs)
    return reqs


def run_axiom(L, params):
    p = L.Presentation(variant=params["variant"], gram=params["gram"],
                       q=params["q"], c=params["c"])
    h = L.HopfSpec.classical() if params["flavor"] == "classical" else L.HopfSpec.deformed()
    check, degree, modes = params["check"], params["degree"], params["modes"]
    if check == "coassociativity":
        rep = L.check_coassociativity(h, p, degree=degree, modes=modes)
    elif check == "counit":
        rep = L.check_counit(h, p, degree=degree, modes=modes)
    elif check == "antipode":
        rep = L.check_antipode(h, p, degree=degree, modes=modes)
    elif check == "cocommutativity":
        rep = L.cocommutativity_probe(h, p, degree=degree, modes=modes)
    elif check == "multiplicativity":
        rep = L.check_multiplicativity(h, p, degree=degree, modes=modes, seed=params["seed"])
    else:
        rep = L.check_respects_relations(h, p, modes=modes)
    doc = L.dump_json({"reports": [L.axiom_report_json(rep)]})
    return {"p": p, "report": rep, "doc": doc}


# ---------------------------------------------------------------------------
# numeric: Fock and Gaussian-measure numerics

SPECTRUM_SIZES = {
    "small": ((2, 23), (3, 11), (4, 7), (2, 25), (3, 12)),
    "medium": ((2, 40), (3, 16), (4, 10), (2, 42)),
    "large": ((2, 58), (3, 20), (4, 12), (2, 57)),
    "lanczos": ((2, 62), (3, 21), (4, 13), (2, 66), (3, 22), (2, 68)),
}
# (tier, sizes, count) per cycle; 10 of 50 requests are spectrum requests.
# Per cycle the "fast" requests (about 4 ms) take ranks 0-64, the "mid"
# ones (10-100 ms: Monte Carlo, functoriality, small and Lanczos spectra)
# 64-94, and the medium and large dense solves 94-100.
SPECTRUM_PLAN = (("spectrum-large", "large", 1), ("spectrum-medium", "medium", 2),
                 ("mid", "small", 4), ("mid", "lanczos", 3))
NUMERIC_PLAN = (("genfun", "fast", 8), ("transfer", "fast", 6), ("cocycle", "fast", 5),
                ("eta", "fast", 5), ("pd", "fast", 4), ("weyl", "fast", 4),
                ("exprmat", "mid", 4), ("bochner", "mid", 4))
FAMILIES = ("fock", "uniform", "summable")
PINNED_SPECTRA = (0.175, 0.5 * math.log(2.0))


def _spectrum(rng, tier, size, family, r=None, pinned=False) -> Request:
    d, nmax = size
    # summable d=3 above the dense limit spends 30-45 s per call before
    # ArpackNoConvergence escapes, longer than a whole run; it is left out
    if family == "summable" and d == 3 and _dim(d, nmax) > DENSE_LIMIT:
        family = "uniform"
    if r is None:
        r = rng.uniform(0.1, 0.5)
    dim = _dim(d, nmax)
    # Lanczos from a fixed start vector misses the ground state of the
    # plain Fock operator above the dense limit, and can split the pinned
    # 4-fold cluster; the squeezed families there come out right
    defect = None
    if dim > DENSE_LIMIT and (family == "fock" or pinned):
        defect = "lanczos-fixed-start"
    return Request("spectrum", tier, {"d": d, "nmax": nmax, "family": family, "r": r,
                                      "k": 5, "dim": dim}, defect)


def _dim(d, nmax):
    return math.comb(nmax + d, d)


def _gauss_vec(rng, d, scale=1.0):
    return [rng.gauss(0.0, scale) for _ in range(d)]


def _kmat(rng, d):
    """Upper-triangular covariance factor with a well-conditioned diagonal."""
    return [[rng.uniform(0.8, 1.8) if i == j else (rng.uniform(-0.3, 0.3) if j > i else 0.0)
             for j in range(d)] for i in range(d)]


def _numeric_other(rng, kind, tier, slot, i) -> Request:
    if kind == "genfun":
        d = 1 + slot % 3
        lo, hi = {1: (20, 40), 2: (16, 24), 3: (14, 18)}[d]
        nmax = _rotate(slot // 3, lo, hi)
        return Request(kind, tier, {"d": d, "nmax": nmax,
                                    "v": [rng.uniform(-1.0, 1.0) for _ in range(d)]})
    if kind == "transfer":
        d = 2 + slot % 2
        return Request(kind, tier, {"d": d, "nmax": _rotate(slot // 2, 8, 10) if d == 2 else 7,
                                    "q": rng.uniform(0.3, 2.5), "c": rng.uniform(0.3, 2.5),
                                    "v": _gauss_vec(rng, d), "w": _gauss_vec(rng, d)})
    if kind == "exprmat":
        items = []
        for variant, basis in (("undeformed", "phi-pi"), ("deformed-strict", "phi-pi"),
                               ("deformed-strict", "ladder"), ("deformed-collapsed", "phi-pi")):
            q, c = (1.0, 1.0) if variant == "undeformed" else numeric_qc(rng)
            items.append({"variant": variant, "basis": basis, "q": q, "c": c,
                          "text": expr_text(rng, letters(variant, basis, 2), 3)})
        return Request(kind, tier, {"items": items})
    # Monte-Carlo sizes are stratified over the cycle (2 or 3 dimensions,
    # 1e5 to 1e6 samples, log-spaced), so each run holds the same spread
    d = 2 + i % 2 if kind == "bochner" else 2
    params = {"d": d, "K": None if slot % 5 < 2 else _kmat(rng, d),
              "seed": rng.randrange(1 << 30)}
    if kind == "bochner":
        params["v"] = _gauss_vec(rng, d, 0.8)
        params["samples"] = int(10 ** (5.0 + i / 3.0 + rng.uniform(-0.02, 0.02)))
    elif kind == "cocycle":
        params["samples"] = _rotate(7 * slot, 50, 100)
    elif kind == "eta":
        params["pairs"] = [(_gauss_vec(rng, d), _gauss_vec(rng, d)) for _ in range(3)]
    elif kind == "weyl":
        params["count"] = _rotate(slot, 5, 10)
    else:
        params["count"] = _rotate(5 * slot, 8, 30)
    return Request(kind, tier, params)


def numeric_cycle(rng, index: int) -> list:
    reqs = []
    for tier, sizes, count in SPECTRUM_PLAN:
        pool = SPECTRUM_SIZES[sizes]
        for i in range(count):
            size = pool[(index * count + i) % len(pool)]
            reqs.append(_spectrum(rng, tier, size, FAMILIES[(index + len(reqs)) % 3]))
    if index == 0:
        # pinned: a 4-fold cluster at 1 that fixed-start Lanczos can split.
        # They replace the two squeezed Lanczos requests, so the first
        # cycle, which a traced run always holds, keeps its fock-family one
        for i, r in enumerate(PINNED_SPECTRA):
            reqs[-2 - i] = _spectrum(rng, "mid", (4, 13), "uniform", r, pinned=True)
    for kind, tier, count in NUMERIC_PLAN:
        reqs += [_numeric_other(rng, kind, tier, index * (count + 1) + i, i)
                 for i in range(count)]
    rng.shuffle(reqs)
    return reqs


def _model(L, params):
    if params["K"] is None:
        return L.GaussianModel.fock(params["d"])
    return L.GaussianModel(params["K"])


def run_spectrum(L, params):
    import numpy as np

    d = params["d"]
    m = L.ModeSpace(d, params["nmax"])
    family = params["family"]
    if family == "fock":
        spec = L.BogoliubovSpec.fock(d)
    elif family == "uniform":
        spec = L.BogoliubovSpec.uniform(d, params["r"])
    else:
        spec = L.BogoliubovSpec.summable(d, params["r"])
    n = L.number_operator(m, spec)
    vac = m.vacuum()
    occupancy = float(np.real(np.vdot(vac, n @ vac)))
    eigs = L.smallest_eigenvalues(n, params["k"])
    doc = L.dump_json({"eigenvalues": list(eigs), "rs": list(spec.rs),
                       "vacuum_occupancy": occupancy})
    return {"rs": spec.rs, "occupancy": occupancy, "eigs": eigs, "nnz": n.nnz, "doc": doc}


def run_genfun(L, params):
    import numpy as np

    m = L.ModeSpace(params["d"], params["nmax"])
    z = L.vacuum_generating_function(m, np.array(params["v"]))
    doc = L.dump_json({"value_im": z.imag, "value_re": z.real})
    return {"z": z, "doc": doc}


def run_transfer(L, params):
    import numpy as np

    m = L.ModeSpace(params["d"], params["nmax"])
    v, w = np.array(params["v"]), np.array(params["w"])
    rep = L.transfer_rep(m, params["q"], params["c"])
    comm = L.commutator_matrix(rep.pi(v), rep.phi(w))
    target = -1j * rep.constant * float(v @ w) * np.eye(m.dim)
    residual = L.restricted_norm(m, comm - target, 2)
    doc = L.dump_json({"c_qc": rep.constant, "residual": residual, "scale": rep.scale})
    return {"constant": rep.constant, "comm": comm, "residual": residual, "doc": doc}


def run_exprmat(L, params):
    import numpy as np

    m = L.ModeSpace(2, 10)
    pairs = []
    residuals = []
    for item in params["items"]:
        p = L.Presentation(variant=item["variant"], basis=item["basis"])
        e = L.parse_expr(item["text"])
        a = L.expr_matrix(e, m, p, q=item["q"], c=item["c"])
        b = L.expr_matrix(L.normal_form(e, p), m, p, q=item["q"], c=item["c"])
        residuals.append(L.restricted_norm(m, a - b, 3))
        pairs.append((a, b))
    doc = L.dump_json({"max_residual": max(residuals), "expressions": len(pairs)})
    return {"pairs": pairs, "nnz": sum(a.nnz + b.nnz for a, b in pairs), "doc": doc}


def run_bochner(L, params):
    import numpy as np

    model = _model(L, params)
    est = L.bochner_mc(model, np.array(params["v"]), samples=params["samples"],
                       seed=params["seed"])
    doc = L.dump_json({"estimate_re": est.estimate.real, "estimate_im": est.estimate.imag,
                       "samples": est.samples, "stderr": est.stderr})
    return {"est": est, "doc": doc}


def run_cocycle(L, params):
    import numpy as np

    model = _model(L, params)
    rng = random.Random(params["seed"])
    d = params["d"]
    residuals = []
    for _ in range(params["samples"]):
        v, vp, u = (np.array(_gauss_vec(rng, d)) for _ in range(3))
        residuals.append((L.cocycle_check(model, v, vp, u), L.density_ratio_check(model, v, u)))
    doc = L.dump_json({"cocycle_max_residual": max(r[0] for r in residuals),
                       "density_ratio_max_residual": max(r[1] for r in residuals)})
    return {"residuals": residuals, "doc": doc}


def run_eta(L, params):
    import numpy as np

    model = _model(L, params)
    got = [L.eta(model, np.array(v), np.array(u)) for v, u in params["pairs"]]
    return {"got": got, "doc": L.dump_json({"estimates": got})}


def run_weyl(L, params):
    import numpy as np

    model = _model(L, params)
    rng = random.Random(params["seed"])
    d = params["d"]
    worst = 0.0
    for _ in range(params["count"]):
        v, vp, u = (np.array(_gauss_vec(rng, d)) for _ in range(3))
        f = L.random_test_function(rng, d)
        worst = max(worst, abs(L.weyl_relation_check(model, v, vp, f, u)))
    return {"worst": worst, "doc": L.dump_json({"max_residual": worst})}


def run_pd(L, params):
    import numpy as np

    model = _model(L, params)
    rng = random.Random(params["seed"])
    vectors = [np.array(_gauss_vec(rng, params["d"])) for _ in range(params["count"])]
    min_eig = L.positive_definiteness_check(model.Z, vectors)
    return {"min_eig": min_eig, "doc": L.dump_json({"min_eigenvalue": min_eig})}


# ---------------------------------------------------------------------------
# cli: ccr_hopf.cli.main(argv) in-process

# bad input, all expected to exit 2; the last four are ROADMAP item-5
# leaks, with the way each one ends today
CLI_BAD = (
    ("parse-error", ["normalize", "pi(0)*"], None),
    ("unknown-check", ["hopf-check", "--checks", "coassociativity,nosuch"], None),
    ("bad-variant", ["normalize", "phi(0)", "--variant", "twisted"], None),
    ("missing-gram", ["normalize", "phi(0)", "--gram", "{out}/no-such-gram.json"], None),
    ("leak-v-nan", ["fock", "genfun", "--v", "nan"], "escaped ValueError"),
    ("leak-r-overflow", ["fock", "spectrum", "--family", "uniform", "--r", "1e308"],
     "escaped OverflowError"),
    ("leak-bad-gram-json", ["normalize", "phi(0)", "--gram", "{out}/malformed-gram.json"],
     "escaped JSONDecodeError"),
    ("leak-trend-one-point", ["fock", "trend", "--dvalues", "1", "--nmax", "12"], "exit 1"),
)
CLI_BAD_PER_CYCLE = 4


def _variant_flags(rng, slot):
    variant, basis = CONFIGS[slot % len(CONFIGS)]
    flags = ["--variant", variant, "--basis", basis]
    if variant != "undeformed" and slot % 3 == 1:
        q, c = numeric_qc(rng)
        flags += ["--q", repr(q), "--c", repr(c)]
    return variant, basis, flags


def _cli_argv(rng, kind, out_dir, slot):
    """(argv, expected exit code) for one valid invocation; discrete
    choices rotate with the slot."""
    if kind in ("normalize", "commutator", "adjoint", "convert"):
        variant, basis, flags = _variant_flags(rng, slot)
        pool = letters(variant, basis, 2)
        if kind == "normalize":
            # --numeric evaluates coefficients, so it needs a numeric kappa
            # and constant input coefficients
            numeric = slot % 3 == 0 and (variant == "undeformed" or "--q" in flags)
            argv = ["normalize", expr_text(rng, pool, 4, constant=numeric)] + flags
            if numeric:
                argv.append("--numeric")
            if slot % 5 == 1:
                argv += ["--schedule", "rightmost"]
            if slot % 5 == 2:
                argv += ["--gram", os.path.join(out_dir, f"gram-{rng.randrange(4)}.json")]
            return argv, 0
        if kind == "commutator":
            return ["commutator", expr_text(rng, pool, 3, 2), expr_text(rng, pool, 3, 2)] + flags, 0
        if kind == "adjoint":
            return ["adjoint", expr_text(rng, pool, 5)] + flags, 0
        other = "ladder" if basis == "phi-pi" else "phi-pi"
        return ["convert", expr_text(rng, pool, 3, 2), "--to", other] + flags, 0
    if kind in ("coproduct", "counit", "antipode"):
        flavor = ("classical", "deformed")[slot % 2]
        variant = "deformed" if flavor == "deformed" else _VARIANTS[slot // 2 % 3]
        pool = letters("deformed-strict" if flavor == "deformed" else "undeformed", "phi-pi", 2)
        return [kind, expr_text(rng, pool, 3, 2), "--flavor", flavor, "--variant", variant], 0
    seed = ["--seed", str(rng.randrange(1 << 20))]
    if kind == "hopf-classical":
        return ["hopf-check", "--degree", "2", "--modes", "1",
                "--variant", _VARIANTS[slot % 3]] + seed, 0
    if kind == "hopf-deformed":
        # cocommutativity fails under the twisted coproduct
        return ["hopf-check", "--flavor", "deformed", "--variant", "deformed",
                "--degree", "1", "--modes", "2"] + seed, 1
    if kind == "hopf-relations":
        # the recorded 2 I(x)I finding
        return ["hopf-check", "--checks", "respects-relations", "--modes", "3",
                "--variant", _VARIANTS[slot % 3]] + seed, 1
    if kind == "hopf-subset":
        return ["hopf-check", "--checks", "counit,antipode", "--degree", "2", "--modes", "2",
                "--variant", _VARIANTS[slot % 3]] + seed, 0
    if kind == "fock-matrices":
        return ["fock", "matrices", "--d", str(1 + slot % 2),
                "--nmax", str(rng.randint(3, 5))], 0
    if kind == "fock-spectrum":
        return ["fock", "spectrum", "--d", "2", "--nmax", str(rng.randint(8, 12)),
                "--family", FAMILIES[slot % 3],
                "--r", repr(rng.uniform(0.1, 0.5))], 0
    if kind == "fock-genfun":
        return ["fock", "genfun", "--d", "1", "--nmax", str(rng.randint(20, 30)),
                "--v", repr(rng.uniform(-1.0, 1.0))], 0
    if kind == "fock-transfer":
        return ["fock", "transfer", "--d", "2", "--nmax", str(rng.randint(6, 10)),
                "--q", repr(rng.uniform(0.3, 2.5)), "--c", repr(rng.uniform(0.3, 2.5))] + seed, 0
    if kind == "fock-trend":
        return ["fock", "trend", "--nmax", str(rng.randint(14, 20))], 0
    sub = kind.split("-", 1)[1]
    argv = ["measure", sub, "--d", "2"] + seed
    if slot % 2:
        argv += ["--scale", repr(rng.uniform(0.5, 1.5))]
    if sub == "bochner":
        argv += ["--samples", str(rng.randint(10000, 50000))]
    elif sub == "cocycle":
        argv += ["--samples", str(rng.randint(20, 60))]
    elif sub == "pd-check":
        argv += ["--count", str(rng.randint(8, 30))]
    elif sub == "weyl":
        argv += ["--count", str(rng.randint(60, 100))]
    return argv, 0


# (kind, tier, count) per cycle of 40 with the 4 bad inputs.  The "heavy"
# invocations (about 0.03-0.1 s each) take ranks 85-100, so the 90th rank
# falls five points inside them and the 50th deep in the body.
CLI_PLAN = (("normalize", "body", 7), ("commutator", "body", 3), ("adjoint", "body", 2),
            ("convert", "body", 2), ("coproduct", "body", 2), ("counit", "body", 2),
            ("antipode", "body", 2), ("fock-matrices", "body", 1), ("fock-spectrum", "body", 2),
            ("fock-genfun", "body", 2), ("fock-transfer", "body", 1),
            ("measure-cocycle", "body", 1), ("measure-eta", "body", 1),
            ("measure-bochner", "body", 1), ("measure-pd-check", "body", 1),
            ("hopf-classical", "heavy", 1), ("hopf-deformed", "heavy", 1),
            ("hopf-relations", "heavy", 1), ("hopf-subset", "heavy", 1),
            ("fock-trend", "heavy", 1), ("measure-weyl", "heavy", 1))


def cli_setup(rng, out_dir=CLI_DIR):
    """Write the gram files the argv mix refers to."""
    os.makedirs(out_dir, exist_ok=True)
    for i in range(4):
        with open(os.path.join(out_dir, f"gram-{i}.json"), "w", encoding="utf-8") as fh:
            json.dump(gram_rows(rng, 2), fh)
    with open(os.path.join(out_dir, "malformed-gram.json"), "w", encoding="utf-8") as fh:
        fh.write("[[1, 0], [0, 1")


def cli_cycle(rng, index: int) -> list:
    out_dir = CLI_DIR
    reqs = []
    per_cycle = sum(count for _, _, count in CLI_PLAN)
    for kind, tier, count in CLI_PLAN:
        for _ in range(count):
            # the slot advances by one more than a cycle holds, so each
            # position's choices rotate from cycle to cycle
            slot = index * (per_cycle + 1) + len(reqs)
            argv, expect = _cli_argv(rng, kind, out_dir, slot)
            # the density-ratio residual is judged against an absolute
            # 1e-10, which large ratios exceed
            defect = "cocycle-absolute-ratio" if kind == "measure-cocycle" else None
            reqs.append(Request("cli", tier, {"argv": argv, "expect": expect, "name": kind},
                                defect))
    if index == 0:
        # the end-to-end acceptance path, once per run
        argv = ["selftest", "--seed", str(rng.randrange(1 << 20))]
        reqs[0] = Request("cli", "selftest", {"argv": argv, "expect": 0, "name": "selftest"},
                          "selftest-absolute-ratio")
    for i in range(CLI_BAD_PER_CYCLE):
        name, argv, leak = CLI_BAD[(index * CLI_BAD_PER_CYCLE + i) % len(CLI_BAD)]
        argv = [a.replace("{out}", out_dir) for a in argv]
        params = {"argv": argv, "expect": 2, "name": name, "leak": leak}
        reqs.append(Request("cli", "body", params, "cli-leak" if leak else None))
    rng.shuffle(reqs)
    return reqs


def run_cli(L, params):
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = L.main(params["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is the failure being counted
            code, escaped = None, f"{type(exc).__name__}: {exc}"
    return {"code": code, "escaped": escaped, "stdout": out.getvalue(), "doc": out.getvalue()}


# ---------------------------------------------------------------------------
# Workload table

@dataclass(frozen=True)
class Workload:
    modules: dict
    cycle: object
    # seconds one cycle takes on the reference box (2 vCPUs, Python
    # 3.11.7) at the commit that added the benchmark, plus any one-off
    # cost in cycle 0; they turn --seconds into a fixed amount of work,
    # the same on every commit, so a faster commit simply ends sooner
    cycle_s: float
    first_extra_s: float = 0.0

    def cycles(self, seconds: float) -> int:
        return max(1, 1 + round((seconds - self.first_extra_s - self.cycle_s) / self.cycle_s))


_ALGEBRA = ("Presentation", "normal_form", "commutator", "adjoint", "basis_convert")
_REPORTS = ("expr_json", "tensor_json", "axiom_report_json", "dump_json")

WORKLOADS = {
    "rewrite": Workload(
        {"algebra": _ALGEBRA, "exprparse": ("parse_expr",), "hopf": ("HopfSpec", "coproduct"),
         "reports": _REPORTS},
        rewrite_cycle, 4.0),
    "hopf": Workload(
        {"algebra": ("Presentation",),
         "hopf": ("HopfSpec", "check_coassociativity", "check_counit", "check_antipode",
                  "cocommutativity_probe", "check_multiplicativity", "check_respects_relations"),
         "reports": _REPORTS},
        hopf_cycle, 8.8),
    "numeric": Workload(
        {"algebra": ("Presentation", "normal_form"), "exprparse": ("parse_expr",),
         "fock": ("ModeSpace", "BogoliubovSpec", "number_operator", "smallest_eigenvalues",
                  "vacuum_generating_function", "transfer_rep", "commutator_matrix",
                  "restricted_norm", "expr_matrix"),
         "measure": ("GaussianModel", "bochner_mc", "cocycle_check", "density_ratio_check",
                     "eta", "weyl_relation_check", "positive_definiteness_check",
                     "random_test_function"),
         "reports": _REPORTS},
        numeric_cycle, 3.8),
    "cli": Workload({"cli": ("main",)}, cli_cycle, 0.6, first_extra_s=4.2),
}

EXECUTORS = {
    "normalize": run_normalize,
    "commutator": run_commutator,
    "adjoint": run_adjoint,
    "convert": run_convert,
    "power-field": run_normalize,
    "power-ladder": run_normalize,
    "coproduct": run_coproduct,
    "axiom": run_axiom,
    "spectrum": run_spectrum,
    "genfun": run_genfun,
    "transfer": run_transfer,
    "exprmat": run_exprmat,
    "bochner": run_bochner,
    "cocycle": run_cocycle,
    "eta": run_eta,
    "weyl": run_weyl,
    "pd": run_pd,
    "cli": run_cli,
}
