"""Independent checks of every request's answer, run outside the timed
region.

Each check returns ``None`` when the answer is right and a one-line
reason when it is not.  The references are closed forms from the paper
and its README (boson rook numbers for normal ordering, the verdict
table of the Hopf checks, Gaussian closed forms), dense eigen-solves of
an independently built operator, and the acceptance suite's tolerances.
A check that cannot run raises, which stops the benchmark.
"""

from __future__ import annotations

import itertools
import json
import math

from ccr_hopf.algebra import (
    FAM_AM,
    FAM_AP,
    FAM_I,
    FAM_K,
    FAM_KINV,
    FAM_PHI,
    FAM_PI,
    Expr,
    am,
    ap,
    gen_I,
    gen_K,
    gen_Kinv,
    normal_form,
    commutator,
    phi,
    pi,
    unit,
    word_text,
)
from ccr_hopf.exprparse import parse_expr
from ccr_hopf.hopf import tensor_of
from ccr_hopf.scalars import IMAG, Scalar

# acceptance-suite tolerances (selftest criteria 8-12, fock genfun)
GENFUN_TOL = 1e-8
TRANSFER_TOL = 1e-12
FUNCTOR_TOL = 1e-10
COCYCLE_TOL = 1e-10
ETA_TOL = 1e-8
WEYL_TOL = 1e-10
PD_TOL = 1e-10
# eigenvalues against the block-dense reference; a dropped cluster
# member is off by about 1
EIG_TOL = 1e-6
# Monte Carlo: five standard errors, a false-alarm rate near 6e-7 per
# request, where the selftest's three (about 3e-3) would flag a clean
# run now and then over hundreds of seeded draws
MC_SIGMAS = 5.0


def _scalar(text: str) -> Scalar:
    return parse_expr(f"({text})").coefficient(())


def _power(e: Expr, n: int) -> Expr:
    out = unit()
    for _ in range(n):
        out = out * e
    return out


def rook_form(coef: Scalar, lower, raise_, a: int, b: int, contraction: Scalar,
              central: Expr | None = None) -> Expr:
    """Normal form of central * lower^a raise^b for a pair with [lower,
    raise] = contraction * I and I*I = I: sum_k k! C(a,k) C(b,k)
    contraction^k raise^(b-k) lower^(a-k), with one I on every k >= 1
    term (boson rook numbers; Varvak, JCTA 112, 2005).  ``central`` is a
    word in K, Kinv, which sorts between I and the field letters."""
    central = unit() if central is None else central
    out = Expr.zero()
    for k in range(min(a, b) + 1):
        c = coef * Scalar.rational(math.factorial(k) * math.comb(a, k) * math.comb(b, k))
        c = c * contraction ** k if k else c
        word = (gen_I() if k else unit()) * central * _power(raise_, b - k) * _power(lower, a - k)
        out = out + word * c
    return out


def _field_contraction(p, j, k):
    return -IMAG * p.gram_scalar(j, k) * p.kappa_scalar


def _ladder_contraction(p, j, k):
    return p.gram_scalar(j, k) * p.kappa_scalar


def _is_normal_word(word, p) -> bool:
    if list(word) != sorted(word):
        return False
    fams = [f for f, _ in word]
    if p.idempotent_identity and fams.count(FAM_I) > 1:
        return False
    if p.variant == "deformed-collapsed" and (FAM_K in fams or FAM_KINV in fams):
        return False
    if p.variant == "deformed-strict" and FAM_K in fams and FAM_KINV in fams:
        return False
    alien = (FAM_AP, FAM_AM) if p.basis == "phi-pi" else (FAM_PHI, FAM_PI)
    return not any(f in alien for f in fams)


def _normal_shape(nf: Expr, p):
    for w in nf.terms:
        if not _is_normal_word(w, p):
            return f"word {word_text(w)} is not in normal order"
    return None


# ---------------------------------------------------------------------------
# rewrite


def check_normalize(params, out):
    p, nf = out["p"], out["nf"]
    bad = _normal_shape(nf, p)
    if bad:
        return bad
    if normal_form(nf, p) != nf:
        return "normal form is not idempotent"
    if params.get("rightmost") and normal_form(out["e"], p, "rightmost") != nf:
        return "leftmost and rightmost schedules disagree"
    return None


def check_power(params, out):
    p, nf = out["p"], out["nf"]
    n, j = params["n"], params["j"]
    coef = _scalar(params["coef"])
    if params["basis"] == "phi-pi":
        want = rook_form(coef, pi(j), phi(j), n, n, _field_contraction(p, j, j))
    else:
        want = rook_form(coef, am(j), ap(j), n, n, _ladder_contraction(p, j, j))
    if nf != want:
        return f"normal form differs from the rook-number closed form at n={n}"
    return None


def check_commutator(params, out):
    p, nf = out["p"], out["nf"]
    pair = params.get("pair")
    if pair:
        lo, j, _, k = pair
        g = _field_contraction(p, j, k) if lo == "pi" else _ladder_contraction(p, j, k)
        want = gen_I() * g
        return None if nf == want else f"[{params['left']},{params['right']}] != {g}*I"
    bad = _normal_shape(nf, p)
    if bad:
        return bad
    if commutator(out["y"], out["x"], p) != -nf:
        return "commutator is not antisymmetric"
    return None


def check_adjoint(params, out):
    swap = {FAM_AP: FAM_AM, FAM_AM: FAM_AP}
    want = Expr.zero()
    for w, c in out["e"].terms.items():
        w2 = tuple((swap.get(f, f), m) for f, m in reversed(w))
        want = want + Expr.from_word(w2, c.conjugate())
    return None if out["nf"] == want else "adjoint differs from reverse-swap-conjugate"


def check_convert(params, out):
    p, nf = out["p"], out["nf"]
    n, j = params["n"], params["j"]
    if any(f in (FAM_AP, FAM_AM) for w in nf.terms for f, _ in w):
        return "converted form still holds ladder letters"
    back = normal_form(nf, p)  # p is the ladder presentation
    want = rook_form(_scalar(params["coef"]), am(j), ap(j), n, n, _ladder_contraction(p, j, j))
    return None if back == want else "basis round trip differs from the rook closed form"


def _tensor_terms(pairs):
    out = {}
    for (e1, e2), c in pairs:
        for w1, c1 in e1.terms.items():
            for w2, c2 in e2.terms.items():
                key = (w1, w2)
                v = c * c1 * c2
                cur = out.get(key)
                v = v if cur is None else cur + v
                if v.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = v
    return out


def check_coproduct(params, out):
    """Delta(pi^n phi^n) expanded binomially, each slot rook-reduced."""
    p, t = out["p"], out["t"]
    n, j = params["n"], params["j"]
    coef = _scalar(params["coef"])
    g = _field_contraction(p, j, j)
    pairs = []
    for a in range(n + 1):
        for b in range(n + 1):
            c = coef * Scalar.rational(math.comb(n, a) * math.comb(n, b))
            if params["flavor"] == "deformed":
                # (pi(x)K + Kinv(x)pi)^n (phi(x)K + Kinv(x)phi)^n with K central
                lc, rc = _power(gen_Kinv(), 2 * n - a - b), _power(gen_K(), a + b)
            else:
                lc = rc = unit()
            one = Scalar.rational(1)
            left = rook_form(one, pi(j), phi(j), a, b, g, lc)
            right = rook_form(one, pi(j), phi(j), n - a, n - b, g, rc)
            pairs.append(((left, right), c))
    want = _tensor_terms(pairs)
    if set(want) != set(t.terms) or any(t.terms[k] != want[k] for k in want):
        return f"coproduct differs from the binomial closed form at n={n}"
    return None


# ---------------------------------------------------------------------------
# hopf: the verdict table of the README and the acceptance suite


def _basis_words(degree: int, modes: int, strict: bool):
    fields = [(FAM_PHI, j) for j in range(modes)] + [(FAM_PI, j) for j in range(modes)]
    letters = [(FAM_I, 0)] + ([(FAM_K, 0), (FAM_KINV, 0)] if strict else []) + fields
    words = []
    for n in range(degree + 1):
        for w in itertools.combinations_with_replacement(sorted(letters), n):
            fams = [f for f, _ in w]
            if fams.count(FAM_I) > 1 or (FAM_K in fams and FAM_KINV in fams):
                continue
            words.append(w)
    return words


def check_axiom(params, out):
    rep = out["report"]
    check = params["check"]
    witnesses = {f.witness: f for f in rep.failures}
    if params["flavor"] == "classical":
        if check != "respects-relations":
            return None if rep.status == "pass" and not rep.failures else f"classical {check} failed"
        two = Scalar.rational(2)
        want = {"Delta on I*I = I": tensor_of(gen_I(), gen_I()) * two, "S on I*I = I": gen_I() * two}
        if rep.status != "fail" or set(witnesses) != set(want):
            return f"respects-relations witnesses {sorted(witnesses)}"
        if any(witnesses[k].residual != want[k] for k in want) or not rep.notes:
            return "respects-relations residuals differ from 2 I(x)I and 2 I"
        return None
    if check != "cocommutativity" or params["variant"] != "deformed-strict":
        return None if rep.status == "pass" and not rep.failures else f"deformed {check} failed"
    # twisted coproduct: cocommutative exactly on the words without fields
    want = {word_text(w) for w in _basis_words(params["degree"], params["modes"], True)
            if any(f in (FAM_PHI, FAM_PI) for f, _ in w)}
    if rep.status != "fail" or set(witnesses) != want:
        return "cocommutativity witnesses differ from the words holding a field letter"
    K, Kinv = gen_K(), gen_Kinv()
    for j in range(params["modes"]):
        for x in (phi(j), pi(j)):
            res = tensor_of(x, K - Kinv) + tensor_of(Kinv - K, x)
            if witnesses[word_text(next(iter(x.terms)))].residual != res:
                return "degree-1 cocommutativity residual differs from x(x)(K-Kinv) + (Kinv-K)(x)x"
    return None


# ---------------------------------------------------------------------------
# numeric


def _states(d: int, nmax: int):
    """Occupation tuples with total <= nmax in lexicographic order."""
    return [s for s in itertools.product(range(nmax + 1), repeat=d) if sum(s) <= nmax]


def number_operator_blocks(d: int, nmax: int, rs):
    """Dense parity blocks of the truncated squeezed number operator
    sum_j b+_j b-_j, b-_j = cosh(r_j) a-_j + sinh(r_j) a+_j, built from
    matrix elements; the operator keeps each mode's occupation parity."""
    import numpy as np

    states = _states(d, nmax)
    parity = {s: tuple(n % 2 for n in s) for s in states}
    blocks = {}
    for s in states:
        blocks.setdefault(parity[s], []).append(s)
    out = []
    for members in blocks.values():
        index = {s: i for i, s in enumerate(members)}
        mat = np.zeros((len(members), len(members)))
        for s, i in index.items():
            total = sum(s)
            for j, r in enumerate(rs):
                ch, sh = math.cosh(r), math.sinh(r)
                n = s[j]
                diag = ch * ch * n + (sh * sh * (n + 1) if total + 1 <= nmax else 0.0)
                mat[i, i] += diag
                if total + 2 <= nmax:
                    t = s[:j] + (n + 2,) + s[j + 1:]
                    mat[index[t], i] += ch * sh * math.sqrt((n + 1) * (n + 2))
                if n >= 2:
                    t = s[:j] + (n - 2,) + s[j + 1:]
                    mat[index[t], i] += ch * sh * math.sqrt(n * (n - 1))
        out.append(mat)
    return out


def squeezing(params) -> tuple:
    """The r_j of a spectrum request, from its family, r and d."""
    d, r = params["d"], float(params["r"])
    if params["family"] == "fock":
        return (0.0,) * d
    if params["family"] == "uniform":
        return (r,) * d
    return tuple(r * 2.0 ** -j for j in range(d))


def reference_spectrum(d, nmax, rs):
    """Every eigenvalue of the truncated operator, ascending."""
    import numpy as np

    return np.sort(np.concatenate([np.linalg.eigvalsh(b)
                                   for b in number_operator_blocks(d, nmax, rs)]))


def check_spectrum(params, out):
    """Returns (reason or None, max eigenvalue error)."""
    rs = squeezing(params)
    if len(out["rs"]) != len(rs) or any(abs(a - b) > 1e-15 * max(1.0, abs(b))
                                        for a, b in zip(out["rs"], rs)):
        return f"squeezing {list(out['rs'])} != {list(rs)}", math.inf
    ref = reference_spectrum(params["d"], params["nmax"], rs)[:params["k"]]
    eigs = out["eigs"]
    if len(eigs) != len(ref):
        return f"{len(eigs)} eigenvalues for k={params['k']}", math.inf
    err = max(abs(a - b) for a, b in zip(eigs, ref))
    occ = sum(math.sinh(r) ** 2 for r in rs)
    if abs(out["occupancy"] - occ) > 1e-9 * max(1.0, occ):
        return f"vacuum occupancy {out['occupancy']} != sum sinh^2 r = {occ}", err
    if err > EIG_TOL * max(1.0, max(abs(x) for x in ref)):
        return (f"eigenvalues {[round(x, 6) for x in eigs]} != reference "
                f"{[round(float(x), 6) for x in ref]}"), err
    return None, err


def check_genfun(params, out):
    want = math.exp(-sum(x * x for x in params["v"]) / 4.0)
    gap = abs(out["z"] - want)
    return None if gap <= GENFUN_TOL else f"genfun off by {gap:.3e}"


def _deformation_constant(q, c):
    t = math.log(q)
    return math.sinh(c * t) / (c * math.sinh(t))


def _safe_columns(d, nmax, degree):
    import numpy as np

    return np.array([i for i, s in enumerate(_states(d, nmax)) if sum(s) <= nmax - degree])


def check_transfer(params, out):
    import numpy as np

    want = _deformation_constant(params["q"], params["c"])
    if abs(out["constant"] - want) > 1e-12 * max(1.0, abs(want)):
        return f"C(q,c) {out['constant']} != {want}"
    cols = _safe_columns(params["d"], params["nmax"], 2)
    comm = out["comm"].toarray()[:, cols]
    target = np.zeros_like(comm)
    target[cols, np.arange(len(cols))] = -1j * want * float(np.dot(params["v"], params["w"]))
    residual = float(np.linalg.norm(comm - target))
    if residual >= TRANSFER_TOL or out["residual"] >= TRANSFER_TOL:
        return f"transfer commutator residual {residual:.3e}"
    return None


def check_exprmat(params, out):
    import numpy as np

    cols = _safe_columns(2, 10, 3)
    for a, b in out["pairs"]:
        res = float(np.linalg.norm((a - b).toarray()[:, cols]))
        if res >= FUNCTOR_TOL:
            return f"expression and normal form differ by {res:.3e} on the safe subspace"
    return None


def _kmatrix(params):
    import numpy as np

    if params["K"] is None:
        return math.sqrt(2.0) * np.eye(params["d"])
    return np.array(params["K"], dtype=float)


def check_bochner(params, out):
    import numpy as np

    w = np.linalg.solve(_kmatrix(params), np.array(params["v"]))
    want = math.exp(-0.5 * float(w @ w))
    est = out["est"]
    if est.samples != params["samples"]:
        return f"{est.samples} samples drawn for {params['samples']}"
    gap = abs(est.estimate - want)
    return None if gap <= MC_SIGMAS * est.stderr else f"MC gap {gap:.3e} > 5 se {est.stderr:.3e}"


def _cocycle_value(k, v, u):
    """a_K(v, u) = exp(-|K^-1 C v|^2 / 4 - <Cv, u> / 2) with C = K K^T."""
    import numpy as np

    cv = k @ k.T @ v
    w = np.linalg.solve(k, cv)
    return math.exp(-0.25 * float(w @ w) - 0.5 * float(cv @ u))


def check_cocycle(params, out):
    """Selftest tolerance, relative to the size of the compared values:
    the identities are exact, so only rounding of large ratios remains."""
    import random

    import numpy as np
    from workloads import _gauss_vec

    k = _kmatrix(params)
    rng = random.Random(params["seed"])
    for res_c, res_r in out["residuals"]:
        v, vp, u = (np.array(_gauss_vec(rng, params["d"])) for _ in range(3))
        scale_c = max(1.0, _cocycle_value(k, v + vp, u))
        scale_r = max(1.0, _cocycle_value(k, v, u) ** 2)
        if res_c >= COCYCLE_TOL * scale_c or res_r >= COCYCLE_TOL * scale_r:
            return f"cocycle residuals {res_c:.3e}, {res_r:.3e} at scales {scale_c:.3g}, {scale_r:.3g}"
    return None


def check_eta(params, out):
    import numpy as np

    k = _kmatrix(params)
    c = k @ k.T
    for (v, u), got in zip(params["pairs"], out["got"]):
        want = -0.5 * float((c @ np.array(v)) @ np.array(u))
        if abs(got - want) >= ETA_TOL:
            return f"eta {got} != -<Cv,u>/2 = {want}"
    return None


def check_weyl(params, out):
    return None if out["worst"] < WEYL_TOL else f"Weyl residual {out['worst']:.3e}"


def check_pd(params, out):
    return None if out["min_eig"] >= -PD_TOL else f"min eigenvalue {out['min_eig']:.3e}"


# ---------------------------------------------------------------------------
# cli


def selftest_failures(doc) -> set:
    """Failed parts of a selftest document: ``criterion N``, or for
    criterion 12 its single checks.  A Monte-Carlo bracket counts as
    failed only beyond five standard errors (see ``MC_SIGMAS``)."""
    failed = set()
    for c in doc["results"]["criteria"]:
        if c["passed"]:
            continue
        if c["criterion"] != 12:
            failed.add(f"criterion {c['criterion']}")
            continue
        det = c["details"]
        for part, value, tol in (("cocycle", "cocycle_max_residual", "cocycle_tolerance"),
                                 ("density-ratio", "density_ratio_max_residual",
                                  "density_ratio_tolerance"),
                                 ("eta", "eta_max_error", "eta_tolerance"),
                                 ("weyl", "weyl_max_residual", "weyl_tolerance")):
            if not det[value] < det[tol]:
                failed.add(f"criterion 12 {part}")
        if any(b["gap"] > MC_SIGMAS * b["stderr"] for b in det["bochner"].values()):
            failed.add("criterion 12 bochner")
    return failed


def check_cli(params, out):
    if out["escaped"]:
        return f"escaped exception {out['escaped']}"
    code, expect = out["code"], params["expect"]
    doc = None
    if code in (0, 1):
        try:
            doc = json.loads(out["stdout"])
        except ValueError:
            return f"exit {code} without a JSON document"
        if doc.get("passed") is not (code == 0):
            return f"exit {code} but passed={doc.get('passed')}"
    if code == 1 and params["name"] == "selftest":
        # exit 1 from a Monte-Carlo bracket missed by 3-5 se alone is a right answer
        failed = selftest_failures(doc)
        return f"selftest failed {sorted(failed)}" if failed else None
    if params["name"] == "measure-bochner" and code == 1:
        # a Monte-Carlo bracket misses now and then; accept it inside 5 se
        res = doc["results"]
        if res["gap"] <= MC_SIGMAS * res["stderr"]:
            return None
    if code != expect:
        return f"exit {code}, expected {expect}"
    return None


# ---------------------------------------------------------------------------
# Known defects.  A failed request registered against one is excused only
# when its answer shows that defect and nothing else.


def lanczos_missed(params, out) -> bool:
    """Fixed-start Lanczos missed some of the smallest eigenvalues: every
    value it returned is a true eigenvalue, the rest of the answer is
    right, and only the list falls short of the k smallest."""
    import numpy as np

    if isinstance(out, Exception):
        return False
    rs = squeezing(params)
    occ = sum(math.sinh(r) ** 2 for r in rs)
    if len(out["eigs"]) != params["k"] or abs(out["occupancy"] - occ) > 1e-9 * max(1.0, occ):
        return False
    full = reference_spectrum(params["d"], params["nmax"], rs)
    tol = EIG_TOL * max(1.0, float(full[params["k"] - 1]))
    return all(float(np.min(np.abs(full - x))) <= tol for x in out["eigs"])


def _cli_doc(out):
    if isinstance(out, Exception) or out["escaped"] or out["code"] != 1:
        return None
    try:
        return json.loads(out["stdout"])
    except ValueError:
        return None


def selftest_ratio_only(params, out) -> bool:
    """The selftest failed on criterion 12's density-ratio residual alone."""
    doc = _cli_doc(out)
    return doc is not None and selftest_failures(doc) == {"criterion 12 density-ratio"}


def cocycle_ratio_only(params, out) -> bool:
    """``measure cocycle`` failed on its density-ratio residual alone."""
    doc = _cli_doc(out)
    if doc is None:
        return False
    res = doc["results"]
    return res["cocycle_max_residual"] < res["tolerance"] <= res["density_ratio_max_residual"]


def leak_signature(params, out) -> bool:
    """A bad input ended the way its registered leak does: the named
    exception escaped, or the named wrong exit code came back."""
    if isinstance(out, Exception):
        return False
    seen = f"escaped {out['escaped'].split(':')[0]}" if out["escaped"] else f"exit {out['code']}"
    return seen == params["leak"]


DEFECTS = {
    "lanczos-fixed-start": lanczos_missed,
    "selftest-absolute-ratio": selftest_ratio_only,
    "cocycle-absolute-ratio": cocycle_ratio_only,
    "cli-leak": leak_signature,
}


CHECKS = {
    "normalize": check_normalize,
    "commutator": check_commutator,
    "adjoint": check_adjoint,
    "convert": check_convert,
    "power-field": check_power,
    "power-ladder": check_power,
    "coproduct": check_coproduct,
    "axiom": check_axiom,
    "genfun": check_genfun,
    "transfer": check_transfer,
    "exprmat": check_exprmat,
    "bochner": check_bochner,
    "cocycle": check_cocycle,
    "eta": check_eta,
    "weyl": check_weyl,
    "pd": check_pd,
    "cli": check_cli,
}
