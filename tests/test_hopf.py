"""Structure maps and axiom checkers, including the failures that are
part of the contract (their residuals are pinned exactly)."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccr_hopf import hopf
from ccr_hopf.algebra import (
    FAM_PHI,
    FAM_PI,
    GEN_I,
    GEN_K,
    GEN_KINV,
    AlgebraError,
    Expr,
    Presentation,
    am,
    gen_I,
    gen_K,
    gen_Kinv,
    gen_text,
    legal_letters,
    normal_form,
    phi,
    pi,
    random_expr,
    relations,
    unit,
    word_text,
    _acc,
    _expand_word,
    _pair_rule,
    _reduce_word,
)
from ccr_hopf.hopf import (
    MAX_CHECK_WORDS,
    MAX_SWEEP_TERMS,
    MAX_TRIAL_LETTERS,
    MULTIPLICATIVITY_TRIALS,
    AxiomReport,
    Failure,
    HopfError,
    HopfSpec,
    TensorExpr,
    antipode,
    check_antipode,
    check_coassociativity,
    check_counit,
    check_multiplicativity,
    check_respects_relations,
    cocommutativity_probe,
    coproduct,
    counit,
    sorted_basis_words,
    tensor_of,
    _co_nf,
    _covered_letters,
    _eps_free,
    _record,
    _scalar_side,
    _SlotTable,
)
from ccr_hopf.reports import expr_json
from ccr_hopf.scalars import IMAG, KAPPA, ONE, S_PARAM, Scalar, ZERO

CL = HopfSpec.classical()
DF = HopfSpec.deformed()
P_UND = Presentation()
P_FREE = Presentation(idempotent_identity=False)
P_DEF = Presentation(variant="deformed-strict")
P_COL = Presentation(variant="deformed-collapsed")


# the slot-wise reduction the package used before its slot tables, kept as
# the reference that the id-keyed reductions are checked against
def tensor_normal_form(t: TensorExpr, p: Presentation) -> TensorExpr:
    """Per-slot reduction with bilinear recombination.  The distinct
    letters are validated once; every slot word, one holding a letter
    that p expands (see algebra._letter_piece) included, goes through the
    memoized word reducer."""
    letters = tuple(dict.fromkeys(g for k in t.terms for w in k for g in w))
    p.validate_expr(Expr.from_word(letters))
    out = {}
    for k, c in t.terms.items():
        for combo in product(*(_reduce_word(w, p, p._nf_cache).items() for w in k)):
            # most multipliers are ONE: skip those products
            m = ONE
            for _, cw in combo:
                if cw is not ONE:
                    m = cw if m is ONE else m * cw
            _acc(out, tuple(w for w, _ in combo), c if m is ONE else m if c is ONE else c * m)
    return t._like(out)


# the references' tensor product: a TensorExpr is a value with no
# product, since the engine multiplies tensors only as id tuples of a
# _SlotTable
def _tensor_mul(a: TensorExpr, b: TensorExpr) -> TensorExpr:
    """Slot-wise concatenation of a and b, extended bilinearly."""
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            _acc(out, tuple(map(tuple.__add__, k1, k2)), c1 * c2)
    return a._like(out)


def _co_word(word, h):
    """Delta on one word: the product of Delta(g) over its letters."""
    t = tensor_of(unit(), unit())
    for g in word:
        t = _tensor_mul(t, TensorExpr(2, h.delta_gen(g)))
    return t


def _s_free(e, h):
    """S on the free algebra: hopf._s_letters extended linearly, unreduced;
    the reference that antipode is checked against."""
    out = {}
    for w, c in e.terms.items():
        letters, negated = hopf._s_letters(w, h)
        _acc(out, letters, -c if negated else c)
    return e._like(out)


def _co_free(e, h):
    """Delta on the free algebra: _co_word extended linearly, unreduced;
    the reference that _co_nf is checked against."""
    out = TensorExpr(2)
    for w, c in e.terms.items():
        out = out + c * _co_word(w, h)
    return out


def _swap(t):
    """The slot swap of an order-2 tensor."""
    return TensorExpr(2, {(k[1], k[0]): c for k, c in t.terms.items()})


def test_coproduct_generators():
    got = coproduct(phi(0), CL, P_UND)
    assert got == tensor_of(phi(0), unit()) + tensor_of(unit(), phi(0))
    got = coproduct(phi(0), DF, P_DEF)
    assert got == tensor_of(phi(0), gen_K()) + tensor_of(gen_Kinv(), phi(0))
    assert coproduct(unit(), CL, P_UND) == tensor_of(unit(), unit())
    assert coproduct(gen_K(), DF, P_DEF) == tensor_of(gen_K(), gen_K())


@pytest.mark.parametrize("h, p", [(CL, P_UND), (CL, P_DEF), (DF, P_DEF), (DF, P_COL)])
def test_delta_gen_items_match_the_outer_product_form(h, p):
    # delta_gen's word pairs, coefficients and key order are those of the
    # outer-product form it replaced; the order fixes the ids that
    # _SlotTable.reduce assigns
    one, k, kinv = unit(), gen_K(), gen_Kinv()
    families = set()
    for g in legal_letters(p, 2):
        if not h.covers(g):
            continue
        families.add(g[0])
        e = Expr.from_word((g,))
        if h is CL or g == GEN_I:
            want = tensor_of(e, one) + tensor_of(one, e)
        elif g in (GEN_K, GEN_KINV):
            want = tensor_of(e, e)
        else:
            want = tensor_of(e, k) + tensor_of(kinv, e)
        got = h.delta_gen(g)
        assert type(got) is dict
        assert list(got.items()) == list(want.terms.items())
    assert families == ({GEN_I[0], FAM_PHI, FAM_PI} if h is CL
                        else {GEN_I[0], GEN_K[0], GEN_KINV[0], FAM_PHI, FAM_PI})


def test_coproduct_product_word():
    e = phi(0) * pi(0)
    got = coproduct(e, DF, P_DEF)
    want = tensor_normal_form(
        _tensor_mul(coproduct(phi(0), DF, P_DEF), coproduct(pi(0), DF, P_DEF)), P_DEF
    )
    assert got == want


def test_counit_values():
    assert counit(phi(0), CL, P_UND).is_zero()
    assert counit(unit(), CL, P_UND) == ONE
    assert counit(phi(0) * pi(1) + Scalar.rational(3) * unit(), CL, P_UND) == Scalar.rational(3)
    assert counit(gen_K(), DF, P_DEF) == ONE
    assert counit(gen_K() * phi(0), DF, P_DEF).is_zero()


def test_antipode_values():
    assert antipode(phi(0), CL, P_UND) == -phi(0)
    got = antipode(phi(0) * pi(1), CL, P_UND)
    assert got == normal_form(pi(1) * phi(0), P_UND)
    assert antipode(gen_K(), DF, P_DEF) == gen_Kinv()
    assert antipode(gen_Kinv(), DF, P_DEF) == gen_K()


def test_uncovered_generator_errors():
    with pytest.raises(HopfError):
        coproduct(gen_K(), CL, P_DEF)
    with pytest.raises(HopfError):
        coproduct(am(0), DF, P_DEF)
    with pytest.raises(HopfError):
        coproduct(phi(0), DF, P_UND)
    with pytest.raises(HopfError):
        check_coassociativity(CL, Presentation(basis="ladder"))


def test_respects_relations_classical_without_idempotent():
    rep = check_respects_relations(CL, P_FREE)
    assert rep.passed


def test_respects_relations_idempotent_residuals():
    # primitive Delta(I) against I*I = I: residuals 2 I(x)I and 2 I, exactly
    rep = check_respects_relations(CL, P_COL)
    assert not rep.passed
    by_witness = {f.witness: f.residual for f in rep.failures}
    assert set(by_witness) == {"Delta on I*I = I", "S on I*I = I"}
    two = Scalar.rational(2)
    assert by_witness["Delta on I*I = I"] == tensor_of(gen_I(), gen_I()) * two
    assert by_witness["S on I*I = I"] == two * gen_I()
    assert rep.notes


def test_respects_relations_deformed_strict_residual():
    # the kappa*I form of the commutation relation is not Delta-stable;
    # the residual telescopes to -i*kappa*(I (x) (K^2-1) + (Kinv^2-1) (x) I)
    rep = check_respects_relations(DF, P_DEF)
    fails = {f.witness: f.residual for f in rep.failures}
    key = "Delta on pi(0)*phi(0) commutation"
    assert key in fails
    mik = -IMAG * KAPPA
    want = (
        tensor_of(gen_I(), gen_K() * gen_K()) * mik
        + tensor_of(gen_Kinv() * gen_Kinv(), gen_I()) * mik
        + tensor_of(gen_I(), unit()) * (IMAG * KAPPA)
        + tensor_of(unit(), gen_I()) * (IMAG * KAPPA)
    )
    assert fails[key] == want
    # counit and antipode respect the commutation relations; with the
    # idempotent relation excluded, Delta is the sole offender
    p = Presentation(variant="deformed-strict", idempotent_identity=False)
    rep = check_respects_relations(DF, p)
    assert all(f.witness.startswith("Delta") for f in rep.failures)
    assert any(f.witness == key for f in rep.failures)


def test_coassociativity_classical_and_strict():
    assert check_coassociativity(CL, P_UND, degree=3).passed
    assert check_coassociativity(CL, P_DEF, degree=3).passed
    assert check_coassociativity(DF, P_DEF, degree=2).passed


def test_coassociativity_collapsed_residual():
    rep = check_coassociativity(DF, P_COL, degree=1)
    assert not rep.passed
    fails = {f.witness: f.residual for f in rep.failures}
    sm1 = S_PARAM - ONE
    sim1 = S_PARAM ** -1 - ONE
    want = tensor_of(phi(0), gen_I(), gen_I()) * (sm1 * sm1) + tensor_of(
        gen_I(), gen_I(), phi(0)
    ) * (-(sim1 * sim1))
    assert fails["phi(0)"] == want
    # the deformation switched off restores coassociativity
    p1 = Presentation(variant="deformed-collapsed", q=1.0, c=3.0)
    assert check_coassociativity(DF, p1, degree=2).passed


def test_counit_axiom():
    assert check_counit(CL, P_UND, degree=3).passed
    assert check_counit(DF, P_DEF, degree=2).passed
    assert check_counit(DF, P_COL, degree=2).passed


def test_antipode_axiom():
    assert check_antipode(CL, P_UND, degree=3).passed
    assert check_antipode(DF, P_DEF, degree=2).passed


def test_antipode_collapsed_residual():
    # collapsing K breaks the antipode identity off the q=1 point
    rep = check_antipode(DF, P_COL, degree=1)
    fails = {f.witness: f.residual for f in rep.failures}
    key = "m(S x id)Delta on phi(0)"
    assert key in fails
    coeff = Scalar.rational(2) - S_PARAM - S_PARAM ** -1
    assert fails[key] == coeff * normal_form(gen_I() * phi(0), P_COL)
    p1 = Presentation(variant="deformed-collapsed", q=1.0, c=2.0)
    assert check_antipode(DF, p1, degree=2).passed


def test_cocommutativity():
    assert cocommutativity_probe(CL, P_UND, degree=2).passed
    rep = cocommutativity_probe(DF, P_DEF, degree=2)
    assert not rep.passed
    fails = {f.witness: f.residual for f in rep.failures}
    want = (
        tensor_of(phi(0), gen_K() - gen_Kinv())
        + tensor_of(gen_Kinv() - gen_K(), phi(0))
    )
    assert fails["phi(0)"] == want
    # s = 1 through the collapsed variant restores cocommutativity
    p1 = Presentation(variant="deformed-collapsed", q=1.0, c=2.0)
    assert cocommutativity_probe(DF, p1, degree=2).passed
    p2 = Presentation(variant="deformed-collapsed", q=4.0, c=1.0)
    assert not cocommutativity_probe(DF, p2, degree=1).passed


def test_multiplicativity():
    assert check_multiplicativity(CL, P_UND, seed=5).passed
    assert check_multiplicativity(DF, P_DEF, seed=6).passed
    assert check_multiplicativity(DF, P_COL, seed=7).passed


def test_passing_multiplicativity_formats_no_witness(monkeypatch):
    # a trial's witness prints x and y; a passing trial throws it away
    printed = []
    monkeypatch.setattr(Expr, "__str__", lambda e: printed.append(e) or "")
    assert check_multiplicativity(DF, P_DEF, seed=6).passed
    assert printed == []


def _antipode_each_slot(t, h, p):
    """S applied in every slot (no slot reversal), tensor-reduced."""
    def s_each(words):
        return tensor_of(*(_s_free(Expr.from_word(w), h) for w in words)).terms

    return tensor_normal_form(t._linear(s_each), p)


def test_antipode_coalgebra_compatibility():
    # eps(S(w)) = eps(w) and Delta(S(w)) = (S x S)(tau(Delta(w)))
    for w in sorted_basis_words(P_FREE, 3, [(0, 0), (3, 0), (3, 1), (4, 0), (4, 1)]):
        e = Expr.from_word(w)
        assert counit(antipode(e, CL, P_FREE), CL, P_FREE) == counit(e, CL, P_FREE)
        lhs = coproduct(antipode(e, CL, P_FREE), CL, P_FREE)
        rhs = _antipode_each_slot(_swap(coproduct(e, CL, P_FREE)), CL, P_FREE)
        assert tensor_normal_form(lhs - rhs, P_FREE).is_zero()


def test_slot_reduction_soundness():
    rng = random.Random(2741)
    for _ in range(30):
        x = random_expr(rng, P_DEF, 4, 2)
        t = tensor_normal_form(tensor_of(x, unit()), P_DEF)
        assert t.is_zero() == normal_form(x, P_DEF).is_zero()
    # a nonzero looking combination that reduces to zero
    x = pi(0) * phi(0) - phi(0) * pi(0) + IMAG * KAPPA * gen_I()
    assert tensor_normal_form(tensor_of(x, unit()), P_DEF).is_zero()


def test_residuals_are_normal_forms():
    rep = cocommutativity_probe(DF, P_DEF, degree=2)
    for f in rep.failures:
        t = f.residual
        assert tensor_normal_form(t, P_DEF) == t


def test_tensor_expr_basics():
    with pytest.raises(HopfError):
        TensorExpr(4)
    a = tensor_of(phi(0), pi(0))
    b = tensor_of(unit(), unit())
    assert (a - a).is_zero()
    assert _tensor_mul(a, b) == a
    # a tensor is a value: it has no product and no power, and an Expr
    # multiplies it on neither side
    for x, y in ((a, b), (a, phi(0)), (phi(0), a)):
        with pytest.raises(TypeError):
            x * y
    with pytest.raises(TypeError):
        a ** 2
    with pytest.raises(HopfError):
        a + tensor_of(phi(0), phi(0), phi(0))
    # slotwise product and linearity in each slot, over seeded pairs
    rng = random.Random(11)
    for _ in range(20):
        w, x, y, z = (random_expr(rng, P_DEF, 2, 2) for _ in range(4))
        assert _tensor_mul(tensor_of(w, x), tensor_of(y, z)) == tensor_of(w * y, x * z)
        assert tensor_of(w + x, y) == tensor_of(w, y) + tensor_of(x, y)
    assert (a - a).terms == {}
    assert (a + tensor_of(-phi(0), pi(0))).terms == {}
    with pytest.raises(TypeError):
        phi(0) + a
    with pytest.raises(TypeError):
        a * phi(0)
    assert not isinstance(a, Expr)
    assert a * 3 == 3 * a == a + a + a
    assert (a * 0).terms == {}


def test_sorted_basis_words_strict():
    letters = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    words = sorted_basis_words(P_DEF, 2, letters)
    texts = {__import__("ccr_hopf.algebra", fromlist=["word_text"]).word_text(w) for w in words}
    assert "one" in texts
    assert "K^2" in texts
    assert "K*Kinv" not in texts  # contracts to the unit
    assert "I^2" not in texts  # idempotent
    assert "phi(0)*pi(0)" in texts
    assert "pi(0)*phi(0)" not in texts  # not sorted


def _normal_words_reference(p, max_degree, letters):
    """The filter sorted_basis_words replaced, kept as the oracle: every
    sorted candidate word is normal-ordered and kept when it is its own
    normal form."""
    letters = sorted(letters)
    words = [()]
    level = [()]
    for _ in range(max_degree):
        nxt = []
        for w in level:
            start = letters.index(w[-1]) if w else 0
            for g in letters[start:]:
                w2 = w + (g,)
                nf = normal_form(Expr.from_word(w2), p)
                if list(nf.terms) == [w2] and nf.terms[w2] == ONE:
                    nxt.append(w2)
        words.extend(nxt)
        level = nxt
    return words


# the collapsed variant requires I*I = I, so it has no non-idempotent case
@pytest.mark.parametrize(
    "variant, idempotent",
    [("undeformed", True), ("undeformed", False), ("deformed-strict", True),
     ("deformed-strict", False), ("deformed-collapsed", True)],
)
@pytest.mark.parametrize("gram", [None, [[1, ["1/2", "1/3"]], [["1/2", "-1/3"], 2]]])
def test_sorted_basis_words_match_normal_form_filter(variant, idempotent, gram):
    p = Presentation(variant=variant, idempotent_identity=idempotent, gram=gram)
    for h in (CL, DF):
        for modes in (1, 2):
            # every legal letter the flavor covers, the collapsed K and Kinv
            # (never normal there) included
            letters = [g for g in legal_letters(p, modes) if h.covers(g)]
            for degree in range(5):
                want = _normal_words_reference(p, degree, letters)
                assert sorted_basis_words(p, degree, letters) == want


def test_sorted_basis_words_check_their_letters():
    with pytest.raises(AlgebraError, match="not legal"):
        sorted_basis_words(P_UND, 1, [(0, 0), (1, 0), (3, 0)])
    p = Presentation(gram=[[1]])
    with pytest.raises(AlgebraError, match="outside the 1-mode gram"):
        sorted_basis_words(p, 2, [(3, 0), (3, 1)])
    # ladder letters over the phi-pi basis are never normal words
    assert sorted_basis_words(P_UND, 2, [(3, 0), (5, 0)]) == [(), ((3, 0),), ((3, 0), (3, 0))]


# ---------------------------------------------------------------------------
# The shared sweep against the term-by-term loops it replaced


def _co_slot_free(t, slot, h):
    """(Delta (x) id) t for slot 0 and (id (x) Delta) t for slot 1, with
    Delta expanded on the free algebra by _co_word and left unreduced."""
    out = {}
    for k, c in t.terms.items():
        for u, cu in _co_word(k[slot], h).terms.items():
            key = k[:slot] + u + k[slot + 1 :]
            out[key] = out.get(key, ZERO) + c * cu
    return TensorExpr(3, out)


def _hand_relations(p, h, modes):
    """The defining relations (label, L, R) written out by hand, without
    reading the rewrite rules, as the oracle for check_respects_relations.
    The centrality of I, K and Kinv is stated against phi(0) only, so this
    list is a subset of algebra.relations."""
    _covered_letters(h, p, modes, 2)  # raises unless a field generator is covered
    rels = []
    ii = Expr.from_word((GEN_I,))

    def word(*gens):
        return Expr.from_word(tuple(gens))

    for j in range(modes):
        for k in range(modes):
            g = p.gram_scalar(j, k)
            L = word((FAM_PI, j), (FAM_PHI, k))
            R = word((FAM_PHI, k), (FAM_PI, j)) - IMAG * g * p.kappa_scalar * ii
            rels.append((f"pi({j})*phi({k}) commutation", L, R))
    for j in range(modes):
        for k in range(j + 1, modes):
            rels.append((f"[phi({j}),phi({k})] = 0", word((FAM_PHI, k), (FAM_PHI, j)),
                         word((FAM_PHI, j), (FAM_PHI, k))))
            rels.append((f"[pi({j}),pi({k})] = 0", word((FAM_PI, k), (FAM_PI, j)),
                         word((FAM_PI, j), (FAM_PI, k))))
    strict = p.variant == "deformed-strict" and h.covers(GEN_K)
    centrals = [GEN_I] + ([GEN_K, GEN_KINV] if strict else [])
    for z in centrals:
        rels.append((f"{gen_text(z)} central", word((FAM_PHI, 0), z), word(z, (FAM_PHI, 0))))
    if p.idempotent_identity:
        rels.append(("I*I = I", ii * ii, ii))
    if strict:
        rels.append(("K*Kinv = 1", word(GEN_K, GEN_KINV), unit()))
        rels.append(("Kinv*K = 1", word(GEN_KINV, GEN_K), unit()))
    return rels


def _reference_checks(h, p, degree, modes=2):
    """The per-check loops the shared sweep replaced, kept as the oracle:
    each recomputes Delta(w) as the free expansion reduced once, applies
    the free Delta again for coassociativity, and builds the counit and
    antipode sides term by term from Delta(w)'s terms.  No step reads a
    memoized coproduct."""
    fails = {"coassociativity": [], "counit": [], "antipode": [], "cocommutativity": []}
    one = Expr.from_word(())

    def record(axiom, witness, res):
        if not res.is_zero():
            fails[axiom].append(Failure(witness, str(res), res))

    for w in sorted_basis_words(p, degree, _covered_letters(h, p, modes, max(degree, 1))):
        e = Expr.from_word(w)
        t = tensor_normal_form(_co_free(e, h), p)
        record("coassociativity", word_text(w),
               tensor_normal_form(_co_slot_free(t, 0, h) - _co_slot_free(t, 1, h), p))
        eps_l, eps_r, s_l, s_r = Expr.zero(), Expr.zero(), Expr.zero(), Expr.zero()
        for (w1, w2), c in t.terms.items():
            eps_l = eps_l + Expr.from_word(w2, c * counit(Expr.from_word(w1), h, p))
            eps_r = eps_r + Expr.from_word(w1, c * counit(Expr.from_word(w2), h, p))
            s_l = s_l + antipode(Expr.from_word(w1), h, p) * Expr.from_word(w2, c)
            s_r = s_r + Expr.from_word(w1, c) * antipode(Expr.from_word(w2), h, p)
        target = normal_form(e, p)
        for side, val in (("(eps x id)", eps_l), ("(id x eps)", eps_r)):
            record("counit", f"{side} on {word_text(w)}", normal_form(val - target, p))
        target = counit(e, h, p) * one
        for side, val in (("m(S x id)Delta", s_l), ("m(id x S)Delta", s_r)):
            record("antipode", f"{side} on {word_text(w)}", normal_form(val - target, p))
        record("cocommutativity", word_text(w), tensor_normal_form(t - _swap(t), p))
    return fails, _reference_relation_failures(h, p, modes)


def _reference_relation_failures(h, p, modes):
    """check_respects_relations over the hand-written relations, through
    the public coproduct, counit and antipode."""
    failures = []
    for label, L, R in _hand_relations(p, h, modes):
        dres = tensor_normal_form(coproduct(L, h, p) - coproduct(R, h, p), p)
        eres = counit(L, h, p) - counit(R, h, p)
        sres = normal_form(antipode(L, h, p) - antipode(R, h, p), p)
        for name, res in (("Delta", dres), ("eps", eres), ("S", sres)):
            if not res.is_zero():
                failures.append(Failure(f"{name} on {label}", str(res), res))
    return failures


_COMPLEX_GRAM = [[1, [0, "1/2"]], [[0, "-1/2"], 2]]
_SWEEP_CASES = [
    (h, variant, gram, idempotent)
    for h, variant in ((CL, "undeformed"), (CL, "deformed-strict"), (DF, "deformed-strict"),
                       (CL, "deformed-collapsed"), (DF, "deformed-collapsed"))
    for gram in (None, _COMPLEX_GRAM)
    # the collapsed variant relies on I*I = I
    for idempotent in ((True,) if variant == "deformed-collapsed" else (True, False))
]


@pytest.mark.parametrize("h, variant, gram, idempotent", _SWEEP_CASES)
def test_sweeps_match_term_by_term_loops(h, variant, gram, idempotent):
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent)
    checks = {
        "coassociativity": check_coassociativity,
        "counit": check_counit,
        "antipode": check_antipode,
        "cocommutativity": cocommutativity_probe,
    }
    # degree 3 sweeps every normal word of degree 0 to 3
    want, want_relations = _reference_checks(h, p, 3)
    for axiom, check in checks.items():
        got = check(h, p, 3, 2)
        assert got.axiom == axiom and got.degree == 3
        assert got.failures == tuple(want[axiom])
        assert [f.residual for f in got.failures] == [f.residual for f in want[axiom]]
        assert got.status == ("fail" if want[axiom] else "pass")
    got = check_respects_relations(h, p, 2)
    assert got.failures == tuple(want_relations)
    assert [f.residual for f in got.failures] == [f.residual for f in want_relations]


_COMPLEX_GRAM_3 = [[1, [0, "1/2"], ["1/3", 1]], [[0, "-1/2"], 2, [0, "1/5"]],
                   [["1/3", -1], [0, "-1/5"], 3]]


@pytest.mark.parametrize("modes", [1, 3])
@pytest.mark.parametrize("h, variant, gram, idempotent", _SWEEP_CASES)
def test_relation_check_matches_hand_written_relations(h, variant, gram, idempotent, modes):
    # the derived table checks more relations than the hand-written list,
    # and every one it adds holds: the failures are the list's, in order
    gram = gram and (_COMPLEX_GRAM if modes < 3 else _COMPLEX_GRAM_3)
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent)
    want = _reference_relation_failures(h, p, modes)
    got = check_respects_relations(h, p, modes)
    assert got.failures == tuple(want)
    assert [f.residual for f in got.failures] == [f.residual for f in want]
    derived = {(str(L), str(R)) for _, L, R in relations(p, _covered_letters(h, p, modes, 2))}
    assert {(str(L), str(R)) for _, L, R in _hand_relations(p, h, modes)} <= derived


@pytest.mark.parametrize("h, variant, count, contractions", [
    (DF, "deformed-strict", 23, ["I*I = I", "K*Kinv = one", "Kinv*K = one"]),
    (CL, "deformed-strict", 11, ["I*I = I"]),
    (CL, "undeformed", 11, ["I*I = I"]),
    (DF, "deformed-collapsed", 11, ["I*I = I"]),
])
def test_relation_table_lists_every_pair_with_a_rule(h, variant, count, contractions):
    # the swaps of all out-of-order pairs of covered letters come first,
    # then the contractions the presentation has
    p = Presentation(variant=variant)
    labels = [label for label, _, _ in relations(p, _covered_letters(h, p, 2, 2))]
    assert len(labels) == count
    assert labels[-len(contractions):] == contractions
    assert all(label.endswith(" commutation") for label in labels[:-len(contractions)])


def test_relation_check_beyond_the_gram_raises_like_the_hand_list():
    p = Presentation(variant="deformed-strict", gram=_COMPLEX_GRAM)
    for check in (check_respects_relations, _reference_relation_failures):
        with pytest.raises(AlgebraError, match="mode index 2 outside the 2-mode gram"):
            check(DF, p, 3)


def test_multiplicativity_beyond_the_gram_raises_before_the_first_trial(monkeypatch):
    # the trials' expressions skip _check_input, so their letters are
    # checked against the gram once, before any coproduct
    calls = []
    co_expr = hopf._co_expr
    monkeypatch.setattr(hopf, "_co_expr", lambda *a: calls.append(a) or co_expr(*a))
    for h, variant in ((CL, "undeformed"), (DF, "deformed-strict")):
        p = Presentation(variant=variant, gram=_COMPLEX_GRAM)
        with pytest.raises(AlgebraError, match="mode index 2 outside the 2-mode gram"):
            check_multiplicativity(h, p, degree=1, modes=3)
    assert calls == []


# ---------------------------------------------------------------------------
# The memoized coproduct against the free expansion reduced once


def _descent_expr(rng, p, h, modes=2, max_degree=6):
    """A seeded random expression over the letters h covers, of degree at
    most max_degree, whose last word has an out-of-order adjacent pair."""
    letters = [g for g in legal_letters(p, modes) if h.covers(g)]
    pool = [ONE, -ONE, IMAG, Scalar.rational(1, 2), ONE + IMAG, KAPPA, S_PARAM ** -1]

    def word(n):
        return tuple(rng.choice(letters) for _ in range(n))

    e = Expr.zero()
    for _ in range(rng.randint(0, 2)):
        e = e + Expr.from_word(word(rng.randint(0, max_degree)), rng.choice(pool))
    w = ()
    while not any(a > b for a, b in zip(w, w[1:])):
        w = word(rng.randint(2, max_degree))
    return e + Expr.from_word(w, rng.choice(pool))


_MEMO_CASES = [
    (h, variant, gram, idempotent)
    for variant in ("undeformed", "deformed-strict", "deformed-collapsed")
    for h in (CL, DF)
    # the deformed coproduct introduces K, which the undeformed variant lacks
    if not (h is DF and variant == "undeformed")
    for gram in (None, _COMPLEX_GRAM)
    # the collapsed variant relies on I*I = I
    for idempotent in ((True,) if variant == "deformed-collapsed" else (True, False))
]


def _slotwise_normal_form(t, p):
    """Tensor normal form the plain way: normal_form on every slot of
    every key, recombined by the outer product."""
    out = TensorExpr(t.order)
    for words, c in t.terms.items():
        out = out + c * tensor_of(*(normal_form(Expr.from_word(w), p) for w in words))
    return out


def _assert_free_expansion(e, h, p):
    got = coproduct(e, h, p)
    want = tensor_normal_form(_co_free(e, h), p)
    assert want == _slotwise_normal_form(_co_free(e, h), p)
    assert got.terms == want.terms
    assert str(got) == str(want)


@pytest.mark.parametrize("h, variant, gram, idempotent", _MEMO_CASES)
def test_memoized_coproduct_matches_free_expansion(h, variant, gram, idempotent):
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent)
    rng = random.Random(f"{h.flavor}/{variant}/{gram is None}/{idempotent}")
    for _ in range(6):
        _assert_free_expansion(_descent_expr(rng, p, h), h, p)


def _slotwise_expanded(t, p):
    """Tensor normal form with every slot word's letters expanded into the
    free algebra first and each resulting word reduced on its own."""
    out = TensorExpr(t.order)
    for words, c in t.terms.items():
        slots = []
        for w in words:
            slot = Expr.zero()
            for w2, c2 in _expand_word(w, p).terms.items():
                slot = slot + c2 * Expr(_reduce_word(w2, p, p._nf_cache))
            slots.append(slot)
        out = out + c * tensor_of(*slots)
    return out


def test_memoized_coproduct_collapsed_k_input():
    # K and Kinv are input letters there that reduce to 1 + (s-1) I
    k, kinv = gen_K(), gen_Kinv()
    p = Presentation(variant="deformed-collapsed")
    for e in (k * phi(0) * kinv, kinv * k * pi(1) * phi(0),
              pi(0) * k * phi(0) * kinv * k + 2 * kinv * pi(1) * pi(0) * phi(0),
              k * k * kinv * gen_I() * phi(1) * pi(0) * kinv):
        _assert_free_expansion(e, DF, p)
        free = _co_free(e, DF)
        ref = Presentation(variant="deformed-collapsed")
        assert tensor_normal_form(free, p) == _slotwise_expanded(free, ref)
        # every slot word, one holding K or Kinv included, is memoized
        assert all(w in p._nf_cache for key in free.terms for w in key if w)


def test_coproduct_memo_is_per_call():
    # The memos of one top-level call, its reduced coproducts and the word
    # reducer's normal forms, belong to the call's table and are never
    # stored on the presentation: a memo held on Presentation raised the
    # hopf benchmark's peak RSS from 24.0 to 32.3 MB, because the
    # benchmark keeps each request's presentation until its cycle is
    # judged.  So no structure map and no check adds a word to
    # normal_form's memo, p._nf_cache, or changes one it holds.
    e = pi(0) * phi(0) * pi(1) + 2 * phi(1) * pi(0) * phi(0)
    for h, p in ((CL, Presentation()), (DF, Presentation(variant="deformed-strict")),
                 (DF, Presentation(variant="deformed-collapsed"))):
        normal_form(e * e, p)
        before, memo = set(vars(p)), dict(p._nf_cache)
        coproduct(e, h, p)
        antipode(e, h, p)
        counit(e, h, p)
        check_respects_relations(h, p, 2)
        for check in (check_coassociativity, check_counit, check_antipode, cocommutativity_probe):
            check(h, p, 2, 2)
        check_multiplicativity(h, p, degree=3, modes=2, seed=1)
        assert set(vars(p)) == before
        assert p._nf_cache == memo


@pytest.mark.parametrize("h, p", [(CL, P_UND), (CL, P_FREE), (DF, P_DEF), (DF, P_COL)])
def test_coproduct_memo_holds_the_cut_and_segment_prefixes(h, p):
    # _co_nf cuts a word after the first letter of every adjacent pair
    # that has a rule and grows each segment letter by letter, so a fresh
    # table's memo holds Delta of exactly the prefixes that end at a cut
    # (the word itself included), every prefix of every segment and every
    # letter, each one reduced
    rng = random.Random(f"cuts/{h.flavor}/{p.variant}/{p.idempotent_identity}")
    letters = [g for g in legal_letters(p, 2) if h.covers(g)]
    for _ in range(40):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 7)))
        cuts = [i for i in range(1, len(w)) if _pair_rule(w[i - 1], w[i], p)]
        ends = cuts + [len(w)]
        want = {w[:end] for end in ends} | {(g,) for g in w}
        for start, end in zip([0] + cuts, ends):
            want |= {w[start:j] for j in range(start + 1, end + 1)}
        t = _SlotTable(h, p)
        _co_nf(w, t)
        assert set(t.co) == want, word_text(w)
        for u in want:
            got = t.words_of(t.co[u], 2)
            assert got == tensor_normal_form(_co_free(Expr.from_word(u), h), p), word_text(u)


# ---------------------------------------------------------------------------
# Side comparison and reduce-as-you-multiply against the plain reductions


def _cids(t, terms):
    """terms with each coefficient replaced by its id in table t: the
    values every side of a _SlotTable holds."""
    return {k: t.cid(c) for k, c in terms.items()}


def _ids(t, x):
    """The reduced order-2 tensor x as a side of table t: keyed by word id
    pairs, with coefficient ids as values."""
    return _cids(t, {tuple(map(t.id, k)): c for k, c in x.terms.items()})


def _reduced_product(a, b, p, t=None):
    """The id product of reduced a and b in table t (a fresh one over p
    by default), turned back into words."""
    t = t or _SlotTable(CL, p)
    return t.words_of(t.product(_ids(t, a), _ids(t, b)), 2)


def _assert_reduced_product(a, b, p, t=None):
    """The id product of reduced a and b against the tensor normal form
    of the product built in full: the same terms, the same text, and no
    zero coefficient."""
    want = tensor_normal_form(_tensor_mul(a, b), p)
    got = _reduced_product(a, b, p, t)
    assert got.order == 2
    assert got.terms == want.terms
    assert str(got) == str(want)
    assert not any(c.is_zero() for c in got.terms.values())
    return got


def _assert_random_products(h, p, seed):
    # two reduced coproducts multiplied a pair of slot-0 words at a time
    # give the tensor normal form of the product built in full
    rng = random.Random(seed)
    for _ in range(4):
        a = coproduct(_descent_expr(rng, p, h, max_degree=4), h, p)
        b = coproduct(_descent_expr(rng, p, h, max_degree=4), h, p)
        _assert_reduced_product(a, b, p)


@pytest.mark.parametrize("h, variant, gram, idempotent", _SWEEP_CASES)
def test_table_reduce_matches_the_reference_at_every_order(h, variant, gram, idempotent):
    # _SlotTable.reduce on word tuples of order 1, 2 and 3, turned back
    # into words, against normal_form and the tests' tensor_normal_form
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent)
    rng = random.Random(f"reduce/{h.flavor}/{variant}/{gram is None}/{idempotent}")
    t = _SlotTable(h, p)
    for order in (1, 2, 3):
        for _ in range(4):
            slots = [_descent_expr(rng, p, h, max_degree=4) for _ in range(order)]
            if order == 1:
                terms = {(w,): c for w, c in slots[0].terms.items()}
                want = normal_form(slots[0], p)
            else:
                terms = tensor_of(*slots).terms
                want = tensor_normal_form(TensorExpr(order, terms), p)
            got = t.words_of(t.reduce(_cids(t, terms)), order)
            assert got.terms == want.terms
            assert str(got) == str(want)


@pytest.mark.parametrize("h, variant, gram, idempotent", _SWEEP_CASES)
def test_reduce_slots_of_product_pairs_matches_reducing_the_product(h, variant, gram, idempotent):
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent)
    _assert_random_products(h, p, f"pairs/{h.flavor}/{variant}/{gram is None}/{idempotent}")


# numeric q, c make kappa and s binary rationals; q = c = 1 is the
# collapsed point of the benchmark's collapsed-at-one requests
@pytest.mark.parametrize("q, c", [(1.3, 0.7), (1.0, 1.0)])
@pytest.mark.parametrize("h, variant, gram, idempotent",
                         [case for case in _SWEEP_CASES if case[1] != "undeformed"])
def test_reduced_product_at_numeric_q_c(h, variant, gram, idempotent, q, c):
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent, q=q, c=c)
    _assert_random_products(h, p, f"pairs/{h.flavor}/{variant}/{gram is None}/{idempotent}/{q}")


@pytest.mark.parametrize("variant", ["undeformed", "deformed-strict", "deformed-collapsed"])
def test_reduced_product_drops_sums_that_cancel(variant):
    p = Presentation(variant=variant)
    one = unit()
    phi0_pi0 = ((FAM_PHI, 0), (FAM_PI, 0))
    # pi(0) phi(0) = phi(0) pi(0) - i kappa I, so the slot-0 pairs
    # (pi(0), phi(0)) and (phi(0), pi(0)) give phi(0) pi(0) (x) phi(1)
    # with opposite signs
    key = (phi0_pi0, ((FAM_PHI, 1),))
    a = tensor_of(pi(0), phi(1)) + tensor_of(phi(0), phi(1))
    b = tensor_of(phi(0), one) - tensor_of(pi(0), one)
    assert key in _reduced_product(tensor_of(phi(0), phi(1)), tensor_of(pi(0), one), p).terms
    assert key not in _assert_reduced_product(a, b, p).terms
    # the same sum in slot 1, inside one pair of slot-0 words
    a = tensor_of(phi(1), pi(0) + phi(0))
    b = tensor_of(one, phi(0) - pi(0))
    assert (((FAM_PHI, 1),), phi0_pi0) not in _assert_reduced_product(a, b, p).terms
    # I*I = I, so the pairs (I, I) and (I, one) cancel to the zero tensor
    a = tensor_of(gen_I(), phi(1))
    b = tensor_of(gen_I(), one) - tensor_of(one, one)
    assert _assert_reduced_product(a, b, p).is_zero()
    assert not _reduced_product(a, b, P_FREE).is_zero()


def test_reduced_product_with_the_unit_and_zero_tensors():
    one, zero = tensor_of(unit(), unit()), TensorExpr(2)
    for h, p in ((CL, P_UND), (DF, P_DEF), (DF, P_COL)):
        a = coproduct(pi(0) * phi(0) * pi(1), h, p)
        # slot words that carry the -i kappa I of pi(0) phi(0)
        b = tensor_normal_form(tensor_of(pi(0) * phi(0), phi(1) * pi(0)), p)
        for x, y in ((a, one), (one, a), (one, one), (b, one), (one, b), (a, b)):
            _assert_reduced_product(x, y, p)
        assert _reduced_product(a, one, p) == a == _reduced_product(one, a, p)
        assert _reduced_product(one, one, p).terms == one.terms
        for x, y in ((a, zero), (zero, a), (zero, zero), (one, zero), (zero, one)):
            assert _assert_reduced_product(x, y, p).terms == {}


# ---------------------------------------------------------------------------
# The generator step: Delta(u) times Delta(g), one slot junction at a time


def _co_words(w, t):
    """_co_nf's reduced Delta of w in table t, turned into words."""
    return t.words_of(_co_nf(w, t), 2)


def _assert_step(w, t):
    """Delta(w) grown by the step from Delta(w[:-1]) and Delta(w[-1]) in
    table t against the free coproduct of w reduced once, and against
    _co_nf's own result for w."""
    head, last = (_co_words(u, t) for u in (w[:-1], w[-1:]))
    got = _assert_reduced_product(head, last, t.p, t)
    want = tensor_normal_form(_co_free(Expr.from_word(w), t.h), t.p)
    assert got.terms == want.terms
    assert str(got) == str(want)
    assert _co_words(w, t).terms == want.terms


_STEP_CASES = [
    case + qc
    for case in _SWEEP_CASES
    for qc in ((None, None), (1.3, 0.7), (1.0, 1.0))
    # numeric q and c deform kappa and s, which the undeformed variant lacks
    if qc[0] is None or case[1] != "undeformed"
]


@pytest.mark.parametrize("h, variant, gram, idempotent, q, c", _STEP_CASES)
def test_step_grows_every_sweep_word(h, variant, gram, idempotent, q, c):
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent, q=q, c=c)
    words = sorted_basis_words(p, 3, _covered_letters(h, p, 2, 3))
    t = _SlotTable(h, p)
    for w in words:
        if len(w) > 1:
            _assert_step(w, t)
    assert len([w for w in words if len(w) > 1]) > 20


@pytest.mark.parametrize("h, variant, gram, idempotent, q, c", _STEP_CASES)
# 25 derandomized pairs of words per case
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_id_product_of_reduced_coproducts_matches_the_full_product(h, variant, gram, idempotent,
                                                                   q, c, data):
    # two reduced coproducts of random words over the letters h covers,
    # multiplied in id space and turned back into words, against the
    # tensor normal form of their product built in full
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent, q=q, c=c)
    words = st.lists(st.sampled_from([g for g in legal_letters(p, 2) if h.covers(g)]),
                     max_size=4).map(tuple)
    t = _SlotTable(h, p)
    a, b = _co_nf(data.draw(words), t), _co_nf(data.draw(words), t)
    got = t.words_of(t.product(a, b), 2)
    want = tensor_normal_form(_tensor_mul(t.words_of(a, 2), t.words_of(b, 2)), p)
    assert got.terms == want.terms
    assert str(got) == str(want)


def test_each_join_is_computed_once_per_check(monkeypatch):
    # a top-level call owns one table, and the table joins each pair of
    # slot words once, however many products meet the pair
    joins = []
    join = _SlotTable.join
    monkeypatch.setattr(_SlotTable, "join",
                        lambda t, i, j: joins.append((t, t.words[i], t.words[j])) or join(t, i, j))
    gram = [[1, ["1/2", "1/3"]], [["1/2", "-1/3"], 2]]
    for h, p in ((CL, Presentation(gram=gram)), (DF, Presentation(variant="deformed-strict")),
                 (DF, Presentation(variant="deformed-collapsed", q=1.3, c=0.7))):
        runs = [partial(check, h, p, 3, 2) for check in (
            check_coassociativity, check_counit, check_antipode, cocommutativity_probe,
            check_multiplicativity)]
        runs += [partial(check_respects_relations, h, p, 2),
                 partial(coproduct, pi(0) * phi(0) * pi(1) * phi(1) + phi(1) * pi(0), h, p)]
        for run in runs:
            joins.clear()
            run()
            assert len({t for t, _, _ in joins}) == 1
            assert len(joins) == len(set(joins)) > 0


_PHI0, _PHI1, _PI0, _PI1 = (FAM_PHI, 0), (FAM_PHI, 1), (FAM_PI, 0), (FAM_PI, 1)


@pytest.mark.parametrize("h, variant, idempotent, q, w", [
    # K passes the fields, meets Kinv in one slot and K in the other
    (DF, "deformed-strict", True, None, (_PHI0, GEN_K)),
    (DF, "deformed-strict", True, None, (_PI1, _PHI0, GEN_KINV)),
    (DF, "deformed-strict", True, 1.3, (GEN_KINV, _PHI1, GEN_K)),
    (DF, "deformed-strict", True, None, (GEN_K, GEN_KINV)),
    # a field letter passes back over fields: the junction's rule carries
    # the multiplier -i kappa g(j, k)
    (CL, "undeformed", True, None, (_PHI1, _PI0, _PHI0)),
    (DF, "deformed-strict", True, 1.3, (_PI1, _PI0, _PHI1)),
    # the collapsed K piece, 1 + (s - 1) I, in the head and in the letter;
    # K Kinv reduces to 1 plus 0*I in both slots, a sum that cancels
    (DF, "deformed-collapsed", True, None, (GEN_K, _PHI0)),
    (DF, "deformed-collapsed", True, None, (_PHI0, _PI1, GEN_K)),
    (DF, "deformed-collapsed", True, 1.3, (_PI0, GEN_KINV)),
    (DF, "deformed-collapsed", True, None, (GEN_K, GEN_KINV)),
    # I*I = I where the identity is idempotent, and a normal pair where not
    (CL, "undeformed", True, None, (GEN_I, GEN_I)),
    (CL, "undeformed", False, None, (GEN_I, GEN_I)),
    (CL, "undeformed", True, None, (_PHI0, GEN_I, GEN_I)),
    (CL, "undeformed", False, None, (GEN_I, _PHI0, GEN_I)),
    (DF, "deformed-strict", True, 1.0, (GEN_I, GEN_KINV, GEN_I)),
])
def test_step_at_junctions_that_have_a_rule(h, variant, idempotent, q, w):
    gram = [[1, ["1/2", "1/3"]], [["1/2", "-1/3"], 2]]
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent,
                     q=q, c=None if q is None else 0.7)
    _assert_step(w, _SlotTable(h, p))


def test_step_junction_cases_reduce_as_the_rules_say():
    # I*I = I: Delta(I)^2 = I (x) 1 + 2 I (x) I + 1 (x) I, and I I stays
    # a normal word where the identity is not idempotent
    i1, one = gen_I(), unit()
    for p, ii in ((P_UND, i1), (P_FREE, i1 * i1)):
        assert _co_words((GEN_I, GEN_I), _SlotTable(CL, p)) == (
            tensor_of(ii, one) + 2 * tensor_of(i1, i1) + tensor_of(one, ii))
    # K Kinv = 1 in the strict variant, and in the collapsed one through
    # the pieces: Delta(K Kinv) is the unit tensor
    for p in (P_DEF, P_COL):
        assert _co_words((GEN_K, GEN_KINV), _SlotTable(DF, p)) == tensor_of(one, one)
    # phi(0) after pi(0) in slot 1: the junction's rule carries -i kappa I
    got = _co_words((_PHI0, _PI0, _PHI0), _SlotTable(CL, P_UND))
    assert got.terms[((), (GEN_I, _PHI0))] == -IMAG * P_UND.kappa_scalar


def test_passing_undeformed_sweep_reduces_no_normal_concatenation(monkeypatch):
    # a normal undeformed word has no junction with a rule in any slot of
    # its coproduct, so the step reduces nothing: the only words reduced
    # are the slot words of Delta(g), in _SlotTable.reduce
    reduced = []
    monkeypatch.setattr(hopf, "_reduce_word",
                        lambda w, p, cache: reduced.append(w) or _reduce_word(w, p, cache))
    for check in (check_coassociativity, check_counit, check_antipode, cocommutativity_probe):
        p = Presentation(gram=[[1, ["1/2", "1/3"]], [["1/2", "-1/3"], 2]])
        assert check(CL, p, 3, 2).passed
    assert reduced
    assert max(map(len, reduced)) == 1


def _reference_multiplicativity(h, p, degree, modes, seed):
    """check_multiplicativity's failures recomputed with no memo: the same
    rng draws, Delta expanded on the free algebra and the residual
    Delta(x*y) - Delta(x)Delta(y) reduced once."""
    letters = _covered_letters(h, p, modes, max(degree, 1))
    rng = random.Random(seed)
    pool = [ONE, -ONE, IMAG, Scalar.rational(2), Scalar.rational(1, 1)]
    failures = []
    for trial in range(MULTIPLICATIVITY_TRIALS):
        def rand_expr():
            e = Expr.zero()
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(0, degree)
                w = tuple(rng.choice(letters) for _ in range(n))
                e = e + Expr.from_word(w, rng.choice(pool))
            return e

        x, y = rand_expr(), rand_expr()
        free_product = _tensor_mul(_co_free(x, h), _co_free(y, h))
        res = tensor_normal_form(_co_free(x * y, h) - free_product, p)
        if not res.is_zero():
            failures.append(Failure(f"trial {trial}: x={x}; y={y}", str(res), res))
    return failures


@pytest.mark.parametrize("h, variant, gram, idempotent", _SWEEP_CASES)
def test_multiplicativity_matches_the_unmemoized_residuals(h, variant, gram, idempotent):
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent)
    for seed in (3, 11):
        want = _reference_multiplicativity(h, p, 3, 2, seed)
        got = check_multiplicativity(h, p, degree=3, modes=2, seed=seed)
        assert got.failures == tuple(want)
        assert [f.residual for f in got.failures] == [f.residual for f in want]
        assert got.status == ("fail" if want else "pass")


def test_record_equal_sides_need_no_reduction(monkeypatch):
    def refuse(*_args):
        raise AssertionError("equal sides were reduced")

    def no_witness():
        raise AssertionError("equal sides formatted a witness")

    t = _SlotTable(CL, P_UND)

    def side(x):
        # the terms of x, keyed by id tuples of t, with no reduction
        if isinstance(x, Expr):
            return _cids(t, {(t.id(w),): c for w, c in x.terms.items()})
        return _ids(t, x)

    monkeypatch.setattr(_SlotTable, "reduce", refuse)
    monkeypatch.setattr(_SlotTable, "words_of", refuse)
    monkeypatch.setattr(hopf, "_reduce_word", refuse)
    failures = []
    # the same value built twice, neither side in normal form
    e = pi(0) * phi(0) + 2 * phi(1)
    _record(failures, no_witness, side(e), side(pi(0) * phi(0) + 2 * phi(1)), t)
    _record(failures, no_witness, side(tensor_of(e, e)), side(tensor_of(e, e)), t)
    _record(failures, no_witness, _scalar_side(KAPPA + ONE, t), _scalar_side(ONE + KAPPA, t), t)
    assert failures == []


_REDUCED_SIDE_CASES = [
    case + qc
    for case in _SWEEP_CASES
    for qc in ((None, None), (1.3, 0.7))
    # numeric q and c deform kappa and s, which the undeformed variant lacks
    if qc[0] is None or case[1] != "undeformed"
]


@pytest.mark.parametrize("h, variant, gram, idempotent, q, c", _REDUCED_SIDE_CASES)
def test_every_check_hands_record_reduced_sides(h, variant, gram, idempotent, q, c, monkeypatch):
    # _record compares its sides as they stand, so every side a check
    # hands it must be its own normal form: id tuples of one order in the
    # check's table, an element (an eps side on the empty word included)
    # at order 1 and a tensor at order 2 or 3
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent, q=q, c=c)
    record = hopf._record
    witnesses = []

    def record_reduced(failures, witness, lhs, rhs, t):
        for side in (lhs, rhs):
            orders = {len(k) for k in side}
            assert len(orders) <= 1 and orders <= {1, 2, 3}, witness()
            assert all(isinstance(i, int) for k in side for i in k), witness()
            side = t.words_of(side, orders.pop() if orders else 1)
            if isinstance(side, TensorExpr):
                assert side.terms == tensor_normal_form(side, p).terms, witness()
            else:
                assert isinstance(side, Expr), witness()
                assert side.terms == normal_form(side, p).terms, witness()
        witnesses.append(witness)
        record(failures, witness, lhs, rhs, t)

    monkeypatch.setattr(hopf, "_record", record_reduced)
    sweeps = (check_coassociativity, check_counit, check_antipode, cocommutativity_probe)
    runs = [partial(check, h, p, 3, 2) for check in sweeps]
    runs += [partial(check_multiplicativity, h, p, 3, 2),
             partial(check_respects_relations, h, p, 2)]
    for run in runs:
        witnesses.clear()
        run()
        assert witnesses


# symbolic coefficients, with denominators of one term and of two, and
# constants; the slot table keys a coefficient by numerator and denominator
_S_COEFFS = (ONE, -IMAG, Scalar.rational(3, 7), KAPPA, S_PARAM ** -1, ONE / (ONE + S_PARAM),
             (Scalar.rational(2) + KAPPA) / (ONE + S_PARAM))


@pytest.mark.parametrize("h, variant, gram, idempotent, q, c", _REDUCED_SIDE_CASES)
def test_antipode_is_the_free_antipode_reduced(h, variant, gram, idempotent, q, c):
    # antipode builds S in a slot table of its own (_s_side), the path
    # check_respects_relations takes; the free antipode reduced by
    # normal_form is its reference, term for term, in the same order and
    # in the same report bytes
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent, q=q, c=c)
    rng = random.Random(f"S/{h.flavor}/{variant}/{gram is None}/{idempotent}/{q}")
    letters = [g for g in legal_letters(p, 2) if h.covers(g)]
    for _ in range(12):
        e = Expr.zero()
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            e = e + Expr.from_word(w, rng.choice(_S_COEFFS))
        got, want = antipode(e, h, p), normal_form(_s_free(e, h), p)
        assert list(got.terms.items()) == list(want.terms.items()), str(e)
        assert json.dumps(expr_json(got)) == json.dumps(expr_json(want)), str(e)


def test_record_unequal_sides_record_the_reduced_difference():
    # the failure the earlier reduce(lhs - rhs) path recorded, text included
    # an element's sides are 1-tuples of ids, a tensor's pairs, and a
    # scalar is a multiple of the empty word, so its residual is one too
    lhs, rhs = pi(0) * phi(0) * pi(1), phi(0) * pi(0) * pi(1)
    t = _SlotTable(DF, P_DEF)
    failures = []
    _record(failures, lambda: "expr", t.reduce(_cids(t, {(w,): c for w, c in lhs.terms.items()})),
            t.reduce(_cids(t, {(w,): c for w, c in rhs.terms.items()})), t)
    want = normal_form(lhs - rhs, P_DEF)
    assert failures == [Failure("expr", str(want), want)]
    assert failures[0].residual == want == -IMAG * KAPPA * gen_I() * pi(1)
    t_l, t_r = tensor_of(lhs, phi(1)), tensor_of(rhs, phi(1))
    _record(failures, lambda: "tensor", t.reduce(_cids(t, t_l.terms)),
            t.reduce(_cids(t, t_r.terms)), t)
    want = tensor_normal_form(t_l - t_r, P_DEF)
    assert failures[1] == Failure("tensor", str(want), want)
    assert failures[1].residual == want
    _record(failures, lambda: "scalar", _scalar_side(KAPPA, t), _scalar_side(ONE, t), t)
    want = (KAPPA - ONE) * unit()
    assert failures[2] == Failure("scalar", str(want), want)
    assert failures[2].residual == want


def test_equal_coefficients_share_one_id():
    # a table keys a constant by its canonical triple and any other
    # coefficient by its numerator's and denominator's items, so equal
    # values built in different ways meet one id, and its products and sums
    # come back as ids of the same table
    t = _SlotTable(CL, P_UND)
    assert [t.cid(c) for c in (ZERO, ONE, -ONE)] == [0, 1, 2]
    half, two = Scalar.rational(Fraction(1, 2)), Scalar.rational(2)
    assert t.cid(Scalar.rational(0)) == 0 and t.cid(IMAG * IMAG) == 2
    assert t.cid(ONE + ONE) == t.cid(Scalar.rational(Fraction(4, 2))) == t.cid(two) == 3
    assert t.cid(half + half) == 1 and t.cid(Scalar.rational(Fraction(-2, 4))) == t.cid(-half)
    assert t.cid(KAPPA + ONE) == t.cid(ONE + KAPPA) != t.cid(KAPPA)
    assert t.add(1, 1) == t.cid(two) and t.add(1, 2) == 0
    assert t.mul(t.cid(two), t.cid(half)) == 1 and t.mul(2, 2) == 1
    assert t.mul(t.cid(IMAG), t.cid(KAPPA)) == t.cid(KAPPA * IMAG)
    for i, c in enumerate(t.coefs):
        assert t.cid(c) == i
    assert len(t.coefs) == len(t.cids)


class _Forgetful(dict):
    """A memo that keeps nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


class _ForgetfulTable(_SlotTable):
    """A _SlotTable whose coefficient memos always miss: each product and
    sum of coefficient ids is made anew from the coefficients."""

    __slots__ = ()

    def __init__(self, h, p):
        super().__init__(h, p)
        self.muls, self.adds = _Forgetful(), _Forgetful()


def _sides_of_every_check(h, p, monkeypatch, table):
    """Each check's reports, every (witness, lhs, rhs) it hands _record and
    the coproduct of a sum, with table as the _SlotTable of each call."""
    monkeypatch.setattr(hopf, "_SlotTable", table)
    record, seen = hopf._record, []

    def spy(failures, witness, lhs, rhs, t):
        seen.append((witness(), lhs, rhs))
        record(failures, witness, lhs, rhs, t)

    monkeypatch.setattr(hopf, "_record", spy)
    reports = [check(h, p, 3, 2) for check in (
        check_coassociativity, check_counit, check_antipode, cocommutativity_probe,
        check_multiplicativity)]
    reports.append(check_respects_relations(h, p, 2))
    co = coproduct(3 * pi(0) * phi(0) * pi(1) - IMAG * phi(1) * pi(0) * phi(1) + phi(0), h, p)
    monkeypatch.undo()
    return reports, seen, co


@pytest.mark.parametrize("h, variant, gram, idempotent, q, c", _STEP_CASES)
def test_memos_that_always_miss_give_the_same_sides(h, variant, gram, idempotent, q, c,
                                                    monkeypatch):
    # the coefficient memos only save work: a table whose memos never keep
    # an entry numbers every coefficient alike and hands _record the same
    # sides, key for key and id for id, and the checks the same reports
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent, q=q, c=c)
    want_reports, want, want_co = _sides_of_every_check(h, p, monkeypatch, _SlotTable)
    got_reports, got, got_co = _sides_of_every_check(h, p, monkeypatch, _ForgetfulTable)
    assert len(got) == len(want) > 50
    for (w1, lhs1, rhs1), (w2, lhs2, rhs2) in zip(got, want):
        assert w1 == w2
        assert list(lhs1.items()) == list(lhs2.items()), w1
        assert list(rhs1.items()) == list(rhs2.items()), w1
    assert got_reports == want_reports
    assert [f.residual for r in got_reports for f in r.failures] == [
        f.residual for r in want_reports for f in r.failures]
    assert got_co == want_co and str(got_co) == str(want_co)


@pytest.mark.parametrize("h, variant, gram, idempotent, q, c", _STEP_CASES)
def test_every_coefficient_a_check_meets_has_denominator_one(h, variant, gram, idempotent, q, c,
                                                             monkeypatch):
    # _record compares coefficient ids, which is sound only where equal
    # coefficients share one key: a constant's triple is canonical, and so
    # are the items of a Laurent polynomial in kappa, s and r2 over
    # denominator 1.  Every coefficient any check's table holds is one
    tables = []

    class Kept(_SlotTable):
        __slots__ = ()

        def __init__(self, h, p):
            super().__init__(h, p)
            tables.append(self)

    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent, q=q, c=c)
    _sides_of_every_check(h, p, monkeypatch, Kept)
    assert len(tables) == 7  # six checks and one coproduct
    for t in tables:
        assert len(t.coefs) > 3
        assert all(c.denominator() == ONE for c in t.coefs), [str(c) for c in t.coefs]


def _count_word_texts(monkeypatch) -> list:
    words = []
    monkeypatch.setattr(hopf, "word_text", lambda w: words.append(w) or word_text(w))
    return words


@pytest.mark.parametrize("check", [check_counit, check_antipode, check_coassociativity])
def test_passing_sweep_formats_no_witness(check, monkeypatch):
    words = _count_word_texts(monkeypatch)
    assert check(CL, P_UND, degree=3).passed
    assert check(DF, P_DEF, degree=3).passed
    assert words == []


def test_failing_sweep_formats_one_witness_per_failure(monkeypatch):
    words = _count_word_texts(monkeypatch)
    # an Expr residual prints through exprparse, not through word_text
    rep = check_antipode(DF, P_COL, degree=2)
    assert not rep.passed
    assert len(words) == len(rep.failures)
    assert [f.witness for f in rep.failures][:2] == ["m(S x id)Delta on phi(0)",
                                                     "m(id x S)Delta on phi(0)"]


class _WrongCounit(HopfSpec):
    """The classical structure maps with eps(g) = 1 on every letter, which
    breaks the counit axiom on every nonempty word."""

    def eps_gen(self, gen):
        self._require(gen)
        return ONE


def test_counit_failure_keeps_its_witness_format():
    h = _WrongCounit(CL.flavor)
    rep = check_counit(h, P_UND, degree=2)
    assert not rep.passed
    want = _reference_checks(h, P_UND, 2)[0]["counit"]
    assert rep.failures == tuple(want)
    assert [f.residual for f in rep.failures] == [f.residual for f in want]
    fails = {f.witness: f.residual for f in rep.failures}
    # (eps x id)Delta(phi(0)) = eps(phi(0)) 1 + eps(1) phi(0) = 1 + phi(0)
    assert fails["(eps x id) on phi(0)"] == fails["(id x eps) on phi(0)"] == unit()
    assert [f.witness for f in rep.failures][:2] == ["(eps x id) on I", "(id x eps) on I"]
    assert len(fails) == len(rep.failures) == 2 * (len(sorted_basis_words(
        P_UND, 2, _covered_letters(h, P_UND, 2, 2))) - 1)


def test_counit_residual_text_is_pinned():
    # no hopf-check invocation fails the counit (eps is an algebra map on
    # every presentation and the axiom holds on the generators), so the
    # golden corpus has no order-1 counit residual; a wrong counit through
    # the collapsed K piece at numeric q, c pins its text here instead
    p = Presentation(variant="deformed-collapsed", q=1.3, c=0.7)
    rep = check_counit(_WrongCounit(DF.flavor), p, degree=2, modes=1)
    assert len(rep.failures) == 16
    texts = {f.witness: f.residual_text for f in rep.failures}
    assert texts["(eps x id) on I"] == "one"
    assert texts["(eps x id) on phi(0)"] == (
        "one + 433136879595961/4503599627370496*I - 433136879595961/4936736506966457*phi(0)")
    assert texts["(id x eps) on I*pi(0)"] == (
        "one + 4070462747774535/4936736506966457*I + 4936736506966457/4503599627370496*pi(0)"
        " + 433136879595961/4503599627370496*I*pi(0)")
    assert texts["(eps x id) on phi(0)^2"] == (
        "one + 4088957735563704719745271846833/20282409603651670423947251286016*I"
        " + 9007199254740992/4936736506966457*phi(0)"
        " + 866273759191922/4936736506966457*I*phi(0)"
        " - 4088957735563704719745271846833/24371367339215375143692523132849*phi(0)^2")
    assert all(str(f.residual) == f.residual_text for f in rep.failures)


def test_counit_sweep_takes_each_slot_word_once(monkeypatch):
    seen = []
    eps_word = hopf._eps_word
    monkeypatch.setattr(hopf, "_eps_word", lambda w, h: seen.append(w) or eps_word(w, h))
    for _ in range(2):
        seen.clear()
        assert check_counit(DF, P_DEF, degree=3).passed
        # one eps per distinct slot word, and none carried over from the
        # sweep before
        assert seen and len(seen) == len(set(seen))
        assert () in seen and (GEN_K,) in seen


@pytest.mark.parametrize("h, variant, gram, idempotent, q, c", _STEP_CASES)
def test_counit_agrees_on_every_relation_and_passes_its_sweep(h, variant, gram, idempotent,
                                                              q, c):
    # eps is an algebra map on every presentation and (eps x id)Delta(g) =
    # (id x eps)Delta(g) = g on every generator, so no built-in flavor fails
    # an eps check: an eps side of check_respects_relations, a multiple of
    # the empty word, never reaches a residual, and the counit sweep passes
    p = Presentation(variant=variant, gram=gram, idempotent_identity=idempotent, q=q, c=c)
    t = _SlotTable(h, p)
    for modes in (1, 2):
        rels = relations(p, _covered_letters(h, p, modes, 2))
        assert rels
        for label, L, R in rels:
            assert _eps_free(L, h) == _eps_free(R, h), label
            assert _scalar_side(_eps_free(L, h), t) == _scalar_side(_eps_free(R, h), t), label
        rep = check_respects_relations(h, p, modes)
        assert not any(f.witness.startswith("eps") for f in rep.failures)
    rep = check_counit(h, p, 3, 2)
    assert rep.passed and rep.failures == ()


@pytest.mark.parametrize("h, p", [(CL, P_UND), (DF, P_DEF)])
def test_s_word_is_the_product_of_s_gen_reversed(h, p):
    letters = [g for g in legal_letters(p, 2) if h.covers(g)]
    for n in range(5):
        for word in product(letters, repeat=n):
            want = Expr.from_word(())
            for g in reversed(word):
                letter, negated = h._s_letter(g)
                want = want * Expr.from_word((letter,), -ONE if negated else ONE)
            assert _s_free(Expr.from_word(word), h) == want


def test_sweep_budget_is_checked_before_the_first_coproduct(monkeypatch):
    # the largest sweeps the tests, the selftest, the golden corpus, CI and
    # the benchmark run fit the budget
    for h, p, degree, modes, terms in ((CL, P_UND, 8, 1, 7683), (DF, P_DEF, 4, 2, 3159)):
        words = sorted_basis_words(p, degree, _covered_letters(h, p, modes, degree))
        assert sum(2 ** len(w) for w in words) == terms <= MAX_SWEEP_TERMS
    calls = []
    co_nf = hopf._co_nf
    monkeypatch.setattr(hopf, "_co_nf", lambda *a: calls.append(a) or co_nf(*a))
    for check in (check_coassociativity, check_counit, check_antipode, cocommutativity_probe):
        with pytest.raises(HopfError, match="17411 free coproduct terms, over the budget"):
            check(CL, P_UND, 9, 1)
        with pytest.raises(HopfError, match="budget"):
            check(DF, P_DEF, 5, 2)
    assert calls == []
    assert check_counit(CL, P_UND, 8, 1).passed and calls


def test_multiplicativity_budget_is_checked_before_the_first_trial(monkeypatch):
    # the CI tripwire (--modes 1 --degree 8) and the benchmark's degrees
    # (at most 4) fit the budget: degree MAX_TRIAL_LETTERS // 2 runs and
    # one more is refused
    assert MAX_TRIAL_LETTERS // 2 == 8
    calls = []
    co_expr = hopf._co_expr
    monkeypatch.setattr(hopf, "_co_expr", lambda *a: calls.append(a) or co_expr(*a))
    for h, p in ((CL, P_UND), (DF, P_DEF)):
        with pytest.raises(HopfError, match=r"^degree-9 multiplicativity trials multiply words "
                                            r"of up to 2 x 9 letters, over the budget of 16; "
                                            r"lower --degree to 8 or less$"):
            check_multiplicativity(h, p, degree=9, modes=1)
    assert calls == []
    assert check_multiplicativity(CL, P_UND, degree=8, modes=1).passed and calls


def test_word_budget_is_checked_before_the_letters_are_built(monkeypatch):
    # every check states its word depth to _covered_letters, which refuses
    # comb(letters + depth, depth) > MAX_CHECK_WORDS candidate words before
    # legal_letters builds the list
    monkeypatch.setattr(hopf, "legal_letters", lambda *a: pytest.fail("letters built"))
    refused = (
        (lambda: check_counit(CL, P_UND, degree=7, modes=10),
         "1184040 candidate words up to degree 7 over 21 letters"),
        (lambda: check_coassociativity(DF, P_DEF, degree=0, modes=600),
         "the candidate words up to degree 1 over 600 modes"),
        (lambda: check_multiplicativity(CL, P_UND, degree=7, modes=10),
         "1184040 candidate words up to degree 7"),
        (lambda: check_respects_relations(CL, P_UND, modes=50),
         "5253 candidate words up to degree 2 over 101 letters"),
        # at the edges: 500 modes give 1001 letters, and over the one
        # letter I degree 1000 gives 1001 words and degree 1001 is refused
        # by itself
        (lambda: _covered_letters(CL, P_UND, 500, 1),
         "^the candidate words up to degree 1 over 500 modes"),
        (lambda: _covered_letters(CL, P_UND, 0, 1000),
         "^1001 candidate words up to degree 1000 over 1 letters"),
        (lambda: _covered_letters(CL, P_UND, 0, 1001),
         "^the candidate words up to degree 1001 over 0 modes"),
    )
    for check, needle in refused:
        with pytest.raises(HopfError, match=f"{needle}.*exceed the budget of {MAX_CHECK_WORDS}"):
            check()
    # and 999 letters at degree 1 make comb(1000, 1) words, within it
    with pytest.raises(pytest.fail.Exception, match="letters built"):
        _covered_letters(CL, P_UND, 499, 1)
    # letters or a depth past the budget alone are refused before the count
    # is formed, and the refusal names only the depth and the modes given:
    # comb(letters + 12, 12) over 400-digit modes has more digits than the
    # interpreter prints
    with pytest.raises(HopfError, match=f"^the candidate words up to degree 12 over {10 ** 400} "
                                        f"modes exceed the budget of {MAX_CHECK_WORDS};"):
        check_counit(CL, P_UND, degree=12, modes=10 ** 400)


@pytest.mark.parametrize("check", [check_coassociativity, check_counit, check_antipode,
                                   cocommutativity_probe, check_multiplicativity])
def test_a_negative_degree_is_refused(check):
    # the CLI refuses --degree -1 before any check runs; a library call is
    # refused by the check itself, not swept over the empty word alone
    with pytest.raises(HopfError, match="degree must be non-negative, got -1"):
        check(CL, P_UND, -1, 1)


def test_every_check_admits_in_one_order(monkeypatch):
    # _covered_letters is every check's admission: a negative degree, then a
    # flavor, variant or basis the maps are not defined on, then the word
    # budget, each refused before the next is looked at and before the
    # letters are built; multiplicativity's trial budget comes first of all
    monkeypatch.setattr(hopf, "legal_letters", lambda *a: pytest.fail("letters built"))
    ladder = Presentation(basis="ladder")
    for check in (check_coassociativity, check_counit, check_antipode, cocommutativity_probe,
                  check_multiplicativity):
        for h, p in ((DF, P_UND), (CL, ladder)):
            with pytest.raises(HopfError, match="^the degree must be non-negative, got -1$"):
                check(h, p, degree=-1, modes=10 ** 400)
        with pytest.raises(HopfError, match="^the deformed coproduct introduces K"):
            check(DF, P_UND, degree=7, modes=10)
        with pytest.raises(HopfError, match="^Hopf structure maps are defined over the phi-pi"):
            check(CL, ladder, degree=7, modes=10)
        with pytest.raises(HopfError, match="^1184040 candidate words up to degree 7"):
            check(CL, P_UND, degree=7, modes=10)
    for h, p, needle in ((DF, P_UND, "introduces K"), (CL, ladder, "over the phi-pi basis"),
                         (CL, P_UND, "5253 candidate words")):
        with pytest.raises(HopfError, match=needle):
            check_respects_relations(h, p, modes=50)
    for h, p in ((DF, P_UND), (CL, ladder)):
        with pytest.raises(HopfError, match="^degree-9 multiplicativity trials multiply words "
                                            "of up to 2 x 9 letters, over the budget of 16;"):
            check_multiplicativity(h, p, degree=9, modes=10 ** 400)
    with pytest.raises(HopfError, match="^the degree must be non-negative, got -2$"):
        _covered_letters(DF, P_UND, 10 ** 400, -2)
    with pytest.raises(HopfError, match="introduces K"):
        _covered_letters(DF, P_UND, 10 ** 400, 0)
