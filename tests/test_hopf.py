"""Structure maps and axiom checkers, including the failures that are
part of the contract (their residuals are pinned exactly)."""

from __future__ import annotations

import random

import pytest

from ccr_hopf.algebra import (
    AlgebraError,
    Expr,
    Presentation,
    am,
    gen_I,
    gen_K,
    gen_Kinv,
    legal_letters,
    normal_form,
    phi,
    pi,
    random_expr,
    unit,
    word_text,
    _expand_word,
    _reduce_word,
)
from ccr_hopf.hopf import (
    AxiomReport,
    Failure,
    HopfError,
    HopfSpec,
    TensorExpr,
    antipode,
    antipode_tensor,
    check_antipode,
    check_coassociativity,
    check_counit,
    check_multiplicativity,
    check_respects_relations,
    cocommutativity_probe,
    coproduct,
    counit,
    sorted_basis_words,
    swap_slots,
    tensor_normal_form,
    tensor_of,
    _co_free,
    _co_word,
    _covered_letters,
    _relations,
)
from ccr_hopf.scalars import IMAG, KAPPA, ONE, S_PARAM, Scalar, ZERO

CL = HopfSpec.classical()
DF = HopfSpec.deformed()
P_UND = Presentation()
P_FREE = Presentation(idempotent_identity=False)
P_DEF = Presentation(variant="deformed-strict")
P_COL = Presentation(variant="deformed-collapsed")


def test_coproduct_generators():
    got = coproduct(phi(0), CL, P_UND)
    assert got == tensor_of(phi(0), unit()) + tensor_of(unit(), phi(0))
    got = coproduct(phi(0), DF, P_DEF)
    assert got == tensor_of(phi(0), gen_K()) + tensor_of(gen_Kinv(), phi(0))
    assert coproduct(unit(), CL, P_UND) == TensorExpr.unit(2)
    assert coproduct(gen_K(), DF, P_DEF) == tensor_of(gen_K(), gen_K())


def test_coproduct_product_word():
    e = phi(0) * pi(0)
    got = coproduct(e, DF, P_DEF)
    want = tensor_normal_form(
        coproduct(phi(0), DF, P_DEF) * coproduct(pi(0), DF, P_DEF), P_DEF
    )
    assert got == want


def test_counit_values():
    assert counit(phi(0), CL, P_UND).is_zero()
    assert counit(unit(), CL, P_UND).is_one()
    assert counit(phi(0) * pi(1) + Scalar.rational(3) * unit(), CL, P_UND) == Scalar.rational(3)
    assert counit(gen_K(), DF, P_DEF).is_one()
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
    assert check_multiplicativity(CL, P_UND, trials=15, seed=5).passed
    assert check_multiplicativity(DF, P_DEF, trials=15, seed=6).passed
    assert check_multiplicativity(DF, P_COL, trials=10, seed=7).passed


def test_antipode_coalgebra_compatibility():
    # eps(S(w)) = eps(w) and Delta(S(w)) = (S x S)(tau(Delta(w)))
    for w in sorted_basis_words(P_FREE, 3, [(0, 0), (3, 0), (3, 1), (4, 0), (4, 1)]):
        e = Expr.from_word(w)
        assert counit(antipode(e, CL, P_FREE), CL, P_FREE) == counit(e, CL, P_FREE)
        lhs = coproduct(antipode(e, CL, P_FREE), CL, P_FREE)
        rhs = antipode_tensor(swap_slots(coproduct(e, CL, P_FREE)), CL, P_FREE)
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
    assert a * b == a
    assert swap_slots(swap_slots(a)) == a
    with pytest.raises(HopfError):
        a + tensor_of(phi(0), phi(0), phi(0))
    # slotwise product and linearity in each slot, over seeded pairs
    rng = random.Random(11)
    for _ in range(20):
        w, x, y, z = (random_expr(rng, P_DEF, 2, 2) for _ in range(4))
        assert tensor_of(w, x) * tensor_of(y, z) == tensor_of(w * y, x * z)
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
                if list(nf.terms) == [w2] and nf.terms[w2].is_one():
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

    for w in sorted_basis_words(p, degree, _covered_letters(h, p, modes)):
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
        record("cocommutativity", word_text(w), tensor_normal_form(t - swap_slots(t), p))
    relations = []
    for label, L, R in _relations(p, h, modes):
        dres = tensor_normal_form(coproduct(L, h, p) - coproduct(R, h, p), p)
        eres = counit(L, h, p) - counit(R, h, p)
        sres = normal_form(antipode(L, h, p) - antipode(R, h, p), p)
        for name, res in (("Delta", dres), ("eps", eres), ("S", sres)):
            if not res.is_zero():
                relations.append(Failure(f"{name} on {label}", str(res), res))
    return fails, relations


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
    out = TensorExpr.zero(t.order)
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
    out = TensorExpr.zero(t.order)
    for words, c in t.terms.items():
        slots = []
        for w in words:
            slot = Expr.zero()
            for w2, c2 in _expand_word(w, p).terms.items():
                slot = slot + c2 * Expr(_reduce_word(w2, p))
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
    # The memo of reduced coproducts belongs to one top-level call and is
    # never stored on the presentation: a memo held on Presentation raised
    # the hopf benchmark's peak RSS from 24.0 to 32.3 MB, because the
    # benchmark keeps each request's presentation until its cycle is judged.
    for h, p in ((CL, Presentation()), (DF, Presentation(variant="deformed-strict")),
                 (DF, Presentation(variant="deformed-collapsed"))):
        before = set(vars(p))
        check_multiplicativity(h, p, degree=3, modes=2, trials=3, seed=1)
        check_coassociativity(h, p, 2, 2)
        coproduct(pi(0) * phi(0) * pi(1), h, p)
        assert set(vars(p)) == before
