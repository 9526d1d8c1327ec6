"""Normal ordering, adjoints, basis conversion and deformation scalars."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ccr_hopf.algebra import (
    FAM_AM,
    FAM_AP,
    FAM_PHI,
    FAM_PI,
    GEN_I,
    GEN_K,
    GEN_KINV,
    AlgebraError,
    Expr,
    Gram,
    Presentation,
    adjoint,
    am,
    ap,
    basis_convert,
    commutator,
    deformation_constant,
    deformation_pair,
    evaluate_numeric,
    expand_k,
    gen_I,
    gen_K,
    gen_Kinv,
    legal_letter_count,
    normal_form,
    phi,
    pi,
    random_expr,
    random_word,
    unit,
    _expand_word,
    _letter_piece,
    _pair_rule,
    _reduce_word,
)
from ccr_hopf.hopf import HopfSpec, check_antipode, check_coassociativity
from ccr_hopf.scalars import IMAG, KAPPA, ONE, R2, S_PARAM, Scalar

P_UND = Presentation()
P_DEF = Presentation(variant="deformed-strict")
P_COL = Presentation(variant="deformed-collapsed")
P_LAD = Presentation(basis="ladder")
P_DEF_LAD = Presentation(variant="deformed-strict", basis="ladder")


def test_pi_phi_rewrite_deformed():
    got = normal_form(pi(0) * phi(0), P_DEF)
    want = phi(0) * pi(0) - IMAG * KAPPA * gen_I()
    assert got == want


def test_commutator_examples():
    assert commutator(pi(0), phi(0), P_DEF) == -IMAG * KAPPA * gen_I()
    assert commutator(pi(0), phi(0), P_UND) == -IMAG * gen_I()
    assert commutator(phi(0), phi(1), P_UND).is_zero()
    assert commutator(pi(0), pi(1), P_DEF).is_zero()


def test_commutator_scaled_gram():
    p = Presentation(variant="deformed-strict", gram=Gram([[2]]))
    assert commutator(pi(0), phi(0), p) == Scalar.rational(-2) * IMAG * KAPPA * gen_I()


def test_orthogonal_modes_already_normal():
    e = phi(0) * pi(1)
    assert normal_form(e, P_UND) == e
    # crossing modes with delta gram swaps freely
    assert normal_form(pi(1) * phi(0), P_UND) == phi(0) * pi(1)


def test_identity_idempotent():
    assert normal_form(gen_I() * gen_I(), P_UND) == gen_I()
    assert normal_form(gen_I() ** 3, P_DEF) == gen_I()
    p_free = Presentation(idempotent_identity=False)
    assert normal_form(gen_I() * gen_I(), p_free) == gen_I() * gen_I()


def test_identity_central():
    assert normal_form(phi(0) * gen_I(), P_UND) == normal_form(gen_I() * phi(0), P_UND)
    got = normal_form(pi(0) * gen_I() * phi(0), P_DEF)
    want = normal_form(gen_I() * pi(0) * phi(0), P_DEF)
    assert got == want


def test_ladder_rewrite_undeformed():
    got = normal_form(am(0) * ap(0), P_LAD)
    assert got == ap(0) * am(0) + gen_I()


def test_ladder_rewrite_deformed():
    got = commutator(am(0), ap(0), P_DEF_LAD)
    assert got == KAPPA * gen_I()


def test_k_contraction_strict():
    assert normal_form(gen_K() * gen_Kinv(), P_DEF) == unit()
    assert normal_form(gen_Kinv() * gen_K(), P_DEF) == unit()
    # K powers are normal-form words
    e = gen_K() * gen_K()
    assert normal_form(e, P_DEF) == e
    assert normal_form(gen_K() * phi(0), P_DEF) == normal_form(phi(0) * gen_K(), P_DEF)


def test_variant_legality():
    with pytest.raises(AlgebraError):
        normal_form(gen_K(), P_UND)
    normal_form(gen_K(), P_DEF)
    normal_form(gen_K(), P_COL)


def test_adjoint_examples():
    assert adjoint(ap(0)) == am(0)
    assert adjoint(IMAG * phi(0)) == -IMAG * phi(0)
    assert adjoint(phi(0) * pi(1)) == pi(1) * phi(0)
    assert adjoint(gen_K()) == gen_K()


def test_adjoint_involution():
    rng = random.Random(7021)
    for p in (P_UND, P_DEF, P_LAD):
        for _ in range(40):
            e = random_expr(rng, p, 4, 3)
            assert adjoint(adjoint(e)) == e


def test_star_compatibility():
    # adjoint commutes with reduction when the metric is real symmetric
    rng = random.Random(40217)
    gram = Gram([[1, Fraction(1, 2)], [Fraction(1, 2), 2]])
    for p in (
        P_UND,
        P_DEF,
        P_DEF_LAD,
        Presentation(variant="deformed-strict", gram=gram),
    ):
        for _ in range(60):
            e = random_expr(rng, p, 5, 2)
            # adjoint reverses sorted words, so compare canonical forms
            assert normal_form(adjoint(e), p) == normal_form(
                adjoint(normal_form(e, p)), p
            )


def test_basis_convert_examples():
    half_r2 = ONE / R2
    got = basis_convert(ap(0), "phi-pi", P_UND)
    assert got == (phi(0) - IMAG * pi(0)) * half_r2
    got = basis_convert(phi(0), "ladder", P_UND)
    assert got == (ap(0) + am(0)) * half_r2
    # ladder commutator evaluated through the field basis
    assert commutator(am(0), ap(0), P_DEF) == KAPPA * gen_I()


def test_basis_roundtrip():
    rng = random.Random(90125)
    for p in (P_UND, P_DEF):
        for _ in range(40):
            e = random_expr(rng, p, 4, 2)
            back = basis_convert(basis_convert(e, "ladder", p), "phi-pi", p)
            assert back == normal_form(e, p)


def test_expand_k_examples():
    assert expand_k(gen_K() * gen_Kinv(), P_COL) == unit()
    got = expand_k(gen_K() ** 2 - gen_Kinv() ** 2, P_COL)
    want = (S_PARAM ** 2 - S_PARAM ** -2) * gen_I()
    assert got == want
    p1 = Presentation(variant="deformed-collapsed", q=1.0, c=5.0)
    assert expand_k(gen_K(), p1) == unit()
    with pytest.raises(AlgebraError):
        expand_k(gen_K(), P_DEF)


def test_collapsed_numeric_exact():
    p = Presentation(variant="deformed-collapsed", q=1.7, c=2.3)
    assert normal_form(gen_K() * gen_Kinv(), p) == unit()
    got = normal_form(pi(0) * phi(0), p)
    kap = got.coefficient(((0, 0),)) * IMAG  # -i*kappa times i gives kappa
    assert abs(kap.to_complex() - deformation_constant(1.7, 2.3)) < 1e-15


def test_deformation_constant_values():
    assert deformation_constant(3.0, 1.0) == 1.0
    assert deformation_constant(1.0, 5.0) == 1.0
    assert abs(deformation_constant(2.0, 2.0) - 1.25) < 1e-15
    with pytest.raises(AlgebraError):
        deformation_constant(-1.0, 2.0)
    with pytest.raises(AlgebraError):
        deformation_constant(2.0, 0.0)


def test_deformation_pair_values():
    for q, c in ((1.7, 2.3), (0.4, 1.0), (3.0, 0.25)):
        assert deformation_pair(q, c) == (deformation_constant(q, c), q ** (c / 2))


@pytest.mark.parametrize(
    "q, c",
    [(math.nan, 1.0), (2.0, math.nan), (math.inf, 1.0), (2.0, math.inf), (1e300, 2.0),
     (1e-300, 3.0), (0.0, 1.0), (2.0, -1.0)],
)
def test_deformation_pair_refuses_unusable_values(q, c):
    with pytest.raises(AlgebraError):
        deformation_pair(q, c)
    with pytest.raises(AlgebraError):
        Presentation(variant="deformed-strict", q=q, c=c)


def test_deformation_constant_special_cases():
    rng = random.Random(5150)
    for _ in range(100):
        q = 0.1 + 9.9 * rng.random()
        assert abs(deformation_constant(q, 1.0) - 1.0) <= 1e-12
    for c in (0.5, 1.0, 2.0, 7.0):
        for q in (1.0 + 1e-5, 1.0 - 1e-5):
            assert abs(deformation_constant(q, c) - 1.0) < 1e-8


def test_idempotence_and_congruence():
    rng = random.Random(61803)
    for p in (P_UND, P_DEF, P_COL, P_LAD):
        for _ in range(40):
            x = random_expr(rng, p, 4, 3)
            y = random_expr(rng, p, 4, 3)
            nx = normal_form(x, p)
            assert normal_form(nx, p) == nx
            assert normal_form(x * y, p) == normal_form(
                normal_form(x, p) * normal_form(y, p), p
            )


def test_jacobi_identity():
    rng = random.Random(31415)
    for p in (P_UND, P_DEF):
        for _ in range(25):
            x = random_expr(rng, p, 2, 2, nterms=2)
            y = random_expr(rng, p, 2, 2, nterms=2)
            z = random_expr(rng, p, 2, 2, nterms=2)
            s = (
                commutator(x, commutator(y, z, p), p)
                + commutator(y, commutator(z, x, p), p)
                + commutator(z, commutator(x, y, p), p)
            )
            assert normal_form(s, p).is_zero()


def test_kappa_one_matches_undeformed():
    rng = random.Random(27182)
    for _ in range(60):
        # K-free inputs so the undeformed variant accepts the same expression
        e = random_expr(rng, P_UND, 5, 3)
        deformed = normal_form(e, P_DEF).map_coefficients(
            lambda s: s.substitute({"kappa": 1})
        )
        assert deformed == normal_form(e, P_UND)


def _agreement_presentations():
    gram = Gram([[2, (1, 1), 0], [(1, -1), 1, "1/3"], [0, "1/3", 1]])
    for variant in ("undeformed", "deformed-strict", "deformed-collapsed"):
        deformations = [{}] if variant == "undeformed" else [{}, {"q": 1.5, "c": 0.8}]
        for basis in ("phi-pi", "ladder"):
            for g in (None, gram):
                for qc in deformations:
                    yield Presentation(variant=variant, basis=basis, gram=g, **qc)
            if variant != "deformed-collapsed":
                yield Presentation(variant=variant, basis=basis, idempotent_identity=False)


def test_schedules_agree_smoke():
    # leftmost is the insertion engine, rightmost the reference stack walker
    rng = random.Random(11235)
    k_letters = {GEN_K, GEN_KINV}
    k_seen = set()
    for p in _agreement_presentations():
        other = p.with_basis("ladder" if p.basis == "phi-pi" else "phi-pi")
        exprs = [random_expr(rng, p, 7, 3) for _ in range(16)]
        # words in the other basis, alone and mixed with this one, are
        # rewritten letter by letter before reduction
        exprs += [random_expr(rng, other, 4, 3) for _ in range(4)]
        exprs += [random_expr(rng, p, 3, 3) * random_expr(rng, other, 3, 3) for _ in range(4)]
        for e in exprs:
            if any(g in k_letters for w in e.terms for g in w):
                k_seen.add(p.variant)
            assert normal_form(e, p, "leftmost") == normal_form(e, p, "rightmost")
    assert k_seen == {"deformed-strict", "deformed-collapsed"}
    with pytest.raises(AlgebraError):
        normal_form(phi(0), P_UND, "innermost")


def _rook_normal_form(n, kappa, field, j=0):
    """phi^n pi^n + I sum_k k! C(n,k)^2 (-i kappa)^k phi^(n-k) pi^(n-k), the
    normal form of pi^n phi^n from the boson rook numbers (mode j); the
    ladder form am^n ap^n has ap, am in place of phi, pi and kappa^k."""
    create, annihilate = (phi(j), pi(j)) if field else (ap(j), am(j))
    step = -IMAG * kappa if field else kappa
    out = create ** n * annihilate ** n
    for k in range(1, n + 1):
        c = Scalar.rational(math.factorial(k) * math.comb(n, k) ** 2) * step ** k
        out = out + c * gen_I() * create ** (n - k) * annihilate ** (n - k)
    return out


@pytest.mark.parametrize("variant, kappa", [("undeformed", ONE), ("deformed-strict", KAPPA)])
def test_normal_order_rook_closed_form(variant, kappa):
    for basis in ("phi-pi", "ladder"):
        p = Presentation(variant=variant, basis=basis)
        field = basis == "phi-pi"
        for n in range(1, 11):
            word = pi(0) ** n * phi(0) ** n if field else am(0) ** n * ap(0) ** n
            got = normal_form(word, p)
            assert len(got.terms) == n + 1
            assert got == _rook_normal_form(n, kappa, field)


@pytest.mark.parametrize("variant, kappa", [("undeformed", ONE), ("deformed-strict", KAPPA)])
def test_basis_convert_rook_round_trip(variant, kappa):
    # am^10 ap^10 holds 2^20 free words once its letters are expanded into
    # the field basis; folding each letter's piece into a normal suffix
    # keeps only the normal words, so the round trip is cheap
    p = Presentation(variant=variant)
    j = 0 if variant == "undeformed" else 2
    field = basis_convert(am(j) ** 10 * ap(j) ** 10, "phi-pi", p)
    assert len(field.terms) > 11
    assert basis_convert(field, "ladder", p) == _rook_normal_form(10, kappa, False, j)


def _expand_then_reduce(e, p):
    """Reference normal form: every word's letters are expanded into the
    free algebra over p's own letters first, and each resulting word is
    then reduced on its own."""
    out = {}
    for w, c in e.terms.items():
        for w2, c2 in _expand_word(w, p).terms.items():
            for v, c3 in _reduce_word(w2, p).items():
                out[v] = out.get(v, Scalar.zero()) + c * c2 * c3
    return Expr(out)


_MIXED_COEFFS = (ONE, -IMAG, Scalar.rational(Fraction(3, 7)), KAPPA, S_PARAM ** -1,
                 ONE / (ONE + S_PARAM), (Scalar.rational(2) + KAPPA) / (ONE + S_PARAM))


def _mixed_expr(rng, p, max_degree=6, modes=2):
    """A random expression over both bases' letters, plus K and Kinv
    wherever p admits them."""
    letters = [GEN_I] + [(f, j) for f in (FAM_PHI, FAM_PI, FAM_AP, FAM_AM) for j in range(modes)]
    if p.variant != "undeformed":
        letters += [GEN_K, GEN_KINV]
    e = Expr.zero()
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_degree)))
        e = e + Expr.from_word(word, rng.choice(_MIXED_COEFFS))
    return e


_ORACLE_GRAM = [[1, ["1/2", "1/3"]], [["1/2", "-1/3"], 2]]


@pytest.mark.parametrize("variant", ["undeformed", "deformed-strict", "deformed-collapsed"])
@pytest.mark.parametrize("basis", ["phi-pi", "ladder"])
@pytest.mark.parametrize("gram", [None, _ORACLE_GRAM])
@pytest.mark.parametrize("qc", [{}, {"q": 1.5, "c": 0.8}])
def test_pieces_fold_matches_expand_then_reduce(variant, basis, gram, qc):
    def presentation():
        return Presentation(variant=variant, basis=basis, gram=gram, **qc)

    p, ref = presentation(), presentation()
    rng = random.Random(f"{variant}/{basis}/{gram is None}/{bool(qc)}")
    for _ in range(12):
        e = _mixed_expr(rng, p)
        got, want = normal_form(e, p), _expand_then_reduce(e, ref)
        assert got == want
        coeffs = list(got.terms.values()) + list(want.terms.values())
        if all(c.denominator_terms() is None for c in coeffs):
            assert str(got) == str(want)
    # a word with a piece letter is memoized like any other word
    assert any(_letter_piece(g, p) is not None for w in p._nf_cache for g in w)


def test_pieces_fold_keeps_the_presentation_fields():
    for p in (P_UND, P_LAD, P_COL, Presentation(variant="deformed-collapsed", basis="ladder")):
        before = set(vars(p))
        basis_convert(am(0) ** 3 * ap(0) ** 3 + gen_I() * phi(1) * pi(0), "phi-pi", p)
        basis_convert(pi(0) ** 3 * phi(0) ** 3, "ladder", p)
        if p.variant == "deformed-collapsed":
            expand_k(gen_K() * pi(0) * gen_Kinv() * phi(0) * gen_K(), p)
        assert set(vars(p)) == before


def test_long_words_reduce_without_recursion():
    got = normal_form(pi(0) * phi(0) ** 600, P_UND)
    assert got == phi(0) ** 600 * pi(0) - Scalar.rational(600) * IMAG * gen_I() * phi(0) ** 599
    assert normal_form(pi(0) * phi(1) ** 800, P_UND) == phi(1) ** 800 * pi(0)


def test_evaluate_numeric():
    e = KAPPA * gen_I()
    got = evaluate_numeric(e, {"kappa": 1.25})
    assert got == {((0, 0),): 1.25 + 0j}
    e2 = (S_PARAM - S_PARAM ** -1) * phi(0)
    got2 = evaluate_numeric(e2, {"s": 1.0})
    assert list(got2.values()) == [0j]
    got3 = evaluate_numeric(IMAG * pi(0))
    assert got3 == {((4, 0),): 1j}


def test_gram_validation():
    with pytest.raises(AlgebraError):
        Gram([[1, 1j], [1j, 1]])  # not Hermitian
    g = Gram([[1, 0.5j], [-0.5j, 1]])
    assert g.scalar(0, 1).conjugate() == g.scalar(1, 0)
    p = Presentation(gram=Gram([[1]]))
    with pytest.raises(AlgebraError):
        normal_form(pi(1) * phi(1), p)


def test_mode_index_checked_against_gram():
    p = Presentation(gram=Gram([[1, 0], [0, 1]]))
    for e in (phi(5), phi(5) * pi(5), pi(5) * phi(5), ap(2) + phi(0)):
        with pytest.raises(AlgebraError, match="outside the 2-mode gram"):
            normal_form(e, p)
    with pytest.raises(AlgebraError, match="outside the 2-mode gram"):
        adjoint(am(3), p)
    # central letters carry no mode, and the delta gram has no window
    assert normal_form(gen_I() * phi(1), p) == gen_I() * phi(1)
    assert normal_form(phi(5), P_UND) == phi(5)


def test_expr_printing_stable():
    e = pi(0) * phi(0) - phi(0) * pi(0) + Scalar.rational(3) * unit()
    assert str(e) == str(e)
    assert str(Expr.zero()) == "0"
    assert str(unit()) == "one"
    assert "phi(0)" in str(phi(0))
    assert str(ap(1) * ap(1)) == "ap(1)^2"


# ---------------------------------------------------------------------------
# The per-presentation rule tables


def test_pair_rules():
    p = Presentation(variant="deformed-strict")
    ph0, pi0, ph1 = (FAM_PHI, 0), (FAM_PI, 0), (FAM_PHI, 1)
    assert _pair_rule(ph0, pi0, p) == ()
    assert _pair_rule(ph1, ph0, p) == (((ph0, ph1), ONE),)
    assert _pair_rule(pi0, ph1, p) == (((ph1, pi0), ONE),)
    assert _pair_rule(pi0, ph0, p) == (((ph0, pi0), ONE), ((GEN_I,), -IMAG * KAPPA))
    assert _pair_rule((FAM_AM, 0), (FAM_AP, 0), P_DEF_LAD)[1] == ((GEN_I,), KAPPA)
    assert _pair_rule(GEN_I, GEN_I, p) == (((GEN_I,), ONE),)
    assert _pair_rule(GEN_I, GEN_I, Presentation(idempotent_identity=False)) == ()
    assert _pair_rule(GEN_KINV, GEN_K, p) == _pair_rule(GEN_K, GEN_KINV, p) == (((), ONE),)
    with pytest.raises(AlgebraError, match="no rewrite"):
        _pair_rule((FAM_AP, 0), ph0, p)


def test_letter_pieces():
    assert _letter_piece((FAM_PHI, 0), P_UND) is None
    assert _letter_piece(GEN_K, P_DEF) is None
    assert _letter_piece(GEN_K, P_COL) == unit() + (S_PARAM - ONE) * gen_I()
    assert _letter_piece(GEN_KINV, P_COL) == unit() + (S_PARAM ** -1 - ONE) * gen_I()
    assert _letter_piece((FAM_AP, 1), P_UND) == (phi(1) - IMAG * pi(1)) * (ONE / R2)
    assert _letter_piece((FAM_PI, 1), P_LAD) == IMAG * (ap(1) - am(1)) * (ONE / R2)
    assert _letter_piece((FAM_AM, 1), P_LAD) is None


@pytest.mark.parametrize("variant", ["undeformed", "deformed-strict", "deformed-collapsed"])
def test_rule_tables_stay_within_the_letters(variant):
    # the tables are keyed by letter pairs and letters, so a sweep over
    # n letters leaves at most n^2 rules and n pieces however many words
    # it reduces
    p = Presentation(variant=variant, gram=[[1, ["1/2", "1/3"]], [["1/2", "-1/3"], 2]])
    h = HopfSpec.classical() if variant == "undeformed" else HopfSpec.deformed()
    check_coassociativity(h, p, degree=3, modes=2)
    check_antipode(h, p, degree=3, modes=2)
    n = legal_letter_count(p, 2)
    assert len(p._nf_cache) > n * n
    assert 0 < len(p._rules) <= n * n
    assert 0 < len(p._pieces) <= n


def test_rule_tables_are_per_presentation():
    # presentations that differ only in the gram or in (q, c) must not
    # share a CCR multiplier
    g1 = [[1, ["1/2", "1/3"]], [["1/2", "-1/3"], 2]]
    g2 = [[1, "1/4"], ["1/4", 3]]
    pair = ((FAM_PI, 0), (FAM_PHI, 1))
    ps = [
        Presentation(variant="deformed-strict", gram=g1),
        Presentation(variant="deformed-strict", gram=g2),
        Presentation(variant="deformed-strict", gram=g1, q=1.5, c=2.0),
        Presentation(variant="deformed-strict", gram=g1, q=0.5, c=3.0),
    ]
    mults = []
    for p in ps:
        swap, (letters, m) = _pair_rule(*pair, p)
        assert letters == (GEN_I,)
        assert m == -IMAG * p.gram_scalar(0, 1) * p.kappa_scalar
        mults.append(m)
        assert normal_form(pi(0) * phi(1), p) == phi(1) * pi(0) + m * gen_I()
    assert len({str(m) for m in mults}) == len(ps)
