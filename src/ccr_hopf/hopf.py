"""Tensor powers of a CCR presentation and mechanical Hopf-axiom checks.

Two structure-map flavors are provided.  The classical one makes phi, pi
and I primitive with epsilon = 0 and S = -id.  The deformed one twists
the field coproducts by a central group-like pair,

    Delta(phi) = phi (x) K + Kinv (x) phi,    Delta(K) = K (x) K,

keeps Delta(I) primitive, and completes the unstated structure with
eps(K) = eps(Kinv) = 1, S(K) = Kinv, S(Kinv) = K (forced for group-like
elements), S(phi) = -phi, S(pi) = -pi, S(I) = -I.

Checkers are bounded-degree exhaustive over normal-form words in a
finite mode window.  They report residuals rather than asserting: some
combinations genuinely fail (primitive Delta(I) against I*I = I, slot
swap against the twisted coproduct) and the failure witness is part of
the contract.  Coassociativity, the counit and antipode axioms and the
cocommutativity probe share one sweep, _sweep: it computes Delta(w) for
every normal word w and reduces and records the residuals that each
check's own map derives from it.  The relation check records its
Delta/eps/S residuals through the same reduce-and-record step.

Reduced coproducts are built from prefixes.  Slot-wise normal form is
the quotient map from the free tensor square onto A (x) A, an algebra
homomorphism, so nf(Delta(u v)) = nf(nf(Delta(u)) nf(Delta(v))) for any
Delta on free words, whether or not Delta respects the relations.
_co_nf cuts a word where an adjacent pair has a rule: a redex-free run
grows letter by letter from its reduced prefix, and the head and the
last run are joined and reduced once.  Each result is memoized in a
dict owned by one top-level call (coproduct, one _sweep or one
check_multiplicativity) and dropped when it returns; the presentation
never holds it, so a caller that keeps a presentation alive keeps no
coproducts.  A sweep takes each word's Delta, and the Delta of every
slot word for coassociativity, from its memo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .algebra import (
    BASIS_FIELD,
    DEFORMED_COLLAPSED,
    DEFORMED_STRICT,
    FAM_AM,
    FAM_AP,
    FAM_I,
    FAM_K,
    FAM_KINV,
    FAM_PHI,
    FAM_PI,
    GEN_I,
    GEN_K,
    GEN_KINV,
    UNDEFORMED,
    Expr,
    Presentation,
    _acc,
    _letter_piece,
    _pair_rule,
    _reduce_word,
    _SparseSum,
    gen_text,
    legal_letters,
    normal_form,
    word_text,
)
from .scalars import IMAG, ONE, ZERO, CcrHopfError, Scalar, signed_join

__all__ = [
    "HopfError",
    "TensorExpr",
    "HopfSpec",
    "AxiomReport",
    "Failure",
    "tensor_of",
    "coproduct",
    "counit",
    "antipode",
    "antipode_tensor",
    "swap_slots",
    "tensor_normal_form",
    "sorted_basis_words",
    "check_respects_relations",
    "check_coassociativity",
    "check_counit",
    "check_antipode",
    "cocommutativity_probe",
    "check_multiplicativity",
]


class HopfError(CcrHopfError):
    pass


class TensorExpr(_SparseSum):
    """Element of the 2- or 3-fold tensor power; keys are word tuples,
    multiplication is slotwise concatenation extended bilinearly."""

    __slots__ = ("order",)

    def __init__(self, order: int, terms=None):
        if order not in (2, 3):
            raise HopfError("tensor order must be 2 or 3")
        self.order = order
        super().__init__(terms)

    @classmethod
    def zero(cls, order: int) -> "TensorExpr":
        return cls(order)

    @classmethod
    def unit(cls, order: int) -> "TensorExpr":
        return cls(order, {((),) * order: ONE})

    def _like(self, terms: dict) -> "TensorExpr":
        t = object.__new__(type(self))
        t.order, t.terms = self.order, terms
        return t

    def _operand(self, other):
        if isinstance(other, TensorExpr) and other.order != self.order:
            raise HopfError("tensor order mismatch")
        return super()._operand(other)

    def _unit_key(self):
        return ((),) * self.order

    @staticmethod
    def _cat(k1, k2):
        return tuple(map(tuple.__add__, k1, k2))

    def __str__(self):
        parts = []
        for k in sorted(self.terms, key=lambda k: (sum(map(len, k)), k)):
            c = self.terms[k]
            body = " (x) ".join(word_text(w) for w in k)
            if c.is_one():
                parts.append(body)
            elif (-c).is_one():
                parts.append(f"-{body}")
            else:
                parts.append(f"({c})*{body}")
        return signed_join(parts)

    def __repr__(self):
        return f"TensorExpr({self.order}, {self})"


def tensor_of(*exprs: Expr) -> TensorExpr:
    """Outer product of 2 or 3 Exprs.  Distinct word pairs give distinct
    keys and products of nonzero scalars are nonzero, so no term
    accumulates or cancels."""
    terms = {(): ONE}
    for e in exprs:
        terms = {k + (w,): c * cw for k, c in terms.items() for w, cw in e.terms.items()}
    return TensorExpr(len(exprs))._like(terms)


def swap_slots(t: TensorExpr) -> TensorExpr:
    if t.order != 2:
        raise HopfError("slot swap is defined for order 2")
    return TensorExpr(2, {(k[1], k[0]): c for k, c in t.terms.items()})


def tensor_normal_form(t: TensorExpr, p: Presentation) -> TensorExpr:
    """Per-slot reduction with bilinear recombination.  The distinct
    letters are validated once; every slot word, one holding a letter
    that p expands (see algebra._letter_piece) included, goes through the
    memoized word reducer."""
    letters = tuple(dict.fromkeys(g for k in t.terms for w in k for g in w))
    p.validate_expr(Expr.from_word(letters))
    return t._like(_reduce_slots(t.terms, p))


def _reduce_slots(terms: dict, p: Presentation) -> dict:
    """tensor_normal_form on a key -> coefficient mapping whose letters are
    legal in p."""
    out = {}
    for k, c in terms.items():
        forms = [_reduce_word(w, p) for w in k]
        if all(map(dict.__contains__, forms, k)):
            # every slot is normal already: a normal word is its own form
            _acc(out, k, c)
            continue
        for combo in product(*(f.items() for f in forms)):
            m = ONE
            for _, cw in combo:
                m = m * cw
            _acc(out, tuple(w for w, _ in combo), c * m)
    return out


# ---------------------------------------------------------------------------
# Structure maps

CLASSICAL = "classical"
DEFORMED = "deformed"


@dataclass(frozen=True)
class HopfSpec:
    flavor: str

    @classmethod
    def classical(cls) -> "HopfSpec":
        return cls(CLASSICAL)

    @classmethod
    def deformed(cls) -> "HopfSpec":
        return cls(DEFORMED)

    def __post_init__(self):
        if self.flavor not in (CLASSICAL, DEFORMED):
            raise HopfError(f"unknown flavor {self.flavor!r}")

    def covers(self, gen) -> bool:
        fam = gen[0]
        if fam in (FAM_AP, FAM_AM):
            return False
        if self.flavor == CLASSICAL:
            return fam in (FAM_I, FAM_PHI, FAM_PI)
        return True

    def _require(self, gen):
        if not self.covers(gen):
            raise HopfError(
                f"generator {gen_text(gen)} is not covered by the "
                f"{self.flavor} structure maps"
            )

    def delta_gen(self, gen) -> TensorExpr:
        self._require(gen)
        e = Expr.from_word((gen,))
        one = Expr.from_word(())
        if self.flavor == CLASSICAL or gen[0] == FAM_I:
            return tensor_of(e, one) + tensor_of(one, e)
        if gen[0] in (FAM_K, FAM_KINV):
            return tensor_of(e, e)
        k = Expr.from_word((GEN_K,))
        kinv = Expr.from_word((GEN_KINV,))
        return tensor_of(e, k) + tensor_of(kinv, e)

    def eps_gen(self, gen) -> Scalar:
        self._require(gen)
        if self.flavor == DEFORMED and gen[0] in (FAM_K, FAM_KINV):
            return ONE
        return ZERO

    def s_gen(self, gen) -> Expr:
        self._require(gen)
        if self.flavor == DEFORMED:
            if gen[0] == FAM_K:
                return Expr.from_word((GEN_KINV,))
            if gen[0] == FAM_KINV:
                return Expr.from_word((GEN_K,))
        return -Expr.from_word((gen,))


def _check_flavor_variant(h: HopfSpec, p: Presentation):
    if h.flavor == DEFORMED and p.variant == UNDEFORMED:
        raise HopfError("the deformed coproduct introduces K; use a deformed variant")
    if p.basis != BASIS_FIELD:
        raise HopfError("Hopf structure maps are defined over the phi-pi basis")


def _check_input(e: Expr, h: HopfSpec, p: Presentation):
    """The structure maps' one guard: flavor, variant and basis agree, h
    covers every letter of e, and e is legal in p."""
    _check_flavor_variant(h, p)
    for w in e.terms:
        for g in w:
            h._require(g)
    p.validate_expr(e)


def _co_word(word, h: HopfSpec) -> TensorExpr:
    t = TensorExpr.unit(2)
    for g in word:
        t = t * h.delta_gen(g)
    return t


def _co_free(e: Expr, h: HopfSpec) -> TensorExpr:
    """Delta on the free algebra: _co_word extended linearly, unreduced."""
    return e._linear(lambda w: _co_word(w, h).terms, TensorExpr.zero(2))


def _co_nf(word, h: HopfSpec, p: Presentation, memo: dict) -> TensorExpr:
    """The tensor normal form of Delta(word), memoized in memo, a dict that
    one top-level call owns (see the module docstring).  A word is cut at
    its last pair that has a rule, and a redex-free word before its last
    letter; the two parts' forms are multiplied and reduced once, so a run
    grows letter by letter, nf(Delta(u g)) = nf(nf(Delta(u)) nf(Delta(g))),
    and runs join once.  The words still to build wait on an explicit
    stack, so no word is too long for the recursion limit."""
    stack = [word]
    while stack:
        w = stack[-1]
        if w in memo:
            stack.pop()
        elif len(w) <= 1:
            memo[w] = (tensor_normal_form(h.delta_gen(w[0]), p) if w
                       else TensorExpr.unit(2))
            stack.pop()
        else:
            cut = next((i for i in range(len(w) - 1, 0, -1) if _pair_rule(w[i - 1], w[i], p)),
                       len(w) - 1)
            head, run = w[:cut], w[cut:]
            missing = [u for u in (head, run) if u not in memo]
            if missing:
                stack += missing
            else:
                memo[w] = TensorExpr(2)._like(_reduce_slots((memo[head] * memo[run]).terms, p))
                stack.pop()
    return memo[word]


def _co_expr(e: Expr, h: HopfSpec, p: Presentation, memo: dict) -> TensorExpr:
    """_co_nf extended linearly; e must have passed _check_input."""
    return e._linear(lambda w: _co_nf(w, h, p, memo).terms, TensorExpr.zero(2))


def coproduct(e: Expr, h: HopfSpec, p: Presentation) -> TensorExpr:
    """Multiplicative extension of the generator coproduct, reduced to
    tensor normal form."""
    _check_input(e, h, p)
    return _co_expr(e, h, p, {})


def _eps_word(word, h: HopfSpec) -> Scalar:
    """eps on one word: the product of eps(g) over its letters."""
    v = ONE
    for g in word:
        v = v * h.eps_gen(g)
        if v.is_zero():
            break
    return v


def _eps_free(e: Expr, h: HopfSpec) -> Scalar:
    """eps on the free algebra: _eps_word extended linearly."""
    return sum((c * _eps_word(w, h) for w, c in e.terms.items()), ZERO)


def counit(e: Expr, h: HopfSpec, p: Presentation) -> Scalar:
    _check_input(e, h, p)
    return _eps_free(e, h)


def _s_word(word, h: HopfSpec) -> Expr:
    """S on one word: the product of S(g) over its letters in reverse."""
    out = Expr.from_word(())
    for g in reversed(word):
        out = out * h.s_gen(g)
    return out


def antipode(e: Expr, h: HopfSpec, p: Presentation) -> Expr:
    """Anti-multiplicative extension of the generator antipode, then
    normal form."""
    _check_input(e, h, p)
    return normal_form(_s_free(e, h), p)


def _s_free(e: Expr, h: HopfSpec) -> Expr:
    """S on the free algebra: _s_word extended linearly, unreduced."""
    return e._linear(lambda w: _s_word(w, h).terms)


def antipode_tensor(t: TensorExpr, h: HopfSpec, p: Presentation) -> TensorExpr:
    """S applied in every slot (no slot reversal), tensor-reduced."""
    return tensor_normal_form(
        t._linear(lambda words: tensor_of(*(_s_word(w, h) for w in words)).terms), p
    )


# ---------------------------------------------------------------------------
# Axiom checks


@dataclass(frozen=True)
class Failure:
    witness: str
    residual_text: str
    residual: object = field(compare=False, default=None)


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    degree: int | None
    status: str
    failures: tuple
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _report(axiom, degree, failures, notes=()):
    status = "pass" if not failures else "fail"
    return AxiomReport(axiom, degree, status, tuple(failures), tuple(notes))


def _record(failures: list, witness: str, residual, p: Presentation):
    """Reduce a residual (a tensor, an element or a scalar) and record it
    as a failure unless it vanishes."""
    if isinstance(residual, TensorExpr):
        residual = tensor_normal_form(residual, p)
    elif isinstance(residual, Expr):
        residual = normal_form(residual, p)
    if not residual.is_zero():
        failures.append(Failure(witness, str(residual), residual))


def _sweep(axiom: str, h: HopfSpec, p: Presentation, degree: int, modes: int, residuals):
    """The bounded-degree check shared by the axioms: for every normal word
    w of degree <= degree over the covered letters, residuals(w, Delta(w),
    memo) yields (witness, residual) pairs, each reduced and recorded in
    turn.  memo is the sweep's own _co_nf memo."""
    _check_flavor_variant(h, p)
    failures = []
    memo = {}
    for w in sorted_basis_words(p, degree, _covered_letters(h, p, modes)):
        for witness, residual in residuals(w, _co_nf(w, h, p, memo), memo):
            _record(failures, witness, residual, p)
    return _report(axiom, degree, failures)


def _covered_letters(h: HopfSpec, p: Presentation, modes: int) -> list:
    letters = [g for g in legal_letters(p, modes) if h.covers(g)]
    if p.variant == DEFORMED_COLLAPSED:
        # K letters are input sugar there, not normal-form letters
        letters = [g for g in letters if g[0] not in (FAM_K, FAM_KINV)]
    if not letters or all(g[0] in (FAM_I, FAM_K, FAM_KINV) for g in letters):
        raise HopfError(
            "no covered field generators; Hopf checks run over the phi-pi basis"
        )
    return sorted(letters)


def sorted_basis_words(p: Presentation, max_degree: int, letters) -> list:
    """All normal-form words of degree <= max_degree over the letters,
    in a stable order (the empty word first).  A letter that p expands
    (a collapsed K, a letter of the other basis) is in no normal word.  A
    normal word w extended by a letter g >= w[-1] stays normal unless the
    pair w[-1], g has a rule, so no candidate is normal-ordered."""
    letters = sorted(letters)
    if max_degree > 0:
        p.validate_expr(Expr.from_word(letters))
    letters = [g for g in letters if _letter_piece(g, p) is None]
    words = [()]
    level = [()]
    for _ in range(max_degree):
        level = [
            w + (g,)
            for w in level
            for g in letters[letters.index(w[-1]) if w else 0 :]
            if not (w and _pair_rule(w[-1], g, p))
        ]
        words.extend(level)
    return words


def _relations(p: Presentation, h: HopfSpec, modes: int):
    """Defining relations (label, L, R) with all letters covered by h."""
    _covered_letters(h, p, modes)  # raises unless a field generator is covered
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
            rels.append(
                (f"[phi({j}),phi({k})] = 0", word((FAM_PHI, k), (FAM_PHI, j)),
                 word((FAM_PHI, j), (FAM_PHI, k)))
            )
            rels.append(
                (f"[pi({j}),pi({k})] = 0", word((FAM_PI, k), (FAM_PI, j)),
                 word((FAM_PI, j), (FAM_PI, k)))
            )
    centrals = [GEN_I]
    if p.variant == DEFORMED_STRICT and h.covers(GEN_K):
        centrals += [GEN_K, GEN_KINV]
    x = (FAM_PHI, 0)
    for z in centrals:
        rels.append((f"{gen_text(z)} central", word(x, z), word(z, x)))
    if p.idempotent_identity:
        rels.append(("I*I = I", ii * ii, ii))
    if p.variant == DEFORMED_STRICT and h.covers(GEN_K):
        one = Expr.from_word(())
        rels.append(("K*Kinv = 1", word(GEN_K, GEN_KINV), one))
        rels.append(("Kinv*K = 1", word(GEN_KINV, GEN_K), one))
    return rels


def check_respects_relations(h: HopfSpec, p: Presentation, modes: int = 2) -> AxiomReport:
    """Whether Delta, eps, S are well defined on the quotient: for each
    defining relation L = R, the residuals Delta(L)-Delta(R),
    eps(L)-eps(R), S(L)-S(R) are reduced and reported."""
    _check_flavor_variant(h, p)
    failures = []
    for label, L, R in _relations(p, h, modes):
        for name, free_map in (("Delta", _co_free), ("eps", _eps_free), ("S", _s_free)):
            _record(failures, f"{name} on {label}", free_map(L - R, h), p)
    notes = []
    if any("I*I = I" in f.witness for f in failures):
        notes.append(
            "a primitive Delta(I) cannot respect I*I = I; the residual is "
            "structural, recorded as a finding rather than repaired"
        )
    return _report("respects-relations", None, failures, notes)


def _co_slot(t: TensorExpr, slot: int, h: HopfSpec, p: Presentation, memo: dict) -> TensorExpr:
    """(Delta (x) id) t for slot 0 and (id (x) Delta) t for slot 1, with
    Delta reduced through _co_nf."""
    return t._linear(
        lambda k: {k[:slot] + u + k[slot + 1 :]: c
                   for u, c in _co_nf(k[slot], h, p, memo).terms.items()},
        TensorExpr.zero(3),
    )


def check_coassociativity(
    h: HopfSpec, p: Presentation, degree: int = 3, modes: int = 2
) -> AxiomReport:
    def residuals(w, t, memo):
        yield word_text(w), _co_slot(t, 0, h, p, memo) - _co_slot(t, 1, h, p, memo)

    return _sweep("coassociativity", h, p, degree, modes, residuals)


def check_counit(h: HopfSpec, p: Presentation, degree: int = 3, modes: int = 2) -> AxiomReport:
    def residuals(w, t, _memo):
        e = Expr.from_word(w)
        left = t._linear(lambda k: {k[1]: _eps_word(k[0], h)}, Expr.zero())
        right = t._linear(lambda k: {k[0]: _eps_word(k[1], h)}, Expr.zero())
        yield f"(eps x id) on {word_text(w)}", left - e
        yield f"(id x eps) on {word_text(w)}", right - e

    return _sweep("counit", h, p, degree, modes, residuals)


def check_antipode(h: HopfSpec, p: Presentation, degree: int = 3, modes: int = 2) -> AxiomReport:
    def residuals(w, t, _memo):
        one = Expr.from_word(())
        left = t._linear(lambda k: (_s_word(k[0], h) * Expr.from_word(k[1])).terms, one)
        right = t._linear(lambda k: (Expr.from_word(k[0]) * _s_word(k[1], h)).terms, one)
        target = _eps_word(w, h) * one
        yield f"m(S x id)Delta on {word_text(w)}", left - target
        yield f"m(id x S)Delta on {word_text(w)}", right - target

    return _sweep("antipode", h, p, degree, modes, residuals)


def cocommutativity_probe(
    h: HopfSpec, p: Presentation, degree: int = 2, modes: int = 2
) -> AxiomReport:
    return _sweep("cocommutativity", h, p, degree, modes,
                  lambda w, t, _memo: [(word_text(w), t - swap_slots(t))])


def check_multiplicativity(
    h: HopfSpec,
    p: Presentation,
    degree: int = 3,
    modes: int = 2,
    trials: int = 25,
    seed: int = 42,
) -> AxiomReport:
    """Delta(x*y) - Delta(x)Delta(y) for random x, y, where Delta is the
    word-wise multiplicative extension and the product is the free
    concatenation.  Well-definedness modulo the relations is the
    business of check_respects_relations."""
    _check_flavor_variant(h, p)
    letters = _covered_letters(h, p, modes)
    rng = random.Random(seed)
    pool = [ONE, -ONE, IMAG, Scalar.rational(2), Scalar.rational(1, 1)]
    failures = []
    memo = {}  # shared by the trials' coproducts

    def co(e):
        _check_input(e, h, p)
        return _co_expr(e, h, p, memo)

    for trial in range(trials):
        def rand_expr():
            e = Expr.zero()
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(0, degree)
                w = tuple(rng.choice(letters) for _ in range(n))
                e = e + Expr.from_word(w, rng.choice(pool))
            return e

        x, y = rand_expr(), rand_expr()
        res = tensor_normal_form(co(x * y) - co(x) * co(y), p)
        if not res.is_zero():
            failures.append(Failure(f"trial {trial}: x={x}; y={y}", str(res), res))
    return _report("multiplicativity", degree, failures)
