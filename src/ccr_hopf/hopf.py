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
every normal word w, and each check's own map derives the two sides of
its axiom from it.  A witness names its word or trial, and its text is
formatted only when a failure is recorded; a passing check formats none.
The counit sweep memoizes eps of each slot word in a dict of its own.
Every check hands _record two reduced sides of one shape, so one
equality decides (normal forms are canonical) and their difference is
the residual as it stands.  Coassociativity, cocommutativity, the
counit and multiplicativity build reduced sides by construction; the
antipode sweep reduces its S(u0) u1 and u0 S(u1) sums, and the relation
check maps each relation through the reduced Delta, eps and S.  It
reads the relations from algebra.relations, which derives them from
the rewrite rules, so this module states no relation and no piece rule
of its own.

The tensor calculus runs on numbered slot words and coefficients.  Each
top-level call (coproduct, one _sweep, one check_multiplicativity, one
check_respects_relations) owns one _SlotTable: it numbers the slot words
and the coefficients the call meets, reduces slot-wise
(_SlotTable.reduce), holds each reduced Delta, joins each pair of word
ids once, and makes the product and the sum of each pair of coefficient
ids once, so the scalar arithmetic of a call runs once per distinct pair.
Every side a check compares is a dict from k-tuples of word ids to
coefficient ids: k = 2 or 3 for Delta, k = 1 for S and the counit, and a
scalar eps is a multiple of the empty word, {(0,): the id of eps}.
Words and scalars come back only in a public result and a failure's
residual (_SlotTable.words_of).  Both sides of a comparison come from one
table, and two equal coefficients share one id (see _record), so the
sides are equal exactly when their word forms are.  The table, the word
reducer's memo included, dies with its call and the presentation never
holds it, so a caller that keeps a presentation alive keeps no
coproducts and no reduced words.

Reduced coproducts are built from prefixes.  Slot-wise normal form is
the quotient map from the free tensor square onto A (x) A, an algebra
homomorphism, so nf(Delta(u v)) = nf(nf(Delta(u)) nf(Delta(v))) for any
Delta on free words, whether or not Delta respects the relations.
_co_nf cuts a word inside every adjacent pair that has a rule and folds
the redex-free segments left to right, each grown letter by letter from
its longest reduced prefix.  Every such product, and
check_multiplicativity's right side, multiplies two reduced tensors
term by term (_SlotTable.product), joining the words of each slot
(_SlotTable.join), and only a junction that has a rule is reduced.  So
the Delta of a normal undeformed word grows without reducing any word,
the unreduced product is never built, and a sum that cancels is dropped
once, at the end.  S of a word is one word times +-1 (_s_letters), so
S(e) (_s_side), and the antipode sweep's S(u0) u1 and u0 S(u1), are
written straight into dicts keyed by 1-tuples of words, which
_SlotTable.reduce reduces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, product

from .algebra import (
    BASIS_FIELD,
    FAM_AM,
    FAM_AP,
    FAM_I,
    FAM_K,
    FAM_KINV,
    FAM_PHI,
    FAM_PI,
    GEN_K,
    GEN_KINV,
    UNDEFORMED,
    Expr,
    Presentation,
    _letter_piece,
    _pair_rule,
    _reduce_word,
    _SparseSum,
    gen_text,
    legal_letter_count,
    legal_letters,
    relations,
    word_text,
)
from .scalars import IMAG, ONE, ZERO, CcrHopfError, Scalar, _P_ONE, quotient_str, signed_join

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
    """Element of the 2- or 3-fold tensor power, keyed by tuples of slot
    words: a coproduct result or a failure's residual.  It is a value,
    not an algebra: it adds, scales and compares, and TensorExpr(order)
    is the zero tensor.  The engine multiplies tensors only on the id
    tuples of a _SlotTable, so a TensorExpr has no product and no power."""

    __slots__ = ("order",)

    def __init__(self, order: int, terms=None):
        if order not in (2, 3):
            raise HopfError("tensor order must be 2 or 3")
        self.order = order
        super().__init__(terms)

    def _like(self, terms: dict) -> "TensorExpr":
        t = object.__new__(type(self))
        t.order, t.terms = self.order, terms
        return t

    def _operand(self, other):
        if isinstance(other, TensorExpr) and other.order != self.order:
            raise HopfError("tensor order mismatch")
        return super()._operand(other)

    def __str__(self):
        terms, memo = self.terms, {}
        return signed_join([
            tensor_term_text([word_text(w) for w in k], quotient_str(*terms[k].text_parts(memo)))
            for k in sorted(terms, key=tensor_text_order)
        ])

    def __repr__(self):
        return f"TensorExpr({self.order}, {self})"


def tensor_text_order(key):
    """Sort key of the terms of a TensorExpr in its text."""
    return sum(map(len, key)), key


def tensor_term_text(slots, ctext: str) -> str:
    """One signed term of a TensorExpr's text from its slot words' texts
    and its coefficient's ``str``."""
    body = " (x) ".join(slots)
    if ctext == "1":
        return body
    if ctext == "-1":
        return f"-{body}"
    return f"({ctext})*{body}"


def tensor_of(*exprs: Expr) -> TensorExpr:
    """Outer product of 2 or 3 Exprs.  Distinct word pairs give distinct
    keys and products of nonzero scalars are nonzero, so no term
    accumulates or cancels."""
    terms = {(): ONE}
    for e in exprs:
        terms = {k + (w,): c * cw for k, c in terms.items() for w, cw in e.terms.items()}
    return TensorExpr(len(exprs))._like(terms)


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

    def delta_gen(self, gen) -> dict:
        """Delta(gen) as a dict from (slot-0 word, slot-1 word) pairs to
        coefficients, unreduced; its key order fixes the ids
        _SlotTable.reduce assigns."""
        self._require(gen)
        g = (gen,)
        if self.flavor == CLASSICAL or gen[0] == FAM_I:
            return {(g, ()): ONE, ((), g): ONE}
        if gen[0] in (FAM_K, FAM_KINV):
            return {(g, g): ONE}
        return {(g, (GEN_K,)): ONE, ((GEN_KINV,), g): ONE}

    def eps_gen(self, gen) -> Scalar:
        self._require(gen)
        if self.flavor == DEFORMED and gen[0] in (FAM_K, FAM_KINV):
            return ONE
        return ZERO

    def _s_letter(self, gen) -> tuple:
        """S(gen) as (letter, negated): every S(gen) is one letter times +-1."""
        self._require(gen)
        if self.flavor == DEFORMED and gen[0] in (FAM_K, FAM_KINV):
            return (GEN_KINV if gen[0] == FAM_K else GEN_K), False
        return gen, True


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


class _SlotTable:
    """The slot words and coefficients of one top-level call and the tensor
    calculus on their ids (see the module docstring).  words lists the
    words by id, with the empty word at 0, and ids maps a word to its id;
    coefs lists the coefficients by id, _SEED_COEFS first, and cids maps a
    coefficient's key (see cid) to its id.  A reduced order-k tensor is a
    dict from k-tuples of word ids to coefficient ids, and an element a
    dict from 1-tuples.  joins[i] maps each word id j to the join of words
    i and j, reduced is the word reducer's memo (algebra._reduce_word),
    each word reduced so far and its suffixes to their normal forms, co
    each word _co_nf has met to its reduced Delta, and muls and adds each
    pair of coefficient ids met so far to the id of their product and of
    their sum."""

    __slots__ = ("h", "p", "words", "ids", "joins", "reduced", "co", "coefs", "cids",
                 "muls", "adds")

    def __init__(self, h: HopfSpec, p: Presentation):
        self.h, self.p = h, p
        self.words, self.ids, self.joins = [()], {(): 0}, [{}]
        self.reduced, self.co = {}, {}
        self.coefs, self.cids = list(_SEED_COEFS), dict(_SEED_CIDS)
        self.muls, self.adds = {}, {}

    def id(self, word) -> int:
        i = self.ids.get(word)
        if i is None:
            i = self.ids[word] = len(self.words)
            self.words.append(word)
            self.joins.append({})
        return i

    def cid(self, c: Scalar) -> int:
        """The id of c.  Its key is its Gaussian-rational triple when it is
        a constant, else its numerator's items in monomial order, followed
        by its denominator's unless that is 1, so two coefficients share an
        id exactly when they are written alike.  A key refers to the
        monomials and triples of c and copies none of them."""
        if c is ONE:
            return 1
        key = c._c
        if key is None:
            key = (tuple(chain.from_iterable(sorted(c._num.items()))),)
            if c._den != _P_ONE:
                key += (tuple(chain.from_iterable(sorted(c._den.items()))),)
        i = self.cids.get(key)
        if i is None:
            i = self.cids[key] = len(self.coefs)
            self.coefs.append(c)
        return i

    def mul(self, a: int, b: int) -> int:
        """The id of the product of the coefficients numbered a and b."""
        if a == 1:
            return b
        if b == 1:
            return a
        r = self.muls.get((a, b))
        if r is None:
            r = self.muls[a, b] = self.cid(self.coefs[a] * self.coefs[b])
        return r

    def add(self, a: int, b: int) -> int:
        """The id of the sum of the coefficients numbered a and b."""
        r = self.adds.get((a, b))
        if r is None:
            r = self.adds[a, b] = self.cid(self.coefs[a] + self.coefs[b])
        return r

    def acc(self, out: dict, key, c: int) -> None:
        """Add the coefficient numbered c at key of out, dropping the key
        when the sum cancels."""
        a = out.get(key)
        if a is None:
            out[key] = c
        else:
            s = self.add(a, c)
            if s:
                out[key] = s
            else:
                del out[key]

    def nf(self, word) -> tuple:
        """The normal form of a word whose letters the caller has checked
        against p, as (word id, coefficient id) pairs.  The form is
        memoized in reduced and numbered afresh on each call; join stores
        the pairs for each junction it reduces."""
        return tuple([(self.id(w), self.cid(m))
                      for w, m in _reduce_word(word, self.p, self.reduced).items()])

    def join(self, i: int, j: int):
        """nf(u v) for the normal words u and v numbered i and j, stored in
        joins[i]: the id of u v unless its junction has a rule, and then
        its normal form as nf gives it.  A word is normal exactly when it
        holds no piece letter and no adjacent pair with a rule, so u v is
        normal unless its junction has a rule, and only then is it
        reduced."""
        u, v = self.words[i], self.words[j]
        if u and v and _pair_rule(u[-1], v[0], self.p):
            out = self.nf(u + v)
        else:
            out = self.id(u + v)
        self.joins[i][j] = out
        return out

    def product(self, a: dict, b: dict) -> dict:
        """The slot-wise normal form of a * b for reduced order-2 tensors a
        and b, term by term: each slot of each pair of terms is joined, so
        a slot whose junction has no rule is reduced nowhere.  A coefficient
        product or sum is looked up in muls and adds and made once."""
        joins, adds, coefs, cid = self.joins, self.adds, self.coefs, self.cid
        out, cancelled = {}, False
        for (u0, u1), c1 in a.items():
            row0, row1 = joins[u0], joins[u1]
            for (v0, v1), c2 in b.items():
                c = c2 if c1 == 1 else c1 if c2 == 1 else self.mul(c1, c2)
                j0 = row0.get(v0)
                if j0 is None:
                    j0 = self.join(u0, v0)
                j1 = row1.get(v1)
                if j1 is None:
                    j1 = self.join(u1, v1)
                if j0.__class__ is int and j1.__class__ is int:
                    # most pairs: neither junction has a rule, one word pair
                    k = (j0, j1)
                    s = out.get(k)
                    if s is None:
                        out[k] = c
                    else:
                        r = adds.get((s, c))
                        if r is None:
                            r = adds[s, c] = cid(coefs[s] + coefs[c])
                        out[k] = r
                        if not r:
                            cancelled = True
                    continue
                for w0, m0 in ((j0, 1),) if j0.__class__ is int else j0:
                    cm0 = c if m0 == 1 else self.mul(m0, c)
                    for w1, m1 in ((j1, 1),) if j1.__class__ is int else j1:
                        k, cm = (w0, w1), cm0 if m1 == 1 else self.mul(cm0, m1)
                        s = out.get(k)
                        if s is None:
                            out[k] = cm
                        else:
                            out[k] = s = self.add(s, cm)
                            if not s:
                                cancelled = True
        # sums that cancel are dropped once, at the end
        return {k: c for k, c in out.items() if c} if cancelled else out

    def reduce(self, terms: dict) -> dict:
        """The slot-wise normal form of a dict from k-tuples of words to
        coefficient ids, of any order k, keyed by k-tuples of word ids.
        Each slot word goes through nf."""
        out, nf, mul, acc = {}, self.nf, self.mul, self.acc
        for k, c in terms.items():
            for combo in product(*map(nf, k)):
                m = c
                for _, cw in combo:
                    if cw != 1:
                        m = mul(m, cw)
                acc(out, tuple([w for w, _ in combo]), m)
        return out

    def words_of(self, terms: dict, order: int):
        """The Expr (order 1) or TensorExpr (order 2 or 3) whose slot words
        and coefficients the ids of terms name."""
        words, coefs = self.words, self.coefs
        if order == 1:
            return Expr.zero()._like({words[i]: coefs[c] for (i,), c in terms.items()})
        return TensorExpr(order)._like(
            {tuple(map(words.__getitem__, k)): coefs[c] for k, c in terms.items()})


# the coefficients every _SlotTable numbers first: 0 is zero, 1 is one and
# _MINUS_ONE is -1, so a zero test or a factor of one is an int compare
_SEED_COEFS = (ZERO, ONE, -ONE)
_SEED_CIDS = {c._c: i for i, c in enumerate(_SEED_COEFS)}
_MINUS_ONE = 2


def _co_nf(word, t: _SlotTable) -> dict:
    """The reduced Delta of word, id-keyed, memoized in t.co.  The word is
    cut after the first letter of every adjacent pair that has a rule, so
    each segment between cuts is redex-free.  The segments are folded left
    to right, nf(Delta(u v)) = nf(nf(Delta(u)) nf(Delta(v))), from the
    longest memoized prefix that ends at a cut, and each segment grows
    letter by letter from its own longest memoized prefix; every product
    reduces as it multiplies (_SlotTable.product).  The cuts stay because
    letter steps alone are much slower on a word that is not normal: each
    letter past a redex is then joined to every term of a head form the
    contractions have grown.  Without them, coproduct of
    pi(0)^30*phi(0)^30 took 9.8 s against 0.64 s, and the deformed-strict
    pi(0)^4*phi(0)^4 4.0 ms against 1.7 ms (medians of 3 and 21 in-process
    runs, 2-vCPU x86 Linux VM).  A normal word has no cut and takes the
    same letter steps either way.  Nothing recurses past one letter, so no
    word is too long for the recursion limit."""
    memo = t.co
    out = memo.get(word)
    if out is not None:
        return out
    if len(word) <= 1:
        out = memo[word] = t.reduce({k: t.cid(c)
                                     for k, c in t.h.delta_gen(word[0]).items()}
                                    if word else {((), ()): 1})
        return out
    p = t.p
    ends = [i for i in range(1, len(word)) if _pair_rule(word[i - 1], word[i], p)]
    ends.append(len(word))
    # resume after the last cut whose prefix is memoized
    k = len(ends) - 1
    while k and word[:ends[k - 1]] not in memo:
        k -= 1
    start = ends[k - 1] if k else 0
    out = memo[word[:start]] if k else None
    for end in ends[k:]:
        # the segment is redex-free: grow it from its longest memoized prefix
        n = end
        while n - start > 1 and word[start:n] not in memo:
            n -= 1
        form = _co_nf(word[start:n], t)
        for j in range(n, end):
            form = memo[word[start:j + 1]] = t.product(form, _co_nf(word[j:j + 1], t))
        out = form if out is None else t.product(out, form)
        memo[word[:end]] = out
        start = end
    return out


def _co_expr(e: Expr, t: _SlotTable) -> dict:
    """_co_nf extended linearly; every letter of e must be legal in t.p and
    covered by t.h (_check_input, or letters from _covered_letters)."""
    out, mul, acc = {}, t.mul, t.acc
    for w, c in e.terms.items():
        c, co = t.cid(c), _co_nf(w, t)
        if c == 1 and not out:
            out = dict(co)
            continue
        for k, c2 in co.items():
            acc(out, k, c2 if c == 1 else mul(c, c2))
    return out


def coproduct(e: Expr, h: HopfSpec, p: Presentation) -> TensorExpr:
    """Multiplicative extension of the generator coproduct, reduced to
    tensor normal form."""
    _check_input(e, h, p)
    t = _SlotTable(h, p)
    return t.words_of(_co_expr(e, t), 2)


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


def _s_letters(word, h: HopfSpec) -> tuple:
    """S on one word as (letters, negated): the product of S(g) over its
    letters in reverse.  Each S(g) is one letter times +-1, so this is the
    reversed word of mapped letters with one sign, built in one pass."""
    letters, negated = [], False
    for g in reversed(word):
        letter, flip = h._s_letter(g)
        letters.append(letter)
        negated ^= flip
    return tuple(letters), negated


def antipode(e: Expr, h: HopfSpec, p: Presentation) -> Expr:
    """Anti-multiplicative extension of the generator antipode, then
    normal form, in a table of its own (_s_side)."""
    _check_input(e, h, p)
    t = _SlotTable(h, p)
    return t.words_of(_s_side(e, t), 1)


def _s_side(e: Expr, t: _SlotTable) -> dict:
    """S(e) as an order-1 side of t, reduced: _s_letters extended linearly.
    antipode and check_respects_relations both build S here."""
    out = {}
    for w, c in e.terms.items():
        letters, negated = _s_letters(w, t.h)
        c = t.cid(c)
        t.acc(out, (letters,), t.mul(_MINUS_ONE, c) if negated else c)
    return t.reduce(out)


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
    failures: tuple
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def _scalar_side(v: Scalar, t: _SlotTable) -> dict:
    """v times the empty word, word id 0 in every _SlotTable, as an order-1
    side of t."""
    return {} if v.is_zero() else {(0,): t.cid(v)}


def _record(failures: list, witness, lhs: dict, rhs: dict, t: _SlotTable):
    """Record lhs - rhs as a failure unless the two sides are equal.  Both
    sides are reduced and keyed by k-tuples of word ids in t: k = 1 for an
    element, 2 or 3 for a tensor, with coefficient ids of t as values.
    Normal forms are canonical, and so is every key of a coefficient a
    check meets: a constant's triple, or a Laurent polynomial over
    denominator 1.  So equal coefficients share one id, reduced sides
    agree exactly when they are equal, and their difference is reduced
    already; it is never empty, so its first key gives the residual's
    order.  witness() returns the failure's witness text; it is called
    only for a failure."""
    if lhs != rhs:
        diff = dict(lhs)
        for k, c in rhs.items():
            t.acc(diff, k, t.mul(_MINUS_ONE, c))
        residual = t.words_of(diff, len(next(iter(diff))))
        failures.append(Failure(witness(), str(residual), residual))


# most free-coproduct terms, the sum of 2^|w| over the normal words w, one
# sweep may cover.  The five default hopf-check checks took 1.1 s at
# --modes 1 --degree 8 (7683 terms) and 5.9 s on the failing deformed
# collapsed sweep at --modes 2 --degree 5 (4099 terms); without the budget
# --modes 1 --degree 12 (188419 terms) took 11.6 s, and the cost roughly
# doubles with each degree
MAX_SWEEP_TERMS = 10_000

# most candidate words one check may enumerate (see _covered_letters);
# degree 5 over the 7 letters of a deformed presentation with 2 modes
# needs comb(12, 5) = 792
MAX_CHECK_WORDS = 1000

# most letters in a multiplicativity trial's product x*y, whose words hold
# up to 2*degree letters.  The trials took 1.1 s at --modes 1 --degree 8
# (16 letters), 3.2 s at --degree 10 and 40.8 s at --degree 16
MAX_TRIAL_LETTERS = 16

# random (x, y) pairs one multiplicativity check tries
MULTIPLICATIVITY_TRIALS = 25


def _sweep(axiom: str, h: HopfSpec, p: Presentation, degree: int, modes: int, sides):
    """The bounded-degree check shared by the axioms: for every normal word
    w of degree <= degree over the covered letters, sides(w, Delta(w),
    table) yields (label, lhs, rhs) triples of reduced sides, id-keyed in
    table, the sweep's own _SlotTable.  Each is recorded in turn
    (_record), with the witness label followed by the text of w.  A sweep
    whose words' free coproducts hold more than MAX_SWEEP_TERMS terms is
    refused before the first coproduct, after _covered_letters admits it."""
    words = sorted_basis_words(p, degree, _covered_letters(h, p, modes, degree))
    terms = sum(1 << len(w) for w in words)
    if terms > MAX_SWEEP_TERMS:
        raise HopfError(
            f"the degree-{degree} sweep over {modes} modes covers {terms} free coproduct "
            f"terms, over the budget of {MAX_SWEEP_TERMS}; lower --degree or --modes"
        )
    failures = []
    t = _SlotTable(h, p)
    for w in words:
        for label, lhs, rhs in sides(w, _co_nf(w, t), t):
            _record(failures, lambda: label + word_text(w), lhs, rhs, t)
    return AxiomReport(axiom, degree, tuple(failures))


def _covered_letters(h: HopfSpec, p: Presentation, modes: int, degree: int) -> list:
    """Every check's admission: a negative degree, then _check_flavor_variant,
    then comb(letters + depth, depth) candidate words over the legal letters
    past MAX_CHECK_WORDS, depth = max(degree, 1), are refused in turn.  The
    count exceeds both the letters and the depth (there is at least one
    letter, I), so when either alone is past the budget the refusal names
    only the depth and modes; otherwise the count, at most comb(2000, 1000),
    is formed exactly and named.  It returns the sorted letters of modes
    0..modes-1 that h covers and p does not expand (algebra._letter_piece); at
    least one must be a field, and all must be legal in p, so every check
    refuses a mode window past the gram at every degree."""
    if degree < 0:
        raise HopfError(f"the degree must be non-negative, got {degree}")
    _check_flavor_variant(h, p)
    count, depth = legal_letter_count(p, modes), max(degree, 1)
    if count > MAX_CHECK_WORDS or depth > MAX_CHECK_WORDS:
        raise HopfError(
            f"the candidate words up to degree {depth} over {modes} modes exceed the "
            f"budget of {MAX_CHECK_WORDS}; lower --degree or --modes"
        )
    words = math.comb(count + depth, depth)
    if words > MAX_CHECK_WORDS:
        raise HopfError(
            f"{words} candidate words up to degree {depth} over {count} letters "
            f"exceed the budget of {MAX_CHECK_WORDS}; lower --degree or --modes"
        )
    letters = [g for g in legal_letters(p, modes) if h.covers(g) and _letter_piece(g, p) is None]
    if not any(g[0] in (FAM_PHI, FAM_PI) for g in letters):
        raise HopfError(
            "no covered field generators; Hopf checks run over the phi-pi basis"
        )
    letters.sort()
    p.validate_expr(Expr.from_word(letters))
    return letters


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


def check_respects_relations(h: HopfSpec, p: Presentation, modes: int = 2) -> AxiomReport:
    """Whether Delta, eps, S are well defined on the quotient: for each
    defining relation L = R among the covered letters, the residuals
    Delta(L)-Delta(R), eps(L)-eps(R), S(L)-S(R) of the reduced maps are
    reported as sides of one _SlotTable the check owns: Delta through
    _co_expr, eps as a multiple of the empty word, and S as its word
    images reduced slot-wise.

    The relations are algebra.relations, read off the rewrite rules, so
    every pair of covered letters that has a rule is checked: I, K and Kinv
    commute with every field letter, not only with phi(0), and I commutes
    with K and Kinv; the contractions I*I = I and K*Kinv = Kinv*K = 1 are
    checked where the presentation has them."""
    t = _SlotTable(h, p)  # the relations' coproducts, owned by this check
    maps = (("Delta", lambda e: _co_expr(e, t)),
            ("eps", lambda e: _scalar_side(_eps_free(e, h), t)),
            ("S", lambda e: _s_side(e, t)))
    failures = []
    for label, L, R in relations(p, _covered_letters(h, p, modes, 2)):  # two-letter words
        for name, reduced_map in maps:
            _record(failures, lambda: f"{name} on {label}", reduced_map(L), reduced_map(R), t)
    notes = []
    if any("I*I = I" in f.witness for f in failures):
        notes.append(
            "a primitive Delta(I) cannot respect I*I = I; the residual is "
            "structural, recorded as a finding rather than repaired"
        )
    return AxiomReport("respects-relations", None, tuple(failures), tuple(notes))


def check_coassociativity(
    h: HopfSpec, p: Presentation, degree: int = 3, modes: int = 2
) -> AxiomReport:
    def sides(w, delta, table):
        # (Delta (x) id) and (id (x) Delta) of Delta(w), keyed (a, b, i1) and (i0, a, b)
        left, right, mul, acc = {}, {}, table.mul, table.acc
        for (i0, i1), c in delta.items():
            for (a, b), c2 in _co_nf(table.words[i0], table).items():
                acc(left, (a, b, i1), c2 if c == 1 else mul(c, c2))
            for (a, b), c2 in _co_nf(table.words[i1], table).items():
                acc(right, (i0, a, b), c2 if c == 1 else mul(c, c2))
        yield "", left, right

    return _sweep("coassociativity", h, p, degree, modes, sides)


def check_counit(h: HopfSpec, p: Presentation, degree: int = 3, modes: int = 2) -> AxiomReport:
    eps_memo = {}  # the coefficient id of eps of each slot word by id, owned by this sweep

    def sides(w, delta, table):
        def eps(i):
            v = eps_memo.get(i)
            if v is None:
                v = eps_memo[i] = table.cid(_eps_word(table.words[i], h))
            return v

        left, right, mul, acc = {}, {}, table.mul, table.acc
        for (i0, i1), c in delta.items():
            e = eps(i0)
            if e:
                acc(left, (i1,), c if e == 1 else mul(c, e))
            e = eps(i1)
            if e:
                acc(right, (i0,), c if e == 1 else mul(c, e))
        target = {(table.id(w),): 1}
        yield "(eps x id) on ", left, target
        yield "(id x eps) on ", right, target

    return _sweep("counit", h, p, degree, modes, sides)


def check_antipode(h: HopfSpec, p: Presentation, degree: int = 3, modes: int = 2) -> AxiomReport:
    def sides(w, delta, table):
        # S(u0) u1 and u0 S(u1) are one word each, times +-1; the sums are reduced
        words, mul, acc = table.words, table.mul, table.acc
        left, right = {}, {}
        for (i0, i1), c in delta.items():
            letters, negated = _s_letters(words[i0], h)
            acc(left, (letters + words[i1],), mul(_MINUS_ONE, c) if negated else c)
            letters, negated = _s_letters(words[i1], h)
            acc(right, (words[i0] + letters,), mul(_MINUS_ONE, c) if negated else c)
        target = _scalar_side(_eps_word(w, h), table)
        yield "m(S x id)Delta on ", table.reduce(left), target
        yield "m(id x S)Delta on ", table.reduce(right), target

    return _sweep("antipode", h, p, degree, modes, sides)


def cocommutativity_probe(
    h: HopfSpec, p: Presentation, degree: int = 2, modes: int = 2
) -> AxiomReport:
    def sides(w, delta, _table):
        yield "", delta, {(i1, i0): c for (i0, i1), c in delta.items()}

    return _sweep("cocommutativity", h, p, degree, modes, sides)


def check_multiplicativity(
    h: HopfSpec,
    p: Presentation,
    degree: int = 3,
    modes: int = 2,
    seed: int = 42,
) -> AxiomReport:
    """Delta(x*y) - Delta(x)Delta(y) for MULTIPLICATIVITY_TRIALS random x,
    y, where Delta is the word-wise multiplicative extension and the
    product is the free concatenation.  Both sides are nf(Delta_free(x y))
    by construction: the left reduces the coproduct of the free product,
    the right multiplies the reduced coproducts of x and y
    (_SlotTable.product), and slot-wise normal form is an algebra map.  So
    this check tests the engine, not Delta; whether Delta is well defined
    on the algebra is what check_respects_relations tests.  A degree past
    MAX_TRIAL_LETTERS // 2, whose products may hold more than
    MAX_TRIAL_LETTERS letters, is refused before _covered_letters admits
    the rest; the refusal names the degree, not its double."""
    if degree > MAX_TRIAL_LETTERS // 2:
        raise HopfError(
            f"degree-{degree} multiplicativity trials multiply words of up to 2 x {degree} "
            f"letters, over the budget of {MAX_TRIAL_LETTERS}; lower --degree to "
            f"{MAX_TRIAL_LETTERS // 2} or less"
        )
    letters = _covered_letters(h, p, modes, degree)
    rng = random.Random(seed)
    pool = [ONE, -ONE, IMAG, Scalar.rational(2), Scalar.rational(1, 1)]
    failures = []
    t = _SlotTable(h, p)  # shared by the trials' coproducts
    for trial in range(MULTIPLICATIVITY_TRIALS):
        def rand_expr():
            e = Expr.zero()
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(0, degree)
                w = tuple(rng.choice(letters) for _ in range(n))
                e = e + Expr.from_word(w, rng.choice(pool))
            return e

        x, y = rand_expr(), rand_expr()
        _record(failures, lambda: f"trial {trial}: x={x}; y={y}", _co_expr(x * y, t),
                t.product(_co_expr(x, t), _co_expr(y, t)), t)
    return AxiomReport("multiplicativity", degree, tuple(failures))
