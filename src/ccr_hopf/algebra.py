"""Exact normal ordering for CCR (Heisenberg) algebras and their
q-deformed variants.

Generators are basis-indexed: the field pair phi(j), pi(j), the ladder
pair ap(j), am(j), the central Hermitian element I, and (in the strict
deformed variant) a central group-like pair K, Kinv.  Arbitrary smeared
arguments are recovered by linearity through a Gram form.

Words are reduced against a fixed generator order

    I < K < Kinv < phi(0) < phi(1) < ... < pi(0) < pi(1) < ...
    I < K < Kinv < ap(0)  < ap(1)  < ... < am(0) < am(1) < ...

as a reduction system in Bergman's sense: one rule per adjacent pair
that is out of order, plus the contractions I*I -> I and K*Kinv -> 1
where the presentation has them.  The only swaps that pick up a
correction term are pi(j)phi(k) and am(j)ap(k); every rule either
preserves degree and lowers the inversion count or strictly lowers the
degree, so reduction terminates.  A letter outside the presentation (the
collapsed K, Kinv and the other basis's pair) stands for its piece, a
sum of words over the presentation's own letters.  Each presentation
memoizes both tables: _pair_rule decides every pair and _letter_piece
every letter.  These two functions are the only place a defining relation
or a piece is stated; ``relations`` reads the relations back off
_pair_rule as (label, L, R) triples for the checks that a map respects
them (hopf.check_respects_relations).

Two engines apply these rules.  The default ``leftmost`` schedule is the
memoized insertion engine.  It rests on one property of the rule table,
which holds because the algebra is a Heisenberg algebra: every swap is
led by the swapped pair with multiplier 1 and its corrections are
central letters (every commutator of two generators is a multiple of I).
So the normal form of h*v, for a normal word v, takes one pass over v
(_insert): h walks right through v a run of equal letters at a time, and
passing r letters g adds r times each correction with one g left out,
as in pi(0) phi(0)^n = phi(0)^n pi(0) - n i kappa I phi(0)^(n-1); a
contraction ends the walk.  A word's letters are inserted right to left
into a suffix kept in normal form, starting left of the longest suffix
that is memoized or normal already.  A piece letter is inserted as each
word of its piece, weighted by that word's multiplier, so the suffix
never holds more than the normal words it reduces to.  The normal form
of each word, and of each suffix passed, is computed once per memo:
normal_form's is the presentation's, each Hopf call's its table's.  The
``rightmost`` schedule is the reference stack walker: it first expands
every piece letter into the free algebra, then rewrites the rightmost
redex of every word and walks every rewrite path.  Confluence is
exercised by comparing the two.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from .scalars import (IMAG, KAPPA, ONE, R2, S_PARAM, ZERO, CcrHopfError, Scalar, _constant,
                      read_gaussian, read_rational)

__all__ = [
    "AlgebraError",
    "Expr",
    "Gram",
    "Presentation",
    "UNDEFORMED",
    "DEFORMED_STRICT",
    "DEFORMED_COLLAPSED",
    "phi",
    "pi",
    "ap",
    "am",
    "gen_I",
    "gen_K",
    "gen_Kinv",
    "unit",
    "normal_form",
    "commutator",
    "adjoint",
    "basis_convert",
    "expand_k",
    "deformation_constant",
    "deformation_pair",
    "evaluate_numeric",
    "gen_text",
    "word_text",
    "random_word",
    "random_expr",
    "relations",
]

# generator families; tuple order (family, mode) is the normal order
FAM_I, FAM_K, FAM_KINV, FAM_PHI, FAM_PI, FAM_AP, FAM_AM = range(7)

_CENTRAL = frozenset((FAM_I, FAM_K, FAM_KINV))
_FIELD = frozenset((FAM_PHI, FAM_PI))
_LADDER = frozenset((FAM_AP, FAM_AM))
# the families legal in the undeformed variant and in the deformed ones
_UNDEFORMED_FAMILIES = frozenset((FAM_I,)) | _FIELD | _LADDER
_DEFORMED_FAMILIES = frozenset(range(7))

GEN_I = (FAM_I, 0)
GEN_K = (FAM_K, 0)
GEN_KINV = (FAM_KINV, 0)

UNDEFORMED = "undeformed"
DEFORMED_STRICT = "deformed-strict"
DEFORMED_COLLAPSED = "deformed-collapsed"
_VARIANTS = (UNDEFORMED, DEFORMED_STRICT, DEFORMED_COLLAPSED)

BASIS_FIELD = "phi-pi"
BASIS_LADDER = "ladder"
_BASES = (BASIS_FIELD, BASIS_LADDER)

_FAM_NAMES = ("I", "K", "Kinv", "phi", "pi", "ap", "am")


class AlgebraError(CcrHopfError):
    pass


def gen_text(g) -> str:
    fam, mode = g
    if fam in _CENTRAL:
        return _FAM_NAMES[fam]
    return f"{_FAM_NAMES[fam]}({mode})"


def word_text(word) -> str:
    """Deterministic rendering with run-length powers; the empty word
    prints as the unit symbol."""
    if not word:
        return "one"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(gen_text(word[i]) if j - i == 1 else f"{gen_text(word[i])}^{j - i}")
        i = j
    return "*".join(parts)


def _acc(table: dict, key, coeff: Scalar) -> None:
    """Add coeff * key into table, dropping the key when it cancels."""
    acc = table.get(key)
    acc = coeff if acc is None else acc + coeff
    if acc.is_zero():
        table.pop(key, None)
    else:
        table[key] = acc


class _SparseSum:
    """Finitely supported linear combination of keys with exact scalar
    coefficients; zero coefficients are never stored.

    This is the linear arithmetic the sums share; a subclass adds how a
    sum prints, and only Expr multiplies sums.  A sum adds, subtracts and
    compares only with a sum of its own subclass; a scalar enters only as
    a factor, on either side of ``*``.  Sums of different subclasses never
    mix: their operators decline each other, so Python raises TypeError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()} if terms else {}

    def _like(self, terms: dict):
        """A sum of this shape holding terms, which must hold no zero
        coefficient."""
        out = object.__new__(type(self))
        out.terms = terms
        return out

    def _operand(self, other):
        """other if it is a sum of this shape, else NotImplemented."""
        return other if type(other) is type(self) else NotImplemented

    def _linear(self, image):
        """The linear extension of image applied to self: the sum of
        c * image(k) over the terms, where image maps a key to a key ->
        coefficient mapping of self's shape."""
        out = {}
        for k, c in self.terms.items():
            for k2, c2 in image(k).items():
                # most coefficients are ONE: skip those products
                _acc(out, k2, c2 if c is ONE else c if c2 is ONE else c * c2)
        return self._like(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __mul__(self, other):
        s = Scalar._coerce(other)
        if s is None:
            return NotImplemented
        if s.is_zero():
            return self._like({})
        return self._like({k: c * s for k, c in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute with everything, so left action equals right action
        if isinstance(other, _SparseSum):
            return NotImplemented
        return self * other

    def __eq__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self})"


# most term pairs one free product of sums may concatenate, and so one
# step of a power: (phi(0)+pi(0))^12 multiplies 2048 terms by 2 at its last
# step.  Without it (phi(0)*pi(1)+pi(0)*phi(1))^20 grew to 7.7 GB
MAX_PRODUCT_PAIRS = 4096


class Expr(_SparseSum):
    """Finitely supported linear combination of generator words.

    Multiplication concatenates words bilinearly; no relations are
    applied until :func:`normal_form`.  A product of more than
    MAX_PRODUCT_PAIRS term pairs raises AlgebraError before any is
    formed.  Zero coefficients are never stored.
    """

    __slots__ = ()

    @classmethod
    def from_word(cls, word, coeff=ONE) -> "Expr":
        e = cls.__new__(cls)
        e.terms = {} if coeff.is_zero() else {tuple(word): coeff}
        return e

    @classmethod
    def zero(cls) -> "Expr":
        e = cls.__new__(cls)
        e.terms = {}
        return e

    def __mul__(self, other):
        if not isinstance(other, Expr):
            return super().__mul__(other)
        if len(self.terms) * len(other.terms) > MAX_PRODUCT_PAIRS:
            raise AlgebraError(f"a product of a {len(self.terms)}-term and a {len(other.terms)}-term "
                               f"sum is over the budget of {MAX_PRODUCT_PAIRS} term pairs; "
                               f"multiply fewer or shorter sums")
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _acc(out, w1 + w2, c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2)
        return self._like(out)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Expr.from_word(())
        for _ in range(n):
            out = out * self
        return out

    def coefficient(self, word) -> Scalar:
        return self.terms.get(tuple(word), ZERO)

    def __str__(self):
        from .exprparse import expr_to_text

        return expr_to_text(self)


def phi(j: int) -> Expr:
    return Expr.from_word(((FAM_PHI, int(j)),))


def pi(j: int) -> Expr:
    return Expr.from_word(((FAM_PI, int(j)),))


def ap(j: int) -> Expr:
    return Expr.from_word(((FAM_AP, int(j)),))


def am(j: int) -> Expr:
    return Expr.from_word(((FAM_AM, int(j)),))


def gen_I() -> Expr:
    return Expr.from_word((GEN_I,))


def gen_K() -> Expr:
    return Expr.from_word((GEN_K,))


def gen_Kinv() -> Expr:
    return Expr.from_word((GEN_KINV,))


def unit() -> Expr:
    return Expr.from_word(())


# ---------------------------------------------------------------------------
# Gram form


def gram_entry(x) -> Scalar:
    """One gram or covariance matrix entry: a number, a rational string
    such as "1/2", or a [re, im] pair of those, each read by
    scalars.read_rational.  JSON true and false are refused, though Python
    counts a bool as an int."""
    if isinstance(x, bool) or isinstance(x, (tuple, list)) and any(isinstance(v, bool) for v in x):
        raise AlgebraError(f"cannot read matrix entry {x!r}")
    s = Scalar._coerce(x)
    if s is not None:
        return s
    try:
        if isinstance(x, (str, float)):
            return _constant(read_rational(x))
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return _constant(read_gaussian(x[0], x[1]))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        pass
    raise AlgebraError(f"cannot read matrix entry {x!r}")


class Gram:
    """Hermitian form on mode indices.  ``None`` entries mean the
    Kronecker delta on all of N; an explicit matrix bounds the usable
    mode window."""

    def __init__(self, entries=None):
        if entries is None:
            self._rows = None
            return
        rows = []
        for row in entries:
            rows.append([gram_entry(x) for x in row])
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise AlgebraError("gram matrix must be square")
        # a constant's conjugate and == are one triple operation each
        for j in range(n):
            for k in range(j, n):
                if not (rows[j][k].conjugate() == rows[k][j]):
                    raise AlgebraError("gram matrix must be Hermitian")
        self._rows = rows

    @property
    def size(self):
        return None if self._rows is None else len(self._rows)

    def scalar(self, j: int, k: int) -> Scalar:
        if self._rows is None:
            return ONE if j == k else ZERO
        if j >= len(self._rows) or k >= len(self._rows):
            raise AlgebraError(
                f"mode index {max(j, k)} outside the {len(self._rows)}-mode gram"
            )
        return self._rows[j][k]


# ---------------------------------------------------------------------------
# Presentation


# the symbolic s^-1, which every presentation without numeric q, c shares
_S_INV = S_PARAM ** -1


@dataclass(frozen=True, eq=False)
class Presentation:
    """Which quotient algebra is in force.

    variant:
      undeformed          kappa = 1, no K/Kinv
      deformed-strict     K, Kinv free central group-likes, K*Kinv -> 1
      deformed-collapsed  K, Kinv legal as input, substituted via I*I = I
    deformation is symbolic (parameters kappa, s) unless numeric q, c are
    both given, in which case kappa = C_{q,c} and s = q^(c/2) are embedded
    exactly as binary rationals.  The undeformed variant refuses q, c.
    """

    variant: str = UNDEFORMED
    basis: str = BASIS_FIELD
    gram: Gram | None = None
    q: float | None = None
    c: float | None = None
    idempotent_identity: bool = True

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise AlgebraError(f"unknown variant {self.variant!r}")
        if self.basis not in _BASES:
            raise AlgebraError(f"unknown basis {self.basis!r}")
        g = self.gram
        if not isinstance(g, Gram):
            g = Gram(g)
        object.__setattr__(self, "gram", g)
        if (self.q is None) != (self.c is None):
            raise AlgebraError("numeric deformation needs both q and c")
        if self.variant == UNDEFORMED and self.q is not None:
            raise AlgebraError("the undeformed variant has kappa = 1 and takes no numeric q, c")
        if self.variant == DEFORMED_COLLAPSED and not self.idempotent_identity:
            raise AlgebraError(
                "the collapsed variant relies on I*I = I; "
                "idempotent_identity cannot be disabled"
            )
        point = None
        if self.variant == UNDEFORMED:
            kappa = ONE
            s = s_inv = None
        elif self.q is not None:
            constant, scale = deformation_pair(self.q, self.c)
            point = {"kappa": Fraction(constant), "s": Fraction(scale)}
            kappa = Scalar.rational(point["kappa"])
            s = Scalar.rational(point["s"])
            s_inv = Scalar.rational(1 / point["s"])
        else:
            kappa, s, s_inv = KAPPA, S_PARAM, _S_INV
        # the exact kappa and s of numeric q, c, where validate_expr
        # evaluates the typed denominators
        object.__setattr__(self, "_point", point)
        object.__setattr__(self, "_kappa", kappa)
        object.__setattr__(self, "_s", s)
        object.__setattr__(self, "_s_inv", s_inv)
        # the rewrite tables (see _pair_rule and _letter_piece) and the
        # memoized normal forms of words
        object.__setattr__(self, "_rules", {})
        object.__setattr__(self, "_pieces", {})
        object.__setattr__(self, "_nf_cache", {})

    @property
    def kappa_scalar(self) -> Scalar:
        return self._kappa

    def gram_scalar(self, j: int, k: int) -> Scalar:
        return self.gram.scalar(j, k)

    def with_basis(self, basis: str) -> "Presentation":
        if basis == self.basis:
            return self
        return replace(self, basis=basis)

    def validate_expr(self, e: Expr) -> None:
        legal = _UNDEFORMED_FAMILIES if self.variant == UNDEFORMED else _DEFORMED_FAMILIES
        size = self.gram.size
        for w in e.terms:
            for g in w:
                if g[0] not in legal:
                    raise AlgebraError(
                        f"generator {gen_text(g)} is not legal in the "
                        f"{self.variant} variant"
                    )
                if size is not None and g[0] not in _CENTRAL and g[1] >= size:
                    raise AlgebraError(f"mode index {g[1]} outside the {size}-mode gram")
        if self._point is None:
            return
        # a typed denominator may vanish at numeric q, c; a denominator of 1
        # is a constant and never does
        for coeff in e.terms.values():
            den = coeff.denominator()
            if not den.is_constant() and den.substitute(self._point).is_zero():
                from .exprparse import scalar_text

                raise AlgebraError(f"the coefficient {scalar_text(coeff)} has a denominator "
                                   f"that vanishes at q={self.q}, c={self.c}")


# ---------------------------------------------------------------------------
# Rewrite engines (see the module docstring).  Both read the rule table
# of _pair_rule; the reference engine takes each step through _apply_redex.


def _pair_rule(g1, g2, p: Presentation) -> tuple:
    """The rule for the adjacent pair g1, g2 over p, memoized in
    ``p._rules``: () when the pair is normal, otherwise the
    (letters, multiplier) pairs whose sum replaces it."""
    rule = p._rules.get((g1, g2))
    if rule is not None:
        return rule
    f1, f2 = g1[0], g2[0]
    if f1 == FAM_I and f2 == FAM_I:
        rule = (((GEN_I,), ONE),) if p.idempotent_identity else ()
    elif p.variant == DEFORMED_STRICT and {f1, f2} == {FAM_K, FAM_KINV}:
        rule = (((), ONE),)
    elif not g1 > g2:
        rule = ()
    elif f1 in _CENTRAL or f2 in _CENTRAL or f1 == f2:
        rule = (((g2, g1), ONE),)
    elif (f1, f2) in ((FAM_PI, FAM_PHI), (FAM_AM, FAM_AP)):
        g = p.gram_scalar(g1[1], g2[1])
        rule = (((g2, g1), ONE),)
        if not g.is_zero():
            m = -IMAG * g * p.kappa_scalar if f1 == FAM_PI else g * p.kappa_scalar
            rule += (((GEN_I,), m),)
    else:
        raise AlgebraError(f"no rewrite for adjacent pair {gen_text(g1)},{gen_text(g2)}")
    p._rules[g1, g2] = rule
    return rule


def relations(p: Presentation, letters) -> list:
    """The defining relations among letters, read off _pair_rule: a
    (label, L, R) for every ordered pair g1, g2 that has a rule, with
    L = g1*g2 and R the sum of the rule's words times their multipliers.
    The commutations (a rule led by g2*g1) come first, then the
    contractions, each in the order of the pairs."""
    letters = sorted(letters)
    swaps, contractions = [], []
    for g1 in letters:
        for g2 in letters:
            rule = _pair_rule(g1, g2, p)
            if not rule:
                continue
            name, R = f"{gen_text(g1)}*{gen_text(g2)}", Expr(dict(rule))
            if rule[0][0] == (g2, g1):
                swaps.append((f"{name} commutation", Expr.from_word((g1, g2)), R))
            else:
                contractions.append((f"{name} = {R}", Expr.from_word((g1, g2)), R))
    return swaps + contractions


def _rightmost_redex(word, p: Presentation) -> int:
    """The largest i at which the pair word[i], word[i+1] has a rewrite
    rule, or -1 when the word holds no redex."""
    for i in range(len(word) - 2, -1, -1):
        if _pair_rule(word[i], word[i + 1], p):
            return i
    return -1


def _apply_redex(word, i: int, p: Presentation):
    """One rewrite step at position i; returns [(word, multiplier)]."""
    head, tail = word[:i], word[i + 2 :]
    return [(head + letters + tail, m) for letters, m in _pair_rule(word[i], word[i + 1], p)]


def _insert(h, v, p: Presentation) -> list:
    """The normal form of ``(h,) + v`` for a normal word v, as (word,
    multiplier) pairs with distinct words.  h walks right through v a run
    of equal letters at a time and stops at the first letter it is normal
    against, or at a contraction, whose word replaces the pair.  Passing r
    letters g adds r times each correction of the swap, with one g left
    out; a correction's letters are central (test_swap_corrections_are_central),
    so they are inserted from the left."""
    corrections = []
    i = 0
    while i < len(v):
        g = v[i]
        rule = _pair_rule(h, g, p)
        if not rule:
            break
        (letters, m), *extras = rule
        if letters != (g, h):
            return [(v[:i] + letters + v[i + 1 :], m), *corrections]
        # v is non-decreasing, so its run of g ends at the first larger letter
        j = bisect_right(v, g, i)
        for letters, m in extras:
            terms = [(v[:i] + v[i + 1 :], m * (j - i))]
            for c in reversed(letters):
                terms = [(w2, m1 * m2) for w, m1 in terms for w2, m2 in _insert(c, w, p)]
            corrections += terms
        i = j
    return [(v[:i] + (h,) + v[i:], ONE), *corrections]


def _fold_letter(h, partial: dict, p: Presentation) -> dict:
    """The normal form of h times partial, a normal form (word ->
    coefficient).  A letter that p expands (see _letter_piece) folds each
    word of its piece, weighted by that word's multiplier, so the result
    never holds more than the normal words it reduces to."""
    out = {}
    piece = _letter_piece(h, p)
    if piece is None:
        for v, c in partial.items():
            for w, m in _insert(h, v, p):
                _acc(out, w, c if m is ONE else c * m)
        return out
    for u, m in piece.terms.items():
        part = partial
        for g in reversed(u):
            part = _fold_letter(g, part, p)
        for v, c in part.items():
            _acc(out, v, c * m)
    return out


def _reduce_word(word, p: Presentation, cache: dict) -> dict:
    """Normal form of a legal word, memoized in the caller's cache
    (normal_form's ``p._nf_cache``, a Hopf call's _SlotTable memo).  The
    letters left of the longest suffix that is memoized or normal already
    are folded in right to left, and the normal form of every suffix they
    pass is memoized too; the normal suffix starts right of the last piece
    letter and of the rightmost redex."""
    hit = cache.get(word)
    if hit is not None:
        return hit
    start = max((i + 1 for i, g in enumerate(word) if _letter_piece(g, p) is not None), default=0)
    start += _rightmost_redex(word[start:], p) + 1
    start = next((i for i in range(1, start) if word[i:] in cache), start)
    partial = cache.get(word[start:], {word[start:]: ONE})
    for i in range(start - 1, -1, -1):
        partial = cache[word[i:]] = _fold_letter(word[i], partial, p)
    cache[word] = partial
    return partial


# most rewrite steps the rightmost walker takes in one normal_form call.
# pi(0)^n*phi(0)^n takes 44,136 steps at n = 6 and 442,792 (1.6 s) at
# n = 7, and each further degree about ten times more.  The largest call
# the tests make takes 60,571 steps (a sum of products of runs of equal
# letters); the selftest's, the contract table's and the benchmark's take
# at most 135
RIGHTMOST_STEP_BUDGET = 100_000


def _walk_rightmost(word, p: Presentation, steps: list) -> dict:
    """Reference engine: rewrite the rightmost redex of each word on a
    work stack until none is left.  Nothing is memoized, so every rewrite
    path is walked and the cost grows exponentially with the degree.
    steps[0] counts the rewrite steps of the whole normal_form call; past
    RIGHTMOST_STEP_BUDGET the walk raises AlgebraError."""
    out = {}
    work = [(word, ONE)]
    while work:
        w, m = work.pop()
        i = _rightmost_redex(w, p)
        if i < 0:
            _acc(out, w, m)
            continue
        steps[0] += 1
        if steps[0] > RIGHTMOST_STEP_BUDGET:
            raise AlgebraError(
                f"the rightmost schedule walked {RIGHTMOST_STEP_BUDGET} rewrite steps, its "
                f"budget, without reaching the normal form; use the leftmost schedule")
        for w2, m2 in _apply_redex(w, i, p):
            work.append((w2, m * m2))
    return out


# the factor 1/r2 of the basis change; it folds to r2/2 exactly
_HALF_R2 = ONE / R2


def _letter_piece(g, p: Presentation):
    """What the letter g stands for over p's own letters, memoized in
    ``p._pieces``: K = 1 + (s-1) I and Kinv = 1 + (1/s-1) I in the
    deformed-collapsed variant, the basis change for a letter of the other
    basis, and None for a letter of p itself."""
    pieces = p._pieces
    if g in pieces:
        return pieces[g]
    fam, j = g
    piece = None
    if p.variant == DEFORMED_COLLAPSED and fam in (FAM_K, FAM_KINV):
        s = p._s if fam == FAM_K else p._s_inv
        piece = unit() + (s - ONE) * gen_I()
    elif p.basis == BASIS_FIELD and fam in _LADDER:
        sign = -IMAG if fam == FAM_AP else IMAG
        piece = (phi(j) + sign * pi(j)) * _HALF_R2
    elif p.basis == BASIS_LADDER and fam == FAM_PHI:
        piece = (ap(j) + am(j)) * _HALF_R2
    elif p.basis == BASIS_LADDER and fam == FAM_PI:
        piece = IMAG * (ap(j) - am(j)) * _HALF_R2
    pieces[g] = piece
    return piece


def _expand_word(word, p: Presentation) -> Expr:
    """The product of the letters' pieces: a word expression over the
    presentation's own letters (the reference engine's first step)."""
    out = unit()
    for g in word:
        piece = _letter_piece(g, p)
        out = out * (Expr.from_word((g,)) if piece is None else piece)
    return out


def normal_form(e: Expr, p: Presentation, schedule: str = "leftmost") -> Expr:
    """Canonical representative of e in the quotient algebra of p.

    The result is supported on words that are non-decreasing in the
    generator order and stable under the contraction rules; it is
    congruent to e modulo the presentation's relations and independent
    of the rewrite schedule.
    """
    if schedule not in ("leftmost", "rightmost"):
        raise AlgebraError(f"unknown schedule {schedule!r}")
    p.validate_expr(e)
    if schedule == "leftmost":
        return e._linear(lambda w: _reduce_word(w, p, p._nf_cache))
    if any(_letter_piece(g, p) is not None for w in e.terms for g in w):
        e = e._linear(lambda w: _expand_word(w, p).terms)
    steps = [0]
    return e._linear(lambda w: _walk_rightmost(w, p, steps))


def commutator(x: Expr, y: Expr, p: Presentation) -> Expr:
    return normal_form(x * y - y * x, p)


_ADJ_SWAP = {FAM_AP: FAM_AM, FAM_AM: FAM_AP}


def adjoint(e: Expr, p: Presentation | None = None) -> Expr:
    """Anti-linear anti-automorphism: reverses words, conjugates
    coefficients, fixes phi/pi/I/K/Kinv and swaps ap <-> am."""
    if p is not None:
        p.validate_expr(e)
    out = {}
    for w, c in e.terms.items():
        w2 = tuple((_ADJ_SWAP.get(f, f), m) for f, m in reversed(w))
        _acc(out, w2, c.conjugate())
    return e._like(out)


def basis_convert(e: Expr, target: str, p: Presentation) -> Expr:
    """Rewrite e over the target basis (phi-pi or ladder) and reduce.
    Round trip composes to normal_form in the original basis."""
    if target not in _BASES:
        raise AlgebraError(f"unknown basis {target!r}")
    return normal_form(e, p.with_basis(target))


def expand_k(e: Expr, p: Presentation) -> Expr:
    """Substitute K = 1 + (s-1) I and Kinv = 1 + (1/s - 1) I, the
    exponential of an idempotent, then reduce."""
    if p.variant != DEFORMED_COLLAPSED:
        raise AlgebraError("expand_k applies to the deformed-collapsed variant")
    return normal_form(e, p)


def deformation_constant(q: float, c: float) -> float:
    """C_{q,c} = (q^c - q^-c) / (c (q - 1/q)), with the removable
    singularity at q = 1 handled by a series branch."""
    q = float(q)
    c = float(c)
    if not (0 < q < math.inf and 0 < c < math.inf):
        raise AlgebraError("q and c must be positive and finite")
    if c == 1.0:
        return 1.0
    t = math.log(q)
    if abs(q - 1.0) <= 1e-8:
        return 1.0 + t * t * (c * c - 1.0) / 6.0
    return math.sinh(c * t) / (c * math.sinh(t))


def deformation_pair(q: float, c: float) -> tuple[float, float]:
    """(C_{q,c}, q^(c/2)), the numeric values of kappa and s.  Non-positive
    or non-finite q and c, and a value outside the float range, raise
    AlgebraError."""
    try:
        pair = deformation_constant(q, c), float(q) ** (float(c) / 2.0)
    except OverflowError:
        pair = (math.inf, math.inf)
    if not all(0 < x < math.inf for x in pair):
        raise AlgebraError(f"C_(q,c) or q^(c/2) leaves the float range at q={q}, c={c}")
    return pair


def evaluate_numeric(e: Expr, assignment: Mapping[str, float] | None = None) -> dict:
    """Coefficient-wise evaluation to complex floats; word structure is
    unchanged.  Returns a word -> complex mapping."""
    assignment = assignment or {}
    out = {}
    for w, c in e.terms.items():
        out[w] = c.to_complex(assignment)
    return out


# ---------------------------------------------------------------------------
# Seeded random data for property loops


def _central_letters(p: Presentation) -> list:
    return [GEN_I] if p.variant == UNDEFORMED else [GEN_I, GEN_K, GEN_KINV]


def legal_letter_count(p: Presentation, modes: int) -> int:
    """len(legal_letters(p, modes)), without building the list."""
    return len(_central_letters(p)) + 2 * max(modes, 0)


def legal_letters(p: Presentation, modes: int) -> list:
    letters = _central_letters(p)
    fams = (FAM_PHI, FAM_PI) if p.basis == BASIS_FIELD else (FAM_AP, FAM_AM)
    for f in fams:
        letters += [(f, j) for j in range(modes)]
    return letters


def random_word(rng: random.Random, p: Presentation, max_degree: int, modes: int):
    letters = legal_letters(p, modes)
    n = rng.randint(0, max_degree)
    return tuple(rng.choice(letters) for _ in range(n))


_COEFF_POOL = (ONE, -ONE, IMAG, -IMAG, Scalar.rational(Fraction(1, 2)), Scalar.rational(2), R2,
               ONE + IMAG)


def random_expr(rng: random.Random, p: Presentation, max_degree: int, modes: int) -> Expr:
    e = Expr.zero()
    for _ in range(rng.randint(1, 3)):
        w = random_word(rng, p, max_degree, modes)
        e = e + Expr.from_word(w, rng.choice(_COEFF_POOL))
    return e
