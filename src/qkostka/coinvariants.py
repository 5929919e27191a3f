"""Functional-model oracle for restricted Kostka coefficients.

A restricted Kostka polynomial is realized as the Hilbert series of a space
of symmetric polynomials in s = (|m| - l)/2 variables cut out by vanishing
and diagonal-degree conditions. Everything here is exact integer linear
algebra: the conditions are linear in the coefficients on the monomial
symmetric basis, they preserve total degree, and the graded nullity is the
coefficient list we are after. This route shares no code with the fermionic
sum or the charge statistic, which is the point.

A row entry counts the exponent vectors of one monomial symmetric function
that land on one monomial after a substitution. Those counts come from the
distinct splits of the basis partition into a collided head and a free tail,
as a product of two arrangement numbers, so no orbit of exponent vectors is
ever listed. The rank is taken by sparse fraction-free elimination over
deduplicated rows, shortest first.

The system is cut to the part that carries information before it is built.
Condition (4), f(0, z_2, .., z_s) = 0, holds for a symmetric f exactly when
e_s = z_1 ... z_s divides f, so the basis keeps only the partitions with s
positive parts and no (4) row is built. Condition (2), vanishing when k + 1
variables collide, implies vanishing when more collide, so once s >= k + 1
the (3) rows at a >= k + 1 and the (5) rows at k - l + 1 = k + 1 lie in the
row space of (2) and are not built either. The nullities do not change.

A spec refuses what every route refuses through `check_level_weight`, a
level below 1 or a weight outside 0..k, and also a weight above |m| or of
the wrong parity, and a variable count other than (|m| - l)/2.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, gcd

from .compositions import (
    CompositionLike,
    Value,
    as_composition,
    as_integers,
    check_level_weight,
    weighted_size,
)
from .qexact import QPolynomial

VARIABLE_CAP = 4


class OracleScaleExceeded(RuntimeError):
    """The instance needs more variables than `VARIABLE_CAP` allows."""


class FunctionalModelSpec(Value):
    __slots__ = ("variable_count", "level", "weight", "composition")

    def __init__(self, variable_count: int, level: int, weight: int, composition: CompositionLike):
        variable_count, level, weight = as_integers(
            (variable_count, level, weight), "variable count, level and weight must be integers"
        )
        composition = as_composition(composition)
        check_level_weight(weight, level)
        size = weighted_size(composition)
        if size < weight or (size - weight) % 2:
            raise ValueError("weight must not exceed |m| and must match its parity")
        if variable_count != (size - weight) // 2:
            raise ValueError("variable count must equal (|m| - l)/2")
        super().__init__(variable_count, level, weight, composition)

    @classmethod
    def from_parameters(
        cls, l: int, m: CompositionLike, k: int
    ) -> "FunctionalModelSpec":
        comp = as_composition(m)
        return cls((weighted_size(comp) - l) // 2, k, l, comp)


def _partitions_of(d: int, parts: int, max_part: int) -> list[tuple[int, ...]]:
    """Partitions of d into at most `parts` parts, each at most max_part, padded."""
    out: list[tuple[int, ...]] = []

    def rec(left: int, slots: int, cap: int, prefix: list[int]) -> None:
        if left == 0:
            out.append(tuple(prefix + [0] * slots))
            return
        if slots == 0 or cap == 0 or left > slots * cap:
            return
        for first in range(min(left, cap), 0, -1):
            rec(left - first, slots - 1, first, prefix + [first])

    rec(d, parts, max_part, [])
    return out


def _arrangements(t: tuple[int, ...]) -> int:
    """Distinct orderings of the multiset t: len(t)! / prod mult!."""
    out = factorial(len(t))
    for x in set(t):
        out //= factorial(t.count(x))
    return out


def _split_rows(basis: list[tuple[int, ...]], a: int, keep) -> list[dict[int, int]]:
    """Rows forcing selected coefficients of f(z,..,z,z_{a+1},..,z_s) to zero.

    The first a variables are collided to a single z. Each surviving
    monomial is keyed by (z-degree, sorted tail exponents); `keep` selects
    which z-degrees are constrained to vanish. The exponent vectors of m_lam
    whose tail sorts to mu are the arrangements of lam - mu followed by those
    of mu, so each split of lam (held ascending) into a head of size a and a
    tail mu adds arr(lam - mu) * arr(mu) at key (|lam| - |mu|, mu), where arr
    counts the distinct orderings of a multiset.
    """
    rows: dict[tuple, dict[int, int]] = {}
    for col, lam in enumerate(basis):
        total = sum(lam)
        for mu in set(combinations(lam, len(lam) - a)):
            zdeg = total - sum(mu)
            if not keep(zdeg):
                continue
            head = list(lam)
            for x in mu:
                head.remove(x)
            entry = _arrangements(tuple(head)) * _arrangements(mu)
            rows.setdefault((zdeg, mu), {})[col] = entry
    return [rows[key] for key in sorted(rows)]


def _integer_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank over the rationals by sparse fraction-free elimination.

    Duplicate rows are dropped and the rest are taken shortest first, which
    keeps the fill-in of the reduced rows small. Each kept row is a dict
    whose pivot is its lowest column; a new row is reduced by the pivot row
    of its lowest column until that column is free or the row is zero, and
    divided by the gcd of its entries after each step.
    """
    unique = {tuple(sorted(row.items())): row for row in rows if row}
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in sorted(unique.values(), key=len):
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                rank += 1
                break
            g = gcd(row[col], pivot[col])
            a, b = row[col] // g, pivot[col] // g
            new = {c: b * v for c, v in row.items()}
            for c, v in pivot.items():
                x = new.get(c, 0) - a * v
                if x:
                    new[c] = x
                else:
                    del new[c]
            if new:
                g = gcd(*new.values())
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
            row = new
        if rank == ncols:
            break
    return rank


def build_constraint_matrix(
    spec: FunctionalModelSpec, degree: int
) -> tuple[list[tuple[int, ...]], list[dict[int, int]]]:
    """Basis partitions and constraint rows for one total-degree slice.

    The space is cut out of the symmetric polynomials in s variables whose
    exponents lie below the factor count of m by these degree-preserving
    conditions:
      (2) vanishing when k+1 variables collide          (s >= k+1)
      (3) for a = 2..s, collided degree in z at most sum_i min(a,i)m_i - a
      (4) vanishing at z_1 = 0
      (5) order >= k-l+2 in z when k-l+1 variables collide  (s >= k-l+1)
    Condition (4) is divisibility by e_s = z_1 ... z_s, so the basis is the
    monomial symmetric polynomials indexed by partitions of `degree` into
    exactly s parts, each from 1 to the factor count less one, and no (4)
    row is built. When s >= k+1, condition (2) implies the (3) rows at
    a >= k+1 and, at l = 0, the (5) rows, so those are not built either.
    With s = 0 the basis is the constant and there are no rows.
    """
    s = spec.variable_count
    k = spec.level
    l = spec.weight
    m = spec.composition
    if s == 0:
        return ([()] if degree == 0 else []), []
    factor_count = sum(m.parts)
    basis: list[tuple[int, ...]] = []
    if factor_count > 1:
        # every part lies in 1..factor_count-1: shift the partitions of degree - s
        shifted = _partitions_of(degree - s, s, factor_count - 2)
        basis = [tuple(p + 1 for p in lam) for lam in shifted]
    ascending = [lam[::-1] for lam in basis]
    rows: list[dict[int, int]] = []
    if s >= k + 1:
        rows.extend(_split_rows(ascending, k + 1, lambda zd: True))
    for a in range(2, min(s, k) + 1):
        bound = sum(min(a, i) * mi for i, mi in enumerate(m.parts, start=1)) - a
        rows.extend(_split_rows(ascending, a, lambda zd, b=bound: zd > b))
    order = k - l + 2
    if l > 0 and s >= k - l + 1:
        rows.extend(_split_rows(ascending, k - l + 1, lambda zd: zd < order))
    return basis, rows


def restricted_kostka_oracle(spec: FunctionalModelSpec) -> QPolynomial:
    """Hilbert series of the constrained space, as a polynomial in q.

    The orientation (this series versus its degree reversal) was calibrated
    once on the smallest nontrivial instance against the fermionic route and
    is asserted on every larger case by the test suite: the series matches
    restricted_fermionic directly, with no reversal.
    """
    s = spec.variable_count
    if s > VARIABLE_CAP:
        raise OracleScaleExceeded(
            f"instance needs {s} variables, cap is {VARIABLE_CAP}"
        )
    factor_count = sum(spec.composition.parts)
    top = s * max(factor_count - 1, 0)
    terms: dict[int, int] = {}
    for d in range(top + 1):
        basis, rows = build_constraint_matrix(spec, d)
        nullity = len(basis) - _integer_rank(rows, len(basis))
        if nullity:
            terms[d] = nullity
    return QPolynomial.from_integer_terms(terms)
