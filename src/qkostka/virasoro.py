"""Minimal-model characters three ways.

Rocha-Caridi theta quotients give the reference series. The coset branching
route reaches the same series as a stabilized limit of reversed restricted
Kostka polynomials. The fermionic route reaches it as a quasi-particle sum
whose terms are N->infinity limits of single reversed-fermionic-formula
terms. The published closed form for the linear part of the fermionic
exponent fails at the smallest instance, so the derived exponent is
authoritative here and the published one is evaluated alongside as an
audit, with the difference reported as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul
from typing import Iterator

from .compositions import Composition, InvariantError, hook_composition
from .kostka import _reversed_terms
from .qexact import (
    QPolynomial,
    QSeriesTruncated,
    bounded_partition_series,
    gaussian_product_sum,
    partition_series,
    vector_gaussian_binomial,
)


@dataclass(frozen=True)
class MinimalModel:
    p: int
    p_prime: int
    r: int
    s: int

    def __post_init__(self):
        if self.p < 2 or self.p_prime < 2 or gcd(self.p, self.p_prime) != 1:
            raise ValueError("model labels must be coprime and at least 2")
        if not (1 <= self.r <= self.p - 1 and 1 <= self.s <= self.p_prime - 1):
            raise ValueError("field labels out of range")


@dataclass(frozen=True)
class BranchingSeries:
    series: QSeriesTruncated
    route: str
    stabilized_at: int | None = None

    @property
    def offset(self) -> Fraction:
        return self.series.offset

    def coefficients(self) -> list[int]:
        return [self.series.coefficient(n) for n in range(self.series.order + 1)]


class StabilizationCapExceeded(RuntimeError):
    pass


def conformal_weight(mm: MinimalModel) -> Fraction:
    """Lowest grade of the (r,s) field: ((p'r - ps)^2 - (p'-p)^2) / (4pp')."""
    num = (mm.p_prime * mm.r - mm.p * mm.s) ** 2 - (mm.p_prime - mm.p) ** 2
    return Fraction(num, 4 * mm.p * mm.p_prime)


def coset_central_charge(k: int) -> Fraction:
    """Central charge of the level-(1,k) coset: (k^2+5k)/((k+2)(k+3))."""
    if k < 1:
        raise ValueError("level must be positive")
    return Fraction(k * k + 5 * k, (k + 2) * (k + 3))


def _theta_coefficients(mm: MinimalModel, order: int) -> list[int]:
    """Coefficients of the numerator theta sum, exponents 0..order."""
    p, pp, r, s = mm.p, mm.p_prime, mm.r, mm.s
    coeffs = [0] * (order + 1)

    def add(exponent: int, sign: int) -> bool:
        if 0 <= exponent <= order:
            coeffs[exponent] += sign
            return True
        return False

    n = 0
    while True:
        hit = False
        for nn in ({0} if n == 0 else {n, -n}):
            e1 = p * pp * nn * nn + (pp * r - p * s) * nn
            e2 = p * pp * nn * nn + (pp * r + p * s) * nn + r * s
            hit |= add(e1, +1)
            hit |= add(e2, -1)
        # the quadratic term dominates, so once a full |n| shell misses
        # the window every later shell does too
        if not hit and n > 0:
            return coeffs
        n += 1


def rocha_caridi(mm: MinimalModel, order: int) -> BranchingSeries:
    """Truncated minimal-model character: q^Delta * theta sum / (q)_infinity."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    theta = _theta_coefficients(mm, order)
    parts = partition_series(order)
    coeffs = [
        sum(theta[e] * parts.coefficient(d - e) for e in range(d + 1))
        for d in range(order + 1)
    ]
    series = QSeriesTruncated(coeffs, offset=conformal_weight(mm))
    return BranchingSeries(series, route="rocha-caridi")


def series_mismatches(
    a: QSeriesTruncated, b: QSeriesTruncated
) -> list[tuple[Fraction, int, int]]:
    """Coefficient disagreements of two series over their common window.

    Compares absolute exponents from the lower of the two offsets up to the
    lower of the two truncation edges; a grid point outside one series'
    window but above its edge is not comparable and is not reported.
    """
    lo = min(a.offset, b.offset)
    hi = min(a.hi_exponent(), b.hi_exponent())
    grid: set[Fraction] = set()
    for s in (a, b):
        e = s.offset
        while e <= hi:
            if e >= lo:
                grid.add(e)
            e += 1
    out = []
    for e in sorted(grid):
        ca = a.coefficient_at(e)
        cb = b.coefficient_at(e)
        ca = 0 if ca is None and e < a.offset else ca
        cb = 0 if cb is None and e < b.offset else cb
        if ca is None or cb is None:
            continue
        if ca != cb:
            out.append((e, ca, cb))
    return out


def coset_prefactor_exponent(i: int, j: int, k: int, l: int) -> Fraction:
    """Grade offset carried by the branching space inside the coset."""
    return (
        Fraction(i * (i + 2), 12)
        + Fraction(j * (j + 2), 4 * (k + 2))
        - Fraction(l * (l + 2), 4 * (k + 3))
    )


def coset_gap(i: int, j: int, k: int, l: int) -> int:
    """Grades from the coset offset up to the branching function's leading q^Delta."""
    mm = MinimalModel(k + 2, k + 3, j + 1, l + 1)
    gap = conformal_weight(mm) - coset_prefactor_exponent(i, j, k, l)
    if gap.denominator != 1 or gap < 0:
        raise InvariantError(f"coset exponent gap {gap} is not a nonnegative integer")
    return int(gap)


def _check_labels(j: int, l: int, k: int) -> None:
    """Refuse coset labels outside 0 <= j <= k and 0 <= l <= k + 1."""
    if not (0 <= j <= k and 0 <= l <= k + 1):
        raise ValueError("labels out of range")


def _reversed_window(l: int, m: Composition, k: int, order: int) -> list[int]:
    """Coefficients of q^0..q^order in reversed_restricted(l, m, k).

    Every reversed term is positive, so one whose lowest exponent lies above
    `order` is never summed.
    """
    poly = gaussian_product_sum(t for t in _reversed_terms(l, m, k) if t[1] <= order)
    return [poly.coefficient(d) for d in range(order + 1)]


def branching_via_kostka_limit(i: int, j: int, k: int, l: int, order: int) -> BranchingSeries:
    """Branching function as a stabilized limit of reversed restricted Kostka data.

    Computes the degree reversal of K^(k+1) on 2n+i-1 spin-1 factors plus one
    spin-(j+1) factor for growing n, summing only the fermionic terms that
    reach degree `order`, until the coefficient window through `order`
    agrees at two consecutive n (n runs at most to order + j + 4), then
    attaches the coset grade offset. The leading q^Delta coefficient of an
    irreducible character is 1, so a window whose coefficient at coset_gap
    (when that lies within `order`) is not 1 has not reached the limit and
    is never accepted. Odd i+j+l means the branching space is absent; the
    zero series is returned.
    """
    if i not in (0, 1):
        raise ValueError("i selects a parity and must be 0 or 1")
    _check_labels(j, l, k)
    if order < 0:
        raise ValueError("order must be nonnegative")
    offset = coset_prefactor_exponent(i, j, k, l)
    if (i + j + l) % 2:
        return BranchingSeries(
            QSeriesTruncated([0] * (order + 1), offset), route="kostka-limit"
        )
    gap = coset_gap(i, j, k, l)
    n_cap = order + j + 4
    n = max(1 - i, (l - i - j + 3) // 2, 1)
    prev: list[int] | None = None
    while n <= n_cap:
        window = _reversed_window(l, hook_composition(2 * n + i - 1, j), k + 1, order)
        if window == prev and (gap > order or window[gap] == 1):
            series = QSeriesTruncated(window, offset)
            return BranchingSeries(series, route="kostka-limit", stabilized_at=n - 1)
        prev = window
        n += 1
    raise StabilizationCapExceeded(
        f"no agreement through order {order} for n up to {n_cap}"
    )


@dataclass(frozen=True)
class LimitTermData:
    """One quasi-particle term of the limiting fermionic character.

    t indexes occupation numbers of the species 2..k+1; exponent is the
    N-independent limit exponent of the reversed term (on the quarter grid);
    tops are the surviving binomial numerators; pochhammer_index d gives the
    1/(q)_d factor, with d < 0 meaning the term vanishes.
    """

    t: tuple[int, ...]
    exponent: Fraction
    tops: tuple[int, ...]
    pochhammer_index: int

    def binomial_product(self) -> QPolynomial:
        return vector_gaussian_binomial(self.tops, self.t)


def _reversed_term_data(
    t: tuple[int, ...], j: int, l: int, k: int, N: int
) -> tuple[Fraction, tuple[int, ...], int]:
    """Exponent/tops/pochhammer index of one reversed term at finite N."""
    level = k + 1
    m = hook_composition(N, j).padded(level)
    weighted = sum(a * ma for a, ma in enumerate(m, start=1))
    if (weighted - l) % 2:
        raise InvariantError("inadmissible N parity")
    s = [0] * level
    s[0] = (weighted - l) // 2 - sum(b * tb for b, tb in zip(range(2, level + 1), t))
    for b, tb in zip(range(2, level + 1), t):
        s[b - 1] = tb
    x = [Fraction(ma, 2) - sa for ma, sa in zip(m, s)]
    exponent = sum(
        min(a, b) * x[a - 1] * x[b - 1]
        for a in range(1, level + 1)
        for b in range(1, level + 1)
    )
    tops = []
    for a in range(1, level + 1):
        v = max(0, a - level + l)
        top = sum(min(a, b) * (m[b - 1] - 2 * s[b - 1]) for b in range(1, level + 1))
        tops.append(top - v + s[a - 1])
    d = tops[0] - s[0]
    return Fraction(exponent), tuple(tops[1:]), d


def fermionic_term_limit(
    t: tuple[int, ...] | list[int], j: int, l: int, k: int
) -> LimitTermData:
    """N->infinity limit of one reversed fermionic term, checked at two N.

    The occupation numbers of species 2..k+1 are frozen at t while the
    species-1 number grows with N; exponent, binomial tops and the
    pochhammer index all become N-independent, which is asserted by
    evaluating the finite-N term at two admissible N.
    """
    tvec = tuple(t)
    if len(tvec) != k or any(x < 0 for x in tvec):
        raise ValueError("t must be a nonnegative vector of width k")
    _check_labels(j, l, k)
    n0 = 2 * sum(b * tb for b, tb in zip(range(2, k + 2), tvec))
    n0 += abs(l - j) + j + 3
    if (n0 + j + 1 - l) % 2:
        n0 += 1
    first = _reversed_term_data(tvec, j, l, k, n0)
    second = _reversed_term_data(tvec, j, l, k, n0 + 2)
    if first != second:
        raise InvariantError(
            f"term data depends on N at t={tvec}, j={j}, l={l}, k={k}"
        )
    exponent, tops, d = first
    return LimitTermData(tvec, exponent, tops, d)


def quadratic_form_matrix(k: int) -> list[list[int]]:
    """B on species 2..k+1: B_ab = max(a,b)(min(a,b)-1)."""
    return [
        [max(a, b) * (min(a, b) - 1) for b in range(2, k + 2)]
        for a in range(2, k + 2)
    ]


def derived_linear_term(j: int, l: int, k: int) -> list[int]:
    """Linear exponent coefficients obtained from the term-wise limit."""
    return [(l - j) * (a - 1) + 1 - min(a, j + 1) for a in range(2, k + 2)]


def printed_linear_term(j: int, l: int, k: int) -> list[int]:
    """Published closed form for the linear exponent coefficients (audit only)."""
    return [(j + 1 - l) * (a - 1) + max(0, a - j - 1) for a in range(2, k + 2)]


def _coordinate_ranges(B: list[list[int]], u: list[int], order: int) -> list[int]:
    """Per-coordinate caps X_a so any t with some t_a > X_a has exponent > order.

    Cross terms of B are nonnegative, so the exponent is bounded below by
    the sum of the decoupled one-variable quadratics; each coordinate only
    needs to range while its own quadratic can stay under order minus the
    other coordinates' minima.
    """

    def g(a: int, x: int) -> int:
        return B[a][a] * x * x + u[a] * x

    mins = []
    for a in range(len(u)):
        best = 0
        x = 0
        while True:
            best = min(best, g(a, x))
            if g(a, x) > best and B[a][a] * x >= abs(u[a]):
                break
            x += 1
        mins.append(best)
    total_min = sum(mins)
    caps = []
    for a in range(len(u)):
        budget = order - (total_min - mins[a])
        cap = 0
        x = 0
        while True:
            if g(a, x) <= budget:
                cap = x
            if g(a, x) > budget and B[a][a] * x >= abs(u[a]):
                break
            x += 1
        caps.append(cap)
    return caps


def _enumerate_terms(
    j: int, l: int, k: int, order: int
) -> Iterator[tuple[int, int, LimitTermData]]:
    """(derived n, printed n, term data) for each t with either exponent <= order.

    The t range over caps that cover both linear terms, and each t's term
    data is computed once for both conventions.
    """
    B = quadratic_form_matrix(k)
    u_derived = derived_linear_term(j, l, k)
    u_printed = printed_linear_term(j, l, k)
    caps = map(
        max, _coordinate_ranges(B, u_derived, order), _coordinate_ranges(B, u_printed, order)
    )
    for t in product(*(range(cap + 1) for cap in caps)):
        quad = sum(B[a][b] * t[a] * t[b] for a in range(k) for b in range(k))
        n_derived = quad + sum(map(mul, u_derived, t))
        n_printed = quad + sum(map(mul, u_printed, t))
        if min(n_derived, n_printed) <= order:
            yield n_derived, n_printed, fermionic_term_limit(t, j, l, k)


def _add_term(
    acc: dict[int, int], n: int, binprod: QPolynomial, d: int, order: int
) -> None:
    """Add q**n * binprod / (q)_d through q**order into acc, {exponent: coefficient}.

    binprod has no negative exponents, so the 1/(q)_d tail is needed through
    q**(order - n), also for a term with n < 0.
    """
    tail = bounded_partition_series(d, order - n)
    for e, c in binprod.terms():
        base = n + e // 4
        for dd in range(min(tail.order, order - base) + 1):
            acc[base + dd] = acc.get(base + dd, 0) + c * tail.coefficient(dd)


@dataclass(frozen=True)
class FermionicCharacter:
    derived: BranchingSeries
    printed_minus_derived: QPolynomial
    printed_coefficients: dict[int, int]


def fermionic_character_sum(j: int, l: int, k: int, order: int) -> FermionicCharacter:
    """Quasi-particle character sum in both exponent conventions.

    The derived route uses the exponent taken directly from the term-wise
    limit (and cross-checks it against the quadratic form B with the derived
    linear term). The printed-constant route swaps in the published linear
    term; its deviation from the derived route is returned as a polynomial
    in relative exponents, possibly with negative powers, and is never an
    error. One enumeration of t serves both: each t's limit term and
    binomial product are computed once, and both sides add through the same
    truncated-series helper.
    """
    _check_labels(j, l, k)
    if order < 0:
        raise ValueError("order must be nonnegative")
    delta = conformal_weight(MinimalModel(k + 2, k + 3, j + 1, l + 1))
    c0 = Fraction((l - j) ** 2 + j, 4)

    derived_acc: dict[int, int] = {}
    printed_acc: dict[int, int] = {}
    for n_derived, n_printed, data in _enumerate_terms(j, l, k, order):
        on_derived = n_derived <= order
        if on_derived and data.exponent - c0 != n_derived:
            raise InvariantError("limit exponent disagrees with its closed form")
        if data.pochhammer_index < 0:
            continue
        binprod = data.binomial_product()
        if binprod.is_zero():
            continue
        if on_derived:
            if n_derived < 0:
                raise InvariantError("contributing term with negative relative exponent")
            _add_term(derived_acc, n_derived, binprod, data.pochhammer_index, order)
        if n_printed <= order:
            _add_term(printed_acc, n_printed, binprod, data.pochhammer_index, order)

    derived_coeffs = [derived_acc.get(e, 0) for e in range(order + 1)]
    if any(c < 0 for c in derived_coeffs):
        raise InvariantError("character coefficients must be nonnegative")
    derived = BranchingSeries(
        QSeriesTruncated(derived_coeffs, offset=delta), route="fermionic-derived"
    )
    diff_terms: dict[int, int] = {}
    for e in range(min([0] + list(printed_acc)), order + 1):
        d = printed_acc.get(e, 0) - (derived_coeffs[e] if 0 <= e <= order else 0)
        if d:
            diff_terms[4 * e] = d
    residual = QPolynomial(diff_terms)
    printed_clean = {e: c for e, c in sorted(printed_acc.items()) if c}
    return FermionicCharacter(derived, residual, printed_clean)
