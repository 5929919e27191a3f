"""Minimal-model characters three ways.

Rocha-Caridi theta quotients give the reference series. The coset branching
route reaches the same series as a stabilized limit of reversed restricted
Kostka polynomials. The fermionic route reaches it as a quasi-particle sum
whose terms are N->infinity limits of single reversed-fermionic-formula
terms. The published closed form for the linear part of the fermionic
exponent fails at the smallest instance, so the derived exponent is
authoritative here and the published one is evaluated alongside as an
audit, with the difference reported as data.

Every division by (q)_d (partition series, theta quotients, quasi-particle
sums) is `divide_by_pochhammer`, one running sum per factor 1 - q^part.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from math import floor, gcd
from operator import add, mul
from typing import Iterator, NamedTuple, Sequence

from .compositions import Composition, InvariantError, Value, as_integers, hook_composition
from .kostka import _reversed_terms
from .qexact import (
    QPolynomial,
    _exact,
    gaussian_product_sum,
    shifted_sum,
    vector_gaussian_binomial,
)


class QSeriesTruncated(Value):
    """Truncated q-series: q**offset * (c_0 + c_1 q + ... + c_order q**order).

    An immutable `Value`. The offset is an exact rational and may fall off
    the quarter grid; the tail always steps by integer powers. Lookups never
    claim coefficients beyond the stated order.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, coeffs: Sequence[int], offset: Fraction | int = 0):
        if len(coeffs) == 0:
            raise ValueError("series needs at least the constant coefficient")
        if not isinstance(offset, (int, Fraction)):
            raise ValueError(f"offset {offset!r} is not an int or a Fraction")
        super().__init__(Fraction(offset), tuple(map(_exact, coeffs)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def hi_exponent(self) -> Fraction:
        """Largest absolute exponent whose coefficient is known."""
        return self.offset + self.order

    def coefficient(self, n: int) -> int:
        """Coefficient of q**(offset + n)."""
        if n < 0 or n > self.order:
            raise IndexError("coefficient beyond the truncation order")
        return self.coeffs[n]

    def __str__(self) -> str:
        return f"q^({self.offset}) * {list(self.coeffs)}"

    def __repr__(self) -> str:
        return f"QSeriesTruncated(offset={self.offset}, coeffs={list(self.coeffs)})"


def bounded_partition_series(max_part: int, order: int) -> QSeriesTruncated:
    """Truncation of 1/(q)_max_part: partitions with parts of size <= max_part.

    A negative max_part stands for an empty reciprocal: terms whose
    quasi-particle count went negative contribute nothing, so the zero
    series is returned.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if max_part < 0:
        return QSeriesTruncated([0] * (order + 1))
    counts = [1] + [0] * order
    divide_by_pochhammer(counts, max_part)
    return QSeriesTruncated(counts)


def divide_by_pochhammer(coeffs: list[int], d: int) -> None:
    """Divide the series c_0 + c_1 q + ... by (q)_d in place, truncated at len(coeffs).

    (q)_d = (1 - q)(1 - q^2)...(1 - q^d); dividing by one factor 1 - q^part
    is the running sum c_n += c_(n - part), and parts beyond the list's
    length change nothing.
    """
    if d < 0:
        raise ValueError("the Pochhammer index must be nonnegative")
    for part in range(1, min(d, len(coeffs) - 1) + 1):
        for n in range(part, len(coeffs)):
            coeffs[n] += coeffs[n - part]


class MinimalModel(Value):
    __slots__ = ("p", "p_prime", "r", "s")

    def __init__(self, p: int, p_prime: int, r: int, s: int):
        p, p_prime, r, s = as_integers((p, p_prime, r, s), "model and field labels must be integers")
        if p < 2 or p_prime < 2 or gcd(p, p_prime) != 1:
            raise ValueError("model labels must be coprime and at least 2")
        if not (1 <= r <= p - 1 and 1 <= s <= p_prime - 1):
            raise ValueError("field labels out of range")
        super().__init__(p, p_prime, r, s)


class BranchingSeries(NamedTuple):
    series: QSeriesTruncated
    route: str
    stabilized_at: int | None = None

    @property
    def offset(self) -> Fraction:
        return self.series.offset

    def coefficients(self) -> list[int]:
        return list(self.series.coeffs)


class StabilizationCapExceeded(RuntimeError):
    pass


def conformal_weight(mm: MinimalModel) -> Fraction:
    """Lowest grade of the (r,s) field: ((p'r - ps)^2 - (p'-p)^2) / (4pp')."""
    num = (mm.p_prime * mm.r - mm.p * mm.s) ** 2 - (mm.p_prime - mm.p) ** 2
    return Fraction(num, 4 * mm.p * mm.p_prime)


def coset_central_charge(k: int) -> Fraction:
    """Central charge of the level-(1,k) coset: (k^2+5k)/((k+2)(k+3)).

    Level 0 is the (2, 3) model, c = 0, as in every other coset entry point.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    return Fraction(k * k + 5 * k, (k + 2) * (k + 3))


def _theta_coefficients(mm: MinimalModel, order: int) -> list[int]:
    """Coefficients of the numerator theta sum, exponents 0..order.

    For |n| >= 1 both exponents are at least pp'|n|(|n| - 2), because
    |p'r - ps| < p'r + ps < 2pp', so no |n| past order // (pp') + 2 reaches
    the window.
    """
    p, pp, r, s = mm.p, mm.p_prime, mm.r, mm.s
    coeffs = [0] * (order + 1)
    span = order // (p * pp) + 2
    for n in range(-span, span + 1):
        e1 = p * pp * n * n + (pp * r - p * s) * n
        e2 = p * pp * n * n + (pp * r + p * s) * n + r * s
        if 0 <= e1 <= order:
            coeffs[e1] += 1
        if 0 <= e2 <= order:
            coeffs[e2] -= 1
    return coeffs


def rocha_caridi(mm: MinimalModel, order: int) -> BranchingSeries:
    """Truncated minimal-model character: q^Delta * theta sum / (q)_infinity."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = _theta_coefficients(mm, order)
    # through q^order, 1/(q)_infinity is 1/(q)_order
    divide_by_pochhammer(coeffs, order)
    series = QSeriesTruncated(coeffs, offset=conformal_weight(mm))
    return BranchingSeries(series, route="rocha-caridi")


def series_mismatches(a: QSeriesTruncated, b: QSeriesTruncated) -> list[tuple[Fraction, int, int]]:
    """Coefficient disagreements (exponent, a's, b's) of two series, by exponent.

    Each series is read as its nonzero coefficients up to the lower of the
    two truncation edges, where both series are known: a series reads 0
    below its offset and off its own integer ladder.
    """
    hi = min(a.hi_exponent(), b.hi_exponent())
    ca, cb = (
        {s.offset + n: c for n, c in enumerate(s.coeffs[: max(0, floor(hi - s.offset) + 1)]) if c}
        for s in (a, b)
    )
    differ = sorted(e for e in ca.keys() | cb.keys() if ca.get(e) != cb.get(e))
    return [(e, ca.get(e, 0), cb.get(e, 0)) for e in differ]


def coset_prefactor_exponent(i: int, j: int, k: int, l: int) -> Fraction:
    """Grade offset carried by the branching space inside the coset."""
    return (
        Fraction(i * (i + 2), 12)
        + Fraction(j * (j + 2), 4 * (k + 2))
        - Fraction(l * (l + 2), 4 * (k + 3))
    )


def coset_gap(i: int, j: int, k: int, l: int) -> int:
    """Grades from the coset offset up to the leading q^Delta; i + j + l must be even."""
    _check_coset_labels(i, j, l, k)
    if (i + j + l) % 2:
        raise ValueError("i + j + l must be even")
    mm = MinimalModel(k + 2, k + 3, j + 1, l + 1)
    gap = conformal_weight(mm) - coset_prefactor_exponent(i, j, k, l)
    if gap.denominator != 1 or gap < 0:
        raise InvariantError(f"coset exponent gap {gap} is not a nonnegative integer")
    return int(gap)


def _check_labels(j: int, l: int, k: int) -> None:
    """Refuse coset labels outside 0 <= j <= k and 0 <= l <= k + 1."""
    if not (0 <= j <= k and 0 <= l <= k + 1):
        raise ValueError("labels out of range")


def _check_coset_labels(i: int, j: int, l: int, k: int) -> None:
    """Refuse a parity i outside {0, 1} and the labels `_check_labels` refuses."""
    if i not in (0, 1):
        raise ValueError("i selects a parity and must be 0 or 1")
    _check_labels(j, l, k)


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
    _check_coset_labels(i, j, l, k)
    if order < 0:
        raise ValueError("order must be nonnegative")
    offset = coset_prefactor_exponent(i, j, k, l)
    if (i + j + l) % 2:
        return BranchingSeries(QSeriesTruncated([0] * (order + 1), offset), route="kostka-limit")
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
    raise StabilizationCapExceeded(f"no agreement through order {order} for n up to {n_cap}")


class LimitTermData(NamedTuple):
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
    # s_1 absorbs what the frozen species 2..k+1 do not occupy
    s = [(weighted - l) // 2 - sum(b * tb for b, tb in zip(range(2, level + 1), t)), *t]
    # the exponent is sum_(a,b) min(a, b) x_a x_b with x = m/2 - s. It is
    # summed over the integers y = 2x = m - 2s, 4 times too large. min(a, b)
    # counts the c <= a, b, so with the tails T_c = y_c + ... + y_level that
    # sum is sum_c T_c^2, and sum_b min(a, b) y_b is T_1 + ... + T_a
    y = [ma - 2 * sa for ma, sa in zip(m, s)]
    tails = list(accumulate(reversed(y)))[::-1]
    tops = [
        top - max(0, a - level + l) + sa
        for a, (top, sa) in enumerate(zip(accumulate(tails), s), start=1)
    ]
    d = tops[0] - s[0]
    return Fraction(sum(T * T for T in tails), 4), tuple(tops[1:]), d


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
        raise InvariantError(f"term data depends on N at t={tvec}, j={j}, l={l}, k={k}")
    return LimitTermData(tvec, *first)


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

    Cross terms of B are nonnegative, so the exponent is at least the sum of
    the convex g_a(x) = B_aa x^2 + u_a x (B_aa = a(a - 1) > 0), whose minima,
    reached by x = |u_a| // B_aa + 1, are at most g_a(0) = 0. Coordinate a's
    budget, order minus the other minima, is thus >= 0: the x within it run 0..X_a.
    """

    def g(a: int, x: int) -> int:
        return B[a][a] * x * x + u[a] * x

    mins = [min(g(a, x) for x in range(abs(u[a]) // B[a][a] + 2)) for a in range(len(u))]
    caps = []
    for a in range(len(u)):
        budget = order - (sum(mins) - mins[a])
        cap = 0
        while g(a, cap + 1) <= budget:
            cap += 1
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


def _divided_window(terms: list[tuple[int, int, QPolynomial]], order: int) -> dict[int, int]:
    """{e: coefficient of q^e} of the sum of q^n p / (q)_d over (d, n, p) terms.

    The window runs from the least n, or from 0 if that is lower, through
    q^order. Division by (q)_d is linear, so the numerators q^n p of each d
    are summed first and divided once.
    """
    low = min([0] + [n for _, n, _ in terms])
    window = [0] * (order - low + 1)
    for d in {d for d, _, _ in terms}:
        numerator = shifted_sum((1, n, p) for dd, n, p in terms if dd == d)
        coeffs = [numerator.coefficient(e) for e in range(low, order + 1)]
        divide_by_pochhammer(coeffs, d)
        window = list(map(add, window, coeffs))
    return dict(zip(range(low, order + 1), window))


class FermionicCharacter(NamedTuple):
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
    binomial product are computed once. Each side sums its numerators q^n *
    binomial product per Pochhammer index d, from its least n (which may be
    negative on the printed side), and divides each sum by (q)_d once.
    """
    _check_labels(j, l, k)
    if order < 0:
        raise ValueError("order must be nonnegative")
    delta = conformal_weight(MinimalModel(k + 2, k + 3, j + 1, l + 1))
    c0 = Fraction((l - j) ** 2 + j, 4)

    derived_terms: list[tuple[int, int, QPolynomial]] = []
    printed_terms: list[tuple[int, int, QPolynomial]] = []
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
            derived_terms.append((data.pochhammer_index, n_derived, binprod))
        if n_printed <= order:
            printed_terms.append((data.pochhammer_index, n_printed, binprod))

    # every derived n is at least 0, so its window is q^0..q^order
    derived = _divided_window(derived_terms, order)
    if any(c < 0 for c in derived.values()):
        raise InvariantError("character coefficients must be nonnegative")
    series = QSeriesTruncated(list(derived.values()), offset=delta)
    printed = _divided_window(printed_terms, order)
    residual = {e: c - derived.get(e, 0) for e, c in printed.items()}
    return FermionicCharacter(
        BranchingSeries(series, route="fermionic-derived"),
        QPolynomial.from_integer_terms(residual),
        {e: c for e, c in printed.items() if c},
    )
