"""Production routes for unrestricted and level-restricted Kostka polynomials.

Three independent computations live here or nearby: the fermionic sum over
quasi-particle occupation vectors (this module), the signed theta-like sum
through unrestricted polynomials (this module, with the unrestricted input
taken either from the fermionic sum at a level past |m|, where it has
stabilized, or from the tableau oracle), and the graded Euler
characteristic over shifted Weyl orbits (module weyl), which sums the
packed fusion slices that `fusion_weight_char` reads. Those slices come
from their own bottom-up walk over suffix sums, not from the fermionic
walk, so a fault in the fermionic walk does not reach the Euler route.
Route agreement across all of them is the central correctness argument.

The fermionic sum walks the occupation vectors s (sum a*s_a = N) top-down,
one recursion level per level a from max(min(k, N), 1) to 1. Its state at
level a (what remains of N, sum_(b>a) s_b and sum_(b>a) (b-a) s_b) fixes
(A(m-2s))_a, so a vanishing binomial prunes the whole subtree below it.
Levels above N are never visited: there s_a = 0, and the vanishing margin
is concave in a and nonnegative at both ends.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import Callable, Literal

from .charge import kostka_sl2_oracle
from .compositions import (
    Composition,
    CompositionLike,
    InvariantError,
    as_composition,
    check_level_weight,
    top_degree_h,
)
from .qexact import (
    _ZERO,
    QPolynomial,
    _digit_bytes,
    _packed_difference,
    _packed_factors,
    gaussian_product_sum,
    shifted_sum,
    signed_binomial_sum,
)

Route = Literal["fermionic", "charge"]


def restricted_fermionic(l: int, m: CompositionLike, k: int) -> QPolynomial:
    """Level-k restricted Kostka polynomial by the fermionic sum.

    Sum over occupation vectors s with sum a*s_a = N = (|m| - l)/2 of
    q**(sAs + v.s) * prod binom(A(m-2s) - v + s, s). Wrong parity gives the
    zero polynomial; a factor spin above the level makes the product vanish
    identically, so zero is returned for those without evaluating anything.
    """
    return gaussian_product_sum(_fermionic_terms(l, m, k))


def _fermionic_terms(
    l: int, m: CompositionLike, k: int
) -> list[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """The terms of restricted_fermionic as gaussian_product_sum reads them.

    Each surviving occupation vector s gives (1, sAs + v.s, ((t, s_a), ...))
    with the trivial binomials left out; the list is empty when the
    polynomial is zero.

    The vectors are walked top-down, choosing s_a at level a from level
    max(min(k, N), 1) to level 1, so the recursion is max(min(k, N), 1)
    deep. The state at level a is what remains of N, S_(a+1) = sum_(b>a) s_b
    and R_a = sum_(b>a) (b-a) s_b. Then (As)_a = N - R_a, and the vanishing
    test (A(m-2s))_a < v_a does not read s_a: it cuts off a whole subtree
    before any lower level is chosen.
    """
    check_level_weight(l, k)
    comp = as_composition(m)
    if comp.width > k:
        return []
    # With A_ab = min(a, b), (Ax)_a = sum_{c <= a} sum_{b >= c} x_b: running
    # sums of the suffix sums M_c of m give (Am)_a, which stays at |m| from
    # the width of m on.
    m_suffix = list(accumulate(reversed(comp.parts)))[::-1]
    a_m = list(accumulate(m_suffix))
    size = a_m[-1]
    if (size - l) % 2 or size < l:
        return []
    n = (size - l) // 2
    # the walk reads (Am)_a only at levels a <= max(min(k, N), 1), within
    # the width or min(k, N): a list as long as the level would cost memory
    # that grows with k, and unrestricted walks at level |m|
    a_m += [size] * (min(k, n) - comp.width)
    shift = k - l  # v_a = max(0, a - shift), the restriction vector
    terms: list[tuple[int, int, tuple[tuple[int, int], ...]]] = []

    def walk(a: int, rem: int, above: int, r: int, exponent: int, pairs: tuple) -> None:
        # above = S_(a+1) and r = R_a; (A(m-2s))_a - v_a is fixed by them
        v_a = a - shift if a > shift else 0
        free = a_m[a - 1] - 2 * (n - r) - v_a
        if free < 0:
            return
        weight = n - r + v_a
        # [t choose 0] = [t choose t] = 1 for t = free + s: nothing to multiply
        if a == 1:
            if rem and free:
                pairs += ((free + rem, rem),)
            terms.append((1, exponent + rem * weight, pairs))
            return
        for s in range(rem // a + 1):
            below = above + s
            walk(
                a - 1, rem - a * s, below, r + below, exponent + s * weight,
                pairs + ((free + s, s),) if s and free else pairs,
            )

    # Levels above N hold s_a = 0 and need no visit: for a >= N, R_a = 0 and
    # (A(m-2s))_a - v_a = (Am)_a - 2N - v_a is concave in a, since (Am)_a has
    # nonincreasing steps M_a and v_a is convex. It is checked at a = N
    # below, and at a = k it is |m| - 2N - l = 0, so it is nonnegative in
    # between. With N = 0 the walk starts at level 1, whose test the one
    # vector s = 0 passes: there free is the number of factors less v_1, and
    # v_1 = 1 only when l = k = |m| >= 1.
    walk(max(min(k, n), 1), n, 0, 0, 0, ())
    return terms


def unrestricted(l: int, m: CompositionLike) -> QPolynomial:
    """Unrestricted Kostka polynomial K_{l,m}: the fermionic sum at level max(|m|, l, 1).

    At a level k >= |m| the walk visits only levels a <= N = (|m| - l)/2,
    where v_a = 0 and (Am)_a does not depend on k: every higher level gives
    the same term list, so the polynomial has stabilized. With no trailing
    zeros, m has width at most max(|m|, 1), so no spin exceeds the level.
    """
    if l < 0:
        return _ZERO
    comp = as_composition(m)
    return restricted_fermionic(l, comp, max(comp._weighted_size, l, 1))


def _unrestricted_source(route: Route) -> Callable[[int, Composition], QPolynomial]:
    if route == "fermionic":
        return unrestricted
    if route == "charge":
        return kostka_sl2_oracle
    raise ValueError(f"unknown unrestricted route {route!r}")


def alternating_sum_raw(
    l: int, m: CompositionLike, k: int, source: Route = "fermionic"
) -> QPolynomial:
    """The bare signed sum of unrestricted polynomials, without any level check.

    Sum over i >= 0 of q**((k+2)i^2 + (l+1)i) K_{2(k+2)i + l, m} minus the sum
    over i >= 1 of q**((k+2)i^2 - (l+1)i) K_{2(k+2)i - l - 2, m}. A weight
    past |m| gives zero, so i stops at the last 2(k+2)i - l - 2 <= |m|, and
    both sums are summed in one `shifted_sum` pass. This raw form represents
    the graded homology Euler characteristic only for compositions whose
    spins all fit below the level; restricted_alternating adds that
    admissibility check.
    """
    check_level_weight(l, k)
    comp = as_composition(m)
    size = comp._weighted_size
    kostka = _unrestricted_source(source)
    items = []
    for i in range((size + l + 2) // (2 * (k + 2)) + 1):
        w = 2 * (k + 2) * i
        if w + l <= size:
            items.append((1, (k + 2) * i * i + (l + 1) * i, kostka(w + l, comp)))
        if i:
            items.append((-1, (k + 2) * i * i - (l + 1) * i, kostka(w - l - 2, comp)))
    return shifted_sum(items)


def restricted_alternating(
    l: int, m: CompositionLike, k: int, source: Route = "fermionic"
) -> QPolynomial:
    """Restricted Kostka polynomial through the signed unrestricted sum.

    A spin above the level kills the restricted module outright, so those
    compositions return zero directly; the signed sum itself is only a valid
    expression for the level-admissible ones. A bad level or weight is
    refused first, as in the fermionic route.
    """
    check_level_weight(l, k)
    comp = as_composition(m)
    if comp.width > k:
        return _ZERO
    return alternating_sum_raw(l, comp, k, source)


def _reversed_terms(
    l: int, m: CompositionLike, k: int
) -> list[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """The fermionic terms of q**h(m) * K(1/q), as gaussian_product_sum reads them.

    Gaussian binomials are palindromic, [t, s](1/q) = q**(-s(t - s)) [t, s],
    so the term q**e prod [t, s] reverses to q**(h - e - sum s(t - s)) prod [t, s].
    Every term is positive, so the lowest of those exponents is the lowest
    exponent of the reversed polynomial, and it must not be negative.
    """
    h = top_degree_h(m)
    terms = [
        (sign, h - e - sum(s * (t - s) for t, s in pairs), pairs)
        for sign, e, pairs in _fermionic_terms(l, m, k)
    ]
    if any(shift < 0 for _, shift, _ in terms):
        raise InvariantError("degree reversal produced a negative exponent")
    return terms


def reversed_restricted(l: int, m: CompositionLike, k: int) -> QPolynomial:
    """Degree reversal q**h(m) * K(1/q); exponents stay nonnegative."""
    return gaussian_product_sum(_reversed_terms(l, m, k))


# m -> ((width, headroom), F(|m|), F(|m| - 2), ...), down to the deepest |alpha|
# asked: each F packed at q = 2**(8 * width), in digits that hold headroom Fs
_fusion_tables = {}


def fusion_weight_char(m: CompositionLike, alpha: int) -> QPolynomial:
    """Graded dimension of the weight-alpha slice of the fusion product.

    Sum of K_{l,m} over l >= |alpha| with l = alpha (mod 2), from suffix
    sums F(l) = K_{l,m} + F(l + 2) kept per composition, each one packed
    int, and filled from |m| down to at least the |alpha| asked (see
    `_fusion_table`); the one asked is unpacked. Symmetric in alpha and
    -alpha; zero once |alpha| exceeds |m|.

    The slices K_{|m| - 2N, m} come from one bottom-up walk that reads the
    unrestricted fermionic sum in the suffix sums
    S_c = sum_(b>=c) s_b, S_1 >= S_2 >= ... >= 0, where N = sum_c S_c,
    sAs = sum_c S_c^2 and (As)_a = sum_(c<=a) S_c. Choosing S_1, S_2, ...
    in turn fixes the vacancy number P_a = (Am)_a - 2(As)_a as soon as S_a
    is chosen, and closes the factor [P_a + s_a, s_a], s_a = S_a - S_(a+1),
    once S_(a+1) is. A configuration ends at its last nonzero level L, and
    every walk prefix is one, so a single walk yields every N up to the one
    asked. P_a >= 0 is checked up to L only: past it (As)_a stays N while
    (Am)_a does not fall, so P_a >= P_L.
    """
    comp = as_composition(m)
    size = comp._weighted_size
    alpha = abs(alpha)
    if alpha > size or (size - alpha) % 2:
        return _ZERO
    index = (size + 2 - alpha) // 2
    table = _fusion_table(comp, index, 1)
    return _packed_difference(table[index], 0, table[0][0], 0)


def _fusion_table(comp: Composition, index: int, headroom: int) -> tuple:
    """The table of comp filled down to at least its F at `index`, with
    digits that hold a sum of at least `headroom` of its Fs.

    A held table too shallow or too narrow for the call is replaced by one
    fill from N = 0, as deep as the larger of the held and asked depths and
    with digits no narrower than the held ones. Every F has nonnegative
    coefficients summing to at most the fill's total, its terms' product of
    ordinary binomials C(t, s) summed, so digits that hold headroom * total
    never carry in such a sum, however shifted. A fill fetches its rows once
    and adds every term to one running int. A published table is never
    changed, so a concurrent call reads a whole one.
    """
    # nothing held reads as a table of no slices
    table = _fusion_tables.get(comp.parts, ((1, 0),))
    if index < len(table) and headroom <= table[0][1]:
        return table
    index = max(index, len(table) - 1)
    slices = _fusion_slices(comp, index - 1)
    combs: dict[tuple[int, int], int] = {}
    total = 0
    for terms in slices:
        for _, pairs in terms:
            value = 1
            for pair in pairs:
                c = combs.get(pair)
                if c is None:
                    c = combs[pair] = comb(*pair)
                value *= c
            total += value
    width = max(table[0][0], _digit_bytes((headroom * total).bit_length()))
    bits = 8 * width
    factors = _packed_factors(combs, bits)
    table = [(width, ((1 << bits) - 1) // total)]
    running = 0
    for terms in slices:
        for exponent, pairs in terms:
            product = 1
            for pair in pairs:
                product *= factors[pair]
            running += product << (bits * exponent)
        table.append(running)
    table = _fusion_tables[comp.parts] = tuple(table)
    return table


def _fusion_slices(comp: Composition, last: int) -> list[list]:
    """The terms of K_{|m| - 2N, m} for N = 0..last, from the suffix-sum
    walk that `fusion_weight_char` describes.

    Each slice is a list of (exponent, ((t, s), ...)) terms, a product of
    Gaussian binomials [t, s] times q**exponent. A term lists its factors
    from level L down to level 1, the order the top-down walk uses: listed
    from level 1 up, the packed products for m = 1^60 took about 7% longer.
    """
    # (Am)_a from the suffix sums M_c of m, for a = 0 up to level last + 1,
    # the deepest the walk reads; it stays |m| past the width
    a_m = [0, *accumulate(list(accumulate(reversed(comp.parts)))[::-1])]
    a_m += [a_m[-1]] * (last + 2 - len(a_m))
    slices: list[list] = [[] for _ in range(last + 1)]

    def walk(a: int, top: int, n: int, exponent: int, pairs: tuple) -> None:
        # S_a = top and n = (As)_a, with P_c >= 0 for c <= a; level 0 is the
        # empty prefix, with P_0 = 0
        p = a_m[a] - 2 * n
        # S_(a+1) = 0 ends the configuration at N = n
        slices[n].append((exponent, ((p + top, top),) + pairs if p else pairs))
        # P_(a+1) >= 0 bounds S_(a+1) from above
        for below in range(1, min(top, last - n, a_m[a + 1] // 2 - n) + 1):
            s = top - below
            walk(
                a + 1, below, n + below, exponent + below * below,
                ((p + s, s),) + pairs if s and p else pairs,
            )

    walk(0, last, 0, 0, ())
    return slices


def fusion_char_hook(N: int, j: int, l: int) -> QPolynomial:
    """Weight-l graded character of the hook family: N spin-1 factors, one spin j+1.

    A closed binomial form: sum_{s=0..j} binom(N+1, (N+j+1-l-2s)/2) minus
    sum_{s=0..j-1} binom(N, (N+j-1-l-2s)/2). Zero when l has the wrong
    parity relative to N+j+1.
    """
    if N < 0 or j < 0:
        raise ValueError("hook parameters must be nonnegative")
    if (N + j + 1 - l) % 2:
        return _ZERO
    return signed_binomial_sum(
        [(1, 0, N + 1, (N + j + 1 - l - 2 * s) // 2) for s in range(j + 1)]
        + [(-1, 0, N, (N + j - 1 - l - 2 * s) // 2) for s in range(j)]
    )


def reversed_char_1N(n: int, i: int, s: int) -> QPolynomial:
    """Reversed weight-(2s+i) character of 2n+i spin-1 factors: q**(s(s+i)) binom(2n+i, n-s)."""
    if i not in (0, 1):
        raise ValueError("i selects a parity and must be 0 or 1")
    if s < 0:
        raise ValueError("s must be nonnegative")
    return signed_binomial_sum([(1, s * (s + i), 2 * n + i, n - s)])
