import hashlib
import random
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

import pytest

from qkostka import kostka, virasoro
from qkostka.compositions import InvariantError, hook_composition
from qkostka.kostka import reversed_restricted
from qkostka.qexact import QPolynomial
from qkostka.virasoro import (
    BranchingSeries,
    MinimalModel,
    QSeriesTruncated,
    branching_via_kostka_limit,
    conformal_weight,
    coset_central_charge,
    coset_gap,
    coset_prefactor_exponent,
    derived_linear_term,
    fermionic_character_sum,
    fermionic_term_limit,
    printed_linear_term,
    quadratic_form_matrix,
    rocha_caridi,
    series_mismatches,
)


def window(bs: BranchingSeries) -> list[int]:
    return list(bs.coefficients())


def test_minimal_model_validation():
    MinimalModel(3, 4, 1, 1)
    with pytest.raises(ValueError):
        MinimalModel(2, 4, 1, 1)  # not coprime
    with pytest.raises(ValueError):
        MinimalModel(3, 4, 3, 1)  # r out of range
    with pytest.raises(ValueError):
        MinimalModel(3, 4, 1, 4)  # s out of range


def test_minimal_model_refuses_labels_that_are_not_integers():
    # refused at construction, not left to fail inside the character formulas
    for labels in [(3, 4, 1.5, 1), (3.0, 4, 1, 1), (3, 4, 1, "1"), (3, Fraction(4), 1, 1)]:
        with pytest.raises(ValueError, match="model and field labels must be integers"):
            MinimalModel(*labels)


def test_conformal_weights():
    assert conformal_weight(MinimalModel(3, 4, 1, 1)) == 0
    assert conformal_weight(MinimalModel(3, 4, 2, 2)) == Fraction(1, 16)
    assert conformal_weight(MinimalModel(3, 4, 1, 3)) == Fraction(1, 2)
    assert conformal_weight(MinimalModel(4, 5, 2, 2)) == Fraction(3, 80)
    assert conformal_weight(MinimalModel(4, 5, 2, 1)) == Fraction(7, 16)
    assert conformal_weight(MinimalModel(4, 5, 1, 2)) == Fraction(1, 10)


def test_central_charge():
    assert coset_central_charge(1) == Fraction(1, 2)
    assert coset_central_charge(2) == Fraction(7, 10)
    for k in range(1, 7):
        t = Fraction(k + 3, k + 2)
        assert coset_central_charge(k) == 13 - 6 * (t + 1 / t)


def test_central_charge_is_the_minimal_model_value_from_level_0():
    # the level-k coset is the (p, p') = (k + 2, k + 3) minimal model, and
    # level 0 is the (2, 3) model with c = 0, a level the other entry points take
    for k in range(7):
        p, pp = k + 2, k + 3
        assert coset_central_charge(k) == 1 - Fraction(6 * (p - pp) ** 2, p * pp), k
    assert coset_central_charge(0) == 0
    with pytest.raises(ValueError):
        coset_central_charge(-1)


def test_rocha_caridi_ising():
    vac = rocha_caridi(MinimalModel(3, 4, 1, 1), 6)
    assert window(vac) == [1, 0, 1, 1, 2, 2, 3]
    assert vac.offset == 0
    eps = rocha_caridi(MinimalModel(3, 4, 1, 3), 6)
    assert window(eps) == [1, 1, 1, 1, 2, 2, 3]
    sigma = rocha_caridi(MinimalModel(3, 4, 2, 2), 6)
    assert window(sigma) == [1, 1, 1, 2, 2, 3, 4]


def test_rocha_caridi_trivial_model():
    # (2,3) vacuum: the theta difference is Euler's pentagonal series,
    # cancelling the partition generating function exactly
    triv = rocha_caridi(MinimalModel(2, 3, 1, 1), 15)
    assert window(triv) == [1] + [0] * 15


def test_rocha_caridi_label_symmetry():
    # chi_{r,s} = chi_{p-r, p'-s}
    a = rocha_caridi(MinimalModel(3, 4, 1, 2), 10)
    b = rocha_caridi(MinimalModel(3, 4, 2, 2), 10)
    assert window(a) == window(b)
    assert a.offset == b.offset


def test_series_mismatches():
    a = rocha_caridi(MinimalModel(3, 4, 1, 1), 6).series
    b = rocha_caridi(MinimalModel(3, 4, 1, 3), 6).series
    assert series_mismatches(a, a) == []
    bad = series_mismatches(a, b)
    assert bad  # differ already at the offset


def test_coset_prefactor_five_term_identity():
    # residual conformal weight of the branching: offset difference between
    # the coset constituents and the minimal-model primary
    for k in (1, 2, 3):
        for i in (0, 1):
            for j in range(k + 1):
                for l in range(k + 2):
                    if (i + j + l) % 2:
                        continue
                    delta = Fraction((l - j) ** 2 - i, 4)
                    mm_weight = conformal_weight(
                        MinimalModel(k + 2, k + 3, j + 1, l + 1)
                    )
                    prefactor = coset_prefactor_exponent(i, j, k, l)
                    assert mm_weight == prefactor + delta, (i, j, k, l)


def test_branching_limit_ising_vacuum():
    bs = branching_via_kostka_limit(0, 0, 1, 0, 6)
    assert window(bs) == [1, 0, 1, 1, 2, 2, 3]
    assert bs.stabilized_at is not None
    assert bs.route == "kostka-limit"


def test_branching_limit_matches_rocha():
    # for the k >= 4 cases the windows of two consecutive n first agree as
    # all zeros, before the leading q^Delta term has reached them
    cases = [(0, 0, 1, 0), (1, 1, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1),
             (0, 4, 4, 0), (0, 4, 5, 0), (0, 5, 5, 1), (1, 5, 5, 0)]
    for (i, j, k, l) in cases:
        bs = branching_via_kostka_limit(i, j, k, l, 15)
        mm = rocha_caridi(MinimalModel(k + 2, k + 3, j + 1, l + 1), 15)
        assert series_mismatches(bs.series, mm.series) == [], (i, j, k, l)


def _full_reversal_limit(i, j, k, l, order, polys):
    # the limit loop before it summed only the terms that reach the window:
    # the whole reversed polynomial at every n, kept in `polys` across orders
    n = max(1 - i, (l - i - j + 3) // 2, 1)
    prev = None
    while True:
        if n not in polys:
            polys[n] = reversed_restricted(l, hook_composition(2 * n + i - 1, j), k + 1)
        poly = polys[n]
        window = [poly.coefficient(d) for d in range(order + 1)]
        if window == prev:
            return window, n - 1
        prev = window
        n += 1


def test_branching_window_matches_the_full_reversal():
    checked = 0
    for k in (1, 2, 3):
        for i in (0, 1):
            for j in range(k + 1):
                for l in range((i + j) % 2, k + 2, 2):
                    polys = {}
                    for order in (10, 20, 30):
                        bs = branching_via_kostka_limit(i, j, k, l, order)
                        window, n = _full_reversal_limit(i, j, k, l, order, polys)
                        assert bs.coefficients() == window, (i, j, k, l, order)
                        assert bs.stabilized_at == n, (i, j, k, l, order)
                        checked += 1
    assert checked == 114


def test_negative_reversed_exponent_raises(monkeypatch):
    # a term above the top degree h(m) would reverse to a negative exponent;
    # both reversals read the one term reversal in kostka
    monkeypatch.setattr(kostka, "_fermionic_terms", lambda l, m, k: [(1, 10**6, ())])
    with pytest.raises(InvariantError, match="negative exponent"):
        reversed_restricted(0, (2,), 1)
    with pytest.raises(InvariantError, match="negative exponent"):
        branching_via_kostka_limit(0, 0, 1, 0, 6)


def test_branching_parity_zero():
    bs = branching_via_kostka_limit(1, 0, 1, 0, 5)
    assert all(c == 0 for c in window(bs))


def test_quadratic_and_linear_data():
    assert quadratic_form_matrix(1) == [[2]]
    assert quadratic_form_matrix(2) == [[2, 3], [3, 6]]
    # the printed and the derived linear terms disagree for k=1, j=0, l=0
    assert derived_linear_term(0, 0, 1) == [0]
    assert printed_linear_term(0, 0, 1) == [2]
    # they coincide exactly on the l = j+1 line
    for k in (1, 2):
        for j in range(k + 1):
            for l in range(k + 2):
                agree = derived_linear_term(j, l, k) == printed_linear_term(j, l, k)
                assert agree == (l == j + 1), (j, l, k)


def test_fermionic_term_limit_frozen():
    data = fermionic_term_limit((1,), 0, 0, 1)
    assert data.exponent == 2
    assert data.tops == (1,)
    assert data.pochhammer_index == 2


def test_fermionic_character_ising():
    fc = fermionic_character_sum(0, 0, 1, 6)
    assert window(fc.derived) == [1, 0, 1, 1, 2, 2, 3]
    # the printed constants give a genuinely different series
    assert not fc.printed_minus_derived.is_zero()
    assert fc.printed_coefficients[0] == 1


def test_fermionic_character_matches_rocha():
    for (j, l) in [(0, 0), (1, 1), (0, 2), (1, 3), (1, 0), (2, 1)]:
        k = 2
        fc = fermionic_character_sum(j, l, k, 8)
        mm = rocha_caridi(MinimalModel(k + 2, k + 3, j + 1, l + 1), 8)
        assert series_mismatches(fc.derived.series, mm.series) == [], (j, l)


def test_printed_coefficients_do_not_depend_on_the_order():
    # a printed term with n < 0 needs its 1/(q)_d tail through q^(order - n)
    low, high = 8, 12
    for k in range(1, 7):
        for j in range(k + 1):
            for l in range(k + 2):
                at_low = fermionic_character_sum(j, l, k, low).printed_coefficients
                at_high = fermionic_character_sum(j, l, k, high).printed_coefficients
                assert at_low == {e: c for e, c in at_high.items() if e <= low}, (j, l, k)
    assert fermionic_character_sum(0, 5, 4, low).printed_coefficients[8] == 200


def _requested_terms(monkeypatch, j, l, k, order):
    """The t whose limit term one fermionic_character_sum call requests, in order."""
    requested = []
    real = virasoro.fermionic_term_limit

    def spy(t, *args):
        requested.append(tuple(t))
        return real(t, *args)

    monkeypatch.setattr(virasoro, "fermionic_term_limit", spy)
    fermionic_character_sum(j, l, k, order)
    monkeypatch.undo()
    return requested


def test_fermionic_character_sum_requests_each_term_once(monkeypatch):
    # one enumeration serves both exponent conventions, so no t is asked twice
    order = 15
    for k in range(3):
        for j in range(k + 1):
            for l in range(k + 2):
                requested = _requested_terms(monkeypatch, j, l, k, order)
                assert requested and len(set(requested)) == len(requested), (j, l, k)


def test_fermionic_character_sum_requests_every_term_either_convention_needs(monkeypatch):
    # a box scan well past the caps finds exactly the t with either exponent <= order
    order = 12
    for k in (1, 2):
        B = quadratic_form_matrix(k)
        for j in range(k + 1):
            for l in range(k + 2):
                linear = (derived_linear_term(j, l, k), printed_linear_term(j, l, k))
                want = set()
                for t in product(range(3 * order), repeat=k):
                    quad = sum(B[a][b] * t[a] * t[b] for a in range(k) for b in range(k))
                    if min(quad + sum(map(mul, u, t)) for u in linear) <= order:
                        want.add(t)
                assert set(_requested_terms(monkeypatch, j, l, k, order)) == want, (j, l, k)


def test_fermionic_character_sum_derived_checks_raise(monkeypatch):
    real = virasoro.fermionic_term_limit

    def shifted_exponent(t, j, l, k):
        data = real(t, j, l, k)
        return virasoro.LimitTermData(data.t, data.exponent + 1, data.tops, data.pochhammer_index)

    monkeypatch.setattr(virasoro, "fermionic_term_limit", shifted_exponent)
    with pytest.raises(InvariantError, match="disagrees with its closed form"):
        fermionic_character_sum(0, 0, 1, 6)
    monkeypatch.undo()

    # a linear term that drives n below 0, with limit exponents that agree with it
    monkeypatch.setattr(virasoro, "derived_linear_term", lambda j, l, k: [-50] * k)

    def agreeing_exponent(t, j, l, k):
        data = real(t, j, l, k)
        B = quadratic_form_matrix(k)
        n = sum(B[a][b] * t[a] * t[b] for a in range(k) for b in range(k)) - 50 * sum(t)
        exponent = Fraction((l - j) ** 2 + j, 4) + n
        return virasoro.LimitTermData(data.t, exponent, data.tops, data.pochhammer_index)

    monkeypatch.setattr(virasoro, "fermionic_term_limit", agreeing_exponent)
    with pytest.raises(InvariantError, match="negative relative exponent"):
        fermionic_character_sum(0, 0, 1, 6)
    monkeypatch.undo()

    monkeypatch.setattr(virasoro.LimitTermData, "binomial_product", lambda self: -QPolynomial.one())
    with pytest.raises(InvariantError, match="must be nonnegative"):
        fermionic_character_sum(0, 0, 1, 6)


# sha256 of every fermionic character sum (derived series, printed-minus-
# derived residual, printed coefficients) for all labels with k <= 6 at
# orders 0, 3 and 8 and with k <= 3 at orders 15 and 25
GOLDEN_FERMIONIC_CHARACTERS_SHA256 = (
    "6e05f11148e0914e513e563a29b36c17fb1f9cb4de6f3b58084731f293794144"
)

# sha256 of every Rocha-Caridi character of the coprime models p < p' <= 9
# at orders 0, 1, 7, 30 and 60
GOLDEN_ROCHA_CARIDI_SHA256 = "ee44275758a941036a87bf4d2bb9f8456d231f8bbb59da8526f5dcdc14b1f1ea"


def test_golden_fermionic_characters():
    rows = []
    for order, top in ((0, 6), (3, 6), (8, 6), (15, 3), (25, 3)):
        for k in range(1, top + 1):
            for j in range(k + 1):
                for l in range(k + 2):
                    fc = fermionic_character_sum(j, l, k, order)
                    rows.append((
                        (j, l, k, order),
                        str(fc.derived.series),
                        fc.derived.route,
                        fc.printed_minus_derived.terms(),
                        sorted(fc.printed_coefficients.items()),
                    ))
    assert len(rows) == 574
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == GOLDEN_FERMIONIC_CHARACTERS_SHA256


def test_golden_rocha_caridi_characters():
    rows = []
    for pp in range(3, 10):
        for p in range(2, pp):
            if gcd(p, pp) != 1:
                continue
            for r in range(1, p):
                for s in range(1, pp):
                    for order in (0, 1, 7, 30, 60):
                        bs = rocha_caridi(MinimalModel(p, pp, r, s), order)
                        rows.append(((p, pp, r, s, order), str(bs.series), bs.route))
    assert len(rows) == 1970
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == GOLDEN_ROCHA_CARIDI_SHA256


def _reference_theta_coefficients(mm, order):
    """The theta coefficients by a loop that finds its own end: it stops at
    the first |n| >= 1 shell that puts no exponent in 0..order."""
    p, pp, r, s = mm.p, mm.p_prime, mm.r, mm.s
    coeffs = [0] * (order + 1)
    n = 0
    while True:
        hit = False
        for nn in ({0} if n == 0 else {n, -n}):
            for exponent, sign in ((p * pp * nn * nn + (pp * r - p * s) * nn, 1),
                                   (p * pp * nn * nn + (pp * r + p * s) * nn + r * s, -1)):
                if 0 <= exponent <= order:
                    coeffs[exponent] += sign
                    hit = True
        if not hit and n > 0:
            return coeffs
        n += 1


def test_theta_coefficients_bounded_before_the_loop_match_the_shell_loop():
    cases = 0
    for p, pp in product(range(2, 10), repeat=2):
        if gcd(p, pp) != 1:
            continue
        for r, s in product(range(1, p), range(1, pp)):
            mm = MinimalModel(p, pp, r, s)
            for order in range(41):
                want = _reference_theta_coefficients(mm, order)
                assert virasoro._theta_coefficients(mm, order) == want, (mm, order)
                cases += 1
    assert cases == 32308


def _coefficient_at(s, e):
    # the coefficient at an absolute exponent; None outside the known window
    rel = e - s.offset
    if rel < 0 or rel > s.order:
        return None
    return s.coeffs[int(rel)] if rel.denominator == 1 else 0


def _reference_series_mismatches(a, b):
    # series_mismatches before its grid became one comprehension, kept verbatim
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
        ca = _coefficient_at(a, e)
        cb = _coefficient_at(b, e)
        ca = 0 if ca is None and e < a.offset else ca
        cb = 0 if cb is None and e < b.offset else cb
        if ca is None or cb is None:
            continue
        if ca != cb:
            out.append((e, ca, cb))
    return out


def _random_series(rng: random.Random, offset: Fraction) -> QSeriesTruncated:
    return QSeriesTruncated([rng.randint(-1, 2) for _ in range(rng.randint(1, 12))], offset)


def test_series_mismatches_matches_the_reference():
    rng = random.Random(20)
    shapes = {"same grid": 0, "other grid": 0, "apart": 0, "unequal orders": 0, "agree": 0}
    for _ in range(3000):
        a = _random_series(rng, Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4))))
        roll = rng.random()
        if roll < 0.4:
            # an integer shift of a's offset, often a's own coefficients
            b = _random_series(rng, a.offset + rng.randint(-4, 4))
            if rng.random() < 0.5:
                keep = rng.randint(0, a.order)
                b = QSeriesTruncated(a.coeffs[keep:], a.offset + keep)
            shapes["same grid"] += 1
        elif roll < 0.8:
            b = _random_series(rng, Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4))))
            shapes["other grid"] += 1
        else:
            # a window that ends below a's offset, or starts above a's edge
            b = _random_series(rng, 0)
            gap = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
            if rng.random() < 0.5:
                b = QSeriesTruncated(b.coeffs, a.offset - b.order - gap)
            else:
                b = QSeriesTruncated(b.coeffs, a.hi_exponent() + gap)
            shapes["apart"] += 1
        shapes["unequal orders"] += a.order != b.order
        want = _reference_series_mismatches(a, b)
        shapes["agree"] += not want
        assert series_mismatches(a, b) == want, (a, b)
        assert series_mismatches(b, a) == _reference_series_mismatches(b, a), (b, a)
    assert min(shapes.values()) >= 200, shapes


def test_coset_gap_refuses_bad_labels(monkeypatch):
    # a parity outside {0, 1}, a label out of range or an odd i + j + l is
    # a caller's mistake, not a program fault
    for labels in [(0, 0, 1, 1), (1, 0, 1, 0), (2, 0, 1, 0), (-1, 0, 1, 1),
                   (0, 2, 1, 0), (0, -1, 1, 1), (0, 0, 1, 3)]:
        with pytest.raises(ValueError):
            coset_gap(*labels)
    assert coset_gap(0, 0, 1, 0) == 0
    # a non-integral gap on valid labels still is one
    monkeypatch.setattr(
        virasoro, "coset_prefactor_exponent", lambda i, j, k, l: Fraction(1, 2)
    )
    with pytest.raises(InvariantError, match="not a nonnegative integer"):
        coset_gap(0, 0, 1, 0)


def _reference_reversed_term_data(t, j, l, k, N):
    """_reversed_term_data on Fractions x = m/2 - s with the double sums
    written out, kept verbatim."""
    level = k + 1
    m = hook_composition(N, j).padded(level)
    weighted = sum(a * ma for a, ma in enumerate(m, start=1))
    if (weighted - l) % 2:
        raise InvariantError("inadmissible N parity")
    s = [(weighted - l) // 2 - sum(b * tb for b, tb in zip(range(2, level + 1), t)), *t]
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


def test_reversed_term_data_matches_the_fraction_reference(monkeypatch):
    from qkostka import verify

    # every (t, j, l, k, N) that `verify fermionic-virasoro --order 40` visits,
    # and every one the character sums with k = 3, 4 visit through order 12
    visited = []
    real = virasoro._reversed_term_data

    def recorded(*args):
        visited.append(args)
        return real(*args)

    monkeypatch.setattr(virasoro, "_reversed_term_data", recorded)
    assert verify.suite_fermionic_virasoro(verify.VerifyConfig(order=40)).passed
    assert len(visited) == 324
    for k in (3, 4):
        for j in range(k + 1):
            for l in range(k + 2):
                fermionic_character_sum(j, l, k, 12)
    monkeypatch.undo()
    assert len(visited) == 324 + 688
    # and a box with k <= 4 that takes in small and inadmissible N
    visited += [
        (t, j, l, k, N)
        for k in range(1, 5) for t in product(range(2), repeat=k)
        for j in range(k + 1) for l in range(k + 2) for N in range(9)
    ]
    refused = 0
    for args in visited:
        try:
            want = _reference_reversed_term_data(*args)
        except InvariantError:
            with pytest.raises(InvariantError, match="inadmissible N parity"):
                virasoro._reversed_term_data(*args)
            refused += 1
            continue
        got = virasoro._reversed_term_data(*args)
        assert got == want and type(got[0]) is Fraction, args
    assert refused > 1000
