import math
import random
import sys
import threading
from fractions import Fraction

import pytest

import qkostka
from qkostka import qexact
from qkostka.kostka import restricted_fermionic
from qkostka.qexact import (
    QPolynomial,
    exponent_numerator,
    gaussian_binomial,
    gaussian_product_sum,
    shifted_sum,
    signed_binomial_sum,
    vector_gaussian_binomial,
)
from qkostka.virasoro import (
    QSeriesTruncated,
    bounded_partition_series,
    divide_by_pochhammer,
)


def test_exponent_numerator_grid():
    assert exponent_numerator(2) == 8
    assert exponent_numerator(Fraction(1, 4)) == 1
    assert exponent_numerator(Fraction(-3, 2)) == -6
    with pytest.raises(ValueError):
        exponent_numerator(Fraction(1, 3))


def test_polynomial_constructors():
    assert QPolynomial.zero().is_zero()
    assert QPolynomial.one().evaluate_at_one() == 1
    assert QPolynomial.q_power(0) == QPolynomial.one()
    assert QPolynomial.q_power(2, 0).is_zero()
    p = QPolynomial.from_integer_terms({0: 1, 3: 2})
    assert p.coefficient(3) == 2
    assert p.coefficient(1) == 0


def test_polynomial_arithmetic():
    q = QPolynomial.q_power(1)
    one = QPolynomial.one()
    assert (one + q) * (one + q) == QPolynomial.from_integer_terms({0: 1, 1: 2, 2: 1})
    assert (one + q) - (one + q) == QPolynomial.zero()
    p = QPolynomial.q_power(Fraction(5, 4)) + QPolynomial.q_power(2, 3)
    assert p.terms() == [(5, 1), (8, 3)]
    assert p.min_exponent() == Fraction(5, 4)
    assert p.max_exponent() == 2
    assert p.evaluate_at_one() == 4


def test_shift_and_inverse():
    p = QPolynomial.one() + QPolynomial.q_power(2)
    assert p.shifted(3) == QPolynomial.q_power(3) + QPolynomial.q_power(5)
    assert p.substitute_inverse() == QPolynomial.one() + QPolynomial.q_power(-2)
    assert p.substitute_inverse().substitute_inverse() == p
    # negative integer exponents are legal
    lau = QPolynomial.q_power(-1) + QPolynomial.one()
    assert lau.min_exponent() == -1


def test_json_round_trip():
    p = QPolynomial.q_power(Fraction(5, 4)) + QPolynomial.q_power(2, 3)
    obj = p.to_json_dict()
    assert obj == {"den": 4, "terms": [[5, "1"], [8, "3"]]}
    assert QPolynomial.from_json_dict(obj) == p
    assert QPolynomial.from_json_dict(QPolynomial.zero().to_json_dict()).is_zero()


def test_str_rendering():
    assert str(QPolynomial.zero()) == "0"
    assert str(QPolynomial.one()) == "1"
    assert str(QPolynomial.q_power(1)) == "q"
    assert str(QPolynomial.q_power(1, -1)) == "-q"
    assert str(QPolynomial.q_power(3, 2)) == "2*q^3"
    assert str(QPolynomial.q_power(Fraction(5, 4))) == "q^(5/4)"


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2) == QPolynomial.from_integer_terms(
        {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    )
    assert gaussian_binomial(3, 0) == QPolynomial.one()
    assert gaussian_binomial(3, 3) == QPolynomial.one()
    assert gaussian_binomial(3, 4).is_zero()
    assert gaussian_binomial(3, -1).is_zero()


def test_gaussian_binomial_properties():
    for m in range(8):
        for n in range(m + 1):
            b = gaussian_binomial(m, n)
            assert b == gaussian_binomial(m, m - n)
            # Pascal on the q-grid
            if m:
                assert b == gaussian_binomial(m - 1, n - 1) + gaussian_binomial(
                    m - 1, n
                ).shifted(n)
            assert b.evaluate_at_one() == math.comb(m, n)


def test_vector_gaussian_binomial():
    assert vector_gaussian_binomial((3, 2), (1, 1)) == gaussian_binomial(
        3, 1
    ) * gaussian_binomial(2, 1)
    assert vector_gaussian_binomial((), ()) == QPolynomial.one()
    assert vector_gaussian_binomial((3,), (5,)).is_zero()


def test_partition_series():
    ps = bounded_partition_series(10, 10)
    assert [ps.coefficient(n) for n in range(11)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    ]
    assert ps.offset == 0


def test_bounded_partition_series():
    # parts of size at most 1 / at most 2
    ones = bounded_partition_series(1, 6)
    assert [ones.coefficient(n) for n in range(7)] == [1] * 7
    twos = bounded_partition_series(2, 8)
    assert [twos.coefficient(n) for n in range(9)] == [1, 1, 2, 2, 3, 3, 4, 4, 5]
    # unbounded once the bound exceeds the order
    free = bounded_partition_series(10, 10)
    full = bounded_partition_series(25, 10)
    assert [free.coefficient(n) for n in range(11)] == [
        full.coefficient(n) for n in range(11)
    ]
    negative = bounded_partition_series(-1, 4)
    assert all(negative.coefficient(n) == 0 for n in range(5))


def test_series_window_access():
    s = QSeriesTruncated((1, 2, 3), offset=Fraction(1, 2))
    assert s.order == 2
    assert s.hi_exponent() == Fraction(5, 2)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 2
    # beyond the window nothing is known
    with pytest.raises(IndexError):
        s.coefficient(3)


def test_exact_types_refuse_inexact_coefficients():
    for bad in (1.5, 2.0, 0.0, Fraction(1, 2), "3"):
        with pytest.raises(ValueError):
            QSeriesTruncated([1, bad])
        with pytest.raises(ValueError):
            QPolynomial({0: 1, 4: bad})
    assert QSeriesTruncated([True, 2]).coeffs == (1, 2)
    assert QPolynomial({0: 3, 4: 0}).terms() == [(0, 3)]


def test_exact_types_refuse_exponents_that_are_not_ints_or_fractions():
    for bad in (0.5, 0.3, 1.5, 2.0, "1/2", "3/2", "1", None):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            exponent_numerator(bad)
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            QPolynomial.q_power(bad)
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            shifted_sum([(1, bad, QPolynomial.one())])
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            QSeriesTruncated([1, 2], offset=bad)
    assert exponent_numerator(True) == 4
    assert QSeriesTruncated([1, 2], offset=Fraction(1, 10)).offset == Fraction(1, 10)
    assert repr(QSeriesTruncated([1, 2], offset=-3)) == "QSeriesTruncated(offset=-3, coeffs=[1, 2])"


def test_the_q_types_refuse_assignment_so_the_shared_zero_stays_zero():
    # every lookup miss returns the one qexact._ZERO; a product is built by
    # _wrap, a series by the Value base
    values = [
        (qexact._ZERO, "_terms"),
        (QPolynomial.q_power(1) * QPolynomial.q_power(2), "_terms"),
        (QSeriesTruncated([1, 2], offset=-3), "offset"),
        (QSeriesTruncated([1, 2], offset=-3), "coeffs"),
    ]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, {4: 1})
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert qexact._ZERO.is_zero() and qexact._ZERO == QPolynomial.zero()
    assert gaussian_binomial(-1, 0) is qexact._ZERO
    assert str(QPolynomial.q_power(1) * QPolynomial.q_power(2)) == "q^3"
    assert QSeriesTruncated([1, 2], offset=-3).offset == -3


# -- oracle tests for the arithmetic kernel --------------------------------
#
# The three references below are the dict-convolution multiply, the Pascal
# recursion for Gaussian binomials and the `+`/`.shifted` accumulation loop,
# kept verbatim. The library's multiply is that same convolution, so its
# oracle guards any later rewrite of it; the packed row walk and
# `gaussian_product_sum` share none of the references' code. Every route
# multiplies and sums through this kernel, so a kernel bug could make all
# routes agree on a wrong answer.


def reference_mul(self, other):
    if len(self._terms) > len(other._terms):
        long, short = self._terms, other._terms
    else:
        long, short = other._terms, self._terms
    data: dict[int, int] = {}
    for num2, c2 in short.items():
        for num1, c1 in long.items():
            key = num1 + num2
            new = data.get(key, 0) + c1 * c2
            if new:
                data[key] = new
            else:
                del data[key]
    return QPolynomial(data)


_reference_gaussian_cache: dict[tuple[int, int], QPolynomial] = {}


def reference_gaussian_binomial(m: int, n: int) -> QPolynomial:
    if n < 0 or m < 0 or n > m:
        return QPolynomial.zero()
    n = min(n, m - n)
    if n == 0:
        return QPolynomial.one()
    key = (m, n)
    hit = _reference_gaussian_cache.get(key)
    if hit is not None:
        return hit
    # Pascal-style recurrence; builds on smaller m values already cached.
    value = reference_gaussian_binomial(m - 1, n - 1) + reference_gaussian_binomial(
        m - 1, n
    ).shifted(n)
    _reference_gaussian_cache[key] = value
    return value


def reference_shifted_sum(items) -> QPolynomial:
    # term by term on quarter-grid numerators, with no qexact arithmetic:
    # +, - and shifted are themselves shifted_sum calls
    total: dict[int, int] = {}
    for sign, exponent, poly in items:
        delta = 4 * Fraction(exponent)
        assert delta.denominator == 1
        for num, coeff in poly._terms.items():
            num += int(delta)
            total[num] = total.get(num, 0) + sign * coeff
    return QPolynomial(total)


def _random_operand(rng: random.Random, stride: int) -> QPolynomial:
    """Signed, strided, possibly negative-exponent and possibly sparse."""
    shape = rng.random()
    if shape < 0.05:
        return QPolynomial.zero()
    size = 1 if shape < 0.15 else rng.randint(2, 40)
    bits = rng.choice((1, 2, 8, 31, 32, 33, 63, 64, 65, 100, 130))
    low = rng.randint(-60, 60)
    spread = rng.choice((size, 2 * size, 40 * size)) if shape < 0.9 else 10**5
    terms = {}
    for _ in range(size):
        e = low + stride * rng.randint(0, spread)
        terms[e] = rng.choice((-1, 1)) * rng.randint(1, 2**bits)
    if rng.random() < 0.2:
        # every coefficient at the extreme: the product meets the digit bound
        top = 2**bits - 1
        terms = {e: rng.choice((-top, top)) for e in terms}
    return QPolynomial(terms)


def _cancelling_pair(rng: random.Random, stride: int) -> tuple[QPolynomial, QPolynomial]:
    """(sum_{i<n} c q^(d i)) * (1 - q^d) = c (1 - q^(d n)): inner terms cancel."""
    n, d, c = rng.randint(2, 30), stride * rng.randint(1, 3), rng.randint(1, 2**70)
    low = rng.randint(-40, 40)
    geometric = QPolynomial({low + d * i: c for i in range(n)})
    return geometric, QPolynomial({0: 1, d: -1})


def test_multiply_matches_the_reference_convolution():
    rng = random.Random(20091)
    for trial in range(2400):
        stride = rng.choice((1, 2, 3, 4, 8))
        if trial % 8 == 0:
            a, b = _cancelling_pair(rng, stride)
        else:
            a, b = _random_operand(rng, stride), _random_operand(rng, stride)
        want = reference_mul(a, b)
        got = a * b
        assert got._terms == want._terms, (trial, a, b)
        assert 0 not in got._terms.values()
        assert (b * a)._terms == want._terms


def test_multiply_edge_cases():
    q = QPolynomial.q_power
    one, zero = QPolynomial.one(), QPolynomial.zero()
    p = q(Fraction(-5, 4), -3) + q(Fraction(3, 4), 2**130)
    assert (p * zero).is_zero() and (zero * p).is_zero()
    assert p * one == p
    assert (p * q(2, -1))._terms == reference_mul(p, q(2, -1))._terms
    assert ((one + q(1)) * (one - q(1))) == one - q(2)
    sparse = one + q(10**9)
    assert sparse * sparse == one + q(10**9, 2) + q(2 * 10**9)
    dense = one + q(1) + q(2)
    assert (sparse * dense)._terms == reference_mul(sparse, dense)._terms
    assert (dense * sparse)._terms == reference_mul(sparse, dense)._terms


def _random_shifted_items(rng: random.Random) -> list:
    """(sign, e, p) items over a small pool of polynomials, so some repeat.

    Exponents are negative or positive integers or quarter-grid fractions;
    the operands themselves may sit on the quarter grid.
    """
    pool = [_random_operand(rng, rng.choice((1, 4))) for _ in range(rng.randint(1, 4))]
    items = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.5:
            exponent = rng.randint(-30, 30)
        else:
            exponent = Fraction(rng.randint(-120, 120), 4)
        items.append((rng.choice((1, -1)), exponent, rng.choice(pool)))
    return items


def test_shifted_sum_matches_the_reference_loop():
    q = QPolynomial.q_power
    p = q(0, 3) + q(Fraction(-5, 4), -2**70)
    cases = [
        [],
        [(1, 0, QPolynomial.zero())],
        [(-1, Fraction(3, 4), p)],
        [(1, -7, p), (1, -7, p), (-1, 2, p)],
        # the same polynomial in, then out again one step apart: exactly zero
        [(1, 0, p), (-1, 1, p.shifted(-1))],
        [(1, Fraction(1, 4), p), (-1, Fraction(-3, 4), p.shifted(1)), (1, 0, p), (-1, 0, p)],
    ]
    rng = random.Random(13013)
    for trial in range(1200):
        items = _random_shifted_items(rng)
        if trial % 4 == 0:
            # every item again with the other sign, the shift moved between
            # exponent and operand: the sum cancels to exactly zero
            items += [(-sign, e - 1, poly.shifted(1)) for sign, e, poly in items]
            rng.shuffle(items)
        cases.append(items)
    zeros = 0
    for items in cases:
        got = shifted_sum(iter(items))
        want = reference_shifted_sum(items)
        assert got._terms == want._terms, items
        assert 0 not in got._terms.values()
        zeros += got.is_zero()
    assert shifted_sum([]) == QPolynomial.zero()
    assert zeros >= 300
    # +, - and shifted on seeded random operands: integer and quarter shifts,
    # and sums that cancel to exactly zero
    for _ in range(600):
        a, b = (_random_operand(rng, rng.choice((1, 4))) for _ in range(2))
        e = rng.choice((rng.randint(-30, 30), Fraction(rng.randint(-120, 120), 4)))
        assert (a + b)._terms == reference_shifted_sum([(1, 0, a), (1, 0, b)])._terms
        assert (a - b)._terms == reference_shifted_sum([(1, 0, a), (-1, 0, b)])._terms
        assert a.shifted(e)._terms == reference_shifted_sum([(1, e, a)])._terms
        assert (a - a)._terms == (a + -a)._terms == (a.shifted(e).shifted(-e) - a)._terms == {}
    with pytest.raises(ValueError):
        shifted_sum([(2, 0, p)])


def test_gaussian_binomial_matches_the_pascal_recursion():
    for m in range(0, 61):
        for n in range(-1, m + 2):
            assert gaussian_binomial(m, n) == reference_gaussian_binomial(m, n), (m, n)


def test_gaussian_binomial_cold_large_arguments():
    # the Pascal recursion raised RecursionError on a cold (1100, 3)
    qkostka.clear_caches()
    for m, n in ((1100, 3), (500, 3), (72, 36)):
        b = gaussian_binomial(m, n)
        assert b.evaluate_at_one() == math.comb(m, n)
        assert b.max_exponent() == n * (m - n)
        assert b == gaussian_binomial(m, m - n)
        assert b.substitute_inverse().shifted(n * (m - n)) == b
    assert gaussian_binomial(500, 3) == reference_gaussian_binomial(500, 3)
    # C(72, 36) > 2**64: digits wider than any native integer
    assert gaussian_binomial(72, 36) == reference_gaussian_binomial(72, 36)


def test_vector_gaussian_binomial_skips_unit_factors():
    # every 2-vector with entries from -1 to 6, unit and out-of-range factors included
    pairs = [(m, n) for m in range(-1, 7) for n in range(-1, 8)]
    for m1, n1 in pairs:
        for m2, n2 in pairs:
            want = reference_mul(
                reference_gaussian_binomial(m1, n1), reference_gaussian_binomial(m2, n2)
            )
            assert vector_gaussian_binomial((m1, m2), (n1, n2)) == want


def reference_gaussian_product_sum(terms) -> QPolynomial:
    items = []
    for sign, exponent, pairs in terms:
        product = QPolynomial.one()
        for t, n in pairs:
            product = reference_mul(product, reference_gaussian_binomial(t, n))
        items.append((sign, exponent, product))
    return reference_shifted_sum(items)


def _random_product_terms(rng: random.Random) -> list:
    terms = []
    top, factors = rng.choice(((8, 2), (16, 3), (20, 6)))
    for _ in range(rng.randint(0, 8)):
        pairs = []
        for _ in range(rng.randint(0, factors)):
            t = rng.randint(2, top)
            n = rng.randint(1, t - 1)
            pairs.append((t, n))
            if rng.random() < 0.3:
                # the same factor again, as itself or as its mirror
                pairs.append(rng.choice(((t, n), (t, t - n))))
        terms.append((1, rng.choice((0, rng.randint(0, 40))), tuple(pairs)))
    return terms


def test_gaussian_product_sum_matches_the_reference_loops():
    cases = [
        [],
        [(1, 0, ())],
        [(1, 7, ())],
        [(1, 0, ((9, 4),))],
        [(1, 5, ((9, 4), (9, 5), (9, 4))), (1, 0, ((9, 5),)), (1, 5, ((9, 4), (9, 4), (9, 5)))],
        # q = 1 values above 2**64: digits wider than any native integer
        [(1, 0, ((68, 34),))],
        [(1, 3, ((40, 20), (36, 18))), (1, 0, ((36, 18), (40, 20))), (1, 3, ((40, 20),))],
        [(1, 0, ((30, 15), (30, 15), (30, 15))), (1, 2, ((30, 14), (30, 16)))],
    ]
    rng = random.Random(6006)
    cases += [_random_product_terms(rng) for _ in range(200)]
    wide = 0
    for terms in cases:
        got = gaussian_product_sum(iter(terms))
        want = reference_gaussian_product_sum(terms)
        assert got._terms == want._terms, terms
        wide += got.evaluate_at_one() >= 2**64
    assert wide >= 10


def _random_signed_terms(rng: random.Random) -> list:
    """Terms of both signs, exponents from -40 to 40; some cancel exactly."""
    terms = [
        (rng.choice((1, -1)), rng.randint(-40, 40), pairs)
        for _, _, pairs in _random_product_terms(rng)
    ]
    if terms and rng.random() < 0.3:
        # every term again with the other sign, its factors reordered or
        # mirrored: the sum is exactly zero
        terms += [
            (-sign, e, tuple(rng.choice(((t, n), (t, t - n))) for t, n in reversed(pairs)))
            for sign, e, pairs in terms
        ]
        rng.shuffle(terms)
    return terms


def test_signed_gaussian_product_sum_matches_the_reference_loops():
    cases = [
        [(-1, 0, ())],
        [(1, -3, ()), (-1, -3, ())],
        [(1, 0, ((6, 3),)), (-1, 0, ((6, 3),))],
        [(1, 2, ((6, 3),)), (-1, 0, ((6, 3),))],
        [(-1, -5, ((9, 4),)), (1, 5, ((9, 4),))],
        # theta-sum shape: one row, many bottoms, exponents far apart
        [(1 - 2 * (x % 2), (x - 10) ** 2 - 40, ((40, x),)) for x in range(1, 40)],
        # q = 1 values above 2**64 on both sides
        [(1, -7, ((68, 34),)), (-1, 0, ((68, 33),)), (-1, 3, ((40, 20), (36, 18)))],
    ]
    rng = random.Random(8008)
    cases += [_random_signed_terms(rng) for _ in range(300)]
    zero = negative = 0
    for terms in cases:
        got = gaussian_product_sum(iter(terms))
        want = reference_gaussian_product_sum(terms)
        assert got._terms == want._terms, terms
        assert 0 not in got._terms.values()
        zero += bool(terms) and got.is_zero()
        negative += any(c < 0 for c in got._terms.values())
    assert zero >= 50
    assert negative >= 100


def test_the_row_walk_matches_the_pascal_recursion():
    for m in range(2, 41):
        for n in range(1, m):
            got = gaussian_product_sum([(1, 0, ((m, n),))])
            assert got._terms == reference_gaussian_binomial(m, n)._terms, (m, n)
        # the whole row in one walk, at its own width and at a wider,
        # non-native one
        wanted = set(range(1, m // 2 + 1))
        for width in (qexact._digit_bytes(math.comb(m, m // 2).bit_length()), 9):
            rows = qexact._gaussian_rows({m: wanted}, 8 * width)
            assert rows.keys() == {(m, n) for n in wanted}
            for (t, n), packed in rows.items():
                size = n * (t - n) + 1
                assert packed >> (8 * width * size) == 0, (t, n)
                digits = qexact._digits(packed, width, size)
                want = reference_gaussian_binomial(t, n)._terms
                assert {4 * k: c for k, c in enumerate(digits) if c} == want, (t, n)


def test_signed_binomial_sum_keeps_the_gaussian_binomial_convention():
    rng = random.Random(404)
    for _ in range(200):
        items = [
            (rng.choice((1, -1)), rng.randint(-20, 20), t, rng.randint(-2, t + 2))
            for t in (rng.randint(0, 12) for _ in range(rng.randint(0, 10)))
        ]
        want = reference_shifted_sum(
            [(sign, e, reference_gaussian_binomial(t, n)) for sign, e, t, n in items]
        )
        assert signed_binomial_sum(iter(items))._terms == want._terms, items


def test_gaussian_product_sum_rejects_improper_factors():
    for t, n in ((5, 0), (5, 5), (5, 6), (5, -1), (0, 0)):
        with pytest.raises(ValueError):
            gaussian_product_sum([(1, 0, ((7, 3), (t, n)))])
    for sign in (0, 2, -2):
        with pytest.raises(ValueError):
            gaussian_product_sum([(sign, 0, ((7, 3),))])


# -- oracle tests for the row store ------------------------------------------
#
# `_gaussian_rows` keeps the rows it walks, per (t, bits), for later calls.
# Every Gaussian factor of every route is read from that store, so a stored
# row that is wrong at some width, a prefix extended from the wrong place or
# an eviction that leaves a stale row would make all routes agree on a wrong
# answer. Each read below is held to the Pascal recursion.

STORE_WIDTHS = (8, 16, 32, 64, 72)


def _stored_read(t: int, n: int, bits: int) -> dict[int, int]:
    """[t choose n] read through the row store at width `bits`, as term dict."""
    packed = qexact._gaussian_rows({t: {n}}, bits)[t, n]
    size = n * (t - n) + 1
    assert packed >> (bits * size) == 0, (t, n, bits)
    digits = qexact._digits(packed, bits // 8, size)
    return {4 * k: c for k, c in enumerate(digits) if c}


def _reads_that_fit(bits: int) -> list[tuple[int, int]]:
    """Every (t, n), t <= 60 and 0 < n <= t / 2, whose C(t, n) fits a digit."""
    return [
        (t, n)
        for t in range(2, 61)
        for n in range(1, t // 2 + 1)
        if math.comb(t, n) < 1 << bits
    ]


def _stored_bits() -> int:
    """The bits the store's ints take, counted afresh from its rows."""
    total = 0
    for row, held in qexact._row_store.values():
        assert held == sum(8 * sys.getsizeof(g) for g in row)
        total += held
    assert total == qexact._row_store_bits[0]
    return total


def test_row_store_cold_and_warm_reads_match_the_pascal_recursion():
    for bits in STORE_WIDTHS:
        for t, n in _reads_that_fit(bits):
            want = reference_gaussian_binomial(t, n)._terms
            qkostka.clear_caches()
            assert qexact._row_store == {} and qexact._row_store_bits[0] == 0
            assert _stored_read(t, n, bits) == want, (t, n, bits, "cold")
            row, _ = qexact._row_store[t, bits]
            assert len(row) == n
            assert _stored_read(t, n, bits) == want, (t, n, bits, "warm")
            assert qexact._row_store[t, bits][0] is row
    # the public path, every n on both sides of t / 2, cold and then warm
    for t in range(2, 61):
        for n in range(1, t):
            want = reference_gaussian_binomial(t, n)._terms
            qkostka.clear_caches()
            assert gaussian_product_sum([(1, 0, ((t, n),))])._terms == want, (t, n)
            assert gaussian_product_sum([(1, 0, ((t, n),))])._terms == want, (t, n)


def test_row_store_extends_a_stored_prefix():
    for bits in STORE_WIDTHS:
        for t in range(10, 61):
            if math.comb(t, 5) >= 1 << bits:
                continue
            qexact._clear_row_store()
            assert _stored_read(t, 2, bits) == reference_gaussian_binomial(t, 2)._terms
            assert len(qexact._row_store[t, bits][0]) == 2
            assert _stored_read(t, 5, bits) == reference_gaussian_binomial(t, 5)._terms
            row, _ = qexact._row_store[t, bits]
            assert len(row) == 5
            # the extended row is the one a cold walk to [t, 5] stores
            qexact._clear_row_store()
            qexact._gaussian_rows({t: {5}}, bits)
            assert qexact._row_store[t, bits][0] == row, (t, bits)
            assert _stored_read(t, 2, bits) == reference_gaussian_binomial(t, 2)._terms
    _stored_bits()


def test_row_store_reads_after_the_budget_is_passed(monkeypatch):
    qexact._clear_row_store()
    first = (2, STORE_WIDTHS[0])
    dropped = False
    for bits in STORE_WIDTHS:
        for t, n in _reads_that_fit(bits):
            assert _stored_read(t, n, bits) == reference_gaussian_binomial(t, n)._terms
            assert _stored_bits() <= qexact._ROW_STORE_BITS
            dropped = dropped or first not in qexact._row_store
    assert dropped, "the sweep never passed the budget"
    # a second pass reads rows the first left stored and walks the dropped ones
    for bits in reversed(STORE_WIDTHS):
        for t, n in _reads_that_fit(bits):
            assert _stored_read(t, n, bits) == reference_gaussian_binomial(t, n)._terms, (t, n)
    # a budget below one row's size keeps the longest prefix that fits
    monkeypatch.setattr(qexact, "_ROW_STORE_BITS", 1 << 15)
    qexact._clear_row_store()
    for t in range(40, 61):
        for n in (1, t // 4, t // 2):
            assert _stored_read(t, n, 72) == reference_gaussian_binomial(t, n)._terms, (t, n)
            assert _stored_bits() <= 1 << 15
    assert 0 < len(qexact._row_store[60, 72][0]) < 30
    qexact._clear_row_store()


def test_row_store_drops_the_least_recently_used_row_first(monkeypatch):
    qexact._clear_row_store()
    for t in (20, 21, 22):
        qexact._gaussian_rows({t: {3}}, 32)
    sizes = {t: qexact._row_store[t, 32][1] for t in (20, 21, 22)}
    # room for exactly these three rows; reading row 20 again makes 21 the oldest
    monkeypatch.setattr(qexact, "_ROW_STORE_BITS", sum(sizes.values()))
    qexact._gaussian_rows({20: {2}}, 32)
    qexact._gaussian_rows({23: {1}}, 32)
    assert [t for t, _ in qexact._row_store] == [22, 20, 23]
    assert _stored_bits() <= sum(sizes.values())
    qexact._clear_row_store()


def test_row_store_stays_within_its_budget_over_long_sweeps():
    qkostka.clear_caches()
    budget = qexact._ROW_STORE_BITS
    peak = 0
    # central rows up to t = 300; the largest take more than the budget
    # alone, so the store keeps only a prefix of them
    for t in (*range(2, 101), 200, 300):
        b = gaussian_binomial(t, t // 2)
        if t % 50 == 0:
            assert b.evaluate_at_one() == math.comb(t, t // 2)
        peak = max(peak, _stored_bits())
        assert peak <= budget, t
    [(row, _)] = [entry for (t, _), entry in qexact._row_store.items() if t == 300]
    assert 0 < len(row) < 150
    # a fermionic grid the size of one poly-queries stream: 57 calls at
    # levels 3 to 7, weighted sizes 22 to 44, mostly spin-1/2 factors with up
    # to three spin-1 and one spin-3/2 factor (m counts the factors per spin)
    for i in range(57):
        k = 3 + i % 5
        size = (36 - 4 * (k - 3) if k < 7 else 22) + i // 5 % 5 * 2 + i % 2
        m2, m3 = i % 4, i % 2
        m = (size - 2 * m2 - 3 * m3, m2, m3)
        l = size % 2 + 2 * (i % ((k - size % 2) // 2 + 1))
        got = restricted_fermionic(l, m, k).evaluate_at_one()
        assert got == qkostka.structure_constants(m, k)[l], (l, m, k)
        peak = max(peak, _stored_bits())
        assert peak <= budget, (l, m, k)
    assert peak > budget // 2, "the sweep never came near the budget"
    qkostka.clear_caches()
    assert qexact._row_store_bits[0] == _stored_bits() == 0


def test_row_store_keeps_its_total_under_concurrent_calls(monkeypatch):
    # a budget a few rows wide keeps every thread inserting and dropping;
    # a lost update of the total would leave it unequal to the rows held
    monkeypatch.setattr(qexact, "_ROW_STORE_BITS", 1 << 16)
    qexact._clear_row_store()
    want = {(t, n): reference_gaussian_binomial(t, n)._terms for t in range(2, 41) for n in range(1, t)}
    pairs = list(want)
    wrong = []

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(200):
                t, n = rng.choice(pairs)
                if gaussian_product_sum([(1, 0, ((t, n),))])._terms != want[t, n]:
                    wrong.append((t, n))
        except Exception as exc:  # a fault in a worker fails the test, not only warns
            wrong.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert _stored_bits() <= 1 << 16
    qexact._clear_row_store()


# -- oracle tests for the division by (q)_d ---------------------------------
#
# Every 1/(q)_d the characters carry (the partition series, the theta
# quotient, each quasi-particle term) goes through divide_by_pochhammer, so
# it is checked against multiplication by the product it inverts and
# against a direct count of partitions.


def _times_pochhammer(coeffs: list[int], d: int) -> list[int]:
    """coeffs * (1 - q)(1 - q^2)...(1 - q^d), truncated to len(coeffs)."""
    out = list(coeffs)
    for part in range(1, d + 1):
        out = [c - (out[n - part] if n >= part else 0) for n, c in enumerate(out)]
    return out


def _count_partitions(n: int, max_part: int) -> int:
    """Partitions of n into parts at most max_part, one largest part at a time."""
    if n == 0:
        return 1
    return sum(_count_partitions(n - first, first) for first in range(1, min(n, max_part) + 1))


def test_divide_by_pochhammer_inverts_the_product():
    rng = random.Random(2005)
    for _ in range(400):
        size = rng.randint(1, 30)
        coeffs = [rng.randint(-10**rng.randint(1, 20), 10**rng.randint(1, 20)) for _ in range(size)]
        for d in (0, 1, rng.randint(2, size + 1), size, size + rng.randint(0, 5)):
            quotient = list(coeffs)
            assert divide_by_pochhammer(quotient, d) is None
            assert len(quotient) == size
            assert _times_pochhammer(quotient, d) == coeffs, (coeffs, d)
            if d == 0:
                assert quotient == coeffs


def test_divide_by_pochhammer_counts_bounded_partitions():
    for size in range(1, 16):
        for d in range(size + 3):
            counts = [1] + [0] * (size - 1)
            divide_by_pochhammer(counts, d)
            assert counts == [_count_partitions(n, d) for n in range(size)], (size, d)
    with pytest.raises(ValueError):
        divide_by_pochhammer([1, 0], -1)
