"""Exact arithmetic for sparse Laurent polynomials in q.

Exponents live on a fixed quarter-integer grid: each exponent is stored as an
integer numerator over the implicit denominator 4. That grid is the smallest
one carrying every quarter power the character formulas produce; rational
offsets with other denominators (conformal weights) are kept separately on
`virasoro`'s truncated series, never folded into the grid. Coefficients are
Python ints throughout, so nothing is floated and nothing overflows.

Storage is a dict from numerator to nonzero coefficient, and a product is
the term-by-term convolution of two such dicts. Gaussian binomials walk a
row of the q-Pascal triangle on one packed integer, a big integer whose
base-2**bits digits are the coefficients: times 1 - q**a is a shift and a
subtraction, and the exact division by 1 - q**x multiplies by
(1 + q**x)(1 + q**(2x))(1 + q**(4x))... and masks off the tail.

Signed sums of q-shifted products of Gaussian binomials, the shape of the
fermionic formula and of the theta sums, never leave the packed form:
`gaussian_product_sum` evaluates each sign's terms at q = 2**bits in one big
integer, reads both off once and subtracts them digit by digit. Every term
has nonnegative coefficients, so no coefficient of a sign's partial sum, nor
of any partial product, exceeds that partial sum's value at q = 1, which is
at most the total of all terms' values at q = 1: digits that hold the total
never carry. The width comes from the terms, as the sum over terms of the
product of the ordinary binomials C(t, n), not from the fusion multiplicity
the sum should equal: that would assume the identity the routes check.

Walked rows outlive the call. The row store keeps, per (t, bits), the prefix
[t, 1] ... [t, x] of row t packed at q = 2**bits, so a later call at the same
width reads it or walks on from its last x. A stored [t, x] is the exact
value at 2**bits, because the call that walked it chose a width that holds
its coefficients; the integers any later call reads are the ones it would
have walked. The store holds at most _ROW_STORE_BITS (2**22) bits of int
objects, dropping the least recently used rows first; `qkostka.clear_caches`
empties it.

Every signed sum of q-shifted polynomials already built, `+`, `-` and
`shifted` among them, is one `shifted_sum` pass into a single dict. Sums
packed at q = 2**bits are read back once by `_packed_difference`, the read
that ends `gaussian_product_sum`.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

from .compositions import Value

if TYPE_CHECKING:
    from fractions import Fraction

EXPONENT_DENOMINATOR = 4

ExponentLike = Union[int, "Fraction"]


def exponent_numerator(exponent: ExponentLike) -> int:
    """Coerce an int or Fraction exponent to its quarter-grid numerator."""
    if isinstance(exponent, int):
        return EXPONENT_DENOMINATOR * exponent
    # a Fraction exists only once `fractions` is loaded, so integer work never
    # loads it (nor the `decimal` it imports), and a lookup is cheaper than
    # an import statement on every call
    fractions = sys.modules.get("fractions")
    if fractions is None or not isinstance(exponent, fractions.Fraction):
        raise ValueError(f"exponent {exponent!r} is not an int or a Fraction")
    num = exponent.numerator * EXPONENT_DENOMINATOR
    if num % exponent.denominator:
        raise ValueError(f"exponent {exponent} does not lie on the 1/4 grid")
    return num // exponent.denominator


class QPolynomial(Value):
    """Sparse exact Laurent polynomial in q on the quarter-integer grid.

    An immutable `Value`; zero coefficients are never stored. Internally the
    terms map quarter-grid numerators to integer coefficients, so q**(5/4) is
    held as numerator 5 and q**2 as numerator 8.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        data = {}
        if terms:
            for num, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff:
                    data[num] = coeff
        _set_terms(self, data)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def q_power(cls, exponent: ExponentLike, coeff: int = 1) -> "QPolynomial":
        return cls({exponent_numerator(exponent): coeff})

    @classmethod
    def from_integer_terms(cls, terms: Mapping[int, int]) -> "QPolynomial":
        """Build from {integer exponent: coefficient}."""
        return cls({EXPONENT_DENOMINATOR * e: c for e, c in terms.items()})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> list[tuple[int, int]]:
        """Sorted (numerator, coefficient) pairs."""
        return sorted(self._terms.items())

    def coefficient(self, exponent: ExponentLike) -> int:
        return self._terms.get(exponent_numerator(exponent), 0)

    def min_exponent(self) -> Fraction:
        if not self._terms:
            raise ValueError("zero polynomial has no minimum exponent")
        from fractions import Fraction

        return Fraction(min(self._terms), EXPONENT_DENOMINATOR)

    def max_exponent(self) -> Fraction:
        if not self._terms:
            raise ValueError("zero polynomial has no maximum exponent")
        from fractions import Fraction

        return Fraction(max(self._terms), EXPONENT_DENOMINATOR)

    def evaluate_at_one(self) -> int:
        return sum(self._terms.values())

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return shifted_sum(((1, 0, self), (1, 0, other)))

    def __neg__(self) -> "QPolynomial":
        return _wrap({num: -coeff for num, coeff in self._terms.items()})

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return shifted_sum(((1, 0, self), (-1, 0, other)))

    def __mul__(self, other) -> "QPolynomial":
        if isinstance(other, int):
            if other == 0:
                return QPolynomial.zero()
            return _wrap({num: coeff * other for num, coeff in self._terms.items()})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return _wrap(_convolution(self._terms, other._terms))

    __rmul__ = __mul__

    def shifted(self, exponent: ExponentLike) -> "QPolynomial":
        """Multiply by q**exponent."""
        return shifted_sum(((1, exponent, self),))

    def substitute_inverse(self) -> "QPolynomial":
        """Return p(1/q): every exponent negated, exactly."""
        return _wrap({-num: coeff for num, coeff in self._terms.items()})

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical encoding: {"den": 4, "terms": [[num, "coeff"], ...]}.

        Terms are sorted by exponent; coefficients are decimal strings so
        arbitrary-precision values survive any JSON reader.
        """
        return {
            "den": EXPONENT_DENOMINATOR,
            "terms": [[num, str(coeff)] for num, coeff in self.terms()],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "QPolynomial":
        if obj.get("den") != EXPONENT_DENOMINATOR:
            raise ValueError("unsupported exponent denominator")
        return cls({int(num): int(coeff) for num, coeff in obj["terms"]})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for num, coeff in self.terms():
            if num == 0:
                body = str(abs(coeff))
            else:
                if num == EXPONENT_DENOMINATOR:
                    var = "q"
                elif num % EXPONENT_DENOMINATOR == 0:
                    var = f"q^{num // EXPONENT_DENOMINATOR}"
                else:
                    var = f"q^({num}/{EXPONENT_DENOMINATOR})"
                head = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
                body = head + var
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"QPolynomial({self!s})"


def _exact(coeff) -> int:
    """`coeff` as an int; a float, a Fraction or a string is refused, not rounded."""
    try:
        return operator.index(coeff)
    except TypeError:
        raise ValueError(f"coefficient {coeff!r} is not an integer") from None


def _wrap(data: dict[int, int]) -> QPolynomial:
    """A QPolynomial owning `data`, which must hold no zero coefficient."""
    out = QPolynomial.__new__(QPolynomial)
    _set_terms(out, data)
    return out


# the slot's own setter: Value.__setattr__ refuses, and Value.__init__ is slower
_set_terms = QPolynomial._terms.__set__


def _convolution(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Term-by-term product of two term dicts, with no zero coefficient kept."""
    data: dict[int, int] = {}
    for num2, c2 in b.items():
        for num1, c1 in a.items():
            key = num1 + num2
            new = data.get(key, 0) + c1 * c2
            if new:
                data[key] = new
            else:
                del data[key]
    return data


def shifted_sum(items: Iterable[tuple[int, ExponentLike, QPolynomial]]) -> QPolynomial:
    """Sum of sign * q**e * p over (sign, e, p) items, signs 1 or -1.

    Zero coefficients are dropped once, at the end.
    """
    data: dict[int, int] = {}
    get = data.get
    for sign, exponent, poly in items:
        delta = exponent_numerator(exponent)
        if sign == 1:
            for num, coeff in poly._terms.items():
                num += delta
                data[num] = get(num, 0) + coeff
        elif sign == -1:
            for num, coeff in poly._terms.items():
                num += delta
                data[num] = get(num, 0) - coeff
        else:
            raise ValueError(f"sign {sign} is neither 1 nor -1")
    return _wrap({num: coeff for num, coeff in data.items() if coeff})


# memoryview formats that read a whole buffer of 1-, 2-, 4- or 8-byte digits
_NATIVE_DIGITS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _digit_bytes(bits: int) -> int:
    """Bytes per digit for digits of `bits` bits: 1, 2, 4 or 8 up to 8, else whole bytes."""
    width = (bits + 7) // 8
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _digits(value: int, width: int, count: int) -> list[int]:
    """The lowest `count` base-2**(8 * width) digits of `value` >= 0, lowest first.

    Bytes are laid out in the platform's order, which is the order
    memoryview reads native-size digits in.
    """
    raw = value.to_bytes(count * width, sys.byteorder)
    if width in _NATIVE_DIGITS:
        return memoryview(raw).cast(_NATIVE_DIGITS[width]).tolist()
    return [int.from_bytes(raw[k : k + width], sys.byteorder) for k in range(0, len(raw), width)]


_ZERO = QPolynomial.zero()


def gaussian_binomial(m: int, n: int) -> QPolynomial:
    """The Gaussian binomial [m choose n]_q, exactly; one `signed_binomial_sum` item.

    Out-of-range arguments (n < 0, n > m, m < 0) give the zero polynomial;
    the theta-style sums rely on that convention to truncate themselves.
    """
    return signed_binomial_sum([(1, 0, m, n)])


def vector_gaussian_binomial(a: Sequence[int], b: Sequence[int]) -> QPolynomial:
    """Componentwise product of Gaussian binomials; zero if any factor is.

    The factors other than 1 make one `gaussian_product_sum` term, so the
    product is taken on the packed integer, from rows kept in the row store
    (at most 2**22 bits, emptied by `qkostka.clear_caches`).
    """
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    pairs = []
    for m, n in zip(a, b):
        if 0 < n < m:
            pairs.append((m, n))
        elif m < 0 or n not in (0, m):
            return _ZERO
        # else the factor is [m choose 0] = [m choose m] = 1
    return gaussian_product_sum([(1, 0, pairs)])


def signed_binomial_sum(items: Iterable[tuple[int, int, int, int]]) -> QPolynomial:
    """Sum of sign * q**e * [t choose n]_q over (sign, e, t, n) items.

    An item with n outside 0..t is zero and drops out, and
    [t choose 0] = [t choose t] = 1; `gaussian_binomial` is the one-item sum.
    """
    return gaussian_product_sum(
        (sign, e, ((t, n),) if 0 < n < t else ()) for sign, e, t, n in items if 0 <= n <= t
    )


# The row store: (t, bits) -> ([[t, 1], ..., [t, x]] at q = 2**bits, the bits
# of memory those ints take), oldest use first. _row_store_bits[0] is the
# total held, kept at most _ROW_STORE_BITS by dropping the oldest rows; a
# one-item list, so that the total changes without rebinding a module name.
_row_store: dict[tuple[int, int], tuple[list[int], int]] = {}
_row_store_bits = [0]
_ROW_STORE_BITS = 1 << 22
_row_store_lock = threading.Lock()


def _clear_row_store() -> None:
    """Forget every stored row; the next calls walk from [t, 1] again."""
    with _row_store_lock:
        _row_store.clear()
        _row_store_bits[0] = 0


def _gaussian_rows(rows: dict[int, set[int]], bits: int) -> dict[tuple[int, int], int]:
    """[t choose n]_q at q = 2**bits for each n in rows[t], 0 < n <= t / 2.

    Row t is read from the row store and walked on from the last [t, x] it
    holds, up to the largest n, by [t, x] = [t, x - 1] (1 - q^(t-x+1)) /
    (1 - q^x). Every [t, x] walked has positive coefficients at most C(t, n)
    for that largest n, so fits when it does; the call that stored a prefix
    made its own [t, x] fit at the same width, so it holds the same ints.
    Each row keeps the longest prefix that fits the budget by itself.
    """
    out = {}
    with _row_store_lock:
        for t, ns in rows.items():
            key = t, bits
            # taken out and put back below, as the newest row
            row, held = _row_store.pop(key, None) or ([], 0)
            top = max(ns)
            if len(row) < top:
                old = held
                g = row[-1] if row else 1
                for x in range(len(row) + 1, top + 1):
                    g -= g << (bits * (t - x + 1))
                    # Divide by 1 - y, y = q^x, as a product (1 + y)(1 + y^2)(1 + y^4)...
                    # = (1 - q^span) / (1 - y), doubling span until it exceeds the
                    # quotient r's degree x(t - x). Then g = r - r q^span, the two
                    # parts do not overlap, and the mask keeps r.
                    span = x
                    while span <= x * (t - x):
                        g += g << (bits * span)
                        span *= 2
                    g &= (1 << (bits * span)) - 1
                    size = 8 * sys.getsizeof(g)
                    if len(row) == x - 1 and held + size <= _ROW_STORE_BITS:
                        row.append(g)
                        held += size
                    elif x in ns:
                        out[t, x] = g
                _row_store_bits[0] += held - old
            for n in ns:
                if n <= len(row):
                    out[t, n] = row[n - 1]
            if row:
                _row_store[key] = row, held
                while _row_store_bits[0] > _ROW_STORE_BITS:
                    _row_store_bits[0] -= _row_store.pop(next(iter(_row_store)))[1]
    return out


def _packed_factors(pairs: Iterable[tuple[int, int]], bits: int) -> dict:
    """[t choose n]_q at q = 2**bits for each pair (t, n), 0 < n < t, from the row store.

    A pair past the middle of its row is read as its mirror [t, t - n]. The
    caller's width must hold every coefficient of each factor it asks for.
    """
    rows: dict[int, set[int]] = {}
    mirrored = []
    for pair in pairs:
        t, n = pair
        if 2 * n > t:
            mirrored.append(pair)
            n = t - n
        rows.setdefault(t, set()).add(n)
    factors = _gaussian_rows(rows, bits)
    for t, n in mirrored:
        factors[t, n] = factors[t, t - n]
    return factors


def _packed_difference(positive: int, negative: int, width: int, low: int) -> QPolynomial:
    """q**low * (positive - negative), two sums packed at q = 2**(8 * width).

    Both are read digit by digit, once each, so no digit of either may carry:
    the caller's width must hold every coefficient of each sign's sum.
    """
    bits = 8 * width
    count = -(-max(positive.bit_length(), negative.bit_length()) // bits)
    digits = _digits(positive, width, count)
    if negative:
        digits = [p - n for p, n in zip(digits, _digits(negative, width, count))]
    return _wrap({EXPONENT_DENOMINATOR * (k + low): c for k, c in enumerate(digits) if c})


def gaussian_product_sum(terms: Iterable[tuple[int, int, Sequence[tuple[int, int]]]]) -> QPolynomial:
    """Sum of sign * q**e * prod [t choose n]_q over (sign, e, ((t, n), ...)) terms.

    Signs are 1 or -1, exponents any integers (shifted by the least), and
    every factor needs 0 < n < t; see the module docstring for the packing.
    Each distinct factor is checked once per call. Rows come from the row
    store (at most 2**22 bits, emptied by `qkostka.clear_caches`), walked
    only past the prefix it holds at this call's width.
    """
    terms = list(terms)
    if not terms:
        return _ZERO
    bound = 0
    low = terms[0][1]
    combs: dict[tuple[int, int], int] = {}
    for sign, exponent, pairs in terms:
        if sign not in (1, -1):
            raise ValueError(f"sign {sign} is neither 1 nor -1")
        if exponent < low:
            low = exponent
        value = 1
        for pair in pairs:
            c = combs.get(pair)
            if c is None:
                t, n = pair
                if not 0 < n < t:
                    raise ValueError(f"factor [{t} choose {n}] is not a proper Gaussian binomial")
                c = combs[pair] = math.comb(t, n)
            value *= c
        bound += value
    width = _digit_bytes(bound.bit_length())
    bits = 8 * width
    factors = _packed_factors(combs, bits)
    positive = negative = 0
    for sign, exponent, pairs in terms:
        product = 1
        for pair in pairs:
            product *= factors[pair]
        if sign > 0:
            positive += product << (bits * (exponent - low))
        else:
            negative += product << (bits * (exponent - low))
    return _packed_difference(positive, negative, width, low)
