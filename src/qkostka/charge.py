"""Brute-force tableau oracle for unrestricted Kostka polynomials.

Semistandard tableaux on two-row shapes are enumerated directly and graded by
the Lascoux-Schutzenberger charge statistic; the generating function is the
Kostka-Foulkes polynomial, and a degree reversal bridges it to the
weight-indexed polynomials the production routes compute.

This is the independent check, not the fast path. Enumeration stays
exhaustive: every tableau is built and graded, with no closed form for the
count or the charge distribution. It goes letter by letter, placing all
copies of a value at once, so the search never builds a row that breaks
column strictness; charge finds each subword letter by bisection. The module
shares no helper with the fermionic route in kostka.py, so that one bug
cannot make both routes agree on a wrong answer.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Sequence

from .compositions import (
    CompositionLike,
    InvariantError,
    ShapeContent,
    as_composition,
    bridge_to_partition,
    norm_ss,
    weighted_size,
)
from .qexact import QPolynomial

Tableau = tuple[tuple[int, ...], tuple[int, ...]]


def enumerate_ssyt(sc: ShapeContent) -> list[Tableau]:
    """All semistandard tableaux of the given two-row shape and content.

    content[v-1] is the number of entries equal to v. Rows weakly increase,
    columns strictly increase. Returns [] when the counts cannot fill the
    shape. Tableaux come in lexicographic order of their first row.

    Letters are placed one value at a time: the copies of v go to the ends of
    the two rows, x of them to row 2. Row lengths bound x from both sides, and
    x <= r1 - r2 keeps every new row-2 entry under a smaller row-1 entry,
    which is all column strictness asks of two rows.
    """
    len1, len2 = sc.shape
    counts = sc.content
    if sum(counts) != len1 + len2:
        return []
    letters = len(counts)
    results: list[Tableau] = []

    def place(v: int, row1: tuple[int, ...], row2: tuple[int, ...]) -> None:
        if v > letters:
            results.append((row1, row2))
            return
        c = counts[v - 1]
        r1, r2 = len(row1), len(row2)
        # ascending x puts the most copies of v in row 1 first
        for x in range(max(0, r1 + c - len1), min(c, r1 - r2, len2 - r2) + 1):
            place(v + 1, row1 + (v,) * (c - x), row2 + (v,) * x)

    place(1, (), ())
    return results


def reading_word(t: Tableau) -> tuple[int, ...]:
    # Bottom row first, each row left to right; any consistent convention
    # gives the same generating function, this one is fixed for determinism.
    return t[1] + t[0]


def charge(word: Sequence[int]) -> int:
    """Charge of a word with partition content.

    Standard subwords are extracted repeatedly: take the rightmost 1, then
    scan cyclically leftward for the first 2, then the first 3, and so on.
    Within a subword the letter r+1 contributes index(r)+1 when it sits to
    the right of the chosen r and index(r) otherwise, starting from
    index(1) = 0. The charge is the sum of all indices over all subwords.

    Each letter keeps the sorted positions it still holds in the word, so
    the cyclic scan is one bisection: the nearest position to the left of
    the current one, or else the rightmost position, which wraps around.
    """
    if not word:
        return 0
    maxletter = max(word)
    counts = [0] * maxletter
    for v in word:
        if v < 1:
            raise ValueError("letters must be positive")
        counts[v - 1] += 1
    if any(counts[i] < counts[i + 1] for i in range(maxletter - 1)):
        raise ValueError("charge needs partition content")

    positions: list[list[int]] = [[] for _ in range(maxletter)]
    for i, v in enumerate(word):
        positions[v - 1].append(i)
    ones, higher = positions[0], positions[1:]
    total = 0
    while ones:
        pos = ones.pop()
        index = 0
        for held in higher:
            if not held:
                break
            j = bisect_left(held, pos)
            if j:
                pos = held.pop(j - 1)
            else:
                pos = held.pop()
                index += 1
            total += index
    return total


def kostka_foulkes(sc: ShapeContent) -> QPolynomial:
    """Sum of q**charge over all semistandard tableaux of the shape/content."""
    tally: dict[int, int] = {}
    for t in enumerate_ssyt(sc):
        c = charge(reading_word(t))
        tally[c] = tally.get(c, 0) + 1
    return QPolynomial.from_integer_terms(tally)


@lru_cache(maxsize=None)
def _oracle_cached(l: int, parts: tuple[int, ...]) -> QPolynomial:
    m = as_composition(parts)
    size = weighted_size(m)
    if l < 0 or l > size or (size - l) % 2:
        return QPolynomial.zero()
    sc = bridge_to_partition(m, l)
    kf = kostka_foulkes(sc)
    out = kf.substitute_inverse().shifted(norm_ss(m))
    if not out.is_zero() and out.min_exponent() < 0:
        raise InvariantError("reversal produced a negative exponent")
    return out


def kostka_sl2_oracle(l: int, m: CompositionLike) -> QPolynomial:
    """Unrestricted Kostka polynomial K_{l,m} from the tableau model.

    Zero when the weight is out of range or has the wrong parity; otherwise
    q**norm times the degree-reversed Kostka-Foulkes polynomial of the
    bridged shape and content.
    """
    return _oracle_cached(l, as_composition(m).trimmed().parts)
