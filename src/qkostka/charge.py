"""Tableau oracle for unrestricted Kostka polynomials.

Semistandard tableaux on two-row shapes are graded by the
Lascoux-Schutzenberger charge statistic; the generating function is the
Kostka-Foulkes polynomial, and a degree reversal bridges it to the
weight-indexed polynomials the production routes compute.

This is the independent check, not the fast path, and it has no closed form
for the count or the charge distribution. Each tableau is one path through
the placement DAG, which places all copies of a letter at once, so no row
ever breaks column strictness; kostka_foulkes sums charge over the paths
letter by letter instead of listing them, and tableaux that share a state
share its work. enumerate_ssyt, reading_word and charge list and grade the
paths one by one, as the brute-force cross-check. The module shares no
helper with the fermionic route in kostka.py, so that one bug cannot make
both routes agree on a wrong answer.
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
    """Sum of q**charge over all semistandard tableaux of the shape/content.

    A forward pass over the letters of the placement DAG that
    `enumerate_ssyt` walks. Placing the c copies of v, x of them in row 2,
    fixes their reading-word positions: row 2 at [r2, r2 + x) and row 1 at
    len2 + [r1, r1 + c - x). Charge is extracted letter by letter rather
    than subword by subword: subwords 0, 1, ... in turn take the free copy
    of v nearest left of their copy of v - 1, or else the rightmost one,
    and subword s sees the same free copies either way, since only
    subwords 0..s-1 took copies before it. A wrap at v raises the index of
    every later letter of the subword, so it adds at once the number of
    letters >= v the subword holds. The state after a letter is the length
    of row 2 and the position each live subword last took; it maps to a
    {charge: count} tally, and tableaux that reach the same state share
    every later step.

    Zero when the content cannot fill the shape; content that is not a
    partition raises ValueError if the shape admits a tableau at all.
    """
    len1, len2 = sc.shape
    counts = list(sc.content)
    while counts and not counts[-1]:
        counts.pop()
    if sum(counts) != len1 + len2:
        return QPolynomial.zero()
    # wraps[v-1][s]: letters >= v held by subword s
    wraps: list[list[int]] = []
    later: list[int] = []
    for c in reversed(counts):
        later = [1 + (later[s] if s < len(later) else 0) for s in range(c)]
        wraps.append(later)
    wraps.reverse()
    # the first letter's subwords start right of the word: no wrap
    start = (len1 + len2,) * (counts[0] if counts else 0)
    frontier: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {(0, start): {0: 1}}
    placed = 0
    for c, wrap in zip(counts, wraps):
        nxt: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
        for (r2, picks), tally in frontier.items():
            r1 = placed - r2
            # same bounds on x as enumerate_ssyt
            for x in range(max(0, r1 + c - len1), min(c, r1 - r2, len2 - r2) + 1):
                free = [*range(r2, r2 + x), *range(len2 + r1, len2 + r1 + c - x)]
                taken = []
                shift = 0
                for s, pos in enumerate(picks[:c]):
                    j = bisect_left(free, pos)
                    if j:
                        taken.append(free.pop(j - 1))
                    else:
                        taken.append(free.pop())
                        shift += wrap[s]
                into = nxt.setdefault((r2 + x, tuple(taken)), {})
                for e, n in tally.items():
                    into[e + shift] = into.get(e + shift, 0) + n
        frontier = nxt
        placed += c
    if frontier and any(a < b for a, b in zip(counts, counts[1:])):
        raise ValueError("charge needs partition content")
    total: dict[int, int] = {}
    for tally in frontier.values():
        for e, n in tally.items():
            total[e] = total.get(e, 0) + n
    return QPolynomial.from_integer_terms(total)


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
