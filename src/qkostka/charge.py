"""Tableau oracle for unrestricted Kostka polynomials.

Semistandard tableaux on two-row shapes are graded by the
Lascoux-Schutzenberger charge statistic; the generating function is the
Kostka-Foulkes polynomial, and a degree reversal bridges it to the
weight-indexed polynomials the production routes compute.

This is the independent check, not the fast path. A pass over the placement
DAG, which places all copies of a letter at once, sums charge letter by
letter. A DAG state keeps only the row of each subword's last pick: a
letter's new copies sit at the right end of row 2 or of row 1 in the
reading word, so which copy the cyclic scan takes next depends on that row
alone, not on the position. The shape only prunes the DAG, so the oracle
keeps one pass per content, with row 1 free and row 2 capped at the longest
requested, for all its weights. enumerate_ssyt, reading_word and charge
grade tableaux one by one, as the brute-force cross-check. Nothing here is
shared with the fermionic route in kostka.py, so one bug cannot make both
routes agree on a wrong answer.
"""

from __future__ import annotations

from bisect import bisect_left
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
from .qexact import _ZERO, QPolynomial

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


def _charge_by_row2(counts: Sequence[int], cap1: int, cap2: int) -> dict[int, dict[int, int]]:
    """{row-2 length: {charge: count}} over the tableaux of the content
    whose rows stay within the caps.

    Placing the c copies of v, x in row 2, puts them at reading-word
    positions [r2, r2 + x) and n + [r1, r1 + c - x), n = |content|: row 1
    follows row 2 whatever the shape, so the caps only prune. Subwords
    0, 1, ... in turn take the free copy of v nearest left of their copy of
    v - 1, or else the rightmost; subword s sees the same free copies as in
    subword-by-subword extraction, since only subwords 0..s-1 took any. A
    wrap adds the number of letters >= v its subword holds.

    The row of a subword's last pick is all its next pick reads. The new
    row-2 copies lie right of every earlier row-2 position and left of
    every row-1 position, and the new row-1 copies right of everything
    before them. So a pick after row 1 takes the rightmost free row-2 copy
    if one is left and wraps otherwise, a pick after row 2 always wraps,
    and a wrap takes the rightmost free copy: row 1 while any is free. A
    state (row-2 length, each live subword's last row) holds a
    {charge: count} tally shared by every path through it; each letter's
    transitions are computed once per (rows, x), in a memo the pass drops.
    """
    top = counts[0] if counts else 0
    # subword s holds letters 1..ends[s]: a wrap at counts[v] adds ends[s] - v
    ends = [0] * top
    for c in counts:
        for s in range(min(c, top)):
            ends[s] += 1
    # row 0 marks a subword before its first letter: it takes the rightmost
    # copy without a wrap
    frontier: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {(0, (0,) * top): {0: 1}}
    placed = 0
    for v, (c, after) in enumerate(zip(counts, (*counts[1:], 0))):
        nxt: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
        # (rows, x) -> (the live subwords' new rows, charge added)
        steps: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]] = {}
        for (r2, rows), tally in frontier.items():
            r1 = placed - r2
            # same bounds on x as enumerate_ssyt
            for x in range(max(0, r1 + c - cap1), min(c, r1 - r2, cap2 - r2) + 1):
                step = steps.get((rows, x))
                if step is None:
                    free2, free1 = x, c - x
                    taken = []
                    shift = 0
                    for s, row in enumerate(rows):
                        if row == 1 and free2:
                            free2 -= 1
                            taken.append(2)
                            continue
                        if row:
                            shift += ends[s] - v
                        if free1:
                            free1 -= 1
                            taken.append(1)
                        else:
                            free2 -= 1
                            taken.append(2)
                    # subwords with no letter after this one drop out of the state
                    step = steps[rows, x] = tuple(taken[:after]), shift
                taken, shift = step
                into = nxt.get((r2 + x, taken))
                if into is None:
                    nxt[r2 + x, taken] = {e + shift: k for e, k in tally.items()}
                    continue
                get = into.get
                for e, k in tally.items():
                    e += shift
                    into[e] = get(e, 0) + k
        frontier = nxt
        placed += c
    if frontier and any(a < b for a, b in zip(counts, counts[1:])):
        raise ValueError("charge needs partition content")
    # after the last letter no subword is live: one state per row-2 length
    out = {}
    for (r2, _), tally in frontier.items():
        out[r2] = tally
    return out


def kostka_foulkes(sc: ShapeContent) -> QPolynomial:
    """Sum of q**charge over all semistandard tableaux of the shape/content.

    Zero when the content cannot fill the shape; content that is not a
    partition raises ValueError if the shape admits a tableau at all.
    """
    tallies = _charge_by_row2(sc.content, *sc.shape)
    return QPolynomial.from_integer_terms(tallies.get(sc.shape[1], {}))


# m (it fixes the content) -> (row-2 cap, {row-2 length: K})
_oracle_tables = {}
_NO_TABLE = (-1, {})


def kostka_sl2_oracle(l: int, m: CompositionLike) -> QPolynomial:
    """Unrestricted Kostka polynomial K_{l,m} from the tableau model.

    Zero when the weight is out of range or has the wrong parity; otherwise
    q**norm times the degree-reversed Kostka-Foulkes polynomial of the
    bridged shape and content. One pass per content runs with row 1 free and
    row 2 capped at the longest requested, so it answers every weight down
    to the requested one; a request below that reruns it with the new cap.
    """
    comp = as_composition(m)
    size = weighted_size(comp)
    if l < 0 or l > size or (size - l) % 2:
        return _ZERO
    len2 = (size - l) // 2
    cap2, polys = _oracle_tables.get(comp.parts, _NO_TABLE)
    if len2 > cap2:
        cap2 = len2
        norm = norm_ss(comp)
        polys = {}
        for r2, tally in _charge_by_row2(bridge_to_partition(comp, l).content, size, cap2).items():
            if max(tally) > norm:
                raise InvariantError("reversal produced a negative exponent")
            polys[r2] = QPolynomial.from_integer_terms({norm - e: k for e, k in tally.items()})
        _oracle_tables[comp.parts] = (cap2, polys)
    return polys.get(len2, _ZERO)
