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
alone, not on the position. Each state's charge tally is packed into one
int, a digit per charge from the lowest that reaches the state, and digits
are as wide as a bound on the paths into a state, so a merge never carries.
A letter's moves do not depend on the content, so every pass reads them
from one table, bounded in size and emptied by clear_caches. The shape only
prunes the DAG, so the oracle keeps one pass per content, with row 1 free
and row 2 capped at the longest requested, for all its weights, and keeps
its tallies packed: the alternating route's signed sum adds and subtracts
them, shifted, in one int read once, with no polynomial built per weight.
enumerate_ssyt, reading_word and charge grade tableaux one by one, as the
brute-force cross-check. Nothing here is shared with the fermionic route in
kostka.py, whose packed kernel lives in qexact, so one bug cannot make both
routes agree on a wrong answer.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import Sequence

from .compositions import (
    Composition,
    CompositionLike,
    InvariantError,
    ShapeContent,
    as_composition,
    bridge_to_partition,
    norm_ss,
)
from .qexact import _ZERO, EXPONENT_DENOMINATOR, QPolynomial, _wrap

Tableau = tuple[tuple[int, ...], tuple[int, ...]]


def enumerate_ssyt(sc: ShapeContent) -> list[Tableau]:
    """All semistandard tableaux of the given two-row shape and content.

    content[v-1] is the number of entries equal to v. Rows weakly increase,
    columns strictly increase. Returns [] when the counts cannot fill the
    shape. Tableaux come in lexicographic order of their first row.

    Letters are placed one value at a time: the copies of v go to the ends of
    the two rows, x of them to row 2. Row lengths bound x from both sides, and
    x <= r1 - r2 keeps every new row-2 entry under a smaller row-1 entry,
    which is all column strictness asks of two rows. An explicit stack holds
    the partial tableaux, so a long row costs no recursion.
    """
    len1, len2 = sc.shape
    counts = sc.content
    if sum(counts) != len1 + len2:
        return []
    results: list[Tableau] = []
    stack = [(1, (), ())]
    while stack:
        v, row1, row2 = stack.pop()
        if v > len(counts):
            results.append((row1, row2))
            continue
        c = counts[v - 1]
        r1, r2 = len(row1), len(row2)
        # descending x is popped ascending, which puts the most copies of v
        # in row 1 first
        for x in range(min(c, r1 - r2, len2 - r2), max(0, r1 + c - len1) - 1, -1):
            stack.append((v + 1, row1 + (v,) * (c - x), row2 + (v,) * x))
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


# (rows, c, after) -> for x = 0..c, (the live subwords' new rows, the
# subwords that wrap). A letter's moves depend only on the key, not on the
# content, so every pass shares them. An entry holds at most
# (2c + 3) * len(rows) row and subword numbers, its key's rows and two
# tuples per move. Only entries of at most _STEP_NUMBERS are filed, and a
# miss that finds _STEPS_KEYS keys empties the table first, so it holds at
# most 2**18 numbers. clear_caches empties it too.
_steps = {}
_STEPS_KEYS = 1 << 10
_STEP_NUMBERS = 1 << 8


def _moves(rows: tuple[int, ...], c: int, after: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The moves of c copies from the live subwords' rows, filed in _steps
    if they fit its bound.

    A subword after row 1 takes a row-2 copy while one is free; any other
    subword wraps (unless it has no letter yet, row 0) and takes a row-1
    copy while one is free, else a row-2 copy (see _charge_by_row2).
    """
    moves = []
    for x in range(c + 1):
        free2, free1 = x, c - x
        taken, wrapped = [], []
        for s, row in enumerate(rows):
            if row == 1 and free2:
                free2 -= 1
                taken.append(2)
                continue
            if row:
                wrapped.append(s)
            if free1:
                free1 -= 1
                taken.append(1)
            else:
                free2 -= 1
                taken.append(2)
        # subwords with no letter after this one drop out of the state
        moves.append((tuple(taken[:after]), tuple(wrapped)))
    moves = tuple(moves)
    if (2 * c + 3) * len(rows) <= _STEP_NUMBERS:
        if len(_steps) >= _STEPS_KEYS:
            _steps.clear()
        _steps[rows, c, after] = moves
    return moves


# memoryview formats that read a buffer of 1-, 2-, 4- or 8-byte digits
_DIGIT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _digits(packed: int, width: int, count: int) -> Sequence[int]:
    """The lowest `count` digits of packed >= 0, each `width` bytes wide,
    lowest first, in one pass over its bytes.

    A memoryview cast reads 1-, 2-, 4- and 8-byte digits, the widths a pass
    rounds to up to 8 bytes; wider digits are sliced.
    """
    raw = packed.to_bytes(count * width, sys.byteorder)
    if width in _DIGIT_FORMATS:
        return memoryview(raw).cast(_DIGIT_FORMATS[width])
    return [int.from_bytes(raw[k : k + width], sys.byteorder) for k in range(0, len(raw), width)]


def _charge_by_row2(counts: Sequence[int], cap1: int, cap2: int) -> tuple[int, dict[int, tuple[int, int]]]:
    """(width, {row-2 length: (lowest charge, packed)}): the charge tallies
    of the content's tableaux whose rows stay within the caps, digit i of
    packed, `width` bytes wide, counting those of charge lowest + i.

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
    and a wrap takes the rightmost free copy: row 1 while any is free.

    A state (row-2 length, each live subword's last row) holds the tally
    shared by every path through it, packed as (lowest charge, int): digit
    i, unit bits wide, counts the paths of charge lowest + i. At most
    prod(min(c, cap2) + 1) paths reach a state, one per choice of x at each
    letter, so unit is that bound's width plus a spare top bit, rounded up
    to 1, 2, 4 or 8 bytes, or to whole bytes above 8, and digits never
    carry: a merge is one shift and one add. The final states share the
    bound, so no sum of their tallies, however shifted, carries either, and
    the spare bit holds a digit's sign in a signed sum. Since the lowest
    charge is kept, the int spans only the charges that occur; a single row
    of n letters holds one digit per state. The new rows and wrapped subwords
    come from the shared table _steps; the charge the wraps add depends on
    the content and is worked out once per letter and rows in each pass.
    """
    top = counts[0] if counts else 0
    # subword s holds letters 1..ends[s]: a wrap at counts[v] adds ends[s] - v
    ends = [0] * top
    paths = 1
    for c in counts:
        for s in range(min(c, top)):
            ends[s] += 1
        paths *= min(c, cap2) + 1
    width = paths.bit_length() // 8 + 1
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    unit = 8 * width
    # row 0 marks a subword before its first letter: it takes the rightmost
    # copy without a wrap
    frontier: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {(0, (0,) * top): (0, 1)}
    placed = 0
    for v, (c, after) in enumerate(zip(counts, (*counts[1:], 0))):
        nxt: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
        # rows -> for x = 0..c, (the live subwords' new rows, charge added)
        shifts: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        for (r2, rows), (low, packed) in frontier.items():
            moves = shifts.get(rows)
            if moves is None:
                moves = shifts[rows] = [
                    (taken, sum(map(ends.__getitem__, wrapped)) - v * len(wrapped))
                    for taken, wrapped in _steps.get((rows, c, after)) or _moves(rows, c, after)
                ]
            r1 = placed - r2
            # same bounds on x as enumerate_ssyt
            for x in range(max(0, r1 + c - cap1), min(c, r1 - r2, cap2 - r2) + 1):
                taken, shift = moves[x]
                e = low + shift
                key = r2 + x, taken
                held_low, held = nxt.get(key, (e, 0))
                if e >= held_low:
                    nxt[key] = held_low, held + (packed << unit * (e - held_low))
                else:
                    nxt[key] = e, packed + (held << unit * (held_low - e))
        frontier = nxt
        placed += c
    if frontier and any(a < b for a, b in zip(counts, counts[1:])):
        raise ValueError("charge needs partition content")
    # after the last letter no subword is live: one state per row-2 length
    return width, {r2: tally for (r2, _), tally in frontier.items()}


def kostka_foulkes(sc: ShapeContent) -> QPolynomial:
    """Sum of q**charge over all semistandard tableaux of the shape/content.

    Zero when the content cannot fill the shape; content that is not a
    partition raises ValueError if the shape admits a tableau at all.
    """
    width, tallies = _charge_by_row2(sc.content, *sc.shape)
    low, packed = tallies.get(sc.shape[1], (0, 0))
    digits = _digits(packed, width, -(-packed.bit_length() // (8 * width)))
    return _wrap({EXPONENT_DENOMINATOR * (low + i): d for i, d in enumerate(digits) if d})


# m (it fixes the content) -> (row-2 cap, norm, width, {row-2 length: (lowest
# charge, packed)}), the pass's tallies as it leaves them
_oracle_tables = {}
_NO_TABLE = (-1,)


def _oracle_pass(comp: Composition, len2: int) -> tuple:
    """The table of comp's pass with row 2 capped at len2, for a caller that
    holds none capped that long; it replaces the one held.

    With none held, len2 = 0 asks only for the one-row tableau, whose
    charge is read from the counts and not filed: n(c) =
    sum_a a (m_a S_(a+1) + m_a (m_a - 1) / 2), S_(a+1) the number of factors
    of larger spin. A charge above the norm would reverse to a negative
    exponent and is refused.
    """
    norm = norm_ss(comp)
    if not len2:
        larger = row_charge = 0
        for a in range(comp.width, 0, -1):
            count = comp.parts[a - 1]
            row_charge += a * (count * larger + count * (count - 1) // 2)
            larger += count
        tallies = {0: (row_charge, 1)}
        width = 1
    else:
        size = comp._weighted_size
        width, tallies = _charge_by_row2(bridge_to_partition(comp, size - 2 * len2).content, size, len2)
    unit = 8 * width
    if any(low + (packed.bit_length() - 1) // unit > norm for low, packed in tallies.values()):
        raise InvariantError("reversal produced a negative exponent")
    table = len2, norm, width, tallies
    if len2:
        _oracle_tables[comp.parts] = table
    return table


def kostka_sl2_oracle(l: int, m: CompositionLike) -> QPolynomial:
    """Unrestricted Kostka polynomial K_{l,m} from the tableau model.

    Zero when the weight is out of range or has the wrong parity; otherwise
    q**norm times the degree-reversed Kostka-Foulkes polynomial of the
    bridged shape and content. One pass per content runs with row 1 free and
    row 2 capped at the longest requested, so it answers every weight down
    to the requested one; a request below that reruns it with the new cap.
    It is the signed sum of the one item (1, 0, l): the pass's packed tally
    for the weight's row-2 length is reversed on demand. At l = |m| with no
    pass held, the one tableau is a single row, whose charge is read from
    the counts (see _oracle_pass).
    """
    return signed_oracle_sum(as_composition(m), ((1, 0, l),))


def signed_oracle_sum(comp: Composition, items: Sequence[tuple[int, int, int]]) -> QPolynomial:
    """Sum of sign * q**shift * K_{w,m} over (sign, shift, w) items, signs 1
    or -1, read from the oracle's packed tallies with no polynomial built
    per weight.

    One table, capped at the longest row 2 any item asks, serves every item.
    K_{w,m} is sum_i d_i q**(norm - low - i) over the digits d_i of its
    tally (low, packed), so each tally is placed at offset low - shift -
    base, base the least low - shift, and added to or taken from one int.
    Items of one sign have distinct weights, so their tableaux are distinct
    paths of the one pass: a digit of either sign's sum stays within the
    pass's bound, below half the digit range (see _charge_by_row2). The
    difference plus half the range in every digit therefore needs no
    borrow, and one read gives each digit t as half plus the coefficient
    of q**(norm - base - t).
    """
    size = comp._weighted_size
    asked = []
    longest = -1
    for sign, shift, w in items:
        if 0 <= w <= size and not (size - w) % 2:
            len2 = (size - w) // 2
            asked.append((sign, shift, len2))
            longest = max(longest, len2)
    if not asked:
        return _ZERO
    table = _oracle_tables.get(comp.parts, _NO_TABLE)
    _, norm, width, tallies = table if longest <= table[0] else _oracle_pass(comp, longest)
    placed = []
    base = None
    for sign, shift, len2 in asked:
        if len2 in tallies:
            low, packed = tallies[len2]
            placed.append((sign, low - shift, packed))
            if base is None or low - shift < base:
                base = low - shift
    if base is None:
        return _ZERO
    unit = 8 * width
    total = 0
    for sign, offset, packed in placed:
        if sign > 0:
            total += packed << unit * (offset - base)
        else:
            total -= packed << unit * (offset - base)
    half = 1 << (unit - 1)
    count = abs(total).bit_length() // unit + 1
    total += int.from_bytes(half.to_bytes(width, sys.byteorder) * count, sys.byteorder)
    top = EXPONENT_DENOMINATOR * (norm - base)
    return _wrap({top - EXPONENT_DENOMINATOR * t: d - half for t, d in enumerate(_digits(total, width, count)) if d != half})
