"""Shifted affine Weyl orbit of a highest weight and the graded Euler sum.

The rank-one affine Weyl group is an infinite dihedral group on two
reflections. Acting on (weight, level, grade) triples with the rho-shift
folded in, each reduced word is determined by its length p and a branch
label, so the whole orbit admits closed forms indexed by (branch, n).
The alternating sum of graded slice characters over the orbit collapses
to the restricted Kostka polynomial; that collapse is checked in tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .compositions import (
    CompositionLike,
    as_composition,
    check_level_weight,
)
from .kostka import _fusion_table
from .qexact import _ZERO, QPolynomial, _packed_difference


class AffineWeight(NamedTuple):
    weight: int
    level: int
    grade: int


class BranchError(ValueError):
    pass


def _reflect(gen: str, i: int, k: int, m: int) -> tuple[int, int]:
    """(weight, grade) after one shifted simple reflection at level k."""
    if gen == "s0":
        return -i + 2 * k + 2, m + k - i + 1
    if gen == "s1":
        return -i - 2, m
    raise BranchError(f"unknown generator {gen!r}")


def shifted_reflection(gen: str, w: AffineWeight) -> AffineWeight:
    """Apply one shifted simple reflection.

    s0: (i, k, m) -> (-i + 2k + 2, k, m + k - i + 1)
    s1: (i, k, m) -> (-i - 2, k, m)
    """
    i, k, m = w
    i, m = _reflect(gen, i, k, m)
    return AffineWeight(i, k, m)


def apply_word(word: Iterable[str], w: AffineWeight) -> AffineWeight:
    """Apply a word of generators, rightmost factor first.

    The steps run on plain integers and one AffineWeight is built at the
    end; `tuple` returns a tuple word itself, uncopied.
    """
    i, k, m = w
    for gen in reversed(tuple(word)):
        i, m = _reflect(gen, i, k, m)
    return AffineWeight(i, k, m)


def closed_form_action(branch: str, n: int, w: AffineWeight) -> AffineWeight:
    """Closed form for the four reduced-word families, T = level + 2.

    b = (s0 s1)^n            length 2n
    d = (s1 s0)^n            length 2n
    a = s0 (s1 s0)^n         length 2n+1
    c = s1 (s0 s1)^n         length 2n+1
    """
    if n < 0:
        raise ValueError("word power must be nonnegative")
    i, k, m = w
    T = k + 2
    if branch == "b":
        return AffineWeight(i + 2 * n * T, k, m + T * n * n + n * (i + 1))
    if branch == "d":
        return AffineWeight(i - 2 * n * T, k, m + T * n * n - n * (i + 1))
    if branch == "a":
        return AffineWeight(
            -i + 2 * T * (n + 1) - 2,
            k,
            m + T * n * n + n * (2 * T - i - 1) + k + 1 - i,
        )
    if branch == "c":
        return AffineWeight(-i - 2 * n * T - 2, k, m + T * n * n + n * (i + 1))
    raise BranchError(f"unknown branch {branch!r}")


def word_for(branch: str, n: int) -> tuple[str, ...]:
    """The reduced word realized by closed_form_action(branch, n, .)."""
    if branch == "b":
        return ("s0", "s1") * n
    if branch == "d":
        return ("s1", "s0") * n
    if branch == "a":
        return ("s0",) + ("s1", "s0") * n
    if branch == "c":
        return ("s1",) + ("s0", "s1") * n
    raise BranchError(f"unknown branch {branch!r}")


def bgg_generators(p: int, l: int, k: int) -> list[AffineWeight]:
    """Images of (l, k, 0) under the length-p Weyl elements.

    One element at p = 0, two at every p >= 1. Order is fixed (more negative
    weight first) so downstream output is deterministic.
    """
    if p < 0:
        raise ValueError("length must be nonnegative")
    check_level_weight(l, k)
    start = AffineWeight(l, k, 0)
    if p == 0:
        return [start]
    n, r = divmod(p, 2)
    if r == 0:
        return [closed_form_action("d", n, start), closed_form_action("b", n, start)]
    return [closed_form_action("c", n, start), closed_form_action("a", n, start)]


@lru_cache(maxsize=None)
def _orbit_items(l: int, k: int, size: int) -> tuple[tuple[int, int, int], ...]:
    """(sign, grade, slice weight -h0) for every orbit image (h0, k, grade)
    of length p with |h0| <= size, sign (-1)^p, in order of p.

    Every image of length p >= 1 has |h0| >= (p - 1)(k + 2) + 2, so no
    length past size // (k + 2) + 1 holds one and the loop stops there.
    """
    items = []
    for p in range(size // (k + 2) + 2):
        sign = -1 if p % 2 else 1
        for g in bgg_generators(p, l, k):
            if abs(g.weight) <= size:
                items.append((sign, g.grade, -g.weight))
    return tuple(items)


def euler_characteristic_bgg(m: CompositionLike, l: int, k: int) -> QPolynomial:
    """Alternating sum over the shifted orbit of graded weight-slice characters.

    Sum over p of (-1)^p sum over length-p images (h0, k, d) of
    q^d * fusion_weight_char(m, -h0). A slice past |m| is empty, and every
    image of length p >= 1 has |h0| >= (p - 1)(k + 2) + 2, so the lengths
    run to |m| // (k + 2) + 1 and no further. The orbit items depend only
    on (l, k, |m|) and are memoized per key. An item whose h0 has the
    parity of |m| + 1 has an empty slice too, and is dropped on its own; if
    no item is left the sum is zero, and no slice is filled. The rest read
    their slices packed from `kostka._fusion_table`, with digits that hold
    as many slices as the larger sign has items. Each sign's slices are
    added as ints shifted by their grades, and both sums are read once. A
    bad level or weight is refused as in the fermionic route.
    """
    check_level_weight(l, k)
    comp = as_composition(m)
    size = comp._weighted_size
    items = []
    plus = minus = deepest = 0
    low = None
    for sign, grade, weight in _orbit_items(l, k, size):
        if (size - weight) % 2:
            continue
        index = (size - abs(weight)) // 2 + 1
        items.append((sign, grade, index))
        if sign > 0:
            plus += 1
        else:
            minus += 1
        if index > deepest:
            deepest = index
        if low is None or grade < low:
            low = grade
    if not items:
        return _ZERO
    table = _fusion_table(comp, deepest, max(plus, minus))
    width = table[0][0]
    bits = 8 * width
    positive = negative = 0
    for sign, grade, index in items:
        if sign > 0:
            positive += table[index] << (bits * (grade - low))
        else:
            negative += table[index] << (bits * (grade - low))
    return _packed_difference(positive, negative, width, low)


def homology_dim_predicate(p: int, n: int, l: int, k: int) -> int:
    """1 when the length-p homology slice at weight n is a line, else 0.

    The line sits at n = p(k+2) + l for even p and n = p(k+2) + k - l for
    odd p.
    """
    if p < 0 or n < 0:
        raise ValueError("length and weight must be nonnegative")
    check_level_weight(l, k)
    if p % 2 == 0:
        return 1 if n == p * (k + 2) + l else 0
    return 1 if n == p * (k + 2) + k - l else 0
