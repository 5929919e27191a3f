"""Multiplicity-vector combinatorics for fusion products.

A composition m = (m_1, ..., m_k) records how many factors of each spin enter
a fusion product: m_a copies of the (a+1)-dimensional evaluation module. The
statistics here (weighted size, the min-form, the norm, the suffix-parity
count, the top degree) all feed the Kostka-polynomial routes, and the bridge
turns (l, m) into the two-row shape/content pair the tableau oracle consumes.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Iterable, Sequence


class InvalidWeightError(ValueError):
    """Raised when a weight is incompatible with a composition (parity/range)."""


class InvariantError(AssertionError):
    """Internal error: a proven invariant failed, so the code has a bug.

    Raised explicitly rather than by `assert`, so the check survives
    `python -O`.
    """


class Value:
    """Immutable value whose fields are its class's `__slots__`, set once by
    `__init__`, so a value filed in a set or a dict cannot move. Values are
    equal when of the same class with equal fields; hash and repr read them.
    """

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # copy and pickle restore the slots here, since __setattr__ refuses
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Composition(Value):
    """Immutable vector of nonnegative multiplicities m_1..m_k, with its |m|.

    Construction drops trailing zero multiplicities (the empty composition
    is (0,)), so equality and hash do not see them.
    """

    __slots__ = ("parts", "_weighted_size")

    def __init__(self, parts: Iterable[int]):
        parts = as_integers(parts, "multiplicities must be integers")
        if any(p < 0 for p in parts):
            raise ValueError("multiplicities must be nonnegative")
        while len(parts) > 1 and parts[-1] == 0:
            parts.pop()
        super().__init__(tuple(parts) or (0,), sum(a * p for a, p in enumerate(parts, start=1)))

    @property
    def width(self) -> int:
        return len(self.parts)

    def padded(self, width: int) -> tuple[int, ...]:
        """The parts followed by zeros up to `width`."""
        if width < len(self.parts):
            raise ValueError("cannot pad to a smaller width")
        return self.parts + (0,) * (width - len(self.parts))

    def trimmed(self) -> "Composition":
        """Construction already drops trailing zeros, so this is the identity."""
        return self

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self) -> str:
        return f"Composition({list(self.parts)})"


CompositionLike = Composition | Sequence[int]


def as_integers(values: Iterable, message: str) -> list[int]:
    """The values as ints; a float, a Fraction or a string is refused with
    ValueError(message), not rounded or kept to fail later."""
    try:
        return [operator.index(v) for v in values]
    except TypeError:
        raise ValueError(message) from None


def as_composition(m: CompositionLike) -> Composition:
    return m if isinstance(m, Composition) else Composition(m)


def check_level_weight(l: int, k: int) -> None:
    """Refuse a level below 1 or a weight outside 0..k, as every route does."""
    if k < 1:
        raise ValueError("level must be positive")
    if not 0 <= l <= k:
        raise ValueError("weight must satisfy 0 <= l <= k")


def composition_from_factors(factors: Iterable[int]) -> Composition:
    """Build the multiplicity vector from a list of factor spins.

    composition_from_factors([1, 1, 1, 1]) is (4,): four spin-1 factors.
    composition_from_factors([1, 1, 2]) is (2, 1).
    """
    return _composition_from_counts(Counter(factors))


def _composition_from_counts(counts: dict[int, int]) -> Composition:
    """The multiplicity vector of {spin: count}; spins must be positive."""
    if any(a < 1 for a in counts):
        raise ValueError("factor spins must be positive integers")
    parts = [0] * max(counts, default=0)
    for a, count in counts.items():
        parts[a - 1] += count
    return Composition(parts)


def hook_composition(N: int, j: int) -> Composition:
    """Multiplicity vector of N spin-1 factors and one spin-(j+1) factor.

    hook_composition(2, 0) is (3,); hook_composition(2, 2) is (2, 0, 1).
    """
    if N < 0 or j < 0:
        raise ValueError("hook parameters must be nonnegative")
    parts = [0] * (j + 1)
    parts[0] = N
    parts[j] += 1
    return Composition(parts)


def admissible_compositions(max_weight: int, max_width: int) -> list[Composition]:
    """Multiplicity vectors of width <= max_width and weighted size <= max_weight."""
    out: list[Composition] = []
    # spins above max_weight add only trailing zeros; 1 keeps max_weight < 0 empty
    top = min(max_width, max(max_weight, 1))

    def rec(spin: int, left: int, parts: list[int]) -> None:
        if spin > top:
            out.append(Composition(parts))
            return
        for count in range(left // spin + 1):
            rec(spin + 1, left - spin * count, parts + [count])

    rec(1, max_weight, [])
    return sorted(out, key=lambda c: (c._weighted_size, c.parts))


def parse_factor_list(text: str) -> Composition:
    """Parse a comma-separated factor list such as "2,1" or "1^4,2".

    Each entry names one factor by its spin; "a^e" repeats spin a e times,
    so "1^4,2" means four spin-1 factors and one spin-2 factor. The result
    is the multiplicity vector of the multiset. Repeats are counted, not
    expanded, so "1^1000000000" costs no more to parse than "1^4".
    """
    counts: dict[int, int] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty entry in factor list {text!r}")
        base_s, caret, count_s = token.partition("^")
        base = int(base_s)
        count = int(count_s) if caret else 1
        if count < 0:
            raise ValueError(f"negative repeat in {token!r}")
        if count:
            counts[base] = counts.get(base, 0) + count
    return _composition_from_counts(counts)


def weighted_size(m: CompositionLike) -> int:
    """|m| = sum_a a*m_a, the total number of boxes (spins counted with weight)."""
    return as_composition(m)._weighted_size


def min_form(m: CompositionLike, n: CompositionLike) -> int:
    """The bilinear form sum_{a,b} min(a,b) m_a n_b."""
    mp = as_composition(m).parts
    np_ = as_composition(n).parts
    total = 0
    for a, ma in enumerate(mp, start=1):
        if ma == 0:
            continue
        for b, nb in enumerate(np_, start=1):
            if nb:
                total += min(a, b) * ma * nb
    return total

def norm_ss(m: CompositionLike) -> int:
    """The norm with 2*norm = -|m| + mAm; always an even difference."""
    c = as_composition(m)
    twice = -weighted_size(c) + min_form(c, c)
    if twice % 2:
        raise InvariantError("mAm - |m| must be even")
    return twice // 2


def parity_count(m: CompositionLike) -> int:
    """Number of positions a whose suffix sum m_a + ... + m_k is odd."""
    parts = as_composition(m).parts
    count = 0
    suffix = 0
    for p in reversed(parts):
        suffix += p
        if suffix % 2:
            count += 1
    return count


def top_degree_h(m: CompositionLike) -> int:
    """h(m) = (mAm - p(m))/4, the top q-degree of the fusion product.

    The difference is always divisible by 4; that integrality is itself one
    of the tested invariants, so it is checked here.
    """
    c = as_composition(m)
    num = min_form(c, c) - parity_count(c)
    if num % 4:
        raise InvariantError("mAm - p(m) must be divisible by 4")
    return num // 4


class ShapeContent(Value):
    """A two-row shape with a partition content vector for the tableau oracle."""

    __slots__ = ("shape", "content")

    def __init__(self, shape: Sequence[int], content: Sequence[int]):
        shape = tuple(as_integers(shape, "shape and content must be integers"))
        content = tuple(as_integers(content, "shape and content must be integers"))
        if len(shape) != 2 or shape[0] < shape[1] or shape[1] < 0:
            raise ValueError("shape must be a two-row partition")
        if sum(shape) != sum(content):
            raise ValueError("content size must match the shape")
        super().__init__(shape, content)


def bridge_to_partition(m: CompositionLike, l: int) -> ShapeContent:
    """Translate (weight l, composition m) to the shape/content of the tableau model.

    The shape is ((|m|+l)/2, (|m|-l)/2) and the content lists the factor
    spins in weakly decreasing order, so m = (2, 1) gives content (2, 1, 1).
    """
    c = as_composition(m)
    size = weighted_size(c)
    if l < 0 or l > size or (size - l) % 2:
        raise InvalidWeightError(f"weight {l} invalid for |m| = {size}")
    shape = ((size + l) // 2, (size - l) // 2)
    content: list[int] = []
    for a in range(len(c.parts), 0, -1):
        content.extend([a] * c.parts[a - 1])
    return ShapeContent(shape, tuple(content))
