"""Level-k sl2 fusion ring and the q = 1 cross-check.

The fusion product of irreducibles [a], [b] at level k is the truncated
Clebsch-Gordan rule. Expanding the product over a whole composition of
spins gives the fusion multiplicities that the restricted Kostka
polynomials must reproduce at q = 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .compositions import CompositionLike, as_composition, check_level_weight
from .kostka import restricted_fermionic

# vector of multiplicities indexed by weight 0..k
FusionVector = tuple[int, ...]


def fuse_basic(a: int, b: int, k: int) -> FusionVector:
    """[a]*[b] = sum of [c] for c from |a-b| to min(a+b, 2k-a-b), step 2."""
    check_level_weight(a, k)
    check_level_weight(b, k)
    out = [0] * (k + 1)
    for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2):
        out[c] += 1
    return tuple(out)


def _fuse_vector(vec: FusionVector, b: int, k: int) -> FusionVector:
    out = [0] * (k + 1)
    for a, mult in enumerate(vec):
        if mult == 0:
            continue
        for c, n in enumerate(fuse_basic(a, b, k)):
            out[c] += mult * n
    return tuple(out)


def structure_constants(m: CompositionLike, k: int) -> FusionVector:
    """Expand [1]^{m_1} ... [k]^{m_k} in the basis [0], ..., [k]."""
    check_level_weight(0, k)
    comp = as_composition(m)
    if comp.width > k:
        raise ValueError("composition has a spin above the level")
    vec = tuple(1 if c == 0 else 0 for c in range(k + 1))
    for a, mult in enumerate(comp.parts, start=1):
        for _ in range(mult):
            vec = _fuse_vector(vec, a, k)
    return vec


class Q1Report(NamedTuple):
    l: int
    fermionic_at_one: int
    fusion_multiplicity: int

    @property
    def passed(self) -> bool:
        return self.fermionic_at_one == self.fusion_multiplicity


def q1_consistency(m: CompositionLike, k: int) -> list[Q1Report]:
    """Compare restricted_fermionic(l, m, k)(1) with the fusion multiplicity, per l."""
    check_level_weight(0, k)
    comp = as_composition(m)
    if comp.width > k:
        # both sides degenerate: the restricted polynomial is zero and the
        # module is absent, so report zeros across the board
        return [Q1Report(l, 0, 0) for l in range(k + 1)]
    constants = structure_constants(comp, k)
    return [
        Q1Report(l, restricted_fermionic(l, comp, k).evaluate_at_one(), constants[l])
        for l in range(k + 1)
    ]
