"""Finitized minimal-model characters and their Kostka cross-identities.

The finitization polynomials are signed theta-like binomial sums in a width
parameter N. Two exact identities tie them back to the rest of the library:
a degree-reversal lemma, and a grouped identity expressing a restricted
Kostka polynomial through them. A published proposition packages the
grouped identity with a single common prefactor; desk evaluation shows that
prefactor cannot be right once its second sum is nonempty, so the audit
here evaluates both the published statement and the per-term lemma-derived
variant and reports the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .compositions import hook_composition
from .kostka import check_level_weight, restricted_fermionic
from .qexact import QPolynomial, shifted_sum, signed_binomial_sum
from .reports import AuditRecord


@dataclass(frozen=True)
class AbfLabel:
    r: int
    b: int
    a: int
    N: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("model index r must be at least 2")
        if self.N < 0:
            raise ValueError("width N must be nonnegative")

    @property
    def parity_ok(self) -> bool:
        return (self.N - (self.b - self.a)) % 2 == 0


def abf_polynomial(lab: AbfLabel) -> QPolynomial:
    """Signed binomial theta sum chi-hat_{b,a}(q; N) for the (r, r+1) model."""
    if not lab.parity_ok:
        raise ValueError("N must have the parity of b - a")
    r, b, a, N = lab.r, lab.b, lab.a, lab.N
    period = r + 1
    span = (N + abs(b) + abs(a)) // (2 * period) + 2
    items = []
    for n in range(-span, span + 1):
        e1 = r * period * n * n + (period * b - r * a) * n
        x1 = (N - b + a) // 2 - period * n
        items.append((1, e1, N, x1))
        e2 = r * period * n * n + (period * b + r * a) * n + b * a
        x2 = (N - b - a) // 2 - period * n
        items.append((-1, e2, N, x2))
    return signed_binomial_sum(items)


def inversion_check(lab: AbfLabel) -> AuditRecord:
    """Degree reversal: q^{N^2/4-(a-b)^2/4} chi-hat(1/q; N) as a short theta sum."""
    r, b, a, N = lab.r, lab.b, lab.a, lab.N
    period = r + 1
    shift = Fraction(N * N - (a - b) ** 2, 4)
    lhs = abf_polynomial(lab).substitute_inverse().shifted(shift)
    span = (N + abs(b) + abs(a)) // (2 * period) + 2
    items = []
    for n in range(-span, span + 1):
        x1 = (N - b + a) // 2 - period * n
        items.append((1, period * n * n - n * a, N, x1))
        x2 = (N - b - a) // 2 - period * n
        items.append((-1, period * n * n + n * a, N, x2))
    rhs = signed_binomial_sum(items)
    return AuditRecord(
        params={"r": r, "b": b, "a": a, "N": N},
        route_a="reversed-finitization",
        route_b="inversion-lemma-sum",
        residual=rhs - lhs,
        hard=True,
    )


def grouped_identity_check(k: int, j: int, l: int, N: int) -> AuditRecord:
    """Restricted Kostka of N spin-1 factors plus one spin-(j+1) factor,
    rebuilt from the signed level sum of closed-form hook characters.

    The right-hand side groups the unrestricted polynomials of the signed
    level sum into binomial blocks, one theta index p per level shift.
    """
    if not 0 <= j + 1 <= k:
        raise ValueError("hook spin must stay strictly below the level")
    check_level_weight(l, k)
    lhs = restricted_fermionic(l, hook_composition(N, j), k)
    period = k + 2
    span = (N + j + 3) // (2 * period) + 2
    blocks = []
    for p in range(-span, span + 1):
        e = period * p * p + (l + 1) * p
        c = N + j - l - 2 * period * p
        for s in range(j + 1):
            blocks += [(1, e, N + 1, c + 1 - 2 * s), (-1, e, N + 1, c - 1 - 2 * s)]
        for s in range(j):
            blocks += [(-1, e, N, c - 1 - 2 * s), (1, e, N, c - 3 - 2 * s)]
    # a block [top choose num / 2] with an odd num is zero
    rhs = signed_binomial_sum(
        (sign, e, top, num // 2) for sign, e, top, num in blocks if num % 2 == 0
    )
    return AuditRecord(
        params={"k": k, "j": j, "l": l, "N": N},
        route_a="restricted-fermionic",
        route_b="grouped-finitization-sum",
        residual=rhs - lhs,
        hard=True,
    )


def finitization_audit(k: int, j: int, l: int, N: int) -> list[AuditRecord]:
    """Evaluate the published finitization statement and its per-term repair.

    The published right-hand side carries the common prefactors q^{(N+1)^2/4}
    and q^{N^2/4} against a left-hand side q^{(l-j)^2/4} K; the repaired
    variant gives each reversed finitization term the prefactor that degree
    reversal actually produces for its own labels, and then matches K with
    no prefactor at all. Returns [published-record, repaired-record].
    """
    if not 0 <= j + 1 <= k:
        raise ValueError("hook spin must stay strictly below the level")
    check_level_weight(l, k)
    kostka = restricted_fermionic(l, hook_composition(N, j), k)
    r = k + 1

    printed_items = []
    repaired_items = []
    labels = [(1, j + 1 - 2 * s, N + 1) for s in range(j + 1)]
    labels += [(-1, j - 2 * s, N) for s in range(j)]
    for sign, b, width in labels:
        rev = abf_polynomial(AbfLabel(r, b, l + 1, width)).substitute_inverse()
        printed_items.append((sign, Fraction(width * width, 4), rev))
        repaired_items.append((sign, Fraction(width * width - (l + 1 - b) ** 2, 4), rev))
    printed = shifted_sum(printed_items)
    repaired = shifted_sum(repaired_items)

    printed_lhs = kostka.shifted(Fraction((l - j) ** 2, 4))
    records = [
        AuditRecord(
            params={"k": k, "j": j, "l": l, "N": N},
            route_a="prefixed-restricted-fermionic",
            route_b="published-finitization-rhs",
            residual=printed - printed_lhs,
            hard=False,
            detail={"lhs": printed_lhs, "rhs": printed},
        ),
        AuditRecord(
            params={"k": k, "j": j, "l": l, "N": N},
            route_a="restricted-fermionic",
            route_b="per-term-reversal-rhs",
            residual=repaired - kostka,
            hard=True,
            detail={"lhs": kostka, "rhs": repaired},
        ),
    ]
    return records
