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

from fractions import Fraction

from .compositions import Value, as_integers, check_level_weight, hook_composition
from .kostka import fusion_char_hook, restricted_fermionic
from .qexact import QPolynomial, shifted_sum, signed_binomial_sum
from .reports import AuditRecord


class AbfLabel(Value):
    __slots__ = ("r", "b", "a", "N")

    def __init__(self, r: int, b: int, a: int, N: int):
        r, b, a, N = as_integers((r, b, a, N), "labels must be integers")
        if r < 2:
            raise ValueError("model index r must be at least 2")
        if N < 0:
            raise ValueError("width N must be nonnegative")
        super().__init__(r, b, a, N)

    @property
    def parity_ok(self) -> bool:
        return (self.N - (self.b - self.a)) % 2 == 0


def _theta_sum(lab: AbfLabel, square: int, linear: int, mirror: int, corner: int) -> QPolynomial:
    """Sum over n of q^(square n^2 + linear n) [N, (N-b+a)/2 - (r+1)n]
    minus q^(square n^2 + mirror n + corner) [N, (N-b-a)/2 - (r+1)n]."""
    b, a, N = lab.b, lab.a, lab.N
    period = lab.r + 1
    span = (N + abs(b) + abs(a)) // (2 * period) + 2
    items = []
    for n in range(-span, span + 1):
        items.append((1, square * n * n + linear * n, N, (N - b + a) // 2 - period * n))
        items.append((-1, square * n * n + mirror * n + corner, N, (N - b - a) // 2 - period * n))
    return signed_binomial_sum(items)


def abf_polynomial(lab: AbfLabel) -> QPolynomial:
    """Signed binomial theta sum chi-hat_{b,a}(q; N) for the (r, r+1) model."""
    if not lab.parity_ok:
        raise ValueError("N must have the parity of b - a")
    r, b, a = lab.r, lab.b, lab.a
    return _theta_sum(lab, r * (r + 1), (r + 1) * b - r * a, (r + 1) * b + r * a, b * a)


def inversion_check(lab: AbfLabel) -> AuditRecord:
    """Degree reversal: q^{N^2/4-(a-b)^2/4} chi-hat(1/q; N) as a short theta sum."""
    r, b, a, N = lab.r, lab.b, lab.a, lab.N
    shift = Fraction(N * N - (a - b) ** 2, 4)
    lhs = abf_polynomial(lab).substitute_inverse().shifted(shift)
    rhs = _theta_sum(lab, r + 1, -a, a, 0)
    return AuditRecord(
        params={"r": r, "b": b, "a": a, "N": N},
        route_a="reversed-finitization",
        route_b="inversion-lemma-sum",
        residual=rhs - lhs,
        hard=True,
    )


def _hook_kostka(k: int, j: int, l: int, N: int) -> QPolynomial:
    """The restricted Kostka polynomial of N spin-1 factors and one spin-(j+1)
    factor, refusing a hook spin at or above the level and a bad (l, k)."""
    if not 0 <= j + 1 <= k:
        raise ValueError("hook spin must stay strictly below the level")
    check_level_weight(l, k)
    return restricted_fermionic(l, hook_composition(N, j), k)


def grouped_identity_check(k: int, j: int, l: int, N: int) -> AuditRecord:
    """Restricted Kostka of N spin-1 factors plus one spin-(j+1) factor,
    rebuilt from the signed level sum of closed-form hook characters.

    With T = k + 2 and H the weight-w hook character `fusion_char_hook(N, j, w)`,
    the right-hand side is the sum over p of q^(T p^2 + (l+1)p) (H(w) - H(w+2))
    at w = l + 2Tp; H vanishes once |w| passes N + j + 1.
    """
    lhs = _hook_kostka(k, j, l, N)
    period = k + 2
    span = (N + j + 3) // (2 * period) + 2
    items = []
    for p in range(-span, span + 1):
        e = period * p * p + (l + 1) * p
        w = l + 2 * period * p
        items += [(1, e, fusion_char_hook(N, j, w)), (-1, e, fusion_char_hook(N, j, w + 2))]
    return AuditRecord(
        params={"k": k, "j": j, "l": l, "N": N},
        route_a="restricted-fermionic",
        route_b="grouped-finitization-sum",
        residual=shifted_sum(items) - lhs,
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
    kostka = _hook_kostka(k, j, l, N)
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
    params = {"k": k, "j": j, "l": l, "N": N}
    return [
        AuditRecord(
            params=params,
            route_a="prefixed-restricted-fermionic",
            route_b="published-finitization-rhs",
            residual=printed - printed_lhs,
            hard=False,
            detail={"lhs": printed_lhs, "rhs": printed},
        ),
        AuditRecord(
            params=params,
            route_a="restricted-fermionic",
            route_b="per-term-reversal-rhs",
            residual=repaired - kostka,
            hard=True,
            detail={"lhs": kostka, "rhs": repaired},
        ),
    ]
