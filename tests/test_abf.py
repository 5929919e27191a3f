import pytest
from test_qexact import reference_gaussian_binomial, reference_shifted_sum

from qkostka.abf import (
    AbfLabel,
    abf_polynomial,
    finitization_audit,
    grouped_identity_check,
    inversion_check,
)
from qkostka.qexact import QPolynomial
from qkostka.reports import AuditRecord


def test_label_validation():
    lab = AbfLabel(3, 1, 2, 5)
    assert lab.parity_ok
    assert not AbfLabel(3, 1, 2, 4).parity_ok
    with pytest.raises(ValueError):
        AbfLabel(1, 1, 1, 2)  # r too small
    with pytest.raises(ValueError):
        AbfLabel(3, 1, 1, -2)


def test_label_refuses_values_that_are_not_integers():
    # refused at construction, not left to fail inside abf_polynomial
    for labels in [(2, 1.0, 1, 2), (2.0, 1, 1, 2), (3, 1, 2, "5"), (3, 1, 2, 5.0)]:
        with pytest.raises(ValueError, match="labels must be integers"):
            AbfLabel(*labels)


def test_hook_checks_refuse_a_level_below_one():
    # j = -1 passes the hook-spin check, so the level check must catch k = 0
    for check in (grouped_identity_check, finitization_audit):
        with pytest.raises(ValueError, match="level must be positive"):
            check(0, -1, 0, 2)
        with pytest.raises(ValueError, match="weight must satisfy"):
            check(2, 0, 3, 2)


def test_abf_polynomial_values():
    assert abf_polynomial(AbfLabel(2, 1, 1, 2)) == QPolynomial.one()
    assert abf_polynomial(AbfLabel(3, 1, 1, 0)) == QPolynomial.one()
    # b = 0 lies on a reflecting wall
    assert abf_polynomial(AbfLabel(3, 0, 1, 3)).is_zero()
    with pytest.raises(ValueError):
        abf_polynomial(AbfLabel(3, 1, 2, 4))  # parity


def test_abf_polynomial_positive():
    for r in (2, 3, 4):
        for b in range(1, r):
            for a in range(1, r + 1):
                for N in range((b - a) % 2, 9, 2):
                    poly = abf_polynomial(AbfLabel(r, b, a, N))
                    assert all(c > 0 for _, c in poly.terms()), (r, b, a, N)


def reference_abf_polynomial(lab: AbfLabel) -> QPolynomial:
    # the theta sum term by term: one Pascal-built Gaussian binomial per
    # term, shifted and added or subtracted in turn
    r, b, a, N = lab.r, lab.b, lab.a, lab.N
    period = r + 1
    span = (N + abs(b) + abs(a)) // (2 * period) + 2
    items = []
    for n in range(-span, span + 1):
        e1 = r * period * n * n + (period * b - r * a) * n
        x1 = (N - b + a) // 2 - period * n
        items.append((1, e1, reference_gaussian_binomial(N, x1)))
        e2 = r * period * n * n + (period * b + r * a) * n + b * a
        x2 = (N - b - a) // 2 - period * n
        items.append((-1, e2, reference_gaussian_binomial(N, x2)))
    return reference_shifted_sum(items)


def test_abf_polynomial_matches_the_term_by_term_sum():
    # the verify grid, walls and out-of-range labels included
    labels = [
        AbfLabel(r, b, a, N)
        for r in range(2, 5)
        for b in range(-4, 5)
        for a in range(1, 5)
        for N in range(11)
        if (N - (b - a)) % 2 == 0
    ]
    # and the benchmark's sizes
    for i in range(12):
        r = 2 + i % 3
        N = 30 + (40 * i) // 11
        labels += [AbfLabel(r, b, a, N + (N - b + a) % 2) for b in range(1, r) for a in (1, r)]
    negative = 0
    for lab in labels:
        got = abf_polynomial(lab)
        assert got._terms == reference_abf_polynomial(lab)._terms, lab
        negative += any(c < 0 for c in got._terms.values())
    assert negative > 0


def test_inversion_check():
    rec = inversion_check(AbfLabel(3, 1, 1, 4))
    assert rec.residual.is_zero()
    assert rec.verdict == "match"
    assert not rec.failed
    for r in (2, 3):
        for b in range(1, r):
            for a in range(1, r + 1):
                for N in range((b - a) % 2, 7, 2):
                    assert inversion_check(AbfLabel(r, b, a, N)).residual.is_zero()


def test_grouped_identity():
    assert grouped_identity_check(1, 0, 0, 1).residual.is_zero()
    assert grouped_identity_check(2, 1, 0, 2).residual.is_zero()
    # the right side is built from fusion_char_hook; the fermionic left side
    # is its oracle on every label with k <= 5 and N <= 24
    checked = 0
    for k in range(1, 6):
        for j in range(k):
            for l in range(k + 1):
                for N in range(25):
                    rec = grouped_identity_check(k, j, l, N)
                    assert rec.residual.is_zero(), (k, j, l, N)
                    checked += 1
    assert checked == 1750


def test_finitization_audit_flagship():
    printed, repaired = finitization_audit(2, 1, 0, 2)
    # the printed prefactors leave a residual ...
    assert not printed.residual.is_zero()
    assert printed.verdict == "audit-mismatch"
    assert not printed.failed  # soft record by design
    # ... the per-term repaired prefactors close the gap exactly
    assert repaired.residual.is_zero()
    assert repaired.hard


def test_finitization_audit_j0_family():
    for k in (1, 2):
        for l in range(k + 1):
            # constituent labels need N+1 compatible with (j+1, l+1)
            for N in range((l + 1) % 2, 7, 2):
                printed, repaired = finitization_audit(k, 0, l, N)
                assert printed.residual.is_zero(), (k, l, N)
                assert repaired.residual.is_zero(), (k, l, N)


def test_audit_record_semantics():
    zero = AuditRecord({"x": 1}, "a", "b", QPolynomial.zero())
    assert zero.verdict == "match"
    assert not zero.failed
    hard = AuditRecord({"x": 1}, "a", "b", QPolynomial.one(), hard=True)
    assert hard.verdict == "mismatch"
    assert hard.failed
    soft = AuditRecord({"x": 1}, "a", "b", QPolynomial.one(), hard=False)
    assert soft.verdict == "audit-mismatch"
    assert not soft.failed


def test_audit_record_json():
    rec = AuditRecord({"k": 2}, "lhs", "rhs", QPolynomial.q_power(1), hard=False)
    obj = rec.to_json_dict()
    assert obj["params"] == {"k": 2}
    assert obj["verdict"] == "audit-mismatch"
    assert obj["residual_polynomial"] == {"den": 4, "terms": [[4, "1"]]}
