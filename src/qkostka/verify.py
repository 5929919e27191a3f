"""Verification sweeps behind the `verify` CLI command.

Every suite counts the identities it checked and keeps a record for each
failure of a hard identity plus a record for each audit-class comparison
(published closed forms that are wrong in print; their residuals are data).
Suites are deterministic: fixed seeds and sorted enumeration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import abf as abf_mod
from . import kostka, verlinde, virasoro, weyl
from .compositions import Composition, admissible_compositions
from .qexact import QPolynomial
from .reports import AuditRecord


@dataclass(frozen=True)
class VerifyConfig:
    max_weight: int = 10
    max_level: int = 4
    order: int = 15


@dataclass
class SuiteResult:
    suite: str
    checked: int = 0
    records: list[AuditRecord] = field(default_factory=list)

    @property
    def failures(self) -> list[AuditRecord]:
        return [r for r in self.records if r.failed]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def audit_mismatches(self) -> int:
        return sum(1 for r in self.records if r.verdict == "audit-mismatch")

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checked": self.checked,
            "failures": len(self.failures),
            "audit_mismatches": self.audit_mismatches,
            "passed": self.passed,
            "records": [r.to_json_dict() for r in self.records],
        }


def _marker(flag: bool) -> QPolynomial:
    """Zero polynomial for pass, constant 1 for fail, for non-polynomial checks."""
    return QPolynomial.zero() if flag else QPolynomial.one()


def suite_routes(cfg: VerifyConfig) -> SuiteResult:
    """Fermionic sum vs signed charge-oracle sum vs Weyl-orbit Euler sum."""
    result = SuiteResult("routes")
    for k in range(1, cfg.max_level + 1):
        for m in admissible_compositions(cfg.max_weight, k):
            for l in range(k + 1):
                result.checked += 1
                ferm = kostka.restricted_fermionic(l, m, k)
                alt = kostka.restricted_alternating(l, m, k, source="charge")
                eul = weyl.euler_characteristic_bgg(m, l, k)
                params = {"k": k, "l": l, "m": list(m.parts)}
                if alt != ferm:
                    result.records.append(
                        AuditRecord(params, "fermionic", "alternating-charge", alt - ferm)
                    )
                if eul != ferm:
                    result.records.append(
                        AuditRecord(params, "fermionic", "weyl-euler", eul - ferm)
                    )
    return result


def suite_verlinde(cfg: VerifyConfig) -> SuiteResult:
    """q = 1 specialization against fusion-ring multiplicities."""
    result = SuiteResult("verlinde")
    for k in range(1, cfg.max_level + 1):
        for m in admissible_compositions(cfg.max_weight, k):
            for rep in verlinde.q1_consistency(m, k):
                result.checked += 1
                if not rep.passed:
                    result.records.append(
                        AuditRecord(
                            {"k": k, "l": rep.l, "m": list(m.parts)},
                            "fermionic-at-one",
                            "fusion-multiplicity",
                            QPolynomial.q_power(
                                0, rep.fermionic_at_one - rep.fusion_multiplicity
                            ),
                        )
                    )
    return result


def suite_weyl(cfg: VerifyConfig) -> SuiteResult:
    """Closed-form orbit words vs iterated reflections, plus orbit sanity."""
    result = SuiteResult("weyl")
    rng = random.Random(20260816)
    triples = [
        weyl.AffineWeight(rng.randint(-6, 6), rng.randint(1, 6), rng.randint(-10, 10))
        for _ in range(100)
    ]
    for w in triples:
        for branch in "abcd":
            for n in range(0, 9):
                result.checked += 1
                direct = weyl.closed_form_action(branch, n, w)
                iterated = weyl.apply_word(weyl.word_for(branch, n), w)
                ok = direct == iterated and direct.level == w.level
                if not ok:
                    result.records.append(
                        AuditRecord(
                            {"branch": branch, "n": n, "start": list(w)},
                            "closed-form",
                            "iterated-reflections",
                            _marker(ok),
                            detail={"closed": list(direct), "iterated": list(iterated)},
                        )
                    )
        result.checked += 1
        back = weyl.shifted_reflection("s1", weyl.shifted_reflection("s1", w))
        if back != w:
            result.records.append(
                AuditRecord(
                    {"start": list(w)}, "s1-twice", "identity", _marker(False)
                )
            )
    # one-line slices of the resolution: top weight per length
    for k in range(1, 5):
        for l in range(k + 1):
            for p in range(0, 7):
                result.checked += 1
                gens = weyl.bgg_generators(p, l, k)
                expected = p * (k + 2) + (l if p % 2 == 0 else k - l)
                ok = gens[-1].weight == expected
                if not ok:
                    result.records.append(
                        AuditRecord(
                            {"k": k, "l": l, "p": p},
                            "branch-weight",
                            "line-position",
                            _marker(ok),
                            detail={"got": gens[-1].weight, "expected": expected},
                        )
                    )
    return result


def suite_bgg(cfg: VerifyConfig) -> SuiteResult:
    """Signed homology-line predicate vs the raw signed Kostka sum.

    Runs on single-factor compositions, where the raw sum collapses to a
    signed monomial (or zero) whose coefficient sum must equal the
    alternating sum of the predicate.
    """
    result = SuiteResult("bgg")
    for k in range(1, min(cfg.max_level, 3) + 1):
        for l in range(k + 1):
            for n in range(0, 3 * (k + 2) + 1):
                result.checked += 1
                if n == 0:
                    m = Composition(())
                else:
                    m = Composition([0] * (n - 1) + [1])
                raw = kostka.alternating_sum_raw(l, m, k)
                signs = raw.evaluate_at_one()
                p_cap = (n + k) // (k + 2) + 2
                pred = sum(
                    (-1) ** p * weyl.homology_dim_predicate(p, n, l, k)
                    for p in range(p_cap + 1)
                )
                if signs != pred:
                    result.records.append(
                        AuditRecord(
                            {"k": k, "l": l, "n": n},
                            "raw-signed-sum",
                            "homology-predicate",
                            QPolynomial.q_power(0, signs - pred),
                            detail={"raw": raw},
                        )
                    )
    return result


def _mismatch_record(
    params: dict, route_a: str, route_b: str, mismatches, hard: bool = True
) -> AuditRecord:
    detail = {
        "mismatches": [[str(e), ca, cb] for e, ca, cb in mismatches[:8]],
    }
    return AuditRecord(
        params, route_a, route_b, _marker(not mismatches), hard=hard, detail=detail
    )


def suite_coset(cfg: VerifyConfig) -> SuiteResult:
    """Branching functions from stabilized Kostka data against theta quotients."""
    result = SuiteResult("coset")
    order = cfg.order
    for k in range(1, 7):
        result.checked += 1
        t = Fraction(k + 3, k + 2)
        closed = 13 - 6 * (t + 1 / t)
        if virasoro.coset_central_charge(k) != closed:
            result.records.append(
                AuditRecord(
                    {"k": k}, "central-charge", "13-6(t+1/t)", _marker(False)
                )
            )
    for k in range(1, 5):
        for i in (0, 1):
            for j in range(k + 1):
                for l in range(k + 2):
                    if (i + j + l) % 2:
                        continue
                    result.checked += 1
                    lhs = (
                        virasoro.coset_prefactor_exponent(i, j, k, l)
                        - Fraction(i + j, 4)
                        + Fraction((l - j) ** 2 + j, 4)
                    )
                    mm = virasoro.MinimalModel(k + 2, k + 3, j + 1, l + 1)
                    if lhs != virasoro.conformal_weight(mm):
                        result.records.append(
                            AuditRecord(
                                {"i": i, "j": j, "k": k, "l": l},
                                "prefactor-combination",
                                "conformal-weight",
                                _marker(False),
                            )
                        )
    for k in range(1, 3):
        for i in (0, 1):
            for j in range(k + 1):
                for l in range(k + 2):
                    if (i + j + l) % 2:
                        continue
                    result.checked += 1
                    mm = virasoro.MinimalModel(k + 2, k + 3, j + 1, l + 1)
                    gap = virasoro.coset_gap(i, j, k, l)
                    bs = virasoro.branching_via_kostka_limit(i, j, k, l, order + gap)
                    rc = virasoro.rocha_caridi(mm, order)
                    mismatches = virasoro.series_mismatches(bs.series, rc.series)
                    if mismatches:
                        result.records.append(
                            _mismatch_record(
                                {"i": i, "j": j, "k": k, "l": l, "order": order},
                                "kostka-limit",
                                "rocha-caridi",
                                mismatches,
                            )
                        )
    return result


def suite_fermionic_virasoro(cfg: VerifyConfig) -> SuiteResult:
    """Quasi-particle character sums against theta quotients, plus the
    published-exponent audit."""
    result = SuiteResult("fermionic-virasoro")
    order = cfg.order
    for k in range(1, 3):
        for j in range(k + 1):
            for l in range(k + 2):
                result.checked += 1
                params = {"j": j, "k": k, "l": l, "order": order}
                fc = virasoro.fermionic_character_sum(j, l, k, order)
                mm = virasoro.MinimalModel(k + 2, k + 3, j + 1, l + 1)
                rc = virasoro.rocha_caridi(mm, order)
                mismatches = virasoro.series_mismatches(fc.derived.series, rc.series)
                if mismatches:
                    result.records.append(
                        _mismatch_record(
                            params, "fermionic-derived", "rocha-caridi", mismatches
                        )
                    )
                result.records.append(
                    AuditRecord(
                        params,
                        "fermionic-derived",
                        "fermionic-printed",
                        fc.printed_minus_derived,
                        hard=False,
                    )
                )
    return result


def suite_abf(cfg: VerifyConfig) -> SuiteResult:
    """Finitization identities: reversal lemma, grouped Kostka identity,
    published-proposition audit, and the large-N character limit."""
    result = SuiteResult("abf")
    for r in range(2, 5):
        for b in range(-4, 5):
            for a in range(1, 5):
                for N in range(0, 11):
                    if (N - (b - a)) % 2:
                        continue
                    result.checked += 1
                    rec = abf_mod.inversion_check(abf_mod.AbfLabel(r, b, a, N))
                    if rec.failed:
                        result.records.append(rec)
    for k in range(1, 4):
        for j in range(k):
            for l in range(k + 1):
                for N in range(0, 11):
                    result.checked += 1
                    rec = abf_mod.grouped_identity_check(k, j, l, N)
                    if rec.failed:
                        result.records.append(rec)
    for k in range(1, 4):
        for j in range(k):
            for l in range(k + 1):
                for N in range(0, 7):
                    if (N + j + 1 - l) % 2:
                        continue
                    result.checked += 1
                    printed, repaired = abf_mod.finitization_audit(k, j, l, N)
                    if not printed.residual.is_zero():
                        result.records.append(printed)
                    if repaired.failed:
                        result.records.append(repaired)
    limit_order = min(cfg.order, 12)
    for r in range(2, 5):
        for b in range(1, r):
            for a in range(1, r + 1):
                result.checked += 1
                rec = _abf_limit_record(r, b, a, limit_order)
                if rec.failed:
                    result.records.append(rec)
    return result


def _abf_limit_record(r: int, b: int, a: int, order: int) -> AuditRecord:
    """Take the large-N window of the finitized polynomial and compare with
    the theta-quotient character.

    A binomial over an m x (N-m) box matches its unbounded limit through
    degree min(m, N-m), so N below is large enough for every term of the
    window; the N vs N+2 check guards the bound.
    """
    from .qexact import QSeriesTruncated

    mm = virasoro.MinimalModel(r, r + 1, b, a)
    rc = virasoro.rocha_caridi(mm, order)
    N = 2 * order + abs(b - a) + 4 * (r + 1)
    N += (N - (b - a)) % 2
    window = None
    for trial in (N, N + 2):
        poly = abf_mod.abf_polynomial(abf_mod.AbfLabel(r, b, a, trial))
        current = [poly.coefficient(d) for d in range(order + 1)]
        if window is not None and current != window:
            raise virasoro.StabilizationCapExceeded(
                f"finitization window does not settle for r={r}, b={b}, a={a}"
            )
        window = current
    series = QSeriesTruncated(window, offset=virasoro.conformal_weight(mm))
    mismatches = virasoro.series_mismatches(series, rc.series)
    return _mismatch_record(
        {"r": r, "b": b, "a": a, "order": order},
        "finitization-limit",
        "rocha-caridi",
        mismatches,
    )


SUITES = {
    "routes": suite_routes,
    "verlinde": suite_verlinde,
    "weyl": suite_weyl,
    "bgg": suite_bgg,
    "coset": suite_coset,
    "fermionic-virasoro": suite_fermionic_virasoro,
    "abf": suite_abf,
}


def run_suites(names: list[str], cfg: VerifyConfig) -> list[SuiteResult]:
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        else:
            expanded.append(name)
    results = []
    for name in expanded:
        if name not in SUITES:
            raise KeyError(name)
        results.append(SUITES[name](cfg))
    return results
