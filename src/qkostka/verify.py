"""Verification sweeps behind the `verify` CLI command.

Every suite counts the identities it checked and keeps a record for each
failed hard identity. Audit comparisons check published closed forms that
are wrong in print, so their residuals are data, not failures:
`fermionic-virasoro` keeps its printed-exponent audit record for every
label, zero residuals included, while `abf` keeps a finitization audit
record only when its residual is nonzero.
Suites are deterministic: fixed seeds and sorted enumeration.

Importing this module loads what the default `routes` suite runs, `kostka`
(with `charge`) and `weyl`. Every other layer is imported where it is
read: `verlinde`, `virasoro` and `abf` inside the suites that call them, and
`reports` where a record is built. A process that runs one suite thus loads
only that suite's layers, and the routes import loads no `fractions`: the
rational exponents and the truncated series arrive with `virasoro`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import kostka, weyl
from .compositions import Composition, admissible_compositions
from .qexact import QPolynomial

if TYPE_CHECKING:
    from .reports import AuditRecord
    from .virasoro import MinimalModel, QSeriesTruncated


class VerifyConfig(NamedTuple):
    max_weight: int = 10
    max_level: int = 4
    order: int = 15


class SuiteResult:
    __slots__ = ("suite", "checked", "records")

    def __init__(self, suite: str, checked: int = 0, records: list[AuditRecord] | None = None):
        self.suite = suite
        self.checked = checked
        self.records = [] if records is None else records

    @property
    def failures(self) -> list[AuditRecord]:
        return [r for r in self.records if r.failed]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def audit_mismatches(self) -> int:
        return sum(1 for r in self.records if r.verdict == "audit-mismatch")

    def fail(self, params: dict, route_a: str, route_b: str, residual=1, **detail) -> None:
        """Keep a failed hard identity; an integer residual is a constant."""
        from .reports import AuditRecord

        if isinstance(residual, int):
            residual = QPolynomial.q_power(0, residual)
        self.records.append(AuditRecord(params, route_a, route_b, residual, detail=detail))

    def keep(self, record: AuditRecord) -> None:
        """Keep a record unless its two routes matched."""
        if record.verdict != "match":
            self.records.append(record)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checked": self.checked,
            "failures": len(self.failures),
            "audit_mismatches": self.audit_mismatches,
            "passed": self.passed,
            "records": [r.to_json_dict() for r in self.records],
        }


def _grid(cfg: VerifyConfig):
    """(k, m) for each level up to max_level and each admissible m there."""
    for k in range(1, cfg.max_level + 1):
        for m in admissible_compositions(cfg.max_weight, k):
            yield k, m


def suite_routes(cfg: VerifyConfig) -> SuiteResult:
    """Fermionic sum vs signed charge-oracle sum vs Weyl-orbit Euler sum."""
    result = SuiteResult("routes")
    for k, m in _grid(cfg):
        for l in range(k + 1):
            result.checked += 1
            ferm = kostka.restricted_fermionic(l, m, k)
            alt = kostka.restricted_alternating(l, m, k, source="charge")
            eul = weyl.euler_characteristic_bgg(m, l, k)
            params = {"k": k, "l": l, "m": list(m.parts)}
            # compared with != so that a residual is built only on a mismatch
            if alt != ferm:
                result.fail(params, "fermionic", "alternating-charge", alt - ferm)
            if eul != ferm:
                result.fail(params, "fermionic", "weyl-euler", eul - ferm)
    return result


def suite_verlinde(cfg: VerifyConfig) -> SuiteResult:
    """q = 1 specialization against fusion-ring multiplicities."""
    from . import verlinde

    result = SuiteResult("verlinde")
    for k, m in _grid(cfg):
        for rep in verlinde.q1_consistency(m, k):
            result.checked += 1
            if not rep.passed:
                params = {"k": k, "l": rep.l, "m": list(m.parts)}
                residual = rep.fermionic_at_one - rep.fusion_multiplicity
                result.fail(params, "fermionic-at-one", "fusion-multiplicity", residual)
    return result


def suite_weyl(cfg: VerifyConfig) -> SuiteResult:
    """Closed-form orbit words vs iterated reflections, plus orbit sanity."""
    import random

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
                if direct != iterated or direct.level != w.level:
                    params = {"branch": branch, "n": n, "start": list(w)}
                    result.fail(params, "closed-form", "iterated-reflections",
                                closed=list(direct), iterated=list(iterated))
        result.checked += 1
        if weyl.shifted_reflection("s1", weyl.shifted_reflection("s1", w)) != w:
            result.fail({"start": list(w)}, "s1-twice", "identity")
    # one-line slices of the resolution: top weight per length
    for k in range(1, 5):
        for l in range(k + 1):
            for p in range(0, 7):
                result.checked += 1
                got = weyl.bgg_generators(p, l, k)[-1].weight
                expected = p * (k + 2) + (l if p % 2 == 0 else k - l)
                if got != expected:
                    result.fail({"k": k, "l": l, "p": p}, "branch-weight", "line-position",
                                got=got, expected=expected)
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
                m = Composition([0] * (n - 1) + [1] if n else ())
                raw = kostka.alternating_sum_raw(l, m, k)
                signs = raw.evaluate_at_one()
                p_cap = (n + k) // (k + 2) + 2
                pred = sum(
                    (-1) ** p * weyl.homology_dim_predicate(p, n, l, k)
                    for p in range(p_cap + 1)
                )
                if signs != pred:
                    result.fail({"k": k, "l": l, "n": n}, "raw-signed-sum",
                                "homology-predicate", signs - pred, raw=raw)
    return result


def _rocha_caridi_record(
    params: dict, route: str, series: QSeriesTruncated, mm: MinimalModel, order: int
) -> AuditRecord:
    """Compare a series with the Rocha-Caridi character of mm through `order`.

    The residual is the constant 1 on a mismatch; the detail lists the first
    eight disagreeing (exponent, series, Rocha-Caridi) coefficients.
    """
    from . import virasoro
    from .reports import AuditRecord

    rc = virasoro.rocha_caridi(mm, order)
    mismatches = virasoro.series_mismatches(series, rc.series)
    residual = QPolynomial.one() if mismatches else QPolynomial.zero()
    detail = {"mismatches": [[str(e), ca, cb] for e, ca, cb in mismatches[:8]]}
    return AuditRecord(params, route, "rocha-caridi", residual, detail=detail)


def _coset_labels(k_max: int):
    """(i, j, k, l) with i + j + l even, for each level k up to k_max."""
    for k in range(1, k_max + 1):
        for i in (0, 1):
            for j in range(k + 1):
                for l in range((i + j) % 2, k + 2, 2):
                    yield i, j, k, l


def suite_coset(cfg: VerifyConfig) -> SuiteResult:
    """Branching functions from stabilized Kostka data against theta quotients."""
    from fractions import Fraction

    from . import virasoro

    result = SuiteResult("coset")
    order = cfg.order
    for k in range(1, 7):
        result.checked += 1
        t = Fraction(k + 3, k + 2)
        if virasoro.coset_central_charge(k) != 13 - 6 * (t + 1 / t):
            result.fail({"k": k}, "central-charge", "13-6(t+1/t)")
    for i, j, k, l in _coset_labels(4):
        result.checked += 1
        lhs = (
            virasoro.coset_prefactor_exponent(i, j, k, l)
            - Fraction(i + j, 4)
            + Fraction((l - j) ** 2 + j, 4)
        )
        mm = virasoro.MinimalModel(k + 2, k + 3, j + 1, l + 1)
        if lhs != virasoro.conformal_weight(mm):
            params = {"i": i, "j": j, "k": k, "l": l}
            result.fail(params, "prefactor-combination", "conformal-weight")
    for i, j, k, l in _coset_labels(2):
        result.checked += 1
        mm = virasoro.MinimalModel(k + 2, k + 3, j + 1, l + 1)
        gap = virasoro.coset_gap(i, j, k, l)
        bs = virasoro.branching_via_kostka_limit(i, j, k, l, order + gap)
        params = {"i": i, "j": j, "k": k, "l": l, "order": order}
        result.keep(_rocha_caridi_record(params, "kostka-limit", bs.series, mm, order))
    return result


def suite_fermionic_virasoro(cfg: VerifyConfig) -> SuiteResult:
    """Quasi-particle character sums against theta quotients, plus the
    published-exponent audit, kept for every label."""
    from . import virasoro
    from .reports import AuditRecord

    result = SuiteResult("fermionic-virasoro")
    order = cfg.order
    for k in range(1, 3):
        for j in range(k + 1):
            for l in range(k + 2):
                result.checked += 1
                params = {"j": j, "k": k, "l": l, "order": order}
                fc = virasoro.fermionic_character_sum(j, l, k, order)
                mm = virasoro.MinimalModel(k + 2, k + 3, j + 1, l + 1)
                result.keep(
                    _rocha_caridi_record(params, "fermionic-derived", fc.derived.series, mm, order)
                )
                result.records.append(AuditRecord(params, "fermionic-derived", "fermionic-printed",
                                                  fc.printed_minus_derived, hard=False))
    return result


def suite_abf(cfg: VerifyConfig) -> SuiteResult:
    """Finitization identities: reversal lemma, grouped Kostka identity,
    published-proposition audit, and the large-N character limit."""
    from . import abf

    result = SuiteResult("abf")
    for r in range(2, 5):
        for b in range(-4, 5):
            for a in range(1, 5):
                for N in range((b - a) % 2, 11, 2):
                    result.checked += 1
                    result.keep(abf.inversion_check(abf.AbfLabel(r, b, a, N)))
    for k in range(1, 4):
        for j in range(k):
            for l in range(k + 1):
                for N in range(0, 11):
                    result.checked += 1
                    result.keep(abf.grouped_identity_check(k, j, l, N))
    for k in range(1, 4):
        for j in range(k):
            for l in range(k + 1):
                for N in range((j + 1 - l) % 2, 7, 2):
                    result.checked += 1
                    for rec in abf.finitization_audit(k, j, l, N):
                        result.keep(rec)
    limit_order = min(cfg.order, 12)
    for r in range(2, 5):
        for b in range(1, r):
            for a in range(1, r + 1):
                result.checked += 1
                result.keep(_abf_limit_record(r, b, a, limit_order))
    return result


def _abf_limit_record(r: int, b: int, a: int, order: int) -> AuditRecord:
    """Take the large-N window of the finitized polynomial and compare with
    the theta-quotient character.

    A binomial over an m x (N-m) box matches its unbounded limit through
    degree min(m, N-m), so N below is large enough for every term of the
    window; the N vs N+2 check guards the bound.
    """
    from . import abf, virasoro

    mm = virasoro.MinimalModel(r, r + 1, b, a)
    N = 2 * order + abs(b - a) + 4 * (r + 1)
    N += (N - (b - a)) % 2
    window, wider = (
        [poly.coefficient(d) for d in range(order + 1)]
        for poly in [abf.abf_polynomial(abf.AbfLabel(r, b, a, n)) for n in (N, N + 2)]
    )
    if window != wider:
        raise virasoro.StabilizationCapExceeded(
            f"finitization window does not settle for r={r}, b={b}, a={a}"
        )
    series = virasoro.QSeriesTruncated(window, offset=virasoro.conformal_weight(mm))
    params = {"r": r, "b": b, "a": a, "order": order}
    return _rocha_caridi_record(params, "finitization-limit", series, mm, order)


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
    """Run the named suites in order, "all" naming every suite.

    Every name is looked up before any suite runs, so an unknown one raises
    KeyError without computing anything.
    """
    suites = [SUITES[s] for name in names for s in (SUITES if name == "all" else [name])]
    return [suite(cfg) for suite in suites]
