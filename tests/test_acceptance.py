"""Acceptance gate: one test per published claim, run at the claimed scale.

Each test prints a single summary line so a full run reads as a checklist.
These sweeps are larger than the unit tests; the whole module stays under a
few minutes on one core.
"""

import json
import subprocess
import sys

from qkostka.compositions import Composition, top_degree_h, weighted_size
from qkostka.coinvariants import FunctionalModelSpec, restricted_kostka_oracle
from qkostka.kostka import fusion_weight_char, restricted_fermionic, reversed_restricted
from qkostka.verify import SUITES, VerifyConfig, admissible_compositions
from qkostka.virasoro import (
    MinimalModel,
    branching_via_kostka_limit,
    fermionic_character_sum,
    rocha_caridi,
    series_mismatches,
)
from qkostka.abf import finitization_audit
from qkostka.qexact import QPolynomial


def ok(num, label):
    print(f"criterion {num:02d} ({label}): PASS")


def default_cfg():
    return VerifyConfig(max_weight=10, max_level=4, order=15)


def test_criterion_01_route_agreement():
    result = SUITES["routes"](default_cfg())
    assert result.passed, [r.to_json_dict() for r in result.failures]
    assert result.checked >= 800
    ok(1, "fermionic = alternating = euler, |m| <= 10, k <= 4")


def test_criterion_02_coinvariant_oracle():
    checked = 0
    for m in admissible_compositions(8, 8):
        size = weighted_size(m)
        for k in (1, 2, 3):
            for l in range(size % 2, min(size, k) + 1, 2):
                spec = FunctionalModelSpec.from_parameters(l, m, k)
                got = restricted_kostka_oracle(spec)
                want = restricted_fermionic(l, m, k)
                assert got == want, (m.parts, l, k, str(got), str(want))
                checked += 1
    assert checked > 250
    ok(2, f"coinvariant nullspace oracle, {checked} instances")


def test_criterion_03_verlinde_consistency():
    result = SUITES["verlinde"](default_cfg())
    assert result.passed, [r.to_json_dict() for r in result.failures]
    ok(3, "K(1) equals fusion multiplicity on the full grid")


def test_criterion_04_reversal_and_degree():
    for m in admissible_compositions(10, 10):
        size = weighted_size(m)
        h = top_degree_h(m)  # integrality asserted inside
        degrees = [
            fusion_weight_char(m, alpha).max_exponent()
            for alpha in range(size % 2, size + 1, 2)
            if not fusion_weight_char(m, alpha).is_zero()
        ]
        assert max(degrees) == h, m.parts
        for k in (1, 2, 3):
            for l in range(size % 2, k + 1, 2):
                rev = restricted_fermionic(l, m, k)
                tilde = reversed_restricted(l, m, k)
                if rev.is_zero():
                    assert tilde.is_zero()
                    continue
                assert tilde.min_exponent() >= 0, (m.parts, l, k)
                assert tilde == rev.substitute_inverse().shifted(h), (m.parts, l, k)
    ok(4, "reversal shift h(m) integral and extremal, |m| <= 10")


def test_criterion_05_closed_form_reflections():
    result = SUITES["weyl"](default_cfg())
    assert result.passed, [r.to_json_dict() for r in result.failures]
    assert result.checked > 3600  # 100 random triples x branches x n <= 8, plus lines
    ok(5, "closed forms match iterated reflections, n <= 8, 100 triples")


def test_criterion_06_coset_limit():
    result = SUITES["coset"](default_cfg())
    assert result.passed, [r.to_json_dict() for r in result.failures]
    vac = branching_via_kostka_limit(0, 0, 1, 0, 6)
    assert list(vac.coefficients()) == [1, 0, 1, 1, 2, 2, 3]
    ok(6, "branching limit equals theta quotient through q^15, k <= 2")


def test_criterion_07_fermionic_virasoro():
    result = SUITES["fermionic-virasoro"](default_cfg())
    assert result.passed, [r.to_json_dict() for r in result.failures]
    flagged = [
        r
        for r in result.records
        if not r.hard
        and r.params.get("k") == 1
        and r.params.get("j") == 0
        and r.params.get("l") == 0
    ]
    assert flagged and all(not r.residual.is_zero() for r in flagged)
    fc = fermionic_character_sum(0, 0, 1, 15)
    mm = rocha_caridi(MinimalModel(3, 4, 1, 1), 15)
    assert series_mismatches(fc.derived.series, mm.series) == []
    assert not fc.printed_minus_derived.is_zero()
    ok(7, "derived fermionic sum matches, printed constants flagged at (1,0,0)")


def test_criterion_08_polynomial_identities():
    result = SUITES["abf"](default_cfg())
    assert result.passed, [r.to_json_dict() for r in result.failures]
    printed, repaired = finitization_audit(2, 1, 0, 2)
    assert not printed.residual.is_zero()
    assert repaired.residual.is_zero()
    soft = [r for r in result.records if not r.hard and not r.residual.is_zero()]
    assert soft, "expected recorded audit mismatches"
    assert all(r.params.get("j", 1) != 0 for r in soft)
    ok(8, "inversion and grouped identities exact; prefactor audit recorded")


def test_criterion_09_abf_virasoro_limit():
    # re-run the finitization limit directly rather than through the suite
    from qkostka.verify import _abf_limit_record

    for r in (2, 3, 4):
        for b in range(1, r):
            for a in range(1, r + 1):
                rec = _abf_limit_record(r, b, a, 12)
                assert rec.residual.is_zero(), (r, b, a, rec.detail)
    ok(9, "finitized polynomials stabilize to characters through q^12, r <= 4")


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "qkostka.cli", *args],
        capture_output=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_10_determinism():
    table_args = ["table", "kostka", "--max-weight", "6", "--max-level", "2"]
    runs = [run_cli(table_args) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]

    verify_args = [
        "verify", "abf", "--max-weight", "6", "--max-level", "2",
        "--order", "8", "--format", "json",
    ]
    reports = [run_cli(verify_args) for _ in range(3)]
    assert reports[0] == reports[1] == reports[2]
    json.loads(reports[0])  # well-formed

    chars = [
        run_cli(["table", "characters", "--model", "3", "4", "--order", "10",
                 "--format", "json"])
        for _ in range(2)
    ]
    assert chars[0] == chars[1]
    ok(10, "byte-identical output across runs")
