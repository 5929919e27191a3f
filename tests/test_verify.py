import hashlib
import json

import pytest

import qkostka
from qkostka import cli
from qkostka.compositions import Composition
from qkostka.verify import (
    SUITES,
    VerifyConfig,
    admissible_compositions,
    run_suites,
)


def small():
    return VerifyConfig(max_weight=5, max_level=2, order=6)


def test_admissible_compositions():
    ms = admissible_compositions(4, 2)
    assert Composition(()) in ms or Composition((0,)) in ms
    assert Composition((4,)) in ms
    assert Composition((2, 1)) in ms
    assert Composition((0, 2)) in ms
    # width cap respected
    assert all(m.trimmed().width <= 2 for m in ms)
    # sorted deterministically by weighted size first
    sizes = [sum(a * c for a, c in enumerate(m.parts, start=1)) for m in ms]
    assert sizes == sorted(sizes)


def test_admissible_compositions_match_the_explicit_trimming_enumeration():
    # the enumeration before compositions trimmed themselves: trim by hand,
    # deduplicate, sort
    def reference(max_weight, max_width):
        out = [()]

        def rec(spin, left, parts):
            if spin > max_width:
                if any(parts):
                    trimmed = list(parts)
                    while trimmed and trimmed[-1] == 0:
                        trimmed.pop()
                    out.append(tuple(trimmed))
                return
            for count in range(left // spin + 1):
                rec(spin + 1, left - spin * count, parts + [count])

        rec(1, max_weight, [])
        normal = {p or (0,) for p in out}
        return sorted(normal, key=lambda p: (sum(a * c for a, c in enumerate(p, 1)), p))

    for max_weight, max_width in [(10, 4), (0, 1), (6, 1), (7, 3)]:
        ms = admissible_compositions(max_weight, max_width)
        assert [m.parts for m in ms] == reference(max_weight, max_width)
    ms = admissible_compositions(10, 4)
    assert len(ms) == 94
    digest = hashlib.sha256(repr([m.parts for m in ms]).encode()).hexdigest()
    assert digest == "3ddcddf8ba0e677045157fdb45e7f70c21181f302cab70d229620104195b84bf"


def test_admissible_compositions_stop_recursing_at_spin_max_weight():
    # a spin above max_weight has count 0, so a width far above max_weight
    # neither changes the list nor recurses once per spin
    assert admissible_compositions(2, 5000) == admissible_compositions(2, 2)
    assert admissible_compositions(0, 5000) == [Composition((0,))]
    assert admissible_compositions(-1, 5000) == []
    assert admissible_compositions(-1, 0) == [Composition((0,))]


def test_run_suites_all_expansion():
    results = run_suites(["all"], small())
    assert [r.suite for r in results] == list(SUITES)
    with pytest.raises(KeyError):
        run_suites(["nonsense"], small())


def test_run_suites_refuses_an_unknown_name_before_running_any(monkeypatch):
    calls = []
    monkeypatch.setitem(SUITES, "routes", lambda cfg: calls.append(cfg))
    with pytest.raises(KeyError, match="nosuch"):
        run_suites(["routes", "nosuch"], small())
    with pytest.raises(KeyError, match="nosuch"):
        run_suites(["all", "nosuch"], small())
    assert calls == []


def test_each_suite_passes_small():
    for name in SUITES:
        result = SUITES[name](small())
        assert result.passed, (name, [r.to_json_dict() for r in result.failures])
        assert result.checked > 0


def test_suite_result_json_shape():
    result = SUITES["verlinde"](small())
    obj = result.to_json_dict()
    assert obj["suite"] == "verlinde"
    assert obj["passed"] is True
    assert obj["checked"] == result.checked
    assert isinstance(obj["records"], list)


# sha256 of `qkostka verify all --max-weight 6 --max-level 2 --order 8
# --format json` stdout (84517 bytes), and a 16-hex-digit prefix of the
# sha256 of each suite's entry in that report (compact JSON, sorted keys)
GOLDEN_VERIFY_SHA256 = "2e2d8ee8a7cdaad2bc713da6b4349b060cc1adfd7e0a80cb36a33ebe550a5e37"
GOLDEN_SUITE_SHA256 = {
    "routes": "477fa1378dbfaabc",
    "verlinde": "79c9ee0aff1d80dd",
    "weyl": "5582a9024a1dae50",
    "bgg": "3df1597191349e82",
    "coset": "2a1a86cdae917ea8",
    "fermionic-virasoro": "b72052d197351b1b",
    "abf": "791435ad6a55f450",
}


def test_golden_verify_report(capsys):
    code = cli.main(
        ["verify", "all", "--max-weight", "6", "--max-level", "2", "--order", "8",
         "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    if hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_SHA256:
        return
    digests = {
        suite["suite"]: hashlib.sha256(
            json.dumps(suite, sort_keys=True).encode()
        ).hexdigest()[:16]
        for suite in json.loads(out)["suites"]
    }
    changed = sorted(
        name
        for name in GOLDEN_SUITE_SHA256.keys() | digests.keys()
        if digests.get(name) != GOLDEN_SUITE_SHA256.get(name)
    )
    pytest.fail(
        f"the verify report changed; suites whose records changed: {changed or 'none'} "
        "(none means only the report's layout changed)"
    )


# sha256 of `qkostka verify routes --max-weight 13 --max-level 4 --format json`
# stdout (1658 checks): the routes-sweep benchmark grid, run cold
GOLDEN_ROUTES_GRID_SHA256 = "bb25bc49148a86e9415a4981168479f4e396c44972bacaab40bdd9950e05ca03"


def test_golden_routes_grid_report(capsys):
    qkostka.clear_caches()
    code = cli.main(
        ["verify", "routes", "--max-weight", "13", "--max-level", "4", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["suites"][0]["checked"] == 1658
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ROUTES_GRID_SHA256


# sha256 of the stdout of the two suites that one quasi-particle enumeration
# and the shifted_sum audit feed, at a deeper order than the `verify all` golden
GOLDEN_SUITE_REPORT_SHA256 = {
    ("fermionic-virasoro", "40"): "b63f2173616fac181751ab206f2d5b2a999dfd1a99a45b53e99318ba62fcd53e",
    ("abf", "15"): "5ab7d451b646e5a1eef224a21c4ffe1cb3cea0b6c2465d7a558fa95cd99f8581",
}


@pytest.mark.parametrize("suite, order", sorted(GOLDEN_SUITE_REPORT_SHA256))
def test_golden_character_suite_report(suite, order, capsys):
    code = cli.main(["verify", suite, "--order", order, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SUITE_REPORT_SHA256[suite, order]


# sha256 of `qkostka verify all --max-weight 6 --max-level 2 --order 8`
# stdout, in each format, with one route broken in every suite: the bytes of
# failing records, which the passing goldens above never show. The broken
# fermionic sum fails against the Euler route in all 62 routes checks: the
# fusion slices that route sums come from their own walk, not from
# `restricted_fermionic`
GOLDEN_FAILING_REPORT_SHA256 = {
    "json": "ac78330586104542b359026062f5c9d2c21ed8923188e3236ab10f3eff42898c",
    "text": "a2901b1ba6402beef04d4f9ca1d0dde1a11f060031a868ce80d3662a9b7a2cf9",
}


@pytest.fixture
def broken_routes(monkeypatch):
    from qkostka import abf, kostka, verlinde, virasoro, weyl
    from qkostka.qexact import QPolynomial
    from qkostka.virasoro import QSeriesTruncated

    fermionic = kostka.restricted_fermionic
    rocha_caridi = virasoro.rocha_caridi
    closed_form = weyl.closed_form_action
    generators = weyl.bgg_generators
    predicate = weyl.homology_dim_predicate

    def bad_fermionic(l, m, k):
        return fermionic(l, m, k) + QPolynomial.one()

    def bad_rocha_caridi(mm, order):
        bs = rocha_caridi(mm, order)
        coeffs = [c + 1 for c in bs.series.coeffs]
        return virasoro.BranchingSeries(QSeriesTruncated(coeffs, bs.offset), bs.route)

    def bad_closed_form(branch, n, w):
        out = closed_form(branch, n, w)
        return out._replace(grade=out.grade + 1) if branch == "a" else out

    def bad_generators(p, l, k):
        gens = generators(p, l, k)
        return gens[:-1] + [gens[-1]._replace(weight=gens[-1].weight + 1)]

    def bad_predicate(p, n, l, k):
        return predicate(p, n, l, k) + (p == 0)

    for module in (kostka, verlinde, abf):
        monkeypatch.setattr(module, "restricted_fermionic", bad_fermionic)
    monkeypatch.setattr(virasoro, "rocha_caridi", bad_rocha_caridi)
    monkeypatch.setattr(weyl, "closed_form_action", bad_closed_form)
    monkeypatch.setattr(weyl, "bgg_generators", bad_generators)
    monkeypatch.setattr(weyl, "homology_dim_predicate", bad_predicate)
    # the memoized orbit items and fusion tables must neither serve correct
    # values to the broken run nor keep its broken values afterwards
    qkostka.clear_caches()
    yield
    qkostka.clear_caches()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_golden_failing_report(fmt, broken_routes, capsys):
    code = cli.main(
        ["verify", "all", "--max-weight", "6", "--max-level", "2", "--order", "8",
         "--format", fmt]
    )
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out[out.index("{"):])
    assert [s["suite"] for s in report["suites"]] == list(SUITES)
    assert all(s["failures"] > 0 for s in report["suites"])
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FAILING_REPORT_SHA256[fmt]
