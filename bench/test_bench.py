"""Tests for the benchmark itself: python3 -m pytest bench -q"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import qkostka  # noqa: E402
from qkostka import virasoro  # noqa: E402
from qkostka.qexact import QPolynomial  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_inputs():
    assert workloads.poly_queries(5, 2) == workloads.poly_queries(5, 2)
    assert workloads.cli_commands(5, 2) == workloads.cli_commands(5, 2)
    assert workloads.poly_queries(5, 2) != workloads.poly_queries(6, 2)
    assert workloads.poly_queries(5, 2) != workloads.poly_queries(5, 3)
    assert workloads.cli_commands(5, 2) != workloads.cli_commands(6, 2)


def test_stream_sizes():
    assert len(workloads.poly_queries(0)) >= 100
    assert len(workloads.cli_commands(0)) >= 100


def test_self_time_on_synthetic_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9], whose
    # observer used 1.0 of its interval; g recurses into g
    tree = [
        ["a", 0.0, 10.0, -1, 0.0],
        ["b", 1.0, 4.0, 0, 0.0],
        ["c", 2.0, 3.0, 1, 0.0],
        ["b", 5.0, 9.0, 0, 1.0],
        ["g", 20.0, 30.0, -1, 0.0],
        ["g", 22.0, 26.0, 4, 0.0],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 3.0, 6.0, 4.0]
    reduced = spans.reduce_spans(tree)
    assert reduced["b"] == {"calls": 2, "self_s": 5.0, "outer_calls": 2, "outer_s": 7.0}
    assert reduced["g"] == {"calls": 2, "self_s": 10.0, "outer_calls": 1, "outer_s": 10.0}


def test_corrupted_coefficient_is_a_failure():
    bump = QPolynomial.one()
    for query in workloads.poly_queries(0):
        if query[0] == "branching_via_kostka_limit" and query[4] > 17:
            continue  # the longest limits; the short ones exercise the same check
        value = workloads.run_query(qkostka, query)
        assert workloads.check_query(qkostka, query, value) is None, query
        if query[0] == "fermionic_character_sum":
            continue  # checked through its derived series, as below
        if isinstance(value, QPolynomial):
            bad = value + bump
        else:
            coeffs = value.coefficients()
            coeffs[next(i for i, c in enumerate(coeffs) if c)] += 1
            series = type(value.series)(coeffs, value.offset)
            bad = virasoro.BranchingSeries(series, value.route, value.stabilized_at)
        assert workloads.check_query(qkostka, query, bad) is not None, query


def test_corrupted_cli_byte_is_a_failure():
    argv = ["kostka", "--m", "1^4", "--weight", "0", "--level", "2", "--format", "text"]
    assert workloads.check_cli(qkostka, argv, 0, b"q^2 + q^4\n") is None
    # a moved exponent keeps the value at q = 1; only the stream digest sees it
    assert workloads.check_cli(qkostka, argv, 0, b"q^2 + q^5\n") is None
    assert workloads.check_cli(qkostka, argv, 0, b"q^2 + 2*q^4\n") is not None
    assert workloads.check_cli(qkostka, argv, 1, b"q^2 + q^4\n") is not None
    report = b"suite weyl: checked 4003, failures 0, audit mismatches 0 -> pass\n"
    assert workloads.check_cli(qkostka, ["verify", "weyl", "--format", "text"], 0, report) is None
    broken = report.replace(b"failures 0", b"failures 1")
    assert workloads.check_cli(qkostka, ["verify", "weyl", "--format", "text"], 0, broken)


def test_digest_mismatch_counts_as_failure():
    items = [[["kostka"], 0, "ab"]]
    good = workloads.stream_digest(items)
    assert workloads.stream_digest([[["kostka"], 0, "ac"]]) != good
    runs = [{"attempted": 100, "failed": 0, "digest": good}]
    key = run.digest_key("cli-mix", 3, 0)
    assert run.tally("cli-mix", 3, runs, 1, {key: good})[:2] == (100, 0)
    assert run.tally("cli-mix", 3, runs, 1, {key: "0" * 64})[:2] == (100, 1)
    assert run.tally("cli-mix", 4, runs, 1, {key: "0" * 64})[:2] == (100, 0)


def test_spawn_speeds_use_references_around_each_group():
    # six groups of processes; the machine halves its speed after group 3
    refs = [0.04] * 4 + [0.08] * 3
    speeds = run.spawn_speeds([r * reference.SPAWN_S / 0.04 for r in refs],
                              6 * run.REFERENCE_EVERY)
    assert len(speeds) == 6 * run.REFERENCE_EVERY
    assert speeds[0] == 1.0 and speeds[-1] == 2.0
    assert speeds[:run.REFERENCE_EVERY] == [1.0] * run.REFERENCE_EVERY


def _bindings():
    """Identity of every value in qkostka namespaces, classes and public dicts."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "qkostka" and not name.startswith("qkostka."):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("qkostka."):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = id(member)
            if isinstance(value, dict) and not key.startswith("_"):
                for dkey, dvalue in value.items():
                    out[(name, key, dkey)] = id(dvalue)
    return out


def test_traced_run_restores_every_binding():
    import qkostka.cli  # noqa: F401  (load every module the recorder targets)
    from qkostka import kostka, verify, verlinde

    before = _bindings()
    original = kostka.restricted_fermionic
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert verlinde.restricted_fermionic is not original  # from-import rebound
        assert verlinde.restricted_fermionic.__wrapped__ is original
        assert verify.SUITES["routes"] is verify.suite_routes
        assert qkostka.charge is sys.modules["qkostka.charge"].charge
        verify.run_suites(["bgg"], verify.VerifyConfig(max_level=1))
        qkostka.restricted_fermionic(0, (6,), 2) * QPolynomial.one()
    finally:
        recorder.restore()
    assert _bindings() == before
    names = {span[0] for span in recorder.spans}
    assert {"verify.run", "verify.bgg", "kostka.fermionic", "qexact.mul"} <= names
    metrics = spans.layer_metrics(spans.reduce_spans(recorder.spans), recorder.counters)
    assert metrics["verify.checks"] > 0 and metrics["qexact.mul_calls"] >= 1


def test_per_layer_names_match_benchmark_spec():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
