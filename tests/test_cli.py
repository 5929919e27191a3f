import hashlib
import json

import pytest

from qkostka import cli
from qkostka.cache import cache_key, load, resolve_cache_dir, store
from qkostka.compositions import Composition
from qkostka.qexact import QPolynomial


def run(capsys, *argv):
    # normalize argparse's SystemExit to the process exit code it produces
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kostka_text(capsys):
    code, out, _ = run(capsys, "kostka", "--m", "1,1,1,1", "--weight", "0", "--level", "2")
    assert code == 0
    assert out.strip() == "q^2 + q^4"


def test_kostka_routes_agree(capsys):
    outputs = set()
    for route in ("fermionic", "alternating", "charge", "bgg"):
        code, out, _ = run(
            capsys,
            "kostka", "--m", "1^6", "--weight", "0", "--level", "2", "--route", route,
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_kostka_json(capsys):
    code, out, _ = run(
        capsys,
        "kostka", "--m", "1^4", "--weight", "0", "--level", "2", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == "1^4"
    assert QPolynomial.from_json_dict(obj["polynomial"]) == QPolynomial.from_integer_terms(
        {2: 1, 4: 1}
    )


def test_kostka_csv(capsys):
    code, out, _ = run(
        capsys,
        "kostka", "--m", "1^4", "--weight", "0", "--level", "2",
        "--route", "reversed", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "level,weight,m,route,exponent_numerator,coefficient"
    assert lines[1:] == ["2,0,1^4,reversed,0,1", "2,0,1^4,reversed,8,1"]


def test_kostka_unrestricted(capsys):
    code, out, _ = run(capsys, "kostka", "--m", "1^4", "--weight", "0")
    assert code == 0
    assert out.strip() == "q^2 + q^4"


def test_kostka_unrestricted_charge_route(capsys):
    code_a, out_a, _ = run(capsys, "kostka", "--m", "2,2,1", "--weight", "1")
    code_b, out_b, _ = run(
        capsys, "kostka", "--m", "2,2,1", "--weight", "1", "--route", "charge"
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_exit_code_2_on_bad_input(capsys):
    code, _, _ = run(capsys, "kostka", "--m", "bogus", "--weight", "0")
    assert code == 2

    code, _, err = run(capsys, "kostka", "--m", "1^4", "--weight", "0", "--route", "reversed")
    assert code == 2
    assert "level" in err

    code, _, _ = run(capsys, "kostka", "--m", "1^4", "--weight", "-1")
    assert code == 2

    code, _, _ = run(capsys, "kostka", "--m", "1^4", "--weight", "0", "--route", "bgg")
    assert code == 2

    code, _, _ = run(capsys, "verify", "nonsense")
    assert code == 2

    for argv in (
        ("verify", "routes", "--max-level", "0"),
        ("verify", "routes", "--max-weight", "-1"),
        ("table", "kostka", "--max-level", "0"),
        ("table", "kostka", "--max-weight", "-1"),
        ("verify", "coset", "--order", "-1"),
        ("table", "characters", "--order", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert argv[2] in err


@pytest.mark.parametrize("route", ["alternating", "bgg", "reversed"])
def test_a_route_with_no_unrestricted_form_needs_a_level(capsys, route):
    code, out, err = run(capsys, "kostka", "--m", "1^6,2", "--weight", "2", "--route", route)
    assert (code, out, err) == (2, "", "error: this route needs --level\n")


# the degree reversal as the --reversed flag printed it, before it became a route
REVERSED_BYTES = {
    "text": "1 + q + 2*q^2 + 3*q^3 + 2*q^4 + 2*q^5 + q^6 + q^7\n",
    "json": '{"level":3,"m":"1^6,2","polynomial":{"den":4,"terms":[[0,"1"],[4,"1"],'
            '[8,"2"],[12,"3"],[16,"2"],[20,"2"],[24,"1"],[28,"1"]]},'
            '"route":"reversed","weight":2}\n',
    "csv": "level,weight,m,route,exponent_numerator,coefficient\n"
           + "".join(f'3,2,"1^6,2",reversed,{4 * d},{c}\n'
                     for d, c in enumerate([1, 1, 2, 3, 2, 2, 1, 1])),
}


@pytest.mark.parametrize("fmt", sorted(REVERSED_BYTES))
def test_reversed_route_prints_the_bytes_of_the_removed_flag(capsys, fmt):
    code, out, err = run(
        capsys, "kostka", "--m", "1^6,2", "--weight", "2", "--level", "3",
        "--route", "reversed", "--format", fmt,
    )
    assert (code, out, err) == (0, REVERSED_BYTES[fmt], "")


@pytest.mark.parametrize("route", ["fermionic", "alternating", "charge", "bgg"])
@pytest.mark.parametrize(
    "m, weight, level, message",
    [
        ("1^4", "0", "0", "level must be positive"),
        ("1^4", "0", "-1", "level must be positive"),
        ("1^4", "3", "2", "weight must satisfy 0 <= l <= k"),
        # a spin above the level must not reach the zero shortcut first
        ("3", "9", "2", "weight must satisfy 0 <= l <= k"),
    ],
)
def test_every_route_refuses_the_same_bad_input(capsys, route, m, weight, level, message):
    code, out, err = run(
        capsys, "kostka", "--m", m, "--weight", weight, "--level", level, "--route", route,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_kostka_invalid_weight_for_level(capsys):
    code, _, err = run(
        capsys, "kostka", "--m", "1^4", "--weight", "3", "--level", "2"
    )
    assert code == 2


def test_verify_text(capsys):
    code, out, _ = run(
        capsys,
        "verify", "routes", "--max-weight", "4", "--max-level", "2",
    )
    assert code == 0
    assert "suite routes" in out
    assert "-> pass" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys,
        "verify", "routes", "--max-weight", "4", "--max-level", "2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["suites"][0]["suite"] == "routes"
    assert report["suites"][0]["passed"] is True
    assert report["suites"][0]["failures"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "routes", "--workers", "2"),
        ("table", "kostka", "--workers", "2"),
        ("kostka", "--m", "1^4", "--weight", "0", "--level", "2", "--restricted"),
        ("kostka", "--m", "1^4", "--weight", "0", "--level", "2", "--reversed"),
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_verify_exit_one_on_hard_failure(monkeypatch, capsys):
    from qkostka import verify as verify_mod
    from qkostka.reports import AuditRecord

    def broken(cfg):
        res = verify_mod.SuiteResult(suite="routes")
        res.checked = 1
        res.records.append(
            AuditRecord({"x": 0}, "a", "b", QPolynomial.one(), hard=True)
        )
        return res

    monkeypatch.setitem(verify_mod.SUITES, "routes", broken)
    code, out, _ = run(capsys, "verify", "routes")
    assert code == 1
    assert "FAIL" in out


def test_verify_exit_zero_on_soft_mismatch(monkeypatch, capsys):
    from qkostka import verify as verify_mod
    from qkostka.reports import AuditRecord

    def audited(cfg):
        res = verify_mod.SuiteResult(suite="routes")
        res.checked = 1
        res.records.append(
            AuditRecord({"x": 0}, "a", "b", QPolynomial.one(), hard=False)
        )
        return res

    monkeypatch.setitem(verify_mod.SUITES, "routes", audited)
    code, out, _ = run(capsys, "verify", "routes")
    assert code == 0
    assert "audit mismatches 1" in out


def test_table_kostka_csv(capsys):
    code, out, _ = run(
        capsys, "table", "kostka", "--max-weight", "3", "--max-level", "2"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "level,weight,m,exponent_numerator,coefficient"
    assert "1,0,1^2,4,1" in lines


def test_table_verlinde(capsys):
    code, out, _ = run(
        capsys, "table", "verlinde", "--max-weight", "4", "--max-level", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "verlinde"
    assert all(row["exponent_numerator"] == 0 for row in payload["rows"])


def test_table_characters(capsys):
    code, out, _ = run(
        capsys, "table", "characters", "--model", "3", "4", "--order", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    vacuum = [
        row for row in payload["rows"] if row["r"] == 1 and row["s"] == 1
    ]
    assert [(row["exponent_numerator"], row["coefficient"]) for row in vacuum] == [
        (0, "1"), (8, "1"), (12, "1"), (16, "2"),
    ]


def test_table_refuses_a_negative_order_before_the_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out, err = run(
        capsys, "table", "characters", "--order", "-1", "--cache-dir", str(cache)
    )
    assert (code, out) == (2, "")
    assert "--order must be nonnegative" in err
    assert not cache.exists()


@pytest.mark.parametrize("model", [("1", "4"), ("3", "1"), ("0", "-3"), ("4", "6")])
def test_table_characters_refuses_a_bad_model_before_the_cache(model, tmp_path, capsys):
    code, out, err = run(
        capsys, "table", "characters", "--model", *model, "--cache-dir", str(tmp_path)
    )
    assert (code, out, err) == (2, "", "error: model labels must be coprime and at least 2\n")
    assert list(tmp_path.iterdir()) == []


MODEL_ERROR = "error: model labels must be coprime and at least 2\n"


def test_table_characters_refusals_and_their_order(tmp_path, capsys):
    # the model is checked only on a cache miss, yet a bad one still comes
    # first, and a refused model creates no cache directory
    cache = tmp_path / "cache"
    missing_out = tmp_path / "missing" / "x.csv"
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cases = [
        (["--model", "4", "6"], (2, "", MODEL_ERROR)),
        (["--model", "4", "6", "--out", str(missing_out)], (2, "", MODEL_ERROR)),
        (["--model", "1", "4", "--cache-dir", str(blocker)], (2, "", MODEL_ERROR)),
        (["--model", "3", "4", "--out", str(missing_out)],
         (2, "", f"error: [Errno 2] No such file or directory: '{missing_out}'\n")),
        (["--model", "3", "4", "--cache-dir", str(blocker)],
         (2, "", f"error: [Errno 17] File exists: '{blocker}'\n")),
    ]
    for argv, want in cases:
        argv = ["table", "characters", "--order", "4", *argv]
        if "--cache-dir" not in argv:
            argv += ["--cache-dir", str(cache)]
        assert run(capsys, *argv) == want, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
    assert blocker.read_text() == "not a directory"


def test_table_characters_cache_hit_checks_out_before_printing(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["table", "characters", "--order", "4", "--cache-dir", str(cache)]
    code, stored, err = run(capsys, *args)
    assert code == 0 and err.startswith("cache store ")
    missing_out = tmp_path / "missing" / "x.csv"
    assert run(capsys, *args, "--out", str(missing_out)) == (
        2, "", f"error: [Errno 2] No such file or directory: '{missing_out}'\n"
    )
    assert run(capsys, *args) == (0, stored, "cache hit " + err.split()[-1] + "\n")


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        capsys, "table", "kostka", "--max-weight", "3", "--max-level", "1",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("level,weight,m,")


def test_table_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(
        capsys, "table", "kostka", "--max-weight", "3", "--max-level", "2",
        "--out", str(target),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


def test_table_cache_dir_naming_a_file_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    code, out, err = run(
        capsys, "table", "kostka", "--max-weight", "3", "--max-level", "2",
        "--cache-dir", str(blocker),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == "not a directory"


def _refuse_to_compute(monkeypatch):
    import qkostka.verify

    def fail(*args, **kwargs):
        raise AssertionError("computed before the path was checked")

    monkeypatch.setattr(cli, "_table_rows", fail)
    monkeypatch.setattr(qkostka.verify, "run_suites", fail)


@pytest.mark.parametrize("command", [["table", "kostka"], ["verify", "routes"]])
def test_unusable_out_is_refused_before_computing(command, tmp_path, capsys, monkeypatch):
    _refuse_to_compute(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cases = [
        (tmp_path / "missing" / "x.csv", "[Errno 2] No such file or directory"),
        (tmp_path / "missing" / "deeper" / "x.csv", "[Errno 2] No such file or directory"),
        (blocker / "x.csv", "[Errno 20] Not a directory"),
        (tmp_path, "[Errno 21] Is a directory"),
    ]
    for target, reason in cases:
        code, out, err = run(
            capsys, *command, "--max-weight", "16", "--max-level", "4", "--out", str(target)
        )
        assert (code, out, err) == (2, "", f"error: {reason}: '{target}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_cache_dir_naming_a_file_is_refused_before_computing(tmp_path, capsys, monkeypatch):
    _refuse_to_compute(monkeypatch)
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    for argv in (["--cache-dir", str(blocker)], []):
        monkeypatch.setenv("KOSTKA_CACHE_DIR", str(blocker))
        code, out, err = run(
            capsys, "table", "kostka", "--max-weight", "16", "--max-level", "4", *argv
        )
        assert (code, out, err) == (2, "", f"error: [Errno 17] File exists: '{blocker}'\n")
    assert blocker.read_text() == "not a directory"


def test_table_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["table", "kostka", "--max-weight", "3", "--max-level", "1",
            "--cache-dir", str(cache), "--format", "json"]
    code, first, err1 = run(capsys, *args)
    assert code == 0
    assert "cache store" in err1
    code, second, err2 = run(capsys, *args)
    assert code == 0
    assert "cache hit" in err2
    assert first == second


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_characters_cache_round_trip(fmt, tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["table", "characters", "--model", "4", "5", "--order", "12", "--format", fmt]
    code, plain, _ = run(capsys, *args)
    assert code == 0
    # the entry is keyed on the params the table prints
    key = cache_key("characters", {"p": 4, "p_prime": 5, "order": 12})
    outputs = []
    for verdict in ("store", "hit"):
        code, out, err = run(capsys, *args, "--cache-dir", str(cache))
        assert (code, err) == (0, f"cache {verdict} {key}\n")
        outputs.append(out)
    assert outputs == [plain, plain]
    assert load(cache, key)["params"] == {"p": 4, "p_prime": 5, "order": 12}
    # another model at the same order is another entry
    code, _, err = run(capsys, "table", "characters", "--model", "3", "5", "--order", "12",
                       "--cache-dir", str(cache))
    assert code == 0 and err.startswith("cache store ")
    assert len(list(cache.glob("*.json"))) == 2


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("KOSTKA_CACHE_DIR", str(cache))
    code, _, err = run(capsys, "table", "kostka", "--max-weight", "2", "--max-level", "1")
    assert code == 0
    assert "cache store" in err
    assert list(cache.glob("*.json"))


def test_resolve_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("KOSTKA_CACHE_DIR", raising=False)
    assert resolve_cache_dir(None) is None
    assert resolve_cache_dir(str(tmp_path)) == tmp_path
    monkeypatch.setenv("KOSTKA_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"


def test_cache_load_tolerates_garbage(tmp_path):
    key = cache_key("kostka", {"a": 1})
    assert load(tmp_path, key) is None
    (tmp_path / f"{key}.json").write_text("{not json")
    assert load(tmp_path, key) is None
    payload = {"kind": "kostka", "params": {}, "columns": [], "rows": []}
    store(tmp_path, key, payload)
    assert load(tmp_path, key) == payload


def test_cache_key_stability(monkeypatch):
    a = cache_key("kostka", {"max_weight": 8, "max_level": 3})
    b = cache_key("kostka", {"max_level": 3, "max_weight": 8})
    assert a == b
    assert a != cache_key("kostka", {"max_weight": 9, "max_level": 3})
    assert a != cache_key("verlinde", {"max_weight": 8, "max_level": 3})
    monkeypatch.setattr("qkostka.cache.source_digest", lambda: "0" * 64)
    assert a != cache_key("kostka", {"max_weight": 8, "max_level": 3})


def test_factor_string_round_trip(capsys):
    assert cli.factor_string(Composition((4,))) == "1^4"
    assert cli.factor_string(Composition((4, 1))) == "1^4,2"
    assert cli.factor_string(Composition(())) == "0^0"


def test_exit_code_3_on_internal_fault(monkeypatch, capsys):
    from qkostka import verify as verify_mod

    def faulty(cfg):
        raise RuntimeError("route exploded")

    monkeypatch.setitem(verify_mod.SUITES, "routes", faulty)
    code, out, err = run(capsys, "verify", "routes")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "RuntimeError", "message": "route exploded"}


def test_exit_code_3_on_a_key_error_fault(monkeypatch, capsys):
    # argparse refuses unknown suite names, so a KeyError is a fault, not usage
    from qkostka import verify as verify_mod

    def faulty(cfg):
        raise KeyError("oops")

    monkeypatch.setitem(verify_mod.SUITES, "routes", faulty)
    code, out, err = run(capsys, "verify", "routes")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "KeyError", "message": "'oops'"}


def test_exit_code_3_on_recursion_error(capsys):
    # the occupation-vector recursion is deeper than the interpreter allows
    code, out, err = run(
        capsys,
        "kostka", "--m", "1^2202", "--weight", "0", "--level", "1", "--route", "alternating",
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "RecursionError"


def test_suite_names_are_the_sorted_verify_suites():
    from qkostka import verify as verify_mod

    assert list(cli.SUITE_NAMES) == sorted(verify_mod.SUITES)


# `verify --help` and the invalid-choice error as the CLI printed them when
# the choices came from sorted(verify.SUITES) (argparse of Python 3.10/3.11)
VERIFY_HELP = """\
usage: qkostka verify [-h] [--max-weight MAX_WEIGHT] [--max-level MAX_LEVEL]
                      [--order ORDER] [--format {text,json}] [--out OUT]
                      {abf,bgg,coset,fermionic-virasoro,routes,verlinde,weyl,all}

positional arguments:
  {abf,bgg,coset,fermionic-virasoro,routes,verlinde,weyl,all}

options:
  -h, --help            show this help message and exit
  --max-weight MAX_WEIGHT
  --max-level MAX_LEVEL
  --order ORDER
  --format {text,json}
  --out OUT             write the report here instead of stdout
"""

VERIFY_NOSUCH_ERROR = """\
usage: qkostka verify [-h] [--max-weight MAX_WEIGHT] [--max-level MAX_LEVEL]
                      [--order ORDER] [--format {text,json}] [--out OUT]
                      {abf,bgg,coset,fermionic-virasoro,routes,verlinde,weyl,all}
qkostka verify: error: argument suite: invalid choice: 'nosuch' (choose from \
'abf', 'bgg', 'coset', 'fermionic-virasoro', 'routes', 'verlinde', 'weyl', 'all')
"""


def test_verify_help_and_choice_error_bytes(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "verify", "--help") == (0, VERIFY_HELP, "")
    assert run(capsys, "verify", "nosuch") == (2, "", VERIFY_NOSUCH_ERROR)


# sha256 of stdout for each front-end path: every `kostka` route in every
# format on one restricted input, the two unrestricted routes, the degree
# reversal, and the three `table` kinds (no cache)
RESTRICTED = "kostka --m 2,1^5 --weight 1 --level 3"
UNRESTRICTED = "kostka --m 2,1^5 --weight 1"
RESTRICTED_TEXT_SHA256 = "8be89703296ad15c28edd98937b5473c88b1822307978c37b3d6d56c32a01dec"
GOLDEN_FRONT_END_SHA256 = {
    RESTRICTED: RESTRICTED_TEXT_SHA256,
    f"{RESTRICTED} --format json": "25e6182b66f4f6d31dee8160d298cc7c8b1a499942737328845aef53e9a49f14",
    f"{RESTRICTED} --format csv": "ffcc765cf0930d6d926b631b4a46d14d5d527eda45ead6d984d783bc16b10b9b",
    f"{RESTRICTED} --route alternating": RESTRICTED_TEXT_SHA256,
    f"{RESTRICTED} --route alternating --format json":
        "8798d566e512765dcee0feead4649ff1f9d509e6be81141ca94bc756388a73b4",
    f"{RESTRICTED} --route alternating --format csv":
        "d7dcdd78eba8781fbdc1d1dbe32cd92037ff6a32570004ca6a2a85ffaa4c48c9",
    f"{RESTRICTED} --route charge": RESTRICTED_TEXT_SHA256,
    f"{RESTRICTED} --route charge --format json":
        "f6abe14951caf6f65709f308c607257e9a71df117f7c10a6d945a13bed55b874",
    f"{RESTRICTED} --route charge --format csv":
        "ca7d47bc754682d5b0efc87207cf1ec2ffcb085055a6b25549256afa30e68e4f",
    f"{RESTRICTED} --route bgg": RESTRICTED_TEXT_SHA256,
    f"{RESTRICTED} --route bgg --format json":
        "b0f9fb17182a41e27940d0d1508148a84627353588aa3c396f356bd67d3b675f",
    f"{RESTRICTED} --route bgg --format csv":
        "6b27c83a6e24ccca2b84103e84138fb1e49ad13c5569633a9ee525efb098c53d",
    f"{RESTRICTED} --route reversed --format csv":
        "c9081cf83524276041ffd1fb3d07f9fe65144ce7223ba44097d0d6f66e750296",
    f"{UNRESTRICTED} --format json": "114bd927258a3d628cff067fe516aaa06c76994f8186cce1fb74e1ab46688f1a",
    f"{UNRESTRICTED} --format csv": "1e3bf32eae72f4f4afe56c9a8a6fe76d00ff86068e081e656fdd3a99f984b285",
    f"{UNRESTRICTED} --route charge --format json":
        "d6ce0dc6f2b9c97cc83840f73283492ffc5e6e608d1ffcca60e044adf151db00",
    f"{UNRESTRICTED} --route charge --format csv":
        "33050b6d959d26cf7399d36982ab288a5ad73e6a04e7bbaf06f14c47d2efdddd",
    "table kostka --max-weight 6 --max-level 3 --format json":
        "2fe2fa57b53b5a2b0fb88f0e01e1d1c7508b61451291bc58292e459acbc99fe3",
    "table verlinde --max-weight 10 --max-level 3":
        "18588bf035f8209a8da6a7844a4336e69fc481a986f7459ff55329bb7bfa74f7",
    "table verlinde --max-weight 10 --max-level 3 --format json":
        "150edb80e663f16132ae85379c7f9984b99e6657a5db756e7746eb52fc115270",
    "table characters --model 4 5 --order 16":
        "ece3efe289b6e95a985235eed332cfc062929f9cdc6367a9e138c9c336e5fa74",
    "table characters --model 4 5 --order 16 --format json":
        "35e3ae6dcda8aafba6a81bd74acd9e02420fe466227e10d177844ac964e77b49",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_FRONT_END_SHA256))
def test_golden_front_end_bytes(command, capsys, monkeypatch):
    monkeypatch.delenv("KOSTKA_CACHE_DIR", raising=False)
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FRONT_END_SHA256[command]
