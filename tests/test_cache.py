import hashlib

import pytest

from qkostka import __version__, cache, cli


def test_cache_key_changes_with_the_results_schema(monkeypatch):
    params = {"max_weight": 8, "max_level": 3}
    before = cache.cache_key("0.1.0", "kostka", params)
    monkeypatch.setattr(cache, "RESULTS_SCHEMA", cache.RESULTS_SCHEMA + 1)
    assert cache.cache_key("0.1.0", "kostka", params) != before


# sha256 of `qkostka table kostka --max-weight 8 --max-level 3` as CSV
GOLDEN_TABLE_SHA256 = "a89c5beec23be7c8de92a89359a6594b454e327347c393059c4d7655edf06bbf"


def test_golden_table_bytes(capsys):
    code = cli.main(["table", "kostka", "--max-weight", "8", "--max-level", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == 289
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE_SHA256, (
        "the computed table changed: disk caches now hold stale results, so bump "
        "qkostka.cache.RESULTS_SCHEMA and then update GOLDEN_TABLE_SHA256"
    )


@pytest.mark.parametrize(
    "entry",
    [
        "{}",
        "[1]",
        '{"rows": []}',
        '{"kind": "kostka", "params": {}, "columns": 5, "rows": []}',
        '{"kind": "kostka", "params": {}, "columns": ["a"], "rows": [1]}',
        '{"kind": "kostka", "params": {}, "columns": ["a"], "rows": [{"b": 1}]}',
        '{"kind": 7, "params": {}, "columns": [], "rows": []}',
        '{"kind": "kostka", "params": [], "columns": [], "rows": []}',
        '{"kind": "kostka", "params": {}, "columns": [1], "rows": []}',
    ],
)
def test_a_json_entry_that_is_no_table_is_a_miss(tmp_path, capsys, entry):
    argv = ["table", "kostka", "--max-weight", "4", "--max-level", "2"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    key = cache.cache_key(__version__, "kostka", {"max_weight": 4, "max_level": 2})
    (tmp_path / f"{key}.json").write_text(entry)
    assert cache.load(tmp_path, key) is None
    assert cli.main([*argv, "--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err == f"cache store {key}\n"
    assert cli.main([*argv, "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == cold
