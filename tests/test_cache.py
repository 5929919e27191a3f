import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qkostka import cache, cli


def test_a_changed_source_byte_changes_the_key_and_an_unchanged_tree_hits(tmp_path):
    # a copy of the package in its own process: the key follows its sources
    package = tmp_path / "src" / "qkostka"
    shutil.copytree(
        Path(cache.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "qkostka.cli", "table", "kostka", "--max-weight", "4",
            "--max-level", "2", "--cache-dir", str(tmp_path / "cache")]

    def run():
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout, done.stderr

    key = cache.cache_key("kostka", {"max_weight": 4, "max_level": 2})
    out, err = run()
    assert err == f"cache store {key}\n"
    assert run() == (out, f"cache hit {key}\n")
    # swap the case of the first letter of one module's docstring
    source = package / "kostka.py"
    data = bytearray(source.read_bytes())
    first = data.index(b'"""') + 3
    assert chr(data[first]).isalpha()
    data[first] ^= 0x20
    source.write_bytes(data)
    out_after, err_after = run()
    assert out_after == out
    assert err_after.startswith("cache store ") and key not in err_after
    assert run() == (out, err_after.replace("store", "hit"))


# sha256 of `qkostka table kostka --max-weight 8 --max-level 3` as CSV
GOLDEN_TABLE_SHA256 = "a89c5beec23be7c8de92a89359a6594b454e327347c393059c4d7655edf06bbf"


def test_golden_table_bytes(capsys):
    code = cli.main(["table", "kostka", "--max-weight", "8", "--max-level", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == 289
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE_SHA256, (
        "the computed table changed: if that is meant, update GOLDEN_TABLE_SHA256 "
        "(cache keys follow the sources, so no disk cache serves the old table)"
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
    key = cache.cache_key("kostka", {"max_weight": 4, "max_level": 2})
    (tmp_path / f"{key}.json").write_text(entry)
    assert cache.load(tmp_path, key) is None
    assert cli.main([*argv, "--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err == f"cache store {key}\n"
    assert cli.main([*argv, "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == cold
