import ast
from pathlib import Path

import qkostka
from qkostka.charge import _oracle_cached, kostka_sl2_oracle
from qkostka.kostka import (
    _fusion_weight_cached,
    _unrestricted_cached,
    fusion_weight_char,
    restricted_fermionic,
    unrestricted,
)
from qkostka.qexact import _gaussian_cache, gaussian_binomial


def _cache_sizes():
    return (
        len(_gaussian_cache),
        _oracle_cached.cache_info().currsize,
        _unrestricted_cached.cache_info().currsize,
        _fusion_weight_cached.cache_info().currsize,
    )


def _workload():
    m = (3, 1)
    return (
        [restricted_fermionic(l, m, 2) for l in range(3)],
        [unrestricted(l, m) for l in range(6)],
        [kostka_sl2_oracle(l, m) for l in range(6)],
        [fusion_weight_char(m, alpha) for alpha in range(-5, 6)],
        gaussian_binomial(12, 5),
    )


def test_clear_caches_empties_every_cache_and_keeps_results():
    warm = _workload()
    assert all(size > 0 for size in _cache_sizes())
    qkostka.clear_caches()
    assert _cache_sizes() == (0, 0, 0, 0)
    assert _workload() == warm
    assert "clear_caches" in qkostka.__all__


def test_no_assert_statements_in_the_library():
    # invariants must survive `python -O`, which strips assert statements
    src = Path(qkostka.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
