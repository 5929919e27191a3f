import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import qkostka
from qkostka import compositions, virasoro, weyl
from qkostka.charge import _oracle_tables, _steps, kostka_sl2_oracle
from qkostka.kostka import (
    _fusion_tables,
    fusion_weight_char,
    restricted_fermionic,
    unrestricted,
)
from qkostka.qexact import _row_store, gaussian_binomial
from qkostka.weyl import _orbit_items, euler_characteristic_bgg


def _cache_sizes():
    return (
        len(_oracle_tables),
        len(_steps),
        len(_fusion_tables),
        _orbit_items.cache_info().currsize,
        len(_row_store),
    )


def _workload():
    m = (3, 1)
    return (
        [restricted_fermionic(l, m, 2) for l in range(3)],
        [unrestricted(l, m) for l in range(6)],
        [kostka_sl2_oracle(l, m) for l in range(6)],
        [fusion_weight_char(m, alpha) for alpha in range(-5, 6)],
        gaussian_binomial(12, 5),
        [euler_characteristic_bgg(m, l, 2) for l in range(3)],
    )


def test_clear_caches_empties_every_cache_and_keeps_results():
    warm = _workload()
    assert all(size > 0 for size in _cache_sizes())
    qkostka.clear_caches()
    assert _cache_sizes() == (0, 0, 0, 0, 0)
    assert _workload() == warm
    assert "clear_caches" in qkostka.__all__


def test_every_module_level_cache_is_one_clear_caches_empties():
    # a memoized function or a module-level dict that starts empty is a
    # cache; each must be one of those _cache_sizes reads
    src = Path(qkostka.__file__).resolve().parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    name = ast.unparse(dec.func if isinstance(dec, ast.Call) else dec)
                    if name in ("lru_cache", "cache"):
                        found.add(f"{path.stem}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
                if node.value.keys:
                    continue
                target = node.targets[0] if isinstance(node, ast.Assign) else node.target
                found.add(f"{path.stem}.{ast.unparse(target)}")
    assert found == {
        "charge._oracle_tables",
        "charge._steps",
        "kostka._fusion_tables",
        "qexact._row_store",
        "weyl._orbit_items",
    }


def test_no_assert_statements_in_the_library():
    # invariants must survive `python -O`, which strips assert statements
    src = Path(qkostka.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports_in_the_library():
    # stands in for a linter: a top-level import that nothing reads is dead.
    # A string naming an identifier counts as a read, which covers quoted
    # annotations and the re-exports `__init__` lists in `__all__`.
    src = Path(qkostka.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_the_independent_oracles_import_only_the_input_and_arithmetic_layers():
    # the charge oracle and the functional model are the routes the fermionic
    # sum is checked against, so a rule they share with it (a level check
    # taken from kostka, say) must come from a layer below both. Any absolute
    # import of the package is refused too, since the library uses none.
    src = Path(qkostka.__file__).resolve().parent
    for name in ("charge", "coinvariants"):
        imported = set()
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                imported |= {n for n in names if n.partition(".")[0] == "qkostka"}
        assert imported <= {"compositions", "qexact"}, (name, imported)


# Classes that keep their own equality: the base every value class derives
# from, and QPolynomial, which compares and hashes by its terms.
OWN_EQUALITY = {"compositions.py:Value", "qexact.py:QPolynomial"}


def test_only_the_value_base_and_the_q_types_define_equality():
    # a class compared by its fields derives from compositions.Value, so the
    # _key/__eq__/__hash__ block is written once and not copied per class
    src = Path(qkostka.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef) or f"{path.name}:{node.name}" in OWN_EQUALITY:
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names = [ast.unparse(t) for t in targets]
                else:
                    continue
                found += [
                    f"{path.name}:{item.lineno} {node.name}.{name}"
                    for name in names
                    if name in ("_key", "__eq__", "__hash__")
                ]
    assert found == []


# Module-level functions that stay although nothing in the library names
# them and no export lists them. Each needs its reason here.
UNNAMED_FUNCTIONS_KEPT: dict[str, str] = {
    # PEP 562 hooks: Python itself calls them on the package
    "__init__.py:__getattr__": "lazy export lookup",
    "__init__.py:__dir__": "lists the lazy exports",
}


def test_every_library_function_is_exported_or_used():
    # a module-level function that no export lists and no library code names
    # is dead. A read of the name, an attribute of that name, or a string
    # holding it counts as a use; the definition itself does not.
    src = Path(qkostka.__file__).resolve().parent
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(src.glob("*.py"))
    }
    named = set(qkostka.__all__) | set(qkostka._LAZY_EXPORTS)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in named
        and f"{name}:{node.name}" not in UNNAMED_FUNCTIONS_KEPT
    ]
    assert found == []


# Modules a `kostka --route fermionic` process has no use for. Loading any of
# them at start-up puts their import time back into every short CLI call.
NOT_AT_START_UP = (
    "qkostka.verify",
    "qkostka.virasoro",
    "qkostka.abf",
    "qkostka.coinvariants",
    "qkostka.weyl",
    "qkostka.verlinde",
    "qkostka.reports",
    "qkostka.cache",
    "concurrent.futures",
    "dataclasses",
    "hashlib",
    "fractions",
)


def _last_line_of_fresh_process(code: str) -> str:
    """Run code in a new interpreter, without KOSTKA_CACHE_DIR, and return
    the last line it printed."""
    src = str(Path(qkostka.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "KOSTKA_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()[-1]


def _fresh_process(code: str):
    """Run code in a new interpreter and return the JSON of its last line."""
    return json.loads(_last_line_of_fresh_process(code))


def test_cli_start_up_loads_only_the_core():
    # modules the interpreter loaded before qkostka (site hooks) do not count
    loaded_after_import, loaded_after_kostka = _fresh_process(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"watched = {NOT_AT_START_UP!r}\n"
        "def new():\n"
        "    return sorted(m for m in watched if m in sys.modules and m not in before)\n"
        "import qkostka.cli\n"
        "after_import = new()\n"
        "qkostka.cli.main(['kostka', '--m', '1^4', '--weight', '0', '--level', '2'])\n"
        "print(json.dumps([after_import, new()]))\n"
    )
    assert loaded_after_import == []
    assert loaded_after_kostka == []


def test_table_kostka_cache_miss_loads_no_other_route():
    # without a cache directory every call is a miss that builds the grid
    loaded = _fresh_process(
        "import io, json, os, sys\n"
        "os.environ.pop('KOSTKA_CACHE_DIR', None)\n"
        "before = set(sys.modules)\n"
        "import qkostka.cli\n"
        "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        "qkostka.cli.main(['table', 'kostka', '--max-weight', '4', '--max-level', '2'])\n"
        "sys.stdout = stdout\n"
        "watched = ['qkostka.' + m for m in ('verify', 'abf', 'reports', 'virasoro', 'weyl')]\n"
        "watched.append('fractions')\n"
        "print(json.dumps(sorted(m for m in watched if m in sys.modules and m not in before)))\n"
    )
    assert loaded == []


def _loaded_by_cli(argv: list[str], watched: tuple[str, ...]) -> list[str]:
    """The watched modules a fresh `cli.main(argv)` loads, which must exit 0.

    The result is printed without json, so json can be watched too.
    """
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qkostka.cli\n"
        f"code = qkostka.cli.main({argv!r})\n"
        f"print('loaded', code, *[m for m in {watched!r} if m in sys.modules and m not in before])\n"
    )
    tag, exit_code, *loaded = _last_line_of_fresh_process(code).split()
    assert (tag, exit_code) == ("loaded", "0")
    return loaded


CHARACTER_LAYERS = ("qkostka.virasoro", "qkostka.abf", "qkostka.verlinde", "qkostka.coinvariants")


@pytest.mark.parametrize(
    "argv, watched",
    [
        (["verify", "weyl"], CHARACTER_LAYERS + ("fractions",)),
        (["verify", "bgg"], CHARACTER_LAYERS + ("fractions",)),
        (["verify", "verlinde"], ("qkostka.virasoro", "qkostka.abf", "fractions")),
        (["kostka", "--m", "1^6", "--weight", "0", "--level", "2"], ("json", "csv", "fractions")),
    ],
)
def test_a_command_loads_only_its_own_layers(argv, watched):
    # each such module is compiled in a process that has no bytecode cache
    assert _loaded_by_cli(argv, watched) == []


def test_a_table_characters_cache_hit_loads_no_virasoro(tmp_path):
    argv = ["table", "characters", "--order", "6", "--cache-dir", str(tmp_path), "--out",
            str(tmp_path / "table.csv")]
    assert _loaded_by_cli(argv, ("qkostka.virasoro",)) == ["qkostka.virasoro"]
    assert _loaded_by_cli(argv, ("qkostka.virasoro",)) == []


def test_a_routes_grid_loads_nothing_verify_did_not():
    # the default suite's layers come with `import qkostka.verify`
    loaded = _fresh_process(
        "import json, sys\n"
        "import qkostka.verify as verify\n"
        "before = set(sys.modules)\n"
        "verify.run_suites(['routes'], verify.VerifyConfig(max_weight=6, max_level=2))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qkostka')\n"
        "                        and m not in before)))\n"
    )
    assert loaded == []


def test_the_lazy_layers_load_without_dataclasses_or_inspect():
    # importing dataclasses pulls in inspect, ast and dis, and each class it
    # builds compiles its methods: a cost the first call into a layer pays
    loaded = _fresh_process(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import qkostka.verify, qkostka.coinvariants, qkostka.abf, qkostka.virasoro\n"
        "print(json.dumps(sorted(m for m in ('dataclasses', 'inspect')\n"
        "                        if m in sys.modules and m not in before)))\n"
    )
    assert loaded == []


def test_lazy_export_loads_its_module_on_first_access():
    lazy = sorted(set(qkostka._LAZY_EXPORTS.values()))
    assert lazy == ["abf", "coinvariants", "reports", "verlinde", "virasoro", "weyl"]
    # the truncated q-series moved out of the core into virasoro
    for name in ("rocha_caridi", "QSeriesTruncated", "bounded_partition_series"):
        before, after, stored = _fresh_process(
            "import json, sys\n"
            "import qkostka\n"
            f"lazy = {['qkostka.' + m for m in lazy]!r}\n"
            "before = [m for m in lazy if m in sys.modules]\n"
            f"qkostka.{name}\n"
            "after = [m for m in lazy if m in sys.modules]\n"
            f"print(json.dumps([before, after, {name!r} in vars(qkostka)]))\n"
        )
        assert before == [], name
        # virasoro imports nothing lazy beyond itself
        assert after == ["qkostka.virasoro"], name
        assert stored, name


def test_the_package_import_loads_no_fractions():
    # `fractions` and the `decimal` it imports are compiled in every process
    # that has no bytecode cache; only rational exponents need them
    loaded = _fresh_process(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import qkostka\n"
        "print(json.dumps(sorted(m for m in ('fractions', 'decimal')\n"
        "                        if m in sys.modules and m not in before)))\n"
    )
    assert loaded == []


def test_the_kernel_refuses_and_accepts_exponents_in_a_process_without_fractions():
    # qexact never imports `fractions` for an exponent, so the refusals and
    # the Fraction cases must not lean on an import made at start-up
    refusals, accepted = _fresh_process(
        "import json, sys\n"
        "from qkostka.qexact import QPolynomial, exponent_numerator\n"
        "if 'fractions' in sys.modules:\n"
        "    raise SystemExit('fractions was loaded before the first exponent')\n"
        "p = QPolynomial.q_power(2, 3)\n"
        "calls = [exponent_numerator, QPolynomial.q_power, p.shifted, p.coefficient]\n"
        "def refusal(call, bad):\n"
        "    try:\n"
        "        call(bad)\n"
        "    except ValueError as exc:\n"
        "        return str(exc)\n"
        "refusals = [[refusal(call, bad) for bad in (1.5, '3/2')] for call in calls]\n"
        "from fractions import Fraction\n"
        "refusals += [[refusal(call, Fraction(1, 3))] for call in calls]\n"
        "five = Fraction(5, 4)\n"
        "q = QPolynomial.q_power(five, 7)\n"
        "lo, hi = (q + p).min_exponent(), (q + p).max_exponent()\n"
        "accepted = [exponent_numerator(five), q.terms(), p.shifted(five).terms(),\n"
        "            q.coefficient(five), type(lo) is Fraction, type(hi) is Fraction,\n"
        "            str(lo), str(hi)]\n"
        "print(json.dumps([refusals, accepted]))\n"
    )
    wrong_type = ["exponent 1.5 is not an int or a Fraction",
                  "exponent '3/2' is not an int or a Fraction"]
    off_grid = ["exponent 1/3 does not lie on the 1/4 grid"]
    assert refusals == [wrong_type] * 4 + [off_grid] * 4
    assert accepted == [5, [[5, 7]], [[13, 3]], 7, True, True, "5/4", "2"]


def test_every_export_is_its_defining_modules_object():
    for name in qkostka.__all__:
        if name == "__version__":
            continue
        value = getattr(qkostka, name)
        module = sys.modules[value.__module__]
        # clear_caches is the one export the package itself defines
        assert module.__name__.partition(".")[0] == "qkostka", name
        assert getattr(module, name) is value, name
        if name in qkostka._LAZY_EXPORTS:
            assert module.__name__ == "qkostka." + qkostka._LAZY_EXPORTS[name], name
    assert set(qkostka._LAZY_EXPORTS) <= set(qkostka.__all__)
    assert set(qkostka.__all__) <= set(dir(qkostka))


def test_star_import_fills_a_fresh_namespace():
    namespace: dict = {}
    exec("from qkostka import *", namespace)
    assert set(qkostka.__all__) <= set(namespace)
    assert namespace["rocha_caridi"] is qkostka.rocha_caridi


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'qkostka' has no attribute 'no_such_name'"):
        qkostka.no_such_name
    assert not hasattr(qkostka, "no_such_name")


def test_charge_stays_the_function_after_every_lazy_export_loads():
    for name in qkostka._LAZY_EXPORTS:
        getattr(qkostka, name)
    assert not isinstance(qkostka.charge, ModuleType)
    assert qkostka.charge is sys.modules["qkostka.charge"].charge
    m = (3, 1)
    for l in range(3):
        assert qkostka.restricted_alternating(l, m, 2, source="charge") == (
            qkostka.restricted_fermionic(l, m, 2)
        )


_REFUSALS = {
    "hook with a negative count": (
        lambda: qkostka.fusion_char_hook(-1, 0, 0), ValueError, "hook parameters must be nonnegative"),
    "reversed 1^N with parity 2": (
        lambda: qkostka.reversed_char_1N(1, 2, 0), ValueError, "i selects a parity and must be 0 or 1"),
    "reversed 1^N with a negative s": (
        lambda: qkostka.reversed_char_1N(1, 0, -1), ValueError, "s must be nonnegative"),
    "vector binomial of unequal lengths": (
        lambda: qkostka.vector_gaussian_binomial([1], []), ValueError, "vector length mismatch"),
    "partition series of negative order": (
        lambda: qkostka.bounded_partition_series(3, -1), ValueError, "order must be nonnegative"),
    "empty truncated series": (
        lambda: qkostka.QSeriesTruncated([]), ValueError,
        "series needs at least the constant coefficient"),
    "coefficient past the order": (
        lambda: qkostka.QSeriesTruncated([1, 2]).coefficient(2), IndexError,
        "coefficient beyond the truncation order"),
    "Rocha-Caridi of negative order": (
        lambda: qkostka.rocha_caridi(qkostka.MinimalModel(3, 4, 1, 1), -1), ValueError,
        "order must be nonnegative"),
    "Kostka limit of negative order": (
        lambda: qkostka.branching_via_kostka_limit(0, 0, 1, 0, -1), ValueError,
        "order must be nonnegative"),
    "fermionic character of negative order": (
        lambda: qkostka.fermionic_character_sum(0, 0, 1, -1), ValueError,
        "order must be nonnegative"),
    "fermionic limit term of the wrong width": (
        lambda: qkostka.fermionic_term_limit((1,), 0, 0, 2), ValueError,
        "t must be a nonnegative vector of width k"),
    "coset gap of odd label sum": (
        lambda: virasoro.coset_gap(0, 0, 1, 1), ValueError, "i + j + l must be even"),
    "closed form of negative power": (
        lambda: qkostka.closed_form_action("b", -1, qkostka.AffineWeight(0, 1, 0)), ValueError,
        "word power must be nonnegative"),
    "closed form of unknown branch": (
        lambda: qkostka.closed_form_action("e", 0, qkostka.AffineWeight(0, 1, 0)),
        weyl.BranchError, "unknown branch 'e'"),
    "generators of negative length": (
        lambda: qkostka.bgg_generators(-1, 0, 1), ValueError, "length must be nonnegative"),
    "homology slice of negative length": (
        lambda: qkostka.homology_dim_predicate(-1, 0, 0, 1), ValueError,
        "length and weight must be nonnegative"),
    "shape and content of unequal size": (
        lambda: qkostka.ShapeContent((2, 1), (1, 1)), ValueError,
        "content size must match the shape"),
    "functional model of the wrong variable count": (
        lambda: qkostka.FunctionalModelSpec(3, 2, 0, (4,)), ValueError,
        "variable count must equal (|m| - l)/2"),
    "grouped identity with the hook spin at the level": (
        lambda: qkostka.grouped_identity_check(2, 2, 0, 4), ValueError,
        "hook spin must stay strictly below the level"),
    "lowest exponent of zero": (
        lambda: qkostka.QPolynomial.zero().min_exponent(), ValueError,
        "zero polynomial has no minimum exponent"),
    "highest exponent of zero": (
        lambda: qkostka.QPolynomial.zero().max_exponent(), ValueError,
        "zero polynomial has no maximum exponent"),
    "JSON polynomial with denominator 2": (
        lambda: qkostka.QPolynomial.from_json_dict({"den": 2, "terms": []}), ValueError,
        "unsupported exponent denominator"),
    "hook vector of a negative count": (
        lambda: compositions.hook_composition(-1, 0), ValueError,
        "hook parameters must be nonnegative"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_public_refusals_raise_their_documented_error(case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
