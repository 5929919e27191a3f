"""Span recorder for the traced benchmark runs.

The recorder measures the library from outside. It rebinds public functions
and a few `QPolynomial` methods to timing wrappers, by identity, in every
`qkostka.*` module namespace and module-level dict that holds them. Modules
such as `verlinde`, `abf`, `weyl` and `virasoro` import names with
`from .x import f`, and `verify.SUITES` maps names to suite functions, so
rebinding only the defining module would miss those callers.

Each call becomes a span `[name, start, end, parent, excluded]`. `parent`
is the index of the enclosing span (-1 at the top). `excluded` is time
spent in this span's interval by the recorder's own observers, which read
sizes and counts off results after a child span ends; it is kept out of
every self time. Spans stay in memory and are reduced to per-name totals
when the run ends.

`compositions` and `reports` get no spans: their helpers are too fine-grained
to wrap without the wrapper dominating, so their time shows as self time
of their callers.
"""

from __future__ import annotations

import os
import sys
import time
from types import ModuleType

# (span name, module, attribute). Names sharing a span name add up.
TARGETS = (
    ("qexact.mul", "qkostka.qexact", "QPolynomial.__mul__"),
    ("qexact.add", "qkostka.qexact", "QPolynomial.__add__"),
    ("qexact.gaussian", "qkostka.qexact", "gaussian_binomial"),
    ("charge.oracle", "qkostka.charge", "kostka_sl2_oracle"),
    ("charge.enumerate", "qkostka.charge", "enumerate_ssyt"),
    ("charge.statistic", "qkostka.charge", "charge"),
    ("kostka.fermionic", "qkostka.kostka", "restricted_fermionic"),
    ("kostka.unrestricted", "qkostka.kostka", "unrestricted"),
    ("kostka.fusion_weight", "qkostka.kostka", "fusion_weight_char"),
    ("kostka.alternating", "qkostka.kostka", "restricted_alternating"),
    ("kostka.alternating", "qkostka.kostka", "alternating_sum_raw"),
    ("kostka.reversed", "qkostka.kostka", "reversed_restricted"),
    ("kostka.hook", "qkostka.kostka", "fusion_char_hook"),
    ("kostka.hook", "qkostka.kostka", "reversed_char_1N"),
    ("weyl.euler", "qkostka.weyl", "euler_characteristic_bgg"),
    ("weyl.generators", "qkostka.weyl", "bgg_generators"),
    ("verlinde.q1", "qkostka.verlinde", "q1_consistency"),
    ("verlinde.structure", "qkostka.verlinde", "structure_constants"),
    ("coinvariants.oracle", "qkostka.coinvariants", "restricted_kostka_oracle"),
    ("virasoro.branching", "qkostka.virasoro", "branching_via_kostka_limit"),
    ("virasoro.rocha_caridi", "qkostka.virasoro", "rocha_caridi"),
    ("virasoro.fermionic_sum", "qkostka.virasoro", "fermionic_character_sum"),
    ("abf.polynomial", "qkostka.abf", "abf_polynomial"),
    ("abf.inversion", "qkostka.abf", "inversion_check"),
    ("abf.grouped", "qkostka.abf", "grouped_identity_check"),
    ("abf.audit", "qkostka.abf", "finitization_audit"),
    ("verify.run", "qkostka.verify", "run_suites"),
    ("cache.load", "qkostka.cache", "load"),
    ("cache.store", "qkostka.cache", "store"),
    ("cli.main", "qkostka.cli", "main"),
    ("cli.serialize", "qkostka.cli", "_emit"),
    ("cli.serialize", "qkostka.cli", "_write_csv"),
    ("cli.serialize", "qkostka.qexact", "QPolynomial.to_json_dict"),
    ("cli.serialize", "qkostka.verify", "SuiteResult.to_json_dict"),
)

LAYERS = (
    "qexact", "charge", "kostka", "weyl", "verlinde", "coinvariants",
    "virasoro", "abf", "verify", "cache", "cli",
)

SUITES = ("routes", "verlinde", "weyl", "bgg", "coset", "fermionic-virasoro", "abf")

# The per-layer metrics a traced run reports: name -> (unit, better).
# Times are self times unless noted in layer_metrics; all values are per run.
PER_LAYER = {
    "qexact.mul_calls": ("count", "lower"),
    "qexact.mul_s": ("s", "lower"),
    "qexact.mul_term_products": ("count", "lower"),
    "qexact.add_calls": ("count", "lower"),
    "qexact.add_s": ("s", "lower"),
    "qexact.gaussian_calls": ("count", "lower"),
    "qexact.gaussian_s": ("s", "lower"),
    "qexact.max_terms": ("count", "lower"),
    "qexact.max_coeff_bits": ("bits", "lower"),
    "charge.oracle_calls": ("count", "lower"),
    "charge.oracle_s": ("s", "lower"),
    "charge.oracle_repeat_ratio": ("ratio", "lower"),
    "charge.enumerate_s": ("s", "lower"),
    "charge.tableaux": ("count", "lower"),
    "charge.statistic_s": ("s", "lower"),
    "kostka.fermionic_calls": ("count", "lower"),
    "kostka.fermionic_s": ("s", "lower"),
    "kostka.unrestricted_s": ("s", "lower"),
    "kostka.unrestricted_repeat_ratio": ("ratio", "lower"),
    "kostka.fusion_weight_s": ("s", "lower"),
    "kostka.alternating_s": ("s", "lower"),
    "kostka.reversed_s": ("s", "lower"),
    "weyl.euler_calls": ("count", "lower"),
    "weyl.euler_s": ("s", "lower"),
    "virasoro.branching_calls": ("count", "lower"),
    "virasoro.branching_s": ("s", "lower"),
    "virasoro.stabilized_at_mean": ("count", "lower"),
    "virasoro.rocha_caridi_s": ("s", "lower"),
    "abf.polynomial_s": ("s", "lower"),
    "coinvariants.oracle_s": ("s", "lower"),
    "verlinde.q1_s": ("s", "lower"),
    **{f"verify.{suite}_s": ("s", "lower") for suite in SUITES},
    "verify.checks": ("count", "higher"),
    "cache.load_calls": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.store_calls": ("count", "lower"),
    "cache.bytes_written": ("B", "lower"),
    "cache.load_s": ("s", "lower"),
    "cache.store_s": ("s", "lower"),
    "cli.interp_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.compute_s": ("s", "lower"),
    "cli.serialize_s": ("s", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _trimmed_parts(m) -> tuple[int, ...]:
    from qkostka.compositions import as_composition

    return as_composition(m).trimmed().parts


class Recorder:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._seen: dict[str, set] = {}
        self._undo: list = []

    # -- counters fed by observers ---------------------------------------

    def _add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _max(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _repeat(self, name: str, key) -> None:
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self._add(name + "_repeats", 1)
        seen.add(key)

    def _observe_mul(self, args, result) -> None:
        from qkostka.qexact import QPolynomial

        if not isinstance(result, QPolynomial):
            return
        a, b = args
        sizes = [len(p.terms()) if isinstance(p, QPolynomial) else 1 for p in (a, b)]
        self._add("qexact.mul_term_products", sizes[0] * sizes[1])
        terms = result.terms()
        self._max("qexact.max_terms", len(terms))
        self._max("qexact.max_coeff_bits", max((abs(c).bit_length() for _, c in terms), default=0))

    def _observers(self) -> dict:
        return {
            "qexact.mul": self._observe_mul,
            "charge.oracle": lambda a, r: self._repeat("charge.oracle", (a[0], _trimmed_parts(a[1]))),
            "charge.enumerate": lambda a, r: self._add("charge.tableaux", len(r)),
            "kostka.unrestricted": lambda a, r: self._repeat(
                "kostka.unrestricted", (a[0], _trimmed_parts(a[1]))
            ),
            "virasoro.branching": self._observe_branching,
            "cache.load": lambda a, r: self._add("cache.hits", r is not None),
            "cache.store": lambda a, r: self._add("cache.bytes_written", os.path.getsize(r)),
            "verify.suite": lambda a, r: self._add("verify.checks", r.checked),
        }

    def _observe_branching(self, args, result) -> None:
        if result.stabilized_at is not None:
            self._add("virasoro.stabilized_at_sum", result.stabilized_at)
            self._add("virasoro.stabilized_at_count", 1)

    # -- installation -----------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                t = clock()
                observe(args, result)
                if parent >= 0:
                    spans[parent][4] += clock() - t
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded qkostka namespace."""
        observers = self._observers()
        targets = list(TARGETS)
        verify = sys.modules.get("qkostka.verify")
        if verify is not None:
            targets += [(f"verify.{s}", "qkostka.verify", f"SUITES.{s}") for s in verify.SUITES]
        for name, module, attr in targets:
            if module not in sys.modules:
                continue
            original = _resolve(sys.modules[module], attr)
            observe = observers.get("verify.suite" if attr.startswith("SUITES.") else name)
            self._rebind(original, self.wrap(name, original, observe))

    def _rebind(self, original, wrapper) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qkostka" or n.startswith("qkostka.")]
        classes = {id(c): c for m in modules for c in vars(m).values()
                   if isinstance(c, type) and c.__module__.startswith("qkostka.")}
        for holder in modules + list(classes.values()):
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._undo.append((setattr, holder, key, original))
                elif isinstance(value, dict) and isinstance(holder, ModuleType) \
                        and not key.startswith("_"):
                    # public module-level tables such as verify.SUITES
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._undo.append((dict.__setitem__, value, dkey, original))

    def restore(self) -> None:
        while self._undo:
            setter, holder, key, original = self._undo.pop()
            setter(holder, key, original)


def _resolve(module, attr: str):
    head, _, tail = attr.partition(".")
    obj = getattr(module, head)
    if not tail:
        return obj
    return obj[tail] if isinstance(obj, dict) else vars(obj)[tail]


def self_times(spans: list) -> list[float]:
    """Per span: duration minus the time its direct children cover.

    Spans from one thread nest properly, so the direct children's intervals
    are disjoint and lie inside the parent's.
    """
    own = [end - start - excluded for _, start, end, _, excluded in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def reduce_spans(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time, and outer calls and time.

    An outer span has no ancestor of the same name, so recursion and nested
    same-name spans are counted once in `outer_s`.
    """
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "outer_calls": 0, "outer_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["outer_calls"] += 1
            row["outer_s"] += end - start
    return out


def layer_metrics(reduced: dict, counters: dict) -> dict[str, float]:
    """The per-layer metrics of one run, from reduced spans and counters."""

    def col(name: str, key: str) -> float:
        return reduced.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {
        "qexact.mul_calls": col("qexact.mul", "calls"),
        "qexact.mul_s": col("qexact.mul", "self_s"),
        "qexact.mul_term_products": counters.get("qexact.mul_term_products", 0),
        "qexact.add_calls": col("qexact.add", "calls"),
        "qexact.add_s": col("qexact.add", "self_s"),
        "qexact.gaussian_calls": col("qexact.gaussian", "outer_calls"),
        "qexact.gaussian_s": col("qexact.gaussian", "self_s"),
        "qexact.max_terms": counters.get("qexact.max_terms", 0),
        "qexact.max_coeff_bits": counters.get("qexact.max_coeff_bits", 0),
        "charge.oracle_calls": col("charge.oracle", "calls"),
        "charge.oracle_s": col("charge.oracle", "self_s"),
        "charge.oracle_repeats": counters.get("charge.oracle_repeats", 0),
        "charge.enumerate_s": col("charge.enumerate", "self_s"),
        "charge.tableaux": counters.get("charge.tableaux", 0),
        "charge.statistic_s": col("charge.statistic", "self_s"),
        "kostka.fermionic_calls": col("kostka.fermionic", "calls"),
        "kostka.fermionic_s": col("kostka.fermionic", "self_s"),
        "kostka.unrestricted_calls": col("kostka.unrestricted", "calls"),
        "kostka.unrestricted_s": col("kostka.unrestricted", "self_s"),
        "kostka.unrestricted_repeats": counters.get("kostka.unrestricted_repeats", 0),
        "kostka.fusion_weight_s": col("kostka.fusion_weight", "self_s"),
        "kostka.alternating_s": col("kostka.alternating", "self_s"),
        "kostka.reversed_s": col("kostka.reversed", "self_s"),
        "weyl.euler_calls": col("weyl.euler", "calls"),
        "weyl.euler_s": col("weyl.euler", "self_s"),
        "virasoro.branching_calls": col("virasoro.branching", "calls"),
        "virasoro.branching_s": col("virasoro.branching", "self_s"),
        "virasoro.stabilized_at_sum": counters.get("virasoro.stabilized_at_sum", 0),
        "virasoro.stabilized_at_count": counters.get("virasoro.stabilized_at_count", 0),
        "virasoro.rocha_caridi_s": col("virasoro.rocha_caridi", "self_s"),
        "abf.polynomial_s": col("abf.polynomial", "self_s"),
        "coinvariants.oracle_s": col("coinvariants.oracle", "self_s"),
        "verlinde.q1_s": col("verlinde.q1", "self_s"),
        "verify.checks": counters.get("verify.checks", 0),
        "cache.load_calls": col("cache.load", "calls"),
        "cache.hits": counters.get("cache.hits", 0),
        "cache.store_calls": col("cache.store", "calls"),
        "cache.bytes_written": counters.get("cache.bytes_written", 0),
        "cache.load_s": col("cache.load", "outer_s"),
        "cache.store_s": col("cache.store", "outer_s"),
        "cli.serialize_s": col("cli.serialize", "outer_s"),
        "cli.main_s": col("cli.main", "outer_s"),
    }
    for suite in SUITES:
        m[f"verify.{suite}_s"] = col(f"verify.{suite}", "outer_s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in reduced.items() if name.split(".")[0] == layer
        )
    return m
