"""Exact sl2 Kostka polynomials, level restriction, and character identities.

Everything is exact: big integers, rationals for fractional exponents,
no floating point anywhere. The same quantities are computed by several
independent routes (quasi-particle sums, tableau statistics, Weyl-orbit
alternating sums, functional models, theta quotients) and the test suite
holds the routes against each other.

Importing the package loads only the core the routes need:
`compositions`, `qexact`, `kostka` and `charge`, and not `fractions`. The
names exported from `abf`, `coinvariants`, `reports`, `verlinde`, `virasoro`
(the truncated q-series among them) and `weyl` load their module on first
use, so a short process pays only for what it calls.
"""

__version__ = "0.1.0"

from .compositions import (
    Composition,
    InvalidWeightError,
    InvariantError,
    ShapeContent,
    bridge_to_partition,
    composition_from_factors,
    min_form,
    norm_ss,
    parity_count,
    parse_factor_list,
    top_degree_h,
    weighted_size,
)
from .qexact import QPolynomial, gaussian_binomial, vector_gaussian_binomial
from .kostka import (
    alternating_sum_raw,
    fusion_char_hook,
    fusion_weight_char,
    restricted_alternating,
    restricted_fermionic,
    reversed_char_1N,
    reversed_restricted,
    unrestricted,
)
# not lazy: loading the submodule (which `kostka` does) binds the package
# attribute `charge` to the module, and only this import rebinds it to the
# function; a lazy export of that name would never be looked up
from .charge import charge, enumerate_ssyt, kostka_foulkes, kostka_sl2_oracle, reading_word

# exported name -> defining submodule, for the modules loaded on first use
_LAZY_EXPORTS = {
    name: module
    for module, names in (
        ("abf", ("AbfLabel", "abf_polynomial", "finitization_audit",
                 "grouped_identity_check", "inversion_check")),
        ("coinvariants", ("FunctionalModelSpec", "OracleScaleExceeded",
                          "build_constraint_matrix", "restricted_kostka_oracle")),
        ("reports", ("AuditRecord",)),
        ("verlinde", ("fuse_basic", "q1_consistency", "structure_constants")),
        ("virasoro", ("BranchingSeries", "LimitTermData", "MinimalModel", "QSeriesTruncated",
                      "bounded_partition_series", "branching_via_kostka_limit",
                      "conformal_weight", "coset_central_charge", "fermionic_character_sum",
                      "fermionic_term_limit", "rocha_caridi", "series_mismatches")),
        ("weyl", ("AffineWeight", "bgg_generators", "closed_form_action",
                  "euler_characteristic_bgg", "homology_dim_predicate",
                  "shifted_reflection")),
    )
    for name in names
}


def __getattr__(name: str):
    """Import the submodule behind a lazy export on first access (PEP 562)."""
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    # later lookups find the global and never come back here
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


def clear_caches() -> None:
    """Empty every in-memory result cache, so the next calls compute cold.

    Covers the charge oracle's per-content passes and the table of letter
    moves every pass shares, held up to a fixed number of row and subword
    numbers, the fusion slice tables, the Weyl orbit items per (l, k, |m|)
    and the Gaussian row store, whose walked rows are held up to a fixed
    budget of bits. Results do not change; only the time to the next
    answer does.
    """
    # imported here to keep private names out of the package namespace
    from .charge import _oracle_tables, _steps
    from .kostka import _fusion_tables
    from .qexact import _clear_row_store
    from .weyl import _orbit_items

    _oracle_tables.clear()
    _steps.clear()
    _fusion_tables.clear()
    _clear_row_store()
    _orbit_items.cache_clear()


__all__ = [
    "AbfLabel",
    "AffineWeight",
    "AuditRecord",
    "BranchingSeries",
    "Composition",
    "FunctionalModelSpec",
    "InvalidWeightError",
    "InvariantError",
    "LimitTermData",
    "MinimalModel",
    "OracleScaleExceeded",
    "QPolynomial",
    "QSeriesTruncated",
    "ShapeContent",
    "__version__",
    "abf_polynomial",
    "alternating_sum_raw",
    "bgg_generators",
    "bounded_partition_series",
    "branching_via_kostka_limit",
    "bridge_to_partition",
    "build_constraint_matrix",
    "charge",
    "clear_caches",
    "closed_form_action",
    "composition_from_factors",
    "conformal_weight",
    "coset_central_charge",
    "enumerate_ssyt",
    "euler_characteristic_bgg",
    "fermionic_character_sum",
    "fermionic_term_limit",
    "finitization_audit",
    "fuse_basic",
    "fusion_char_hook",
    "fusion_weight_char",
    "gaussian_binomial",
    "grouped_identity_check",
    "homology_dim_predicate",
    "inversion_check",
    "kostka_foulkes",
    "kostka_sl2_oracle",
    "min_form",
    "norm_ss",
    "parity_count",
    "parse_factor_list",
    "q1_consistency",
    "reading_word",
    "restricted_alternating",
    "restricted_fermionic",
    "restricted_kostka_oracle",
    "reversed_char_1N",
    "reversed_restricted",
    "rocha_caridi",
    "series_mismatches",
    "shifted_reflection",
    "structure_constants",
    "top_degree_h",
    "unrestricted",
    "vector_gaussian_binomial",
    "weighted_size",
]
