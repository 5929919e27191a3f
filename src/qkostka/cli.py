"""Command-line front end: single evaluations, verification sweeps, tables.

Commands:
  kostka  print one polynomial (restricted, unrestricted, or reversed)
  verify  run an invariant sweep, exit 1 if a hard identity fails
  table   write a CSV/JSON table over a parameter grid, with caching

Exit codes: 0 success / all checks pass, 1 hard verification failure,
2 usage error (a bad argument, or an --out or cache path that cannot be
used), 3 internal error: any other exception is a program fault, reported
as one JSON line {"error": <exception type>, "message": <text>} on
stderr. Audit-class residuals (published formulas known to disagree with
their derivations) are reported as data and never affect exit codes.
All output is deterministic: repeated runs print the same bytes.

`kostka` picks its function from one route table, the degree reversal
being one more route; a route with no unrestricted form needs --level. The
`table` kinds share one row builder, and one function renders JSON and
CSV. A command imports only what it uses, since a process that has no
bytecode cache compiles every module it loads: `kostka` the core (plus
`weyl` for `--route bgg`); `verify` the routes suite's layers, `kostka` and
`weyl`, and each other suite its own layer when it runs; `table` the cache
and, only on a miss, its kind's modules, so a `characters` hit never loads
`virasoro` (the model is checked on a miss, still before `--out`). `json`,
`csv` and `io` load only where those formats are printed.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys

from . import __version__, kostka
from .charge import kostka_sl2_oracle
from .compositions import Composition, admissible_compositions, parse_factor_list
from .qexact import QPolynomial

# sorted(verify.SUITES), spelled out so that parsing needs no import of verify
SUITE_NAMES = ("abf", "bgg", "coset", "fermionic-virasoro", "routes", "verlinde", "weyl")


def factor_argument(text: str) -> Composition:
    try:
        return parse_factor_list(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def factor_string(m: Composition) -> str:
    """Canonical factor-list form, inverse of parse_factor_list."""
    chunks = []
    for spin, count in enumerate(m.parts, start=1):
        if count == 1:
            chunks.append(str(spin))
        elif count > 1:
            chunks.append(f"{spin}^{count}")
    return ",".join(chunks) if chunks else "0^0"


def _polynomial_rows(params: dict, terms) -> list[dict]:
    """One row per (exponent numerator, coefficient) pair, after params."""
    return [{**params, "exponent_numerator": num, "coefficient": str(c)} for num, c in terms]


_TERM_COLUMNS = ["exponent_numerator", "coefficient"]


def _write_csv(stream, columns: list[str], rows: list[dict]) -> None:
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row.get(c, "") for c in columns] for row in rows)


def _render(fmt: str, blob: dict | None, columns: list[str], rows: list[dict]) -> str:
    """Compact sorted-key JSON of blob, or CSV of rows under columns."""
    if fmt == "json":
        import json

        return json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n"
    import io

    buf = io.StringIO()
    _write_csv(buf, columns, rows)
    return buf.getvalue()


def _check_out(out: str | None) -> None:
    """Raise, before any computing, the OSError that _emit would raise for
    an --out path that is a directory or whose directory is missing or is
    not a directory."""
    if not out or out == "-":
        return
    try:
        mode = os.stat(os.path.dirname(out) or ".").st_mode
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    if not stat.S_ISDIR(mode):
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), out)
    if os.path.isdir(out):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), out)


def _emit(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bgg(l: int, m: Composition, k: int) -> QPolynomial:
    from .weyl import euler_characteristic_bgg

    return euler_characteristic_bgg(m, l, k)


# route -> (restricted K(l, m, k), unrestricted K(l, m) or None when the
# route needs --level). Each entry looks its function up when called, so a
# wrapper bound over a library function after import (a tracer, a test
# double) also sees the CLI's calls.
_ROUTES = {
    "fermionic": (
        lambda l, m, k: kostka.restricted_fermionic(l, m, k),
        lambda l, m: kostka.unrestricted(l, m),
    ),
    "alternating": (lambda l, m, k: kostka.restricted_alternating(l, m, k), None),
    "charge": (
        lambda l, m, k: kostka.restricted_alternating(l, m, k, source="charge"),
        lambda l, m: kostka_sl2_oracle(l, m),
    ),
    "bgg": (_bgg, None),
    "reversed": (lambda l, m, k: kostka.reversed_restricted(l, m, k), None),
}


def cmd_kostka(args) -> int:
    k, l, m, route = args.level, args.weight, args.m, args.route
    restricted, unrestricted = _ROUTES[route]
    if k is None and unrestricted is None:
        print("error: this route needs --level", file=sys.stderr)
        return 2
    poly = unrestricted(l, m) if k is None else restricted(l, m, k)
    params = {"level": "" if k is None else k, "weight": l, "m": factor_string(m), "route": route}
    if args.format == "text":
        text = f"{poly}\n"
    elif args.format == "json":
        text = _render("json", {**params, "polynomial": poly.to_json_dict()}, [], [])
    else:
        rows = _polynomial_rows(params, poly.terms())
        text = _render("csv", None, [*params, *_TERM_COLUMNS], rows)
    _emit(text, None)
    return 0


def cmd_verify(args) -> int:
    from .verify import VerifyConfig, run_suites

    _check_out(args.out)
    cfg = VerifyConfig(max_weight=args.max_weight, max_level=args.max_level, order=args.order)
    results = run_suites([args.suite], cfg)
    all_passed = all(r.passed for r in results)
    if args.format == "text":
        summary = (
            f"suite {r.suite}: checked {r.checked}, failures {len(r.failures)}, "
            f"audit mismatches {r.audit_mismatches} -> {'pass' if r.passed else 'FAIL'}\n"
            for r in results
        )
        _emit("".join(summary), args.out)
    if args.format == "json" or not all_passed:
        # a failing text run follows its summary with the report on stdout
        import json

        report = {"suites": [r.to_json_dict() for r in results]}
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        _emit(text, args.out if args.format == "json" else None)
    return 0 if all_passed else 1


def _table_params(args) -> dict:
    """The params a table prints, which also key its cache entry."""
    if args.kind == "characters":
        p, pp = args.model
        return {"p": p, "p_prime": pp, "order": args.order}
    return {"max_weight": args.max_weight, "max_level": args.max_level}


def _table_rows(kind: str, args) -> tuple[list[dict], list[str]]:
    if kind == "characters":
        from .virasoro import MinimalModel, rocha_caridi

        p, pp = args.model
        rows = []
        for r in range(1, p):
            for s in range(1, pp):
                bs = rocha_caridi(MinimalModel(p, pp, r, s), args.order)
                params = {"p": p, "p_prime": pp, "r": r, "s": s, "offset": str(bs.offset)}
                terms = [(4 * d, c) for d, c in enumerate(bs.coefficients()) if c]
                rows += _polynomial_rows(params, terms)
        columns = ["p", "p_prime", "r", "s", "offset", *_TERM_COLUMNS]
        return rows, columns
    if kind == "verlinde":
        from .verlinde import structure_constants
    rows = []
    for k in range(1, args.max_level + 1):
        for m in admissible_compositions(args.max_weight, k):
            if kind == "kostka":
                by_weight = [kostka.restricted_fermionic(l, m, k).terms() for l in range(k + 1)]
            else:
                by_weight = [[(0, c)] if c else [] for c in structure_constants(m, k)]
            for l, terms in enumerate(by_weight):
                rows += _polynomial_rows({"level": k, "weight": l, "m": factor_string(m)}, terms)
    return rows, ["level", "weight", "m", *_TERM_COLUMNS]


def cmd_table(args) -> int:
    from .cache import cache_key, load, resolve_cache_dir, store

    kind = args.kind
    cache_dir = resolve_cache_dir(args.cache_dir)
    params = _table_params(args)
    payload = key = None
    if cache_dir is not None:
        # reading needs no directory: a missing one, or a file, is a miss
        key = cache_key(kind, params)
        payload = load(cache_dir, key)
    if payload is None and kind == "characters":
        from .virasoro import MinimalModel

        # checked only on a miss, so a hit never loads virasoro; (1, 1) is a
        # field of every valid model, so only P and P' can fail
        MinimalModel(*args.model, 1, 1)
    _check_out(args.out)
    if cache_dir is not None:
        # a path that is not a directory fails here, as store would fail
        cache_dir.mkdir(parents=True, exist_ok=True)
    if payload is not None:
        print(f"cache hit {key}", file=sys.stderr)
    else:
        rows, columns = _table_rows(kind, args)
        payload = {"kind": kind, "params": params, "columns": columns, "rows": rows}
        if key is not None:
            store(cache_dir, key, payload)
            print(f"cache store {key}", file=sys.stderr)
    _emit(_render(args.format, payload, payload["columns"], payload["rows"]), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkostka",
        description="Exact restricted Kostka polynomials and character identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kostka", help="print one Kostka polynomial")
    pk.add_argument("--m", type=factor_argument, required=True,
                    help="factor list, e.g. 2,1,1 or 1^4,2 (spins, not multiplicities)")
    pk.add_argument("--weight", "-l", type=int, required=True)
    pk.add_argument("--level", "-k", type=int, default=None)
    pk.add_argument("--route", choices=list(_ROUTES), default="fermionic")
    pk.add_argument("--format", choices=["text", "json", "csv"], default="text")
    pk.set_defaults(func=cmd_kostka)

    pv = sub.add_parser("verify", help="run an invariant sweep")
    pv.add_argument("suite", choices=[*SUITE_NAMES, "all"])
    pv.add_argument("--max-weight", type=int, default=10)
    pv.add_argument("--max-level", type=int, default=4)
    pv.add_argument("--order", type=int, default=15)
    pv.add_argument("--format", choices=["text", "json"], default="text")
    pv.add_argument("--out", default=None, help="write the report here instead of stdout")
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser("table", help="write a parameter-grid table")
    pt.add_argument("kind", choices=["kostka", "verlinde", "characters"])
    pt.add_argument("--max-weight", type=int, default=8)
    pt.add_argument("--max-level", type=int, default=3)
    pt.add_argument("--order", type=int, default=20)
    pt.add_argument("--model", type=int, nargs=2, default=(3, 4),
                    metavar=("P", "P_PRIME"))
    pt.add_argument("--format", choices=["csv", "json"], default="csv")
    pt.add_argument("--out", default="-", help="output path, - for stdout")
    pt.add_argument("--cache-dir", default=None,
                    help="cache directory (or set KOSTKA_CACHE_DIR)")
    pt.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "kostka" and args.weight < 0:
        parser.error("--weight must be nonnegative")
    if args.command in ("verify", "table"):
        if args.max_weight < 0:
            parser.error("--max-weight must be nonnegative")
        if args.max_level < 1:
            parser.error("--max-level must be positive")
        if args.order < 0:
            parser.error("--order must be nonnegative")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # the only files opened are the user's --out and cache paths, so an
        # OSError is an unusable path, not a fault
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault (InvariantError, RecursionError, ...) must not exit 1,
        # which means a hard identity failed
        import json

        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
