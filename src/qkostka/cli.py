"""Command-line front end: single evaluations, verification sweeps, tables.

Commands:
  kostka  print one polynomial (restricted, unrestricted, or reversed)
  verify  run an invariant sweep, exit 1 if a hard identity fails
  table   write a CSV/JSON table over a parameter grid, with caching

Exit codes: 0 success / all checks pass, 1 hard verification failure,
2 usage error (a bad argument, or an --out or cache path that cannot be
used), 3 internal error: a program fault, reported as one JSON line
{"error": <exception type>, "message": <text>} on stderr. Audit-class
residuals (published formulas known to disagree with their derivations) are
reported as data and never affect exit codes.
All output is deterministic: repeated runs print the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import stat
import sys

from . import __version__, kostka
from .compositions import Composition, parse_factor_list
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


def _polynomial_rows(params: dict, poly: QPolynomial) -> list[dict]:
    rows = []
    for num, coeff in poly.terms():
        row = dict(params)
        row["exponent_numerator"] = num
        row["coefficient"] = str(coeff)
        rows.append(row)
    return rows


def _write_csv(stream, columns: list[str], rows: list[dict]) -> None:
    writer = csv.DictWriter(stream, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


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


def cmd_kostka(args) -> int:
    m = args.m
    if args.level is not None:
        k, l = args.level, args.weight
        if args.reversed:
            if args.route != "fermionic":
                print("error: --reversed takes only the fermionic route", file=sys.stderr)
                return 2
            poly = kostka.reversed_restricted(l, m, k)
            route = "reversed"
        elif args.route == "fermionic":
            poly = kostka.restricted_fermionic(l, m, k)
            route = "fermionic"
        elif args.route == "alternating":
            poly = kostka.restricted_alternating(l, m, k, source="fermionic")
            route = "alternating"
        elif args.route == "charge":
            poly = kostka.restricted_alternating(l, m, k, source="charge")
            route = "charge"
        else:
            from .weyl import euler_characteristic_bgg

            poly = euler_characteristic_bgg(m, l, k)
            route = "bgg"
        params = {
            "level": k,
            "weight": l,
            "m": factor_string(m),
            "route": route,
        }
    else:
        if args.reversed or args.route in ("alternating", "bgg"):
            print("error: this route needs --level", file=sys.stderr)
            return 2
        if args.route == "charge":
            from .charge import kostka_sl2_oracle

            poly = kostka_sl2_oracle(args.weight, m)
        else:
            poly = kostka.unrestricted(args.weight, m)
        params = {
            "level": "",
            "weight": args.weight,
            "m": factor_string(m),
            "route": args.route,
        }
    if args.format == "text":
        print(poly)
    elif args.format == "json":
        blob = dict(params)
        blob["polynomial"] = poly.to_json_dict()
        print(json.dumps(blob, sort_keys=True, separators=(",", ":")))
    else:
        buf = io.StringIO()
        columns = ["level", "weight", "m", "route", "exponent_numerator", "coefficient"]
        _write_csv(buf, columns, _polynomial_rows(params, poly))
        sys.stdout.write(buf.getvalue())
    return 0


def cmd_verify(args) -> int:
    from .verify import VerifyConfig, run_suites

    _check_out(args.out)
    cfg = VerifyConfig(
        max_weight=args.max_weight,
        max_level=args.max_level,
        order=args.order,
    )
    results = run_suites([args.suite], cfg)
    report = {"suites": [r.to_json_dict() for r in results]}
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        _emit(text, args.out)
    else:
        lines = []
        for r in results:
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"suite {r.suite}: checked {r.checked}, failures {len(r.failures)}, "
                f"audit mismatches {r.audit_mismatches} -> {status}"
            )
        text = "\n".join(lines) + "\n"
        _emit(text, args.out)
        if not all_passed:
            sys.stdout.write(
                json.dumps(report, sort_keys=True, indent=2) + "\n"
            )
    return 0 if all_passed else 1


def _table_rows(kind: str, args) -> tuple[dict, list[dict], list[str]]:
    if kind == "kostka":
        from .verify import admissible_compositions

        params = {"max_weight": args.max_weight, "max_level": args.max_level}
        columns = ["level", "weight", "m", "exponent_numerator", "coefficient"]
        items = [
            (k, m)
            for k in range(1, args.max_level + 1)
            for m in admissible_compositions(args.max_weight, k)
        ]
        rows = []
        for k, m in items:
            for l in range(k + 1):
                poly = kostka.restricted_fermionic(l, m, k)
                rows.extend(
                    _polynomial_rows(
                        {"level": k, "weight": l, "m": factor_string(m)}, poly
                    )
                )
        return params, rows, columns
    if kind == "verlinde":
        from .verify import admissible_compositions
        from .verlinde import structure_constants

        params = {"max_weight": args.max_weight, "max_level": args.max_level}
        columns = ["level", "weight", "m", "exponent_numerator", "coefficient"]
        rows = []
        for k in range(1, args.max_level + 1):
            for m in admissible_compositions(args.max_weight, k):
                constants = structure_constants(m, k)
                for l, c in enumerate(constants):
                    if c:
                        rows.append(
                            {
                                "level": k,
                                "weight": l,
                                "m": factor_string(m),
                                "exponent_numerator": 0,
                                "coefficient": str(c),
                            }
                        )
        return params, rows, columns
    # characters
    from .virasoro import MinimalModel, rocha_caridi

    p, pp = args.model
    params = {"p": p, "p_prime": pp, "order": args.order}
    columns = [
        "p",
        "p_prime",
        "r",
        "s",
        "offset",
        "exponent_numerator",
        "coefficient",
    ]
    rows = []
    for r in range(1, p):
        for s in range(1, pp):
            bs = rocha_caridi(MinimalModel(p, pp, r, s), args.order)
            for d, c in enumerate(bs.coefficients()):
                if c:
                    rows.append(
                        {
                            "p": p,
                            "p_prime": pp,
                            "r": r,
                            "s": s,
                            "offset": str(bs.offset),
                            "exponent_numerator": 4 * d,
                            "coefficient": str(c),
                        }
                    )
    return params, rows, columns


def cmd_table(args) -> int:
    from .cache import cache_key, load, resolve_cache_dir, store

    kind = args.kind
    if kind == "characters":
        from .virasoro import MinimalModel

        # (1, 1) is a field of every valid model, so only P and P' can fail
        MinimalModel(*args.model, 1, 1)
    _check_out(args.out)
    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is not None:
        # a path that is not a directory fails here, as store would fail
        cache_dir.mkdir(parents=True, exist_ok=True)
    payload = None
    key = None
    if kind in ("kostka", "verlinde"):
        key_params = {"max_weight": args.max_weight, "max_level": args.max_level}
    else:
        key_params = {"model": list(args.model), "order": args.order}
    if cache_dir is not None:
        key = cache_key(__version__, kind, key_params)
        payload = load(cache_dir, key)
        if payload is not None:
            print(f"cache hit {key}", file=sys.stderr)
    if payload is None:
        params, rows, columns = _table_rows(kind, args)
        payload = {"kind": kind, "params": params, "columns": columns, "rows": rows}
        if cache_dir is not None and key is not None:
            store(cache_dir, key, payload)
            print(f"cache store {key}", file=sys.stderr)
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        buf = io.StringIO()
        _write_csv(buf, payload["columns"], payload["rows"])
        text = buf.getvalue()
    _emit(text, args.out)
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
    pk.add_argument("--reversed", action="store_true",
                    help="degree-reversed restricted polynomial (needs --level)")
    pk.add_argument("--route",
                    choices=["fermionic", "alternating", "charge", "bgg"],
                    default="fermionic")
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
    except (ValueError, KeyError, OSError) as exc:
        # the only files opened are the user's --out and cache paths, so an
        # OSError is an unusable path, not a fault
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault (InvariantError, RecursionError, ...) must not exit 1,
        # which means a hard identity failed
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
