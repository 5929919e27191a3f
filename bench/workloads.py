"""Seeded inputs, output checks and digests for the three benchmark workloads.

Inputs come only from the seed: `poly_queries(seed, rep)` and
`cli_commands(seed, rep)` give the same list for the same arguments. Each
stream is stratified: the mix of query kinds and their size classes is
fixed, and the seed picks the exact parameters inside each class and the
order. That keeps the total work of a stream nearly the same from seed to
seed, so run-to-run spread measures the program, not the draw.

The checks use an independent cheap route for every operation and run
outside the timed intervals.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re

ROUTES_CONFIG = {"max_weight": 13, "max_level": 4}

# Non-routes suites run by cli-mix at their CLI defaults, with how many
# times each runs per stream. coset and abf take about twice as long as the
# others; keeping them to 4 of 100 processes puts the 90th percentile among
# the other suites' 16 similar runs instead of at the edge between the two
# groups, where it would jump with a few ms of noise.
CLI_SUITES = {
    "verlinde": 4, "weyl": 4, "bgg": 4, "fermionic-virasoro": 4, "coset": 2, "abf": 2,
}


def stream_rng(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rep}")


# -- poly-queries ------------------------------------------------------------


def _doublet_heavy(rng: random.Random, size: int, k: int) -> tuple[int, ...]:
    """Multiplicity vector of weighted size `size`, mostly doublets, spins <= k."""
    m2 = rng.randint(0, min(3, size // 8))
    m3 = rng.randint(0, 1) if k >= 3 else 0
    m1 = size - 2 * m2 - 3 * m3
    parts = [m1, m2, m3]
    while parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def _fermionic_query(rng: random.Random, size: int, k: int) -> tuple:
    m = _doublet_heavy(rng, size, k)
    l_choices = [l for l in range(k + 1) if (size - l) % 2 == 0]
    return ("restricted_fermionic", rng.choice(l_choices), m, k)


def poly_queries(seed: int, rep: int = 0) -> list[tuple]:
    """One stream of library calls: ("name", *args) tuples.

    Mix per 120 queries: 57 restricted_fermionic (|m| 22-44, level 3-7),
    18 unrestricted (|m| 12-18), 18 gaussian_binomial (N 120-320, r 2-6),
    12 abf_polynomial (N 30-70), 6 branching_via_kostka_limit and
    6 fermionic_character_sum (order 15-25), 3 restricted_kostka_oracle
    (at most 4 variables).
    """
    rng = stream_rng("poly-queries", seed, rep)
    queries: list[tuple] = []
    for i in range(57):
        # larger sizes go with lower levels, which keeps each call within
        # about 3-40 ms instead of letting a few level-7 calls take the stream
        k = 3 + i % 5
        low = 36 - 4 * (k - 3) if k < 7 else 22
        queries.append(_fermionic_query(rng, rng.randint(low, low + 8), k))
    for variables in (2, 3, 4):
        k = rng.randint(2, 4)
        l = rng.randint(0, k)
        size = l + 2 * variables
        m = _doublet_heavy(rng, size, min(k, 2))
        queries.append(("restricted_kostka_oracle", l, m, k))
    for i in range(18):
        size = 12 + i // 3
        m = _doublet_heavy(rng, size, 3)
        queries.append(("unrestricted", rng.choice(range(size % 2, size + 1, 2)), m))
    for i in range(18):
        n = 120 + (200 * i) // 17 + rng.randint(0, 8)
        queries.append(("gaussian_binomial", n, 2 + i % 5))
    for i in range(12):
        r = 2 + i % 3
        b = rng.randint(1, r - 1)
        a = rng.randint(1, r)
        n = 30 + (40 * i) // 11
        n += (n - (b - a)) % 2
        queries.append(("abf_polynomial", r, b, a, n))
    for i in range(6):
        k = 1 + i % 2
        j = rng.randint(0, k)
        l = rng.choice([l for l in range(k + 2) if (j + l) % 2 == 0])
        queries.append(("branching_via_kostka_limit", 0, j, k, l, 15 + 2 * i))
    for i in range(6):
        k = 1 + i % 2
        j = rng.randint(0, k)
        l = rng.randint(0, k + 1)
        queries.append(("fermionic_character_sum", j, l, k, 15 + 2 * i))
    rng.shuffle(queries)
    return queries


def run_query(q, query: tuple):
    """Evaluate one query against the library namespace `q` (the package)."""
    name, *args = query
    if name == "restricted_kostka_oracle":
        l, m, k = args
        return q.restricted_kostka_oracle(q.FunctionalModelSpec.from_parameters(l, m, k))
    if name == "abf_polynomial":
        return q.abf_polynomial(q.AbfLabel(*args))
    if name == "branching_via_kostka_limit":
        i, j, k, l, order = args
        return q.branching_via_kostka_limit(i, j, k, l, order + _coset_gap(q, i, j, k, l))
    return getattr(q, name)(*args)


def _coset_gap(q, i: int, j: int, k: int, l: int) -> int:
    """Grades between the coset prefix and the field's lowest grade.

    The limit route needs this many extra terms to cover the same window as
    the theta quotient of that order.
    """
    from qkostka import virasoro

    mm = q.MinimalModel(k + 2, k + 3, j + 1, l + 1)
    return int(q.conformal_weight(mm) - virasoro.coset_prefactor_exponent(i, j, k, l))


def encode_output(value) -> object:
    """Canonical JSON-able form of a query result, for the digest."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if hasattr(value, "derived"):
        return {
            "derived": encode_output(value.derived),
            "printed_minus_derived": value.printed_minus_derived.to_json_dict(),
            "printed": sorted(value.printed_coefficients.items()),
        }
    return {
        "offset": str(value.offset),
        "coefficients": value.coefficients(),
        "stabilized_at": value.stabilized_at,
    }


def check_query(q, query: tuple, value) -> str | None:
    """None when the result agrees with an independent cheap route, else why not."""
    name, *args = query
    if name == "restricted_fermionic":
        l, m, k = args
        want = q.structure_constants(m, k)[l]
        got = value.evaluate_at_one()
        return None if got == want else f"q=1 value {got} != fusion multiplicity {want}"
    if name == "unrestricted":
        l, m = args
        # level above |m| removes the truncation: tensor-product multiplicity
        want = q.structure_constants(m, q.weighted_size(m) + 1)[l]
        got = value.evaluate_at_one()
        return None if got == want else f"q=1 value {got} != tensor multiplicity {want}"
    if name == "gaussian_binomial":
        n, r = args
        got = value.evaluate_at_one()
        return None if got == math.comb(n, r) else f"q=1 value {got} != C({n},{r})"
    if name == "abf_polynomial":
        want = _abf_at_one(*args)
        got = value.evaluate_at_one()
        return None if got == want else f"q=1 value {got} != binomial sum {want}"
    if name == "restricted_kostka_oracle":
        l, m, k = args
        want = q.restricted_fermionic(l, m, k)
        return None if value == want else "functional model != fermionic sum"
    if name == "fermionic_character_sum":
        j, l, k, order = args
        series = value.derived.series
    else:
        _, j, k, l, order = args
        series = value.series
    rc = q.rocha_caridi(q.MinimalModel(k + 2, k + 3, j + 1, l + 1), order)
    bad = q.series_mismatches(series, rc.series)
    return None if not bad else f"{len(bad)} coefficients differ from rocha_caridi"


def _abf_at_one(r: int, b: int, a: int, n: int) -> int:
    """The finitized theta sum at q = 1, with integer binomials."""
    period = r + 1
    span = (n + abs(b) + abs(a)) // (2 * period) + 2
    total = 0
    for t in range(-span, span + 1):
        total += _comb(n, (n - b + a) // 2 - period * t)
        total -= _comb(n, (n - b - a) // 2 - period * t)
    return total


def _comb(n: int, r: int) -> int:
    return math.comb(n, r) if 0 <= r <= n else 0


def stream_digest(items) -> str:
    """sha256 over a sequence of JSON-able items, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- cli-mix -----------------------------------------------------------------

ROUTES = ("fermionic", "alternating", "charge", "bgg")
FORMATS = ("text", "json", "csv")

TABLE_GRIDS = (
    ("kostka", "--max-weight", "8", "--max-level", "3"),
    ("kostka", "--max-weight", "9", "--max-level", "3"),
    ("kostka", "--max-weight", "8", "--max-level", "4"),
    ("verlinde", "--max-weight", "10", "--max-level", "3"),
    ("verlinde", "--max-weight", "12", "--max-level", "4"),
    ("verlinde", "--max-weight", "11", "--max-level", "4"),
    ("characters", "--model", "3", "4", "--order", "20"),
    ("characters", "--model", "4", "5", "--order", "20"),
    ("characters", "--model", "5", "6", "--order", "16"),
)


def factor_list(m: tuple[int, ...]) -> str:
    chunks = [f"{spin}^{count}" for spin, count in enumerate(m, start=1) if count]
    return ",".join(chunks)


def cli_commands(seed: int, rep: int = 0) -> list[list[str]]:
    """One stream of CLI argument lists (without the interpreter prefix).

    100 processes: 44 `kostka` (every route x format combination, |m| 4-10),
    20 `verify` (each non-routes suite as often as CLI_SUITES says, half in
    text and half in json) and
    36 `table` over three grids, one per kind, each called 12 times in
    alternating formats. The cache directory is appended by the runner.
    """
    rng = stream_rng("cli-mix", seed, rep)
    commands: list[list[str]] = []
    for i in range(44):
        route = ROUTES[i % 4]
        fmt = FORMATS[(i // 4) % 3]
        size = 4 + i % 7
        if route in ("fermionic", "charge") and i % 5 == 0:
            m = _doublet_heavy(rng, size, 2)
            l = rng.choice(range(size % 2, size + 1, 2))
            level = []
        else:
            k = rng.randint(2, 4)
            m = _doublet_heavy(rng, size, min(k, 3))
            l = rng.choice([l for l in range(k + 1) if (size - l) % 2 == 0])
            level = ["--level", str(k)]
        commands.append(
            ["kostka", "--m", factor_list(m), "--weight", str(l), *level,
             "--route", route, "--format", fmt]
        )
    for suite, times in CLI_SUITES.items():
        for i in range(times):
            commands.append(["verify", suite, "--format", ("text", "json")[i % 2]])
    for kind in range(3):
        grid = TABLE_GRIDS[3 * kind + rng.randrange(3)]
        for i in range(12):
            commands.append(["table", *grid, "--format", ("csv", "json")[i % 2]])
    rng.shuffle(commands)
    return commands


_TERM = re.compile(r"^(-?)(?:(\d+)\*)?(?:q(?:\^\S+)?|(\d+))$")


def _text_at_one(text: str) -> int:
    """Value at q = 1 of a polynomial printed by QPolynomial.__str__."""
    text = text.strip()
    if text == "0":
        return 0
    total = 0
    for token in text.replace("- ", "-").replace("+ ", "").split(" "):
        match = _TERM.match(token)
        if match is None:
            raise ValueError(f"unparsable term {token!r}")
        neg, coeff, const = match.groups()
        value = int(const) if const is not None else int(coeff or 1)
        total += -value if neg else value
    return total


def kostka_value_at_one(fmt: str, stdout: bytes) -> int:
    text = stdout.decode()
    if fmt == "text":
        return _text_at_one(text)
    if fmt == "json":
        return sum(int(c) for _, c in json.loads(text)["polynomial"]["terms"])
    rows = list(csv.DictReader(io.StringIO(text)))
    return sum(int(row["coefficient"]) for row in rows)


def _argument(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_cli(q, argv: list[str], code: int, stdout: bytes) -> str | None:
    """None when one CLI process behaved, else why not.

    `kostka` output is evaluated at q = 1 and held against the fusion
    multiplicity; `verify` must report a pass with zero failures; `table`
    output must parse. Repeated tables are also compared byte for byte by
    the runner, since a cache hit must print what the store printed.
    """
    if code != 0:
        return f"exit code {code}"
    command = argv[0]
    if command == "kostka":
        m = q.parse_factor_list(_argument(argv, "--m")).parts
        l = int(_argument(argv, "--weight"))
        level = _argument(argv, "--level")
        k = int(level) if level is not None else q.weighted_size(m) + 1
        want = q.structure_constants(m, k)[l]
        try:
            got = kostka_value_at_one(_argument(argv, "--format"), stdout)
        except (ValueError, KeyError) as exc:
            return f"unparsable output: {exc}"
        return None if got == want else f"q=1 value {got} != fusion multiplicity {want}"
    if command == "verify":
        text = stdout.decode()
        if _argument(argv, "--format") == "json":
            try:
                suites = json.loads(text)["suites"]
            except (ValueError, KeyError) as exc:
                return f"unparsable report: {exc}"
            ok = all(s["passed"] and s["failures"] == 0 and s["checked"] > 0 for s in suites)
        else:
            ok = re.fullmatch(r"suite \S+: checked [1-9]\d*, failures 0, "
                              r"audit mismatches \d+ -> pass\n", text) is not None
        return None if ok else "suite did not report a clean pass"
    text = stdout.decode()
    try:
        if _argument(argv, "--format") == "json":
            rows = json.loads(text)["rows"]
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
    except (ValueError, KeyError) as exc:
        return f"unparsable table: {exc}"
    return None if rows else "empty table"
