"""One fresh-interpreter run of routes-sweep or poly-queries.

Usage: python bench/child.py <workload> <seed> <rep> <trace 0|1>
       python bench/child.py warmup

Imports the library (timed), runs one stream with cold caches, checks every
output outside the timed phase, and prints one JSON line:
  import_s, wall_s, latencies_s, ref_s, attempted, failed, errors, digest,
  and `layers` (per-layer totals) when traced.
`ref_s` holds reference.loop() samples taken during and after the stream;
their time is kept out of wall_s and latencies_s. With trace 0 the only
hook in routes-sweep is a timestamp (and reference sample) after each
check, which gives per-check latencies; with trace 1 the span recorder is
installed for the timed phase only, and routes-sweep takes no samples.
"""

from __future__ import annotations

import json
import sys
import time


def run_routes(trace: bool) -> dict:
    import importlib

    from qkostka.verify import VerifyConfig, run_suites

    from reference import Sampler
    from workloads import ROUTES_CONFIG, stream_digest

    cfg = VerifyConfig(**ROUTES_CONFIG)
    weyl = importlib.import_module("qkostka.weyl")
    recorder, marks, sampler = None, [], None
    if trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    else:
        # Every routes check ends with the Euler-characteristic route, so a
        # timestamp after each call delimits the checks. Reference samples
        # also run here, and the marks are on a clock that leaves them out.
        euler = weyl.euler_characteristic_bgg
        sampler = Sampler()

        def marked(*args, **kwargs):
            value = euler(*args, **kwargs)
            marks.append(time.perf_counter() - sampler.excluded)
            sampler.tick()
            return value

        weyl.euler_characteristic_bgg = marked
    start = time.perf_counter()
    try:
        (result,) = run_suites(["routes"], cfg)
    finally:
        wall = time.perf_counter() - start
        if recorder is not None:
            recorder.restore()
        else:
            weyl.euler_characteristic_bgg = euler
            wall -= sampler.excluded
    errors = [f"{r.params}: {r.route_a} != {r.route_b}" for r in result.failures[:5]]
    if result.checked == 0:
        errors.append("routes suite checked nothing")
    if not trace and len(marks) != result.checked:
        raise RuntimeError(
            f"{len(marks)} Euler-route calls for {result.checked} checks; "
            "per-check latencies cannot be delimited"
        )
    latencies = [b - a for a, b in zip([start] + marks, marks)]
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "ref_s": sampler.finish() if sampler else [],
        "attempted": max(result.checked, 1),
        "failed": len(result.failures) + (result.checked == 0),
        "errors": errors,
        "digest": stream_digest([result.to_json_dict()]),
        "recorder": recorder,
    }


def run_poly(seed: int, rep: int, trace: bool) -> dict:
    import qkostka

    from reference import Sampler
    from workloads import check_query, encode_output, poly_queries, run_query, stream_digest

    queries = poly_queries(seed, rep)
    recorder = None
    if trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    values, latencies = [], []
    sampler = Sampler()
    clock = time.perf_counter
    start = clock()
    try:
        for query in queries:
            t = clock()
            try:
                value = run_query(qkostka, query)
            except Exception as exc:  # a failed query is a measured outcome
                value = exc
            latencies.append(clock() - t)
            values.append(value)
            sampler.tick()
    finally:
        wall = clock() - start - sampler.excluded
        if recorder is not None:
            recorder.restore()
    errors, encoded = [], []
    for query, value in zip(queries, values):
        if isinstance(value, Exception):
            problem = f"raised {type(value).__name__}: {value}"
            encoded.append([list(query), "error"])
        else:
            problem = check_query(qkostka, query, value)
            encoded.append([list(query), encode_output(value)])
        if problem:
            errors.append(f"{query}: {problem}")
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "ref_s": sampler.finish(),
        "attempted": len(queries),
        "failed": len(errors),
        "errors": errors[:5],
        "digest": stream_digest(encoded),
        "recorder": recorder,
    }


def main(argv: list[str]) -> int:
    if argv == ["warmup"]:
        import qkostka.cli  # noqa: F401  (compiles and caches bytecode)

        import reference  # noqa: F401
        import spans  # noqa: F401
        import workloads  # noqa: F401
        return 0
    workload, seed, rep, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    start = time.perf_counter()
    import qkostka  # noqa: F401

    import_s = time.perf_counter() - start
    if workload == "routes-sweep":
        out = run_routes(trace)
    elif workload == "poly-queries":
        out = run_poly(seed, rep, trace)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    out["import_s"] = import_s
    recorder = out.pop("recorder")
    if recorder is not None:
        from spans import layer_metrics, reduce_spans

        out["layers"] = layer_metrics(reduce_spans(recorder.spans), recorder.counters)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
