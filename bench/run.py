"""qkostka benchmark.

    python3 bench/run.py --workload <routes-sweep|poly-queries|cli-mix>
                         --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout with `src/qkostka` next to
this directory). Standard library only; nothing is installed or built.

Workloads (closed loop, one client; every run starts in a fresh interpreter,
so in-memory caches are cold):
  routes-sweep  verify.run_suites(["routes"], VerifyConfig(max_weight=13,
                max_level=4)); an operation is one check. Its input does not
                depend on the seed.
  poly-queries  120 seeded library calls per run, caches shared across the
                stream; an operation is one call.
  cli-mix       100 seeded `python -m qkostka.cli` processes per run, with a
                fresh --cache-dir per run; an operation is one process.

Run r of seed s uses the stream derived from (s, r). Runs repeat until the
next one would end after --seconds (at least MIN_RUNS of them); timings are
medians over runs or pooled over operations. Every end-to-end timing is
adjusted to the machine's nominal speed with a reference task sampled all
through the run (see reference.py); per-layer times are raw.
Every output is checked against an independent cheap route outside the
timed intervals, and each run's outputs are hashed; digests recorded in
digests.json for this commit must match. With --trace 1 each run is paired
with a traced run of the same stream and per-layer metrics are reported
instead (see spans.py).

Standard output: a report, a `meta` line, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import reference
from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

WORKLOADS = ("routes-sweep", "poly-queries", "cli-mix")
MIN_RUNS = {"routes-sweep": 3, "poly-queries": 3, "cli-mix": 1}
SETUP_PROBES = 9
SPAWN_TIMEOUT_S = 120
# times `import qkostka`, then samples the reference loop in the same process
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import qkostka; "
    "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "import reference; reference.loop(); "
    "print(t, reference.loop_speed([reference.loop() for _ in range(3)]))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


# cli-mix takes one reference process before every this many CLI processes
REFERENCE_EVERY = 5


class Outcome(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float
    start: float
    elapsed: float


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KOSTKA_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], tmp: Path) -> Outcome:
    """Run one process to completion; time it and read its own peak RSS.

    wait4 gives the child's rusage alone; RUSAGE_CHILDREN would be a running
    maximum over every child this process ever had.
    """
    with tempfile.TemporaryFile(dir=tmp) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Outcome(proc.returncode, out, stderr, usage.ru_maxrss / 1024, start, elapsed)


def python(*args) -> list[str]:
    return [sys.executable, *map(str, args)]


# -- one run per workload ------------------------------------------------------


def run_library(workload: str, seed: int, rep: int, trace: bool, tmp: Path) -> dict:
    """routes-sweep or poly-queries: one fresh child runs the whole stream.

    Times are adjusted by the reference samples the child took; a traced
    routes-sweep run takes none and stays raw.
    """
    o = spawn(python(BENCH / "child.py", workload, seed, rep, int(trace)), tmp)
    if o.code != 0:
        tail = o.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return {"attempted": 1, "failed": 1, "errors": [f"child exit {o.code}: {tail}"]}
    data = json.loads(o.stdout.decode().splitlines()[-1])
    data["raw_wall_s"] = data["wall_s"]
    data["peak_rss_mb"] = o.rss_mb
    if data["ref_s"]:
        speed = data["speed"] = reference.loop_speed(data["ref_s"])
        data["wall_s"] /= speed
        data["latencies_s"] = [x / speed for x in data["latencies_s"]]
    return data


def reference_spawn(tmp: Path) -> float:
    """Seconds taken by a bare interpreter process, spawned like the CLI."""
    o = spawn(python("-c", "pass"), tmp)
    if o.code != 0:
        raise RuntimeError("reference process failed: " + o.stderr.decode(errors="replace"))
    return o.elapsed


def spawn_speeds(refs: list[float], ops: int) -> list[float]:
    """Speed factor for each of `ops` processes.

    refs[g] was measured just before the group of REFERENCE_EVERY processes
    starting at g * REFERENCE_EVERY, and refs[-1] after the last one; a
    group's factor is the median of the two references around it and their
    neighbours.
    """
    speeds = []
    for i in range(ops):
        g = i // REFERENCE_EVERY
        near = refs[max(g - 1, 0): g + 3]
        speeds.append(statistics.median(near) / reference.SPAWN_S)
    return speeds


def run_cli(seed: int, rep: int, trace: bool, tmp: Path, q) -> dict:
    """cli-mix: one stream of CLI processes sharing a fresh cache directory."""
    from workloads import check_cli, cli_commands, stream_digest

    cache_dir = Path(tempfile.mkdtemp(dir=tmp, prefix="cache-"))
    span_file = tmp / "spans.json"
    latencies, digest_items, errors = [], [], []
    first_output: dict[tuple, bytes] = {}
    layers: dict[str, float] = {}
    peak = 0.0
    cli_extra = {"cli.interp_s": 0.0, "cli.import_s": 0.0, "cli.stdout_bytes": 0}
    commands = cli_commands(seed, rep)
    refs = []
    try:
        for i, argv in enumerate(commands):
            if i % REFERENCE_EVERY == 0:
                refs.append(reference_spawn(tmp))
            full = argv + (["--cache-dir", str(cache_dir)] if argv[0] == "table" else [])
            if trace:
                o = spawn(python(BENCH / "cli_entry.py", span_file, *full), tmp)
            else:
                o = spawn(python("-m", "qkostka.cli", *full), tmp)
            latencies.append(o.elapsed)
            peak = max(peak, o.rss_mb)
            cli_extra["cli.stdout_bytes"] += len(o.stdout)
            problem = check_cli(q, argv, o.code, o.stdout)
            if problem is None and argv[0] == "table":
                if first_output.setdefault(tuple(argv), o.stdout) != o.stdout:
                    problem = "repeated table printed different bytes"
            if problem:
                errors.append(f"{' '.join(argv)}: {problem}")
            digest_items.append([argv, o.code, hashlib.sha256(o.stdout).hexdigest()])
            if trace and o.code == 0:
                traced = json.loads(span_file.read_text())
                cli_extra["cli.interp_s"] += traced["first_line"] - o.start
                cli_extra["cli.import_s"] += traced["import_s"]
                for name, value in traced["layers"].items():
                    layers[name] = _merge(name, layers.get(name, 0), value)
        refs.append(reference_spawn(tmp))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    speeds = spawn_speeds(refs, len(latencies))
    adjusted = [x / s for x, s in zip(latencies, speeds)]
    out = {
        "wall_s": sum(adjusted),
        "raw_wall_s": sum(latencies),
        "latencies_s": adjusted,
        "speed": statistics.median(speeds),
        "attempted": len(commands),
        "failed": len(errors),
        "errors": errors[:5],
        "digest": stream_digest(digest_items),
        "peak_rss_mb": peak,
    }
    if trace:
        layers.update(cli_extra)
        out["layers"] = layers
    return out


def _merge(name: str, a: float, b: float) -> float:
    return max(a, b) if ".max_" in name else a + b


# -- aggregation ---------------------------------------------------------------


def end_to_end(runs: list[dict], setup: list[float]) -> tuple[dict, dict]:
    ok = [r for r in runs if "wall_s" in r]
    latencies = [x for r in ok for x in r["latencies_s"]]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "ops_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in ok),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    samples = {
        "setup_s": len(setup),
        "wall_s": len(ok),
        "ops_per_s": len(ok),
        "op_p50_ms": len(latencies),
        "op_p90_ms": len(latencies),
        "peak_rss_mb": len(ok),
    }
    return values, samples


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-run means of the traced runs' layer totals, plus derived ratios."""
    ok = [r for r in traced if "layers" in r]
    total: dict[str, float] = {}
    for r in ok:
        for name, value in r["layers"].items():
            total[name] = _merge(name, total.get(name, 0), value)
    n = len(ok)
    m = {k: (v if ".max_" in k else v / n) for k, v in total.items()}

    def ratio(num: str, den: str) -> float:
        return total.get(num, 0) / total[den] if total.get(den) else 0.0

    m["charge.oracle_repeat_ratio"] = ratio("charge.oracle_repeats", "charge.oracle_calls")
    m["kostka.unrestricted_repeat_ratio"] = ratio(
        "kostka.unrestricted_repeats", "kostka.unrestricted_calls"
    )
    m["virasoro.stabilized_at_mean"] = ratio(
        "virasoro.stabilized_at_sum", "virasoro.stabilized_at_count"
    )
    for name in ("cli.interp_s", "cli.import_s", "cli.stdout_bytes"):
        m.setdefault(name, 0.0)
    m["cli.compute_s"] = (
        m["cli.main_s"] - m["cli.serialize_s"] - m["cache.load_s"] - m["cache.store_s"]
    )
    # raw times: traced routes-sweep runs take no reference samples
    m["trace.overhead_ratio"] = statistics.median(r["raw_wall_s"] for r in ok) / statistics.median(
        r["raw_wall_s"] for r in untraced if "wall_s" in r
    )
    return m


# -- digests -------------------------------------------------------------------


def digest_key(workload: str, seed: int, rep: int) -> str:
    # routes-sweep has one fixed input, so one digest covers every seed
    return workload if workload == "routes-sweep" else f"{workload}/{seed}/{rep}"


def tally(workload: str, seed: int, runs: list[dict], reps: int, digests: dict):
    """Attempted and failed operations over all runs, with error messages.

    `runs` holds `reps` untraced runs, then any traced runs of the same
    streams. A run whose output digest differs from the one recorded for
    its stream counts as one more failed operation.
    """
    attempted = failed = 0
    errors = []
    for i, r in enumerate(runs):
        attempted += r["attempted"]
        failed += r["failed"]
        errors += r.get("errors", [])
        expected = digests.get(digest_key(workload, seed, i % reps))
        if "digest" in r and expected is not None and r["digest"] != expected:
            failed += 1
            errors.append(f"run {i % reps}: output digest {r['digest'][:12]} "
                          f"!= recorded {expected[:12]}")
    return attempted, failed, errors


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


# -- main ----------------------------------------------------------------------


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description="qkostka benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's output digests in digests.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qkostka" / "__init__.py").is_file():
        print(f"error: no qkostka sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qkostka as q

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        return measure(args, q, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


def measure(args, q, tmp: Path) -> int:
    workload, seed, trace = args.workload, args.seed, bool(args.trace)

    # untimed warm-up: compiles and caches bytecode for every module used
    warm = [python(BENCH / "child.py", "warmup")]
    if workload == "cli-mix":
        warm.append(python("-m", "qkostka.cli", "kostka", "--m", "1^2", "--weight", "0"))
    for cmd in warm:
        o = spawn(cmd, tmp)
        if o.code != 0:
            sys.stderr.write(o.stderr.decode(errors="replace"))
            print(f"error: warm-up failed: {' '.join(cmd)}", file=sys.stderr)
            return 1

    raw_setup, setup = [], []

    def probe_setup() -> None:
        o = spawn(python("-c", IMPORT_PROBE, BENCH), tmp)
        if o.code != 0:
            raise RuntimeError("import probe failed: " + o.stderr.decode(errors="replace"))
        import_s, speed = map(float, o.stdout.split())
        raw_setup.append(import_s)
        setup.append(import_s / speed)

    def one_run(rep: int, traced: bool) -> dict:
        if workload == "cli-mix":
            return run_cli(seed, rep, traced, tmp, q)
        return run_library(workload, seed, rep, traced, tmp)

    digests = load_digests()
    untraced, traced = [], []
    start = time.perf_counter()
    rep = 0
    while True:
        # one import probe per run spreads the set-up samples over the
        # whole measurement instead of one burst
        probe_setup()
        untraced.append(one_run(rep, False))
        if trace:
            traced.append(one_run(rep, True))
        rep += 1
        elapsed = time.perf_counter() - start
        if rep >= MIN_RUNS[workload] and elapsed * (rep + 1) / rep > args.seconds:
            break

    while len(setup) < SETUP_PROBES:
        probe_setup()
    attempted, failed, errors = tally(workload, seed, untraced + traced, rep, digests)
    if args.record_digests:
        for i, r in enumerate(untraced):
            digests[digest_key(workload, seed, i)] = r["digest"]
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    if not any("wall_s" in r for r in untraced) or (
        trace and not any("layers" in r for r in traced)
    ):
        for e in errors[:10]:
            print(f"error: {e}", file=sys.stderr)
        return 1
    e2e, samples = end_to_end(untraced, setup)
    ok = [r for r in untraced if "wall_s" in r]
    speed = statistics.median(r["speed"] for r in ok)
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "caches": "cold",
        "bytecode": "warm",
        "runs": rep,
        "samples": samples,
        "timings": "adjusted to nominal machine speed",
        "speed_factor": round(speed, 4),
    }
    fail_ratio = failed / attempted
    print(f"workload {workload}  seed {seed}  runs {rep}  correct {failed == 0}")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:>12.4f} {END_TO_END_UNITS[name]:<4} (n={samples[name]})")
    print(f"  {'fail_ratio':<12} {fail_ratio:>12.4f} -    ({failed} of {attempted})")
    print(f"  raw: setup_s {statistics.median(raw_setup):.4f} s, wall_s "
          f"{statistics.median(r['raw_wall_s'] for r in ok):.4f} s, "
          f"median speed factor {speed:.3f}")
    for e in errors[:10]:
        print(f"  error: {e}")
    if trace:
        layers = per_layer(untraced, traced)
        selfs = sorted(
            ((v, k) for k, v in layers.items() if k.endswith(".self_s")), reverse=True
        )
        print("  self time by layer: " + ", ".join(f"{k[:-7]} {v:.3f}s" for v, k in selfs[:5]))
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
