"""Traced stand-in for `python -m qkostka.cli`.

Usage: python bench/cli_entry.py <result.json> <cli arguments...>

Records when the interpreter reached this file's first line and how long
`import qkostka.cli` took, installs the span recorder, calls `cli.main`, and
writes the reduced spans to <result.json> when the process ends. Standard
output is the CLI's own, byte for byte.
"""

import time

first_line = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import qkostka.cli

    import_s = time.perf_counter() - start
    from spans import Recorder, layer_metrics, reduce_spans

    recorder = Recorder()
    recorder.install()
    try:
        code = qkostka.cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.restore()
        sys.stdout.flush()
        layers = layer_metrics(reduce_spans(recorder.spans), recorder.counters)
        with open(out_path, "w") as fh:
            json.dump({"first_line": first_line, "import_s": import_s, "layers": layers}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
