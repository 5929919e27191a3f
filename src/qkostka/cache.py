"""Content-addressed JSON result cache for table sweeps.

One JSON file per result, named by a hash of (source digest, kind,
parameters). The digest, taken once per process, covers every byte of the
package's sources, `__version__` included, so no cache directory serves
results from older code. Values are deterministic functions of the key, so
concurrent writers clobbering each other with identical bytes is harmless;
writes go through a temp file and rename so readers never see a partial file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path

ENV_VAR = "KOSTKA_CACHE_DIR"


def resolve_cache_dir(explicit: str | None) -> Path | None:
    """Explicit flag wins, then the environment, then caching is off."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return None


@functools.cache
def source_digest() -> str:
    """sha256 of the package's `*.py` files, each after its name and length."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def cache_key(kind: str, params: dict) -> str:
    canonical = json.dumps(
        {"source": source_digest(), "kind": kind, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


PAYLOAD_KEYS = frozenset({"kind", "params", "columns", "rows"})


def load(cache_dir: Path, key: str) -> dict | None:
    """The table payload stored under `key`, or None on a miss.

    A file that cannot be read, is not JSON, or is not shaped like what
    `store` writes (a string kind, dict params, a list of string columns, a
    list of rows keyed by columns) is a miss, so the table is recomputed.
    """
    path = cache_dir / f"{key}.json"
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if not (isinstance(payload, dict) and PAYLOAD_KEYS <= payload.keys()):
        return None
    columns, rows = payload["columns"], payload["rows"]
    if not (isinstance(payload["kind"], str) and isinstance(payload["params"], dict)):
        return None
    if not (isinstance(columns, list) and all(isinstance(c, str) for c in columns)):
        return None
    names = set(columns)
    if isinstance(rows, list) and all(isinstance(r, dict) and r.keys() <= names for r in rows):
        return payload
    return None


def store(cache_dir: Path, key: str, payload: dict) -> Path:
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{key}.json"
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
