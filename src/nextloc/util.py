"""Small shared helpers: seed derivation, canonical JSON, content hashes, atomic writes.

All randomness in the package flows from explicit integer seeds. Sub-seeds
for independent purposes (init, shuffling, split sampling, ...) are derived
by hashing ``"{label}:{base}"`` with BLAKE2b, so adding a new consumer never
perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

import numpy as np


def derive_seed(base: int, label: str) -> int:
    """Stable 63-bit sub-seed for `label` under `base`."""
    digest = hashlib.blake2b(f"{label}:{base}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def make_rng(base: int, label: str) -> np.random.Generator:
    """Seeded PCG64 generator for one purpose; independent per label."""
    return np.random.default_rng(derive_seed(base, label))


def stable_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace jitter."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_atomic(path, data: bytes | str) -> None:
    """Write `data` (text as UTF-8) to `path` through a temporary file in the same
    directory, so a reader finds the old file or the new one, never part of one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
