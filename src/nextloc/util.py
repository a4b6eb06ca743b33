"""Small shared helpers: seed derivation, canonical JSON, content hashes, atomic writes,
and the one strict reader of settings objects.

All randomness in the package flows from explicit integer seeds. Sub-seeds
for independent purposes (init, shuffling, split sampling, ...) are derived
by hashing ``"{label}:{base}"`` with BLAKE2b, so adding a new consumer never
perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields
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


# what a JSON value must be for each field annotation; nested sections are read by their own call
_TYPE_NAMES = {
    "int": "an integer",
    "float": "a number",
    "str": "a string",
    "tuple[int, ...]": "a list of integers",
    "tuple[str, ...]": "a list of strings",
}


def _fits(value, type_name: str) -> bool:
    """Whether a JSON value fits a field annotated `type_name`; a bool is not a number."""
    if type_name.startswith("tuple["):
        return isinstance(value, (list, tuple)) and all(_fits(v, type_name[6:-6]) for v in value)
    return not isinstance(value, bool) and isinstance(value, {"int": int, "float": (int, float), "str": str}[type_name])


def read_settings(cls, d, source: str, prefix: str = ""):
    """`cls(**d)`, where the keys of `d` must be exactly the fields of `cls`, each value of its field's type.

    Config files and checkpoint headers are both read here. A key the
    settings no longer have is refused rather than ignored, and a missing
    one is not filled in, so an old file cannot run with a value other than
    the one it names. Every problem is a `ValueError` that starts with
    `source` and names each key, with `prefix` for a nested section.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{source}: {prefix.rstrip('.') or 'the top level'} must be an object")
    names = {f.name for f in fields(cls)}
    problems = [f"unknown key {prefix + k!r}" for k in sorted(set(d) - names)]
    problems += [f"missing key {prefix + k!r}" for k in sorted(names - set(d))]
    problems += [
        f"key {prefix + f.name!r} must be {_TYPE_NAMES[f.type]}, got {d[f.name]!r}"
        for f in fields(cls)
        if f.name in d and f.type in _TYPE_NAMES and not _fits(d[f.name], f.type)
    ]
    if problems:
        raise ValueError(f"{source}: " + ", ".join(problems))
    return cls(**d)
