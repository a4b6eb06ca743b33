"""Versioned binary parameter checkpoints.

Layout (all integers little-endian):

    bytes 0..3    magic b"NLCK"
    bytes 4..7    format version (uint32), currently 3
    bytes 8..39   sha256 of every other byte of the file
    bytes 40..47  header length H (uint64)
    bytes 48..    H bytes of UTF-8 JSON:
                    {"meta": {...}, "params": [{"name": ..., "shape": [...]}, ...]}
                  entries sorted by name
    then          for each entry in header order, the values as
                  little-endian float64 in row-major order

The byte stream is a pure function of (meta, parameter values), so identical
training runs produce identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from nextloc.util import write_atomic

MAGIC = b"NLCK"
VERSION = 3
PREFIX = 48  # magic, version, digest and header length


class CheckpointError(RuntimeError):
    """Raised when a checkpoint file is malformed, truncated or corrupted."""


def save_checkpoint(path, params: dict[str, np.ndarray], meta: dict | None = None) -> None:
    entries = []
    blobs = []
    for name in sorted(params):
        arr = np.ascontiguousarray(np.asarray(params[name], dtype=np.float64))
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.astype("<f8", copy=False).tobytes())
    header = json.dumps({"meta": meta or {}, "params": entries}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    lead = MAGIC + VERSION.to_bytes(4, "little")
    body = len(header).to_bytes(8, "little") + header + b"".join(blobs)
    write_atomic(path, lead + hashlib.sha256(lead + body).digest() + body)


def load_checkpoint(
    path, kind: str | None = None, index_hash: str | None = None, manifest_digest: str | None = None
) -> tuple[dict[str, np.ndarray], dict]:
    """Parameters and meta of a checkpoint, refused unless its meta names `kind`, the
    location index `index_hash` and the split `manifest_digest` (None: no check)."""
    raw = Path(path).read_bytes()
    if len(raw) < PREFIX or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a parameter checkpoint (bad magic)")
    version = int.from_bytes(raw[4:8], "little")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    if raw[8:40] != hashlib.sha256(raw[:8] + raw[40:]).digest():
        raise CheckpointError(f"{path}: contents do not match their digest (corrupt file)")
    hlen = int.from_bytes(raw[40:48], "little")
    if len(raw) < PREFIX + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[PREFIX : PREFIX + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from None
    params: dict[str, np.ndarray] = {}
    offset = PREFIX + hlen
    for entry in header.get("params", []):
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 8
        if len(raw) < offset + nbytes:
            raise CheckpointError(f"{path}: truncated values for {entry['name']!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).astype(np.float64)
        params[entry["name"]] = arr.reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    meta = header.get("meta", {})
    if kind is not None and meta.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} checkpoint (kind={meta.get('kind')!r})")
    if index_hash is not None and meta.get("index_hash") != index_hash:
        raise ValueError(f"{path}: trained against a different location index")
    if manifest_digest is not None and meta.get("manifest_digest") != manifest_digest:
        raise ValueError(f"{path}: trained on a different split (manifest digest mismatch); rerun its stage")
    return params, meta
