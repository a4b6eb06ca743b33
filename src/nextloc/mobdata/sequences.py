"""Sequence construction, temporal and inductive splits, and manifests."""

from __future__ import annotations

import math
from pathlib import Path

from nextloc.mobdata.model import DatasetSplit, MobilitySequence, VisitRecord
from nextloc.util import make_rng, parse_json, sha256_text, stable_json, write_atomic

WINDOW_SECONDS = 7 * 86400
DAY_SECONDS = 86400


def build_sequences(
    records: list[VisitRecord], window_seconds: int = WINDOW_SECONDS, min_context: int = 3
) -> list[MobilitySequence]:
    """One sequence per visit: context = the user's visits in the preceding
    window (closed at window start, open at the target), target = the visit.
    Sequences with fewer than min_context context visits are dropped.
    """
    by_user: dict[str, list[VisitRecord]] = {}
    for r in records:
        by_user.setdefault(r.user, []).append(r)
    sequences: list[MobilitySequence] = []
    for user in sorted(by_user):
        visits = sorted(by_user[user], key=lambda r: r.t)
        times = [r.t for r in visits]
        lo = 0
        for k, target in enumerate(visits):
            window_start = target.t - window_seconds
            while times[lo] < window_start:
                lo += 1
            context = [(v.location, v.t) for v in visits[lo:k] if v.t < target.t]
            if len(context) < min_context:
                continue
            sequences.append(
                MobilitySequence(
                    user=user,
                    visits=tuple(context),
                    target_location=target.location,
                    target_t=target.t,
                )
            )
    return sequences


def split_conventional(
    sequences: list[MobilitySequence],
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    *,
    records: list[VisitRecord],
) -> DatasetSplit:
    """Per-user time partition of tracking days at the given ratios.

    A sequence lands in train/validation/test by its target's day index
    within the user's tracking period (first to last of their records).
    Intervals are half-open, so a target on a boundary day goes to the
    later split.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three positive numbers summing to 1, got {ratios}")
    spans: dict[str, list[int]] = {}
    for r in records:
        span = spans.setdefault(r.user, [r.t, r.t])
        span[0] = min(span[0], r.t)
        span[1] = max(span[1], r.t)
    buckets: tuple[list, list, list] = ([], [], [])
    for seq in sequences:
        first, last = spans[seq.user]
        n_days = (last - first) // DAY_SECONDS + 1
        day = (seq.target_t - first) // DAY_SECONDS
        if day < ratios[0] * n_days:
            buckets[0].append(seq)
        elif day < (ratios[0] + ratios[1]) * n_days:
            buckets[1].append(seq)
        else:
            buckets[2].append(seq)
    return DatasetSplit(train=buckets[0], validation=buckets[1], test=buckets[2], mode="conventional")


def _round_half_down(x: float) -> int:
    return int(math.ceil(x - 0.5))


def split_inductive(conventional: DatasetSplit, fraction: float = 0.1, seed: int = 0) -> DatasetSplit:
    """Hold out a random sample of training-set locations.

    Every train/validation sequence touching a held-out location (in context
    or as target) is removed; the test set is carried over unchanged.
    """
    if conventional.mode != "conventional":
        raise ValueError("inductive split must start from a conventional split")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must be in (0, 1), got {fraction}")
    train_locations = sorted({l for seq in conventional.train for l in seq.location_ids()})
    n_new = _round_half_down(fraction * len(train_locations))
    rng = make_rng(seed, "inductive-holdout")
    l_new = frozenset(rng.choice(train_locations, size=n_new, replace=False).tolist()) if n_new else frozenset()

    def survives(seq: MobilitySequence) -> bool:
        return not (seq.location_ids() & l_new)

    return DatasetSplit(
        train=[s for s in conventional.train if survives(s)],
        validation=[s for s in conventional.validation if survives(s)],
        test=list(conventional.test),
        mode="inductive",
        l_new=l_new,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# persistence: sequence store and split manifests


def write_sequences(path, sequences: list[MobilitySequence]) -> str:
    """Write the sequence store; returns its content hash."""
    body = stable_json({"sequences": [s.to_dict() for s in sequences]})
    write_atomic(path, body)
    return sha256_text(body)


def read_sequences(path) -> tuple[list[MobilitySequence], str]:
    body = Path(path).read_text(encoding="utf-8")
    sequences = parse_json(path, body, lambda d: [MobilitySequence.from_dict(s) for s in d["sequences"]])
    return sequences, sha256_text(body)


def write_split_manifest(path, split: DatasetSplit, source_hash: str, extra: dict | None = None) -> dict:
    """Write the split as sequence ids, digested over the whole body; returns the manifest."""
    manifest = {
        "mode": split.mode,
        "seed": split.seed,
        "l_new": sorted(split.l_new),
        "train": [s.id for s in split.train],
        "validation": [s.id for s in split.validation],
        "test": [s.id for s in split.test],
        "source_hash": source_hash,
    }
    if extra:
        manifest.update(extra)
    manifest["manifest_digest"] = sha256_text(stable_json(manifest))
    write_atomic(path, stable_json(manifest))
    return manifest


def read_split_manifest(path) -> dict:
    manifest = parse_json(path, Path(path).read_text(encoding="utf-8"))
    body = {k: v for k, v in manifest.items() if k != "manifest_digest"}
    if sha256_text(stable_json(body)) != manifest.get("manifest_digest"):
        raise ValueError(f"{path}: manifest digest mismatch (file was modified)")
    return manifest


def apply_split_manifest(sequences: list[MobilitySequence], manifest: dict, source_hash: str) -> DatasetSplit:
    """Rebuild the exact split a manifest describes from the sequence store, carrying its digest."""
    if manifest["source_hash"] != source_hash:
        raise ValueError("manifest refers to a different sequence store")
    by_id = {s.id: s for s in sequences}
    missing = [i for part in ("train", "validation", "test") for i in manifest[part] if i not in by_id]
    if missing:
        raise ValueError(f"manifest references {len(missing)} unknown sequences, first: {missing[0]}")
    return DatasetSplit(
        train=[by_id[i] for i in manifest["train"]],
        validation=[by_id[i] for i in manifest["validation"]],
        test=[by_id[i] for i in manifest["test"]],
        mode=manifest["mode"],
        l_new=frozenset(manifest["l_new"]),
        seed=manifest["seed"],
        digest=manifest["manifest_digest"],
    )
