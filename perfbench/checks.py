"""Correctness checks on one pipeline's artifacts, and the work they record.

The check looks only at files the pipeline wrote. A pipeline is scored
only when the check finds no problem; otherwise it counts as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

METRIC_NAMES = ("acc@1", "acc@5", "acc@10", "mrr", "ndcg@10")
CHECKPOINT_SUFFIX = ".nlck"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _manifest(art: Path, mode: str, seed: int | None) -> dict:
    name = "manifest_conventional.json" if mode == "conventional" else f"manifest_inductive_seed{seed}.json"
    return json.loads((art / name).read_text(encoding="utf-8"))


def check_artifacts(art: Path, cfg: dict) -> tuple[list[str], dict]:
    """Problems found in the artifacts under `art`, and the work they record.

    Checks that metrics_<mode>.json has every metric for every (kind, seed)
    in [0, 1], that every per-epoch loss in the *.log.json and *.log.ndjson
    files is finite, and that every predictor checkpoint loads. The work
    summary holds the counts the throughput metrics divide by, the quality
    guards, and the sha256 of the metrics file and of every checkpoint.
    """
    from nextloc.mobdata import LocationIndex
    from nextloc.predictor import NextLocPredictor

    problems: list[str] = []
    mode, seeds, kinds = cfg["split_mode"], list(cfg["seeds"]), list(cfg["embedder_kinds"])
    split_seeds = [None] if mode == "conventional" else seeds
    work = {"train_sequences": 0, "test_sequences": 0, "pretrain_pairs": 0}

    metrics_file = art / f"metrics_{mode}.json"
    mrr_values = []
    try:
        payload = json.loads(metrics_file.read_text(encoding="utf-8"))
        for kind in kinds:
            subsets = payload["kinds"][kind]
            for subset in ("full", "lnew") if mode == "inductive" else ("full",):
                for name in METRIC_NAMES:
                    values = subsets[subset][name]
                    if len(values) != len(seeds):
                        problems.append(f"{metrics_file.name}: {kind}/{subset}/{name} has {len(values)} runs")
                    elif not _finite(values) or not all(0.0 <= v <= 1.0 for v in values):
                        problems.append(f"{metrics_file.name}: {kind}/{subset}/{name} outside [0, 1]: {values}")
            mrr_values.extend(subsets["full"]["mrr"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{metrics_file.name}: unreadable ({exc!r})")

    for path in sorted(art.glob("*.log.json")):
        try:
            losses = json.loads(path.read_text(encoding="utf-8"))["epoch_losses"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path.name}: unreadable ({exc!r})")
            continue
        if not losses or not _finite(losses):
            problems.append(f"{path.name}: non-finite or missing epoch loss")

    for seed in split_seeds:
        stem = "calliper" if seed is None else f"calliper_seed{seed}"
        try:
            log = json.loads((art / f"{stem}.log.json").read_text(encoding="utf-8"))
            work["pretrain_pairs"] += int(log["n_pois"]) * len(log["epoch_losses"])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{stem}.log.json: unreadable ({exc!r})")

    best_val = []
    try:
        index = LocationIndex.from_dict(json.loads((art / "locations.json").read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"locations.json: unreadable ({exc!r})")
        index = None
    cap = int(cfg.get("max_train_sequences", 0))
    for kind in kinds:
        for seed in seeds:
            stem = f"predictor_{kind}_seed{seed}"
            try:
                records = [
                    json.loads(line)
                    for line in (art / f"{stem}.log.ndjson").read_text(encoding="utf-8").splitlines()
                    if line.strip()
                ]
                losses = [r["train_loss"] for r in records] + [r["val_loss"] for r in records]
                if not records or not _finite(losses):
                    problems.append(f"{stem}.log.ndjson: non-finite or missing epoch loss")
                else:
                    best_val.append(min(r["val_loss"] for r in records))
                manifest = _manifest(art, mode, None if mode == "conventional" else seed)
                n_train = len(manifest["train"])
                work["train_sequences"] += len(records) * (min(n_train, cap) if cap > 0 else n_train)
                work["test_sequences"] += len(manifest["test"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{stem}: logs or manifest unreadable ({exc!r})")
            if index is not None:
                try:
                    NextLocPredictor.load(art / f"{stem}{CHECKPOINT_SUFFIX}", index)
                except Exception as exc:  # any failure to load is a finding, not a crash
                    problems.append(f"{stem}{CHECKPOINT_SUFFIX}: does not load ({exc!r})")

    work["val_loss"] = sum(best_val) / len(best_val) if best_val else float("nan")
    work["test_mrr"] = sum(mrr_values) / len(mrr_values) if mrr_values else float("nan")
    digests = {}
    for path in [metrics_file, *sorted(art.glob(f"*{CHECKPOINT_SUFFIX}"))]:
        if path.is_file():
            digests[path.name] = sha256_file(path)
    work["digests"] = digests
    return problems, work
