"""Experiment configuration: one JSON file drives the whole pipeline.

Every stage (preprocess, pretrain, train, evaluate, visualize) reads the
same ExperimentConfig, so a fixed config plus its seed list pins the full
artifact chain. All randomness flows from the explicit seeds here; nothing
reads the wall clock.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from nextloc.calliper import PretrainConfig
from nextloc.geoenc import GridSpec
from nextloc.predictor import PredictorConfig
from nextloc.util import read_settings, stable_json, write_atomic

EMBEDDER_KINDS = ("calliper-encoder", "lookup-table", "skipgram-table")


# the nested config sections, each read as its own settings object
SECTIONS = {"grid": GridSpec, "pretrain": PretrainConfig, "predictor": PredictorConfig}


@dataclass(frozen=True)
class ExperimentConfig:
    """What one experiment sets; fixed protocol values stay the defaults of the functions that use them."""

    name: str
    checkins_path: str
    pois_path: str
    out_dir: str
    grid: GridSpec
    pretrain: PretrainConfig
    predictor: PredictorConfig
    split_mode: str = "conventional"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    embedder_kinds: tuple[str, ...] = EMBEDDER_KINDS
    min_visits_per_location: int = 10
    train_epochs: int = 100
    train_patience: int = 3
    train_batch_size: int = 128
    max_train_sequences: int = 0  # 0 disables the cap
    skipgram_epochs: int = 5

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "embedder_kinds", tuple(self.embedder_kinds))
        if self.split_mode not in ("conventional", "inductive"):
            raise ValueError(f"unknown split mode {self.split_mode!r}")
        if not self.seeds:
            raise ValueError("seeds list must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if not self.embedder_kinds:
            raise ValueError("at least one embedder kind is required")
        for kind in self.embedder_kinds:
            if kind not in EMBEDDER_KINDS:
                raise ValueError(f"unknown embedder kind {kind!r}; valid: {EMBEDDER_KINDS}")
        if len(set(self.embedder_kinds)) != len(self.embedder_kinds):
            raise ValueError("embedder kinds must be distinct")
        if min(
            self.min_visits_per_location,
            self.train_epochs,
            self.train_patience,
            self.train_batch_size,
            self.skipgram_epochs,
        ) < 1:
            raise ValueError("count and size settings must be positive")
        if self.max_train_sequences < 0:
            raise ValueError("max_train_sequences must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if isinstance(d, dict):
            d = {k: read_settings(SECTIONS[k], v, "config", f"{k}.") if k in SECTIONS else v for k, v in d.items()}
        return read_settings(cls, d, "config")

    def validate_paths(self) -> None:
        """Input files must exist before any stage runs."""
        missing = [p for p in (self.checkins_path, self.pois_path) if not Path(p).is_file()]
        if missing:
            raise FileNotFoundError("missing input file(s): " + ", ".join(missing))


def save_config(cfg: ExperimentConfig, path) -> None:
    write_atomic(path, stable_json(cfg.to_dict()) + "\n")


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    return ExperimentConfig.from_dict(json.loads(p.read_text(encoding="utf-8")))


def synthetic_desk_config(checkins_path: str, pois_path: str, out_dir: str, split_mode: str) -> ExperimentConfig:
    """The config `nextloc synth --write-config` writes for its city.

    Every stage is shrunk so a full three-embedder, five-seed comparison
    finishes in minutes on one CPU. City coordinates live on a radius-6 ring
    with sigma-0.8 spread, so useful structure spans roughly 0.1 to 20 units.
    """
    return ExperimentConfig(
        name="synthetic-desk",
        checkins_path=checkins_path,
        pois_path=pois_path,
        out_dir=out_dir,
        grid=GridSpec(0.1, 20.0, 16),
        pretrain=PretrainConfig(batch_size=64, epochs=40, embed_dim=64, hidden_dim=128),
        predictor=PredictorConfig(
            layers=2,
            heads=4,
            ff_dim=128,
            dropout=0.1,
            d_model=64,
            max_context=16,
            time_dim=8,
            dow_dim=4,
            user_dim=8,
        ),
        split_mode=split_mode,
        min_visits_per_location=10,
        train_epochs=12,
        train_patience=2,
        train_batch_size=128,
        max_train_sequences=2500,
        skipgram_epochs=5,
    )
