"""The benchmark's named workloads.

Each workload is a synthetic city (the arguments of `nextloc synth`) plus
the overrides applied to the `synthetic-desk` config that synth writes.
Every workload fixes the amount of training work: `train_patience` is at
least `train_epochs`, so early stopping never ends a run sooner, and a
change to float rounding cannot change how much work is done.

`SMOKE` shrinks every workload so that the benchmark's own tests can run
the whole pipeline in a few seconds; its numbers are not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict  # `nextloc synth` arguments, without --out and --seed
    config: dict  # overrides merged into the written config (nested dicts merge)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-train",
            why="predictor training hot path: the train stage dominates; conventional split, all three kinds",
            synth={"users": 16, "locations": 120, "categories": 6, "days": 80, "split-mode": "conventional"},
            config={
                "seeds": [0],
                "train_batch_size": 32,
                "train_epochs": 2,
                "train_patience": 2,
                "max_train_sequences": 450,
            },
        ),
        Workload(
            name="poi-pretrain",
            why="contrastive pretraining dominates: many POIs, many small backward/Adam steps, text hashing",
            synth={"users": 10, "locations": 560, "categories": 12, "days": 60, "split-mode": "inductive"},
            config={
                "seeds": [0, 1],
                "min_visits_per_location": 5,
                "train_batch_size": 32,
                "train_epochs": 1,
                "train_patience": 1,
                "max_train_sequences": 150,
            },
        ),
        Workload(
            name="store-eval",
            why="inference and sequence-store I/O: large test sets ranked per (kind, seed), store reread per stage",
            synth={"users": 40, "locations": 150, "categories": 8, "days": 45, "split-mode": "inductive"},
            config={
                "seeds": [0, 1],
                "train_batch_size": 32,
                "train_epochs": 1,
                "train_patience": 1,
                "max_train_sequences": 150,
            },
        ),
    )
}

# Tiny sizes of every workload, for the benchmark's own tests.
SMOKE = {
    "desk-train": {"synth": {"users": 8, "locations": 24, "days": 30}, "config": {"max_train_sequences": 100}},
    "poi-pretrain": {"synth": {"users": 6, "locations": 60, "days": 20}, "config": {"max_train_sequences": 60}},
    "store-eval": {"synth": {"users": 8, "locations": 30, "days": 30}, "config": {"max_train_sequences": 60}},
}
SMOKE_PRETRAIN = {"pretrain": {"epochs": 2}, "skipgram_epochs": 1}


def resolve(name: str, smoke: bool = False) -> Workload:
    """The named workload, shrunk to its smoke size when asked."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
    w = WORKLOADS[name]
    if not smoke:
        return w
    small = SMOKE[name]
    return Workload(
        name=w.name,
        why=w.why,
        synth={**w.synth, **small["synth"]},
        config=merge(merge(w.config, small["config"]), SMOKE_PRETRAIN),
    )


def merge(base: dict, overrides: dict) -> dict:
    """`base` with `overrides` applied; nested dicts merge key by key."""
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = value
    return out
