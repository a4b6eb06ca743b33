"""Run one `nextloc` CLI stage with a span around each layer's public functions.

    python3 perfbench/traced_stage.py --spans OUT.json -- <stage> --config ...

Functions are wrapped from outside, under the name where their caller looks
them up (`nextloc.predictor.backward`, `nextloc.cli.read_sequences`,
`NextLocPredictor.forward_logits`, ...), so the program itself is unchanged.
Spans (name, start, end, parent) and counters are kept in memory and
written to OUT.json when the stage ends. The checkout's `src` must be on
PYTHONPATH.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def count_distinct(self, name: str, items) -> None:
        self.distinct.setdefault(name, set()).update(items)

    def totals(self) -> dict[str, float]:
        return {**self.counts, **{name: len(items) for name, items in self.distinct.items()}}

    def span(self, name: str, fn, counter=None):
        """`fn` wrapped so each call records a span; `counter(tracer, args, kwargs, result)` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced


def _count_sequences(t, args, kwargs, result):
    t.count("mobdata.sequences", len(result))


def _count_pois(t, args, kwargs, result):
    t.count_distinct("calliper.distinct_pois", (p.id for p in args[1]))


def _count_texts(t, args, kwargs, result):
    t.count("calliper.text_embeds", len(args[1]))


def _count_pairs(t, args, kwargs, result):
    t.count("baselines.skipgram_pairs", result[1]["n_pairs"])


def _count_val(t, args, kwargs, result):
    t.count("predictor.val_sequences", len(args[1]))


def _count_train_batch(t, args, kwargs, result):
    if kwargs.get("training"):
        t.count("predictor.train_sequences", len(args[1]))


def _count_bytes(t, args, kwargs, result):
    t.count("numcore.checkpoint_bytes", os.path.getsize(args[0]))


# (module or class, attribute, span name, counter)
TARGETS = [
    ("nextloc.cli", "load_checkins", "mobdata.load_checkins", None),
    ("nextloc.cli", "filter_min_counts", "mobdata.filter_min_counts", None),
    ("nextloc.cli", "build_sequences", "mobdata.build_sequences", _count_sequences),
    ("nextloc.cli", "write_sequences", "mobdata.write_sequences", None),
    ("nextloc.cli", "read_sequences", "mobdata.read_sequences", None),
    ("nextloc.cli", "split_conventional", "mobdata.split_conventional", None),
    ("nextloc.cli", "split_inductive", "mobdata.split_inductive", None),
    ("nextloc.cli", "write_split_manifest", "mobdata.write_split_manifest", None),
    ("nextloc.cli", "read_split_manifest", "mobdata.read_split_manifest", None),
    ("nextloc.cli", "apply_split_manifest", "mobdata.apply_split_manifest", None),
    ("nextloc.cli", "read_poi_file", "calliper.read_poi_file", None),
    ("nextloc.calliper:CaLLiPerModel", "pretrain", "calliper.pretrain", _count_pois),
    ("nextloc.calliper:HashedNgramEmbedder", "embed_batch", "calliper.text_embed", _count_texts),
    ("nextloc.calliper", "grid_pe_batch", "geoenc.grid_pe", None),
    ("nextloc.geoenc:FCNet", "forward", "geoenc.fcnet_forward", None),
    ("nextloc.cli", "skipgram_pretrain", "baselines.skipgram", _count_pairs),
    ("nextloc.baselines:CalliperEmbedder", "embedding_matrix", "baselines.embedding_matrix", None),
    ("nextloc.baselines:SkipgramEmbedder", "embedding_matrix", "baselines.embedding_matrix", None),
    ("nextloc.baselines:VanillaE2EEmbedder", "embedding_matrix", "baselines.embedding_matrix", None),
    ("nextloc.predictor:NextLocPredictor", "train", "predictor.train", None),
    ("nextloc.predictor:NextLocPredictor", "_epoch_loss", "predictor.val", _count_val),
    ("nextloc.predictor:NextLocPredictor", "predict_proba", "predictor.predict", None),
    ("nextloc.predictor:NextLocPredictor", "forward_logits", "predictor.forward_logits", _count_train_batch),
    ("nextloc.predictor:NextLocPredictor", "_featurize", "predictor.featurize", None),
    ("nextloc.predictor", "backward", "numcore.backward", None),
    ("nextloc.calliper", "backward", "numcore.backward", None),
    ("nextloc.predictor", "adam_step", "numcore.adam_step", None),
    ("nextloc.calliper", "adam_step", "numcore.adam_step", None),
    ("nextloc.predictor", "cross_entropy", "numcore.cross_entropy", None),
    ("nextloc.calliper", "cross_entropy", "numcore.cross_entropy", None),
    ("nextloc.cli", "save_checkpoint", "numcore.checkpoint_save", _count_bytes),
    ("nextloc.predictor", "save_checkpoint", "numcore.checkpoint_save", _count_bytes),
    ("nextloc.calliper", "save_checkpoint", "numcore.checkpoint_save", _count_bytes),
    ("nextloc.cli", "load_checkpoint", "numcore.checkpoint_load", None),
    ("nextloc.predictor", "load_checkpoint", "numcore.checkpoint_load", None),
    ("nextloc.calliper", "load_checkpoint", "numcore.checkpoint_load", None),
    ("nextloc.cli", "ranks_from_scores", "evaluation.ranks", None),
    ("nextloc.cli", "run_experiment", "evaluation.report", None),
    ("nextloc.cli", "format_report", "evaluation.report", None),
    ("nextloc.cli", "format_comparison", "evaluation.report", None),
]


def install(tracer: Tracer) -> None:
    """Replace every target with its traced wrapper. A missing target is an error, not a silent gap."""
    for owner, attr, name, counter in TARGETS:
        module_name, _, class_name = owner.partition(":")
        holder = importlib.import_module(module_name)
        if class_name:
            holder = getattr(holder, class_name)
        setattr(holder, attr, tracer.span(name, getattr(holder, attr), counter))


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: traced_stage.py --spans OUT.json -- <nextloc arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    import nextloc.cli

    tracer = Tracer()
    install(tracer)
    stage = tracer.span(f"cli.{cli_args[0]}", nextloc.cli.main)
    try:
        return stage(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.totals()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
