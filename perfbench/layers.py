"""Per-layer numbers from the spans of one traced pipeline.

A span's layer is the part of its name before the first dot. A layer's self
time is its spans' time minus the time their child spans cover. The root
span of each stage process is the stage itself (`cli.<command>`); stage
time outside every direct child of the root (interpreter start, imports,
CLI glue) is the stage's unattributed share.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "mobdata", "calliper", "geoenc", "baselines", "predictor", "numcore", "evaluation")

STAGE_KEYS = ("preprocess", "pretrain_calliper", "pretrain_skipgram", "train", "evaluate")

# (name, unit) of every per-layer metric, in print order. The cli.* stage
# times, trace.overhead_s and evaluation.test_mrr come from run.py; the rest
# from layer_metrics(). evaluation.test_mrr (mean whole-test MRR over (kind,
# seed)) is a quality guard, but it is kept here, without a bound, because it
# moves 15-25% (quartile distance over median) from one workload seed to the
# next: each seed is a different city, and the predictors are barely trained.
PER_LAYER = (
    [(f"cli.{key}_s", "s") for key in STAGE_KEYS]
    + [
        ("mobdata.load_checkins_s", "s"),
        ("mobdata.build_sequences_s", "s"),
        ("mobdata.write_sequences_s", "s"),
        ("mobdata.read_sequences_s", "s"),
        ("mobdata.read_sequences_calls", "count"),
        ("mobdata.apply_split_manifest_s", "s"),
        ("mobdata.apply_split_manifest_calls", "count"),
        ("mobdata.sequences", "count"),
        ("calliper.pretrain_s", "s"),
        ("calliper.text_embed_s", "s"),
        ("calliper.text_embeds", "count"),
        ("calliper.distinct_pois", "count"),
        ("calliper.text_embeds_per_poi", "1"),
        ("calliper.steps", "count"),
        ("calliper.step_ms.p50", "ms"),
        ("calliper.step_ms.p95", "ms"),
        ("geoenc.grid_pe_s", "s"),
        ("geoenc.fcnet_forward_s", "s"),
        ("baselines.skipgram_s", "s"),
        ("baselines.skipgram_pairs", "count"),
        ("baselines.skipgram_pairs_per_s", "pairs/s"),
        ("baselines.embedding_matrix_s", "s"),
        ("predictor.featurize_s", "s"),
        ("predictor.featurize_calls_in_steps", "count"),
        ("predictor.featurize_calls_per_step", "1"),
        ("predictor.forward_train_s", "s"),
        ("predictor.val_s", "s"),
        ("predictor.predict_s", "s"),
        ("predictor.train_steps", "count"),
        ("predictor.step_ms.p50", "ms"),
        ("predictor.step_ms.p95", "ms"),
        ("predictor.train_sequences", "count"),
        ("predictor.val_sequences", "count"),
        ("predictor.val_per_train_seq", "1"),
        ("numcore.backward_s", "s"),
        ("numcore.backward_calls", "count"),
        ("numcore.adam_step_s", "s"),
        ("numcore.adam_step_calls", "count"),
        ("numcore.cross_entropy_s", "s"),
        ("numcore.checkpoint_save_s", "s"),
        ("numcore.checkpoint_load_s", "s"),
        ("numcore.checkpoint_bytes", "B"),
        ("evaluation.ranks_s", "s"),
        ("evaluation.report_s", "s"),
        ("evaluation.test_mrr", "1"),
    ]
    + [(f"self.{layer}_s", "s") for layer in LAYERS]
    + [("trace.overhead_s", "s")]
    + [(f"trace.unattributed_share.{key}", "1") for key in STAGE_KEYS]
)

# ratio metric -> (numerator, base), so every ratio is reported with its base
RATIOS = {
    "calliper.text_embeds_per_poi": ("calliper.text_embeds", "calliper.distinct_pois"),
    "predictor.featurize_calls_per_step": ("predictor.featurize_calls_in_steps", "predictor.train_steps"),
    "predictor.val_per_train_seq": ("predictor.val_sequences", "predictor.train_sequences"),
    "baselines.skipgram_pairs_per_s": ("baselines.skipgram_pairs", "baselines.skipgram_s"),
}

# span name -> metric holding the total time of its spans
TIMED = {
    "mobdata.load_checkins": "mobdata.load_checkins_s",
    "mobdata.build_sequences": "mobdata.build_sequences_s",
    "mobdata.write_sequences": "mobdata.write_sequences_s",
    "mobdata.read_sequences": "mobdata.read_sequences_s",
    "mobdata.apply_split_manifest": "mobdata.apply_split_manifest_s",
    "calliper.pretrain": "calliper.pretrain_s",
    "calliper.text_embed": "calliper.text_embed_s",
    "geoenc.grid_pe": "geoenc.grid_pe_s",
    "geoenc.fcnet_forward": "geoenc.fcnet_forward_s",
    "baselines.skipgram": "baselines.skipgram_s",
    "baselines.embedding_matrix": "baselines.embedding_matrix_s",
    "predictor.featurize": "predictor.featurize_s",
    "predictor.val": "predictor.val_s",
    "predictor.predict": "predictor.predict_s",
    "numcore.backward": "numcore.backward_s",
    "numcore.adam_step": "numcore.adam_step_s",
    "numcore.cross_entropy": "numcore.cross_entropy_s",
    "numcore.checkpoint_save": "numcore.checkpoint_save_s",
    "numcore.checkpoint_load": "numcore.checkpoint_load_s",
    "evaluation.ranks": "evaluation.ranks_s",
    "evaluation.report": "evaluation.report_s",
}
CALLED = {
    "mobdata.read_sequences": "mobdata.read_sequences_calls",
    "mobdata.apply_split_manifest": "mobdata.apply_split_manifest_calls",
    "numcore.backward": "numcore.backward_calls",
    "numcore.adam_step": "numcore.adam_step_calls",
}
COUNTED = (
    "mobdata.sequences",
    "calliper.text_embeds",
    "calliper.distinct_pois",
    "baselines.skipgram_pairs",
    "predictor.train_sequences",
    "predictor.val_sequences",
    "numcore.checkpoint_bytes",
)
PREDICTOR_PHASES = ("predictor.train", "predictor.val", "predictor.predict")


def _step_times(spans: list, children: dict, parent_name: str) -> list[float]:
    """Milliseconds per optimizer step inside each `parent_name` span.

    A step runs from the first child span after the previous Adam step (or
    the parent's start) to the end of its own Adam step; validation spans
    between epochs are not part of any step.
    """
    out = []
    for i, (name, _, _, _) in enumerate(spans):
        if name != parent_name:
            continue
        start = None
        for c in children[i]:
            c_name, c_start, c_end, _ = spans[c]
            if c_name == "predictor.val":
                continue
            if start is None:
                start = c_start
            if c_name == "numcore.adam_step":
                out.append(1000.0 * (c_end - start))
                start = None
    return out


def _phase(spans: list, i: int) -> str | None:
    """The nearest enclosing predictor phase (train, val or predict) of span i."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in PREDICTOR_PHASES:
            return spans[p][0]
        p = spans[p][3]
    return None


def layer_metrics(stages: list[tuple[str, float, Path]]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline.

    `stages` holds (stage key, stage wall time as measured from outside the
    process, spans file) for each stage, in run order.
    """
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    self_time = {layer: 0.0 for layer in LAYERS}
    calliper_steps: list[float] = []
    predictor_steps: list[float] = []
    out: dict[str, float] = {}
    forward_train = 0.0
    featurize_in_steps = 0
    train_steps = 0

    for key, wall, spans_file in stages:
        data = json.loads(Path(spans_file).read_text(encoding="utf-8"))
        spans = data["spans"]
        for name, n in data["counts"].items():
            counts[name] += n
        children: dict[int, list[int]] = defaultdict(list)
        covered_by_child = defaultdict(float)
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                children[parent].append(i)
                covered_by_child[parent] += end - start
        root_covered = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            totals[name] += dur
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += dur - covered_by_child[i]
            if parent >= 0 and spans[parent][3] < 0:
                root_covered += dur
            if name == "predictor.forward_logits" and parent >= 0 and spans[parent][0] == "predictor.train":
                forward_train += dur
            if name == "predictor.featurize" and _phase(spans, i) == "predictor.train":
                featurize_in_steps += 1
            if name == "numcore.adam_step" and parent >= 0 and spans[parent][0] == "predictor.train":
                train_steps += 1
        out[f"trace.unattributed_share.{key}"] = (wall - root_covered) / wall
        calliper_steps += _step_times(spans, children, "calliper.pretrain")
        predictor_steps += _step_times(spans, children, "predictor.train")

    for span_name, metric in TIMED.items():
        out[metric] = totals[span_name]
    for span_name, metric in CALLED.items():
        out[metric] = calls[span_name]
    for name in COUNTED:
        out[name] = counts[name]
    for layer, seconds in self_time.items():
        out[f"self.{layer}_s"] = seconds
    out["predictor.forward_train_s"] = forward_train
    out["predictor.featurize_calls_in_steps"] = featurize_in_steps
    out["predictor.train_steps"] = train_steps
    out["calliper.steps"] = len(calliper_steps)
    for prefix, steps in (("calliper", calliper_steps), ("predictor", predictor_steps)):
        p50, p95 = np.percentile(steps, [50, 95]) if steps else (float("nan"), float("nan"))
        out[f"{prefix}.step_ms.p50"] = float(p50)
        out[f"{prefix}.step_ms.p95"] = float(p95)
    for ratio, (num, base) in RATIOS.items():
        out[ratio] = out[num] / out[base] if out[base] else float("nan")
    return out
