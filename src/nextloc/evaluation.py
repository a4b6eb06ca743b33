"""Ranking metrics, repeated-run aggregation, and embedding projection.

Metrics operate on 1-based ranks: for each test sample, the rank of the
true location in the model's descending score order. Ties in scores are
broken toward the lower class index, so identical inputs always produce
identical ranks. Reports store raw metric values in [0, 1]; any scaling
for display happens at formatting time only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

METRIC_NAMES = ("acc@1", "acc@5", "acc@10", "mrr", "ndcg@10")

# ----------------------------------------------------------------------
# ranks


def ranks_from_scores(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of each target class in the descending score order.

    A class outranks the target if its score is strictly higher, or equal
    with a lower class index (the deterministic tie rule used everywhere
    in this package).
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    if scores.ndim != 2:
        raise ValueError(f"scores must be 2-d, got shape {scores.shape}")
    if targets.shape != (scores.shape[0],):
        raise ValueError(f"targets shape {targets.shape} does not match {scores.shape[0]} samples")
    if not np.issubdtype(targets.dtype, np.integer):
        raise ValueError("targets must be integer class indices")
    n, k = scores.shape
    if np.any(targets < 0) or np.any(targets >= k):
        raise ValueError("target class index out of range")
    true_scores = scores[np.arange(n), targets]
    better = (scores > true_scores[:, None]).sum(axis=1)
    tied_lower = ((scores == true_scores[:, None]) & (np.arange(k)[None, :] < targets[:, None])).sum(axis=1)
    return (1 + better + tied_lower).astype(np.int64)


def rank_metrics(ranks) -> dict[str, float]:
    """The metrics of METRIC_NAMES for one run's non-empty 1-d array of 1-based ranks.

    acc@k is the share of ranks within the top k and MRR the mean reciprocal
    rank over the full ordering. With one relevant item per sample the ideal
    gain is 1, so nDCG@10 averages 1/log2(rank+1) over ranks <= 10 and 0 past.
    """
    r = np.asarray(ranks)
    if r.size == 0:
        raise ValueError("ranks must be non-empty")
    if r.ndim != 1:
        raise ValueError(f"ranks must be 1-d, got shape {r.shape}")
    if not np.issubdtype(r.dtype, np.integer) and not np.all(r == np.floor(r)):
        raise ValueError("ranks must be integers")
    r = r.astype(np.int64)
    if np.any(r < 1):
        raise ValueError("ranks are 1-based; found a value < 1")
    return {
        "acc@1": float(np.mean(r <= 1)),
        "acc@5": float(np.mean(r <= 5)),
        "acc@10": float(np.mean(r <= 10)),
        "mrr": float(np.mean(1.0 / r)),
        "ndcg@10": float(np.mean(np.where(r <= 10, 1.0 / np.log2(r + 1.0), 0.0))),
    }


# ----------------------------------------------------------------------
# repeated runs


@dataclass(frozen=True)
class MetricsReport:
    """One embedder kind's runs: a rank_metrics dict per seed."""

    embedder_kind: str
    split_mode: str
    seeds: tuple[int, ...]
    n_samples: tuple[int, ...]
    runs: tuple[dict[str, float], ...]

    def per_run(self, name: str) -> np.ndarray:
        return np.array([run[name] for run in self.runs])

    def mean(self, name: str) -> float:
        return float(np.mean(self.per_run(name)))

    def std(self, name: str) -> float:
        """Sample standard deviation (n-1 denominator); 0 for a single run."""
        vals = self.per_run(name)
        if vals.size < 2:
            return 0.0
        return float(np.std(vals, ddof=1))


def run_experiment(ranks_by_seed: Mapping[int, np.ndarray], split_mode: str, embedder_kind: str) -> MetricsReport:
    """Aggregate the rank metrics of one kind's runs, in the mapping's seed order.

    Each value holds the 1-based ranks of the true locations on that run's
    test samples. In the conventional protocol the seeds vary only the
    training randomness on a fixed split; in the inductive protocol each seed
    selects an independently resampled holdout split.
    """
    if not ranks_by_seed:
        raise ValueError("at least one run is required")
    runs = tuple(rank_metrics(ranks) for ranks in ranks_by_seed.values())
    return MetricsReport(
        embedder_kind=embedder_kind,
        split_mode=split_mode,
        seeds=tuple(ranks_by_seed),
        n_samples=tuple(len(ranks) for ranks in ranks_by_seed.values()),
        runs=runs,
    )


# ----------------------------------------------------------------------
# reports


def _fmt(v: float) -> str:
    return f"{v:.10f}"


def format_report(report: MetricsReport, dataset: str, provenance: Mapping[str, str] | None = None) -> str:
    """Deterministic key-value text: raw stored values plus a x100 display block."""
    lines = [
        f"dataset: {dataset}",
        f"embedder_kind: {report.embedder_kind}",
        f"split_mode: {report.split_mode}",
        f"runs: {len(report.runs)}",
        "seeds: " + " ".join(str(s) for s in report.seeds),
        "samples_per_run: " + " ".join(str(n) for n in report.n_samples),
    ]
    for key in sorted(provenance or {}):
        lines.append(f"{key}: {(provenance or {})[key]}")
    for name in METRIC_NAMES:
        lines.append(f"per_run {name}: " + " ".join(_fmt(v) for v in report.per_run(name)))
    for name in METRIC_NAMES:
        lines.append(f"mean {name}: {_fmt(report.mean(name))} std: {_fmt(report.std(name))}")
    lines.append("display_x100: " + "  ".join(
        f"{name} {100 * report.mean(name):.2f}±{100 * report.std(name):.2f}" for name in METRIC_NAMES
    ))
    return "\n".join(lines) + "\n"


def format_comparison(reports: Mapping[str, MetricsReport]) -> str:
    """Side-by-side mean±std table. When calliper-encoder is among several
    kinds, a last row gives, per metric, its relative difference to the best
    competing mean as a percentage, or n/a when that mean is zero."""
    kinds = sorted(reports)
    lines = ["metric  " + "  ".join(kinds)]
    for name in METRIC_NAMES:
        cells = [f"{_fmt(reports[k].mean(name))}±{_fmt(reports[k].std(name))}" for k in kinds]
        lines.append(f"{name}  " + "  ".join(cells))
    target = "calliper-encoder"
    if target in reports and len(reports) > 1:
        cells = []
        for name in METRIC_NAMES:
            best = max(reports[k].mean(name) for k in kinds if k != target)
            cells.append("n/a" if best == 0.0 else f"{100 * ((reports[target].mean(name) - best) / best):+.2f}%")
        lines.append(f"relative_to_best ({target})  " + "  ".join(cells))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# 2-D projection


@dataclass(frozen=True)
class Projection:
    coords: np.ndarray  # (N, 2)
    explained_variance: np.ndarray  # (2,)
    total_variance: float
    labels: tuple[str, ...]


def project_2d(embeddings: np.ndarray, labels: Sequence[str]) -> Projection:
    """Top-2 principal components of the embedding cloud.

    Deterministic sign convention: within each component, the loading of
    largest magnitude is made positive. Rank-deficient inputs degrade
    gracefully (missing components carry zero variance).
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"embeddings must be 2-d, got shape {x.shape}")
    n, d = x.shape
    if n < 3:
        raise ValueError(f"need at least 3 embeddings, got {n}")
    labels = tuple(str(l) for l in labels)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} embeddings")
    centered = x - x.mean(axis=0)
    total_var = float(np.sum(centered * centered) / (n - 1))
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    coords = np.zeros((n, 2))
    explained = np.zeros(2)
    n_comp = min(2, d, len(s))
    for j in range(n_comp):
        v = vt[j]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        coords[:, j] = centered @ v
        explained[j] = s[j] ** 2 / (n - 1)
    return Projection(coords=coords, explained_variance=explained, total_variance=total_var, labels=labels)


_LABEL_COLORS = {"seen": "#1f77b4", "new": "#d62728"}
_EXTRA_COLORS = ("#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def _color_map(labels: Sequence[str]) -> dict[str, str]:
    out = {}
    extra = 0
    for lab in sorted(set(labels)):
        if lab in _LABEL_COLORS:
            out[lab] = _LABEL_COLORS[lab]
        else:
            out[lab] = _EXTRA_COLORS[extra % len(_EXTRA_COLORS)]
            extra += 1
    return out


def projection_svg(proj: Projection, width: int = 640, height: int = 480, margin: int = 40) -> str:
    """Self-contained SVG scatter of the projection, coloured by label."""
    coords = proj.coords
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)

    def to_px(p):
        sx = margin + (p[0] - lo[0]) / span[0] * (width - 2 * margin)
        sy = height - margin - (p[1] - lo[1]) / span[1] * (height - 2 * margin)
        return sx, sy

    colors = _color_map(proj.labels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for p, lab in zip(coords, proj.labels):
        sx, sy = to_px(p)
        parts.append(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="3" fill="{colors[lab]}" fill-opacity="0.8"/>')
    for i, (lab, col) in enumerate(sorted(colors.items())):
        y = margin + 16 * i
        parts.append(f'<circle cx="{width - margin - 90}" cy="{y}" r="4" fill="{col}"/>')
        parts.append(
            f'<text x="{width - margin - 80}" y="{y + 4}" font-family="sans-serif" font-size="12">{lab}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def projection_coords_text(proj: Projection) -> str:
    """'x y label' per line, full float precision."""
    lines = [f"{float(p[0])!r} {float(p[1])!r} {lab}" for p, lab in zip(proj.coords, proj.labels)]
    return "\n".join(lines) + "\n"
