"""Tests for ranking metrics, report aggregation, and 2-D projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc.evaluation import (
    METRIC_NAMES,
    MetricsReport,
    format_comparison,
    format_report,
    project_2d,
    projection_coords_text,
    projection_svg,
    rank_metrics,
    ranks_from_scores,
    run_experiment,
)
from nextloc.util import make_rng

# ----------------------------------------------------------------------
# metric anchors


def test_acc_at_k_anchors():
    assert rank_metrics([1, 1, 1])["acc@1"] == 1.0
    got = rank_metrics([1, 2, 4, 6])
    assert (got["acc@1"], got["acc@5"], got["acc@10"]) == (0.25, 0.75, 1.0)
    assert rank_metrics([11])["acc@10"] == 0.0


def test_mrr_anchors():
    assert rank_metrics([1, 1, 1, 1])["mrr"] == 1.0
    assert rank_metrics([1, 2, 4])["mrr"] == pytest.approx(7 / 12)
    assert rank_metrics([100])["mrr"] == 0.01


def test_ndcg_anchors():
    assert rank_metrics([1])["ndcg@10"] == 1.0
    assert rank_metrics([3])["ndcg@10"] == 0.5  # 1/log2(4)
    assert rank_metrics([11])["ndcg@10"] == 0.0


def test_rank_metrics_keys_and_integral_floats():
    got = rank_metrics(np.array([1.0, 2.0, 4.0]))
    assert tuple(got) == METRIC_NAMES
    assert got == rank_metrics([1, 2, 4])


def test_metrics_reject_empty_and_bad_input():
    for ranks in ([], [0, 1], [1.5], [[1, 2]]):
        with pytest.raises(ValueError):
            rank_metrics(ranks)


# ----------------------------------------------------------------------
# tie rule


def test_ranks_from_scores_tie_rule():
    scores = np.array([[0.5, 0.7, 0.5]])
    # class 1 wins outright; classes 0 and 2 tie, lower index first
    assert ranks_from_scores(scores, np.array([1])) == [1]
    assert ranks_from_scores(scores, np.array([0])) == [2]
    assert ranks_from_scores(scores, np.array([2])) == [3]


def test_ranks_from_scores_all_equal_scores():
    scores = np.zeros((1, 4))
    ranks = [int(ranks_from_scores(scores, np.array([t]))[0]) for t in range(4)]
    assert ranks == [1, 2, 3, 4]


def test_ranks_from_scores_validation():
    with pytest.raises(ValueError):
        ranks_from_scores(np.zeros(3), np.array([0]))
    with pytest.raises(ValueError):
        ranks_from_scores(np.zeros((2, 3)), np.array([0]))
    with pytest.raises(ValueError):
        ranks_from_scores(np.zeros((1, 3)), np.array([3]))
    with pytest.raises(ValueError):
        ranks_from_scores(np.zeros((1, 3)), np.array([0.5]))


# ----------------------------------------------------------------------
# brute-force oracle


def oracle_ranks(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    out = []
    for i in range(scores.shape[0]):
        order = sorted(range(scores.shape[1]), key=lambda j: (-scores[i, j], j))
        out.append(order.index(int(targets[i])) + 1)
    return np.array(out, dtype=np.int64)


def oracle_metrics(ranks: np.ndarray) -> dict:
    out = {}
    for k in (1, 5, 10):
        out[f"acc@{k}"] = float(np.mean(np.array([1.0 if r <= k else 0.0 for r in ranks])))
    out["mrr"] = float(np.mean(np.array([1.0 / r for r in ranks])))
    out["ndcg@10"] = float(
        np.mean(np.array([1.0 / np.log2(np.float64(r) + 1.0) if r <= 10 else 0.0 for r in ranks]))
    )
    return out


def test_metrics_equal_enumeration_oracle_exactly():
    rng = make_rng(11, "metric-oracle")
    for trial in range(40):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(2, 51))
        if trial % 2 == 0:
            scores = rng.random((n, k))
        else:
            scores = rng.integers(0, 4, size=(n, k)).astype(np.float64)  # force ties
        targets = rng.integers(0, k, size=n)
        ranks = ranks_from_scores(scores, targets)
        np.testing.assert_array_equal(ranks, oracle_ranks(scores, targets))
        got = rank_metrics(ranks)
        want = oracle_metrics(ranks)
        for name in METRIC_NAMES:
            assert got[name] == want[name], f"{name}: {got[name]!r} != {want[name]!r}"


# ----------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=30),
    st.data(),
)
def test_improving_a_rank_never_hurts_any_metric(ranks, data):
    idx = data.draw(st.integers(min_value=0, max_value=len(ranks) - 1))
    improved = list(ranks)
    improved[idx] = data.draw(st.integers(min_value=1, max_value=ranks[idx]))
    before = rank_metrics(ranks)
    after = rank_metrics(improved)
    for name in METRIC_NAMES:
        assert after[name] >= before[name] - 1e-15


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=40))
def test_acc_at_full_catalogue_is_one(ranks):
    # in a catalogue of 10 locations every rank is at most 10
    assert rank_metrics(ranks)["acc@10"] == 1.0


# ----------------------------------------------------------------------
# reports


def fixed(kind: str, value: float) -> MetricsReport:
    """A one-run report with every metric at `value`."""
    return MetricsReport(kind, "conventional", seeds=(0,), n_samples=(4,), runs=(dict.fromkeys(METRIC_NAMES, value),))


def test_run_experiment_keeps_seeds_samples_and_metrics():
    report = run_experiment({3: [1, 2, 4], 7: np.array([2, 2])}, split_mode="inductive", embedder_kind="lookup-table")
    assert report.seeds == (3, 7) and report.n_samples == (3, 2)
    assert report.runs[0] == rank_metrics([1, 2, 4])
    assert report.runs[0]["acc@1"] == pytest.approx(1 / 3)
    assert report.runs[1]["mrr"] == 0.5


def test_report_mean_and_std():
    # acc@1 is 0.2 in seed 0 and 0.4 in seed 1
    report = run_experiment({0: [1, 20, 20, 20, 20], 1: [1, 1, 20, 20, 20]}, "conventional", "lookup-table")
    assert report.mean("acc@1") == pytest.approx(0.3)
    assert report.std("acc@1") == pytest.approx(np.std([0.2, 0.4], ddof=1))
    np.testing.assert_array_equal(report.per_run("acc@1"), [0.2, 0.4])


def test_report_identical_runs_zero_std():
    report = run_experiment(dict.fromkeys(range(5), [1, 3, 7, 12]), "inductive", "skipgram-table")
    for name in METRIC_NAMES:
        assert report.std(name) == 0.0


def test_report_single_run_std_zero():
    assert run_experiment({0: [1, 1]}, "conventional", "lookup-table").std("mrr") == 0.0


def test_run_experiment_aggregates_and_replays():
    ranks = {seed: make_rng(seed, "fake-run").integers(1, 20, size=50) for seed in range(5)}
    report = run_experiment(ranks, split_mode="conventional", embedder_kind="lookup-table")
    assert report.seeds == (0, 1, 2, 3, 4) and len(report.runs) == 5
    replay = run_experiment(dict(ranks), split_mode="conventional", embedder_kind="lookup-table")
    assert replay == report  # bit-for-bit: dataclass equality over the metric floats
    with pytest.raises(ValueError):
        run_experiment({}, split_mode="conventional", embedder_kind="lookup-table")
    with pytest.raises(ValueError):
        run_experiment({0: [1, 2], 1: []}, split_mode="conventional", embedder_kind="lookup-table")


def test_format_report_contains_raw_and_display_values():
    report = run_experiment({0: np.array([1, 2, 4]), 1: np.array([1, 2, 4])}, "conventional", "calliper-encoder")
    text = format_report(report, dataset="synth", provenance={"manifest_hash": "abc123"})
    assert "dataset: synth" in text
    assert "manifest_hash: abc123" in text
    assert "seeds: 0 1" in text
    assert f"{report.mean('mrr'):.10f}" in text
    assert "display_x100:" in text
    # stored values stay unscaled
    assert f"mean acc@1: {1/3:.10f}" in text


def test_format_comparison_has_relative_row():
    text = format_comparison(
        {
            "calliper-encoder": fixed("calliper-encoder", 0.6),
            "lookup-table": fixed("lookup-table", 0.5),
            "skipgram-table": fixed("skipgram-table", 0.4),
        }
    )
    assert text.splitlines()[-1] == "relative_to_best (calliper-encoder)  " + "  ".join(["+20.00%"] * 5)


def test_format_comparison_zero_competitor_gives_n_a():
    reports = {"calliper-encoder": fixed("calliper-encoder", 0.6), "lookup-table": fixed("lookup-table", 0.0)}
    text = format_comparison(reports)
    assert text.splitlines()[-1] == "relative_to_best (calliper-encoder)  " + "  ".join(["n/a"] * 5)


def test_format_comparison_without_competitors_has_no_relative_row():
    for kind in ("calliper-encoder", "lookup-table"):
        assert "relative_to_best" not in format_comparison({kind: fixed(kind, 0.6)})


# ----------------------------------------------------------------------
# golden text: the bytes of reports, comparisons and metrics for fixed ranks

GOLDEN_RANKS = {
    "calliper-encoder": {0: [1, 2, 4, 11], 1: [3, 1, 7, 20]},
    "lookup-table": {0: [11, 12, 2, 30], 1: [2, 6, 9, 40]},
    "skipgram-table": {0: [2, 2, 50, 60], 1: [2, 14, 15, 16]},
}


def golden_reports() -> dict:
    return {
        kind: run_experiment(
            {seed: np.array(by_seed[seed]) for seed in [0, 1]},
            split_mode="inductive",
            embedder_kind=kind,
        )
        for kind, by_seed in GOLDEN_RANKS.items()
    }


def test_format_report_golden_text():
    provenance = {"subset": "x", "sequences_hash": "abc"}
    text = format_report(golden_reports()["calliper-encoder"], dataset="golden", provenance=provenance)
    assert text == (
        "dataset: golden\n"
        "embedder_kind: calliper-encoder\n"
        "split_mode: inductive\n"
        "runs: 2\n"
        "seeds: 0 1\n"
        "samples_per_run: 4 4\n"
        "sequences_hash: abc\n"
        "subset: x\n"
        "per_run acc@1: 0.2500000000 0.2500000000\n"
        "per_run acc@5: 0.7500000000 0.5000000000\n"
        "per_run acc@10: 0.7500000000 0.7500000000\n"
        "per_run mrr: 0.4602272727 0.3815476190\n"
        "per_run ndcg@10: 0.5154015779 0.4583333333\n"
        "mean acc@1: 0.2500000000 std: 0.0000000000\n"
        "mean acc@5: 0.6250000000 std: 0.1767766953\n"
        "mean acc@10: 0.7500000000 std: 0.0000000000\n"
        "mean mrr: 0.4208874459 std: 0.0556349167\n"
        "mean ndcg@10: 0.4868674556 std: 0.0403533427\n"
        "display_x100: acc@1 25.00±0.00  acc@5 62.50±17.68  acc@10 75.00±0.00  mrr 42.09±5.56  ndcg@10 48.69±4.04\n"
    )


def test_format_comparison_golden_text():
    # no competitor ever ranks the target first, so acc@1 has no relative cell
    assert format_comparison(golden_reports()) == (
        "metric  calliper-encoder  lookup-table  skipgram-table\n"
        "acc@1  0.2500000000±0.0000000000  0.0000000000±0.0000000000  0.0000000000±0.0000000000\n"
        "acc@5  0.6250000000±0.1767766953  0.2500000000±0.0000000000  0.3750000000±0.1767766953\n"
        "acc@10  0.7500000000±0.0000000000  0.5000000000±0.3535533906  0.3750000000±0.1767766953\n"
        "mrr  0.4208874459±0.0556349167  0.1887941919±0.0168294985  0.2171577381±0.0594095965\n"
        "ndcg@10  0.4868674556±0.0403533427  0.2398870862±0.1161842172  0.2365986576±0.1115336768\n"
        "relative_to_best (calliper-encoder)  n/a  +66.67%  +50.00%  +93.82%  +102.96%\n"
    )


def test_per_run_values_golden():
    # the floats the metrics payload stores, exactly
    per_run = {
        kind: {name: [float(v) for v in report.per_run(name)] for name in METRIC_NAMES}
        for kind, report in golden_reports().items()
    }
    assert per_run == {
        "calliper-encoder": {
            "acc@1": [0.25, 0.25],
            "acc@5": [0.75, 0.5],
            "acc@10": [0.75, 0.75],
            "mrr": [0.4602272727272727, 0.381547619047619],
            "ndcg@10": [0.5154015779112127, 0.4583333333333333],
        },
        "lookup-table": {
            "acc@1": [0.0, 0.0],
            "acc@5": [0.25, 0.25],
            "acc@10": [0.25, 0.75],
            "mrr": [0.1768939393939394, 0.20069444444444443],
            "ndcg@10": [0.15773243839286438, 0.3220417340858652],
        },
        "skipgram-table": {
            "acc@1": [0.0, 0.0],
            "acc@5": [0.5, 0.25],
            "acc@10": [0.5, 0.25],
            "mrr": [0.25916666666666666, 0.1751488095238095],
            "ndcg@10": [0.31546487678572877, 0.15773243839286438],
        },
    }


# ----------------------------------------------------------------------
# projection


def test_projection_identity_on_axis_aligned_2d():
    pts = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    proj = project_2d(pts, ["seen"] * 4)
    np.testing.assert_allclose(proj.coords, pts, atol=1e-12)
    np.testing.assert_allclose(proj.explained_variance, [8 / 3, 2 / 3], atol=1e-12)


def test_projection_duplicates_map_identically():
    rng = make_rng(5, "proj")
    base = rng.standard_normal((6, 5))
    doubled = np.vstack([base, base])
    proj = project_2d(doubled, ["seen"] * 6 + ["new"] * 6)
    np.testing.assert_array_equal(proj.coords[:6], proj.coords[6:])


def test_projection_captures_maximal_variance():
    rng = make_rng(9, "proj-var")
    x = rng.standard_normal((40, 8)) @ np.diag(np.linspace(0.2, 3.0, 8))
    proj = project_2d(x, ["seen"] * 40)
    captured = proj.explained_variance.sum()
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
    np.testing.assert_allclose(proj.explained_variance, eigs[:2], atol=1e-9)
    for _ in range(25):
        q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        alt = ((centered @ q) ** 2).sum() / (len(x) - 1)
        assert alt <= captured + 1e-9


def test_projection_sign_convention_is_deterministic():
    rng = make_rng(13, "proj-sign")
    x = rng.standard_normal((20, 4))
    p1 = project_2d(x, ["seen"] * 20)
    p2 = project_2d(-x + 2 * x.mean(axis=0), ["seen"] * 20)  # mirrored cloud, same covariance
    np.testing.assert_allclose(np.abs(p1.coords), np.abs(p2.coords), atol=1e-9)


def test_projection_rank_deficient_degrades():
    t = np.linspace(0, 1, 7)[:, None]
    pts = t @ np.array([[1.0, 2.0, -1.0]])  # collinear cloud
    proj = project_2d(pts, ["seen"] * 7)
    assert proj.explained_variance[1] == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_allclose(proj.coords[:, 1], 0.0, atol=1e-9)


def test_projection_validation():
    with pytest.raises(ValueError):
        project_2d(np.zeros((2, 3)), ["seen", "new"])
    with pytest.raises(ValueError):
        project_2d(np.zeros((4, 3)), ["seen"] * 3)
    with pytest.raises(ValueError):
        project_2d(np.zeros(5), ["seen"] * 5)


def test_projection_svg_and_coords_text():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    proj = project_2d(pts, ["seen", "seen", "new", "new"])
    svg = projection_svg(proj)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 4 + 2  # points plus legend markers
    assert "#d62728" in svg and "#1f77b4" in svg
    text = projection_coords_text(proj)
    rows = [line.split() for line in text.strip().splitlines()]
    assert len(rows) == 4
    parsed = np.array([[float(r[0]), float(r[1])] for r in rows])
    np.testing.assert_array_equal(parsed, proj.coords)
    assert [r[2] for r in rows] == ["seen", "seen", "new", "new"]
