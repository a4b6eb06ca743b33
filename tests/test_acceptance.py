"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line with the measured values.

Criteria 6-8 share one full pipeline run on a seeded synthetic city
(module-scoped fixture); criterion 8 repeats the run in a second
directory and compares artifacts byte for byte.
"""

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nextloc.baselines import skipgram_pretrain  # noqa: F401  (import sanity)
from nextloc.calliper import infonce_loss
from nextloc.cli import main
from nextloc.evaluation import METRIC_NAMES, rank_metrics, ranks_from_scores
from nextloc.geoenc import FCNet, GeoPoint, GridSpec, grid_pe, scale_radii
from nextloc.mobdata import (
    build_sequences,
    filter_min_counts,
    generate_synthetic_city,
    load_checkins,
    read_split_manifest,
    split_conventional,
    split_inductive,
    write_split_manifest,
)
from nextloc.mobdata.model import LocationIndex
from nextloc.numcore import (
    ParameterStore,
    Tensor,
    cross_entropy,
    finite_difference_check,
    mul,
    tmean,
)
from nextloc.predictor import NextLocPredictor, PredictorConfig
from nextloc.util import make_rng

HOUR = 3600


@pytest.fixture
def verdict(capfd):
    """One visible pass/fail line per criterion, even when capture is on."""

    def _verdict(name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}" + (f": {detail}" if detail else "")
        with capfd.disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
        assert ok, line

    return _verdict


# ----------------------------------------------------------------------
# criterion 1: closed-form encoding values, exact


def test_criterion_1_formula_correctness(verdict):
    t0 = time.monotonic()
    ok = True
    notes = []

    spec32 = GridSpec(0.01, 10.0, 32)
    radii = scale_radii(spec32)
    ok &= radii[0] == 0.01 and radii[-1] == 10.0 and len(radii) == 32
    ok &= bool(np.all(np.diff(radii) > 0))

    ok &= list(scale_radii(GridSpec(1.0, 1000.0, 2))) == [1.0, 1000.0]
    r3 = scale_radii(GridSpec(1.0, 100.0, 3))
    ok &= r3[0] == 1.0 and r3[-1] == 100.0 and abs(r3[1] - 10.0) < 1e-12

    pe0 = grid_pe(GeoPoint(0.0, 0.0), spec32)
    ok &= pe0.shape == (4 * 32,)
    ok &= bool(np.array_equal(pe0, np.tile([1.0, 0.0, 1.0, 0.0], 32)))

    spec_h = GridSpec(1.0, 4.0, 3)  # radii exactly 1, 2, 4
    pe_h = grid_pe(GeoPoint(1.0, 2.0), spec_h)
    expected = np.concatenate(
        [[np.cos(1.0 / a), np.sin(1.0 / a), np.cos(2.0 / a), np.sin(2.0 / a)] for a in (1.0, 2.0, 4.0)]
    )
    ok &= pe_h.shape == (12,) and bool(np.allclose(pe_h, expected, atol=1e-15))

    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    notes.append(f"endpoints exact, (0,0) pattern exact, 4S length, {elapsed:.3f}s")
    verdict("criterion 1 (encoding formulas, exact)", bool(ok), "; ".join(notes))


# ----------------------------------------------------------------------
# criterion 2: metric oracle equivalence, exact, 200 matrices


def _oracle_ranks(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    out = []
    for i in range(scores.shape[0]):
        order = sorted(range(scores.shape[1]), key=lambda j: (-scores[i, j], j))
        out.append(order.index(int(targets[i])) + 1)
    return np.array(out, dtype=np.int64)


def _oracle_metrics(ranks: np.ndarray) -> dict:
    out = {}
    for k in (1, 5, 10):
        out[f"acc@{k}"] = float(np.mean(np.array([1.0 if r <= k else 0.0 for r in ranks])))
    out["mrr"] = float(np.mean(np.array([1.0 / r for r in ranks])))
    out["ndcg@10"] = float(
        np.mean(np.array([1.0 / np.log2(np.float64(r) + 1.0) if r <= 10 else 0.0 for r in ranks]))
    )
    return out


def test_criterion_2_metric_oracle_equivalence(verdict):
    t0 = time.monotonic()
    rng = make_rng(2, "acceptance-metrics")
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(1, 101))
        k = int(rng.integers(2, 51))
        if trial % 2 == 0:
            scores = rng.random((n, k))
        else:
            scores = rng.integers(0, 5, size=(n, k)).astype(np.float64)  # tie-heavy
        targets = rng.integers(0, k, size=n)
        ranks = ranks_from_scores(scores, targets)
        if not np.array_equal(ranks, _oracle_ranks(scores, targets)):
            mismatches += 1
            continue
        got = rank_metrics(ranks)
        want = _oracle_metrics(ranks)
        if any(got[name] != want[name] for name in METRIC_NAMES):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    verdict(
        "criterion 2 (metric oracle, exact equality)",
        ok,
        f"200 matrices, {mismatches} mismatches, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# criterion 3: finite-difference gradient integrity


def test_criterion_3_gradient_integrity(verdict):
    t0 = time.monotonic()
    worst = []

    # FC-Net
    store = ParameterStore()
    rng = make_rng(3, "acceptance-fcnet")
    net = FCNet(12, 6, store, rng, hidden=16)
    x = Tensor(rng.standard_normal((5, 12)))

    def fcnet_loss():
        out = net.forward(x)
        return tmean(mul(out, out))

    rep = finite_difference_check(fcnet_loss, store, max_entries_per_param=4, rng=make_rng(3, "fd-a"))
    worst.append(("fcnet", rep.max_rel_error, rep.ok()))

    # contrastive loss, N=4, d=8
    store2 = ParameterStore()
    rng2 = make_rng(4, "acceptance-infonce")
    store2.add("z_loc", rng2.standard_normal((4, 8)))
    store2.add("z_text", rng2.standard_normal((4, 8)))

    def infonce_fn():
        return infonce_loss(store2["z_loc"], store2["z_text"], tau=0.07)

    rep2 = finite_difference_check(infonce_fn, store2, max_entries_per_param=None)
    worst.append(("infonce", rep2.max_rel_error, rep2.ok()))

    # reduced predictor: 2 layers, 2 heads, d=16
    from nextloc.mobdata.model import Location

    index = LocationIndex(
        [Location(id=f"L{i}", centroid=GeoPoint(float(i), float(-i))) for i in range(4)]
    )

    cfg = PredictorConfig(
        layers=2, heads=2, ff_dim=16, dropout=0.0, d_model=16,
        max_context=4, time_dim=4, dow_dim=4, user_dim=4,
    )
    from nextloc.mobdata.model import MobilitySequence

    def _seq(user, ids, target, t0_s):
        visits = tuple((lid, t0_s + i * HOUR) for i, lid in enumerate(ids))
        return MobilitySequence(user=user, visits=visits, target_location=target, target_t=t0_s + len(ids) * HOUR)

    table = make_rng(5, "tiny-emb").standard_normal((len(index), 6))
    model = NextLocPredictor(index, ["u1", "u2"], table, "lookup-table", cfg, seed=3)
    batch = [
        _seq("u1", ["L0", "L1", "L2"], "L3", 100_000),
        _seq("u2", ["L3", "L1"], "L0", 200_000),
        _seq("u1", ["L2"], "L1", 300_000),
    ]
    feats = model._featurize(batch)

    def predictor_loss():
        return cross_entropy(model.forward_logits(feats), feats.targets)

    rep3 = finite_difference_check(
        predictor_loss, model.store, max_entries_per_param=3, rng=make_rng(6, "fd-c")
    )
    worst.append(("predictor", rep3.max_rel_error, rep3.ok()))

    elapsed = time.monotonic() - t0
    ok = all(w[2] for w in worst) and elapsed < 60.0
    detail = ", ".join(f"{n} max rel err {e:.2e}" for n, e, _ in worst) + f", {elapsed:.1f}s"
    verdict("criterion 3 (gradient checks, rel err < 1e-4)", ok, detail)


# ----------------------------------------------------------------------
# criterion 4: contrastive loss analytic anchors


def test_criterion_4_infonce_anchors(verdict):
    rng = make_rng(7, "acceptance-anchors")

    single = abs(infonce_loss(Tensor(rng.standard_normal((1, 5))), Tensor(rng.standard_normal((1, 5)))).item())
    ok_single = single <= 1e-12

    v = rng.standard_normal(6)
    w = rng.standard_normal(6)
    loss_same = infonce_loss(Tensor(np.tile(v, (8, 1))), Tensor(np.tile(w, (8, 1)))).item()
    ok_lnn = abs(loss_same - np.log(8.0)) <= 1e-9

    a = Tensor(rng.standard_normal((6, 10)))
    b = Tensor(rng.standard_normal((6, 10)))
    gap = abs(infonce_loss(a, b).item() - infonce_loss(b, a).item())
    ok_sym = gap <= 1e-12

    ok = ok_single and ok_lnn and ok_sym
    verdict(
        "criterion 4 (contrastive anchors)",
        ok,
        f"N=1 loss {single:.1e}, |loss - ln 8| {abs(loss_same - np.log(8.0)):.1e}, symmetry gap {gap:.1e}",
    )


# ----------------------------------------------------------------------
# criterion 5: split protocol invariants


def test_criterion_5_split_protocol(verdict, tmp_path):
    t0 = time.monotonic()
    city = generate_synthetic_city(
        seed=5, n_users=20, n_locations=30, n_categories=4, days=60, out_dir=tmp_path / "city"
    )
    records, _ = load_checkins(city.checkins_path)
    records = filter_min_counts(records, 10, 10)
    sequences = build_sequences(records)
    conventional = split_conventional(sequences, (0.6, 0.2, 0.2), records=records)

    ids = lambda part: [s.id for s in part]
    all_ids = set(ids(conventional.train)) | set(ids(conventional.validation)) | set(ids(conventional.test))
    ok_partition = (
        all_ids == {s.id for s in sequences}
        and len(ids(conventional.train)) + len(ids(conventional.validation)) + len(ids(conventional.test))
        == len(sequences)
    )

    # the 6:2:2 day-threshold rule, recomputed independently per user
    spans = {}
    for r in records:
        lo, hi = spans.get(r.user, (r.t, r.t))
        spans[r.user] = (min(lo, r.t), max(hi, r.t))
    ok_time = True
    for part, lo_frac, hi_frac in (
        (conventional.train, 0.0, 0.6),
        (conventional.validation, 0.6, 0.8),
        (conventional.test, 0.8, 1.0),
    ):
        for s in part:
            first, last = spans[s.user]
            n_days = (last - first) // 86400 + 1
            day = (s.target_t - first) // 86400
            if not (lo_frac * n_days <= day and (day < hi_frac * n_days or hi_frac == 1.0)):
                ok_time = False

    ok_inductive = True
    digests = set()
    conv_test_ids = ids(conventional.test)
    for seed in range(5):
        ind = split_inductive(conventional, 0.1, seed)
        touched = set()
        for s in list(ind.train) + list(ind.validation):
            touched |= s.location_ids()
        if touched & ind.l_new:
            ok_inductive = False
        if ids(ind.test) != conv_test_ids:
            ok_inductive = False
        manifest = write_split_manifest(tmp_path / f"m{seed}.json", ind, "src", {"n": seed})
        digests.add(manifest["manifest_digest"])
        read_split_manifest(tmp_path / f"m{seed}.json")  # digest must verify
    ok_manifests = len(digests) == 5

    elapsed = time.monotonic() - t0
    ok = ok_partition and ok_time and ok_inductive and ok_manifests and elapsed < 5.0
    verdict(
        "criterion 5 (split protocol)",
        ok,
        f"partition {ok_partition}, 6:2:2 rule {ok_time}, holdout disjoint/test fixed {ok_inductive}, "
        f"5 manifests {ok_manifests}, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# criteria 6-8: the synthetic-city pipeline


def _run_pipeline(cfg_path: Path, out_dir: Path) -> float:
    t0 = time.monotonic()
    for stage in ("preprocess", "pretrain", "train", "evaluate"):
        rc = main([stage, "--config", str(cfg_path), "--out", str(out_dir)])
        assert rc == 0, f"{stage} failed"
    return time.monotonic() - t0


@pytest.fixture(scope="module")
def city_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_city")
    city_dir = root / "city"
    cfg_path = root / "cfg.json"
    rc = main([
        "synth", "--out", str(city_dir), "--seed", "0",
        "--users", "50", "--locations", "120", "--categories", "6", "--days", "180",
        "--write-config", str(cfg_path), "--split-mode", "inductive",
    ])
    assert rc == 0
    out_dir = city_dir / "artifacts"
    elapsed = _run_pipeline(cfg_path, out_dir)
    metrics = json.loads((out_dir / "metrics_inductive.json").read_text(encoding="utf-8"))
    meta = json.loads((city_dir / "meta.json").read_text(encoding="utf-8"))
    return SimpleNamespace(
        root=root, city_dir=city_dir, cfg_path=cfg_path, out=out_dir,
        metrics=metrics, meta=meta, elapsed=elapsed,
    )


@pytest.mark.slow
def test_criterion_6_synthetic_inductive_superiority(verdict, city_run):
    kinds = city_run.metrics["kinds"]
    seeds = city_run.metrics["seeds"]
    cal = kinds["calliper-encoder"]["lnew"]["acc@5"]
    van = kinds["lookup-table"]["lnew"]["acc@5"]
    sg = kinds["skipgram-table"]["lnew"]["acc@5"]
    wins = sum(1 for c, v, s in zip(cal, van, sg) if c > v and c > s)
    for i, seed in enumerate(seeds):
        print(
            f"  seed {seed}: held-out acc@5 calliper {cal[i]:.4f}  "
            f"lookup {van[i]:.4f}  skipgram {sg[i]:.4f}"
        )
    full = {k: float(np.mean(kinds[k]["full"]["acc@5"])) for k in kinds}
    print(f"  whole-test acc@5 means: {full}")
    ok = wins >= 4 and city_run.elapsed < 900.0
    verdict(
        "criterion 6 (held-out-target acc@5 superiority, >=4/5 seeds)",
        ok,
        f"calliper wins {wins}/5 seeds, pipeline {city_run.elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_7_embedding_manifold_consistency(verdict, city_run):
    from nextloc.calliper import CaLLiPerModel
    from nextloc.numcore import load_checkpoint

    t0 = time.monotonic()
    index = LocationIndex.from_dict(
        json.loads((city_run.out / "locations.json").read_text(encoding="utf-8"))
    )
    category = city_run.meta["location_category"]
    seeds = city_run.metrics["seeds"]

    def mean_min_distance(matrix: np.ndarray, l_new: set) -> float:
        normed = matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)
        loc_ids = index.ids()
        dists = []
        for lid in sorted(l_new):
            cat = category[lid]
            peers = [
                j for j, other in enumerate(loc_ids)
                if other not in l_new and category[other] == cat
            ]
            if not peers:
                continue
            sims = normed[peers] @ normed[index.class_of(lid)]
            dists.append(1.0 - float(np.max(sims)))
        return float(np.mean(dists))

    per_seed = []
    ok = True
    for seed in seeds:
        manifest = read_split_manifest(city_run.out / f"manifest_inductive_seed{seed}.json")
        l_new = set(manifest["l_new"])
        model = CaLLiPerModel.load(city_run.out / f"calliper_seed{seed}.nlck")
        coords = np.array(
            [[index.location(i).centroid.x, index.location(i).centroid.y] for i in index.ids()]
        )
        cal_d = mean_min_distance(model.encode_location(coords), l_new)
        params, meta = load_checkpoint(city_run.out / f"skipgram_seed{seed}.nlck")
        sg_d = mean_min_distance(params["table"], l_new)
        per_seed.append((seed, cal_d, sg_d))
        if not cal_d < sg_d:
            ok = False
    elapsed = time.monotonic() - t0
    for seed, cal_d, sg_d in per_seed:
        print(f"  seed {seed}: nearest same-category cosine distance  calliper {cal_d:.4f}  skipgram {sg_d:.4f}")
    ok = ok and elapsed < 60.0
    verdict(
        "criterion 7 (embedding manifold, every seed)",
        ok,
        f"calliper < skipgram in {sum(1 for _, c, s in per_seed if c < s)}/5 seeds, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_8_bit_reproducibility(verdict, city_run):
    rerun_out = city_run.root / "rerun_artifacts"
    elapsed = _run_pipeline(city_run.cfg_path, rerun_out)
    compared = []
    ok = True
    for name in sorted(p.name for p in city_run.out.iterdir()):
        if not (name.startswith(("metrics_", "report_", "comparison_", "manifest_")) or name == "sequences.json"):
            continue
        a = (city_run.out / name).read_bytes()
        b = (rerun_out / name).read_bytes()
        compared.append(name)
        if a != b:
            ok = False
            print(f"  MISMATCH: {name}")
    verdict(
        "criterion 8 (bit-for-bit rerun)",
        ok and len(compared) > 0,
        f"{len(compared)} artifact files byte-identical, rerun {elapsed:.0f}s",
    )
