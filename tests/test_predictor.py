"""Tests for the next-location transformer predictor."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc.baselines import VanillaE2EEmbedder
from nextloc.geoenc import GeoPoint
from nextloc.mobdata.model import DatasetSplit, Location, LocationIndex, MobilitySequence
import nextloc.numcore.tensor
import nextloc.predictor
from nextloc.numcore import (
    add,
    backward,
    concat,
    cross_entropy,
    dropout,
    finite_difference_check,
    gather_rows,
    layer_norm,
    matmul,
    multi_head_attention,
    relu,
    reshape,
    softmax,
)
from nextloc.numcore.checkpoint import save_checkpoint
from nextloc.predictor import NextLocPredictor, PredictorConfig
from nextloc.util import make_rng

HOUR = 3600


def make_index(n: int) -> LocationIndex:
    locs = [
        Location(id=f"L{i}", centroid=GeoPoint(float(i), float(-i)))
        for i in range(n)
    ]
    return LocationIndex(locs)


def seq(user: str, loc_ids: list[str], target: str, t0: int = 100_000) -> MobilitySequence:
    visits = tuple((loc, t0 + i * HOUR) for i, loc in enumerate(loc_ids))
    return MobilitySequence(
        user=user,
        visits=visits,
        target_location=target,
        target_t=t0 + len(loc_ids) * HOUR,
    )


def tiny_config(**overrides) -> PredictorConfig:
    base = dict(
        layers=1,
        heads=2,
        ff_dim=16,
        dropout=0.0,
        d_model=16,
        max_context=4,
        time_dim=4,
        dow_dim=4,
        user_dim=4,
    )
    base.update(overrides)
    return PredictorConfig(**base)


def make_predictor(n_locs: int = 4, users=("u1", "u2"), cfg=None, dim: int = 8, seed: int = 0):
    """A lookup-table predictor, its table initialized as the pipeline does it."""
    index = make_index(n_locs)
    matrix = VanillaE2EEmbedder(dim=dim, seed=seed).embedding_matrix(index)
    return NextLocPredictor(index, list(users), matrix, "lookup-table", cfg or tiny_config(), seed=seed)


def frozen_predictor(kind: str = "skipgram-table", seed: int = 1) -> NextLocPredictor:
    """A predictor over three locations whose pretrained matrix of `kind` is frozen."""
    matrix = make_rng(seed, "t").standard_normal((3, 8))
    return NextLocPredictor(make_index(3), ["u1"], matrix, kind, tiny_config(), seed=0)


# ----------------------------------------------------------------------
# forward contract


def test_forward_distribution_over_all_classes():
    model = make_predictor(n_locs=5)
    probs = model.predict_proba([seq("u1", ["L0", "L1", "L2"], "L3")])[0]
    assert probs.shape == (5,)
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-6


def test_forward_deterministic_in_eval_mode():
    model = make_predictor()
    s = seq("u1", ["L0", "L1"], "L2")
    np.testing.assert_array_equal(model.predict_proba([s])[0], model.predict_proba([s])[0])


def test_zeroed_head_gives_uniform_distribution():
    model = make_predictor(n_locs=7)
    model.store["head.w"].data[:] = 0.0
    model.store["head.b"].data[:] = 0.0
    probs = model.predict_proba([seq("u1", ["L0", "L3"], "L5")])[0]
    np.testing.assert_array_equal(probs, np.full(7, 1.0 / 7.0))


def test_predict_proba_matches_single_forward():
    model = make_predictor(n_locs=4)
    batch = [
        seq("u1", ["L0", "L1", "L2"], "L3"),
        seq("u2", ["L3", "L2", "L1"], "L0"),
    ]
    stacked = model.predict_proba(batch)
    assert stacked.shape == (2, 4)
    np.testing.assert_allclose(stacked[0], model.predict_proba([batch[0]])[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(stacked[1], model.predict_proba([batch[1]])[0], rtol=1e-12, atol=1e-12)


def mixed_sequences(n: int) -> list[MobilitySequence]:
    rng = np.random.default_rng(n)
    return [
        seq(f"u{1 + i % 2}", [f"L{j}" for j in rng.integers(0, 6, 1 + i % 5)], f"L{rng.integers(0, 6)}", t0=i * 7 * HOUR)
        for i in range(n)
    ]


@pytest.mark.parametrize("batch_size", [1, 3, 7, 64])
def test_predict_proba_equals_recorded_forward(batch_size):
    model = make_predictor(n_locs=6, cfg=tiny_config(layers=2))
    sequences = mixed_sequences(11)
    feats = model._featurize(sequences)
    recorded = np.concatenate([
        softmax(model.forward_logits(feats[start : start + batch_size])).data
        for start in range(0, len(feats), batch_size)
    ])
    np.testing.assert_array_equal(model.predict_proba(sequences, batch_size=batch_size), recorded)


def test_validation_loss_equals_recorded_loss_and_leaves_training_recording():
    model = make_predictor(n_locs=6, cfg=tiny_config(layers=2, dropout=0.2))
    feats = model._featurize(mixed_sequences(9))
    total = 0.0
    for start in range(0, len(feats), 4):
        batch = feats[start : start + 4]
        total += cross_entropy(model.forward_logits(batch), batch.targets).item() * len(batch)
    assert model._epoch_loss(feats, 4) == total / len(feats)

    params = model.store.tensors()
    loss = cross_entropy(model.forward_logits(feats, training=True, rng=make_rng(0, "leak")), feats.targets)
    backward(loss, params=params)
    for name, t in model.store.items():
        assert t.grad is not None and np.any(t.grad != 0.0), name


def test_unknown_users_share_one_embedding_row():
    model = make_predictor(users=("alice", "bob"))
    context = ["L0", "L1", "L2"]
    p1 = model.predict_proba([seq("stranger-one", context, "L3")])[0]
    p2 = model.predict_proba([seq("stranger-two", context, "L3")])[0]
    np.testing.assert_array_equal(p1, p2)
    # and differs from a known user's prediction in general
    p3 = model.predict_proba([seq("alice", context, "L3")])[0]
    assert not np.array_equal(p1, p3)


def test_padded_cells_change_nothing():
    """Causal attention over left-aligned contexts never reads a padded cell, forward or backward."""
    cfg = tiny_config(layers=2, dropout=0.3, hour_buckets=6)
    model = make_predictor(n_locs=6, cfg=cfg)
    feats = model._featurize([
        seq("u1", ["L0", "L1", "L2", "L3"], "L4"),
        seq("u2", ["L5"], "L0"),
        seq("u1", ["L2", "L4"], "L1"),
    ])
    padded = np.arange(feats.loc_idx.shape[1])[None, :] >= feats.lengths[:, None]
    assert padded.any() and not padded.all()
    rng = np.random.default_rng(9)

    def fill(col, n):
        return np.where(padded, rng.integers(1, n, col.shape), col)

    other = replace(feats, loc_idx=fill(feats.loc_idx, 6), tod=fill(feats.tod, 6), dow=fill(feats.dow, 7))
    assert not np.array_equal(other.loc_idx, feats.loc_idx)

    np.testing.assert_array_equal(model.forward_logits(other).data, model.forward_logits(feats).data)

    def train_step(f):
        loss = cross_entropy(model.forward_logits(f, training=True, rng=make_rng(4, "pad")), f.targets)
        backward(loss, params=model.store.tensors())
        return loss.item(), {name: t.grad.copy() for name, t in model.store.items()}

    loss, grads = train_step(feats)
    other_loss, other_grads = train_step(other)
    assert other_loss == loss
    assert grads.keys() == other_grads.keys()
    for name in grads:
        np.testing.assert_array_equal(other_grads[name], grads[name], err_msg=name)


# ----------------------------------------------------------------------
# the last layer computes only the final position


def full_length_logits(model, batch, training=False, rng=None):
    """Reference forward: every layer on every position, then a gather of each sequence's final row."""
    cfg, s = model.cfg, model.store
    b, t = batch.loc_idx.shape
    users = np.broadcast_to(batch.users[:, None], (b, t))
    x = concat([
        gather_rows(model.loc_matrix, batch.loc_idx), gather_rows(s["tod_emb"], batch.tod),
        gather_rows(s["dow_emb"], batch.dow), gather_rows(s["user_emb"], users),
    ])
    x = add(add(matmul(x, s["in_proj.w"]), s["in_proj.b"]), gather_rows(s["pos_emb"], np.arange(t)))

    def drop(h):
        return dropout(h, cfg.dropout, rng) if training else h

    for l in range(cfg.layers):
        p = f"layer{l}."
        attn = [s[p + "attn." + nm] for nm in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")]
        x = add(x, drop(multi_head_attention(layer_norm(x, s[p + "ln1.g"], s[p + "ln1.b"]), cfg.heads, *attn)))
        h = relu(add(matmul(layer_norm(x, s[p + "ln2.g"], s[p + "ln2.b"]), s[p + "ff.w1"]), s[p + "ff.b1"]))
        x = add(x, drop(add(matmul(h, s[p + "ff.w2"]), s[p + "ff.b2"])))
    x = layer_norm(x, s["final_ln.g"], s["final_ln.b"])
    h_n = gather_rows(reshape(x, (b * t, cfg.d_model)), np.arange(b) * t + batch.lengths - 1)
    return add(matmul(h_n, s["head.w"]), s["head.b"])


@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    layers=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_forward_equals_full_length_reference(lengths, layers, seed):
    cfg = tiny_config(layers=layers, max_context=6, dropout=0.3)
    model = make_predictor(n_locs=7, cfg=cfg, seed=seed % 5)
    rng = np.random.default_rng(seed)
    feats = model._featurize([
        seq(f"u{1 + i % 2}", [f"L{j}" for j in rng.integers(0, 7, n)], f"L{rng.integers(0, 7)}", t0=int(rng.integers(0, 10**7)))
        for i, n in enumerate(lengths)
    ])

    ref = full_length_logits(model, feats).data
    np.testing.assert_allclose(model.forward_logits(feats).data, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def train_step(forward):
        rng = make_rng(seed, "equivalence")
        loss = cross_entropy(forward(model, feats, training=True, rng=rng), feats.targets)
        backward(loss, params=model.store.tensors())
        return loss.item(), {name: t.grad.copy() for name, t in model.store.items()}, rng.bit_generator.state

    loss, grads, rng_state = train_step(NextLocPredictor.forward_logits)
    ref_loss, ref_grads, ref_rng_state = train_step(full_length_logits)
    assert rng_state == ref_rng_state  # the same dropout draws, in the same order
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    # some gradients are zero up to rounding (the key bias's), so the floor is the largest gradient's
    scale = max(np.abs(g).max() for g in ref_grads.values())
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-10, atol=1e-10 * scale, err_msg=name)


def test_last_layer_products_see_one_row_per_sequence(monkeypatch):
    """Guard: only the last layer's keys and values span every position; its other products see b rows."""
    cfg = tiny_config(layers=3, dropout=0.2)
    model = make_predictor(n_locs=6, cfg=cfg)
    feats = model._featurize(mixed_sequences(7))
    b, t = feats.loc_idx.shape
    assert t > 1
    name_of = {id(p): name for name, p in model.store.items()}
    rows_seen: dict[str, list[tuple[int, ...]]] = {}
    real = nextloc.numcore.tensor.matmul

    def recording(a, w):
        rows_seen.setdefault(name_of.get(id(w), "?"), []).append(a.shape[:-1])
        return real(a, w)

    monkeypatch.setattr(nextloc.predictor, "matmul", recording)
    monkeypatch.setattr(nextloc.numcore.tensor, "matmul", recording)
    model.forward_logits(feats, training=True, rng=make_rng(0, "guard"))
    for l in range(cfg.layers - 1):
        for nm in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ff.w1", "ff.w2"):
            assert rows_seen[f"layer{l}.{nm}"] == [(b, t)], (l, nm)
    for nm in ("attn.wq", "attn.wo", "ff.w1", "ff.w2"):
        assert rows_seen[f"layer2.{nm}"] == [(b,)], nm
    assert rows_seen["layer2.attn.wk"] == rows_seen["layer2.attn.wv"] == [(b, t)]
    assert rows_seen["head.w"] == [(b,)]


# ----------------------------------------------------------------------
# context truncation


def test_long_context_equals_pretruncated_suffix():
    cfg = tiny_config(max_context=4)
    model = make_predictor(n_locs=6, cfg=cfg)
    t0 = 500_000
    long_visits = [("L%d" % (i % 6), t0 + i * HOUR) for i in range(9)]
    long_seq = MobilitySequence(
        user="u1", visits=tuple(long_visits), target_location="L5", target_t=t0 + 9 * HOUR
    )
    short_seq = MobilitySequence(
        user="u1", visits=tuple(long_visits[-4:]), target_location="L5", target_t=t0 + 9 * HOUR
    )
    np.testing.assert_array_equal(model.predict_proba([long_seq])[0], model.predict_proba([short_seq])[0])


def test_truncation_keeps_most_recent_visits():
    cfg = tiny_config(max_context=3)
    model = make_predictor(n_locs=4, cfg=cfg)
    feats = model._featurize([seq("u1", ["L0", "L1", "L2", "L3"], "L0")])
    assert feats.lengths[0] == 3
    np.testing.assert_array_equal(feats.loc_idx[0], [1, 2, 3])  # L1, L2, L3 survive


def reference_featurize(model: NextLocPredictor, batch: list[MobilitySequence]):
    """The per-batch encoding loop that `_featurize` replaced, kept as its oracle."""
    t_max = min(model.cfg.max_context, max(len(s.visits) for s in batch))
    b = len(batch)
    loc_idx = np.zeros((b, t_max), dtype=np.int64)
    tod = np.zeros((b, t_max), dtype=np.int64)
    dow = np.zeros((b, t_max), dtype=np.int64)
    users = np.zeros(b, dtype=np.int64)
    lengths = np.zeros(b, dtype=np.int64)
    targets = np.zeros(b, dtype=np.int64)
    for i, s in enumerate(batch):
        visits = s.visits[-t_max:]  # keep the most recent context
        lengths[i] = len(visits)
        users[i] = model._user_row.get(s.user, len(model.users))
        targets[i] = model.index.class_of(s.target_location)
        for j, (loc, t) in enumerate(visits):
            loc_idx[i, j] = model.index.class_of(loc)
            tod[i, j] = (t % 86400) * model.cfg.hour_buckets // 86400
            dow[i, j] = (t // 86400 + 3) % 7  # epoch day 0 was a Thursday
    return loc_idx, tod, dow, users, lengths, targets


@st.composite
def sequence_lists(draw):
    out = []
    for _ in range(draw(st.integers(1, 8))):
        t = draw(st.integers(-(10**6), 10**8))
        visits = []
        for _ in range(draw(st.integers(1, 10))):
            visits.append((f"L{draw(st.integers(0, 5))}", t))
            t += draw(st.integers(0, 200_000))
        user = draw(st.sampled_from(["u1", "u2", "stranger"]))
        target_t = t + draw(st.integers(1, 200_000))
        out.append(MobilitySequence(user, tuple(visits), f"L{draw(st.integers(0, 5))}", target_t))
    return out


@given(data=st.data(), seqs=sequence_lists(), max_context=st.integers(1, 8), hour_buckets=st.integers(1, 48))
@settings(max_examples=80, deadline=None)
def test_row_slices_of_one_encoding_equal_per_batch_encoding(data, seqs, max_context, hour_buckets):
    model = make_predictor(n_locs=6, cfg=tiny_config(max_context=max_context, hour_buckets=hour_buckets))
    feats = model._featurize(seqs)
    assert len(feats) == len(seqs)
    rows = data.draw(st.lists(st.integers(0, len(seqs) - 1), min_size=1, max_size=12))
    start = data.draw(st.integers(0, len(seqs) - 1))
    stop = data.draw(st.integers(start + 1, len(seqs)))
    for batch, picked in ((feats[np.array(rows)], [seqs[i] for i in rows]), (feats[start:stop], seqs[start:stop])):
        expected = reference_featurize(model, picked)
        got = (batch.loc_idx, batch.tod, batch.dow, batch.users, batch.lengths, batch.targets)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            np.testing.assert_array_equal(g, e)
            assert g.shape == e.shape


def test_training_encodes_each_split_once(monkeypatch):
    encoded = []
    featurize = NextLocPredictor._featurize

    def counting(self, sequences):
        encoded.append(len(sequences))
        return featurize(self, sequences)

    monkeypatch.setattr(NextLocPredictor, "_featurize", counting)
    split = alternation_split()
    model = make_predictor(n_locs=2, users=("u0", "u1"))
    history = model.train(split, epochs=3, patience=3, batch_size=16, seed=0)
    assert history["epochs_run"] == 3
    assert encoded == [len(split.train), len(split.validation)]


# ----------------------------------------------------------------------
# gradients


def test_gradients_match_finite_differences():
    cfg = tiny_config(layers=2, heads=2, d_model=16, ff_dim=16)
    model = make_predictor(n_locs=4, cfg=cfg, dim=6, seed=3)
    batch = [
        seq("u1", ["L0", "L1", "L2"], "L3"),
        seq("u2", ["L3", "L1"], "L0"),
        seq("u1", ["L2"], "L1"),
    ]
    feats = model._featurize(batch)

    def loss_fn():
        return cross_entropy(model.forward_logits(feats), feats.targets)

    report = finite_difference_check(
        loss_fn,
        model.store,
        max_entries_per_param=3,
        rng=make_rng(7, "fd-sample"),
    )
    assert report.ok(), (
        f"worst {report.worst_param}[{report.worst_index}] rel err {report.max_rel_error:.3e}"
    )


# ----------------------------------------------------------------------
# training


def alternation_split(n_train: int = 48, n_val: int = 12, n_test: int = 12):
    """Deterministic A/B alternation: the visit after L0 is always L1 and
    vice versa, so the target is recoverable from the last context visit."""
    def make(n, t_base):
        out = []
        for i in range(n):
            start = i % 2
            ids = [f"L{(start + j) % 2}" for j in range(3)]
            target = f"L{(start + 3) % 2}"
            out.append(seq(f"u{i % 4}", ids, target, t0=t_base + i * 40 * HOUR))
        return out

    return DatasetSplit(
        train=make(n_train, 0),
        validation=make(n_val, 10_000_000),
        test=make(n_test, 20_000_000),
        mode="conventional",
    )


def test_training_learns_deterministic_alternation():
    split = alternation_split()
    model = make_predictor(n_locs=2, users=[f"u{i}" for i in range(4)])
    index = model.index
    history = model.train(split, epochs=60, patience=6, batch_size=16, learning_rate=0.003, seed=0)
    assert history["epochs_run"] >= 1
    assert history["log"][0]["train_loss"] > history["best_val_loss"]
    probs = model.predict_proba(split.test)
    predicted = np.argmax(probs, axis=1)
    truth = np.array([index.class_of(s.target_location) for s in split.test])
    assert (predicted == truth).mean() > 0.95


def test_training_stops_on_a_non_finite_loss():
    model = make_predictor(n_locs=2, users=("u0", "u1"))
    model.store["head.b"].data[0] = np.nan
    with pytest.raises(ValueError, match=r"^train: lookup-table seed 4: non-finite loss in epoch 1, batch 1$"):
        model.train(alternation_split(), epochs=2, batch_size=16, seed=4)


def test_training_rejects_empty_splits():
    model = make_predictor(n_locs=2)
    s = seq("u1", ["L0"], "L1")
    with pytest.raises(ValueError):
        model.train(DatasetSplit(train=[], validation=[s], test=[], mode="conventional"))
    with pytest.raises(ValueError):
        model.train(DatasetSplit(train=[s], validation=[], test=[], mode="conventional"))


def test_frozen_embedding_matrix_untouched_by_training():
    model = frozen_predictor()
    before = model.loc_matrix.data.tobytes()
    split = DatasetSplit(
        train=[seq("u1", ["L0", "L1"], "L2", t0=i * 50 * HOUR) for i in range(8)],
        validation=[seq("u1", ["L1", "L0"], "L2", t0=10_000_000)],
        test=[],
        mode="conventional",
    )
    model.train(split, epochs=2, patience=2, batch_size=4, seed=0)
    assert model.loc_matrix.data.tobytes() == before
    assert "loc_table" not in model.store.names()


def test_training_refuses_changed_frozen_embeddings(monkeypatch):
    # an explicit check, not an assert, so `python -O` keeps it
    model = frozen_predictor()
    validation_loss = model._epoch_loss

    def perturbing_epoch_loss(sequences, batch_size):
        model.loc_matrix.data[0, 0] += 1.0
        return validation_loss(sequences, batch_size)

    monkeypatch.setattr(model, "_epoch_loss", perturbing_epoch_loss)
    split = DatasetSplit(
        train=[seq("u1", ["L0", "L1"], "L2", t0=i * 50 * HOUR) for i in range(4)],
        validation=[seq("u1", ["L1", "L0"], "L2", t0=10_000_000)],
        test=[],
        mode="conventional",
    )
    with pytest.raises(RuntimeError, match="frozen skipgram-table embeddings changed"):
        model.train(split, epochs=1, patience=1, batch_size=4, seed=0)


def test_trainable_table_rows_for_absent_locations_stay_at_init():
    # class 0 is also used for padding, so the never-visited location must
    # sit at a nonzero class index
    model = make_predictor(n_locs=4)
    init_rows = model.store["loc_table"].data.copy()
    split = DatasetSplit(
        train=[seq(f"u{1 + i % 2}", ["L0", "L1"], "L2", t0=i * 50 * HOUR) for i in range(12)],
        validation=[seq("u1", ["L1", "L0"], "L2", t0=30_000_000)],
        test=[],
        mode="conventional",
    )
    model.train(split, epochs=3, patience=3, batch_size=4, seed=0)
    after = model.store["loc_table"].data
    np.testing.assert_array_equal(after[3], init_rows[3])  # L3 never appears
    assert not np.array_equal(after[:3], init_rows[:3])  # the visited rows moved


# ----------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    model = make_predictor(n_locs=4)
    s = seq("u1", ["L0", "L2", "L1"], "L3")
    before = model.predict_proba([s])[0]
    path = tmp_path / "predictor.nlck"
    model.save(path)
    restored = NextLocPredictor.load(path, make_index(4))
    np.testing.assert_array_equal(restored.predict_proba([s])[0], before)
    assert restored.embedder_kind == "lookup-table"
    assert restored.cfg == model.cfg


def test_save_load_round_trip_frozen(tmp_path):
    s = seq("u1", ["L0", "L1"], "L2")
    for kind in ("skipgram-table", "calliper-encoder"):
        model = frozen_predictor(kind, seed=2)
        before = model.predict_proba([s])[0]
        path = tmp_path / f"predictor_{kind}.nlck"
        model.save(path)
        restored = NextLocPredictor.load(path, make_index(3))
        assert restored.embedder_kind == kind
        assert restored.embedder_frozen and "loc_table" not in restored.store.names()
        np.testing.assert_array_equal(restored.loc_matrix.data, model.loc_matrix.data)
        np.testing.assert_array_equal(restored.predict_proba([s])[0], before)


def test_load_rejects_index_mismatch(tmp_path):
    model = make_predictor(n_locs=4)
    path = tmp_path / "predictor.nlck"
    model.save(path)
    with pytest.raises(ValueError, match="different location index"):
        NextLocPredictor.load(path, make_index(5))


def test_load_rejects_other_checkpoint_kinds(tmp_path):
    path = tmp_path / "other.nlck"
    save_checkpoint(path, {"w": np.zeros(3)}, meta={"kind": "something-else"})
    with pytest.raises(ValueError, match="not a predictor checkpoint"):
        NextLocPredictor.load(path, make_index(2))


# ----------------------------------------------------------------------
# configuration validation


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        PredictorConfig(d_model=10, heads=4)


def test_config_rejects_bad_dropout():
    with pytest.raises(ValueError, match="dropout"):
        PredictorConfig(dropout=1.0)


def test_config_round_trip():
    cfg = tiny_config(layers=3, dropout=0.2)
    assert PredictorConfig.from_dict(cfg.to_dict()) == cfg
