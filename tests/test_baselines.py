"""Lookup-table and skip-gram embedding sources."""

import numpy as np
import pytest

from nextloc.baselines import (
    CalliperEmbedder,
    SkipgramEmbedder,
    VanillaE2EEmbedder,
    extract_pairs,
    skipgram_pretrain,
    visit_streams,
)
from nextloc.calliper import CaLLiPerModel, PretrainConfig
from nextloc.geoenc import GeoPoint, GridSpec
from nextloc.mobdata import MobilitySequence
from nextloc.mobdata.model import Location, LocationIndex


def make_index(n):
    return LocationIndex(
        [Location(id=f"L{i}", centroid=GeoPoint(float(i), float(-i))) for i in range(n)]
    )


def alternating_sequences(n_steps=40, locs=("L0", "L1"), user="u1"):
    visits = [(locs[k % len(locs)], 1000 + k * 3600) for k in range(n_steps)]
    out = []
    for k in range(3, n_steps):
        out.append(
            MobilitySequence(
                user=user,
                visits=tuple(visits[max(0, k - 8) : k]),
                target_location=visits[k][0],
                target_t=visits[k][1],
            )
        )
    return out


def test_vanilla_table_shape_and_bounds():
    index = make_index(5)
    emb = VanillaE2EEmbedder(dim=128, seed=0)
    table = emb.embedding_matrix(index)
    assert table.shape == (5, 128)
    assert np.all(np.abs(table) <= 0.5 / 128)


def test_vanilla_table_deterministic():
    index = make_index(4)
    a = VanillaE2EEmbedder(dim=16, seed=3).embedding_matrix(index)
    b = VanillaE2EEmbedder(dim=16, seed=3).embedding_matrix(index)
    np.testing.assert_array_equal(a, b)


def test_visit_streams_deduplicates_overlapping_windows():
    seqs = alternating_sequences(20)
    streams = visit_streams(seqs)
    assert set(streams) == {"u1"}
    stream = streams["u1"]
    assert len(stream) == 20  # every visit exactly once despite overlap
    times = [t for _, t in stream]
    assert times == sorted(times)


def test_extract_pairs_window_one():
    assert extract_pairs([0, 1, 2], window=1) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_extract_pairs_window_two():
    pairs = extract_pairs([5, 6, 7], window=2)
    assert (5, 7) in pairs and (7, 5) in pairs


def test_skipgram_rejects_tiny_vocabulary():
    index = make_index(3)
    seqs = alternating_sequences(20, locs=("L0",))
    with pytest.raises(ValueError):
        skipgram_pretrain(seqs, index, dim=8)


def test_skipgram_loss_decreases():
    index = make_index(4)
    seqs = alternating_sequences(60, locs=("L0", "L1", "L2", "L3"))
    _, history = skipgram_pretrain(seqs, index, dim=16, epochs=5, seed=0, plateau_tol=0.0)
    losses = history["epoch_losses"]
    assert losses[-1] < losses[0]


def test_skipgram_stops_on_a_non_finite_loss():
    # a NaN step turns every row that batch 1 touched into NaN, so batch 2's loss is NaN
    seqs = alternating_sequences(20)
    with pytest.raises(ValueError, match=r"^pretrain: skip-gram seed 3: non-finite loss in epoch 1, batch 2$"):
        skipgram_pretrain(seqs, make_index(3), dim=8, learning_rate=float("nan"), batch_size=8, seed=3)


def test_skipgram_alternating_corpus_converges_to_confident_pair_score():
    # two strictly alternating locations: the input vector of one and the
    # output vector of the other must agree strongly after convergence
    index = make_index(2)
    seqs = alternating_sequences(120, locs=("L0", "L1"))
    streams = visit_streams(seqs)
    corpus = [index.class_of(l) for l, _ in streams["u1"]]
    assert corpus[:4] == [0, 1, 0, 1]

    table, history = skipgram_pretrain(
        seqs, index, dim=16, window=1, epochs=40, seed=1, plateau_tol=0.0
    )
    u_a = table[index.class_of("L0")]
    v_b = history["output_vectors"][index.class_of("L1")]
    score = 1.0 / (1.0 + np.exp(-float(u_a @ v_b)))
    assert score > 0.9


def test_skipgram_absent_location_row_at_init():
    index = make_index(5)  # L3, L4 never visited
    seqs = alternating_sequences(60, locs=("L0", "L1", "L2"))
    table, _ = skipgram_pretrain(seqs, index, dim=16, epochs=3, seed=2)
    from nextloc.util import make_rng

    rng = make_rng(2, "skipgram")
    init = rng.uniform(-0.5 / 16, 0.5 / 16, size=(5, 16))
    np.testing.assert_array_equal(table[index.class_of("L3")], init[index.class_of("L3")])
    np.testing.assert_array_equal(table[index.class_of("L4")], init[index.class_of("L4")])
    assert not np.array_equal(table[index.class_of("L0")], init[index.class_of("L0")])


def test_skipgram_embedder_row_count_checked():
    with pytest.raises(ValueError):
        SkipgramEmbedder(np.zeros((3, 8))).embedding_matrix(make_index(5))


def test_calliper_embedder_resolves_all_locations():
    model = CaLLiPerModel(GridSpec(0.01, 10.0, 8), PretrainConfig(embed_dim=16, hidden_dim=32), seed=0)
    emb = CalliperEmbedder(model)
    index = make_index(6)
    matrix = emb.embedding_matrix(index)
    assert matrix.shape == (6, 16)
    # rows follow the index's class order
    # batched and single-point encodes may differ in the last ulp (BLAS order)
    np.testing.assert_allclose(
        matrix[index.class_of("L2")],
        model.encode_location(GeoPoint(2.0, -2.0)),
        rtol=1e-12, atol=1e-12,
    )
