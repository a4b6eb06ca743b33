"""Text vectorizer, the contrastive objective, and the pretraining loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc.calliper import (
    CaLLiPerModel,
    HashedNgramEmbedder,
    PoiRecord,
    PretrainConfig,
    infonce_loss,
    read_poi_file,
)
from nextloc.geoenc import GeoPoint, GridSpec
from nextloc.numcore import ParameterStore, ShapeError, Tensor, finite_difference_check

GRID = GridSpec(0.01, 10.0, 8)


# ---------------------------------------------------------------------------
# text vectorizers


def test_hashed_ngram_deterministic():
    emb = HashedNgramEmbedder(64)
    np.testing.assert_array_equal(emb.embed("Coffee Shop"), emb.embed("Coffee Shop"))


def test_hashed_ngram_case_and_whitespace_insensitive():
    emb = HashedNgramEmbedder(64)
    np.testing.assert_array_equal(emb.embed("Coffee  Shop"), emb.embed("coffee shop"))


def test_hashed_ngram_unit_norm_and_width():
    emb = HashedNgramEmbedder(512)
    v = emb.embed("Coffee Shop")
    assert v.shape == (512,)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_hashed_ngram_distinguishes_texts():
    emb = HashedNgramEmbedder(512)
    assert not np.array_equal(emb.embed("italian restaurant"), emb.embed("train station"))


def test_hashed_ngram_rejects_empty():
    with pytest.raises(ValueError):
        HashedNgramEmbedder(64).embed("   ")


@given(st.text(alphabet=st.characters(categories=["L", "N"], include_characters=" "), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_hashed_ngram_same_text_same_vector(text):
    emb = HashedNgramEmbedder(32)
    try:
        first = emb.embed(text)
    except ValueError:
        return  # all-whitespace draw
    np.testing.assert_array_equal(first, emb.embed(text))


# ---------------------------------------------------------------------------
# corpus files


def test_poi_file_round_trip(tmp_path):
    path = tmp_path / "pois.csv"
    path.write_text('id,x,y,description\np1,0.5,1.5,"Blue Bottle coffee shop"\np2,-2.0,3.0,central park\n')
    pois = read_poi_file(path)
    assert [p.id for p in pois] == ["p1", "p2"]
    assert pois[0].point == GeoPoint(0.5, 1.5)
    assert pois[0].description == "Blue Bottle coffee shop"


def test_poi_file_reports_line_of_bad_coordinate(tmp_path):
    path = tmp_path / "pois.csv"
    path.write_text("id,x,y,description\np1,0.5,1.5,cafe\np2,oops,3.0,park\n")
    with pytest.raises(ValueError) as err:
        read_poi_file(path)
    assert ":3:" in str(err.value)


def test_poi_file_rejects_missing_columns(tmp_path):
    path = tmp_path / "pois.csv"
    path.write_text("id,x,y\np1,0.5,1.5\n")
    with pytest.raises(ValueError):
        read_poi_file(path)


# ---------------------------------------------------------------------------
# InfoNCE


def test_infonce_single_pair_is_zero():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((1, 8))
    assert infonce_loss(Tensor(z), Tensor(z.copy())).item() == 0.0


def test_infonce_identical_rows_is_log_n():
    for n in (2, 4, 7):
        zl = np.tile(np.array([1.0, 2.0, -1.0]), (n, 1))
        zt = np.tile(np.array([0.5, -0.5, 2.0]), (n, 1))
        loss = infonce_loss(Tensor(zl), Tensor(zt)).item()
        assert abs(loss - math.log(n)) < 1e-9


def test_infonce_symmetric_in_arguments():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((6, 16)), rng.standard_normal((6, 16))
    lab = infonce_loss(Tensor(a), Tensor(b)).item()
    lba = infonce_loss(Tensor(b), Tensor(a)).item()
    assert abs(lab - lba) < 1e-12


def test_infonce_orthonormal_pairs_sharp_temperature():
    n = 8
    z = np.eye(n)
    loss = infonce_loss(Tensor(z), Tensor(z.copy()), tau=0.01).item()
    assert loss < 1e-3


def test_infonce_nonnegative_property():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        loss = infonce_loss(
            Tensor(rng.standard_normal((n, 12))), Tensor(rng.standard_normal((n, 12)))
        ).item()
        assert loss >= 0.0


def test_infonce_rejects_mismatched_batches():
    with pytest.raises(ShapeError):
        infonce_loss(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4))))


def test_infonce_gradients_pass_finite_difference():
    rng = np.random.default_rng(3)
    store = ParameterStore()
    zl = store.add("zl", rng.standard_normal((4, 8)))
    zt = store.add("zt", rng.standard_normal((4, 8)))

    def build():
        return infonce_loss(zl, zt, tau=0.07)

    report = finite_difference_check(build, store)
    assert report.ok(), f"max rel err {report.max_rel_error}"


# ---------------------------------------------------------------------------
# model and pretraining


def corner_corpus():
    corners = [(-10.0, -10.0), (-10.0, 10.0), (10.0, -10.0), (10.0, 10.0)]
    texts = ["italian restaurant", "city park", "train station", "public library"]
    return [
        PoiRecord(f"p{i}", GeoPoint(*corners[i]), texts[i]) for i in range(4)
    ]


def test_encode_location_handles_unseen_coordinates():
    model = CaLLiPerModel(GRID, HashedNgramEmbedder(64), embed_dim=16, hidden_dim=32, seed=0)
    out = model.encode_location(GeoPoint(123.456, -77.0))
    assert out.shape == (16,)
    assert np.all(np.isfinite(out))


def test_encode_location_deterministic_and_default_width():
    model = CaLLiPerModel(GridSpec(0.01, 10.0, 32), HashedNgramEmbedder(64), seed=0)
    a = model.encode_location(GeoPoint(1.0, 2.0))
    b = model.encode_location(GeoPoint(1.0, 2.0))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (128,)


def test_embed_text_projection_width_and_determinism():
    model = CaLLiPerModel(GRID, HashedNgramEmbedder(64), embed_dim=128, hidden_dim=32, seed=0)
    v = model.embed_text("Coffee Shop")
    assert v.shape == (128,)
    np.testing.assert_array_equal(v, model.embed_text("Coffee Shop"))


def test_pretrain_rejects_empty_and_singleton():
    model = CaLLiPerModel(GRID, HashedNgramEmbedder(64), embed_dim=8, hidden_dim=16, seed=0)
    cfg = PretrainConfig(batch_size=2, epochs=1)
    with pytest.raises(ValueError):
        model.pretrain([], cfg)
    with pytest.raises(ValueError):
        model.pretrain(corner_corpus()[:1], cfg)


def test_pretrain_corner_corpus_beats_uninformative_level():
    model = CaLLiPerModel(GRID, HashedNgramEmbedder(128), embed_dim=16, hidden_dim=32, seed=5)
    cfg = PretrainConfig(batch_size=4, epochs=200)
    history = model.pretrain(corner_corpus(), cfg, seed=5)
    losses = history["epoch_losses"]
    assert losses[-1] < losses[0]
    assert losses[-1] < math.log(4)


def test_pretrain_leaves_text_vectorizer_untouched():
    emb = HashedNgramEmbedder(64)
    before = emb.embed_batch([p.description for p in corner_corpus()]).tobytes()
    model = CaLLiPerModel(GRID, emb, embed_dim=8, hidden_dim=16, seed=1)
    model.pretrain(corner_corpus(), PretrainConfig(batch_size=4, epochs=3), seed=1)
    after = emb.embed_batch([p.description for p in corner_corpus()]).tobytes()
    assert before == after


def test_pretrain_encodes_each_poi_once(monkeypatch):
    import nextloc.calliper

    embedded, encoded = [], []
    embed, grid_pe_batch = HashedNgramEmbedder.embed, nextloc.calliper.grid_pe_batch

    def counting_embed(self, text):
        embedded.append(text)
        return embed(self, text)

    def counting_grid_pe_batch(points, spec):
        encoded.append(len(points))
        return grid_pe_batch(points, spec)

    monkeypatch.setattr(HashedNgramEmbedder, "embed", counting_embed)
    monkeypatch.setattr(nextloc.calliper, "grid_pe_batch", counting_grid_pe_batch)
    pois = corner_corpus() + [PoiRecord("p4", GeoPoint(0.0, 0.0), "city park")]
    model = CaLLiPerModel(GRID, HashedNgramEmbedder(64), embed_dim=8, hidden_dim=16, seed=1)
    model.pretrain(pois, PretrainConfig(batch_size=2, epochs=6), seed=1)
    assert sorted(embedded) == sorted(p.description for p in pois)
    assert encoded == [len(pois)]


def test_pretrain_stops_on_a_non_finite_loss():
    model = CaLLiPerModel(GRID, HashedNgramEmbedder(64), embed_dim=8, hidden_dim=16, seed=1)
    model.store["proj.b"].data[0] = np.nan
    with pytest.raises(ValueError, match=r"^pretrain: calliper seed 6: non-finite loss in epoch 1, batch 1$"):
        model.pretrain(corner_corpus(), PretrainConfig(batch_size=2, epochs=2), seed=6)


def test_pretrain_is_deterministic():
    def run():
        model = CaLLiPerModel(GRID, HashedNgramEmbedder(64), embed_dim=8, hidden_dim=16, seed=2)
        model.pretrain(corner_corpus(), PretrainConfig(batch_size=2, epochs=4), seed=2)
        return model.encode_location(GeoPoint(0.3, 0.7))

    np.testing.assert_array_equal(run(), run())


def test_checkpoint_reload_reproduces_outputs(tmp_path):
    model = CaLLiPerModel(GRID, HashedNgramEmbedder(64), embed_dim=8, hidden_dim=16, seed=3)
    model.pretrain(corner_corpus(), PretrainConfig(batch_size=4, epochs=2), seed=3)
    probe = np.array([[0.1, 0.2], [5.0, -5.0], [100.0, 3.0]])
    before = model.encode_location(probe)
    path = tmp_path / "calliper.ckpt"
    model.save(path)
    restored = CaLLiPerModel.load(path)
    np.testing.assert_array_equal(restored.encode_location(probe), before)
    np.testing.assert_array_equal(
        restored.embed_text("italian restaurant"), model.embed_text("italian restaurant")
    )


def test_checkpoint_load_rejects_wrong_kind(tmp_path):
    from nextloc.numcore import save_checkpoint

    path = tmp_path / "other.ckpt"
    save_checkpoint(path, {"w": np.ones(2)}, meta={"kind": "something-else"})
    with pytest.raises(ValueError):
        CaLLiPerModel.load(path)


def test_pretraining_clusters_categories_by_region():
    # two categories anchored in two regions: same-category pairs should end
    # up closer in cosine similarity than cross-category pairs
    rng = np.random.default_rng(7)
    pois = []
    for i in range(12):
        pois.append(
            PoiRecord(
                f"a{i}",
                GeoPoint(-8.0 + rng.normal(0, 0.5), -8.0 + rng.normal(0, 0.5)),
                "noodle restaurant",
            )
        )
        pois.append(
            PoiRecord(
                f"b{i}",
                GeoPoint(8.0 + rng.normal(0, 0.5), 8.0 + rng.normal(0, 0.5)),
                "botanic garden",
            )
        )
    model = CaLLiPerModel(GRID, HashedNgramEmbedder(128), embed_dim=16, hidden_dim=32, seed=11)
    model.pretrain(pois, PretrainConfig(batch_size=8, epochs=60), seed=11)
    vecs = model.encode_location(np.array([[p.point.x, p.point.y] for p in pois]))
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = unit @ unit.T
    same_mask = np.zeros_like(sims, dtype=bool)
    cats = [p.description for p in pois]
    for i in range(len(pois)):
        for j in range(len(pois)):
            if i != j and cats[i] == cats[j]:
                same_mask[i, j] = True
    cross_mask = ~same_mask & ~np.eye(len(pois), dtype=bool)
    assert sims[same_mask].mean() > sims[cross_mask].mean()
