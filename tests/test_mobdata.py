"""Ingestion, filtering, sequences, splits, synthesis."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc.geoenc import GeoPoint
from nextloc.mobdata import (
    DatasetSplit,
    Location,
    LocationIndex,
    MobilitySequence,
    VisitRecord,
    apply_split_manifest,
    build_sequences,
    default_transition_matrix,
    filter_min_counts,
    generate_synthetic_city,
    load_checkins,
    read_sequences,
    read_split_manifest,
    split_conventional,
    split_inductive,
    write_sequences,
    write_split_manifest,
)

DAY = 86400


def visit(user, loc, t):
    return VisitRecord(user=user, location=loc, t=t)


# ---------------------------------------------------------------------------
# ingestion


def test_load_checkins_basic(tmp_path):
    path = tmp_path / "checkins.csv"
    path.write_text(
        "user,location,x,y,timestamp\n"
        "u2,locB,1.0,2.0,2000\n"
        "u1,locA,0.0,0.0,1000\n"
        "u1,locB,1.0,2.0,500\n"
    )
    records, index = load_checkins(path)
    assert len(records) == 3
    assert [r.user for r in records] == ["u1", "u1", "u2"]
    assert [r.t for r in records] == [500, 1000, 2000]
    assert len(index) == 2
    assert index.ids() == ["locA", "locB"]


def test_load_checkins_duplicate_location_single_entry(tmp_path):
    path = tmp_path / "checkins.csv"
    path.write_text(
        "user,location,x,y,timestamp\nu1,locA,1.5,2.5,100\nu2,locA,1.5,2.5,200\n"
    )
    _, index = load_checkins(path)
    assert len(index) == 1
    assert index.location("locA").centroid == GeoPoint(1.5, 2.5)


def test_load_checkins_error_names_line(tmp_path):
    path = tmp_path / "checkins.csv"
    path.write_text("user,location,x,y,timestamp\nu1,locA,1.0,2.0,100\nu1,locB,,2.0,200\n")
    with pytest.raises(ValueError) as err:
        load_checkins(path)
    assert ":3:" in str(err.value)
    # a non-finite coordinate is named by file and line, also for a location seen before
    for loc in ("locA", "locB"):
        for bad in ("nan", "inf", "-inf"):
            path.write_text(f"user,location,x,y,timestamp\nu1,locA,1.0,2.0,100\nu1,{loc},{bad},2.0,200\n")
            with pytest.raises(ValueError) as err:
                load_checkins(path)
            assert str(err.value).startswith(f"{path}:3: bad coordinate"), str(err.value)


def test_load_checkins_rejects_unknown_timestamp(tmp_path):
    path = tmp_path / "checkins.csv"
    for stamp in ("yesterday", "inf", "-inf", "1e400", "nan"):
        path.write_text(f"user,location,x,y,timestamp\nu1,locA,1.0,2.0,{stamp}\n")
        with pytest.raises(ValueError) as err:
            load_checkins(path)
        assert str(err.value) == f"{path}:2: unknown timestamp format: {stamp!r}"


def test_load_checkins_rejects_timestamps_past_int64(tmp_path):
    path = tmp_path / "checkins.csv"
    for stamp in ("1e19", "-1e19", "9.3e18"):
        path.write_text(f"user,location,x,y,timestamp\nu1,locA,1.0,2.0,100\nu1,locB,2.0,3.0,{stamp}\n")
        with pytest.raises(ValueError) as err:
            load_checkins(path)
        assert str(err.value) == f"{path}:3: timestamp out of range: {stamp!r}"


def test_load_checkins_accepts_negative_timestamps(tmp_path):
    path = tmp_path / "checkins.csv"
    path.write_text("user,location,x,y,timestamp\nu1,locA,1.0,2.0,-86400\nu1,locB,2.0,3.0,-9.2e18\n")
    records, _ = load_checkins(path)
    assert [r.t for r in records] == [-9200000000000000000, -86400]


def test_load_checkins_iso_timestamps(tmp_path):
    path = tmp_path / "checkins.csv"
    path.write_text(
        "user,location,x,y,timestamp\nu1,locA,1.0,2.0,1970-01-01T00:10:00Z\n"
        "u1,locB,2.0,3.0,1970-01-01T01:10:00+01:00\n"
    )
    records, _ = load_checkins(path)
    assert records[0].t == 600
    assert records[1].t == 600


def test_load_checkins_conflicting_coordinates_rejected(tmp_path):
    path = tmp_path / "checkins.csv"
    path.write_text("user,location,x,y,timestamp\nu1,locA,1.0,2.0,100\nu1,locA,9.0,9.0,200\n")
    with pytest.raises(ValueError):
        load_checkins(path)


def test_load_checkins_ignores_description_column(tmp_path):
    rows = [("u1", "locA", "1.0", "2.0", "100", "cafe"), ("u1", "locB", "3.0", "4.0", "200", "park")]
    rows.append(("u2", "locA", "1.0", "2.0", "300", "a different text for the same place"))
    plain, described = tmp_path / "plain.csv", tmp_path / "described.csv"
    plain.write_text("user,location,x,y,timestamp\n" + "".join(",".join(r[:5]) + "\n" for r in rows))
    described.write_text("user,location,x,y,timestamp,description\n" + "".join(",".join(r) + "\n" for r in rows))
    plain_records, plain_index = load_checkins(plain)
    described_records, described_index = load_checkins(described)
    assert plain_records == described_records
    assert plain_index.content_hash() == described_index.content_hash()


# ---------------------------------------------------------------------------
# filtering


def records_with(user_counts: dict[str, list[str]]):
    out = []
    t = 0
    for user, locs in user_counts.items():
        for loc in locs:
            out.append(visit(user, loc, t))
            t += 60
    return out


def test_filter_removes_sparse_user():
    recs = records_with({"u1": ["A"] * 9, "u2": ["A"] * 11})
    kept = filter_min_counts(recs, min_loc_visits=10, min_user_records=10)
    assert {r.user for r in kept} == {"u2"}


def test_filter_boundary_counts_retained():
    recs = records_with({"u1": ["A"] * 10})
    kept = filter_min_counts(recs, min_loc_visits=10, min_user_records=10)
    assert len(kept) == 10


def test_filter_cascades_to_fixed_point():
    # u1 has 10 records but one is at a location with a single global visit:
    # dropping that location pulls u1 to 9 records, so u1 disappears too
    recs = records_with({"u1": ["A"] * 9 + ["B"], "u2": ["A"] * 10})
    kept = filter_min_counts(recs, min_loc_visits=10, min_user_records=10)
    assert {r.user for r in kept} == {"u2"}
    # oracle: repeated filtering by hand reaches the same fixed point
    manual = recs
    for _ in range(5):
        locs = {}
        for r in manual:
            locs[r.location] = locs.get(r.location, 0) + 1
        manual = [r for r in manual if locs[r.location] >= 10]
        users = {}
        for r in manual:
            users[r.user] = users.get(r.user, 0) + 1
        manual = [r for r in manual if users[r.user] >= 10]
    assert kept == manual


def test_filter_idempotent():
    recs = records_with({"u1": ["A"] * 12 + ["B"] * 3, "u2": ["A"] * 4 + ["B"] * 8})
    once = filter_min_counts(recs, 10, 10)
    twice = filter_min_counts(once, 10, 10)
    assert once == twice


def test_filter_all_removed_is_error():
    with pytest.raises(ValueError):
        filter_min_counts(records_with({"u1": ["A"] * 5}), 10, 10)


# ---------------------------------------------------------------------------
# sequences


def daily_records(user="u1", n_days=10, per_day=1, loc="A", start=0):
    out = []
    for d in range(n_days):
        for v in range(per_day):
            out.append(visit(user, loc if isinstance(loc, str) else loc[d % len(loc)], start + d * DAY + v * 3600 + 9 * 3600))
    return out


def test_sequences_window_excludes_older_than_seven_days():
    recs = daily_records(n_days=10)
    seqs = build_sequences(recs, min_context=1)
    # target on day index 7 (the 8th day): context is exactly days 1..7
    by_target_day = {(s.target_t // DAY): s for s in seqs}
    s8 = by_target_day[7]
    assert len(s8.visits) == 7
    assert min(t for _, t in s8.visits) == 9 * 3600  # day 1 visit retained (window edge)


def test_sequences_first_visit_never_a_target():
    recs = daily_records(n_days=3)
    seqs = build_sequences(recs, min_context=1)
    first_t = min(r.t for r in recs)
    assert all(s.target_t != first_t for s in seqs)


def test_sequences_min_context_discards_short():
    recs = daily_records(n_days=3)
    assert build_sequences(recs, min_context=3) == []
    assert len(build_sequences(recs, min_context=2)) == 1


def test_sequences_context_strictly_precedes_target():
    recs = daily_records(n_days=10, per_day=3)
    for s in build_sequences(recs, min_context=1):
        assert all(t < s.target_t for _, t in s.visits)


def test_sequence_id_content_addressed():
    a = MobilitySequence("u1", (("A", 1), ("B", 2)), "C", 5)
    b = MobilitySequence("u1", (("A", 1), ("B", 2)), "C", 5)
    c = MobilitySequence("u1", (("A", 1), ("B", 2)), "C", 6)
    assert a.id == b.id
    assert a.id != c.id


# ---------------------------------------------------------------------------
# splits


def ten_day_split(min_context=1):
    recs = daily_records(n_days=10, per_day=2, loc=["A", "B", "C"])
    seqs = build_sequences(recs, min_context=min_context)
    return recs, seqs, split_conventional(seqs, records=recs)


def test_conventional_split_day_boundaries():
    recs, seqs, split = ten_day_split()
    def target_day(s):
        return s.target_t // DAY
    assert {target_day(s) for s in split.train} <= {0, 1, 2, 3, 4, 5}
    assert {target_day(s) for s in split.validation} == {6, 7}
    assert {target_day(s) for s in split.test} == {8, 9}


def test_conventional_split_is_partition():
    _, seqs, split = ten_day_split()
    assert len(split.train) + len(split.validation) + len(split.test) == len(seqs)
    ids = [s.id for s in split.train + split.validation + split.test]
    assert len(set(ids)) == len(ids)


def test_conventional_single_day_all_train():
    recs = [visit("u1", "A", 1000 * k) for k in range(10)]
    seqs = build_sequences(recs, min_context=1)
    split = split_conventional(seqs, records=recs)
    assert len(split.train) == len(seqs) > 0
    assert not split.validation and not split.test


def test_conventional_rejects_bad_ratios():
    with pytest.raises(ValueError):
        split_conventional([], ratios=(0.5, 0.2, 0.2), records=[])


def test_inductive_removes_lnew_from_train_and_val():
    recs, seqs, conv = ten_day_split()
    ind = split_inductive(conv, fraction=0.4, seed=1)
    assert ind.l_new
    for s in ind.train + ind.validation:
        assert not (s.location_ids() & ind.l_new)


def test_inductive_test_unchanged():
    recs, seqs, conv = ten_day_split()
    ind = split_inductive(conv, fraction=0.4, seed=1)
    assert [s.id for s in ind.test] == [s.id for s in conv.test]


def test_inductive_size_rounds_half_down():
    # 10 train locations at fraction 0.1 -> exactly 1; 0.15 -> 1 (1.5 rounds down)
    locs = [f"L{i}" for i in range(10)]
    recs = []
    for d in range(40):
        recs.append(visit("u1", locs[d % 10], d * DAY + 3600))
    seqs = build_sequences(recs, min_context=1)
    conv = split_conventional(seqs, records=recs)
    train_locs = {l for s in conv.train for l in s.location_ids()}
    assert len(train_locs) == 10
    assert len(split_inductive(conv, 0.1, seed=0).l_new) == 1
    assert len(split_inductive(conv, 0.15, seed=0).l_new) == 1
    assert len(split_inductive(conv, 0.26, seed=0).l_new) == 3


def test_inductive_rejects_bad_fraction():
    _, _, conv = ten_day_split()
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            split_inductive(conv, fraction=bad, seed=0)


def test_inductive_distinct_seeds_distinct_holdouts():
    recs = []
    for d in range(120):
        recs.append(visit("u1", f"L{d % 30}", d * DAY + 3600))
    seqs = build_sequences(recs, min_context=1)
    conv = split_conventional(seqs, records=recs)
    holdouts = {tuple(sorted(split_inductive(conv, 0.2, seed=s).l_new)) for s in range(5)}
    assert len(holdouts) == 5


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_split_partition_property(n_days, per_day):
    recs = daily_records(n_days=n_days, per_day=per_day, loc=["A", "B"])
    seqs = build_sequences(recs, min_context=1)
    split = split_conventional(seqs, records=recs)
    assert len(split.train) + len(split.validation) + len(split.test) == len(seqs)
    # time ordering: every train target day <= every test target day
    if split.train and split.test:
        assert max(s.target_t for s in split.train) < min(s.target_t for s in split.test)


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip(tmp_path):
    recs, seqs, conv = ten_day_split()
    ind = split_inductive(conv, fraction=0.4, seed=3)
    store = tmp_path / "sequences.json"
    source_hash = write_sequences(store, seqs)
    manifest_path = tmp_path / "split.json"
    write_split_manifest(manifest_path, ind, source_hash)
    loaded_seqs, loaded_hash = read_sequences(store)
    assert loaded_hash == source_hash
    manifest = read_split_manifest(manifest_path)
    replay = apply_split_manifest(loaded_seqs, manifest, source_hash)
    assert [s.id for s in replay.train] == [s.id for s in ind.train]
    assert [s.id for s in replay.test] == [s.id for s in ind.test]
    assert replay.l_new == ind.l_new
    assert replay.seed == 3
    assert replay.digest == manifest["manifest_digest"]


def test_manifest_detects_tampering(tmp_path):
    recs, seqs, conv = ten_day_split()
    store = tmp_path / "sequences.json"
    source_hash = write_sequences(store, seqs)
    manifest_path = tmp_path / "split.json"
    write_split_manifest(manifest_path, conv, source_hash)
    body = json.loads(manifest_path.read_text())
    body["train"] = body["train"][1:]
    manifest_path.write_text(json.dumps(body))
    with pytest.raises(ValueError):
        read_split_manifest(manifest_path)


def test_manifest_source_hash_mismatch(tmp_path):
    recs, seqs, conv = ten_day_split()
    manifest = write_split_manifest(tmp_path / "m.json", conv, "hash-one")
    with pytest.raises(ValueError):
        apply_split_manifest(seqs, manifest, "hash-two")


# ---------------------------------------------------------------------------
# synthetic city


def test_synthetic_city_deterministic(tmp_path):
    a = generate_synthetic_city(7, 4, 12, 3, 10, out_dir=tmp_path / "a")
    b = generate_synthetic_city(7, 4, 12, 3, 10, out_dir=tmp_path / "b")
    assert a.checkins_path.read_bytes() == b.checkins_path.read_bytes()
    assert a.pois_path.read_bytes() == b.pois_path.read_bytes()
    assert a.meta_path.read_bytes() == b.meta_path.read_bytes()


def test_synthetic_city_seed_changes_content(tmp_path):
    a = generate_synthetic_city(7, 4, 12, 3, 10, out_dir=tmp_path / "a")
    b = generate_synthetic_city(8, 4, 12, 3, 10, out_dir=tmp_path / "b")
    assert a.checkins_path.read_bytes() != b.checkins_path.read_bytes()


def test_synthetic_descriptions_have_exactly_one_category_token(tmp_path):
    city = generate_synthetic_city(1, 2, 100, 5, 3, out_dir=tmp_path)
    from nextloc.calliper import read_poi_file

    pois = read_poi_file(city.pois_path)
    assert len(pois) == 100
    for poi in pois:
        words = poi.description.split()
        hits = [w for w in words if w in city.categories]
        assert len(hits) == 1


def test_synthetic_city_loads_and_filters(tmp_path):
    city = generate_synthetic_city(2, 6, 18, 3, 30, out_dir=tmp_path)
    records, index = load_checkins(city.checkins_path)
    assert len(records) == city.n_visits
    assert len(index) <= 18
    kept = filter_min_counts(records, 5, 5)
    assert kept


def test_synthetic_transition_matrix_recovered(tmp_path):
    # empirical category transitions must sit within 0.05 total variation
    # of the configured chain once there are >= 10^4 visits
    city = generate_synthetic_city(3, 40, 60, 5, 130, visits_per_day=2, out_dir=tmp_path)
    assert city.n_visits >= 10_000
    records, _ = load_checkins(city.checkins_path)
    cat_idx = {c: i for i, c in enumerate(city.categories)}
    by_user: dict[str, list] = {}
    for r in records:
        by_user.setdefault(r.user, []).append(r)
    c = len(city.categories)
    counts = np.zeros((c, c))
    for user, recs in by_user.items():
        recs = sorted(recs, key=lambda r: r.t)
        cats = [cat_idx[city.location_category[r.location]] for r in recs]
        for a, b in zip(cats, cats[1:]):
            counts[a, b] += 1
    empirical = counts / counts.sum(axis=1, keepdims=True)
    tv_per_row = 0.5 * np.abs(empirical - city.transition).sum(axis=1)
    assert tv_per_row.max() < 0.05, f"worst row TV {tv_per_row.max():.4f}"


def test_transition_matrix_rows_are_distributions():
    for c in (1, 2, 3, 6, 9):
        t = default_transition_matrix(c)
        np.testing.assert_allclose(t.sum(axis=1), np.ones(c), atol=1e-12)
        assert np.all(t >= 0)
