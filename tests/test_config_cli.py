"""Tests for the experiment config and the command-line pipeline."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nextloc.cli
from nextloc.cli import main
from nextloc.config import (
    ExperimentConfig,
    load_config,
    save_config,
    synthetic_desk_config,
)
from nextloc.mobdata import MobilitySequence, write_sequences
from nextloc.numcore import load_checkpoint, save_checkpoint

# ----------------------------------------------------------------------
# config


def desk_config(tmp_path: Path, **edits) -> ExperimentConfig:
    cfg = synthetic_desk_config(
        checkins_path=str(tmp_path / "city" / "checkins.csv"),
        pois_path=str(tmp_path / "city" / "pois.csv"),
        out_dir=str(tmp_path / "artifacts"),
        split_mode="inductive",
    )
    if edits:
        d = cfg.to_dict()
        d.update(edits)
        cfg = ExperimentConfig.from_dict(d)
    return cfg


def test_config_round_trip(tmp_path):
    cfg = desk_config(tmp_path)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    # serialize -> parse -> serialize is also stable
    save_config(load_config(path), tmp_path / "cfg2.json")
    assert (tmp_path / "cfg.json").read_bytes() == (tmp_path / "cfg2.json").read_bytes()


def test_config_validation(tmp_path):
    with pytest.raises(ValueError, match="split mode"):
        desk_config(tmp_path, split_mode="sideways")
    with pytest.raises(ValueError, match="seeds"):
        desk_config(tmp_path, seeds=[])
    with pytest.raises(ValueError, match="distinct"):
        desk_config(tmp_path, seeds=[1, 1])
    with pytest.raises(ValueError, match="embedder kind"):
        desk_config(tmp_path, embedder_kinds=["hologram"])
    with pytest.raises(ValueError, match="positive"):
        desk_config(tmp_path, train_epochs=0)


def test_written_config_has_exactly_these_settings(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    assert main(["synth", "--out", str(tmp_path / "city"), "--users", "4", "--locations", "6",
                 "--days", "3", "--write-config", str(cfg_path)]) == 0
    d = json.loads(cfg_path.read_text())
    keys = {f"{k}.{sub}" for k, v in d.items() if isinstance(v, dict) for sub in v}
    keys |= {k for k, v in d.items() if not isinstance(v, dict)}
    assert keys == {
        "name", "checkins_path", "pois_path", "out_dir", "split_mode", "seeds",
        "embedder_kinds", "min_visits_per_location", "train_epochs", "train_patience", "train_batch_size",
        "max_train_sequences", "skipgram_epochs",
        "grid.r_min", "grid.r_max", "grid.n_scales",
        "pretrain.batch_size", "pretrain.epochs", "pretrain.embed_dim", "pretrain.hidden_dim",
        "predictor.layers", "predictor.heads", "predictor.ff_dim", "predictor.dropout", "predictor.d_model",
        "predictor.max_context", "predictor.time_dim", "predictor.dow_dim", "predictor.user_dim",
    }


def write_edited_config(tmp_path: Path, key: str, value=None, delete: bool = False) -> Path:
    """The desk config with one setting (`section.name` for a nested one) set or deleted."""
    d = desk_config(tmp_path).to_dict()
    *section, name = key.split(".")
    target = d[section[0]] if section else d
    if delete:
        del target[name]
    else:
        target[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    return path


@pytest.mark.parametrize(
    "key, value, delete, message",
    [
        ("train_learning_rate", 0.001, False, "unknown key 'train_learning_rate'"),
        ("pretrain.temperature", 0.07, False, "unknown key 'pretrain.temperature'"),
        ("holdout_fraction", 0.1, False, "unknown key 'holdout_fraction'"),
        ("grid.n_scales", None, True, "missing key 'grid.n_scales'"),
        ("name", None, True, "missing key 'name'"),
    ],
)
def test_config_with_a_removed_or_missing_key_is_refused(tmp_path, capsys, key, value, delete, message):
    path = write_edited_config(tmp_path, key, value, delete)
    assert main(["preprocess", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["grid.r_min", "grid.r_max", "predictor.dropout"])
def test_non_finite_float_setting_is_refused(tmp_path, capsys, key, value):
    path = write_edited_config(tmp_path, key, value)
    with pytest.raises(ValueError):
        load_config(path)
    assert main(["preprocess", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "key, value",
    [
        ("train_epochs", "3"),
        ("train_epochs", True),
        ("seeds", 3),
        ("train_epochs", 1.5),
        ("max_train_sequences", 2.5),
        ("embedder_kinds", "lookup-table"),
        ("pretrain.batch_size", "64"),
    ],
)
def test_setting_of_the_wrong_type_is_refused(tmp_path, capsys, key, value):
    path = write_edited_config(tmp_path, key, value)
    assert main(["preprocess", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"key {key!r} must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("writer", ["checkpoint", "sequences", "config"])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    write = {
        "checkpoint": lambda v: save_checkpoint(path, {"w": np.full(64, float(v))}),
        "sequences": lambda v: write_sequences(path, [MobilitySequence(f"u{v}", (("L0", 0),), "L1", 60)] * 64),
        "config": lambda v: save_config(synthetic_desk_config(f"c{v}.csv", "p.csv", "out", "inductive"), path),
    }[writer]
    write(1)
    before = path.read_bytes()
    write_bytes = Path.write_bytes

    def fail_half_way(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", fail_half_way)
    with pytest.raises(OSError, match="no space left"):
        write(2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.json")


# ----------------------------------------------------------------------
# CLI pipeline on a small synthetic city


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    city = root / "city"
    cfg_path = root / "cfg.json"
    assert main([
        "synth", "--out", str(city), "--seed", "0",
        "--users", "12", "--locations", "18", "--categories", "3", "--days", "40",
        "--write-config", str(cfg_path), "--split-mode", "inductive",
    ]) == 0
    d = json.loads(cfg_path.read_text())
    d["seeds"] = [0, 1]
    d["train_epochs"] = 2
    d["train_patience"] = 2
    d["max_train_sequences"] = 300
    d["pretrain"]["epochs"] = 5
    d["skipgram_epochs"] = 2
    cfg_path.write_text(json.dumps(d))
    cfg = load_config(cfg_path)
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    return SimpleNamespace(root=root, cfg=cfg, cfg_path=cfg_path, out=Path(cfg.out_dir))


def test_pipeline_writes_expected_artifacts(pipeline):
    out = pipeline.out
    for name in (
        "sequences.json",
        "locations.json",
        "manifest_inductive_seed0.json",
        "manifest_inductive_seed1.json",
        "calliper_seed0.nlck",
        "skipgram_seed1.nlck",
        "predictor_calliper-encoder_seed0.nlck",
        "predictor_lookup-table_seed1.nlck",
        "predictor_skipgram-table_seed0.nlck",
        "predictor_skipgram-table_seed0.log.ndjson",
        "report_calliper-encoder_inductive.txt",
        "report_lookup-table_inductive_lnew.txt",
        "comparison_inductive.txt",
        "comparison_inductive_lnew.txt",
        "metrics_inductive.json",
    ):
        assert (out / name).is_file(), name


def test_pipeline_training_log_is_line_delimited(pipeline):
    lines = (pipeline.out / "predictor_calliper-encoder_seed0.log.ndjson").read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert all({"epoch", "train_loss", "val_loss"} <= set(r) for r in records)
    assert [r["epoch"] for r in records] == list(range(1, len(records) + 1))


def test_pipeline_report_contents(pipeline):
    text = (pipeline.out / "report_calliper-encoder_inductive.txt").read_text()
    assert "embedder_kind: calliper-encoder" in text
    assert "split_mode: inductive" in text
    assert "seeds: 0 1" in text
    assert "manifest_digest_seed0:" in text
    assert "sequences_hash:" in text
    lnew = (pipeline.out / "report_calliper-encoder_inductive_lnew.txt").read_text()
    assert "subset: targets in held-out locations" in lnew


def test_pipeline_metrics_json_structure(pipeline):
    payload = json.loads((pipeline.out / "metrics_inductive.json").read_text())
    assert payload["seeds"] == [0, 1]
    for kind in ("calliper-encoder", "lookup-table", "skipgram-table"):
        for subset in ("full", "lnew"):
            per_metric = payload["kinds"][kind][subset]
            assert len(per_metric["acc@5"]) == 2
            assert all(0.0 <= v <= 1.0 for v in per_metric["acc@5"])


def test_preprocess_rerun_is_byte_identical(pipeline):
    out = pipeline.out
    before = {
        name: (out / name).read_bytes()
        for name in ("sequences.json", "locations.json", "manifest_inductive_seed0.json", "manifest_inductive_seed1.json")
    }
    assert main(["preprocess", "--config", str(pipeline.cfg_path)]) == 0
    for name, blob in before.items():
        assert (out / name).read_bytes() == blob, name


def test_skipgram_pretrain_rerun_is_byte_identical(pipeline):
    path = pipeline.out / "skipgram_seed0.nlck"
    before = path.read_bytes()
    assert main(["pretrain", "--config", str(pipeline.cfg_path), "--kind", "skipgram-table"]) == 0
    assert path.read_bytes() == before


def test_evaluate_rerun_is_byte_identical(pipeline):
    path = pipeline.out / "metrics_inductive.json"
    before = path.read_bytes()
    assert main(["evaluate", "--config", str(pipeline.cfg_path)]) == 0
    assert path.read_bytes() == before


def test_visualize_writes_svg_and_coords(pipeline):
    assert main(["visualize", "--config", str(pipeline.cfg_path), "--kind", "calliper-encoder"]) == 0
    svg = pipeline.out / "projection_calliper-encoder_inductive_seed0.svg"
    txt = pipeline.out / "projection_calliper-encoder_inductive_seed0.txt"
    assert svg.is_file() and txt.is_file()
    body = svg.read_text()
    assert body.startswith("<svg") and "#d62728" in body  # held-out locations in red
    assert main(["visualize", "--config", str(pipeline.cfg_path), "--kind", "skipgram-table"]) == 0


def test_tampered_manifest_is_refused(pipeline, tmp_path, capsys):
    work = tmp_path / "tampered"
    shutil.copytree(pipeline.out, work)
    mpath = work / "manifest_inductive_seed0.json"
    doc = json.loads(mpath.read_text())
    doc["train"] = doc["train"][1:]  # drop one id without refreshing the digest
    mpath.write_text(json.dumps(doc))
    rc = main(["evaluate", "--config", str(pipeline.cfg_path), "--out", str(work)])
    assert rc == 1
    assert "digest mismatch" in capsys.readouterr().err


def test_checkpoint_index_mismatch_is_refused(pipeline, tmp_path, capsys):
    work = tmp_path / "swapped"
    shutil.copytree(pipeline.out, work)
    doc = json.loads((work / "locations.json").read_text())
    doc["locations"][0]["centroid"][0] += 1.0  # a moved location is a different index
    (work / "locations.json").write_text(json.dumps(doc))
    rc = main(["evaluate", "--config", str(pipeline.cfg_path), "--out", str(work)])
    assert rc == 1
    assert "different location index" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stale(pipeline, tmp_path_factory):
    """A copy of the pipeline's artifacts whose splits were redrawn by a later preprocess run.

    The later run reads one check-in fewer: the same locations, so the same
    index, but another sequence store and so every manifest changes.
    """
    work = tmp_path_factory.mktemp("stale") / "artifacts"
    shutil.copytree(pipeline.out, work)
    d = json.loads(pipeline.cfg_path.read_text())
    checkins = work.parent / "checkins.csv"
    checkins.write_text("".join(Path(d["checkins_path"]).read_text().splitlines(keepends=True)[:-1]))
    d["checkins_path"] = str(checkins)
    d["out_dir"] = str(work)
    cfg_path = work.parent / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    before = {p.name: p.read_bytes() for p in work.glob("*.json")}
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    assert (work / "locations.json").read_bytes() == before["locations.json"]
    redrawn = [name for name in before if name.startswith(("sequences", "manifest_"))]
    assert len(redrawn) == 3 and all((work / name).read_bytes() != before[name] for name in redrawn)
    return SimpleNamespace(out=work, cfg_path=cfg_path)


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate"],
        ["train", "--kind", "skipgram-table"],
        ["train", "--kind", "calliper-encoder"],
        ["visualize", "--kind", "skipgram-table"],
        ["visualize", "--kind", "calliper-encoder"],
    ],
    ids=[
        "predictor-in-evaluate",
        "skipgram-in-train",
        "calliper-in-train",
        "skipgram-in-visualize",
        "calliper-in-visualize",
    ],
)
def test_checkpoint_from_an_older_split_is_refused(stale, capsys, argv):
    before = {p.name: p.read_bytes() for p in stale.out.glob("*.nlck")}
    capsys.readouterr()
    assert main([*argv, "--config", str(stale.cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trained on a different split" in err
    assert {p.name: p.read_bytes() for p in stale.out.glob("*.nlck")} == before


def evaluate_with_corrupt_predictor(pipeline, tmp_path, capsys, corrupt) -> str:
    """stderr of `evaluate` over a copy of the pipeline whose lookup-table seed-0 checkpoint is `corrupt(raw)`."""
    work = tmp_path / "corrupt"
    shutil.copytree(pipeline.out, work)
    path = work / "predictor_lookup-table_seed0.nlck"
    path.write_bytes(corrupt(path.read_bytes()))
    rc = main(["evaluate", "--config", str(pipeline.cfg_path), "--out", str(work)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_corrupt_checkpoint_gives_an_error_line(pipeline, tmp_path, capsys):
    err = evaluate_with_corrupt_predictor(pipeline, tmp_path, capsys, lambda raw: b"JUNK" + raw[4:])
    assert "bad magic" in err


def test_flipped_parameter_bit_gives_an_error_line(pipeline, tmp_path, capsys):
    def flip(raw):
        raw = bytearray(raw)
        raw[-3] ^= 0x10  # inside the last parameter value
        return bytes(raw)

    assert "do not match their digest" in evaluate_with_corrupt_predictor(pipeline, tmp_path, capsys, flip)


def test_flipped_header_bit_gives_an_error_line(pipeline, tmp_path, capsys):
    def flip(raw):
        assert raw.count(b'"u000"') == 1
        return raw.replace(b'"u000"', b'"u100"')  # one bit of a user name in the header

    assert "do not match their digest" in evaluate_with_corrupt_predictor(pipeline, tmp_path, capsys, flip)


@pytest.mark.parametrize(
    "stem, section, key, value",
    [
        ("predictor_lookup-table_seed0", "config", "hour_buckets", 24),  # as a predictor of an older version has it
        ("predictor_lookup-table_seed0", "config", "dropout", None),
        ("calliper_seed0", "grid", "scale", 1.0),
        ("calliper_seed0", "grid", "n_scales", None),
    ],
    ids=["predictor-unknown", "predictor-missing", "calliper-unknown", "calliper-missing"],
)
def test_checkpoint_header_with_an_unknown_or_missing_setting_is_refused(
    pipeline, tmp_path, capsys, stem, section, key, value
):
    """A checkpoint header is read as strictly as a config file: no key is ignored or filled in."""
    work = tmp_path / "header"
    shutil.copytree(pipeline.out, work)
    path = work / f"{stem}.nlck"
    params, meta = load_checkpoint(path)
    if value is None:
        del meta[section][key]
    else:
        meta[section][key] = value
    save_checkpoint(path, params, meta=meta)  # a well-formed file with a fresh digest
    # evaluate loads the predictor; train is the stage that loads the calliper encoder
    argv = ["evaluate", "--kind", "lookup-table"] if section == "config" else ["train", "--kind", "calliper-encoder"]
    capsys.readouterr()
    assert main([*argv, "--config", str(pipeline.cfg_path), "--out", str(work), "--seed-override", "0"]) == 1
    err = capsys.readouterr().err
    problem = "missing" if value is None else "unknown"
    assert err.startswith("error:") and f"{problem} key '{section}.{key}'" in err and str(path) in err
    assert "Traceback" not in err


def test_non_finite_training_loss_gives_an_error_line(pipeline, tmp_path, capsys, monkeypatch):
    work = tmp_path / "nan"
    shutil.copytree(pipeline.out, work)
    monkeypatch.setattr(
        nextloc.cli.VanillaE2EEmbedder, "embedding_matrix", lambda self, index: np.full((len(index), self.dim), np.nan)
    )
    argv = ["train", "--config", str(pipeline.cfg_path), "--out", str(work), "--kind", "lookup-table"]
    assert main(argv + ["--seed-override", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: train: lookup-table seed 1: non-finite loss in epoch 1, batch 1\n"


def test_missing_artifacts_give_clear_errors(pipeline, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["train", "--config", str(pipeline.cfg_path), "--out", str(empty)])
    assert rc == 1
    assert "preprocess" in capsys.readouterr().err


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    rc = main(["preprocess", "--config", str(tmp_path / "ghost.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_path_fails_cleanly(tmp_path, capsys):
    cfg = desk_config(tmp_path)  # city files never generated
    save_config(cfg, tmp_path / "cfg.json")
    rc = main(["preprocess", "--config", str(tmp_path / "cfg.json")])
    assert rc == 1
    assert "missing input file" in capsys.readouterr().err


def test_seed_override_limits_artifacts(pipeline, tmp_path):
    work = tmp_path / "solo"
    shutil.copytree(pipeline.out, work)
    (work / "skipgram_seed1.nlck").unlink()
    assert main([
        "pretrain", "--config", str(pipeline.cfg_path), "--kind", "skipgram-table",
        "--seed-override", "0", "--out", str(work),
    ]) == 0
    assert not (work / "skipgram_seed1.nlck").exists()  # only seed 0 was rebuilt


def test_lookup_table_needs_no_pretraining(pipeline, capsys):
    assert main(["pretrain", "--config", str(pipeline.cfg_path), "--kind", "lookup-table"]) == 0
    assert "nothing to pretrain" in capsys.readouterr().out


def test_five_seeds_give_five_manifests(tmp_path):
    city = tmp_path / "city"
    cfg_path = tmp_path / "cfg.json"
    assert main([
        "synth", "--out", str(city), "--seed", "3",
        "--users", "10", "--locations", "15", "--categories", "3", "--days", "30",
        "--write-config", str(cfg_path), "--split-mode", "inductive",
    ]) == 0
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    out = Path(json.loads(cfg_path.read_text())["out_dir"])
    manifests = sorted(out.glob("manifest_inductive_seed*.json"))
    assert len(manifests) == 5
    digests = {json.loads(m.read_text())["manifest_digest"] for m in manifests}
    assert len(digests) == 5  # resamples genuinely differ


def test_conventional_calliper_pretrain_needs_no_sequences(tmp_path):
    city = tmp_path / "city"
    cfg_path = tmp_path / "cfg.json"
    assert main([
        "synth", "--out", str(city), "--seed", "1",
        "--users", "8", "--locations", "12", "--categories", "3", "--days", "20",
        "--write-config", str(cfg_path), "--split-mode", "conventional",
    ]) == 0
    d = json.loads(cfg_path.read_text())
    d["pretrain"]["epochs"] = 2
    cfg_path.write_text(json.dumps(d))
    # no preprocess stage: the contrastive pretraining reads only the POI file
    assert main(["pretrain", "--config", str(cfg_path), "--kind", "calliper-encoder"]) == 0
    assert (Path(d["out_dir"]) / "calliper.nlck").is_file()


def test_conventional_pipeline_shares_one_split(tmp_path, monkeypatch):
    city = tmp_path / "city"
    cfg_path = tmp_path / "cfg.json"
    assert main([
        "synth", "--out", str(city), "--seed", "2",
        "--users", "10", "--locations", "15", "--categories", "3", "--days", "30",
        "--write-config", str(cfg_path), "--split-mode", "conventional",
    ]) == 0
    d = json.loads(cfg_path.read_text())
    d.update(seeds=[0, 1], train_epochs=1, train_patience=1, max_train_sequences=60, skipgram_epochs=1)
    d["pretrain"]["epochs"] = 2
    cfg_path.write_text(json.dumps(d))
    out = Path(d["out_dir"])
    for stage in ("preprocess", "pretrain"):
        assert main([stage, "--config", str(cfg_path)]) == 0

    applied = []
    apply_split_manifest = nextloc.cli.apply_split_manifest

    def counting(*args, **kwargs):
        applied.append(args[1]["manifest_digest"])
        return apply_split_manifest(*args, **kwargs)

    monkeypatch.setattr(nextloc.cli, "apply_split_manifest", counting)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert len(applied) == 1  # two run seeds times three kinds, one split
    monkeypatch.undo()
    assert main(["evaluate", "--config", str(cfg_path)]) == 0

    kinds = ("calliper-encoder", "lookup-table", "skipgram-table")
    expected = {
        "sequences.json", "locations.json", "manifest_conventional.json",
        "calliper.nlck", "calliper.log.json", "skipgram.nlck", "skipgram.log.json",
        "metrics_conventional.json", "comparison_conventional.txt",
        *(f"report_{k}_conventional.txt" for k in kinds),
        *(f"predictor_{k}_seed{s}{ext}" for k in kinds for s in (0, 1) for ext in (".nlck", ".log.ndjson")),
    }
    assert {p.name for p in out.iterdir()} == expected
    payload = json.loads((out / "metrics_conventional.json").read_text())
    assert payload["seeds"] == [0, 1]
    assert all(set(payload["kinds"][k]) == {"full"} for k in kinds)


def test_evaluate_without_held_out_targets_writes_nothing(tmp_path, capsys):
    # 10% of at most five training locations rounds to none held out, so the
    # inductive held-out subset is empty; the refusal must come before any report
    city = tmp_path / "city"
    cfg_path = tmp_path / "cfg.json"
    assert main([
        "synth", "--out", str(city), "--seed", "3",
        "--users", "8", "--locations", "5", "--categories", "4", "--days", "30",
        "--write-config", str(cfg_path), "--split-mode", "inductive",
    ]) == 0
    d = json.loads(cfg_path.read_text())
    d.update(seeds=[0], embedder_kinds=["lookup-table"], train_epochs=1, train_patience=1)
    cfg_path.write_text(json.dumps(d))
    for stage in ("preprocess", "train"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 1
    assert "error: split seed 0 has no test samples targeting held-out locations" in capsys.readouterr().err
    out = Path(d["out_dir"])
    assert [p.name for p in out.glob("*") if p.name.startswith(("report_", "metrics_", "comparison_"))] == []


def test_argparse_requires_config():
    with pytest.raises(SystemExit):
        main(["preprocess"])


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("2", "2")])
def test_cli_defaults_openblas_to_one_thread(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(nextloc.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    probe = "import os, nextloc.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected
