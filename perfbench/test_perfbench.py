"""Tests of the benchmark itself, on tiny (smoke) sizes of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, resolve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["bound"] == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
                   "--smoke", "--work-dir", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}-smoke" / "result.json").read_text())
    assert record["environment"]["workload_seed"] == 3
    assert {"nproc", "openblas_threads", "python", "numpy", "cpu_model"} <= set(record["environment"])


def test_corrupted_artifact_is_counted_as_failure_and_not_scored(tmp_path, monkeypatch):
    bench = run.Bench(resolve("desk-train", smoke=True), seed=1, run_dir=tmp_path)
    bench.setup()
    good = bench.pipeline(traced=False)
    assert good.ok, good.problems

    real_check = run.check_artifacts

    def check_after_truncating_a_checkpoint(art, cfg):
        ckpt = art / "predictor_lookup-table_seed0.nlck"
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
        return real_check(art, cfg)

    monkeypatch.setattr(run, "check_artifacts", check_after_truncating_a_checkpoint)
    bad = bench.pipeline(traced=False)
    assert not bad.ok
    assert any("predictor_lookup-table_seed0.nlck" in msg for msg in bad.problems)
    assert bench.failed == 1
    assert bench.scored(traced=False) == [good]
    assert (tmp_path / f"pipeline{bad.index}").is_dir()  # kept for inspection
    metrics = bench.end_to_end()
    assert metrics["pipeline_s"] == good.wall_s
    assert metrics["stage_ok_ratio"] == (bench.attempted - 1) / bench.attempted


@pytest.mark.parametrize(
    "corrupt, finding",
    [
        (lambda art: _edit_json(art / "metrics_conventional.json", ("kinds", "skipgram-table", "full", "mrr"), [1.5]),
         "outside [0, 1]"),
        (lambda art: _edit_json(art / "metrics_conventional.json", ("kinds", "calliper-encoder", "full"), {}),
         "unreadable"),
        (lambda art: (art / "calliper.log.json").write_text('{"epoch_losses": [1.0, NaN], "n_pois": 3}'),
         "non-finite"),
        (lambda art: (art / "predictor_skipgram-table_seed0.log.ndjson").write_text(
            '{"epoch": 1, "train_loss": Infinity, "val_loss": 2.0}\n'), "non-finite"),
    ],
)
def test_check_flags_corrupted_artifacts(corrupt, finding, tmp_path):
    bench = run.Bench(resolve("desk-train", smoke=True), seed=2, run_dir=tmp_path)
    bench.setup()
    art = tmp_path / "art"
    for cli_args in run.STAGES.values():
        subprocess.run([sys.executable, "-m", "nextloc.cli", *cli_args, "--config", str(bench.config_path),
                        "--out", str(art)], env=bench.env, check=True, capture_output=True, timeout=120)
    problems, work = run.check_artifacts(art, bench.config)
    assert problems == []
    assert work["train_sequences"] > 0 and work["test_sequences"] > 0 and work["pretrain_pairs"] > 0
    corrupt(art)
    problems, _ = run.check_artifacts(art, bench.config)
    assert any(finding in msg for msg in problems), problems


def _edit_json(path: Path, keys: tuple, value) -> None:
    data = json.loads(path.read_text())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(data))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(["--workload", "desk-train", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_layer_metrics_self_time_steps_and_coverage(tmp_path):
    # root stage span, one training run with two optimizer steps and a validation pass between them
    spans = [
        ["cli.train", 0.0, 10.0, -1],
        ["predictor.train", 1.0, 9.0, 0],
        ["predictor.forward_logits", 1.0, 2.0, 1],
        ["predictor.featurize", 1.2, 1.5, 2],
        ["predictor.featurize", 2.0, 2.2, 1],
        ["numcore.backward", 2.2, 3.0, 1],
        ["numcore.adam_step", 3.0, 3.5, 1],
        ["predictor.val", 3.5, 5.0, 1],
        ["predictor.forward_logits", 3.6, 4.0, 7],
        ["predictor.featurize", 3.6, 3.7, 8],
        ["predictor.forward_logits", 5.0, 6.0, 1],
        ["predictor.featurize", 5.1, 5.2, 10],
        ["numcore.backward", 6.0, 7.0, 1],
        ["numcore.adam_step", 7.0, 7.5, 1],
    ]
    path = tmp_path / "train.json"
    path.write_text(json.dumps({"spans": spans, "counts": {"predictor.val_sequences": 30, "predictor.train_sequences": 60}}))
    m = layer_metrics([("train", 11.0, path)])
    assert m["trace.unattributed_share.train"] == pytest.approx(3.0 / 11.0)  # 11 s wall, 8 s inside predictor.train
    assert m["predictor.train_steps"] == 2
    assert m["predictor.featurize_calls_in_steps"] == 3  # the one under validation is not in a step
    assert m["predictor.featurize_calls_per_step"] == pytest.approx(1.5)
    assert m["predictor.step_ms.p50"] == pytest.approx(2500.0)
    assert m["predictor.forward_train_s"] == pytest.approx(2.0)
    assert m["predictor.val_s"] == pytest.approx(1.5)
    assert m["predictor.val_per_train_seq"] == pytest.approx(0.5)
    assert m["numcore.backward_s"] == pytest.approx(1.8)
    assert m["self.numcore_s"] == pytest.approx(2.8)
    assert m["self.cli_s"] == pytest.approx(2.0)
    assert m["self.predictor_s"] == pytest.approx(8.0 - 2.8)
