"""Pipeline benchmark for nextloc.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 30 --trace 0

Builds a synthetic city from --seed (`nextloc synth`), writes the workload's
config, then runs the CLI pipeline (preprocess, pretrain calliper, pretrain
skip-gram, train, evaluate) again and again, each stage as its own process,
one after another (a closed loop with one client), until the next pipeline
would end after --seconds. Every pipeline's artifacts are checked; a
pipeline that fails a stage or the check counts as failed and is not scored.
Passing pipelines must produce byte-identical artifacts.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics (medians over the pipelines). With --trace 1 untraced and traced
pipelines alternate and the JSON holds the per-layer metrics. A record of
every run, with the environment it ran in, is written under the work
directory (default `.perfbench/` in the checkout). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from checks import check_artifacts, sha256_file  # noqa: E402
from layers import PER_LAYER, RATIOS, STAGE_KEYS, layer_metrics  # noqa: E402
from stages import StageRun, cpu_counters, environment, run_stage, stage_env, steal_share  # noqa: E402
from workloads import WORKLOADS, Workload, merge, resolve  # noqa: E402

STAGES = dict(
    zip(
        STAGE_KEYS,
        (
            ["preprocess"],
            ["pretrain", "--kind", "calliper-encoder"],
            ["pretrain", "--kind", "skipgram-table"],
            ["train"],
            ["evaluate"],
        ),
    )
)
SETUPS = 5  # set-up runs per benchmark run; setup_s is their median
RUN_LIMIT_S = 170.0  # hard stop for any one benchmark run, set-up included

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("pipeline_cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("train_seq_per_s", "seq/s"),
    ("eval_seq_per_s", "seq/s"),
    ("pretrain_pairs_per_s", "pairs/s"),
    ("val_loss", "nats"),
    ("stage_ok_ratio", "1"),
)


@dataclass
class Pipeline:
    index: int
    traced: bool
    wall_s: float = 0.0
    stages: list[StageRun] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    work: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def stage(self, key: str) -> StageRun:
        return next(s for s in self.stages if s.name == key)


class Bench:
    def __init__(self, workload: Workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.env = stage_env(ROOT)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.problems: list[str] = []
        self.config_path = run_dir / "config.json"
        self.config: dict = {}
        self.pipelines: list[Pipeline] = []

    def _tally(self, ok: bool) -> bool:
        """Count one attempted operation (a stage process or a check)."""
        self.attempted += 1
        self.failed += not ok
        return ok

    def _run(self, name: str, argv: list[str], log: Path) -> StageRun:
        run = run_stage(name, argv, log, self.env, ROOT, self.deadline)
        self._tally(run.exit_code == 0)
        return run

    # -- set-up: synth plus the workload config ----------------------------

    def setup(self) -> None:
        city = self.run_dir / "city"
        synth_args = [f"--{k}={v}" for k, v in self.workload.synth.items()]
        digests = set()
        for i in range(SETUPS):
            shutil.rmtree(city, ignore_errors=True)
            start = time.perf_counter()
            run = self._run(
                "synth",
                [sys.executable, "-m", "nextloc.cli", "synth", "--out", str(city), f"--seed={self.seed}",
                 *synth_args, "--write-config", str(self.config_path)],
                self.run_dir / f"setup{i}.log",
            )
            if run.exit_code == 0:
                written = json.loads(self.config_path.read_text(encoding="utf-8"))
                self.config = merge(written, self.workload.config)
                self.config_path.write_text(json.dumps(self.config, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            elapsed = time.perf_counter() - start
            if run.exit_code != 0:
                self.problems.append(f"synth exited {run.exit_code}; see {run.log}")
                return
            self.setup_s.append(elapsed)
            digests.add(tuple(sha256_file(city / f) for f in ("checkins.csv", "pois.csv")))
        if not self._tally(len(digests) == 1):
            self.problems.append("synth wrote different files for the same seed")

    # -- one pipeline ------------------------------------------------------

    def pipeline(self, traced: bool) -> Pipeline:
        p = Pipeline(index=len(self.pipelines), traced=traced)
        art = self.run_dir / f"pipeline{p.index}"
        logs = self.run_dir / f"logs{p.index}"
        logs.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        for key, cli_args in STAGES.items():
            cli = [*cli_args, "--config", str(self.config_path), "--out", str(art)]
            if traced:
                argv = [sys.executable, str(HERE / "traced_stage.py"), "--spans", str(logs / f"{key}.spans.json"), "--", *cli]
            else:
                argv = [sys.executable, "-m", "nextloc.cli", *cli]
            run = self._run(key, argv, logs / f"{key}.log")
            p.stages.append(run)
            if run.exit_code != 0:
                p.problems.append(f"stage {key} exited {run.exit_code}; see {run.log}")
                break
        p.wall_s = time.perf_counter() - start
        if p.ok:
            p.problems, p.work = check_artifacts(art, self.config)
            self._tally(p.ok)
        if p.ok:
            shutil.rmtree(art)  # keep failed pipelines' artifacts for inspection
        self.pipelines.append(p)
        return p

    def measure(self, seconds: float, trace: bool) -> None:
        """Run pipelines until the next one would end after `seconds`.

        With tracing, untraced and traced pipelines alternate, and at least
        one of each runs.
        """
        start = time.monotonic()
        while True:
            traced = trace and len(self.pipelines) % 2 == 1
            p = self.pipeline(traced)
            now = time.monotonic()
            kinds_done = not trace or len(self.pipelines) >= 2
            if (now - start + p.wall_s > seconds and kinds_done) or now + 1.5 * p.wall_s > self.deadline:
                return

    # -- metrics -----------------------------------------------------------

    def scored(self, traced: bool) -> list[Pipeline]:
        return [p for p in self.pipelines if p.ok and p.traced == traced]

    def check_repeatable(self) -> None:
        digests = {json.dumps(p.work["digests"], sort_keys=True) for p in self.pipelines if p.ok}
        if not self._tally(len(digests) <= 1):
            self.problems.append("pipelines on the same inputs wrote different artifacts")

    def end_to_end(self) -> dict[str, float]:
        runs = self.scored(traced=False)
        med = statistics.median
        first = runs[0].work
        return {
            "setup_s": med(self.setup_s),
            "pipeline_s": med(p.wall_s for p in runs),
            "pipeline_cpu_s": med(sum(s.cpu_s for s in p.stages) for p in runs),
            "peak_rss_mb": med(max(s.peak_rss_mb for s in p.stages) for p in runs),
            "train_seq_per_s": med(p.work["train_sequences"] / p.stage("train").wall_s for p in runs),
            "eval_seq_per_s": med(p.work["test_sequences"] / p.stage("evaluate").wall_s for p in runs),
            "pretrain_pairs_per_s": med(p.work["pretrain_pairs"] / p.stage("pretrain_calliper").wall_s for p in runs),
            "val_loss": first["val_loss"],
            "stage_ok_ratio": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        plain, traced = self.scored(traced=False), self.scored(traced=True)
        med = statistics.median
        out = {f"cli.{key}_s": med(p.stage(key).wall_s for p in plain) for key in STAGE_KEYS}
        per_pipeline = [
            layer_metrics([(key, p.stage(key).wall_s, self.run_dir / f"logs{p.index}" / f"{key}.spans.json") for key in STAGE_KEYS])
            for p in traced
        ]
        for name in per_pipeline[0]:
            out[name] = med(m[name] for m in per_pipeline)
        out["trace.overhead_s"] = med(p.wall_s for p in traced) - med(p.wall_s for p in plain)
        out["evaluation.test_mrr"] = plain[0].work["test_mrr"]
        return out


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="workload seed, passed to `nextloc synth`")
    ap.add_argument("--seconds", type=float, required=True, help="time to spend running pipelines")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--work-dir", default=None, help="scratch directory (default: .perfbench/ in the checkout)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nextloc" / "cli.py").is_file():
        print(f"error: no nextloc sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = resolve(args.workload, smoke=args.smoke)
    work_dir = Path(args.work_dir) if args.work_dir else ROOT / ".perfbench"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    run_dir = (work_dir / tag).resolve()
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    counters_at_start = cpu_counters()
    bench = Bench(workload, args.seed, run_dir)
    bench.setup()
    if not bench.problems:
        bench.measure(args.seconds, bool(args.trace))
        bench.check_repeatable()
    problems = bench.problems + [f"pipeline {p.index}: {msg}" for p in bench.pipelines for msg in p.problems]
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    if not bench.scored(traced=False) or (args.trace and not bench.scored(traced=True)):
        print("error: no pipeline passed its check; nothing to score", file=sys.stderr)
        return 1

    units = dict(PER_LAYER if args.trace else END_TO_END)
    values = bench.per_layer() if args.trace else bench.end_to_end()
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad or set(values) != set(units):
        print(f"error: metrics not measured: {sorted(bad or set(units) ^ set(values))}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    env = environment(args.seed)
    env["cpu_steal_share"] = steal_share(counters_at_start, cpu_counters())
    n_plain, n_traced = len(bench.scored(False)), len(bench.scored(True))
    print(f"workload {workload.name}  seed {args.seed}  pipelines scored: {n_plain} untraced, {n_traced} traced")
    print("environment: " + "  ".join(f"{k}={env[k]}" for k in ("nproc", "openblas_threads", "python", "numpy", "cpu_model", "cpu_steal_share")))
    for name, m in metrics.items():
        base = f"  ({values[RATIOS[name][0]]:g} / {values[RATIOS[name][1]]:g})" if name in RATIOS else ""
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}{base}")
    print(f"  operations attempted {bench.attempted}, failed {bench.failed}")

    record = {
        "workload": asdict(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "config": bench.config,
        "setup_s": bench.setup_s,
        "pipelines": [asdict(p) for p in bench.pipelines],
        "problems": problems,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not problems, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
