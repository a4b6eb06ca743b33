"""Command-line pipeline over the library modules.

Subcommands: synth, preprocess, pretrain, train, evaluate, visualize.
Every stage is driven by one ExperimentConfig JSON file, writes its
artifacts under the config's output directory, and prints the content
hashes that later stages verify. Rerunning any stage with the same
config and seeds reproduces its artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

# One OpenBLAS thread unless the caller sets one: at this package's matrix
# shapes a second thread costs CPU time and saves no wall time. OpenBLAS
# reads the variable once, when numpy loads, so this runs before that.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from nextloc.baselines import (  # noqa: E402
    CalliperEmbedder,
    SkipgramEmbedder,
    VanillaE2EEmbedder,
    skipgram_pretrain,
)
from nextloc.calliper import CaLLiPerModel, read_poi_file  # noqa: E402
from nextloc.config import (  # noqa: E402
    EMBEDDER_KINDS,
    ExperimentConfig,
    load_config,
    save_config,
    synthetic_desk_config,
)
from nextloc.evaluation import (  # noqa: E402
    METRIC_NAMES,
    format_comparison,
    format_report,
    project_2d,
    projection_coords_text,
    projection_svg,
    ranks_from_scores,
    run_experiment,
)
from nextloc.mobdata import (  # noqa: E402
    DatasetSplit,
    LocationIndex,
    apply_split_manifest,
    build_sequences,
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
from nextloc.numcore.checkpoint import CheckpointError, load_checkpoint, save_checkpoint  # noqa: E402
from nextloc.predictor import NextLocPredictor  # noqa: E402
from nextloc.util import make_rng, parse_json, stable_json, write_atomic  # noqa: E402

# ----------------------------------------------------------------------
# run plan and artifact names


def split_seed_of(cfg: ExperimentConfig, run_seed: int) -> int | None:
    """The split a run seed trains on.

    An inductive run resamples the held-out locations once per seed, so run
    seed n has its own split n; a conventional run has one split (None) that
    every run seed shares. This is the only place the split mode picks splits.
    """
    return run_seed if cfg.split_mode == "inductive" else None


def split_seeds(cfg: ExperimentConfig) -> list[int | None]:
    """The distinct splits of the plan, in seed order."""
    return list(dict.fromkeys(split_seed_of(cfg, seed) for seed in cfg.seeds))


def seeded(stem: str, seed: int | None) -> str:
    """The naming rule: a seed-independent name has no suffix, any other ends in `_seed<n>`."""
    return stem if seed is None else f"{stem}_seed{seed}"


def artifact(cfg: ExperimentConfig, stem: str, seed: int | None = None, suffix: str = ".json") -> Path:
    return Path(cfg.out_dir) / (seeded(stem, seed) + suffix)


def _existing(path: Path, stage: str) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"{path}: missing; run `nextloc {stage}` first")
    return path


# ----------------------------------------------------------------------
# shared loading


def _load_store(cfg) -> tuple[list, str, LocationIndex]:
    seq_file = _existing(artifact(cfg, "sequences"), "preprocess")
    idx_file = _existing(artifact(cfg, "locations"), "preprocess")
    sequences, seq_hash = read_sequences(seq_file)
    index = parse_json(idx_file, idx_file.read_text(encoding="utf-8"), LocationIndex.from_dict)
    return sequences, seq_hash, index


def _load_splits(cfg, sequences, seq_hash) -> dict[int | None, DatasetSplit]:
    """Every split of the plan by split seed, each rebuilt once from the store."""
    stem = f"manifest_{cfg.split_mode}"
    paths = {seed: _existing(artifact(cfg, stem, seed), "preprocess") for seed in split_seeds(cfg)}
    return {seed: apply_split_manifest(sequences, read_split_manifest(path), seq_hash) for seed, path in paths.items()}


def _load_calliper(cfg, split: DatasetSplit) -> CaLLiPerModel:
    path = _existing(artifact(cfg, "calliper", split.seed, ".nlck"), "pretrain")
    # the conventional encoder saw every POI, so it belongs to no split
    return CaLLiPerModel.load(path, manifest_digest=None if split.seed is None else split.digest)


def _load_skipgram(cfg, index: LocationIndex, split: DatasetSplit) -> np.ndarray:
    path = _existing(artifact(cfg, "skipgram", split.seed, ".nlck"), "pretrain")
    params, _ = load_checkpoint(path, "skipgram-table", index.content_hash(), split.digest, reads=())
    return params["table"]


# ----------------------------------------------------------------------
# preprocess


def cmd_preprocess(cfg: ExperimentConfig) -> int:
    cfg.validate_paths()
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    records, index = load_checkins(cfg.checkins_path)
    records = filter_min_counts(records, cfg.min_visits_per_location)
    surviving = sorted({r.location for r in records})
    if len(surviving) != len(index):
        index = LocationIndex([index.location(i) for i in surviving])
    sequences = build_sequences(records)
    if not sequences:
        raise ValueError("no usable sequences after filtering; lower the thresholds")
    seq_hash = write_sequences(artifact(cfg, "sequences"), sequences)
    write_atomic(artifact(cfg, "locations"), stable_json(index.to_dict()) + "\n")
    extra = {"dataset": cfg.name, "index_hash": index.content_hash()}
    conventional = split_conventional(sequences, records=records)
    print(f"locations: {len(index)}  visits: {len(records)}  sequences: {len(sequences)}")
    print(f"sequences_hash: {seq_hash}")
    print(f"index_hash: {index.content_hash()}")
    for split_seed in split_seeds(cfg):
        if split_seed is None:
            split = conventional
        else:
            split = split_inductive(conventional, seed=split_seed)
        path = artifact(cfg, f"manifest_{cfg.split_mode}", split_seed)
        manifest = write_split_manifest(path, split, seq_hash, extra)
        print(
            f"{seeded(cfg.split_mode, split_seed)} split: |L_new|={len(split.l_new)} "
            f"train={len(split.train)} val={len(split.validation)} test={len(split.test)} "
            f"digest={manifest['manifest_digest']}"
        )
    return 0


# ----------------------------------------------------------------------
# pretrain


def _pretrain_calliper(cfg: ExperimentConfig) -> None:
    pois = read_poi_file(cfg.pois_path)
    # held-out locations must stay unseen during contrastive pretraining, so
    # each inductive split gets its own encoder without their POIs; the
    # conventional encoder sees every POI and reads no sequence store
    if cfg.split_mode == "conventional":
        splits = {None: None}
    else:
        sequences, seq_hash, _ = _load_store(cfg)
        splits = _load_splits(cfg, sequences, seq_hash)
    for split_seed, split in splits.items():
        l_new = split.l_new if split else frozenset()
        corpus = [p for p in pois if p.id not in l_new]
        model = CaLLiPerModel(cfg.grid, cfg.pretrain)
        history = model.pretrain(corpus)
        path = artifact(cfg, "calliper", split_seed, ".nlck")
        model.save(path, manifest_digest=split.digest if split else None)
        log = {"epoch_losses": history["epoch_losses"], "n_pois": len(corpus)}
        write_atomic(path.with_suffix(".log.json"), stable_json(log) + "\n")
        losses = history["epoch_losses"]
        tag = f"{seeded('calliper', split_seed)}: {len(l_new)} POIs held out"
        print(f"{tag}, loss {losses[0]:.4f} -> {losses[-1]:.4f}, saved {path}")


def _pretrain_skipgram(cfg: ExperimentConfig) -> None:
    sequences, seq_hash, index = _load_store(cfg)
    for split_seed, split in _load_splits(cfg, sequences, seq_hash).items():
        table, history = skipgram_pretrain(
            split.train,
            index,
            dim=cfg.pretrain.embed_dim,
            epochs=cfg.skipgram_epochs,
        )
        path = artifact(cfg, "skipgram", split_seed, ".nlck")
        meta = {"kind": "skipgram-table", "index_hash": index.content_hash(), "manifest_digest": split.digest}
        save_checkpoint(path, {"table": table}, meta=meta)
        log = {"epoch_losses": history["epoch_losses"], "n_pairs": history["n_pairs"]}
        write_atomic(path.with_suffix(".log.json"), stable_json(log) + "\n")
        print(f"{seeded('skipgram', split_seed)}: {history['n_pairs']} pairs, saved {path}")


# the kinds with a pretraining stage, each with its stage
PRETRAIN = {"calliper-encoder": _pretrain_calliper, "skipgram-table": _pretrain_skipgram}


def cmd_pretrain(cfg: ExperimentConfig) -> int:
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    kinds = [k for k in cfg.embedder_kinds if k in PRETRAIN]
    if not kinds:
        print("lookup-table embeddings are learned jointly with the predictor; nothing to pretrain")
    for k in kinds:
        PRETRAIN[k](cfg)
    return 0


# ----------------------------------------------------------------------
# train


def _location_matrix(cfg, kind: str, index: LocationIndex, split: DatasetSplit, run_seed: int) -> np.ndarray:
    """The (|L|, d) location embeddings a run of `kind` on `split` starts from."""
    if kind == "lookup-table":
        embedder = VanillaE2EEmbedder(dim=cfg.pretrain.embed_dim, seed=run_seed)
    elif kind == "calliper-encoder":
        embedder = CalliperEmbedder(_load_calliper(cfg, split))
    else:
        embedder = SkipgramEmbedder(_load_skipgram(cfg, index, split))
    return embedder.embedding_matrix(index)


def _cap_train(split: DatasetSplit, cap: int, seed: int) -> DatasetSplit:
    if cap <= 0 or len(split.train) <= cap:
        return split
    rng = make_rng(seed, "train-subsample")
    keep = np.sort(rng.choice(len(split.train), size=cap, replace=False))
    return replace(split, train=[split.train[i] for i in keep])


def cmd_train(cfg: ExperimentConfig) -> int:
    sequences, seq_hash, index = _load_store(cfg)
    splits = _load_splits(cfg, sequences, seq_hash)
    for k in cfg.embedder_kinds:
        for seed in cfg.seeds:
            split = _cap_train(splits[split_seed_of(cfg, seed)], cfg.max_train_sequences, seed)
            matrix = _location_matrix(cfg, k, index, split, seed)
            users = sorted({s.user for s in split.train})
            model = NextLocPredictor(index, users, matrix, k, cfg.predictor, seed=seed)
            history = model.train(
                split,
                epochs=cfg.train_epochs,
                patience=cfg.train_patience,
                batch_size=cfg.train_batch_size,
                seed=seed,
            )
            path = artifact(cfg, f"predictor_{k}", seed, ".nlck")
            model.save(path, manifest_digest=split.digest)
            log_lines = [stable_json(rec) for rec in history["log"]]
            write_atomic(path.with_suffix(".log.ndjson"), "\n".join(log_lines) + "\n")
            print(
                f"{k} seed {seed}: {history['epochs_run']} epochs, "
                f"best val loss {history['best_val_loss']:.4f}, saved {path}"
            )
    return 0


# ----------------------------------------------------------------------
# evaluate


def _test_ranks(cfg, index, split: DatasetSplit, kind: str, seed: int) -> dict[str, np.ndarray]:
    """Test ranks by subset: "full", plus "lnew" (targets in held-out locations) in the inductive protocol."""
    path = _existing(artifact(cfg, f"predictor_{kind}", seed, ".nlck"), "train")
    model = NextLocPredictor.load(path, index, manifest_digest=split.digest)
    probs = model.predict_proba(split.test, batch_size=cfg.train_batch_size)
    targets = np.array([index.class_of(s.target_location) for s in split.test])
    ranks = {"full": ranks_from_scores(probs, targets)}
    if cfg.split_mode == "inductive":
        lnew = np.array([s.target_location in split.l_new for s in split.test], dtype=bool)
        if not lnew.any():
            raise ValueError(f"split seed {seed} has no test samples targeting held-out locations")
        ranks["lnew"] = ranks["full"][lnew]
    return ranks


def cmd_evaluate(cfg: ExperimentConfig) -> int:
    sequences, seq_hash, index = _load_store(cfg)
    splits = _load_splits(cfg, sequences, seq_hash)
    kinds = cfg.embedder_kinds
    provenance = {"sequences_hash": seq_hash, "index_hash": index.content_hash()}
    for split_seed, split in splits.items():
        provenance[seeded("manifest_digest", split_seed)] = split.digest
    # every run is ranked before anything is written, so a refused run leaves no report
    ranks = {
        (k, seed): _test_ranks(cfg, index, splits[split_seed_of(cfg, seed)], k, seed)
        for k in kinds
        for seed in cfg.seeds
    }
    subsets = list(ranks[(kinds[0], cfg.seeds[0])])
    reports = {
        subset: {
            k: run_experiment({seed: ranks[(k, seed)][subset] for seed in cfg.seeds}, cfg.split_mode, k)
            for k in kinds
        }
        for subset in subsets
    }
    metrics_payload: dict = {"split_mode": cfg.split_mode, "seeds": list(cfg.seeds), "kinds": {k: {} for k in kinds}}
    for subset, by_kind in reports.items():
        suffix = "" if subset == "full" else f"_{subset}"
        note = {"subset": "targets in held-out locations"} if subset == "lnew" else {}
        for k, report in by_kind.items():
            write_atomic(
                artifact(cfg, f"report_{k}_{cfg.split_mode}{suffix}", suffix=".txt"),
                format_report(report, dataset=cfg.name, provenance={**provenance, **note}),
            )
            metrics_payload["kinds"][k][subset] = {
                name: [float(v) for v in report.per_run(name)] for name in METRIC_NAMES
            }
        if len(kinds) > 1:
            comparison = artifact(cfg, f"comparison_{cfg.split_mode}{suffix}", suffix=".txt")
            write_atomic(comparison, format_comparison(by_kind))
    write_atomic(artifact(cfg, f"metrics_{cfg.split_mode}"), stable_json(metrics_payload) + "\n")

    for k in kinds:
        print(f"{k}: " + "  | ".join(
            f"{subset}: " + "  ".join(f"{name}={reports[subset][k].mean(name):.4f}" for name in METRIC_NAMES)
            for subset in subsets
        ))
    print(f"metrics written to {artifact(cfg, f'metrics_{cfg.split_mode}')}")
    return 0


# ----------------------------------------------------------------------
# visualize


def cmd_visualize(cfg: ExperimentConfig, kind: str) -> int:
    if kind not in PRETRAIN:
        raise ValueError(f"visualize supports the pretrained kinds: {', '.join(PRETRAIN)}")
    cfg = replace(cfg, seeds=cfg.seeds[:1])  # one projection, of the first seed's split
    sequences, seq_hash, index = _load_store(cfg)
    for split_seed, split in _load_splits(cfg, sequences, seq_hash).items():
        matrix = _location_matrix(cfg, kind, index, split, cfg.seeds[0])
        proj = project_2d(matrix, ["new" if i in split.l_new else "seen" for i in index.ids()])
        svg_file = artifact(cfg, f"projection_{kind}_{cfg.split_mode}", split_seed, ".svg")
        write_atomic(svg_file, projection_svg(proj))
        write_atomic(svg_file.with_suffix(".txt"), projection_coords_text(proj))
        share = proj.explained_variance.sum() / proj.total_variance if proj.total_variance > 0 else 1.0
        print(f"projection of {len(matrix)} embeddings ({100 * share:.1f}% variance) -> {svg_file}")
    return 0


# ----------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    city = generate_synthetic_city(
        seed=args.seed,
        n_users=args.users,
        n_locations=args.locations,
        n_categories=args.categories,
        days=args.days,
        out_dir=args.out,
    )
    hashes = city.hashes()
    print(f"checkins: {city.checkins_path} ({city.n_visits} visits, sha256 {hashes['checkins']})")
    print(f"pois: {city.pois_path} (sha256 {hashes['pois']})")
    if args.write_config:
        # absolute paths, so the config works from any working directory
        cfg = synthetic_desk_config(
            checkins_path=str(city.checkins_path.absolute()),
            pois_path=str(city.pois_path.absolute()),
            out_dir=str(Path(args.out, "artifacts").absolute()),
            split_mode=args.split_mode,
        )
        save_config(cfg, args.write_config)
        print(f"config: {args.write_config} ({cfg.split_mode} protocol)")
    return 0


# ----------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, with_kind: bool = False) -> None:
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed-override", type=int, default=None, help="run only this seed")
    p.add_argument("--out", default=None, help="override the config's output directory")
    if with_kind:
        p.add_argument("--kind", choices=EMBEDDER_KINDS, default=None, help="restrict to one embedder kind")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nextloc",
        description="location-embedding experiments: preprocess, pretrain, train, evaluate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic check-in city")
    p.add_argument("--out", required=True, help="directory for the generated files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--users", type=int, default=50)
    p.add_argument("--locations", type=int, default=120)
    p.add_argument("--categories", type=int, default=6)
    p.add_argument("--days", type=int, default=180)
    p.add_argument("--write-config", default=None, help="also write a ready-to-run config here")
    p.add_argument("--split-mode", choices=("conventional", "inductive"), default="inductive")

    _add_common(sub.add_parser("preprocess", help="build sequences and split manifests"))
    _add_common(sub.add_parser("pretrain", help="pretrain location embeddings"), with_kind=True)
    _add_common(sub.add_parser("train", help="train next-location predictors"), with_kind=True)
    _add_common(sub.add_parser("evaluate", help="score trained predictors and write reports"), with_kind=True)
    pv = sub.add_parser("visualize", help="project location embeddings to 2-D")
    _add_common(pv)
    pv.add_argument("--kind", choices=tuple(PRETRAIN), default="calliper-encoder")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        cfg = load_config(args.config)
        if args.out:
            cfg = replace(cfg, out_dir=args.out)
        if args.seed_override is not None:
            cfg = replace(cfg, seeds=(args.seed_override,))
        if args.command == "preprocess":
            return cmd_preprocess(cfg)
        if args.command == "visualize":
            return cmd_visualize(cfg, kind=args.kind)
        if args.kind is not None:
            cfg = replace(cfg, embedder_kinds=(args.kind,))
        if args.command == "pretrain":
            return cmd_pretrain(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError, KeyError, OSError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
