"""Next-location prediction over visit sequences.

A causal transformer encoder reads the embedded context visits (location
embedding concatenated with learned time-of-day, day-of-week, and user
features, linearly mapped to the model width, plus learned positions). The
final position's hidden state goes through a fully connected head and a
softmax over every class in the LocationIndex. That state is all the head
reads, so the last layer takes keys and values from every position but
computes its query, feed-forward, dropout and norms on each sequence's
final row only. Trained with cross-entropy and early stopping on
validation loss; the best-validation parameters are restored at the end.

Location embeddings arrive as an (|L|, d) matrix with the kind that made it:
a pretrained matrix (skip-gram table, coordinate encoder) enters as a
constant and receives no gradients; the lookup table's initial matrix is
registered as a parameter and learned jointly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from nextloc.mobdata.model import DatasetSplit, LocationIndex, MobilitySequence
from nextloc.numcore import (
    AdamState,
    ParameterStore,
    Tensor,
    adam_step,
    add,
    backward,
    concat,
    cross_entropy,
    dropout,
    gather_rows,
    he_std,
    layer_norm,
    matmul,
    multi_head_attention,
    no_graph,
    relu,
    reshape,
    softmax,
)
from nextloc.numcore.checkpoint import load_checkpoint, save_checkpoint
from nextloc.util import make_rng, read_settings

HOUR_BUCKETS = 24  # time-of-day features are whole hours


@dataclass(frozen=True)
class PredictorConfig:
    layers: int = 6
    heads: int = 8
    ff_dim: int = 256
    dropout: float = 0.1
    d_model: int = 128
    max_context: int = 32
    time_dim: int = 16
    dow_dim: int = 8
    user_dim: int = 16

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model={self.d_model} must be divisible by heads={self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if min(self.layers, self.ff_dim, self.max_context, self.time_dim, self.dow_dim, self.user_dim) < 1:
            raise ValueError("all dimensions must be positive")


@dataclass(frozen=True)
class Features:
    """Encoded sequences, one row each.

    The context columns (location class, hour bucket, weekday) hold a row's
    most recent visits left-aligned and 0 past its length. Indexing by rows
    gives a batch, trimmed to the longest context in it.
    """

    loc_idx: np.ndarray  # (n, t)
    tod: np.ndarray  # (n, t)
    dow: np.ndarray  # (n, t)
    users: np.ndarray  # (n,) user row; unknown users share the last row
    lengths: np.ndarray  # (n,)
    targets: np.ndarray  # (n,) target class

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, rows) -> "Features":
        lengths = self.lengths[rows]
        t = lengths.max(initial=0)
        cut = lambda col: col[rows, :t]
        return Features(cut(self.loc_idx), cut(self.tod), cut(self.dow), self.users[rows], lengths, self.targets[rows])


class NextLocPredictor:
    def __init__(
        self,
        index: LocationIndex,
        users: list[str],
        loc_matrix: np.ndarray,
        kind: str,
        cfg: PredictorConfig,
        seed: int = 0,
    ):
        self.index = index
        self.cfg = cfg
        self.embedder_kind = kind
        self.embedder_frozen = kind != "lookup-table"  # only the lookup table trains its rows
        self.users = sorted(set(users))
        self._user_row = {u: i for i, u in enumerate(self.users)}
        self.store = ParameterStore()
        rng = make_rng(seed, "predictor-init")

        matrix = np.asarray(loc_matrix, dtype=np.float64)
        if matrix.shape[0] != len(index):
            raise ValueError(f"embedding matrix rows {matrix.shape[0]} != |index| {len(index)}")
        self.emb_dim = matrix.shape[1]
        if self.embedder_frozen:
            self.loc_matrix = Tensor(matrix)
        else:
            self.loc_matrix = self.store.add("loc_table", matrix)

        c = cfg
        self.store.add("user_emb", rng.standard_normal((len(self.users) + 1, c.user_dim)) * 0.1)
        self.store.add("tod_emb", rng.standard_normal((HOUR_BUCKETS, c.time_dim)) * 0.1)
        self.store.add("dow_emb", rng.standard_normal((7, c.dow_dim)) * 0.1)
        self.store.add("pos_emb", rng.standard_normal((c.max_context, c.d_model)) * 0.02)
        feat = self.emb_dim + c.time_dim + c.dow_dim + c.user_dim
        self.store.add("in_proj.w", rng.standard_normal((feat, c.d_model)) / np.sqrt(feat))
        self.store.add("in_proj.b", np.zeros(c.d_model))
        for l in range(c.layers):
            p = f"layer{l}"
            self.store.add(f"{p}.ln1.g", np.ones(c.d_model))
            self.store.add(f"{p}.ln1.b", np.zeros(c.d_model))
            for nm in ("wq", "wk", "wv", "wo"):
                self.store.add(f"{p}.attn.{nm}", rng.standard_normal((c.d_model, c.d_model)) / np.sqrt(c.d_model))
                self.store.add(f"{p}.attn.{nm.replace('w', 'b')}", np.zeros(c.d_model))
            self.store.add(f"{p}.ln2.g", np.ones(c.d_model))
            self.store.add(f"{p}.ln2.b", np.zeros(c.d_model))
            self.store.add(f"{p}.ff.w1", rng.standard_normal((c.d_model, c.ff_dim)) * he_std(c.d_model))
            self.store.add(f"{p}.ff.b1", np.zeros(c.ff_dim))
            self.store.add(f"{p}.ff.w2", rng.standard_normal((c.ff_dim, c.d_model)) / np.sqrt(c.ff_dim))
            self.store.add(f"{p}.ff.b2", np.zeros(c.d_model))
        self.store.add("final_ln.g", np.ones(c.d_model))
        self.store.add("final_ln.b", np.zeros(c.d_model))
        self.store.add("head.w", rng.standard_normal((c.d_model, len(index))) / np.sqrt(c.d_model))
        self.store.add("head.b", np.zeros(len(index)))

    # ------------------------------------------------------------------
    # featurization

    def _featurize(self, sequences: list[MobilitySequence]) -> Features:
        """Encode every sequence once, keeping its most recent `max_context` visits left-aligned."""
        contexts = [s.visits[-self.cfg.max_context :] for s in sequences]
        lengths = np.array([len(visits) for visits in contexts], dtype=np.int64)
        valid = np.arange(lengths.max(initial=0))[None, :] < lengths[:, None]
        class_of = self.index.class_of
        loc_idx = np.zeros(valid.shape, dtype=np.int64)
        times = np.zeros(valid.shape, dtype=np.int64)
        loc_idx[valid] = [class_of(loc) for visits in contexts for loc, _ in visits]
        times[valid] = [t for visits in contexts for _, t in visits]
        # padded cells stay 0, as a weekday computed from time 0 would not
        tod = np.where(valid, (times % 86400) * HOUR_BUCKETS // 86400, 0)
        dow = np.where(valid, (times // 86400 + 3) % 7, 0)  # epoch day 0 was a Thursday
        users = np.array([self._user_row.get(s.user, len(self.users)) for s in sequences], dtype=np.int64)
        targets = np.array([class_of(s.target_location) for s in sequences], dtype=np.int64)
        return Features(loc_idx, tod, dow, users, lengths, targets)

    # ------------------------------------------------------------------
    # forward

    def forward_logits(self, batch: Features, training: bool = False, rng=None) -> Tensor:
        if not len(batch):
            raise ValueError("empty batch")
        cfg = self.cfg
        b, t_max = batch.loc_idx.shape
        loc_vecs = gather_rows(self.loc_matrix, batch.loc_idx)
        tod_vecs = gather_rows(self.store["tod_emb"], batch.tod)
        dow_vecs = gather_rows(self.store["dow_emb"], batch.dow)
        user_vecs = gather_rows(self.store["user_emb"], np.broadcast_to(batch.users[:, None], (b, t_max)))
        x = matmul(concat([loc_vecs, tod_vecs, dow_vecs, user_vecs], axis=-1), self.store["in_proj.w"])
        x = add(x, self.store["in_proj.b"])
        x = add(x, gather_rows(self.store["pos_emb"], np.arange(t_max)))

        last = batch.lengths - 1

        def drop(h: Tensor) -> Tensor:
            return dropout(h, cfg.dropout, rng) if training else h

        # attention is causal and contexts are left-aligned, so no real position reads padding;
        # the head reads only each sequence's final position, so the last layer computes only that row
        for l in range(cfg.layers):
            p = f"layer{l}"
            final = l == cfg.layers - 1
            normed = layer_norm(x, self.store[f"{p}.ln1.g"], self.store[f"{p}.ln1.b"])
            attended = multi_head_attention(
                normed,
                cfg.heads,
                self.store[f"{p}.attn.wq"], self.store[f"{p}.attn.bq"],
                self.store[f"{p}.attn.wk"], self.store[f"{p}.attn.bk"],
                self.store[f"{p}.attn.wv"], self.store[f"{p}.attn.bv"],
                self.store[f"{p}.attn.wo"], self.store[f"{p}.attn.bo"],
                query_pos=last if final else None,
            )
            if final:
                x = gather_rows(reshape(x, (b * t_max, cfg.d_model)), np.arange(b) * t_max + last)
            x = add(x, drop(attended))
            normed = layer_norm(x, self.store[f"{p}.ln2.g"], self.store[f"{p}.ln2.b"])
            ff = relu(add(matmul(normed, self.store[f"{p}.ff.w1"]), self.store[f"{p}.ff.b1"]))
            ff = add(matmul(ff, self.store[f"{p}.ff.w2"]), self.store[f"{p}.ff.b2"])
            x = add(x, drop(ff))
        x = layer_norm(x, self.store["final_ln.g"], self.store["final_ln.b"])
        return add(matmul(x, self.store["head.w"]), self.store["head.b"])

    def predict_proba(self, sequences: list[MobilitySequence], batch_size: int = 256) -> np.ndarray:
        feats = self._featurize(sequences)
        out = np.zeros((len(feats), len(self.index)))
        with no_graph():
            for start in range(0, len(feats), batch_size):
                rows = slice(start, start + batch_size)
                out[rows] = softmax(self.forward_logits(feats[rows])).data
        return out

    # ------------------------------------------------------------------
    # training

    def _epoch_loss(self, feats: Features, batch_size: int) -> float:
        total = 0.0
        with no_graph():
            for start in range(0, len(feats), batch_size):
                batch = feats[start : start + batch_size]
                total += cross_entropy(self.forward_logits(batch), batch.targets).item() * len(batch)
        return total / len(feats)

    def train(
        self,
        split: DatasetSplit,
        epochs: int = 100,
        patience: int = 3,
        batch_size: int = 128,
        learning_rate: float = 0.001,
        seed: int = 0,
    ) -> dict:
        if not split.train or not split.validation:
            raise ValueError("training needs non-empty train and validation sets")
        rng = make_rng(seed, "predictor-train")
        optimizer = AdamState(self.store, lr=learning_rate)
        params = self.store.tensors()
        frozen_before = self.loc_matrix.data.tobytes() if self.embedder_frozen else None
        log: list[dict] = []
        best_val = np.inf
        best_state = self.store.state_dict()
        wait = 0
        train_feats, val_feats = self._featurize(split.train), self._featurize(split.validation)
        for epoch in range(1, epochs + 1):
            order = rng.permutation(len(train_feats))
            total = 0.0
            for n, start in enumerate(range(0, len(order), batch_size), start=1):
                batch = train_feats[order[start : start + batch_size]]
                loss = cross_entropy(self.forward_logits(batch, training=True, rng=rng), batch.targets)
                if not np.isfinite(loss.item()):
                    raise ValueError(
                        f"train: {self.embedder_kind} seed {seed}: non-finite loss in epoch {epoch}, batch {n}"
                    )
                backward(loss, params=params)
                adam_step(self.store, optimizer)
                total += loss.item() * len(batch)
            val_loss = self._epoch_loss(val_feats, batch_size)
            log.append({"epoch": epoch, "train_loss": total / len(train_feats), "val_loss": val_loss})
            if val_loss < best_val:
                best_val = val_loss
                best_state = self.store.state_dict()
                wait = 0
            else:
                wait += 1
                if wait >= patience:
                    break
        self.store.load_state_dict(best_state)
        if self.embedder_frozen and self.loc_matrix.data.tobytes() != frozen_before:
            raise RuntimeError(f"frozen {self.embedder_kind} embeddings changed during training")
        return {"log": log, "best_val_loss": float(best_val), "epochs_run": len(log)}

    # ------------------------------------------------------------------
    # persistence

    def save(self, path, manifest_digest: str | None = None) -> None:
        params = self.store.state_dict()
        if self.embedder_frozen:
            params["frozen.loc_matrix"] = self.loc_matrix.data
        meta = {
            "kind": "predictor",
            "config": asdict(self.cfg),
            "embedder_kind": self.embedder_kind,
            "users": self.users,
            "index_hash": self.index.content_hash(),
        }
        if manifest_digest is not None:
            meta["manifest_digest"] = manifest_digest
        save_checkpoint(path, params, meta=meta)

    @classmethod
    def load(cls, path, index: LocationIndex, manifest_digest: str | None = None) -> "NextLocPredictor":
        params, meta = load_checkpoint(
            path, "predictor", index.content_hash(), manifest_digest, reads=("config", "embedder_kind", "users")
        )
        if meta["embedder_kind"] == "lookup-table":
            matrix = params["loc_table"]
        else:
            matrix = params["frozen.loc_matrix"]
            del params["frozen.loc_matrix"]
        cfg = read_settings(PredictorConfig, meta["config"], f"{path}: header", "config.")
        model = cls(index, meta["users"], matrix, meta["embedder_kind"], cfg)
        model.store.load_state_dict(params)
        return model
