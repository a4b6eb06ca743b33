"""Contrastive coordinate-text pretraining.

Pairs of (coordinate, description) from a POI corpus are pushed through two
towers: the coordinate tower is the sinusoidal front end plus FC net from
geoenc, the text tower is a frozen text vectorizer followed by a trainable
linear projection. A bidirectional InfoNCE loss aligns matching pairs within
each mini-batch. After pretraining, encode_location maps any coordinate to a
d-dimensional embedding, which is what makes the downstream predictor usable
on locations absent from its training data.

The text vectorizer is deliberately simple and deterministic: it hashes
character trigrams into a fixed 512-dimensional bag.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from nextloc.geoenc import FCNet, GeoPoint, GridSpec, grid_pe_batch
from nextloc.numcore import (
    AdamState,
    ParameterStore,
    ShapeError,
    Tensor,
    adam_step,
    add,
    backward,
    cross_entropy,
    l2_normalize,
    matmul,
    no_graph,
    scale,
    transpose,
)
from nextloc.numcore.checkpoint import load_checkpoint, save_checkpoint
from nextloc.util import make_rng, read_settings


@dataclass(frozen=True)
class PoiRecord:
    id: str
    point: GeoPoint
    description: str

    def __post_init__(self):
        if not self.description or not self.description.strip():
            raise ValueError(f"POI {self.id!r}: empty description")


# ---------------------------------------------------------------------------
# text vectorizer (frozen: it carries no trainable parameters)


class HashedNgramEmbedder:
    """Character-trigram feature hashing into a fixed-width, L2-normalized bag.

    Each trigram of the lowercased, whitespace-collapsed, space-padded text
    is hashed (blake2b, so results are stable across processes) to a slot and
    a sign. Identical text always yields an identical vector.
    """

    def __init__(self, dim: int = 512):
        if dim < 2:
            raise ValueError(f"text dimension must be >= 2, got {dim}")
        self.dim = int(dim)

    def embed(self, text: str) -> np.ndarray:
        normalized = " ".join(text.lower().split())
        if not normalized:
            raise ValueError("cannot embed empty text")
        padded = f" {normalized} "
        out = np.zeros(self.dim)
        for i in range(len(padded) - 2):
            digest = hashlib.blake2b(padded[i : i + 3].encode("utf-8"), digest_size=9).digest()
            slot = int.from_bytes(digest[:8], "little") % self.dim
            sign = 1.0 if digest[8] % 2 == 0 else -1.0
            out[slot] += sign
        norm = np.linalg.norm(out)
        return out / norm if norm > 0 else out

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        return np.stack([self.embed(t) for t in texts])


# ---------------------------------------------------------------------------
# corpus files


def read_poi_file(path) -> list[PoiRecord]:
    """CSV with header id,x,y,description."""
    pois = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"id", "x", "y", "description"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: POI file must have columns id,x,y,description, got {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            try:
                point = GeoPoint(float(row["x"]), float(row["y"]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad coordinates ({exc})") from None
            try:
                pois.append(PoiRecord(id=row["id"], point=point, description=row["description"]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not pois:
        raise ValueError(f"{path}: no POI records")
    return pois


# ---------------------------------------------------------------------------
# objective


def infonce_loss(z_loc: Tensor, z_text: Tensor, tau: float = 0.07) -> Tensor:
    """Bidirectional InfoNCE over a batch of matched (location, text) rows.

    Rows are L2-normalized, similarities scaled by 1/tau, and the mean of the
    two directional cross-entropies (location->text and text->location) is
    returned. A single pair gives exactly zero; equal rows give ln N.
    """
    if z_loc.ndim != 2 or z_text.ndim != 2 or z_loc.shape != z_text.shape:
        raise ShapeError(f"infonce_loss: need matching (N, d) inputs, got {z_loc.shape} and {z_text.shape}")
    n = z_loc.shape[0]
    if n < 1:
        raise ShapeError("infonce_loss: empty batch")
    if tau <= 0:
        raise ValueError(f"infonce_loss: temperature must be positive, got {tau}")
    zl = l2_normalize(z_loc)
    zt = l2_normalize(z_text)
    sims = scale(matmul(zl, transpose(zt)), 1.0 / tau)
    targets = np.arange(n)
    forward_ce = cross_entropy(sims, targets)
    backward_ce = cross_entropy(transpose(sims), targets)
    return scale(add(forward_ce, backward_ce), 0.5)


@dataclass
class PretrainConfig:
    batch_size: int = 128
    epochs: int = 30
    embed_dim: int = 128
    hidden_dim: int = 256

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError(f"contrastive batches need batch_size >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


# ---------------------------------------------------------------------------
# the two-tower model


class CaLLiPerModel:
    """Coordinate tower plus projected frozen-text tower with one store."""

    def __init__(self, grid: GridSpec, text_embedder, embed_dim: int = 128, hidden_dim: int = 256, seed: int = 0):
        self.grid = grid
        self.text_embedder = text_embedder
        self.embed_dim = int(embed_dim)
        self.store = ParameterStore()
        rng = make_rng(seed, "calliper-init")
        self.net = FCNet(grid.feature_dim, embed_dim, self.store, rng, hidden=hidden_dim, prefix="loc")
        d_t = text_embedder.dim
        self.store.add("proj.w", rng.standard_normal((d_t, embed_dim)) * (1.0 / np.sqrt(d_t)))
        self.store.add("proj.b", np.zeros(embed_dim))

    # -- inference -----------------------------------------------------

    def encode_location(self, p) -> np.ndarray:
        """Embed one GeoPoint (d,) or an (N, 2) coordinate array (N, d)."""
        with no_graph():
            if isinstance(p, GeoPoint):
                return self._loc_tensor(np.array([[p.x, p.y]])).data[0]
            return self._loc_tensor(np.asarray(p, dtype=np.float64)).data

    def embed_text(self, description: str) -> np.ndarray:
        with no_graph():
            return self._project(self.text_embedder.embed_batch([description])).data[0]

    def _loc_tensor(self, coords: np.ndarray) -> Tensor:
        return self.net.forward(grid_pe_batch(coords, self.grid))

    def _project(self, text_vectors: np.ndarray) -> Tensor:
        # Tensor() without requires_grad keeps the text tower frozen: the
        # graph stops here and only the projection receives gradients.
        return add(matmul(Tensor(text_vectors), self.store["proj.w"]), self.store["proj.b"])

    # -- training ------------------------------------------------------

    def pretrain(self, pois: list[PoiRecord], cfg: PretrainConfig, seed: int = 0) -> dict:
        if not pois:
            raise ValueError("pretrain: empty POI corpus")
        if len(pois) < 2:
            raise ValueError("pretrain: need at least 2 POIs for contrastive batches")
        # both towers' frozen inputs are computed once per corpus; batches index their rows
        grid_features = grid_pe_batch(np.array([[p.point.x, p.point.y] for p in pois]), self.grid)
        text_vectors = self.text_embedder.embed_batch([p.description for p in pois])
        optimizer = AdamState(self.store)
        rng = make_rng(seed, "calliper-pretrain")
        params = self.store.tensors()
        epoch_losses = []
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(pois))
            total, count = 0.0, 0
            for n, start in enumerate(range(0, len(pois), cfg.batch_size), start=1):
                batch = order[start : start + cfg.batch_size]
                if len(batch) < 2:
                    continue  # a leftover singleton carries no contrastive signal
                z_loc = self.net.forward(grid_features[batch])
                loss = infonce_loss(z_loc, self._project(text_vectors[batch]))
                if not np.isfinite(loss.item()):
                    raise ValueError(f"pretrain: calliper seed {seed}: non-finite loss in epoch {epoch}, batch {n}")
                backward(loss, params=params)
                adam_step(self.store, optimizer)
                total += loss.item() * len(batch)
                count += len(batch)
            epoch_losses.append(total / count)
        return {"epoch_losses": epoch_losses}

    # -- persistence ---------------------------------------------------

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "kind": "calliper",
            "grid": asdict(self.grid),
            "embed_dim": self.embed_dim,
            "hidden_dim": self.net.hidden,
            "text_dim": self.text_embedder.dim,
        }
        if extra_meta:
            meta.update(extra_meta)
        save_checkpoint(path, self.store.state_dict(), meta=meta)

    @classmethod
    def load(cls, path, manifest_digest: str | None = None) -> "CaLLiPerModel":
        params, meta = load_checkpoint(path, kind="calliper", manifest_digest=manifest_digest)
        model = cls(
            read_settings(GridSpec, meta["grid"], f"{path}: header", "grid."),
            HashedNgramEmbedder(meta["text_dim"]),
            embed_dim=meta["embed_dim"],
            hidden_dim=meta["hidden_dim"],
        )
        model.store.load_state_dict(params)
        return model
