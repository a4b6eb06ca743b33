"""Location-embedding matrices for the downstream predictor, one per kind.

Each adapter's `embedding_matrix(index)` gives the (|L|, d) matrix the
predictor starts from:

  - lookup-table: the initialization of a table the predictor learns
    jointly; rows of locations that never occur in training data keep it.
  - skipgram-table: a frozen table pretrained with skip-gram negative
    sampling over per-user visit streams.
  - calliper-encoder: frozen embeddings computed from coordinates by a
    pretrained contrastive model (works for any location, seen or not).
"""

from __future__ import annotations

import numpy as np

from nextloc.calliper import CaLLiPerModel
from nextloc.mobdata.model import LocationIndex, MobilitySequence
from nextloc.util import make_rng


class VanillaE2EEmbedder:
    """Plain lookup table, trained end-to-end inside the predictor."""

    def __init__(self, dim: int = 128, seed: int = 0):
        self.dim = int(dim)
        self.seed = int(seed)

    def embedding_matrix(self, index: LocationIndex) -> np.ndarray:
        rng = make_rng(self.seed, "vanilla-e2e-init")
        bound = 0.5 / self.dim
        return rng.uniform(-bound, bound, size=(len(index), self.dim))


class SkipgramEmbedder:
    """Frozen rows from a skip-gram run; untouched rows stay at init."""

    def __init__(self, table: np.ndarray):
        self.table = table  # (|L|, d)

    def embedding_matrix(self, index: LocationIndex) -> np.ndarray:
        if self.table.shape[0] != len(index):
            raise ValueError(f"table has {self.table.shape[0]} rows but the index has {len(index)} locations")
        return self.table


class CalliperEmbedder:
    """Frozen coordinate-derived embeddings from a pretrained model."""

    def __init__(self, model: CaLLiPerModel):
        self.model = model

    def embedding_matrix(self, index: LocationIndex) -> np.ndarray:
        coords = np.array([[loc.centroid.x, loc.centroid.y] for loc in index]).reshape(-1, 2)
        return self.model.encode_location(coords)


def visit_streams(sequences: list[MobilitySequence]) -> dict[str, list[tuple[str, int]]]:
    """Reconstruct each user's visit stream from (overlapping) sequences.

    Context windows repeat the same visits many times, so visits are
    deduplicated on (user, time, location) before sorting by time.
    """
    seen: dict[str, set[tuple[int, str]]] = {}
    for seq in sequences:
        bag = seen.setdefault(seq.user, set())
        for loc, t in seq.visits:
            bag.add((t, loc))
        bag.add((seq.target_t, seq.target_location))
    return {user: [(loc, t) for t, loc in sorted(bag)] for user, bag in sorted(seen.items())}


def extract_pairs(stream: list[int], window: int) -> list[tuple[int, int]]:
    """(center, context) pairs within the window, in scan order."""
    pairs = []
    for i, center in enumerate(stream):
        for j in range(max(0, i - window), min(len(stream), i + window + 1)):
            if j != i:
                pairs.append((center, stream[j]))
    return pairs


def skipgram_pretrain(
    sequences: list[MobilitySequence],
    index: LocationIndex,
    dim: int = 128,
    window: int = 2,
    negatives: int = 5,
    epochs: int = 5,
    learning_rate: float = 0.025,
    batch_size: int = 512,
    seed: int = 0,
    plateau_tol: float = 1e-3,
) -> tuple[np.ndarray, dict]:
    """Skip-gram with negative sampling over location-id streams.

    Negative draws follow unigram^0.75 over the corpus; draws equal to the
    positive context word are skipped rather than redrawn. Input vectors
    start uniform(-0.5/dim, 0.5/dim), output vectors at zero; the input
    vectors, an (|L|, dim) matrix, are the returned table. Stops early once
    the epoch loss improves by less than plateau_tol relative.
    """
    streams = visit_streams(sequences)
    corpus = [[index.class_of(loc) for loc, _ in visits] for _, visits in streams.items()]
    vocab_counts = np.bincount([c for stream in corpus for c in stream], minlength=len(index))
    if (vocab_counts > 0).sum() < 2:
        raise ValueError("skip-gram needs a vocabulary of at least 2 locations")

    pairs = np.array(
        [pair for stream in corpus for pair in extract_pairs(stream, window)], dtype=np.int64
    )
    noise = vocab_counts**0.75
    noise /= noise.sum()

    rng = make_rng(seed, "skipgram")
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(index), dim))
    w_out = np.zeros((len(index), dim))

    def sigmoid(z):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    epoch_losses: list[float] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(pairs))
        total, count = 0.0, 0
        for n, start in enumerate(range(0, len(pairs), batch_size), start=1):
            chunk = pairs[order[start : start + batch_size]]
            centers, contexts = chunk[:, 0], chunk[:, 1]
            b = len(chunk)
            negs = rng.choice(len(index), size=(b, negatives), p=noise)
            keep = negs != contexts[:, None]  # skip accidental positives

            u = w_in[centers]
            v_pos = w_out[contexts]
            s_pos = sigmoid((u * v_pos).sum(axis=1))
            v_neg = w_out[negs]
            s_neg = sigmoid(np.einsum("bd,bkd->bk", u, v_neg)) * keep

            g_pos = s_pos - 1.0
            grad_u = g_pos[:, None] * v_pos + np.einsum("bk,bkd->bd", s_neg, v_neg)
            np.add.at(w_in, centers, -learning_rate * grad_u)
            np.add.at(w_out, contexts, -learning_rate * (g_pos[:, None] * u))
            grad_vneg = s_neg[:, :, None] * u[:, None, :]
            np.add.at(w_out, negs.reshape(-1), -learning_rate * grad_vneg.reshape(-1, dim))

            eps = 1e-12
            loss = float(-(np.log(s_pos + eps).sum() + (np.log(1.0 - s_neg + eps) * keep).sum()))
            if not np.isfinite(loss):
                raise ValueError(f"pretrain: skip-gram seed {seed}: non-finite loss in epoch {epoch}, batch {n}")
            total += loss
            count += b
        epoch_losses.append(total / count)
        if len(epoch_losses) >= 2:
            prev, cur = epoch_losses[-2], epoch_losses[-1]
            if prev - cur < plateau_tol * abs(prev):
                break
    history = {"epoch_losses": epoch_losses, "n_pairs": int(len(pairs)), "output_vectors": w_out}
    return w_in, history
