"""Coordinate front end: multiscale sinusoidal features plus a small FC net.

A coordinate (x, y) is expanded into 4*S sinusoidal features at S
geometrically spaced radii between r_min and r_max, then mapped to a
d-dimensional embedding by a fully connected network with one residual
block. The whole path is a deterministic function of the coordinate and the
parameters, so it produces an embedding for any point, seen or unseen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nextloc.numcore import ParameterStore, ShapeError, Tensor, add, he_std, matmul, relu


@dataclass(frozen=True)
class GeoPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"GeoPoint coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class GridSpec:
    """Radial scales for the sinusoidal encoding: S radii from r_min to r_max."""

    r_min: float
    r_max: float
    n_scales: int = 32

    def __post_init__(self):
        # radii are floats however they were written, so an integer radius is saved as 1.0
        object.__setattr__(self, "r_min", float(self.r_min))
        object.__setattr__(self, "r_max", float(self.r_max))
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise ValueError(f"GridSpec requires 0 < r_min < r_max < inf, got {self.r_min}, {self.r_max}")
        if int(self.n_scales) != self.n_scales or self.n_scales < 2:
            raise ValueError(f"GridSpec requires at least 2 scales, got {self.n_scales}")

    @property
    def feature_dim(self) -> int:
        return 4 * self.n_scales


def scale_radii(spec: GridSpec) -> np.ndarray:
    """Geometric progression of S radii with both endpoints exact."""
    s = np.arange(spec.n_scales, dtype=np.float64)
    radii = spec.r_min * (spec.r_max / spec.r_min) ** (s / (spec.n_scales - 1))
    # the float power can drift off the endpoints by an ulp; pin them
    radii[0] = spec.r_min
    radii[-1] = spec.r_max
    return radii


def grid_pe_batch(points: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Encode an (N, 2) coordinate array into (N, 4*S) sinusoidal features.

    Per scale s the block is (cos(x/a_s), sin(x/a_s), cos(y/a_s), sin(y/a_s)),
    blocks concatenated in increasing-scale order.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ShapeError(f"grid_pe: points must be (N, 2), got {points.shape}")
    radii = scale_radii(spec)
    ax = points[:, 0:1] / radii[None, :]
    ay = points[:, 1:2] / radii[None, :]
    blocks = np.stack([np.cos(ax), np.sin(ax), np.cos(ay), np.sin(ay)], axis=-1)
    return blocks.reshape(points.shape[0], spec.feature_dim)


def grid_pe(p: GeoPoint, spec: GridSpec) -> np.ndarray:
    return grid_pe_batch(np.array([[p.x, p.y]]), spec)[0]


class FCNet:
    """linear(hidden) -> relu -> residual linear block -> linear(out).

    The residual block adds a single linear map's output back onto its
    input. Parameters are registered in the given store under a prefix so
    several networks can share one store.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        store: ParameterStore,
        rng: np.random.Generator,
        hidden: int = 256,
        prefix: str = "fcnet",
    ):
        self.in_dim = int(in_dim)
        self.prefix = prefix
        self.store = store
        store.add(f"{prefix}.w1", rng.standard_normal((in_dim, hidden)) * he_std(in_dim))
        store.add(f"{prefix}.b1", np.zeros(hidden))
        store.add(f"{prefix}.w2", rng.standard_normal((hidden, hidden)) * he_std(hidden))
        store.add(f"{prefix}.b2", np.zeros(hidden))
        store.add(f"{prefix}.w3", rng.standard_normal((hidden, out_dim)) * he_std(hidden))
        store.add(f"{prefix}.b3", np.zeros(out_dim))

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"FCNet.forward: input shape {x.shape} does not match input dim {self.in_dim}")
        p = self.store
        h = relu(add(matmul(x, p[f"{self.prefix}.w1"]), p[f"{self.prefix}.b1"]))
        h = add(h, add(matmul(h, p[f"{self.prefix}.w2"]), p[f"{self.prefix}.b2"]))
        return add(matmul(h, p[f"{self.prefix}.w3"]), p[f"{self.prefix}.b3"])
