"""Named trainable parameters.

A ParameterStore maps unique names to requires_grad tensors so optimizers
and checkpoints can treat a model as a flat, ordered collection. Iteration
order is sorted by name, which keeps update order (and therefore float
results) identical across runs.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from nextloc.numcore.tensor import Tensor


def he_std(fan_in: int) -> float:
    """Initialization scale for relu layers."""
    return math.sqrt(2.0 / fan_in)


class ParameterStore:
    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name in self.names():
            yield name, self._params[name]

    def tensors(self) -> list[Tensor]:
        return [self._params[name] for name in self.names()]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = sorted(set(self._params) - set(state))
        extra = sorted(set(state) - set(self._params))
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing {missing}, unexpected {extra}")
        for name, t in self.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != t.data.shape:
                raise ValueError(f"parameter {name!r}: shape {value.shape} != expected {t.data.shape}")
            t.data = value.copy()
            t.grad = None
