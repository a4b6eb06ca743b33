"""Adam with bias correction.

State lives outside the parameters so the same store can be driven by a
fresh optimizer (e.g. when fine-tuning resumes). Updates run in sorted
parameter-name order for reproducibility, and in place: moments and
parameter arrays keep their memory between steps.
"""

from __future__ import annotations

import numpy as np

from nextloc.numcore.params import ParameterStore


class AdamState:
    def __init__(
        self,
        store: ParameterStore,
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}
        # two scratch arrays as large as the largest parameter hold the update terms
        size = max((t.data.size for _, t in store.items()), default=0)
        self.scratch = (np.empty(size), np.empty(size))


def adam_step(store: ParameterStore, state: AdamState) -> None:
    """Apply one Adam update to every parameter, then drop its gradient.

    Every parameter must carry a gradient (backward() with params= fills in
    zeros for unreachable ones), so a second step needs a second backward().
    """
    for name, t in store.items():
        if t.grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
        if t.grad.shape != t.data.shape:
            raise ValueError(
                f"adam_step: gradient shape {t.grad.shape} != parameter shape {t.data.shape} for {name!r}"
            )
    state.step_count += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.step_count
    bias2 = 1.0 - b2 ** state.step_count
    # in place, one numpy op per operation of
    #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
    #   data = data - lr * (m / bias1) / (sqrt(v / bias2) + eps)
    # in that order, so every value equals that expression's bit for bit
    for name, t in store.items():
        g = t.grad
        m = state.m[name]
        v = state.v[name]
        step = state.scratch[0][: g.size].reshape(g.shape)
        denom = state.scratch[1][: g.size].reshape(g.shape)
        m *= b1
        np.multiply(g, 1.0 - b1, out=step)
        m += step
        v *= b2
        np.multiply(g, g, out=step)
        step *= 1.0 - b2
        v += step
        np.divide(m, bias1, out=step)
        step *= state.lr
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        t.data -= step
        t.grad = None
