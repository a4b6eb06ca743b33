"""Dense float64 tensors, reverse-mode gradients, Adam, checkpoints.

Everything runs on numpy arrays in double precision. The operation set is
exactly what the models in this package need; this is not a general autodiff
framework.
"""

from nextloc.numcore.tensor import (
    GraphError,
    ShapeError,
    Tensor,
    add,
    backward,
    concat,
    cross_entropy,
    dropout,
    dropout_mask,
    gather_rows,
    l2_normalize,
    layer_norm,
    matmul,
    mul,
    multi_head_attention,
    no_graph,
    relu,
    reshape,
    scale,
    softmax,
    tmean,
    transpose,
    tsum,
)
from nextloc.numcore.params import ParameterStore, he_std
from nextloc.numcore.optim import AdamState, adam_step
from nextloc.numcore.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from nextloc.numcore.gradcheck import FiniteDifferenceReport, finite_difference_check

__all__ = [
    "AdamState",
    "CheckpointError",
    "FiniteDifferenceReport",
    "GraphError",
    "ParameterStore",
    "ShapeError",
    "Tensor",
    "adam_step",
    "add",
    "backward",
    "concat",
    "cross_entropy",
    "dropout",
    "dropout_mask",
    "finite_difference_check",
    "gather_rows",
    "he_std",
    "l2_normalize",
    "layer_norm",
    "load_checkpoint",
    "matmul",
    "mul",
    "multi_head_attention",
    "no_graph",
    "relu",
    "reshape",
    "save_checkpoint",
    "scale",
    "softmax",
    "tmean",
    "transpose",
    "tsum",
]
