"""Dense float64 reverse-mode autodiff: tape, ops, optimizers, grad check."""

from gradrec.engine.tape import (
    Node,
    OP_KINDS,
    backward,
    concat,
    const,
    conv_h,
    embedding_lookup,
    forward,
    matmul,
    max_over_time,
    param,
    softmax_rows,
    sq_l2_dist,
)
from gradrec.engine.optim import Adam, Sgd, make_optimizer
from gradrec.engine.check import GradCheckResult, grad_check

__all__ = [
    "Adam",
    "GradCheckResult",
    "Node",
    "OP_KINDS",
    "Sgd",
    "backward",
    "concat",
    "const",
    "conv_h",
    "embedding_lookup",
    "forward",
    "grad_check",
    "make_optimizer",
    "matmul",
    "max_over_time",
    "param",
    "softmax_rows",
    "sq_l2_dist",
]
