"""Central finite-difference gradient verification.

Used by the test suite against every model loss; lives in the library so
new models can be checked the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gradrec.errors import GradCheckError
from gradrec.engine.tape import Node, backward, param

Array = np.ndarray

LossBuilder = Callable[[dict[str, Node]], Node]


@dataclass
class GradCheckResult:
    """Per-parameter maximum relative error between backward and finite differences."""

    per_param: dict[str, float]

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    def ok(self, tolerance: float) -> bool:
        return self.max_rel_err < tolerance


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def grad_check(build_loss: LossBuilder, params: dict[str, Array], h: float = 1e-6) -> GradCheckResult:
    """Compare reverse-mode gradients of ``build_loss`` with central differences.

    ``build_loss`` must be a deterministic function of the leaf values: it
    receives freshly created parameter leaves and returns the scalar loss
    node. Relative error is |a - b| / max(1, |a|, |b|) per element.
    """
    arrays = {name: np.asarray(value, dtype=np.float64).copy() for name, value in params.items()}

    def evaluate(current: dict[str, Array]) -> float:
        leaves = {name: param(value, name=name) for name, value in current.items()}
        return float(build_loss(leaves).value)

    leaves = {name: param(value, name=name) for name, value in arrays.items()}
    loss = build_loss(leaves)
    if not np.isfinite(loss.value):
        raise GradCheckError(f"loss is non-finite: {float(loss.value)!r}")
    grads = backward(loss)

    per_param: dict[str, float] = {}
    for name, base in arrays.items():
        analytic = grads.get(leaves[name], np.zeros_like(base))  # zero where unreached
        if not np.all(np.isfinite(analytic)):
            raise GradCheckError(f"gradient of parameter {name!r} is non-finite")
        worst = 0.0
        perturbed = base.copy()
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = perturbed[idx]
            perturbed[idx] = orig + h
            hi = evaluate({**arrays, name: perturbed})
            perturbed[idx] = orig - h
            lo = evaluate({**arrays, name: perturbed})
            perturbed[idx] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise GradCheckError(f"loss non-finite while perturbing parameter {name!r}")
            numeric = (hi - lo) / (2.0 * h)
            worst = max(worst, _rel_err(float(analytic[idx]), numeric))
            it.iternext()
        per_param[name] = worst
    return GradCheckResult(per_param=per_param)
