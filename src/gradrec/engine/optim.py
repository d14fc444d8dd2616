"""SGD and Adam over named parameter dictionaries.

Steps return a fresh parameter dict of fresh arrays and never write into
the parameter or gradient arrays, which a tape may still reference. Adam
keeps its moment tensors and step counter internally and updates the
moments in place, in the textbook's order of operations, so a step gives
bit for bit what the functional formula gives:

    m = b1*m + (1-b1)*g
    v = b2*v + ((1-b2)*g)*g
    p = p - lr*(m/bc1) / (sqrt(v/bc2) + eps)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gradrec.errors import ShapeError

Array = np.ndarray
Params = dict[str, Array]


def _check_aligned(kind: str, params: Params, grads: Params) -> None:
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise ShapeError(kind, f"a gradient for parameter {name!r}", "missing")
        if g.shape != p.shape:
            raise ShapeError(kind, f"{name!r} gradient of shape {p.shape}", str(g.shape))


@dataclass
class Sgd:
    lr: float
    kind: str = field(default="sgd", init=False)

    def step(self, params: Params, grads: Params) -> Params:
        _check_aligned("sgd_step", params, grads)
        return {name: p - self.lr * grads[name] for name, p in params.items()}


@dataclass
class Adam:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    kind: str = field(default="adam", init=False)
    t: int = field(default=0, init=False)
    m: Params = field(default_factory=dict, init=False)
    v: Params = field(default_factory=dict, init=False)

    def step(self, params: Params, grads: Params) -> Params:
        _check_aligned("adam_step", params, grads)
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        out: Params = {}
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            # out= keeps 0-d results arrays; numpy returns scalars for them
            tmp = np.multiply(1.0 - self.beta1, g, out=np.empty_like(p))
            m *= self.beta1
            m += tmp
            np.multiply(1.0 - self.beta2, g, out=tmp)
            tmp *= g
            v *= self.beta2
            v += tmp
            np.divide(m, bc1, out=tmp)
            tmp *= self.lr
            denom = np.divide(v, bc2, out=np.empty_like(p))
            np.sqrt(denom, out=denom)
            denom += self.eps
            tmp /= denom
            out[name] = np.subtract(p, tmp, out=tmp)
        return out


def make_optimizer(kind: str, lr: float) -> Sgd | Adam:
    if kind == "sgd":
        return Sgd(lr=lr)
    if kind == "adam":
        return Adam(lr=lr)
    raise ValueError(f"unknown optimizer kind: {kind!r}")
