"""Tour of the autodiff engine: build a graph, run backward, check the
gradients against finite differences, and minimize a toy loss with both
optimizers. ``backward`` returns a gradient for every leaf the loss
reaches, keyed by the leaf node."""

import numpy as np

from gradrec import engine as E

# ---- a small graph -------------------------------------------------------

print("== forward/backward on f(w) = sum(sigmoid(X @ w)) ==")
rng = np.random.default_rng(0)
x_data = rng.normal(size=(5, 3))

w = E.param(rng.normal(size=3), name="w")
loss = E.matmul(E.const(x_data), w).sigmoid().sum()
grads = E.backward(loss)
print("loss:", float(loss.value))
print("dloss/dw:", grads[w])

# the same derivative via central finite differences
h = 1e-6
numeric = np.zeros(3)
for k in range(3):
    delta = np.zeros(3)
    delta[k] = h
    f = lambda v: float(E.matmul(E.const(x_data), E.const(v)).sigmoid().sum().value)
    numeric[k] = (f(w.value + delta) - f(w.value - delta)) / (2 * h)
print("finite differences:", numeric)
print("max abs diff:", np.abs(grads[w] - numeric).max())

# ---- a bias row broadcast over a batch -------------------------------------

print("\n== a bias row added to a batch: sum(X @ W + b) ==")
W = E.param(rng.normal(size=(3, 2)), name="W")
b = E.param(np.zeros(2), name="b")
out = E.matmul(E.const(x_data), W) + b  # (5, 2) + (2,): b is a trailing suffix
grads = E.backward(out.sum())  # both W and b are reached
print("output shape:", out.shape)
print("dloss/db (each entry summed over the 5 rows):", grads[b])

# ---- the op inventory -----------------------------------------------------

print("\n== supported op kinds ==")
print(", ".join(E.OP_KINDS))

# ---- grad_check, the harness every model loss goes through ----------------

print("\n== grad_check on a two-parameter loss ==")
result = E.grad_check(
    lambda p: (p["a"] * p["b"].sigmoid()).sum() + (p["a"] * p["a"]).mean(),
    {"a": rng.normal(size=(2, 2)), "b": rng.normal(size=(2, 2))},
)
print("per-parameter max relative error:", result.per_param)

# ---- optimizers -----------------------------------------------------------

print("\n== minimizing (p - 3)^2 ==")
for opt in (E.Sgd(lr=0.1), E.Adam(lr=0.2)):
    params = {"p": np.asarray(0.0)}
    for step in range(200):
        leaf = E.param(params["p"], "p")
        loss = (leaf - 3.0) * (leaf - 3.0)
        grads = E.backward(loss)
        params = opt.step(params, {"p": grads[leaf]})
    print(f"{opt.kind}: p = {float(params['p']):.5f} (target 3.0)")
