import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradrec import engine as E
from gradrec.engine import tape
from gradrec.errors import GradCheckError, ShapeError, UnknownOpError


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of a scalar-valued f at array x.

    Kept independent of gradrec.engine.check so the engine's own backward
    pass and grad_check are validated against separate code.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        out[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return out


def reference_embedding_vjp(node, g):
    """The plain scatter-add form of the embedding gradient: np.add.at into zeros."""
    grad = np.zeros_like(node.inputs[0].value)
    np.add.at(grad, node.attrs["indices"], g)
    return [grad]


def reference_adam_step(opt, params, grads):
    """Textbook functional Adam over ``opt``'s hyperparameters and state."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = opt.beta1 * opt.m.get(name, np.zeros_like(p)) + (1.0 - opt.beta1) * g
        v = opt.beta2 * opt.v.get(name, np.zeros_like(p)) + (1.0 - opt.beta2) * g * g
        opt.m[name], opt.v[name] = m, v
        out[name] = p - opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
    return out


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def max_rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


class TestForwardExamples:
    def test_matmul(self):
        out = E.matmul(E.const([[1.0, 2.0], [3.0, 4.0]]), E.const([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.value, [[3.0], [7.0]])

    def test_embedding_lookup(self):
        table = E.const([[1.0, 2.0], [3.0, 4.0]])
        out = E.embedding_lookup(table, [1, 0])
        np.testing.assert_array_equal(out.value, [[3.0, 4.0], [1.0, 2.0]])

    def test_softmax_rows_symmetry(self):
        out = E.softmax_rows(E.const([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[1 / 3] * 3], rtol=0, atol=1e-15)

    def test_unknown_op(self):
        with pytest.raises(UnknownOpError):
            E.forward("conv3d", [E.const(1.0)])

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError) as err:
            E.const([1.0, 2.0]) + E.const([1.0, 2.0, 3.0])
        assert err.value.op == "add"
        assert "(2,)" in str(err.value) and "(3,)" in str(err.value)

    def test_suffix_broadcast_only(self):
        out = E.const([1.0, 2.0]) * 2.0
        np.testing.assert_array_equal(out.value, [2.0, 4.0])
        out = E.forward("mul", [E.const([[1.0, 2.0], [3.0, 4.0]]), E.const([10.0, -1.0])])
        np.testing.assert_array_equal(out.value, [[10.0, -2.0], [30.0, -4.0]])

    @pytest.mark.parametrize("a,b", [((2, 3), (2,)), ((3, 1), (3,)), ((2, 2), (3,))])
    def test_non_suffix_shapes_raise_naming_op_and_shapes(self, a, b):
        # a leading match is no suffix, and a size-1 axis is never stretched
        with pytest.raises(ShapeError) as err:
            E.forward("mul", [E.const(np.ones(a)), E.const(np.ones(b))])
        assert err.value.op == "mul"
        assert str(a) in str(err.value) and str(b) in str(err.value)


class TestBackwardExamples:
    def test_square(self):
        x = E.param(3.0)
        grads = E.backward(x * x)
        assert grads[x] == 6.0

    def test_sigmoid_at_zero(self):
        x = E.param(0.0)
        grads = E.backward(x.sigmoid())
        assert grads[x] == 0.25

    def test_matmul_sum_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=(3, 2))
        v = rng.normal(size=(2,))

        w = E.param(w0)
        loss = E.matmul(w, E.const(v)).sum()
        grads = E.backward(loss)

        numeric = numeric_grad(lambda a: float((a @ v).sum()), w0)
        assert max_rel_err(grads[w], numeric) < 1e-6

    def test_non_scalar_loss_rejected(self):
        x = E.param(np.ones(3))
        with pytest.raises(ShapeError):
            E.backward(x * x)

    def test_unreachable_parameter_is_absent(self):
        x = E.param(np.ones(3))
        y = E.param(2.0)
        grads = E.backward((y * y).sum())
        assert x not in grads
        assert grads[y] == 4.0

    def test_fanout_accumulates(self):
        x = E.param(2.0)
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        assert E.backward(y)[x] == 7.0


def _random_inputs(rng, spec):
    return [rng.normal(size=s) for s in spec]


OP_CASES = [
    # (name, builder(nodes) -> node, input shapes, rng offset)
    ("add", lambda a, b: a + b, [(4, 3), (4, 3)]),
    ("add_scalar", lambda a, b: a + b, [(4, 3), ()]),
    ("add_row", lambda a, b: a + b, [(3, 4), (4,)]),
    ("sub", lambda a, b: a - b, [(5,), (5,)]),
    ("sub_row_left", lambda a, b: a - b, [(4,), (3, 4)]),
    ("mul", lambda a, b: a * b, [(2, 3), (2, 3)]),
    ("mul_scalar", lambda a, b: a * b, [(), (2, 3)]),
    ("mul_suffix3", lambda a, b: a * b, [(2, 3, 4), (3, 4)]),
    ("matmul22", E.matmul, [(3, 4), (4, 2)]),
    ("matmul21", E.matmul, [(3, 4), (4,)]),
    ("matmul12", E.matmul, [(3,), (3, 2)]),
    ("sum_all", lambda a: a.sum(), [(3, 4)]),
    ("sum_axis0", lambda a: a.sum(axis=0), [(3, 4)]),
    ("sum_axis1", lambda a: a.sum(axis=1), [(3, 4)]),
    ("mean_all", lambda a: a.mean(), [(2, 5)]),
    ("mean_axis", lambda a: a.mean(axis=1), [(2, 5)]),
    ("sigmoid", lambda a: a.sigmoid(), [(4, 2)]),
    ("relu", lambda a: a.relu(), [(6, 2)]),
    ("softplus", lambda a: a.softplus(), [(5,)]),
    ("softmax_rows", E.softmax_rows, [(3, 5)]),
    ("transpose", lambda a: a.T, [(3, 4)]),
    ("reshape", lambda a: a.reshape((6, 2)), [(3, 4)]),
    ("concat0", lambda a, b: E.concat([a, b], axis=0), [(2, 3), (4, 3)]),
    ("concat1", lambda a, b: E.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    ("sq_l2_vec", E.sq_l2_dist, [(5,), (5,)]),
    ("sq_l2_rows", E.sq_l2_dist, [(4, 3), (4, 3)]),
    ("conv_h", lambda x, f, b: E.conv_h(x, f) + b, [(6, 3), (2, 3, 3), (2,)]),
    ("matmul33", E.matmul, [(3, 2, 4), (3, 4, 5)]),
    ("matmul32", E.matmul, [(3, 2, 4), (4, 5)]),
    ("matmul23", E.matmul, [(2, 4), (3, 4, 5)]),
    ("transpose3", lambda a: a.T, [(3, 2, 4)]),
    ("softmax_rows3", E.softmax_rows, [(2, 3, 4)]),
    ("conv_h_batched", lambda x, f, b: E.conv_h(x, f) + b, [(3, 5, 2), (2, 3, 2), (2,)]),
    ("conv_h_batched_nobias", E.conv_h, [(3, 5, 2), (4, 2, 2)]),
    ("max_over_time", E.max_over_time, [(5, 3)]),
    ("max_over_time3", E.max_over_time, [(2, 4, 3)]),
    ("embedding", lambda t: E.embedding_lookup(t, [2, 0, 2]), [(4, 3)]),
    ("embedding_1d", lambda t: E.embedding_lookup(t, [1, 1, 0]), [(4,)]),
]


@pytest.mark.parametrize("name,builder,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, builder, shapes):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    values = _random_inputs(rng, shapes)

    def scalarize(node):
        # Project to a scalar with fixed random weights so every output
        # element influences the loss.
        w = np.random.default_rng(7).normal(size=node.value.shape)
        return (node * E.const(w)).sum()

    params = [E.param(v) for v in values]
    loss = scalarize(builder(*params))
    grads = E.backward(loss)

    for pos, leaf in enumerate(params):
        def f(x, pos=pos):
            vals = [v.copy() for v in values]
            vals[pos] = x
            return float(scalarize(builder(*[E.param(v) for v in vals])).value)

        assert max_rel_err(grads[leaf], numeric_grad(f, values[pos])) < 1e-4, name


def test_every_op_kind_has_a_gradient_check():
    # a new op cannot land without an OP_CASES finite-difference entry
    reached = set()
    for _, builder, shapes in OP_CASES:
        stack = [builder(*[E.param(v) for v in _random_inputs(np.random.default_rng(0), shapes)])]
        while stack:
            node = stack.pop()
            if node.op is not None:
                reached.add(node.op)
                stack.extend(node.inputs)
    assert set(E.OP_KINDS) - reached == set()


def test_relu_gradient_away_from_kink():
    # keep inputs away from 0 so finite differences are valid
    x0 = np.array([-1.5, -0.3, 0.4, 2.0])
    x = E.param(x0)
    loss = x.relu().sum()
    grads = E.backward(loss)
    np.testing.assert_array_equal(grads[x], (x0 > 0).astype(float))


def test_max_over_time_gradient():
    x0 = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 4.0]])
    x = E.param(x0)
    out = E.max_over_time(x)
    np.testing.assert_array_equal(out.value, [3.0, 5.0])
    grads = E.backward((out * E.const([1.0, 10.0])).sum())
    np.testing.assert_array_equal(grads[x], [[0.0, 10.0], [1.0, 0.0], [0.0, 0.0]])


def test_max_over_time_batched_gradient():
    # distinct values per column keep finite differences off the ties
    x0 = np.random.default_rng(3).permutation(24).reshape(2, 4, 3) * 0.5
    x = E.param(x0)
    w = np.random.default_rng(4).normal(size=(2, 3))
    grads = E.backward((E.max_over_time(x) * E.const(w)).sum())
    numeric = numeric_grad(lambda a: float((a.max(axis=1) * w).sum()), x0)
    assert max_rel_err(grads[x], numeric) < 1e-6


BATCHED_CASES = [
    # (name, builder, batched input shapes, which inputs carry the batch axis)
    ("matmul33", E.matmul, [(4, 2, 3), (4, 3, 5)], (True, True)),
    ("matmul32", E.matmul, [(4, 2, 3), (3, 5)], (True, False)),
    ("matmul23", E.matmul, [(2, 3), (4, 3, 5)], (False, True)),
    ("transpose3", lambda a: a.T, [(4, 2, 3)], (True,)),
    ("softmax_rows3", E.softmax_rows, [(4, 3, 5)], (True,)),
    ("conv_h", lambda x, f, b: E.conv_h(x, f) + b, [(4, 5, 3), (2, 3, 3), (2,)],
     (True, False, False)),
    ("conv_h_nobias", E.conv_h, [(4, 5, 3), (2, 5, 3)], (True, False)),
    ("max_over_time", E.max_over_time, [(4, 5, 3)], (True,)),
]


@pytest.mark.parametrize("name,builder,shapes,batched", BATCHED_CASES,
                         ids=[c[0] for c in BATCHED_CASES])
def test_batched_op_equals_stacked_rank2(name, builder, shapes, batched):
    values = _random_inputs(np.random.default_rng(11), shapes)
    got = builder(*[E.const(v) for v in values]).value
    want = np.stack([builder(*[E.const(v[b] if is_b else v)
                               for v, is_b in zip(values, batched)]).value
                     for b in range(4)])
    assert got.shape == want.shape
    # equal up to rounding: BLAS may pick a different kernel for one row
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_batched_matmul_rejects_mismatched_batch_sizes():
    with pytest.raises(ShapeError) as err:
        E.matmul(E.const(np.ones((2, 3, 4))), E.const(np.ones((3, 4, 5))))
    assert err.value.op == "matmul"
    with pytest.raises(ShapeError):
        E.matmul(E.const(np.ones((2, 3, 4))), E.const(np.ones(4)))


class TestSoftmaxRows:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_distributions(self, rows, cols, seed):
        x = np.random.default_rng(seed).normal(scale=5.0, size=(rows, cols))
        out = E.softmax_rows(E.const(x)).value
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_backward_is_linear_in_the_loss():
    rng = np.random.default_rng(5)
    w0 = rng.normal(size=(4, 3))

    def parts(w):
        f = (w * w).sum()
        g = w.sigmoid().sum()
        return f, g

    a, b = 2.5, -1.25
    w = E.param(w0)
    f, g = parts(w)
    combined = E.backward(f * a + g * b)[w]

    w1 = E.param(w0)
    f1 = E.backward(parts(w1)[0])[w1]
    w2 = E.param(w0)
    g2 = E.backward(parts(w2)[1])[w2]
    np.testing.assert_allclose(combined, a * f1 + b * g2, rtol=0, atol=1e-10)


def _wide_values(rng, shape):
    # magnitudes over 16 decades and signed zeros, so any change in the
    # order or start value of a sum shows in the bits
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    return np.where(rng.random(size=shape) < 0.05, -0.0, values)


def _lookups_weighted(table, index_lists, rng):
    return sum(((E.embedding_lookup(table, idx)
                 * E.const(_wide_values(rng, (len(idx),) + table.shape[1:]))).sum()
                for idx in index_lists), E.const(0.0))


EMBEDDING_SCATTER_CASES = {
    # name: (table shape, index lists, loss over the lookups)
    "duplicates": ((7, 3), [np.repeat([4, 0, 4, 2, 0], 40)], _lookups_weighted),
    "large_batch": ((50, 8), [np.random.default_rng(8).integers(0, 30, size=4096)],
                    _lookups_weighted),
    "rank1_table": ((9,), [np.random.default_rng(5).integers(0, 6, size=60)],
                    _lookups_weighted),
    "empty_indices": ((4, 3), [np.array([], dtype=np.int64)], _lookups_weighted),
    "empty_indices_rank1": ((4,), [np.array([], dtype=np.int64)], _lookups_weighted),
    "broadcast_upstream": ((5, 2), [np.array([3, 1, 3, 3, 0])],
                           lambda table, lists, rng: E.embedding_lookup(table, lists[0]).sum()),
    "two_lookups_one_table": ((6, 4), [np.array([5, 1, 1, 0]), np.array([1, 5, 2, 1, 1])],
                              _lookups_weighted),
}


@pytest.mark.parametrize("case", list(EMBEDDING_SCATTER_CASES))
def test_embedding_gradient_equals_scatter_add_bitwise(case, monkeypatch):
    shape, index_lists, make_loss = EMBEDDING_SCATTER_CASES[case]
    table0 = _wide_values(np.random.default_rng(1), shape)

    def gradient():
        table = E.param(table0)
        loss = make_loss(table, index_lists, np.random.default_rng(2))
        return E.backward(loss)[table]

    got = gradient()
    monkeypatch.setitem(tape._OPS, "embedding_lookup",
                        (tape._OPS["embedding_lookup"][0], reference_embedding_vjp))
    assert_bitwise(got, gradient())


class TestOptimizers:
    def test_sgd_scalar(self):
        opt = E.Sgd(lr=0.1)
        out = opt.step({"p": np.asarray(1.0)}, {"p": np.asarray(2.0)})
        assert out["p"] == pytest.approx(0.8)

    def test_sgd_zero_gradient_is_fixed_point(self):
        opt = E.Sgd(lr=0.5)
        p = np.array([1.0, -2.0])
        out = opt.step({"p": p}, {"p": np.zeros(2)})
        np.testing.assert_array_equal(out["p"], p)

    def test_sgd_vector(self):
        opt = E.Sgd(lr=0.5)
        out = opt.step({"p": np.array([1.0, 1.0])}, {"p": np.array([1.0, -1.0])})
        np.testing.assert_array_equal(out["p"], [0.5, 1.5])

    def test_sgd_shape_mismatch(self):
        with pytest.raises(ShapeError):
            E.Sgd(lr=0.1).step({"p": np.ones(2)}, {"p": np.ones(3)})

    def test_adam_first_step_value(self):
        opt = E.Adam(lr=0.001)
        out = opt.step({"p": np.asarray(0.0)}, {"p": np.asarray(1.0)})
        assert opt.t == 1
        # hand evaluation: m_hat = 1, v_hat = 1 -> delta = -lr / (1 + eps)
        assert float(out["p"]) == pytest.approx(-0.000999999990, abs=1e-12)

    def test_adam_zero_gradient_with_zero_moments(self):
        opt = E.Adam(lr=0.01)
        out = opt.step({"p": np.asarray(3.0)}, {"p": np.asarray(0.0)})
        assert float(out["p"]) == 3.0

    def test_adam_matches_scalar_recurrence(self):
        # independent evaluation of the recurrence for two constant-gradient steps
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        p, m, v, g = 0.0, 0.0, 0.0, 1.0
        expected = []
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p = p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            expected.append(p)

        opt = E.Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
        params = {"p": np.asarray(0.0)}
        for step in range(2):
            params = opt.step(params, {"p": np.asarray(1.0)})
            assert float(params["p"]) == pytest.approx(expected[step], abs=0)

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_adam_equals_functional_formula_bitwise(self, shape):
        rng = np.random.default_rng(6)
        opt, ref = E.Adam(lr=0.01), E.Adam(lr=0.01)
        params = ref_params = {"p": np.asarray(rng.normal(size=shape))}
        for _ in range(3):
            grads = {"p": np.asarray(_wide_values(rng, shape))}
            before = params["p"].copy()
            out = opt.step(params, grads)
            ref_params = reference_adam_step(ref, ref_params, grads)
            assert_bitwise(out["p"], ref_params["p"])
            assert_bitwise(opt.m["p"], ref.m["p"])
            assert_bitwise(opt.v["p"], ref.v["p"])
            assert_bitwise(params["p"], before)  # the input was not written
            for other in (params["p"], grads["p"], opt.m["p"], opt.v["p"]):
                assert not np.shares_memory(out["p"], other)
            params = out


class TestGradCheck:
    def test_constant_loss_has_zero_error(self):
        result = E.grad_check(lambda p: (p["w"] * 0.0).sum() + 1.0, {"w": np.ones((2, 2))})
        assert result.max_rel_err == 0.0

    def test_quadratic_loss(self):
        rng = np.random.default_rng(3)
        result = E.grad_check(
            lambda p: (p["w"] * p["w"]).sum() + (p["b"].sigmoid()).sum(),
            {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(4,))},
        )
        assert result.ok(1e-6)
        assert set(result.per_param) == {"w", "b"}

    def test_non_finite_loss_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(GradCheckError):
            E.grad_check(lambda p: (p["w"] * np.inf).sum(), {"w": np.array([-1.0])})


def test_forward_contract_is_the_single_dispatch():
    # every sugar path goes through forward(); spot-check equality
    a = np.random.default_rng(2).normal(size=(3, 3))
    n1 = E.forward("sigmoid", [E.const(a)])
    n2 = E.const(a).sigmoid()
    assert np.array_equal(n1.value, n2.value)
    assert n1.op == n2.op == "sigmoid"


def test_tape_nodes_record_topological_ids():
    x = E.param(1.0)
    y = x * 2.0
    z = y + 1.0
    assert x._id < y._id < z._id


def test_every_vjp_gives_gradients_of_its_input_shapes():
    checked = set()
    for name, builder, shapes in OP_CASES:
        stack = [builder(*[E.param(v) for v in _random_inputs(np.random.default_rng(0), shapes)])]
        while stack:
            node = stack.pop()
            if node.op is None:
                continue
            contribs = tape._OPS[node.op][1](node, np.ones(node.value.shape))
            assert len(contribs) == len(node.inputs), name
            for inp, contrib in zip(node.inputs, contribs):
                assert contrib is None or np.shape(contrib) == inp.value.shape, (name, node.op)
            checked.add(node.op)
            stack.extend(node.inputs)
    assert checked == set(E.OP_KINDS)
