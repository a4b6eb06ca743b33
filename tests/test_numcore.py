"""Tensor ops, backward pass, Adam, checkpoints, and the gradient checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc.numcore import tensor as tensor_module
from nextloc.numcore import (
    AdamState,
    CheckpointError,
    GraphError,
    ParameterStore,
    ShapeError,
    Tensor,
    adam_step,
    add,
    backward,
    concat,
    cross_entropy,
    dropout,
    finite_difference_check,
    gather_rows,
    l2_normalize,
    layer_norm,
    load_checkpoint,
    matmul,
    mul,
    multi_head_attention,
    no_graph,
    relu,
    reshape,
    save_checkpoint,
    scale,
    softmax,
    tmean,
    transpose,
    tsum,
)


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# forward values


def test_softmax_uniform_on_equal_logits():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_relu_definition():
    out = relu(Tensor([-1.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    out = matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(1)
    out = softmax(Tensor(rng.standard_normal((5, 7)) * 30.0))
    assert np.all(out.data >= 0.0)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-9)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
@settings(max_examples=50, deadline=None)
def test_softmax_distribution_property(values):
    out = softmax(Tensor(values))
    assert np.all(out.data >= 0.0)
    assert abs(out.data.sum() - 1.0) < 1e-9


def test_l2_normalize_unit_rows():
    rng = np.random.default_rng(3)
    out = l2_normalize(Tensor(rng.standard_normal((6, 5))))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), np.ones(6), atol=1e-9)


def test_dropout_inverted_scaling_preserves_mean():
    rng = np.random.default_rng(4)
    x = Tensor(np.ones((200, 200)))
    out = dropout(x, 0.3, rng)
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept[0], 1.0 / 0.7)
    assert abs(out.data.mean() - 1.0) < 0.02


def test_dropout_rejects_bad_rate():
    with pytest.raises(ValueError):
        dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# shape errors name the operation


@pytest.mark.parametrize(
    "fn,args",
    [
        (add, (Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))),
        (matmul, (Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))),
        (concat, ([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))],)),
    ],
)
def test_shape_mismatch_messages(fn, args):
    with pytest.raises(ShapeError) as err:
        fn(*args)
    message = str(err.value)
    assert fn.__name__ in message
    assert "(2, 3)" in message


def test_gather_rows_rejects_out_of_range():
    with pytest.raises(ShapeError):
        gather_rows(Tensor(np.ones((4, 2))), np.array([0, 4]))


def test_cross_entropy_rejects_float_targets():
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.ones((2, 3))), np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# backward pass


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = mul(x, x)
    with pytest.raises(GraphError):
        backward(y)


def test_backward_requires_recorded_graph():
    with pytest.raises(GraphError):
        backward(Tensor(3.0, requires_grad=True))


def test_linear_gradient_is_input_pattern():
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    x = Tensor(np.array([[1.0], [1.0]]))
    loss = tsum(matmul(w, x))
    backward(loss)
    np.testing.assert_array_equal(w.grad, np.ones((2, 2)))


def test_softmax_cross_entropy_gradient_is_p_minus_onehot():
    logits = Tensor(np.zeros((1, 4)), requires_grad=True)
    loss = cross_entropy(logits, np.array([2]))
    backward(loss)
    expected = np.full((1, 4), 0.25)
    expected[0, 2] -= 1.0
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


def test_unreachable_parameter_gets_zero_gradient():
    store = ParameterStore()
    used = store.add("used", np.ones((2, 2)))
    unused = store.add("unused", np.ones(3))
    loss = tsum(mul(used, used))
    backward(loss, params=store.tensors())
    np.testing.assert_array_equal(unused.grad, np.zeros(3))
    np.testing.assert_allclose(used.grad, 2.0 * np.ones((2, 2)))


def test_shared_leaf_accumulates_both_paths():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = tsum(add(mul(x, x), x))  # x^2 + x, d/dx = 2x + 1 = 5
    backward(loss)
    np.testing.assert_allclose(x.grad, [5.0])


def test_backward_overwrites_previous_gradient():
    x = Tensor(np.array([3.0]), requires_grad=True)
    backward(tsum(mul(x, x)))
    first = x.grad.copy()
    backward(tsum(mul(x, x)))
    np.testing.assert_array_equal(x.grad, first)


def test_gather_rows_accumulates_repeated_indices():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    out = gather_rows(table, np.array([1, 1, 2]))
    backward(tsum(out))
    np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])


def test_broadcast_bias_gradient_sums_over_batch():
    b = Tensor(np.zeros(3), requires_grad=True)
    x = Tensor(np.ones((5, 3)))
    backward(tsum(add(x, b)))
    np.testing.assert_array_equal(b.grad, [5.0, 5.0, 5.0])


@given(
    lead=st.lists(st.integers(1, 4), min_size=0, max_size=2),
    rows=st.integers(1, 5),
    d=st.integers(1, 6),
    k=st.integers(1, 6),
    track_a=st.booleans(),
    track_b=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_matmul_matches_batched_reference(lead, rows, d, k, track_a, track_b, seed):
    rng = np.random.default_rng(seed)
    a_data = rng.standard_normal((*lead, rows, d))
    b_data = rng.standard_normal((d, k))
    upstream = rng.standard_normal((*lead, rows, k))
    a = Tensor(a_data, requires_grad=track_a)
    b = Tensor(b_data, requires_grad=track_b)
    out = matmul(a, b)

    def close(got, ref):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    close(out.data, a_data @ b_data)
    loss = tsum(mul(out, Tensor(upstream)))
    if not (track_a or track_b):
        with pytest.raises(GraphError):
            backward(loss)
        return
    backward(loss)
    if track_a:
        close(a.grad, upstream @ b_data.T)
    else:
        assert a.grad is None
    if track_b:
        batched = np.swapaxes(a_data, -1, -2) @ upstream
        close(b.grad, batched.sum(axis=tuple(range(len(lead)))))
    else:
        assert b.grad is None


@given(
    lead=st.lists(st.integers(1, 4), min_size=0, max_size=2),
    rows=st.integers(1, 5),
    d=st.integers(1, 6),
    track_a=st.booleans(),
    track_b=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_mul_matches_reference_and_skips_untracked_operands(lead, rows, d, track_a, track_b, seed):
    rng = np.random.default_rng(seed)
    a_data = rng.standard_normal((*lead, rows, d))
    b_data = rng.standard_normal(d)  # broadcast over every leading axis
    upstream = rng.standard_normal((*lead, rows, d))
    a = Tensor(a_data, requires_grad=track_a)
    b = Tensor(b_data, requires_grad=track_b)
    out = mul(a, b)
    np.testing.assert_array_equal(out.data, a_data * b_data)
    loss = tsum(mul(out, Tensor(upstream)))
    if not (track_a or track_b):
        with pytest.raises(GraphError):
            backward(loss)
        return
    # every gradient mul forms goes through _unbroadcast once: count them
    formed = []
    real = tensor_module._unbroadcast
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor_module, "_unbroadcast", lambda g, shape: formed.append(shape) or real(g, shape))
        backward(loss)
    # the outer mul's constant upstream operand, then a and b of the inner one, each only if tracked
    assert formed == [out.shape] + [t.shape for t in (a, b) if t._tracked]
    if track_a:
        np.testing.assert_array_equal(a.grad, upstream * b_data)
    else:
        assert a.grad is None
    if track_b:
        ref = (upstream * a_data).reshape(-1, d).sum(axis=0)
        np.testing.assert_allclose(b.grad, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    else:
        assert b.grad is None


# ---------------------------------------------------------------------------
# no_graph: the same forward values, nothing recorded

# op name -> build(rng, rows, d) from requires_grad leaves; rng also draws indices and masks
NO_GRAPH_OPS = {
    "add": lambda rng, r, d: add(rand(rng, r, d), rand(rng, d)),
    "mul": lambda rng, r, d: mul(rand(rng, r, d), rand(rng, r, d)),
    "scale": lambda rng, r, d: scale(rand(rng, r, d), 0.37),
    "matmul_2d": lambda rng, r, d: matmul(rand(rng, r, d), rand(rng, d, 3)),
    "matmul_linear": lambda rng, r, d: matmul(rand(rng, 2, r, d), rand(rng, d, 3)),
    "matmul_batched": lambda rng, r, d: matmul(rand(rng, 2, r, d), rand(rng, 2, d, 3)),
    "relu": lambda rng, r, d: relu(rand(rng, r, d)),
    "softmax": lambda rng, r, d: softmax(rand(rng, r, d)),
    "cross_entropy": lambda rng, r, d: cross_entropy(rand(rng, r, d), rng.integers(0, d, r)),
    "layer_norm": lambda rng, r, d: layer_norm(rand(rng, r, d), rand(rng, d), rand(rng, d)),
    "dropout": lambda rng, r, d: dropout(rand(rng, r, d), 0.3, rng),
    "concat": lambda rng, r, d: concat([rand(rng, r, d), rand(rng, r, 2)], axis=-1),
    "gather_rows": lambda rng, r, d: gather_rows(rand(rng, r, d), rng.integers(0, r, (2, 3))),
    "reshape": lambda rng, r, d: reshape(rand(rng, r, d), (d, r)),
    "transpose": lambda rng, r, d: transpose(rand(rng, r, d)),
    "tsum": lambda rng, r, d: tsum(rand(rng, r, d)),
    "tmean": lambda rng, r, d: tmean(rand(rng, r, d)),
    "l2_normalize": lambda rng, r, d: l2_normalize(rand(rng, r, d)),
}


def _attention(query):
    """Build attention over (2, r, 4) inputs; `query(rng, r)` gives the query positions (None: every one)."""
    return lambda rng, r, d: multi_head_attention(  # weight, bias for q, k, v, out
        rand(rng, 2, r, 4), 2, *(rand(rng, 4, 4) if i % 2 == 0 else rand(rng, 4) for i in range(8)),
        query_pos=query(rng, r),
    )


# query positions: every position, the first, the last, and a mix
NO_GRAPH_OPS.update({
    "multi_head_attention": _attention(lambda rng, r: None),
    "multi_head_attention_first": _attention(lambda rng, r: np.zeros(2, dtype=np.int64)),
    "multi_head_attention_last": _attention(lambda rng, r: np.full(2, r - 1)),
    "multi_head_attention_mixed": _attention(lambda rng, r: rng.integers(0, r, 2)),
})


@pytest.mark.parametrize("op", sorted(NO_GRAPH_OPS))
@given(rows=st.integers(1, 4), d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_no_graph_same_values_and_no_record(op, rows, d, seed):
    build = NO_GRAPH_OPS[op]
    recorded = build(np.random.default_rng(seed), rows, d)
    assert recorded._backward is not None
    with no_graph():
        bare = build(np.random.default_rng(seed), rows, d)
    np.testing.assert_array_equal(bare.data, recorded.data)
    assert bare._parents == ()
    assert bare._backward is None
    with pytest.raises(GraphError, match="no recorded computation"):
        backward(bare if bare.shape == () else tsum(bare))


def _records() -> bool:
    return add(rand(np.random.default_rng(0), 2), Tensor(np.ones(2)))._backward is not None


def _mlp_grads():
    rng = np.random.default_rng(31)
    w1, w2, x = rand(rng, 3, 4), rand(rng, 4, 2), Tensor(rng.standard_normal((5, 3)))
    backward(cross_entropy(matmul(relu(matmul(x, w1)), w2), np.array([0, 1, 1, 0, 1])))
    return w1.grad, w2.grad


def test_no_graph_restores_recording_after_exit_error_and_nesting():
    before = _mlp_grads()
    assert _records()
    with no_graph():
        assert not _records()
    assert _records()
    with pytest.raises(KeyError):
        with no_graph():
            raise KeyError("inside")
    assert _records()
    with no_graph():
        with no_graph():
            assert not _records()
        assert not _records()
    assert _records()
    for got, want in zip(_mlp_grads(), before):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# finite-difference checks per op (the gradient oracle)


def fd_check(build, store, **kw):
    report = finite_difference_check(build, store, **kw)
    assert report.ok(), f"max rel err {report.max_rel_error} at {report.worst_param}{report.worst_index}"
    return report


def test_fd_elementwise_chain():
    rng = np.random.default_rng(10)
    store = ParameterStore()
    a = store.add("a", rng.standard_normal((3, 4)))
    b = store.add("b", rng.standard_normal((3, 4)))

    def build():
        return tmean(mul(mul(a, b), relu(add(a, b))))

    fd_check(build, store)


def test_fd_matmul_batched():
    rng = np.random.default_rng(11)
    store = ParameterStore()
    a = store.add("a", rng.standard_normal((2, 3, 4)))
    w = store.add("w", rng.standard_normal((4, 5)))

    def build():
        return tmean(matmul(a, w))

    fd_check(build, store)


def test_fd_matmul_sequence_linear():
    rng = np.random.default_rng(12)
    store = ParameterStore()
    x = store.add("x", rng.standard_normal((3, 4, 5)))
    w = store.add("w", rng.standard_normal((5, 2)))

    def build():
        y = matmul(x, w)
        return tmean(mul(y, y))

    fd_check(build, store)


def test_fd_layer_norm():
    rng = np.random.default_rng(12)
    store = ParameterStore()
    x = store.add("x", rng.standard_normal((4, 6)))
    g = store.add("g", 1.0 + 0.1 * rng.standard_normal(6))
    b = store.add("b", 0.1 * rng.standard_normal(6))

    def build():
        return tmean(mul(layer_norm(x, g, b), layer_norm(x, g, b)))

    fd_check(build, store)


def test_fd_softmax():
    rng = np.random.default_rng(13)
    store = ParameterStore()
    x = store.add("x", rng.standard_normal((3, 5)))
    w = store.add("w", rng.standard_normal((3, 5)))

    def build():
        return tsum(mul(softmax(x), w))

    fd_check(build, store)


def test_fd_cross_entropy():
    rng = np.random.default_rng(14)
    store = ParameterStore()
    x = store.add("x", rng.standard_normal((6, 4)))
    targets = np.array([0, 1, 2, 3, 1, 0])

    def build():
        return cross_entropy(x, targets)

    fd_check(build, store)


def test_fd_l2_normalize():
    rng = np.random.default_rng(15)
    store = ParameterStore()
    x = store.add("x", rng.standard_normal((4, 5)))
    w = store.add("w", rng.standard_normal((4, 5)))

    def build():
        return tsum(mul(l2_normalize(x), softmax(w)))

    fd_check(build, store)


def test_fd_concat_reshape_transpose_gather():
    rng = np.random.default_rng(16)
    store = ParameterStore()
    t = store.add("t", rng.standard_normal((5, 3)))
    u = store.add("u", rng.standard_normal((2, 3)))
    idx = np.array([0, 4, 2])

    def build():
        rows = gather_rows(t, idx)
        both = concat([rows, scale(u, 2.0)], axis=0)
        return tmean(mul(transpose(reshape(both, (5, 3))), transpose(reshape(both, (5, 3)))))

    fd_check(build, store)


def test_fd_multi_head_attention():
    rng = np.random.default_rng(17)
    store = ParameterStore()
    d, t_len, batch = 8, 3, 2
    x = store.add("x", rng.standard_normal((batch, t_len, d)))
    names = []
    for nm in ("wq", "wk", "wv", "wo"):
        store.add(nm, rng.standard_normal((d, d)) * 0.4)
        store.add(nm.replace("w", "b"), rng.standard_normal(d) * 0.1)
        names += [nm, nm.replace("w", "b")]

    # query positions: every position, the first, the last, and a mix
    for query_pos in (None, np.array([0, 0]), np.array([2, 2]), np.array([2, 0])):

        def build():
            out = multi_head_attention(
                x, 2, store["wq"], store["bq"], store["wk"], store["bk"],
                store["wv"], store["bv"], store["wo"], store["bo"], query_pos=query_pos,
            )
            return tmean(mul(out, out))

        fd_check(build, store)


def test_attention_causal_mask_blocks_future():
    rng = np.random.default_rng(18)
    d, t_len = 4, 3
    store = ParameterStore()
    for nm in ("wq", "wk", "wv", "wo"):
        store.add(nm, rng.standard_normal((d, d)))
        store.add(nm.replace("w", "b"), np.zeros(d))
    x1 = rng.standard_normal((1, t_len, d))
    x2 = x1.copy()
    x2[0, 2, :] += 5.0  # perturb only the last position

    def run(x):
        return multi_head_attention(
            Tensor(x), 2, store["wq"], store["bq"], store["wk"], store["bk"],
            store["wv"], store["bv"], store["wo"], store["bo"],
        ).data

    np.testing.assert_allclose(run(x1)[0, :2], run(x2)[0, :2], atol=1e-12)


@given(
    batch=st.integers(1, 4),
    t_len=st.integers(1, 6),
    track=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_attention_query_rows_equal_full_rows(batch, t_len, track, seed):
    """Querying one position per row gives that row of the every-position output, forward and backward."""
    rng = np.random.default_rng(seed)
    d = 4
    x_data = rng.standard_normal((batch, t_len, d))
    weights = [rng.standard_normal((d, d)) if i % 2 == 0 else rng.standard_normal(d) for i in range(8)]
    query = rng.integers(0, t_len, batch)
    upstream = rng.standard_normal((batch, d))

    def run(query_pos):
        x = Tensor(x_data, requires_grad=track)
        params = [Tensor(w, requires_grad=True) for w in weights]
        out = multi_head_attention(x, 2, *params, query_pos=query_pos)
        if query_pos is None:
            out = gather_rows(reshape(out, (batch * t_len, d)), np.arange(batch) * t_len + query)
        backward(tsum(mul(out, Tensor(upstream))))
        return out.data, [t.grad for t in params] + [x.grad]

    got, got_grads = run(query)
    ref, ref_grads = run(None)
    assert got.shape == (batch, d)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    for g, r in zip(got_grads, ref_grads):
        if r is None:
            assert g is None
        else:
            np.testing.assert_allclose(g, r, rtol=1e-10, atol=1e-12 * max(np.abs(r).max(), 1.0))


@pytest.mark.parametrize("query_pos", [[0], [0, 3], [-1, 0], [0, 1.0]])
def test_attention_rejects_bad_query_positions(query_pos):
    store = ParameterStore()
    for nm in ("wq", "wk", "wv", "wo"):
        store.add(nm, np.eye(4))
        store.add(nm.replace("w", "b"), np.zeros(4))
    with pytest.raises(ShapeError):
        multi_head_attention(
            Tensor(np.ones((2, 3, 4))), 2, store["wq"], store["bq"], store["wk"], store["bk"],
            store["wv"], store["bv"], store["wo"], store["bo"], query_pos=np.array(query_pos),
        )


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_leaves_parameters_unchanged():
    store = ParameterStore()
    p = store.add("p", np.array([1.0, -2.0]))
    state = AdamState(store)
    p.grad = np.zeros(2)
    adam_step(store, state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_magnitude_is_learning_rate():
    store = ParameterStore()
    p = store.add("p", np.array([0.0]))
    state = AdamState(store, lr=0.001)
    p.grad = np.array([7.5])
    adam_step(store, state)
    # first bias-corrected step reduces to lr * g / (|g| + eps)
    np.testing.assert_allclose(abs(p.data[0]), 0.001, rtol=1e-6)
    assert p.data[0] < 0.0


def test_adam_constant_gradient_moves_monotonically():
    store = ParameterStore()
    p = store.add("p", np.array([0.0]))
    state = AdamState(store, lr=0.01)
    values = [p.data[0]]
    for _ in range(3):
        p.grad = np.array([-2.0])
        adam_step(store, state)
        values.append(p.data[0])
    assert values[0] < values[1] < values[2] < values[3]


def test_adam_requires_gradients():
    store = ParameterStore()
    store.add("p", np.array([1.0]))
    state = AdamState(store)
    with pytest.raises(ValueError):
        adam_step(store, state)


def test_adam_clears_gradients_after_step():
    store = ParameterStore()
    p = store.add("p", np.array([1.0]))
    state = AdamState(store)
    p.grad = np.array([1.0])
    adam_step(store, state)
    np.testing.assert_array_equal(p.grad, np.zeros(1))
    assert state.step_count == 1


@given(
    shape=st.lists(st.integers(1, 4), min_size=0, max_size=3),
    n_params=st.integers(1, 3),
    steps=st.integers(1, 5),
    shared_grad=st.booleans(),
    lr=st.floats(1e-4, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_adam_step_is_the_textbook_update_in_place(shape, n_params, steps, shared_grad, lr, seed):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    params = [store.add(f"p{i}", rng.standard_normal(shape)) for i in range(n_params)]
    state = AdamState(store, lr=lr)
    m = [np.zeros(shape) for _ in params]
    v = [np.zeros(shape) for _ in params]
    b1, b2, eps = state.beta1, state.beta2, state.eps
    for step in range(1, steps + 1):
        # add's backward hands one array to both operands, so gradients can alias
        grads = [rng.standard_normal(shape)] * n_params if shared_grad else [rng.standard_normal(shape) for _ in params]
        grads_before = [g.copy() for g in grads]
        arrays = [p.data for p in params]
        expected = []
        bias1 = 1.0 - b1**step
        bias2 = 1.0 - b2**step
        for i, (p, g) in enumerate(zip(params, grads)):
            p.grad = g
            m[i] *= b1
            m[i] += (1.0 - b1) * g
            v[i] *= b2
            v[i] += (1.0 - b2) * (g * g)
            expected.append(p.data - lr * (m[i] / bias1) / (np.sqrt(v[i] / bias2) + eps))
        adam_step(store, state)
        for p, array, want, g, g_before in zip(params, arrays, expected, grads, grads_before):
            np.testing.assert_array_equal(p.data, want)
            assert p.data is array
            np.testing.assert_array_equal(g, g_before)
            assert p.grad is not g


def test_training_loop_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(99)
        store = ParameterStore()
        w = store.add("w", rng.standard_normal((4, 3)))
        state = AdamState(store, lr=0.01)
        x = rng.standard_normal((8, 4))
        y = rng.integers(0, 3, size=8)
        for _ in range(5):
            loss = cross_entropy(matmul(Tensor(x), w), y)
            backward(loss, params=store.tensors())
            adam_step(store, state)
        return w.data.copy()

    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    params = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4), "s": np.float64(2.5)}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta={"epochs": 3})
    loaded, meta = load_checkpoint(path)
    assert meta == {"epochs": 3}
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name], np.asarray(params[name], dtype=np.float64))


def test_checkpoint_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    params = {"a": rng.standard_normal((2, 2)), "z": rng.standard_normal(3)}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(p1, params, meta={"k": 1})
    save_checkpoint(p2, dict(reversed(list(params.items()))), meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"WXYZ" + bytes(20))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 4))})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_load_checks_kind_index_and_split(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(2)}, meta={"kind": "predictor", "index_hash": "i1", "manifest_digest": "m1"})
    for kwargs, message in [
        ({"kind": "calliper"}, "not a calliper checkpoint"),
        ({"index_hash": "i2"}, "different location index"),
        ({"manifest_digest": "m2"}, "trained on a different split"),
    ]:
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path, **kwargs)
    params, meta = load_checkpoint(path, kind=None, index_hash=None, manifest_digest=None)
    assert meta["kind"] == "predictor"
    params, _ = load_checkpoint(path, kind="predictor", index_hash="i1", manifest_digest="m1")
    np.testing.assert_array_equal(params["w"], np.ones(2))


# ---------------------------------------------------------------------------
# parameter store


def test_store_rejects_duplicate_names():
    store = ParameterStore()
    store.add("w", np.ones(2))
    with pytest.raises(ValueError):
        store.add("w", np.ones(2))


def test_store_load_state_dict_checks_names_and_shapes():
    store = ParameterStore()
    store.add("w", np.ones((2, 2)))
    with pytest.raises(ValueError):
        store.load_state_dict({"w": np.ones((2, 2)), "extra": np.ones(1)})
    with pytest.raises(ValueError):
        store.load_state_dict({"w": np.ones((3, 3))})


def test_store_iteration_is_name_sorted():
    store = ParameterStore()
    store.add("zeta", np.ones(1))
    store.add("alpha", np.ones(1))
    assert store.names() == ["alpha", "zeta"]


def test_gradcheck_flags_wrong_gradient():
    # a deliberately broken closure: loss uses x^2 but we corrupt the data
    # between analytic and numeric passes via a non-deterministic closure
    store = ParameterStore()
    x = store.add("x", np.array([1.0, 2.0]))
    calls = {"n": 0}

    def build():
        calls["n"] += 1
        factor = 1.0 if calls["n"] == 1 else 3.0
        return tsum(mul(scale(x, factor), x))

    report = finite_difference_check(build, store)
    assert not report.ok()
    assert report.failures
