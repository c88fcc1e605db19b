"""Tensor engine: forward semantics and gradients vs finite differences."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (col2im_naive, conv3d_naive, conv_transpose3d_naive, finite_diff,
                     im2col_naive, max_rel_error)
from shapestream import autograd
from shapestream.autograd import (
    _col2im,
    _im2col,
    _window_index,
    Tensor,
    concat,
    conv3d,
    conv3d_output_shape,
    conv_transpose3d,
    conv_transpose3d_output_shape,
    exp,
    mean,
    narrow,
    no_grad,
    relu,
    sigmoid,
    tanh,
    transpose,
)

RNG = np.random.default_rng

# PHASE_WASTE_LIMIT values that force conv_transpose3d's forward into one form
_FORMS = {"phase": np.inf, "scatter": 0.0}


def _transposed(form: str, x: np.ndarray, w: np.ndarray, stride: int = 2,
                padding: int = 1) -> np.ndarray:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autograd, "PHASE_WASTE_LIMIT", _FORMS[form])
        return conv_transpose3d(Tensor(x), Tensor(w), stride=stride, padding=padding).data


# ---------------------------------------------------------------------------
# conv3d forward
# ---------------------------------------------------------------------------


def test_conv3d_all_ones_sums_to_27():
    x = Tensor(np.ones((1, 1, 3, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3, 3)))
    y = conv3d(x, w, stride=1, padding=0)
    assert y.shape == (1, 1, 1, 1, 1)
    assert y.data.reshape(()) == 27.0


def test_conv3d_identity_kernel():
    x = Tensor(RNG(0).standard_normal((1, 1, 4, 4, 4)))
    w = Tensor(np.ones((1, 1, 1, 1, 1)))
    y = conv3d(x, w, stride=1, padding=0)
    np.testing.assert_array_equal(y.data, x.data)


@pytest.mark.parametrize("n", [1, 3])
def test_conv3d_matches_naive_loop_oracle(n):
    rng = RNG(7)
    x = rng.standard_normal((n, 2, 4, 4, 4))
    w = rng.standard_normal((3, 2, 2, 2, 2))
    kernels = Tensor(w, requires_grad=True)
    y = conv3d(Tensor(x), kernels, stride=2, padding=1)
    want = conv3d_naive(x, w, stride=2, padding=1)
    assert y.shape == want.shape
    assert np.max(np.abs(y.data - want)) <= 1e-12
    # the conv is linear in w, so the gradient of <conv(x, w), g> in w[i] is
    # <conv(x, e_i), g>, summed over every frame of the batch
    g = rng.standard_normal(want.shape)
    (y * g).sum().backward()
    basis = np.eye(w.size).reshape(w.size, *w.shape)
    want_grad = np.array([np.sum(conv3d_naive(x, e, stride=2, padding=1) * g) for e in basis])
    assert np.max(np.abs(kernels.grad - want_grad.reshape(w.shape))) <= 1e-12


def test_conv3d_channel_mismatch_names_both_shapes():
    x = Tensor(np.zeros((1, 2, 4, 4, 4)))
    w = Tensor(np.zeros((3, 5, 2, 2, 2)))
    with pytest.raises(ValueError) as err:
        conv3d(x, w)
    assert "(1, 2, 4, 4, 4)" in str(err.value) and "(3, 5, 2, 2, 2)" in str(err.value)


@pytest.mark.parametrize("conv, kernel_shape", [
    (conv3d, (3, 2, 2, 2, 2)),
    (conv_transpose3d, (2, 3, 2, 2, 2)),
])
def test_conv_negative_padding_rejected(conv, kernel_shape):
    x = Tensor(np.zeros((1, 2, 8, 8, 8)))
    with pytest.raises(ValueError, match="padding must be >= 0") as err:
        conv(x, Tensor(np.zeros(kernel_shape)), stride=2, padding=-1)
    assert "(1, 2, 8, 8, 8)" in str(err.value) and str(kernel_shape) in str(err.value)


@pytest.mark.parametrize("conv, kernel_shape", [
    (conv3d, (3, 2, 2, 3, 2)),
    (conv_transpose3d, (2, 3, 3, 3, 2)),
])
def test_conv_non_cubic_kernel_rejected(conv, kernel_shape):
    x = Tensor(np.zeros((1, 2, 6, 6, 6)))
    with pytest.raises(ValueError, match="cubic kernel") as err:
        conv(x, Tensor(np.zeros(kernel_shape)))
    assert "(1, 2, 6, 6, 6)" in str(err.value) and str(kernel_shape) in str(err.value)


def test_conv3d_output_shape_formula():
    assert conv3d_output_shape((16, 16, 16), k=3, stride=2, padding=1) == (8, 8, 8)
    assert conv_transpose3d_output_shape((8, 8, 8), k=4, stride=2, padding=1) == (16, 16, 16)


def test_conv_then_transpose_restores_spatial_shape():
    rng = RNG(3)
    for k, stride, padding, d in [(3, 2, 1, 9), (2, 2, 0, 8), (3, 1, 1, 5), (4, 2, 1, 16)]:
        x = Tensor(rng.standard_normal((1, 2, d, d, d)))
        w = Tensor(rng.standard_normal((3, 2, k, k, k)))
        wt = Tensor(rng.standard_normal((3, 2, k, k, k)))
        y = conv3d(x, w, stride=stride, padding=padding)
        z = conv_transpose3d(y, wt, stride=stride, padding=padding)
        assert z.shape[2:] == x.shape[2:], (k, stride, padding, d)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 3),
       spatial=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
       k=st.integers(1, 5), stride=st.integers(1, 3), padding=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, c=3, spatial=(8, 8, 8), k=3, stride=2, padding=1, seed=0)  # the encoder's
@example(n=2, c=2, spatial=(4, 4, 4), k=4, stride=2, padding=1, seed=1)  # the decoder's
def test_im2col_col2im_equal_per_offset_loops(n, c, spatial, k, stride, padding, seed):
    """The flat-index im2col and the bincount col2im reproduce the per-offset
    loops bit for bit, and stay each other's adjoint."""
    out = conv3d_output_shape(spatial, k, stride, padding)
    if min(out) < 1:
        return
    rng = RNG(seed)
    x = rng.standard_normal((n, c) + spatial)
    cols, got_out = _im2col(x, k, stride, padding)
    assert got_out == out
    assert np.array_equal(cols, im2col_naive(x, k, stride, padding))
    y = rng.standard_normal(cols.shape)
    back = _col2im(y, x.shape, k, stride, padding)
    assert back.shape == x.shape
    assert np.array_equal(back, col2im_naive(y, x.shape, k, stride, padding))
    lhs, rhs = np.vdot(cols, y), np.vdot(x, back)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 2), c=st.integers(1, 3), f=st.integers(1, 3),
       spatial=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
       k=st.integers(1, 5), stride=st.integers(1, 3), padding=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, c=3, f=2, spatial=(2, 3, 4), k=4, stride=2, padding=1, seed=0)
@example(n=1, c=2, f=3, spatial=(3, 1, 2), k=5, stride=2, padding=2, seed=1)
@example(n=1, c=1, f=2, spatial=(4, 2, 3), k=2, stride=3, padding=0, seed=2)
def test_conv_transpose3d_matches_scatter_oracle_and_is_conv3d_adjoint(n, c, f, spatial, k,
                                                                       stride, padding, seed):
    """Both forward forms, the phase gather and the scatter, equal the
    per-voxel scatter from the definition, for every (k, stride, padding), k
    a multiple of the stride or not, whichever form the rule picks; and
    <conv_transpose3d(x, w), y> = <x, conv3d(y, w)>."""
    out = conv_transpose3d_output_shape(spatial, k, stride, padding)
    assume(min(out) >= 1)
    rng = RNG(seed)
    x = rng.standard_normal((n, c) + spatial)
    w = rng.standard_normal((c, f, k, k, k))
    want = conv_transpose3d_naive(x, w, stride, padding)
    for form in _FORMS:
        got = _transposed(form, x, w, stride, padding)
        assert got.shape == want.shape == (n, f) + out, form
        assert np.max(np.abs(got - want)) <= 1e-12, form
    got = conv_transpose3d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
    y = rng.standard_normal(got.shape)
    back = conv3d(Tensor(y), Tensor(w), stride=stride, padding=padding).data
    assert back.shape == x.shape
    lhs, rhs = np.vdot(got, y), np.vdot(x, back)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("n", [1, 12])
def test_conv_transpose3d_forms_agree_at_the_decoder_stages(n, monkeypatch):
    """At the default decoder's three stages (2^3, 4^3 and 8^3 inputs, k=4,
    stride 2, padding 1) the phase and scatter forms agree to 1e-15 relative,
    and the rule scatters the first stage only, where the phase form would
    compute 3.375 times the products."""
    rng = RNG(n)
    stages = [(rng.standard_normal((n, c, d, d, d)), rng.standard_normal((c, f, 4, 4, 4)))
              for c, f, d in ((32, 16, 2), (16, 8, 4), (8, 1, 8))]
    for x, w in stages:
        phase, scatter = (_transposed(form, x, w) for form in _FORMS)
        assert np.max(np.abs(phase - scatter)) <= 1e-15 * np.max(np.abs(scatter))
    scattered = []
    scatter_form = autograd._conv3d_grad_input
    monkeypatch.setattr(autograd, "_conv3d_grad_input",
                        lambda gy, *rest: scattered.append(gy.shape[2]) or scatter_form(gy, *rest))
    for x, w in stages:
        conv_transpose3d(Tensor(x), Tensor(w), stride=2, padding=1)
    assert scattered == [2]


def test_window_index_is_read_only_and_shared_across_batch_sizes():
    """The index is keyed without N: columns at N=1 and N=12 build none anew."""
    index = _window_index(2, (5, 6, 7), 3, 2, 1)
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 0
    misses = _window_index.cache_info().misses
    for n in (1, 12):
        x = RNG(n).standard_normal((n, 2, 5, 6, 7))
        cols, _ = _im2col(x, 3, 2, 1)
        _col2im(cols, x.shape, 3, 2, 1)
    assert _window_index.cache_info().misses == misses
    assert _window_index(2, (5, 6, 7), 3, 2, 1) is index


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------


def test_backward_of_sum_is_ones():
    x = Tensor(RNG(0).standard_normal((3, 4)), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_sigmoid_at_zero_is_quarter():
    x = Tensor(np.zeros(5), requires_grad=True)
    x.sigmoid().sum().backward()
    np.testing.assert_allclose(x.grad, 0.25 * np.ones(5), rtol=0, atol=1e-15)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * 2.0).backward()


def test_backward_twice_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="twice"):
        loss.backward()


def test_iterated_rows_are_tracked_slices():
    x = Tensor(RNG(0).standard_normal((3, 2, 4)), requires_grad=True)
    rows = list(x)
    assert [r.shape for r in rows] == [(2, 4)] * 3
    np.testing.assert_array_equal(np.stack([r.data for r in rows]), x.data)
    sum(r.sum() for r in rows).backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 2, 4)))


def test_iterating_a_0d_tensor_raises():
    with pytest.raises(TypeError, match="0-d"):
        iter(Tensor(1.0))


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad


def test_grad_accumulates_across_uses():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_first_gradient_is_an_owned_array():
    """The identity VJPs of + hand every input the same array; a first
    gradient kept by reference would let a's second term leak into b's."""
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    s = Tensor(np.array(2.0), requires_grad=True)
    ((a + b) + a + s).sum().backward()
    np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])
    assert isinstance(s.grad, np.ndarray) and s.grad.shape == () and s.grad == 3.0


# ---------------------------------------------------------------------------
# gradients vs central finite differences (1e-4 relative at h=1e-5)
# ---------------------------------------------------------------------------


def _check_grads(build, arrays: dict, tol: float = 1e-4):
    """build(tensors) -> scalar Tensor; compare autograd to finite differences."""
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    loss = build(tensors)
    loss.backward()

    def f():
        fresh = {k: Tensor(v) for k, v in arrays.items()}
        return float(build(fresh).data)

    fd = finite_diff(f, arrays, h=1e-5)
    for name in arrays:
        assert max_rel_error(tensors[name].grad, fd[name]) < tol, name


def test_grad_elementwise_chain():
    rng = RNG(11)
    arrays = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4))}
    _check_grads(lambda t: ((t["a"] * t["b"] + t["a"]).sigmoid().sum()), arrays)


def test_grad_div_and_pow():
    rng = RNG(12)
    arrays = {"a": rng.random((4,)) + 0.5, "b": rng.random((4,)) + 0.5}
    _check_grads(lambda t: ((t["a"] / t["b"]).pow(1.5)).sum(), arrays)


def test_grad_matmul_transpose():
    rng = RNG(13)
    arrays = {"a": rng.standard_normal((3, 5)), "b": rng.standard_normal((3, 4))}
    _check_grads(lambda t: (t["a"].T @ t["b"]).tanh().sum(), arrays)


def test_grad_exp_log():
    rng = RNG(14)
    arrays = {"a": rng.random((6,)) + 0.5}
    _check_grads(lambda t: (t["a"].exp().log() * t["a"].log()).sum(), arrays)


def test_grad_relu_mean():
    rng = RNG(15)
    arrays = {"a": rng.standard_normal((5, 5)) + 0.3}
    _check_grads(lambda t: t["a"].relu().mean(), arrays)


def test_grad_broadcast_add_mul():
    rng = RNG(16)
    arrays = {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal((1, 3)),
              "c": rng.standard_normal((1, 1))}
    _check_grads(lambda t: ((t["a"] + t["b"]) * t["c"]).sum(), arrays)
    # sub and div against a (4, 1) column, like attention's row-sum denominator
    column = {"a": arrays["a"], "d": rng.random((4, 1)) + 0.5}
    _check_grads(lambda t: ((t["a"] - t["d"]) / t["d"]).sum(), column)


def test_grad_narrow_concat():
    """Slices and joins; a whole-axis narrow and a one-tensor concat return
    their input Tensor, and gradients through them still match."""
    rng = RNG(17)
    arrays = {"a": rng.standard_normal((2, 6)), "b": rng.standard_normal((2, 2))}
    _check_grads(
        lambda t: concat([t["a"].narrow(1, 1, 3), t["b"]], axis=1).tanh().sum(),
        arrays,
    )
    a = Tensor(arrays["a"])
    assert a.narrow(1, 0, 6) is a and a.narrow(0, 0, 2) is a and concat([a], axis=1) is a
    _check_grads(
        lambda t: (concat([t["a"].narrow(1, 0, 6)], axis=1) * t["a"].narrow(0, 0, 2)).tanh().sum()
        + concat([t["b"]]).narrow(1, 0, 2).sum(),
        arrays,
    )


def test_grad_clip_interior():
    rng = RNG(18)
    arrays = {"a": rng.random((8,))}  # in (0,1), clip bounds far away
    _check_grads(lambda t: t["a"].clip(1e-7, 1 - 1e-7).log().sum(), arrays)


def test_grad_axis_reductions():
    rng = RNG(19)
    arrays = {"a": rng.standard_normal((3, 4))}
    _check_grads(lambda t: (t["a"].sum(axis=1, keepdims=True) * t["a"]).mean(), arrays)


def test_grad_conv3d():
    rng = RNG(20)
    arrays = {
        "x": rng.standard_normal((2, 2, 5, 5, 5)),
        "w": rng.standard_normal((3, 2, 3, 3, 3)),
    }
    _check_grads(lambda t: conv3d(t["x"], t["w"], stride=2, padding=1).sigmoid().sum(),
                 arrays)


def test_grad_conv_transpose3d():
    rng = RNG(21)
    arrays = {
        "x": rng.standard_normal((2, 3, 3, 3, 3)),
        "w": rng.standard_normal((3, 2, 4, 4, 4)),
    }
    _check_grads(
        lambda t: conv_transpose3d(t["x"], t["w"], stride=2, padding=1).tanh().mean(),
        arrays,
    )


@pytest.mark.parametrize("conv, x_shape, w_shape", [
    (conv3d, (2, 2, 5, 5, 5), (3, 2, 3, 3, 3)),
    (conv_transpose3d, (2, 3, 3, 3, 3), (3, 2, 4, 4, 4)),
])
@pytest.mark.parametrize("only", ["x", "kernels"])
def test_conv_single_vjp_matches_both_vjps_bitwise(conv, x_shape, w_shape, only):
    """Either VJP may run alone (a frozen kernel, an input that needs no grad);
    its gradient is the same bit for bit as when both run, which in
    conv_transpose3d share the output gradient's columns."""
    rng = RNG(23)
    arrays = {"x": rng.standard_normal(x_shape), "kernels": rng.standard_normal(w_shape)}

    def grads(needs_grad):
        t = {k: Tensor(v, requires_grad=k in needs_grad) for k, v in arrays.items()}
        loss = conv(t["x"], t["kernels"], stride=2, padding=1).tanh().sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="twice"):
            loss.backward()
        return {k: v.grad for k, v in t.items()}

    alone, both = grads({only}), grads({"x", "kernels"})
    assert all(alone[k] is None for k in arrays if k != only)
    assert np.array_equal(alone[only], both[only])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_forward_outputs_finite_on_finite_inputs():
    rng = RNG(22)
    x = Tensor(rng.standard_normal((1, 1, 4, 4, 4)))
    w = Tensor(rng.standard_normal((2, 1, 3, 3, 3)) * 0.1)
    y = conv3d(x, w, stride=1, padding=1).sigmoid()
    assert np.all(np.isfinite(y.data))


def test_determinism_same_inputs_bitwise():
    rng1 = RNG(99)
    x1 = rng1.standard_normal((1, 2, 4, 4, 4))
    w1 = rng1.standard_normal((2, 2, 3, 3, 3))
    rng2 = RNG(99)
    x2 = rng2.standard_normal((1, 2, 4, 4, 4))
    w2 = rng2.standard_normal((2, 2, 3, 3, 3))
    y1 = conv3d(Tensor(x1), Tensor(w1), 1, 1).data
    y2 = conv3d(Tensor(x2), Tensor(w2), 1, 1).data
    assert np.array_equal(y1, y2)


# ---------------------------------------------------------------------------
# the ops on plain arrays: a no-grad pass runs them, with the Tensor ops' bits
# ---------------------------------------------------------------------------


def test_ndarray_operand_defers_to_the_tensor():
    """An ndarray on the left defers to the Tensor's reflected op, never
    building an object array of Tensors."""
    a, t = np.array([1.0, 2.0]), Tensor(np.array([4.0, 8.0]))
    for out, want in [(np.ones(2) + Tensor(np.ones(2)), [2.0, 2.0]), (a - t, [-3.0, -6.0]),
                      (a * t, [4.0, 16.0]), (a[None] @ Tensor(np.ones((2, 1))), [[3.0]])]:
        assert isinstance(out, Tensor)
        assert np.array_equal(out.data, want)


def test_sigmoid_with_one_exp_equals_the_three_exp_formula_bitwise():
    x = np.concatenate([RNG(30).standard_normal(4000) * 40.0,
                        [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, 36.7, -36.7]])
    ax = np.abs(x)
    want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-ax)), np.exp(-ax) / (1.0 + np.exp(-ax)))
    for got in (sigmoid(x), Tensor(x).sigmoid().data):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_plain_ops_equal_the_tensor_ops_bitwise():
    """Each op on an array gives the Tensor op's bits; the transpose and a
    partial narrow copy, and the mean multiplies by 1/count."""
    x = RNG(31).standard_normal((5, 7))
    for op in (relu, sigmoid, tanh, exp, transpose):
        assert np.array_equal(op(x), op(Tensor(x)).data)
        assert isinstance(op(Tensor(x)), Tensor)
    t = transpose(x)
    assert t.flags.c_contiguous and not np.shares_memory(t, x)
    # x / 7 and x * (1/7) differ in some bits of these sums; the mean is the product
    sums = x.sum(axis=1, keepdims=True)
    assert not np.array_equal(sums / 7, sums * (1.0 / 7))
    for args in [(), (1, True), (0, False)]:
        assert np.array_equal(mean(x, *args), Tensor(x).mean(*args).data)
    assert np.array_equal(mean(x, 1, True), sums * (1.0 / 7))
    part = narrow(x, 1, 2, 3)
    assert np.array_equal(part, Tensor(x).narrow(1, 2, 3).data)
    assert not np.shares_memory(part, x)
    assert narrow(x, 0, 0, 5) is x and concat([x]) is x


@pytest.mark.parametrize("conv, x_shape, w_shape", [
    (conv3d, (2, 2, 5, 5, 5), (3, 2, 3, 3, 3)),
    (conv_transpose3d, (2, 3, 3, 3, 3), (3, 2, 4, 4, 4)),
])
def test_convs_on_arrays_match_the_tensor_path_and_keep_its_checks(conv, x_shape, w_shape):
    """Both convs take arrays: the same bits and checks without a Tensor; one
    Tensor operand takes the recording path."""
    rng = RNG(32)
    x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    plain = conv(x, w, stride=2, padding=1)
    assert type(plain) is np.ndarray
    assert np.array_equal(plain, conv(Tensor(x), Tensor(w), stride=2, padding=1).data)
    with pytest.raises(ValueError, match="padding"):
        conv(x, w, stride=2, padding=-1)
    with pytest.raises(ValueError, match="cubic"):
        conv(x, w[..., :2], stride=2, padding=1)
    kernels = Tensor(w, requires_grad=True)
    conv(x, kernels, stride=2, padding=1).sum().backward()
    assert kernels.grad is not None


def test_concat_of_arrays_is_plain_and_records_with_a_tensor_operand():
    rng = RNG(33)
    a, b = rng.standard_normal((2, 3)), Tensor(rng.standard_normal((1, 3)), requires_grad=True)
    assert np.array_equal(concat([a, a], axis=0), np.concatenate([a, a]))
    joined = concat([a, b])
    assert isinstance(joined, Tensor) and joined.requires_grad
    joined.sum().backward()
    assert np.array_equal(b.grad, np.ones((1, 3)))
