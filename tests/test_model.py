"""Model variants: construction, forward semantics, state, gradients."""

import re
from unittest import mock

import numpy as np
import pytest

from oracles import finite_diff, max_rel_error
from shapestream.model import (
    ModelConfig,
    _forward,
    bce_from_predictions,
    build_model,
    forward_step,
    sequence_predictions,
)
from shapestream import model as model_module
from shapestream.attention import AssociativeMemory
from shapestream.autograd import Tensor, no_grad
from shapestream.optim import adam_update, AdamState, gradients_of, zero_gradients
from shapestream.voxel import OCCUPANCY_THRESHOLD, VoxelGrid

RNG = np.random.default_rng

TINY = dict(resolution=8, latent_dim=16, qk_dim=8, feature_count=8,
            performer_layers=1, conv_channels=(2, 4), train_views=3, seed=0)


def tiny_config(variant="mvp", **over) -> ModelConfig:
    kw = dict(TINY)
    kw.update(over)
    return ModelConfig(variant=variant, **kw)


def random_frames(n: int, r: int = 8, seed: int = 0, density: float = 0.2):
    rng = RNG(seed)
    frames = [(rng.random((r, r, r)) < density).astype(np.float64) for _ in range(n)]
    targets = [(rng.random((r, r, r)) < density).astype(np.float64) for _ in range(n)]
    return frames, targets


def as_grids(values_list, r=8):
    return [VoxelGrid(v, np.zeros(3), 0.3 / r) for v in values_list]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_deterministic_bitwise():
    a = build_model(tiny_config())
    b = build_model(tiny_config())
    assert list(a.params) == list(b.params)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_parameter_count_matches_closed_form():
    model = build_model(tiny_config())
    # towers: 2 * (conv(2,1,3^3) + conv(4,2,3^3) + dense 32x16 + 16)
    towers = 2 * (2 * 27 + 4 * 2 * 27 + 32 * 16 + 16)
    # block: norm1 + q/k/v/o + norm2 + mlp(16->32->16)
    block = 16 + 16 * 8 + 16 * 8 + 16 * 16 + 16 * 16 + 16 + (16 * 32 + 32 + 32 * 16 + 16)
    # decoder: dense 16->32, convt(4,2,4^3), convt(2,1,4^3), scalar bias
    dec = 16 * 32 + 32 + 4 * 2 * 64 + 2 * 1 * 64 + 1
    assert model.parameter_count == towers + block + dec


def test_default_config_parameter_count_closed_form():
    model = build_model(ModelConfig())  # r=16, d=128, 3 conv stages, 2 layers
    towers = 2 * (8 * 27 + 16 * 8 * 27 + 32 * 16 * 27 + 256 * 128 + 128)
    block = (128 + 128 * 32 + 128 * 32 + 128 * 128 + 128 * 128 + 128
             + 128 * 256 + 256 + 256 * 128 + 128)
    dec = 128 * 256 + 256 + 32 * 16 * 64 + 16 * 8 * 64 + 8 * 1 * 64 + 1
    assert model.parameter_count == towers + 2 * block + dec == 389553


def test_single_view_has_no_attention_or_recurrent_params():
    model = build_model(tiny_config("single_view"))
    names = " ".join(model.params)
    for banned in ("wq", "wk", "wv", "wo", "lstm"):
        assert banned not in names


def test_invalid_channel_schedule_rejected():
    with pytest.raises(ValueError, match="channel schedule"):
        build_model(tiny_config(conv_channels=()))
    with pytest.raises(ValueError, match="channel schedule"):
        build_model(tiny_config(resolution=12, conv_channels=(2, 4, 8)))


def test_invalid_variant_and_train_views_rejected():
    with pytest.raises(ValueError, match="variant"):
        build_model(tiny_config("gru"))
    with pytest.raises(ValueError, match="train_views"):
        build_model(tiny_config(train_views=5))


@pytest.mark.parametrize("field,value", [
    ("latent_dim", 16.0), ("resolution", "8"), ("performer_layers", True),
    ("seed", 0.5), ("variant", 1), ("kernel", None),
    ("conv_channels", (2, 4.0)), ("conv_channels", (2, 0)), ("conv_channels", 4),
])
def test_config_field_of_wrong_type_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        tiny_config(**{field: value}).validate()


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["mvp", "mvt", "lstm", "single_view"])
def test_predictions_strictly_inside_unit_interval(variant):
    model = build_model(tiny_config(variant))
    frames, _ = random_frames(3, seed=1)
    preds = sequence_predictions(model, frames)
    for p in preds:
        assert p.shape == (8, 8, 8)
        assert np.all(p.data > 0.0) and np.all(p.data < 1.0)


@pytest.mark.parametrize("variant", ["mvp", "mvt", "lstm", "single_view"])
def test_forward_step_matches_sequence_unroll(variant):
    model = build_model(tiny_config(variant, kernel="relu"))
    values, _ = random_frames(4, seed=2)
    frames = as_grids(values)
    unrolled = sequence_predictions(model, values)
    state = model.init_state()
    for i, frame in enumerate(frames):
        pred, state = forward_step(model, state, frame)
        np.testing.assert_allclose(pred.values, unrolled.data[i], atol=1e-12)


def test_forward_step_matches_unroll_softmax_kernel():
    model = build_model(tiny_config("mvp", kernel="softmax"))
    values, _ = random_frames(3, seed=3)
    unrolled = sequence_predictions(model, values)
    state = model.init_state()
    for i, frame in enumerate(as_grids(values)):
        pred, state = forward_step(model, state, frame)
        np.testing.assert_allclose(pred.values, unrolled.data[i], atol=1e-12)


STREAM_CASES = {
    "mvp-relu-1": dict(variant="mvp", kernel="relu"),
    "mvp-softmax-2": dict(variant="mvp", kernel="softmax", attention_heads=2),
    "mvt-softmax-1": dict(variant="mvt", kernel="softmax"),
    "lstm-relu-1": dict(variant="lstm", kernel="relu"),
    "mvp-relu-1-layers2": dict(variant="mvp", kernel="relu", performer_layers=2),
    "mvt-softmax-2-layers2": dict(variant="mvt", kernel="softmax", attention_heads=2,
                                  performer_layers=2),
    "lstm-relu-1-layers2": dict(variant="lstm", kernel="relu", performer_layers=2),
    "single_view": dict(variant="single_view"),
}


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_streamed_blocks_of_frames_match_sequence_unroll(case, monkeypatch):
    """10 frames at MAX_VIEWS=4 run as passes of 4, 4 and 2 frames through one
    state and give both one unrolled pass's and the forward_step stream's
    predictions."""
    values, _ = random_frames(10, seed=33)
    model = build_model(tiny_config(**STREAM_CASES[case]))
    with no_grad():
        unrolled = np.stack([p.data for p in sequence_predictions(model, values)])
    state, streamed = model.init_state(), []
    for frame in as_grids(values):
        pred, state = forward_step(model, state, frame)
        streamed.append(pred.values)
    streamed = np.stack(streamed)
    spy = mock.Mock(wraps=_forward)
    monkeypatch.setattr(model_module, "_forward", spy)
    monkeypatch.setattr(model_module, "MAX_VIEWS", 4)
    with no_grad():
        chunked = np.stack([p.data for p in sequence_predictions(model, values)])
    assert [len(call.args[1]) for call in spy.call_args_list] == [4, 4, 2]
    np.testing.assert_allclose(chunked, unrolled, rtol=0, atol=1e-12)
    np.testing.assert_allclose(chunked, streamed, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(chunked > OCCUPANCY_THRESHOLD,
                                  streamed > OCCUPANCY_THRESHOLD)


def test_non_finite_key_weight_rejected_memories_unmodified():
    model = build_model(tiny_config("mvp", attention_heads=2))
    model.params["blk0.wk"].data[0, 0] = np.nan
    state = model.init_state()
    frame = as_grids(random_frames(1, seed=34)[0])[0]
    with pytest.raises(ValueError, match="non-finite"):
        forward_step(model, state, frame)
    assert all(mem.count == 0 and not mem.M.any() and not mem.m_vec.any()
               for layer in state.layers for mem in layer)


def _state_arrays(state) -> list:
    """The frame index, then each slot's arrays (and each memory's count)."""
    out = [state.frame_index]
    for layer in state.layers:
        for slot in layer:
            out += ([slot.count, slot.M, slot.m_vec] if isinstance(slot, AssociativeMemory)
                    else list(slot))
    return out


@pytest.mark.parametrize("variant,weight", [("mvp", "blk1.wq"), ("mvt", "blk1.wq"),
                                            ("lstm", "blk1.mlp.w1")])
def test_step_that_raises_leaves_state_unchanged(variant, weight):
    """A NaN weight in the second block makes forward_step raise after both
    blocks have read their slots. The caller's state still equals a fresh
    one, and with the weight restored, streaming on from it equals a fresh
    stream."""
    model = build_model(tiny_config(variant, performer_layers=2,
                                    attention_heads=1 if variant == "lstm" else 2))
    frames = as_grids(random_frames(3, seed=35)[0])
    state = model.init_state()
    w = model.params[weight].data
    kept, w[0, 0] = w[0, 0], np.nan
    with pytest.raises(ValueError):
        forward_step(model, state, frames[0])
    w[0, 0] = kept
    np.testing.assert_equal(_state_arrays(state), _state_arrays(model.init_state()))
    fresh, want = model.init_state(), []
    for frame in frames:
        pred, fresh = forward_step(model, fresh, frame)
        want.append(pred.values)
    for frame, expected in zip(frames, want):
        pred, state = forward_step(model, state, frame)
        np.testing.assert_array_equal(pred.values, expected)


def test_mvp_state_size_constant_mvt_state_grows():
    values, _ = random_frames(12, seed=4)
    frames = as_grids(values)

    mvp = build_model(tiny_config("mvp"))
    state = mvp.init_state()
    sizes = []
    for frame in frames:
        _, state = forward_step(mvp, state, frame)
        sizes.append(state.nbytes)
    assert len(set(sizes)) == 1

    mvt = build_model(tiny_config("mvt"))
    state = mvt.init_state()
    sizes = []
    for frame in frames:
        _, state = forward_step(mvt, state, frame)
        sizes.append(state.nbytes)
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_mvp_streams_past_max_views_with_constant_state(monkeypatch):
    """1000 streamed frames: no position limit, constant memory, outputs in
    (0, 1) and equal to one unrolled pass over the same frames (MAX_VIEWS
    raised to 1000 for that pass)."""
    model = build_model(tiny_config("mvp", kernel="relu"))
    assert model_module.MAX_VIEWS < 1000
    values, _ = random_frames(1000, seed=6)
    monkeypatch.setattr(model_module, "MAX_VIEWS", 1000)
    unrolled = sequence_predictions(model, values)
    state = model.init_state()
    sizes = set()
    for i, frame in enumerate(as_grids(values)):
        pred, state = forward_step(model, state, frame)
        sizes.add(state.nbytes)
        assert np.all(np.isfinite(pred.values))
        assert np.all(pred.values > 0.0) and np.all(pred.values < 1.0)
        np.testing.assert_allclose(pred.values, unrolled.data[i], rtol=0, atol=1e-9)
    assert len(sizes) == 1


def test_state_variant_mismatch_rejected():
    mvp = build_model(tiny_config("mvp"))
    lstm = build_model(tiny_config("lstm"))
    state = lstm.init_state()
    frame = as_grids(random_frames(1, seed=5)[0])[0]
    with pytest.raises(ValueError, match="variant"):
        forward_step(mvp, state, frame)


def test_resolution_mismatch_rejected():
    model = build_model(tiny_config())
    wrong = VoxelGrid(np.zeros((16, 16, 16)), np.zeros(3), 0.1)
    with pytest.raises(ValueError, match="resolution"):
        forward_step(model, model.init_state(), wrong)


@pytest.mark.parametrize("variant", ["mvp", "mvt", "lstm"])
def test_causality_perturbing_frame_j_only_changes_later(variant):
    values, _ = random_frames(5, seed=6)
    j = 2
    perturbed = [v.copy() for v in values]
    perturbed[j] = 1.0 - perturbed[j]
    for kernel in ("relu", "softmax"):
        model = build_model(tiny_config(variant, kernel=kernel))
        base = [p.data for p in sequence_predictions(model, values)]
        new = [p.data for p in sequence_predictions(model, perturbed)]
        for i in range(j):
            np.testing.assert_array_equal(base[i], new[i])
        assert any(np.max(np.abs(base[i] - new[i])) > 1e-12 for i in range(j, 5))


def test_single_view_ignores_history_entirely():
    model = build_model(tiny_config("single_view"))
    values, _ = random_frames(4, seed=7)
    base = sequence_predictions(model, values)
    noise = [RNG(99).random((8, 8, 8)) for _ in range(3)] + [values[3]]
    noisy = sequence_predictions(model, [n if i < 3 else values[3]
                                         for i, n in enumerate(noise)])
    np.testing.assert_array_equal(base.data[3], noisy.data[3])


@pytest.mark.parametrize("variant,kernel", [("mvp", "relu"), ("mvp", "softmax"),
                                            ("mvt", "softmax")])
def test_multi_head_streaming_matches_unroll(variant, kernel):
    model = build_model(tiny_config(variant, kernel=kernel, attention_heads=2))
    values, _ = random_frames(4, seed=31)
    unrolled = sequence_predictions(model, values)
    state = model.init_state()
    for i, frame in enumerate(as_grids(values)):
        pred, state = forward_step(model, state, frame)
        np.testing.assert_allclose(pred.values, unrolled.data[i], atol=1e-12)


def test_multi_head_state_is_per_head_and_constant_for_mvp():
    model = build_model(tiny_config("mvp", attention_heads=2))
    state = model.init_state()
    assert len(state.layers[0]) == 2
    values, _ = random_frames(6, seed=32)
    sizes = []
    for frame in as_grids(values):
        _, state = forward_step(model, state, frame)
        sizes.append(state.nbytes)
    assert len(set(sizes)) == 1


def test_heads_must_divide_dims():
    with pytest.raises(ValueError, match="divisible"):
        build_model(tiny_config(attention_heads=3))


def test_mvp_and_mvt_agree_exactly_with_relu_kernel():
    mvp = build_model(tiny_config("mvp", kernel="relu"))
    mvt = build_model(tiny_config("mvt", kernel="relu"))
    for name, p in mvp.params.items():
        mvt.params[name].data = p.data.copy()
    values, _ = random_frames(5, seed=8)
    a = sequence_predictions(mvp, values)
    b = sequence_predictions(mvt, values)
    for pa, pb in zip(a, b):
        assert np.max(np.abs(pa.data - pb.data)) < 1e-8


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------


def test_bce_zero_when_prediction_equals_target():
    target = (RNG(9).random((4, 4, 4)) > 0.5).astype(np.float64)
    pred = Tensor(target[None].copy())
    loss = bce_from_predictions(pred, [target]).item()
    assert loss < 1e-6


def test_bce_half_prediction_is_ln2():
    target = (RNG(10).random((4, 4, 4)) > 0.3).astype(np.float64)
    pred = Tensor(np.full((1, 4, 4, 4), 0.5))
    loss = bce_from_predictions(pred, [target]).item()
    np.testing.assert_allclose(loss, np.log(2.0), atol=1e-12)


@pytest.mark.parametrize("target_shape", [(4, 4), (1, 4, 4)])
def test_bce_rejects_targets_shaped_unlike_predictions(target_shape):
    """A (4, 4) or (1, 4, 4) target would broadcast against a 4^3 frame."""
    pred = Tensor(np.full((1, 4, 4, 4), 0.5))
    shapes = f"{re.escape(str((1, *target_shape)))}.*{re.escape('(1, 4, 4, 4)')}"
    with pytest.raises(ValueError, match=shapes):
        bce_from_predictions(pred, [np.zeros(target_shape)])


def test_bce_rejects_zero_frames():
    with pytest.raises(ValueError, match=r"\(0, 4, 4, 4\)"):
        bce_from_predictions(Tensor(np.zeros((0, 4, 4, 4))), [])


def test_target_outside_unit_interval_rejected():
    model = build_model(tiny_config())
    frames, _ = random_frames(2, seed=11)
    bad = [np.full((8, 8, 8), 1.5)] * 2
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bce_from_predictions(sequence_predictions(model, frames), bad)


@pytest.mark.parametrize("variant", ["mvp", "mvt", "lstm", "single_view"])
def test_every_parameter_receives_gradient(variant):
    model = build_model(tiny_config(variant))
    frames, targets = random_frames(3, seed=12, density=0.3)
    loss = bce_from_predictions(sequence_predictions(model, frames), targets)
    loss.backward()
    for name, p in model.params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), f"dead parameter tensor {name}"


def test_multi_head_gradients_flow_everywhere():
    model = build_model(tiny_config("mvp", attention_heads=2, kernel="softmax"))
    frames, targets = random_frames(3, seed=33, density=0.3)
    loss = bce_from_predictions(sequence_predictions(model, frames), targets)
    loss.backward()
    for name, p in model.params.items():
        assert p.grad is not None and np.any(p.grad != 0.0), name


def test_loss_gradient_matches_finite_differences_sampled():
    # spot-check a few entries of every tensor against central differences
    config = tiny_config("mvp", kernel="relu")
    model = build_model(config)
    frames, targets = random_frames(2, seed=13, density=0.3)
    loss = bce_from_predictions(sequence_predictions(model, frames), targets)
    loss.backward()
    rng = RNG(14)
    h = 1e-5
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = bce_from_predictions(sequence_predictions(model, frames), targets).item()
            flat[idx] = orig - h
            dn = bce_from_predictions(sequence_predictions(model, frames), targets).item()
            flat[idx] = orig
            fd = (up - dn) / (2 * h)
            assert max_rel_error(np.array(gflat[idx]), np.array(fd)) < 1e-4, name


def test_training_step_reduces_loss_on_fixed_batch():
    model = build_model(tiny_config("mvp"))
    frames, targets = random_frames(2, seed=15, density=0.3)
    state = AdamState(learning_rate=3e-3)
    first = bce_from_predictions(sequence_predictions(model, frames), targets)
    start = first.item()
    first.backward()
    for _ in range(20):
        grads = gradients_of(model.params)
        zero_gradients(model.params)
        adam_update(model.params, grads, state)
        loss = bce_from_predictions(sequence_predictions(model, frames), targets)
        end = loss.item()
        loss.backward()
    zero_gradients(model.params)
    assert end < start
