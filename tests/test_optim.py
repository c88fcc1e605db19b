"""Adam updates against hand-computed and textbook-scripted references."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adam_reference, adam_update_naive
from shapestream.autograd import Tensor
from shapestream.optim import AdamState, adam_update, gradients_of, zero_gradients


def test_zero_gradient_leaves_params_and_moments_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    params = {"w": p}
    state = AdamState(learning_rate=0.1)
    assert adam_update(params, {"w": np.zeros(2)}, state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    np.testing.assert_array_equal(state.first_moment["w"], np.zeros(2))
    np.testing.assert_array_equal(state.second_moment["w"], np.zeros(2))
    assert state.step_count == 1


def test_first_step_with_unit_gradient_moves_by_lr():
    # bias-corrected first step: m_hat = 1, v_hat = 1 -> delta = lr / (1 + eps)
    p = Tensor(np.array([0.5]), requires_grad=True)
    state = AdamState(learning_rate=0.1)
    adam_update({"w": p}, {"w": np.ones(1)}, state)
    expected = 0.5 - 0.1 / (1.0 + state.epsilon)
    np.testing.assert_allclose(p.data, [expected], rtol=0, atol=1e-15)


def test_quadratic_bowl_converges_and_matches_textbook_run():
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState(learning_rate=0.05)
    for _ in range(500):
        adam_update({"w": p}, {"w": 2.0 * p.data}, state)
    assert abs(p.item()) < 1e-2
    ref = adam_reference(1.0, lambda w: 2.0 * w, lr=0.05, steps=500)
    np.testing.assert_allclose(p.item(), ref, rtol=0, atol=1e-12)


def test_non_finite_gradient_rejects_whole_step(caplog):
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([2.0]), requires_grad=True)
    state = AdamState()
    with caplog.at_level(logging.WARNING):
        applied = adam_update({"a": p, "b": q}, {"a": np.ones(1), "b": np.array([np.nan])},
                              state)
    assert not applied
    assert state.step_count == 0
    np.testing.assert_array_equal(p.data, [1.0])
    np.testing.assert_array_equal(q.data, [2.0])
    assert any("non-finite" in rec.message for rec in caplog.records)


def test_shape_mismatch_rejected():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="shape"):
        adam_update({"w": p}, {"w": np.ones(3)}, AdamState())


def test_step_count_strictly_increments():
    p = Tensor(np.ones(2), requires_grad=True)
    state = AdamState()
    for expected in range(1, 5):
        adam_update({"w": p}, {"w": np.ones(2)}, state)
        assert state.step_count == expected


def test_gradient_collection_helpers():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    (a * 3.0).sum().backward()
    grads = gradients_of({"a": a, "b": b})
    np.testing.assert_array_equal(grads["a"], 3.0 * np.ones(3))
    np.testing.assert_array_equal(grads["b"], np.zeros(3))
    zero_gradients({"a": a, "b": b})
    assert a.grad is None and b.grad is None


def test_in_place_update_matches_out_of_place_oracle_bitwise():
    """adam_update equals the formula with every intermediate its own array,
    bit for bit, over 7 steps of three parameters of different shapes (one
    never in ``grads``), with a rejected non-finite step in the middle."""
    rng = np.random.default_rng(11)
    shapes = {"w": (30, 20), "b": (50,), "k": (4, 5, 6)}
    # small parameters and a large rate, so that a step's last bit reaches them
    start = {name: 1e-2 * rng.standard_normal(shape) for name, shape in shapes.items()}
    params = {name: Tensor(a.copy(), requires_grad=True) for name, a in start.items()}
    oracle = {name: Tensor(a.copy(), requires_grad=True) for name, a in start.items()}
    state, oracle_state = AdamState(learning_rate=0.1), AdamState(learning_rate=0.1)

    def snapshot(ps, st_):
        return ([ps[n].data.tobytes() for n in shapes], st_.step_count,
                [st_.first_moment[n].tobytes() for n in shapes],
                [st_.second_moment[n].tobytes() for n in shapes])

    for step in range(7):
        grads = {name: rng.standard_normal(shapes[name]) * 10.0 ** rng.integers(-3, 3)
                 for name in ("w", "k")}
        if step == 3:
            grads["k"][1, 2, 3] = np.inf
            before = snapshot(params, state)
        applied = adam_update(params, grads, state)
        assert applied == adam_update_naive(oracle, grads, oracle_state) == (step != 3)
        assert snapshot(params, state) == snapshot(oracle, oracle_state)
        if step == 3:
            assert snapshot(params, state) == before
    assert state.step_count == 6
    assert snapshot(params, state)[0][1] == start["b"].tobytes()
