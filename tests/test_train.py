"""Training loop: determinism, checkpoint retention, metrics log."""

from unittest import mock

import numpy as np
import pytest

import shapestream.model as model_module
import shapestream.train as train_module
from oracles import bce_naive
from shapestream import autograd
from shapestream.checkpoint import load_checkpoint, load_model
from shapestream.model import BCE_EPS, bce_from_predictions, build_model, sequence_predictions
from shapestream.optim import adam_update
from shapestream.train import TrainingDiverged, evaluate_sequences, train, write_metrics_csv

from test_model import as_grids, random_frames, tiny_config


def toy_dataset(n_seqs=2, frames_per=3, seed=0):
    data = []
    for s in range(n_seqs):
        f, t = random_frames(frames_per, seed=seed + s, density=0.25)
        data.append((as_grids(f), as_grids(t)))
    return data


def test_zero_steps_checkpoint_equals_initialization(tmp_path):
    config = tiny_config()
    path = tmp_path / "ck.mvpc"
    result = train(config, toy_dataset(), [], steps=0, checkpoint_path=path)
    assert result.steps_run == 0
    init = build_model(config)
    _, arrays = load_checkpoint(path)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(arr, init.params[name].data.astype(np.float32))


@pytest.mark.parametrize("settings,message", [
    ({"steps": -1}, "training steps must be >= 0"),
    ({"steps": 2.5}, "training steps must be an integer"),
    ({"val_every": 0}, "training val_every must be >= 1"),
    ({"learning_rate": float("nan")}, "training learning_rate must be a finite number > 0"),
], ids=["negative_steps", "fractional_steps", "val_every_zero", "nan_lr"])
def test_invalid_training_setting_raises_before_writing(tmp_path, settings, message):
    path = tmp_path / "ck.mvpc"
    with pytest.raises(ValueError, match=message):
        train(tiny_config(), toy_dataset(), [], checkpoint_path=path,
              **{"steps": 1, **settings})
    assert not path.exists()


def test_same_seed_identical_metrics_log(tmp_path):
    config = tiny_config()
    data = toy_dataset()
    r1 = train(config, data, data[:1], steps=6, checkpoint_path=tmp_path / "a.mvpc",
               val_every=3)
    r2 = train(config, data, data[:1], steps=6, checkpoint_path=tmp_path / "b.mvpc",
               val_every=3)
    assert r1.rows == r2.rows
    assert (tmp_path / "a.mvpc").read_bytes() == (tmp_path / "b.mvpc").read_bytes()


def test_metrics_csv_header_and_rows(tmp_path):
    rows = [(1, "train", 0.5, 0.1), (2, "val", 0.4, 0.2)]
    path = tmp_path / "log.csv"
    write_metrics_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,split,loss,jaccard"
    assert lines[1] == "1,train,0.500000,0.100000"
    assert len(lines) == 3


def test_best_validation_checkpoint_retained(tmp_path):
    config = tiny_config()
    data = toy_dataset()
    path = tmp_path / "ck.mvpc"
    result = train(config, data, data, steps=8, checkpoint_path=path, val_every=2)
    assert np.isfinite(result.best_val_jaccard)
    # the retained checkpoint reproduces the best recorded validation score
    model = load_model(path)
    _, jacc = evaluate_sequences(model, data)
    best_row = max((r for r in result.rows if r[1] == "val"), key=lambda r: r[3])
    # float32 storage perturbs the score only marginally
    assert abs(jacc - best_row[3]) < 1e-3


def test_training_declining_loss_on_overfit_smoke(tmp_path):
    config = tiny_config()
    data = toy_dataset(n_seqs=1)
    result = train(config, data, [], steps=30, checkpoint_path=tmp_path / "smoke.mvpc",
                   val_every=1000, learning_rate=3e-3)
    losses = [r[2] for r in result.rows if r[1] == "train"]
    assert losses[-1] < losses[0]


def test_train_views_limits_frames_consumed(tmp_path, monkeypatch):
    """Each gradient pass of train() sees the first train_views frames only."""
    frames, targets = random_frames(6, seed=5)
    data = [(as_grids(frames), as_grids(targets))]
    real, passes = model_module._forward, []

    def spy(model, values, state):
        if autograd._grad_enabled:
            passes.append(values.copy())
        return real(model, values, state)

    monkeypatch.setattr(model_module, "_forward", spy)
    result = train(tiny_config(train_views=3), data, [], steps=2,
                   checkpoint_path=tmp_path / "ck.mvpc")
    assert result.steps_run == 2
    assert len(passes) == 2
    for values in passes:
        np.testing.assert_array_equal(values, np.stack(frames[:3]))


def test_train_views_past_max_views_on_short_sequences_trains_and_loads(tmp_path,
                                                                        monkeypatch):
    """train_views only caps the frames used: 12 over 4-frame sequences is one
    pass at MAX_VIEWS=4, and the checkpoint it saves loads."""
    monkeypatch.setattr(model_module, "MAX_VIEWS", 4)
    config = tiny_config(train_views=12)
    path = tmp_path / "ck.mvpc"
    result = train(config, toy_dataset(frames_per=4), [], steps=1, checkpoint_path=path)
    assert result.steps_run == 1
    assert load_model(path).config == config


def test_validation_predicts_a_sequence_in_one_forward(monkeypatch):
    spy = mock.Mock(wraps=model_module._forward)
    monkeypatch.setattr(model_module, "_forward", spy)
    evaluate_sequences(build_model(tiny_config()), toy_dataset(n_seqs=1, frames_per=3))
    assert spy.call_count == 1


def test_validation_loss_is_the_frame_mean_over_unequal_sequences():
    """Sequences of 2 and 5 frames: every frame weighs the same in the loss."""
    model = build_model(tiny_config())
    data = toy_dataset(n_seqs=1, frames_per=2) + toy_dataset(n_seqs=1, frames_per=5, seed=1)
    with autograd.no_grad():
        want = np.mean([bce_naive(p, t.values, BCE_EPS) for frames, targets in data
                        for p, t in zip(sequence_predictions(model, frames).data, targets)])
    loss, _ = evaluate_sequences(model, data)
    assert abs(loss - want) <= 1e-12


def _fail_on_calls(monkeypatch, name: str, failing: set):
    """Make call n of ``train.<name>`` fail for each n in ``failing``: a NaN
    loss from ``bce_from_predictions``, a rejected step from ``adam_update``."""
    real = {"bce_from_predictions": bce_from_predictions, "adam_update": adam_update}[name]
    calls = [0]

    def wrapped(*args, **kwargs):
        calls[0] += 1
        if calls[0] not in failing:
            return real(*args, **kwargs)
        return real(*args, **kwargs) * float("nan") if name == "bce_from_predictions" else False

    monkeypatch.setattr(train_module, name, wrapped)


@pytest.mark.parametrize("name", ["bce_from_predictions", "adam_update"])
def test_failed_steps_write_no_row_and_ten_in_a_row_abort(tmp_path, monkeypatch, name):
    # nine failures, one applied step that resets the count, nine more failures
    _fail_on_calls(monkeypatch, name, set(range(1, 10)) | set(range(11, 20)))
    result = train(tiny_config(), toy_dataset(), [], steps=19,
                   checkpoint_path=tmp_path / "a.mvpc")
    assert [row[0] for row in result.rows if row[1] == "train"] == [10]
    assert result.steps_run == 10

    _fail_on_calls(monkeypatch, name, set(range(1, 11)))
    with pytest.raises(TrainingDiverged, match="10 consecutive"):
        train(tiny_config(), toy_dataset(), [], steps=11, checkpoint_path=tmp_path / "b.mvpc")

