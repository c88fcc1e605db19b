"""Adam training loop over view sequences with validation checkpointing.

Training consumes the first ``train_views`` frames of each sequence (the
3/6/12-view ablation knob), which fit one forward pass of ``model.MAX_VIEWS``
(64) frames; validation runs the same forward without gradients over full
sequences. ``steps``, ``learning_rate`` and ``val_every`` are the fields of
``TrainSettings``, checked by ``checks.check_fields``. The best-validation checkpoint is
retained. Non-finite losses or gradients skip the step; ten consecutive
failures abort the run.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .autograd import no_grad
from .checkpoint import save_checkpoint
from .checks import check_fields, rule
from .metrics import jaccard_values
from .model import (
    ModelConfig,
    MvpModel,
    bce_from_predictions,
    build_model,
    sequence_predictions,
)
from .optim import AdamState, adam_update, gradients_of, zero_gradients

logger = logging.getLogger(__name__)

MAX_CONSECUTIVE_FAILURES = 10


class TrainingDiverged(RuntimeError):
    """Ten consecutive non-finite losses/gradients."""


@dataclass(frozen=True)
class TrainSettings:
    """The training loop's settings; ``train`` takes them as keywords."""
    steps: int = rule(500, min=0)
    learning_rate: float = 1e-3
    val_every: int = rule(100, min=1)


@dataclass
class TrainResult:
    rows: list = field(default_factory=list)   # (step, split, loss, jaccard)
    steps_run: int = 0
    best_val_jaccard: float = float("nan")
    final_train_jaccard: float = float("nan")
    model: MvpModel | None = None


def evaluate_sequences(model: MvpModel, sequences: list) -> tuple[float, float]:
    """(mean BCE, mean Jaccard) per frame over sequences of VoxelGrid frames
    and targets, each predicted by one gradient-free ``sequence_predictions``
    and scored by one loss call weighted by its frame count."""
    losses, jaccards = [], []
    for frames, targets in sequences:
        with no_grad():
            preds = sequence_predictions(model, frames)
        losses.append(bce_from_predictions(preds, targets).item())
        jaccards += [jaccard_values(p, t.values) for p, t in zip(preds.data, targets)]
    counts = [len(targets) for _, targets in sequences]
    return float(np.average(losses, weights=counts)), float(np.mean(jaccards))


def train(config: ModelConfig, train_data: list, val_data: list, steps: int,
          checkpoint_path, metrics_path=None, learning_rate: float = TrainSettings.learning_rate,
          val_every: int = TrainSettings.val_every, stop_at_train_jaccard: float | None = None
          ) -> TrainResult:
    """Shuffled single-sequence Adam steps on the BCE objective.

    ``train_data`` / ``val_data`` are lists of (frames, targets) pairs of
    VoxelGrid lists. The trained model, metrics rows and the retained
    checkpoint are returned.
    """
    check_fields(TrainSettings(steps, learning_rate, val_every), "training", ValueError)
    model = build_model(config)
    train_data = [(f[: config.train_views], t[: config.train_views]) for f, t in train_data]
    state = AdamState(learning_rate=learning_rate)
    rng = np.random.default_rng(config.seed)
    result = TrainResult(model=model)

    # zero steps must leave the checkpoint at initialization
    save_checkpoint(checkpoint_path, config, model.params)
    best_val = -np.inf
    consecutive_failures = 0
    order: list[int] = []

    def run_validation(step: int):
        nonlocal best_val
        if not val_data:
            return
        val_loss, val_jacc = evaluate_sequences(model, val_data)
        result.rows.append((step, "val", val_loss, val_jacc))
        if val_jacc > best_val:
            best_val = val_jacc
            result.best_val_jaccard = val_jacc
            save_checkpoint(checkpoint_path, config, model.params)

    for step in range(1, steps + 1):
        if not order:
            order = list(rng.permutation(len(train_data)))
        frames, targets = train_data[order.pop()]

        preds = sequence_predictions(model, frames)
        target_values = [t.values for t in targets]
        loss_t = bce_from_predictions(preds, target_values)
        loss = loss_t.item()

        if np.isfinite(loss):
            loss_t.backward()
            grads = gradients_of(model.params)
            zero_gradients(model.params)
            applied = adam_update(model.params, grads, state)
        else:
            logger.warning("step %d: non-finite loss, skipping", step)
            applied = False
        if not applied:
            consecutive_failures += 1
            if consecutive_failures >= MAX_CONSECUTIVE_FAILURES:
                raise TrainingDiverged(f"{MAX_CONSECUTIVE_FAILURES} consecutive non-finite steps")
            continue
        consecutive_failures = 0
        result.steps_run = step

        step_jacc = float(np.mean([jaccard_values(p, tv)
                                   for p, tv in zip(preds.data, target_values)]))
        result.rows.append((step, "train", loss, step_jacc))

        if step % val_every == 0 or step == steps:
            run_validation(step)
            if stop_at_train_jaccard is not None:
                _, train_jacc = evaluate_sequences(model, train_data)
                result.final_train_jaccard = train_jacc
                if train_jacc >= stop_at_train_jaccard:
                    logger.info("step %d: train jaccard %.3f reached target %.3f",
                                step, train_jacc, stop_at_train_jaccard)
                    break

    if steps == 0:
        run_validation(0)
    if not val_data and steps > 0:
        save_checkpoint(checkpoint_path, config, model.params)
    if np.isnan(result.final_train_jaccard) and train_data:
        _, result.final_train_jaccard = evaluate_sequences(model, train_data)
    if metrics_path is not None:
        write_metrics_csv(metrics_path, result.rows)
    return result


def write_metrics_csv(path, rows: list) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "split", "loss", "jaccard"])
        for step, split, loss, jacc in rows:
            writer.writerow([step, split, f"{loss:.6f}", f"{jacc:.6f}"])
