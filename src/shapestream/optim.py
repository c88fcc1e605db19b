"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor

logger = logging.getLogger(__name__)


@dataclass
class AdamState:
    """Per-parameter first/second moment stores plus hyperparameters.

    ``step_count`` increases by exactly 1 per applied update; an update
    rejected for non-finite gradients leaves it (and the moments) untouched.
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    # work arrays sized to the largest parameter, viewed per parameter by the update
    scratch_num: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False, compare=False)
    scratch_den: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False, compare=False)

    def ensure(self, params: dict[str, Tensor]):
        for name, p in params.items():
            if name not in self.first_moment:
                self.first_moment[name] = np.zeros_like(p.data)
                self.second_moment[name] = np.zeros_like(p.data)
            if p.data.size > self.scratch_num.size:
                self.scratch_num = np.empty(p.data.size)
                self.scratch_den = np.empty(p.data.size)


def adam_update(params: dict[str, Tensor], grads: dict[str, np.ndarray],
                state: AdamState) -> bool:
    """One bias-corrected Adam step, in place on ``params``.

    Returns True if the step was applied. A non-finite gradient anywhere
    rejects the whole step: parameters, moments and step_count are left
    unchanged and a diagnostic is logged.
    """
    state.ensure(params)
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"'{name}' shape {p.data.shape}"
            )
        if not np.all(np.isfinite(g)):
            logger.warning("non-finite gradient for '%s'; update rejected", name)
            return False

    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.first_moment[name]
        v = state.second_moment[name]
        step, denom = (a[:g.size].reshape(g.shape) for a in (state.scratch_num, state.scratch_den))
        # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps), op by op into the scratch
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=step)
        v *= b2
        v += np.multiply(np.multiply(g, g, out=step), 1.0 - b2, out=step)
        np.multiply(np.divide(m, bias1, out=step), state.learning_rate, out=step)
        np.add(np.sqrt(np.divide(v, bias2, out=denom), out=denom), state.epsilon, out=denom)
        p.data -= np.divide(step, denom, out=step)
    return True


def gradients_of(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Collect accumulated gradients (zeros for parameters never reached)."""
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }


def zero_gradients(params: dict[str, Tensor]):
    for p in params.values():
        p.zero_grad()
