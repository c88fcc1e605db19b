"""Attention-block throughput: constant-size memory vs stored-history attention.

Measures the median per-frame step cost of the two sequence blocks at several
history lengths L, with the model's own streaming calls. The mvp step is
``causal_linear_attention_t`` for the new row on each head's (m, d) memory,
independent of L; the mvt step appends it to an (L-1)-row key/value history
and runs ``exact_causal_attention_t`` over all L rows, as ``forward_step`` does.
``heads`` independent heads make up each step, as in a multi-head layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .attention import (
    KERNEL_KINDS,
    AssociativeMemory,
    causal_linear_attention_t,
    exact_causal_attention_t,
    feature_map,
)
from .autograd import Tensor, concat
from .checks import rule


@dataclass(frozen=True)
class BenchSettings:
    """``bench_attention``'s settings; it takes them as keywords. ``dim`` is
    the width of each head's keys, queries and values."""
    lengths: tuple = (16, 64, 256)
    dim: int = rule(256, min=1)
    heads: int = rule(8, min=1)
    trials: int = rule(200, min=1)
    kernel: str = rule("relu", choices=KERNEL_KINDS)
    seed: int = rule(0, min=0)


def _steps(L: int, fmap, dim: int, heads: int, kernel: str, seed: int) -> dict:
    """The mvp and mvt step at history length L, on inputs drawn from seed."""
    rng = np.random.default_rng(seed)
    memories = [AssociativeMemory(fmap, M=rng.standard_normal((fmap.m, dim)),
                                  m_vec=rng.standard_normal(fmap.m) ** 2, count=L)
                for _ in range(heads)]
    k_hist = rng.standard_normal((heads, L - 1, dim))
    v_hist = rng.standard_normal((heads, L - 1, dim))
    k = rng.standard_normal((heads, 1, dim))
    v = rng.standard_normal((heads, 1, dim))
    q = rng.standard_normal((heads, 1, dim))

    def memory_step():
        for h, mem in enumerate(memories):
            causal_linear_attention_t(Tensor(q[h]), Tensor(k[h]), Tensor(v[h]), mem)

    def history_step():
        for h in range(heads):
            exact_causal_attention_t(Tensor(q[h]), concat([Tensor(k_hist[h]), Tensor(k[h])]),
                                     concat([Tensor(v_hist[h]), Tensor(v[h])]), kernel)

    return {"mvp": memory_step, "mvt": history_step}


def bench_attention(lengths: tuple = BenchSettings.lengths, dim: int = BenchSettings.dim,
                    heads: int = BenchSettings.heads, trials: int = BenchSettings.trials,
                    kernel: str = BenchSettings.kernel, seed: int = BenchSettings.seed) -> dict:
    """Median step seconds per history length for both block kinds.

    Trial t runs every (length, block) step twice and times the second run,
    before trial t + 1 starts. So a slow phase of the host slows all lengths
    alike, and each timed step finds its own inputs in cache, not those of
    the length before it."""
    results = {"mvp": {}, "mvt": {}, "d": dim, "d_qk": dim, "heads": heads,
               "trials": trials, "kernel": kernel}
    fmap = feature_map(kernel, d_qk=dim, m=dim, seed=seed)
    steps = [(name, L, step) for L in lengths
             for name, step in _steps(L, fmap, dim, heads, kernel, seed).items()]
    samples = np.empty((len(steps), trials))
    for t in range(trials):
        for s, (_, _, step) in enumerate(steps):
            step()  # warm up caches and BLAS dispatch
            t0 = perf_counter()
            step()
            samples[s, t] = perf_counter() - t0
    for (name, L, _), row in zip(steps, samples):
        results[name][L] = float(np.median(row))
    lo, hi = min(lengths), max(lengths)
    results["ratios"] = {name: results[name][hi] / results[name][lo]
                         for name in ("mvp", "mvt")}
    return results


def format_table(results: dict) -> str:
    lengths = sorted(k for k in results["mvp"])
    lines = ["history length | mvp step (us) | mvt step (us)"]
    for L in lengths:
        lines.append(f"{L:>14d} | {results['mvp'][L] * 1e6:13.1f} "
                     f"| {results['mvt'][L] * 1e6:13.1f}")
    lines.append(
        f"step-time ratio L={lengths[-1]} vs L={lengths[0]}: "
        f"mvp {results['ratios']['mvp']:.2f}x, mvt {results['ratios']['mvt']:.2f}x")
    return "\n".join(lines)


def write_results(results: dict, path) -> None:
    serializable = dict(results)
    for name in ("mvp", "mvt"):
        serializable[name] = {str(k): v for k, v in results[name].items()}
    with open(path, "w") as f:
        json.dump(serializable, f, indent=2, sort_keys=True)
