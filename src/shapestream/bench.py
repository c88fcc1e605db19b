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
from time import perf_counter

import numpy as np

from .attention import (
    AssociativeMemory,
    causal_linear_attention_t,
    exact_causal_attention_t,
    feature_map,
)
from .autograd import Tensor, concat


def _steps(L: int, fmap, d: int, d_qk: int, heads: int, kernel: str, seed: int) -> dict:
    """The mvp and mvt step at history length L, on inputs drawn from seed."""
    rng = np.random.default_rng(seed)
    memories = [AssociativeMemory(fmap, M=rng.standard_normal((fmap.m, d)),
                                  m_vec=rng.standard_normal(fmap.m) ** 2, count=L)
                for _ in range(heads)]
    k_hist = rng.standard_normal((heads, L - 1, d_qk))
    v_hist = rng.standard_normal((heads, L - 1, d))
    k = rng.standard_normal((heads, 1, d_qk))
    v = rng.standard_normal((heads, 1, d))
    q = rng.standard_normal((heads, 1, d_qk))

    def memory_step():
        for h, mem in enumerate(memories):
            causal_linear_attention_t(Tensor(q[h]), Tensor(k[h]), Tensor(v[h]), fmap, mem)

    def history_step():
        for h in range(heads):
            exact_causal_attention_t(Tensor(q[h]), concat([Tensor(k_hist[h]), Tensor(k[h])]),
                                     concat([Tensor(v_hist[h]), Tensor(v[h])]), kernel)

    return {"mvp": memory_step, "mvt": history_step}


def bench_attention(lengths: tuple = (16, 64, 256), d: int = 256, d_qk: int = 256,
                    heads: int = 8, trials: int = 200, kernel: str = "relu",
                    seed: int = 0) -> dict:
    """Median step seconds per history length for both block kinds.

    Trial t runs every (length, block) step twice and times the second run,
    before trial t + 1 starts. So a slow phase of the host slows all lengths
    alike, and each timed step finds its own inputs in cache, not those of
    the length before it."""
    results = {"mvp": {}, "mvt": {}, "d": d, "d_qk": d_qk, "heads": heads,
               "trials": trials, "kernel": kernel}
    fmap = feature_map(kernel, d_qk=d_qk, m=d_qk, seed=seed)
    steps = [(name, L, step) for L in lengths
             for name, step in _steps(L, fmap, d, d_qk, heads, kernel, seed).items()]
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
