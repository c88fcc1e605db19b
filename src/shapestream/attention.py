"""Kernelized causal attention with a constant-size associative memory.

The memory summarizing a key/value stream is the prefix-sum pair

    M = sum_j phi(k_j)^T v_j        (m x d)
    m_vec = sum_j phi(k_j)^T        (m,)

and a query retrieves  phi(q) M / (phi(q) . m_vec),  a convex combination of
the stored value vectors when phi is nonnegative. Storage is a function of
(m, d) only, independent of how many frames were absorbed.

Two feature maps are supported:
  * "relu":     phi(x) = max(0, x), deterministic, m == d_qk. The induced
                kernel ReLU(q).ReLU(k)^T is computed exactly, so linear and
                quadratic attention agree to round-off.
  * "softmax":  positive random features phi(x) = exp(x W^T - |x|^2/2)/sqrt(m)
                with unit-Gaussian rows W, an unbiased estimator of
                exp(q k^T).

The model computes it in one chunkwise form, ``causal_linear_attention_t``
(Katharopoulos et al. 2020, "Transformers are RNNs", sec. 3.4; Yang et al.
2024, "Gated Linear Attention Transformers"): c new rows read a memory plus
their own causal-masked weights phi(Q) phi(K)^T, then the memory absorbs
them. Training starts from fresh memories, streaming passes running ones.
The exact attention (``exact_causal_attention_t``) differs only in its
weights, exp(Q K^T - rowmax) or the relu kernel; both share one mask,
row-sum, fallback and normalize step: the mask for Lq > 1 query rows only,
the blend only when some row is degenerate. ``feature_map_apply_t`` is the
one feature map: the memory absorbs the phi(K) that the chunkwise form has
just weighed its own rows with. The row-by-row references are in the tests.

Degenerate rows: with the relu map all attention weights for a row can be
exactly zero. One rule covers every form: a row whose total weight is at
most EPS_DENOM returns the row's own value vector, keeping outputs finite
and causal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor

# division guard for near-empty attention rows
EPS_DENOM = 1e-9

KERNEL_KINDS = ("softmax", "relu")


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelFeatureMap:
    """Mapping phi: R^{d_qk} -> R^m with K(q, k) = E[phi(q).phi(k)]."""

    kind: str
    d_qk: int
    m: int
    seed: int = 0
    # softmax only: (m, d_qk) unit-Gaussian rows drawn from ``seed``
    projection: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.kind == "relu":
            if self.m != self.d_qk:
                raise ValueError(f"relu feature map requires m == d_qk, got m={self.m}, d_qk={self.d_qk}")
        else:
            object.__setattr__(self, "projection", np.random.default_rng(
                self.seed).standard_normal((self.m, self.d_qk)))


def feature_map(kind: str, d_qk: int, m: int | None = None, seed: int = 0
                ) -> KernelFeatureMap:
    """Build a feature map; regenerating with the same seed is exact."""
    if kind == "relu":
        return KernelFeatureMap(kind="relu", d_qk=d_qk, m=d_qk)
    if m is None:
        raise ValueError("softmax feature map requires a feature count m")
    return KernelFeatureMap(kind="softmax", d_qk=d_qk, m=m, seed=seed)


def feature_map_apply_t(fmap: KernelFeatureMap, x: Tensor) -> Tensor:
    """Differentiable phi for a row tensor of shape (L, d_qk); output (L, m)."""
    if fmap.kind == "relu":
        return x.relu()
    w = Tensor(fmap.projection)
    proj = x @ w.T                                   # (L, m)
    sq = (x * x).sum(axis=1, keepdims=True) * 0.5    # (L, 1)
    return (proj - sq).exp() * (1.0 / np.sqrt(fmap.m))


# ---------------------------------------------------------------------------
# associative memory
# ---------------------------------------------------------------------------


@dataclass
class AssociativeMemory:
    """Prefix-sum summary (M, m_vec) of an absorbed key/value stream."""

    fmap: KernelFeatureMap
    M: np.ndarray
    m_vec: np.ndarray
    count: int = 0

    @classmethod
    def fresh(cls, fmap: KernelFeatureMap, d: int) -> "AssociativeMemory":
        return cls(fmap=fmap, M=np.zeros((fmap.m, d)), m_vec=np.zeros(fmap.m), count=0)

    @property
    def nbytes(self) -> int:
        return self.M.nbytes + self.m_vec.nbytes


def memory_update(mem: AssociativeMemory, k: np.ndarray, v: np.ndarray) -> AssociativeMemory:
    """Absorb one (key, value) pair or (c, d_qk)/(c, d) rows in place; size is unchanged."""
    k, v = (np.asarray(a, dtype=np.float64) for a in (k, v))
    if k.ndim not in (1, 2) or k.shape[-1] != mem.fmap.d_qk:
        raise ValueError(f"key shape {k.shape} does not match d_qk={mem.fmap.d_qk}")
    if v.shape != k.shape[:-1] + (mem.M.shape[1],):
        raise ValueError(f"value shape {v.shape} does not match d={mem.M.shape[1]}")
    return _absorb(mem, np.atleast_2d(k), np.atleast_2d(v))


def _absorb(mem: AssociativeMemory, k: np.ndarray, v: np.ndarray, pk=None) -> AssociativeMemory:
    """Absorb (c, d_qk) keys and (c, d) values; ``pk`` is phi(k) if the caller has it."""
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(v))):
        raise ValueError("non-finite key or value rejected; memory unmodified")
    pk = feature_map_apply_t(mem.fmap, Tensor(k)).data if pk is None else pk
    # new arrays, not +=: a recorded graph may still read the old ones
    mem.M = mem.M + pk.T @ v
    mem.m_vec = mem.m_vec + pk.sum(axis=0)
    mem.count += len(pk)
    return mem


def memory_query(mem: AssociativeMemory, q: np.ndarray, fallback: np.ndarray
                 ) -> np.ndarray:
    """Retrieve phi(q) M / (phi(q).m_vec).

    A denominator at or below EPS_DENOM returns ``fallback`` instead: the
    degenerate-row rule, with the value vector of the query's own row.
    """
    if mem.count < 1:
        raise ValueError("query of an empty memory (denominator would be 0)")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (mem.fmap.d_qk,) or not np.all(np.isfinite(q)):
        raise ValueError(f"query must be one finite row of d_qk={mem.fmap.d_qk} values, "
                         f"got shape {q.shape}")
    pq = feature_map_apply_t(mem.fmap, Tensor(q[None])).data[0]
    denom = float(pq @ mem.m_vec)
    if denom <= EPS_DENOM:
        return np.asarray(fallback, dtype=np.float64).copy()
    return (pq @ mem.M) / denom


# ---------------------------------------------------------------------------
# differentiable parallel forms (used by the sequence model)
# ---------------------------------------------------------------------------


def _causal_mask(lq: int, length: int) -> np.ndarray:
    """(lq, length) 0/1 mask: query row a stands at key row length - lq + a
    and sees the keys up to and including its own."""
    return np.tri(lq, length, length - lq)


def _causal_average(weights: Tensor, V: Tensor, prefix: tuple | None = None) -> Tensor:
    """Mask (Lq > 1) -> row sum -> degenerate-row fallback (if any) -> normalise.

    ``weights`` (Lq, L) are nonnegative similarities of the query rows to every key
    row; ``prefix``, if given, adds a memory's weighted value sum and total weight. A
    row whose total weight is at most EPS_DENOM returns the value at its own position.
    """
    lq, length = weights.shape
    if lq > 1:
        weights = weights * _causal_mask(lq, length)
    values, total = weights @ V, weights.sum(axis=1, keepdims=True)
    if prefix is not None:
        values, total = values + prefix[0], total + prefix[1]
    keep = (total.data > EPS_DENOM).astype(np.float64)
    if keep.all():
        return values / total
    own = V.narrow(0, length - lq, lq)
    return values / (total + (1.0 - keep)) * keep + own * (1.0 - keep)


def _check_rows(Q: Tensor, K: Tensor, V: Tensor) -> None:
    if K.shape[0] < 1:
        raise ValueError("empty sequence")
    if V.shape[0] != K.shape[0] or not 1 <= Q.shape[0] <= K.shape[0]:
        raise ValueError(f"need 1 <= query rows <= key rows == value rows, got "
                         f"{Q.shape}, {K.shape}, {V.shape}")


def causal_linear_attention_t(Q: Tensor, K: Tensor, V: Tensor, memory: AssociativeMemory) -> Tensor:
    """Gradient-tracked linear attention, chunkwise form.

    K and V hold L rows; Q holds the last Lq <= L query rows. Row a equals
    a memory query after absorbing ``memory``'s rows and then the key/value
    rows up to its own position; ``memory`` then absorbs all L. Queries and
    keys pass through ``memory.fmap``, the map the memory absorbs with. An
    empty memory's M and m_vec are zero, so its prefix is not added.
    """
    _check_rows(Q, K, V)
    pq, pk = (feature_map_apply_t(memory.fmap, x) for x in (Q, K))
    out = _causal_average(pq @ pk.T, V, (pq @ Tensor(memory.M), pq @ Tensor(memory.m_vec[:, None]))
                          if memory.count else None)
    _absorb(memory, K.data, V.data, pk.data)
    return out


def exact_causal_attention_t(Q: Tensor, K: Tensor, V: Tensor,
                             kernel: str = "softmax") -> Tensor:
    """Gradient-tracked quadratic attention over (L, dim) rows; Q holds the
    last Lq <= L query rows, as in ``causal_linear_attention_t``."""
    if kernel not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNEL_KINDS}")
    _check_rows(Q, K, V)
    if kernel == "relu":
        return _causal_average(Q.relu() @ K.relu().T, V)
    logits = Q @ K.T
    if Q.shape[0] > 1:  # later keys are masked out before the row max, so reach no row
        logits = logits + np.where(_causal_mask(Q.shape[0], K.shape[0]), 0.0, -np.inf)
    return _causal_average((logits - logits.data.max(axis=1, keepdims=True)).exp(), V)
