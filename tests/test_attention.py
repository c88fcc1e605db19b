"""Kernel feature maps, associative memory, linear vs exact attention."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_attention_naive, linear_attention_naive
from shapestream import bench
from shapestream.attention import (
    EPS_DENOM,
    KERNEL_KINDS,
    AssociativeMemory,
    KernelFeatureMap,
    attend,
    causal_linear_attention_t,
    exact_causal_attention_t,
    feature_map,
    feature_map_apply_t,
    memory_query,
    memory_update,
)
from shapestream.autograd import Tensor

RNG = np.random.default_rng


def phi(fmap, x):
    """The feature map of one row or of (L, d_qk) rows, as arrays."""
    x = np.asarray(x, dtype=np.float64)
    return feature_map_apply_t(fmap, Tensor(np.atleast_2d(x))).data.reshape(
        x.shape[:-1] + (fmap.m,))


def linear(Q, K, V, fmap):
    """The model's chunkwise linear attention over a whole sequence, fresh memory."""
    return causal_linear_attention_t(Tensor(Q), Tensor(K), Tensor(V),
                                     AssociativeMemory.fresh(fmap, d=V.shape[1])).data


def exact(Q, K, V, kernel="softmax"):
    """The model's quadratic attention over a whole sequence."""
    return exact_causal_attention_t(Tensor(Q), Tensor(K), Tensor(V), kernel).data


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------


def test_relu_map_is_elementwise_max():
    fmap = feature_map("relu", d_qk=3)
    np.testing.assert_array_equal(
        phi(fmap, np.array([-1.0, 2.0, 0.0])), [0.0, 2.0, 0.0]
    )


def test_relu_map_requires_m_equal_dqk():
    with pytest.raises(ValueError, match="m == d_qk"):
        KernelFeatureMap(kind="relu", d_qk=3, m=5)


def test_softmax_map_at_zero_gives_exactly_one():
    # phi(0) entries are all 1/sqrt(m), so phi(0).phi(0) == 1 for any draw
    for seed in range(5):
        fmap = feature_map("softmax", d_qk=4, m=16, seed=seed)
        p = phi(fmap, np.zeros(4))
        assert p.shape == (16,)
        np.testing.assert_allclose(float(p @ p), 1.0, rtol=0, atol=1e-15)


def test_softmax_map_strictly_positive_and_seed_reproducible():
    fmap1 = feature_map("softmax", d_qk=6, m=32, seed=123)
    fmap2 = feature_map("softmax", d_qk=6, m=32, seed=123)
    np.testing.assert_array_equal(fmap1.projection, fmap2.projection)
    x = RNG(0).standard_normal(6) * 3
    assert np.all(phi(fmap1, x) > 0)


def test_softmax_map_unbiased_kernel_estimate():
    # fixed unit-norm q, k with q.k = 0.5; mean over many maps ~ exp(0.5)
    q = np.zeros(8)
    q[0] = 1.0
    k = np.zeros(8)
    k[0] = 0.5
    k[1] = np.sqrt(1 - 0.25)
    draws = 10_000
    estimates = np.empty(draws)
    for s in range(draws):
        fmap = feature_map("softmax", d_qk=8, m=64, seed=s)
        estimates[s] = phi(fmap, q) @ phi(fmap, k)
    mean = estimates.mean()
    sem = estimates.std(ddof=1) / np.sqrt(draws)
    assert abs(mean - np.exp(0.5)) < 3 * sem


def test_feature_map_dimension_mismatch_rejected():
    """A memory query is one finite (d_qk,) row; anything else is a ValueError."""
    mem = memory_update(AssociativeMemory.fresh(feature_map("relu", d_qk=3), d=2),
                        np.ones(3), np.ones(2))
    for q in (np.zeros(4), np.zeros((1, 3)), np.float64(1.0), np.array([1.0, np.nan, 0.0])):
        with pytest.raises(ValueError, match="d_qk=3"):
            memory_query(mem, q, fallback=np.zeros(2))


# ---------------------------------------------------------------------------
# associative memory
# ---------------------------------------------------------------------------


def test_fresh_memory_all_zero():
    mem = AssociativeMemory.fresh(feature_map("relu", d_qk=4), d=6)
    assert mem.count == 0
    assert not mem.M.any() and not mem.m_vec.any()


def test_single_update_is_outer_product():
    fmap = feature_map("relu", d_qk=3)
    mem = AssociativeMemory.fresh(fmap, d=2)
    k = np.array([1.0, -2.0, 0.5])
    v = np.array([3.0, 4.0])
    memory_update(mem, k, v)
    assert mem.count == 1
    np.testing.assert_allclose(mem.M, np.outer([1.0, 0.0, 0.5], v))
    np.testing.assert_allclose(mem.m_vec, [1.0, 0.0, 0.5])
    # a (c, d_qk)/(c, d) block is the same as its c rows one after another
    block = memory_update(AssociativeMemory.fresh(fmap, d=2),
                          np.stack([k, -k, 2 * k]), np.stack([v, -v, 0.5 * v]))
    rows = AssociativeMemory.fresh(fmap, d=2)
    for scale_k, scale_v in ((1, 1), (-1, -1), (2, 0.5)):
        memory_update(rows, scale_k * k, scale_v * v)
    assert block.count == rows.count == 3
    np.testing.assert_array_equal(block.M, rows.M)
    np.testing.assert_array_equal(block.m_vec, rows.m_vec)
    with pytest.raises(ValueError, match="value shape"):
        memory_update(block, np.stack([k, k]), v)


def test_single_frame_query_returns_value_exactly():
    fmap = feature_map("relu", d_qk=3)
    mem = AssociativeMemory.fresh(fmap, d=4)
    rng = RNG(1)
    k = np.abs(rng.standard_normal(3)) + 0.1
    v = rng.standard_normal(4)
    memory_update(mem, k, v)
    q = np.abs(rng.standard_normal(3)) + 0.1  # phi(q).phi(k) > 0
    np.testing.assert_allclose(memory_query(mem, q, fallback=np.zeros(4)), v,
                               rtol=0, atol=1e-14)


def test_two_equal_keys_query_returns_mean():
    fmap = feature_map("relu", d_qk=2)
    mem = AssociativeMemory.fresh(fmap, d=3)
    k = np.array([1.0, 1.0])
    v1 = np.array([1.0, 0.0, 2.0])
    v2 = np.array([0.0, 4.0, -2.0])
    memory_update(mem, k, v1)
    memory_update(mem, k, v2)
    np.testing.assert_allclose(memory_query(mem, k, fallback=np.zeros(3)), (v1 + v2) / 2,
                               atol=1e-14)


def test_weighted_two_frame_retrieval_hand_case():
    # relu kind: k1=(1,0), k2=(0,1), q=(2,1) -> weights (2,1) -> (2 v1 + v2)/3
    fmap = feature_map("relu", d_qk=2)
    mem = AssociativeMemory.fresh(fmap, d=2)
    v1 = np.array([1.0, 5.0])
    v2 = np.array([-3.0, 0.5])
    memory_update(mem, np.array([1.0, 0.0]), v1)
    memory_update(mem, np.array([0.0, 1.0]), v2)
    got = memory_query(mem, np.array([2.0, 1.0]), fallback=np.zeros(2))
    np.testing.assert_allclose(got, (2 * v1 + v2) / 3, atol=1e-14)


def test_memory_storage_independent_of_history_length():
    fmap = feature_map("softmax", d_qk=4, m=8, seed=0)
    sizes = []
    for length in (1, 10, 100):
        mem = AssociativeMemory.fresh(fmap, d=6)
        rng = RNG(length)
        for _ in range(length):
            memory_update(mem, rng.standard_normal(4), rng.standard_normal(6))
        sizes.append(mem.nbytes)
    assert sizes[0] == sizes[1] == sizes[2]


def test_non_finite_update_rejected_memory_unmodified():
    fmap = feature_map("relu", d_qk=2)
    mem = AssociativeMemory.fresh(fmap, d=2)
    memory_update(mem, np.ones(2), np.ones(2))
    before_m, before_vec = mem.M.copy(), mem.m_vec.copy()
    with pytest.raises(ValueError, match="non-finite"):
        memory_update(mem, np.array([np.nan, 1.0]), np.ones(2))
    np.testing.assert_array_equal(mem.M, before_m)
    np.testing.assert_array_equal(mem.m_vec, before_vec)
    assert mem.count == 1


def test_query_of_empty_memory_rejected():
    mem = AssociativeMemory.fresh(feature_map("relu", d_qk=2), d=2)
    with pytest.raises(ValueError, match="empty"):
        memory_query(mem, np.ones(2), fallback=np.zeros(2))


# ---------------------------------------------------------------------------
# exact attention (the quadratic oracle is itself checked against a naive loop)
# ---------------------------------------------------------------------------


def test_exact_attention_equal_keys_gives_running_mean():
    rng = RNG(2)
    L, d = 5, 3
    K = np.tile(rng.standard_normal(3), (L, 1))
    Q = rng.standard_normal((L, 3))
    V = rng.standard_normal((L, d))
    out = exact(Q, K, V, kernel="softmax")
    for i in range(L):
        np.testing.assert_allclose(out[i], V[: i + 1].mean(axis=0), atol=1e-12)


def test_exact_attention_two_step_hand_case():
    # q2.k1 = ln 3, q2.k2 = 0 -> row 2 = (3 v1 + v2) / 4
    Q = np.array([[1.0], [np.log(3.0)]])
    K = np.array([[1.0], [0.0]])
    V = np.array([[2.0, 0.0], [6.0, 4.0]])
    out = exact(Q, K, V, kernel="softmax")
    np.testing.assert_allclose(out[0], V[0], atol=1e-14)
    np.testing.assert_allclose(out[1], (3 * V[0] + V[1]) / 4, atol=1e-12)


def test_exact_attention_matches_naive_double_loop():
    rng = RNG(3)
    for kernel in ("softmax", "relu"):
        Q = rng.standard_normal((7, 4))
        K = rng.standard_normal((7, 4))
        V = rng.standard_normal((7, 5))
        np.testing.assert_allclose(
            exact(Q, K, V, kernel),
            exact_attention_naive(Q, K, V, kernel),
            atol=1e-12,
        )


def test_softmax_rows_live_in_prefix_convex_hull():
    rng = RNG(4)
    for _ in range(1000):
        L, d = int(rng.integers(1, 6)), 3
        Q = rng.standard_normal((L, 2))
        K = rng.standard_normal((L, 2))
        V = rng.standard_normal((L, d))
        out = exact(Q, K, V, kernel="softmax")
        for i in range(L):
            # recompute weights independently; positive and normalized
            w = np.exp(K[: i + 1] @ Q[i])
            w = w / w.sum()
            assert np.all(w > 0)
            np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)
            np.testing.assert_allclose(out[i], w @ V[: i + 1], atol=1e-9)
            assert np.all(out[i] <= V[: i + 1].max(axis=0) + 1e-9)
            assert np.all(out[i] >= V[: i + 1].min(axis=0) - 1e-9)


def test_relu_all_zero_weights_falls_back_to_current_value():
    Q = np.array([[-1.0, -1.0]])
    K = np.array([[1.0, 1.0]])
    V = np.array([[42.0, -7.0]])
    out = exact(Q, K, V, kernel="relu")
    np.testing.assert_array_equal(out[0], V[0])


def test_exact_attention_unknown_kernel_rejected():
    Q = np.ones((2, 3))
    for kernel in ("Softmax", "linear"):
        with pytest.raises(ValueError, match=re.escape(str(KERNEL_KINDS))):
            exact(Q, Q, Q, kernel)


def test_empty_sequence_rejected():
    empty = np.zeros((0, 3))
    with pytest.raises(ValueError, match="empty"):
        exact(empty, empty, empty)
    fmap = feature_map("relu", d_qk=3)
    with pytest.raises(ValueError, match="empty"):
        linear(empty, empty, empty, fmap)


# ---------------------------------------------------------------------------
# linear attention: factorization exactness and streaming equivalence
# ---------------------------------------------------------------------------


def test_linear_relu_equals_exact_relu():
    rng = RNG(5)
    fmap = feature_map("relu", d_qk=8)
    for _ in range(20):
        L = int(rng.integers(1, 33))
        Q = rng.standard_normal((L, 8))
        K = rng.standard_normal((L, 8))
        V = rng.standard_normal((L, 8))
        got = linear(Q, K, V, fmap)
        want = exact_attention_naive(Q, K, V, "relu")
        assert np.max(np.abs(got - want)) < 1e-10


def test_linear_single_row_returns_value():
    fmap = feature_map("softmax", d_qk=4, m=16, seed=0)
    rng = RNG(6)
    Q = rng.standard_normal((1, 4))
    K = rng.standard_normal((1, 4))
    V = rng.standard_normal((1, 5))
    np.testing.assert_allclose(linear(Q, K, V, fmap), V, atol=1e-12)


def test_linear_softmax_converges_to_exact_with_many_features():
    rng = RNG(7)
    L, d = 8, 6
    Q = rng.standard_normal((L, d))
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    K = rng.standard_normal((L, d))
    K /= np.linalg.norm(K, axis=1, keepdims=True)
    V = rng.standard_normal((L, d))
    fmap = feature_map("softmax", d_qk=d, m=4096, seed=11)
    got = linear(Q, K, V, fmap)
    want = exact_attention_naive(Q, K, V, "softmax")
    assert np.max(np.abs(got - want)) < 0.05


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["relu", "softmax"]),
    L=st.integers(1, 24),
    d=st.integers(1, 12),
    seed=st.integers(0, 2**31),
    cuts=st.sets(st.integers(1, 23), max_size=6),
)
def test_stream_equals_batch_property(kind, L, d, seed, cuts):
    """Row-by-row memory queries, the row-loop oracle, and the chunkwise form
    over a drawn split of the L rows into chunks all equal the batch result."""
    rng = RNG(seed)
    fmap = (feature_map("relu", d_qk=d) if kind == "relu"
            else feature_map("softmax", d_qk=d, m=2 * d, seed=seed))
    Q = rng.standard_normal((L, d))
    K = rng.standard_normal((L, d))
    V = rng.standard_normal((L, d + 1))
    batch = linear(Q, K, V, fmap)
    assert np.max(np.abs(linear_attention_naive(Q, K, V, fmap) - batch)) < 1e-10
    mem = AssociativeMemory.fresh(fmap, d=d + 1)
    for i in range(L):
        memory_update(mem, K[i], V[i])
        streamed = memory_query(mem, Q[i], fallback=V[i])
        assert np.max(np.abs(streamed - batch[i])) < 1e-10
    mem = AssociativeMemory.fresh(fmap, d=d + 1)
    bounds = [0, *sorted(c for c in cuts if c < L), L]
    chunks = [causal_linear_attention_t(Tensor(Q[a:b]), Tensor(K[a:b]), Tensor(V[a:b]),
                                        mem).data for a, b in zip(bounds, bounds[1:])]
    assert np.max(np.abs(np.concatenate(chunks) - batch)) < 1e-10
    assert mem.count == L


def test_causality_perturbation_only_affects_later_rows():
    rng = RNG(8)
    fmap = feature_map("relu", d_qk=5)
    L = 10
    Q = rng.standard_normal((L, 5))
    K = rng.standard_normal((L, 5))
    V = rng.standard_normal((L, 5))
    base = linear(Q, K, V, fmap)
    j = 4
    K2, V2 = K.copy(), V.copy()
    K2[j] += 1.0
    V2[j] -= 2.0
    pert = linear(Q, K2, V2, fmap)
    np.testing.assert_array_equal(base[:j], pert[:j])
    assert np.max(np.abs(base[j:] - pert[j:])) > 1e-6


def test_hopfield_style_nearest_neighbor_retrieval():
    # well-separated keys (pairwise dot <= 0 except self): querying with k_j
    # retrieves a vector whose best-matching value (by dot product) is v_j
    rng = RNG(9)
    d_qk, n = 8, 8
    keys = 2.0 * np.eye(n, d_qk)  # orthogonal, pairwise dot 0
    values = rng.standard_normal((n, 16))
    for j in range(n):
        out = exact(np.tile(keys[j], (n, 1)), keys, values, kernel="softmax")[-1]
        scores = values @ out
        assert scores.argmax() == j


# ---------------------------------------------------------------------------
# the model's forms agree with the row-by-row oracles
# ---------------------------------------------------------------------------


def _attention_inputs(rng, L=6, d=4):
    """(Q, K, V, Lq) cases: random rows; all-negative keys, so every relu row
    falls back to its own value; a last key whose logit dominates every row,
    so the row max must be taken after masking; a query block of the last
    Lq < L rows; one query row over all L keys, which no mask applies to; and
    keys negative in the first two rows only, so that with positive queries
    relu rows 0 and 1 fall back and the rest do not."""
    Q, K, V = (rng.standard_normal((L, d)) for _ in range(3))
    late = np.abs(K)
    late[-1] = 30.0
    some = np.abs(K)
    some[:2] *= -1.0
    return [(Q, K, V, L), (Q, -np.abs(K), V, L), (np.abs(Q), late, V, L), (Q, K, V, 2),
            (Q, K, V, 1), (np.abs(Q), some, V, L)]


def test_memory_absorbs_the_chunkwise_features():
    """After a chunk, the memory holds exactly the phi(K) that the chunkwise
    form weighed the chunk's own rows with."""
    rng = RNG(10)
    for fmap in (feature_map("relu", d_qk=6), feature_map("softmax", d_qk=6, m=12, seed=3)):
        Q, K, V = (rng.standard_normal((5, 6)) for _ in range(3))
        mem = AssociativeMemory.fresh(fmap, d=6)
        causal_linear_attention_t(Tensor(Q), Tensor(K), Tensor(V), mem)
        pk = feature_map_apply_t(fmap, Tensor(K)).data
        assert np.array_equal(mem.M, pk.T @ V)
        assert np.array_equal(mem.m_vec, pk.sum(axis=0))


def test_tensor_linear_attention_matches_ndarray():
    """The parallel form, and the chunkwise form over chunks of 1, 2 and 3
    rows into one memory, which ends equal to row-by-row updates."""
    for Q, K, V, lq in _attention_inputs(RNG(11)):
        for fmap in (feature_map("relu", d_qk=4),
                     feature_map("softmax", d_qk=4, m=8, seed=1)):
            want = linear_attention_naive(Q, K, V, fmap)
            got = causal_linear_attention_t(Tensor(Q[-lq:]), Tensor(K), Tensor(V),
                                            AssociativeMemory.fresh(fmap, d=V.shape[1]))
            np.testing.assert_allclose(got.data, want[-lq:], atol=1e-12)
            mem = AssociativeMemory.fresh(fmap, d=V.shape[1])
            for a, b in ((0, 1), (1, 3), (3, len(Q))):
                got = causal_linear_attention_t(Tensor(Q[a:b]), Tensor(K[a:b]),
                                                Tensor(V[a:b]), mem)
                np.testing.assert_allclose(got.data, want[a:b], atol=1e-12)
            rows = AssociativeMemory.fresh(fmap, d=V.shape[1])
            for k, v in zip(K, V):
                memory_update(rows, k, v)
            assert mem.count == rows.count == len(Q)
            np.testing.assert_allclose(mem.M, rows.M, rtol=0, atol=1e-12)
            np.testing.assert_allclose(mem.m_vec, rows.m_vec, rtol=0, atol=1e-12)


def test_tensor_exact_attention_matches_ndarray():
    for Q, K, V, lq in _attention_inputs(RNG(12)):
        for kernel in ("softmax", "relu"):
            want = exact_attention_naive(Q, K, V, kernel)[-lq:]
            got = exact_causal_attention_t(Tensor(Q[-lq:]), Tensor(K), Tensor(V), kernel)
            np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_tensor_attention_gradients_flow_to_inputs():
    """Gradients reach Q, K and V; a chunk read after a memory gets the same
    query gradient as those rows of the parallel form."""
    rng = RNG(13)
    L, d = 4, 3
    Q, K, V = (Tensor(rng.standard_normal((L, d)), requires_grad=True) for _ in range(3))
    fmap = feature_map("softmax", d_qk=d, m=6, seed=2)
    causal_linear_attention_t(Q, K, V, AssociativeMemory.fresh(fmap, d)).sum().backward()
    assert Q.grad is not None and K.grad is not None and V.grad is not None
    assert np.any(V.grad[0] != 0)
    whole = Tensor(Q.data, requires_grad=True)
    causal_linear_attention_t(whole, K, V, AssociativeMemory.fresh(fmap, d)
                              ).narrow(0, 2, 2).sum().backward()
    mem = AssociativeMemory.fresh(fmap, d)
    causal_linear_attention_t(Tensor(Q.data[:2]), Tensor(K.data[:2]), Tensor(V.data[:2]), mem)
    chunk = Tensor(Q.data[2:], requires_grad=True)
    causal_linear_attention_t(chunk, Tensor(K.data[2:]), Tensor(V.data[2:]), mem
                              ).sum().backward()
    np.testing.assert_allclose(chunk.grad, whole.grad[2:], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
def test_attend_advances_a_copy_of_either_slot(kernel):
    """The new row after a two-row slot, a memory or a key/value history: the
    rows match the whole-sequence forms, the returned slot holds all three
    rows, and the caller's slot keeps its arrays and count."""
    rng = RNG(14)
    Q, K, V = (rng.standard_normal((3, 4)) for _ in range(3))
    new = [Tensor(a[2:]) for a in (Q, K, V)]
    fmap = feature_map(kernel, d_qk=4, m=8, seed=5)
    memory = memory_update(AssociativeMemory.fresh(fmap, d=4), K[:2], V[:2])
    saved = (memory.M.copy(), memory.m_vec.copy())
    rows, advanced = attend(memory, *new, kernel)
    assert (memory.count, advanced.count) == (2, 3)
    assert np.array_equal(memory.M, saved[0]) and np.array_equal(memory.m_vec, saved[1])
    np.testing.assert_allclose(rows.data, linear(Q, K, V, fmap)[2:], atol=1e-12)
    whole = memory_update(AssociativeMemory.fresh(fmap, d=4), K, V)
    np.testing.assert_allclose(advanced.M, whole.M, atol=1e-12)
    np.testing.assert_allclose(advanced.m_vec, whole.m_vec, atol=1e-12)
    history = (K[:2].copy(), V[:2].copy())
    rows, advanced = attend(history, *new, kernel)
    assert np.array_equal(history[0], K[:2]) and np.array_equal(history[1], V[:2])
    assert np.array_equal(advanced[0], K) and np.array_equal(advanced[1], V)
    np.testing.assert_allclose(rows.data, exact(Q, K, V, kernel)[2:], atol=1e-12)


def test_bench_times_attend_from_the_same_state_on_both_slot_kinds(monkeypatch):
    """Every timed step, the warm-up run included, calls ``attend`` on each
    head's own slot: an L-row memory or an (L-1)-row history, never advanced."""
    calls = []

    def spy(slot, *rows):
        calls.append((slot, slot.count if isinstance(slot, AssociativeMemory) else len(slot[0])))
        return attend(slot, *rows)

    monkeypatch.setattr(bench, "attend", spy)
    bench.bench_attention(lengths=(2, 3), dim=4, heads=2, trials=1)
    assert len(calls) == 16  # 2 lengths x 2 kinds x 2 runs x 2 heads
    memories = [(slot, n) for slot, n in calls if isinstance(slot, AssociativeMemory)]
    assert sorted(n for _, n in memories) == [2] * 4 + [3] * 4
    assert sorted(n for slot, n in calls if isinstance(slot, tuple)) == [1] * 4 + [2] * 4
    assert len({id(slot) for slot, _ in memories}) == 4
    assert all(slot.count == n for slot, n in memories)
