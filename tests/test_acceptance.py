"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The two training-based criteria take a few minutes;
everything else finishes in seconds. Every tolerance and runtime budget is
asserted here, not just reported.
"""

import time

import numpy as np

from oracles import euler_characteristic, fscore_naive, fully_occluded_frames, \
    is_closed_manifold, jaccard_naive, mesh_volume
from shapestream.attention import (
    AssociativeMemory,
    causal_linear_attention_t,
    exact_causal_attention_t,
    feature_map,
    feature_map_apply_t,
    memory_update,
)
from shapestream.autograd import Tensor
from shapestream.bench import bench_attention
from shapestream.marching import marching_cubes
from shapestream.metrics import fscore, jaccard_values
from shapestream.model import ModelConfig, bce_from_predictions, build_model, \
    forward_step, sequence_predictions
from shapestream.scenes import gen_object, make_sequence
from shapestream.train import train
from shapestream.voxel import PointCloud, VoxelGrid

RNG = np.random.default_rng


def _report(num: int, description: str, ok: bool, detail: str, elapsed: float,
            budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num:2d}: {description} | {detail} "
          f"| {elapsed:.1f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def test_01_stream_batch_memory_equivalence():
    """The model's chunkwise attention over a whole sequence equals the same
    function streamed row by row through one running memory, as forward_step
    runs it."""
    t0 = time.time()
    rng = RNG(1)
    worst = 0.0
    for trial in range(100):
        kind = "relu" if trial % 2 == 0 else "softmax"
        L = int(rng.integers(1, 65))
        d = int(rng.integers(1, 33))
        fmap = (feature_map("relu", d_qk=d) if kind == "relu"
                else feature_map("softmax", d_qk=d, m=2 * d, seed=trial))
        Q, K = (Tensor(a) for a in rng.standard_normal((2, L, d)))
        V = Tensor(rng.standard_normal((L, d)))
        batch = causal_linear_attention_t(Q, K, V, AssociativeMemory.fresh(fmap, d=d)).data
        mem = AssociativeMemory.fresh(fmap, d=d)
        for i in range(L):
            row = causal_linear_attention_t(Q.narrow(0, i, 1), K.narrow(0, i, 1),
                                            V.narrow(0, i, 1), mem).data[0]
            worst = max(worst, float(np.max(np.abs(row - batch[i]))))
    _report(1, "stream/batch memory equivalence (both kernels, 100 sequences)",
            worst < 1e-10, f"max abs err {worst:.2e} < 1e-10", time.time() - t0, 10)


def test_02_relu_kernel_exactness():
    """The model's linear attention (mvp), run in two chunks so that the
    second reads the first through the memory, equals its quadratic form
    (mvt) under the relu kernel."""
    t0 = time.time()
    rng = RNG(2)
    worst = 0.0
    for trial in range(100):
        L = int(rng.integers(1, 65))
        d = int(rng.integers(1, 33))
        split = int(rng.integers(1, L + 1))
        fmap = feature_map("relu", d_qk=d)
        Q, K = (Tensor(a) for a in rng.standard_normal((2, L, d)))
        V = Tensor(rng.standard_normal((L, d)))
        mem = AssociativeMemory.fresh(fmap, d=d)
        linear = np.concatenate([
            causal_linear_attention_t(*(t.narrow(0, a, b - a) for t in (Q, K, V)), mem).data
            for a, b in ((0, split), (split, L)) if b > a])
        exact = exact_causal_attention_t(Q, K, V, kernel="relu").data
        worst = max(worst, float(np.max(np.abs(linear - exact))))
    _report(2, "relu-kernel linear attention equals the quadratic form",
            worst < 1e-10, f"max abs err {worst:.2e} < 1e-10", time.time() - t0, 10)


def test_03_softmax_feature_unbiasedness():
    t0 = time.time()
    rng = RNG(42)
    d, draws, m = 8, 10_000, 64
    qs, ks = [], []
    for _ in range(20):
        q = rng.standard_normal(d)
        q *= rng.uniform(0, 2) / np.linalg.norm(q)
        k = rng.standard_normal(d)
        k *= rng.uniform(0, 2) / np.linalg.norm(k)
        qs.append(q)
        ks.append(k)
    Q, K = np.stack(qs), np.stack(ks)
    estimates = np.empty((draws, 20))
    for s in range(draws):
        fmap = feature_map("softmax", d_qk=d, m=m, seed=s)
        estimates[s] = np.einsum("ij,ij->i", feature_map_apply_t(fmap, Tensor(Q)).data,
                                 feature_map_apply_t(fmap, Tensor(K)).data)
    target = np.exp(np.einsum("ij,ij->i", Q, K))
    sem = estimates.std(axis=0, ddof=1) / np.sqrt(draws)
    z = np.abs(estimates.mean(axis=0) - target) / sem
    _report(3, "random softmax features unbiased (20 pairs, 10k draws, m=64)",
            bool((z < 3.0).all()), f"max |z| {z.max():.2f} < 3 standard errors",
            time.time() - t0, 60)


def test_04_constant_memory_vs_growing_history():
    t0 = time.time()
    fmap = feature_map("softmax", d_qk=16, m=32, seed=0)
    rng = RNG(4)
    sizes = []
    for length in (1, 10, 100):
        mem = AssociativeMemory.fresh(fmap, d=24)
        for _ in range(length):
            memory_update(mem, rng.standard_normal(16), rng.standard_normal(24))
        sizes.append(mem.nbytes)
    constant = sizes[0] == sizes[1] == sizes[2]

    config = ModelConfig(variant="mvt", resolution=8, latent_dim=16, qk_dim=8,
                         performer_layers=1, conv_channels=(2, 4), train_views=3,
                         seed=0)
    model = build_model(config)
    state = model.init_state()
    mvt_sizes = []
    for i in range(12):
        frame = VoxelGrid((rng.random((8, 8, 8)) < 0.2).astype(float), np.zeros(3), 0.04)
        _, state = forward_step(model, state, frame)
        mvt_sizes.append(state.nbytes)
    growing = all(b > a for a, b in zip(mvt_sizes, mvt_sizes[1:]))
    _report(4, "memory bytes constant in history; mvt state strictly grows",
            constant and growing,
            f"memory {sizes} bytes; mvt state {mvt_sizes[0]}..{mvt_sizes[-1]} bytes",
            time.time() - t0, 5)


def test_05_gradients_match_finite_differences():
    t0 = time.time()
    rng = RNG(5)
    config = ModelConfig(variant="mvp", resolution=8, latent_dim=16, qk_dim=8,
                         feature_count=8, kernel="relu", performer_layers=1,
                         conv_channels=(2, 4), train_views=3, seed=0)
    model = build_model(config)
    assert model.parameter_count <= 5000
    frames = [(rng.random((8, 8, 8)) < 0.25).astype(float) for _ in range(2)]
    targets = [(rng.random((8, 8, 8)) < 0.25).astype(float) for _ in range(2)]
    loss = bce_from_predictions(sequence_predictions(model, frames), targets)
    loss.backward()
    h = 1e-5
    worst = 0.0
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = bce_from_predictions(sequence_predictions(model, frames), targets).item()
            flat[i] = orig - h
            dn = bce_from_predictions(sequence_predictions(model, frames), targets).item()
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(gflat[i] - fd) / max(abs(fd), 1e-6))
    _report(5, f"autograd vs central differences on all {model.parameter_count} "
            "parameters", worst < 1e-4, f"max rel err {worst:.2e} < 1e-4",
            time.time() - t0, 300)


def _pan_overfit_data():
    data = []
    for i, kind in enumerate(("box", "sphere", "cylinder", "lshape")):
        obj = gen_object(kind, seed=100 + i)
        seq = make_sequence("camera_pan", [obj], 6, seed=200 + i, resolution=16)
        data.append((seq.frames, seq.targets))
    return data


def test_06_desk_scale_overfit(tmp_path):
    t0 = time.time()
    data = _pan_overfit_data()
    config = ModelConfig(variant="mvp", resolution=16, latent_dim=128, qk_dim=32,
                         kernel="relu", performer_layers=2, conv_channels=(8, 16, 32),
                         train_views=6, seed=0)
    result = train(config, data, [], steps=2000,
                   checkpoint_path=tmp_path / "overfit.mvpc",
                   learning_rate=3e-3, val_every=50, stop_at_train_jaccard=0.9)
    _report(6, "camera-pan overfit (r=16, 4 objects, L=6, <=2000 Adam steps)",
            result.final_train_jaccard >= 0.9 and result.steps_run <= 2000,
            f"train jaccard {result.final_train_jaccard:.3f} >= 0.9 after "
            f"{result.steps_run} steps", time.time() - t0, 1800)


def test_07_object_permanence_contrast(tmp_path):
    t0 = time.time()
    seqs, data = [], []
    for i, kind in enumerate(("box", "sphere", "cylinder", "lshape")):
        obj = gen_object(kind, seed=300 + i)
        seq = make_sequence("object_hiding", [obj], 8, seed=400 + i, resolution=16)
        seqs.append(seq)
        data.append((seq.frames, seq.targets))
    assert all(fully_occluded_frames(s) for s in seqs)

    def occluded_jaccard(model) -> float:
        vals = []
        for seq in seqs:
            occluded = set(fully_occluded_frames(seq))
            state = model.init_state()
            for i, (frame, target) in enumerate(zip(seq.frames, seq.targets)):
                pred, state = forward_step(model, state, frame)
                if i in occluded:
                    vals.append(jaccard_values(pred.values, target.values))
        return float(np.mean(vals))

    scores = {}
    for variant in ("mvp", "single_view"):
        config = ModelConfig(variant=variant, resolution=16, latent_dim=128,
                             qk_dim=32, kernel="relu", performer_layers=2,
                             conv_channels=(8, 16, 32), train_views=12, seed=0)
        result = train(config, data, [], steps=700,
                       checkpoint_path=tmp_path / f"{variant}.mvpc",
                       learning_rate=3e-3, val_every=100,
                       stop_at_train_jaccard=0.93)
        scores[variant] = occluded_jaccard(result.model)
    margin = scores["mvp"] - scores["single_view"]
    _report(7, "object permanence: trained mvp beats single_view on fully "
            "occluded frames",
            scores["mvp"] > scores["single_view"],
            f"mvp {scores['mvp']:.3f} vs single_view {scores['single_view']:.3f}, "
            f"margin {margin:+.3f}", time.time() - t0, 3600)


def test_08_metric_brute_force_oracles():
    t0 = time.time()
    rng = RNG(8)
    ok = True
    for case in range(50):
        r = int(rng.integers(4, 17))
        a = (rng.random((r, r, r)) > 0.6).astype(float)
        b = (rng.random((r, r, r)) > 0.6).astype(float)
        if jaccard_values(a, b) != jaccard_naive(a, b):
            ok = False
            break
        n1 = int(rng.integers(2, 501))
        n2 = int(rng.integers(2, 501))
        pred = PointCloud(rng.random((n1, 3)) * 0.3)
        gt = PointCloud(rng.random((n2, 3)) * 0.3)
        d = float(rng.uniform(0.005, 0.08))
        if fscore(pred, gt, d) != fscore_naive(pred.points, gt.points, d):
            ok = False
            break
    _report(8, "jaccard and f-score equal brute-force double loops (50 cases)",
            ok, "exact equality on every case", time.time() - t0, 30)


def test_09_marching_cubes_topology_and_volume():
    t0 = time.time()
    r, h = 16, 0.30 / 16
    sphere_grid = VoxelGrid.zeros(r, origin=(-0.15,) * 3, voxel_size=h)
    centers = sphere_grid.voxel_centers()
    occ = (np.linalg.norm(centers, axis=1) <= 0.1).reshape(r, r, r).transpose(2, 1, 0)
    sphere_grid.values[:] = occ.astype(float)
    sphere_mesh = marching_cubes(sphere_grid)
    sphere_ok = is_closed_manifold(sphere_mesh) and euler_characteristic(sphere_mesh) == 2

    cube_vals = np.zeros((r, r, r))
    cube_vals[5:10, 5:10, 5:10] = 1.0
    cube_mesh = marching_cubes(VoxelGrid(cube_vals, (-0.15,) * 3, h))
    cube_ok = is_closed_manifold(cube_mesh) and euler_characteristic(cube_mesh) == 2
    vol = mesh_volume(cube_mesh)
    expected = (5 * h) ** 3
    vol_ok = abs(vol - expected) / expected < 0.15
    _report(9, "solid sphere/cube mesh closed 2-manifolds, cube volume analytic",
            sphere_ok and cube_ok and vol_ok,
            f"euler 2 both; volume {vol:.3e} vs {expected:.3e} "
            f"({abs(vol - expected) / expected * 100:.1f}% error < 15%)",
            time.time() - t0, 5)


def test_10_model_causality():
    t0 = time.time()
    rng = RNG(10)
    models = {
        variant: build_model(ModelConfig(
            variant=variant, resolution=8, latent_dim=16, qk_dim=8, feature_count=8,
            kernel="relu", performer_layers=1, conv_channels=(2, 4), train_views=3,
            seed=0))
        for variant in ("mvp", "mvt", "lstm")
    }
    ok = True
    for trial in range(20):
        variant = ("mvp", "mvt", "lstm")[trial % 3]
        model = models[variant]
        L = int(rng.integers(3, 7))
        j = int(rng.integers(0, L))
        frames = [(rng.random((8, 8, 8)) < 0.25).astype(float) for _ in range(L)]
        base = [p.data for p in sequence_predictions(model, frames)]
        perturbed = [f.copy() for f in frames]
        perturbed[j] = 1.0 - perturbed[j]
        new = [p.data for p in sequence_predictions(model, perturbed)]
        before_identical = all(np.array_equal(base[i], new[i]) for i in range(j))
        after_changed = any(np.max(np.abs(base[i] - new[i])) > 0 for i in range(j, L))
        if not (before_identical and after_changed):
            ok = False
            break
    _report(10, "perturbing frame j changes only predictions i >= j "
            "(mvp/mvt/lstm, 20 trials)", ok, "exact invariance before j",
            time.time() - t0, 60)


def test_11_throughput_contrast():
    t0 = time.time()
    results = bench_attention(lengths=(16, 256), dim=256, heads=8,
                              trials=200, kernel="relu", seed=0)
    mvp_ratio = results["ratios"]["mvp"]
    mvt_ratio = results["ratios"]["mvt"]
    _report(11, "attention step time: mvp O(1) in history, mvt grows",
            mvp_ratio < 2.0 and mvt_ratio > 4.0,
            f"time(L=256)/time(L=16): mvp {mvp_ratio:.2f}x < 2, "
            f"mvt {mvt_ratio:.2f}x > 4", time.time() - t0, 120)
