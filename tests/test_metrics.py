"""Jaccard / F-score against brute-force oracles; split evaluation."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fscore_naive, jaccard_naive, min_dists
from shapestream import metrics
from shapestream import model as model_module
from shapestream.marching import marching_cubes, sample_surface_points
from shapestream.metrics import (EvalSettings, MetricReport, evaluate_split, fscore, jaccard,
                                  jaccard_values)
from shapestream.model import build_model
from shapestream.voxel import PointCloud, VoxelGrid

from test_model import as_grids, random_frames, tiny_config

RNG = np.random.default_rng


def _grid(values) -> VoxelGrid:
    return VoxelGrid(values, np.zeros(3), 0.3 / values.shape[0])


# ---------------------------------------------------------------------------
# jaccard
# ---------------------------------------------------------------------------


def test_jaccard_identical_nonempty_is_one():
    v = (RNG(0).random((8, 8, 8)) > 0.5).astype(float)
    assert jaccard(_grid(v), _grid(v.copy())) == 1.0


def test_jaccard_disjoint_is_zero():
    a = np.zeros((4, 4, 4))
    b = np.zeros((4, 4, 4))
    a[0, 0, 0] = 1.0
    b[3, 3, 3] = 1.0
    assert jaccard(_grid(a), _grid(b)) == 0.0


def test_jaccard_hand_case_half():
    a = np.zeros((4, 4, 4))
    b = np.zeros((4, 4, 4))
    a[0, 0, 0] = a[1, 0, 0] = 1.0
    b[0, 0, 0] = 1.0
    assert jaccard(_grid(a), _grid(b)) == 0.5


def test_jaccard_both_empty_is_one():
    assert jaccard(_grid(np.zeros((4, 4, 4))), _grid(np.zeros((4, 4, 4)))) == 1.0


def test_jaccard_resolution_mismatch_rejected():
    with pytest.raises(ValueError, match="resolution"):
        jaccard(_grid(np.zeros((4, 4, 4))), _grid(np.zeros((8, 8, 8))))


def test_jaccard_symmetry_and_oracle_on_random_grids():
    rng = RNG(1)
    for _ in range(50):
        a = (rng.random((6, 6, 6)) > 0.6).astype(float)
        b = (rng.random((6, 6, 6)) > 0.6).astype(float)
        got = jaccard_values(a, b)
        assert got == jaccard_values(b, a)
        assert got == pytest.approx(jaccard_naive(a, b), abs=0)


def test_jaccard_monotone_in_correct_additions():
    rng = RNG(2)
    gt = (rng.random((6, 6, 6)) > 0.5).astype(float)
    pred = gt.copy()
    missing = np.argwhere((gt > 0.5) & True)
    rng.shuffle(missing)
    pred[tuple(missing[: len(missing) // 2].T)] = 0.0  # strict under-prediction
    last = jaccard_values(pred, gt)
    for idx in missing[: len(missing) // 2]:
        pred[tuple(idx)] = 1.0
        now = jaccard_values(pred, gt)
        assert now >= last
        last = now


# ---------------------------------------------------------------------------
# f-score
# ---------------------------------------------------------------------------


def test_fscore_identical_clouds_is_perfect():
    pts = PointCloud(RNG(3).random((100, 3)))
    assert fscore(pts, PointCloud(pts.points.copy()), 0.01) == (1.0, 1.0, 1.0)


def test_fscore_offset_beyond_threshold_is_zero():
    pts = RNG(4).random((50, 3))
    d = 0.005
    shifted = pts + np.array([2 * d, 0.0, 0.0])
    p, r, f = fscore(PointCloud(pts), PointCloud(shifted), d)
    assert (p, r, f) == (0.0, 0.0, 0.0)


def test_fscore_empty_cloud_rejected():
    with pytest.raises(ValueError, match="empty"):
        fscore(PointCloud.empty(), PointCloud(np.zeros((1, 3))), 0.01)


@pytest.mark.parametrize("dist", [0.0, -0.01, float("nan"), float("inf")])
def test_fscore_rejects_threshold_not_finite_and_positive(dist):
    pts = PointCloud(RNG(3).random((10, 3)))
    with pytest.raises(ValueError, match="finite and positive"):
        fscore(pts, pts, dist)


def test_fscore_matches_brute_force_double_loop():
    rng = RNG(5)
    for trial in range(5):
        pred = PointCloud(rng.random((40, 3)) * 0.3)
        gt = PointCloud(rng.random((35, 3)) * 0.3)
        d = 0.05
        got = fscore(pred, gt, d)
        want = fscore_naive(pred.points, gt.points, d)
        assert got == pytest.approx(want, abs=0), trial


def test_fscore_swaps_precision_recall_under_exchange():
    rng = RNG(6)
    a = PointCloud(rng.random((30, 3)))
    b = PointCloud(rng.random((25, 3)))
    p1, r1, f1 = fscore(a, b, 0.1)
    p2, r2, f2 = fscore(b, a, 0.1)
    assert (p1, r1) == (r2, p2)
    assert f1 == f2


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.5, 2.0))
def test_fscore_nondecreasing_in_threshold(seed, scale):
    rng = RNG(seed)
    a = PointCloud(rng.random((20, 3)) * scale)
    b = PointCloud(rng.random((20, 3)) * scale)
    fs = [fscore(a, b, d)[2] for d in (0.05, 0.1, 0.2, 0.5, 1.0)]
    assert all(y >= x for x, y in zip(fs, fs[1:]))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60), m=st.integers(1, 60),
       layout=st.sampled_from(("uniform", "lattice", "duplicates")),
       dist=st.sampled_from((1e-12, 1e-6, 0.01, 0.0173, 0.25, 1.0, 10.0)),
       offset=st.sampled_from((0.0, 1e3, -1e3)), chunk=st.sampled_from((1, 7, 1 << 20)))
def test_neighbour_test_matches_all_pairs_per_point(seed, n, m, layout, dist, offset, chunk):
    # "lattice" puts coordinates on multiples of dist, so many pairs lie exactly
    # dist apart (exactly so for the binary fractions 0.25 and 1.0); dist=10
    # exceeds the clouds' extent, n or m = 1 gives one-point clouds, and the
    # small chunks split the candidate pairs into many blocks
    rng = RNG(seed)
    if layout == "lattice":
        a, b = rng.integers(0, 4, (n, 3)) * dist, rng.integers(0, 4, (m, 3)) * dist
    else:
        a, b = rng.random((n, 3)) * 0.3, rng.random((m, 3)) * 0.3
    if layout == "duplicates":
        a = a[rng.integers(0, n, n)]
        b[: m // 2] = a[rng.integers(0, n, m // 2)]
    a, b = a + offset, b + offset
    with mock.patch.object(metrics, "_PAIR_CHUNK", chunk):
        near_a, near_b = metrics._within(a, b, dist)
    np.testing.assert_array_equal(near_a, min_dists(a, b) < dist)
    np.testing.assert_array_equal(near_b, min_dists(b, a) < dist)


def _eval_cloud(radius: float, seed: int, shift: float = 0.0) -> np.ndarray:
    """2,048 surface points of an r=16 ball, as ``eval`` samples them."""
    mesh = marching_cubes(VoxelGrid(_ball_grid(radius=radius), (-0.15,) * 3, 0.3 / 16))
    return sample_surface_points(mesh, EvalSettings.points, seed).points + shift


EVAL_DIST = EvalSettings.threshold * 0.3 * np.sqrt(3.0)  # the default threshold at extent 0.3


@pytest.mark.parametrize("case", ["different", "itself", "apart", "fine"])
def test_neighbour_test_matches_all_pairs_on_eval_clouds(case):
    # the hypothesis test's clouds fill only a few cells; these fill hundreds.
    # "apart" puts the clouds many cells apart on every axis, so no pair is a
    # candidate; "fine" takes a threshold far below span / _MAX_CELLS, so the
    # cells are as narrow as the floor allows
    a = _eval_cloud(0.07, seed=1)
    b, dist = {"different": (_eval_cloud(0.06, seed=2), EVAL_DIST),
               "itself": (a, EVAL_DIST),
               "apart": (_eval_cloud(0.06, seed=2, shift=0.5), EVAL_DIST),
               "fine": (a + RNG(3).normal(0.0, 1e-4, a.shape), 1e-4)}[case]
    near_a, near_b = metrics._within(a, b, dist)
    np.testing.assert_array_equal(near_a, min_dists(a, b) < dist)
    np.testing.assert_array_equal(near_b, min_dists(b, a) < dist)
    if case == "fine":
        assert dist * metrics._MAX_CELLS < np.ptp(a) and 0 < near_a.sum() < len(a)


def test_neighbour_test_memory_is_bounded_by_the_pair_chunk():
    # the threshold exceeds both clouds' span, so all 2,048 x 2,048 pairs are
    # candidates; one float64 array over all of them would take 32 MB. The
    # balls' centres lie 0.52 apart, so some points have no partner
    a, b = _eval_cloud(0.07, seed=1), _eval_cloud(0.07, seed=2, shift=0.3)
    dist = 0.45
    tracemalloc.start()
    try:
        with mock.patch.object(metrics, "_PAIR_CHUNK", 4096):
            near_a, near_b = metrics._within(a, b, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    np.testing.assert_array_equal(near_a, min_dists(a, b) < dist)
    np.testing.assert_array_equal(near_b, min_dists(b, a) < dist)
    assert 0 < near_a.sum() < len(a)


# ---------------------------------------------------------------------------
# split evaluation
# ---------------------------------------------------------------------------


def _ball_grid(r=16, radius=0.07) -> np.ndarray:
    grid = VoxelGrid.zeros(r, origin=(-0.15,) * 3, voxel_size=0.3 / r)
    pts = grid.voxel_centers()
    occ = (np.linalg.norm(pts, axis=1) <= radius).reshape(r, r, r).transpose(2, 1, 0)
    return occ.astype(np.float64)


def test_oracle_evaluation_is_perfect():
    target = VoxelGrid(_ball_grid(), (-0.15,) * 3, 0.3 / 16)
    sequences = [("seq-0", [target, target], [target, target])]
    report = evaluate_split(None, sequences, "camera_pan", "test", extent=0.30)
    assert report.mean_jaccard == 1.0
    assert report.mean_fscore >= 0.99
    assert not any(r.flagged for r in report.rows)


def _spy_on_surface_calls(monkeypatch) -> list:
    spies = []
    for name in ("marching_cubes", "sample_surface_points"):
        spies.append(mock.Mock(wraps=getattr(metrics, name)))
        monkeypatch.setattr(metrics, name, spies[-1])
    return spies


def test_oracle_meshes_and_samples_each_frame_once(monkeypatch):
    target = VoxelGrid(_ball_grid(8, 0.06), (-0.15,) * 3, 0.3 / 8)
    spies = _spy_on_surface_calls(monkeypatch)
    evaluate_split(None, [("seq-0", [target] * 3, [target] * 3)], "camera_pan", "test",
                   extent=0.30)
    assert [spy.call_count for spy in spies] == [3, 3]


def test_model_evaluation_meshes_and_samples_prediction_and_target(monkeypatch):
    r = 8
    frames, _ = random_frames(3, r=r, seed=7)
    target = VoxelGrid(_ball_grid(r, 0.06), (-0.15,) * 3, 0.3 / r)
    model = build_model(tiny_config("mvp", seed=3))
    model.params["dec.out_bias"].data = np.array(50.0)  # every voxel occupied
    spies = _spy_on_surface_calls(monkeypatch)
    report = evaluate_split(model, [("seq-0", as_grids(frames, r=r), [target] * 3)],
                            "camera_pan", "test", extent=0.30)
    assert not any(row.flagged for row in report.rows)
    assert [spy.call_count for spy in spies] == [6, 6]


def test_model_evaluation_predicts_a_sequence_in_one_forward(monkeypatch):
    frames, targets = random_frames(3, seed=8)
    spy = mock.Mock(wraps=model_module._forward)
    monkeypatch.setattr(model_module, "_forward", spy)
    report = evaluate_split(build_model(tiny_config()),
                            [("seq-0", as_grids(frames), as_grids(targets))],
                            "camera_pan", "test", extent=0.30)
    assert spy.call_count == 1
    assert len(report.rows) == 3


def test_all_zero_prediction_scores_zero_jaccard_and_flags():
    r = 8
    frames, _ = random_frames(2, r=r, seed=7, density=0.0)  # empty inputs
    target_vals = np.zeros((r, r, r))
    target_vals[3:5, 3:5, 3:5] = 1.0
    targets = as_grids([target_vals] * 2, r=r)
    model = build_model(tiny_config("single_view", seed=3))
    # an untrained model emits near-uniform scores; force a zero predictor by
    # driving the output bias very negative
    model.params["dec.out_bias"].data = np.array(-50.0)
    sequences = [("seq-0", as_grids(frames, r=r), targets)]
    report = evaluate_split(model, sequences, "camera_pan", "test", extent=0.30)
    assert report.mean_jaccard == 0.0
    assert all(row.flagged for row in report.rows)
    assert report.mean_fscore == 0.0


def test_report_csv_and_summary(tmp_path):
    target = VoxelGrid(_ball_grid(8, 0.06), (-0.15,) * 3, 0.3 / 8)
    sequences = [("seq-0", [target], [target]), ("seq-1", [target], [target])]
    report = evaluate_split(None, sequences, "object_hiding", "val", extent=0.30)
    csv_path = tmp_path / "frames.csv"
    report.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "seq_id,frame,jaccard,precision,recall,fscore"
    assert len(lines) == 3
    summary = report.summary()
    assert summary["split"] == "val"
    assert summary["frames"] == 2
    assert set(summary["sequences"]) == {"seq-0", "seq-1"}
    np.testing.assert_allclose(summary["threshold"], 0.01 * 0.30 * np.sqrt(3))


def test_exports_written(tmp_path):
    target = VoxelGrid(_ball_grid(8, 0.06), (-0.15,) * 3, 0.3 / 8)
    sequences = [("seq-0", [target], [target])]
    evaluate_split(None, sequences, "camera_pan", "test", extent=0.30,
                   export_dir=tmp_path, export=("grids", "meshes", "slices"))
    assert (tmp_path / "seq-0_0_pred.vxg").exists()
    assert (tmp_path / "seq-0_0_pred.off").exists()
    assert (tmp_path / "seq-0_0_pred.pgm").exists()


def test_summary_of_no_frames_is_refused_not_written_as_nan(tmp_path):
    # json.dumps would otherwise write the non-JSON token NaN for the means
    with pytest.raises(ValueError):
        MetricReport("camera_pan", "test", 0.01).write_summary(tmp_path / "summary.json")
