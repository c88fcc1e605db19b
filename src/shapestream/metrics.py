"""Reconstruction quality: Jaccard on grids, distance-thresholded F-score on
surface point clouds, and split-level evaluation reports.

F-score follows the mesh route: the predicted grid is meshed with marching
cubes, surface points are sampled area-uniformly from prediction and ground
truth, and precision/recall count points within a threshold of the other
cloud. The threshold is a fraction (default 1%) of the grid's world diagonal.
The neighbour test is grid-binned: a table of cell starts finds each point's
candidates in adjacent cells by lookup, and each candidate pair is scored with
the same arithmetic in the same order as a brute-force double loop, so it
matches that loop bit for bit. The oracle (prediction = target)
meshes and samples each frame once; a model predicts each sequence with one
gradient-free ``sequence_predictions``, the forward that training unrolls.
"""

from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .marching import Mesh, marching_cubes, sample_surface_points, write_off
from .autograd import no_grad
from .checks import rule
from .model import MvpModel, sequence_predictions
from .voxel import OCCUPANCY_THRESHOLD, PointCloud, VoxelGrid, write_pgm_slice, write_vxg

EXPORT_KINDS = ("grids", "meshes", "slices")


@dataclass(frozen=True)
class EvalSettings:
    """``evaluate_split``'s settings; it takes them as keywords. ``threshold``
    is a fraction of the grid diagonal, ``seed`` offsets each frame's sampling
    seed."""
    points: int = rule(2048, min=1)
    threshold: float = 0.01
    seed: int = rule(0, min=0)


def jaccard_values(a: np.ndarray, b: np.ndarray) -> float:
    """|A and B| / |A or B| on binarized arrays; two empties count as identical."""
    av = a > OCCUPANCY_THRESHOLD
    bv = b > OCCUPANCY_THRESHOLD
    union = np.logical_or(av, bv).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(av, bv).sum() / union)


def jaccard(a: VoxelGrid, b: VoxelGrid) -> float:
    if a.resolution != b.resolution:
        raise ValueError(f"resolution mismatch: {a.resolution} vs {b.resolution}")
    return jaccard_values(a.values, b.values)


_PAIR_CHUNK = 1 << 20  # pairs scored per block: 3 * 2**20 floats, the old 512 x 2048 x 3
_MAX_CELLS = 64  # cells per axis at most, so the cell table stays under 66**3 + 1 entries


def _within(a: np.ndarray, b: np.ndarray, dist: float) -> tuple[np.ndarray, np.ndarray]:
    """Per point of ``a``, whether ``b`` holds a point closer than ``dist``, and
    per point of ``b`` the same: only pairs in neighbouring grid cells a hair
    wider than ``dist`` and than span / ``_MAX_CELLS`` are scored, each with the
    brute force's expression. A block holds whole points of ``a``: at most
    ``_PAIR_CHUNK`` pairs, or one point's candidates if that is more."""
    n = len(a)
    both = np.concatenate([a, b]).T.copy()
    lo, hi = both.min(axis=1), both.max(axis=1)
    # the margin outweighs the rounding of (p - lo) / cell; indices start at 1,
    # so every cell next to a point has a key
    cell = max(dist, float((hi - lo).max()) / _MAX_CELLS) * (1 + 2.0 ** -20)
    nx, ny, nz = (np.floor((hi - lo) / cell).astype(np.int64) + 3).tolist()
    ix, iy, iz = np.floor((both - lo[:, None]) / cell).astype(np.int64) + 1
    keys = (ix * ny + iy) * nz + iz
    b_order = np.argsort(keys[n:])
    # table[k] counts b's points with key < k, so each of a point's 3 x 3
    # neighbouring z-columns is the run table[lower]:table[lower + 3] of b in key order
    table = np.concatenate(([0], np.cumsum(np.bincount(keys[n:], minlength=nx * ny * nz))))
    lower = (keys[:n, None] + (np.add.outer([-ny, 0, ny], [-1, 0, 1]) * nz - 1).ravel()).ravel()
    end = table[3:].take(lower)
    count = end - table.take(lower)
    last = np.cumsum(count)
    first, shift = np.concatenate(([0], last[8::9])), end - last  # pair k of run r: b[shift[r] + k]
    a_t, b_t = both[:, :n], both[:, n:][:, b_order]
    near_a, near_b = np.zeros(n, dtype=bool), np.zeros(len(b), dtype=bool)
    e0 = 0
    while e0 < n:
        e1 = max(e0 + 1, np.searchsorted(first, first[e0] + _PAIR_CHUNK, "right") - 1)
        c = np.diff(first[e0:e1 + 1])
        j = np.repeat(shift[9 * e0: 9 * e1], count[9 * e0: 9 * e1]) + np.arange(first[e0], first[e1])
        # the brute force's ((a[i] - b[j]) ** 2).sum(axis=1), term by term
        dx, dy, dz = (np.repeat(p[e0:e1], c) - q.take(j) for p, q in zip(a_t, b_t))
        close = np.sqrt(dx * dx + dy * dy + dz * dz) < dist
        some = e0 + np.flatnonzero(c)  # reduceat takes no empty run
        near_a[some] = np.logical_or.reduceat(close, first[some] - first[e0])
        near_b[j.compress(close)] = True
        e0 = e1
    near_b[b_order] = near_b.copy()
    return near_a, near_b


def fscore(pred: PointCloud, gt: PointCloud, dist: float) -> tuple[float, float, float]:
    """(precision, recall, F) at distance threshold ``dist``."""
    if len(pred) == 0 or len(gt) == 0:
        raise ValueError("empty point cloud (mesh extraction failed upstream)")
    if not (np.isfinite(dist) and dist > 0):
        raise ValueError(f"distance threshold must be finite and positive, got {dist}")
    precision, recall = (float(np.mean(h)) for h in _within(pred.points, gt.points, dist))
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f


# ---------------------------------------------------------------------------
# evaluation over dataset splits
# ---------------------------------------------------------------------------


@dataclass
class FrameMetrics:
    seq_id: str
    frame: int
    jaccard: float
    precision: float
    recall: float
    fscore: float
    flagged: bool = False  # empty mesh on either side; F recorded as 0


@dataclass
class MetricReport:
    protocol: str
    split: str
    threshold: float
    rows: list[FrameMetrics] = field(default_factory=list)

    @property
    def mean_jaccard(self) -> float:
        return float(np.mean([r.jaccard for r in self.rows])) if self.rows else float("nan")

    @property
    def mean_fscore(self) -> float:
        return float(np.mean([r.fscore for r in self.rows])) if self.rows else float("nan")

    def sequence_means(self) -> dict[str, dict[str, float]]:
        """Per-sequence arithmetic means over that sequence's frames."""
        out: dict[str, dict[str, float]] = {}
        for seq_id in sorted({r.seq_id for r in self.rows}):
            rows = [r for r in self.rows if r.seq_id == seq_id]
            out[seq_id] = {
                "jaccard": float(np.mean([r.jaccard for r in rows])),
                "fscore": float(np.mean([r.fscore for r in rows])),
            }
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["seq_id", "frame", "jaccard", "precision", "recall", "fscore"])
            for r in self.rows:
                writer.writerow([r.seq_id, r.frame, f"{r.jaccard:.6f}",
                                 f"{r.precision:.6f}", f"{r.recall:.6f}", f"{r.fscore:.6f}"])

    def summary(self) -> dict:
        return {
            "protocol": self.protocol,
            "split": self.split,
            "threshold": self.threshold,
            "frames": len(self.rows),
            "flagged_frames": sum(r.flagged for r in self.rows),
            "mean_jaccard": self.mean_jaccard,
            "mean_fscore": self.mean_fscore,
            "sequences": self.sequence_means(),
        }

    def write_summary(self, path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2, sort_keys=True,
                                         allow_nan=False))


def _surface_cloud(mesh: Mesh, n_points: int, seed: int) -> PointCloud | None:
    return None if mesh.is_empty() else sample_surface_points(mesh, n_points, seed)


def evaluate_split(model: MvpModel | None, sequences: list, protocol: str, split: str,
                   extent: float, points: int = EvalSettings.points,
                   threshold: float = EvalSettings.threshold, seed: int = EvalSettings.seed,
                   export_dir=None, export: tuple = ()) -> MetricReport:
    """Frame-by-frame metrics over (seq_id, frames, targets) triples.

    ``model=None`` is the oracle hook: the prediction is the target itself.
    A frame whose prediction or target meshes empty is flagged and scored
    F=0. Prediction and ground-truth clouds share one per-frame sampling
    seed, so identical meshes score F=1 exactly. Optional exports per frame:
    "grids" (.vxg), "meshes" (.off), "slices" (mid-plane .pgm).
    """
    report = MetricReport(protocol=protocol, split=split,
                          threshold=threshold * (extent * np.sqrt(3.0)))
    out = Path(export_dir) if export_dir is not None else None
    for seq_id, frames, targets in sequences:
        with no_grad():
            preds = targets if model is None else [
                VoxelGrid(p, f.origin, f.voxel_size)
                for p, f in zip(sequence_predictions(model, frames).data, frames)]
        for i, (pred, target) in enumerate(zip(preds, targets)):
            j = jaccard(pred, target)
            frame_seed = seed + 7919 * i + zlib.crc32(seq_id.encode()) % 65536
            pred_mesh = marching_cubes(pred)
            pred_cloud = _surface_cloud(pred_mesh, points, frame_seed)
            # the oracle's prediction is its target: same mesh, same seed, same cloud
            gt_cloud = (pred_cloud if pred is target
                        else _surface_cloud(marching_cubes(target), points, frame_seed))
            if pred_cloud is None or gt_cloud is None:
                row = FrameMetrics(seq_id, i, j, 0.0, 0.0, 0.0, flagged=True)
            else:
                p, r, f = fscore(pred_cloud, gt_cloud, report.threshold)
                row = FrameMetrics(seq_id, i, j, p, r, f)
            report.rows.append(row)
            if out is not None:
                _export_frame(out, seq_id, i, pred, pred_mesh, target, export)
    return report


def _export_frame(out: Path, seq_id: str, i: int, pred: VoxelGrid, pred_mesh: Mesh,
                  target: VoxelGrid, export: tuple) -> None:
    if "grids" in export:
        write_vxg(pred, out / f"{seq_id}_{i}_pred.vxg")
        write_vxg(target, out / f"{seq_id}_{i}_gt.vxg")
    if "meshes" in export and not pred_mesh.is_empty():
        write_off(pred_mesh, out / f"{seq_id}_{i}_pred.off")
    if "slices" in export:
        write_pgm_slice(pred, out / f"{seq_id}_{i}_pred.pgm")
        write_pgm_slice(target, out / f"{seq_id}_{i}_gt.pgm")
