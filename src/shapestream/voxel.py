"""Voxel-grid data model, point-cloud voxelization and the .vxg file format.

Grids are cubic r^3 occupancy-score lattices over a metric extent. Values are
float64 in [0, 1] in memory, indexed ``values[ix, iy, iz]``; on disk they are
float32, written x-fastest. ``origin`` is the world position of the grid's
low corner and ``voxel_size`` the cube edge of one cell, so voxel (i, j, k)
covers ``origin + [i, j, k] * h`` to ``origin + [i+1, j+1, k+1] * h``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

VXG_MAGIC = b"VXG1"
MAX_RESOLUTION = 4096
OCCUPANCY_THRESHOLD = 0.5  # a voxel is occupied when its score exceeds this


class VxgError(Exception):
    """Raised for malformed .vxg files."""


@dataclass
class VoxelGrid:
    values: np.ndarray    # (r, r, r), float64 in [0, 1], indexed [ix, iy, iz]
    origin: np.ndarray    # (3,) low-corner world position, meters
    voxel_size: float     # cell edge, meters

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.voxel_size = float(self.voxel_size)
        r = self.values.shape[0]
        if self.values.ndim != 3 or self.values.shape != (r, r, r):
            raise ValueError(f"grid values must be cubic, got shape {self.values.shape}")
        if not (np.isfinite(self.voxel_size) and self.voxel_size > 0):
            raise ValueError(f"voxel_size must be finite and positive, got {self.voxel_size}")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError(f"grid origin must be finite, got {self.origin}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        if self.values.size and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise ValueError("grid values must lie in [0, 1]")

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    @classmethod
    def zeros(cls, resolution: int, origin, voxel_size: float) -> "VoxelGrid":
        return cls(np.zeros((resolution,) * 3), origin, voxel_size)

    def binarize(self) -> "VoxelGrid":
        return VoxelGrid(self.occupancy().astype(np.float64), self.origin, self.voxel_size)

    def occupancy(self) -> np.ndarray:
        return self.values > OCCUPANCY_THRESHOLD

    def voxel_centers(self) -> np.ndarray:
        """World positions of all voxel centers, shape (r^3, 3), x fastest."""
        r = self.resolution
        idx = np.stack(np.meshgrid(np.arange(r), np.arange(r), np.arange(r),
                                   indexing="ij"), axis=-1)
        centers = self.origin + (idx + 0.5) * self.voxel_size
        return centers.transpose(2, 1, 0, 3).reshape(-1, 3)

    def world_to_index(self, points: np.ndarray) -> np.ndarray:
        return np.floor((np.asarray(points) - self.origin) / self.voxel_size).astype(np.int64)


@dataclass
class PointCloud:
    points: np.ndarray    # (n, 3) positions, meters

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud must be finite")

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(np.zeros((0, 3)))


def voxelize(cloud: PointCloud, resolution: int, origin, voxel_size: float
             ) -> tuple[VoxelGrid, int]:
    """Binary occupancy: a voxel is 1.0 iff at least one point maps into it.

    Returns (grid, dropped) where dropped counts points outside the extent.
    An empty cloud is a valid all-zero grid.
    """
    grid = VoxelGrid.zeros(resolution, origin, voxel_size)
    if len(cloud) == 0:
        return grid, 0
    idx = grid.world_to_index(cloud.points)
    inside = np.all((idx >= 0) & (idx < resolution), axis=1)
    kept = idx[inside]
    grid.values[kept[:, 0], kept[:, 1], kept[:, 2]] = 1.0
    return grid, int(len(cloud) - inside.sum())


# ---------------------------------------------------------------------------
# .vxg binary format: magic "VXG1" | u32 r | f32 origin[3] | f32 voxel_size |
# f32 values[r^3] x-fastest, all little-endian.
# ---------------------------------------------------------------------------


def write_vxg(grid: VoxelGrid, path) -> None:
    payload = grid.values.astype("<f4").ravel(order="F").tobytes()
    with open(path, "wb") as f:
        f.write(VXG_MAGIC)
        f.write(struct.pack("<I", grid.resolution))
        f.write(struct.pack("<3f", *grid.origin))
        f.write(struct.pack("<f", grid.voxel_size))
        f.write(payload)


def read_vxg(path) -> VoxelGrid:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != VXG_MAGIC:
        raise VxgError(f"bad magic {blob[:4]!r}, expected {VXG_MAGIC!r}")
    if len(blob) < 4 + 4 + 12 + 4:
        raise VxgError("truncated payload: header incomplete")
    (r,) = struct.unpack_from("<I", blob, 4)
    if r == 0 or r > MAX_RESOLUTION:
        raise VxgError(f"dimension overflow: r={r} outside 1..{MAX_RESOLUTION}")
    origin = struct.unpack_from("<3f", blob, 8)
    (voxel_size,) = struct.unpack_from("<f", blob, 20)
    expected = 24 + 4 * r ** 3
    if len(blob) < expected:
        raise VxgError(f"truncated payload: {len(blob)} bytes, expected {expected}")
    if len(blob) > expected:
        raise VxgError(f"trailing bytes: {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f4", offset=24)
    values = values.astype(np.float64).reshape((r, r, r), order="F")
    try:
        return VoxelGrid(values, np.asarray(origin), voxel_size)
    except ValueError as err:
        raise VxgError(f"malformed grid: {err}") from err


def write_pgm_slice(grid: VoxelGrid, path) -> None:
    """Mid-plane occupancy across z as an 8-bit ASCII PGM image (figure substitute)."""
    r = grid.resolution
    sl = grid.values[:, :, r // 2]
    img = np.round(sl * 255).astype(int)
    with open(path, "w") as f:
        f.write(f"P2\n{r} {r}\n255\n")
        for row in img.T[::-1]:  # y up on the page
            f.write(" ".join(str(v) for v in row) + "\n")
