"""Marching-cubes isosurface extraction, surface sampling and mesh export.

The input field is padded with a one-voxel zero border before extraction so
that solids touching the grid boundary still produce closed surfaces. Lattice
sample points are voxel centers. Vertices are created once per crossed
lattice edge (keyed by the edge's low corner and axis), which makes meshes of
padded solid fields watertight by construction.

Extraction is one array pass over all active cubes. It numbers vertices in
order of first use and computes each with the same arithmetic in the same
order as a cube-by-cube, edge-by-edge loop, so meshes match that loop byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from .voxel import OCCUPANCY_THRESHOLD, PointCloud, VoxelGrid

_DEGENERATE_AREA = 1e-18  # m^2; only exact duplicates fall below this

# TRI_TABLE padded to 16 edges per case, and each cube edge's lattice key:
# the offset of its low corner and its axis
_TRI_COUNT = np.array([len(tri_edges) for tri_edges in TRI_TABLE])
_TRI_EDGES = np.array([tri_edges + [0] * (16 - len(tri_edges)) for tri_edges in TRI_TABLE])
_EDGE_LOW = np.array([np.minimum(CORNER_OFFSETS[a], CORNER_OFFSETS[b]) for a, b in EDGE_CORNERS])
_EDGE_AXIS = np.array([np.flatnonzero(np.subtract(CORNER_OFFSETS[a], CORNER_OFFSETS[b]))[0]
                       for a, b in EDGE_CORNERS])


@dataclass
class Mesh:
    vertices: np.ndarray    # (v, 3) world positions
    triangles: np.ndarray   # (t, 3) vertex indices, outward-facing winding

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ValueError("triangle indices out of range")

    @classmethod
    def empty(cls) -> "Mesh":
        return cls(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))

    def is_empty(self) -> bool:
        return self.triangles.shape[0] == 0

    def triangle_areas(self) -> np.ndarray:
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def marching_cubes(grid: VoxelGrid) -> Mesh:
    """Extract the OCCUPANCY_THRESHOLD surface of a [0, 1] occupancy field.

    Standard 256-configuration tables with linear interpolation along lattice
    edges. An all-zero or all-one grid yields an empty mesh.
    """
    r = grid.resolution
    field = np.zeros((r + 2,) * 3)
    field[1:-1, 1:-1, 1:-1] = grid.values
    # lattice point (i,j,k) sits at the center of padded voxel (i,j,k)
    base = grid.origin[:, None] + (np.arange(r + 2)[None, :] - 0.5) * grid.voxel_size

    inside = field > OCCUPANCY_THRESHOLD
    if not inside.any() or inside.all():
        return Mesh.empty()

    # per-cube case index from the 8 corner inside-bits
    n = r + 1
    case = np.zeros((n, n, n), dtype=np.int32)
    for bit, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        case |= inside[ox : ox + n, oy : oy + n, oz : oz + n].astype(np.int32) << bit
    # a cube is crossed by the surface unless all 8 corners agree
    active = np.argwhere((case != 0) & (case != 255))

    # every triangle edge of every active cube, cube by cube in table order
    cases = case[tuple(active.T)]
    edges = _TRI_EDGES[cases][np.arange(16) < _TRI_COUNT[cases, None]]
    low = np.repeat(active, _TRI_COUNT[cases], axis=0) + _EDGE_LOW[edges]
    axis = _EDGE_AXIS[edges]
    key = ((low[:, 0] * (r + 2) + low[:, 1]) * (r + 2) + low[:, 2]) * 3 + axis
    # one vertex per lattice edge, numbered in order of first use
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    by_use = np.argsort(first)
    vertex_id = np.empty_like(by_use)
    vertex_id[by_use] = np.arange(len(by_use))
    ids = vertex_id[inverse].reshape(-1, 3)

    first_use = first[by_use]
    pa, axis = low[first_use], axis[first_use]
    pb = pa + np.eye(3, dtype=np.int64)[axis]
    va, vb = field[tuple(pa.T)], field[tuple(pb.T)]
    t = (OCCUPANCY_THRESHOLD - va) / (vb - va)
    vertices = np.stack([base[0, pa[:, 0]], base[1, pa[:, 1]], base[2, pa[:, 2]]], axis=1)
    vertices[np.arange(len(vertices)), axis] += t * grid.voxel_size

    i0, i1, i2 = ids.T
    keep = (i0 != i1) & (i1 != i2) & (i0 != i2)
    if not keep.any():
        return Mesh.empty()
    mesh = Mesh(vertices, np.stack([i0, i2, i1], axis=1)[keep])
    areas = mesh.triangle_areas()
    keep = areas > _DEGENERATE_AREA
    if not keep.all():
        mesh = Mesh(mesh.vertices, mesh.triangles[keep])
    return mesh


# ---------------------------------------------------------------------------
# surface sampling and export
# ---------------------------------------------------------------------------


def sample_surface_points(mesh: Mesh, n: int, seed: int) -> PointCloud:
    """n area-uniform surface samples; deterministic under seed."""
    if mesh.is_empty():
        raise ValueError("cannot sample an empty mesh")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    areas = mesh.triangle_areas()
    probs = areas / areas.sum()
    picks = rng.choice(len(areas), size=n, p=probs)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    a = mesh.vertices[mesh.triangles[picks, 0]]
    b = mesh.vertices[mesh.triangles[picks, 1]]
    c = mesh.vertices[mesh.triangles[picks, 2]]
    return PointCloud(a + u[:, None] * (b - a) + v[:, None] * (c - a))


def write_off(mesh: Mesh, path) -> None:
    """ASCII OFF export: header, counts, vertex lines, face lines '3 i j k'."""
    with open(path, "w") as f:
        f.write("OFF\n")
        f.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        for x, y, z in mesh.vertices:
            f.write(f"{x:.9g} {y:.9g} {z:.9g}\n")
        for i, j, k in mesh.triangles:
            f.write(f"3 {i} {j} {k}\n")
