"""Marching cubes topology/volume and area-uniform surface sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (edge_incidence, euler_characteristic, is_closed_manifold,
                     marching_cubes_naive, mesh_volume)
from shapestream.marching import Mesh, marching_cubes, sample_surface_points, write_off
from shapestream.mc_tables import TRI_TABLE
from shapestream.scenes import gen_object, make_sequence
from shapestream.voxel import VoxelGrid

RNG = np.random.default_rng


def _grid(values: np.ndarray, voxel_size: float = 0.01) -> VoxelGrid:
    return VoxelGrid(values, origin=(0.0, 0.0, 0.0), voxel_size=voxel_size)


def test_only_uniform_cubes_have_no_triangles():
    # marching_cubes visits exactly the cubes whose case is neither 0 nor 255,
    # so every other case must carry triangles
    assert len(TRI_TABLE) == 256
    for case, tri_edges in enumerate(TRI_TABLE):
        assert (len(tri_edges) > 0) == (case not in (0, 255)), case


def test_all_zero_grid_gives_empty_mesh():
    mesh = marching_cubes(_grid(np.zeros((8, 8, 8))))
    assert mesh.is_empty()


def test_all_one_grid_gives_empty_mesh_unpadded_field_is_closed_anyway():
    # the implicit zero border closes the field, so an all-ones grid meshes
    # as a solid box; an all-zero grid stays empty
    mesh = marching_cubes(_grid(np.ones((4, 4, 4))))
    assert not mesh.is_empty()
    assert is_closed_manifold(mesh)


def test_single_interior_voxel_is_closed_with_euler_2():
    values = np.zeros((8, 8, 8))
    values[4, 4, 4] = 1.0
    mesh = marching_cubes(_grid(values))
    assert not mesh.is_empty()
    assert is_closed_manifold(mesh)
    assert euler_characteristic(mesh) == 2
    assert mesh_volume(mesh) > 0  # outward winding


def test_solid_cube_volume_within_15_percent():
    r, side, h = 16, 5, 0.01
    values = np.zeros((r, r, r))
    values[5:10, 5:10, 5:10] = 1.0
    mesh = marching_cubes(_grid(values, voxel_size=h))
    assert is_closed_manifold(mesh)
    assert euler_characteristic(mesh) == 2
    vol = mesh_volume(mesh)
    expected = (side * h) ** 3
    assert abs(vol - expected) / expected < 0.15


def test_solid_sphere_closed_manifold_euler_2():
    r = 16
    grid = VoxelGrid.zeros(r, origin=(-0.15, -0.15, -0.15), voxel_size=0.3 / r)
    pts = grid.voxel_centers()
    inside = np.linalg.norm(pts, axis=1) <= 0.1
    vals = np.zeros(r ** 3)
    vals[inside] = 1.0
    # voxel_centers is x-fastest; rebuild [ix,iy,iz] layout
    grid.values[:] = vals.reshape(r, r, r).transpose(2, 1, 0)
    mesh = marching_cubes(grid)
    assert is_closed_manifold(mesh)
    assert euler_characteristic(mesh) == 2
    vol = mesh_volume(mesh)
    assert abs(vol - 4 / 3 * np.pi * 0.1 ** 3) / (4 / 3 * np.pi * 0.1 ** 3) < 0.2


def test_boundary_touching_solid_still_closes():
    values = np.ones((4, 4, 4))
    values[0, 0, 0] = 1.0
    mesh = marching_cubes(_grid(values))
    assert is_closed_manifold(mesh)


def test_every_edge_shared_by_exactly_two_triangles():
    values = np.zeros((6, 6, 6))
    values[2:4, 2:5, 2:4] = 1.0
    mesh = marching_cubes(_grid(values))
    counts = set(edge_incidence(mesh).values())
    assert counts == {2}


def test_no_degenerate_triangles_on_graded_field():
    rng = RNG(1)
    values = rng.random((10, 10, 10))
    mesh = marching_cubes(_grid(values))
    if not mesh.is_empty():
        assert mesh.triangle_areas().min() > 0


def test_interpolation_puts_vertices_between_samples():
    values = np.zeros((4, 4, 4))
    values[1, 1, 1] = 1.0
    h = 0.01
    mesh = marching_cubes(_grid(values, voxel_size=h))
    center = np.array([1.5 * h, 1.5 * h, 1.5 * h])
    dists = np.linalg.norm(mesh.vertices - center, axis=1)
    assert np.all(dists <= h * np.sqrt(3) / 2 + 1e-12)


def _assert_same_mesh(grid: VoxelGrid) -> None:
    got, want = marching_cubes(grid), marching_cubes_naive(grid)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.triangles.tobytes() == want.triangles.tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 8),
       field=st.sampled_from(("random", "binary", "exact_half")),
       origin=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
       voxel_size=st.floats(1e-4, 10.0))
def test_marching_cubes_matches_edge_by_edge_loop(seed, r, field, origin, voxel_size):
    # "exact_half" puts lattice values on the threshold itself, so vertices
    # land on lattice points and zero-area triangles reach the area filter
    rng = np.random.default_rng(seed)
    if field == "random":
        values = rng.random((r, r, r))
    elif field == "binary":
        values = (rng.random((r, r, r)) < rng.random()).astype(np.float64)
    else:
        values = rng.choice([0.0, 0.5, 1.0], (r, r, r))
    _assert_same_mesh(VoxelGrid(values, origin, voxel_size))


def test_marching_cubes_matches_edge_by_edge_loop_on_a_sequence():
    objects = [gen_object("box", 3), gen_object("union", 4)]
    seq = make_sequence("slide_behind", objects, 6, seed=5, resolution=16)
    for grid in seq.frames + seq.targets:
        _assert_same_mesh(grid)


# ---------------------------------------------------------------------------
# surface sampling
# ---------------------------------------------------------------------------


def _square_mesh() -> Mesh:
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(verts, tris)


def test_sample_single_triangle_stays_inside():
    mesh = Mesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
                np.array([[0, 1, 2]]))
    cloud = sample_surface_points(mesh, 3, seed=0)
    assert len(cloud) == 3
    for x, y, z in cloud.points:
        assert z == 0
        assert x >= 0 and y >= 0 and x + y <= 1 + 1e-12


def test_sample_unit_square_mean_near_centroid():
    cloud = sample_surface_points(_square_mesh(), 10_000, seed=1)
    mean = cloud.points.mean(axis=0)
    assert abs(mean[0] - 0.5) < 0.02 and abs(mean[1] - 0.5) < 0.02


def test_sample_area_ratio_9_to_1_binomial():
    verts = np.array([[0, 0, 0], [3, 0, 0], [0, 3, 0],    # area 4.5
                      [10, 0, 0], [11, 0, 0], [10, 1, 0]  # area 0.5
                      ], dtype=float)
    mesh = Mesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    n = 10_000
    cloud = sample_surface_points(mesh, n, seed=2)
    big = (cloud.points[:, 0] < 5).sum()
    p = 0.9
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(big - n * p) < 3 * sigma


def test_sampling_deterministic_under_seed():
    a = sample_surface_points(_square_mesh(), 100, seed=7).points
    b = sample_surface_points(_square_mesh(), 100, seed=7).points
    np.testing.assert_array_equal(a, b)
    c = sample_surface_points(_square_mesh(), 100, seed=8).points
    assert not np.array_equal(a, c)


def test_sampling_empty_mesh_rejected():
    with pytest.raises(ValueError, match="empty"):
        sample_surface_points(Mesh.empty(), 10, seed=0)


def test_off_export_format(tmp_path):
    mesh = _square_mesh()
    path = tmp_path / "m.off"
    write_off(mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "4 2 0"
    assert lines[-1] == "3 0 2 3"
