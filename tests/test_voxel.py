"""Voxel grid model, voxelization and .vxg round trips."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import index_to_center, points_per_occupied_voxel
from shapestream.voxel import (
    PointCloud,
    VoxelGrid,
    VxgError,
    read_vxg,
    voxelize,
    write_pgm_slice,
    write_vxg,
)

RNG = np.random.default_rng


def _random_binary_grid(seed: int, r: int = 16) -> VoxelGrid:
    rng = RNG(seed)
    values = (rng.random((r, r, r)) > 0.7).astype(np.float64)
    return VoxelGrid(values, origin=(-0.15, -0.15, -0.15), voxel_size=0.3 / r)


def test_grid_rejects_out_of_range_values():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        VoxelGrid(np.full((4, 4, 4), 1.5), (0, 0, 0), 0.1)


def test_grid_rejects_non_cubic():
    for values in (np.zeros((4, 4, 5)), np.float64(1.0)):
        with pytest.raises(ValueError, match="cubic"):
            VoxelGrid(values, (0, 0, 0), 0.1)


def test_binarization_idempotent():
    rng = RNG(0)
    grid = VoxelGrid(rng.random((8, 8, 8)), (0, 0, 0), 0.1)
    once = grid.binarize()
    twice = once.binarize()
    np.testing.assert_array_equal(once.values, twice.values)


def test_world_index_round_trip():
    grid = VoxelGrid.zeros(8, origin=(-0.4, 0.0, 0.2), voxel_size=0.1)
    idx = np.array([[0, 3, 7], [5, 0, 1]])
    centers = index_to_center(grid, idx)
    np.testing.assert_array_equal(grid.world_to_index(centers), idx)


def test_single_point_at_center_occupies_one_voxel():
    grid, dropped = voxelize(PointCloud(np.array([[0.0, 0.0, 0.0]])),
                             resolution=8, origin=(-0.4, -0.4, -0.4), voxel_size=0.1)
    assert dropped == 0
    assert grid.values.sum() == 1.0
    assert grid.values[4, 4, 4] == 1.0


def test_empty_cloud_is_valid_zero_grid():
    grid, dropped = voxelize(PointCloud.empty(), 8, (0, 0, 0), 0.1)
    assert dropped == 0
    assert not grid.values.any()


def test_out_of_extent_points_dropped_and_counted():
    pts = np.array([[0.05, 0.05, 0.05], [9.0, 9.0, 9.0], [-1.0, 0.0, 0.0]])
    grid, dropped = voxelize(PointCloud(pts), 8, (0, 0, 0), 0.1)
    assert dropped == 2
    assert grid.values.sum() == 1.0


def test_voxelize_centers_reproduces_grid():
    grid = _random_binary_grid(3, r=12)
    occupied = grid.voxel_centers()[grid.values.transpose(2, 1, 0).reshape(-1) > 0.5]
    rebuilt, dropped = voxelize(PointCloud(occupied), grid.resolution,
                                grid.origin, grid.voxel_size)
    assert dropped == 0
    np.testing.assert_array_equal(rebuilt.values, grid.binarize().values)


def test_points_per_occupied_voxel_diagnostic():
    pts = np.array([[0.05, 0.05, 0.05], [0.051, 0.049, 0.05], [0.15, 0.15, 0.15]])
    grid, _ = voxelize(PointCloud(pts), 8, (0, 0, 0), 0.1)
    assert points_per_occupied_voxel(PointCloud(pts), grid) == 1.5


# ---------------------------------------------------------------------------
# .vxg io
# ---------------------------------------------------------------------------


def test_vxg_round_trip_bit_identical(tmp_path):
    # grid values, origin and voxel size chosen float32-representable, as on disk
    rng = RNG(5)
    values = np.round(rng.random((16, 16, 16)), 2).astype(np.float32).astype(np.float64)
    grid = VoxelGrid(values, origin=(-0.25, 0.5, 0.125), voxel_size=0.015625)
    path = tmp_path / "g.vxg"
    write_vxg(grid, path)
    back = read_vxg(path)
    assert back.resolution == 16
    np.testing.assert_array_equal(back.values, grid.values)
    np.testing.assert_array_equal(back.origin, grid.origin)
    assert back.voxel_size == grid.voxel_size


def test_vxg_double_round_trip_is_identity(tmp_path):
    grid = _random_binary_grid(6)
    p1, p2 = tmp_path / "a.vxg", tmp_path / "b.vxg"
    write_vxg(grid, p1)
    once = read_vxg(p1)
    write_vxg(once, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_vxg_payload_is_x_fastest(tmp_path):
    grid = VoxelGrid.zeros(2, (0, 0, 0), 1.0)
    grid.values[1, 0, 0] = 1.0  # second value in x-fastest order
    path = tmp_path / "o.vxg"
    write_vxg(grid, path)
    payload = np.frombuffer(path.read_bytes()[24:], dtype="<f4")
    np.testing.assert_array_equal(payload, [0, 1, 0, 0, 0, 0, 0, 0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), r=st.integers(2, 12),
       size_exp=st.integers(-8, -2))
def test_vxg_round_trip_property(seed, r, size_exp):
    rng = np.random.default_rng(seed)
    values = (rng.random((r, r, r)) > 0.5).astype(np.float64)
    origin = np.round(rng.uniform(-1, 1, 3) * 64) / 64  # f32-exact
    grid = VoxelGrid(values, origin, 2.0 ** size_exp)
    # One directory per example: a function-scoped fixture such as tmp_path
    # would be shared by every example hypothesis generates.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.vxg"
        write_vxg(grid, path)
        back = read_vxg(path)
    np.testing.assert_array_equal(back.values, grid.values)
    np.testing.assert_array_equal(back.origin, grid.origin)
    assert back.voxel_size == grid.voxel_size


def test_vxg_bad_magic(tmp_path):
    path = tmp_path / "bad.vxg"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(VxgError, match="bad magic"):
        read_vxg(path)


def test_vxg_truncated_payload(tmp_path):
    grid = _random_binary_grid(7, r=8)
    path = tmp_path / "t.vxg"
    write_vxg(grid, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(VxgError, match="truncated payload"):
        read_vxg(path)


def test_vxg_dimension_overflow(tmp_path):
    path = tmp_path / "d.vxg"
    path.write_bytes(b"VXG1" + (99999).to_bytes(4, "little") + b"\0" * 16)
    with pytest.raises(VxgError, match="dimension overflow"):
        read_vxg(path)


def _valid_vxg_bytes() -> bytes:
    grid = VoxelGrid.zeros(3, (-0.5, 0.0, 0.25), 0.125)
    grid.values[0, 1, 2] = grid.values[2, 0, 0] = 1.0
    grid.values[1, 1, 1] = 0.5
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.vxg"
        write_vxg(grid, path)
        return path.read_bytes()


VALID_VXG = _valid_vxg_bytes()  # a 3^3 grid, 132 bytes


def _patched(offset: int, fmt: str, value) -> bytes:
    out = bytearray(VALID_VXG)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


@pytest.mark.parametrize("blob,message", [
    (VALID_VXG + b"\0" * 4, "trailing bytes"),
    (_patched(4, "<I", 2), "trailing bytes"),
    (_patched(20, "<f", float("nan")), "voxel_size"),
    (_patched(20, "<f", float("inf")), "voxel_size"),
    (_patched(12, "<f", float("nan")), "origin"),
    (_patched(24, "<f", 2.0), r"\[0, 1\]"),
    (_patched(28, "<f", float("nan")), "finite"),
], ids=["trailing_bytes", "r_shrunk_by_one", "nan_voxel_size", "inf_voxel_size",
        "nan_origin", "value_2", "nan_value"])
def test_vxg_malformed_file_raises_vxg_error(tmp_path, blob, message):
    path = tmp_path / "m.vxg"
    path.write_bytes(blob)
    with pytest.raises(VxgError, match=message):
        read_vxg(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_vxg_single_byte_mutation_rejected_or_read_exactly(data):
    pos = data.draw(st.integers(0, len(VALID_VXG) - 1), label="pos")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != VALID_VXG[pos]), label="byte")
    mutated = VALID_VXG[:pos] + bytes([byte]) + VALID_VXG[pos + 1:]
    # One directory per example: a function-scoped fixture such as tmp_path
    # would be shared by every example hypothesis generates.
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "m.vxg", Path(tmp) / "again.vxg"
        path.write_bytes(mutated)
        try:
            grid = read_vxg(path)
        except VxgError:
            return
        write_vxg(grid, again)
        assert again.read_bytes() == mutated


def test_pgm_slice_export(tmp_path):
    grid = VoxelGrid.zeros(4, (0, 0, 0), 1.0)
    grid.values[1, 2, 2] = 1.0
    path = tmp_path / "mid.pgm"
    write_pgm_slice(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 4"
    assert any("255" == tok for tok in " ".join(lines[3:]).split())
