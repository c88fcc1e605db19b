"""Object corpus, depth raycasting and the five sequence protocols."""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (camera_rays, contains_naive, fully_occluded_frames, make_sequence_naive,
                     points_per_occupied_voxel, ray_depths, ray_entry_naive,
                     render_depth_view_naive)
from shapestream.objects import OBJECT_KINDS, SolidObject, gen_object, random_rotation
from shapestream.scenes import (
    DEFAULT_EXTENT,
    PROTOCOLS,
    RAY_FAR,
    RAY_NEAR,
    CameraPose,
    DatasetManifest,
    build_manifest,
    look_at,
    make_sequence,
    read_manifest,
    read_sequence_grids,
    realize_sequence,
    render_depth_view,
    split_objects,
    write_dataset,
)
from shapestream.voxel import VoxelGrid

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# objects
# ---------------------------------------------------------------------------


def test_gen_object_deterministic_under_seed():
    for kind in OBJECT_KINDS:
        a = gen_object(kind, seed=42)
        b = gen_object(kind, seed=42)
        pts = RNG(0).uniform(-0.1, 0.1, size=(500, 3))
        np.testing.assert_array_equal(a.contains(pts), b.contains(pts))
        np.testing.assert_array_equal(a.rotation, b.rotation)


def test_all_kinds_fit_inside_scene_extent():
    for kind in OBJECT_KINDS:
        for seed in range(30):
            obj = gen_object(kind, seed)
            assert obj.bounding_radius() < DEFAULT_EXTENT / 2, (kind, seed)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(OBJECT_KINDS), seed=st.integers(0, 2 ** 31 - 1),
       scale=st.sampled_from([1.0, 0.6]),
       offset=st.tuples(*[st.floats(-0.2, 0.2)] * 3))
def test_contained_points_lie_within_bounding_radius(kind, seed, scale, offset):
    # the raycaster skips rays whose line misses an object's bounding sphere,
    # which is exact only while no contained point lies beyond bounding_radius()
    obj = gen_object(kind, seed, scale).with_pose(translation=np.array(offset))
    reach = obj.bounding_radius()
    pts = obj.translation + RNG(seed).uniform(-1.5 * reach, 1.5 * reach, size=(4000, 3))
    inside = obj.contains(pts)
    assert inside.any()
    assert np.linalg.norm(pts[inside] - obj.translation, axis=1).max() <= reach


def _surface_points(obj, rng, n=40):
    """Points on each face, sphere and disc of ``obj``, in its parent's frame.
    For a primitive at the identity pose, the box faces and corners, the
    cylinder caps, and the points where a sphere or a cylinder's circle meets
    a local axis lie exactly on the surface; the rest lie on it up to rounding."""
    if obj.parts:
        local = np.vstack([_surface_points(part, rng, n) for part in obj.parts])
    else:
        dims = obj.dimensions
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        if obj.kind == "box":
            half = dims["half_extents"]
            faces = [rng.uniform(-half, half, size=(n, 3)) for _ in range(6)]
            for k, face in enumerate(faces):
                face[:, k // 2] = half[k // 2] * (-1) ** k
            local = np.vstack(faces + [half * np.sign(u)])  # and the corners
        elif obj.kind == "sphere":
            local = np.vstack([dims["radius"] * u, dims["radius"] * np.eye(3),
                               -dims["radius"] * np.eye(3)])
        else:
            rad, hh = dims["radius"], dims["half_height"]
            ring = rad * np.vstack([u[:, :2] / np.linalg.norm(u[:, :2], axis=1, keepdims=True),
                                    [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]])
            side = np.column_stack([ring, rng.uniform(-hh, hh, len(ring))])
            disc = np.vstack([ring, ring * rng.uniform(0, 1, (len(ring), 1))])
            cap = np.column_stack([disc, np.full(len(disc), hh)])
            local = np.vstack([side, cap, cap * [1.0, 1.0, -1.0]])
    return local @ obj.rotation.T + obj.translation


def _one_ulp_either_side(points):
    """``points``, and each coordinate moved one ulp up and one ulp down."""
    moved = [points]
    for k in range(3):
        for toward in (np.inf, -np.inf):
            q = points.copy()
            q[:, k] = np.nextafter(q[:, k], toward)
            moved.append(q)
    return np.vstack(moved)


@pytest.mark.parametrize("posed", [False, True])
@pytest.mark.parametrize("kind", OBJECT_KINDS)
def test_ball_description_matches_the_per_kind_reference(kind, posed):
    # contains and ray_entry read one ball list per primitive; both must give
    # the per-kind reference's bits, and the bounding-ball cull inside
    # ray_entry must never drop a hit that the unculled reference finds
    for seed in range(4):
        for scale in (1.0, 0.6):
            rng = RNG(seed)
            obj = gen_object(kind, seed, scale)
            if posed:
                obj = obj.with_pose(random_rotation(rng), rng.uniform(-0.1, 0.1, 3))
            else:  # local coordinates are the world coordinates, exactly
                obj = obj.with_pose(np.eye(3), np.zeros(3))
            reach = obj.bounding_radius()
            near_surface = _one_ulp_either_side(_surface_points(obj, rng))
            pts = np.vstack([near_surface, obj.translation
                             + rng.uniform(-1.3 * reach, 1.3 * reach, size=(4000, 3))])
            inside = obj.contains(pts)
            np.testing.assert_array_equal(inside, contains_naive(obj, pts))
            assert 0 < inside[: len(near_surface)].sum() < len(near_surface)

            targets = np.vstack([near_surface, obj.translation
                                 + rng.uniform(-reach, reach, size=(1000, 3))])
            # one origin 0.4 m away, outside the bounding ball, and one inside
            # it, where nothing is culled
            for origin in (obj.translation + 0.4 * random_rotation(rng)[0],
                           obj.translation + rng.uniform(-0.2, 0.2, 3) * reach):
                aimed = targets - origin
                spread = rng.standard_normal((2000, 3))
                dirs = np.vstack([aimed, spread, np.zeros((1, 3))])
                dirs *= rng.uniform(0.05, 20.0, size=(len(dirs), 1))  # any length
                got = obj.ray_entry(origin, dirs, RAY_NEAR)
                np.testing.assert_array_equal(got, ray_entry_naive(obj, origin, dirs,
                                                                   RAY_NEAR))
                assert np.isfinite(got[: len(aimed)]).mean() > 0.3


def test_sphere_voxel_count_matches_analytic_volume():
    r, extent = 16, 0.30
    sphere = SolidObject("sphere", {"radius": 0.05})
    grid = VoxelGrid.zeros(r, origin=(-extent / 2,) * 3, voxel_size=extent / r)
    occupied = sphere.contains(grid.voxel_centers()).sum()
    expected = (4 / 3) * np.pi * 0.05 ** 3 / (extent / r) ** 3
    assert abs(occupied - expected) / expected < 0.15


def test_lshape_is_non_convex():
    obj = gen_object("lshape", seed=3)
    grid = VoxelGrid.zeros(24, origin=(-0.15,) * 3, voxel_size=0.30 / 24)
    centers = grid.voxel_centers()
    inside = centers[obj.contains(centers)]
    rng = RNG(1)
    found = False
    for _ in range(20000):
        i, j = rng.integers(0, len(inside), size=2)
        mid = 0.5 * (inside[i] + inside[j])
        if not obj.contains(mid[None, :])[0]:
            found = True
            break
    assert found, "no inside pair with outside midpoint found"


def test_inside_test_consistent_under_pose():
    # membership is preserved when points are carried along with the pose
    base = gen_object("box", seed=9).with_pose(rotation=np.eye(3),
                                               translation=np.zeros(3))
    rot = random_rotation(RNG(4))
    shift = np.array([0.05, -0.02, 0.01])
    posed = base.with_pose(rotation=rot, translation=shift)
    pts = RNG(5).uniform(-0.1, 0.1, size=(2000, 3))
    moved = pts @ rot.T + shift
    np.testing.assert_array_equal(base.contains(pts), posed.contains(moved))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        gen_object("torus", seed=0)


# ---------------------------------------------------------------------------
# camera and raycasting
# ---------------------------------------------------------------------------


def test_look_at_points_camera_z_at_target():
    pose = look_at((0.5, 0.2, 0.3), (0.0, 0.0, 0.0))
    target_cam = pose.world_to_camera(np.zeros(3))[0]
    assert target_cam[2] > 0
    np.testing.assert_allclose(target_cam[:2], 0.0, atol=1e-12)
    # rigid round trip
    pts = RNG(0).standard_normal((10, 3))
    np.testing.assert_allclose(pose.world_to_camera(pose.camera_to_world(pts)), pts,
                               atol=1e-12)


def test_sphere_render_returns_front_hemisphere_only():
    sphere = SolidObject("sphere", {"radius": 0.06})
    pose = look_at((0.5, 0.0, 0.0), (0.0, 0.0, 0.0))
    cloud = render_depth_view([sphere], pose, image_size=48)
    assert len(cloud) > 0
    center_cam = pose.world_to_camera(np.zeros(3))[0]
    # every hit is nearer than the sphere center along the view axis
    assert np.all(cloud.points[:, 2] < center_cam[2] + 1e-9)
    # and on the surface
    radii = np.linalg.norm(cloud.points - center_cam, axis=1)
    np.testing.assert_allclose(radii, 0.06, atol=1e-6)


def test_box_face_on_hits_lie_on_one_plane():
    box = SolidObject("box", {"half_extents": np.array([0.04, 0.05, 0.05])})
    pose = look_at((0.5, 0.0, 0.0), (0.0, 0.0, 0.0))
    cloud = render_depth_view([box], pose, image_size=48)
    assert len(cloud) > 0
    depth = cloud.points[:, 2]
    residual = np.abs(depth - depth.mean()).max()
    assert residual < (0.30 / 16) / 4


def test_fully_hidden_rear_object_contributes_no_points():
    front = SolidObject("box", {"half_extents": np.array([0.05, 0.06, 0.06])})
    rear = SolidObject("sphere", {"radius": 0.02},
                       translation=np.array([-0.08, 0.0, 0.0]))
    pose = look_at((0.5, 0.0, 0.0), (0.0, 0.0, 0.0))
    cloud = render_depth_view([front, rear], pose, image_size=48)
    pts_world = pose.camera_to_world(cloud.points)
    assert len(cloud) > 0
    # every surface point belongs to the front box (tiny tolerance inflation)
    inflated = SolidObject("box", {"half_extents": np.array([0.051, 0.061, 0.061])})
    assert inflated.contains(pts_world).all()


def test_raycast_sphere_points_per_voxel_diagnostic():
    # density statistic is reported, not asserted to a particular value
    from shapestream.voxel import voxelize

    sphere = SolidObject("sphere", {"radius": 0.06})
    pose = look_at((0.5, 0.0, 0.25), (0.0, 0.0, 0.0))
    cloud = render_depth_view([sphere], pose, image_size=64)
    cloud_cam = cloud  # already in the camera frame
    grid, _ = voxelize(cloud_cam, 16, pose.world_to_camera(np.zeros(3))[0] - 0.15,
                       0.30 / 16)
    density = points_per_occupied_voxel(cloud_cam, grid)
    print(f"mean raycast points per occupied voxel: {density:.2f}")
    assert density > 0


def test_no_intersection_gives_empty_cloud():
    tiny = SolidObject("sphere", {"radius": 0.01},
                       translation=np.array([0.0, 5.0, 0.0]))
    pose = look_at((0.5, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert len(render_depth_view([tiny], pose, image_size=16)) == 0


def test_camera_inside_object_rejected():
    big = SolidObject("sphere", {"radius": 1.0})
    pose = look_at((0.5, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="inside"):
        render_depth_view([big], pose)


def _reference_scene(name):
    front = look_at((0.5, 0.0, 0.1), (0.0, 0.0, 0.0))
    if name in OBJECT_KINDS:
        return [gen_object(name, seed=4)], front
    if name == "overlapping_spheres":  # slide_behind's occluder and mover
        occluder = gen_object("union", 9, 0.6).with_pose(translation=np.array([0.06, 0.0, 0.0]))
        mover = gen_object("box", 2, 0.6).with_pose(translation=np.array([-0.04, -0.03, 0.0]))
        gap = np.linalg.norm(occluder.translation - mover.translation)
        assert gap < occluder.bounding_radius() + mover.bounding_radius()
        return [occluder, mover], look_at((0.55, 0.0, 0.15), (0.0, 0.0, 0.0))
    if name == "span_before_near":  # box face beyond RAY_NEAR, sphere span before it
        box = SolidObject("box", {"half_extents": np.full(3, 0.04)})
        assert 0.1 - box.bounding_radius() < RAY_NEAR < 0.1 - 0.04
        return [box], look_at((0.1, 0.0, 0.0), (0.0, 0.0, 0.0))
    if name == "grazed_by_edge_rays":
        edge = SolidObject("sphere", {"radius": 0.03}, translation=np.array([0.0, 0.25, 0.0]))
        return [edge], look_at((0.5, 0.0, 0.0), (0.0, 0.0, 0.0))
    if name == "behind_the_camera":  # a chord at negative t must not hit
        rear = SolidObject("sphere", {"radius": 0.1}, translation=np.array([0.8, 0.0, 0.0]))
        return [SolidObject("sphere", {"radius": 0.05}), rear], look_at((0.5, 0.0, 0.0),
                                                                        (0.0, 0.0, 0.0))
    assert name == "misses_everything"
    return [SolidObject("sphere", {"radius": 0.03}, translation=np.array([0.0, 0.0, 2.0]))], front


MARCH_STEP = 0.004


def _assert_agrees_with_march(objects, pose, image_size):
    """Compare the closed-form caster ray by ray with the march oracle; return
    the closed form's cloud and the rays where the two hit at different depths.

    Each closed-form hit lies on the surface. Where the march hits, the closed
    form hits too, at the same depth within 1e-8 m or nearer; nearer, or
    alone, only on a chord shorter than the march step, which can fall
    between two samples."""
    cloud = render_depth_view(objects, pose, image_size=image_size)
    closed = ray_depths(cloud, image_size)
    march = ray_depths(render_depth_view_naive(objects, pose, image_size, MARCH_STEP),
                       image_size)
    assert np.all(np.isfinite(closed) | np.isinf(march))
    hit = np.isfinite(closed)
    d = camera_rays(pose, image_size)[hit]
    t = closed[hit]
    entry = np.min([o.ray_entry(pose.position, d, RAY_NEAR) for o in objects], axis=0)
    np.testing.assert_allclose(entry, t, rtol=0, atol=1e-12)

    def inside(ts, d):  # ts (rays, probes) along the rays d (rays, 3)
        pts = (pose.position + ts[..., None] * d[:, None]).reshape(-1, 3)
        return np.any([o.contains(pts) for o in objects], axis=0).reshape(ts.shape)

    assert inside(t[:, None] + 1e-9, d).all()
    assert not inside(t[:, None] - 1e-9, d).any()
    differ = np.abs(t - march[hit]) > 1e-8
    assert np.all(t[differ] < march[hit][differ])
    # the chord entered at t is shorter than the step: a point less than one
    # step past t is outside. The march's first sample past t is one when the
    # march skipped the chord; a 1/256-step comb finds one when its bisection
    # passed the chord for a later entry between the same two samples.
    samples = np.arange(RAY_NEAR, RAY_FAR, MARCH_STEP)
    t_d = t[differ, None]
    probes = np.hstack([samples[np.searchsorted(samples, t_d)],
                        t_d + MARCH_STEP * np.arange(1, 256) / 256])
    assert not inside(probes, d[differ]).all(axis=1).any()
    return cloud, np.flatnonzero(hit)[differ]


@settings(max_examples=40, deadline=None)
@given(objects=st.lists(st.tuples(st.sampled_from(OBJECT_KINDS), st.integers(0, 2 ** 31 - 1),
                                  st.floats(0.4, 1.0), st.tuples(*[st.floats(-0.06, 0.06)] * 3)),
                        min_size=1, max_size=2),
       distance=st.floats(0.45, 0.65), azimuth=st.floats(0.0, 2 * np.pi),
       elevation=st.floats(-1.2, 1.2), image_size=st.integers(1, 24))
def test_closed_form_raycast_agrees_with_march(objects, distance, azimuth, elevation,
                                               image_size):
    scene = [gen_object(kind, seed, scale).with_pose(translation=np.array(offset))
             for kind, seed, scale, offset in objects]
    eye = distance * np.array([np.cos(azimuth) * np.cos(elevation),
                               np.sin(azimuth) * np.cos(elevation), np.sin(elevation)])
    _assert_agrees_with_march(scene, look_at(eye, (0.0, 0.0, 0.0)), image_size)


@pytest.mark.parametrize("name", [*OBJECT_KINDS, "overlapping_spheres", "span_before_near",
                                  "grazed_by_edge_rays", "misses_everything",
                                  "behind_the_camera"])
def test_culled_raycast_equals_unculled_reference(name):
    # fixed examples of the property above
    objects, pose = _reference_scene(name)
    got, _ = _assert_agrees_with_march(objects, pose, 24)
    if name == "grazed_by_edge_rays":
        assert 0 < len(got) <= 4
    elif name == "misses_everything":
        assert len(got) == 0
    else:
        assert len(got) > 0


def test_chord_through_ray_near_hits_at_ray_near():
    # 2 cm from the face, every ray is inside the box at RAY_NEAR
    box = SolidObject("box", {"half_extents": np.full(3, 0.04)})
    cloud = render_depth_view([box], look_at((0.06, 0.0, 0.0), (0.0, 0.0, 0.0)), image_size=8)
    assert len(cloud) == 64
    np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), RAY_NEAR, rtol=0, atol=1e-15)


def _axis_aligned_scene(name):
    side = look_at((0.5, 0.0, 0.0), (0.0, 0.0, 0.0))
    box = SolidObject("box", {"half_extents": np.array([0.04, 0.05, 0.03])})
    cylinder = SolidObject("cylinder", {"radius": 0.04, "half_height": 0.05})
    if name == "box_face_on":
        return [box], side
    if name == "cylinder_side_on":  # the optical axis meets the curved side
        return [cylinder], side
    assert name == "cylinder_end_on"  # the optical axis is the cylinder's axis
    # looking down world z, image x along world x and image y down world y
    return [cylinder], CameraPose(np.diag([1.0, -1.0, -1.0]), (0.0, 0.0, 0.5))


@pytest.mark.parametrize("image_size", [1, 9, 23])
@pytest.mark.parametrize("name", ["box_face_on", "cylinder_side_on", "cylinder_end_on"])
def test_rays_parallel_to_an_axis_hit_like_the_march(name, image_size):
    objects, pose = _axis_aligned_scene(name)
    center = image_size ** 2 // 2  # the ray on the optical axis
    assert np.array_equal(camera_rays(pose, image_size)[center] != 0, pose.rotation[:, 2] != 0)
    with np.errstate(all="raise"):
        cloud, differ = _assert_agrees_with_march(objects, pose, image_size)
    assert np.isfinite(ray_depths(cloud, image_size)[center])
    assert len(differ) == 0


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


def _partial_subset_of_full(seq) -> bool:
    for frame, target in zip(seq.frames, seq.targets):
        occ_in = frame.occupancy()
        occ_gt = target.occupancy()
        if np.any(occ_in & ~occ_gt):
            return False
    return True


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError, match="protocol"):
        make_sequence("spiral", [gen_object("box", 0)], 4, seed=0)


def test_camera_pan_poses_every_30_degrees():
    seq = make_sequence("camera_pan", [gen_object("box", 1)], 12, seed=0, resolution=8)
    angles = [np.arctan2(p.position[1], p.position[0]) for p in seq.camera_poses]
    diffs = np.degrees(np.diff(np.unwrap(angles)))
    np.testing.assert_allclose(diffs, 30.0, atol=1e-9)
    heights = [p.position[2] for p in seq.camera_poses]
    np.testing.assert_allclose(heights, heights[0])


def test_every_protocol_partial_subset_of_full():
    objs = [gen_object("box", 11, scale=0.6), gen_object("sphere", 12, scale=0.6)]
    single = [gen_object("lshape", 13)]
    for protocol in PROTOCOLS:
        use = objs if protocol in ("two_object_pan", "slide_behind") else single
        seq = make_sequence(protocol, use, 6, seed=5, resolution=12)
        assert _partial_subset_of_full(seq), protocol
        assert len(seq.frames) == len(seq.targets) == 6


def test_hiding_final_frame_empty_target_unchanged():
    seq = make_sequence("object_hiding", [gen_object("box", 2)], 8, seed=1, resolution=12)
    assert not seq.frames[-1].occupancy().any()
    assert seq.frames[0].occupancy().any()
    np.testing.assert_array_equal(seq.targets[-1].values, seq.targets[0].values)
    assert len(fully_occluded_frames(seq)) >= 1


def test_reveal_first_frame_empty_with_full_target():
    seq = make_sequence("object_reveal", [gen_object("box", 2)], 8, seed=1, resolution=12)
    assert not seq.frames[0].occupancy().any()
    assert seq.targets[0].occupancy().any()
    assert seq.frames[-1].occupancy().any()


def test_hiding_reversed_equals_reveal_masks():
    obj = [gen_object("cylinder", 7)]
    hide = make_sequence("object_hiding", obj, 9, seed=3, resolution=12)
    reveal = make_sequence("object_reveal", obj, 9, seed=3, resolution=12)
    for i in range(9):
        np.testing.assert_array_equal(hide.frames[8 - i].values, reveal.frames[i].values)


def test_pan_targets_consistent_under_relative_rotation():
    seq = make_sequence("camera_pan", [gen_object("box", 21)], 6, seed=2, resolution=16)
    first = seq.targets[0]
    pose0 = seq.camera_poses[0]
    for i in range(1, 6):
        target_i = seq.targets[i]
        centers_world = seq.camera_poses[i].camera_to_world(target_i.voxel_centers())
        centers_cam0 = pose0.world_to_camera(centers_world)
        idx = first.world_to_index(centers_cam0)
        ok = np.all((idx >= 0) & (idx < 16), axis=1)
        resampled = np.zeros(len(idx), dtype=bool)
        resampled[ok] = first.occupancy()[idx[ok, 0], idx[ok, 1], idx[ok, 2]]
        actual = target_i.occupancy().transpose(2, 1, 0).reshape(-1)
        agreement = np.mean(resampled == actual)
        assert agreement >= 0.95, (i, agreement)


def test_slide_behind_needs_two_objects():
    with pytest.raises(ValueError, match="2 objects"):
        make_sequence("slide_behind", [gen_object("box", 0)], 6, seed=0)


def test_slide_behind_targets_keep_both_objects():
    objs = [gen_object("box", 31, scale=0.6), gen_object("sphere", 32, scale=0.6)]
    seq = make_sequence("slide_behind", objs, 8, seed=4, resolution=12)
    occluder_only = make_sequence("slide_behind",
                                  [objs[0], SolidObject("sphere", {"radius": 1e-4})],
                                  8, seed=4, resolution=12)
    for t_both, t_one in zip(seq.targets, occluder_only.targets):
        assert t_both.occupancy().sum() > t_one.occupancy().sum()


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("resolution", [8, 12])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_sequence_equals_per_frame_reference(protocol, resolution, seed):
    # what a pose keeps for later frames changes no byte of any frame
    objects = [gen_object("union", seed, 0.6), gen_object("lshape", seed + 1, 0.6)]
    for length in (1, 6):
        got = make_sequence(protocol, objects, length, seed, resolution=resolution)
        want = make_sequence_naive(protocol, objects, length, seed, resolution=resolution)
        assert len(got.frames) == len(want.frames) == length
        for g, w in zip(got.frames + got.targets, want.frames + want.targets):
            assert np.array_equal(g.values, w.values)
            assert np.array_equal(g.origin, w.origin) and g.voxel_size == w.voxel_size
        for g, w in zip(got.camera_poses, want.camera_poses):
            assert np.array_equal(g.rotation, w.rotation)
            assert np.array_equal(g.position, w.position)
            assert g.memo is None


def _contains_calls_on_centers(protocol, objects, length, resolution=8):
    """The objects of each top-level ``SolidObject.contains`` call over all
    voxel centers while one sequence is made; part calls of a compound do not count."""
    real, depth, callers = SolidObject.contains, [0], []

    def spy(obj, points):
        if depth[0] == 0 and len(points) == resolution ** 3:
            callers.append(obj)
        depth[0] += 1
        try:
            return real(obj, points)
        finally:
            depth[0] -= 1
    with mock.patch.object(SolidObject, "contains", autospec=True, side_effect=spy):
        make_sequence(protocol, objects, length, seed=2, resolution=resolution)
    return callers


@pytest.mark.parametrize("length", [1, 7])
def test_static_parts_are_computed_once_per_sequence(length):
    objects = [gen_object("union", 5, 0.6), gen_object("lshape", 6, 0.6)]
    # slide_behind: the occluder once, and each frame's mover once
    callers = _contains_calls_on_centers("slide_behind", objects, length)
    assert len(callers) == len({id(obj) for obj in callers}) == length + 1
    assert len(_contains_calls_on_centers("object_hiding", objects, length)) == 1
    # camera_pan moves the camera every frame, so nothing is reused
    assert len(_contains_calls_on_centers("camera_pan", objects, length)) == length


def test_slide_behind_rejects_an_occluder_around_the_camera():
    around = SolidObject("sphere", {"radius": 1.0})
    with pytest.raises(ValueError, match="inside"):
        make_sequence("slide_behind", [around, gen_object("box", 0, 0.6)], 4, seed=0,
                      resolution=8)


def test_sequence_deterministic_under_seed():
    objs = [gen_object("union", 41)]
    a = make_sequence("camera_pan", objs, 4, seed=9, resolution=10)
    b = make_sequence("camera_pan", objs, 4, seed=9, resolution=10)
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa.values, fb.values)


# ---------------------------------------------------------------------------
# manifests and splits
# ---------------------------------------------------------------------------


def test_split_10_objects_is_8_1_1():
    labels = split_objects(10, seed=7)
    assert labels.count("train") == 8
    assert labels.count("val") == 1
    assert labels.count("test") == 1


def test_split_deterministic_and_count_checked():
    assert split_objects(20, seed=3) == split_objects(20, seed=3)
    with pytest.raises(ValueError, match="at least 3"):
        split_objects(2, seed=0)


def test_manifest_object_sequences_stay_in_one_split():
    for protocol in PROTOCOLS:
        manifest = build_manifest(protocol, 12, resolution=8, views=4, seed=5)
        by_id = manifest.objects_by_id()
        for seq in manifest.sequences:
            for oid in seq.object_ids:
                assert by_id[oid].split == seq.split, protocol


def test_manifest_json_round_trip():
    manifest = build_manifest("camera_pan", 5, resolution=8, views=3, seed=2)
    back = DatasetManifest.from_json(manifest.to_json())
    assert back == manifest


def test_write_and_read_dataset(tmp_path):
    manifest = build_manifest("camera_pan", 3, resolution=8, views=3, seed=2)
    write_dataset(manifest, tmp_path)
    back = read_manifest(tmp_path)
    assert back == manifest
    spec = back.sequences[0]
    frames, targets = read_sequence_grids(tmp_path, back, spec)
    assert len(frames) == len(targets) == 3
    regenerated = realize_sequence(back, spec)
    for disk, fresh in zip(frames, regenerated.frames):
        np.testing.assert_array_equal(disk.values, fresh.binarize().values)


def test_dataset_regeneration_byte_identical(tmp_path):
    manifest = build_manifest("object_hiding", 3, resolution=8, views=3, seed=6)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_dataset(manifest, d1)
    write_dataset(manifest, d2)
    for f1 in sorted(d1.iterdir()):
        f2 = d2 / f1.name
        assert f1.read_bytes() == f2.read_bytes(), f1.name


def _vxg_files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.vxg"))}


def test_repeated_grids_are_hard_links(tmp_path):
    manifest = build_manifest("object_hiding", 3, resolution=8, views=6, seed=6)
    write_dataset(manifest, tmp_path)
    for spec in manifest.sequences:
        files = sorted(tmp_path.glob(f"{spec.seq_id}_*.vxg"))
        inodes = {}  # bytes -> inodes of the files holding them
        for path in files:
            inodes.setdefault(path.read_bytes(), set()).add(path.stat().st_ino)
        assert all(len(ino) == 1 for ino in inodes.values()), spec.seq_id
        assert len({path.stat().st_ino for path in files}) == len(inodes)
        assert len({path.stat().st_ino for path in files if path.name.endswith("_gt.vxg")}) == 1


def test_rewriting_a_dataset_never_writes_through_a_link(tmp_path):
    manifest = build_manifest("object_hiding", 3, resolution=8, views=6, seed=6)
    write_dataset(manifest, tmp_path / "fresh")
    data, outside = tmp_path / "data", tmp_path / "outside.bin"
    write_dataset(manifest, data)
    outside.write_bytes(b"not a grid")
    for path in data.glob("*.vxg"):
        path.unlink()
        os.link(outside, path)
    write_dataset(manifest, data)
    assert outside.read_bytes() == b"not a grid"
    assert _vxg_files(data) == _vxg_files(tmp_path / "fresh")


def test_dataset_without_hard_links_writes_every_file(tmp_path, monkeypatch):
    manifest = build_manifest("object_hiding", 3, resolution=8, views=6, seed=6)
    write_dataset(manifest, tmp_path / "linked")

    def no_links(source, target):
        raise OSError("hard links not supported")
    monkeypatch.setattr(os, "link", no_links)
    write_dataset(manifest, tmp_path / "copied")
    copied = sorted((tmp_path / "copied").glob("*.vxg"))
    assert all(path.stat().st_nlink == 1 for path in copied)
    assert _vxg_files(tmp_path / "copied") == _vxg_files(tmp_path / "linked")
