"""Synthetic 2.5D view sequences for the five occlusion/pan protocols.

Every frame of a sequence is voxelized in that frame's own camera coordinate
frame ("unregistered" views): the grid axes follow the camera, with the grid
extent centered on the scene centroid's camera-frame position. Each frame's
ground-truth target is the full scene occupancy expressed in the same frame,
so predictions always live in the reference frame of the newest observation.

Camera convention: x right, y down, z forward (view direction), world z up.
Protocols:
  * camera_pan / two_object_pan - camera positions equally spaced on a
    horizontal circle of radius PAN_RADIUS about the scene centroid, pitched
    down at it.
  * object_hiding - fixed camera; a one-voxel-thick planar curtain sweeps
    along the camera x-axis; object points at or behind the curtain plane are
    removed from the input. Targets stay the full object.
  * object_reveal - mirror image: the curtain starts covering everything and
    recedes the way it came, so reversing a hiding schedule reproduces the
    reveal visibility masks exactly.
  * slide_behind - fixed camera; a mover translates behind a static occluder
    with randomized start and standoff; targets contain both objects.

What does not move is computed once per sequence: each camera pose's world
voxel centers and ray directions, and each (object, pose) pair's occupancy
mask and ray entries. A target ORs its objects' masks; a depth view takes the
minimum of their entries, so slide_behind computes its occluder only once.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .checks import check_fields, rule
from .objects import OBJECT_KINDS, SolidObject, gen_object
from .voxel import PointCloud, VoxelGrid, read_vxg, voxelize, write_vxg

PROTOCOLS = ("camera_pan", "two_object_pan", "object_hiding", "object_reveal",
             "slide_behind")
TWO_OBJECT_PROTOCOLS = ("two_object_pan", "slide_behind")

DEFAULT_EXTENT = 0.30       # world edge of the voxel grid cube, meters
DEFAULT_VIEWS = 12
DEFAULT_IMAGE_SIZE = 64     # depth image is image_size x image_size rays
FOV_DEG = 50.0              # full field of view of the square depth image
RAY_NEAR, RAY_FAR = 0.05, 1.5  # range of depths a ray can hit, meters
PAN_RADIUS = 0.5            # horizontal pan circle radius, meters
PAN_HEIGHT = 0.25           # circle height above the centroid plane
FIXED_CAM_DISTANCE = 0.55   # fixed-camera protocols: standoff from centroid
FIXED_CAM_HEIGHT = 0.15     # lower pitch keeps the occluder's shadow flat
MANIFEST_VERSION = 1
SPLITS = ("train", "val", "test")
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # of the objects, in SPLITS order


# ---------------------------------------------------------------------------
# camera
# ---------------------------------------------------------------------------


@dataclass
class CameraPose:
    """Camera-to-world rigid transform; columns of rotation are the camera
    x/y/z axes expressed in world coordinates. ``memo`` is a dict only while
    ``make_sequence`` renders from the pose (see ``_kept``)."""

    rotation: np.ndarray
    position: np.ndarray
    memo: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(points) - self.position) @ self.rotation

    def camera_to_world(self, points: np.ndarray) -> np.ndarray:
        return np.atleast_2d(points) @ self.rotation.T + self.position


def look_at(position, target) -> CameraPose:
    """A camera at ``position`` facing ``target``, with world +z up in its image."""
    position = np.asarray(position, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - position
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    return CameraPose(np.stack([right, down, forward], axis=1), position)


def _kept(pose: CameraPose, key, make):
    """``make()``, computed once per ``key`` while ``pose.memo`` is a dict. A key
    holds the ``id`` of each object it depends on; while the memo lives,
    ``make_sequence`` keeps those objects alive and uses one grid and image size."""
    if pose.memo is None:
        return make()
    if key not in pose.memo:
        pose.memo[key] = make()
    return pose.memo[key]


def _ray_dirs(pose: CameraPose, image_size: int) -> np.ndarray:
    """World-frame unit direction of each pixel's ray, row by row."""
    w = image_size
    focal = (w / 2.0) / np.tan(np.radians(FOV_DEG) / 2.0)
    px = (np.arange(w) + 0.5 - w / 2.0) / focal
    u, v = np.meshgrid(px, px, indexing="xy")
    dirs = np.stack([u, v, np.ones_like(u)], axis=-1).reshape(-1, 3)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs @ pose.rotation.T


def _entries(obj: SolidObject, pose: CameraPose, dirs_world: np.ndarray) -> np.ndarray:
    """Each ray's ``SolidObject.ray_entry`` into ``obj`` (inf where it misses)."""
    if obj.contains(pose.position[None, :])[0]:
        raise ValueError("camera position lies inside an object")
    return obj.ray_entry(pose.position, dirs_world, RAY_NEAR)


def render_depth_view(objects: list[SolidObject], pose: CameraPose,
                      image_size: int = DEFAULT_IMAGE_SIZE) -> PointCloud:
    """First-hit surface points of a pinhole raycast, in the camera frame.

    One ray per pixel, intersected in closed form with each object
    (``SolidObject.ray_entry``): a ray hits at its smallest entry into any
    object at or past ``RAY_NEAR`` (``RAY_NEAR`` itself if it is inside an
    object there) if that entry is below ``RAY_FAR``. Back faces and self-occluded regions never
    appear. No intersection -> empty cloud. The ray directions and each
    object's entries are kept in ``pose.memo`` when it is a dict.
    """
    dirs_world = _kept(pose, "rays", lambda: _ray_dirs(pose, image_size))
    hit_t = np.full(len(dirs_world), np.inf)
    for obj in objects:
        entries = _kept(pose, ("entries", id(obj)), lambda: _entries(obj, pose, dirs_world))
        hit_t = np.minimum(hit_t, entries)
    hit = hit_t < RAY_FAR
    if not hit.any():
        return PointCloud.empty()
    pts_world = pose.position + hit_t[hit, None] * dirs_world[hit]
    return PointCloud(pose.world_to_camera(pts_world))


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


@dataclass
class ViewSequence:
    protocol: str
    frames: list[VoxelGrid]       # partial inputs, camera-frame aligned
    targets: list[VoxelGrid]      # full occupancy in the same frame
    camera_poses: list[CameraPose]


def _grid_origin(pose: CameraPose, centroid_world: np.ndarray, extent: float) -> np.ndarray:
    centroid_cam = pose.world_to_camera(centroid_world)[0]
    return centroid_cam - extent / 2.0


def _target_grid(objects: list[SolidObject], pose: CameraPose, centroid: np.ndarray,
                 resolution: int, extent: float) -> VoxelGrid:
    """Scene occupancy: a voxel is occupied where any object contains its
    center. The world centers and each object's mask are kept in ``pose.memo``."""
    grid = VoxelGrid.zeros(resolution, _grid_origin(pose, centroid, extent),
                           extent / resolution)
    centers = _kept(pose, "centers", lambda: pose.camera_to_world(grid.voxel_centers()))
    occ = np.zeros(len(centers), dtype=bool)
    for obj in objects:
        occ |= _kept(pose, ("mask", id(obj)), lambda: obj.contains(centers))
    r = resolution
    grid.values[:] = occ.reshape(r, r, r).transpose(2, 1, 0)  # centers are x-fastest
    return grid


def _input_grid(cloud: PointCloud, target: VoxelGrid) -> VoxelGrid:
    """Voxelize visible surface points, kept within the target occupancy so
    partial stays a subset of full (surface hits can straddle cell borders)."""
    raw, _ = voxelize(cloud, target.resolution, target.origin, target.voxel_size)
    return VoxelGrid(raw.values * target.binarize().values, target.origin,
                     target.voxel_size)


def _pan_poses(centroid: np.ndarray, count: int) -> list[CameraPose]:
    poses = []
    for i in range(count):
        angle = 2.0 * np.pi * i / count
        position = centroid + np.array([PAN_RADIUS * np.cos(angle),
                                        PAN_RADIUS * np.sin(angle), PAN_HEIGHT])
        poses.append(look_at(position, centroid))
    return poses


def _curtain_cutoffs(resolution: int, origin_x: float, voxel_size: float,
                     length: int, reveal: bool) -> list[float]:
    """Camera-x curtain plane positions, snapped to voxel columns; the sweep
    completes by the final frame."""
    cutoffs = []
    for i in range(length):
        progress = i / (length - 1) if length > 1 else 0.0
        if reveal:
            progress = 1.0 - progress
        cols = int(np.floor(progress * resolution + 1e-9))
        cutoffs.append(origin_x + cols * voxel_size)
    return cutoffs


def _schedule(protocol: str, objects: list[SolidObject], length: int, seed: int,
              centroid: np.ndarray, resolution: int, extent: float) -> list[tuple]:
    """Each frame's (scene, camera pose, curtain plane on camera x, -inf for
    none); a scene or pose that does not change is the same object every frame."""
    rng = np.random.default_rng(seed)
    fixed = look_at(centroid + np.array([FIXED_CAM_DISTANCE, 0.0, FIXED_CAM_HEIGHT]), centroid)
    if protocol == "two_object_pan":
        gap = extent / 4.0
        scene = [objects[0].with_pose(translation=centroid + np.array([0.0, -gap / 2 - 0.02, 0.0])),
                 objects[1].with_pose(translation=centroid + np.array([0.0, gap / 2 + 0.02, 0.0]))]
    else:
        scene = [objects[0].with_pose(translation=centroid)]
    if protocol in ("camera_pan", "two_object_pan"):
        return [(scene, pose, -np.inf) for pose in _pan_poses(centroid, length)]
    if protocol in ("object_hiding", "object_reveal"):
        cutoffs = _curtain_cutoffs(resolution, _grid_origin(fixed, centroid, extent)[0],
                                   extent / resolution, length,
                                   reveal=(protocol == "object_reveal"))
        return [(scene, fixed, c) for c in cutoffs]
    # slide_behind: objects[0] = static occluder near the camera, objects[1]
    # = mover crossing behind it; start position and standoff vary per seed
    occluder = objects[0].with_pose(translation=centroid + np.array([0.06, 0.0, 0.0]))
    standoff = float(rng.uniform(0.09, 0.125))
    y0 = float(rng.uniform(-0.070, -0.055))
    y1 = float(rng.uniform(0.055, 0.070))
    schedule = []
    for i in range(length):
        frac = i / (length - 1) if length > 1 else 0.0
        mover_pos = centroid + np.array([0.06 - standoff, y0 + frac * (y1 - y0), 0.0])
        schedule.append(([occluder, objects[1].with_pose(translation=mover_pos)],
                         fixed, -np.inf))
    return schedule


def make_sequence(protocol: str, objects: list[SolidObject], length: int, seed: int,
                  resolution: int = 16, extent: float = DEFAULT_EXTENT,
                  image_size: int = DEFAULT_IMAGE_SIZE) -> ViewSequence:
    """Generate one sequence; deterministic in (protocol, objects, seed).

    One loop builds each frame's target, depth view and curtain-filtered
    input from the schedule, reusing the previous frame's target and view when
    scene and pose are the same objects. Otherwise the current pose's memo
    gives what that pose already computed: its voxel centers and rays, and
    each object's mask and ray entries (slide_behind's camera and occluder)."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    if protocol in TWO_OBJECT_PROTOCOLS and len(objects) < 2:
        raise ValueError(f"{protocol} needs 2 objects, got {len(objects)}")
    centroid = np.zeros(3)
    frames, targets, poses = [], [], []
    shot_scene = shot_pose = None
    for scene, pose, curtain in _schedule(protocol, objects, length, seed, centroid,
                                          resolution, extent):
        if pose is not shot_pose:  # one memo at a time; a pose that recurs starts anew
            if shot_pose is not None:
                shot_pose.memo = None
            pose.memo = {}
        if scene is not shot_scene or pose is not shot_pose:
            target = _target_grid(scene, pose, centroid, resolution, extent)
            cloud = render_depth_view(scene, pose, image_size)
            shot_scene, shot_pose = scene, pose
        visible = PointCloud(cloud.points[cloud.points[:, 0] > curtain])
        frames.append(_input_grid(visible, target))
        targets.append(target)
        poses.append(pose)
    shot_pose.memo = None
    return ViewSequence(protocol, frames, targets, poses)


# ---------------------------------------------------------------------------
# dataset manifest, splits, storage
# ---------------------------------------------------------------------------


class DatasetError(Exception):
    """A dataset whose manifest or grids are malformed or do not fit together."""


def _with_fields(raw, spec, where: str) -> dict:
    """``raw`` if it is a JSON object with exactly the fields of dataclass ``spec``."""
    names = sorted(f.name for f in fields(spec))
    if not isinstance(raw, dict) or sorted(raw) != names:
        got = sorted(raw) if isinstance(raw, dict) else type(raw).__name__
        raise DatasetError(f"{where} must be an object with keys {names}, got {got}")
    return raw


@dataclass
class ObjectSpec:
    object_id: str
    kind: str = rule(choices=OBJECT_KINDS)
    seed: int = rule(min=0)
    scale: float = 1.0
    split: str = rule("", choices=SPLITS)

    def build(self) -> SolidObject:
        return gen_object(self.kind, self.seed, self.scale)


@dataclass
class SequenceSpec:
    seq_id: str
    object_ids: list[str]
    seed: int = rule(min=0)
    split: str = rule("", choices=SPLITS)


@dataclass
class DatasetManifest:
    protocol: str = rule(choices=PROTOCOLS)
    resolution: int = rule(min=1)
    views: int = rule(min=1)
    seed: int = rule(min=0)
    extent: float = DEFAULT_EXTENT
    image_size: int = rule(DEFAULT_IMAGE_SIZE, min=1)
    version: int = rule(MANIFEST_VERSION, choices=(MANIFEST_VERSION,))
    objects: list[ObjectSpec] = field(default_factory=list)
    sequences: list[SequenceSpec] = field(default_factory=list)

    def objects_by_id(self) -> dict[str, ObjectSpec]:
        return {o.object_id: o for o in self.objects}

    def split_sequences(self, split: str) -> list[SequenceSpec]:
        return [s for s in self.sequences if s.split == split]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "DatasetManifest":
        """The manifest in ``text``, or ``DatasetError`` naming what is wrong."""
        try:
            raw = json.loads(text)
        except ValueError as err:
            raise DatasetError(f"manifest is not valid JSON: {err}") from err
        _with_fields(raw, cls, "manifest")
        for key, spec in (("objects", ObjectSpec), ("sequences", SequenceSpec)):
            if not isinstance(raw[key], list):
                raise DatasetError(f"manifest {key} must be a list")
            raw[key] = [spec(**_with_fields(e, spec, f"manifest {key}[{i}]"))
                        for i, e in enumerate(raw[key])]
        manifest = check_fields(cls(**raw), "manifest", DatasetError)
        for kind, ids in (("object", [o.object_id for o in manifest.objects]),
                          ("sequence", [s.seq_id for s in manifest.sequences])):
            if len(set(ids)) < len(ids):
                bad = next(i for n, i in enumerate(ids) if i in ids[:n])
                raise DatasetError(f"manifest {kind} id {bad!r} is repeated")
        known = manifest.objects_by_id()
        needed = 2 if manifest.protocol in TWO_OBJECT_PROTOCOLS else 1
        for seq in manifest.sequences:
            if len(seq.object_ids) != needed:
                raise DatasetError(f"manifest sequence {seq.seq_id!r} names {len(seq.object_ids)} "
                                   f"objects; {manifest.protocol} needs {needed}")
            unknown = [o for o in seq.object_ids if o not in known]
            if unknown:
                raise DatasetError(f"manifest sequence {seq.seq_id!r} names unknown "
                                   f"objects {unknown}")
        return manifest


def split_objects(count: int, seed: int = 0) -> list[str]:
    """Assign each of ``count`` objects to train/val/test by SPLIT_RATIOS,
    deterministically.

    Splitting is at object granularity so test objects are never seen in
    training. Rejects fewer objects than splits.
    """
    if count < 3:
        raise ValueError(f"need at least 3 objects to form 3 splits, got {count}")
    n_val = max(1, int(np.floor(count * SPLIT_RATIOS[1])))
    n_test = max(1, int(np.floor(count * SPLIT_RATIOS[2])))
    order = np.random.default_rng(seed).permutation(count)
    labels = [""] * count
    for pos, obj_idx in enumerate(order):
        if pos < n_test:
            labels[obj_idx] = "test"
        elif pos < n_test + n_val:
            labels[obj_idx] = "val"
        else:
            labels[obj_idx] = "train"
    return labels


def build_manifest(protocol: str, n_objects: int, resolution: int, views: int,
                   seed: int) -> DatasetManifest:
    """Objects, split assignment and sequence pairings for one protocol."""
    check_fields(DatasetManifest(protocol, resolution, views, seed), "dataset", ValueError)
    rng = np.random.default_rng(seed)
    two_object = protocol in TWO_OBJECT_PROTOCOLS
    scale = 0.6 if two_object else 1.0
    kinds = [OBJECT_KINDS[int(rng.integers(0, len(OBJECT_KINDS)))] for _ in range(n_objects)]
    labels = split_objects(n_objects, seed)
    objects = [
        ObjectSpec(object_id=f"obj{i:04d}", kind=kinds[i],
                   seed=int(rng.integers(0, 2 ** 31)), scale=scale, split=labels[i])
        for i in range(n_objects)
    ]
    # two-object protocols pair objects within their split so no split leaks
    # into another; the others take one object per sequence
    groups = ([[o for o in objects if o.split == split] for split in SPLITS]
              if two_object else [[o] for o in objects])
    sequences = []
    for members in groups:
        for j, obj in enumerate(members):
            partner = members[(j + 1) % len(members)]
            sequences.append(SequenceSpec(
                seq_id=f"{protocol}-{len(sequences):04d}",
                object_ids=[obj.object_id, partner.object_id][:2 if two_object else 1],
                seed=int(seed * 7919 + len(sequences)), split=obj.split))
    return DatasetManifest(protocol=protocol, resolution=resolution, views=views,
                           seed=seed, objects=objects, sequences=sequences)


def realize_sequence(manifest: DatasetManifest, spec: SequenceSpec) -> ViewSequence:
    by_id = manifest.objects_by_id()
    objs = [by_id[oid].build() for oid in spec.object_ids]
    return make_sequence(manifest.protocol, objs, manifest.views, spec.seed,
                         resolution=manifest.resolution, extent=manifest.extent,
                         image_size=manifest.image_size)


def _link(source: Path, target: Path) -> bool:
    try:
        os.link(source, target)
    except OSError:  # a file system without hard links, or at its link limit
        return False
    return True


def write_dataset(manifest: DatasetManifest, out_dir) -> None:
    """Materialize every sequence as {seq_id}_{frame_idx}_{in|gt}.vxg files.

    A grid that repeats an earlier grid of its sequence (object_hiding and
    object_reveal keep one target for every frame) is a hard link to its file,
    so a sequence creates one file per distinct grid. Each name is unlinked
    before it is written, so rewriting a dataset never writes through a link."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(manifest.to_json())
    for spec in manifest.sequences:
        seq = realize_sequence(manifest, spec)
        written: dict = {}  # grid contents -> the first file written from them
        for i, (frame, target) in enumerate(zip(seq.frames, seq.targets)):
            for grid, kind in ((frame, "in"), (target, "gt")):
                path = out / f"{spec.seq_id}_{i}_{kind}.vxg"
                path.unlink(missing_ok=True)
                key = (grid.values.tobytes(), grid.origin.tobytes(), grid.voxel_size)
                first = written.setdefault(key, path)
                if first is path or not _link(first, path):
                    write_vxg(grid, path)


def read_manifest(data_dir) -> DatasetManifest:
    return DatasetManifest.from_json((Path(data_dir) / "manifest.json").read_bytes())


def read_sequence_grids(data_dir, manifest: DatasetManifest,
                        spec: SequenceSpec) -> tuple[list[VoxelGrid], list[VoxelGrid]]:
    """A sequence's input and target grids, checked against the manifest and each other."""
    data = Path(data_dir)
    frames, targets = [], []
    for i in range(manifest.views):
        frame, target = (read_vxg(data / f"{spec.seq_id}_{i}_{k}.vxg") for k in ("in", "gt"))
        if {frame.resolution, target.resolution} != {manifest.resolution}:
            raise DatasetError(f"{spec.seq_id} frame {i}: grid resolutions {frame.resolution}, "
                               f"{target.resolution}; manifest resolution {manifest.resolution}")
        if frame.voxel_size != target.voxel_size or np.any(frame.origin != target.origin):
            raise DatasetError(f"{spec.seq_id} frame {i}: input and target grids differ in "
                               f"origin or voxel size")
        frames.append(frame)
        targets.append(target)
    return frames, targets
