"""Procedural solid objects with exact point-inside tests.

Objects are desk-scale primitives (meters) posed by a rotation and a
translation. A primitive is one list of balls ``|local[axes]| <= r`` over
disjoint axis groups, which its inside test, ray entry and bounding radius all
read: a box is three 1-D balls (slabs), a sphere one ball, a cylinder a disc in
x, y and a slab in z. The inside test is the ground-truth occupancy oracle: a
voxel is object-occupied iff its center is inside. Compound kinds (L-shape,
unions) hold child parts expressed in the parent's local frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OBJECT_KINDS = ("box", "sphere", "cylinder", "lshape", "union")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation from a normalized random quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@dataclass
class SolidObject:
    kind: str
    dimensions: dict                  # primitive sizes, meters
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    parts: list["SolidObject"] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in OBJECT_KINDS:
            raise ValueError(f"unknown object kind {self.kind!r}")
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)

    def with_pose(self, rotation: np.ndarray | None = None,
                  translation: np.ndarray | None = None) -> "SolidObject":
        return SolidObject(
            kind=self.kind,
            dimensions=self.dimensions,
            rotation=self.rotation if rotation is None else np.asarray(rotation),
            translation=self.translation if translation is None else np.asarray(translation),
            parts=self.parts,
        )

    def _balls(self) -> list[tuple[slice, float]]:
        """The balls ``|local[:, axes]| <= radius``, over disjoint groups of
        local axes, whose intersection is this primitive."""
        dims = self.dimensions
        if self.kind == "box":
            return [(slice(k, k + 1), half) for k, half in enumerate(dims["half_extents"])]
        if self.kind == "sphere":
            return [(slice(0, 3), dims["radius"])]
        return [(slice(0, 2), dims["radius"]), (slice(2, 3), dims["half_height"])]  # cylinder

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized world-frame inside test; points (n, 3) -> bool (n,)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        local = (points - self.translation) @ self.rotation
        if self.parts:  # any part contains the local point
            return np.logical_or.reduce([part.contains(local) for part in self.parts])
        inside = True
        for axes, radius in self._balls():
            inside &= np.einsum("ij,ij->i", local[:, axes], local[:, axes]) <= radius ** 2
        return inside

    def ray_entry(self, origin: np.ndarray, dirs: np.ndarray, near: float) -> np.ndarray:
        """Where each ray first enters the object at or past ``near``.

        The rays are ``origin + t * dirs``, with one world point ``origin`` (3,)
        and dirs (n, 3) of any length. Returns the (n,) smallest ``t >= near``
        at which ``contains`` holds (``near`` itself if the ray is inside
        there), or ``inf`` where the ray misses. Only the rays whose line meets
        the bounding ball, padded by 1e-6 against rounding, are intersected."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        # a line meets the ball iff (d·c)² >= |d|²(|c|² - R²); |d|² by matvec, for speed
        center = self.translation - origin
        reach = self.bounding_radius() * (1.0 + 1e-6)
        idx = np.flatnonzero((dirs @ center) ** 2 >= (dirs * dirs) @ np.ones(3)
                             * (center @ center - reach ** 2))
        t = np.full(len(dirs), np.inf)
        t[idx] = self._entry(origin, dirs[idx], near)
        return t

    def _entry(self, origin: np.ndarray, dirs: np.ndarray, near: float) -> np.ndarray:
        """``ray_entry`` of every ray: a compound's parts are not culled again."""
        local_o = (origin - self.translation) @ self.rotation
        local_d = dirs @ self.rotation
        if self.parts:  # a union of convex parts
            return np.min([p._entry(local_o, local_d, near) for p in self.parts], axis=0)
        t_in, t_out = near, np.inf
        for axes, radius in self._balls():
            ball_in, ball_out = _ball_span(local_o[axes], local_d[:, axes], radius)
            t_in, t_out = np.maximum(t_in, ball_in), np.minimum(t_out, ball_out)
        return np.where(t_in <= t_out, t_in, np.inf)

    def bounding_radius(self) -> float:
        """Radius of a world-frame ball around the translation covering the object,
        by which ``ray_entry`` culls: ``sqrt(sum r²)`` over a primitive's balls,
        tight as their axis groups are disjoint."""
        if self.parts:
            return max(float(np.linalg.norm(p.translation)) + p.bounding_radius()
                       for p in self.parts)
        return float(np.sqrt(sum(radius ** 2 for _, radius in self._balls())))


def _ball_span(o: np.ndarray, d: np.ndarray, radius) -> tuple[np.ndarray, np.ndarray]:
    """The ``t`` interval where ``|o + t d| <= radius``, norms over the last axis;
    empty (``t_in > t_out``) where the line misses. A zero ``d`` gets every
    ``t`` or none, with no division by zero."""
    a = (d * d).sum(axis=-1)
    b = (d * o).sum(axis=-1)
    c = (o * o).sum(axis=-1) - radius ** 2
    disc = b * b - a * c
    root = np.where(disc >= 0, np.sqrt(np.maximum(disc, 0.0)), -np.inf)
    along = a > 0
    safe = np.where(along, a, 1.0)
    all_or_none = np.where(c <= 0, np.inf, -np.inf)
    return (np.where(along, (-b - root) / safe, -all_or_none),
            np.where(along, (-b + root) / safe, all_or_none))


def _box(half_extents, translation=(0.0, 0.0, 0.0)) -> SolidObject:
    return SolidObject("box", {"half_extents": np.asarray(half_extents, dtype=np.float64)},
                       translation=np.asarray(translation, dtype=np.float64))


def gen_object(kind: str, seed: int, scale: float = 1.0) -> SolidObject:
    """Randomized dimensions within fixed desk-scale ranges; deterministic
    under seed. ``scale`` shrinks every length (used by two-object scenes)."""
    if kind not in OBJECT_KINDS:
        raise ValueError(f"unknown object kind {kind!r}")
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    s = scale
    if kind == "box":
        half = rng.uniform(0.030, 0.070, size=3) * s
        return SolidObject("box", {"half_extents": half}, rotation=rot)
    if kind == "sphere":
        # spheres keep identity rotation: orientation is unobservable
        return SolidObject("sphere", {"radius": float(rng.uniform(0.040, 0.070)) * s})
    if kind == "cylinder":
        return SolidObject(
            "cylinder",
            {"radius": float(rng.uniform(0.030, 0.060)) * s,
             "half_height": float(rng.uniform(0.040, 0.080)) * s},
            rotation=rot,
        )
    if kind == "lshape":
        # ranges keep the compound's reach under the 0.15 m grid half-extent
        t = float(rng.uniform(0.018, 0.028)) * s   # arm half-thickness
        lv = float(rng.uniform(0.040, 0.065)) * s  # vertical arm half-length
        lh = float(rng.uniform(0.040, 0.065)) * s  # horizontal arm half-length
        parts = [
            _box((t, t, lv)),                                  # vertical arm
            _box((lh, t, t), translation=(lh - t, 0.0, t - lv)),  # foot
        ]
        return SolidObject("lshape", {"thickness": t}, rotation=rot, parts=parts)
    # union of 2-3 primitives with small offsets
    count = int(rng.integers(2, 4))
    parts = []
    for _ in range(count):
        sub = ["box", "sphere", "cylinder"][int(rng.integers(0, 3))]
        child = gen_object(sub, int(rng.integers(0, 2 ** 31)), scale=0.6 * s)
        offset = rng.uniform(-0.035, 0.035, size=3) * s
        parts.append(child.with_pose(translation=offset))
    return SolidObject("union", {"count": count}, rotation=rot, parts=parts)
