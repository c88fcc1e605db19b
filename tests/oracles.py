"""Independent brute-force reference implementations used as test oracles.

Everything here is written directly from definitions (nested loops, central
finite differences) and stays independent of the library code paths it
checks.
"""

from itertools import product

import numpy as np

from shapestream.marching import _DEGENERATE_AREA, Mesh
from shapestream.mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from shapestream.objects import _ball_span
from shapestream.scenes import (DEFAULT_EXTENT, DEFAULT_IMAGE_SIZE, FOV_DEG, RAY_FAR,
                                 RAY_NEAR, ViewSequence, _grid_origin, _input_grid,
                                 _schedule)
from shapestream.voxel import OCCUPANCY_THRESHOLD, PointCloud, VoxelGrid


def conv3d_naive(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Seven nested loops, straight from the cross-correlation definition."""
    n, c, d, h, wd = x.shape
    f, c2, k, _, _ = w.shape
    assert c == c2
    xp = np.zeros((n, c, d + 2 * padding, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + d, padding:padding + h, padding:padding + wd] = x
    do = (d + 2 * padding - k) // stride + 1
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, f, do, ho, wo))
    for ni in range(n):
        for fi in range(f):
            for zi in range(do):
                for yi in range(ho):
                    for xi in range(wo):
                        acc = 0.0
                        for ci in range(c):
                            for a in range(k):
                                for b in range(k):
                                    for cc in range(k):
                                        acc += (
                                            xp[ni, ci, zi * stride + a,
                                               yi * stride + b, xi * stride + cc]
                                            * w[fi, ci, a, b, cc]
                                        )
                        out[ni, fi, zi, yi, xi] = acc
    return out


def im2col_naive(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """x [N,C,D,H,W] -> columns [N, C*k^3, P], one strided slice per kernel offset."""
    n, c, d, h, w = x.shape
    do, ho, wo = ((e + 2 * padding - k) // stride + 1 for e in (d, h, w))
    xp = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2, (padding,) * 2))
    cols = np.empty((n, c, k, k, k, do, ho, wo), dtype=x.dtype)
    for a, b, cc in product(range(k), repeat=3):
        cols[:, :, a, b, cc] = xp[:, :, a:a + do * stride:stride,
                                  b:b + ho * stride:stride, cc:cc + wo * stride:stride]
    return cols.reshape(n, c * k**3, do * ho * wo)


def col2im_naive(cols: np.ndarray, x_shape: tuple, k: int, stride: int,
                 padding: int) -> np.ndarray:
    """Adjoint of im2col_naive: one strided scatter-add per kernel offset, in
    increasing offset order."""
    n, c, d, h, w = x_shape
    do, ho, wo = ((e + 2 * padding - k) // stride + 1 for e in (d, h, w))
    cols = cols.reshape(n, c, k, k, k, do, ho, wo)
    xp = np.zeros((n, c, d + 2 * padding, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for a, b, cc in product(range(k), repeat=3):
        xp[:, :, a:a + do * stride:stride, b:b + ho * stride:stride,
           cc:cc + wo * stride:stride] += cols[:, :, a, b, cc]
    return xp[:, :, padding:padding + d, padding:padding + h, padding:padding + w]


def conv_transpose3d_naive(x: np.ndarray, w: np.ndarray, stride: int,
                           padding: int) -> np.ndarray:
    """Transposed conv from its definition: input voxel i, through kernel tap
    a, adds sum_c x[c, i] w[c, :, a] onto output s*i + a; then the crop by padding."""
    n, c, *spatial = x.shape
    c2, f, k, _, _ = w.shape
    assert c == c2
    full = np.zeros((n, f) + tuple((e - 1) * stride + k for e in spatial))
    for i, j, l in product(*(range(e) for e in spatial)):
        for a, b, cc in product(range(k), repeat=3):
            full[:, :, i * stride + a, j * stride + b, l * stride + cc] += (
                x[:, :, i, j, l] @ w[:, :, a, b, cc])
    do, ho, wo = ((e - 1) * stride - 2 * padding + k for e in spatial)
    return full[:, :, padding:padding + do, padding:padding + ho, padding:padding + wo]


def finite_diff(f, arrays: dict, h: float = 1e-5) -> dict:
    """Central-difference gradients of scalar f() w.r.t. each array, in place."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        grads[name] = g
    return grads


def max_rel_error(got: np.ndarray, want: np.ndarray, floor: float = 1e-6) -> float:
    """Max |got-want| / max(|want|, floor); the floor avoids 0/0 blowups."""
    denom = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / denom))


def exact_attention_naive(Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                          kernel: str) -> np.ndarray:
    """Direct double loop over the causal convex-sum definition."""
    L, d = V.shape
    out = np.zeros((L, d))
    for i in range(L):
        weights = np.zeros(i + 1)
        for j in range(i + 1):
            if kernel == "softmax":
                weights[j] = np.exp(float(Q[i] @ K[j]))
            else:
                weights[j] = float(np.maximum(Q[i], 0) @ np.maximum(K[j], 0))
        s = weights.sum()
        if s <= 1e-9:
            out[i] = V[i]
        else:
            for j in range(i + 1):
                out[i] += weights[j] / s * V[j]
    return out


def linear_attention_naive(Q: np.ndarray, K: np.ndarray, V: np.ndarray,
                           fmap) -> np.ndarray:
    """Row i reads the prefix sums M = sum_{j<=i} phi(k_j)^T v_j and
    z = sum_{j<=i} phi(k_j): phi(q_i) M / phi(q_i).z, or v_i when that
    denominator is at most 1e-9. phi is written from its definition."""
    def phi(x):
        if fmap.kind == "relu":
            return np.maximum(x, 0.0)
        return np.exp(fmap.projection @ x - 0.5 * float(x @ x)) / np.sqrt(fmap.m)

    M, z = np.zeros((fmap.m, V.shape[1])), np.zeros(fmap.m)
    out = np.empty_like(V)
    for i in range(len(Q)):
        M += np.outer(phi(K[i]), V[i])
        z += phi(K[i])
        pq = phi(Q[i])
        out[i] = V[i] if pq @ z <= 1e-9 else pq @ M / (pq @ z)
    return out


def adam_reference(w0: float, grad_fn, lr: float, steps: int,
                   b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8) -> float:
    """Textbook scalar Adam with bias correction."""
    w, m, v = w0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def adam_update_naive(params: dict, grads: dict, state) -> bool:
    """Bias-corrected Adam with every intermediate its own array, on the
    Tensors of ``params`` and the moments and step count of an AdamState.
    A non-finite gradient anywhere rejects the whole step."""
    if not all(np.all(np.isfinite(g)) for g in grads.values()):
        return False
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        m = state.first_moment.setdefault(name, np.zeros_like(p.data))
        v = state.second_moment.setdefault(name, np.zeros_like(p.data))
        g = grads.get(name)
        if g is None:
            continue
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return True


def bce_naive(pred: np.ndarray, target: np.ndarray, eps: float) -> float:
    """Mean binary cross-entropy of one frame, its prediction clamped to [eps, 1-eps]."""
    p = np.clip(pred, eps, 1.0 - eps)
    return float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))))


def jaccard_naive(a: np.ndarray, b: np.ndarray, thr: float = 0.5) -> float:
    """Triple-loop set Jaccard over binarized cubic grids."""
    r = a.shape[0]
    inter = union = 0
    for i in range(r):
        for j in range(r):
            for k in range(r):
                av = a[i, j, k] > thr
                bv = b[i, j, k] > thr
                inter += av and bv
                union += av or bv
    if union == 0:
        return 1.0
    return inter / union


def fscore_naive(pred: np.ndarray, gt: np.ndarray, d: float) -> tuple:
    """Double-loop precision/recall/F at distance threshold d."""
    def frac_within(src, dst):
        hits = 0
        for p in src:
            best = min(float(np.linalg.norm(p - q)) for q in dst)
            hits += best < d
        return hits / len(src)

    p = frac_within(pred, gt)
    r = frac_within(gt, pred)
    f = 0.0 if (p + r) == 0 else 2 * p * r / (p + r)
    return p, r, f


def min_dists(src: np.ndarray, dst: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Exact nearest-neighbor distance from each src point to dst, forming
    every pair in blocks of ``chunk`` src rows."""
    out = np.empty(len(src))
    for start in range(0, len(src), chunk):
        block = src[start : start + chunk]
        d2 = ((block[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
        out[start : start + chunk] = np.sqrt(d2.min(axis=1))
    return out


REFINE_ITERS = 30  # bisection steps per hit after the march


def contains_naive(obj, points):
    """``SolidObject.contains`` written out per kind: a box's per-axis
    ``|x| <= half``, a sphere's squared norm, a cylinder's disc and slab, a
    compound's union of parts."""
    local = (np.atleast_2d(np.asarray(points, dtype=np.float64)) - obj.translation) @ obj.rotation
    dims = obj.dimensions
    if obj.kind == "box":
        return np.all(np.abs(local) <= dims["half_extents"], axis=1)
    if obj.kind == "sphere":
        return np.einsum("ij,ij->i", local, local) <= dims["radius"] ** 2
    if obj.kind == "cylinder":
        radial = local[:, 0] ** 2 + local[:, 1] ** 2 <= dims["radius"] ** 2
        return radial & (np.abs(local[:, 2]) <= dims["half_height"])
    mask = np.zeros(len(local), dtype=bool)
    for part in obj.parts:
        mask |= contains_naive(part, local)
    return mask


def ray_entry_naive(obj, origin, dirs, near):
    """``SolidObject.ray_entry`` written out per kind and applied to every ray,
    with no bounding-ball cull: a box by the slab method, a sphere as one ball,
    a cylinder as a disc and a slab, a compound as the nearest entry into a part."""
    local_o = (np.asarray(origin, dtype=np.float64) - obj.translation) @ obj.rotation
    local_d = np.atleast_2d(np.asarray(dirs, dtype=np.float64)) @ obj.rotation
    dims = obj.dimensions
    if obj.kind in ("lshape", "union"):
        return np.min([ray_entry_naive(p, local_o, local_d, near) for p in obj.parts], axis=0)
    if obj.kind == "box":
        t_in, t_out = _ball_span(local_o[:, None], local_d[:, :, None], dims["half_extents"])
        t_in, t_out = t_in.max(axis=1), t_out.min(axis=1)
    elif obj.kind == "sphere":
        t_in, t_out = _ball_span(local_o, local_d, dims["radius"])
    else:
        t_in, t_out = _ball_span(local_o[:2], local_d[:, :2], dims["radius"])
        cap_in, cap_out = _ball_span(local_o[2:], local_d[:, 2:], dims["half_height"])
        t_in, t_out = np.maximum(t_in, cap_in), np.minimum(t_out, cap_out)
    t_in = np.maximum(t_in, near)
    return np.where(t_in <= t_out, t_in, np.inf)


def camera_rays(pose, image_size):
    """World-frame unit direction of each pixel's ray, row by row."""
    w = image_size
    focal = (w / 2.0) / np.tan(np.radians(FOV_DEG) / 2.0)
    px = (np.arange(w) + 0.5 - w / 2.0) / focal
    u, v = np.meshgrid(px, px, indexing="xy")
    dirs = np.stack([u, v, np.ones_like(u)], axis=-1).reshape(-1, 3)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs @ pose.rotation.T


def ray_depths(cloud, image_size):
    """Each pixel's hit distance from a camera-frame cloud of first hits, at
    most one per pixel; inf where the pixel's ray hit nothing."""
    w = image_size
    focal = (w / 2.0) / np.tan(np.radians(FOV_DEG) / 2.0)
    p = cloud.points
    col, row = np.rint(p[:, :2] / p[:, 2:] * focal + w / 2.0 - 0.5).astype(int).T
    depth = np.full(w * w, np.inf)
    depth[row * w + col] = np.linalg.norm(p, axis=1)
    assert np.isfinite(depth).sum() == len(p), "two hits in one pixel"
    return depth


def render_depth_view_naive(objects, pose, image_size, step):
    """The unculled ray march: every alive ray is tested against every object
    at every sample ``RAY_NEAR + k * step`` below ``RAY_FAR``, then bisected to
    the surface, so each hit lies within ``step / 2**REFINE_ITERS`` of it (on
    the inside). A chord shorter than ``step`` can fall between two samples and
    be missed."""
    def _inside(objects, points):
        mask = np.zeros(len(points), dtype=bool)
        for obj in objects:
            mask |= obj.contains(points)
        return mask

    if _inside(objects, pose.position[None, :])[0]:
        raise ValueError("camera position lies inside an object")
    dirs_world = camera_rays(pose, image_size)

    n_rays = len(dirs_world)
    hit_t = np.full(n_rays, -1.0)
    alive = np.ones(n_rays, dtype=bool)
    for t in np.arange(RAY_NEAR, RAY_FAR, step):
        if not alive.any():
            break
        pts = pose.position + t * dirs_world[alive]
        hits = _inside(objects, pts)
        if hits.any():
            idx = np.flatnonzero(alive)[hits]
            hit_t[idx] = t
            alive[idx] = False
    hit = hit_t > 0
    if not hit.any():
        return PointCloud.empty()
    lo = hit_t[hit] - step
    hi = hit_t[hit].copy()
    d = dirs_world[hit]
    for _ in range(REFINE_ITERS):
        mid = 0.5 * (lo + hi)
        m = _inside(objects, pose.position + mid[:, None] * d)
        hi = np.where(m, mid, hi)
        lo = np.where(m, lo, mid)
    pts_world = pose.position + hi[:, None] * d
    return PointCloud(pose.world_to_camera(pts_world))


def make_sequence_naive(protocol, objects, length, seed, resolution=16,
                        extent=DEFAULT_EXTENT, image_size=DEFAULT_IMAGE_SIZE) -> ViewSequence:
    """``scenes.make_sequence`` with nothing reused: each frame tests every
    voxel center against every object of its scene and asks every object for
    every ray's entry: the reference for what ``make_sequence`` reuses from a
    pose's memo."""
    centroid = np.zeros(3)
    frames, targets, poses = [], [], []
    for scene, pose, curtain in _schedule(protocol, objects, length, seed, centroid,
                                          resolution, extent):
        target = VoxelGrid.zeros(resolution, _grid_origin(pose, centroid, extent),
                                 extent / resolution)
        centers = pose.camera_to_world(target.voxel_centers())
        occ = np.zeros(len(centers), dtype=bool)
        for obj in scene:
            occ |= obj.contains(centers)
        r = resolution
        target.values[:] = occ.reshape(r, r, r).transpose(2, 1, 0)
        if any(obj.contains(pose.position[None, :])[0] for obj in scene):
            raise ValueError("camera position lies inside an object")
        dirs = camera_rays(pose, image_size)
        hit_t = np.full(len(dirs), np.inf)
        for obj in scene:
            hit_t = np.minimum(hit_t, obj.ray_entry(pose.position, dirs, RAY_NEAR))
        hit = hit_t < RAY_FAR
        cloud = pose.world_to_camera(pose.position + hit_t[hit, None] * dirs[hit])
        frames.append(_input_grid(PointCloud(cloud[cloud[:, 0] > curtain]), target))
        targets.append(target)
        poses.append(pose)
    return ViewSequence(protocol, frames, targets, poses)


def fully_occluded_frames(seq: ViewSequence) -> list[int]:
    """Frames whose input grid is entirely empty but whose target is not."""
    return [i for i, (f, t) in enumerate(zip(seq.frames, seq.targets))
            if not f.occupancy().any() and t.occupancy().any()]


def index_to_center(grid: VoxelGrid, idx: np.ndarray) -> np.ndarray:
    """World positions of the centers of voxels ``idx``, shape (n, 3)."""
    return grid.origin + (np.asarray(idx, dtype=np.float64) + 0.5) * grid.voxel_size


def points_per_occupied_voxel(cloud: PointCloud, grid: VoxelGrid) -> float:
    """Mean number of cloud points landing in each occupied voxel (diagnostic)."""
    if len(cloud) == 0:
        return 0.0
    idx = grid.world_to_index(cloud.points)
    inside = np.all((idx >= 0) & (idx < grid.resolution), axis=1)
    kept = idx[inside]
    if kept.size == 0:
        return 0.0
    flat = (kept[:, 0] * grid.resolution + kept[:, 1]) * grid.resolution + kept[:, 2]
    _, counts = np.unique(flat, return_counts=True)
    return float(counts.mean())


def marching_cubes_naive(grid: VoxelGrid) -> Mesh:
    """Extract the OCCUPANCY_THRESHOLD surface of a [0, 1] occupancy field,
    one edge vertex per Python call, numbered in order of first use.

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

    vertices: list[np.ndarray] = []
    vertex_ids: dict[tuple, int] = {}
    triangles: list[tuple] = []

    def edge_vertex(cx: int, cy: int, cz: int, edge: int) -> int:
        a, b = EDGE_CORNERS[edge]
        pa = (cx + CORNER_OFFSETS[a][0], cy + CORNER_OFFSETS[a][1], cz + CORNER_OFFSETS[a][2])
        pb = (cx + CORNER_OFFSETS[b][0], cy + CORNER_OFFSETS[b][1], cz + CORNER_OFFSETS[b][2])
        if pb < pa:  # canonical low-to-high orientation so neighbors agree
            pa, pb = pb, pa
        axis = next(i for i in range(3) if pa[i] != pb[i])
        key = (pa, axis)
        vid = vertex_ids.get(key)
        if vid is not None:
            return vid
        va, vb = field[pa], field[pb]
        t = (OCCUPANCY_THRESHOLD - va) / (vb - va)
        pos = np.array([base[0, pa[0]], base[1, pa[1]], base[2, pa[2]]])
        pos[axis] += t * grid.voxel_size
        vid = len(vertices)
        vertices.append(pos)
        vertex_ids[key] = vid
        return vid

    for cx, cy, cz in active:
        tri_edges = TRI_TABLE[case[cx, cy, cz]]
        for s in range(0, len(tri_edges), 3):
            i0 = edge_vertex(cx, cy, cz, tri_edges[s])
            i1 = edge_vertex(cx, cy, cz, tri_edges[s + 1])
            i2 = edge_vertex(cx, cy, cz, tri_edges[s + 2])
            if i0 == i1 or i1 == i2 or i0 == i2:
                continue
            triangles.append((i0, i2, i1))

    if not triangles:
        return Mesh.empty()
    mesh = Mesh(np.array(vertices), np.array(triangles, dtype=np.int64))
    areas = mesh.triangle_areas()
    keep = areas > _DEGENERATE_AREA
    if not keep.all():
        mesh = Mesh(mesh.vertices, mesh.triangles[keep])
    return mesh


def mesh_volume(mesh: Mesh) -> float:
    """Signed enclosed volume via the divergence theorem (tetrahedra to origin)."""
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def edge_incidence(mesh: Mesh) -> dict[tuple[int, int], int]:
    """Count how many triangles share each undirected edge."""
    counts: dict[tuple[int, int], int] = {}
    for i0, i1, i2 in mesh.triangles:
        for u, v in ((i0, i1), (i1, i2), (i2, i0)):
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
    return counts


def euler_characteristic(mesh: Mesh) -> int:
    used = np.unique(mesh.triangles)
    return int(len(used) - len(edge_incidence(mesh)) + len(mesh.triangles))


def is_closed_manifold(mesh: Mesh) -> bool:
    """Every edge shared by exactly two triangles."""
    if mesh.is_empty():
        return False
    return all(c == 2 for c in edge_incidence(mesh).values())
