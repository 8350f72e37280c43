"""Evaluation metrics: DTW, collision rate against the density field, and
normalized writing error from rasterized strokes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import Trajectory
# density stays bound here for bench/tracing.py, which wraps it where it is looked up
from .splats import GaussianScene, density, density_many  # noqa: F401


class MetricError(ValueError):
    """Raised on degenerate metric inputs (e.g. zero-area writing bbox)."""


@dataclass
class EvalReport:
    dtw_position: float
    dtw_orientation: float
    collided: bool
    max_density: float
    writing_error: float | None = None


def _distance_matrix(a: np.ndarray, b: np.ndarray, dist: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if dist == "euclidean":
        return cdist(a, b)
    if dist == "quaternion":
        dots = np.clip(np.abs(a @ b.T), 0.0, 1.0)
        return 2.0 * np.arccos(dots)
    raise ValueError(f"unknown distance selector: {dist}")


def dtw(a, b, dist: str = "euclidean", normalized: bool = False):
    """Dynamic time warping with step set {(1,0),(0,1),(1,1)}, anchored at
    both ends, its table filled one anti-diagonal at a time (Sakoe & Chiba,
    1978).  Returns (cost, path); cost is divided by the warping-path length
    when normalized is requested."""
    if callable(dist):
        b = list(b)
        D = np.array([[dist(x, y) for y in b] for x in a], dtype=float)
    else:
        D = _distance_matrix(a, b, dist)
    n, m = D.shape
    if n == 0 or m == 0:
        raise ValueError("sequences must be non-empty")
    if not np.all(np.isfinite(D)):
        raise ValueError("non-finite distance")
    # acc[i, j] = D[i-1, j-1] + min(up, left, diagonal): one addition per cell,
    # as in row order, so acc, cost and path are bit-identical to it.  acc
    # starts out holding D; on the flat table the cells with i + j = d sit at
    # stride m, their up, left and diagonal neighbours w, 1 and w + 1 before.
    w = m + 1
    acc = np.full((n + 1, w), np.inf)
    acc[0, 0] = 0.0
    acc[1:, 1:] = D
    flat = acc.ravel()
    for d in range(2, n + m + 1):
        k0, k1 = max(1, d - m) * m + d, min(n, d - 1) * m + d + 1
        flat[k0:k1:m] += np.minimum(np.minimum(flat[k0 - w:k1 - w:m], flat[k0 - 1:k1 - 1:m]),
                                    flat[k0 - w - 1:k1 - w - 1:m])
    # backtrack the optimal monotone path
    path = []
    i, j = n, m
    while i > 0 or j > 0:
        path.append((i - 1, j - 1))
        moves = []
        if i > 0 and j > 0:
            moves.append((acc[i - 1, j - 1], i - 1, j - 1))
        if i > 0:
            moves.append((acc[i - 1, j], i - 1, j))
        if j > 0:
            moves.append((acc[i, j - 1], i, j - 1))
        _, i, j = min(moves)
        if i == 0 and j == 0:
            break
    path.reverse()
    cost = float(acc[n, m])
    if normalized:
        cost /= len(path)
    return cost, path


def dtw_bruteforce(a, b, dist: str = "euclidean") -> float:
    """Exhaustive enumeration of monotone warping paths; oracle for small grids."""
    D = _distance_matrix(a, b, dist)
    n, m = D.shape
    best = math.inf
    stack = [((0, 0), D[0, 0])]
    while stack:
        (i, j), cost = stack.pop()
        if (i, j) == (n - 1, m - 1):
            best = min(best, cost)
            continue
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ii, jj = i + di, j + dj
            if ii < n and jj < m:
                stack.append(((ii, jj), cost + D[ii, jj]))
    return float(best)


def trajectory_dtw(a: Trajectory, b: Trajectory):
    """(normalized position DTW in meters, normalized orientation DTW in rad)."""
    pos, _ = dtw(a.positions, b.positions, "euclidean", normalized=True)
    rot, _ = dtw(a.quaternions, b.quaternions, "quaternion", normalized=True)
    return pos, rot


def collision_check(traj: Trajectory, scene: GaussianScene, rho_th: float):
    """Evaluate rho at every sample; collided iff any exceeds rho_th.

    Returns (collided, max_density, first_violation_index_or_None).
    """
    rhos = density_many(scene, traj.positions)
    max_density = float(rhos.max()) if len(rhos) else 0.0
    over = np.nonzero(rhos > rho_th)[0]
    if len(over):
        return True, max_density, int(over[0])
    return False, max_density, None


# ---- writing error ----------------------------------------------------------

@dataclass(frozen=True)
class RasterSpec:
    resolution: int = 128
    stroke_px: int = 3
    plane_point: tuple = (0.0, 0.0, 0.0)
    plane_normal: tuple = (0.0, 0.0, 1.0)


def _plane_basis(normal: np.ndarray):
    n = normal / np.linalg.norm(normal)
    e = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = e - np.dot(e, n) * n
    u /= np.linalg.norm(u)
    w = np.cross(n, u)
    return u, w


def project_to_plane(positions: np.ndarray, spec: RasterSpec) -> np.ndarray:
    p0 = np.asarray(spec.plane_point, dtype=float)
    u, w = _plane_basis(np.asarray(spec.plane_normal, dtype=float))
    d = np.asarray(positions, dtype=float) - p0
    return np.stack([d @ u, d @ w], axis=1)


def rasterize_strokes(points2d: np.ndarray, spec: RasterSpec) -> np.ndarray:
    """Binary image of the polyline through points2d, normalized to its own
    bounding box, drawn with Bresenham segments dilated to stroke_px."""
    res = spec.resolution
    img = np.zeros((res, res), dtype=bool)
    points2d = np.asarray(points2d, dtype=float)
    if len(points2d) == 0:
        return img
    lo = points2d.min(axis=0)
    hi = points2d.max(axis=0)
    span = hi - lo
    if np.all(span <= 0):
        raise MetricError("degenerate bounding box: zero area")
    span = np.where(span > 0, span, 1.0)
    pix = np.round((points2d - lo) / span * (res - 1)).astype(int)
    rad = spec.stroke_px // 2
    stamps = [(di, dj) for di in range(-rad, rad + 1) for dj in range(-rad, rad + 1)]

    def stamp(i, j):
        for di, dj in stamps:
            ii, jj = i + di, j + dj
            if 0 <= ii < res and 0 <= jj < res:
                img[ii, jj] = True

    def bresenham(p, q):
        x0, y0 = p
        x1, y1 = q
        dx = abs(x1 - x0)
        dy = -abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx + dy
        while True:
            stamp(y0, x0)
            if x0 == x1 and y0 == y1:
                return
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                x0 += sx
            if e2 <= dx:
                err += dx
                y0 += sy

    if len(pix) == 1:
        stamp(pix[0][1], pix[0][0])
    for p, q in zip(pix[:-1], pix[1:]):
        bresenham(p, q)
    return img


def _as_positions(traj) -> np.ndarray:
    if isinstance(traj, Trajectory):
        return traj.positions
    return np.asarray(traj, dtype=float).reshape(-1, 3) if np.size(traj) else np.empty((0, 3))


def writing_error(expert, executed, spec: RasterSpec = RasterSpec()) -> float:
    """Normalized l1 pixel difference between rasterized strokes.

    Each trajectory is projected onto the writing plane and scaled to its own
    bounding box before drawing, so the metric is invariant to in-plane
    translation and scale.  An empty executed trajectory rasters blank, giving
    exactly 1.0.
    """
    exp_img = rasterize_strokes(project_to_plane(_as_positions(expert), spec), spec)
    exp_count = int(exp_img.sum())
    if exp_count == 0:
        raise MetricError("expert raster is empty")
    exec_pts = _as_positions(executed)
    if len(exec_pts) == 0:
        exec_img = np.zeros_like(exp_img)
    else:
        exec_img = rasterize_strokes(project_to_plane(exec_pts, spec), spec)
    diff = int(np.sum(exec_img != exp_img))
    return diff / exp_count


def save_pgm(img: np.ndarray, path) -> None:
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write((np.where(img, 255, 0).astype(np.uint8)).tobytes())


def evaluate_rollout(rollout: Trajectory, expert: Trajectory,
                     scene: GaussianScene | None, rho_th: float,
                     raster: RasterSpec | None = None) -> EvalReport:
    pos, rot = trajectory_dtw(rollout, expert)
    if scene is not None and len(scene):
        collided, max_density, _ = collision_check(rollout, scene, rho_th)
    else:
        collided, max_density = False, 0.0
    werr = writing_error(expert, rollout, raster) if raster is not None else None
    return EvalReport(dtw_position=pos, dtw_orientation=rot,
                      collided=collided, max_density=max_density,
                      writing_error=werr)
