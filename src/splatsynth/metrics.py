"""Evaluation metrics: DTW, collision rate against the density field, and
normalized writing error from rasterized strokes."""

from __future__ import annotations

import functools
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


def _fill(acc: np.ndarray, n: int, m: int) -> None:
    """Fill in place the DTW table acc, flat over its first axis ((n+1)(m+1)
    cells, each a scalar or a row of independent tables), one anti-diagonal
    i + j = d at a time (Sakoe & Chiba, 1978).  acc holds 0 at (0, 0), inf on
    the rest of row and column 0, and D elsewhere; each cell becomes
    D[i-1, j-1] + min(up, left, diagonal) with one addition, as in row order,
    so the table is bit-identical to it.  The cells of one diagonal sit at
    stride m, their up, left and diagonal neighbours w, 1 and w + 1 before."""
    w = m + 1
    for d in range(2, n + m + 1):
        k0, k1 = max(1, d - m) * m + d, min(n, d - 1) * m + d + 1
        acc[k0:k1:m] += np.minimum(np.minimum(acc[k0 - w:k1 - w:m], acc[k0 - 1:k1 - 1:m]),
                                   acc[k0 - w - 1:k1 - w - 1:m])


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
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    acc[1:, 1:] = D
    _fill(acc.ravel(), n, m)   # ravel of the fresh table is a view: the fill writes into acc
    path = _warping_path(acc.ravel(), n, m)
    cost = float(acc[n, m])
    if normalized:
        cost /= len(path)
    return cost, path


def _warping_path(acc: np.ndarray, n: int, m: int) -> list:
    """The optimal warping path through the filled flat DTW table acc
    ((n+1)(m+1) cells, a 1-D array), as 0-based (i, j) index pairs in order.
    It is walked back from (n, m): each step moves to the least of the
    diagonal, up and left neighbours, a tie going to the diagonal, then up,
    then left; on row or column 0 only the move along it remains."""
    cells = memoryview(acc)   # reads each cell as a Python float, without numpy's per-item cost
    w = m + 1
    i, j = n, m
    path = []
    while i > 0 or j > 0:
        path.append((i - 1, j - 1))
        k = i * w + j
        # off the table (i or j is 0) an index wraps around; the tests on i and j skip it
        diag, up, left = cells[k - w - 1], cells[k - w], cells[k - 1]
        if i and j and diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif i and (not j or up <= left):
            i -= 1
        else:
            j -= 1
    path.reverse()
    return path


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


# float cells of one batch table; trajectory_dtw_many fills its rollouts in
# chunks of this size, so its memory stays bounded whatever the batch
_CHUNK_CELLS = 1 << 20


def trajectory_dtw_many(rollouts: list, expert: Trajectory) -> list:
    """trajectory_dtw(r, expert) for each rollout r, all of one length.  The
    position and orientation tables of a chunk of rollouts are the columns
    of one table, filled by one sweep; the results are bit-identical."""
    if not rollouts:
        return []
    n, m = len(rollouts[0]), len(expert)
    if any(len(r) != n for r in rollouts):
        raise ValueError("rollouts must all have the same length")
    chunk = max(1, _CHUNK_CELLS // (2 * (n + 1) * (m + 1)))
    scores = []
    for start in range(0, len(rollouts), chunk):
        part = rollouts[start:start + chunk]
        b = len(part)
        acc = np.empty(((n + 1) * (m + 1), 2 * b))
        table = acc.reshape(n + 1, m + 1, 2 * b)
        table[0] = table[:, 0] = np.inf
        table[0, 0] = 0.0
        for c, r in enumerate(part):
            table[1:, 1:, c] = _distance_matrix(r.positions, expert.positions, "euclidean")
            table[1:, 1:, b + c] = _distance_matrix(r.quaternions, expert.quaternions, "quaternion")
        if not np.all(np.isfinite(table[1:, 1:])):
            raise ValueError("non-finite distance")
        _fill(acc, n, m)
        lengths = [len(_warping_path(acc[:, c], n, m)) for c in range(2 * b)]
        normalized = (acc[-1] / lengths).tolist()
        scores.extend(zip(normalized[:b], normalized[b:]))
    return scores


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

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError(f"resolution must be at least 1, got {self.resolution}")
        if self.stroke_px < 1:
            raise ValueError(f"stroke_px must be at least 1, got {self.stroke_px}")
        for name in ("plane_point", "plane_normal"):
            v = np.asarray(getattr(self, name))
            if v.shape != (3,) or v.dtype.kind not in "iuf" or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be 3 finite numbers, got {getattr(self, name)!r}")
        with np.errstate(over="ignore"):  # a length that overflows is refused here, not warned about
            length = np.linalg.norm(self.plane_normal)
        if not 0.0 < length < math.inf:
            raise ValueError(f"plane_normal must have a finite non-zero length, got {self.plane_normal!r}")


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
    if not np.all(np.isfinite(points2d)):
        raise MetricError("non-finite stroke point")
    lo = points2d.min(axis=0)
    hi = points2d.max(axis=0)
    span = hi - lo
    if np.all(span <= 0):
        raise MetricError("degenerate bounding box: zero area")
    span = np.where(span > 0, span, 1.0)
    pix = np.round((points2d - lo) / span * (res - 1)).astype(int)
    # the segments between consecutive pixels step through Bresenham's loop
    # together, each leaving the arrays once its end pixel is drawn (a lone
    # point never gets here: its bounding box has zero area)
    (x, y), (x1, y1) = pix[:-1].T, pix[1:].T
    dx, dy = np.abs(x1 - x), -np.abs(y1 - y)
    sx, sy = np.where(x < x1, 1, -1), np.where(y < y1, 1, -1)
    err = dx + dy
    while len(x):
        img[y, x] = True
        live = (x != x1) | (y != y1)
        x, y, x1, y1, dx, dy, sx, sy, err = (a[live] for a in (x, y, x1, y1, dx, dy, sx, sy, err))
        e2 = 2 * err
        step_x, step_y = e2 >= dy, e2 <= dx
        err = err + dy * step_x + dx * step_y
        x, y = x + sx * step_x, y + sy * step_y
    # the square stamp: grow by one pixel along each axis, stroke_px // 2 times;
    # the shifted slices stop at the canvas border
    for _ in range(spec.stroke_px // 2):
        img[1:] |= img[:-1]
        img[:-1] |= img[1:]
        img[:, 1:] |= img[:, :-1]
        img[:, :-1] |= img[:, 1:]
    return img


def _as_positions(traj) -> np.ndarray:
    if isinstance(traj, Trajectory):
        return traj.positions
    return np.asarray(traj, dtype=float).reshape(-1, 3)


@functools.lru_cache(maxsize=16)
def _expert_raster(positions: bytes, resolution, stroke_px, plane_point, plane_normal):
    """(read-only raster, its pixel count) of the expert whose (n, 3) float
    positions are the given bytes: an eval scores every rollout against one
    expert, which is drawn once."""
    spec = RasterSpec(resolution, stroke_px, plane_point, plane_normal)
    img = rasterize_strokes(project_to_plane(np.frombuffer(positions).reshape(-1, 3), spec), spec)
    img.flags.writeable = False
    count = int(img.sum())
    if count == 0:
        raise MetricError("expert raster is empty")
    return img, count


def writing_error(expert, executed, spec: RasterSpec = RasterSpec()) -> float:
    """Normalized l1 pixel difference between rasterized strokes.

    Each trajectory is projected onto the writing plane and scaled to its own
    bounding box before drawing, so the metric is invariant to in-plane
    translation and scale.  An empty executed trajectory rasters blank, giving
    exactly 1.0.
    """
    positions = np.ascontiguousarray(_as_positions(expert), dtype=float).tobytes()
    exp_img, exp_count = _expert_raster(positions, spec.resolution, spec.stroke_px,
                                        tuple(map(float, spec.plane_point)), tuple(map(float, spec.plane_normal)))
    exec_img = rasterize_strokes(project_to_plane(_as_positions(executed), spec), spec)
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
