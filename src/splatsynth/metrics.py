"""Evaluation metrics: DTW, collision rate against the density field, and
normalized writing error from rasterized strokes."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import FieldError, Trajectory, check_fields, param
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


def _distance_matrix(a: np.ndarray, b: np.ndarray, dist: str, out: np.ndarray | None = None) -> np.ndarray:
    """The (n, m) matrix of distances between the rows of a and of b, written
    into out (C-contiguous) when it is given."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if dist == "euclidean":
        return cdist(a, b, out=out)
    if dist == "quaternion":
        dots = np.matmul(a, b.T, out=out)
        np.abs(dots, out=dots)
        np.clip(dots, 0.0, 1.0, out=dots)
        np.arccos(dots, out=dots)
        return np.multiply(dots, 2.0, out=dots)
    raise ValueError(f"unknown distance selector: {dist}")


# only a table of at most _CHUNK_CELLS cells is cached: a larger one's gather
# (8 bytes a cell) and steps would outlive its sweep, so _sweep builds it through
# _layout.__wrapped__ for that sweep alone.  A synth or eval run sweeps tables of
# one shape, and a shape of 680 x 700 samples holds about 5 MB here and in _workspace,
# so each cache keeps two shapes
@functools.lru_cache(maxsize=2)
def _layout(n: int, m: int):
    """The diagonal-major layout of an (n+1) x (m+1) DTW table: anti-diagonal
    d = i + j holds the cells (i, d - i), i ascending, and the diagonals
    follow each other, so cell (i, j) sits at off[i + j] + i.  Returns off (a
    tuple), the read-only gather that lays out a staging row (see _sweep), and
    the fill's steps: per diagonal d >= 2, the slices of its cells off row
    and column 0, of their up, left and diagonal neighbours, and of the
    scratch rows for their minima, which never number more than min(n, m).
    _views turns the steps into the operands of _fill, once per shape for a
    two-table sweep (_workspace) and once per sweep for any other."""
    ds = np.arange(n + m + 1)
    lo = np.maximum(0, ds - m)
    size = np.minimum(n, ds) - lo + 1
    off = tuple((np.cumsum(size) - size - lo).tolist())
    i, j = np.indices((n + 1, m + 1))
    src = np.where((i > 0) & (j > 0), (i - 1) * m + j - 1, n * m)
    src[0, 0] = n * m + 1
    gather = np.empty((n + 1) * (m + 1), dtype=np.intp)
    gather[np.asarray(off)[i + j] + i] = src
    gather.flags.writeable = False
    steps = []
    for d in range(2, n + m + 1):
        i0 = max(1, d - m)
        c = min(n, d - 1) - i0 + 1
        k, u, g = off[d] + i0, off[d - 1] + i0 - 1, off[d - 2] + i0 - 1
        steps.append((slice(k, k + c), slice(u, u + c), slice(u + 1, u + 1 + c), slice(g, g + c), slice(c)))
    return off, gather, tuple(steps)


def _views(acc: np.ndarray, n: int, m: int, steps: tuple):
    """Per diagonal of the tables acc, ((n+1)(m+1), T) in the layout of
    _layout, the operands of _fill: (low, up, left, diag, cells), low a view
    of a new scratch buffer of min(n, m) rows and the others views of acc.
    steps are _layout(n, m)'s."""
    scratch = np.empty((min(n, m),) + acc.shape[1:])
    for cells, up, left, diag, part in steps:
        yield scratch[part], acc[up], acc[left], acc[diag], acc[cells]


@functools.lru_cache(maxsize=2)
def _workspace(n: int, m: int):
    """(acc, take, views) for two-table sweeps of shape (n, m), built once:
    acc, a ((n+1)(m+1), 2) table array in the layout of _layout; take, the
    layout's gather widened to both tables, so that acc.flat[k] is
    stage.flat[take.flat[k]] for a (2, (n+1)(m+1)) stage, and writeable,
    since np.take copies a read-only index; and the views of _views over acc
    and its scratch for each diagonal.  Only a table of at most _CHUNK_CELLS
    cells gets one, as with _layout."""
    _, gather, steps = _layout(n, m)
    acc = np.empty(((n + 1) * (m + 1), 2))
    return acc, np.stack([gather, gather + len(gather)], axis=1), tuple(_views(acc, n, m, steps))


def _fill(views) -> None:
    """Fill in place the DTW tables whose per-diagonal operands views gives,
    as _views makes them: the tables are in the diagonal-major layout of
    _layout, interleaved innermost, and go one anti-diagonal at a time (Sakoe
    & Chiba, 1978).  They hold 0 at (0, 0), inf on the rest of row and column
    0, and D elsewhere; each cell becomes D[i-1, j-1] + min(up, left,
    diagonal) with one addition, as in row order, so every table is
    bit-identical to it.  A diagonal's cells and each of their three
    neighbour sets are one contiguous block, so a diagonal costs three ufunc
    calls into its scratch rows low, and no slicing when the views are a
    _workspace's."""
    for low, up, left, diag, cells in views:
        np.minimum(up, left, out=low)
        np.minimum(low, diag, out=low)
        np.add(cells, low, out=cells)


def _sweep(stage: np.ndarray, n: int, m: int) -> tuple:
    """The T DTW tables whose distance matrices are the rows of stage, filled
    in one sweep.  stage is (T, (n+1)(m+1)); row t holds table t's (n, m)
    distance matrix, row-major, in its first n*m cells, and the sweep writes
    the next two.  One gather lays the rows out as _fill takes them.  Returns
    (acc, off): the filled tables in that layout, and its off.

    Two tables of at most _CHUNK_CELLS cells are gathered into the cached
    _workspace(n, m) and filled through its views, so the acc returned is
    valid only until the next sweep of that shape; the library starts no
    threads, and each caller reads acc before it sweeps again.  Any other
    sweep gathers into a new array and slices its views as it fills: a
    batch's widths vary from chunk to chunk, and a workspace kept for each
    would outlive the batch."""
    if not np.all(np.isfinite(stage[:, :n * m])):
        raise ValueError("non-finite distance")
    stage[:, n * m:n * m + 2] = np.inf, 0.0   # the border and the corner (0, 0) gather these
    cached = stage.shape[1] <= _CHUNK_CELLS
    off, gather, steps = (_layout if cached else _layout.__wrapped__)(n, m)
    if cached and len(stage) == 2:
        acc, take, views = _workspace(n, m)
        # the indices are the layout's own, so always in range: "clip" checks
        # nothing and, unlike "raise", writes acc without a buffer
        np.take(stage.ravel(), take, out=acc, mode="clip")
    else:
        acc = stage.T[gather]
        views = _views(acc, n, m, steps)
    _fill(views)
    return acc, off


def dtw(a, b, dist: str = "euclidean", normalized: bool = False):
    """Dynamic time warping with step set {(1,0),(0,1),(1,1)}, anchored at
    both ends: one table through the sweep that trajectory_dtw_many runs,
    filled one anti-diagonal at a time (Sakoe & Chiba, 1978).  Returns (cost,
    path); cost is divided by the warping-path length when normalized is
    requested."""
    if callable(dist):
        a, b = list(a), list(b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("sequences must be non-empty")
    D = np.array([[dist(x, y) for y in b] for x in a], dtype=float) if callable(dist) else _distance_matrix(a, b, dist)
    n, m = D.shape
    stage = np.empty((1, (n + 1) * (m + 1)))
    stage[0, :n * m] = D.ravel()
    acc, off = _sweep(stage, n, m)
    path = _warping_path(acc[:, 0], n, m, off)
    cost = float(acc[-1, 0])
    if normalized:
        cost /= len(path)
    return cost, path


def _warping_path(acc: np.ndarray, n: int, m: int, off: tuple) -> list:
    """The optimal warping path through one filled DTW table acc (a 1-D array
    of (n+1)(m+1) cells in the diagonal-major layout of _layout), as 0-based
    (i, j) index pairs in order.  It is walked back from (n, m): each step
    moves to the least of the diagonal, up and left neighbours, a tie going
    to the diagonal, then up, then left; on row or column 0 only the move
    along it remains.  off is _layout(n, m)'s."""
    cells = memoryview(acc)   # reads each cell as a Python float, without numpy's per-item cost
    i, d = n, n + m
    path = []
    while d:
        j = d - i
        path.append((i - 1, j - 1))
        # left (i, j-1) sits at k and up (i-1, j) just before it; off the table
        # (i or j is 0) an index lands elsewhere or wraps around, and the tests
        # on i and j skip it
        k = off[d - 1] + i
        diag, up, left = cells[off[d - 2] + i - 1], cells[k - 1], cells[k]
        if i and j and diag <= up and diag <= left:
            i, d = i - 1, d - 2
        elif i and (not j or up <= left):
            i, d = i - 1, d - 1
        else:
            d -= 1
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
    """(normalized position DTW in meters, normalized orientation DTW in rad):
    a one-row call of trajectory_dtw_many."""
    return trajectory_dtw_many([a], b)[0]


# float cells (4 MB) that one chunk of trajectory_dtw_many may hold; it scores
# its tracks in chunks of this size, so its memory stays bounded whatever the batch
_CHUNK_CELLS = 1 << 19


def trajectory_dtw_many(rollouts: list, expert: Trajectory) -> list:
    """trajectory_dtw(r, expert) for each rollout r, all of one length,
    bit-identical to dtw(..., normalized=True).  Each distinct track, a
    rollout's positions or quaternions keyed by their bytes, gets one table,
    whose score every rollout that carries it shares: with sigma_r 0 a batch
    has one orientation track.  The tables of a chunk of tracks are filled by
    one sweep, interleaved innermost, and walked back for the path lengths.
    A table costs its staging row, its column of the sweep and its column of
    the fill's scratch buffer, and a chunk holds at most _CHUNK_CELLS of
    those cells; a chunk of two tables fills the cached workspace of its
    shape instead (see _sweep)."""
    if not rollouts:
        return []
    n, m = len(rollouts[0]), len(expert)
    if any(len(r) != n for r in rollouts):
        raise ValueError("rollouts must all have the same length")
    keys, tracks = {}, []   # (kind, bytes) -> table index; each table's (kind, dist, rollout column)
    index = []
    for r in rollouts:
        for kind, dist in (("positions", "euclidean"), ("quaternions", "quaternion")):
            column = getattr(r, kind)
            index.append(keys.setdefault((kind, column.tobytes()), len(keys)))
            if len(tracks) < len(keys):
                tracks.append((kind, dist, column))
    cells = (n + 1) * (m + 1)
    chunk = max(1, _CHUNK_CELLS // (2 * cells + min(n, m)))
    scores = []
    for start in range(0, len(tracks), chunk):
        part = tracks[start:start + chunk]
        stage = np.empty((len(part), cells))
        for c, (kind, dist, column) in enumerate(part):
            _distance_matrix(column, getattr(expert, kind), dist, out=stage[c, :n * m].reshape(n, m))
        acc, off = _sweep(stage, n, m)
        lengths = [len(_warping_path(acc[:, c], n, m, off)) for c in range(len(part))]
        scores.extend((acc[-1] / lengths).tolist())
        del stage, acc   # the next chunk's buffers must not meet these
    return [(scores[p], scores[q]) for p, q in zip(index[::2], index[1::2])]


# Listed pairs plus rows that the scene's path list may hold, at about 120 and
# 40 bytes each: a path that needs more is answered without leaving a list on
# the scene, as _CHUNK_CELLS bounds the DTW layouts kept here.
_PATH_BUDGET = 1 << 16


def collision_check(traj: Trajectory, scene: GaussianScene, rho_th: float):
    """Evaluate rho at every sample; collided iff any exceeds rho_th.

    Returns (collided, max_density, first_violation_index_or_None).  The
    densities have density_many's bits.  They are read through the neighbour
    list that the scene keeps, its one piece of mutable state
    (GaussianScene._paths): the list is built again only when the path has
    another row count than the one it was built at, or a row farther than its
    skin from it, so the paths of one dataset, which share a row count and
    lie near each other, are mostly answered by one list.  A path of over
    _PATH_BUDGET rows is read by density_many and never listed, and a list
    over _PATH_BUDGET pairs and rows answers its own path only: the scene
    drops it, and the next path makes a new one.
    """
    xs = traj.positions
    if len(xs) > _PATH_BUDGET:
        rhos = density_many(scene, xs)
    else:
        rhos = scene._paths.density(xs)
        if len(scene._paths.row) + len(xs) > _PATH_BUDGET:
            del scene._paths
    max_density = float(rhos.max()) if len(rhos) else 0.0
    over = np.nonzero(rhos > rho_th)[0]
    if len(over):
        return True, max_density, int(over[0])
    return False, max_density, None


# ---- writing error ----------------------------------------------------------

@dataclass(frozen=True)
class RasterSpec:
    resolution: int = param(128, "raster canvas size", "at least 1")
    stroke_px: int = param(3, "stroke width in pixels", "at least 1")
    plane_point: tuple = (0.0, 0.0, 0.0)
    plane_normal: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        check_fields(self)
        for name in ("plane_point", "plane_normal"):
            v = np.asarray(getattr(self, name))
            if v.shape != (3,) or v.dtype.kind not in "iuf" or not np.all(np.isfinite(v)):
                raise FieldError(name, f"must be 3 finite numbers, got {getattr(self, name)!r}")
        with np.errstate(over="ignore"):  # a length that overflows is refused here, not warned about
            length = np.linalg.norm(self.plane_normal)
        if not 0.0 < length < math.inf:
            raise FieldError("plane_normal", f"must have a finite non-zero length, got {self.plane_normal!r}")


@functools.lru_cache(maxsize=16)
def _plane_basis(normal: tuple):
    """Read-only orthonormal in-plane axes (u, w) of the plane with the given
    normal, a tuple of floats: every file of an eval shares one plane."""
    normal = np.asarray(normal)
    n = normal / np.linalg.norm(normal)
    e = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = e - np.dot(e, n) * n
    u /= np.linalg.norm(u)
    w = np.cross(n, u)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def project_to_plane(positions: np.ndarray, spec: RasterSpec) -> np.ndarray:
    p0 = np.asarray(spec.plane_point, dtype=float)
    u, w = _plane_basis(tuple(map(float, spec.plane_normal)))
    d = np.asarray(positions, dtype=float) - p0
    return np.stack([d @ u, d @ w], axis=1)


def _bresenham_pixels(x0, y0, x1, y1):
    """The pixels (x, y) of the Bresenham segments (x0, y0) -> (x1, y1),
    from each start to its end, segment after segment (Bresenham, IBM Syst.
    J. 4(1), 1965).  Each is in closed form: with a = |x1 - x0|, b =
    |y1 - y0|, L = max(a, b) and s = min(a, b), pixel k = 0..L has stepped k
    times along the major axis (x when a >= b) and floor((2ks + L) / 2L)
    times along the other, which is where the integer loop puts it."""
    a, b = np.abs(x1 - x0), np.abs(y1 - y0)
    major = np.maximum(a, b)
    pixels = major + 1
    seg = np.repeat(np.arange(len(a)), pixels)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(pixels) - pixels, pixels)
    span = major[seg]
    minor = (2 * k * np.minimum(a, b)[seg] + span) // np.maximum(2 * span, 1)
    along_x = (a >= b)[seg]
    return (x0[seg] + np.sign(x1 - x0)[seg] * np.where(along_x, k, minor),
            y0[seg] + np.sign(y1 - y0)[seg] * np.where(along_x, minor, k))


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
    x, y = _bresenham_pixels(*pix[:-1].T, *pix[1:].T)
    img[y, x] = True
    # the square stamp: grow by one pixel along each axis, stroke_px // 2 times;
    # the shifted slices stop at the canvas border, and res - 1 steps fill it
    for _ in range(min(spec.stroke_px // 2, res - 1)):
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
