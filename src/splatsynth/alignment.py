"""Rigid metric alignment via point-to-point ICP with SVD Procrustes updates."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import check_fields, param
from .splats import GaussianScene

log = logging.getLogger(__name__)


class AlignmentError(RuntimeError):
    """Raised on degenerate geometry or an empty correspondence set."""


@dataclass(frozen=True)
class RigidTransform:
    rotation: np.ndarray     # (3,3), orthonormal, det +1
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9 or abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation must be orthonormal with det +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation

    def to_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @classmethod
    def from_matrix(cls, m) -> "RigidTransform":
        m = np.asarray(m, dtype=float)
        return cls(m[:3, :3], m[:3, 3])

    def save_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"matrix": [[float(v) for v in row] for row in self.to_matrix()]},
                      f, indent=2, sort_keys=True)

    @classmethod
    def load_json(cls, path) -> "RigidTransform":
        """The transform of a {"matrix": <4x4 numbers>} file; a ValueError naming the file otherwise."""
        try:
            with open(path) as f:
                m = json.load(f)["matrix"]
            if not all(type(v) in (int, float) for row in m for v in row):
                raise TypeError
            m = np.array(m, dtype=float)
        except (ValueError, TypeError, LookupError, OverflowError):
            m = None
        if m is None or m.shape != (4, 4) or not np.all(np.isfinite(m)):
            raise ValueError(f'{path}: transform must be {{"matrix": <4x4 finite numbers>}}')
        try:
            T = cls.from_matrix(m)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValueError(f"{path}: bottom row must be [0, 0, 0, 1], got {m[3].tolist()}")
        return T


@dataclass
class IcpParams:
    max_iters: int = param(100, "ICP iteration cap", "at least 1")
    tol: float = param(1e-8, "RMS change stop tolerance, m", "non-negative")
    max_corr_dist: float = param(0.1, "correspondence cap, m", "positive")

    def __post_init__(self):
        check_fields(self)


@dataclass
class IcpResult:
    transform: RigidTransform
    rms: float
    residuals: list = field(default_factory=list)  # RMS per iteration
    n_inliers: int = 0


def _procrustes(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Closed-form least-squares rigid fit of src onto dst (matched rows)."""
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    H = (src - cs).T @ (dst - cd)
    U, s, Vt = np.linalg.svd(H)
    if s[2] < 1e-12 * max(s[0], 1e-300):
        raise AlignmentError("degenerate cross-covariance (rank < 3)")
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ D @ U.T
    return RigidTransform(R, cd - R @ cs)


# Coordinates past this are refused: the target tree squares coordinate
# differences, which overflow past about 1e154, and the fit sums products of
# them over the rows.  It lies above splats._MAX_REACH, so that a scene fitted
# to a proxy past that reach is refused as a moved scene, naming its transform.
_MAX_COORD = 1e151

# a source of at least 2 * _COARSE_ROWS rows first converges on about
# _COARSE_ROWS of them (Rusinkiewicz & Levoy, 3DIM 2001)
_COARSE_ROWS = 1000

# After a fit, an inlier's match lies within the largest inlier residual r, so
# its nearest target does too, and the next query of the row looks only
# _INLIER_REACH * r far.  The match needs one r; the second leaves the bound
# that stands in for an unfound second target at least r above the match, so
# that the certificate can keep the match while later fits move the row by up
# to about r / 2 (matches change little from one iteration to the next:
# Nuechter, Lingemann & Hertzberg, 3DIM 2007).
_INLIER_REACH = 2.0

# A row that was an outlier is queried _OUTLIER_REACH times as far as
# max_corr_dist: with no target within that reach, the reach is a lower bound
# on its nearest distance, which certifies it an outlier until it moves about
# max_corr_dist, where a reach just past max_corr_dist certifies nothing.
_OUTLIER_REACH = 2.0


def _icp_loop(source, target, tree, order, params: IcpParams, T: RigidTransform, stage: str,
              radius: float = math.inf) -> tuple[IcpResult, float]:
    """Point-to-point ICP of the source rows from T, querying them in the
    given order and logging one DEBUG line per iteration as "icp <stage>iteration".
    Returns the result and the largest inlier residual of its last fit.

    A row is queried for its 2 nearest targets, and keeps that match
    unqueried while the triangle inequality certifies it: moved delta from
    where it was queried, its nearest (d1) stays nearer than its second (at
    least d2), and within max_corr_dist; or d1, a lower bound on its nearest
    distance, stays past max_corr_dist, with eps to spare for rounding.  A
    row whose two are equidistant is queried again unbounded, which breaks
    the tie as a plain query does.  An iteration that queries no row keeps
    the previous one's matches, and so its transform, rms and inliers.

    How far a row is queried is sized by what the last fit proved.  Every row
    at the first iteration, and each row that was an inlier, is first queried
    within b = _INLIER_REACH * radius + 4 eps (radius being the largest inlier
    residual, or the caller's for the first iteration), or within reach, just
    past max_corr_dist, if that is nearer; d2 is then the second's distance
    or b, whichever is less.  A row with no target within b, and each row that
    was an outlier, is queried within _OUTLIER_REACH * reach, whose reach
    stands for d1 where it finds no target.  Each row's nearest within any
    bound is its nearest, so every pick is that of an unbounded query."""
    n, cap = len(source), params.max_corr_dist
    reach = cap * (1 + 1e-6)   # cKDTree keeps only targets strictly nearer than its bound
    far = _OUTLIER_REACH * reach
    at, nn = np.zeros_like(source), np.empty(n, dtype=np.intp)
    d1, d2 = np.zeros(n), np.zeros(n)   # certify nothing, and send each row to the bounded query first
    scale = 1 + np.abs(target).max() + np.abs(source).max()
    residuals, prev_rms, n_inliers = [], None, 0

    def query(moved, sub, b):
        """Query the rows sub within b, and record what it proves; their found and tied flags."""
        dist, match = tree.query(moved[sub], k=2, distance_upper_bound=b)
        at[sub], nn[sub] = moved[sub], match[:, 0]
        d1[sub], d2[sub] = np.minimum(dist[:, 0], b), np.minimum(dist[:, 1], b)
        found = np.isfinite(dist[:, 0])
        return found, found & (dist[:, 0] == dist[:, 1])

    for it in range(1, params.max_iters + 1):
        moved = T.apply(source)
        step = moved - at
        delta = np.sqrt(np.einsum("ij,ij->i", step, step))
        eps = 1e-12 * (scale + np.abs(moved).max())   # bounds the rounding of d1, d2, delta and radius
        kept = (((d1 + 2 * delta + eps < d2) & (d1 + delta + eps <= cap))
                | (d1 > cap + delta + eps))
        rows = order[~kept[order]]
        bound = min(reach, _INLIER_REACH * radius + 4 * eps)
        past = d1[rows] > cap   # of rows, those queried past bound: outliers, then the bound's misses
        if len(rows):
            near, tied = ~past, np.zeros(len(rows), dtype=bool)
            if near.any():
                found, tied[near] = query(moved, rows[near], bound)
                past[near] = ~found
            if past.any():
                tied[past] = query(moved, rows[past], far)[1]
            tie = rows[tied]
            if len(tie):
                d1[tie], nn[tie] = tree.query(moved[tie])
            mask = d1 <= cap
            n_inliers = int(np.count_nonzero(mask))
            if n_inliers < 3:
                raise AlignmentError("no usable correspondences within max_corr_dist")
            src, matched = source[mask], target[nn[mask]]
            T = _procrustes(src, matched)
            sq = np.sum((T.apply(src) - matched) ** 2, axis=1)
            rms, radius = float(np.sqrt(np.mean(sq))), math.sqrt(sq.max())
        residuals.append(rms)
        change = math.inf if prev_rms is None else abs(prev_rms - rms)
        log.debug("icp %siteration %d/%d: %d of %d inliers, rms %.9g m, rms change %.3g (tol %.3g), "
                  "%d of %d rows queried within %.3g m, %d past it", stage, it, params.max_iters,
                  n_inliers, n, rms, change, params.tol, len(rows), n, bound, np.count_nonzero(past))
        if change < params.tol:
            break
        prev_rms = rms
    return IcpResult(transform=T, rms=residuals[-1], residuals=residuals, n_inliers=n_inliers), radius


def icp_align(source, target, params: IcpParams | None = None,
              init: RigidTransform | None = None) -> IcpResult:
    """Point-to-point ICP: nearest-neighbor matching capped at max_corr_dist,
    closed-form SVD update, until RMS change < tol or max_iters.  A row in
    either array that is not finite, or lies past _MAX_COORD on an axis, is
    an AlignmentError naming it.

    The moved source rows query the target tree in the leaf order of a k-d
    tree of their own, so that consecutive queries walk the same branches.
    Each iteration queries only the rows whose match can have changed, each
    only as far as the last fit proves it must (see _icp_loop); each row's
    match is exact and independent of the others, so the result is bit for
    bit that of a plain, unbounded query of every row, in the caller's order,
    in every iteration.

    A source of n >= 2 * _COARSE_ROWS rows first runs a coarse stage on every
    k-th row of that leaf order, k = n // _COARSE_ROWS, from init to the same
    stopping rule; the full stage then runs on every row from the coarse
    transform, its first query bounded by the coarse fit's largest inlier
    residual, or from init as if alone if the coarse stage raised an
    AlignmentError.  The result's residuals, rms and n_inliers are the full
    stage's.  Each iteration logs one DEBUG line, "icp coarse iteration" in
    the coarse stage, which ends with how many rows it queried, how far their
    first query reached, and how many it queried past that."""
    params = params or IcpParams()
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if len(source) < 3 or len(target) < 3:
        raise AlignmentError("need at least 3 points in source and target")
    for name, points in (("source", source), ("target", target)):
        bad = np.flatnonzero(~np.all(np.abs(points) <= _MAX_COORD, axis=1))
        if len(bad):
            row = points[bad[0]].tolist()
            what = (f"point {row} lies past {_MAX_COORD:g} m from the origin" if np.all(np.isfinite(row))
                    else f"non-finite point {row}")
            raise AlignmentError(f"{name} row {bad[0]}: {what}")
    tree = cKDTree(target)
    order = cKDTree(source, balanced_tree=False, compact_nodes=False).indices
    T, radius = init or RigidTransform.identity(), math.inf
    k = len(source) // _COARSE_ROWS
    if k >= 2:
        sample = source[order[::k]]
        try:
            coarse, radius = _icp_loop(sample, target, tree, np.arange(len(sample)), params, T, "coarse ")
            T = coarse.transform
        except AlignmentError:
            pass   # the full stage starts from init
    return _icp_loop(source, target, tree, order, params, T, "", radius)[0]


def _rotated(R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """R @ C @ R.T of each matrix in the (n, 3, 3) stack C.  The right-hand
    product is one flat (3n, 3) GEMM, which gives the same bits as the
    broadcast product at a fraction of its per-matrix cost."""
    return ((R @ C).reshape(-1, 3) @ R.T).reshape(C.shape)


def apply_transform(scene: GaussianScene, T: RigidTransform) -> GaussianScene:
    """Rigidly move a scene: mu <- R mu + t, Sigma <- R Sigma R^T, and so
    Sigma^-1 <- R Sigma^-1 R^T with the radii unchanged; density is
    transform-equivariant: rho'(R x + t) = rho(x).  A SceneFormatError names
    the first splat whose bounding sphere the move takes too far."""
    R = T.rotation
    return GaussianScene._from_factors(T.apply(scene.means), _rotated(R, scene.covariances),
                                       _rotated(R, scene.inv_covariances), scene.radii, scene.opacities,
                                       scene.opacity_floor, scene.rejected_count, "moved splat")
