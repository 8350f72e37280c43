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


# a source of at least 2 * _COARSE_ROWS rows first converges on about
# _COARSE_ROWS of them (Rusinkiewicz & Levoy, 3DIM 2001)
_COARSE_ROWS = 1000


def _icp_loop(source, target, tree, order, params: IcpParams, T: RigidTransform, stage: str) -> IcpResult:
    """Point-to-point ICP of the source rows from T, querying them in the
    given order and logging one DEBUG line per iteration as "icp <stage>iteration"."""
    dist, nn = np.empty(len(source)), np.empty(len(source), dtype=np.intp)
    residuals = []
    prev_rms = None
    n_inliers = 0
    for it in range(1, params.max_iters + 1):
        moved = T.apply(source)
        dist[order], nn[order] = tree.query(moved[order])
        mask = dist <= params.max_corr_dist
        n_inliers = int(np.count_nonzero(mask))
        if n_inliers < 3:
            raise AlignmentError("no usable correspondences within max_corr_dist")
        src, matched = source[mask], target[nn[mask]]
        T = _procrustes(src, matched)
        rms = float(np.sqrt(np.mean(np.sum((T.apply(src) - matched) ** 2, axis=1))))
        residuals.append(rms)
        change = math.inf if prev_rms is None else abs(prev_rms - rms)
        log.debug("icp %siteration %d/%d: %d of %d inliers, rms %.9g m, rms change %.3g (tol %.3g)",
                  stage, it, params.max_iters, n_inliers, len(source), rms, change, params.tol)
        if change < params.tol:
            break
        prev_rms = rms
    return IcpResult(transform=T, rms=residuals[-1], residuals=residuals,
                     n_inliers=n_inliers)


def icp_align(source, target, params: IcpParams | None = None,
              init: RigidTransform | None = None) -> IcpResult:
    """Point-to-point ICP: nearest-neighbor matching capped at max_corr_dist,
    closed-form SVD update, until RMS change < tol or max_iters.  A non-finite
    row in either array is an AlignmentError naming it.

    The moved source rows query the target tree in the leaf order of a k-d
    tree of their own, so that consecutive queries walk the same branches.
    Each row's query is unbounded and independent of the others, and the
    distances and matches are scattered back to the caller's order, so the
    result is bit for bit that of querying in the caller's order.

    A source of n >= 2 * _COARSE_ROWS rows first runs a coarse stage on every
    k-th row of that leaf order, k = n // _COARSE_ROWS, from init to the same
    stopping rule; the full stage then runs on every row from the coarse
    transform, or from init if the coarse stage raised an AlignmentError.
    The result's residuals, rms and n_inliers are the full stage's.  Each
    iteration logs one DEBUG line, "icp coarse iteration" in the coarse stage."""
    params = params or IcpParams()
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if len(source) < 3 or len(target) < 3:
        raise AlignmentError("need at least 3 points in source and target")
    for name, points in (("source", source), ("target", target)):
        bad = np.flatnonzero(~np.all(np.isfinite(points), axis=1))
        if len(bad):
            raise AlignmentError(f"{name} row {bad[0]}: non-finite point {points[bad[0]].tolist()}")
    tree = cKDTree(target)
    order = cKDTree(source, balanced_tree=False, compact_nodes=False).indices
    T = init or RigidTransform.identity()
    k = len(source) // _COARSE_ROWS
    if k >= 2:
        sample = source[order[::k]]
        try:
            T = _icp_loop(sample, target, tree, np.arange(len(sample)), params, T, "coarse ").transform
        except AlignmentError:
            pass   # the full stage starts from init
    return _icp_loop(source, target, tree, order, params, T, "")


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
