"""Rigid metric alignment via point-to-point ICP with SVD Procrustes updates."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .splats import GaussianScene


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

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self o other)(x) = self(other(x))."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

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
    max_iters: int = 100
    tol: float = 1e-8
    max_corr_dist: float = 0.1


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
    s = np.linalg.svd(H, compute_uv=False)
    if s[2] < 1e-12 * max(s[0], 1e-300):
        raise AlignmentError("degenerate cross-covariance (rank < 3)")
    U, _, Vt = np.linalg.svd(H)
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(Vt.T @ U.T))])
    R = Vt.T @ D @ U.T
    return RigidTransform(R, cd - R @ cs)


def icp_align(source, target, params: IcpParams | None = None,
              init: RigidTransform | None = None) -> IcpResult:
    """Point-to-point ICP: nearest-neighbor matching capped at max_corr_dist,
    closed-form SVD update, until RMS change < tol or max_iters."""
    params = params or IcpParams()
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if len(source) < 3 or len(target) < 3:
        raise AlignmentError("need at least 3 points in source and target")
    tree = cKDTree(target)
    T = init or RigidTransform.identity()
    residuals = []
    prev_rms = None
    n_inliers = 0
    for _ in range(params.max_iters):
        moved = T.apply(source)
        dist, nn = tree.query(moved)
        mask = dist <= params.max_corr_dist
        if np.count_nonzero(mask) < 3:
            raise AlignmentError("no usable correspondences within max_corr_dist")
        n_inliers = int(np.count_nonzero(mask))
        T = _procrustes(source[mask], target[nn[mask]])
        moved = T.apply(source[mask])
        rms = float(np.sqrt(np.mean(np.sum((moved - target[nn[mask]]) ** 2, axis=1))))
        residuals.append(rms)
        if prev_rms is not None and abs(prev_rms - rms) < params.tol:
            break
        prev_rms = rms
    return IcpResult(transform=T, rms=residuals[-1], residuals=residuals,
                     n_inliers=n_inliers)


def apply_transform(scene: GaussianScene, T: RigidTransform) -> GaussianScene:
    """Rigidly move a scene: mu <- R mu + t, Sigma <- R Sigma R^T, and so
    Sigma^-1 <- R Sigma^-1 R^T with the radii unchanged; density is
    transform-equivariant: rho'(R x + t) = rho(x).  A SceneFormatError names
    the first splat whose bounding sphere the move takes too far."""
    R = T.rotation
    return GaussianScene._from_factors(T.apply(scene.means), R @ scene.covariances @ R.T,
                                       R @ scene.inv_covariances @ R.T, scene.radii, scene.opacities,
                                       scene.opacity_floor, scene.rejected_count, "moved splat")
