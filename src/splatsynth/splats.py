"""Gaussian-splat scenes as continuous density fields.

A scene is a set of anisotropic 3D Gaussians (mean, covariance, opacity).
The opacity-weighted kernel sum rho(x) acts as a smooth occupancy proxy; a
cKDTree neighbour index over the blob means keeps per-query work local.
Contributions are truncated at a fixed cutoff of CUTOFF_SIGMA standard
deviations (bounding radius per blob), which keeps the truncation error below
1e-6 relative on scenes whose blob spacing exceeds the cutoff radius.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

CUTOFF_SIGMA = 4.0
DEFAULT_OPACITY_FLOOR = 0.05
DEFAULT_GRADIENT_STEP = 1e-3


class SceneFormatError(ValueError):
    """Raised when a scene file is malformed or misses required fields."""


@dataclass(frozen=True)
class GaussianBlob:
    mean: np.ndarray           # (3,)
    covariance: np.ndarray     # (3,3) symmetric positive definite
    opacity: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))


def _valid_covariances(covs: np.ndarray) -> np.ndarray:
    """Mask of the (n, 3, 3) covariances that are finite, symmetric and
    positive definite."""
    ok = np.all(np.isfinite(covs), axis=(1, 2))
    ok &= np.max(np.abs(covs - covs.transpose(0, 2, 1)), axis=(1, 2), initial=0.0) <= 1e-9
    ok[ok] = np.linalg.eigvalsh(covs[ok])[:, 0] > 1e-12
    return ok


class GaussianScene:
    """Immutable splat scene with vectorized density queries."""

    def __init__(self, blobs, opacity_floor: float = DEFAULT_OPACITY_FLOOR,
                 rejected_count: int = 0):
        blobs = list(blobs)
        self._set_up(np.array([b.mean for b in blobs]), np.array([b.covariance for b in blobs]),
                     np.array([b.opacity for b in blobs]), opacity_floor, rejected_count)

    @classmethod
    def from_arrays(cls, means, covariances, opacities,
                    opacity_floor: float = DEFAULT_OPACITY_FLOOR,
                    rejected_count: int = 0) -> "GaussianScene":
        """Scene from (n, 3) means, (n, 3, 3) covariances and (n,) opacities."""
        scene = cls.__new__(cls)
        scene._set_up(means, covariances, opacities, opacity_floor, rejected_count)
        return scene

    def _set_up(self, means, covariances, opacities, opacity_floor, rejected_count):
        opacities = np.asarray(opacities, dtype=float).reshape(-1)
        kept = opacities >= opacity_floor
        self.opacity_floor = float(opacity_floor)
        self.rejected_count = int(rejected_count)
        self.means = np.asarray(means, dtype=float).reshape(-1, 3)[kept]
        self.covariances = np.asarray(covariances, dtype=float).reshape(-1, 3, 3)[kept]
        self.opacities = opacities[kept]
        self.inv_covariances = np.linalg.inv(self.covariances)
        self.radii = CUTOFF_SIGMA * np.sqrt(np.linalg.eigvalsh(self.covariances)[:, -1])
        self.max_radius = float(np.max(self.radii, initial=0.0))
        self.tree = cKDTree(self.means)

    def __len__(self) -> int:
        return len(self.means)


def query_neighbors(scene: GaussianScene, x, radius: float):
    """Indices of blobs whose bounding sphere intersects the ball (x, radius)."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        return np.empty(0, dtype=np.intp)   # no blob is a finite distance away
    # The tree's reach is padded so that rounding in its squared-distance test
    # never drops a blob that the exact per-blob test below keeps.
    reach = (radius + scene.max_radius) * (1.0 + 1e-9)
    cand = np.array(scene.tree.query_ball_point(x, reach, return_sorted=True), dtype=np.intp)
    if len(cand) == 0:
        return cand
    d = np.linalg.norm(scene.means[cand] - x, axis=1)
    return cand[d <= radius + scene.radii[cand]]


def _kernel_sum(scene: GaussianScene, x, idx) -> float:
    if len(idx) == 0:
        return 0.0
    d = x - scene.means[idx]
    m = np.einsum("ni,nij,nj->n", d, scene.inv_covariances[idx], d)
    return float(np.sum(scene.opacities[idx] * np.exp(-0.5 * m)))


def density(scene: GaussianScene, x) -> float:
    """rho(x): opacity-weighted Gaussian kernel sum over the local neighborhood."""
    x = np.asarray(x, dtype=float)
    return _kernel_sum(scene, x, query_neighbors(scene, x, 0.0))


def density_many(scene: GaussianScene, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    return np.array([density(scene, x) for x in xs])


def density_bruteforce(scene: GaussianScene, x) -> float:
    """Full sum over all blobs with no cutoff; oracle for the truncated path."""
    x = np.asarray(x, dtype=float)
    if len(scene) == 0:
        return 0.0
    return _kernel_sum(scene, x, np.arange(len(scene)))


def density_gradient(scene: GaussianScene, x, h: float = DEFAULT_GRADIENT_STEP) -> np.ndarray:
    """Central-difference gradient of rho, step h per axis (6 evaluations)."""
    if h <= 0:
        raise ValueError("gradient step h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.zeros(3)
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        g[a] = (density(scene, x + e) - density(scene, x - e)) / (2.0 * h)
    return g


def density_gradient_analytic(scene: GaussianScene, x) -> np.ndarray:
    """Closed-form mixture gradient; oracle for the finite-difference path."""
    x = np.asarray(x, dtype=float)
    if len(scene) == 0:
        return np.zeros(3)
    d = x - scene.means
    siv = np.einsum("nij,nj->ni", scene.inv_covariances, d)
    m = np.einsum("ni,ni->n", d, siv)
    w = scene.opacities * np.exp(-0.5 * m)
    return -np.einsum("n,ni->i", w, siv)


# ---- loading ---------------------------------------------------------------

def _arrays_from_json(data):
    if "blobs" not in data:
        raise SceneFormatError("scene JSON missing 'blobs' key")
    means, covs, opacities = [], [], []
    rejected = 0
    for entry in data["blobs"]:
        for key in ("mu", "cov", "alpha"):
            if key not in entry:
                raise SceneFormatError(f"blob entry missing '{key}'")
        mu = np.asarray(entry["mu"], dtype=float)
        if mu.shape != (3,):
            raise SceneFormatError(f"blob 'mu' must hold 3 numbers, got shape {mu.shape}")
        cov = np.asarray(entry["cov"], dtype=float)
        if cov.shape != (3, 3):
            rejected += 1
            continue
        means.append(mu)
        covs.append(cov)
        opacities.append(float(entry["alpha"]))
    covs = np.array(covs).reshape(-1, 3, 3)
    valid = _valid_covariances(covs)
    rejected += int(np.count_nonzero(~valid))
    return np.array(means).reshape(-1, 3)[valid], covs[valid], np.array(opacities)[valid], rejected


_PLY_REQUIRED = ["x", "y", "z", "scale_0", "scale_1", "scale_2",
                 "rot_0", "rot_1", "rot_2", "rot_3", "opacity"]

_PLY_TYPES = {
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "uchar": "u1", "uint8": "u1",
    "char": "i1", "int8": "i1",
    "short": "i2", "ushort": "u2",
}


def _parse_ply(path):
    """Return the columns of a single-element PLY, indexable by property name."""
    with open(path, "rb") as f:
        raw = f.read()
    end = re.search(rb"end_header\r?\n", raw)
    if not raw.startswith(b"ply") or end is None:
        raise SceneFormatError(f"{path}: not a PLY file")
    header = raw[:end.start()].decode("ascii").splitlines()
    body = raw[end.end():]
    fmt = None
    count = None
    props = []
    for line in header:
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "format":
            fmt = tok[1]
        elif tok[0] == "element":
            if count is not None:
                raise SceneFormatError(f"{path}: multiple PLY elements unsupported")
            count = int(tok[2])
            if count < 0:
                raise SceneFormatError(f"{path}: negative PLY element count {count}")
        elif tok[0] == "property":
            if tok[1] == "list":
                raise SceneFormatError(f"{path}: list properties unsupported")
            props.append((tok[2], tok[1]))
    if fmt is None or count is None:
        raise SceneFormatError(f"{path}: incomplete PLY header")
    names = [p[0] for p in props]
    missing = [k for k in _PLY_REQUIRED if k not in names]
    if missing:
        raise SceneFormatError(f"{path}: PLY missing fields {missing}")
    if len(set(names)) != len(names):
        raise SceneFormatError(f"{path}: duplicate PLY property names")
    if fmt == "ascii":
        values = np.array([float(v) for v in body.split()])
        if values.size != count * len(props):
            raise SceneFormatError(f"{path}: PLY body shape mismatch")
        rows = values.reshape(count, len(props))
        return {name: rows[:, i] for i, name in enumerate(names)}
    if fmt == "binary_little_endian":
        for _, t in props:
            if t not in _PLY_TYPES:
                raise SceneFormatError(f"{path}: unsupported PLY type {t}")
        record = np.dtype([(name, "<" + _PLY_TYPES[t]) for name, t in props])
        if len(body) < record.itemsize * count:
            raise SceneFormatError(f"{path}: truncated PLY body")
        return np.frombuffer(body, dtype=record, count=count)
    raise SceneFormatError(f"{path}: unsupported PLY format {fmt}")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _arrays_from_ply(path, scale_convention: str):
    from .geometry import quat_to_matrix

    cols = _parse_ply(path)

    def stack(*names):
        return np.stack([np.asarray(cols[n], dtype=float) for n in names], axis=1)

    means = stack("x", "y", "z")
    scales = stack("scale_0", "scale_1", "scale_2")
    quats = stack("rot_0", "rot_1", "rot_2", "rot_3")
    opacities = np.asarray(cols["opacity"], dtype=float)
    if scale_convention == "preactivation":
        scales = np.exp(scales)
        opacities = _sigmoid(opacities)
    norms = np.linalg.norm(quats, axis=1)
    nonzero = norms != 0.0
    rot = quat_to_matrix((quats[nonzero] / norms[nonzero, None]).T).transpose(2, 0, 1)
    covs = (rot * scales[nonzero, None, :] ** 2) @ rot.transpose(0, 2, 1)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    valid = _valid_covariances(covs)
    rejected = int(np.count_nonzero(~nonzero) + np.count_nonzero(~valid))
    return means[nonzero][valid], covs[valid], opacities[nonzero][valid], rejected


def load_scene(path, opacity_floor: float = DEFAULT_OPACITY_FLOOR,
               scale_convention: str = "preactivation") -> GaussianScene:
    """Load a scene from 3DGS PLY or the native JSON format.

    scale_convention selects how PLY stores scales/opacity: "preactivation"
    (log-scales, logit opacity; the common 3DGS export) or "raw".
    """
    if scale_convention not in ("preactivation", "raw"):
        raise ValueError(f"unknown scale_convention: {scale_convention}")
    if str(path).endswith(".ply"):
        means, covs, opacities, rejected = _arrays_from_ply(path, scale_convention)
    else:
        with open(path) as f:
            data = json.load(f)
        means, covs, opacities, rejected = _arrays_from_json(data)
    return GaussianScene.from_arrays(means, covs, opacities, opacity_floor=opacity_floor,
                                     rejected_count=rejected)


def save_scene_json(scene: GaussianScene, path) -> None:
    data = {"blobs": [
        {"mu": [float(v) for v in m],
         "cov": [[float(v) for v in row] for row in c],
         "alpha": float(a)}
        for m, c, a in zip(scene.means, scene.covariances, scene.opacities)
    ]}
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
