"""Gaussian-splat scenes as continuous density fields.

A scene is a set of anisotropic 3D Gaussians (mean, covariance, opacity).
The opacity-weighted kernel sum rho(x) acts as a smooth occupancy proxy; a
cKDTree neighbour index over the blob means, built at the scene's first
query, keeps per-query work local.  All rows of a query go to it as one
dual-tree query against a small tree of the rows, which returns every
candidate (row, blob) pair as one array.  A stream of row batches that move
little from one to the next, as the coupling hook's are, is answered with the
same bits from a neighbour list that is queried again only when a row moves
more than its skin (_NeighborList); so are the coupling hook's gradient
probes, from a list that also holds each row's splats within the gradient
step, and the paths that collision_check reads, from a list the scene keeps
(GaussianScene._paths).
Every read sums each row's kernel terms in pair order, left to right from
+0.0, in one weighted bincount (_density_sums).
Contributions are truncated at a fixed cutoff of CUTOFF_SIGMA standard
deviations (bounding radius per blob), which keeps the truncation error below
1e-6 relative on scenes whose blob spacing exceeds the cutoff radius.
"""

from __future__ import annotations

import json
import os
import re
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

CUTOFF_SIGMA = 4.0
DEFAULT_OPACITY_FLOOR = 0.05
DEFAULT_GRADIENT_STEP = 1e-3
# Every bounding sphere stays within this distance of the origin along each
# axis: the neighbour index squares distances, which overflow past about 1e154.
_MAX_REACH = 1e150


class SceneFormatError(ValueError):
    """Raised when a scene file is malformed or misses required fields."""


@dataclass(frozen=True)
class GaussianBlob:
    mean: np.ndarray           # (3,)
    covariance: np.ndarray     # (3,3) symmetric positive definite
    opacity: float


class GaussianScene:
    """Splat scene with vectorized density queries.  Its splats never change
    after it is made; its one piece of mutable state is the neighbour list
    that collision_check reads paths through (_paths), which changes no
    result's bits."""

    def __init__(self, blobs, opacity_floor: float = DEFAULT_OPACITY_FLOOR):
        blobs = list(blobs)
        vars(self).update(vars(GaussianScene.from_arrays(
            [b.mean for b in blobs], [b.covariance for b in blobs], [b.opacity for b in blobs], opacity_floor)))

    @classmethod
    def from_arrays(cls, means, covariances, opacities,
                    opacity_floor: float = DEFAULT_OPACITY_FLOOR) -> "GaussianScene":
        """Scene from (n, 3) means, (n, 3, 3) covariances and (n,) opacities.
        A covariance that is not finite, symmetric and positive definite is
        dropped and counted in rejected_count.  One eigvalsh gives each
        covariance's smallest eigenvalue (the validity test) and its largest
        (the radius)."""
        covs = np.asarray(covariances, dtype=float).reshape(-1, 3, 3)
        valid = np.all(np.isfinite(covs), axis=(1, 2))
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite asymmetry fails the test
            valid &= np.max(np.abs(covs - covs.transpose(0, 2, 1)), axis=(1, 2), initial=0.0) <= 1e-9
        eig = np.linalg.eigvalsh(covs[valid])
        positive = eig[:, 0] > 1e-12
        valid[valid] = positive
        covs = covs[valid]
        return cls._from_factors(np.asarray(means, dtype=float).reshape(-1, 3)[valid], covs, np.linalg.inv(covs),
                                 CUTOFF_SIGMA * np.sqrt(eig[positive, -1]),
                                 np.asarray(opacities, dtype=float).reshape(-1)[valid], opacity_floor,
                                 int(np.count_nonzero(~valid)), "blob", np.flatnonzero(valid))

    @classmethod
    def _from_factors(cls, means, covs, inv_covs, radii, opacities, opacity_floor, rejected_count,
                      name: str, numbers=None) -> "GaussianScene":
        """The one tail every scene goes through, given its valid splats with
        their inverse covariances and radii: _kept_splats' reach and floor
        rules, then the splats at or above the floor.  The neighbour index is
        built at the first query."""
        kept = _kept_splats(means, radii, opacities, opacity_floor, name, numbers)
        if not kept.all():
            means, covs, inv_covs, radii, opacities = (a[kept] for a in (means, covs, inv_covs, radii, opacities))
        scene = cls.__new__(cls)
        scene.opacity_floor = float(opacity_floor)
        scene.rejected_count = int(rejected_count)
        scene.means, scene.covariances, scene.inv_covariances = means, covs, inv_covs
        scene.radii, scene.opacities = radii, opacities
        scene.max_radius = float(np.max(radii, initial=0.0))
        return scene

    @cached_property
    def tree(self) -> cKDTree:
        """Neighbour index over the means, built at the first query."""
        return cKDTree(self.means)

    @cached_property
    def _paths(self) -> "_NeighborList":
        """The neighbour list that collision_check reads a stream of paths
        through, made at the first path, as tree is.  It holds the scene
        through a weak proxy, so that the two form no cycle."""
        return _NeighborList(weakref.proxy(self))

    def __len__(self) -> int:
        return len(self.means)


def _kept_splats(means, radii, opacities, opacity_floor, name: str, numbers=None) -> np.ndarray:
    """The reach and floor rules of every scene, on valid splats: refuse a
    splat whose mean or opacity is not finite or whose bounding sphere
    reaches past _MAX_REACH on an axis (a SceneFormatError naming the first
    as "<name> <numbers[k]>", numbers defaulting to k), and mask the splats
    at or above the opacity floor."""
    # a splat's largest |mean| over the axes, plus its radius, rounds as the largest sum
    # does; one axis at a time keeps the temporaries to a column
    reach = np.abs(means[:, 0])
    for d in (1, 2):
        np.maximum(reach, np.abs(means[:, d]), out=reach)
    reach += radii
    bad = np.flatnonzero(~(reach <= _MAX_REACH) | ~np.isfinite(opacities))
    if len(bad):
        k = bad[0]
        what = (f"non-finite mean {means[k].tolist()}" if not np.all(np.isfinite(means[k])) else
                f"non-finite opacity {opacities[k]}" if not np.isfinite(opacities[k]) else
                f"bounding sphere reaches past {_MAX_REACH:g} m from the origin")
        raise SceneFormatError(f"{name} {k if numbers is None else numbers[k]}: {what}")
    return opacities >= opacity_floor


def _norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm(d, axis=1) of (n, 3) offsets, with its bits: it too
    sums the squares left to right and does not rescale, so an offset past
    about 1.34e154 squares to inf, and one below about 1.5e-162 to 0."""
    s = d * d
    return np.sqrt(s[:, 0] + s[:, 1] + s[:, 2])


def _neighbors(scene: GaussianScene, xs: np.ndarray, radius: float, slack: float = 0.0):
    """Blob neighbours of the (n, 3) rows xs, as (row, blob) index arrays
    grouped by row, blobs ascending within a row.  A blob of radius r is a
    neighbour of x when |x - mean| <= (radius + r) * (1 + slack): with no
    slack, when its bounding sphere meets the ball (x, radius)."""
    # a non-finite row, and one beyond every blob's reach, has no neighbours
    rows = np.flatnonzero((np.abs(xs) <= _MAX_REACH + radius).all(axis=1))
    if len(scene) == 0 or len(rows) == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    # One dual-tree query against a quickly built tree of the rows returns every
    # candidate (blob, row) pair as one array.  Its reach is padded 1e-9 beyond
    # the slack, so that rounding in the trees' squared-distance test never drops
    # a blob that the exact per-blob test below keeps.
    reach = (radius + scene.max_radius) * (1.0 + slack + 1e-9)
    queries = cKDTree(xs[rows], balanced_tree=False, compact_nodes=False)
    pairs = scene.tree.sparse_distance_matrix(queries, reach, output_type="ndarray")
    cand, row = pairs["i"], rows[pairs["j"]]
    keep = _norms(scene.means[cand] - xs[row]) <= (radius + scene.radii[cand]) * (1.0 + slack)
    cand, row = cand[keep], row[keep]
    order = np.lexsort((cand, row))
    return row[order], cand[order]


# How far past its blobs' reach a _NeighborList looks, m: a row is queried
# again once it moves farther than this from where it was last queried.  On
# the coupling hook's rows in bench/run.py's scene_synth, skins of 3 to 5 cm
# answered equally fast, and 1 and 2 cm slower; 3 cm lists the fewest pairs of
# those.  (The one-blob scene of c05_batch favours larger skins still.)
_SKIN = 0.03


class _NeighborList:
    """Densities of a stream of (n, 3) row batches that move little from one
    batch to the next, each batch answered bit for bit as density_many
    answers it, from a Verlet list (Verlet, Phys. Rev. 159, 98, 1967).

    A rebuild lists the blobs within _SKIN + probe_step of each row's reach,
    by one _neighbors query whose exact test is padded by 1e-9 relative, so
    that no rounding drops a blob.  It keeps each pair's row, mean, inverse
    covariance, radius and opacity, grouped by row with blobs ascending.
    While every row stays within _SKIN of where the list was built, the
    triangle inequality keeps each of its true neighbours listed: a batch
    runs _neighbors' exact test on the listed pairs alone, and the pairs it
    keeps are in order, to be summed as density_many sums them.  A change of
    row count, a row that moved farther, or one that is not finite, rebuilds
    the list.  rebuilds, listed and kept count the rebuilds and the pairs
    tested and kept over every batch.

    The coupling hook's list also holds each row's splats within its
    gradient step, probe_step: a probe that close to a row read by density
    lies within _SKIN + probe_step of where the row was listed, and is
    answered from the row's pairs (probe_density).  A step past _SKIN is not
    listed (probe_step 0).  probed counts the probe points answered.

    The scene's list (GaussianScene._paths) reads each path of
    collision_check's stream through density, by the same rule."""

    def __init__(self, scene: GaussianScene, probe_step: float = 0.0):
        self.scene = scene
        self.skin = _SKIN
        self.probe_step = probe_step if probe_step <= self.skin else 0.0
        self.origin = None   # the rows as the list was built, or None before the first batch
        self.rebuilds = self.listed = self.kept = self.probed = 0

    def _rebuild(self, xs: np.ndarray) -> None:
        scene = self.scene
        self.row, idx = _neighbors(scene, xs, self.skin + self.probe_step, slack=1e-9)
        self.means, self.inv_covariances = scene.means[idx], scene.inv_covariances[idx]
        self.radii, self.opacities = scene.radii[idx], scene.opacities[idx]
        self.counts = np.bincount(self.row, minlength=len(xs))   # each row's listed pairs, from first
        self.first = np.cumsum(self.counts) - self.counts
        self.origin = xs.copy()
        self.rebuilds += 1

    def _near(self, xs: np.ndarray) -> bool:
        """Whether xs has the row count of the origin, each row within the
        skin of its origin; False for a non-finite or far row."""
        if self.origin is None or len(xs) != len(self.origin):
            return False
        with np.errstate(invalid="ignore", over="ignore"):
            moved = xs - self.origin
            d2 = np.vecdot(moved, moved)
        return d2.max(initial=0.0) <= self.skin * self.skin   # a row that is not finite makes the max NaN

    def density(self, xs: np.ndarray) -> np.ndarray:
        """rho at each (n, 3) row, as density_many(scene, xs) gives it."""
        if not self._near(xs):
            self._rebuild(xs)
        d = xs[self.row] - self.means
        keep = np.flatnonzero(_norms(d) <= self.radii)
        self.listed += len(d)
        self.kept += len(keep)
        return _density_sums(len(xs), self.row[keep], d[keep], self.inv_covariances[keep], self.opacities[keep])

    def probe_density(self, rows: np.ndarray, probes: np.ndarray) -> np.ndarray:
        """rho at (m, p, 3) probes, as density_many(scene, probes) gives it,
        given that each of probes[i] lies within probe_step of the list's row
        rows[i] as the last density call read it.  Each probe is answered
        from its row's listed pairs by _neighbors' exact test."""
        flat = probes.reshape(-1, 3)
        self.probed += len(flat)
        owner = np.repeat(rows, probes.shape[1])
        counts = self.counts[owner]
        point = np.repeat(np.arange(len(flat)), counts)
        # each point's pairs are its row's, in the list's order: blobs ascending
        pair = np.arange(len(point)) + np.repeat(self.first[owner] - (np.cumsum(counts) - counts), counts)
        d = flat[point] - self.means[pair]
        keep = np.flatnonzero(_norms(d) <= self.radii[pair])
        pair = pair[keep]
        rho = _density_sums(len(flat), point[keep], d[keep], self.inv_covariances[pair], self.opacities[pair])
        return rho.reshape(probes.shape[:-1])


def query_neighbors(scene: GaussianScene, x, radius: float):
    """Indices of blobs whose bounding sphere intersects the ball (x, radius)."""
    return _neighbors(scene, np.asarray(x, dtype=float).reshape(1, 3), radius)[1]


def density_many(scene: GaussianScene, xs) -> np.ndarray:
    """rho at each (..., 3) row: the opacity-weighted Gaussian kernel sum over
    the row's neighbourhood; 0 at a non-finite row."""
    xs = np.asarray(xs, dtype=float)
    flat = xs.reshape(-1, 3)
    row, idx = _neighbors(scene, flat, 0.0)
    rho = _density_sums(len(flat), row, flat[row] - scene.means[idx], scene.inv_covariances[idx],
                        scene.opacities[idx])
    return rho.reshape(xs.shape[:-1])


def _density_sums(n: int, row, d, inv_covs, opacities) -> np.ndarray:
    """rho at n rows from their kernel pairs: each pair's row, offset
    d = x - mean, inverse covariance and opacity.  Each row's terms are added
    in pair order, left to right from +0.0."""
    if len(row) == 0:
        return np.zeros(n)
    m = np.einsum("ni,nij,nj->n", d, inv_covs, d)
    return np.bincount(row, weights=opacities * np.exp(-0.5 * m), minlength=n)


def density(scene: GaussianScene, x) -> float:
    """rho(x) at one point."""
    return float(density_many(scene, np.reshape(x, 3)))


def density_bruteforce(scene: GaussianScene, x) -> float:
    """Full sum over all blobs with no cutoff; oracle for the truncated path."""
    d = np.asarray(x, dtype=float) - scene.means
    m = np.einsum("ni,nij,nj->n", d, scene.inv_covariances, d)
    return float(np.sum(scene.opacities * np.exp(-0.5 * m)))


def density_gradient(scene: GaussianScene, x, h: float = DEFAULT_GRADIENT_STEP, _listed=None) -> np.ndarray:
    """Central-difference gradient of rho at (..., 3) rows, step h per axis:
    the six probes of every row go to one density_many call.  _listed is
    private plumbing for the coupling hook: a (_NeighborList, rows) pair, the
    list of probe_step h whose rows `rows` are the (m, 3) rows x as it last
    read them, so that it answers the probes (probe_density), bit for bit."""
    if not 0.0 < h < np.inf:
        raise ValueError(f"gradient step h must be finite and positive, got {h}")
    steps = h * np.eye(3)
    probes = np.asarray(x, dtype=float)[..., None, :] + np.concatenate([steps, -steps])
    rho = density_many(scene, probes) if _listed is None else _listed[0].probe_density(_listed[1], probes)
    return (rho[..., :3] - rho[..., 3:]) / (2.0 * h)


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

def _json_floats(entry: dict, key: str) -> np.ndarray:
    """entry[key], a JSON number or nested lists of them, as a float array;
    a TypeError naming the key otherwise (booleans and strings included)."""
    value = np.array(entry[key], dtype=object)
    if not all(type(v) in (int, float) for v in value.flat):
        raise TypeError(f"'{key}' must hold only numbers, got {json.dumps(entry[key])}")
    return value.astype(float)


def _arrays_from_json(data, path):
    """(means, covariances, opacities) of a {"blobs": [{"mu", "cov", "alpha"},
    ...]} scene, one row per blob, each alpha an opacity in [0, 1]; a cov
    that is not 3x3 becomes a NaN row, which the scene rejects.  Any other
    flaw is a SceneFormatError naming the file and blob."""
    if not isinstance(data, dict) or not isinstance(data.get("blobs"), list):
        raise SceneFormatError(f"{path}: scene JSON must be an object with a 'blobs' list")
    means, covs, opacities = [], [], []
    for i, entry in enumerate(data["blobs"]):
        where = f"{path}: blob {i}"
        if not isinstance(entry, dict) or not {"mu", "cov", "alpha"} <= entry.keys():
            raise SceneFormatError(f"{where}: expected an object with 'mu', 'cov' and 'alpha'")
        try:
            mu, cov, alpha = (_json_floats(entry, key) for key in ("mu", "cov", "alpha"))
        except (TypeError, OverflowError) as exc:
            raise SceneFormatError(f"{where}: {exc}") from exc
        if mu.shape != (3,) or not np.all(np.isfinite(mu)):
            raise SceneFormatError(f"{where}: 'mu' must hold 3 finite numbers, got {json.dumps(entry['mu'])}")
        if alpha.shape != () or not 0.0 <= alpha <= 1.0:   # an opacity, as a PLY logit's sigmoid is
            raise SceneFormatError(f"{where}: 'alpha' must be a finite number in [0, 1], "
                                   f"got {json.dumps(entry['alpha'])}")
        means.append(mu)
        covs.append(cov if cov.shape == (3, 3) else np.full((3, 3), np.nan))
        opacities.append(float(alpha))
    return means, covs, opacities


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


_PLY_TOKENS = {"format": 2, "element": 3, "property": 3}   # fewest tokens on each kind of line
_PLY_END_HEADER = re.compile(rb"end_header\r?\n")
_PLY_HEAD_BYTES = 1 << 16   # header bytes read at a time
# binary records per read: at 5e4 splats, 2**12 loaded fastest of 2**10 to 2**16
_PLY_CHUNK_ROWS = 4096


def _parse_ply(f, path):
    """The vertex count of the single-element PLY open as f, and its body as
    (first row, records) chunks whose records are indexable by property name.
    A binary body's size is checked against the file's before anything is
    allocated; the body is then read _PLY_CHUNK_ROWS records at a time into
    one reused buffer.  An ASCII body is parsed whole, as one chunk."""
    head, end = bytearray(), None
    while end is None and (block := f.read(_PLY_HEAD_BYTES)):
        head += block
        end = _PLY_END_HEADER.search(head, max(0, len(head) - len(block) - len(b"end_header\r")))
        if not head.startswith(b"ply"):
            break
    if not head.startswith(b"ply") or end is None:
        raise SceneFormatError(f"{path}: not a PLY file")
    try:
        header = head[:end.start()].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise SceneFormatError(f"{path}: PLY header is not ASCII") from exc
    start = end.end()
    fmt = None
    count = None
    props = []
    for n, line in enumerate(header, 1):
        tok = line.split()
        if not tok:
            continue
        # "format <fmt> ...", "element <name> <count>", "property <type> <name>"
        if len(tok) < _PLY_TOKENS.get(tok[0], 0) or tok[0] == "element" and not re.fullmatch(r"[+-]?\d+", tok[2]):
            raise SceneFormatError(f"{path}: malformed PLY header line {n}: {line!r}")
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
        try:
            values = np.array([float(v) for v in (bytes(head[start:]) + f.read()).split()])
        except ValueError as exc:
            raise SceneFormatError(f"{path}: PLY body holds a non-number") from exc
        if values.size != count * len(props):
            raise SceneFormatError(f"{path}: PLY body shape mismatch")
        return count, [(0, values.view([(name, "<f8") for name in names]))]
    if fmt == "binary_little_endian":
        for _, t in props:
            if t not in _PLY_TYPES:
                raise SceneFormatError(f"{path}: unsupported PLY type {t}")
        record = np.dtype([(name, "<" + _PLY_TYPES[t]) for name, t in props])
        if os.fstat(f.fileno()).st_size - start < record.itemsize * count:
            raise SceneFormatError(f"{path}: truncated PLY body")
        return count, _ply_records(f, path, record, count, start)
    raise SceneFormatError(f"{path}: unsupported PLY format {fmt}")


def _ply_records(f, path, record, count, start):
    """The binary body of f from byte start, as (first row, records) chunks of
    up to _PLY_CHUNK_ROWS records; each chunk is a view of one reused buffer,
    valid until the next."""
    buf = memoryview(bytearray(record.itemsize * min(count, _PLY_CHUNK_ROWS)))
    f.seek(start)
    for first in range(0, count, _PLY_CHUNK_ROWS):
        size = record.itemsize * min(_PLY_CHUNK_ROWS, count - first)
        if f.readinto(buf[:size]) != size:   # the file shrank after its size was checked
            raise SceneFormatError(f"{path}: truncated PLY body")
        yield first, np.frombuffer(buf[:size], dtype=record)


def _ply_factors(records, first, opacity_floor, name):
    """(rejected count, kept factors) of the PLY records numbered from first:
    the means, covariances, inverse covariances, radii and opacities of the
    valid splats that pass _kept_splats.  A splat is valid when its quaternion
    is non-zero and finite and its s^2 are finite and above 1e-12.  Rows are
    checked in file order: a non-finite position is refused after the rows
    before it."""
    from .geometry import quat_to_matrix

    def stack(*names):
        return np.stack([np.asarray(records[n], dtype=float) for n in names], axis=1)

    means = stack("x", "y", "z")
    bad = np.flatnonzero(~np.all(np.isfinite(means), axis=1))
    if len(bad):
        _ply_factors(records[:bad[0]], first, opacity_floor, name)
        raise SceneFormatError(f"{name} {first + bad[0]}: non-finite position {means[bad[0]].tolist()}")
    scales = stack("scale_0", "scale_1", "scale_2")
    quats = stack("rot_0", "rot_1", "rot_2", "rot_3")
    opacities = np.asarray(records["opacity"], dtype=float)
    # a zero, non-finite or overflowing rotation, and a scale that overflows, are rejected
    with np.errstate(over="ignore", invalid="ignore"):
        scales = np.exp(scales)
        opacities = 1.0 / (1.0 + np.exp(-opacities))
        norms = np.linalg.norm(quats, axis=1)
        s2 = scales ** 2
        valid = (norms > 0.0) & (norms < np.inf) & np.all(s2 < np.inf, axis=1) & (s2.min(axis=1) > 1e-12)
        numbers = np.flatnonzero(valid)
        radii = CUTOFF_SIGMA * np.abs(scales[valid]).max(axis=1)
        kept = _kept_splats(means[valid], radii, opacities[valid], opacity_floor, name, first + numbers)
        rows = numbers[kept]
        s2 = s2[rows]
        rot = quat_to_matrix((quats[rows] / norms[rows, None]).T).transpose(2, 0, 1)
        # a contiguous right factor keeps numpy's stacked matmul off its slow strided path
        rt = np.ascontiguousarray(rot.transpose(0, 2, 1))
        # a covariance that overflows belongs to a splat that the reach check refuses
        covs = (rot * s2[:, None, :]) @ rt
        covs = covs + covs.transpose(0, 2, 1)
        covs *= 0.5
        inv_covs = (rot / s2[:, None, :]) @ rt
    return len(valid) - len(numbers), (means[rows], covs, inv_covs, radii[kept], opacities[rows])


def _scene_from_ply(path, opacity_floor: float) -> GaussianScene:
    """Scene of a 3DGS PLY, whose scales are log-scales and whose opacities
    are logits, as 3DGS exports them.  Each splat's covariance is
    R diag(s^2) R^T, so its inverse R diag(s^-2) R^T and its radius
    CUTOFF_SIGMA max|s| come from the same factors.  The body streams through
    _ply_factors chunk by chunk, and the kept splats go straight into arrays
    of the header's row count, shrunk in place to the kept rows at the end:
    besides the scene, a load holds one chunk's records and temporaries, and
    the scene holds no byte of a dropped splat."""
    name = f"{path}: vertex"
    with open(path, "rb") as f:
        count, chunks = _parse_ply(f, path)
        out = [np.empty((count, *shape)) for shape in ((3,), (3, 3), (3, 3), (), ())]
        kept = rejected = 0
        for first, records in chunks:
            dropped, factors = _ply_factors(records, first, opacity_floor, name)
            n = len(factors[0])
            for k, src in enumerate(factors):
                out[k][kept:kept + n] = src
            kept += n
            rejected += dropped
    # in place, with no copy: out[k] is the array's one reference.  numpy's refcheck counts a profiler's or
    # tracer's transient hold on the bound method as a second one, so it is off
    for k in range(len(out)):
        out[k].resize((kept, *out[k].shape[1:]), refcheck=False)
    return GaussianScene._from_factors(*out, opacity_floor, rejected, name)


def load_scene(path, opacity_floor: float = DEFAULT_OPACITY_FLOOR) -> GaussianScene:
    """Load a scene from a 3DGS PLY (log-scales and logit opacities) or the
    native JSON format."""
    if str(path).endswith(".ply"):
        return _scene_from_ply(path, opacity_floor)
    try:
        with open(path, "rb") as f:
            data = json.load(f)
    except ValueError as exc:   # invalid JSON or text encoding
        raise SceneFormatError(f"{path}: scene is not readable JSON: {exc}") from exc
    means, covs, opacities = _arrays_from_json(data, path)
    try:
        return GaussianScene.from_arrays(means, covs, opacities, opacity_floor=opacity_floor)
    except SceneFormatError as exc:   # a blob reaching too far, numbered as in the file
        raise SceneFormatError(f"{path}: {exc}") from None


def save_scene_json(scene: GaussianScene, path) -> None:
    data = {"blobs": [
        {"mu": [float(v) for v in m],
         "cov": [[float(v) for v in row] for row in c],
         "alpha": float(a)}
        for m, c, a in zip(scene.means, scene.covariances, scene.opacities)
    ]}
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
