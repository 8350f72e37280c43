"""Shared scene/trajectory builders for the test suite."""

import re
import threading

import numpy as np
from scipy.spatial import cKDTree

from splatsynth.alignment import AlignmentError, IcpParams, IcpResult, RigidTransform, _procrustes
from splatsynth.dmp import DEFAULT_HORIZON_FACTOR, _basis, rollout_steps
from splatsynth.geometry import (
    Trajectory,
    quat_conj,
    quat_exp,
    quat_from_axis_angle,
    quat_log,
    quat_mul,
    quat_to_matrix,
)
from splatsynth.splats import (
    _PLY_TYPES,
    CUTOFF_SIGMA,
    DEFAULT_OPACITY_FLOOR,
    GaussianBlob,
    GaussianScene,
    SceneFormatError,
)


def separated_scene(n, seed, sigma=0.01, separation_sigmas=9.0, box=2.0,
                    isotropic=False):
    """Random scene whose blob means keep a minimum separation (in units of
    the largest blob sigma), so that the fixed 4-sigma cutoff truncates
    contributions that are negligible relative to the on-blob density."""
    rng = np.random.default_rng(seed)
    sep = separation_sigmas * sigma
    means = []
    while len(means) < n:
        cand = rng.uniform(-box, box, 3)
        if all(np.linalg.norm(cand - m) >= sep for m in means):
            means.append(cand)
    blobs = []
    for mu in means:
        if isotropic:
            cov = sigma ** 2 * np.eye(3)
        else:
            scales = rng.uniform(0.5, 1.0, 3) * sigma
            a = rng.normal(size=(3, 3))
            q, _ = np.linalg.qr(a)
            cov = q @ np.diag(scales ** 2) @ q.T
            cov = 0.5 * (cov + cov.T)
        blobs.append(GaussianBlob(mu, cov, rng.uniform(0.3, 1.0)))
    return GaussianScene(blobs, opacity_floor=0.0)


def relative_gap(got, ref) -> float:
    """The largest |got - ref| / |ref| over the rows of two arrays, each row's
    norm taken over its trailing axes (Frobenius for matrices)."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    axes = tuple(range(1, ref.ndim))
    gap = np.sqrt(np.sum((got - ref) ** 2, axis=axes)) / np.sqrt(np.sum(ref ** 2, axis=axes))
    return float(np.max(gap, initial=0.0))


def icp_reference(source, target, params=None, init=None):
    """Test oracle for alignment.icp_align: point-to-point ICP with one plain,
    unbounded nearest-neighbour query of every source row per iteration, in
    the caller's order."""
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


def ply_scene_reference(path, opacity_floor=DEFAULT_OPACITY_FLOOR):
    """Test oracle for splats.load_scene on a well-formed single-element PLY:
    the whole-file loader that the streaming one replaced.  It reads the
    whole file, refuses the first non-finite position of the file before
    anything else, and runs the factor arithmetic on every row at once, with a
    strided right factor in both products."""
    with open(path, "rb") as f:
        raw = f.read()
    end = re.search(rb"end_header\r?\n", raw)
    header = [line.split() for line in raw[:end.start()].decode("ascii").splitlines() if line.strip()]
    fmt = next(tok[1] for tok in header if tok[0] == "format")
    count = next(int(tok[2]) for tok in header if tok[0] == "element")
    props = [(tok[2], tok[1]) for tok in header if tok[0] == "property"]
    if fmt == "ascii":
        rows = np.array([float(v) for v in raw[end.end():].split()]).reshape(count, len(props))
        cols = {name: rows[:, i] for i, (name, _) in enumerate(props)}
    else:
        record = np.dtype([(name, "<" + _PLY_TYPES[t]) for name, t in props])
        cols = np.frombuffer(raw, dtype=record, count=count, offset=end.end())

    def stack(*names):
        return np.stack([np.asarray(cols[n], dtype=float) for n in names], axis=1)

    means = stack("x", "y", "z")
    bad = np.flatnonzero(~np.all(np.isfinite(means), axis=1))
    if len(bad):
        raise SceneFormatError(f"{path}: vertex {bad[0]}: non-finite position {means[bad[0]].tolist()}")
    scales = stack("scale_0", "scale_1", "scale_2")
    quats = stack("rot_0", "rot_1", "rot_2", "rot_3")
    opacities = np.asarray(cols["opacity"], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        scales = np.exp(scales)
        opacities = 1.0 / (1.0 + np.exp(-opacities))
        norms = np.linalg.norm(quats, axis=1)
        s2 = scales ** 2
        valid = (norms > 0.0) & (norms < np.inf) & np.all(s2 < np.inf, axis=1) & (s2.min(axis=1) > 1e-12)
        numbers = np.flatnonzero(valid)
        s2 = s2[valid]
        rot = quat_to_matrix((quats[valid] / norms[valid, None]).T).transpose(2, 0, 1)
        covs = (rot * s2[:, None, :]) @ rot.transpose(0, 2, 1)
        covs = covs + covs.transpose(0, 2, 1)
        covs *= 0.5
        inv_covs = (rot / s2[:, None, :]) @ rot.transpose(0, 2, 1)
    return GaussianScene._from_factors(means[valid], covs, inv_covs,
                                       CUTOFF_SIGMA * np.abs(scales[valid]).max(axis=1),
                                       opacities[valid], opacity_floor, len(valid) - len(numbers),
                                       f"{path}: vertex", numbers)


def near_blob_queries(scene, n, seed, offset_sigmas=2.0):
    """Query points within offset_sigmas of randomly chosen blob means."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(scene), n)
    sigma = np.sqrt(np.linalg.eigvalsh(scene.covariances[idx])[:, -1])
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return scene.means[idx] + dirs * (rng.uniform(0, offset_sigmas, n) * sigma)[:, None]


def minimum_jerk(t):
    return 10 * t ** 3 - 15 * t ** 4 + 6 * t ** 5


def line_demo(start, end, duration=1.0, n=101, axis=(0, 0, 1), angle=0.0):
    """Straight-line demo with a minimum-jerk speed profile and an optional
    smooth rotation about a fixed axis."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    t = np.linspace(0, duration, n)
    prof = minimum_jerk(t / duration)
    pos = start[None, :] + prof[:, None] * (end - start)[None, :]
    quats = np.array([quat_from_axis_angle(axis, angle * p) if angle else [1.0, 0, 0, 0]
                      for p in prof])
    return Trajectory(t, pos, quats, np.zeros(n))


def letter_a_demo(scale=0.1, n_per_stroke=80, duration_per_segment=1.0):
    """Synthetic "letter A" written in the z=0 plane.

    Two segments: the tent strokes (up-left leg to apex, then down the right
    leg) as one segment, and the transit plus crossbar as the second, so a
    straight-line keyframe baseline cuts the apex entirely.
    """
    apex = np.array([0.5, 1.0])
    left = np.array([0.0, 0.0])
    right = np.array([1.0, 0.0])
    bar_l = np.array([0.25, 0.5])
    bar_r = np.array([0.75, 0.5])

    def polyline(points, n):
        pts = [np.asarray(p, dtype=float) for p in points]
        lens = [np.linalg.norm(b - a) for a, b in zip(pts, pts[1:])]
        total = sum(lens)
        u = np.linspace(0, total, n)
        out = []
        acc = 0.0
        k = 0
        for s in u:
            while k < len(lens) - 1 and s > acc + lens[k]:
                acc += lens[k]
                k += 1
            f = (s - acc) / lens[k] if lens[k] > 0 else 0.0
            out.append(pts[k] + f * (pts[k + 1] - pts[k]))
        return np.array(out)

    seg1 = polyline([left, apex, right], n_per_stroke)
    seg2 = polyline([right, bar_l, bar_r], n_per_stroke)
    xy = np.vstack([seg1, seg2[1:]]) * scale
    n = len(xy)
    pos = np.column_stack([xy, np.zeros(n)])
    t = np.linspace(0, 2 * duration_per_segment, n)
    quats = np.tile([1.0, 0, 0, 0], (n, 1))
    splits = [0, n_per_stroke - 1, n - 1]
    return Trajectory(t, pos, quats, np.zeros(n), splits)


def run_within(seconds, fn, *args):
    """fn(*args), failing the test if it has not returned within the given
    seconds.  It runs in a daemon thread, so a call that never returns fails
    the test instead of stalling the suite."""
    out = {}

    def target():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # re-raised in the caller
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{getattr(fn, '__name__', fn)} still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def bresenham_stepped(x0, y0, x1, y1):
    """The oracle for metrics._bresenham_pixels: the segments (x0, y0) ->
    (x1, y1) stepped through Bresenham's integer loop together, each leaving
    the arrays once its end pixel is drawn.  Returns every drawn pixel as
    (segment, x, y) arrays."""
    seg = np.arange(len(x0))
    x, y, x1, y1 = (np.asarray(v) for v in (x0, y0, x1, y1))
    dx, dy = np.abs(x1 - x), -np.abs(y1 - y)
    sx, sy = np.where(x < x1, 1, -1), np.where(y < y1, 1, -1)
    err = dx + dy
    drawn = []
    while len(x):
        drawn.append((seg, x, y))
        live = (x != x1) | (y != y1)
        seg, x, y, x1, y1, dx, dy, sx, sy, err = (a[live] for a in (seg, x, y, x1, y1, dx, dy, sx, sy, err))
        e2 = 2 * err
        step_x, step_y = e2 >= dy, e2 <= dx
        err = err + dy * step_x + dx * step_y
        x, y = x + sx * step_x, y + sy * step_y
    if not drawn:
        return tuple(np.empty(0, dtype=int) for _ in range(3))
    return tuple(np.concatenate(v) for v in zip(*drawn))


def rasterize_stepped(points2d, spec):
    """The oracle for metrics.rasterize_strokes: the polyline's segments
    drawn by bresenham_stepped, then dilated to spec.stroke_px."""
    res = spec.resolution
    img = np.zeros((res, res), dtype=bool)
    points2d = np.asarray(points2d, dtype=float)
    lo = points2d.min(axis=0)
    span = points2d.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    pix = np.round((points2d - lo) / span * (res - 1)).astype(int)
    _, x, y = bresenham_stepped(*pix[:-1].T, *pix[1:].T)
    img[y, x] = True
    for _ in range(spec.stroke_px // 2):
        img[1:] |= img[:-1]
        img[:-1] |= img[1:]
        img[:, 1:] |= img[:, :-1]
        img[:, :-1] |= img[:, 1:]
    return img


def integrate_two_systems(model, y, q0, goal, q_goal, dt, coupling=None, horizon_factor=DEFAULT_HORIZON_FACTOR):
    """The oracle for dmp._integrate: position and rotation vector stepped as
    two systems of (B, 3) arrays, each with its own per-step (3, n) forcing
    product, finite test and store.  Same arguments and returns."""
    tau = model.canonical.tau
    n_steps = rollout_steps(tau, dt, horizon_factor)
    rot_goal = np.array([quat_log(quat_mul(quat_conj(a), b)) for a, b in zip(q0, q_goal)]).reshape(-1, 3)
    v, r, rv = np.zeros_like(y), np.zeros_like(y), np.zeros_like(y)
    pos_scale = np.where(model.pos_degenerate, model.pos_scale, goal - y)
    rot_scale = np.where(model.rot_degenerate, model.rot_scale, rot_goal)
    alpha_s = model.canonical.alpha_s
    az, bz = model.alpha_z, model.beta_z
    phase = np.empty(n_steps)
    s = 1.0
    for n in range(n_steps):
        phase[n], s = s, s - alpha_s * s * (dt / tau)
    basis = _basis(phase, model.position_forcing.centers, model.position_forcing.widths)
    pos_w, rot_w = model.position_forcing.weights, model.orientation_forcing.weights
    positions = np.empty((len(y), n_steps + 1, 3))
    rots = np.empty((len(y), n_steps, 3))
    positions[:, 0] = y
    failed = np.full(len(y), -1)
    for n in range(n_steps):
        a = az * (bz * (goal - y) - v) + (pos_w @ basis[n]) * pos_scale
        if coupling is not None:
            a = a + coupling(n, y, v / tau)
        a_r = az * (bz * (rot_goal - r) - rv) + (rot_w @ basis[n]) * rot_scale
        state = (y, v, r, rv)
        v = v + a * (dt / tau)
        y = y + v * (dt / tau)
        rv = rv + a_r * (dt / tau)
        r = r + rv * (dt / tau)
        bad = ~(np.isfinite(y).all(axis=1) & np.isfinite(r).all(axis=1))
        if bad.any():
            failed[bad & (failed < 0)] = n
            y, v, r, rv = (np.where(bad[:, None], old, new) for old, new in zip(state, (y, v, r, rv)))
        positions[:, n + 1] = y
        rots[:, n] = r
    quaternions = np.empty((len(y), n_steps + 1, 4))
    quaternions[:, 0] = q0
    quaternions[:, 1:] = quat_mul(q0[:, None], quat_exp(rots))
    return np.arange(n_steps + 1) * dt, positions, quaternions, failed
