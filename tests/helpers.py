"""Shared scene/trajectory builders for the test suite."""

import threading

import numpy as np

from splatsynth.geometry import Trajectory, quat_from_axis_angle
from splatsynth.splats import GaussianBlob, GaussianScene


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
