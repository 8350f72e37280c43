"""Seeded input generators for the benchmark workloads.

Everything a workload reads is built here from its seed, so the program under
test sees only generated files.  These builders deliberately do not share
code with tests/helpers.py: editing a test fixture must not change a workload.

All positions are in meters.  The "world" frame is the robot frame the demos
live in; the PLY scene is written in its own frame and mapped to the world by
a planted rigid transform that ICP has to recover.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# 3DGS export layout (Kerbl et al., 2023): 62 float32 properties per splat.
PLY_FIELDS = (["x", "y", "z", "nx", "ny", "nz"]
              + [f"f_dc_{i}" for i in range(3)]
              + [f"f_rest_{i}" for i in range(45)]
              + ["opacity"]
              + [f"scale_{i}" for i in range(3)]
              + [f"rot_{i}" for i in range(4)])

IDENTITY_QUAT = (1.0, 0.0, 0.0, 0.0)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream), so adding a stream never
    shifts the numbers another stream draws."""
    return np.random.default_rng([seed, int.from_bytes(stream.encode(), "little") % (2 ** 63)])


def minimum_jerk(u: np.ndarray) -> np.ndarray:
    return 10 * u ** 3 - 15 * u ** 4 + 6 * u ** 5


# ---- demonstrations -----------------------------------------------------------

def trajectory_csv(times, positions, quaternions, splits) -> str:
    """Expert trajectory in the library's CSV layout."""
    split_set = set(splits)
    lines = ["t,x,y,z,qw,qx,qy,qz,gripper,split"]
    for i, (t, p, q) in enumerate(zip(times, positions, quaternions)):
        vals = [t, *p, *q, 0.0]
        lines.append(",".join(repr(float(v)) for v in vals) + f",{int(i in split_set)}")
    return "\n".join(lines) + "\n"


def line_demo(n: int = 151, length: float = 0.4, duration: float = 1.0):
    """Criterion-05 demo: minimum-jerk straight line from the origin along +x."""
    t = np.linspace(0.0, duration, n)
    pos = np.zeros((n, 3))
    pos[:, 0] = length * minimum_jerk(t / duration)
    quats = np.tile(IDENTITY_QUAT, (n, 1))
    return t, pos, quats, [0, n - 1]


def _polyline(points, u):
    """Points at arc-length fractions u in [0, 1] along a polyline."""
    pts = np.asarray(points, dtype=float)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)]) / seg.sum()
    return np.column_stack([np.interp(u, cum, pts[:, d]) for d in range(pts.shape[1])])


@dataclass(frozen=True)
class LetterA:
    """Two-segment letter "A" in the z = 0 writing plane.

    Segment 0 writes the tent (left foot, apex, right foot); segment 1 moves
    back to the crossbar and writes it.  Each segment follows a minimum-jerk
    arc-length profile, so it starts and ends at rest as the DMP fit expects.
    """
    height: float = 0.24
    n_per_segment: int = 51
    segment_duration: float = 1.0

    def strokes(self):
        h = self.height
        left, apex, right = (0.0, 0.0), (0.5 * h, h), (h, 0.0)
        bar_l, bar_r = (0.25 * h, 0.5 * h), (0.75 * h, 0.5 * h)
        return [(left, apex, right), (right, bar_l, bar_r)]

    def demo(self):
        n = self.n_per_segment
        u = minimum_jerk(np.linspace(0.0, 1.0, n))
        s0, s1 = (_polyline(s, u) for s in self.strokes())
        xy = np.vstack([s0, s1[1:]])
        pos = np.column_stack([xy, np.zeros(len(xy))])
        t = np.linspace(0.0, 2.0 * self.segment_duration, len(xy))
        quats = np.tile(IDENTITY_QUAT, (len(xy), 1))
        return t, pos, quats, [0, n - 1, len(xy) - 1]

    def stroke_point(self, segment: int, fraction: float) -> np.ndarray:
        xy = _polyline(self.strokes()[segment], np.array([fraction]))[0]
        return np.array([xy[0], xy[1], 0.0])


EVAL_AMPLITUDE = 0.004   # per-sinusoid amplitude of the eval perturbations, meters


def eval_rollouts(seed: int, letter: LetterA, count: int):
    """Smooth seeded perturbations of the letter-A demo, in CSV text.

    Each rollout adds a few low-frequency sinusoids per axis, tapered to zero
    at the ends, plus a small smooth rotation about z, so DTW, collision and
    writing error all see distinct but demo-like paths.
    """
    t, pos, _, splits = letter.demo()
    u = (t - t[0]) / (t[-1] - t[0])
    taper = np.sin(math.pi * u)
    rng = rng_for(seed, "eval_rollouts")
    out = []
    for _ in range(count):
        freq = rng.integers(1, 4, size=(3, 3))
        amp = rng.uniform(-EVAL_AMPLITUDE, EVAL_AMPLITUDE, size=(3, 3))
        phase = rng.uniform(0.0, 2.0 * math.pi, size=(3, 3))
        wave = np.einsum("ak,akn->na", amp, np.sin(2.0 * math.pi * freq[:, :, None] * u + phase[:, :, None]))
        p = pos + taper[:, None] * wave
        angle = rng.uniform(-0.05, 0.05) * taper
        q = np.column_stack([np.cos(angle / 2), np.zeros(len(u)), np.zeros(len(u)), np.sin(angle / 2)])
        out.append(trajectory_csv(t, p, q, splits))
    return out


# ---- scenes ---------------------------------------------------------------------

def blob_scene_json(mean, sigma: float, alpha: float = 1.0) -> str:
    """Native JSON scene with one isotropic blob."""
    cov = (sigma ** 2 * np.eye(3)).tolist()
    return json.dumps({"blobs": [{"mu": [float(v) for v in mean], "cov": cov, "alpha": alpha}]})


def random_rigid(seed: int, max_angle_deg: float, max_trans: float):
    """(R, t): a uniformly random axis, an angle of 0.5 to 1 times max_angle_deg."""
    rng = rng_for(seed, "rigid")
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = math.radians(rng.uniform(0.5, 1.0) * max_angle_deg)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    R = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    t = rng.uniform(-max_trans, max_trans, size=3)
    return R, t


def _logit(p):
    return np.log(p / (1.0 - p))


@dataclass
class DeskScene:
    """A room full of splats around a clear desk, with obstacle clusters on
    the letter-A strokes.

    ply: the binary PLY bytes, in the scene frame
    proxy: (N, 3) world-frame points the scene means map to (the ICP target)
    rotation, translation: the planted scene-to-world transform
    n_vertices, n_kept, n_rejected: what load_scene must report
    """
    ply: bytes
    proxy: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    n_vertices: int
    n_kept: int
    n_rejected: int


ROOM_LO = np.array([-1.4, -1.4, -0.8])
ROOM_HI = np.array([1.4, 1.4, 1.2])
DESK_MARGIN = 0.12       # clear space around the letter, beyond the splat cutoff
BG_SIGMA = (0.004, 0.02)  # background splat scales, meters
CLUSTER_FRACTIONS = (0.1, 0.36, 0.43, 0.57, 0.64, 0.9)  # arc fractions along the tent stroke
CLUSTER_OFFSET = 0.042   # cluster centre distance from the stroke, away from the letter
CLUSTER_SPLATS = 6
CLUSTER_SIGMA = 0.015
LOW_OPACITY_SHARE = 0.01   # background splats planted below the opacity floor
ZERO_QUAT_SHARE = 0.005    # background splats planted with a zero quaternion


def desk_scene(seed: int, letter: LetterA, n_background: int) -> DeskScene:
    rng = rng_for(seed, "desk_scene")
    lo = np.array([0.0, 0.0, 0.0]) - DESK_MARGIN - 4 * BG_SIGMA[1]
    hi = np.array([letter.height, letter.height, 0.0]) + DESK_MARGIN + 4 * BG_SIGMA[1]
    means = np.empty((0, 3))
    while len(means) < n_background:
        cand = rng.uniform(ROOM_LO, ROOM_HI, size=(n_background, 3))
        clear = np.any((cand < lo) | (cand > hi), axis=1)
        means = np.vstack([means, cand[clear]])
    means = means[:n_background]
    log_scales = np.log(rng.uniform(*BG_SIGMA, size=(n_background, 3)))
    opacity = rng.uniform(-2.0, 4.0, size=n_background)   # logits above the 0.05 floor
    quats = rng.normal(size=(n_background, 4)) * rng.uniform(0.5, 2.0, size=(n_background, 1))

    # Obstacle clusters beside the tent stroke, on the outer side of the
    # letter.  They sit close enough that coupled rollouts enter the
    # repulsion band (rho > rho_th) on several steps, and far enough from the
    # crossbar ends and feet (segment goals) that the coupling is idle at rest.
    inside = np.array([0.5 * letter.height, 0.4 * letter.height, 0.0])
    c_means, c_scales, c_opacity = [], [], []
    for frac in CLUSTER_FRACTIONS:
        on_stroke = letter.stroke_point(0, frac)
        along = letter.stroke_point(0, frac + 1e-3) - on_stroke
        outward = np.array([-along[1], along[0], 0.0]) / np.linalg.norm(along)
        if np.dot(outward, on_stroke - inside) < 0:
            outward = -outward
        centre = on_stroke + CLUSTER_OFFSET * outward
        c_means.append(centre + rng.normal(scale=0.3 * CLUSTER_SIGMA, size=(CLUSTER_SPLATS, 3)))
        c_scales.append(np.log(CLUSTER_SIGMA * rng.uniform(0.7, 1.0, size=(CLUSTER_SPLATS, 3))))
        c_opacity.append(_logit(rng.uniform(0.3, 0.6, size=CLUSTER_SPLATS)))
    c_means = np.vstack(c_means)
    n_cluster = len(c_means)
    means = np.vstack([means, c_means])
    log_scales = np.vstack([log_scales, np.vstack(c_scales)])
    opacity = np.concatenate([opacity, np.concatenate(c_opacity)])
    quats = np.vstack([quats, rng.normal(size=(n_cluster, 4))])

    # planted drops among the background: below-floor opacities, zero quaternions
    n_low = int(round(LOW_OPACITY_SHARE * n_background))
    n_zero = int(round(ZERO_QUAT_SHARE * n_background))
    picked = rng.choice(n_background, size=n_low + n_zero, replace=False)
    opacity[picked[:n_low]] = rng.uniform(-8.0, -4.0, size=n_low)
    quats[picked[n_low:]] = 0.0

    # world = R @ scene + t; write the scene-frame means, keep world as proxy
    R, t = random_rigid(seed, max_angle_deg=1.0, max_trans=0.02)
    local = (means - t) @ R
    n = len(means)
    cols = {name: np.zeros(n) for name in PLY_FIELDS}
    for d, name in enumerate("xyz"):
        cols[name] = local[:, d]
    for d in range(3):
        cols[f"f_dc_{d}"] = rng.normal(size=n)
        cols[f"scale_{d}"] = log_scales[:, d]
    for d in range(45):
        cols[f"f_rest_{d}"] = 0.1 * rng.normal(size=n)
    cols["opacity"] = opacity
    for d in range(4):
        cols[f"rot_{d}"] = quats[:, d]
    rows = np.empty(n, dtype=[(name, "<f4") for name in PLY_FIELDS])
    for name in PLY_FIELDS:
        rows[name] = cols[name]
    header = "ply\nformat binary_little_endian 1.0\n" + f"element vertex {n}\n" \
        + "".join(f"property float {name}\n" for name in PLY_FIELDS) + "end_header\n"
    stored = np.column_stack([rows["x"], rows["y"], rows["z"]]).astype(float)
    return DeskScene(ply=header.encode("ascii") + rows.tobytes(),
                     proxy=stored @ R.T + t, rotation=R, translation=t,
                     n_vertices=n, n_kept=n - n_low - n_zero, n_rejected=n_zero)


def transform_json(rotation, translation) -> str:
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return json.dumps({"matrix": m.tolist()})
