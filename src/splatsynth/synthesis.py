"""End-to-end demonstration synthesis: segment, fit, perturb goals, roll out
with obstacle coupling, chain segments, and export datasets.

Each rollout derives its RNG streams from (master seed, rollout index,
boundary index), so batches are deterministic and order-independent.  The
rollouts of a batch integrate each segment together, as one rollout_batch.
Segment k+1 always starts at segment k's achieved terminal pose, keeping the
emitted trajectory continuous after perturbation.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

# rollout stays bound here for bench/tracing.py, which wraps it where it is looked up
from .dmp import DmpModel, RolloutError, fit_dmp, rollout, rollout_batch  # noqa: F401
from .geometry import Pose, Trajectory, quat_exp, quat_mul
from .metrics import trajectory_dtw
from .obstacles import ObstacleParams, make_coupling
from .splats import GaussianScene


class ExportError(RuntimeError):
    pass


@dataclass(frozen=True)
class PerturbationSpec:
    sigma_p: np.ndarray       # per-axis translation std, meters
    bound_p: np.ndarray       # per-axis translation bound, meters
    sigma_r: float = 0.0      # rotation std, radians
    bound_r: float = 0.0      # rotation-angle bound, radians
    perturbable: tuple = ()   # boolean per split index; () = goal boundaries only
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma_p", np.asarray(self.sigma_p, dtype=float))
        object.__setattr__(self, "bound_p", np.asarray(self.bound_p, dtype=float))
        if np.any(self.bound_p < 0) or self.bound_r < 0:
            raise ValueError("perturbation bounds must be non-negative")

    @classmethod
    def from_dict(cls, d: dict) -> "PerturbationSpec":
        return cls(sigma_p=d.get("sigma_p", [0.0, 0.0, 0.0]),
                   bound_p=d.get("bound_p", [0.0, 0.0, 0.0]),
                   sigma_r=d.get("sigma_r", 0.0),
                   bound_r=d.get("bound_r", 0.0),
                   perturbable=tuple(d.get("boundaries", ())),
                   seed=d.get("seed", 0))


def _truncated_normal(rng, sigma: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Componentwise rejection sampling of N(0, sigma^2) truncated to +-bound."""
    out = np.zeros(len(sigma))
    for i, (s, b) in enumerate(zip(sigma, bound)):
        if s == 0.0 or b == 0.0:
            continue
        x = rng.normal(0.0, s)
        while abs(x) > b:
            x = rng.normal(0.0, s)
        out[i] = x
    return out


def sample_boundary_perturbation(spec: PerturbationSpec, boundary_index: int,
                                 rollout_index: int = 0):
    """Deterministic (dp, dq) for one boundary of one rollout.

    dq = exp(delta) with delta a norm-bounded Gaussian rotation vector.
    """
    rng = np.random.default_rng([spec.seed, rollout_index, boundary_index])
    dp = _truncated_normal(rng, spec.sigma_p, spec.bound_p)
    if spec.sigma_r > 0.0 and spec.bound_r > 0.0:
        delta = rng.normal(0.0, spec.sigma_r, size=3)
        while np.linalg.norm(delta) > spec.bound_r:
            delta = rng.normal(0.0, spec.sigma_r, size=3)
    else:
        delta = np.zeros(3)
    return dp, quat_exp(delta)


@dataclass
class SynthesisJob:
    demo: Trajectory
    scene: GaussianScene | None
    spec: PerturbationSpec
    obstacle: ObstacleParams
    n_demos: int = 1
    dt: float = 0.02
    n_basis: int = 30
    ridge_lambda: float = 1e-6
    alpha_z: float = 25.0
    alpha_s: float = 4.0
    horizon_factor: float = 1.25
    output_dir: str = "."

    def __post_init__(self):
        if self.n_demos < 1:
            raise ValueError("n_demos must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def fit_segments(job: SynthesisJob) -> list[DmpModel]:
    return [fit_dmp(job.demo.segment(k), n_basis=job.n_basis,
                    ridge_lambda=job.ridge_lambda, alpha_z=job.alpha_z,
                    alpha_s=job.alpha_s)
            for k in range(job.demo.n_segments)]


def _perturbable_flags(spec: PerturbationSpec, n_boundaries: int):
    if spec.perturbable:
        if len(spec.perturbable) != n_boundaries:
            raise ValueError("perturbable flag list length must match split count")
        return [bool(v) for v in spec.perturbable]
    # default: every boundary except the start is perturbable
    return [False] + [True] * (n_boundaries - 1)


def _resample(values: np.ndarray, n_out: int) -> np.ndarray:
    src = np.linspace(0.0, 1.0, len(values))
    dst = np.linspace(0.0, 1.0, n_out)
    return np.interp(dst, src, values)


def _targets(job: SynthesisJob, flags, rollout_index: int):
    """The boundary poses of one rollout, perturbed where flagged, and its
    manifest entry."""
    targets = []
    perturbations = []
    for b, split in enumerate(job.demo.splits):
        pose = job.demo.pose(split)
        if flags[b]:
            dp, dq = sample_boundary_perturbation(job.spec, b, rollout_index)
            pose = Pose(pose.position + dp, quat_mul(pose.orientation, dq))
            perturbations.append({
                "boundary": b,
                "dp": [float(v) for v in dp],
                "dq": [float(v) for v in dq],
            })
        targets.append(pose)
    return targets, {"index": rollout_index, "status": "ok", "perturbations": perturbations}


def _synthesize_rows(job: SynthesisJob, models: list[DmpModel], indices) -> list:
    """Chained multi-segment rollouts for the given rollout indices.  Each
    segment is one rollout_batch over the rollouts still alive, after one
    uncoupled nominal batch when the return pull reads it.  Returns, per
    index, (Trajectory, manifest entry) or the RolloutError that ended it."""
    flags = _perturbable_flags(job.spec, len(job.demo.splits))
    targets, entries = zip(*(_targets(job, flags, i) for i in indices))
    outcome = [None] * len(entries)
    pieces = [[] for _ in entries]
    current = [t[0] for t in targets]
    grippers = []
    alive = list(range(len(entries)))
    for k, model in enumerate(models):

        def run(coupling):
            """One batch over the alive rows; the rows that fail leave."""
            nonlocal alive
            outs = rollout_batch(model, [current[i] for i in alive], [targets[i][k + 1] for i in alive],
                                 job.dt, coupling=coupling, horizon_factor=job.horizon_factor)
            for i, out in zip(alive, outs):
                if isinstance(out, RolloutError):
                    outcome[i] = out
            alive = [i for i in alive if outcome[i] is None]
            return [out for out in outs if isinstance(out, Trajectory)]

        coupling = None
        if job.scene is not None and len(job.scene):
            # the hook reads the nominal (uncoupled) rollouts only for its return pull
            nominal = run(None) if job.obstacle.return_gain > 0.0 else None
            coupling = make_coupling(job.scene, job.obstacle, nominal, job.dt) if alive else None
        segment = run(coupling)
        if not alive:
            break
        grippers.append(_resample(job.demo.segment(k).gripper, len(segment[0])))
        for i, piece in zip(alive, segment):
            pieces[i].append(piece)
            current[i] = piece.pose(len(piece) - 1)
    for i in alive:
        outcome[i] = (_chain(pieces[i], grippers), entries[i])
    return outcome


def _chain(pieces, grippers) -> Trajectory:
    """Concatenate segment pieces; drop each later segment's first sample
    (the shared junction)."""
    times = [pieces[0].times]
    positions = [pieces[0].positions]
    quaternions = [pieces[0].quaternions]
    gripper = [grippers[0]]
    splits = [0, len(pieces[0]) - 1]
    offset = pieces[0].times[-1]
    for piece, grip in zip(pieces[1:], grippers[1:]):
        times.append(piece.times[1:] + offset)
        positions.append(piece.positions[1:])
        quaternions.append(piece.quaternions[1:])
        gripper.append(grip[1:])
        offset += piece.times[-1]
        splits.append(splits[-1] + len(piece) - 1)
    return Trajectory(np.concatenate(times), np.concatenate(positions),
                      np.concatenate(quaternions), np.concatenate(gripper), splits)


def synthesize_one(job: SynthesisJob, models: list[DmpModel], rollout_index: int):
    """One chained multi-segment rollout.  Returns (Trajectory, manifest entry);
    raises RolloutError when the rollout fails."""
    (out,) = _synthesize_rows(job, models, [rollout_index])
    if isinstance(out, RolloutError):
        raise out
    return out


def synthesize(job: SynthesisJob):
    """Run the full batch.  Returns (trajectories, manifest); failed rollouts
    are recorded in the manifest and skipped, never silently resampled."""
    models = fit_segments(job)
    manifest = {
        "seed": job.spec.seed,
        "n_demos": job.n_demos,
        "dt": job.dt,
        "obstacle": job.obstacle.to_dict(),
        "model_hashes": [m.hash() for m in models],
        "rollouts": [],
    }
    trajectories = []
    for idx, out in enumerate(_synthesize_rows(job, models, range(job.n_demos))):
        if isinstance(out, RolloutError):
            manifest["rollouts"].append({
                "index": idx, "status": "failed", "error": str(out),
                "perturbations": [],
            })
            trajectories.append(None)
            continue
        traj, entry = out
        pos, rot = trajectory_dtw(traj, job.demo)
        entry["dtw_position"] = pos
        entry["dtw_orientation"] = rot
        manifest["rollouts"].append(entry)
        trajectories.append(traj)
    return trajectories, manifest


def export_dataset(trajectories, manifest, out_dir):
    """Write one CSV per successful rollout plus manifest.json and summary.csv."""
    if not trajectories:
        raise ExportError("nothing to export")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ExportError(f"cannot create output directory {out_dir}: {exc}") from exc
    written = []
    for traj, entry in zip(trajectories, manifest["rollouts"]):
        if traj is None:
            entry["file"] = None
            continue
        name = f"rollout_{entry['index']:04d}.csv"
        traj.save_csv(os.path.join(out_dir, name))
        entry["file"] = name
        written.append(entry)
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["index", "file", "dtw_position", "dtw_orientation"])
    for entry in written:
        w.writerow([entry["index"], entry["file"],
                    repr(entry["dtw_position"]), repr(entry["dtw_orientation"])])
    with open(os.path.join(out_dir, "summary.csv"), "w") as f:
        f.write(buf.getvalue())
    return [e["file"] for e in written]
