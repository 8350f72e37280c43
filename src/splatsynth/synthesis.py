"""End-to-end demonstration synthesis: segment, fit, perturb goals, roll out
with obstacle coupling, chain segments, and export datasets.

Each rollout derives its RNG streams from (master seed, rollout index,
boundary index), so batches are deterministic and order-independent.  The
rollouts of a batch integrate each segment together, as one block of rows.
Segment k+1 always starts at segment k's achieved terminal pose, keeping the
emitted trajectory continuous after perturbation.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import gammainc, gammaincinv, ndtr, ndtri

from .dmp import DEFAULT_ALPHA_S, DEFAULT_ALPHA_Z, DEFAULT_HORIZON_FACTOR, DEFAULT_N_BASIS, DEFAULT_RIDGE_LAMBDA
from .dmp import MIN_SEGMENT_SAMPLES
# rollout stays bound here for bench/tracing.py, which wraps it where it is looked up
from .dmp import DmpModel, RolloutError, _integrate, fit_dmp, rollout, rollout_steps  # noqa: F401
from .geometry import _MAX_COORD, FieldError, Trajectory, _column_text, _csv_template, check_fields, param
from .geometry import quat_canonical, quat_exp, quat_mul, quat_normalize, rowdot
# trajectory_dtw stays bound here for bench/tracing.py, which wraps it where it is looked up
from .metrics import trajectory_dtw, trajectory_dtw_many  # noqa: F401
from .obstacles import ObstacleParams, make_coupling
from .splats import GaussianScene

log = logging.getLogger(__name__)


class ExportError(RuntimeError):
    pass


@dataclass(frozen=True)
class PerturbationSpec:
    """Goal-perturbation bounds; each field is the config key perturbation.<name or metadata key>."""

    sigma_p: np.ndarray = param((0.0, 0.0, 0.0), "per-axis translation std, m", "finite and non-negative")
    # an infinite bound leaves its normal untruncated
    bound_p: np.ndarray = param((0.0, 0.0, 0.0), "per-axis translation bound, m", "non-negative")
    sigma_r: float = param(0.0, "rotation std, rad", "finite and non-negative")
    bound_r: float = param(0.0, "rotation-angle bound, rad", "non-negative")
    perturbable: tuple = param((), "perturbable flag per split index; [] = all but the start", key="boundaries")
    seed: int = param(0, "master RNG seed", "non-negative")

    def __post_init__(self):
        for name in ("sigma_p", "bound_p"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (3,):
                raise FieldError(name, f"must hold 3 values, got shape {value.shape}")
            object.__setattr__(self, name, value)
        check_fields(self)


def sample_perturbations(spec: PerturbationSpec, keys):
    """Deterministic (dp, dq) rows, (m, 3) and (m, 4), for m (rollout index,
    boundary index) keys.  Each row comes in closed form from the same 7
    draws of its own stream, default_rng([seed, rollout, boundary]), whatever
    the spec: per axis, dp is N(0, sigma_p^2) truncated to +-bound_p, by
    inverse CDF; dq = exp(delta), delta in a uniform direction with norm
    sigma_r * chi(3) truncated at bound_r.  The rest runs on the rows as
    arrays, each row with the bits it has alone."""
    m = len(keys)
    u, direction, w = np.empty((m, 3)), np.empty((m, 3)), np.empty(m)
    for k, (i, b) in enumerate(keys):
        rng = np.random.default_rng([spec.seed, i, b])
        u[k], direction[k], w[k] = rng.random(3), rng.standard_normal(3), rng.random()
    dp, delta = np.zeros((m, 3)), np.zeros((m, 3))
    on = (spec.sigma_p > 0.0) & (spec.bound_p > 0.0)
    sigma, bound = spec.sigma_p[on], spec.bound_p[on]
    # a bound/sigma ratio that overflows to inf leaves that normal untruncated
    with np.errstate(over="ignore"):
        lo = ndtr(-bound / sigma)
        # clipping keeps rounding and the u = 0 endpoint inside the box
        dp[:, on] = np.clip(sigma * ndtri(lo + u[:, on] * (1.0 - 2.0 * lo)), -bound, bound)
        if spec.sigma_r > 0.0 and spec.bound_r > 0.0:
            top = gammainc(1.5, 0.5 * np.square(spec.bound_r / spec.sigma_r))
            radius = np.minimum(spec.sigma_r * np.sqrt(2.0 * gammaincinv(1.5, w * top)), spec.bound_r)
            delta = radius[:, None] * direction / np.sqrt(rowdot(direction, direction))[:, None]
    return dp, quat_exp(delta)


def sample_boundary_perturbation(spec: PerturbationSpec, boundary_index: int,
                                 rollout_index: int = 0):
    """sample_perturbations' (dp, dq) for one boundary of one rollout."""
    dp, dq = sample_perturbations(spec, [(rollout_index, boundary_index)])
    return dp[0], dq[0]


def _rollout(default, key: str, text: str, check: str):
    """A SynthesisJob field that is the job-config key rollout.<key>."""
    return param(default, text, check, key=f"rollout.{key}")


@dataclass
class SynthesisJob:
    """One synthesis job; field metadata holds each job-config key, its help
    line ("required" where the config must set it) and its RANGES rule, or a
    section's name."""

    demo: Trajectory = field(metadata={"help": "path to expert trajectory CSV/JSON", "required": True})
    scene: GaussianScene | None = field(default=None, metadata={"help": "splat scene PLY/JSON path, or null"})
    spec: PerturbationSpec = field(default_factory=PerturbationSpec, metadata={"key": "perturbation"})
    obstacle: ObstacleParams = field(default_factory=ObstacleParams, metadata={"key": "obstacle"})
    n_demos: int = param(1, "rollouts to synthesize", "at least 1, at most 1e6", key="output.n_demos")
    dt: float = _rollout(0.02, "dt", "integration step, s", "positive")
    n_basis: int = _rollout(DEFAULT_N_BASIS, "n_basis", "RBF count per channel", "at least 2")
    ridge_lambda: float = _rollout(DEFAULT_RIDGE_LAMBDA, "ridge_lambda", "ridge regularizer",
                                   "finite and non-negative")
    alpha_z: float = _rollout(DEFAULT_ALPHA_Z, "alpha_z", "transformation gain", "positive, at most 50")
    alpha_s: float = _rollout(DEFAULT_ALPHA_S, "alpha_s", "canonical decay rate", "at least 1e-3, at most 50")
    horizon_factor: float = _rollout(DEFAULT_HORIZON_FACTOR, "horizon", "horizon as a multiple of tau",
                                     "finite and positive")
    output_dir: str = field(default=".", metadata={"key": "output.dir", "help": "dataset directory",
                                                   "required": True})

    def __post_init__(self):
        check_fields(self)
        # segment durations as fit_dmp computes them: the shortest bounds dt, and the
        # longest takes the most rollout steps
        taus = np.diff(self.demo.times[self.demo.splits])
        for tau in (taus.min(), taus.max()):
            rollout_steps(tau, self.dt, self.horizon_factor)
        check_n_basis(self.demo, self.n_basis)
        if self.spec.perturbable and len(self.spec.perturbable) != len(self.demo.splits):
            raise FieldError("spec.perturbable", f"must hold one flag per demo split ({len(self.demo.splits)}), "
                             f"got {len(self.spec.perturbable)}")


def check_n_basis(demo: Trajectory, n_basis: int) -> None:
    """A FieldError unless every demo segment holds the samples fit_dmp needs,
    as it counts them: on demo below MIN_SEGMENT_SAMPLES, else on n_basis
    above the shortest segment's count."""
    samples = int(np.min(np.diff(demo.splits))) + 1
    if samples < MIN_SEGMENT_SAMPLES:
        raise FieldError("demo", f"every segment must hold at least {MIN_SEGMENT_SAMPLES} samples, "
                         f"the shortest holds {samples}")
    if not n_basis <= samples:
        raise FieldError("n_basis", f"must be <= {samples}, the sample count of the shortest demo segment, "
                         f"got {n_basis}")


def fit_segments(job: SynthesisJob) -> list[DmpModel]:
    return [fit_dmp(job.demo.segment(k), n_basis=job.n_basis,
                    ridge_lambda=job.ridge_lambda, alpha_z=job.alpha_z,
                    alpha_s=job.alpha_s)
            for k in range(job.demo.n_segments)]


def _perturbable_flags(spec: PerturbationSpec, n_boundaries: int):
    if spec.perturbable:
        return [bool(v) for v in spec.perturbable]
    # default: every boundary except the start is perturbable
    return [False] + [True] * (n_boundaries - 1)


def _resample(values: np.ndarray, n_out: int) -> np.ndarray:
    src = np.linspace(0.0, 1.0, len(values))
    dst = np.linspace(0.0, 1.0, n_out)
    return np.interp(dst, src, values)


def _targets(job: SynthesisJob, flags, indices):
    """The (B, K+1, 3) boundary positions and (B, K+1, 4) orientations of the
    given rollouts, perturbed where flagged, and their manifest entries."""
    demo, n = job.demo, len(indices)
    perturbed = [b for b, flag in enumerate(flags) if flag]
    positions = np.repeat(demo.positions[None, demo.splits], n, axis=0)
    quaternions = np.repeat(quat_normalize(demo.quaternions[demo.splits])[None], n, axis=0)
    dp, dq = sample_perturbations(job.spec, [(i, b) for i in indices for b in perturbed])
    dp, dq = dp.reshape(n, len(perturbed), 3), dq.reshape(n, len(perturbed), 4)
    positions[:, perturbed] += dp
    quaternions[:, perturbed] = quat_normalize(quat_mul(quaternions[:, perturbed], dq))
    entries = [{"index": i, "status": "ok",
                "perturbations": [{"boundary": b, "dp": p, "dq": q} for b, p, q in zip(perturbed, ps, qs)]}
               for i, ps, qs in zip(indices, dp.tolist(), dq.tolist())]
    return positions, quaternions, entries


def _synthesize_rows(job: SynthesisJob, models: list[DmpModel], indices) -> list:
    """Chained multi-segment rollouts for the given rollout indices, as row
    blocks: each segment is one _integrate pass over the rows still alive,
    and one concatenation chains the segments.  With the return pull on, the
    pass is paired: _integrate stacks each row's uncoupled nominal above it,
    as the hook reads them, and a row fails at its nominal's failing step,
    else at its own.  The job, not the hook, says so, since a hook wrapped in
    a plain function, as bench/tracing.py wraps it, hides hook.paired.  A row
    also fails at the first step where its position leaves _MAX_COORD on an
    axis, since a trajectory file refuses such a position.  A coupled pass
    logs one DEBUG line with its rollouts, its steps, the first step that
    called its hook (the hook's quiet_steps), or "free" when _integrate's
    look-ahead found no step where the hook could act, and its hook's
    neighbour list rebuilds, listed and kept pairs, gradient probe rows
    answered from the list, and how many of the scene's inverse covariances
    are formed so far, of all its splats.  Returns, per index, (Trajectory,
    manifest entry) or the RolloutError that ended it."""
    flags = _perturbable_flags(job.spec, len(job.demo.splits))
    target_p, target_q, entries = _targets(job, flags, indices)
    y, q = target_p[:, 0].copy(), target_q[:, 0].copy()   # each row's start of its next segment
    outcome, alive = [None] * len(entries), np.arange(len(entries))
    chain, splits, offset = [], [0], 0.0   # per segment: its rows, times, positions, quaternions, gripper
    for k, model in enumerate(models):
        coupling = make_coupling(job.scene, job.obstacle, job.dt) if job.scene else None   # None or no splats
        n = len(alive)
        times, p, qs, failed = _integrate(model, y[alive], q[alive], target_p[alive, k + 1], target_q[alive, k + 1],
                                          job.dt, coupling=coupling, horizon_factor=job.horizon_factor,
                                          paired=coupling is not None and job.obstacle.return_gain > 0.0)
        for i, f in zip(alive[failed >= 0], failed[failed >= 0]):
            outcome[i] = RolloutError(f"non-finite state at step {f}")
        far = np.any(np.abs(p) > _MAX_COORD, axis=-1) & (failed < 0)[:, None]   # a file eval refuses
        out = far.any(axis=1)
        for i, f in zip(alive[out], far[out].argmax(axis=1)):
            outcome[i] = RolloutError(f"position past {_MAX_COORD:g} m from the origin at step {f}")
        keep = (failed < 0) & ~out
        alive, p, qs = alive[keep], p[keep], qs[keep]
        if coupling is not None and log.isEnabledFor(logging.DEBUG):
            listed = getattr(coupling, "neighbors", None)   # a wrapped hook, as bench/tracing.py makes, hides it
            quiet = getattr(coupling, "quiet_steps", "?")
            log.debug("segment %d: %d rows, %d steps, %s, neighbour list: %s rebuilds, %s listed pairs, %s kept, "
                      "%s probe rows, inverse covariances formed: %d of %d", k, n, len(times) - 1,
                      "free" if quiet == len(times) - 1 else f"coupled from step {quiet}",
                      *(("?",) * 4 if listed is None else (listed.rebuilds, listed.listed, listed.kept, listed.probed)),
                      job.scene._inverses_formed(), len(job.scene))
        if not len(alive):
            return outcome
        # a segment's quaternions are made unit here, and again in the chained Trajectory
        qs = quat_canonical(qs / np.linalg.norm(qs, axis=-1, keepdims=True))
        y[alive], q[alive] = p[:, -1], quat_normalize(qs[:, -1])
        cut = min(k, 1)   # a later segment drops its first sample, the junction it shares
        a, b = job.demo.splits[k], job.demo.splits[k + 1]
        chain.append((alive, times[cut:] + offset, p[:, cut:], qs[:, cut:],
                      _resample(job.demo.gripper[a:b + 1], len(times))[cut:]))
        splits.append(splits[-1] + len(times) - 1)
        offset += times[-1]
    blocks, times, positions, quaternions, gripper = zip(*chain)
    at = [np.searchsorted(block, alive) for block in blocks]   # the finished rows' places in each segment
    times, gripper = np.concatenate(times), np.concatenate(gripper)
    positions = np.concatenate([p[r] for p, r in zip(positions, at)], axis=1)
    quaternions = np.concatenate([qs[r] for qs, r in zip(quaternions, at)], axis=1)
    for r, i in enumerate(alive):
        outcome[i] = (Trajectory(times.copy(), positions[r], quaternions[r], gripper.copy(), splits), entries[i])
    return outcome


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
        "obstacle": asdict(job.obstacle),
        "model_hashes": [m.hash() for m in models],
        "rollouts": [],
    }
    outcome = _synthesize_rows(job, models, range(job.n_demos))
    # the rollouts that finished all have the same length: score them as one batch
    scores = iter(trajectory_dtw_many([out[0] for out in outcome if not isinstance(out, RolloutError)],
                                      job.demo))
    trajectories = []
    for idx, out in enumerate(outcome):
        if isinstance(out, RolloutError):
            manifest["rollouts"].append({
                "index": idx, "status": "failed", "error": str(out),
                "perturbations": [],
            })
            trajectories.append(None)
            continue
        traj, entry = out
        entry["dtw_position"], entry["dtw_orientation"] = next(scores)
        manifest["rollouts"].append(entry)
        trajectories.append(traj)
    return trajectories, manifest


def export_dataset(trajectories, manifest, out_dir):
    """Write one CSV per successful rollout plus manifest.json and summary.csv.
    The columns of Trajectory._shared_columns are formatted anew only where
    their bits differ from the last rollout's, and the CSV template made from
    their text is made anew only then."""
    if not trajectories:
        raise ExportError("nothing to export")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ExportError(f"cannot create output directory {out_dir}: {exc}") from exc
    written = []
    # per shared column, the bits and the text of the last one formatted: a batch's rollouts share one
    # times, gripper, split list and, with sigma_r 0, quaternion block, and bits, not ==, tell -0.0
    # from 0.0, whose reprs differ; beside them, the CSV template made from those texts
    last, template = [(None, None)] * 4, None
    for traj, entry in zip(trajectories, manifest["rollouts"]):
        if traj is None:
            entry["file"] = None
            continue
        for k, column in enumerate(traj._shared_columns()):
            bits = column.tobytes()
            if bits != last[k][0]:
                last[k], template = (bits, _column_text(column)), None
        template = template or _csv_template([text for _, text in last])
        name = f"rollout_{entry['index']:04d}.csv"
        traj.save_csv(os.path.join(out_dir, name), _template=template)
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
