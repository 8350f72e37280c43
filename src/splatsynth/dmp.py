"""Dynamic Movement Primitives: per-segment fitting and goal-retargeted rollout.

Position uses one transformation system per Cartesian axis; orientation is
modeled in the rotation-vector chart r(t) = log(q0^-1 * q(t)) with a 3D DMP,
and reconstructed as q(t) = q0 * exp(r(t)).

Transformation system (tau-scaled form):

    tau * dv/dt = alpha_z * (beta_z * (g - y) - v) + f(s)
    tau * dy/dt = v
    tau * ds/dt = -alpha_s * s,   s(0) = 1

with a normalized-RBF forcing term f(s) = (sum w_i psi_i / sum psi_i) * s * (g - y0)
whose weights are fit by ridge regression against the demonstrated
accelerations.  Retargeting changes only the attractor and the (g - y0)
scaling; the weights stay fixed, preserving the demonstrated shape and phase.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    FieldError,
    Pose,
    Trajectory,
    check_fields,
    quat_conj,
    quat_exp,
    quat_log,
    quat_mul,
    unwrap_rotation_vectors,
)

DEFAULT_ALPHA_Z = 25.0
DEFAULT_ALPHA_S = 4.0
DEFAULT_N_BASIS = 30
DEFAULT_RIDGE_LAMBDA = 1e-6
DEFAULT_HORIZON_FACTOR = 1.25
DEGENERATE_GOAL_TOL = 1e-6
REST_PAD_SAMPLES = 50
REST_PAD_WEIGHT = 10.0
# A rollout's step budget, at least a hundred times the most steps of any run in bench/, the tests or the
# README: every step is a Python iteration, and the rollout's arrays grow with the count.
MAX_ROLLOUT_STEPS = 100_000
# the fewest samples a segment is fit from, whatever n_basis
MIN_SEGMENT_SAMPLES = 10
# The steps _integrate's look-ahead runs without the hook before it asks the hook's rule about them.  A
# step run past the first hot one is run again, and each chunk makes one density read: of 16, 32 and 64,
# 16 ran fastest on bench/run.py's scene_synth, and c05_batch could not tell them apart.
_QUIET_CHUNK = 16


class FitError(RuntimeError):
    """Raised when a segment cannot be fit (too short or rank-deficient)."""


class RolloutError(RuntimeError):
    """Raised when integration produces a non-finite state."""


@dataclass(frozen=True)
class CanonicalSystem:
    alpha_s: float = field(default=DEFAULT_ALPHA_S, metadata={"check": "finite and positive"})
    tau: float = field(default=1.0, metadata={"check": "finite and positive"})

    def __post_init__(self):
        check_fields(self)


def canonical_phase(cs: CanonicalSystem, t: float) -> float:
    """Closed-form phase s(t) = exp(-alpha_s * t / tau)."""
    return math.exp(-cs.alpha_s * t / cs.tau)


def rbf_centers_widths(n_basis: int, alpha_s: float):
    """Centers uniform in time mapped through the phase; widths from spacing."""
    i = np.arange(n_basis)
    centers = np.exp(-alpha_s * i / (n_basis - 1))
    gaps = np.diff(centers)
    widths = 1.0 / (2.0 * gaps ** 2)
    widths = np.append(widths, widths[-1])
    return centers, widths


def _basis(phase: np.ndarray, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """(T, n) rows psi(s) * s / sum(psi(s)), one per phase value s in (T,)."""
    psi = np.exp(-widths * (phase[:, None] - centers) ** 2)
    return psi * (phase[:, None] / np.sum(psi, axis=1, keepdims=True))


@dataclass(frozen=True)
class ForcingTerm:
    centers: np.ndarray  # (n,), strictly decreasing in (0, 1]
    widths: np.ndarray   # (n,)
    weights: np.ndarray  # (dims, n)


# the DmpModel fields that serialize as one flat list each
_VECTOR_FIELDS = ("y0", "goal", "q0", "q_goal", "rot_goal", "pos_scale", "pos_degenerate",
                  "rot_scale", "rot_degenerate")


@dataclass(frozen=True)
class DmpModel:
    canonical: CanonicalSystem
    alpha_z: float
    beta_z: float
    position_forcing: ForcingTerm
    orientation_forcing: ForcingTerm
    y0: np.ndarray               # demo start position
    goal: np.ndarray             # demo goal position
    q0: np.ndarray               # demo start orientation
    q_goal: np.ndarray           # demo goal orientation
    rot_goal: np.ndarray         # log(q0^-1 * q_goal), unwrapped branch
    pos_scale: np.ndarray        # per-axis forcing scale used at fit time
    pos_degenerate: np.ndarray   # bool per axis: goal ~= start at fit time
    rot_scale: np.ndarray
    rot_degenerate: np.ndarray
    duration: float

    def to_dict(self) -> dict:
        return {"alpha_s": self.canonical.alpha_s, "tau": self.canonical.tau,
                "alpha_z": self.alpha_z, "beta_z": self.beta_z,
                "centers": self.position_forcing.centers.tolist(),
                "widths": self.position_forcing.widths.tolist(),
                "position_weights": self.position_forcing.weights.tolist(),
                "orientation_weights": self.orientation_forcing.weights.tolist(),
                "duration": self.duration,
                **{name: np.asarray(getattr(self, name)).tolist() for name in _VECTOR_FIELDS}}

    @classmethod
    def from_dict(cls, d: dict) -> "DmpModel":
        centers = np.asarray(d["centers"], dtype=float)
        widths = np.asarray(d["widths"], dtype=float)
        vectors = {name: np.asarray(d[name], dtype=bool if name.endswith("degenerate") else float)
                   for name in _VECTOR_FIELDS}
        return cls(CanonicalSystem(alpha_s=d["alpha_s"], tau=d["tau"]), d["alpha_z"], d["beta_z"],
                   ForcingTerm(centers, widths, np.asarray(d["position_weights"], dtype=float)),
                   ForcingTerm(centers, widths, np.asarray(d["orientation_weights"], dtype=float)),
                   duration=d["duration"], **vectors)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def hash(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()


def _fit_channels(values: np.ndarray, times: np.ndarray, s: np.ndarray,
                  goal: np.ndarray, y0: np.ndarray, tau: float,
                  alpha_z: float, beta_z: float,
                  centers: np.ndarray, widths: np.ndarray,
                  ridge_lambda: float):
    """Ridge-fit forcing weights for a multi-channel signal; returns
    (weights (dims, n), scale (dims,), degenerate (dims,))."""
    # np.gradient uses the exact three-point weights on non-uniform grids
    vel = np.gradient(values, times, axis=0)
    acc = np.gradient(vel, times, axis=0)
    basis = _basis(s, centers, widths)  # (T, n)
    # Anchor the small-phase tail: the demo ends at rest at its goal, so the
    # continuation beyond tau has zero target forcing.  Weighted rest rows on
    # s in (s(tau), s(1.5*tau)] pin the otherwise underdetermined late weights
    # so retargeted rollouts settle onto the new goal.
    alpha_s = -math.log(s[-1])  # s = exp(-alpha_s * t / tau) with t[-1] = tau
    pad_phase = np.exp(-alpha_s * np.linspace(1.0, 1.5, REST_PAD_SAMPLES + 1)[1:])
    pad = REST_PAD_WEIGHT * _basis(pad_phase, centers, widths)
    dims = values.shape[1]
    n = len(centers)
    weights = np.zeros((dims, n))
    scale = np.zeros(dims)
    degenerate = np.zeros(dims, dtype=bool)
    for c in range(dims):
        amp = goal[c] - y0[c]
        if abs(amp) < DEGENERATE_GOAL_TOL:
            degenerate[c] = True
            amp = max(abs(amp), float(np.ptp(values[:, c])), DEGENERATE_GOAL_TOL)
        scale[c] = amp
        f_target = tau ** 2 * acc[:, c] - alpha_z * (beta_z * (goal[c] - values[:, c]) - tau * vel[:, c])
        phi = np.vstack([basis, pad]) * amp
        rhs = np.concatenate([f_target, np.zeros(len(pad))])
        A = phi.T @ phi + ridge_lambda * np.eye(n)
        if ridge_lambda == 0.0 and np.linalg.cond(A) > 1e12:
            raise FitError("singular normal equations with ridge_lambda=0")
        weights[c] = np.linalg.solve(A, phi.T @ rhs)
    return weights, scale, degenerate


def fit_dmp(segment: Trajectory, n_basis: int = DEFAULT_N_BASIS,
            ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
            alpha_z: float = DEFAULT_ALPHA_Z,
            alpha_s: float = DEFAULT_ALPHA_S) -> DmpModel:
    """Fit position and orientation DMPs to one demonstration segment."""
    if not n_basis >= 2:
        raise FitError(f"n_basis must be at least 2, got {n_basis}")
    if len(segment) < max(MIN_SEGMENT_SAMPLES, n_basis):
        raise FitError(f"segment too short: {len(segment)} samples, need {max(MIN_SEGMENT_SAMPLES, n_basis)}")
    beta_z = alpha_z / 4.0  # critical damping
    times = segment.times - segment.times[0]
    tau = float(times[-1])
    cs = CanonicalSystem(alpha_s=alpha_s, tau=tau)
    s = np.exp(-alpha_s * times / tau)
    centers, widths = rbf_centers_widths(n_basis, alpha_s)

    y0 = segment.positions[0].copy()
    goal = segment.positions[-1].copy()
    pos_w, pos_scale, pos_deg = _fit_channels(
        segment.positions, times, s, goal, y0, tau, alpha_z, beta_z,
        centers, widths, ridge_lambda)

    q0 = segment.quaternions[0]
    rs = unwrap_rotation_vectors(quat_log(quat_mul(quat_conj(q0), segment.quaternions)))
    rot_goal = rs[-1].copy()
    rot_w, rot_scale, rot_deg = _fit_channels(
        rs, times, s, rot_goal, np.zeros(3), tau, alpha_z, beta_z,
        centers, widths, ridge_lambda)

    return DmpModel(
        canonical=cs,
        alpha_z=alpha_z,
        beta_z=beta_z,
        position_forcing=ForcingTerm(centers, widths, pos_w),
        orientation_forcing=ForcingTerm(centers, widths, rot_w),
        y0=y0, goal=goal, q0=q0, q_goal=segment.quaternions[-1],
        rot_goal=rot_goal,
        pos_scale=pos_scale, pos_degenerate=pos_deg,
        rot_scale=rot_scale, rot_degenerate=rot_deg,
        duration=tau,
    )


def rollout_steps(tau: float, dt: float, horizon_factor: float) -> int:
    """ceil(horizon_factor * tau / dt), the step count of a rollout of a
    segment of duration tau; a FieldError when dt is not in (0, tau/50] or
    the count passes MAX_ROLLOUT_STEPS."""
    if not 0.0 < dt <= tau / 50.0:
        raise FieldError("dt", f"must be <= tau/50 = {tau / 50.0} and positive, got {dt}")
    steps = horizon_factor * tau / dt
    if steps > MAX_ROLLOUT_STEPS:   # the horizon is at fault when even dt = tau/50 takes too many steps
        name = "horizon_factor" if 50.0 * horizon_factor > MAX_ROLLOUT_STEPS else "dt"
        raise FieldError(name, f"must keep horizon * tau / dt within {MAX_ROLLOUT_STEPS} steps, "
                               f"got {steps:.6g} at tau = {tau}")
    return math.ceil(steps)


def _integrate(model: DmpModel, y, q0, goal, q_goal, dt: float, coupling=None,
               horizon_factor: float = DEFAULT_HORIZON_FACTOR, paired: bool = False):
    """Integrate the DMP from B starts to B goals at once, given as (B, 3)
    positions and (B, 4) unit quaternions, with semi-implicit Euler for
    rollout_steps(tau, dt, horizon_factor) steps.  coupling, when given, is
    called as coupling(step_index, positions, velocities_m_per_s) on the
    (B, 3) rows and returns the extra accelerations added into the tau-scaled
    dynamics (tau*dv/dt = a_dmp + a_coupling).  The phase's forcing table is
    built once, before the step loop; orientation, q0 * exp(r(t)), after it.
    Position and rotation vector step as one (B, 6) state [y | r], with every
    operation elementwise, so each column rounds as it would on its own.

    paired, for a coupling whose return pull reads each row's uncoupled
    nominal (make_coupling's hook.paired), stacks the B rows below a copy of
    themselves in the one state: coupling then gets (2B, 3) rows, [0, B) the
    nominals of [B, 2B).  Only the B coupled rows are returned, and each
    fails at its nominal's failing step, else at its own.

    A coupling with a quiet rule (make_coupling's hook.quiet) gets a
    look-ahead.  _integrate runs _QUIET_CHUNK steps without the hook, then
    asks the rule, with one read of every row's probes at those steps, on
    how many of them the hook would have returned +0.0 (on every row whose
    state is finite: a row that is not keeps its state, whatever it gets).
    At the first step the hook could act, the state, the velocity and failed
    are rewound to that step, and the hook is called on every step from
    there to the end.  A step run
    without the hook leaves out the hook's +0.0, so an acceleration of -0.0
    stays -0.0.  That changes no bit of the state: the velocity starts at
    +0.0, and a float sum is -0.0 only when both of its terms are, so the
    velocity is never -0.0, and v + a h is the same for a h of +0.0 or -0.0.
    A coupling without the rule, such as a plain function wrapping the hook,
    is called on every step.

    Every row is computed exactly as it would be alone.  Returns the (n+1,)
    times, the (B, n+1, 3) positions and (B, n+1, 4) quaternions, not yet
    normalized, and per row the step its state went non-finite at, or -1:
    such a row is frozen, and the others carry on."""
    b = len(y)
    if paired:
        y, q0, goal, q_goal = (np.concatenate([rows, rows]) for rows in (y, q0, goal, q_goal))
    tau = model.canonical.tau
    n_steps = rollout_steps(tau, dt, horizon_factor)
    rot_goal = quat_log(quat_mul(quat_conj(q0), q_goal))
    # degenerate-at-fit channels keep their stored scale; others rescale
    # with the new goal amplitude
    scale = np.concatenate([np.where(model.pos_degenerate, model.pos_scale, goal - y),
                            np.where(model.rot_degenerate, model.rot_scale, rot_goal)], axis=1)
    target = np.concatenate([goal, rot_goal], axis=1)

    alpha_s = model.canonical.alpha_s
    az, bz, h = model.alpha_z, model.beta_z, dt / tau

    phase = np.empty(n_steps)
    s = 1.0
    for n in range(n_steps):
        phase[n], s = s, s - alpha_s * s * h
    # fit_dmp and from_dict give both forcing terms the same centers and widths
    basis = _basis(phase, model.position_forcing.centers, model.position_forcing.widths)[:, :, None]
    # every step's (3, n) product per system, batched, rounds as w @ basis[n] does; one (6, n) product does not
    forcing = np.concatenate([(term.weights[None] @ basis)[..., 0]
                              for term in (model.position_forcing, model.orientation_forcing)], axis=1)

    x = np.concatenate([y, np.zeros_like(y)], axis=1)
    v = np.zeros_like(x)
    states = np.empty((len(y), n_steps + 1, 6))
    states[:, 0] = x
    failed = np.full(len(y), -1)

    def step(n, x, v, hook):
        a = az * (bz * (target - x) - v) + forcing[n] * scale
        if hook is not None:   # the hook gets a copy of the positions, its own to keep
            a[:, :3] += hook(n, x[:, :3].copy(), v[:, :3] / tau)
        v_next = v + a * h
        x_next = x + v_next * h
        if not np.isfinite(x_next).all():   # the rows' own test, only on a step where some row fails
            bad = ~np.isfinite(x_next).all(axis=1)
            failed[bad & (failed < 0)] = n
            x_next, v_next = (np.where(bad[:, None], old, new) for old, new in ((x, x_next), (v, v_next)))
        states[:, n + 1] = x_next
        return x_next, v_next

    n, quiet = 0, getattr(coupling, "quiet", None)
    if quiet is not None:
        block = np.empty((len(y), _QUIET_CHUNK, 6))   # the velocities at a chunk's steps
    while quiet is not None and n < n_steps:   # the look-ahead: a chunk run free, then read by the rule
        chunk = range(n, min(n + _QUIET_CHUNK, n_steps))
        for m in chunk:
            block[:, m - n] = v
            x, v = step(m, x, v, None)
        k = quiet(states[:, n:chunk.stop, :3], block[:, :len(chunk), :3] / tau, paired)
        if k < len(chunk):   # rewind to the first step where the hook could act
            x, v = states[:, n + k].copy(), block[:, k].copy()
            failed[failed >= n + k] = -1
            quiet = None
        n += k
    for n in range(n, n_steps):
        x, v = step(n, x, v, coupling)

    if paired:
        failed = np.where(failed[:b] >= 0, failed[:b], failed[b:])
        states, q0 = states[b:], q0[b:]
    quaternions = np.empty((b, n_steps + 1, 4))
    quaternions[:, 0] = q0
    quaternions[:, 1:] = quat_mul(q0[:, None], quat_exp(states[:, 1:, 3:]))
    return np.arange(n_steps + 1) * dt, states[..., :3].copy(), quaternions, failed


def rollout_batch(model: DmpModel, starts, goals, dt: float = 0.01, coupling=None,
                  horizon_factor: float = DEFAULT_HORIZON_FACTOR) -> list:
    """_integrate from B start Poses to B goal Poses: one Trajectory per row,
    or the RolloutError of a row whose state went non-finite.  A coupling
    whose paired attribute is true, as make_coupling's hook with the return
    pull on, runs each row beside its own nominal (_integrate's paired)."""
    y, goal = (np.array([p.position for p in poses], dtype=float).reshape(-1, 3) for poses in (starts, goals))
    q0, q_goal = (np.array([p.orientation for p in poses], dtype=float).reshape(-1, 4) for poses in (starts, goals))
    times, positions, quaternions, failed = _integrate(model, y, q0, goal, q_goal, dt, coupling, horizon_factor,
                                                       paired=getattr(coupling, "paired", False))
    return [RolloutError(f"non-finite state at step {f}") if f >= 0 else
            Trajectory(times.copy(), positions[b], quaternions[b], np.zeros(len(times)), [0, len(times) - 1])
            for b, f in enumerate(failed)]


def rollout(model: DmpModel, new_start: Pose | None = None,
            new_goal: Pose | None = None, dt: float = 0.01,
            coupling=None,
            horizon_factor: float = DEFAULT_HORIZON_FACTOR) -> Trajectory:
    """One rollout: rollout_batch on a single row, from new_start (default the
    demo's start) to new_goal (default the demo's goal).  coupling is called
    with (1, 3) rows, or (2, 3) when it is paired: the nominal, then the
    rollout.  Raises RolloutError when the state goes non-finite."""
    start = new_start or Pose(model.y0, model.q0)
    goal = new_goal or Pose(model.goal, model.q_goal)
    (out,) = rollout_batch(model, [start], [goal], dt, coupling, horizon_factor)
    if isinstance(out, RolloutError):
        raise out
    return out
