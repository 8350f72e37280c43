"""Density-based obstacle avoidance coupled into DMP rollouts.

The acceleration pushes along the outward density normal plus a tangential
component that encourages sliding around dense regions.  It is gated by the
density at a short lookahead probe relative to the threshold rho_th, and by
whether the motion is directed into the obstacle; below the threshold the
coupling is exactly zero, the pull's too while the repulsion has not moved the
rollout off its nominal.  A bounded return-to-reference correction pulls the
rollout back toward its uncoupled nominal once density drops.

The coupling hook carries the rule that says so, hook.quiet: from the
lookahead probes of a block of steps, the steps on which the hook provably
returns +0.0.  dmp._integrate runs such steps without calling the hook.  A
term that can act below rho_th must join that rule, or it is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import check_fields, param, rowdot
# density stays bound here for bench/tracing.py, which wraps it where it is looked up
from .splats import DEFAULT_GRADIENT_STEP, GaussianScene, _NeighborList, density, density_gradient  # noqa: F401
from .splats import density_many


@dataclass(frozen=True)
class ObstacleParams:
    """The obstacle coupling's gains; each field is the job-config key obstacle.<name>."""

    rho_th: float = param(0.1, "density threshold", "positive")
    lambda_max: float = param(10.0, "peak repulsion gain, m/s^2", "non-negative, at most 1e100")
    gamma: float = param(1.0, "tangential bias", "non-negative, at most 1e6")
    epsilon: float = param(1e-8, "normalizer guard", "finite and positive")
    lookahead: float = param(0.02, "probe distance floor, m", "finite and non-negative")
    return_gain: float = param(0.0, "return-to-reference stiffness", "non-negative, at most 1e100")
    return_cap: float = param(5.0, "return correction bound, m/s^2", "non-negative, at most 1e100")
    gradient_step: float = param(DEFAULT_GRADIENT_STEP, "central-difference step, m", "finite and positive")

    def __post_init__(self):
        check_fields(self)


def _unit(x, epsilon: float) -> np.ndarray:
    """x / (||x|| + epsilon) per (..., 3) row."""
    return x / (np.sqrt(rowdot(x, x)) + epsilon)[..., None]


def outward_normal(scene: GaussianScene, x, epsilon: float = ObstacleParams.epsilon,
                   gradient_step: float = DEFAULT_GRADIENT_STEP) -> np.ndarray:
    """n_hat = -grad(rho) / (||grad(rho)|| + eps) per (..., 3) row: points away
    from mass, degrades gracefully to ~0 where the gradient vanishes."""
    return -_unit(density_gradient(scene, x, gradient_step), epsilon)


def tangential_direction(n_hat, v, epsilon: float = ObstacleParams.epsilon) -> np.ndarray:
    """Unit-or-shorter component of n_hat orthogonal to the motion direction."""
    n_hat = np.asarray(n_hat, dtype=float)
    v_hat = _unit(np.asarray(v, dtype=float), epsilon)
    return _unit(n_hat - rowdot(n_hat, v_hat)[..., None] * v_hat, epsilon)


def _probes(y, v, params: ObstacleParams, dt: float, out=None) -> np.ndarray:
    """The repulsion's lookahead probes y + d * v_hat per (..., 3) row of
    positions y and velocities v, at d = max(lookahead, 3 dt |v|)."""
    speed = np.sqrt(rowdot(v, v))
    probe = np.maximum(params.lookahead, 3.0 * dt * speed)
    return np.add(y, probe[..., None] * (v / (speed + params.epsilon)[..., None]), out=out)


def obstacle_accel(scene: GaussianScene, x_look, v, rho, params: ObstacleParams, _listed=None) -> np.ndarray:
    """Repulsion lambda * (n_hat + gamma * t_hat) per (n, 3) row of lookahead
    probes x_look, with velocities v and probe densities rho.  The gain is
    lambda_max * sigma_rho * sigma_dir: sigma_rho ramps rho above rho_th and
    sigma_dir is active only when moving into the obstacle; exactly zero when
    rho <= rho_th.  Only the rows above rho_th probe the gradient.  _listed is
    private plumbing for the coupling hook: its _NeighborList, which holds the
    gradient step and whose first n rows were x_look at its last read, answers
    the gradient probes through density_gradient."""
    out = np.zeros(np.shape(x_look))
    act = np.flatnonzero(rho > params.rho_th)
    if params.lambda_max == 0.0 or len(act) == 0:
        return out
    v_hat = _unit(v[act], params.epsilon)
    grad = density_gradient(scene, x_look[act], params.gradient_step, None if _listed is None else (_listed, act))
    n_hat = -_unit(grad, params.epsilon)
    sigma_dir = np.minimum(np.maximum(-rowdot(v_hat, n_hat), 0.0), 1.0)
    on = sigma_dir != 0.0   # moving along or away from the obstacle: exactly zero
    act, n_hat, sigma_dir = act[on], n_hat[on], sigma_dir[on]
    sigma_rho = np.minimum((rho[act] - params.rho_th) / params.rho_th, 1.0)
    t_hat = tangential_direction(n_hat, v[act], params.epsilon)
    out[act] = (params.lambda_max * sigma_rho * sigma_dir)[:, None] * (n_hat + params.gamma * t_hat)
    return out


def return_to_reference(x, v_err, x_ref, rho, params: ObstacleParams) -> np.ndarray:
    """Bounded pull toward the nominal rollout's position x_ref per (n, 3)
    row, with v_err the velocity difference to the nominal and rho the row's
    density.  The damping 2*sqrt(return_gain) keeps it critically damped; the
    weight w = clamp(1 - rho/rho_th, 0, 1) disables the pull in high density.
    A pull longer than return_cap is scaled to it, also where its length or
    terms overflow, taking its direction from the pull over return_gain."""
    if params.return_gain == 0.0:
        return np.zeros(np.shape(x))
    w = np.minimum(np.maximum(1.0 - rho / params.rho_th, 0.0), 1.0)
    out = None
    if not np.all(w != 0.0):   # the pull runs on the rows it weighs, scattered back among zeros
        out = np.zeros(np.shape(x))
        on = np.flatnonzero(w != 0.0)
        w, x, v_err, x_ref = w[on], x[on], v_err[on], x_ref[on]
    with np.errstate(over="ignore", invalid="ignore"):   # the rows that overflow are capped below
        a = w[:, None] * (params.return_gain * (x_ref - x) - 2.0 * math.sqrt(params.return_gain) * v_err)
        mag = np.sqrt(rowdot(a, a))
    over = ~(mag <= params.return_cap)   # NaN where the pull's terms overflowed
    if over.any():
        huge = over & ~np.isfinite(mag)   # scaled to its largest component, the direction squares safely
        u = w[huge, None] * ((x_ref - x)[huge] - 2.0 / math.sqrt(params.return_gain) * v_err[huge])
        a[huge] = u / np.abs(u).max(axis=1, keepdims=True)
        a[over] *= (params.return_cap / np.sqrt(rowdot(a[over], a[over])))[:, None]
    if out is None:
        return a
    out[on] = a
    return out


def make_coupling(scene: GaussianScene, params: ObstacleParams, dt: float):
    """The coupling hook (step, y, v) -> accelerations for rows of positions
    and velocities.  With the return pull on, hook.paired is True, and
    dmp._integrate, told so, stacks each rollout below its uncoupled nominal
    in the same state: rows [0, B) are the nominals of rows [B, 2B), the pull
    reads a nominal's own position and velocity, the nominals get exact
    zeros, and an odd row count is a ValueError; on a step
    where every coupled row's offsets from its nominal are +0.0, the pull is
    exactly +0.0, and the hook adds that without computing it.  Each step
    reads the density of the coupled rows' lookahead probes (repulsion on) and
    positions (pull on), as density_many gives it, from the hook's own
    splats._NeighborList, hook.neighbors, which also answers the repulsion's
    gradient probes through obstacles.density_gradient, unless it does not
    hold the gradient step (neighbors.probe_step 0) and density_many does.
    None when both are off, so that the rollout is bitwise the plain one.

    hook.quiet(y, v, paired) is the hook's own rule for dmp._integrate's
    look-ahead: given the (R, K, 3) positions and velocities of K steps, as
    the hook would get them with paired as _integrate's, it returns on how
    many leading steps the hook returns +0.0 on every finite row, and adds
    them to hook.quiet_steps.  A step is hot when some coupled row's probe, by the
    hook's own formula (_probes), reads a density_many above rho_th: below it
    the repulsion is +0.0, and so is the pull while the repulsion has not
    moved a rollout off its nominal.  With lambda_max 0 no step is hot.  An
    unpaired call of a pull-on hook gets 0, since its rows need not start on
    their nominals.  The rule is an attribute of the hook, not derived from
    the job, because it holds only for this hook's output: a plain function
    wrapping the hook, which may change that output (a test's NaN injector,
    bench/tracing.py's timer), hides it, and is called on every step."""
    repel, pull = params.lambda_max > 0.0, params.return_gain > 0.0
    if not (repel or pull):
        return None
    neighbors = _NeighborList(scene, params.gradient_step if repel else 0.0)
    listed = neighbors if neighbors.probe_step else None
    rows = np.empty((0, 3))   # the probes, then the positions; one buffer per row count

    def hook(step, y, v):
        nonlocal rows
        b = len(y) // 2 if pull else len(y)
        if pull:
            if len(y) % 2:
                raise ValueError(f"the return pull reads rows in pairs, nominal then rollout; got {len(y)} rows")
            y_ref, y, v_ref, v = y[:b], y[b:], v[:b], v[b:]
        if len(rows) != (repel + pull) * b:
            rows = np.empty(((repel + pull) * b, 3))
        if repel:
            x_look = _probes(y, v, params, dt, out=rows[:b])
        if pull:
            rows[-b:] = y
        rho = neighbors.density(rows)
        a = obstacle_accel(scene, x_look, v, rho[:b], params, listed) if repel else np.zeros(y.shape)
        if not pull:
            return a
        out = np.zeros((2 * b, 3))
        v_err = v - v_ref
        # offsets y_ref - y and v_err of +0.0 (all bits zero) give a pull of exactly +0.0
        zero = bytes(v_err.nbytes)
        on_nominal = (y_ref - y).tobytes() == zero and v_err.tobytes() == zero
        np.add(a, 0.0 if on_nominal else return_to_reference(y, v_err, y_ref, rho[-b:], params), out=out[b:])
        return out

    def quiet(y, v, paired):
        k = y.shape[1]
        if pull and not paired:   # the rows need not start on their nominals: the pull may act at once
            k = 0
        elif repel:   # the coupled rows' probes, as the hook reads them
            b = len(y) // 2 if pull else len(y)
            hot = np.flatnonzero((density_many(scene, _probes(y[len(y) - b:], v[len(y) - b:], params, dt))
                                  > params.rho_th).any(axis=0))
            k = int(hot[0]) if len(hot) else k
        hook.quiet_steps += k
        return k

    hook.neighbors, hook.paired, hook.quiet, hook.quiet_steps = neighbors, pull, quiet, 0
    return hook
