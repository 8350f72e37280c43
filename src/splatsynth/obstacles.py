"""Density-based obstacle avoidance coupled into DMP rollouts.

The acceleration pushes along the outward density normal plus a tangential
component that encourages sliding around dense regions.  It is gated by the
density at a short lookahead probe relative to the threshold rho_th, and by
whether the motion is directed into the obstacle; below the threshold the
coupling is exactly zero.  A bounded return-to-reference correction pulls the
rollout back toward the nominal phase-indexed trajectory once density drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import check_fields, param, rowdot
# density stays bound here for bench/tracing.py, which wraps it where it is looked up
from .splats import DEFAULT_GRADIENT_STEP, GaussianScene, _NeighborList, density, density_gradient  # noqa: F401


@dataclass(frozen=True)
class ObstacleParams:
    """The obstacle coupling's gains; each field is the job-config key obstacle.<name>."""

    rho_th: float = param(0.1, "density threshold", "positive")
    lambda_max: float = param(10.0, "peak repulsion gain, m/s^2", "finite and non-negative")
    gamma: float = param(1.0, "tangential bias", "finite and non-negative")
    epsilon: float = param(1e-8, "normalizer guard", "finite and positive")
    lookahead: float = param(0.02, "probe distance floor, m", "finite and non-negative")
    return_gain: float = param(0.0, "return-to-reference stiffness", "finite and non-negative")
    return_cap: float = param(5.0, "return correction bound, m/s^2", "non-negative")
    gradient_step: float = param(DEFAULT_GRADIENT_STEP, "central-difference step, m", "finite and positive")

    def __post_init__(self):
        check_fields(self)


def _unit(x, epsilon: float) -> np.ndarray:
    """x / (||x|| + epsilon) per (..., 3) row."""
    return x / (np.sqrt(rowdot(x, x)) + epsilon)[..., None]


def outward_normal(scene: GaussianScene, x, epsilon: float = ObstacleParams.epsilon,
                   gradient_step: float = DEFAULT_GRADIENT_STEP, _listed=None) -> np.ndarray:
    """n_hat = -grad(rho) / (||grad(rho)|| + eps) per (..., 3) row: points away
    from mass, degrades gracefully to ~0 where the gradient vanishes.  _listed
    is density_gradient's private plumbing, passed on."""
    return -_unit(density_gradient(scene, x, gradient_step, _listed), epsilon)


def tangential_direction(n_hat, v, epsilon: float = ObstacleParams.epsilon) -> np.ndarray:
    """Unit-or-shorter component of n_hat orthogonal to the motion direction."""
    n_hat = np.asarray(n_hat, dtype=float)
    v_hat = _unit(np.asarray(v, dtype=float), epsilon)
    return _unit(n_hat - rowdot(n_hat, v_hat)[..., None] * v_hat, epsilon)


def obstacle_accel(scene: GaussianScene, x_look, v, rho, params: ObstacleParams, _listed=None) -> np.ndarray:
    """Repulsion lambda * (n_hat + gamma * t_hat) per (n, 3) row of lookahead
    probes x_look, with velocities v and probe densities rho.  The gain is
    lambda_max * sigma_rho * sigma_dir: sigma_rho ramps rho above rho_th and
    sigma_dir is active only when moving into the obstacle; exactly zero when
    rho <= rho_th.  Only the rows above rho_th probe the gradient.  _listed is
    private plumbing for the coupling hook: its _NeighborList, whose first n
    rows were x_look at its last read, answers the gradient probes."""
    out = np.zeros(np.shape(x_look))
    act = np.flatnonzero(rho > params.rho_th)
    if params.lambda_max == 0.0 or len(act) == 0:
        return out
    v_hat = _unit(v[act], params.epsilon)
    n_hat = outward_normal(scene, x_look[act], params.epsilon, params.gradient_step,
                           None if _listed is None else (_listed, act))
    sigma_dir = np.minimum(np.maximum(-rowdot(v_hat, n_hat), 0.0), 1.0)
    on = sigma_dir != 0.0   # moving along or away from the obstacle: exactly zero
    act, n_hat, sigma_dir = act[on], n_hat[on], sigma_dir[on]
    sigma_rho = np.minimum((rho[act] - params.rho_th) / params.rho_th, 1.0)
    t_hat = tangential_direction(n_hat, v[act], params.epsilon)
    out[act] = (params.lambda_max * sigma_rho * sigma_dir)[:, None] * (n_hat + params.gamma * t_hat)
    return out


def return_to_reference(x, v_err, x_ref, rho, params: ObstacleParams) -> np.ndarray:
    """Bounded pull toward the nominal phase-indexed rollout position per (n, 3)
    row, with v_err the velocity difference to the reference and rho the row's
    density.  The damping 2*sqrt(return_gain) keeps it critically damped; the
    weight w = clamp(1 - rho/rho_th, 0, 1) disables the pull in high density."""
    if params.return_gain == 0.0:
        return np.zeros(np.shape(x))
    w = np.minimum(np.maximum(1.0 - rho / params.rho_th, 0.0), 1.0)
    out = None
    if not np.all(w != 0.0):   # the pull runs on the rows it weighs, scattered back among zeros
        out = np.zeros(np.shape(x))
        on = np.flatnonzero(w != 0.0)
        w, x, v_err, x_ref = w[on], x[on], v_err[on], x_ref[on]
    a = w[:, None] * (params.return_gain * (x_ref - x) - 2.0 * math.sqrt(params.return_gain) * v_err)
    mag = np.sqrt(rowdot(a, a))
    over = mag > params.return_cap
    if over.any():
        a[over] *= (params.return_cap / mag[over])[:, None]
    if out is None:
        return a
    out[on] = a
    return out


def make_coupling(scene: GaussianScene, params: ObstacleParams, nominal, dt: float):
    """The coupling hook (step, y, v) -> accelerations for (B, 3) rows of
    positions and velocities.  nominal holds the (B, n+1, 3) positions of the
    rows' uncoupled rollouts, which only the return pull reads (None will do
    when return_gain is zero).
    Each step reads the density of the lookahead probes when the repulsion is
    on and of the positions when the pull is on, as density_many gives it,
    from the hook's own splats._NeighborList, hook.neighbors.  The repulsion's
    gradient probes around the active lookahead probes are read from the same
    list, through obstacles.density_gradient, with density_many's bits.  None
    when both are off, so that the coupled rollout is bitwise identical to
    the plain one."""
    repel, pull = params.lambda_max > 0.0, params.return_gain > 0.0
    if not (repel or pull):
        return None
    if pull:   # on the grid of sample times, which np.gradient rounds otherwise than the scalar dt
        ref_vel = np.gradient(nominal, np.arange(nominal.shape[1]) * dt, axis=1)

    neighbors = _NeighborList(scene)
    rows = np.empty((0, 3))   # the probes, then the positions; one buffer per row count

    def hook(step, y, v):
        nonlocal rows
        b = len(y)
        if len(rows) != (repel + pull) * b:
            rows = np.empty(((repel + pull) * b, 3))
        if repel:
            speed = np.sqrt(rowdot(v, v))
            probe = np.maximum(params.lookahead, 3.0 * dt * speed)
            x_look = rows[:b]
            np.add(y, probe[:, None] * (v / (speed + params.epsilon)[:, None]), out=x_look)   # y + probe _unit(v)
        if pull:
            rows[-b:] = y
        rho = neighbors.density(rows)
        a = obstacle_accel(scene, x_look, v, rho[:b], params, neighbors) if repel else np.zeros(y.shape)
        if pull:
            i = min(step, nominal.shape[1] - 1)
            a = a + return_to_reference(y, v - ref_vel[:, i], nominal[:, i], rho[-b:], params)
        return a

    hook.neighbors = neighbors
    return hook
