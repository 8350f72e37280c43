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

from .geometry import Trajectory, rowdot
# density stays bound here for bench/tracing.py, which wraps it where it is looked up
from .splats import GaussianScene, density, density_gradient, density_many  # noqa: F401


@dataclass(frozen=True)
class ObstacleParams:
    rho_th: float = 0.1          # density threshold
    lambda_max: float = 10.0     # peak gain, m/s^2
    gamma: float = 1.0           # tangential bias
    epsilon: float = 1e-8        # normalizer guard
    lookahead: float = 0.02      # probe distance floor, meters
    return_gain: float = 0.0     # stiffness of return-to-reference pull
    return_cap: float = 5.0      # bound on correction magnitude, m/s^2
    gradient_step: float = 1e-3

    def __post_init__(self):
        if self.rho_th <= 0 or self.epsilon <= 0:
            raise ValueError("rho_th and epsilon must be positive")
        if self.lambda_max < 0 or self.return_gain < 0 or self.return_cap < 0:
            raise ValueError("gains must be non-negative")

    @classmethod
    def from_dict(cls, d: dict) -> "ObstacleParams":
        return cls(**d)

    def to_dict(self) -> dict:
        return {
            "rho_th": self.rho_th, "lambda_max": self.lambda_max,
            "gamma": self.gamma, "epsilon": self.epsilon,
            "lookahead": self.lookahead, "return_gain": self.return_gain,
            "return_cap": self.return_cap, "gradient_step": self.gradient_step,
        }


def _rows(*arrays):
    """The arrays broadcast together, each as (n, 3) rows, and their shape."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    return [a.reshape(-1, 3) for a in arrays], arrays[0].shape


def _unit(x, epsilon: float) -> np.ndarray:
    """x / (||x|| + epsilon) per (..., 3) row."""
    return x / (np.sqrt(rowdot(x, x)) + epsilon)[..., None]


def outward_normal(scene: GaussianScene, x, epsilon: float = 1e-8,
                   gradient_step: float = 1e-3) -> np.ndarray:
    """n_hat = -grad(rho) / (||grad(rho)|| + eps) per (..., 3) row: points away
    from mass, degrades gracefully to ~0 where the gradient vanishes."""
    return -_unit(density_gradient(scene, x, gradient_step), epsilon)


def tangential_direction(n_hat, v, epsilon: float = 1e-8) -> np.ndarray:
    """Unit-or-shorter component of n_hat orthogonal to the motion direction."""
    n_hat = np.asarray(n_hat, dtype=float)
    v_hat = _unit(np.asarray(v, dtype=float), epsilon)
    return _unit(n_hat - rowdot(n_hat, v_hat)[..., None] * v_hat, epsilon)


def obstacle_accel(scene: GaussianScene, x, v, params: ObstacleParams,
                   lookahead=None) -> np.ndarray:
    """Repulsive acceleration lambda * (n_hat + gamma * t_hat) per (..., 3)
    row of positions x and velocities v; lookahead is one probe distance or
    one per row.

    The gain is lambda_max * sigma_rho * sigma_dir, with sigma_rho a linear
    ramp of the lookahead density above rho_th and sigma_dir active only when
    moving into the obstacle; exactly zero when rho(x_look) <= rho_th.  Only
    the rows above rho_th probe the gradient.
    """
    (x, v), shape = _rows(x, v)
    out = np.zeros(shape)
    if params.lambda_max == 0.0:
        return out
    probe = params.lookahead if lookahead is None else lookahead
    v_hat = _unit(v, params.epsilon)
    x_look = x + np.broadcast_to(probe, shape[:-1]).reshape(-1, 1) * v_hat
    rho = density_many(scene, x_look)
    act = np.flatnonzero(rho > params.rho_th)
    if len(act) == 0:
        return out
    n_hat = outward_normal(scene, x_look[act], params.epsilon, params.gradient_step)
    sigma_dir = np.minimum(np.maximum(-rowdot(v_hat[act], n_hat), 0.0), 1.0)
    on = sigma_dir != 0.0   # moving along or away from the obstacle: exactly zero
    act, n_hat, sigma_dir = act[on], n_hat[on], sigma_dir[on]
    sigma_rho = np.minimum((rho[act] - params.rho_th) / params.rho_th, 1.0)
    t_hat = tangential_direction(n_hat, v[act], params.epsilon)
    out.reshape(-1, 3)[act] = ((params.lambda_max * sigma_rho * sigma_dir)[:, None]
                               * (n_hat + params.gamma * t_hat))
    return out


def return_to_reference(x, v_err, x_ref, rho_local,
                        params: ObstacleParams) -> np.ndarray:
    """Bounded pull toward the nominal phase-indexed rollout position, per
    (..., 3) row, with rho_local one density or one per row.

    v_err is the velocity difference to the reference; the damping pairing
    2*sqrt(return_gain) keeps the correction critically damped.  The weight
    w = clamp(1 - rho_local/rho_th, 0, 1) disables the pull in high density.
    """
    (x, v_err, x_ref), shape = _rows(x, v_err, x_ref)
    out = np.zeros(shape)
    if params.return_gain == 0.0:
        return out
    w = np.minimum(np.maximum(1.0 - np.broadcast_to(rho_local, shape[:-1]).reshape(-1) / params.rho_th,
                              0.0), 1.0)
    on = np.flatnonzero(w != 0.0)
    a = w[on, None] * (params.return_gain * (x_ref[on] - x[on])
                       - 2.0 * math.sqrt(params.return_gain) * v_err[on])
    mag = np.sqrt(rowdot(a, a))
    over = mag > params.return_cap
    a[over] *= (params.return_cap / mag[over])[:, None]
    out.reshape(-1, 3)[on] = a
    return out


def make_coupling(scene: GaussianScene, params: ObstacleParams, references, dt: float):
    """Build the coupling hook (step, Y, V) -> accelerations for (B, 3) rows
    of positions and velocities, from the rows' cached nominal (uncoupled)
    rollouts: a list of B trajectories, or one that every row shares.

    The references are read only for the return pull, so they may be None
    when return_gain is zero.  Returns None when the coupling is inert
    (lambda_max and return_gain both zero), so the coupled rollout is
    bitwise identical to the plain one.
    """
    if params.lambda_max == 0.0 and params.return_gain == 0.0:
        return None
    if params.return_gain > 0.0:
        shared = isinstance(references, Trajectory)
        ref_pos = references.positions if shared else np.stack([r.positions for r in references])
        ref_vel = np.gradient(ref_pos, (references if shared else references[0]).times, axis=-2)
        last = ref_pos.shape[-2] - 1

    def hook(step, y, v):
        probe = np.maximum(params.lookahead, 3.0 * dt * np.sqrt(rowdot(v, v)))
        a = obstacle_accel(scene, y, v, params, lookahead=probe)
        if params.return_gain > 0.0:
            i = min(step, last)
            a = a + return_to_reference(y, v - ref_vel[..., i, :], ref_pos[..., i, :],
                                        density_many(scene, y), params)
        return a

    return hook
