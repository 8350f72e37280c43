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

from .geometry import Trajectory
from .splats import GaussianScene, density, density_gradient


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


def outward_normal(scene: GaussianScene, x, epsilon: float = 1e-8,
                   gradient_step: float = 1e-3) -> np.ndarray:
    """n_hat = -grad(rho) / (||grad(rho)|| + eps): points away from mass,
    degrades gracefully to ~0 where the gradient vanishes."""
    g = density_gradient(scene, x, gradient_step)
    return -g / (np.linalg.norm(g) + epsilon)


def tangential_direction(n_hat, v, epsilon: float = 1e-8) -> np.ndarray:
    """Unit-or-shorter component of n_hat orthogonal to the motion direction."""
    n_hat = np.asarray(n_hat, dtype=float)
    v = np.asarray(v, dtype=float)
    v_hat = v / (np.linalg.norm(v) + epsilon)
    t = n_hat - np.dot(n_hat, v_hat) * v_hat
    return t / (np.linalg.norm(t) + epsilon)


def obstacle_accel(scene: GaussianScene, x, v, params: ObstacleParams,
                   lookahead: float | None = None) -> np.ndarray:
    """Repulsive acceleration lambda * (n_hat + gamma * t_hat).

    The gain is lambda_max * sigma_rho * sigma_dir, with sigma_rho a linear
    ramp of the lookahead density above rho_th and sigma_dir active only when
    moving into the obstacle; exactly zero when rho(x_look) <= rho_th.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if params.lambda_max == 0.0:
        return np.zeros(3)
    speed = np.linalg.norm(v)
    v_hat = v / (speed + params.epsilon)
    probe = params.lookahead if lookahead is None else lookahead
    x_look = x + probe * v_hat
    rho = density(scene, x_look)
    if rho <= params.rho_th:
        return np.zeros(3)
    sigma_rho = min((rho - params.rho_th) / params.rho_th, 1.0)
    n_hat = outward_normal(scene, x_look, params.epsilon, params.gradient_step)
    sigma_dir = min(max(-float(np.dot(v_hat, n_hat)), 0.0), 1.0)
    if sigma_dir == 0.0:
        return np.zeros(3)
    t_hat = tangential_direction(n_hat, v, params.epsilon)
    return params.lambda_max * sigma_rho * sigma_dir * (n_hat + params.gamma * t_hat)


def return_to_reference(x, v_err, x_ref, rho_local: float,
                        params: ObstacleParams) -> np.ndarray:
    """Bounded pull toward the nominal phase-indexed rollout position.

    v_err is the velocity difference to the reference; the damping pairing
    2*sqrt(return_gain) keeps the correction critically damped.  The weight
    w = clamp(1 - rho_local/rho_th, 0, 1) disables the pull in high density.
    """
    if params.return_gain == 0.0:
        return np.zeros(3)
    w = min(max(1.0 - rho_local / params.rho_th, 0.0), 1.0)
    if w == 0.0:
        return np.zeros(3)
    a = w * (params.return_gain * (np.asarray(x_ref, dtype=float) - np.asarray(x, dtype=float))
             - 2.0 * math.sqrt(params.return_gain) * np.asarray(v_err, dtype=float))
    mag = np.linalg.norm(a)
    if mag > params.return_cap:
        a = a * (params.return_cap / mag)
    return a


def make_coupling(scene: GaussianScene, params: ObstacleParams,
                  reference: Trajectory | None, dt: float):
    """Build a rollout coupling hook from a cached nominal (uncoupled) rollout.

    The reference is read only for the return pull, so it may be None when
    return_gain is zero.  Returns None when the coupling is inert
    (lambda_max and return_gain both zero), so the coupled rollout is
    bitwise identical to the plain one.
    """
    if params.lambda_max == 0.0 and params.return_gain == 0.0:
        return None
    if params.return_gain > 0.0:
        ref_pos = reference.positions
        ref_vel = np.gradient(ref_pos, reference.times, axis=0)
        last = len(ref_pos) - 1

    def hook(step, y, v):
        probe = max(params.lookahead, 3.0 * dt * float(np.linalg.norm(v)))
        a = obstacle_accel(scene, y, v, params, lookahead=probe)
        if params.return_gain > 0.0:
            i = min(step, last)
            rho_local = density(scene, y)
            a = a + return_to_reference(y, v - ref_vel[i], ref_pos[i], rho_local, params)
        return a

    return hook
