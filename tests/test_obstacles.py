import math
from dataclasses import asdict

import numpy as np
import pytest

from splatsynth.dmp import fit_dmp, rollout
from splatsynth.obstacles import (
    ObstacleParams,
    make_coupling,
    obstacle_accel,
    outward_normal,
    return_to_reference,
    tangential_direction,
)
from splatsynth.splats import GaussianBlob, GaussianScene, density

from helpers import line_demo


def blob_scene(mu=(0.2, 0.0, 0.0), sigma=0.05, alpha=1.0):
    return GaussianScene([GaussianBlob(np.array(mu, dtype=float),
                                       sigma ** 2 * np.eye(3), alpha)])


class TestOutwardNormal:
    def test_points_away_from_blob(self):
        scene = blob_scene(mu=(0, 0, 0))
        n = outward_normal(scene, [0.03, 0, 0])
        assert n[0] > 0.99
        assert abs(n[1]) < 1e-6 and abs(n[2]) < 1e-6

    def test_near_zero_where_flat(self):
        scene = blob_scene(mu=(0, 0, 0), sigma=0.01)
        n = outward_normal(scene, [5.0, 0, 0])
        assert np.linalg.norm(n) < 1e-3


class TestTangentialDirection:
    def test_orthogonal_to_velocity(self):
        n = np.array([0.0, 1.0, 0.0])
        v = np.array([1.0, 1.0, 0.0])
        t = tangential_direction(n, v)
        assert abs(np.dot(t, v)) < 1e-6
        assert abs(np.linalg.norm(t) - 1.0) < 1e-6

    def test_degenerate_parallel_bounded(self):
        # when n is parallel to v the tangent is ill defined; the guarded
        # normalization must stay bounded and only point along +/- n
        n = np.array([1.0, 0.0, 0.0])
        v = np.array([2.0, 0.0, 0.0])
        t = tangential_direction(n, v)
        assert np.linalg.norm(t) <= 1.0 + 1e-12
        assert abs(t[1]) < 1e-9 and abs(t[2]) < 1e-9


class TestObstacleAccel:
    def test_zero_below_threshold(self):
        scene = blob_scene(mu=(0.2, 0, 0), sigma=0.02)
        params = ObstacleParams(rho_th=0.1)
        a = obstacle_accel(scene, [1.0, 0, 0], [0.1, 0, 0], params, lookahead=0.0)
        assert np.array_equal(a, np.zeros(3))

    def test_zero_when_moving_away(self):
        scene = blob_scene(mu=(0.0, 0, 0), sigma=0.05)
        params = ObstacleParams(rho_th=0.1)
        # just outside the blob, moving directly outward
        a = obstacle_accel(scene, [0.06, 0, 0], [0.1, 0, 0], params, lookahead=0.0)
        assert np.array_equal(a, np.zeros(3))

    def test_head_on_saturated_magnitude(self):
        # place the query so the density there is exactly 2*rho_th: both
        # ramps saturate, so with gamma=0 the magnitude is lambda_max
        sigma = 0.05
        scene = blob_scene(mu=(0.0, 0, 0), sigma=sigma, alpha=1.0)
        params = ObstacleParams(rho_th=0.1, lambda_max=10.0, gamma=0.0)
        rho_target = 2 * params.rho_th
        r = sigma * math.sqrt(-2 * math.log(rho_target))
        x = np.array([r, 0.0, 0.0])
        v = np.array([-0.2, 0.0, 0.0])
        a = obstacle_accel(scene, x, v, params, lookahead=0.0)
        assert abs(np.linalg.norm(a) - params.lambda_max) < 0.01 * params.lambda_max
        assert a[0] > 0  # pushes back out along +x

    def test_oblique_matches_analytic_formula(self):
        # off-axis approach: recompute lambda*(n + gamma*t) by hand from the
        # known radial gradient direction and compare
        sigma = 0.05
        scene = blob_scene(mu=(0.0, 0, 0), sigma=sigma, alpha=1.0)
        params = ObstacleParams(rho_th=0.05, lambda_max=10.0, gamma=1.0)
        x = np.array([0.06, 0.03, 0.0])
        v = np.array([-0.2, 0.0, 0.0])
        a = obstacle_accel(scene, x, v, params, lookahead=0.0)

        rho = density(scene, x)
        n_hat = x / np.linalg.norm(x)  # isotropic blob: gradient is radial
        v_hat = v / np.linalg.norm(v)
        sigma_rho = min((rho - params.rho_th) / params.rho_th, 1.0)
        sigma_dir = min(max(-float(np.dot(v_hat, n_hat)), 0.0), 1.0)
        t = n_hat - np.dot(n_hat, v_hat) * v_hat
        t_hat = t / np.linalg.norm(t)
        expect = params.lambda_max * sigma_rho * sigma_dir * (n_hat + params.gamma * t_hat)
        assert np.allclose(a, expect, atol=1e-3 * np.linalg.norm(expect))

    def test_zero_gain_exactly_zero(self):
        scene = blob_scene()
        params = ObstacleParams(lambda_max=0.0)
        a = obstacle_accel(scene, [0.2, 0, 0], [1, 0, 0], params)
        assert np.array_equal(a, np.zeros(3))

    def test_continuity_along_approach(self):
        # acceleration magnitude is continuous: the worst step between
        # neighbouring samples must shrink as the sampling is refined
        scene = blob_scene(mu=(0.0, 0, 0), sigma=0.05)
        params = ObstacleParams(rho_th=0.05, lambda_max=5.0)
        v = np.array([-0.2, 0.01, 0.0])

        def max_jump(n):
            xs = np.linspace(0.3, 0.05, n)
            mags = [np.linalg.norm(obstacle_accel(scene, [x, 0.01, 0], v,
                                                  params, lookahead=0.0))
                    for x in xs]
            return np.abs(np.diff(mags)).max()

        coarse = max_jump(200)
        fine = max_jump(1600)
        assert fine < coarse / 4  # a true discontinuity would not shrink

    def test_rows_match_single_points(self):
        # below the threshold, moving away, head-on and oblique rows in one
        # call: each row equals its own call, and the gated rows are +0.0
        scene = blob_scene(mu=(0.0, 0, 0), sigma=0.05)
        params = ObstacleParams(rho_th=0.1, lambda_max=10.0, gamma=1.0)
        x = np.array([[1.0, 0, 0], [-0.06, -0.01, 0.0], [0.06, 0.03, 0.0], [0.05, -0.02, 0.01]])
        v = np.array([[0.1, 0, 0], [-0.1, 0.0, 0.0], [-0.2, 0.0, 0.0], [-0.1, 0.05, 0.0]])
        a = obstacle_accel(scene, x, v, params, lookahead=[0.0, 0.0, 0.01, 0.0])
        for row, xi, vi, probe in zip(a, x, v, [0.0, 0.0, 0.01, 0.0]):
            assert np.array_equal(row, obstacle_accel(scene, xi, vi, params, lookahead=probe))
        assert np.all(a[:2] == 0.0) and not np.signbit(a[:2]).any()
        assert np.all(np.linalg.norm(a[2:], axis=1) > 1.0)

    def test_validates_params(self):
        with pytest.raises(ValueError):
            ObstacleParams(rho_th=0.0)
        with pytest.raises(ValueError):
            ObstacleParams(lambda_max=-1.0)

    def test_params_dict_roundtrip(self):
        p = ObstacleParams(rho_th=0.2, lambda_max=3.0, gamma=0.5,
                           return_gain=2.0)
        assert ObstacleParams(**asdict(p)) == p


class TestReturnToReference:
    def test_zero_gain(self):
        p = ObstacleParams(return_gain=0.0)
        a = return_to_reference([1, 0, 0], [0, 0, 0], [0, 0, 0], 0.0, p)
        assert np.array_equal(a, np.zeros(3))

    def test_plugin_value(self):
        # gain 10, offset 0.1 along x, zero velocity error, zero density:
        # uncapped pull is 1.0 m/s^2 along -x
        p = ObstacleParams(return_gain=10.0, return_cap=5.0, rho_th=0.1)
        a = return_to_reference([0.1, 0, 0], [0, 0, 0], [0, 0, 0], 0.0, p)
        assert np.allclose(a, [-1.0, 0, 0])

    def test_cap_applied(self):
        p = ObstacleParams(return_gain=100.0, return_cap=5.0, rho_th=0.1)
        a = return_to_reference([1.0, 0, 0], [0, 0, 0], [0, 0, 0], 0.0, p)
        assert abs(np.linalg.norm(a) - 5.0) < 1e-9

    def test_disabled_in_high_density(self):
        p = ObstacleParams(return_gain=10.0, rho_th=0.1)
        a = return_to_reference([0.1, 0, 0], [0, 0, 0], [0, 0, 0], 0.2, p)
        assert np.array_equal(a, np.zeros(3))

    def test_damping_opposes_velocity_error(self):
        p = ObstacleParams(return_gain=4.0, rho_th=0.1)
        a = return_to_reference([0, 0, 0], [0.5, 0, 0], [0, 0, 0], 0.0, p)
        # -2*sqrt(4)*0.5 = -2.0
        assert np.allclose(a, [-2.0, 0, 0])

    def test_rows_match_single_points(self):
        # a high-density row (pull off: +0.0), a capped row and a free row
        p = ObstacleParams(return_gain=100.0, return_cap=5.0, rho_th=0.1)
        x = np.array([[0.1, 0.0, 0.0], [1.0, 0.0, 0.0], [0.01, -0.02, 0.0]])
        v_err = np.array([[0.3, 0.0, 0.0], [0.0, 0.0, 0.0], [0.05, 0.0, 0.1]])
        rho = np.array([0.2, 0.0, 0.05])
        a = return_to_reference(x, v_err, np.zeros(3), rho, p)
        for row, xi, vi, r in zip(a, x, v_err, rho):
            assert np.array_equal(row, return_to_reference(xi, vi, np.zeros(3), r, p))
        assert np.all(a[0] == 0.0) and not np.signbit(a[0]).any()
        assert abs(np.linalg.norm(a[1]) - 5.0) < 1e-9

    def test_zero_at_reference(self):
        p = ObstacleParams(return_gain=10.0, rho_th=0.1)
        a = return_to_reference([0.3, 0.1, 0], [0, 0, 0], [0.3, 0.1, 0], 0.0, p)
        assert np.linalg.norm(a) < 1e-12


class TestMakeCoupling:
    def demo_and_model(self):
        demo = line_demo([0, 0, 0], [0.4, 0, 0], n=151)
        return demo, fit_dmp(demo)

    def test_inert_coupling_is_none(self):
        demo, model = self.demo_and_model()
        nominal = rollout(model, dt=0.01)
        scene = blob_scene()
        params = ObstacleParams(lambda_max=0.0, return_gain=0.0)
        assert make_coupling(scene, params, nominal, 0.01) is None

    def test_inert_coupling_bitwise_identical(self):
        demo, model = self.demo_and_model()
        nominal = rollout(model, dt=0.01)
        scene = blob_scene()
        params = ObstacleParams(lambda_max=0.0, return_gain=0.0)
        hook = make_coupling(scene, params, nominal, 0.01)
        out = rollout(model, dt=0.01, coupling=hook)
        assert np.array_equal(out.positions, nominal.positions)
        assert np.array_equal(out.quaternions, nominal.quaternions)

    def test_coupled_rollout_avoids_blob(self):
        demo, model = self.demo_and_model()
        dt = 0.005
        nominal = rollout(model, dt=dt)
        scene = blob_scene(mu=(0.2, 0.004, 0.0), sigma=0.02)
        params = ObstacleParams(rho_th=0.05, lambda_max=40.0, gamma=1.0,
                                lookahead=0.03, return_gain=4.0)
        hook = make_coupling(scene, params, nominal, dt)
        out = rollout(model, dt=dt, coupling=hook)
        rho_nom = max(density(scene, x) for x in nominal.positions)
        rho_avd = max(density(scene, x) for x in out.positions)
        assert rho_nom > 0.5          # nominal path goes through the blob
        assert rho_avd < rho_nom / 2  # coupled path keeps clear
        # still reaches the goal
        assert np.linalg.norm(out.positions[-1] - model.goal) < 5e-3

    def test_deflection_monotone_with_threshold(self):
        # a lower density threshold triggers earlier and pushes harder, so
        # the peak lateral deflection should not decrease as rho_th drops
        demo, model = self.demo_and_model()
        dt = 0.005
        nominal = rollout(model, dt=dt)
        scene = blob_scene(mu=(0.2, 0.004, 0.0), sigma=0.02)
        defl = []
        for rho_th in (0.4, 0.2, 0.1, 0.05):
            params = ObstacleParams(rho_th=rho_th, lambda_max=40.0,
                                    lookahead=0.03, return_gain=4.0)
            hook = make_coupling(scene, params, nominal, dt)
            out = rollout(model, dt=dt, coupling=hook)
            defl.append(np.abs(out.positions[:, 1]).max())
        assert all(b >= a - 1e-6 for a, b in zip(defl, defl[1:]))

    def test_return_pull_drags_toward_reference(self):
        # no obstacle force; give the hook a reference path offset in +y and
        # check the rollout is pulled toward it, more so at higher gain
        from splatsynth.geometry import Trajectory
        demo, model = self.demo_and_model()
        dt = 0.005
        nominal = rollout(model, dt=dt)
        offset = np.array([0.0, 0.01, 0.0])
        shifted = Trajectory(nominal.times, nominal.positions + offset,
                             nominal.quaternions, nominal.gripper)
        scene = blob_scene(mu=(10.0, 10.0, 10.0), sigma=0.01)  # far away
        mean_y = []
        for gain in (0.0, 50.0, 400.0):
            hook = make_coupling(scene, ObstacleParams(
                lambda_max=0.0, return_gain=gain, return_cap=50.0), shifted, dt)
            out = rollout(model, dt=dt, coupling=hook)
            mean_y.append(out.positions[:, 1].mean())
        assert mean_y[0] == pytest.approx(0.0, abs=1e-9)
        assert mean_y[1] > 1e-4
        assert mean_y[2] > mean_y[1]
        assert mean_y[2] < offset[1] + 1e-6
