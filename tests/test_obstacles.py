import dataclasses
import functools
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splatsynth.dmp as dmp
import splatsynth.obstacles as obstacles
import splatsynth.splats as splats
from splatsynth.dmp import _integrate, fit_dmp, rollout, rollout_batch
from splatsynth.geometry import Pose
from splatsynth.obstacles import (
    ObstacleParams,
    make_coupling,
    obstacle_accel,
    outward_normal,
    return_to_reference,
    tangential_direction,
)
from splatsynth.splats import GaussianBlob, GaussianScene, density, density_many

from helpers import letter_a_demo, line_demo


def blob_scene(mu=(0.2, 0.0, 0.0), sigma=0.05, alpha=1.0):
    return GaussianScene([GaussianBlob(np.array(mu, dtype=float),
                                       sigma ** 2 * np.eye(3), alpha)])


def accel_at(scene, x, v, params):
    """obstacle_accel of one point x moving at v, probed at x itself."""
    x_look = np.array([x], dtype=float)
    return obstacle_accel(scene, x_look, np.array([v], dtype=float), density_many(scene, x_look), params)[0]


def pull_at(x, v_err, x_ref, rho, params):
    """return_to_reference of one point."""
    rows = (np.array([r], dtype=float) for r in (x, v_err, x_ref, rho))
    return return_to_reference(*rows, params)[0]


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
        a = accel_at(scene, [1.0, 0, 0], [0.1, 0, 0], params)
        assert np.array_equal(a, np.zeros(3))

    def test_zero_when_moving_away(self):
        scene = blob_scene(mu=(0.0, 0, 0), sigma=0.05)
        params = ObstacleParams(rho_th=0.1)
        # just outside the blob, moving directly outward
        a = accel_at(scene, [0.06, 0, 0], [0.1, 0, 0], params)
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
        a = accel_at(scene, x, v, params)
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
        a = accel_at(scene, x, v, params)

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
        a = accel_at(scene, [0.2, 0, 0], [1, 0, 0], params)
        assert np.array_equal(a, np.zeros(3))

    def test_continuity_along_approach(self):
        # acceleration magnitude is continuous: the worst step between
        # neighbouring samples must shrink as the sampling is refined
        scene = blob_scene(mu=(0.0, 0, 0), sigma=0.05)
        params = ObstacleParams(rho_th=0.05, lambda_max=5.0)
        v = np.array([-0.2, 0.01, 0.0])

        def max_jump(n):
            xs = np.linspace(0.3, 0.05, n)
            mags = [np.linalg.norm(accel_at(scene, [x, 0.01, 0], v, params)) for x in xs]
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
        x_look = x + np.array([0.0, 0.0, 0.01, 0.0])[:, None] * v / np.linalg.norm(v, axis=1)[:, None]
        rho = density_many(scene, x_look)
        a = obstacle_accel(scene, x_look, v, rho, params)
        for i, row in enumerate(a):
            assert np.array_equal(row, obstacle_accel(scene, x_look[i:i + 1], v[i:i + 1], rho[i:i + 1], params)[0])
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
        a = pull_at([1, 0, 0], [0, 0, 0], [0, 0, 0], 0.0, p)
        assert np.array_equal(a, np.zeros(3))

    def test_plugin_value(self):
        # gain 10, offset 0.1 along x, zero velocity error, zero density:
        # uncapped pull is 1.0 m/s^2 along -x
        p = ObstacleParams(return_gain=10.0, return_cap=5.0, rho_th=0.1)
        a = pull_at([0.1, 0, 0], [0, 0, 0], [0, 0, 0], 0.0, p)
        assert np.allclose(a, [-1.0, 0, 0])

    def test_cap_applied(self):
        p = ObstacleParams(return_gain=100.0, return_cap=5.0, rho_th=0.1)
        a = pull_at([1.0, 0, 0], [0, 0, 0], [0, 0, 0], 0.0, p)
        assert abs(np.linalg.norm(a) - 5.0) < 1e-9

    def test_disabled_in_high_density(self):
        p = ObstacleParams(return_gain=10.0, rho_th=0.1)
        a = pull_at([0.1, 0, 0], [0, 0, 0], [0, 0, 0], 0.2, p)
        assert np.array_equal(a, np.zeros(3))

    def test_damping_opposes_velocity_error(self):
        p = ObstacleParams(return_gain=4.0, rho_th=0.1)
        a = pull_at([0, 0, 0], [0.5, 0, 0], [0, 0, 0], 0.0, p)
        # -2*sqrt(4)*0.5 = -2.0
        assert np.allclose(a, [-2.0, 0, 0])

    def test_rows_match_single_points(self):
        # a high-density row (pull off: +0.0), a capped row and a free row
        p = ObstacleParams(return_gain=100.0, return_cap=5.0, rho_th=0.1)
        x = np.array([[0.1, 0.0, 0.0], [1.0, 0.0, 0.0], [0.01, -0.02, 0.0]])
        v_err = np.array([[0.3, 0.0, 0.0], [0.0, 0.0, 0.0], [0.05, 0.0, 0.1]])
        rho = np.array([0.2, 0.0, 0.05])
        a = return_to_reference(x, v_err, np.zeros((3, 3)), rho, p)
        for row, xi, vi, r in zip(a, x, v_err, rho):
            assert np.array_equal(row, pull_at(xi, vi, np.zeros(3), r, p))
        assert np.all(a[0] == 0.0) and not np.signbit(a[0]).any()
        assert abs(np.linalg.norm(a[1]) - 5.0) < 1e-9

    def test_cap_holds_where_the_pull_overflows(self):
        # gain 1e100, its bound: an offset of 1e97 m pulls at 1e197 m/s^2, whose square overflows, and
        # one of 1e210 m overflows the pull's own terms; each is scaled to the cap along -x, never to 0 or NaN
        p = ObstacleParams(return_gain=1e100, return_cap=5.0, rho_th=0.1)
        x = np.array([[1e97, 0.0, 0.0], [1e210, 0.0, 0.0], [1e97, 2e97, 0.0]])
        v_err = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1e-3, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = return_to_reference(x, v_err, np.zeros((3, 3)), np.zeros(3), p)
        assert np.all(np.isfinite(a))
        assert np.linalg.norm(a, axis=1) == pytest.approx([5.0, 5.0, 5.0], rel=1e-12)
        assert a[:2, 0].tolist() == [-5.0, -5.0] and a[:2, 1:].tolist() == [[0.0, 0.0]] * 2
        assert a[2] == pytest.approx(-5.0 * np.array([1.0, 2.0, 0.0]) / math.sqrt(5.0), rel=1e-12)

    def test_rows_that_do_not_overflow_keep_their_bits(self):
        # the cap scales an over-long pull by return_cap / |a| whatever the other rows hold
        p = ObstacleParams(return_gain=1e100, return_cap=5.0, rho_th=0.1)
        x = np.array([[1e47, 0.0, 0.0], [1e-110, -3e-111, 0.0], [1e60, 0.0, 1e50], [0.0, 0.0, 0.0]])
        v_err = np.array([[0.0, 0.0, 0.0], [1e-65, 0.0, 2e-65], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        a = return_to_reference(x, v_err, np.zeros((4, 3)), np.zeros(4), p)
        for i in (0, 1, 3):
            want = 1.0 * (p.return_gain * (0.0 - x[i]) - 2.0 * math.sqrt(p.return_gain) * v_err[i])
            mag = math.sqrt(float(np.dot(want, want)))
            if mag > p.return_cap:
                want = want * (p.return_cap / mag)
            assert a[i].tobytes() == want.tobytes()
            assert np.array_equal(a[i], pull_at(x[i], v_err[i], np.zeros(3), 0.0, p))
        assert np.linalg.norm(a[[0, 2]], axis=1) == pytest.approx([5.0, 5.0], rel=1e-12)
        assert np.linalg.norm(a[1]) < 5.0 and not a[3].any()

    def test_zero_at_reference(self):
        p = ObstacleParams(return_gain=10.0, rho_th=0.1)
        a = pull_at([0.3, 0.1, 0], [0, 0, 0], [0.3, 0.1, 0], 0.0, p)
        assert np.linalg.norm(a) < 1e-12


class TestMakeCoupling:
    def demo_and_model(self):
        demo = line_demo([0, 0, 0], [0.4, 0, 0], n=151)
        return demo, fit_dmp(demo)

    @staticmethod
    def start(model, offset=0.0):
        return Pose(model.y0 + offset, model.q0)

    @staticmethod
    def goal(model, offset=0.0):
        return Pose(model.goal + offset, model.q_goal)

    def test_inert_coupling_is_none(self):
        scene = blob_scene()
        params = ObstacleParams(lambda_max=0.0, return_gain=0.0)
        assert make_coupling(scene, params, 0.01) is None

    def test_inert_coupling_bitwise_identical(self):
        demo, model = self.demo_and_model()
        nominal = rollout(model, dt=0.01)
        scene = blob_scene()
        params = ObstacleParams(lambda_max=0.0, return_gain=0.0)
        hook = make_coupling(scene, params, 0.01)
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
        hook = make_coupling(scene, params, dt)
        (out,) = rollout_batch(model, [self.start(model)], [self.goal(model)], dt, hook)
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
        scene = blob_scene(mu=(0.2, 0.004, 0.0), sigma=0.02)
        defl = []
        for rho_th in (0.4, 0.2, 0.1, 0.05):
            params = ObstacleParams(rho_th=rho_th, lambda_max=40.0,
                                    lookahead=0.03, return_gain=4.0)
            hook = make_coupling(scene, params, dt)
            (out,) = rollout_batch(model, [self.start(model)], [self.goal(model)], dt, hook)
            defl.append(np.abs(out.positions[:, 1]).max())
        assert all(b >= a - 1e-6 for a, b in zip(defl, defl[1:]))

    def test_return_pull_drags_toward_reference(self):
        # no obstacle force; an unpaired _integrate pass hands the hook a nominal row that starts and
        # ends offset in +y, so its path is the coupled row's shifted by the offset: the coupled row
        # is pulled toward it, more so at higher gain
        demo, model = self.demo_and_model()
        dt = 0.005
        offset = np.array([0.0, 0.01, 0.0])
        scene = blob_scene(mu=(10.0, 10.0, 10.0), sigma=0.01)  # far away
        rows = pose_rows([self.start(model, offset), self.start(model)], [self.goal(model, offset), self.goal(model)])
        mean_y = []
        for gain in (0.0, 50.0, 400.0):
            hook = make_coupling(scene, ObstacleParams(lambda_max=0.0, return_gain=gain, return_cap=50.0), dt)
            _, (nominal, out), _, failed = _integrate(model, *rows, dt, hook, paired=False)
            assert failed.tolist() == [-1, -1]
            assert np.allclose(nominal, rollout(model, dt=dt).positions + offset, rtol=0, atol=1e-12)
            mean_y.append(out[:, 1].mean())
        assert mean_y[0] == pytest.approx(0.0, abs=1e-9)
        assert mean_y[1] > 1e-4
        assert mean_y[2] > mean_y[1]
        assert mean_y[2] < offset[1] + 1e-6

    def test_pull_without_a_splat_in_reach_leaves_the_nominal(self):
        # every rollout the repulsion never moves is bit-equal to its nominal, pull on or off
        model = fit_dmp(line_demo([0, 0, 0], [0.4, 0, 0], n=151))
        rng = np.random.default_rng(5)
        starts = [Pose(rng.normal(0.0, 0.01, 3), [1.0, 0, 0, 0]) for _ in range(4)]
        goals = [Pose([0.4, 0, 0] + rng.normal(0.0, 0.02, 3), [1.0, 0, 0, 0]) for _ in range(4)]
        nominals = rollout_batch(model, starts, goals, dt=0.01)
        for gain in (4.0, 100.0):
            params = ObstacleParams(rho_th=0.005, lambda_max=100.0, lookahead=0.015, return_gain=gain)
            hook = make_coupling(blob_scene(mu=(100.0, 0.0, 0.0), sigma=0.02), params, 0.01)
            outs = rollout_batch(model, starts, goals, 0.01, hook)
            for out, nominal in zip(outs, nominals):
                assert out.positions.tobytes() == nominal.positions.tobytes()
                assert out.quaternions.tobytes() == nominal.quaternions.tobytes()

    @pytest.mark.parametrize("lambda_max", [0.0, 100.0])
    def test_pull_refuses_unpaired_rows(self, lambda_max):
        # with the pull on, the hook reads its rows in pairs, nominal then rollout. rollout and
        # rollout_batch pair them, as hook.paired asks; a plain function wrapping the hook hides that
        # attribute, so its rows come unpaired, and an odd count is an error
        demo, model = self.demo_and_model()
        params = ObstacleParams(rho_th=0.005, lambda_max=lambda_max, lookahead=0.015, return_gain=4.0)
        hook = make_coupling(blob_scene(), params, 0.01)
        assert hook.paired
        if lambda_max > 0.0:   # the repulsion alone reads no nominal
            assert not make_coupling(blob_scene(), dataclasses.replace(params, return_gain=0.0), 0.01).paired
        rollout(model, dt=0.01, coupling=hook)
        rollout_batch(model, [self.start(model)] * 3, [self.goal(model)] * 3, 0.01, hook)

        def wrapped(step, y, v):
            return hook(step, y, v)
        for n in (1, 3):
            with pytest.raises(ValueError, match=f"reads rows in pairs, nominal then rollout; got {n} rows"):
                rollout_batch(model, [self.start(model)] * n, [self.goal(model)] * n, 0.01, wrapped)

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_row_of_a_paired_batch_is_its_own_rollout(self, n):
        # rollout_batch pairs every row with its own nominal: each rollout's bits are those of its one-row
        # rollout with a fresh hook, and every nominal path here crosses the blob, so no rollout is the
        # free one
        demo, model = self.demo_and_model()
        scene = blob_scene(mu=(0.2, 0.004, 0.0), sigma=0.02)
        params = ObstacleParams(rho_th=0.005, lambda_max=100.0, gamma=2.0, lookahead=0.015, return_gain=4.0)
        starts = [self.start(model)] * n
        goals = [self.goal(model, [0.0, dy, 0.0]) for dy in np.linspace(-0.003, 0.003, n)]
        outs = rollout_batch(model, starts, goals, 0.01, make_coupling(scene, params, 0.01))
        for out, start, goal, free in zip(outs, starts, goals, rollout_batch(model, starts, goals, 0.01)):
            assert density_many(scene, free.positions).max() > 0.5
            assert not np.array_equal(out.positions, free.positions)
            alone = rollout(model, start, goal, 0.01, make_coupling(scene, params, 0.01))
            for name in ("times", "positions", "quaternions"):
                assert getattr(out, name).tobytes() == getattr(alone, name).tobytes(), name


def probe_rho(scene, params, dt, y, v):
    """rho at the hook's lookahead probes y + max(lookahead, 3 dt |v|) v / (|v| + epsilon)
    of (..., 3) positions y and velocities v, the formula written out."""
    speed = np.linalg.norm(v, axis=-1)
    reach = np.maximum(params.lookahead, 3.0 * dt * speed)
    return density_many(scene, y + (reach / (speed + params.epsilon))[..., None] * v)


def free_states(model, rows, dt, horizon_factor=1.25):
    """The (R, n, 3) positions and velocities, in m/s, that a hook gets at
    each step of a free _integrate run of rows: a plain function returning
    zeros is called on every step, and changes no bit."""
    seen = []

    def record(step, y, v):
        seen.append((y, v.copy()))
        return np.zeros_like(y)
    _integrate(model, *rows, dt, record, horizon_factor)
    return tuple(np.stack(a, axis=1) for a in zip(*seen))


def first_hot_step(scene, params, dt, y, v):
    """The first step at which some row's probe reads above rho_th, or None."""
    hot = np.flatnonzero((probe_rho(scene, params, dt, y, v) > params.rho_th).any(axis=0))
    return int(hot[0]) if len(hot) else None


def pose_rows(starts, goals):
    """_integrate's (B, 3) and (B, 4) rows of start and goal Poses."""
    return tuple(np.array([getattr(pose, k) for pose in poses], dtype=float)
                 for poses in (starts, goals) for k in ("position", "orientation"))


TERMS = [(40.0, 4.0, 2),   # probes and positions
         (40.0, 0.0, 1),   # probes only
         (0.0, 4.0, 1)]    # positions only


class TestHookDensityQueries:
    @pytest.mark.parametrize("lambda_max, return_gain, per_row", TERMS)
    def test_one_query_per_step(self, monkeypatch, lambda_max, return_gain, per_row):
        """Each step that calls the hook on a B-row batch sends the rows its
        active terms read to the hook's neighbour list: B probes and/or B
        positions.  The hook is called from the first step whose probes read
        above rho_th on, never with the repulsion off.  A step that rebuilds
        the list makes one _neighbors call, whose radius is the skin plus the
        gradient step when the repulsion is on; a step whose rows all stayed
        within the skin of where the list was built makes none.  The
        repulsion's gradient probes are read from the same list and make no
        _neighbors call."""
        self.check(monkeypatch, lambda_max, return_gain, per_row, wrapped=False)

    @pytest.mark.parametrize("lambda_max, return_gain, per_row", TERMS)
    def test_a_wrapped_hook_reads_on_every_step(self, monkeypatch, lambda_max, return_gain, per_row):
        """A plain function wrapping the hook hides its rule: the hook is
        called, and reads, on every step."""
        self.check(monkeypatch, lambda_max, return_gain, per_row, wrapped=True)

    @staticmethod
    def check(monkeypatch, lambda_max, return_gain, per_row, wrapped):
        model = fit_dmp(line_demo([0, 0, 0], [0.4, 0, 0], n=151))
        starts = [Pose([0.0, dy, 0.0], [1.0, 0, 0, 0]) for dy in (-0.004, 0.0, 0.004)]
        goals = [Pose([0.4, dy, 0.0], [1.0, 0, 0, 0]) for dy in (-0.004, 0.0, 0.004)]
        nominals = rollout_batch(model, starts, goals, dt=0.01)
        params = ObstacleParams(rho_th=0.05, lambda_max=lambda_max, lookahead=0.03, return_gain=return_gain)
        scene = blob_scene(mu=(0.2, 0.004, 0.0), sigma=0.02)
        hook = make_coupling(scene, params, 0.01)
        coupling = hook
        if wrapped:
            def coupling(step, y, v):
                return hook(step, y, v)
            coupling.paired = hook.paired
        n_steps = len(nominals[0]) - 1
        first = first_hot_step(scene, params, 0.01, *free_states(model, pose_rows(starts, goals), 0.01))
        first = 0 if wrapped else n_steps if lambda_max == 0.0 else first
        assert 0 < first < n_steps or wrapped or lambda_max == 0.0
        queries, steps = [], []   # steps: (rows' shape, _neighbors calls, rows within the skin)
        probes = []   # per gradient step: (_neighbors calls, rows probed)
        neighbors, density, probe_density = splats._neighbors, splats._NeighborList.density, \
            splats._NeighborList.probe_density

        def counted(*args, **kwargs):
            queries.append(args[2])
            return neighbors(*args, **kwargs)

        def listed(self, xs):
            inside = self.origin is not None and len(xs) == len(self.origin) and \
                np.linalg.norm(xs - self.origin, axis=1).max() <= self.skin
            before = len(queries)
            rho = density(self, xs)
            steps.append((xs.shape, len(queries) - before, inside))
            return rho

        def probed(self, rows, xs):
            before = len(queries)
            rho = probe_density(self, rows, xs)
            probes.append((len(queries) - before, len(rows)))
            return rho
        monkeypatch.setattr(splats, "_neighbors", counted)
        monkeypatch.setattr(splats._NeighborList, "density", listed)
        monkeypatch.setattr(splats._NeighborList, "probe_density", probed)
        outs = rollout_batch(model, starts, goals, 0.01, coupling)
        moved = [not np.array_equal(o.positions, n.positions) for o, n in zip(outs, nominals)]
        assert moved == [lambda_max > 0.0] * len(outs)   # the pull alone never leaves the nominal
        assert [shape for shape, _, _ in steps] == [(per_row * len(starts), 3)] * (n_steps - first)
        assert [calls for _, calls, _ in steps] == [int(not inside) for _, _, inside in steps]
        if steps:
            assert 0 < hook.neighbors.rebuilds < len(steps)   # both kinds of step ran
        else:
            assert hook.neighbors.rebuilds == 0
        # only the rebuilds query the scene, each at the skin plus the gradient step; the rule reads
        # each chunk of the look-ahead with one density_many call, with no skin
        reach = splats._SKIN + (params.gradient_step if lambda_max > 0.0 else 0.0)
        assert [r for r in queries if r != 0.0] == [reach] * hook.neighbors.rebuilds
        chunks = 0 if wrapped or lambda_max == 0.0 else first // dmp._QUIET_CHUNK + 1
        assert queries.count(0.0) == chunks
        assert [calls for calls, _ in probes] == [0] * len(probes)
        assert hook.neighbors.probed == 6 * sum(n for _, n in probes)
        assert (len(probes) > 0) == (lambda_max > 0.0)   # the repulsion's probes were answered from the list


def cluttered_line_scene(seed=3):
    """40 blobs of 5 to 25 mm within 3 cm of the line demo's path."""
    rng = np.random.default_rng(seed)
    means = np.column_stack([rng.uniform(0.05, 0.35, 40), rng.uniform(-0.03, 0.03, (40, 2))])
    return GaussianScene([GaussianBlob(m, s ** 2 * np.eye(3), a)
                          for m, s, a in zip(means, rng.uniform(0.005, 0.025, 40), rng.uniform(0.2, 1.0, 40))])


class TestHookNeighborList:
    """The hook reads density_many's bits from its neighbour list at every
    step, however often the list is rebuilt."""

    def batch(self, n=4):
        model = fit_dmp(line_demo([0, 0, 0], [0.4, 0, 0], n=151))
        dys = np.linspace(-0.01, 0.01, n)
        starts = [Pose([0.0, dy, 0.0], [1.0, 0, 0, 0]) for dy in dys]
        goals = [Pose([0.4, dy, 0.002], [1.0, 0, 0, 0]) for dy in dys]
        nominals = rollout_batch(model, starts, goals, dt=0.01)
        params = ObstacleParams(rho_th=0.05, lambda_max=40.0, lookahead=0.03, return_gain=4.0)
        return model, starts, goals, nominals, params

    def test_every_read_is_density_many(self, monkeypatch):
        # each hook serves several rollout_batch calls: the repulsion's alone serves three rows, then
        # four, and both terms' serves the same four rows twice, jumping back to their starts
        model, starts, goals, nominals, params = self.batch()
        scene = cluttered_line_scene()
        density = splats._NeighborList.density
        reads = []

        def checked(self, xs):
            rho = density(self, xs)
            assert rho.tobytes() == density_many(self.scene, xs).tobytes()
            reads.append(np.count_nonzero(rho))
            return rho
        monkeypatch.setattr(splats._NeighborList, "density", checked)
        repel = dataclasses.replace(params, return_gain=0.0)
        for terms, rows in ((repel, [3, 4]), (params, [4, 4])):
            hook = make_coupling(scene, terms, 0.01)
            for n in rows:
                got = rollout_batch(model, starts[:n], goals[:n], 0.01, hook)
                want = rollout_batch(model, starts[:n], goals[:n], 0.01, make_coupling(scene, terms, 0.01))
                assert [g.positions.tobytes() for g in got] == [w.positions.tobytes() for w in want]
        assert sum(reads) > len(reads)   # the rows read density at many steps

    def test_rebuilding_every_step_gives_the_same_rollouts(self, monkeypatch):
        model, starts, goals, nominals, params = self.batch()
        scene = cluttered_line_scene()
        listed = make_coupling(scene, params, 0.01)
        want = rollout_batch(model, starts, goals, 0.01, listed)
        monkeypatch.setattr(splats, "_SKIN", 0.0)
        every = make_coupling(scene, params, 0.01)
        got = rollout_batch(model, starts, goals, 0.01, every)
        steps = len(want[0]) - 1
        assert every.neighbors.rebuilds > 0.9 * steps > 2 * listed.neighbors.rebuilds
        assert not any(np.array_equal(w.positions, n.positions) for w, n in zip(want, nominals))
        for g, w in zip(got, want):
            assert g.positions.tobytes() == w.positions.tobytes()
            assert g.quaternions.tobytes() == w.quaternions.tobytes()

    def test_step_past_the_skin_reads_as_a_listed_step(self, monkeypatch):
        # a 5 cm gradient step lies past the 3 cm skin: that hook's list does not hold it, and its
        # probes go to density_many; with the skin raised above the step, the list answers them
        model, starts, goals, nominals, params = self.batch()
        scene = cluttered_line_scene()
        params = dataclasses.replace(params, gradient_step=0.05)
        plain = make_coupling(scene, params, 0.01)
        want = rollout_batch(model, starts, goals, 0.01, plain)
        monkeypatch.setattr(splats, "_SKIN", 0.06)
        listed = make_coupling(scene, params, 0.01)
        got = rollout_batch(model, starts, goals, 0.01, listed)
        assert (plain.neighbors.probe_step, plain.neighbors.probed) == (0.0, 0)
        assert listed.neighbors.probe_step == 0.05 and listed.neighbors.probed > 0
        assert not any(np.array_equal(w.positions, n.positions) for w, n in zip(want, nominals))
        for g, w in zip(got, want):
            assert g.positions.tobytes() == w.positions.tobytes()
            assert g.quaternions.tobytes() == w.quaternions.tobytes()

    def test_gradient_read_goes_through_the_module_binding(self, monkeypatch):
        # a tracer wraps obstacles.density_gradient to see the hook's gradient reads: the hook
        # must reach its list through that binding, not around it
        model, starts, goals, nominals, params = self.batch()
        hook = make_coupling(cluttered_line_scene(), params, 0.01)
        gradient = obstacles.density_gradient
        reads = []

        def spy(scene, x, h, _listed=None):
            reads.append(_listed)
            return gradient(scene, x, h, _listed)
        monkeypatch.setattr(obstacles, "density_gradient", spy)
        rollout_batch(model, starts, goals, 0.01, hook)
        assert reads and all(r is not None and r[0] is hook.neighbors for r in reads)
        assert hook.neighbors.probed == 6 * sum(len(r[1]) for r in reads)


def always_pull(scene, params, dt, y, v):
    """The hook's rows as they read when the return pull runs on every step:
    zeros for the nominals [0, b), and for rows [b, 2b) the repulsion (from a
    hook with the pull off) plus return_to_reference at the positions'
    density_many."""
    b = len(y) // 2
    repel = make_coupling(scene, dataclasses.replace(params, return_gain=0.0), dt)
    a = np.zeros((b, 3)) if repel is None else repel(0, y[b:].copy(), v[b:].copy())
    pull = return_to_reference(y[b:], v[b:] - v[:b], y[:b], density_many(scene, y[b:]), params)
    return np.concatenate([np.zeros((b, 3)), a + pull])


def coordinate():
    return st.one_of(st.just(0.0), st.floats(-0.03, 0.03))


class TestHookPullSkip:
    """On a step where every coupled row sits on its nominal, the hook adds
    +0.0 instead of running the return pull; its bits are those of the pull
    run on every step."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bits_equal_always_pull(self, data):
        b = data.draw(st.integers(1, 5))
        params = ObstacleParams(rho_th=0.05, lambda_max=data.draw(st.sampled_from([0.0, 40.0])), lookahead=0.03,
                                return_gain=4.0, return_cap=data.draw(st.sampled_from([5.0, 0.05])))
        point = st.tuples(st.floats(0.08, 0.32), coordinate(), coordinate())
        speed = st.tuples(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), coordinate(), coordinate())
        y_ref = np.array(data.draw(st.lists(point, min_size=b, max_size=b)))
        v_ref = np.array(data.draw(st.lists(speed, min_size=b, max_size=b)))
        y_ref[:, 2], v_ref[:, 2] = 0.0, 0.0   # a zero on every row, for its sign to differ
        y, v = y_ref.copy(), v_ref.copy()
        # a row on its nominal, off it, on it but for the sign of a zero, or NaN in its nominal too or alone;
        # every row on, on but for signs, on or NaN in both, or any mix
        signs = ["on", "+0 below -0", "-0 below +0"]
        modes = data.draw(st.sampled_from([["on"], signs, signs, ["on", "nan in both"],
                                           signs + ["off", "nan in both", "nan"]]))
        for r in range(b):
            mode = data.draw(st.sampled_from(modes))
            which = y if data.draw(st.booleans()) else v
            ref = y_ref if which is y else v_ref
            if mode == "off":
                which[r, data.draw(st.integers(0, 2))] += data.draw(st.sampled_from([1e-3, -1e-12]))
            elif mode == "+0 below -0":
                ref[r, 2] = -0.0
            elif mode == "-0 below +0":
                which[r, 2] = -0.0
            elif mode == "nan in both":
                which[r, 1] = ref[r, 1] = np.nan
            elif mode == "nan":
                which[r, 0] = np.nan
        negative_zeros = data.draw(st.booleans())
        scene = blob_scene(mu=(0.2, 0.004, 0.0), sigma=0.02)
        Y, V = np.concatenate([y_ref, y]), np.concatenate([v_ref, v])
        pulls = []
        accel, pull = obstacles.obstacle_accel, obstacles.return_to_reference

        def signed(*args):   # the repulsion with every zero component made -0.0
            a = accel(*args)
            return np.where(a == 0.0, -0.0, a) if negative_zeros else a

        def counted(*args):
            pulls.append(len(args[0]))
            return pull(*args)
        with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
            mp.setattr(obstacles, "obstacle_accel", signed)
            want = always_pull(scene, params, 0.01, Y, V)
            mp.setattr(obstacles, "return_to_reference", counted)
            got = make_coupling(scene, params, 0.01)(0, Y.copy(), V.copy())
        assert got.tobytes() == want.tobytes()
        # bit for bit on its nominal, a row's pull is skipped; so may be one whose offsets are still +0.0
        on_nominal = np.isfinite([Y, V]).all() and Y[:b].tobytes() == y.tobytes() and V[:b].tobytes() == v.tobytes()
        assert pulls in ([], [b]) and (pulls == [] or not on_nominal)


def counting(hook, called):
    """A plain function that records each step the hook is called at and
    returns its output unchanged, so it may keep the hook's rule."""
    def counted(step, y, v):
        called.append(step)
        return hook(step, y, v)
    counted.paired, counted.quiet = hook.paired, hook.quiet
    return counted


class TestLookAheadCalls:
    """_integrate calls make_coupling's hook from the first step where it
    could act on, by counts: a change that turns the look-ahead off fails
    here, not only in the bench."""

    C05 = ObstacleParams(rho_th=0.005, lambda_max=100.0, gamma=2.0, lookahead=0.015, return_gain=4.0)

    def batch(self):
        model = fit_dmp(line_demo([0, 0, 0], [0.4, 0, 0], n=151))
        rng = np.random.default_rng(11)
        starts = [Pose(rng.normal(0.0, 0.005, 3), [1.0, 0, 0, 0]) for _ in range(4)]
        goals = [Pose([0.4, 0, 0] + rng.normal(0.0, 0.01, 3), [1.0, 0, 0, 0]) for _ in range(4)]
        return model, starts, goals

    @pytest.mark.parametrize("return_gain", [0.0, 4.0])
    def test_a_scene_out_of_reach_is_never_called(self, return_gain):
        model, starts, goals = self.batch()
        params = dataclasses.replace(self.C05, return_gain=return_gain)
        called = []
        hook = make_coupling(blob_scene(mu=(100.0, 0.0, 0.0), sigma=0.02), params, 0.01)
        outs = rollout_batch(model, starts, goals, 0.01, counting(hook, called))
        assert called == [] and hook.quiet_steps == len(outs[0]) - 1
        for out, free in zip(outs, rollout_batch(model, starts, goals, 0.01)):
            assert out.positions.tobytes() == free.positions.tobytes()

    @pytest.mark.parametrize("return_gain", [0.0, 4.0])
    def test_first_call_at_the_first_step_whose_probe_reads_above_rho_th(self, return_gain):
        # the Criterion-05 line past one blob, as bench/workloads.py's c05_batch runs it
        model, starts, goals = self.batch()
        params = dataclasses.replace(self.C05, return_gain=return_gain)
        scene = blob_scene(mu=(0.2, 0.004, 0.0), sigma=0.02)
        first = first_hot_step(scene, params, 0.01, *free_states(model, pose_rows(starts, goals), 0.01))
        called = []
        hook = make_coupling(scene, params, 0.01)
        outs = rollout_batch(model, starts, goals, 0.01, counting(hook, called))
        steps = len(outs[0]) - 1
        assert 0 < first < steps
        assert called == list(range(first, steps)) and hook.quiet_steps == first
        oracle = make_coupling(scene, params, 0.01)

        def every_step(step, y, v):   # hides the rule
            return oracle(step, y, v)
        every_step.paired = oracle.paired
        want = rollout_batch(model, starts, goals, 0.01, every_step)
        assert [o.positions.tobytes() for o in outs] == [w.positions.tobytes() for w in want]


# The letter A's second stroke: its forcing peaks mid-stroke, so a row whose goal lies 10**e m
# away, e in about [305.67, 306.05], overflows the forcing product at a step from 27 to 57 of a
# free run, and fails there whatever the coupling does before.
LETTER = fit_dmp(letter_a_demo().segment(1), n_basis=20)


@functools.cache
def overflow_exponents():
    """{step: e}: a goal 10**e m past LETTER's, along x, fails its free run at that step."""
    found = {}
    for e in np.linspace(305.6, 306.1, 301):
        row = (LETTER.y0[None], LETTER.q0[None], (LETTER.goal + [10.0 ** e, 0.0, 0.0])[None], LETTER.q_goal[None])
        with np.errstate(all="ignore"):
            found.setdefault(int(_integrate(LETTER, *row, 0.01)[3][0]), float(e))
    return found


class TestLookAheadBitEqual:
    """_integrate with the look-ahead is bit-equal to the same hook called on
    every step through a plain function, which hides its rule."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bit_equal_to_the_hook_on_every_step(self, data):
        lambda_max, return_gain = data.draw(st.sampled_from([(100.0, 0.0), (100.0, 4.0), (0.0, 4.0)]))
        paired = data.draw(st.booleans())
        params = ObstacleParams(rho_th=0.005, lambda_max=lambda_max, gamma=2.0, lookahead=0.015,
                                return_gain=return_gain)
        dt, b = 0.01, data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        y = LETTER.y0 + rng.normal(0.0, 0.003, (b, 3))
        goal = LETTER.goal + rng.normal(0.0, 0.005, (b, 3))
        q0, q_goal = np.tile(LETTER.q0, (b, 1)), np.tile(LETTER.q_goal, (b, 1))
        # a blob on the stroke, near where it is at some step: the first hot step m falls in any chunk
        path, speed = free_states(LETTER, (y, q0, goal, q_goal), dt)
        at = path[0, data.draw(st.one_of(st.integers(0, 110), st.integers(40, 80)))] + rng.normal(0.0, 0.004, 3)
        scene = blob_scene(mu=at, sigma=data.draw(st.sampled_from([0.008, 0.015])))
        m = first_hot_step(scene, params, dt, path, speed)
        m = 0 if m is None or lambda_max == 0.0 else m
        # one more row that goes non-finite in the free run: at its start, before the chunk that
        # holds step m, inside it before or after m, or after it
        chunk = m - m % dmp._QUIET_CHUNK
        steps = overflow_exponents()
        where = {"before": [f for f in steps if 0 <= f < chunk], "inside before": [f for f in steps if chunk <= f < m],
                 "inside after": [f for f in steps if m <= f < chunk + dmp._QUIET_CHUNK],
                 "after": [f for f in steps if f >= chunk + dmp._QUIET_CHUNK]}
        kinds = ["none", "nan start"] + [k for k, fs in where.items() if fs]
        kind = data.draw(st.sampled_from(kinds + ["inside after"] * ("inside after" in kinds)))
        fails_at = data.draw(st.sampled_from(sorted(where[kind]))) if kind in where else -1
        if kind != "none":
            e = steps[fails_at] if kind in where else 0.0
            y = np.concatenate([y, [LETTER.y0 if kind in where else [np.nan] * 3]])
            goal = np.concatenate([goal, [LETTER.goal + [10.0 ** e, 0.0, 0.0]]])
            q0, q_goal = np.concatenate([q0, q0[:1]]), np.concatenate([q_goal, q_goal[:1]])
        rows = (y, q0, goal, q_goal)
        if return_gain > 0.0 and not paired:   # the hook reads rows [0, B) as the nominals of [B, 2B)
            moved = y + rng.normal(0.0, 0.002, y.shape) * data.draw(st.sampled_from([0.0, 1.0]))
            rows = tuple(np.concatenate([r, r2]) for r, r2 in zip(rows, (moved, q0, goal, q_goal)))
        n_hook = len(rows[0]) * (2 if paired else 1)
        # a hook row made NaN from some step on, wherever some finite row's output is not +0.0, so that
        # the hook's rule still holds: at times the overflowing row (its nominal, when paired, whose failing
        # step its rollout takes), from a step before its own failure
        if fails_at > m and data.draw(st.booleans()):
            nan_row, nan_from = len(rows[0]) - 1, data.draw(st.integers(m, fails_at - 1))
        else:
            nan_row = data.draw(st.integers(0, n_hook - 1))
            nan_from = m + data.draw(st.one_of(st.integers(0, 40), st.just(10**6)))

        def injecting(hook):
            def inject(step, y, v):
                a = hook(step, y, v)
                if step >= nan_from and np.any(a[np.isfinite(y).all(axis=1)] != 0.0):
                    a[nan_row] = np.nan
                return a
            return inject

        hook = make_coupling(scene, params, dt)
        subject = injecting(hook)
        subject.quiet = hook.quiet
        with np.errstate(all="ignore"):
            got = _integrate(LETTER, *rows, dt, subject, paired=paired)
            want = _integrate(LETTER, *rows, dt, injecting(make_coupling(scene, params, dt)), paired=paired)
        for label, g, w in zip(("times", "positions", "quaternions", "failed"), got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), label
