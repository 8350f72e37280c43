import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatsynth.dmp import (
    MAX_ROLLOUT_STEPS,
    CanonicalSystem,
    DmpModel,
    FitError,
    RolloutError,
    _basis,
    _integrate,
    canonical_phase,
    fit_dmp,
    rollout,
    rollout_batch,
    rollout_steps,
)
from splatsynth.geometry import (
    FieldError,
    Pose,
    Trajectory,
    quat_conj,
    quat_exp,
    quat_from_axis_angle,
    quat_geodesic_distance,
    quat_log,
    quat_mul,
)
from splatsynth.metrics import dtw
from splatsynth.obstacles import ObstacleParams, make_coupling
from splatsynth.splats import GaussianBlob, GaussianScene

from helpers import integrate_two_systems, letter_a_demo, line_demo, minimum_jerk


def minjerk_demo_1d(n=201, duration=1.0):
    t = np.linspace(0, duration, n)
    prof = minimum_jerk(t / duration)
    pos = np.stack([prof, np.zeros(n), np.zeros(n)], axis=1)
    q = np.tile([1.0, 0, 0, 0], (n, 1))
    return Trajectory(t, pos, q, np.zeros(n))


class TestCanonicalPhase:
    def test_initial(self):
        assert canonical_phase(CanonicalSystem(4.0, 1.0), 0.0) == 1.0

    def test_closed_form_at_tau(self):
        cs = CanonicalSystem(alpha_s=4.0, tau=2.0)
        assert abs(canonical_phase(cs, 2.0) - math.exp(-4)) < 1e-12

    def test_integrated_matches_closed_form(self):
        # Euler-integrated phase (as used inside rollout) vs closed form:
        # the worst error must shrink at first order in dt
        cs = CanonicalSystem(alpha_s=4.0, tau=1.0)

        def worst_err(dt):
            steps = int(round(1.0 / dt))
            s = 1.0
            worst = 0.0
            for n in range(steps):
                s = s - cs.alpha_s * s * dt / cs.tau
                worst = max(worst, abs(s - canonical_phase(cs, (n + 1) * dt)))
            return worst

        e_coarse = worst_err(1e-2)
        e_fine = worst_err(1e-3)
        assert e_fine < 1e-3
        assert e_coarse / e_fine == pytest.approx(10.0, rel=0.2)


class TestFit:
    def test_minjerk_reproduction(self):
        demo = minjerk_demo_1d()
        model = fit_dmp(demo, n_basis=20, ridge_lambda=1e-6)
        out = rollout(model, dt=0.005)
        mask = out.times <= 1.0
        ref = minimum_jerk(out.times[mask])
        assert np.abs(out.positions[mask, 0] - ref).max() < 1e-2

    def test_straight_line_3d(self):
        demo = line_demo([0.1, -0.2, 0.3], [0.4, 0.1, 0.0], n=151)
        model = fit_dmp(demo)
        out = rollout(model, dt=0.005)
        mask = out.times <= 1.0
        prof = minimum_jerk(out.times[mask])
        start, end = demo.positions[0], demo.positions[-1]
        ref = start[None, :] + prof[:, None] * (end - start)[None, :]
        for c in range(3):
            rng_c = abs(end[c] - start[c])
            assert np.abs(out.positions[mask, c] - ref[:, c]).max() < 0.01 * max(rng_c, 1e-3)

    def test_constant_orientation_zero_weights(self):
        demo = minjerk_demo_1d()
        model = fit_dmp(demo)
        assert np.max(np.abs(model.orientation_forcing.weights)) < 1e-9
        out = rollout(model, dt=0.005)
        devs = [quat_geodesic_distance(q, np.array([1.0, 0, 0, 0])) for q in out.quaternions]
        assert max(devs) < 1e-6

    def test_orientation_reproduction(self):
        demo = line_demo([0, 0, 0], [0.3, 0, 0], n=151, axis=[0, 0, 1], angle=math.pi / 2)
        model = fit_dmp(demo)
        out = rollout(model, dt=0.005)
        mask = out.times <= 1.0
        prof = minimum_jerk(out.times[mask])
        errs = [quat_geodesic_distance(q, quat_from_axis_angle([0, 0, 1], math.pi / 2 * p))
                for q, p in zip(out.quaternions[mask], prof)]
        assert max(errs) < 0.02

    def test_too_few_samples(self):
        demo = minjerk_demo_1d(n=8)
        with pytest.raises(FitError):
            fit_dmp(demo, n_basis=5)

    @pytest.mark.parametrize("n_basis", [1, 0, -3])
    def test_too_few_basis_functions(self, n_basis):
        with pytest.raises(FitError, match=f"^n_basis must be at least 2, got {n_basis}$"):
            fit_dmp(line_demo([0, 0, 0], [0.3, 0, 0], n=151), n_basis=n_basis)

    def test_model_json_roundtrip(self):
        demo = line_demo([0, 0, 0], [0.2, 0.1, -0.1], n=101, axis=[1, 0, 0], angle=0.4)
        model = fit_dmp(demo)
        import json
        back = DmpModel.from_dict(json.loads(model.to_json()))
        assert back.hash() == model.hash()
        out_a = rollout(model, dt=0.005)
        out_b = rollout(back, dt=0.005)
        assert np.array_equal(out_a.positions, out_b.positions)


class TestRollout:
    def zero_forcing_model(self, tau=1.0):
        demo = line_demo([0, 0, 0], [1.0, 0, 0], duration=tau, n=101)
        model = fit_dmp(demo)
        zero = np.zeros_like(model.position_forcing.weights)
        from splatsynth.dmp import ForcingTerm
        return DmpModel(
            canonical=model.canonical, alpha_z=model.alpha_z, beta_z=model.beta_z,
            position_forcing=ForcingTerm(model.position_forcing.centers,
                                         model.position_forcing.widths, zero),
            orientation_forcing=model.orientation_forcing,
            y0=model.y0, goal=model.goal, q0=model.q0, q_goal=model.q_goal,
            rot_goal=model.rot_goal, pos_scale=model.pos_scale,
            pos_degenerate=model.pos_degenerate, rot_scale=model.rot_scale,
            rot_degenerate=model.rot_degenerate, duration=model.duration)

    def test_zero_forcing_step_response(self):
        model = self.zero_forcing_model()
        out = rollout(model, dt=0.002)
        x = out.positions[:, 0]
        assert abs(x[-1] - 1.0) < 1e-3
        assert x.max() <= 1.0 + 1e-3  # no overshoot beyond tolerance
        assert np.all(np.diff(x) >= -1e-12)  # monotone

    def test_zero_forcing_no_oscillation(self):
        # sign of (y - g) must not flip more than once
        model = self.zero_forcing_model()
        out = rollout(model, dt=0.002)
        signs = np.sign(out.positions[:, 0] - 1.0)
        signs = signs[signs != 0]
        flips = np.count_nonzero(np.diff(signs))
        assert flips <= 1

    def test_reproduction_dtw(self):
        demo = line_demo([0, 0, 0], [0.3, 0.2, 0.1], n=151)
        model = fit_dmp(demo)
        out = rollout(model, dt=0.005)
        cost, _ = dtw(out.positions, demo.positions, "euclidean", normalized=True)
        assert cost < 0.01 * demo.arc_length()

    def test_goal_shift_terminal_accuracy(self):
        demo = line_demo([0, 0, 0], [0.3, 0.0, 0.0], n=151)
        model = fit_dmp(demo)
        goal = Pose([0.35, 0, 0], [1, 0, 0, 0])
        out = rollout(model, new_goal=goal, dt=0.005)
        assert np.linalg.norm(out.positions[-1] - goal.position) < 1e-3

    def test_dtw_grows_monotonically_with_shift(self):
        demo = line_demo([0, 0, 0], [0.3, 0.0, 0.0], n=151)
        model = fit_dmp(demo)
        costs = []
        for dx in (0.0, 0.02, 0.05, 0.1):
            out = rollout(model, new_goal=Pose([0.3 + dx, 0, 0], [1, 0, 0, 0]), dt=0.005)
            cost, _ = dtw(out.positions, demo.positions, "euclidean", normalized=True)
            costs.append(cost)
        assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_goal_convergence_property(self):
        # goals anywhere within 3x the demo bounding box converge to 1e-3
        demo = line_demo([0, 0, 0], [0.3, 0.2, -0.1], n=151)
        model = fit_dmp(demo)
        lo = demo.positions.min(axis=0)
        hi = demo.positions.max(axis=0)
        c = (lo + hi) / 2
        half = (hi - lo) / 2
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = c + rng.uniform(-3, 3, 3) * half
            out = rollout(model, new_goal=Pose(g, [1, 0, 0, 0]), dt=0.005)
            assert np.linalg.norm(out.positions[-1] - g) < 1e-3

    def test_weights_unchanged_by_rollout(self):
        demo = line_demo([0, 0, 0], [0.3, 0.2, -0.1], n=151)
        model = fit_dmp(demo)
        before = model.position_forcing.weights.copy()
        rollout(model, new_goal=Pose([0.5, 0.5, 0.5], [1, 0, 0, 0]), dt=0.005)
        assert np.array_equal(model.position_forcing.weights, before)

    def test_phase_step_count_independent_of_goal(self):
        demo = line_demo([0, 0, 0], [0.3, 0.0, 0.0], n=151)
        model = fit_dmp(demo)
        a = rollout(model, dt=0.01)
        b = rollout(model, new_goal=Pose([0.9, 0.4, 0.1], [1, 0, 0, 0]), dt=0.01)
        assert np.array_equal(a.times, b.times)

    def test_rejects_coarse_dt(self):
        demo = line_demo([0, 0, 0], [0.3, 0, 0], n=151)
        model = fit_dmp(demo)
        with pytest.raises(ValueError):
            rollout(model, dt=0.1)

    def test_nonfinite_coupling_raises(self):
        from splatsynth.dmp import RolloutError
        demo = line_demo([0, 0, 0], [0.3, 0, 0], n=151)
        model = fit_dmp(demo)

        def bad_coupling(step, y, v):
            return np.array([np.inf, 0, 0]) if step == 5 else np.zeros(3)

        with pytest.raises(RolloutError, match="step"):
            rollout(model, dt=0.01, coupling=bad_coupling)


class TestStepBudget:
    """rollout_steps is ceil(horizon_factor * tau / dt), refused past dt = tau/50
    or MAX_ROLLOUT_STEPS before any array is sized."""

    def test_count_at_and_past_the_budget(self):
        dt = 2.0 ** -10   # binary steps, so the count at the budget is exact
        horizon = MAX_ROLLOUT_STEPS * dt
        assert rollout_steps(1.0, dt, horizon) == MAX_ROLLOUT_STEPS
        assert rollout_steps(1.0, dt, 1.25) == math.ceil(1.25 / dt)
        with pytest.raises(FieldError, match=rf"^dt must keep horizon \* tau / dt within {MAX_ROLLOUT_STEPS} steps, "
                                             r"got 100000 at tau = 1.0$") as exc:
            rollout_steps(1.0, dt, np.nextafter(horizon, np.inf))
        assert exc.value.field == "dt"

    @pytest.mark.parametrize("dt, horizon, field, steps", [
        (1e-9, 1.25, "dt", "1.25e+09"),
        (0.02, 1e9, "horizon_factor", "5e+10"),
        # the horizon alone is at fault once even dt = tau/50 takes too many steps
        (0.02, 2001.0, "horizon_factor", "100050"),
        (0.01, 1001.0, "dt", "100100"),
        (5e-324, 1e300, "horizon_factor", "inf"),
    ])
    def test_rollout_batch_refuses_before_sizing(self, dt, horizon, field, steps):
        model = fit_dmp(line_demo([0, 0, 0], [0.3, 0, 0], n=101))
        start, goal = Pose(model.y0, model.q0), Pose(model.goal, model.q_goal)
        with pytest.raises(FieldError, match=rf"within {MAX_ROLLOUT_STEPS} steps, got {re.escape(steps)} ") as exc:
            rollout_batch(model, [start], [goal], dt=dt, horizon_factor=horizon)
        assert exc.value.field == field

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, 0.0201])
    def test_dt_outside_its_bound(self, dt):
        with pytest.raises(FieldError, match=r"^dt must be <= tau/50 = 0.02 and positive, got ") as exc:
            rollout_steps(1.0, dt, 1.25)
        assert exc.value.field == "dt"


# fit_dmp(...).hash() of the demo in test_fit_hash_unchanged, as computed
# with a per-fit basis formula of its own (x86-64, numpy 2.4, OpenBLAS)
FIT_HASH = "45823f90aef814b34c82c67b6cd77c7d753d42aa500fe7841b7f66df3af07baa"


def basis_at(forcing, s):
    """The RBF basis at one phase value, evaluated as a scalar."""
    psi = np.exp(-forcing.widths * (s - forcing.centers) ** 2)
    return psi * (s / np.sum(psi))


def rollout_per_step(model, new_start=None, new_goal=None, dt=0.01, coupling=None,
                     horizon_factor=1.25):
    """The step loop with the basis evaluated at the current phase inside
    each step: the reference for the once-per-rollout basis table."""
    tau = model.canonical.tau
    start = new_start or Pose(model.y0, model.q0)
    goal = new_goal or Pose(model.goal, model.q_goal)
    y = start.position.astype(float).copy()
    v = np.zeros(3)
    q0 = start.orientation
    r = np.zeros(3)
    rv = np.zeros(3)
    rot_goal = quat_log(quat_mul(quat_conj(q0), goal.orientation))
    pos_scale = np.where(model.pos_degenerate, model.pos_scale, goal.position - start.position)
    rot_scale = np.where(model.rot_degenerate, model.rot_scale, rot_goal)
    n_steps = math.ceil(horizon_factor * tau / dt)
    az, bz = model.alpha_z, model.beta_z
    positions = [y]
    quaternions = [q0]
    s = 1.0
    for n in range(n_steps):
        f_pos = (model.position_forcing.weights @ basis_at(model.position_forcing, s)) * pos_scale
        f_rot = (model.orientation_forcing.weights @ basis_at(model.orientation_forcing, s)) * rot_scale
        a = az * (bz * (goal.position - y) - v) + f_pos
        if coupling is not None:
            a = a + coupling(n, y[None], (v / tau)[None])[0]
        a_r = az * (bz * (rot_goal - r) - rv) + f_rot
        v = v + a * (dt / tau)
        y = y + v * (dt / tau)
        rv = rv + a_r * (dt / tau)
        r = r + rv * (dt / tau)
        s = s - model.canonical.alpha_s * s * (dt / tau)
        positions.append(y)
        quaternions.append(quat_mul(q0, quat_exp(r)))
    return Trajectory(np.arange(n_steps + 1) * dt, positions, quaternions,
                      np.zeros(n_steps + 1), [0, n_steps])


def assert_rollout_matches_per_step(model, **kw):
    out = rollout(model, **kw)
    ref = rollout_per_step(model, **kw)
    for name in ("times", "positions", "quaternions", "gripper"):
        assert np.array_equal(getattr(out, name), getattr(ref, name)), name
    assert out.splits == ref.splits


class TestRolloutMatchesPerStep:
    def test_free(self):
        model = fit_dmp(line_demo([0.1, -0.2, 0.3], [0.4, 0.1, 0.0], n=151, angle=0.6))
        assert_rollout_matches_per_step(model, dt=0.01)
        assert_rollout_matches_per_step(model, dt=0.004, horizon_factor=1.5)

    def test_retargeted(self):
        model = fit_dmp(line_demo([0, 0, 0], [0.3, 0.2, -0.1], n=151, axis=(1, 0, 0), angle=0.4))
        start = Pose([0.01, -0.02, 0.0], quat_from_axis_angle([0, 1, 0], 0.1))
        goal = Pose([0.35, 0.15, -0.05], quat_from_axis_angle([1, 0, 0], 0.5))
        assert_rollout_matches_per_step(model, new_start=start, new_goal=goal, dt=0.01)

    def test_letter_segments(self):
        demo = letter_a_demo()
        for k in range(demo.n_segments):
            assert_rollout_matches_per_step(fit_dmp(demo.segment(k)), dt=0.01)

    def test_coupled(self):
        # the repulsion alone: a hook with the return pull on reads each row's nominal from a paired row,
        # which TestIntegrateMatchesTwoSystems feeds it
        demo = line_demo([0, 0, 0], [0.4, 0, 0], n=151)
        model = fit_dmp(demo)
        scene = GaussianScene([GaussianBlob([0.2, 0.004, 0.0], 0.02 ** 2 * np.eye(3), 1.0)])
        params = ObstacleParams(rho_th=0.005, lambda_max=100.0, gamma=2.0, lookahead=0.015)
        assert_rollout_matches_per_step(model, dt=0.01, coupling=make_coupling(scene, params, 0.01))

    def test_degenerate_channels(self):
        # y, z and every orientation channel have goal == start at fit time
        model = fit_dmp(minjerk_demo_1d())
        assert model.pos_degenerate.tolist() == [False, True, True]
        assert model.rot_degenerate.all()
        assert_rollout_matches_per_step(model, dt=0.005)
        goal = Pose([1.0, 0.05, -0.02], quat_from_axis_angle([0, 0, 1], 0.2))
        assert_rollout_matches_per_step(model, new_goal=goal, dt=0.005)

    def test_fit_hash_unchanged(self):
        # the fit's design matrix uses the same basis formula as the rollout;
        # this digest is the fit's before the formula was shared
        model = fit_dmp(line_demo([0.1, -0.2, 0.3], [0.4, 0.1, 0.0], n=151, angle=0.6))
        assert model.hash() == FIT_HASH



class TestRolloutBatch:
    """Each row of a batch is integrated exactly as it would be alone."""

    def model_and_poses(self, n=5):
        model = fit_dmp(line_demo([0, 0, 0], [0.4, 0, 0], n=151, axis=(0, 1, 0), angle=0.3))
        rng = np.random.default_rng(4)
        starts = [Pose(rng.normal(0.0, 0.01, 3), quat_from_axis_angle([1, 0, 0], a))
                  for a in rng.uniform(-0.2, 0.2, n)]
        goals = [Pose([0.4, 0, 0] + rng.normal(0.0, 0.02, 3), quat_from_axis_angle([0, 0, 1], a))
                 for a in rng.uniform(-0.5, 0.5, n)]
        return model, starts, goals

    @staticmethod
    def assert_same(a, b):
        for name in ("times", "positions", "quaternions", "gripper"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.splits == b.splits

    def test_free_rows_match_single_rollouts(self):
        model, starts, goals = self.model_and_poses()
        outs = rollout_batch(model, starts, goals, dt=0.01)
        for out, start, goal in zip(outs, starts, goals):
            self.assert_same(out, rollout(model, start, goal, dt=0.01))

    def test_coupled_rows_match_single_rollouts(self):
        model, starts, goals = self.model_and_poses()
        scene = GaussianScene([GaussianBlob([0.2, 0.004, 0.0], 0.02 ** 2 * np.eye(3), 1.0)])
        params = ObstacleParams(rho_th=0.005, lambda_max=100.0, gamma=2.0,
                                lookahead=0.015, return_gain=4.0)
        nominals = rollout_batch(model, starts, goals, dt=0.01)
        outs = rollout_batch(model, starts, goals, 0.01, make_coupling(scene, params, 0.01))
        assert not any(np.array_equal(o.positions, n.positions) for o, n in zip(outs, nominals))
        for out, start, goal in zip(outs, starts, goals):
            (alone,) = rollout_batch(model, [start], [goal], 0.01, make_coupling(scene, params, 0.01))
            self.assert_same(out, alone)

    def test_non_finite_row_fails_alone(self):
        model, starts, goals = self.model_and_poses()

        def hook(step, y, v):
            a = np.zeros_like(y)
            if step >= 7:
                a[1] = np.nan
            return a

        outs = rollout_batch(model, starts, goals, dt=0.01, coupling=hook)
        assert isinstance(outs[1], RolloutError)
        assert str(outs[1]) == "non-finite state at step 7"
        clean = rollout_batch(model, starts, goals, dt=0.01)
        for b in (0, 2, 3, 4):
            self.assert_same(outs[b], clean[b])

    def test_empty_batch(self):
        model, _, _ = self.model_and_poses()
        assert rollout_batch(model, [], [], dt=0.01) == []


# models the step loop is compared on: a turning line, a 1-D motion whose y, z and rotation channels are
# degenerate at fit time, and a letter stroke
INTEGRATE_MODELS = {
    "line": fit_dmp(line_demo([0.1, -0.2, 0.3], [0.4, 0.1, 0.0], n=151, angle=0.6)),
    "degenerate": fit_dmp(minjerk_demo_1d()),
    "letter": fit_dmp(letter_a_demo().segment(1), n_basis=20),
}
INTEGRATE_SCENE = GaussianScene([GaussianBlob([0.25, -0.05, 0.15], 0.03 ** 2 * np.eye(3), 1.0),
                                 GaussianBlob([0.6, 0.0, 0.0], 0.02 ** 2 * np.eye(3), 1.0)])
INTEGRATE_PARAMS = ObstacleParams(rho_th=0.005, lambda_max=100.0, gamma=2.0, lookahead=0.015, return_gain=4.0)


def integrate_rows(model, b, seed):
    """b starts and goals scattered around the model's own, as _integrate takes them."""
    rng = np.random.default_rng(seed)
    y = model.y0 + rng.normal(0.0, 0.02, (b, 3))
    goal = model.goal + rng.normal(0.0, 0.05, (b, 3))
    q0 = np.array([quat_mul(model.q0, quat_from_axis_angle(rng.normal(size=3), a))
                   for a in rng.uniform(-0.3, 0.3, b)]).reshape(-1, 4)
    q_goal = np.array([quat_mul(model.q_goal, quat_from_axis_angle(rng.normal(size=3), a))
                       for a in rng.uniform(-0.5, 0.5, b)]).reshape(-1, 4)
    return y, q0, goal, q_goal


class TestIntegrateMatchesTwoSystems:
    """_integrate steps one (B, 6) state; tests/helpers.integrate_two_systems,
    the oracle, steps position and rotation as two (B, 3) systems.  Every
    output is equal bit for bit: times, positions, quaternions and failed."""

    @staticmethod
    def hooks(kind, model, rows, dt, horizon_factor, nan_row, nan_step):
        """A fresh hook of the kind for each of the two runs, or None."""
        if kind == "none":
            return None, None
        if kind == "coupling":
            return tuple(make_coupling(INTEGRATE_SCENE, INTEGRATE_PARAMS, dt) for _ in range(2))

        def nan_hook(step, y, v):
            a = 0.5 * np.sin(40.0 * y) - 0.1 * v
            if step == nan_step:
                a[nan_row % len(y), 1] = np.nan
            return a
        return nan_hook, nan_hook

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(INTEGRATE_MODELS)), b=st.integers(1, 9), seed=st.integers(0, 2**16),
           dt=st.sampled_from([0.004, 0.01, 0.013]), horizon_factor=st.sampled_from([0.5, 1.0, 1.25, 1.9]),
           kind=st.sampled_from(["none", "coupling", "nan"]), nan_row=st.integers(0, 8), nan_step=st.integers(0, 60))
    def test_bit_equal_to_the_two_system_oracle(self, name, b, seed, dt, horizon_factor, kind, nan_row, nan_step):
        model = INTEGRATE_MODELS[name]
        rows = integrate_rows(model, b, seed)
        if kind == "coupling":   # the return pull reads rows [0, b), the nominals of rows [b, 2b)
            rows = tuple(np.concatenate([r, r]) for r in rows)
        hook, oracle_hook = self.hooks(kind, model, rows, dt, horizon_factor, nan_row, nan_step)
        got = _integrate(model, *rows, dt, coupling=hook, horizon_factor=horizon_factor)
        want = integrate_two_systems(model, *rows, dt, coupling=oracle_hook, horizon_factor=horizon_factor)
        for label, g, w in zip(("times", "positions", "quaternions", "failed"), got, want):
            assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes(), label
        if kind == "nan" and nan_step < len(got[0]) - 1:   # the row fails at that step, and only it
            assert got[3].tolist() == [nan_step if r == nan_row % b else -1 for r in range(b)]

    def test_hook_keeps_the_rows_it_was_given(self):
        """A hook that holds on to its y and v still sees the values it was
        given: the state is updated out of place."""
        model = INTEGRATE_MODELS["line"]
        kept = []

        def hook(step, y, v):
            kept.append((y, y.copy(), v, v.copy()))
            return -y

        got = _integrate(model, *integrate_rows(model, 4, 3), 0.01, coupling=hook)
        assert len(kept) == len(got[0]) - 1
        for step, (y, y_then, v, v_then) in enumerate(kept):
            assert y.tobytes() == y_then.tobytes() and v.tobytes() == v_then.tobytes(), step
            assert y.tobytes() == got[1][:, step].tobytes(), step

    @pytest.mark.parametrize("kind", ["coupling", "nan"])
    def test_paired_rows_are_the_stacked_rows_trimmed(self, kind):
        """paired stacks the B rows below a copy of themselves, the nominals
        that the hook reads as rows [0, B): the oracle's run on the 2B stacked
        rows, with only rows [B, 2B) kept, each failing at its nominal's
        failing step, else at its own."""
        model, b, dt = INTEGRATE_MODELS["line"], 4, 0.01
        rows = integrate_rows(model, b, 7)
        seen = set()

        def nan_hook(step, y, v):
            seen.add(len(y))
            a = 0.5 * np.sin(40.0 * y) - 0.1 * v
            for row, at in ((0, 5), (4, 2), (5, 4), (2, 6)):   # nominals 0 and 2, rollouts 0 and 1
                if step == at:
                    a[row, 1] = np.nan
            return a
        hooks = ([make_coupling(INTEGRATE_SCENE, INTEGRATE_PARAMS, dt) for _ in range(2)] if kind == "coupling"
                 else [nan_hook] * 2)
        got = _integrate(model, *rows, dt, coupling=hooks[0], paired=True)
        times, p, q, failed = integrate_two_systems(model, *(np.concatenate([r, r]) for r in rows), dt,
                                                    coupling=hooks[1])
        want = (times, p[b:], q[b:], np.where(failed[:b] >= 0, failed[:b], failed[b:]))
        for label, g, w in zip(("times", "positions", "quaternions", "failed"), got, want):
            assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes(), label
        if kind == "nan":
            assert seen == {2 * b}
            assert got[3].tolist() == [5, 4, 6, -1]

    @pytest.mark.parametrize("n_basis", [2, 20, 30, 50])
    def test_stacked_forcing_products_equal_the_per_step_products(self, n_basis):
        """_integrate computes every step's forcing before the loop, as one
        batched (3, n) product per system.  That rests on an assumption about
        the matrix library: the batched product rounds as the per-step
        w @ basis[n] does.  (A single (6, n) product on both systems' weights
        stacked does not; it differs for every n_basis in {20, 30, 50}.)"""
        model = fit_dmp(letter_a_demo().segment(0), n_basis=n_basis)
        phase = np.exp(-model.canonical.alpha_s * np.linspace(0.0, 1.25, 157))
        basis = _basis(phase, model.position_forcing.centers, model.position_forcing.widths)
        for w in (model.position_forcing.weights, model.orientation_forcing.weights):
            stacked = (w[None] @ basis[:, :, None])[..., 0]
            per_step = np.array([w @ basis[n] for n in range(len(basis))])
            assert stacked.tobytes() == per_step.tobytes(), (
                "assumption broken: the batched per-system forcing product (w[None] @ basis[:, :, None]) no "
                "longer equals the per-step w @ basis[n] bit for bit on this numpy and BLAS; _integrate's "
                "forcing table would change every rollout")
