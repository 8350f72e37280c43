import dataclasses
import importlib.util
import json
import logging
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.special import gammainc, gammaincinv, ndtr, ndtri

from splatsynth.alignment import RigidTransform, apply_transform
from splatsynth.dmp import MIN_SEGMENT_SAMPLES, rollout_steps
from splatsynth.geometry import FieldError, Trajectory, quat_exp, quat_geodesic_distance
from splatsynth.obstacles import ObstacleParams
from splatsynth import geometry, synthesis
from splatsynth.splats import GaussianBlob, GaussianScene
from splatsynth.synthesis import (
    PerturbationSpec,
    SynthesisJob,
    _synthesize_rows,
    export_dataset,
    fit_segments,
    sample_boundary_perturbation,
    sample_perturbations,
    synthesize,
    synthesize_one,
)

from helpers import letter_a_demo, line_demo, run_within


def zero_spec(seed=0):
    return PerturbationSpec(sigma_p=[0, 0, 0], bound_p=[0, 0, 0], seed=seed)


def small_spec(seed=0, sigma=0.01, bound=0.02, sigma_r=0.0, bound_r=0.0):
    return PerturbationSpec(sigma_p=[sigma] * 3, bound_p=[bound] * 3,
                            sigma_r=sigma_r, bound_r=bound_r, seed=seed)


def make_job(demo=None, spec=None, scene=None, n_demos=1, dt=0.01, **kw):
    return SynthesisJob(demo=demo if demo is not None else letter_a_demo(),
                        scene=scene, spec=spec or zero_spec(),
                        obstacle=ObstacleParams(), n_demos=n_demos, dt=dt, **kw)


def rotation_angle(dq) -> float:
    """|delta| of dq = exp(delta), accurate at small angles too."""
    return 2.0 * math.atan2(np.linalg.norm(dq[1:]), abs(dq[0]))


def draws(spec, n, boundary=1):
    """(n, 3) dp and (n,) rotation angles over rollouts 0..n-1 of one boundary."""
    out = [sample_boundary_perturbation(spec, boundary, r) for r in range(n)]
    return np.array([dp for dp, _ in out]), np.array([rotation_angle(dq) for _, dq in out])


class TestTruncatedNormal:
    """The closed-form sampler against the distributions it draws from."""

    def test_moments_and_bounds(self):
        sigma, bound = 1.0, 1.5
        dp, _ = draws(small_spec(seed=0, sigma=sigma, bound=bound), 3000)
        assert np.all(np.abs(dp) <= bound)
        ref = scipy.stats.truncnorm(-bound / sigma, bound / sigma, scale=sigma)
        assert np.all(np.abs(dp.mean(axis=0)) < 4 * ref.std() / math.sqrt(3000))
        assert np.all(np.abs(dp.std(axis=0) - ref.std()) < 0.03)

    def test_zero_sigma_is_zero(self):
        spec = PerturbationSpec(sigma_p=[0, 0, 0], bound_p=[0.1] * 3, bound_r=0.1, seed=1)
        dp, dq = sample_boundary_perturbation(spec, 1, 0)
        assert np.array_equal(dp, np.zeros(3))
        assert np.array_equal(dq, np.array([1.0, 0, 0, 0]))

    @pytest.mark.parametrize("seed, ratio", [(3, 0.5), (4, 1.5), (5, 4.0)])
    def test_position_is_truncnorm(self, seed, ratio):
        sigma = 0.01
        dp, _ = draws(small_spec(seed=seed, sigma=sigma, bound=ratio * sigma), 1000)
        ref = scipy.stats.truncnorm(-ratio, ratio, scale=sigma)
        for axis in range(3):
            assert scipy.stats.kstest(dp[:, axis], ref.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("seed, ratio", [(6, 0.5), (7, 1.5), (8, 4.0)])
    def test_rotation_angle_is_truncated_chi3(self, seed, ratio):
        sigma_r = 0.1
        _, angle = draws(small_spec(seed=seed, sigma_r=sigma_r, bound_r=ratio * sigma_r), 1000)
        chi = scipy.stats.chi(3, scale=sigma_r)
        assert scipy.stats.kstest(angle, lambda a: chi.cdf(a) / chi.cdf(ratio * sigma_r)).pvalue > 1e-3

    def test_untruncated_when_bound_is_infinite(self):
        spec = small_spec(seed=9, sigma=0.01, bound=math.inf, sigma_r=0.1, bound_r=math.inf)
        dp, angle = draws(spec, 1000)
        assert np.all(np.isfinite(dp))
        assert scipy.stats.kstest(dp[:, 0], scipy.stats.norm(scale=0.01).cdf).pvalue > 1e-3
        assert scipy.stats.kstest(angle, scipy.stats.chi(3, scale=0.1).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("ratio", [1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0, 10.0, 40.0, 1e3, math.inf])
    def test_within_bounds_at_any_ratio(self, ratio):
        sigma, sigma_r = 0.02, 0.3
        spec = small_spec(seed=10, sigma=sigma, bound=ratio * sigma, sigma_r=sigma_r, bound_r=ratio * sigma_r)
        dp, angle = run_within(10, draws, spec, 200)
        assert np.all(np.abs(dp) <= ratio * sigma)
        # the radius is capped at bound_r exactly; exp and the angle read-back round
        assert np.all(angle <= ratio * sigma_r * (1 + 1e-12))
        if ratio <= 1e-3:
            # far below sigma the truncated normal is nearly uniform on the box
            assert np.all(np.abs(dp).max(axis=0) > 0.9 * ratio * sigma)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ratio_that_overflows_is_untruncated(self):
        """bound/sigma beyond the float range reads as an infinite bound."""
        spec = PerturbationSpec(sigma_p=[1e-320, 1e-200, 1.0], bound_p=[1.0, 1e200, 1.0],
                                sigma_r=1e-160, bound_r=1.0, seed=3)
        dp, angle = draws(spec, 50)
        assert np.all(np.abs(dp) <= [1e-317, 1e-197, 1.0]) and np.all(dp[:, 1] != 0.0)
        assert np.all(angle < 1e-157) and np.all(angle > 0.0)

    @pytest.mark.parametrize("draw", [0.0, 1.0 - 2 ** -53])
    def test_extreme_draws_stay_inside(self, monkeypatch, draw):
        """The smallest and the largest uniform draw, the ends of each inverse
        CDF, give |dp| <= bound_p and |delta| <= bound_r, up to the rounding
        of delta's unit direction."""

        class Extreme:
            def random(self, size=None):
                return draw if size is None else np.full(size, draw)

            def standard_normal(self, size):
                return np.array([1.0, 2.0, 3.0])

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Extreme())
        monkeypatch.setattr(synthesis, "quat_exp", lambda delta: delta)
        for ratio in np.logspace(-9, 3, 49):
            for sigma in (0.02, 0.3, 1.0):
                spec = small_spec(sigma=sigma, bound=ratio * sigma, sigma_r=sigma, bound_r=ratio * sigma)
                dp, delta = sample_boundary_perturbation(spec, 1, 0)
                assert np.all(np.abs(dp) <= ratio * sigma)
                assert np.linalg.norm(delta) <= ratio * sigma * (1 + 4 * 2 ** -52)

    def test_other_fields_leave_an_axis_unchanged(self):
        base = PerturbationSpec(sigma_p=[0.01] * 3, bound_p=[0.02] * 3, sigma_r=0.1, bound_r=0.2, seed=4)
        variants = [
            PerturbationSpec(sigma_p=[0.05, 0.01, 0.01], bound_p=[0.02] * 3, sigma_r=0.1, bound_r=0.2, seed=4),
            PerturbationSpec(sigma_p=[0.0, 0.01, 0.01], bound_p=[0.02] * 3, sigma_r=0.1, bound_r=0.2, seed=4),
            PerturbationSpec(sigma_p=[0.01] * 3, bound_p=[0.02] * 3, sigma_r=0.3, bound_r=0.2, seed=4),
            PerturbationSpec(sigma_p=[0.01] * 3, bound_p=[0.02] * 3, sigma_r=0.0, bound_r=0.0, seed=4),
        ]
        for r in range(20):
            dp, _ = sample_boundary_perturbation(base, 1, r)
            for spec in variants:
                assert sample_boundary_perturbation(spec, 1, r)[0][1] == dp[1]

    def test_hang_configs_finish(self):
        """The spec that rejection sampling drew from forever, and the
        infinite sigma that it could not leave, both finish."""
        spec = PerturbationSpec(sigma_p=[1, 0, 0], bound_p=[1e-7, 0, 0])
        dp = run_within(10, lambda: [sample_boundary_perturbation(spec, 1, r)[0] for r in range(200)])
        assert all(abs(d[0]) <= 1e-7 and d[0] != 0.0 and not d[1:].any() for d in dp)

        def infinite_sigma():
            spec = PerturbationSpec(sigma_p=[math.inf, 0, 0], bound_p=[0.01, 0, 0])
            return sample_boundary_perturbation(spec, 1, 0)

        with pytest.raises(ValueError, match="sigma_p must be finite"):
            run_within(10, infinite_sigma)


def perturbation_of_key(spec, boundary_index, rollout_index):
    """(dp, dq) of one key, drawn and computed one row at a time, as the
    sampler did before it took rows: the oracle of sample_perturbations."""
    rng = np.random.default_rng([spec.seed, rollout_index, boundary_index])
    u, direction, w = rng.random(3), rng.standard_normal(3), rng.random()
    dp, delta = np.zeros(3), np.zeros(3)
    on = (spec.sigma_p > 0.0) & (spec.bound_p > 0.0)
    sigma, bound = spec.sigma_p[on], spec.bound_p[on]
    with np.errstate(over="ignore"):
        lo = ndtr(-bound / sigma)
        dp[on] = np.clip(sigma * ndtri(lo + u[on] * (1.0 - 2.0 * lo)), -bound, bound)
        if spec.sigma_r > 0.0 and spec.bound_r > 0.0:
            top = gammainc(1.5, 0.5 * np.square(spec.bound_r / spec.sigma_r))
            radius = min(spec.sigma_r * np.sqrt(2.0 * gammaincinv(1.5, w * top)), spec.bound_r)
            delta = radius * direction / np.linalg.norm(direction)
    return dp, quat_exp(delta)


class TestSamplePerturbations:
    """Each (rollout, boundary) row of sample_perturbations has the bits of
    that key drawn and computed alone."""

    @pytest.mark.parametrize("spec", [
        small_spec(seed=3),                                             # sigma_r off
        small_spec(seed=4, sigma_r=0.2, bound_r=0.3),                   # sigma_r on
        small_spec(seed=5, sigma=0.02, bound=math.inf, sigma_r=0.1, bound_r=math.inf),   # infinite bounds
        PerturbationSpec(sigma_p=[0.0, 0.01, 0.03], bound_p=[0.1, 0.0, math.inf], sigma_r=0.0, bound_r=0.2,
                         seed=6),                                       # a zero sigma, a zero bound
        PerturbationSpec(sigma_p=[1e-320, 1e-200, 1.0], bound_p=[1.0, 1e200, 1.0], sigma_r=1e-160, bound_r=1.0,
                         seed=7),                                       # ratios that overflow
        zero_spec(8),
    ])
    def test_rows_match_each_key(self, spec):
        keys = [(i, b) for i in (0, 1, 2, 17, 300) for b in (0, 1, 3)] + [(5, 2), (0, 1)]
        dp, dq = sample_perturbations(spec, keys)
        assert dp.shape == (len(keys), 3) and dq.shape == (len(keys), 4)
        for (i, b), p, q in zip(keys, dp, dq):
            want_p, want_q = perturbation_of_key(spec, b, i)
            assert p.tobytes() == want_p.tobytes() and q.tobytes() == want_q.tobytes()
            one_p, one_q = sample_boundary_perturbation(spec, b, i)
            assert one_p.tobytes() == want_p.tobytes() and one_q.tobytes() == want_q.tobytes()

    def test_no_keys(self):
        dp, dq = sample_perturbations(small_spec(seed=3, sigma_r=0.1, bound_r=0.2), [])
        assert dp.shape == (0, 3) and dq.shape == (0, 4)


class TestSampleBoundaryPerturbation:
    def test_deterministic_per_index(self):
        spec = small_spec(seed=7, sigma_r=0.05, bound_r=0.1)
        a = sample_boundary_perturbation(spec, 1, 3)
        b = sample_boundary_perturbation(spec, 1, 3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_streams_independent(self):
        spec = small_spec(seed=7)
        dp_a, _ = sample_boundary_perturbation(spec, 1, 3)
        dp_b, _ = sample_boundary_perturbation(spec, 2, 3)
        dp_c, _ = sample_boundary_perturbation(spec, 1, 4)
        assert not np.array_equal(dp_a, dp_b)
        assert not np.array_equal(dp_a, dp_c)

    def test_rotation_bound_respected(self):
        spec = small_spec(seed=2, sigma_r=0.2, bound_r=0.1)
        for r in range(50):
            _, dq = sample_boundary_perturbation(spec, 1, r)
            ang = quat_geodesic_distance(dq, np.array([1.0, 0, 0, 0]))
            assert ang <= 0.1 + 1e-9

    def test_zero_spec_identity(self):
        dp, dq = sample_boundary_perturbation(zero_spec(), 1, 0)
        assert np.array_equal(dp, np.zeros(3))
        assert np.array_equal(dq, np.array([1.0, 0, 0, 0]))


class TestSynthesizeOne:
    def test_zero_perturbation_reproduces_demo(self):
        demo = letter_a_demo()
        job = make_job(demo=demo, spec=zero_spec())
        models = fit_segments(job)
        traj, entry = synthesize_one(job, models, 0)
        assert entry["status"] == "ok"
        for p in entry["perturbations"]:
            assert p["dp"] == [0.0, 0.0, 0.0]
            assert p["dq"] == [1.0, 0.0, 0.0, 0.0]
        # boundary poses of the rollout match the demo boundaries closely
        for s_demo, s_out in zip(demo.splits, traj.splits):
            err = np.linalg.norm(traj.positions[s_out] - demo.positions[s_demo])
            assert err < 2e-3
        # overall path deviation well under 1% of arc length
        from splatsynth.metrics import dtw
        cost, _ = dtw(traj.positions, demo.positions, normalized=True)
        assert cost < 0.01 * demo.arc_length()

    def test_chained_segments_are_continuous(self):
        demo = letter_a_demo()
        job = make_job(demo=demo, spec=small_spec(seed=3))
        models = fit_segments(job)
        traj, _ = synthesize_one(job, models, 0)
        gaps = np.linalg.norm(np.diff(traj.positions, axis=0), axis=1)
        # no jump anywhere near the boundary magnitudes
        assert gaps.max() < 0.01
        assert np.all(np.diff(traj.times) > 0)

    def test_final_boundary_hits_perturbed_target(self):
        demo = letter_a_demo()
        spec = PerturbationSpec(sigma_p=[0.01] * 3, bound_p=[0.02] * 3,
                                perturbable=(False, False, True), seed=5)
        job = make_job(demo=demo, spec=spec)
        models = fit_segments(job)
        traj, entry = synthesize_one(job, models, 0)
        assert [p["boundary"] for p in entry["perturbations"]] == [2]
        dp = np.array(entry["perturbations"][0]["dp"])
        target = demo.positions[demo.splits[-1]] + dp
        assert np.linalg.norm(traj.positions[-1] - target) < 1e-3
        # the unperturbed middle boundary still matches the demo
        mid = traj.positions[traj.splits[1]]
        assert np.linalg.norm(mid - demo.positions[demo.splits[1]]) < 2e-3

    def test_perturbation_bounds_respected(self):
        demo = letter_a_demo()
        job = make_job(demo=demo, spec=small_spec(seed=11))
        models = fit_segments(job)
        for idx in range(20):
            _, entry = synthesize_one(job, models, idx)
            for p in entry["perturbations"]:
                assert np.all(np.abs(p["dp"]) <= 0.02 + 1e-12)

    def test_junction_deduplicated(self):
        demo = letter_a_demo()
        job = make_job(demo=demo)
        models = fit_segments(job)
        traj, _ = synthesize_one(job, models, 0)
        # strictly increasing times imply no duplicated junction sample
        assert np.all(np.diff(traj.times) > 0)
        assert traj.n_segments == demo.n_segments

    def test_gripper_carried_over(self):
        demo = letter_a_demo()
        grip = np.linspace(0, 1, len(demo))
        demo = type(demo)(demo.times, demo.positions, demo.quaternions,
                          grip, demo.splits)
        job = make_job(demo=demo)
        models = fit_segments(job)
        traj, _ = synthesize_one(job, models, 0)
        assert traj.gripper[0] == pytest.approx(0.0)
        assert traj.gripper[-1] == pytest.approx(1.0)
        assert np.all(np.diff(traj.gripper) >= -1e-9)


class TestSynthesize:
    def test_batch_deterministic(self):
        job = make_job(spec=small_spec(seed=9), n_demos=3)
        trajs_a, man_a = synthesize(job)
        trajs_b, man_b = synthesize(job)
        for a, b in zip(trajs_a, trajs_b):
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.quaternions, b.quaternions)
        assert man_a["model_hashes"] == man_b["model_hashes"]

    def test_manifest_contents(self):
        job = make_job(spec=small_spec(seed=9), n_demos=2)
        trajs, manifest = synthesize(job)
        assert manifest["seed"] == 9
        assert manifest["n_demos"] == 2
        assert len(manifest["rollouts"]) == 2
        for entry in manifest["rollouts"]:
            assert entry["status"] == "ok"
            assert "dtw_position" in entry
        assert len(manifest["model_hashes"]) == 2

    def test_model_hashes_independent_of_perturbation(self):
        # the fitted expert prior is shared by all rollouts and must not
        # depend on the perturbation seed
        job_a = make_job(spec=small_spec(seed=1), n_demos=1)
        job_b = make_job(spec=small_spec(seed=999), n_demos=1)
        _, man_a = synthesize(job_a)
        _, man_b = synthesize(job_b)
        assert man_a["model_hashes"] == man_b["model_hashes"]

    def test_failed_rollout_recorded(self, monkeypatch):
        import splatsynth.synthesis as synth_mod

        real = synth_mod._integrate

        def flaky(model, y, *args, **kwargs):
            times, positions, quaternions, failed = real(model, y, *args, **kwargs)
            if len(y) == 3:   # the first segment: rollout 1 is row 1
                failed[1] = 3
            return times, positions, quaternions, failed

        monkeypatch.setattr(synth_mod, "_integrate", flaky)
        job = make_job(n_demos=3)
        trajs, manifest = synth_mod.synthesize(job)
        statuses = [e["status"] for e in manifest["rollouts"]]
        assert statuses == ["ok", "failed", "ok"]
        assert trajs[1] is None
        assert manifest["rollouts"][1]["error"] == "non-finite state at step 3"

    def test_failed_rollout_gets_no_dtw(self, monkeypatch):
        # the batch DTW scores only the rollouts that finished, each as the per-pair call does
        from splatsynth.metrics import trajectory_dtw

        real = synthesis._integrate

        def flaky(model, y, *args, **kwargs):
            times, positions, quaternions, failed = real(model, y, *args, **kwargs)
            if len(y) == 4:   # the first segment: rollout 2 is row 2
                failed[2] = 5
            return times, positions, quaternions, failed

        monkeypatch.setattr(synthesis, "_integrate", flaky)
        job = make_job(spec=small_spec(seed=4), n_demos=4)
        trajs, manifest = synthesis.synthesize(job)
        entries = manifest["rollouts"]
        assert [e["status"] for e in entries] == ["ok", "ok", "failed", "ok"]
        assert not [key for key in entries[2] if key.startswith("dtw_")]
        for i in (0, 1, 3):
            assert (entries[i]["dtw_position"], entries[i]["dtw_orientation"]) == trajectory_dtw(trajs[i], job.demo)


class TestNominalRollout:
    """The uncoupled nominal rollout feeds only the coupling's return pull,
    which reads it from the same _integrate state as the coupled rows."""

    def blob_job(self, **obstacle):
        demo = line_demo([0, 0, 0], [0.4, 0, 0], n=151)
        scene = GaussianScene([GaussianBlob([0.2, 0.004, 0.0], 0.02 ** 2 * np.eye(3), 1.0)])
        return SynthesisJob(demo=demo, scene=scene, spec=small_spec(seed=3), n_demos=3, dt=0.01,
                            obstacle=ObstacleParams(rho_th=0.005, gamma=2.0, lookahead=0.015, **obstacle))

    def count_rollouts(self, monkeypatch, job):
        """(coupled, paired, rows) of every _integrate call: one per segment."""
        import splatsynth.synthesis as synth_mod
        calls = []
        real = synth_mod._integrate

        def counted(model, y, *args, **kwargs):
            calls.append((kwargs["coupling"] is not None, kwargs["paired"], len(y)))
            return real(model, y, *args, **kwargs)

        monkeypatch.setattr(synth_mod, "_integrate", counted)
        synthesize(job)
        return calls

    @pytest.mark.parametrize("lambda_max,return_gain,expected", [
        (100.0, 0.0, (True, False)),    # coupled, no return pull: no nominal
        (100.0, 4.0, (True, True)),     # each row beside its nominal, in one state
        (0.0, 0.0, (False, False)),     # inert coupling: the nominal is the piece
        (0.0, 4.0, (True, True)),       # the return pull alone
    ])
    def test_rollout_calls(self, monkeypatch, lambda_max, return_gain, expected):
        # the line demo has one segment: one _integrate call over all rollouts' rows, which pairs them
        # with their nominals when the pull is on
        job = self.blob_job(lambda_max=lambda_max, return_gain=return_gain)
        assert self.count_rollouts(monkeypatch, job) == [(*expected, job.n_demos)]

    def test_skipped_nominal_output_unchanged(self, monkeypatch, tmp_path):
        # with the return pull off no nominal is integrated: the same batch with every coupled pass
        # paired, so that the hook gets each row below a copy of itself, writes byte-identical files
        import splatsynth.synthesis as synth_mod
        job = self.blob_job(lambda_max=100.0, return_gain=0.0)
        trajs, manifest = synthesize(job)
        export_dataset(trajs, manifest, tmp_path / "skipped")
        real_integrate = synth_mod._integrate
        rows = set()

        def paired_pass(model, *args, coupling=None, paired=False, **kwargs):
            assert not paired
            if coupling is None:
                return real_integrate(model, *args, paired=False, **kwargs)

            def counted(step, y, v):
                rows.add(len(y))
                return coupling(step, y, v)
            return real_integrate(model, *args, coupling=counted, paired=True, **kwargs)

        monkeypatch.setattr(synth_mod, "_integrate", paired_pass)
        trajs, manifest = synthesize(job)
        export_dataset(trajs, manifest, tmp_path / "nominal")
        assert rows == {2 * job.n_demos}
        names = sorted(p.name for p in (tmp_path / "skipped").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "nominal").iterdir())
        for name in names:
            assert (tmp_path / "skipped" / name).read_bytes() == (tmp_path / "nominal" / name).read_bytes()

    @pytest.mark.parametrize("kind", ["line", "letter"])
    def test_pull_without_a_splat_in_reach_leaves_the_nominal(self, kind):
        # the coupled job's one splat moved 100 m away: no rollout meets it, so the repulsion never
        # acts, and with the return pull on every rollout is bit-equal to the uncoupled one
        job = coupled_job(kind, n_demos=8)
        assert job.obstacle.return_gain > 0.0 and job.obstacle.lambda_max > 0.0
        far = GaussianScene([GaussianBlob([100.0, 0.0, 0.0], 0.02 ** 2 * np.eye(3), 1.0)])
        nominal, _ = synthesize(dataclasses.replace(job, scene=None))
        coupled, _ = synthesize(dataclasses.replace(job, scene=far))
        assert [t.to_csv() for t in coupled] == [t.to_csv() for t in nominal]


def coupled_job(kind, n_demos=16):
    """A job whose every segment runs a nominal and a coupled batch: the line
    demo past one blob (Criterion 05), or the two-segment letter A with a
    blob beside its first stroke."""
    if kind == "line":
        demo, mu = line_demo([0, 0, 0], [0.4, 0, 0], n=151), [0.2, 0.004, 0.0]
    else:
        demo, mu = letter_a_demo(), [0.03, 0.05, 0.0]
    scene = GaussianScene([GaussianBlob(mu, 0.02 ** 2 * np.eye(3), 1.0)])
    return SynthesisJob(demo=demo, scene=scene, spec=small_spec(seed=8), n_demos=n_demos, dt=0.01,
                        obstacle=ObstacleParams(rho_th=0.005, lambda_max=100.0, gamma=2.0,
                                                lookahead=0.015, return_gain=4.0))


class TestBatchIndependence:
    """A rollout's bytes do not depend on the batch it is made in, nor on
    its position there; a rollout that fails leaves the others untouched."""

    @pytest.mark.parametrize("kind", ["line", "letter"])
    def test_any_batch_any_position(self, kind):
        job = coupled_job(kind)
        models = fit_segments(job)
        alone = [synthesize_one(job, models, i) for i in range(job.n_demos)]
        assert len({traj.to_csv() for traj, _ in alone}) == job.n_demos
        for indices in ([5, 0, 11], [11, 5, 0], [0, 11, 5], [15, 14, 13], list(range(16))[::-1]):
            for i, (traj, entry) in zip(indices, _synthesize_rows(job, models, indices)):
                assert traj.to_csv() == alone[i][0].to_csv()
                assert entry == alone[i][1]

    def test_nan_hook_row_fails_alone(self, monkeypatch, tmp_path):
        import splatsynth.synthesis as synth_mod
        job = coupled_job("line", n_demos=4)
        clean, clean_manifest = synthesize(job)
        real_make = synth_mod.make_coupling

        def nan_for_row_1(*args):
            hook = real_make(*args)

            def wrapped(step, y, v):
                a = hook(step, y, v)
                if step == 9:
                    a[len(a) // 2 + 1] = np.nan   # rollout 1's coupled row, below the nominals
                return a
            return wrapped

        monkeypatch.setattr(synth_mod, "make_coupling", nan_for_row_1)
        trajs, manifest = synthesize(job)
        assert manifest["rollouts"][1] == {"index": 1, "status": "failed",
                                           "error": "non-finite state at step 9", "perturbations": []}
        assert trajs[1] is None
        for i in (0, 2, 3):
            assert trajs[i].to_csv() == clean[i].to_csv()
            assert manifest["rollouts"][i] == clean_manifest["rollouts"][i]

    def test_nan_hook_row_fails_alone_in_a_later_segment(self, monkeypatch):
        # row 1 dies in segment 1, after its segment 0 is in the chain: the
        # rows that finish take their own samples from every segment's block
        import splatsynth.synthesis as synth_mod
        job = coupled_job("letter", n_demos=4)
        clean, clean_manifest = synthesize(job)
        real_make = synth_mod.make_coupling
        segments = []

        def nan_for_row_1_in_segment_1(*args):
            hook, segment = real_make(*args), len(segments)
            segments.append(segment)

            def wrapped(step, y, v):
                a = hook(step, y, v)
                if segment == 1 and step == 9:
                    a[len(a) // 2 + 1] = np.nan
                return a
            return wrapped

        monkeypatch.setattr(synth_mod, "make_coupling", nan_for_row_1_in_segment_1)
        trajs, manifest = synthesize(job)
        assert segments == [0, 1]
        assert manifest["rollouts"][1] == {"index": 1, "status": "failed",
                                           "error": "non-finite state at step 9", "perturbations": []}
        assert trajs[1] is None
        for i in (0, 2, 3):
            assert trajs[i].to_csv() == clean[i].to_csv()
            assert manifest["rollouts"][i] == clean_manifest["rollouts"][i]

    def test_failed_nominal_row_skips_its_coupled_rollout(self, monkeypatch):
        # rollout 0's nominal fails at step 5 and its coupled row at step 2: the rollout fails at its
        # nominal's step; rollout 1's coupled row alone fails at step 4, and rollout 2 alone goes on,
        # beside its nominal, into the second segment
        import splatsynth.synthesis as synth_mod
        job = coupled_job("letter", n_demos=3)
        clean, _ = synthesize(job)
        real_make = synth_mod.make_coupling
        rows = []   # per segment, the rows its hook gets

        def failing_rows(*args):
            hook, segment = real_make(*args), len(rows)
            rows.append(set())

            def wrapped(step, y, v):
                rows[segment].add(len(y))
                a = hook(step, y, v)
                for row, at in ((0, 5), (3, 2), (4, 4)):   # rows [0, 3) are the nominals of rows [3, 6)
                    if segment == 0 and step == at:
                        a[row] = np.nan
                return a
            return wrapped

        monkeypatch.setattr(synth_mod, "make_coupling", failing_rows)
        trajs, manifest = synthesize(job)
        assert rows == [{6}, {2}]
        assert [e.get("error") for e in manifest["rollouts"]] == ["non-finite state at step 5",
                                                                   "non-finite state at step 4", None]
        assert trajs[:2] == [None, None]
        assert trajs[2].to_csv() == clean[2].to_csv()


class TestRowBlocks:
    """_synthesize_rows carries its rollouts as row arrays from integration
    to chaining and builds one Trajectory per finished rollout."""

    @pytest.mark.parametrize("kind", ["line", "letter"])
    def test_one_trajectory_per_finished_row(self, monkeypatch, kind):
        job = coupled_job(kind)
        models = fit_segments(job)
        built = []
        init = Trajectory.__post_init__

        def counted(traj):
            built.append(traj)
            init(traj)

        monkeypatch.setattr(Trajectory, "__post_init__", counted)
        out = _synthesize_rows(job, models, range(job.n_demos))
        assert len(built) == job.n_demos
        assert [id(t) for t in built] == [id(traj) for traj, _ in out]


class TestCoupledBatchLog:
    """Each coupled segment batch logs one DEBUG line through the
    splatsynth.synthesis logger: its rows and steps, the first step that
    called its hook, or "free", and its hook's neighbour list rebuilds,
    listed and kept pairs, gradient probe rows answered from the list, and
    how many of the scene's inverse covariances are formed, of all."""

    LINE = (r"segment (\d+): (\d+) rows, (\d+) steps, coupled from step (\d+), "
            r"neighbour list: (\d+) rebuilds, (\d+) listed pairs, (\d+) kept, "
            r"(\d+) probe rows, inverse covariances formed: (\d+) of (\d+)")

    def test_one_line_per_coupled_segment(self, caplog, monkeypatch):
        job = coupled_job("letter", n_demos=3)
        make, first = synthesis.make_coupling, []

        def spied(*args):   # records the steps each hook is called at, and keeps its attributes
            hook, called = make(*args), []

            def counted(step, y, v):
                called.append(step)
                return hook(step, y, v)

            def quiet(y, v, paired):
                k = hook.quiet(y, v, paired)
                counted.quiet_steps = hook.quiet_steps
                return k
            first.append(called)
            counted.quiet, counted.quiet_steps, counted.neighbors = quiet, 0, hook.neighbors
            return counted
        monkeypatch.setattr(synthesis, "make_coupling", spied)
        with caplog.at_level(logging.DEBUG, logger="splatsynth"):
            synthesize(job)
        lines = [r.getMessage() for r in caplog.records if r.name == "splatsynth.synthesis"]
        assert len(lines) == job.demo.n_segments == 2
        for k, (line, model, called) in enumerate(zip(lines, fit_segments(job), first)):
            got = [int(v) for v in re.fullmatch(self.LINE, line).groups()]
            steps = rollout_steps(model.canonical.tau, job.dt, job.horizon_factor)
            assert got[:4] == [k, 3, steps, called[0]] and called == list(range(called[0], steps))
            rebuilds, listed, kept, probed, formed, splats = got[4:]
            assert 1 <= rebuilds < got[2] and 0 < kept <= listed and formed == splats == 1
            assert probed > 0 and probed % 6 == 0   # six probes per active row
        assert first[1][0] > 0   # the look-ahead ran segment 1's first steps free

    def test_a_segment_the_hook_never_acts_on_logs_free(self, caplog):
        job = dataclasses.replace(coupled_job("letter", n_demos=3),
                                  scene=GaussianScene([GaussianBlob([5.0, 5.0, 5.0], 0.02 ** 2 * np.eye(3), 1.0)]))
        with caplog.at_level(logging.DEBUG, logger="splatsynth"):
            synthesize(job)
        lines = [r.getMessage() for r in caplog.records if r.name == "splatsynth.synthesis"]
        for k, (line, model) in enumerate(zip(lines, fit_segments(job))):
            steps = rollout_steps(model.canonical.tau, job.dt, job.horizon_factor)
            assert line == (f"segment {k}: 3 rows, {steps} steps, free, neighbour list: 0 rebuilds, "
                            "0 listed pairs, 0 kept, 0 probe rows, inverse covariances formed: 1 of 1")

    def test_a_wrapped_hook_logs_question_marks(self, caplog, monkeypatch):
        # a hook wrapped as bench/tracing.py wraps it hides its neighbour list
        make = synthesis.make_coupling

        def wrapped(*args):
            hook = make(*args)
            return lambda step, y, v: hook(step, y, v)
        monkeypatch.setattr(synthesis, "make_coupling", wrapped)
        job = coupled_job("line", n_demos=2)
        steps = rollout_steps(fit_segments(job)[0].canonical.tau, job.dt, job.horizon_factor)
        with caplog.at_level(logging.DEBUG, logger="splatsynth"):
            synthesize(job)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "splatsynth.synthesis"]
        assert line == (f"segment 0: 2 rows, {steps} steps, coupled from step ?, neighbour list: ? rebuilds, "
                        "? listed pairs, ? kept, ? probe rows, inverse covariances formed: 1 of 1")

    def test_a_moved_scene_counts_the_inverses_its_reads_formed(self, caplog):
        # a moved scene forms each splat's inverse covariance at its first read: the hook reads the blob
        # beside the stroke, and not the far ones
        job = coupled_job("letter", n_demos=3)
        far = [GaussianBlob([5.0 + k, 5.0, 5.0], 0.02 ** 2 * np.eye(3), 1.0) for k in range(3)]
        scene = apply_transform(GaussianScene([GaussianBlob(job.scene.means[0], job.scene.covariances[0], 1.0),
                                               *far]), RigidTransform.identity())
        with caplog.at_level(logging.DEBUG, logger="splatsynth"):
            synthesize(dataclasses.replace(job, scene=scene))
        lines = [r.getMessage() for r in caplog.records if r.name == "splatsynth.synthesis"]
        assert [re.fullmatch(self.LINE, line).groups()[-2:] for line in lines] == [("1", "4")] * 2
        assert scene._inverses_formed() == 1

    def test_no_line_above_debug_or_without_a_scene(self, caplog):
        with caplog.at_level(logging.INFO, logger="splatsynth"):
            synthesize(coupled_job("line", n_demos=2))
        with caplog.at_level(logging.DEBUG, logger="splatsynth"):
            synthesize(make_job(n_demos=2))
        assert not [r for r in caplog.records if r.name == "splatsynth.synthesis"]


class TestExportDataset:
    def test_files_written(self, tmp_path):
        job = make_job(spec=small_spec(seed=4), n_demos=3)
        trajs, manifest = synthesize(job)
        files = export_dataset(trajs, manifest, tmp_path)
        assert files == ["rollout_0000.csv", "rollout_0001.csv", "rollout_0002.csv"]
        for name in files:
            assert (tmp_path / name).exists()
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert [e["file"] for e in man["rollouts"]] == files
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "index,file,dtw_position,dtw_orientation"
        assert len(lines) == 4

    def test_reexport_byte_identical(self, tmp_path):
        job = make_job(spec=small_spec(seed=4), n_demos=2)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        trajs, manifest = synthesize(job)
        export_dataset(trajs, manifest, out_a)
        trajs2, manifest2 = synthesize(job)
        export_dataset(trajs2, manifest2, out_b)
        for name in ["rollout_0000.csv", "rollout_0001.csv",
                     "manifest.json", "summary.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_roundtrip_load(self, tmp_path):
        from splatsynth.geometry import Trajectory
        job = make_job(spec=small_spec(seed=4), n_demos=1)
        trajs, manifest = synthesize(job)
        export_dataset(trajs, manifest, tmp_path)
        back = Trajectory.load_csv(tmp_path / "rollout_0000.csv")
        assert np.array_equal(back.positions, trajs[0].positions)
        assert back.splits == trajs[0].splits

    def test_failed_rollouts_skipped(self, tmp_path):
        job = make_job(n_demos=1)
        trajs, manifest = synthesize(job)
        trajs.append(None)
        manifest["rollouts"].append({"index": 1, "status": "failed",
                                     "error": "x", "perturbations": []})
        files = export_dataset(trajs, manifest, tmp_path)
        assert files == ["rollout_0000.csv"]
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["rollouts"][1]["file"] is None


def bench_inputs(monkeypatch):
    """bench/inputs.py, which writes the eval benchmark's rollout files, as the module bench_inputs."""
    spec = importlib.util.spec_from_file_location("bench_inputs", Path(__file__).resolve().parent.parent
                                                  / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_inputs", module)   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_written_and_benchmark_files_load_in_one_pass(tmp_path, monkeypatch):
    """Every file export_dataset writes, coupled or not and with sigma_r 0 or
    not, and the eval benchmark's letter-A rollouts load without the per-row
    parse, which runs only for files the one np.loadtxt pass refuses."""
    for name, job in [("line", coupled_job("line", n_demos=3)), ("letter", coupled_job("letter", n_demos=3)),
                      ("rotated", make_job(spec=small_spec(seed=2, sigma_r=0.1, bound_r=0.2), n_demos=3))]:
        export_dataset(*synthesize(job), tmp_path / name)
    inputs = bench_inputs(monkeypatch)
    (tmp_path / "eval").mkdir()
    for i, text in enumerate(inputs.eval_rollouts(7, inputs.LetterA(), 3)):
        (tmp_path / "eval" / f"rollout_{i:04d}.csv").write_text(text)
    paths = sorted(tmp_path.glob("*/rollout_*.csv"))
    assert len(paths) == 12

    row_values = geometry._row_values

    def per_row(rows, unit):
        if unit == "row":   # a CSV file's rows; a JSON file's samples take this parse too
            raise AssertionError("a file took the per-row parse")
        return row_values(rows, unit)

    monkeypatch.setattr(geometry, "_row_values", per_row)
    for path in paths:
        Trajectory.load_csv(path)
    # a quoted cell, which only the per-row parse reads, shows that the patch is in place
    quoted = tmp_path / "quoted.csv"
    lines = (tmp_path / "eval" / "rollout_0000.csv").read_text().splitlines()
    quoted.write_text("\n".join([lines[0], '"' + lines[1].replace(",", '",', 1), *lines[2:]]) + "\n")
    with pytest.raises(AssertionError, match="took the per-row parse"):
        Trajectory.load_csv(quoted)


def export_rows(n, seed, t0=0.0, zero_at=None, splits=(), qseed=None, qx=None):
    """A rollout of n samples with its own positions and orientations; t
    starts at t0, and gripper holds -0.0 at zero_at and 0.0 elsewhere.  The
    orientations are drawn from qseed instead, when it is given, so that
    rollouts share them; with qx, sample 5's is (1, qx, 0, 0)."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    if qseed is not None:
        q = np.random.default_rng(qseed).normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    if qx is not None:
        q[5] = 1.0, qx, 0.0, 0.0
    times = 0.01 * np.arange(n)
    times[0] = t0
    gripper = np.zeros(n)
    if zero_at is not None:
        gripper[zero_at] = -0.0
    return Trajectory(times, rng.normal(size=(n, 3)), q, gripper, [0, *splits, n - 1])


class TestSharedColumnText:
    """export_dataset formats the t, gripper and split-flag columns and the
    quaternion block once and reuses that text for a later rollout whose
    column has the same bits: every file still equals its own traj.to_csv()."""

    @pytest.mark.parametrize("batch", [
        # one batch's shared columns, as synthesize makes them
        [dict(n=20, seed=k) for k in range(4)],
        # t or gripper that differ from the last rollout's only by -0.0 against 0.0
        [dict(n=20, seed=0), dict(n=20, seed=1, t0=-0.0), dict(n=20, seed=2), dict(n=20, seed=3, t0=-0.0)],
        [dict(n=20, seed=0), dict(n=20, seed=1, zero_at=5), dict(n=20, seed=2, zero_at=5), dict(n=20, seed=3)],
        # mixed lengths, the shorter t a prefix of the longer
        [dict(n=20, seed=0), dict(n=31, seed=1), dict(n=20, seed=2), dict(n=20, seed=3), dict(n=31, seed=4)],
        # one length, differing splits
        [dict(n=20, seed=0), dict(n=20, seed=1, splits=(7,)), dict(n=20, seed=2, splits=(7, 12)), dict(n=20, seed=3)],
        # one quaternion block for the batch, as with sigma_r 0
        [dict(n=20, seed=k, qseed=0) for k in range(4)],
        # shared, distinct, and shared again after a distinct one
        [dict(n=20, seed=0, qseed=0), dict(n=20, seed=1, qseed=0), dict(n=20, seed=2),
         dict(n=20, seed=3, qseed=0), dict(n=20, seed=4, qseed=1), dict(n=31, seed=5, qseed=0)],
        # quaternion blocks that differ from the last rollout's only by -0.0 against 0.0
        [dict(n=20, seed=0, qseed=0, qx=0.0), dict(n=20, seed=1, qseed=0, qx=-0.0),
         dict(n=20, seed=2, qseed=0, qx=-0.0), dict(n=20, seed=3, qseed=0, qx=0.0)],
    ], ids=["shared", "signed_zero_t", "signed_zero_gripper", "mixed_lengths", "differing_splits",
            "shared_quaternions", "mixed_quaternions", "signed_zero_quaternions"])
    def test_every_file_equals_its_own_text(self, tmp_path, batch):
        trajs = [export_rows(**kw) for kw in batch]
        manifest = {"rollouts": [{"index": i, "dtw_position": 0.0, "dtw_orientation": 0.0}
                                 for i in range(len(trajs))]}
        files = export_dataset(trajs, manifest, tmp_path)
        assert len(files) == len(trajs)
        for name, traj in zip(files, trajs):
            assert (tmp_path / name).read_bytes() == traj.to_csv().encode(), name

    def test_signed_zeros_reach_the_text(self):
        assert export_rows(20, 0, t0=-0.0).to_csv().splitlines()[1].startswith("-0.0,")
        assert export_rows(20, 0, zero_at=5).to_csv().splitlines()[6].endswith(",-0.0,0")
        assert ",1.0,-0.0,0.0,0.0,0.0,0" in export_rows(20, 0, qseed=0, qx=-0.0).to_csv().splitlines()[6]


class TestJobValidation:
    def test_rejects_bad_n_demos(self):
        with pytest.raises(ValueError):
            make_job(n_demos=0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            make_job(dt=-0.01)

    def test_perturbable_length_mismatch(self):
        # the letter-A demo has 3 splits; the job is refused before any fit
        spec = PerturbationSpec(sigma_p=[0.01] * 3, bound_p=[0.02] * 3,
                                perturbable=(False, True), seed=0)
        with pytest.raises(ValueError, match=r"^spec\.perturbable .*\(3\), got 2$"):
            make_job(demo=letter_a_demo(), spec=spec)

    def test_rejects_bad_sigma_p(self):
        for sigma_p in ([-0.01, 0.0, 0.0], [0.01, 0.01], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
            with pytest.raises(ValueError, match="^sigma_p "):
                PerturbationSpec(sigma_p=sigma_p, bound_p=[0.02] * 3)

    def test_rejects_bad_sigma_r(self):
        for sigma_r in (-1.0, -1e-300, np.inf, np.nan):
            with pytest.raises(ValueError, match="^sigma_r must be finite and non-negative"):
                PerturbationSpec(sigma_r=sigma_r, bound_r=0.1)

    def test_infinite_bounds_accepted(self):
        spec = PerturbationSpec(sigma_p=[0.01] * 3, bound_p=[np.inf] * 3, sigma_r=0.1, bound_r=np.inf)
        assert np.all(np.isinf(spec.bound_p)) and spec.bound_r == np.inf

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed "):
            PerturbationSpec(seed=-1)

    def test_rejects_dt_coarser_than_shortest_segment(self):
        demo = letter_a_demo()
        tau = min(demo.segment(k).times[-1] - demo.segment(k).times[0]
                  for k in range(demo.n_segments))
        make_job(demo=demo, dt=tau / 50.0)
        with pytest.raises(ValueError, match="^dt must be <= tau/50"):
            make_job(demo=demo, dt=np.nextafter(tau / 50.0, 1.0))

    def test_shortest_segment_bounds_dt_and_longest_the_steps(self):
        # the letter A with its second segment ten times slower: the first bounds
        # dt, and at dt = 1e-4 the second takes 125000 steps, past the budget
        demo = letter_a_demo()
        times = np.where(demo.times > 1.0, 1.0 + 10.0 * (demo.times - 1.0), demo.times)
        demo = Trajectory(times, demo.positions, demo.quaternions, demo.gripper, demo.splits)
        make_job(demo=demo, dt=1e-4, horizon_factor=0.75)
        with pytest.raises(FieldError, match=r"^dt must be <= tau/50 = 0.02 and positive, got 0.021$"):
            make_job(demo=demo, dt=0.021)
        with pytest.raises(FieldError, match=r"^dt must keep horizon \* tau / dt within 100000 steps, "
                                             r"got 125000 at tau = 10.0$"):
            make_job(demo=demo, dt=1e-4)

    def test_n_basis_at_most_the_shortest_segment(self):
        # the letter-A demo's shortest segment has 80 samples, as fit_dmp counts them
        demo = letter_a_demo()
        assert len(fit_segments(make_job(demo=demo, n_basis=80))) == 2
        with pytest.raises(FieldError, match=r"^n_basis must be <= 80, .* got 81$") as exc:
            make_job(demo=demo, n_basis=81)
        assert exc.value.field == "n_basis"

    def test_demo_segments_hold_the_samples_fit_needs(self):
        # fit_dmp needs MIN_SEGMENT_SAMPLES samples whatever n_basis; below that the demo is at fault
        short = line_demo([0, 0, 0], [0.4, 0, 0], n=MIN_SEGMENT_SAMPLES - 1)
        with pytest.raises(FieldError, match=rf"^demo every segment must hold at least {MIN_SEGMENT_SAMPLES} "
                                             rf"samples, the shortest holds {MIN_SEGMENT_SAMPLES - 1}$") as exc:
            make_job(demo=short, n_basis=2)
        assert exc.value.field == "demo"
        assert len(fit_segments(make_job(demo=line_demo([0, 0, 0], [0.4, 0, 0], n=MIN_SEGMENT_SAMPLES),
                                         n_basis=2))) == 1

    @pytest.mark.parametrize("make, field, message", [
        (lambda: PerturbationSpec(seed=-1), "seed", "seed must be non-negative, got -1"),
        (lambda: PerturbationSpec(bound_p=[0.0, -1.0, 0.0]), "bound_p",
         "bound_p must be non-negative, got [0.0, -1.0, 0.0]"),
        (lambda: ObstacleParams(gamma=-1.0), "gamma", "gamma must be non-negative, at most 1e6, got -1.0"),
        (lambda: make_job(n_demos=0), "n_demos", "n_demos must be at least 1, at most 1e6, got 0"),
        (lambda: make_job(horizon_factor=math.inf), "horizon_factor",
         "horizon_factor must be finite and positive, got inf"),
        (lambda: make_job(spec=PerturbationSpec(perturbable=(True,))), "spec.perturbable",
         "spec.perturbable must hold one flag per demo split (3), got 1"),
    ])
    def test_errors_name_their_field(self, make, field, message):
        with pytest.raises(FieldError) as exc:
            make()
        assert (exc.value.field, str(exc.value)) == (field, message)
        assert str(exc.value) == f"{exc.value.field} {exc.value.detail}"

    def test_single_segment_line(self):
        demo = line_demo([0, 0, 0], [0.3, 0, 0], n=120)
        job = make_job(demo=demo, spec=small_spec(seed=6), n_demos=2)
        trajs, manifest = synthesize(job)
        assert all(t is not None for t in trajs)
        for traj, entry in zip(trajs, manifest["rollouts"]):
            dp = np.array(entry["perturbations"][0]["dp"])
            assert np.linalg.norm(traj.positions[-1] - ([0.3, 0, 0] + dp)) < 1e-3
