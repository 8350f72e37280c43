import math

import numpy as np
import pytest

from splatsynth.geometry import (
    Pose,
    Trajectory,
    TrajectoryError,
    quat_canonical,
    quat_exp,
    quat_from_axis_angle,
    quat_geodesic_distance,
    quat_log,
    quat_mul,
    quat_normalize,
    unwrap_rotation_vectors,
)


def random_unit_quats(n, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


class TestQuatLog:
    def test_identity(self):
        assert np.allclose(quat_log(np.array([1.0, 0, 0, 0])), [0, 0, 0])

    def test_90deg_about_z(self):
        q = np.array([math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)])
        assert np.allclose(quat_log(q), [0, 0, math.pi / 2])

    def test_round_trip_random(self):
        # round-trip oracle: exp(log(q)) must equal q up to sign
        for q in random_unit_quats(1000, seed=1):
            r = quat_log(q)
            assert np.linalg.norm(r) <= math.pi + 1e-12
            q2 = quat_exp(r)
            err = min(np.linalg.norm(q2 - q), np.linalg.norm(q2 + q))
            assert err < 1e-10


class TestQuatExp:
    def test_zero(self):
        assert np.allclose(quat_exp(np.zeros(3)), [1, 0, 0, 0])

    def test_pi_about_x(self):
        assert np.allclose(quat_exp([math.pi, 0, 0]), [0, 1, 0, 0], atol=1e-12)

    def test_series_branch_unit_norm(self):
        q = quat_exp([1e-10, 0, 0])
        assert abs(np.linalg.norm(q) - 1.0) < 1e-15

    def test_series_matches_exact_branch(self):
        # compare the series branch against the exact formula at a norm where
        # both are accurate
        r = np.array([1e-6, 2e-7, -3e-7])
        theta = np.linalg.norm(r)
        exact = np.array([math.cos(theta / 2), *(r * math.sin(theta / 2) / theta)])
        # force the series path by scaling below the threshold and comparing
        # against the analytically scaled exact result
        small = r * 1e-4
        ts = np.linalg.norm(small)
        exact_small = np.array([math.cos(ts / 2), *(small * math.sin(ts / 2) / ts)])
        assert np.linalg.norm(quat_exp(small) - exact_small) < 1e-12
        assert np.linalg.norm(quat_exp(r) - exact) < 1e-12


class TestGeodesicDistance:
    def test_self_zero(self):
        for q in random_unit_quats(20, seed=2):
            assert quat_geodesic_distance(q, q) < 1e-7

    def test_double_cover(self):
        for q in random_unit_quats(20, seed=3):
            assert quat_geodesic_distance(q, -q) < 1e-7

    def test_identity_vs_90deg(self):
        q = quat_from_axis_angle([0, 0, 1], math.pi / 2)
        assert abs(quat_geodesic_distance(np.array([1.0, 0, 0, 0]), q) - math.pi / 2) < 1e-12

    def test_triangle_inequality(self):
        qs = random_unit_quats(300, seed=4).reshape(100, 3, 4)
        for a, b, c in qs:
            dab = quat_geodesic_distance(a, b)
            dbc = quat_geodesic_distance(b, c)
            dac = quat_geodesic_distance(a, c)
            assert dac <= dab + dbc + 1e-9


class TestUnwrap:
    def test_constant_unchanged(self):
        rs = np.tile([0.1, 0.2, 0.3], (10, 1))
        assert np.allclose(unwrap_rotation_vectors(rs), rs)

    def test_pi_boundary_continuation(self):
        # slow continuous rotation about z crossing pi
        angles = np.linspace(2.9, 3.5, 40)
        quats = [quat_from_axis_angle([0, 0, 1], a) for a in angles]
        raw = [quat_log(q) for q in quats]
        un = unwrap_rotation_vectors(raw)
        steps = np.linalg.norm(np.diff(un, axis=0), axis=1)
        true_inc = angles[1] - angles[0]
        assert steps.max() < 2 * true_inc
        assert un[-1][2] > math.pi  # continued past pi, not reflected

    def test_sign_flip_invariance(self):
        angles = np.linspace(0.1, 2.0, 30)
        quats = [quat_from_axis_angle([0, 1, 0], a) for a in angles]
        flipped = [(-q if i % 3 == 0 else q) for i, q in enumerate(quats)]
        a = unwrap_rotation_vectors([quat_log(q) for q in quats])
        b = unwrap_rotation_vectors([quat_log(q) for q in flipped])
        assert np.allclose(a, b)


class TestCanonicalSign:
    def test_w_nonnegative(self):
        for q in random_unit_quats(50, seed=5):
            qc = quat_canonical(q)
            assert qc[0] > 0 or (qc[0] == 0 and qc[1] >= 0)

    def test_normalize_tolerance(self):
        q = quat_normalize(np.array([2.0, 0.0, 0.0, 0.0]))
        assert abs(np.linalg.norm(q) - 1.0) < 1e-9


def make_traj(n=10, splits=None):
    t = np.linspace(0, 1, n)
    pos = np.stack([t, np.zeros(n), np.zeros(n)], axis=1)
    q = np.tile([1.0, 0, 0, 0], (n, 1))
    return Trajectory(t, pos, q, np.zeros(n), splits or [])


class TestTrajectory:
    def test_default_splits(self):
        traj = make_traj(5)
        assert traj.splits == [0, 4]
        assert traj.n_segments == 1

    def test_rejects_nonmonotone_times(self):
        t = np.array([0.0, 0.5, 0.4, 1.0])
        with pytest.raises(TrajectoryError):
            Trajectory(t, np.zeros((4, 3)), np.tile([1.0, 0, 0, 0], (4, 1)), np.zeros(4))

    def test_rejects_bad_splits(self):
        with pytest.raises(TrajectoryError):
            make_traj(10, splits=[0, 5, 5, 9])
        with pytest.raises(TrajectoryError):
            make_traj(10, splits=[1, 9])
        with pytest.raises(TrajectoryError):
            make_traj(10, splits=[0, 5])

    def test_segment_extraction(self):
        traj = make_traj(10, splits=[0, 4, 9])
        seg = traj.segment(0)
        assert len(seg) == 5
        assert seg.times[0] == traj.times[0]
        seg1 = traj.segment(1)
        assert np.allclose(seg1.positions[0], traj.positions[4])

    def test_csv_round_trip(self, tmp_path):
        traj = make_traj(10, splits=[0, 4, 9])
        path = tmp_path / "t.csv"
        traj.save_csv(path)
        back = Trajectory.load_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.positions, traj.positions)
        assert np.array_equal(back.quaternions, traj.quaternions)
        assert back.splits == traj.splits

    def test_json_round_trip(self, tmp_path):
        traj = make_traj(8, splits=[0, 3, 7])
        path = tmp_path / "t.json"
        with open(path, "w") as f:
            f.write(traj.to_json())
        back = Trajectory.load_json(path)
        assert np.allclose(back.positions, traj.positions)
        assert back.splits == traj.splits

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(TrajectoryError):
            Trajectory.load_csv(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_quaternion(self, bad):
        # abs(nan - 1) > 1e-6 is False, so the unit-norm check let NaN through
        q = np.tile([1.0, 0, 0, 0], (4, 1))
        q[2, 1] = bad
        with pytest.raises(TrajectoryError, match="non-finite"):
            Trajectory(np.arange(4.0), np.zeros((4, 3)), q, np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_nonfinite_gripper(self, bad):
        grip = np.zeros(4)
        grip[1] = bad
        with pytest.raises(TrajectoryError, match="non-finite"):
            Trajectory(np.arange(4.0), np.zeros((4, 3)), np.tile([1.0, 0, 0, 0], (4, 1)), grip)

    @pytest.mark.parametrize("column", ["qx", "gripper"])
    def test_load_csv_rejects_nan(self, tmp_path, column):
        path = tmp_path / "t.csv"
        make_traj(6).save_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[3].split(",")
        row[header.index(column)] = "nan"
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrajectoryError, match="non-finite"):
            Trajectory.load_csv(path)


class TestPose:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pose(np.array([np.nan, 0, 0]), np.array([1.0, 0, 0, 0]))

    def test_normalizes_quaternion(self):
        p = Pose(np.zeros(3), np.array([0.0, 0.0, 0.0, 2.0]))
        assert abs(np.linalg.norm(p.orientation) - 1.0) < 1e-12
