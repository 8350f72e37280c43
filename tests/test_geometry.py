import csv
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splatsynth.cli import main
from splatsynth.geometry import (
    Pose,
    Trajectory,
    TrajectoryError,
    SMALL_ANGLE,
    quat_canonical,
    quat_conj,
    quat_exp,
    quat_from_axis_angle,
    quat_geodesic_distance,
    quat_log,
    quat_mul,
    quat_normalize,
    rowdot,
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


class TestRowdot:
    @pytest.mark.parametrize("d", [3, 4])
    def test_equals_np_dot_per_row(self, d):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(5000, d)) * rng.uniform(0.0, 10.0, (5000, 1))
        b = rng.normal(size=(5000, d))
        ref = np.array([np.dot(x, y) for x, y in zip(a, b)])
        padded = np.zeros((5000, d + 2))
        padded[:, 1:-1] = a
        for rows in (a, np.asfortranarray(a), padded[:, 1:-1]):
            assert np.array_equal(rowdot(rows, b), ref)
        assert np.array_equal(rowdot(a.reshape(50, 100, d), b.reshape(50, 100, d)).reshape(-1), ref)
        assert np.array_equal(rowdot(a[:1], b), [np.dot(a[0], y) for y in b])
        assert all(rowdot(x, y) == np.dot(x, y) for x, y in zip(a[:100], b[:100]))


class TestQuaternionRows:
    """The quaternion functions give each (..., 4) or (..., 3) row exactly
    what they give that row alone."""

    def test_exp_rows(self):
        rng = np.random.default_rng(12)
        r = np.concatenate([rng.normal(size=(300, 3)) * rng.uniform(0, 4, (300, 1)),
                            rng.normal(size=(20, 3)) * 1e-9, np.zeros((2, 3))])
        rows = quat_exp(r.reshape(2, 161, 3)).reshape(-1, 4)
        assert all(np.array_equal(q, quat_exp(x)) for q, x in zip(rows, r))

    def test_mul_and_normalize_rows(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(300, 4)), rng.normal(size=(300, 4))
        a[:20, 0] = 0.0
        assert all(np.array_equal(q, quat_mul(x, y)) for q, x, y in zip(quat_mul(a, b), a, b))
        assert all(np.array_equal(q, quat_normalize(x)) for q, x in zip(quat_normalize(a), a))
        assert np.array_equal(quat_mul(a[0], b), quat_mul(np.tile(a[0], (300, 1)), b))

    def test_canonical_rows(self):
        q = np.array([[-0.5, 0.5, 0.5, 0.5], [0.0, -1.0, 0.0, 0.0],
                      [0.0, 0.0, -1.0, 0.0], [0.5, -0.5, 0.5, 0.5]])
        expect = [[0.5, -0.5, -0.5, -0.5], [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, -1.0, 0.0], [0.5, -0.5, 0.5, 0.5]]
        assert np.array_equal(quat_canonical(q), expect)
        traj = Trajectory(np.arange(4.0), np.zeros((4, 3)), q, np.zeros(4))
        assert np.array_equal(traj.quaternions, expect)

    def test_conj_rows(self):
        """Each (..., 4) row is conjugated, with the bits of negating x, y and z, -0.0 and NaN included."""
        rng = np.random.default_rng(14)
        q = rng.normal(size=(6, 4))
        q[0] = [0.0, -0.0, 0.0, np.nan]
        q[1] = [-0.0, np.inf, -np.inf, 0.0]
        rows = quat_conj(q)
        assert rows.shape == (6, 4)
        want = np.array([[w, -x, -y, -z] for w, x, y, z in q])
        assert rows.tobytes() == want.tobytes()
        assert quat_conj(q.reshape(2, 3, 4)).tobytes() == want.tobytes()
        assert all(quat_conj(x).tobytes() == y.tobytes() for x, y in zip(q, want))

    @staticmethod
    def log_row(q):
        """quat_log of one (4,) row, as it was computed one row at a time: the oracle of quat_log's rows."""
        q = np.asarray(q, dtype=float)
        if q[0] < 0.0:
            q = -q
        w = min(q[0], 1.0)
        v = q[1:4]
        n = np.linalg.norm(v)
        if n < SMALL_ANGLE:
            scale = 2.0 / w * (1.0 - n * n / (3.0 * w * w))
        else:
            scale = 2.0 * math.atan2(n, w) / n
        return v * scale

    def test_log_rows(self):
        rng = np.random.default_rng(15)
        axes = rng.normal(size=(120, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.concatenate([np.logspace(-12, -3, 60), rng.uniform(0.0, 2 * math.pi, 60)])
        series = np.column_stack([np.cos(angles / 2), axes * np.sin(angles / 2)[:, None]])
        q = np.concatenate([
            random_unit_quats(400, seed=16),   # half with w < 0
            series, -series,                   # the small-angle series, on both signs
            [[1.0 + 2e-16, 0.0, 0.0, 0.0], [1.0 + 4e-16, 1e-9, -2e-9, 0.0],   # w just above 1
             [1.0 + 2e-16, 0.3, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, -0.0, 0.0],
             [0.0, 1.0, 0.0, 0.0], [-0.0, -1.0, 0.0, 0.0]]])
        assert np.count_nonzero(np.linalg.norm(q[:, 1:], axis=1) < SMALL_ANGLE) > 20
        assert np.count_nonzero(q[:, 0] < 0) > 200 and np.count_nonzero(q[:, 0] > 1.0) == 3
        want = np.array([self.log_row(x) for x in q])
        assert quat_log(q).tobytes() == want.tobytes()
        assert quat_log(q[:-1].reshape(2, -1, 4)).tobytes() == want[:-1].tobytes()
        assert all(quat_log(x).shape == (3,) and quat_log(x).tobytes() == y.tobytes() for x, y in zip(q, want))
        assert quat_log(np.empty((0, 4))).shape == (0, 3)


def make_traj(n=10, splits=None):
    t = np.linspace(0, 1, n)
    pos = np.stack([t, np.zeros(n), np.zeros(n)], axis=1)
    q = np.tile([1.0, 0, 0, 0], (n, 1))
    return Trajectory(t, pos, q, np.zeros(n), [] if splits is None else splits)


class TestTrajectory:
    def test_default_splits(self):
        traj = make_traj(5)
        assert traj.splits == [0, 4]
        assert traj.n_segments == 1

    @pytest.mark.parametrize("splits", [np.array([0, 4, 9]), (0, 4, 9), range(0, 10, 9), np.array([], dtype=int)])
    def test_splits_any_integer_sequence(self, splits):
        traj = make_traj(10, splits=splits)
        assert traj.splits == ([0, 9] if len(splits) < 3 else [0, 4, 9])
        assert all(type(s) is int for s in traj.splits)

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


# ---- trajectory files ---------------------------------------------------------

COLUMNS = ["t", "x", "y", "z", "qw", "qx", "qy", "qz", "gripper", "split"]


def oracle_to_csv(traj):
    """The per-row CSV writer that the sample table replaced."""
    split_set = set(traj.splits)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(COLUMNS)
    for i in range(len(traj)):
        w.writerow([
            repr(float(traj.times[i])),
            *[repr(float(v)) for v in traj.positions[i]],
            *[repr(float(v)) for v in traj.quaternions[i]],
            repr(float(traj.gripper[i])),
            1 if i in split_set else 0,
        ])
    return buf.getvalue()


def oracle_to_json(traj):
    """The per-sample-dict JSON writer that the sample table replaced."""
    split_set = set(traj.splits)
    samples = []
    for i in range(len(traj)):
        samples.append({
            "t": float(traj.times[i]),
            "x": float(traj.positions[i][0]),
            "y": float(traj.positions[i][1]),
            "z": float(traj.positions[i][2]),
            "qw": float(traj.quaternions[i][0]),
            "qx": float(traj.quaternions[i][1]),
            "qy": float(traj.quaternions[i][2]),
            "qz": float(traj.quaternions[i][3]),
            "gripper": float(traj.gripper[i]),
            "split": 1 if i in split_set else 0,
        })
    return json.dumps({"samples": samples}, indent=2, sort_keys=True)


def oracle_load(path):
    """The per-sample-dict loader that the sample table replaced (valid files only)."""
    if str(path).endswith(".json"):
        with open(path) as f:
            rows = json.load(f)["samples"]
    else:
        with open(path, newline="") as f:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]
    splits = [i for i, r in enumerate(rows) if int(r["split"])]
    return Trajectory(np.array([r["t"] for r in rows]),
                      np.array([[r["x"], r["y"], r["z"]] for r in rows]),
                      np.array([[r["qw"], r["qx"], r["qy"], r["qz"]] for r in rows]),
                      np.array([r["gripper"] for r in rows]), splits)


def random_traj(rng):
    """A trajectory with magnitudes from 1e-8 to 1e8, up to 4 inner splits and
    some -0.0 values."""
    n = int(rng.integers(2, 120))
    scale = 10.0 ** rng.uniform(-8, 8)
    t = np.concatenate([[-0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))]) * scale
    pos = rng.normal(size=(n, 3)) * scale
    grip = rng.uniform(-1, 1, n) * scale
    q = rng.normal(size=(n, 4))
    q[:, 1:][rng.random((n, 3)) < 0.1] = -0.0
    pos[rng.random((n, 3)) < 0.1] = -0.0
    grip[rng.random(n) < 0.1] = -0.0
    inner = np.sort(rng.choice(np.arange(1, n - 1), min(int(rng.integers(0, 5)), max(n - 2, 0)), replace=False))
    return Trajectory(t, pos, q / np.linalg.norm(q, axis=1, keepdims=True), grip,
                      [0, *inner.tolist(), n - 1])


class TestTrajectoryFiles:
    def test_writers_match_per_row_oracles(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            traj = random_traj(rng)
            assert traj.to_csv() == oracle_to_csv(traj)
            assert traj.to_json() == oracle_to_json(traj)

    def test_writes_negative_zero_and_extremes(self):
        traj = Trajectory([-0.0, 1e-300, 1e300], [[-0.0, 0.1, -1e-8]] * 3,
                          [[1.0, -0.0, 0.0, 0.0]] * 3, [-0.0, 5e-324, 1.7976931348623157e308])
        assert traj.to_csv().splitlines()[1] == "-0.0,-0.0,0.1,-1e-08,1.0,-0.0,0.0,0.0,-0.0,1"
        assert traj.to_csv() == oracle_to_csv(traj)
        assert traj.to_json() == oracle_to_json(traj)

    def test_loaders_match_per_row_oracle(self, tmp_path):
        rng = np.random.default_rng(21)
        for k in range(100):
            traj = random_traj(rng)
            for path, text in ((tmp_path / "t.csv", traj.to_csv()), (tmp_path / "t.json", traj.to_json())):
                path.write_text(text)
                back, expect = Trajectory.load(path), oracle_load(path)
                for name in ("times", "positions", "quaternions", "gripper"):
                    assert np.array_equal(getattr(back, name), getattr(expect, name)), (k, path, name)
                assert back.splits == expect.splits == traj.splits

    def test_csv_blank_rows_padded_and_quoted_cells(self, tmp_path):
        # blank rows, padded header names, quoted and padded cells, "1.0" flags
        path = tmp_path / "t.csv"
        path.write_text(" t , x,y,z,qw,qx,qy,qz,gripper,split\n\n"
                        '0,"1",2,3, 1 ,0,0,0,0,1.0\n\n'
                        "0.5,1_0,2,3,1,0,0,0,0,0\n1,1e1,2,3,1,0,0,0,0,1\n\n")
        traj = Trajectory.load_csv(path)
        assert np.array_equal(traj.positions[:, 0], [1.0, 10.0, 10.0])
        assert traj.splits == [0, 2]

    @pytest.mark.parametrize("row, message", [
        ("0.5,1,2,3,1,0,0,0,0", "row 1: expected 10 values, got 9"),
        ("0.5,1,2,3,1,0,0,0,0,0,1", "row 1: expected 10 values, got 11"),
        ("0.5,1,abc,3,1,0,0,0,0,0", "row 1: could not convert string to float: 'abc'"),
        ("0.5,1,2,3,1,0,0,0,0,2", "row 1: split flag must be 0 or 1, got 2"),
        ("0.5,1,2,3,1,0,0,0,0,0.5", "row 1: split flag must be 0 or 1, got 0.5"),
        ("0.5,1,2,3,1,0,0,0,0,nan", "row 1: split flag must be 0 or 1, got nan"),
    ])
    def test_csv_rejects(self, tmp_path, row, message):
        path = tmp_path / "t.csv"
        path.write_text(",".join(COLUMNS) + f"\n0,1,2,3,1,0,0,0,0,1\n{row}\n1,1,2,3,1,0,0,0,0,1\n")
        with pytest.raises(TrajectoryError) as info:
            Trajectory.load_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_csv_field_over_the_reader_limit(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(",".join(COLUMNS) + "\n" + "1" * 200_000 + "\n")
        with pytest.raises(TrajectoryError, match="field larger than field limit"):
            Trajectory.load_csv(path)

    def test_csv_number_over_the_reader_limit(self, tmp_path):
        # x is 0.0 written with 200 000 digits, which float() and np.loadtxt read but csv.reader refuses
        path = tmp_path / "t.csv"
        path.write_text(",".join(COLUMNS) + "\n0,0." + "0" * 200_000 + ",0,0,1,0,0,0,0,1\n1,0,0,0,1,0,0,0,0,1\n")
        with pytest.raises(TrajectoryError, match="field larger than field limit"):
            Trajectory.load_csv(path)

    @pytest.mark.parametrize("doc, message", [
        ({"samples": [1]}, "sample 0: expected an object, got 1"),
        ({"samples": 5}, "expected a JSON object with a 'samples' list"),
        ({}, "expected a JSON object with a 'samples' list"),
        ("samples", "expected a JSON object with a 'samples' list"),
        ([{"t": 0}], "expected a JSON object with a 'samples' list"),
        (None, "expected a JSON object with a 'samples' list"),
        ({"samples": [{"x": 1.0}]}, "sample 0: expected a number at key 't'"),
    ])
    def test_json_rejects_document(self, tmp_path, doc, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TrajectoryError) as info:
            Trajectory.load_json(path)
        assert str(info.value) == f"{path}: {message}"

    # (key,) drops the key from sample 1 of a valid document; (key, value) sets it
    @pytest.mark.parametrize("change, message", [
        (("x",), "sample 1: expected a number at key 'x'"),
        (("x", True), "sample 1: expected a number at key 'x'"),
        (("x", "0.5"), "sample 1: expected a number at key 'x'"),
        (("x", None), "sample 1: expected a number at key 'x'"),
        (("x", [0.5]), "sample 1: expected a number at key 'x'"),
        (("split", 2), "sample 1: split flag must be 0 or 1, got 2"),
        (("split", 0.5), "sample 1: split flag must be 0 or 1, got 0.5"),
        (("split", True), "sample 1: expected a number at key 'split'"),
        (("x", 10 ** 400), "sample 1: int too large to convert to float"),
    ])
    def test_json_rejects_sample(self, tmp_path, change, message):
        doc = json.loads(make_traj(3).to_json())
        if len(change) == 1:
            del doc["samples"][1][change[0]]
        else:
            doc["samples"][1][change[0]] = change[1]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TrajectoryError) as info:
            Trajectory.load_json(path)
        assert str(info.value) == f"{path}: {message}"

    def test_json_ignores_extra_keys(self, tmp_path):
        doc = json.loads(make_traj(4, splits=[0, 2, 3]).to_json())
        doc["version"] = 1
        doc["samples"][0]["note"] = "start"
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert Trajectory.load_json(path).splits == [0, 2, 3]


# ---- loader fuzz: mutations of a valid file ------------------------------------

FUZZ_TRAJ = Trajectory(np.linspace(0.0, 2.0, 24),
                       np.column_stack([np.linspace(0, 0.1, 24), np.sin(np.linspace(0, 3, 24)) * 0.05,
                                        np.zeros(24)]),
                       np.tile([1.0, 0, 0, 0], (24, 1)), np.zeros(24), [0, 11, 23])
FUZZ_CELLS = st.one_of(
    st.sampled_from(["", "abc", "nan", "inf", "1e400", "0x10", " 2 ", "1_0", "--1", "true", '"3"', "0", "1"]),
    st.text(max_size=4), st.floats().map(repr))
FUZZ_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


@st.composite
def mutated_csv(draw):
    """FUZZ_TRAJ's CSV with one to three rows changed: a cell dropped, added
    or replaced, the split flag replaced, or the row removed."""
    lines = FUZZ_TRAJ.to_csv().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",")
        kind = draw(st.sampled_from(["drop", "extra", "cell", "split", "row"]))
        if kind == "drop":
            del cells[draw(st.integers(0, len(cells) - 1))]
        elif kind == "extra":
            cells.insert(draw(st.integers(0, len(cells))), draw(FUZZ_CELLS))
        elif kind == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(FUZZ_CELLS)
        elif kind == "split":
            cells[-1] = draw(st.sampled_from(["0", "1", "2", "-1", "0.5", "1.0", "nan", "", "x"]))
        lines[i] = ",".join(cells)
        if kind == "row":
            del lines[i]
    return "\n".join(lines) + "\n"


@st.composite
def mutated_json(draw):
    """FUZZ_TRAJ's JSON document with one to three changes: a key dropped, a
    value or split flag replaced, a sample that is not an object, a 'samples'
    that is not a list, or a top level that is not an object."""
    doc = json.loads(FUZZ_TRAJ.to_json())
    for _ in range(draw(st.integers(1, 3))):
        samples = doc.get("samples") if isinstance(doc, dict) else None
        kind = draw(st.sampled_from(["drop", "value", "split", "sample", "samples", "top"]))
        if kind in ("drop", "value", "split", "sample") and isinstance(samples, list) and samples:
            i = draw(st.integers(0, len(samples) - 1))
            if kind == "sample" or not isinstance(samples[i], dict):
                samples[i] = draw(FUZZ_JSON_VALUES)
            elif kind == "drop" and samples[i]:
                del samples[i][draw(st.sampled_from(sorted(samples[i])))]
            elif kind == "value":
                samples[i][draw(st.sampled_from(COLUMNS))] = draw(FUZZ_JSON_VALUES)
            else:
                samples[i]["split"] = draw(st.sampled_from([0, 1, 2, -1, 0.5, 1.0, True, "1"]))
        elif kind == "samples" and isinstance(doc, dict):
            doc["samples"] = draw(FUZZ_JSON_VALUES)
        elif kind == "top":
            doc = draw(FUZZ_JSON_VALUES)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loader_fuzz")


def load_or_fail_cleanly(path):
    """Trajectory.load returns a Trajectory or raises a TrajectoryError naming
    the file, and `splatsynth fit` on the file exits 0, or 1 with one error line."""
    try:
        loaded = isinstance(Trajectory.load(path), Trajectory)
    except TrajectoryError as exc:
        assert str(exc).startswith(f"{path}: ")
        loaded = False
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["fit", str(path), "--out", str(path.parent / "models"), "--n-basis", "10"])
    assert code in (0, 1)
    assert code == 0 or len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
    assert loaded or code == 1 and err.getvalue().startswith(f"error: {path}: ")


class TestLoaderFuzz:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(text=mutated_csv())
    def test_csv(self, fuzz_dir, text):
        path = fuzz_dir / "demo.csv"
        path.write_text(text)
        load_or_fail_cleanly(path)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(text=mutated_json())
    def test_json(self, fuzz_dir, text):
        path = fuzz_dir / "demo.json"
        path.write_text(text)
        load_or_fail_cleanly(path)


# ---- the one-call CSV read against the per-row read ------------------------------

# cells that float() and np.loadtxt may read apart: loadtxt refuses the first three, which float() reads
SPLIT_READ_CELLS = ["1_0", '"0.5"', "\u0661", "", " 1.0 ", "-0.0", "5e-324", "1e400", "nan", "iNfInItY"]


@st.composite
def reread_csv(draw):
    """FUZZ_TRAJ's CSV text with up to three cells replaced, up to two blank,
    whitespace-only or trailing-comma lines, LF, CRLF or CR line ends, and one
    time in eight only its header."""
    lines = FUZZ_TRAJ.to_csv().splitlines()
    cells = st.sampled_from(SPLIT_READ_CELLS) | st.floats(allow_nan=False).map(lambda v: f"{v:.17g}")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        row = lines[i].split(",")
        row[draw(st.integers(0, len(row) - 1))] = draw(cells)
        lines[i] = ",".join(row)
    for _ in range(draw(st.integers(0, 2))):
        kind, i = draw(st.sampled_from(["blank", "whitespace", "comma"])), draw(st.integers(1, len(lines)))
        if kind == "comma":
            lines[i - 1] += ","
        else:
            lines.insert(i, "" if kind == "blank" else draw(st.sampled_from([" ", "\t", " \t "])))
    if draw(st.sampled_from(["rows"] * 7 + ["header only"])) == "header only":
        lines = lines[:1]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + end


def per_row_load(path):
    """The CSV loader that the one np.loadtxt pass replaced: csv.reader, then
    one numpy row assignment per non-empty row, then Trajectory's checks."""
    try:
        with open(path, newline="") as f:
            header, *rows = list(csv.reader(f)) or [None]
        if header is None or [c.strip() for c in header] != COLUMNS:
            raise TrajectoryError(f"bad trajectory header: expected {COLUMNS}")
        rows = [row for row in rows if row]
        values = np.empty((len(rows), len(COLUMNS)))
        for i, row in enumerate(rows):
            if len(row) != len(COLUMNS):
                raise TrajectoryError(f"row {i}: expected {len(COLUMNS)} values, got {len(row)}")
            try:
                values[i] = row
            except (ValueError, OverflowError) as exc:
                raise TrajectoryError(f"row {i}: {exc}") from None
        return Trajectory._from_table(values, "row")
    except (csv.Error, ValueError) as exc:
        raise TrajectoryError(f"{path}: {exc}") from exc


def load_outcome(load, path):
    """The bits of the four sample arrays and the splits that load reads, or its TrajectoryError's text."""
    try:
        traj = load(path)
    except TrajectoryError as exc:
        return str(exc)
    return [getattr(traj, k).tobytes() for k in ("times", "positions", "quaternions", "gripper")] + [traj.splits]


class TestOneCallRead:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=reread_csv())
    def test_matches_the_per_row_read(self, fuzz_dir, text):
        path = fuzz_dir / "reread.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # loadtxt's warning on a file with no data row stays inside
            assert load_outcome(Trajectory.load_csv, path) == load_outcome(per_row_load, path)

    def test_header_only_file_leaks_no_warning(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(",".join(COLUMNS) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrajectoryError, match="trajectory needs at least 2 samples"):
                Trajectory.load_csv(path)
        assert caught == []

    @pytest.mark.parametrize("change", [lambda row: row + ",0", lambda row: row.rsplit(",", 1)[0]],
                             ids=["eleven", "nine"])
    def test_every_row_of_another_width_is_refused(self, tmp_path, change):
        lines = FUZZ_TRAJ.to_csv().splitlines()
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines[:1] + [change(row) for row in lines[1:]]) + "\n")
        with pytest.raises(TrajectoryError, match="row 0: expected 10 values, got"):
            Trajectory.load_csv(path)

    @pytest.mark.parametrize("cell", SPLIT_READ_CELLS)
    def test_each_cell_matches_the_per_row_read(self, tmp_path, cell):
        lines = FUZZ_TRAJ.to_csv().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:8] + [cell, "0"])   # the gripper column
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_outcome(Trajectory.load_csv, path) == load_outcome(per_row_load, path)


class TestPose:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pose(np.array([np.nan, 0, 0]), np.array([1.0, 0, 0, 0]))

    def test_normalizes_quaternion(self):
        p = Pose(np.zeros(3), np.array([0.0, 0.0, 0.0, 2.0]))
        assert abs(np.linalg.norm(p.orientation) - 1.0) < 1e-12
