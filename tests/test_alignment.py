import json
import logging
import math
import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

from splatsynth import alignment
from splatsynth.alignment import (
    AlignmentError,
    IcpParams,
    RigidTransform,
    apply_transform,
    icp_align,
)
from splatsynth.splats import CUTOFF_SIGMA, GaussianBlob, GaussianScene, SceneFormatError, density

from helpers import icp_reference, relative_gap, separated_scene


def random_cloud(n, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(n, 3))


def random_rigid(seed, max_angle_deg=10.0, max_trans=0.05):
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, math.radians(max_angle_deg))
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    R = np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * K @ K
    t = rng.uniform(-max_trans, max_trans, 3)
    return RigidTransform(R, t)


def rotation_error_deg(Ra, Rb):
    c = (np.trace(Ra.T @ Rb) - 1) / 2
    return math.degrees(math.acos(min(max(c, -1.0), 1.0)))


ROW = "[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]"
MALFORMED = {
    "empty_object": "{}",
    "list": "[]",
    "not_json": "not json",
    "number": '{"matrix": 5}',
    "2x2": '{"matrix": [[1, 0], [0, 1]]}',
    "3x4": '{"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]}',
    "ragged": '{"matrix": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
    "string": '{"matrix": [["1", 0, 0, 0], %s]}' % ROW,
    "bool": '{"matrix": [[true, 0, 0, 0], %s]}' % ROW,
    "null": '{"matrix": [[1, 0, 0, null], %s]}' % ROW,
    "nan": '{"matrix": [[1, 0, 0, NaN], %s]}' % ROW,
    "inf": '{"matrix": [[1, 0, 0, 1e999], %s]}' % ROW,
    "int_too_large": '{"matrix": [[1, 0, 0, 1%s], %s]}' % ("0" * 400, ROW),
}


class TestRigidTransform:
    def test_identity_roundtrip(self):
        T = RigidTransform.identity()
        pts = random_cloud(10, 0)
        assert np.allclose(T.apply(pts), pts)

    def test_matrix_roundtrip(self):
        T = random_rigid(1)
        back = RigidTransform.from_matrix(T.to_matrix())
        assert np.allclose(back.rotation, T.rotation)
        assert np.allclose(back.translation, T.translation)

    def test_json_roundtrip(self, tmp_path):
        T = random_rigid(2)
        path = tmp_path / "T.json"
        T.save_json(path)
        back = RigidTransform.load_json(path)
        assert np.allclose(back.to_matrix(), T.to_matrix())

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_json_names_file(self, tmp_path, name):
        path = tmp_path / "T.json"
        path.write_text(MALFORMED[name])
        with pytest.raises(ValueError, match=r'T\.json: transform must be \{"matrix": <4x4 finite numbers>\}'):
            RigidTransform.load_json(path)

    def test_non_rotation_json_names_file(self, tmp_path):
        path = tmp_path / "T.json"
        path.write_text(json.dumps({"matrix": (2 * np.eye(4)).tolist()}))
        with pytest.raises(ValueError, match=r"T\.json: rotation must be orthonormal"):
            RigidTransform.load_json(path)

    @pytest.mark.parametrize("row", [[5, 5, 5, 5], [0, 0, 0, 2], [0, 0, 1e-9, 1]])
    def test_bottom_row_names_file(self, tmp_path, row):
        path = tmp_path / "T.json"
        path.write_text(json.dumps({"matrix": np.eye(4)[:3].tolist() + [row]}))
        got = str([float(v) for v in row]).replace("[", r"\[").replace("]", r"\]")
        with pytest.raises(ValueError, match=rf"T\.json: bottom row must be \[0, 0, 0, 1\], got {got}$"):
            RigidTransform.load_json(path)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            RigidTransform(2 * np.eye(3), np.zeros(3))


class TestIcp:
    def test_identity_when_equal(self):
        pts = random_cloud(200, 3)
        res = icp_align(pts, pts)
        assert res.rms < 1e-10
        assert rotation_error_deg(res.transform.rotation, np.eye(3)) < 1e-6
        assert np.linalg.norm(res.transform.translation) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_recovers_known_transform(self, seed):
        src = random_cloud(500, seed + 100)
        T_true = random_rigid(seed + 200)
        dst = T_true.apply(src)
        res = icp_align(src, dst, IcpParams(max_corr_dist=0.5))
        assert rotation_error_deg(res.transform.rotation, T_true.rotation) < 0.5
        assert np.linalg.norm(res.transform.translation - T_true.translation) < 1e-3

    def test_outliers_excluded(self):
        rng = np.random.default_rng(7)
        src = random_cloud(500, 8)
        dst = src.copy()
        # 5% outliers far beyond max_corr_dist
        n_out = 25
        out_idx = rng.choice(len(src), n_out, replace=False)
        src = src.copy()
        src[out_idx] += 10.0
        res = icp_align(src, dst, IcpParams(max_corr_dist=0.1))
        assert res.rms < 1e-6
        assert res.n_inliers <= len(src) - n_out + 5

    def test_monotone_residuals(self):
        for seed in range(5):
            src = random_cloud(300, seed + 300)
            T_true = random_rigid(seed + 400)
            dst = T_true.apply(src)
            res = icp_align(src, dst, IcpParams(max_corr_dist=0.5))
            diffs = np.diff(res.residuals)
            assert np.all(diffs <= 1e-12)

    def test_degenerate_collinear(self):
        src = np.stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)], axis=1)
        with pytest.raises(AlignmentError):
            icp_align(src, src)

    def test_no_correspondences(self):
        src = random_cloud(10, 9)
        dst = src + 100.0
        with pytest.raises(AlignmentError):
            icp_align(src, dst, IcpParams(max_corr_dist=0.01))

    def test_too_few_points(self):
        with pytest.raises(AlignmentError):
            icp_align(np.zeros((2, 3)), np.zeros((5, 3)))


def assert_icp_matches_reference(source, target, params=None, init=None):
    """icp_align returns the oracle's IcpResult bit for bit, or raises its
    exception with its message."""
    try:
        ref = icp_reference(source, target, params, init)
    except AlignmentError as exc:
        with pytest.raises(AlignmentError, match=f"^{re.escape(str(exc))}$"):
            icp_align(source, target, params, init)
        return None
    got = icp_align(source, target, params, init)
    assert got.transform.rotation.tobytes() == ref.transform.rotation.tobytes()
    assert got.transform.translation.tobytes() == ref.transform.translation.tobytes()
    assert np.array(got.residuals).tobytes() == np.array(ref.residuals).tobytes()
    assert (got.rms, got.n_inliers) == (ref.rms, ref.n_inliers)
    return got


class TestIcpMatchesReference:
    """Leaf-ordered queries give the result of queries in the caller's
    order, bit for bit."""

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_trials(self, seed):
        rng = np.random.default_rng(seed + 1000)
        src = random_cloud(400, seed + 500)
        dst = random_rigid(seed + 600).apply(src)
        far = rng.uniform(5.0, 6.0, size=(100, 3))
        cases = {
            "clean": (src, dst),
            "outliers": (np.vstack([src, far])[rng.permutation(500)], dst),
            "partial": (src[src[:, 0] < 0.1], dst[src[:, 0] > -0.1]),
            "noise": (src, dst + rng.normal(scale=0.01, size=dst.shape)),
        }
        for source, target in cases.values():
            assert_icp_matches_reference(source, target)

    @pytest.mark.parametrize("max_corr_dist", [0.1, 0.2])
    def test_lattice_midpoint_ties(self, max_corr_dist):
        # spacing and offsets are powers of two, so a midpoint lies exactly as
        # far from each of its 2 (edge) or 8 (cell) lattice neighbours
        axis = np.arange(6) * 0.125
        lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        inner = lattice[np.all(lattice < axis[-1], axis=1)]
        src = np.vstack([inner + [0.0625, 0.0, 0.0], inner + [0.0, 0.0625, 0.0], inner + 0.0625])
        assert assert_icp_matches_reference(src, lattice, IcpParams(max_corr_dist=max_corr_dist)) is not None

    def test_exact_fit(self):
        # power-of-two lattice: the fit is exact, so every residual is 0
        axis = np.arange(4.0) * 0.03125
        grid = np.stack(np.meshgrid(axis, 2 * axis, 3 * axis, indexing="ij"), axis=-1).reshape(-1, 3)
        got = assert_icp_matches_reference(grid, grid, IcpParams(max_corr_dist=0.01))
        assert got.residuals == [0.0, 0.0]

    def test_init(self):
        src = random_cloud(400, 70)
        dst = random_rigid(71, max_angle_deg=30, max_trans=0.2).apply(src)
        init = random_rigid(72, max_angle_deg=25, max_trans=0.15)
        assert_icp_matches_reference(src, dst, IcpParams(max_corr_dist=0.2), init)

    def test_unbounded_max_corr_dist(self):
        src = random_cloud(400, 73)
        dst = random_rigid(74).apply(src) + np.random.default_rng(75).normal(scale=0.005, size=(400, 3))
        got = assert_icp_matches_reference(src, dst, IcpParams(max_corr_dist=math.inf))
        assert got.n_inliers == len(src)

    def test_all_outliers(self):
        src = random_cloud(50, 76)
        assert assert_icp_matches_reference(src, src + 10.0) is None


class TestIcpQueries:
    def test_one_leaf_ordered_query_per_iteration(self, monkeypatch):
        """Each iteration sends every source row to the target tree once, in
        the leaf order of a k-d tree of the source."""
        queries = []

        class Tree(cKDTree):
            def query(self, x, *args, **kwargs):
                queries.append((self.n, np.array(x), kwargs))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(alignment, "cKDTree", Tree)
        src = random_cloud(500, 80)
        dst = random_rigid(81, max_angle_deg=2.0, max_trans=0.01).apply(src)
        res = icp_align(src, dst, IcpParams(max_corr_dist=0.1))
        order = cKDTree(src, balanced_tree=False, compact_nodes=False).indices
        assert not np.array_equal(order, np.arange(len(src)))
        assert len(queries) == len(res.residuals) >= 3
        assert all(n == len(dst) and x.shape == src.shape and kwargs == {} for n, x, kwargs in queries)
        assert np.array_equal(queries[0][1], src[order])   # the first query moves nothing


@pytest.fixture
def queries(monkeypatch):
    """The (tree size, query rows) of each query icp_align sends to its target tree."""
    seen = []

    class Tree(cKDTree):
        def query(self, x, *args, **kwargs):
            seen.append((self.n, np.array(x)))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(alignment, "cKDTree", Tree)
    return seen


def leaf_order(points):
    return cKDTree(points, balanced_tree=False, compact_nodes=False).indices


class TestIcpCoarseStage:
    """A source of at least 2 * _COARSE_ROWS rows first converges on every
    k-th row of its leaf order, then runs the full loop from there."""

    @pytest.mark.parametrize("noise", [0.0, 0.001])
    @pytest.mark.parametrize("n, seed", [(2000, 0), (3000, 1), (5000, 2)])
    def test_transform_matches_reference(self, n, seed, noise):
        # a planted transform of at most 1 degree and 2 cm, as a scan's is
        src = random_cloud(n, seed + 900)
        dst = random_rigid(seed + 950, max_angle_deg=1.0, max_trans=0.02).apply(src)
        dst = dst + np.random.default_rng(seed + 990).normal(scale=noise, size=dst.shape)
        ref, got = icp_reference(src, dst), icp_align(src, dst)
        assert got.transform.rotation.tobytes() == ref.transform.rotation.tobytes()
        assert got.transform.translation.tobytes() == ref.transform.translation.tobytes()
        assert (got.rms, got.n_inliers) == (ref.rms, ref.n_inliers)
        assert 2 <= len(got.residuals) < len(ref.residuals)
        assert np.all(np.diff(got.residuals) <= 1e-12)

    def test_no_coarse_queries_below_the_threshold(self, queries):
        src = random_cloud(2 * alignment._COARSE_ROWS - 1, 910)
        dst = random_rigid(911, max_angle_deg=1.0, max_trans=0.02).apply(src)
        res = assert_icp_matches_reference(src, dst)
        assert len(queries) == len(res.residuals) >= 2
        assert all(x.shape == src.shape for _, x in queries)

    def test_sample_queries_then_every_row(self, queries):
        src = random_cloud(3000, 920)
        dst = random_rigid(921, max_angle_deg=1.0, max_trans=0.02).apply(src)
        res = icp_align(src, dst)
        order = leaf_order(src)
        sample = src[order[::len(src) // alignment._COARSE_ROWS]]
        coarse = icp_reference(sample, dst)
        n_coarse = len(coarse.residuals)
        assert len(sample) == 1000 and n_coarse >= 2
        assert len(queries) == n_coarse + len(res.residuals)
        assert all(n == len(dst) for n, _ in queries)
        assert np.array_equal(queries[0][1], sample)   # leaf-ordered, moved by nothing
        assert all(x.shape == sample.shape for _, x in queries[:n_coarse])
        assert all(x.shape == src.shape for _, x in queries[n_coarse:])
        # the full stage starts from the coarse transform, every row in leaf order
        assert np.array_equal(queries[n_coarse][1], coarse.transform.apply(src)[order])

    def test_sample_without_inliers_falls_back_to_init(self, queries):
        # a 1 cm lattice whose target copies only the rows at odd leaf
        # positions: the sample (the even ones) has no match within 2 mm
        axis = np.arange(13) * 0.01
        src = np.stack(np.meshgrid(axis, axis, axis[:12], indexing="ij"), axis=-1).reshape(-1, 3)
        dst = src[leaf_order(src)[1::2]]
        init = random_rigid(930, max_angle_deg=0.05, max_trans=0.001)
        res = assert_icp_matches_reference(src, dst, IcpParams(max_corr_dist=0.002), init)
        assert res.n_inliers == len(dst)
        assert len(queries) == 1 + len(res.residuals)
        assert queries[0][1].shape == (len(src) // 2, 3)

    def test_coarse_debug_lines_come_first(self, caplog):
        src = random_cloud(3000, 940)
        dst = random_rigid(941, max_angle_deg=1.0, max_trans=0.02).apply(src)
        with caplog.at_level(logging.DEBUG, logger="splatsynth"):
            res = icp_align(src, dst)
        lines = [r.getMessage() for r in caplog.records if r.name == "splatsynth.alignment"]
        n_coarse = len(lines) - len(res.residuals)
        assert n_coarse >= 2
        for k, line in enumerate(lines[:n_coarse], start=1):
            assert line.startswith(f"icp coarse iteration {k}/100: 1000 of 1000 inliers, rms ")
        for k, (line, rms) in enumerate(zip(lines[n_coarse:], res.residuals), start=1):
            assert line.startswith(f"icp iteration {k}/100: 3000 of 3000 inliers, rms {rms:.9g} m, ")


class TestIcpNonFinite:
    @pytest.mark.parametrize("n", [100, 2000])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["source", "target"])
    def test_first_bad_row_named(self, name, value, n):
        points = {"source": random_cloud(n, 88), "target": random_cloud(n, 89)}
        points[name][50, 0] = value
        points[name][70, 2] = value
        message = f"{name} row 50: non-finite point {points[name][50].tolist()}"
        with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$"):
            icp_align(points["source"], points["target"])


class TestIcpLogging:
    def test_one_debug_line_per_iteration(self, caplog):
        src = random_cloud(300, 84)
        dst = random_rigid(85).apply(src)
        with caplog.at_level(logging.DEBUG, logger="splatsynth"):
            res = icp_align(src, dst, IcpParams(max_corr_dist=0.5))
        lines = [r.getMessage() for r in caplog.records if r.name == "splatsynth.alignment"]
        assert len(lines) == len(res.residuals) >= 3
        assert lines[0] == (f"icp iteration 1/100: 300 of 300 inliers, rms {res.residuals[0]:.9g} m, "
                            "rms change inf (tol 1e-08)")
        for k, (line, rms) in enumerate(zip(lines, res.residuals), start=1):
            assert line.startswith(f"icp iteration {k}/100: 300 of 300 inliers, rms {rms:.9g} m, rms change ")
        change = float(re.search(r"rms change (\S+) ", lines[-1]).group(1))
        assert change < 1e-8

    def test_silent_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="splatsynth"):
            icp_align(random_cloud(100, 86), random_cloud(100, 86))
        assert not caplog.records


class TestIcpParams:
    @pytest.mark.parametrize("field, value, message", [
        ("max_iters", 0, "max_iters must be at least 1, got 0"),
        ("max_iters", -3, "max_iters must be at least 1, got -3"),
        ("tol", -1e-9, "tol must be non-negative, got -1e-09"),
        ("tol", math.nan, "tol must be non-negative, got nan"),
        ("max_corr_dist", 0.0, "max_corr_dist must be positive, got 0.0"),
        ("max_corr_dist", -1.0, "max_corr_dist must be positive, got -1.0"),
        ("max_corr_dist", math.nan, "max_corr_dist must be positive, got nan"),
    ])
    def test_refused(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IcpParams(**{field: value})

    def test_limits_accepted(self):
        params = IcpParams(max_iters=1, tol=math.inf, max_corr_dist=math.inf)
        src = random_cloud(100, 87)
        assert len(icp_align(src, src + 0.01, params).residuals) == 1
        assert len(icp_align(src, src + 0.01, IcpParams(tol=0.0, max_iters=7)).residuals) <= 7


class TestApplyTransform:
    def test_identity_unchanged(self):
        scene = separated_scene(20, seed=10)
        out = apply_transform(scene, RigidTransform.identity())
        assert np.max(np.abs(out.means - scene.means)) < 1e-12
        assert np.max(np.abs(out.covariances - scene.covariances)) < 1e-12
        assert np.array_equal(out.opacities, scene.opacities)

    def test_translation_equivariance(self):
        scene = separated_scene(20, seed=11)
        t = np.array([0.3, -0.2, 0.5])
        out = apply_transform(scene, RigidTransform(np.eye(3), t))
        rng = np.random.default_rng(12)
        for x in rng.uniform(-1, 1, size=(100, 3)):
            assert abs(density(out, x + t) - density(scene, x)) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_rigid_equivariance(self, seed):
        scene = separated_scene(15, seed=seed + 20)
        T = random_rigid(seed + 30, max_angle_deg=90, max_trans=0.5)
        out = apply_transform(scene, T)
        rng = np.random.default_rng(seed + 40)
        for x in rng.uniform(-1, 1, size=(50, 3)):
            assert abs(density(out, T.apply(x[None])[0]) - density(scene, x)) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_factors_match_lapack(self, seed):
        # the moved inverses are R Sigma^-1 R^T, the radii carried over
        scene = separated_scene(40, seed=seed + 50)
        out = apply_transform(scene, random_rigid(seed + 60, max_angle_deg=180, max_trans=1.0))
        assert relative_gap(out.inv_covariances, np.linalg.inv(out.covariances)) <= 1e-12
        assert relative_gap(out.radii, CUTOFF_SIGMA * np.sqrt(np.linalg.eigvalsh(out.covariances)[:, -1])) <= 1e-12
        assert np.array_equal(out.radii, scene.radii)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1001, 50_000])
    def test_rotation_matches_per_matrix_product(self, n):
        # splat scales log-uniform over 1e-8..1e2 m, built from their factors
        # as a PLY scene is
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
        s = 10.0 ** rng.uniform(-8, 2, size=(n, 3))
        covs = (q * s[:, None, :] ** 2) @ q.transpose(0, 2, 1)
        inv_covs = (q / s[:, None, :] ** 2) @ q.transpose(0, 2, 1)
        scene = GaussianScene._from_factors(rng.uniform(-1, 1, size=(n, 3)), covs, inv_covs,
                                            CUTOFF_SIGMA * s.max(axis=1, initial=0.0),
                                            rng.uniform(0.1, 1.0, n), 0.0, 0, "splat")
        for seed in range(3):
            T = random_rigid(n + seed, max_angle_deg=180, max_trans=1.0)
            R = T.rotation
            out = apply_transform(scene, T)
            assert out.covariances.tobytes() == (R @ covs @ R.T).tobytes()
            assert out.inv_covariances.tobytes() == (R @ inv_covs @ R.T).tobytes()

    def test_moving_past_the_reach_is_refused(self):
        scene = separated_scene(5, seed=13)
        with pytest.raises(SceneFormatError, match=r"^moved splat 0: bounding sphere reaches past 1e\+150 m"):
            apply_transform(scene, RigidTransform(np.eye(3), [0.0, 1e160, 0.0]))

    def test_empty_scene(self):
        out = apply_transform(GaussianScene([]), random_rigid(3))
        assert len(out) == 0
        assert density(out, [0, 0, 0]) == 0.0
