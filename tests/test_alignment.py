import json
import math

import numpy as np
import pytest

from splatsynth.alignment import (
    AlignmentError,
    IcpParams,
    RigidTransform,
    apply_transform,
    icp_align,
)
from splatsynth.splats import CUTOFF_SIGMA, GaussianBlob, GaussianScene, SceneFormatError, density

from helpers import relative_gap, separated_scene


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

    def test_moving_past_the_reach_is_refused(self):
        scene = separated_scene(5, seed=13)
        with pytest.raises(SceneFormatError, match=r"^moved splat 0: bounding sphere reaches past 1e\+150 m"):
            apply_transform(scene, RigidTransform(np.eye(3), [0.0, 1e160, 0.0]))

    def test_empty_scene(self):
        out = apply_transform(GaussianScene([]), random_rigid(3))
        assert len(out) == 0
        assert density(out, [0, 0, 0]) == 0.0
