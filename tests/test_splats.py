import json
import struct

import numpy as np
import pytest

from splatsynth.geometry import quat_normalize, quat_to_matrix
from splatsynth.splats import (
    GaussianBlob,
    GaussianScene,
    SceneFormatError,
    density,
    density_bruteforce,
    density_gradient,
    density_gradient_analytic,
    load_scene,
    query_neighbors,
)

from helpers import near_blob_queries, separated_scene


def unit_blob(mu=(0, 0, 0), alpha=1.0, sigma2=1.0):
    return GaussianBlob(np.array(mu, dtype=float), sigma2 * np.eye(3), alpha)


def random_scene(n, seed, box=1.0, sigma=0.05):
    rng = np.random.default_rng(seed)
    blobs = []
    for _ in range(n):
        a = rng.normal(size=(3, 3)) * sigma
        cov = a @ a.T + (0.2 * sigma) ** 2 * np.eye(3)
        blobs.append(GaussianBlob(rng.uniform(-box, box, 3), cov,
                                  rng.uniform(0.1, 1.0)))
    return GaussianScene(blobs, opacity_floor=0.0)


class TestDensity:
    def test_single_blob_at_mean(self):
        scene = GaussianScene([unit_blob()])
        assert abs(density(scene, [0, 0, 0]) - 1.0) < 1e-12

    def test_single_blob_offset(self):
        scene = GaussianScene([unit_blob()])
        assert abs(density(scene, [1, 0, 0]) - np.exp(-0.5)) < 1e-12

    def test_matches_bruteforce(self):
        # well-separated blobs: the 4-sigma cutoff drops only contributions
        # that are negligible relative to the near-blob density
        scene = separated_scene(100, seed=0)
        for x in near_blob_queries(scene, 50, seed=1):
            full = density_bruteforce(scene, x)
            trunc = density(scene, x)
            assert abs(trunc - full) / full < 1e-6

    def test_continuity(self):
        scene = random_scene(50, seed=2)
        rng = np.random.default_rng(3)
        pts = scene.means[rng.integers(0, len(scene), 20)]
        for x in pts:
            r0 = density(scene, x)
            r1 = density(scene, x + 1e-6)
            assert abs(r1 - r0) / max(r0, 1e-12) < 1e-3

    def test_empty_scene(self):
        scene = GaussianScene([])
        assert density(scene, [0, 0, 0]) == 0.0


class TestGradient:
    def test_analytic_single_blob(self):
        scene = GaussianScene([unit_blob()])
        g = density_gradient(scene, [1, 0, 0], h=1e-4)
        assert np.allclose(g, [-np.exp(-0.5), 0, 0], atol=1e-6)

    def test_stationary_at_mean(self):
        scene = GaussianScene([unit_blob()])
        assert np.linalg.norm(density_gradient(scene, [0, 0, 0], h=1e-4)) < 1e-8

    def test_matches_analytic_mixture(self):
        scene = random_scene(30, seed=4, sigma=0.3)
        rng = np.random.default_rng(5)
        for x in rng.uniform(-1, 1, size=(20, 3)):
            num = density_gradient(scene, x, h=1e-4)
            ana = density_gradient_analytic(scene, x)
            assert np.max(np.abs(num - ana)) < 1e-5

    def test_order_two_convergence(self):
        scene = random_scene(20, seed=6, sigma=0.4)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.5, 0.5, size=(10, 3))
        errs = []
        hs = [1e-2, 1e-3, 1e-4]
        for h in hs:
            err = max(np.max(np.abs(density_gradient(scene, x, h)
                                    - density_gradient_analytic(scene, x)))
                      for x in pts)
            errs.append(err)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_rejects_nonpositive_h(self):
        scene = GaussianScene([unit_blob()])
        with pytest.raises(ValueError):
            density_gradient(scene, [0, 0, 0], h=0.0)


class TestNeighbors:
    def test_empty(self):
        assert len(query_neighbors(GaussianScene([]), [0, 0, 0], 1.0)) == 0

    def test_non_finite_query_finds_nothing(self):
        scene = GaussianScene([unit_blob()])
        for x in ([np.nan, 0, 0], [0, np.inf, 0]):
            assert len(query_neighbors(scene, x, 1.0)) == 0
            assert density(scene, x) == 0.0

    def test_nearby_blob_included(self):
        scene = GaussianScene([unit_blob(mu=(0.1, 0, 0))])
        assert 0 in query_neighbors(scene, [0, 0, 0], 1.0)

    @staticmethod
    def _assert_matches_linear_scan(scene, x, radius):
        got = query_neighbors(scene, x, radius)
        d = np.linalg.norm(scene.means - x, axis=1)
        assert np.array_equal(got, np.nonzero(d <= radius + scene.radii)[0])

    @pytest.mark.parametrize("seed", range(10))
    def test_grid_matches_linear_scan(self, seed):
        # linear scan is the oracle
        rng = np.random.default_rng(seed)
        n = 10000
        blobs = [GaussianBlob(rng.uniform(-1, 1, 3),
                              rng.uniform(0.005, 0.02) ** 2 * np.eye(3),
                              1.0) for _ in range(n)]
        scene = GaussianScene(blobs, opacity_floor=0.0)
        for x in rng.uniform(-1, 1, size=(10, 3)):
            self._assert_matches_linear_scan(scene, x, rng.uniform(0.01, 0.3))

    @pytest.mark.parametrize("seed", range(100, 190))
    def test_grid_matches_linear_scan_small(self, seed):
        rng = np.random.default_rng(seed)
        n = 300
        blobs = [GaussianBlob(rng.uniform(-1, 1, 3),
                              rng.uniform(0.01, 0.3) ** 2 * np.eye(3),
                              1.0) for _ in range(n)]
        scene = GaussianScene(blobs, opacity_floor=0.0)
        self._assert_matches_linear_scan(scene, rng.uniform(-1, 1, 3), rng.uniform(0.0, 0.5))

    @pytest.mark.parametrize("n", [1, 10, 255])
    @pytest.mark.parametrize("seed", range(5))
    def test_small_scene_matches_linear_scan(self, n, seed):
        rng = np.random.default_rng(1000 * n + seed)
        blobs = [GaussianBlob(rng.uniform(-1, 1, 3),
                              rng.uniform(0.01, 0.3) ** 2 * np.eye(3),
                              1.0) for _ in range(n)]
        scene = GaussianScene(blobs, opacity_floor=0.0)
        for x in rng.uniform(-1.2, 1.2, size=(20, 3)):
            self._assert_matches_linear_scan(scene, x, rng.uniform(0.0, 0.5))

    def test_boundary_points_match_linear_scan(self):
        # query points exactly at a blob's reach, where a tree's squared
        # distance test can round the other way than the linear scan
        scene = GaussianScene([unit_blob(sigma2=0.01)])
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = rng.normal(size=3)
            radius = rng.uniform(0.0, 1.0)
            x = u / np.linalg.norm(u) * (radius + scene.radii[0])
            self._assert_matches_linear_scan(scene, x, radius)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_large_blob_reaches_far(self, seed):
        # one blob with a 2 m cutoff radius among 500 blobs of at most 8 cm;
        # every query lies within its reach, up to 1.9 m from its mean
        rng = np.random.default_rng(seed)
        blobs = [GaussianBlob(rng.uniform(-1, 1, 3),
                              rng.uniform(0.005, 0.02) ** 2 * np.eye(3),
                              1.0) for _ in range(500)]
        blobs.insert(rng.integers(0, 500), GaussianBlob(rng.uniform(-1, 1, 3),
                                                         0.5 ** 2 * np.eye(3), 1.0))
        scene = GaussianScene(blobs, opacity_floor=0.0)
        big = int(np.argmax(scene.radii))
        for x in scene.means[big] + rng.uniform(-1.1, 1.1, size=(20, 3)):
            self._assert_matches_linear_scan(scene, x, rng.uniform(0.0, 0.1))


class TestTruncationBound:
    def test_bound_holds(self):
        scene = random_scene(200, seed=8, sigma=0.03)
        rng = np.random.default_rng(9)
        # cutoff c=4: per-blob truncation is below alpha*exp(-c^2/2)
        bound = len(scene) * scene.opacities.max() * np.exp(-8.0)
        for x in rng.uniform(-1, 1, size=(30, 3)):
            gap = abs(density(scene, x) - density_bruteforce(scene, x))
            assert gap <= bound


class TestLoadScene:
    def test_json_single_blob(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"blobs": [
            {"mu": [0, 0, 0], "cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "alpha": 1.0}
        ]}))
        scene = load_scene(path, opacity_floor=0.05)
        assert len(scene) == 1
        assert abs(density(scene, [0, 0, 0]) - 1.0) < 1e-12

    def test_json_missing_field(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"blobs": [{"mu": [0, 0, 0], "alpha": 1.0}]}))
        with pytest.raises(SceneFormatError):
            load_scene(path)

    def test_opacity_floor_drops_blobs(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"blobs": [
            {"mu": [0, 0, 0], "cov": np.eye(3).tolist(), "alpha": 1.0},
            {"mu": [1, 0, 0], "cov": np.eye(3).tolist(), "alpha": 0.01},
        ]}))
        scene = load_scene(path, opacity_floor=0.05)
        assert len(scene) == 1

    def test_non_pd_covariance_rejected_with_count(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"blobs": [
            {"mu": [0, 0, 0], "cov": np.eye(3).tolist(), "alpha": 1.0},
            {"mu": [1, 0, 0], "cov": np.zeros((3, 3)).tolist(), "alpha": 1.0},
        ]}))
        scene = load_scene(path)
        assert len(scene) == 1
        assert scene.rejected_count == 1

    _PLY_PROPS = ["x", "y", "z", "scale_0", "scale_1", "scale_2",
                  "rot_0", "rot_1", "rot_2", "rot_3", "opacity"]

    def _write_ply(self, path, rows, fmt="binary_little_endian", newline="\n",
                   props=_PLY_PROPS, count=None):
        header = ["ply", f"format {fmt} 1.0",
                  f"element vertex {len(rows) if count is None else count}"]
        header += [f"property float {p}" for p in props]
        header.append("end_header")
        with open(path, "wb") as f:
            f.write((newline.join(header) + newline).encode())
            if fmt == "ascii":
                for r in rows:
                    f.write((" ".join(repr(float(v)) for v in r) + newline).encode())
            else:
                for r in rows:
                    f.write(struct.pack(f"<{len(props)}f", *r))

    def test_ply_logistic_opacity(self, tmp_path):
        path = tmp_path / "scene.ply"
        # pre-activation opacity 0.0 -> alpha 0.5 after the logistic map
        self._write_ply(path, [[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0.0]])
        scene = load_scene(path, opacity_floor=0.05, scale_convention="preactivation")
        assert len(scene) == 1
        assert abs(scene.opacities[0] - 0.5) < 1e-9

    def test_ply_raw_convention(self, tmp_path):
        path = tmp_path / "scene.ply"
        self._write_ply(path, [[0, 0, 0, 0.1, 0.1, 0.1, 1, 0, 0, 0, 0.8]])
        scene = load_scene(path, opacity_floor=0.05, scale_convention="raw")
        assert abs(scene.opacities[0] - 0.8) < 1e-6
        assert np.allclose(scene.covariances[0], 0.01 * np.eye(3), atol=1e-8)

    def test_ply_ascii(self, tmp_path):
        path = tmp_path / "scene.ply"
        self._write_ply(path, [[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0.0]], fmt="ascii")
        scene = load_scene(path)
        assert len(scene) == 1

    def test_ply_count_matches_header(self, tmp_path):
        rng = np.random.default_rng(10)
        rows = []
        for _ in range(500):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            rows.append([*rng.uniform(-1, 1, 3), *rng.uniform(-3, -1, 3), *q,
                         rng.uniform(1.0, 4.0)])
        path = tmp_path / "scene.ply"
        self._write_ply(path, rows)
        scene = load_scene(path, opacity_floor=0.0)
        assert len(scene) == 500
        assert scene.rejected_count == 0

    def test_ply_missing_field(self, tmp_path):
        path = tmp_path / "scene.ply"
        header = ["ply", "format ascii 1.0", "element vertex 1",
                  "property float x", "property float y", "property float z",
                  "end_header"]
        path.write_bytes(("\n".join(header) + "\n0 0 0\n").encode())
        with pytest.raises(SceneFormatError):
            load_scene(path)

    def test_ply_negative_count_rejected(self, tmp_path):
        path = tmp_path / "scene.ply"
        self._write_ply(path, [[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0.0]] * 2, count=-1)
        with pytest.raises(SceneFormatError):
            load_scene(path)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_ply_zero_vertices(self, tmp_path, fmt):
        path = tmp_path / "scene.ply"
        self._write_ply(path, [], fmt=fmt)
        scene = load_scene(path)
        assert len(scene) == 0
        assert scene.rejected_count == 0

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_ply_crlf_header(self, tmp_path, fmt):
        path = tmp_path / "scene.ply"
        self._write_ply(path, [[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0.0]], fmt=fmt, newline="\r\n")
        assert len(load_scene(path)) == 1

    def test_ply_duplicate_property_rejected(self, tmp_path):
        path = tmp_path / "scene.ply"
        self._write_ply(path, [[0] * 12], props=self._PLY_PROPS + ["x"])
        with pytest.raises(SceneFormatError):
            load_scene(path)

    def test_json_mean_shape_rejected(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"blobs": [
            {"mu": [0, 0], "cov": np.eye(3).tolist(), "alpha": 1.0}]}))
        with pytest.raises(SceneFormatError):
            load_scene(path)

    def test_ply_matches_per_row_reference(self, tmp_path):
        # 3DGS layout with extra columns, unnormalised quaternions, planted
        # zero quaternions and below-floor opacities
        props = (["x", "y", "z", "nx", "ny", "nz"] + [f"f_dc_{i}" for i in range(3)]
                 + [f"f_rest_{i}" for i in range(45)] + ["opacity"]
                 + [f"scale_{i}" for i in range(3)] + [f"rot_{i}" for i in range(4)])
        col = {p: i for i, p in enumerate(props)}
        rng = np.random.default_rng(12)
        n = 400
        rows = rng.normal(size=(n, len(props)))
        rows[:, [col[f"scale_{i}"] for i in range(3)]] = np.log(rng.uniform(0.004, 0.05, (n, 3)))
        rows[:, col["opacity"]] = rng.uniform(-6.0, 4.0, n)
        rows[:, [col[f"rot_{i}"] for i in range(4)]] *= rng.uniform(0.5, 2.0, (n, 1))
        rows[rng.choice(n, 8, replace=False), col["rot_0"]:col["rot_3"] + 1] = 0.0
        rows = rows.astype(np.float32)
        path = tmp_path / "scene.ply"
        self._write_ply(path, rows, props=props)
        scene = load_scene(path, opacity_floor=0.05)

        means, covs, opacities, rejected = [], [], [], 0
        for r in rows.astype(float):
            try:
                rot = quat_to_matrix(quat_normalize(r[[col[f"rot_{i}"] for i in range(4)]]))
            except ValueError:
                rejected += 1
                continue
            scales = np.exp(r[[col[f"scale_{i}"] for i in range(3)]])
            cov = rot @ np.diag(scales ** 2) @ rot.T
            alpha = 1.0 / (1.0 + np.exp(-r[col["opacity"]]))
            if alpha >= 0.05:
                means.append(r[[col["x"], col["y"], col["z"]]])
                covs.append(0.5 * (cov + cov.T))
                opacities.append(alpha)
        assert rejected == 8
        assert 0 < len(means) < n - rejected
        assert scene.rejected_count == rejected
        assert np.array_equal(scene.means, np.array(means))
        assert np.array_equal(scene.covariances, np.array(covs))
        assert np.array_equal(scene.opacities, np.array(opacities))
