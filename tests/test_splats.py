import cProfile
import io
import json
import math
import struct
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from splatsynth import metrics, splats
from splatsynth.alignment import RigidTransform, apply_transform
from splatsynth.cli import main
from splatsynth.geometry import Trajectory, quat_normalize, quat_to_matrix
from splatsynth.metrics import collision_check
from splatsynth.splats import (
    _PLY_CHUNK_ROWS,
    CUTOFF_SIGMA,
    GaussianBlob,
    GaussianScene,
    SceneFormatError,
    _neighbors,
    _NeighborList,
    _norms,
    density,
    density_bruteforce,
    density_gradient,
    density_gradient_analytic,
    density_many,
    load_scene,
    query_neighbors,
)

from helpers import near_blob_queries, ply_scene_reference, relative_gap, separated_scene


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h, shown", [(np.nan, "nan"), (np.inf, "inf"), (0.0, "0.0"), (-1e-3, "-0.001")])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, h, shown):
        # nan used to give a NaN gradient, and inf zeros with a RuntimeWarning
        scene = GaussianScene([unit_blob()])
        with pytest.raises(ValueError, match=f"^gradient step h must be finite and positive, got {shown}$"):
            density_gradient(scene, [0.5, 0, 0], h=h)


class TestNeighbors:
    def test_empty(self):
        assert len(query_neighbors(GaussianScene([]), [0, 0, 0], 1.0)) == 0

    def test_non_finite_query_finds_nothing(self):
        scene = GaussianScene([unit_blob()])
        for x in ([np.nan, 0, 0], [0, np.inf, 0]):
            assert len(query_neighbors(scene, x, 1.0)) == 0
            assert density(scene, x) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_query_beyond_every_reach_finds_nothing(self):
        # the tree's squared distances would overflow; no blob reaches these rows
        scene = GaussianScene([unit_blob(), unit_blob(mu=(1e149, 0, 0))])
        for x in ([1e200, 0, 0], [0, -1e151, 0], [1e308, 1e308, 1e308]):
            assert len(query_neighbors(scene, x, 0.0)) == 0
            assert density(scene, x) == 0.0
            assert np.array_equal(density_gradient(scene, x), np.zeros(3))
        assert np.array_equal(density_many(scene, [[1e200, 0, 0], [1e149, 0, 0]]), [0.0, 1.0])

    def test_query_ball_reaching_back_finds_blob(self):
        # a row past the limit whose own radius reaches a blob still finds it
        scene = GaussianScene([unit_blob(mu=(9e149, 0, 0))])
        assert query_neighbors(scene, [1.5e150, 0, 0], 1e150).tolist() == [0]
        assert len(query_neighbors(scene, [1.5e150, 0, 0], 1e149)) == 0

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


def density_pointwise(scene, x):
    """Oracle: rho(x) from one neighbour query and one kernel sum of its own."""
    x = np.asarray(x, dtype=float)
    idx = query_neighbors(scene, x, 0.0)
    if len(idx) == 0:
        return 0.0
    d = x - scene.means[idx]
    m = np.einsum("ni,nij,nj->n", d, scene.inv_covariances[idx], d)
    return left_to_right_sum(scene.opacities[idx] * np.exp(-0.5 * m))


def left_to_right_sum(terms):
    """Oracle: the terms added one by one, left to right from +0.0."""
    total = 0.0
    for t in terms:
        total += float(t)
    return total


def scene_blobs(scene):
    """The blobs of a built scene."""
    return [GaussianBlob(m, c, a) for m, c, a in zip(scene.means, scene.covariances, scene.opacities)]


def cluttered_scene(n, seed, spread=0.1):
    """Overlapping anisotropic blobs: queries among them have anywhere from
    zero to hundreds of neighbours."""
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    scales = rng.uniform(0.005, 0.06, (n, 3))
    covs = (rot * scales[:, None, :] ** 2) @ rot.transpose(0, 2, 1)
    return GaussianScene.from_arrays(rng.normal(0.0, spread, (n, 3)),
                                     0.5 * (covs + covs.transpose(0, 2, 1)),
                                     rng.uniform(0.1, 1.0, n), opacity_floor=0.0)


def neighbors_by_scan(scene, xs, radius):
    """Oracle: the (row, blob) pairs of (n, 3) rows from one linear scan over
    every blob per row, rows in order and blobs ascending within a row."""
    pairs = []
    with np.errstate(over="ignore", invalid="ignore"):   # rows far past the blobs
        for r, x in enumerate(xs):
            d = np.linalg.norm(scene.means - x, axis=1)
            pairs += [(r, b) for b in np.flatnonzero(d <= radius + scene.radii)]
    return tuple(np.array([p[k] for p in pairs], dtype=np.intp) for k in (0, 1))


def neighbor_cases():
    """name: (scene, rows, radius) for the multi-row neighbour oracle."""
    scene = cluttered_scene(300, seed=15)
    rng = np.random.default_rng(16)
    xs = rng.normal(0.0, 0.12, (40, 3))
    # rows exactly at a blob's reach, where the tree's squared-distance test
    # can round the other way than the exact one
    blob = GaussianScene([unit_blob(mu=(0.3, -0.2, 0.1), sigma2=0.01)])
    u = rng.normal(size=(200, 3))
    at_reach = blob.means[0] + u / np.linalg.norm(u, axis=1, keepdims=True) * (0.02 + blob.radii[0])
    far = [[np.nan, 0, 0], [0, np.inf, 0], [-np.inf, np.nan, 1], [1e200, 0, 0], [0, -1e151, 0],
           [1e308, 1e308, 1e308]]
    return {
        "random_rows": (scene, xs, 0.0),
        "random_rows_with_radius": (scene, xs, 0.05),
        "rows_on_means": (scene, scene.means[[0, 7, 7, 299]], 0.0),
        "duplicate_rows": (scene, xs[[3, 3, 9, 3, 9]], 0.01),
        "rows_at_reach": (blob, at_reach, 0.02),
        "non_finite_and_far_rows": (scene, np.concatenate([far, xs[:5], far]), 0.0),
        "only_far_rows": (scene, np.array(far, dtype=float), 0.0),
        "zero_rows": (scene, np.empty((0, 3)), 0.0),
        "empty_scene": (GaussianScene([]), xs[:5], 1.0),
        "row_past_the_limit_reaching_back": (GaussianScene([unit_blob(mu=(9e149, 0, 0))]),
                                             np.array([[1.5e150, 0, 0], [-2e149, 0, 0], [1.5e150, 0, 0]]), 1e150),
        "row_past_the_limit_short": (GaussianScene([unit_blob(mu=(9e149, 0, 0))]),
                                     np.array([[1.5e150, 0, 0]]), 1e149),
        # one blob with a 2 m reach among 400 of 4 cm: every tree query is padded by 2 m
        "one_large_blob": (GaussianScene.from_arrays(
            np.concatenate([[[0.3, 0, 0]], rng.uniform(-1, 1, (400, 3))]),
            np.concatenate([[0.25 * np.eye(3)], np.tile(1e-4 * np.eye(3), (400, 1, 1))]), np.ones(401)),
            rng.uniform(-1, 1, (60, 3)), 0.01),
    }


NEIGHBOR_CASES = neighbor_cases()


class CountingTree:
    """Stands in for a scene's cKDTree and counts the method calls made to it."""

    def __init__(self, tree):
        self.tree, self.calls = tree, {}

    def __getattr__(self, name):
        method = getattr(self.tree, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return counted


class TestNeighborRows:
    """_neighbors on many rows at once equals a per-row linear scan exactly."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", NEIGHBOR_CASES)
    def test_matches_linear_scan(self, name):
        scene, xs, radius = NEIGHBOR_CASES[name]
        got, ref = _neighbors(scene, xs, radius), neighbors_by_scan(scene, xs, radius)
        for g, r in zip(got, ref):
            assert g.dtype == np.intp
            assert np.array_equal(g, r)

    def test_cases_reach_their_edges(self):
        # each case really holds what its name says
        scene, xs, _ = NEIGHBOR_CASES["rows_on_means"]
        row, blob = _neighbors(scene, xs, 0.0)
        assert {(0, 0), (1, 7), (2, 7), (3, 299)} <= set(zip(row.tolist(), blob.tolist()))
        scene, xs, radius = NEIGHBOR_CASES["rows_at_reach"]
        assert len(_neighbors(scene, xs, radius)[0]) > 0
        scene, xs, radius = NEIGHBOR_CASES["row_past_the_limit_reaching_back"]
        assert _neighbors(scene, xs, radius)[0].tolist() == [0, 2]
        for name in ("only_far_rows", "zero_rows", "empty_scene", "row_past_the_limit_short"):
            assert len(_neighbors(*NEIGHBOR_CASES[name])[0]) == 0

    def test_tree_built_at_first_query(self):
        scene = cluttered_scene(20, seed=18)
        assert "tree" not in vars(scene)
        density(scene, [0.0, 0.0, 0.0])
        assert isinstance(vars(scene)["tree"], cKDTree)

    def test_one_tree_call_per_density_many(self):
        # all 32 rows go to the scene's tree as one dual-tree query, not one list per row
        scene = cluttered_scene(200, seed=19)
        xs = np.random.default_rng(20).normal(0.0, 0.1, (32, 3))
        expected = density_many(scene, xs)
        scene.tree = counting = CountingTree(scene.tree)
        assert np.array_equal(density_many(scene, xs), expected)
        assert counting.calls == {"sparse_distance_matrix": 1}


class TestDensityManyMatchesPointwise:
    """density_many sums each row exactly as a per-point query would."""

    @staticmethod
    def assert_matches(scene, xs):
        got = density_many(scene, xs)
        assert got.shape == xs.shape[:-1]
        ref = [density_pointwise(scene, x) for x in xs.reshape(-1, 3)]
        assert np.array_equal(got.reshape(-1), ref)

    @pytest.mark.parametrize("n", [1, 10, 255])
    def test_separated_scenes(self, n):
        scene = separated_scene(n, seed=n)
        far = np.random.default_rng(n).uniform(-2, 2, (100, 3))
        self.assert_matches(scene, np.concatenate([near_blob_queries(scene, 400, seed=n), far]))

    def test_mixed_neighbour_counts(self):
        # term counts below 8, from 8 to 128, and above 128
        scene = cluttered_scene(600, seed=4)
        xs = np.random.default_rng(5).normal(0.0, 0.15, (1000, 3))
        counts = {len(query_neighbors(scene, x, 0.0)) for x in xs}
        assert min(counts) < 8 and max(counts) > 128 and len(counts) > 100
        self.assert_matches(scene, xs)
        self.assert_matches(scene, xs.reshape(10, 25, 4, 3))

    def test_non_finite_rows(self):
        scene = cluttered_scene(50, seed=6)
        xs = np.random.default_rng(7).normal(0.0, 0.1, (40, 3))
        xs[::7, 1] = np.nan
        xs[3::11, 2] = -np.inf
        got = density_many(scene, xs)
        assert np.all(got[::7] == 0.0) and np.all(got[3::11] == 0.0)
        self.assert_matches(scene, xs)

    def test_empty_scene(self):
        xs = np.random.default_rng(8).normal(size=(5, 3))
        assert np.array_equal(density_many(GaussianScene([]), xs), np.zeros(5))

    def test_zero_rows(self):
        scene = cluttered_scene(20, seed=9)
        assert density_many(scene, np.empty((0, 3))).shape == (0,)
        assert density(scene, [0.0, 0.0, 0.0]) == density_pointwise(scene, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("shape", [(3,), (7, 3), (2, 5, 3)])
    def test_no_neighbour_pair_skips_the_kernel(self, monkeypatch, shape):
        # rows far from every blob, one of them non-finite, sum no terms: zeros
        # of the rows' shape, without evaluating a kernel term
        scene = cluttered_scene(50, seed=21)
        xs = np.full(shape, 50.0)
        xs.reshape(-1, 3)[0, 1] = np.nan

        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel term was evaluated")

        monkeypatch.setattr(np, "einsum", no_kernel)
        got = density_many(scene, xs)
        assert got.shape == shape[:-1] and got.dtype == np.float64 and not got.any()

    def test_gradient_rows_match_central_differences(self):
        scene = cluttered_scene(200, seed=10)
        xs = np.random.default_rng(11).normal(0.0, 0.1, (50, 3))
        h = 1e-3
        got = density_gradient(scene, xs, h)
        for x, g in zip(xs, got):
            ref = [(density_pointwise(scene, x + e) - density_pointwise(scene, x - e)) / (2.0 * h)
                   for e in h * np.eye(3)]
            assert np.array_equal(g, ref)
            assert np.array_equal(density_gradient(scene, x, h), g)


# ---- the coupling hook's neighbour list: density_many's bits from listed pairs ----

def heavy_tailed_scene(seed):
    """cluttered_scene with three splats of sigma 0.5 m among its blobs, like
    the sky and floater splats of a real 3DGS scan."""
    base = cluttered_scene(200, seed)
    rng = np.random.default_rng(seed)
    return GaussianScene.from_arrays(np.concatenate([base.means, rng.normal(0.0, 0.3, (3, 3))]),
                                     np.concatenate([base.covariances, np.tile(0.25 * np.eye(3), (3, 1, 1))]),
                                     np.concatenate([base.opacities, [0.3, 0.5, 0.8]]), opacity_floor=0.0)


def far_scene(seed):
    """Splats of sigma 1e146 m whose bounding spheres end just inside
    _MAX_REACH, in all eight octants."""
    rng = np.random.default_rng(seed)
    means = rng.choice([-1.0, 1.0], (40, 3)) * (1e150 - 1e147 - rng.uniform(0.0, 2e147, (40, 3)))
    return GaussianScene.from_arrays(means, np.tile(1e292 * np.eye(3), (40, 1, 1)), rng.uniform(0.1, 1.0, 40),
                                     opacity_floor=0.0)


# name: (scene, the spread of its rows around its blobs and of a jump, m)
LIST_SCENES = {
    "cluttered": (cluttered_scene(200, seed=31), 0.05),
    "heavy_tailed": (heavy_tailed_scene(32), 0.05),
    "far": (far_scene(33), 3e146),
}
WALK_MOVES = ["creep", "creep", "edge", "past_edge", "jump", "non_finite", "count"]


def unit_rows(rng, n):
    u = rng.normal(size=(n, 3))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


class TestNeighborList:
    """_NeighborList.density gives density_many's bits at every step of a walk
    of row batches, whether the step is answered from the list or rebuilds it."""

    @staticmethod
    def assert_step(listed, xs):
        got = listed.density(xs)
        want = density_many(listed.scene, xs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(LIST_SCENES)), n=st.integers(0, 12), seed=st.integers(0, 2 ** 16),
           moves=st.lists(st.sampled_from(WALK_MOVES), min_size=1, max_size=10))
    def test_random_walks_match_density_many(self, name, n, seed, moves):
        scene, spread = LIST_SCENES[name]
        rng = np.random.default_rng(seed)

        def fresh(k):
            rows = scene.means[rng.integers(0, len(scene), k)] + rng.normal(0.0, spread, (k, 3))
            rows[rng.random(k) < 0.1] = np.sign(rng.normal(size=3)) * 1e150   # on the reach limit
            return rows

        xs = fresh(n)   # one buffer, moved in place as the hook moves its rows
        listed = _NeighborList(scene)
        self.assert_step(listed, xs)
        for move in moves:
            rebuilds, origin = listed.rebuilds, listed.origin
            some = rng.random(len(xs)) < 0.5
            inside = False
            if move == "count":
                xs = fresh(max(0, len(xs) + int(rng.choice([-2, -1, 1, 3]))))
            elif move == "creep" and np.isfinite(origin).all():
                # every row stays within the skin of where the list was built: answered from the list
                inside = True
                xs[:] = origin + unit_rows(rng, len(xs)) * rng.uniform(0.0, 0.9 * listed.skin, (len(xs), 1))
            elif move in ("edge", "past_edge"):
                # rows moved the skin from the list's origin, or one ulp past it, give or take rounding
                step = listed.skin if move == "edge" else np.nextafter(listed.skin, np.inf)
                xs[some] = origin[some] + unit_rows(rng, int(some.sum())) * step
            elif move == "non_finite":
                xs[some, rng.integers(0, 3)] = rng.choice([np.nan, np.inf, -np.inf])
            else:   # a jump past the skin, or a creep from a list holding a non-finite row
                xs[some] = fresh(int(some.sum()))
            self.assert_step(listed, xs)
            if inside:
                assert listed.rebuilds == rebuilds
        assert listed.kept <= listed.listed

    def test_skin_is_the_rebuild_bound(self):
        # a row moved exactly the skin keeps the list; one ulp farther rebuilds it
        scene = cluttered_scene(50, seed=34)
        listed = _NeighborList(scene)
        xs = np.array([[0.0, 0.01, -0.02], [0.03, 0.0, 0.01]])
        self.assert_step(listed, xs)
        xs[0, 0] = listed.skin
        self.assert_step(listed, xs)
        assert listed.rebuilds == 1
        xs[0, 0] = np.nextafter(listed.skin, np.inf)
        self.assert_step(listed, xs)
        assert listed.rebuilds == 2

    def test_blob_at_the_edge_of_the_list(self, monkeypatch):
        # a row that moves the whole skin toward a blob listed at exactly its reach plus the
        # skin ends exactly on the blob's reach: the list holds it, and density_many counts it
        monkeypatch.setattr(splats, "_SKIN", 1 / 64)
        scene = GaussianScene([unit_blob(mu=(0.25 + 1 / 64, 0.0, 0.0), sigma2=1 / 256)])
        assert scene.radii[0] == 0.25
        listed = _NeighborList(scene)
        xs = np.zeros((1, 3))
        self.assert_step(listed, xs)
        xs[0, 0] = 1 / 64
        self.assert_step(listed, xs)
        assert listed.rebuilds == 1 and listed.density(xs)[0] == np.exp(-8.0)

    def test_row_count_change_rebuilds(self):
        scene = cluttered_scene(50, seed=35)
        listed = _NeighborList(scene)
        xs = np.random.default_rng(36).normal(0.0, 0.05, (6, 3))
        for rows in (xs, xs[:4], xs[:4], xs, np.empty((0, 3)), xs):
            self.assert_step(listed, rows)
        assert listed.rebuilds == 5

    def test_slack_pads_the_exact_test(self):
        # _neighbors keeps a blob when |x - mean| <= (radius + r) * (1 + slack), and only then
        scene = cluttered_scene(300, seed=37)
        xs = np.random.default_rng(38).normal(0.0, 0.12, (40, 3))
        for radius, slack in [(0.0, 0.0), (0.02, 1e-9), (0.02, 0.5)]:
            row, blob = _neighbors(scene, xs, radius, slack)
            d = np.linalg.norm(xs[:, None] - scene.means[None], axis=2)
            want = np.nonzero(d <= (radius + scene.radii) * (1.0 + slack))
            assert np.array_equal(row, want[0]) and np.array_equal(blob, want[1])


@contextmanager
def no_scene_queries():
    """Within it, a _neighbors call fails the test."""
    def refused(*args, **kwargs):
        raise AssertionError("a probe read queried the scene")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splats, "_neighbors", refused)
        yield


def probe_read(listed, rows, probes):
    """listed.probe_density(rows, probes), checked bit for bit against
    density_many and against probed; it must make no _neighbors call."""
    probed = listed.probed
    with no_scene_queries():
        got = listed.probe_density(rows, probes)
    want = density_many(listed.scene, probes)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert listed.probed == probed + len(rows) * probes.shape[1]
    return got


def gradient_probes(xs, h):
    steps = h * np.eye(3)
    return xs[:, None, :] + np.concatenate([steps, -steps])


class TestListedProbes:
    """Gradient probes read through a _NeighborList made with their step h,
    as the coupling hook reads them after each density read, give
    density_gradient(scene, ...)'s bits from the list alone: the list holds
    each row's splats within the skin plus h, which covers every probe."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(LIST_SCENES)), n=st.integers(0, 12), seed=st.integers(0, 2 ** 16),
           moves=st.lists(st.sampled_from(WALK_MOVES), min_size=1, max_size=10),
           h=st.sampled_from([1e-4, 1e-3, 0.01, splats._SKIN]))
    def test_random_walks_match_density_gradient(self, name, n, seed, moves, h):
        # TestNeighborList's walk, with a probe read of some rows after each density read
        scene, spread = LIST_SCENES[name]
        rng = np.random.default_rng(seed)

        def fresh(k):
            rows = scene.means[rng.integers(0, len(scene), k)] + rng.normal(0.0, spread, (k, 3))
            rows[rng.random(k) < 0.1] = np.sign(rng.normal(size=3)) * 1e150   # on the reach limit
            return rows

        xs = fresh(n)
        listed = _NeighborList(scene, h)
        assert listed.probe_step == h
        for move in ["start"] + moves:
            origin = listed.origin
            some = rng.random(len(xs)) < 0.5
            if move == "count":
                xs = fresh(max(0, len(xs) + int(rng.choice([-2, -1, 1, 3]))))
            elif move == "creep" and np.isfinite(origin).all():
                xs[:] = origin + unit_rows(rng, len(xs)) * rng.uniform(0.0, 0.9 * listed.skin, (len(xs), 1))
            elif move in ("edge", "past_edge"):
                # rows the skin from the list's origin, whose probes reach the skin plus h; or one ulp past it
                step = listed.skin if move == "edge" else np.nextafter(listed.skin, np.inf)
                xs[some] = origin[some] + unit_rows(rng, int(some.sum())) * step
            elif move == "non_finite":
                xs[some, rng.integers(0, 3)] = rng.choice([np.nan, np.inf, -np.inf])
            elif move != "start":
                xs[some] = fresh(int(some.sum()))
            listed.density(xs)
            rows = np.flatnonzero(rng.random(len(xs)) < 0.6)
            probed = listed.probed
            with no_scene_queries():
                got = density_gradient(scene, xs[rows], h, _listed=(listed, rows))
            want = density_gradient(scene, xs[rows], h)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert listed.probed == probed + 6 * len(rows)

    def test_probe_on_the_skin_is_answered_from_the_list(self):
        # a row moved exactly the skin keeps the list, and its probes, the skin plus h from
        # where it was listed, are answered from it
        scene = cluttered_scene(50, seed=34)
        listed = _NeighborList(scene, 1e-3)
        xs = np.array([[0.0, 0.01, -0.02], [0.03, 0.0, 0.01]])
        listed.density(xs)
        xs[0, 0] = listed.skin
        listed.density(xs)
        assert listed.rebuilds == 1
        probes = gradient_probes(xs, 1e-3)
        assert probes[0, 0, 0] == listed.skin + 1e-3
        assert probe_read(listed, np.arange(2), probes)[0].all()

    def test_probe_on_the_skin_counts_a_blob_at_the_edge_of_the_list(self, monkeypatch):
        # the row's list holds a blob at exactly its reach plus the skin plus h, which a
        # probe exactly the skin plus h away ends on
        monkeypatch.setattr(splats, "_SKIN", 1 / 64)
        h = 1 / 128
        scene = GaussianScene([unit_blob(mu=(0.25 + 1 / 64 + h, 0.0, 0.0), sigma2=1 / 256)])
        assert scene.radii[0] == 0.25
        listed = _NeighborList(scene, h)
        xs = np.zeros((1, 3))
        listed.density(xs)
        xs[0, 0] = 1 / 64
        assert listed.density(xs)[0] == 0.0 and listed.rebuilds == 1
        probes = gradient_probes(xs, h)
        assert probes[0, 0, 0] == 1 / 64 + h
        assert probe_read(listed, np.array([0]), probes)[0, 0] == np.exp(-8.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_rows_read_zero(self):
        # a row listed as non-finite has no pairs, and its probes read 0, as density_many reads them
        scene = cluttered_scene(50, seed=35)
        listed = _NeighborList(scene, 1e-3)
        xs = np.random.default_rng(36).normal(0.0, 0.02, (4, 3))
        for bad in (np.nan, np.inf, -np.inf):
            x = xs.copy()
            x[2, 1] = bad
            listed.density(x)
            rows = np.arange(4)
            assert not probe_read(listed, rows, gradient_probes(x, 1e-3))[2].any()
            assert probe_read(listed, rows[[0, 3]], gradient_probes(x[[0, 3]], 1e-3)).any()

    def test_row_count_change_between_the_density_and_the_probe_read(self):
        # a density read of another row count rebuilds the list, and the probes of its new rows
        # are answered from it
        scene = cluttered_scene(50, seed=35)
        listed = _NeighborList(scene, 1e-3)
        xs = np.random.default_rng(36).normal(0.0, 0.05, (6, 3))
        listed.density(xs)
        probe_read(listed, np.arange(6), gradient_probes(xs, 1e-3))
        listed.density(xs[:4])
        assert listed.rebuilds == 2
        probe_read(listed, np.array([0, 2, 3]), gradient_probes(xs[[0, 2, 3]], 1e-3))
        moved = xs[:4] + [0.01, 0.0, 0.0]
        listed.density(moved)
        assert listed.rebuilds == 2
        probe_read(listed, np.arange(4), gradient_probes(moved, 1e-3))
        probe_read(listed, np.arange(0), np.empty((0, 6, 3)))   # no rows: an empty read

    def test_step_past_the_skin_is_not_listed(self):
        # a list holds a probe step up to the skin; past it, probe_step is 0 and a rebuild lists
        # only the skin, as the scene's path list does
        scene = cluttered_scene(50, seed=37)
        skin = splats._SKIN
        assert [_NeighborList(scene, h).probe_step for h in (0.0, 1e-3, skin, np.nextafter(skin, np.inf), 0.5)] \
            == [0.0, 1e-3, skin, 0.0, 0.0]
        assert scene._paths.probe_step == 0.0
        xs = np.random.default_rng(38).normal(0.0, 0.05, (5, 3))
        for h, reach in ((1e-3, skin + 1e-3), (0.5, skin)):
            listed = _NeighborList(scene, h)
            listed.density(xs)
            assert np.array_equal(listed.row, _neighbors(scene, xs, reach, slack=1e-9)[0])


# offsets whose squares are subnormal or flush to 0, signed zeros, and offsets
# near 1e154, whose squares overflow to inf
NORM_COORDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e-150, 1e-150),
    st.floats(5e153, 2e154) | st.floats(-2e154, -5e153),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.34e154, -1.34e154]),
)


class TestNorms:
    """_norms has np.linalg.norm(d, axis=1)'s bits: _neighbors' exact test
    and the list's reads rest on it."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(NORM_COORDS, NORM_COORDS, NORM_COORDS), max_size=12))
    @example(rows=[(1.0e154, 1.0e154, 0.0), (1.4e154, 0.0, -0.0), (5e-324, -5e-324, 1e-162), (-0.0, -0.0, -0.0)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # both overflow alike
    def test_bits_of_linalg_norm(self, rows):
        d = np.array(rows, dtype=float).reshape(-1, 3)
        assert _norms(d).tobytes() == np.linalg.norm(d, axis=1).tobytes()

    def test_gathered_offsets(self):
        # the offsets of _neighbors and of the lists are differences of gathered rows
        rng = np.random.default_rng(40)
        means = rng.normal(0.0, 1.0, (500, 3)) * rng.uniform(0.0, 3.0, (500, 3)) ** 8
        d = means[rng.integers(0, 500, 4000)] - means[rng.integers(0, 500, 4000)]
        assert _norms(d).tobytes() == np.linalg.norm(d, axis=1).tobytes()


def path_read(scene, xs):
    """scene._paths.density(xs), the read collision_check makes, checked bit
    for bit against density_many; the rebuilds that the read made."""
    paths = scene._paths
    rebuilds = paths.rebuilds
    got = paths.density(xs)
    want = density_many(scene, xs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return paths.rebuilds - rebuilds


def path_trajectory(xs):
    n = len(xs)
    return Trajectory(np.linspace(0.0, 1.0, n), xs, np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.zeros(n))


def checked_path(scene, xs):
    """collision_check of the path xs, whose max_density must be
    density_many's at xs, bit for bit."""
    assert collision_check(path_trajectory(xs), scene, 0.1)[1] == density_many(scene, xs).max()


def unlisted(scene):
    """A copy of scene with no path list yet: the scenes of LIST_SCENES are
    shared between tests."""
    return GaussianScene._from_factors(scene.means, scene.covariances, scene.inv_covariances, scene.radii,
                                       scene.opacities, 0.0, 0, "blob")


def ply_scene(tmp_path):
    return load_scene(TestSceneFactors.write_ply(tmp_path, n=600, seed=41))


class TestPathList:
    """A scene answers a stream of paths (collision_check) through the list
    it keeps, with density_many's bits on every path.  The list is rebuilt
    exactly where a path is not near it: at another row count, or at a row
    past its skin or not finite.  The scene keeps no list over
    _PATH_BUDGET."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(LIST_SCENES) + ["empty", "ply"])
    def test_stream(self, tmp_path, name):
        scene, spread = {"empty": (GaussianScene([]), 0.05), "ply": (ply_scene(tmp_path), 0.3),
                         **{k: (unlisted(v), spread) for k, (v, spread) in LIST_SCENES.items()}}[name]
        rng = np.random.default_rng(42)
        skin = splats._SKIN

        def fresh(k):
            if len(scene) == 0:
                return rng.normal(0.0, spread, (k, 3))
            return scene.means[rng.integers(0, len(scene), k)] + rng.normal(0.0, spread, (k, 3))

        def creep(xs):   # every row within the skin of xs
            return xs + unit_rows(rng, len(xs)) * rng.uniform(0.0, 0.9 * skin, (len(xs), 1))

        p0 = fresh(30)
        p1 = creep(p0)
        p2 = p1.copy()
        p2[0] += 1.0 + 10.0 * spread
        p3 = fresh(30)
        p5 = fresh(33)
        p6 = creep(p5)
        p7 = p6.copy()
        p7[4, 1] = np.nan
        stream = [
            (p0, 1),              # the first path builds the list
            (p1, 0),              # within its skin: answered from it
            (creep(p0), 0),
            (p0, 0),
            (p2, 1),              # a jump of one row lists the path
            (p1, 1),              # and so does the jump back
            (p3, 1),              # a jump of every row
            (creep(p3), 0),       # near the path listed last
            (p1, 1),
            (p5, 1),              # a new row count lists again
            (p6, 0),
            (p7, 1),              # a non-finite row is never near
            (p7, 1),
            (p6, 1),              # nor is a list that holds one
            (p6[:0], 1),
            (p6[:0], 0),          # two empty paths are near each other
            (p0, 1),
        ]
        for i, (xs, rebuilt) in enumerate(stream):
            assert path_read(scene, xs) == rebuilt, i

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(LIST_SCENES)), n=st.integers(0, 12), seed=st.integers(0, 2 ** 16),
           moves=st.lists(st.sampled_from(WALK_MOVES), min_size=1, max_size=10))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_random_streams_match_density_many(self, name, n, seed, moves):
        # TestNeighborList's walk, read as new paths: a read rebuilds at a new row count, and
        # where a row lies past the skin of where the list was built
        scene, spread = LIST_SCENES[name]
        scene = unlisted(scene)
        rng = np.random.default_rng(seed)

        def fresh(k):
            rows = scene.means[rng.integers(0, len(scene), k)] + rng.normal(0.0, spread, (k, 3))
            rows[rng.random(k) < 0.1] = np.sign(rng.normal(size=3)) * 1e150
            return rows

        xs = fresh(n)
        assert path_read(scene, xs) == 1
        for move in moves:
            some = rng.random(len(xs)) < 0.5
            if move == "count":
                xs = fresh(max(0, len(xs) + int(rng.choice([-2, -1, 1, 3]))))
            elif move == "creep":
                xs = xs + unit_rows(rng, len(xs)) * rng.uniform(0.0, 0.9 * splats._SKIN, (len(xs), 1))
            elif move in ("edge", "past_edge"):
                step = splats._SKIN if move == "edge" else np.nextafter(splats._SKIN, np.inf)
                xs = xs.copy()
                xs[some] += unit_rows(rng, int(some.sum())) * step
            elif move == "non_finite":
                xs = xs.copy()
                xs[some, rng.integers(0, 3)] = rng.choice([np.nan, np.inf, -np.inf])
            else:
                xs = xs.copy()
                xs[some] = fresh(int(some.sum()))
            origin = scene._paths.origin
            rebuilt = path_read(scene, xs)
            if len(xs) != len(origin):
                assert rebuilt == 1
                continue
            with np.errstate(invalid="ignore", over="ignore"):
                moved = np.linalg.norm(xs - origin, axis=1)
            # rows clear of the skin's edge, where rounding may go either way
            if np.all(moved <= 0.999 * splats._SKIN):
                assert rebuilt == 0
            if np.any(~(moved <= 1.001 * splats._SKIN)):
                assert rebuilt == 1
        assert scene._paths.kept <= scene._paths.listed

    def test_a_jumping_stream_rebuilds_on_every_path(self, monkeypatch):
        # every path jumps, its rows the scene's means in a new order: each path is listed by
        # one _neighbors query with the skin, and read with density_many's bits
        scene = cluttered_scene(200, seed=43)
        rng = np.random.default_rng(44)
        stream = [scene.means[rng.permutation(len(scene))[:40]] for _ in range(12)]
        calls = []
        neighbors = splats._neighbors

        def counted(scene, xs, radius, slack=0.0):
            calls.append((len(xs), radius, slack))
            return neighbors(scene, xs, radius, slack)

        monkeypatch.setattr(splats, "_neighbors", counted)
        for i, xs in enumerate(stream):
            assert path_read(scene, xs) == 1, i
        # path_read's density_many makes the other query of each path
        assert calls == [(40, splats._SKIN, 1e-9), (40, 0.0, 0.0)] * len(stream)
        assert scene._paths.rebuilds == len(stream) and scene._paths.origin.tobytes() == stream[-1].tobytes()

    def test_a_list_over_the_budget_is_dropped(self, monkeypatch):
        # 10 rows that list more than 30 pairs: the list answers its one path, and the scene drops it
        monkeypatch.setattr(metrics, "_PATH_BUDGET", 40)
        scene = cluttered_scene(200, seed=45)
        rng = np.random.default_rng(46)
        xs = rng.normal(0.0, 0.02, (10, 3))
        assert len(_neighbors(scene, xs, splats._SKIN, slack=1e-9)[0]) > 30
        for _ in range(3):   # each path of its row count is listed again, and dropped again
            checked_path(scene, xs)
            assert "_paths" not in vars(scene)
        ys = xs[:2] + [5.0, 0.0, 0.0]   # 2 rows far from every blob: a list within the budget
        checked_path(scene, ys)
        paths = scene._paths
        checked_path(scene, ys)
        assert scene._paths is paths and paths.rebuilds == 1
        # a path of more rows than the budget is never listed, and the list stays
        zs = rng.normal(5.0, 0.01, (41, 3))
        for _ in range(3):
            checked_path(scene, zs)
        assert scene._paths is paths and paths.rebuilds == 1 and paths.origin.tobytes() == ys.tobytes()
        checked_path(scene, xs)
        assert "_paths" not in vars(scene)

    @pytest.mark.parametrize("rows, keeps, counts", [(1_000, True, (1,)), (40_000, False, (3,)),
                                                     (metrics._PATH_BUDGET + 1, False, (0,))])
    def test_a_path_over_the_budget_leaves_nothing_on_the_scene(self, monkeypatch, rows, keeps, counts):
        # one wide blob, so that every row lists one pair: 1000 rows keep their list; 40000
        # rows and their pairs go over the budget, and more rows than the budget are never listed
        scene = GaussianScene([unit_blob(sigma2=0.01)])
        traj = path_trajectory(np.random.default_rng(47).uniform(-0.2, 0.2, (rows, 3)))
        rebuilds = []
        rebuild = _NeighborList._rebuild

        def counted(self, xs):
            rebuilds.append(len(xs))
            rebuild(self, xs)

        monkeypatch.setattr(_NeighborList, "_rebuild", counted)
        scene.tree, scene._paths   # made before the count starts
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                collision_check(traj, scene, 0.1)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert (len(rebuilds),) == counts
        if keeps:
            assert held > 100 * rows   # its list: a pair and a row, over 100 bytes each
        else:
            assert held < 16_384


def per_row_sums(n, row, terms):
    """Oracle: each of n rows' terms added left to right from +0.0, grouped by
    row; +0.0 for a row with none."""
    counts = np.bincount(row, minlength=n)
    ends = np.cumsum(counts)
    return np.array([left_to_right_sum(terms[b - c:b]) for c, b in zip(counts, ends)], dtype=float)


class TestDensitySums:
    """_density_sums adds each row's kernel terms in pair order, left to right
    from +0.0, whatever the row's term count."""

    @staticmethod
    def assert_sums(counts, terms):
        """_density_sums on pairs whose kernel terms are exactly terms (d = 0,
        so each term is its opacity), against per_row_sums."""
        row = np.repeat(np.arange(len(counts)), counts)
        k = len(row)
        got = splats._density_sums(len(counts), row, np.zeros((k, 3)), np.tile(np.eye(3), (k, 1, 1)), terms)
        want = per_row_sums(len(counts), row, terms)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        return got

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(counts=st.lists(st.integers(0, 20), max_size=12), seed=st.integers(0, 2 ** 16))
    @example(counts=[7], seed=1)
    @example(counts=[8], seed=2)
    @example(counts=[0, 7, 8, 0, 1, 20, 3], seed=3)
    def test_random_rows_match_per_row_sums(self, counts, seed):
        # magnitudes from 1e-300 to 1, either sign, and signed zeros among them
        rng = np.random.default_rng(seed)
        k = sum(counts)
        width = rng.choice([1.0, 16.0, 300.0])   # decades spanned: close magnitudes round in every sum
        top = rng.uniform(width - 300.0, 0.0)
        terms = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(top - width, top, k)
        terms[rng.random(k) < 0.1] = rng.choice([0.0, -0.0])
        got = self.assert_sums(counts, terms)
        assert not np.signbit(got[np.asarray(counts, dtype=int) == 0]).any()

    def test_rows_with_no_terms_are_positive_zero(self):
        got = self.assert_sums([0, 3, 0, 9, 0], np.full(12, -0.0))
        assert got.tobytes() == np.zeros(5).tobytes()

    def test_negative_opacity_scene_matches_per_row_sums(self):
        # a negative opacity floor keeps negative and -0.0 opacities: negative and -0.0 terms
        base = cluttered_scene(200, seed=41)
        rng = np.random.default_rng(42)
        opacities = rng.uniform(-1.0, 1.0, len(base))
        opacities[::9] = -0.0
        scene = GaussianScene.from_arrays(base.means, base.covariances, opacities, opacity_floor=-2.0)
        assert len(scene) == len(base)
        xs = np.concatenate([base.means[:40] + rng.normal(0.0, 0.02, (40, 3)), rng.normal(0.0, 0.3, (40, 3))])
        row, idx = _neighbors(scene, xs, 0.0)
        d = xs[row] - scene.means[idx]
        terms = scene.opacities[idx] * np.exp(-0.5 * np.einsum("ni,nij,nj->n", d, scene.inv_covariances[idx], d))
        counts = np.bincount(row, minlength=len(xs))
        assert (terms < 0).any() and np.signbit(terms[terms == 0.0]).any()
        assert (counts == 0).any() and ((counts > 0) & (counts < 8)).any() and (counts >= 8).any()
        assert density_many(scene, xs).tobytes() == per_row_sums(len(xs), row, terms).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(counts=st.lists(st.integers(0, 300), max_size=6), seed=st.integers(0, 2 ** 16))
    @example(counts=[0, 1, 2, 7, 8, 9, 127, 128, 129, 300], seed=4)
    def test_rows_lie_within_the_left_to_right_error_bound(self, counts, seed):
        """Each row of k terms lies within gamma * sum|t| of the exact sum, with
        gamma = (k-1)u / (1 - (k-1)u) and u = 2**-53 (Higham 1993), measured
        exactly in rationals; a row of at most two terms is math.fsum's."""
        rng = np.random.default_rng(seed)
        k = sum(counts)
        width = rng.choice([1.0, 16.0, 323.0])   # decades spanned; the lowest reach the subnormals
        top = rng.uniform(width - 323.0, 0.0)
        terms = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(top - width, top, k)
        terms[rng.random(k) < 0.1] = rng.choice([0.0, -0.0])
        tiny = rng.random(k) < 0.05
        terms[tiny] = rng.choice([-1.0, 1.0], tiny.sum()) * rng.integers(1, 2 ** 20, tiny.sum()) * 5e-324
        row = np.repeat(np.arange(len(counts)), counts)
        got = splats._density_sums(len(counts), row, np.zeros((k, 3)), np.tile(np.eye(3), (k, 1, 1)), terms)
        for c, b, total in zip(counts, np.cumsum(counts, dtype=int), got):
            t = terms[b - c:b]
            exact = sum(map(Fraction, t), Fraction(0))
            if c <= 2:   # one addition at most: correctly rounded
                assert total == math.fsum(t)
            gamma = Fraction(max(c - 1, 0), 2 ** 53 - max(c - 1, 0))
            assert abs(Fraction(total) - exact) <= gamma * sum(map(Fraction, np.abs(t)), Fraction(0))


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

    @staticmethod
    def _write_ply(path, rows, fmt="binary_little_endian", newline="\n",
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
        scene = load_scene(path, opacity_floor=0.05)
        assert len(scene) == 1
        assert abs(scene.opacities[0] - 0.5) < 1e-9

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


# LAPACK-backed numpy.linalg functions, counted by TestSceneFactors
LAPACK = ["cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "pinv", "qr",
          "slogdet", "solve", "svd"]


class TestSceneFactors:
    """A scene's inverse covariances and radii come from the cheapest exact
    source: a PLY's scales and rotations, the scene a moved one came from, or
    else one eigvalsh and one inv.  Each agrees with LAPACK on the scene's own
    covariances within 1e-12."""

    @staticmethod
    def write_ply(tmp_path, n=2000, seed=20):
        # 3DGS layout: log-scales from 4 mm to 5 cm, unnormalised quaternions, logit opacities
        rng = np.random.default_rng(seed)
        rows = np.column_stack([rng.uniform(-1, 1, (n, 3)), np.log(rng.uniform(0.004, 0.05, (n, 3))),
                                rng.normal(size=(n, 4)) * rng.uniform(0.5, 2.0, (n, 1)),
                                rng.uniform(-6.0, 4.0, n)])
        path = tmp_path / "scene.ply"
        TestLoadScene._write_ply(path, rows.astype(np.float32))
        return path

    @staticmethod
    def assert_matches_lapack(scene):
        assert len(scene) > 0
        assert relative_gap(scene.inv_covariances, np.linalg.inv(scene.covariances)) <= 1e-12
        radii = CUTOFF_SIGMA * np.sqrt(np.linalg.eigvalsh(scene.covariances)[:, -1])
        assert relative_gap(scene.radii, radii) <= 1e-12

    def test_ply(self, tmp_path):
        self.assert_matches_lapack(load_scene(self.write_ply(tmp_path)))

    def test_moved_ply(self, tmp_path):
        scene = load_scene(self.write_ply(tmp_path, seed=21))
        R = quat_to_matrix(quat_normalize(np.array([0.3, -0.5, 0.8, 0.1])))
        self.assert_matches_lapack(apply_transform(scene, RigidTransform(R, [0.4, -1.0, 2.0])))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ply_validity_rule(self, tmp_path):
        # log-scales: kept, kept, s^2 at or below 1e-12, NaN, infinite, an exp
        # that overflows, and a zero quaternion
        a, b, c = np.log([0.1, 0.2, 0.3])
        rows = [[0, 0, 0, a, b, c, 1, 0, 0, 0, 0.5], [1, 0, 0, a, b, c, 0, 1, 0, 0, 0.5],
                [2, 0, 0, -30.0, b, c, 1, 0, 0, 0, 0.5], [3, 0, 0, np.nan, b, c, 1, 0, 0, 0, 0.5],
                [4, 0, 0, np.inf, b, c, 1, 0, 0, 0, 0.5], [5, 0, 0, 1000.0, b, c, 1, 0, 0, 0, 0.5],
                [6, 0, 0, a, b, c, 0, 0, 0, 0, 0.5]]
        path = tmp_path / "scene.ply"
        TestLoadScene._write_ply(path, rows)
        scene = load_scene(path)
        assert len(scene) == 2 and scene.rejected_count == 5
        assert np.array_equal(scene.radii, [CUTOFF_SIGMA * float(np.exp(np.float64(np.float32(c))))] * 2)

    def test_from_arrays_rejects_and_counts(self):
        covs = [np.eye(3), np.zeros((3, 3)), [[1, 2, 0], [0, 1, 0], [0, 0, 1]], np.full((3, 3), np.nan),
                4 * np.eye(3)]
        scene = GaussianScene.from_arrays(np.arange(15.0).reshape(5, 3), covs, np.ones(5))
        assert len(scene) == 2 and scene.rejected_count == 3
        assert np.array_equal(scene.means, [[0, 1, 2], [12, 13, 14]])
        assert np.array_equal(scene.radii, [CUTOFF_SIGMA, 2 * CUTOFF_SIGMA])

    def test_from_arrays_reach(self):
        # blob 0 is rejected; the error numbers the blobs as given
        with pytest.raises(SceneFormatError, match=r"^blob 2: bounding sphere reaches past 1e\+150 m"):
            GaussianScene.from_arrays([[0, 0, 0], [0, 0, 0], [0, 2e150, 0]],
                                      [np.zeros((3, 3)), np.eye(3), np.eye(3)], np.ones(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mean", [[np.nan, 0, 0], [0, -np.inf, 0], [np.inf, np.nan, 0]])
    def test_from_arrays_refuses_non_finite_mean(self, mean):
        with pytest.raises(SceneFormatError, match=r"^blob 0: non-finite mean \["):
            GaussianScene.from_arrays([mean], [np.eye(3)], [1.0])
        with pytest.raises(SceneFormatError, match=r"^blob 1: non-finite mean \["):
            GaussianScene([unit_blob(), GaussianBlob(mean, np.eye(3), 1.0)])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_from_arrays_refuses_infinite_opacity(self):
        # such a splat read density inf where its kernel is positive, and NaN where it underflows
        with pytest.raises(SceneFormatError, match=r"^blob 0: non-finite opacity inf$"):
            GaussianScene.from_arrays([[0, 0, 0]], [np.diag([1, 1e-6, 1e-6])], [np.inf])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blobs_refuse_nan_opacity(self):
        # the floor test dropped such a splat without counting it in rejected_count
        with pytest.raises(SceneFormatError, match=r"^blob 1: non-finite opacity nan$"):
            GaussianScene([unit_blob(), GaussianBlob(np.zeros(3), np.eye(3), np.nan)])

    BLOB_CASES = {
        "empty": lambda: ([], 0.05),
        # rejected covariances, then one valid blob below the floor
        "rejected and below the floor": lambda: ([GaussianBlob(m, c, a) for m, c, a in zip(
            np.arange(15.0).reshape(5, 3),
            [np.eye(3), np.zeros((3, 3)), [[1, 2, 0], [0, 1, 0], [0, 0, 1]], np.full((3, 3), np.nan), 4 * np.eye(3)],
            [1.0, 1.0, 1.0, 1.0, 0.01])], 0.05),
        "random": lambda: (scene_blobs(random_scene(60, 3)), 0.3),
        "separated": lambda: (scene_blobs(separated_scene(40, 4)), 0.5),
    }

    @pytest.mark.parametrize("name", list(BLOB_CASES))
    def test_blobs_and_arrays_build_the_same_scene(self, name):
        blobs, floor = self.BLOB_CASES[name]()
        got = GaussianScene(blobs, opacity_floor=floor)
        want = GaussianScene.from_arrays(np.array([b.mean for b in blobs]), np.array([b.covariance for b in blobs]),
                                         np.array([b.opacity for b in blobs]), opacity_floor=floor)
        for attr in ("means", "covariances", "inv_covariances", "radii", "opacities"):
            got_a, want_a = getattr(got, attr), getattr(want, attr)
            assert got_a.shape == want_a.shape and got_a.tobytes() == want_a.tobytes()
        assert (got.rejected_count, got.max_radius, got.opacity_floor) == \
            (want.rejected_count, want.max_radius, want.opacity_floor)
        assert 0 < len(got) < len(blobs) or not blobs

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mean, what", [([0, 2e150, 0], "bounding sphere reaches past"),
                                            ([np.nan, 0, 0], "non-finite mean")])
    def test_blobs_and_arrays_refuse_alike(self, mean, what):
        # blob 1 is rejected; the error numbers the blobs as given
        blobs = [unit_blob(), GaussianBlob(np.zeros(3), np.zeros((3, 3)), 1.0), GaussianBlob(mean, np.eye(3), 1.0)]
        with pytest.raises(SceneFormatError) as from_blobs:
            GaussianScene(blobs)
        with pytest.raises(SceneFormatError) as from_arrays:
            GaussianScene.from_arrays([b.mean for b in blobs], [b.covariance for b in blobs], [1.0] * 3)
        assert str(from_blobs.value) == str(from_arrays.value)
        assert str(from_arrays.value).startswith(f"blob 2: {what}")

    def test_lapack_calls(self, tmp_path, monkeypatch):
        # none for a PLY load and its move; one eigvalsh and one inv for a JSON
        # load, its rejected covariances included
        ply = self.write_ply(tmp_path, n=50)
        T = RigidTransform(np.eye(3), [0.1, 0.2, 0.3])
        json_path = tmp_path / "scene.json"
        json_path.write_text(json.dumps({"blobs": [BLOB, dict(BLOB, cov=np.zeros((3, 3)).tolist()),
                                                   dict(BLOB, cov=[[1, 0], [0, 1]]), dict(BLOB, mu=[1, 0, 0])]}))
        calls = {}
        for name in LAPACK:
            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        assert len(apply_transform(load_scene(ply), T)) > 0
        assert calls == {}
        scene = load_scene(json_path)
        assert len(scene) == 2 and scene.rejected_count == 2
        assert calls == {"eigvalsh": 1, "inv": 1}


# ---- malformed scene files: one SceneFormatError naming the file --------------

BLOB = {"mu": [0, 0, 0], "cov": np.eye(3).tolist(), "alpha": 1.0}

# name: (scene JSON text, what the message names after the file)
BAD_SCENE_JSON = {
    "top_level_number": ("5", "scene JSON must be an object with a 'blobs' list"),
    "blobs_number": ('{"blobs": 5}', "scene JSON must be an object with a 'blobs' list"),
    "blob_number": ('{"blobs": [5]}', "blob 0: expected an object"),
    "alpha_null": (json.dumps({"blobs": [BLOB, dict(BLOB, alpha=None)]}),
                   "blob 1: 'alpha' must hold only numbers"),
    "alpha_list": (json.dumps({"blobs": [dict(BLOB, alpha=[1, 2])]}), "blob 0: 'alpha' must be a finite number"),
    "alpha_bool": (json.dumps({"blobs": [dict(BLOB, alpha=True)]}), "blob 0: 'alpha' must hold only numbers"),
    "alpha_nan": (json.dumps({"blobs": [dict(BLOB, alpha=float("nan"))]}), "blob 0: 'alpha' must be a finite"),
    # an opacity lies in [0, 1], as a PLY logit's sigmoid does
    **{f"alpha_{name}": (json.dumps({"blobs": [BLOB, dict(BLOB, alpha=alpha)]}),
                         f"blob 1: 'alpha' must be a finite number in [0, 1], got {shown}")
       for name, alpha, shown in [("above_one", 2, "2"), ("huge", 1e308, "1e+308"), ("negative", -0.5, "-0.5"),
                                  ("just_above_one", 1.0000000000000002, "1.0000000000000002")]},
    "mu_string": (json.dumps({"blobs": [dict(BLOB, mu=["0", 0, 0])]}), "blob 0: 'mu' must hold only numbers"),
    "mu_ragged": (json.dumps({"blobs": [dict(BLOB, mu=[[0, 0], 0])]}), "blob 0: 'mu' must hold only numbers"),
    "mu_infinite": (json.dumps({"blobs": [dict(BLOB, mu=[float("inf"), 0, 0])]}),
                    "blob 0: 'mu' must hold 3 finite"),
    "mu_huge_int": ('{"blobs": [{"mu": [1' + "0" * 400 + ', 0, 0], "cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
                    '"alpha": 1}]}', "blob 0: int too large"),
    "cov_ragged": (json.dumps({"blobs": [dict(BLOB, cov=[[1, 0, 0], [0, 1], [0, 0, 1]])]}),
                   "blob 0: 'cov' must hold only numbers"),
    "missing_cov": (json.dumps({"blobs": [BLOB, {"mu": [0, 0, 0], "alpha": 1.0}]}), "blob 1: expected an object"),
    "not_json": ('{"blobs": [', "scene is not readable JSON"),
}

PLY_TAIL = ["element vertex 1"] + [f"property float {p}" for p in TestLoadScene._PLY_PROPS] + ["end_header"]

# name: (PLY header lines, the malformed line and its 1-based number)
BAD_PLY_HEADERS = {
    "element_without_count": (["ply", "format ascii 1.0", "element vertex"] + PLY_TAIL[1:], 3),
    "element_count_not_integer": (["ply", "format ascii 1.0", "element vertex 1.5"] + PLY_TAIL[1:], 3),
    "property_without_name": (["ply", "format ascii 1.0", "property float"] + PLY_TAIL, 3),
    "bare_format": (["ply", "format"] + PLY_TAIL, 2),
}


class TestMalformedScene:
    @pytest.mark.parametrize("name", BAD_SCENE_JSON)
    def test_json_names_file_and_blob(self, tmp_path, name):
        text, message = BAD_SCENE_JSON[name]
        path = tmp_path / "scene.json"
        path.write_text(text)
        with pytest.raises(SceneFormatError) as info:
            load_scene(path)
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wrong_shaped_cov_is_rejected_not_an_error(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"blobs": [BLOB, dict(BLOB, cov=[[1, 0], [0, 1]]),
                                              dict(BLOB, cov=[[float("inf"), 0, 0], [0, 1, 0], [0, 0, 1]]),
                                              dict(BLOB, cov=[[1e308, 0, 0], [-1e308, 1, 0], [0, 0, 1]])]}))
        scene = load_scene(path)
        assert len(scene) == 1 and scene.rejected_count == 3

    @pytest.mark.parametrize("name", BAD_PLY_HEADERS)
    def test_ply_header_names_file_and_line(self, tmp_path, name):
        lines, number = BAD_PLY_HEADERS[name]
        path = tmp_path / "scene.ply"
        path.write_bytes(("\n".join(lines) + "\n" + " ".join(["0"] * 11) + "\n").encode())
        with pytest.raises(SceneFormatError) as info:
            load_scene(path)
        assert str(info.value) == f"{path}: malformed PLY header line {number}: {lines[number - 1]!r}"

    def test_ply_non_ascii_header_and_body(self, tmp_path):
        path = tmp_path / "scene.ply"
        path.write_bytes("\n".join(["ply", "format ascii 1.0", "comment café"] + PLY_TAIL).encode() + b"\n")
        with pytest.raises(SceneFormatError, match="PLY header is not ASCII"):
            load_scene(path)
        body = "0 0 0 x 0 0 1 0 0 0 0\n"
        path.write_bytes(("\n".join(["ply", "format ascii 1.0"] + PLY_TAIL) + "\n" + body).encode())
        with pytest.raises(SceneFormatError, match="PLY body holds a non-number"):
            load_scene(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ply_non_finite_position_and_overflowing_scale(self, tmp_path):
        path = tmp_path / "scene.ply"
        # kept; scale overflows; quaternion norm overflows; opacity below the floor
        body = ["0 0 0 0 0 0 1 0 0 0 0", "1 0 0 1000 0 0 1 0 0 0 0", "0 1 0 0 0 0 1e300 1e300 0 0 0",
                "0 0 1 0 0 0 1 0 0 0 -1000"]
        path.write_bytes(("\n".join(["ply", "format ascii 1.0", "element vertex 4"] + PLY_TAIL[1:] + body)
                          + "\n").encode())
        scene = load_scene(path)
        assert len(scene) == 1 and scene.rejected_count == 2
        path.write_bytes(path.read_bytes().replace(b"\n1 0 0 1000", b"\nnan 0 0 1000"))
        with pytest.raises(SceneFormatError, match=r"vertex 1: non-finite position \[nan, 0.0, 0.0\]"):
            load_scene(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ply_nan_opacity_logit(self, tmp_path):
        path = tmp_path / "scene.ply"
        body = ["0 0 0 0 0 0 1 0 0 0 0", "1 0 0 0 0 0 1 0 0 0 nan"]
        path.write_bytes(("\n".join(["ply", "format ascii 1.0", "element vertex 2"] + PLY_TAIL[1:] + body)
                          + "\n").encode())
        with pytest.raises(SceneFormatError, match=r"vertex 1: non-finite opacity nan$"):
            load_scene(path)

    @pytest.mark.parametrize("mu,cov", [([0, 1e200, 0], np.eye(3)), ([0, 0, -2e150], np.eye(3)),
                                        ([0, 0, 0], 1e302 * np.eye(3))])
    def test_json_blob_reaching_too_far(self, tmp_path, mu, cov):
        # blob 0's covariance is rejected; the error names blob 2 by its place in the file
        path = tmp_path / "scene.json"
        blob = {"mu": [0, 0, 0], "cov": np.eye(3).tolist(), "alpha": 1.0}
        path.write_text(json.dumps({"blobs": [{**blob, "cov": np.zeros((3, 3)).tolist()}, blob,
                                              {**blob, "mu": mu, "cov": cov.tolist()}]}))
        with pytest.raises(SceneFormatError, match=rf"^{path}: blob 2: bounding sphere reaches past 1e\+150 m"):
            load_scene(path)

    # the second sphere reaches 6.9e149, though its trace bound passes 1e150
    @pytest.mark.parametrize("mu,cov", [([1e149, 0, -1e149], np.eye(3)), ([0, 0, 0], 3e298 * np.eye(3))])
    def test_json_blob_near_the_limit_loads(self, tmp_path, mu, cov):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"blobs": [{"mu": mu, "cov": cov.tolist(), "alpha": 1.0}]}))
        scene = load_scene(path)
        assert density(scene, mu) == 1.0

    @pytest.mark.parametrize("far", ["1e200 0 0 0 0 0 1 0 0 0 0", "0 0 0 350 0 0 1 0 0 0 0"])
    def test_ply_vertex_reaching_too_far(self, tmp_path, far):
        # vertex 0 is dropped (zero quaternion); a position or a log-scale reaching past 1e150
        path = tmp_path / "scene.ply"
        body = ["0 0 0 0 0 0 0 0 0 0 0", "0 0 0 0 0 0 1 0 0 0 0", far]
        path.write_bytes(("\n".join(["ply", "format ascii 1.0", "element vertex 3"] + PLY_TAIL[1:] + body)
                          + "\n").encode())
        with pytest.raises(SceneFormatError, match=r"vertex 2: bounding sphere reaches past 1e\+150 m"):
            load_scene(path)

    @pytest.mark.parametrize("fmt, rows, count, message", [
        ("binary_little_endian", 3, 4, "truncated PLY body"),
        ("binary_little_endian", 1, 10 ** 12, "truncated PLY body"),
        ("ascii", 1, 10 ** 12, "PLY body shape mismatch")])
    def test_ply_count_beyond_the_body(self, tmp_path, fmt, rows, count, message):
        # refused before any array of the header's count exists
        path = tmp_path / "scene.ply"
        TestLoadScene._write_ply(path, [[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0.0]] * rows, fmt=fmt, count=count)
        tracemalloc.start()
        try:
            with pytest.raises(SceneFormatError) as info:
                load_scene(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{path}: {message}"
        assert peak < 1 << 20


# ---- streaming PLY loads: chunk by chunk, as the whole-file reference --------

CHUNK = _PLY_CHUNK_ROWS
PLY_3DGS = (["x", "y", "z", "nx", "ny", "nz"] + [f"f_dc_{i}" for i in range(3)] + [f"f_rest_{i}" for i in range(45)]
            + ["opacity"] + [f"scale_{i}" for i in range(3)] + [f"rot_{i}" for i in range(4)])
PLY_COL = {p: i for i, p in enumerate(PLY_3DGS)}
PLY_SCALES = [PLY_COL[f"scale_{i}"] for i in range(3)]
PLY_ROTS = [PLY_COL[f"rot_{i}"] for i in range(4)]


def ply_rows_3dgs(n, seed):
    """n float32 rows in the 3DGS layout: log-scales from 4 mm to 5 cm,
    unnormalised quaternions and logit opacities, a third of them below the
    0.05 floor, with zero quaternions and overflowing and vanishing
    log-scales planted every few rows."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, len(PLY_3DGS)))
    rows[:, :3] = rng.uniform(-1, 1, (n, 3))
    rows[:, PLY_SCALES] = np.log(rng.uniform(0.004, 0.05, (n, 3)))
    rows[:, PLY_COL["opacity"]] = rng.uniform(-6.0, 4.0, n)
    rows[:, PLY_ROTS] *= rng.uniform(0.5, 2.0, (n, 1))
    rows[1::7, PLY_ROTS] = 0.0
    rows[3::11, PLY_SCALES[0]] = 1000.0    # exp overflows
    rows[5::13, PLY_SCALES[1]] = -30.0     # s^2 at or below 1e-12
    return rows.astype(np.float32)


def write_ply_3dgs(path, rows, fmt="binary_little_endian"):
    TestLoadScene._write_ply(path, rows, fmt=fmt, props=PLY_3DGS)
    return path


def plant(rows, row, fault):
    """Make a valid splat of the row, with a position that is not finite or
    a log-scale that reaches past 1e150 m."""
    rows[row, PLY_ROTS] = [1, 0, 0, 0]
    rows[row, PLY_SCALES] = np.log(0.01)
    if fault == "far":
        rows[row, PLY_SCALES[2]] = 350.0
    else:
        rows[row, 1] = np.nan


FAULT_MESSAGES = {"far": "bounding sphere reaches past 1e+150 m from the origin", "nan": "non-finite position"}


class TestPlyStreaming:
    """load_scene reads a binary PLY body _PLY_CHUNK_ROWS records at a time;
    its scenes are bit for bit those of tests/helpers.ply_scene_reference,
    the whole-file loader."""

    @staticmethod
    def assert_same_scene(got, want):
        for attr in ("means", "covariances", "inv_covariances", "radii", "opacities"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), attr
        assert (len(got), got.rejected_count, got.max_radius) == (len(want), want.rejected_count, want.max_radius)

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
    def test_binary_matches_whole_file_reference(self, tmp_path, n):
        path = write_ply_3dgs(tmp_path / "scene.ply", ply_rows_3dgs(n, seed=n))
        scene = load_scene(path)
        self.assert_same_scene(scene, ply_scene_reference(path))
        if n > 1:   # every rule drops some splats
            assert 0 < len(scene) < n - scene.rejected_count and scene.rejected_count > n // 7

    def test_ascii_matches_whole_file_reference(self, tmp_path):
        path = write_ply_3dgs(tmp_path / "scene.ply", ply_rows_3dgs(300, seed=3), fmt="ascii")
        self.assert_same_scene(load_scene(path, opacity_floor=0.2), ply_scene_reference(path, opacity_floor=0.2))

    @pytest.mark.parametrize("fault", FAULT_MESSAGES)
    @pytest.mark.parametrize("row", [CHUNK + 3, 2 * CHUNK + 5])
    def test_fault_in_a_later_chunk_names_its_vertex(self, tmp_path, fault, row):
        rows = ply_rows_3dgs(3 * CHUNK + 17, seed=7)
        plant(rows, row, fault)
        path = write_ply_3dgs(tmp_path / "scene.ply", rows)
        with pytest.raises(SceneFormatError) as got:
            load_scene(path)
        with pytest.raises(SceneFormatError) as want:
            ply_scene_reference(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}: vertex {row}: {FAULT_MESSAGES[fault]}")

    # (first fault, its row, second fault, its row): the first in file order is named, in one chunk or
    # two; the whole-file loader named a non-finite position anywhere before a splat reaching too far
    @pytest.mark.parametrize("first, at, second, later", [("far", CHUNK + 1, "nan", 2 * CHUNK + 2),
                                                          ("nan", CHUNK + 1, "far", 2 * CHUNK + 2),
                                                          ("far", 10, "nan", 20),
                                                          ("nan", 10, "far", 20)])
    def test_two_faults_name_the_first_in_the_file(self, tmp_path, first, at, second, later):
        rows = ply_rows_3dgs(3 * CHUNK + 17, seed=8)
        plant(rows, at, first)
        plant(rows, later, second)
        path = write_ply_3dgs(tmp_path / "scene.ply", rows)
        with pytest.raises(SceneFormatError) as got:
            load_scene(path)
        with pytest.raises(SceneFormatError) as whole_file:
            ply_scene_reference(path)
        assert str(got.value).startswith(f"{path}: vertex {at}: {FAULT_MESSAGES[first]}")
        nan_row = at if first == "nan" else later
        assert str(whole_file.value).startswith(f"{path}: vertex {nan_row}: non-finite position")

    def test_peak_memory_near_the_kept_scene(self, tmp_path):
        # 2e5 splats in the 3DGS layout, 1% below the floor and 0.5% with a zero quaternion, as bench/inputs
        # plants them; the whole-file loader peaked at 2.7 times the kept arrays
        n = 200_000
        rng = np.random.default_rng(9)
        rows = np.zeros(n, dtype=[(p, "<f4") for p in PLY_3DGS])
        for p in ("x", "y", "z"):
            rows[p] = rng.uniform(-1, 1, n)
        for i in range(3):
            rows[f"scale_{i}"] = np.log(rng.uniform(0.004, 0.02, n))
        for i in range(4):
            rows[f"rot_{i}"] = rng.normal(size=n)
        rows["opacity"] = rng.uniform(-2.0, 4.0, n)
        picked = rng.choice(n, n // 100 + n // 200, replace=False)
        rows["opacity"][picked[:n // 100]] = -6.0
        for i in range(4):
            rows[f"rot_{i}"][picked[n // 100:]] = 0.0
        path = tmp_path / "scene.ply"
        with open(path, "wb") as f:
            f.write(("ply\nformat binary_little_endian 1.0\n" f"element vertex {n}\n"
                     + "".join(f"property float {p}\n" for p in PLY_3DGS) + "end_header\n").encode())
            f.write(rows.tobytes())
        del rows
        tracemalloc.start()
        try:
            scene = load_scene(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (scene.means, scene.covariances, scene.inv_covariances, scene.radii,
                                      scene.opacities))
        assert len(scene) == n - n // 100 - n // 200
        assert peak <= 1.25 * kept, f"peak {peak / 1e6:.1f} MB, kept arrays {kept / 1e6:.1f} MB"

    def test_scene_holds_only_its_kept_splats(self, tmp_path):
        # a third of these splats are below the floor and a few more are invalid: the loaded scene
        # holds its kept arrays and not the rows it dropped
        path = write_ply_3dgs(tmp_path / "scene.ply", ply_rows_3dgs(12305, seed=1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scene = load_scene(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (scene.means, scene.covariances, scene.inv_covariances, scene.radii,
                                      scene.opacities))
        assert (len(scene), scene.rejected_count) == (6161, 3455)
        assert held <= 1.1 * kept, f"held {held / 1e6:.2f} MB, kept arrays {kept / 1e6:.2f} MB"

    @pytest.mark.parametrize("tool", ["settrace", "cprofile"])
    def test_loads_under_a_tracer_or_profiler(self, tmp_path, tool):
        # a profiler or tracer holds the bound method of a C call, which numpy's resize refcheck counted as
        # a second reference to the array being shrunk
        path = write_ply_3dgs(tmp_path / "scene.ply", ply_rows_3dgs(3 * CHUNK + 17, seed=5))
        plain = load_scene(path)
        if tool == "settrace":
            previous = sys.gettrace()
            sys.settrace(lambda frame, event, arg: None)
            try:
                traced = load_scene(path)
            finally:
                sys.settrace(previous)
        else:
            profile = cProfile.Profile()
            profile.enable()
            try:
                traced = load_scene(path)
            finally:
                profile.disable()
        assert len(plain) < 3 * CHUNK + 17 - plain.rejected_count   # the arrays were shrunk
        self.assert_same_scene(traced, plain)

# ---- loader fuzz: mutations of valid scene files -------------------------------

FUZZ_NUMBERS = st.one_of(st.floats(), st.integers(-3, 3), st.just(10 ** 400), st.sampled_from([1e-300, 1e300]))
FUZZ_VALUES = st.one_of(
    st.recursive(st.none() | st.booleans() | FUZZ_NUMBERS | st.text(max_size=3),
                 lambda inner: (st.lists(inner, max_size=3)
                                | st.dictionaries(st.text(max_size=3), inner, max_size=2)),
                 max_leaves=5),
    st.lists(FUZZ_NUMBERS, min_size=2, max_size=4),
    st.lists(st.lists(FUZZ_NUMBERS, min_size=3, max_size=3), min_size=3, max_size=3))
FUZZ_BLOBS = [{"mu": [0.1 * i, 0.0, 0.0], "cov": (0.01 * np.eye(3)).tolist(), "alpha": 0.5} for i in range(3)]


@st.composite
def mutated_scene_json(draw):
    """A three-blob scene JSON with one to three changes: a key dropped, a
    value replaced, a blob, 'blobs' or the top level replaced by any JSON
    value, or the text cut short."""
    doc = {"blobs": [dict(b) for b in FUZZ_BLOBS]}
    cut = False
    for _ in range(draw(st.integers(1, 3))):
        blobs = doc.get("blobs") if isinstance(doc, dict) else None
        kind = draw(st.sampled_from(["drop", "value", "value", "blob", "blobs", "top", "cut"]))
        if kind in ("drop", "value", "blob") and isinstance(blobs, list) and blobs:
            i = draw(st.integers(0, len(blobs) - 1))
            if kind == "blob" or not isinstance(blobs[i], dict):
                blobs[i] = draw(FUZZ_VALUES)
            elif kind == "drop" and blobs[i]:
                del blobs[i][draw(st.sampled_from(sorted(blobs[i])))]
            else:
                blobs[i][draw(st.sampled_from(["mu", "cov", "alpha"]))] = draw(FUZZ_VALUES)
        elif kind == "blobs" and isinstance(doc, dict):
            doc["blobs"] = draw(FUZZ_VALUES)
        elif kind == "top":
            doc = draw(FUZZ_VALUES)
        cut |= kind == "cut"
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text) - 1))] if cut else text


FUZZ_PLY_ROWS = [[0.1 * i, 0.0, 0.0, -4.0, -4.0, -4.0, 1.0, 0.0, 0.0, 0.0, 2.0] for i in range(3)]


def fuzz_ply_header(fmt):
    return (["ply", f"format {fmt} 1.0", "comment fuzz", "element vertex 3"]
            + [f"property float {p}" for p in TestLoadScene._PLY_PROPS] + ["end_header"])


@st.composite
def mutated_ply(draw):
    """A three-splat PLY, ASCII or binary, with one to three changes to its
    header lines (a token dropped or replaced, a line removed, repeated or
    inserted) or to its body bytes (bytes replaced, the body cut or extended)."""
    fmt = draw(st.sampled_from(["ascii", "binary_little_endian"]))
    header = fuzz_ply_header(fmt)
    if fmt == "ascii":
        body = "".join(" ".join(map(repr, r)) + "\n" for r in FUZZ_PLY_ROWS).encode()
    else:
        body = b"".join(struct.pack("<11f", *r) for r in FUZZ_PLY_ROWS)
    token = st.one_of(st.sampled_from(["", "1.5", "-2", "99999999999999999999", "list", "double", "uchar",
                                       "x", "opacity", "vertex", "face", "format", "element", "property",
                                       "binary_big_endian", "ascii"]),
                      st.text(st.characters(max_codepoint=0xff), max_size=4))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "token", "line", "repeat", "insert", "bytes", "cut", "extend"]))
        i = draw(st.integers(1, len(header) - 2))
        tokens = header[i].split()
        if kind == "drop" and tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif kind == "token" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(token)
        elif kind == "line":
            tokens = []
        elif kind == "repeat":
            header.insert(i, header[i])
        elif kind == "insert":
            header.insert(i, " ".join(draw(st.lists(token, max_size=4))))
        elif kind == "bytes" and body:
            j = draw(st.integers(0, len(body) - 1))
            body = body[:j] + draw(st.binary(max_size=6)) + body[j + draw(st.integers(0, 6)):]
        elif kind == "cut":
            body = body[:draw(st.integers(0, len(body)))]
        elif kind == "extend":
            body += draw(st.binary(min_size=1, max_size=16))
        if kind in ("drop", "token", "line"):
            header[i] = " ".join(tokens)
    return "\n".join(header).encode("latin-1") + b"\n" + body


def scene_loads_or_fails_cleanly(path):
    """load_scene returns a scene or raises a SceneFormatError naming the
    file, and `splatsynth density` on it exits 0, or 1 with one error line."""
    try:
        loaded = len(load_scene(path)) >= 0
    except SceneFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        loaded = False
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["density", str(path), "0", "0", "0"])
    assert code == 0 and err.getvalue() == "" or code == 1 and len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("error: ") if code else loaded


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scene_fuzz")


# a numpy warning is a defect here too: it would be a second line on stderr
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSceneLoaderFuzz:
    def test_valid_files_load(self, fuzz_dir):
        for name, data in [("ok.json", json.dumps({"blobs": FUZZ_BLOBS}).encode()),
                           ("ok.ply", "\n".join(fuzz_ply_header("binary_little_endian")).encode() + b"\n"
                            + b"".join(struct.pack("<11f", *r) for r in FUZZ_PLY_ROWS))]:
            (fuzz_dir / name).write_bytes(data)
            assert len(load_scene(fuzz_dir / name)) == 3

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(text=mutated_scene_json())
    def test_json(self, fuzz_dir, text):
        path = fuzz_dir / "scene.json"
        path.write_text(text)
        scene_loads_or_fails_cleanly(path)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=mutated_ply())
    def test_ply(self, fuzz_dir, data):
        path = fuzz_dir / "scene.ply"
        path.write_bytes(data)
        scene_loads_or_fails_cleanly(path)
