import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from splatsynth import alignment
from splatsynth.alignment import (
    AlignmentError,
    IcpParams,
    RigidTransform,
    _procrustes,
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


@st.composite
def icp_cases(draw):
    """(source, target, params): a cloud and a copy moved by a planted
    transform, with any of noise, partial overlap, far outliers, duplicated
    targets, and source rows within a few ulps of equidistant from a target
    and its nearest neighbour."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    cloud = random_cloud(draw(st.integers(8, 150)), seed)
    angle, shift = draw(st.sampled_from([(0.0, 0.0), (1.0, 0.005), (8.0, 0.05)]))
    source, target = cloud, random_rigid(seed + 1, angle, shift).apply(cloud)
    target = target + rng.normal(scale=draw(st.sampled_from([0.0, 1e-9, 1e-4, 0.003, 0.01])), size=target.shape)
    if draw(st.booleans()):   # partial overlap: the source's lowest x, the target's highest
        rank, m = np.argsort(np.argsort(cloud[:, 0])), int(draw(st.floats(0.3, 0.8)) * len(cloud))
        source, target = source[rank < m], target[rank >= len(cloud) - m]
    if draw(st.booleans()):   # far outliers
        source = np.vstack([source, rng.uniform(1.0, 2.0, size=(draw(st.integers(1, 20)), 3))])
    if draw(st.booleans()):   # exact ties: duplicated targets
        target = np.vstack([target, target[rng.integers(0, len(target), size=draw(st.integers(1, 5)))]])
    if draw(st.booleans()):   # near ties, each mirrored through its nearer target so that their pulls cancel
        a = target[rng.integers(0, len(target), size=draw(st.integers(1, 10)))]
        b = target[cKDTree(target).query(a, k=2)[1][:, 1]]
        f = 0.5 + draw(st.integers(-4, 4)) * 2.0**-52
        near = a if f <= 0.5 else b
        mid = a + f * (b - a)
        source = np.vstack([source, mid, 2 * near - mid])
    cap = draw(st.sampled_from([0.005, 0.01, 0.03, 0.1, 0.5, math.inf]))
    if cap < math.inf and draw(st.booleans()):
        # pairs a few ulps from the cap on either side of a target, whose pulls cancel
        a = target[rng.integers(0, len(target), size=draw(st.integers(1, 5)))]
        u = rng.normal(size=a.shape)
        u *= cap * (1 + draw(st.integers(-4, 4)) * 2.0**-52) / np.linalg.norm(u, axis=1, keepdims=True)
        source = np.vstack([source, a + u, a - u])
    params = IcpParams(max_iters=draw(st.integers(1, 25)),
                       tol=draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4])), max_corr_dist=cap)
    return source[rng.permutation(len(source))], target, params


class TestIcpCertificate:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=icp_cases())
    def test_matches_reference(self, case):
        """A match kept unqueried is the one a plain query would return."""
        assert_icp_matches_reference(*case)

    def test_rounding_slack(self):
        # near ties mirrored so that their pulls cancel: of 3000 seeds of this
        # construction, the one where a certificate without eps keeps a wrong match
        rng = np.random.default_rng(2976)
        target = rng.uniform(-0.3, 0.3, size=(rng.integers(8, 60), 3))
        a = target[rng.integers(0, len(target), size=rng.integers(1, 10))]
        b = target[cKDTree(target).query(a, k=2)[1][:, 1]]
        mid = a + (0.5 + rng.integers(-4, 5) * 2.0**-52) * (b - a)
        source = np.vstack([target, mid, 2 * b - mid])
        assert_icp_matches_reference(source, target, IcpParams(max_iters=10, tol=0.0, max_corr_dist=math.inf))


@pytest.fixture
def queries(monkeypatch):
    """The (tree size, query rows, keyword arguments) of each query icp_align
    sends to its target tree."""
    seen = []

    class Tree(cKDTree):
        def query(self, x, *args, **kwargs):
            seen.append((self.n, np.array(x), kwargs))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(alignment, "cKDTree", Tree)
    return seen


@pytest.fixture
def fits(monkeypatch):
    """The transforms icp_align's Procrustes fits return, in call order."""
    seen = []

    def procrustes(src, dst):
        seen.append(_procrustes(src, dst))
        return seen[-1]

    monkeypatch.setattr(alignment, "_procrustes", procrustes)
    return seen


def leaf_order(points):
    return cKDTree(points, balanced_tree=False, compact_nodes=False).indices


def assert_leaf_ordered_rows(x, moved):
    """The rows of x are a subsequence of moved's rows, bit for bit and in order."""
    position = {row.tobytes(): k for k, row in enumerate(moved)}
    found = np.array([position.get(row.tobytes(), -1) for row in x])
    assert np.all(found >= 0) and np.all(np.diff(found) > 0)


class TestIcpQueries:
    def test_one_leaf_ordered_query_per_iteration(self, queries, fits):
        """With every row an inlier, each iteration sends the target tree at
        most one 2-neighbour query: every source row in the first iteration,
        in the leaf order of a k-d tree of the source, bounded just past
        max_corr_dist; then a leaf-ordered subsequence, the rows whose match
        can have changed, bounded by twice the last fit's largest inlier
        residual and a rounding margin."""
        src = random_cloud(500, 80)
        dst = random_rigid(81, max_angle_deg=2.0, max_trans=0.01).apply(src)
        res = icp_align(src, dst, IcpParams(max_corr_dist=0.1))
        order = leaf_order(src)
        assert not np.array_equal(order, np.arange(len(src)))
        assert len(queries) == len(fits) == len(res.residuals) >= 3
        assert np.array_equal(queries[0][1], src[order])   # the first query moves nothing
        starts = [RigidTransform.identity()] + fits
        for j, ((n, x, kwargs), T) in enumerate(zip(queries, starts)):
            assert n == len(dst) and kwargs.keys() == {"k", "distance_upper_bound"} and kwargs["k"] == 2
            assert_leaf_ordered_rows(x, T.apply(src)[order])
            bound = kwargs["distance_upper_bound"]
            if j == 0:
                assert 0.1 < bound <= 0.1 * (1 + 1e-5)
            else:
                # the last fit's inliers are the rows a plain query matches from where its iteration started
                dist, nn = cKDTree(dst).query(starts[j - 1].apply(src))
                radius = np.linalg.norm(T.apply(src) - dst[nn], axis=1)[dist <= 0.1].max()
                assert min(2 * radius, 0.1) < bound <= min(2 * radius + 1e-10, 0.1 * (1 + 1e-5))
        assert len(queries[1][1]) < len(src) and len(queries[-1][1]) < len(queries[1][1])
        assert queries[-1][2]["distance_upper_bound"] < 1e-10


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

    def test_no_coarse_queries_below_the_threshold(self, queries, fits):
        src = random_cloud(2 * alignment._COARSE_ROWS - 1, 910)
        dst = random_rigid(911, max_angle_deg=1.0, max_trans=0.02).apply(src)
        res = assert_icp_matches_reference(src, dst)
        order = leaf_order(src)
        assert np.array_equal(queries[0][1], src[order])   # every row first
        for (_, x, _), T in zip(queries, [RigidTransform.identity()] + fits):
            assert_leaf_ordered_rows(x, T.apply(src)[order])
        # an exact copy: the converged iteration keeps every match unqueried
        assert len(queries) == len(fits) == len(res.residuals) - 1 >= 2

    def test_sample_queries_then_every_row(self, queries, fits):
        src = random_cloud(3000, 920)
        dst = random_rigid(921, max_angle_deg=1.0, max_trans=0.02).apply(src)
        res = icp_align(src, dst)
        order = leaf_order(src)
        sample = src[order[::len(src) // alignment._COARSE_ROWS]]
        coarse = icp_reference(sample, dst)
        assert len(sample) == 1000 and len(coarse.residuals) >= 2
        n_coarse = [len(x) for _, x, _ in queries].index(len(src))
        assert 2 <= n_coarse <= len(coarse.residuals) and len(queries) == len(fits)
        assert all(n == len(dst) for n, _, _ in queries)
        assert np.array_equal(queries[0][1], sample)   # leaf-ordered, moved by nothing
        starts = [RigidTransform.identity()] + fits
        for (_, x, _), T in zip(queries[:n_coarse], starts):
            assert_leaf_ordered_rows(x, T.apply(sample))
        # the full stage starts from the coarse transform, every row in leaf order
        assert np.array_equal(queries[n_coarse][1], coarse.transform.apply(src)[order])
        for (_, x, _), T in zip(queries[n_coarse:], starts[n_coarse:]):
            assert_leaf_ordered_rows(x, T.apply(src)[order])
        # an exact copy: the full stage's converged iteration queries nothing
        assert len(queries) - n_coarse == len(res.residuals) - 1

    def test_sample_without_inliers_falls_back_to_init(self, queries):
        # a 1 cm lattice whose target copies only the rows at odd leaf
        # positions: the sample (the even ones) has no match within 2 mm
        axis = np.arange(13) * 0.01
        src = np.stack(np.meshgrid(axis, axis, axis[:12], indexing="ij"), axis=-1).reshape(-1, 3)
        dst = src[leaf_order(src)[1::2]]
        init = random_rigid(930, max_angle_deg=0.05, max_trans=0.001)
        res = assert_icp_matches_reference(src, dst, IcpParams(max_corr_dist=0.002), init)
        assert res.n_inliers == len(dst)
        sizes = [len(x) for _, x, _ in queries]
        bounds = [kwargs["distance_upper_bound"] for _, _, kwargs in queries]
        # the coarse stage queries every sample row just past max_corr_dist,
        # then again twice as far, finds no match, and so raises
        assert sizes[:2] == [len(src) // 2] * 2
        assert 0.002 < bounds[0] <= 0.002 * (1 + 1e-5) and bounds[1] == 2 * bounds[0]
        # the full stage starts from init as if alone: every row, then the rows
        # with no copy twice as far; its second iteration certifies every match
        assert sizes[2:] == [len(src), len(src) - len(dst)] and bounds[2:] == bounds[:2]
        assert len(res.residuals) == 2

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


def room_copy(n, seed):
    """A scan and its proxy as the benchmark's desk scene builds them: n
    uniform room points stored as float32, and their exact copy moved by a
    planted transform of at most 1 degree and 2 cm."""
    rng = np.random.default_rng(seed)
    src = rng.uniform([-1.4, -1.4, -0.8], [1.4, 1.4, 1.2], size=(n, 3)).astype(np.float32).astype(float)
    return src, random_rigid(seed + 1, max_angle_deg=1.0, max_trans=0.02).apply(src)


def assert_fit_matches_reference(source, target):
    """icp_align's transform, rms and inliers are the oracle's bit for bit;
    a coarse stage leaves fewer residuals."""
    ref, got = icp_reference(source, target), icp_align(source, target)
    assert got.transform.rotation.tobytes() == ref.transform.rotation.tobytes()
    assert got.transform.translation.tobytes() == ref.transform.translation.tobytes()
    assert (got.rms, got.n_inliers) == (ref.rms, ref.n_inliers)
    return got


@pytest.fixture
def calls(monkeypatch):
    """("query", rows, keyword arguments) for each query icp_align sends to
    its target tree, and ("fit", transform) for each Procrustes fit, in call
    order."""
    seen = []

    class Tree(cKDTree):
        def query(self, x, *args, **kwargs):
            seen.append(("query", np.array(x), kwargs))
            return super().query(x, *args, **kwargs)

    def procrustes(src, dst):
        seen.append(("fit", _procrustes(src, dst)))
        return seen[-1][1]

    monkeypatch.setattr(alignment, "cKDTree", Tree)
    monkeypatch.setattr(alignment, "_procrustes", procrustes)
    return seen


def full_stage(calls, n):
    """The transform the full stage of an n-row source starts from, and its
    iterations' queries, [(rows, keyword arguments), ...] per iteration
    that queries."""
    start = next(k for k, call in enumerate(calls) if call[0] == "query" and len(call[1]) == n)
    fits = [call[1] for call in calls[:start] if call[0] == "fit"]
    iterations = [[]]
    for call in calls[start:]:
        if call[0] == "fit":
            iterations.append([])
        else:
            iterations[-1].append(call[1:])
    return (fits[-1] if fits else RigidTransform.identity()), iterations[:-1]


class TestIcpQueryReach:
    """Each query reaches as far as the last fit proves it must: an inlier
    within twice the largest inlier residual, and a row with no target
    there, or that was an outlier, twice as far as max_corr_dist."""

    def test_exact_copy_queries_within_the_coarse_residual(self, calls, caplog):
        src, dst = room_copy(10_000, 950)
        with caplog.at_level(logging.DEBUG, logger="splatsynth"):
            res = icp_align(src, dst)
        _, iterations = full_stage(calls, len(src))
        # one query of every row, bounded by the coarse fit's residual, that no row misses
        assert [len(queries) for queries in iterations] == [1]
        rows, kwargs = iterations[0][0]
        assert len(rows) == len(src) and kwargs["distance_upper_bound"] < 1e-6
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("icp iteration")]
        assert len(lines) == len(res.residuals) == 2 and res.n_inliers == len(src)
        assert lines[0].endswith(f"10000 of 10000 rows queried within {kwargs['distance_upper_bound']:.3g} m, 0 past it")
        assert re.search(r", 0 of 10000 rows queried within \S+ m, 0 past it$", lines[1])   # converged

    def test_certified_outliers_are_not_queried_again(self, calls):
        # a proxy cropped to x < 0.3 m, with 1 mm noise and 2% uniform floaters
        src, dst = room_copy(10_000, 960)
        rng = np.random.default_rng(961)
        noisy = dst + rng.normal(scale=0.001, size=dst.shape)
        crop = noisy[noisy[:, 0] < 0.3]
        target = np.vstack([crop, rng.uniform(dst.min(axis=0), dst.max(axis=0), size=(len(crop) // 50, 3))])
        res = icp_align(src, target)
        T, iterations = full_stage(calls, len(src))
        fits = [call[1] for call in calls if call[0] == "fit"][-len(iterations):]
        cap = IcpParams().max_corr_dist
        # what the first full iteration proves of each outlier: its distance, or twice the reach
        at = T.apply(src)
        bound = np.minimum(cKDTree(target).query(at)[0], 2 * cap)
        certified = bound > cap
        for queries, T in zip(iterations[1:], fits):
            moved = T.apply(src)
            certified &= bound - np.linalg.norm(moved - at, axis=1) > cap + 1e-9
            position = {row.tobytes(): k for k, row in enumerate(moved)}
            queried = [position[row.tobytes()] for rows, _ in queries for row in rows]
            assert not np.any(certified[queried])
            assert 0 < len(queried) < np.count_nonzero(certified) / 4
        assert np.count_nonzero(certified) > 0.9 * (len(src) - res.n_inliers) and len(iterations) >= 3
        assert_fit_matches_reference(src, target)

    def test_rows_past_the_coarse_residual_are_queried_again(self, calls):
        # five targets off the coarse sample moved by about 5 mm: their rows
        # miss the full stage's first bound, and their second query finds them
        src, dst = room_copy(10_000, 970)
        order = leaf_order(src)
        moved_rows = np.sort(np.random.default_rng(971).choice(order[1::10], 5, replace=False))
        dst[moved_rows] += [0.003, -0.004, 0.0]
        res = assert_fit_matches_reference(src, dst)
        T, iterations = full_stage(calls, len(src))
        (_, near), (second, far) = iterations[0]
        assert near["distance_upper_bound"] < 1e-6 and far["distance_upper_bound"] == 2 * 0.1 * (1 + 1e-6)
        missed = T.apply(src)[order]
        assert second.tobytes() == missed[np.isin(order, moved_rows)].tobytes()
        assert res.n_inliers == len(src)


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

    @pytest.mark.parametrize("value", [1e200, -1e200, 1.0000000000000002e151])
    @pytest.mark.parametrize("name", ["source", "target"])
    def test_first_far_row_named(self, name, value):
        points = {"source": random_cloud(100, 88), "target": random_cloud(100, 89)}
        points[name][50, 1] = value
        points[name][70, 2] = math.nan
        message = f"{name} row 50: point {points[name][50].tolist()} lies past 1e+151 m from the origin"
        with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$"):
            icp_align(points["source"], points["target"])

    @pytest.mark.parametrize("clean_source", [False, True])
    def test_first_of_several_bad_rows_named(self, clean_source):
        # several bad rows in each array, far and non-finite mixed: the source is checked first, and within
        # an array the first bad row is named, whatever the later ones are
        points = {"source": random_cloud(300, 91), "target": random_cloud(300, 92)}
        bad = {"source": {12: 1e200, 40: math.nan, 41: -math.inf, 250: 2e151},
               "target": {3: math.nan, 7: 1e200, 150: math.inf}}
        if clean_source:
            del bad["source"]
        for name, rows in bad.items():
            for row, value in rows.items():
                points[name][row, row % 3] = value
        if clean_source:
            message = f"target row 3: non-finite point {points['target'][3].tolist()}"
        else:
            message = f"source row 12: point {points['source'][12].tolist()} lies past 1e+151 m from the origin"
        with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$"):
            icp_align(points["source"], points["target"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_at_the_reach_accepted(self):
        src = random_cloud(100, 90) * 3e150
        src[0, 0], src[1, 1] = 1e151, -1e151
        assert icp_align(src, src, IcpParams(max_corr_dist=math.inf, max_iters=3)).n_inliers == len(src)


class TestIcpLogging:

    def test_one_debug_line_per_iteration(self, caplog):
        src = random_cloud(300, 84)
        dst = random_rigid(85).apply(src)
        with caplog.at_level(logging.DEBUG, logger="splatsynth"):
            res = icp_align(src, dst, IcpParams(max_corr_dist=0.5))
        lines = [r.getMessage() for r in caplog.records if r.name == "splatsynth.alignment"]
        assert len(lines) == len(res.residuals) >= 3
        assert lines[0] == (f"icp iteration 1/100: 300 of 300 inliers, rms {res.residuals[0]:.9g} m, "
                            "rms change inf (tol 1e-08), 300 of 300 rows queried within 0.5 m, 0 past it")
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
