import math

import numpy as np
import pytest

from splatsynth.geometry import Trajectory, quat_from_axis_angle
from splatsynth.metrics import (
    MetricError,
    RasterSpec,
    _distance_matrix,
    collision_check,
    dtw,
    dtw_bruteforce,
    evaluate_rollout,
    project_to_plane,
    rasterize_strokes,
    save_pgm,
    trajectory_dtw,
    writing_error,
)
from splatsynth.splats import GaussianBlob, GaussianScene

from helpers import letter_a_demo, line_demo, minimum_jerk


def traj_from_positions(pos, duration=1.0):
    pos = np.asarray(pos, dtype=float)
    n = len(pos)
    t = np.linspace(0, duration, n)
    q = np.tile([1.0, 0, 0, 0], (n, 1))
    return Trajectory(t, pos, q, np.zeros(n))


def dtw_rowwise(a, b, dist="euclidean"):
    """The row-by-row DTW recurrence with its backtrack: the oracle for the
    anti-diagonal fill.  Returns (D, acc, cost, path)."""
    if callable(dist):
        b = list(b)
        D = np.array([[dist(x, y) for y in b] for x in a], dtype=float)
    else:
        D = _distance_matrix(a, b, dist)
    n, m = D.shape
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        row = D[i - 1]
        for j in range(1, m + 1):
            acc[i, j] = row[j - 1] + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
    path = []
    i, j = n, m
    while i > 0 or j > 0:
        path.append((i - 1, j - 1))
        moves = []
        if i > 0 and j > 0:
            moves.append((acc[i - 1, j - 1], i - 1, j - 1))
        if i > 0:
            moves.append((acc[i - 1, j], i - 1, j))
        if j > 0:
            moves.append((acc[i, j - 1], i, j - 1))
        _, i, j = min(moves)
        if i == 0 and j == 0:
            break
    path.reverse()
    return D, acc, float(acc[n, m]), path


def assert_matches_rowwise(a, b, dist="euclidean"):
    """dtw's cost and path equal the oracle's exactly, and so does every cell
    of its table: the cost over index prefixes (i, j) of the same distance
    matrix is the table entry acc[i, j]."""
    D, acc, cost, path = dtw_rowwise(a, b, dist)
    assert dtw(a, b, dist) == (cost, path)
    n, m = D.shape
    table = np.full_like(acc, np.inf)
    table[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            table[i, j] = dtw(range(i), range(j), lambda r, c: D[r, c])[0]
    assert np.array_equal(table, acc)


SHAPES = [(1, 1), (1, 7), (7, 1), (6, 6), (9, 4), (4, 9), (2, 13)]


class TestDtwMatchesRowwise:
    @pytest.mark.parametrize("n,m", SHAPES)
    def test_euclidean(self, n, m):
        rng = np.random.default_rng(n * 100 + m)
        assert_matches_rowwise(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)))

    @pytest.mark.parametrize("n,m", SHAPES)
    def test_quaternion(self, n, m):
        rng = np.random.default_rng(n * 100 + m + 1)
        qa = rng.normal(size=(n, 4))
        qb = rng.normal(size=(m, 4))
        qa /= np.linalg.norm(qa, axis=1, keepdims=True)
        qb /= np.linalg.norm(qb, axis=1, keepdims=True)
        assert_matches_rowwise(qa, qb, "quaternion")

    @pytest.mark.parametrize("n,m", SHAPES)
    def test_callable(self, n, m):
        rng = np.random.default_rng(n * 100 + m + 2)
        a = [float(v) for v in rng.normal(size=n)]
        b = [float(v) for v in rng.normal(size=m)]
        assert_matches_rowwise(a, b, lambda x, y: abs(x - y) ** 1.5)

    @pytest.mark.parametrize("n,m", [(8, 11), (11, 8), (10, 10), (1, 9), (9, 1)])
    @pytest.mark.parametrize("seed", range(4))
    def test_integer_ties(self, n, m, seed):
        # few distinct integer values: many equal-cost cells and moves, so
        # the backtrack's tie-breaks decide the path
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=n).astype(float)
        b = rng.integers(0, 3, size=m).astype(float)
        assert_matches_rowwise(a, b)

    def test_long_sequences(self):
        rng = np.random.default_rng(7)
        a = np.cumsum(rng.normal(size=(126, 3)), axis=0)
        b = np.cumsum(rng.normal(size=(151, 3)), axis=0)
        _, _, cost, path = dtw_rowwise(a, b)
        assert dtw(a, b) == (cost, path)
        assert dtw(a, b, normalized=True)[0] == cost / len(path)


class TestDtw:
    def test_identical_zero(self):
        a = np.random.default_rng(0).normal(size=(30, 3))
        cost, path = dtw(a, a)
        assert cost == 0.0
        assert path[0] == (0, 0) and path[-1] == (29, 29)

    def test_frozen_example(self):
        # a=(0,1,2), b=(0,2): best alignment pairs 1 with either end, cost 1
        cost, path = dtw(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0]))
        assert cost == 1.0
        assert path[0] == (0, 0) and path[-1] == (2, 1)

    def test_normalization_divides_by_path_length(self):
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([0.0, 2.0])
        raw, path = dtw(a, b)
        norm, path2 = dtw(a, b, normalized=True)
        assert norm == pytest.approx(raw / len(path))
        assert path == path2

    def test_path_is_monotone_and_connected(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(15, 2))
        b = rng.normal(size=(11, 2))
        _, path = dtw(a, b)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(m, 3))
        cost, _ = dtw(a, b)
        assert cost == pytest.approx(dtw_bruteforce(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(12, 3))
        b = rng.normal(size=(9, 3))
        assert dtw(a, b)[0] == pytest.approx(dtw(b, a)[0])

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(6, 2))
            b = rng.normal(size=(7, 2))
            assert dtw(a, b)[0] >= 0.0

    def test_time_reparameterization_insensitive(self):
        # the same geometric path sampled with two different speed profiles:
        # DTW should stay far below the naive pointwise l2 distance
        t = np.linspace(0, 1, 120)
        fast = minimum_jerk(t)
        slow = t
        path_a = np.stack([np.sin(2 * np.pi * fast), np.cos(2 * np.pi * fast),
                           fast], axis=1)
        path_b = np.stack([np.sin(2 * np.pi * slow), np.cos(2 * np.pi * slow),
                           slow], axis=1)
        naive = np.linalg.norm(path_a - path_b, axis=1).mean()
        cost, _ = dtw(path_a, path_b, normalized=True)
        assert cost < 0.05 * naive

    def test_custom_callable_distance(self):
        a = [1.0, 2.0]
        b = [1.0, 4.0]
        cost, _ = dtw(a, b, dist=lambda x, y: abs(x - y))
        assert cost == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw(np.empty((0, 3)), np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_distance_rejected(self, bad):
        # a NaN used to give cost nan and a path that depended on min's order
        a = np.array([[0.0, 0.0], [1.0, bad], [2.0, 0.0]])
        b = np.zeros((4, 2))
        with pytest.raises(ValueError, match="non-finite distance"):
            dtw(a, b)
        with pytest.raises(ValueError, match="non-finite distance"):
            dtw([1.0, 2.0], [1.0, 4.0], dist=lambda x, y: bad)

    def test_quaternion_distance_mode(self):
        q0 = np.array([1.0, 0, 0, 0])
        q1 = quat_from_axis_angle([0, 0, 1], math.pi / 2)
        cost, _ = dtw(np.array([q0]), np.array([q1]), dist="quaternion")
        assert cost == pytest.approx(math.pi / 2, abs=1e-9)

    def test_trajectory_dtw_zero_on_self(self):
        traj = line_demo([0, 0, 0], [0.3, 0.1, 0], n=50, axis=[1, 0, 0], angle=0.7)
        pos, rot = trajectory_dtw(traj, traj)
        assert pos == 0.0
        assert rot < 1e-7


class TestCollisionCheck:
    def scene(self):
        return GaussianScene([GaussianBlob(np.array([0.5, 0.0, 0.0]),
                                           0.05 ** 2 * np.eye(3), 1.0)])

    def test_clear_path(self):
        traj = traj_from_positions([[0, 1, 0], [1, 1, 0]])
        collided, max_rho, idx = collision_check(traj, self.scene(), 0.1)
        assert not collided
        assert idx is None
        assert max_rho < 0.1

    def test_through_blob(self):
        pts = np.stack([np.linspace(0, 1, 50), np.zeros(50), np.zeros(50)], axis=1)
        traj = traj_from_positions(pts)
        collided, max_rho, idx = collision_check(traj, self.scene(), 0.1)
        assert collided
        assert max_rho > 0.9
        # first violation is on the approach side of the blob
        assert 0 < idx < 25 + 2

    def test_rate_counting(self):
        # 8 colliding of 40 is a 20% rate; exercise the downstream arithmetic
        scene = self.scene()
        results = []
        for k in range(40):
            y = 0.0 if k < 8 else 1.0
            pts = np.stack([np.linspace(0, 1, 20), np.full(20, y),
                            np.zeros(20)], axis=1)
            collided, _, _ = collision_check(traj_from_positions(pts), scene, 0.1)
            results.append(collided)
        assert sum(results) / len(results) == pytest.approx(0.2)

    def test_threshold_boundary_strict(self):
        # exactly at the threshold does not count as a collision
        scene = GaussianScene([GaussianBlob(np.zeros(3), np.eye(3), 1.0)])
        traj = traj_from_positions([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        collided, max_rho, _ = collision_check(traj, scene, 1.0)
        assert max_rho == pytest.approx(1.0)
        assert not collided


class TestRaster:
    def test_projection_drops_normal_component(self):
        spec = RasterSpec(plane_normal=(0, 0, 1))
        pts = np.array([[1.0, 2.0, 5.0], [1.0, 2.0, -3.0]])
        uv = project_to_plane(pts, spec)
        assert np.allclose(uv[0], uv[1])

    def test_straight_line_raster(self):
        spec = RasterSpec(resolution=32, stroke_px=1)
        uv = np.stack([np.linspace(0, 1, 64), np.linspace(0, 1, 64)], axis=1)
        img = rasterize_strokes(uv, spec)
        assert img[0, 0] and img[31, 31]
        assert img.sum() >= 32  # the full diagonal is drawn

    def test_stroke_width(self):
        spec1 = RasterSpec(resolution=64, stroke_px=1)
        spec3 = RasterSpec(resolution=64, stroke_px=3)
        uv = np.stack([np.linspace(0, 1, 64), np.linspace(0, 1, 64)], axis=1)
        assert rasterize_strokes(uv, spec3).sum() > 2 * rasterize_strokes(uv, spec1).sum()

    def test_degenerate_bbox_raises(self):
        spec = RasterSpec()
        with pytest.raises(MetricError):
            rasterize_strokes(np.tile([0.3, 0.3], (5, 1)), spec)

    def test_save_pgm(self, tmp_path):
        img = np.zeros((4, 4), dtype=bool)
        img[1, 2] = True
        path = tmp_path / "img.pgm"
        save_pgm(img, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 4\n255\n")
        assert data[-16:][1 * 4 + 2] == 255


def rasterize_per_pixel(points2d, spec):
    """The per-pixel rasteriser: one Bresenham loop per segment, stamping a
    clipped square at every pixel.  The oracle for rasterize_strokes."""
    res = spec.resolution
    img = np.zeros((res, res), dtype=bool)
    points2d = np.asarray(points2d, dtype=float)
    if len(points2d) == 0:
        return img
    lo = points2d.min(axis=0)
    hi = points2d.max(axis=0)
    span = hi - lo
    if np.all(span <= 0):
        raise MetricError("degenerate bounding box: zero area")
    span = np.where(span > 0, span, 1.0)
    pix = np.round((points2d - lo) / span * (res - 1)).astype(int)
    rad = spec.stroke_px // 2
    stamps = [(di, dj) for di in range(-rad, rad + 1) for dj in range(-rad, rad + 1)]

    def stamp(i, j):
        for di, dj in stamps:
            ii, jj = i + di, j + dj
            if 0 <= ii < res and 0 <= jj < res:
                img[ii, jj] = True

    def bresenham(p, q):
        x0, y0 = p
        x1, y1 = q
        dx = abs(x1 - x0)
        dy = -abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx + dy
        while True:
            stamp(y0, x0)
            if x0 == x1 and y0 == y1:
                return
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                x0 += sx
            if e2 <= dx:
                err += dx
                y0 += sy

    if len(pix) == 1:
        stamp(pix[0][1], pix[0][0])
    for p, q in zip(pix[:-1], pix[1:]):
        bresenham(p, q)
    return img


def assert_matches_per_pixel(points2d, spec):
    expected = rasterize_per_pixel(points2d, spec)
    img = rasterize_strokes(points2d, spec)
    assert img.dtype == bool and img.shape == (spec.resolution, spec.resolution)
    assert np.array_equal(img, expected)


# a square through the bounding-box corners, so that every side lies on the border
BORDER = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]]


class TestRasterMatchesPerPixel:
    @pytest.mark.parametrize("res", [1, 2, 7, 37, 128, 256])
    def test_strokes(self, res):
        rng = np.random.default_rng(res)
        for stroke_px in range(1, 10):
            spec = RasterSpec(resolution=res, stroke_px=stroke_px)
            for n in (2, 3, 12):
                assert_matches_per_pixel(rng.normal(size=(n, 2)), spec)
            assert_matches_per_pixel(rng.integers(0, 3, size=(9, 2)), spec)
            assert_matches_per_pixel(BORDER, spec)

    @pytest.mark.parametrize("stroke_px", range(1, 10))
    def test_two_points_and_zero_height_span(self, stroke_px):
        for res in (1, 2, 7, 37):
            spec = RasterSpec(resolution=res, stroke_px=stroke_px)
            assert_matches_per_pixel([[0.0, 0.0], [1.0, 0.3]], spec)
            assert_matches_per_pixel([[0.0, 0.5], [1.0, 0.5], [0.2, 0.5]], spec)
            assert_matches_per_pixel([[0.5, 0.0], [0.5, 1.0]], spec)

    @pytest.mark.parametrize("res,stroke_px", [(37, 1), (128, 3), (128, 4), (256, 9)])
    def test_random_walks(self, res, stroke_px):
        rng = np.random.default_rng(res + stroke_px)
        spec = RasterSpec(resolution=res, stroke_px=stroke_px)
        for _ in range(3):
            assert_matches_per_pixel(np.cumsum(rng.normal(size=(600, 2)), axis=0), spec)

    def test_single_point_is_degenerate_for_both(self):
        for res in (1, 128):
            spec = RasterSpec(resolution=res)
            with pytest.raises(MetricError, match="zero area"):
                rasterize_per_pixel([[0.2, 0.7]], spec)
            with pytest.raises(MetricError, match="zero area"):
                rasterize_strokes([[0.2, 0.7]], spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, bad]])
        with pytest.raises(MetricError, match="non-finite"):
            rasterize_strokes(pts, RasterSpec())

    def test_non_finite_executed_rejected(self):
        demo = letter_a_demo()
        executed = demo.positions.copy()
        executed[3, 1] = np.nan
        with pytest.raises(MetricError, match="non-finite"):
            writing_error(demo, executed)


class TestRasterSpec:
    @pytest.mark.parametrize("kwargs,message", [
        ({"resolution": 0}, "resolution must be at least 1"),
        ({"stroke_px": 0}, "stroke_px must be at least 1"),
        ({"stroke_px": -3}, "stroke_px must be at least 1"),
        ({"plane_point": (0.0, 1.0)}, "plane_point must be 3 finite numbers"),
        ({"plane_point": ("a", 0.0, 1.0)}, "plane_point must be 3 finite numbers"),
        ({"plane_point": (0.0, np.inf, 1.0)}, "plane_point must be 3 finite numbers"),
        ({"plane_normal": (0.0, 0.0, np.nan)}, "plane_normal must be 3 finite numbers"),
        ({"plane_normal": (0.0, 0.0, 1.0, 0.0)}, "plane_normal must be 3 finite numbers"),
        ({"plane_normal": (0.0, 0.0, 0.0)}, "plane_normal must have a finite non-zero length"),
        ({"plane_normal": (0.0, 0.0, 1e-320)}, "plane_normal must have a finite non-zero length"),
    ])
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RasterSpec(**kwargs)

    def test_accepts_smallest(self):
        spec = RasterSpec(resolution=1, stroke_px=1, plane_point=(1, 2, 3), plane_normal=(0, 2, 0))
        assert rasterize_strokes([[0.0, 0.0], [1.0, 1.0]], spec).tolist() == [[True]]


class TestWritingError:
    def test_identical_is_zero(self):
        demo = letter_a_demo()
        assert writing_error(demo, demo) == 0.0

    def test_empty_executed_is_exactly_one(self):
        demo = letter_a_demo()
        assert writing_error(demo, np.empty((0, 3))) == 1.0

    def test_translation_invariance(self):
        demo = letter_a_demo()
        shifted = traj_from_positions(demo.positions + np.array([0.3, -0.2, 0.0]))
        assert writing_error(demo, shifted) < 0.02

    def test_scale_invariance(self):
        demo = letter_a_demo()
        scaled = traj_from_positions(demo.positions * 2.5)
        assert writing_error(demo, scaled) < 0.02

    def test_small_jitter_small_error(self):
        demo = letter_a_demo()
        rng = np.random.default_rng(4)
        jit = demo.positions + rng.normal(scale=5e-4, size=demo.positions.shape) \
            * np.array([1, 1, 0])
        assert writing_error(demo, traj_from_positions(jit)) < 0.5

    def test_wrong_shape_large_error(self):
        demo = letter_a_demo()
        wrong = line_demo([0, 0, 0], [0.1, 0.1, 0], n=100)
        err_wrong = writing_error(demo, wrong)
        err_same = writing_error(demo, demo)
        assert err_wrong > 0.5
        assert err_wrong > err_same

    def test_monotone_in_distortion(self):
        # progressively larger low-frequency warps should not reduce the error
        demo = letter_a_demo()
        t = np.linspace(0, 2 * np.pi, len(demo))
        errs = []
        for amp in (0.0, 0.005, 0.015, 0.04):
            warped = demo.positions + amp * np.stack(
                [np.sin(3 * t), np.cos(2 * t), np.zeros_like(t)], axis=1)
            errs.append(writing_error(demo, traj_from_positions(warped)))
        assert all(b >= a - 0.02 for a, b in zip(errs, errs[1:]))
        assert errs[-1] > errs[0]


class TestEvaluateRollout:
    def test_self_report(self):
        demo = letter_a_demo()
        scene = GaussianScene([])
        report = evaluate_rollout(demo, demo, scene, 0.1, raster=RasterSpec())
        assert report.dtw_position == 0.0
        assert report.dtw_orientation < 1e-7
        assert not report.collided
        assert report.writing_error == 0.0

    def test_no_raster_leaves_none(self):
        demo = line_demo([0, 0, 0], [0.2, 0, 0], n=30)
        report = evaluate_rollout(demo, demo, None, 0.1)
        assert report.writing_error is None
