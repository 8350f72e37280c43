import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splatsynth import metrics
from splatsynth.geometry import Trajectory, quat_from_axis_angle
from splatsynth.metrics import (
    MetricError,
    RasterSpec,
    _bresenham_pixels,
    _distance_matrix,
    _fill,
    _layout,
    _plane_basis,
    _sweep,
    _warping_path,
    collision_check,
    dtw,
    dtw_bruteforce,
    evaluate_rollout,
    project_to_plane,
    rasterize_strokes,
    save_pgm,
    trajectory_dtw,
    trajectory_dtw_many,
    writing_error,
)
from splatsynth.splats import GaussianBlob, GaussianScene

from helpers import bresenham_stepped, letter_a_demo, line_demo, minimum_jerk, rasterize_stepped


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

    @pytest.mark.parametrize("a,b", [([], [[0, 0, 0]]), ([[0, 0, 0]], []), ([], [])],
                             ids=["empty_a", "empty_b", "both_empty"])
    @pytest.mark.parametrize("dist", ["euclidean", "quaternion", "callable"])
    def test_empty_named_before_any_distance(self, a, b, dist):
        calls = []
        selector = (lambda x, y: calls.append((x, y)) or 0.0) if dist == "callable" else dist
        with pytest.raises(ValueError, match="^sequences must be non-empty$"):
            dtw(a, b, selector)
        assert calls == []

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


def random_traj(rng, n):
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return Trajectory(np.linspace(0, 1, n), np.cumsum(rng.normal(size=(n, 3)), axis=0), q, np.zeros(n))


# unit quaternions whose pairwise distances are 0, 2pi/3 or pi exactly
LATTICE_QUATS = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]], dtype=float)


def lattice_traj(rng, n):
    """Positions on the integer lattice and orientations from LATTICE_QUATS:
    equal distances everywhere, so every tie-break of the backtrack is taken."""
    return Trajectory(np.linspace(0, 1, n), rng.integers(0, 3, size=(n, 3)).astype(float),
                      LATTICE_QUATS[rng.integers(0, 4, size=n)], np.zeros(n))


def filled_table(Ds):
    """The DTW tables of the (n, m) distance matrices Ds, one per column in the
    diagonal-major layout, laid out cell by cell from the offsets and filled."""
    n, m = Ds[0].shape
    off = _layout(n, m)[0]
    acc = np.full(((n + 1) * (m + 1), len(Ds)), np.inf)
    acc[0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            acc[off[i + j] + i] = [D[i - 1, j - 1] for D in Ds]
    _fill(acc, n, m, _layout(n, m)[2])
    return acc


def row_major(column, n, m):
    """One table of the diagonal-major layout as an (n+1, m+1) array."""
    off = _layout(n, m)[0]
    return np.array([[column[off[i + j] + i] for j in range(m + 1)] for i in range(n + 1)])


def per_pair_oracle(r, expert):
    """(position, orientation) of r against expert from two dtw(...,
    normalized=True) calls, checked against the row-by-row oracle."""
    scores = []
    for a, b, dist in ((r.positions, expert.positions, "euclidean"),
                       (r.quaternions, expert.quaternions, "quaternion")):
        _, _, cost, path = dtw_rowwise(a, b, dist)
        score = dtw(a, b, dist, normalized=True)[0]
        assert score == cost / len(path)
        scores.append(score)
    return tuple(scores)


class TestTrajectoryDtwMany:
    """The batch form against per-pair dtw() and the row-by-row oracle, exactly."""

    @staticmethod
    def assert_matches_per_pair(rollouts, expert):
        assert trajectory_dtw_many(rollouts, expert) == [per_pair_oracle(r, expert) for r in rollouts]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_rollouts(self, seed):
        rng = np.random.default_rng(seed)
        expert = random_traj(rng, 23)
        self.assert_matches_per_pair([random_traj(rng, 17) for _ in range(5)], expert)

    @pytest.mark.parametrize("n,m", [(9, 12), (12, 9), (10, 10), (2, 9), (9, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_lattice_ties(self, n, m, seed):
        rng = np.random.default_rng(seed)
        expert = lattice_traj(rng, m)
        self.assert_matches_per_pair([lattice_traj(rng, n) for _ in range(6)], expert)

    def test_single_rollout(self):
        rng = np.random.default_rng(5)
        self.assert_matches_per_pair([random_traj(rng, 30)], random_traj(rng, 41))

    def test_synthesized_letter_a(self):
        demo = letter_a_demo()
        rng = np.random.default_rng(6)
        rollouts = [Trajectory(demo.times, demo.positions + rng.normal(scale=1e-3, size=demo.positions.shape),
                               demo.quaternions, demo.gripper) for _ in range(3)]
        self.assert_matches_per_pair(rollouts, demo)

    def test_empty_batch(self):
        assert trajectory_dtw_many([], line_demo([0, 0, 0], [1, 0, 0])) == []

    @staticmethod
    def spy_sweeps(monkeypatch):
        """The width (table count) of every sweep from here on."""
        widths = []
        real = metrics._sweep

        def spy(stage, n, m):
            widths.append(stage.shape[0])
            return real(stage, n, m)

        monkeypatch.setattr(metrics, "_sweep", spy)
        return widths

    @pytest.mark.parametrize("b,chunk", [(6, 2), (6, 3), (6, 6), (7, 2), (7, 3), (5, 1), (2, 5)])
    def test_chunk_edges(self, monkeypatch, b, chunk):
        # the cell budget of exactly chunk rollouts: two tables each, a table
        # holding its staging row, its column of the sweep and of the scratch
        n, m = 8, 11
        monkeypatch.setattr(metrics, "_CHUNK_CELLS", 2 * chunk * (2 * (n + 1) * (m + 1) + min(n, m)))
        rng = np.random.default_rng(b * 10 + chunk)
        rollouts, expert = [lattice_traj(rng, n) for _ in range(b)], lattice_traj(rng, m)
        expected = [per_pair_oracle(r, expert) for r in rollouts]   # before the spy: dtw() sweeps too
        widths = self.spy_sweeps(monkeypatch)
        assert trajectory_dtw_many(rollouts, expert) == expected
        assert widths == [2 * min(chunk, b - start) for start in range(0, b, chunk)]

    def test_one_orientation_track_is_one_table(self, monkeypatch):
        # 16 rollouts with their own positions and one orientation track, as
        # synthesize makes them with sigma_r 0: 16 position tables and one
        rng = np.random.default_rng(14)
        expert = random_traj(rng, 12)
        rollouts = [Trajectory(expert.times, expert.positions + rng.normal(scale=1e-3, size=(12, 3)),
                               expert.quaternions, expert.gripper) for _ in range(16)]
        expected = [trajectory_dtw(r, expert) for r in rollouts]
        widths = self.spy_sweeps(monkeypatch)
        assert trajectory_dtw_many(rollouts, expert) == expected
        assert widths == [17]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), m=st.integers(2, 6),
           picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=8),
           chunk=st.integers(1, 5))
    def test_shared_tracks_score_as_alone(self, seed, n, m, picks, chunk):
        # each rollout picks one of three position and three quaternion tracks:
        # a lattice track, its twin with every zero negated, and a random one;
        # a budget of chunk tables puts the tables of a shared track in other
        # chunks than the rollouts that carry it
        rng = np.random.default_rng(seed)
        lattice = rng.integers(-1, 2, size=(n, 3)).astype(float)
        lattice[0, 0] = 0.0   # so that its twin differs
        positions = [lattice, np.where(lattice == 0, -0.0, lattice), rng.normal(size=(n, 3))]
        lattice = LATTICE_QUATS[rng.integers(0, 4, size=n)]
        lattice[0] = LATTICE_QUATS[0]   # a row with zeros, so that its twin differs
        random_quats = rng.normal(size=(n, 4))
        quats = [lattice, np.where(lattice == 0, -0.0, lattice),
                 random_quats / np.linalg.norm(random_quats, axis=1, keepdims=True)]
        rollouts = [Trajectory(np.linspace(0, 1, n), positions[p], quats[q], np.zeros(n)) for p, q in picks]
        expert = random_traj(rng, m)
        alone = [trajectory_dtw(r, expert) for r in rollouts]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_CHUNK_CELLS", chunk * (2 * (n + 1) * (m + 1) + min(n, m)))
            widths = self.spy_sweeps(patch)
            scores = trajectory_dtw_many(rollouts, expert)
        assert np.array_equal(np.array(scores).view(np.uint64), np.array(alone).view(np.uint64))
        assert sum(widths) == len({p for p, _ in picks}) + len({q for _, q in picks})
        assert max(widths) <= chunk

    def test_trajectory_dtw_is_one_sweep_of_two_tables(self, monkeypatch):
        rng = np.random.default_rng(11)
        a, b = random_traj(rng, 14), random_traj(rng, 19)
        expected = per_pair_oracle(a, b)
        widths = self.spy_sweeps(monkeypatch)
        assert trajectory_dtw(a, b) == expected
        assert widths == [2]

    def test_budget_smaller_than_one_rollout(self, monkeypatch):
        monkeypatch.setattr(metrics, "_CHUNK_CELLS", 1)
        rng = np.random.default_rng(8)
        self.assert_matches_per_pair([random_traj(rng, 9) for _ in range(3)], random_traj(rng, 7))

    @pytest.mark.parametrize("chunk", [1, 3, 10])
    def test_peak_memory_within_budget(self, monkeypatch, chunk):
        # every buffer a chunk holds (staging, the sweep's tables, the fill's
        # scratch) counts against the budget, and no chunk's buffers outlive it
        n, m = 60, 70
        rng = np.random.default_rng(12)
        rollouts, expert = [random_traj(rng, n) for _ in range(10)], random_traj(rng, m)
        trajectory_dtw_many(rollouts[:1], expert)   # the layout is cached, not a chunk's
        budget = 2 * chunk * (2 * (n + 1) * (m + 1) + min(n, m))
        monkeypatch.setattr(metrics, "_CHUNK_CELLS", budget)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trajectory_dtw_many(rollouts, expert)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert budget * 8 <= peak <= budget * 8 + (64 << 10)

    def test_table_past_the_budget_is_not_cached(self):
        # 801 x 801 cells exceed _CHUNK_CELLS: the layout is built for the sweep
        # and dropped with it, so the cache is neither read nor grown (a full
        # cache keeps its size as it evicts), and the scores stay dtw()'s
        rng = np.random.default_rng(13)
        rollout, expert = random_traj(rng, 800), random_traj(rng, 800)
        assert 801 * 801 > metrics._CHUNK_CELLS
        cached = metrics._layout.cache_info()
        scores = trajectory_dtw_many([rollout], expert)
        assert metrics._layout.cache_info() == cached
        assert scores == [(dtw(rollout.positions, expert.positions, normalized=True)[0],
                           dtw(rollout.quaternions, expert.quaternions, "quaternion", normalized=True)[0])]

    def test_unequal_lengths_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="same length"):
            trajectory_dtw_many([random_traj(rng, 9), random_traj(rng, 10)], random_traj(rng, 7))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_non_finite_distance_rejected(self, bad):
        # 1e200 is a finite sample whose distances overflow
        rng = np.random.default_rng(10)
        rollouts = [random_traj(rng, 9) for _ in range(3)]
        rollouts[1].positions[4, 2] = bad
        with pytest.raises(ValueError, match="non-finite distance"):
            trajectory_dtw_many(rollouts, random_traj(rng, 7))


DEGENERATE_SHAPES = [(1, 1), (1, 9), (9, 1), (2, 9), (9, 2)]


class TestDiagonalLayout:
    """The diagonal-major layout on degenerate shapes, against the exhaustive
    and the row-by-row oracles."""

    @pytest.mark.parametrize("n,m", DEGENERATE_SHAPES + [(1, 2), (2, 1), (3, 3), (8, 11)])
    def test_cells_are_diagonal_major(self, n, m):
        # listed by diagonal, then by row, the cells take the places 0, 1, 2, ...;
        # each gathers its distance from the staging row, the border inf, (0, 0) zero
        off, gather, steps = _layout(n, m)
        cells = sorted(((i, j) for i in range(n + 1) for j in range(m + 1)), key=lambda c: (c[0] + c[1], c[0]))
        assert [off[i + j] + i for i, j in cells] == list(range(len(cells)))
        staged = [(i - 1) * m + j - 1 if i and j else n * m + (i == j == 0) for i, j in cells]
        assert gather.tolist() == staged and not gather.flags.writeable
        assert len(steps) == n + m - 1

    @pytest.mark.parametrize("n,m", DEGENERATE_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_lattice_tables(self, n, m, seed):
        # four tables of lattice points in one sweep: each column is its
        # row-by-row table, its walk is the oracle's path, and its cost the
        # exhaustive one
        rng = np.random.default_rng(seed)
        b = rng.integers(0, 3, size=(m, 3)).astype(float)
        seqs = [rng.integers(0, 3, size=(n, 3)).astype(float) for _ in range(4)]
        stage = np.empty((len(seqs), (n + 1) * (m + 1)))
        for c, a in enumerate(seqs):
            stage[c, :n * m] = _distance_matrix(a, b, "euclidean").ravel()
        acc, off = _sweep(stage, n, m)
        assert off == _layout(n, m)[0]
        for c, a in enumerate(seqs):
            _, table, cost, path = dtw_rowwise(a, b)
            assert np.array_equal(row_major(acc[:, c], n, m), table)
            assert _warping_path(acc[:, c], n, m, off) == path
            assert dtw(a, b) == (cost, path)
            assert cost == pytest.approx(dtw_bruteforce(a, b), abs=1e-12)

    @pytest.mark.parametrize("n,m", DEGENERATE_SHAPES)
    def test_lattice_quaternions(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        qa, qb = LATTICE_QUATS[rng.integers(0, 4, size=n)], LATTICE_QUATS[rng.integers(0, 4, size=m)]
        _, _, cost, path = dtw_rowwise(qa, qb, "quaternion")
        assert dtw(qa, qb, "quaternion") == (cost, path)
        assert cost == pytest.approx(dtw_bruteforce(qa, qb, "quaternion"), abs=1e-12)


class TestPathLengths:
    """_warping_path walks each column of a batch table back as the oracle's
    tuple-min backtrack does, so trajectory_dtw_many's path lengths are dtw()'s."""

    @pytest.mark.parametrize("n,m", SHAPES + [(8, 11), (11, 8), (10, 10)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_backtrack(self, n, m, seed):
        # few distinct integer values: many equal-cost moves
        rng = np.random.default_rng(seed)
        b = rng.integers(0, 3, size=m).astype(float)
        seqs = [rng.integers(0, 3, size=n).astype(float) for _ in range(5)]
        acc = filled_table([_distance_matrix(a, b, "euclidean") for a in seqs])
        off = _layout(n, m)[0]
        assert [_warping_path(acc[:, c], n, m, off) for c in range(len(seqs))] == [dtw_rowwise(a, b)[3] for a in seqs]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_table_walks_the_border(self):
        # sums past the float range tie at inf, so the walk reaches row 0 before (0, 0)
        acc = filled_table([np.full((4, 6), 1e308)])
        path = dtw_rowwise(range(4), range(6), lambda r, c: 1e308)[3]
        assert path[0][0] == -1 and _warping_path(acc[:, 0], 4, 6, _layout(4, 6)[0]) == path

    def test_columns_fill_as_rowwise_tables(self):
        rng = np.random.default_rng(4)
        pairs = [(rng.normal(size=(12, 3)), rng.normal(size=(15, 3))) for _ in range(3)]
        acc = filled_table([_distance_matrix(a, b, "euclidean") for a, b in pairs])
        for c, (a, b) in enumerate(pairs):
            assert np.array_equal(row_major(acc[:, c], 12, 15), dtw_rowwise(a, b)[1])


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

    @pytest.mark.parametrize("normal", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, -0.2, 0.9), (0.0, 2.0, 0.0)])
    def test_plane_basis_memoised_and_read_only(self, normal):
        u, w = _plane_basis(normal)
        assert _plane_basis(normal)[0] is u and _plane_basis(normal)[1] is w
        assert not u.flags.writeable and not w.flags.writeable
        n = np.asarray(normal) / np.linalg.norm(normal)
        assert np.allclose([u @ u, w @ w, u @ w, u @ n, w @ n], [1.0, 1.0, 0.0, 0.0, 0.0])
        spec = RasterSpec(plane_normal=normal)
        pts = np.random.default_rng(13).normal(size=(5, 3))
        assert np.array_equal(project_to_plane(pts, spec), np.stack([pts @ u, pts @ w], axis=1))

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

    @pytest.mark.parametrize("res", [1, 2, 5, 128])
    def test_stroke_wider_than_the_canvas_stops_growing(self, res):
        # res - 1 growth steps fill the canvas, so 5e6 more (about a minute at
        # res 128) change nothing
        start = time.perf_counter()
        wide = rasterize_strokes(BORDER[:3], RasterSpec(resolution=res, stroke_px=10 ** 7))
        assert time.perf_counter() - start < 5.0
        full = RasterSpec(resolution=res, stroke_px=max(1, 2 * (res - 1)))
        assert np.array_equal(wide, rasterize_strokes(BORDER[:3], full))
        assert wide.all()

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


@st.composite
def polylines(draw):
    """2 to 40 points on a small integer grid, scaled: repeated points make
    zero-length segments, and a constant coordinate makes a flat stroke (a
    zero-area one is redrawn)."""
    n = draw(st.integers(2, 40))
    size = draw(st.integers(1, 20))
    pts = np.array(draw(st.lists(st.tuples(st.integers(0, size), st.integers(0, size)), min_size=n, max_size=n)),
                   dtype=float)
    if draw(st.booleans()):
        pts[:, draw(st.integers(0, 1))] = 0.5   # a flat stroke
    if np.all(pts.max(axis=0) <= pts.min(axis=0)):
        pts[-1] += 1.0
    return pts * draw(st.sampled_from([1.0, 0.01, 37.5]))


class TestClosedFormBresenham:
    """_bresenham_pixels puts every pixel where Bresenham's integer loop puts
    it (helpers.bresenham_stepped), and rasterize_strokes draws the rasters of
    that loop (helpers.rasterize_stepped)."""

    @pytest.mark.parametrize("res", [64, 128])
    def test_every_segment_of_a_canvas(self, res):
        # every (dx, dy) that fits on the canvas, from the corner it needs, a block of dy rows at a time
        d = np.arange(-(res - 1), res)
        for block in np.array_split(d, 8):
            dx, dy = (v.ravel() for v in np.meshgrid(d, block))
            x0, y0 = np.where(dx >= 0, 0, res - 1), np.where(dy >= 0, 0, res - 1)
            seg, x, y = bresenham_stepped(x0, y0, x0 + dx, y0 + dy)
            order = np.argsort(seg, kind="stable")   # the loop draws all segments' k-th pixels together
            got = _bresenham_pixels(x0, y0, x0 + dx, y0 + dy)
            assert np.array_equal(got[0], x[order]) and np.array_equal(got[1], y[order])

    def test_zero_length_segments_and_none(self):
        x0, y0 = np.array([3, 0, 5]), np.array([4, 0, 5])
        x, y = _bresenham_pixels(x0, y0, x0, y0)
        assert x.tolist() == [3, 0, 5] and y.tolist() == [4, 0, 5]
        empty = np.empty(0, dtype=int)
        assert [v.tolist() for v in _bresenham_pixels(empty, empty, empty, empty)] == [[], []]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pts=polylines(), res=st.sampled_from([1, 2, 7, 64, 128]), stroke_px=st.sampled_from([1, 2, 5]))
    @example(pts=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]), res=128, stroke_px=1)
    @example(pts=np.array([[0.0, 0.5], [3.0, 0.5], [1.0, 0.5]]), res=128, stroke_px=2)
    @example(pts=np.array([[0.2, 0.0], [0.2, 1.0], [0.2, 0.0]]), res=64, stroke_px=5)
    def test_polylines_match_the_loop(self, pts, res, stroke_px):
        spec = RasterSpec(resolution=res, stroke_px=stroke_px)
        assert np.array_equal(rasterize_strokes(pts, spec), rasterize_stepped(pts, spec))


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

    def test_expert_drawn_once_per_expert_and_spec(self, monkeypatch):
        metrics._expert_raster.cache_clear()
        drawn = []
        real = metrics.rasterize_strokes

        def spy(points2d, spec):
            drawn.append(len(points2d))
            return real(points2d, spec)

        monkeypatch.setattr(metrics, "rasterize_strokes", spy)
        demo = letter_a_demo()
        other = line_demo([0, 0, 0], [0.1, 0.1, 0], n=30)
        errs = [writing_error(demo, other) for _ in range(3)]
        assert drawn == [len(demo)] + [30] * 3
        writing_error(demo, other, RasterSpec(resolution=64))   # another spec draws the expert again
        assert drawn[4:] == [len(demo), 30]
        moved = demo.positions.copy()
        demo.positions[:, 0] *= 2.0   # the key is the positions' bytes, not the object
        writing_error(demo, other)
        assert drawn[6:] == [len(demo), 30]
        demo.positions[:] = moved
        assert writing_error(demo, other) == errs[0] and len(drawn) == 9

    def test_cached_raster_is_read_only(self):
        demo = letter_a_demo()
        writing_error(demo, demo)
        img, count = metrics._expert_raster(demo.positions.tobytes(), 128, 3, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        assert not img.flags.writeable and count == int(img.sum()) > 0


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
