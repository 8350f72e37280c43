"""Core geometric types: quaternion calculus, poses, and trajectories.

Quaternions are stored as length-4 numpy arrays in [w, x, y, z] order and
canonicalized so that w >= 0 (tie broken by x >= 0), which makes serialized
trajectories byte-stable and handles the double cover deterministically.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

SMALL_ANGLE = 1e-8


class TrajectoryError(ValueError):
    """Raised when trajectory data violates its structural invariants."""


class FieldError(ValueError):
    """A field refused by __post_init__; str() is "<field> <detail>", dotted where nested (spec.perturbable)."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name} {detail}")
        self.field, self.detail = name, detail


# The coupling's gains stay within this bound: obstacle.lambda_max and return_cap in m/s^2, return_gain in
# 1/s^2.  An acceleration of A m/s^2 adds A dt / tau^2 m/s per step, at most A / (2500 dt) with dt <= tau/50,
# so 40 A with steps of 10 us, and MAX_ROLLOUT_STEPS (1e5) such steps reach 4e6 A m/s; the coupling hook
# squares speeds, which overflow past about 1e154 m/s, so A past about 1e147.  The repulsion is lambda_max
# times 1 + gamma, at most, so 1e100 with _MAX_BIAS leaves a factor of 1e41 for the timing, and the pull's
# stiffness times an offset within _MAX_COORD stays within 1e200.
_MAX_GAIN = 1e100

# obstacle.gamma, the dimensionless tangential bias, stays within this bound: the repulsion is
# lambda_max * (n_hat + gamma * t_hat) with both vectors unit or shorter, so both gains at their bounds give at
# most about 1e106 m/s^2, within the 1e147 above.  A bias of 1e6 already makes the push all but tangential.
_MAX_BIAS = 1e6

# the range rules a field's metadata "check" may name: each tests a value, or every element of an array
RANGES = {
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "at least 1": lambda v: v >= 1,
    "at least 2": lambda v: v >= 2,
    "finite": lambda v: abs(v) < math.inf,
    "finite and positive": lambda v: (v > 0) & (v < math.inf),
    "finite and non-negative": lambda v: (v >= 0) & (v < math.inf),
    "non-negative, at most 1e100": lambda v: (v >= 0) & (v <= _MAX_GAIN),
    "non-negative, at most 1e6": lambda v: (v >= 0) & (v <= _MAX_BIAS),
}


def check_range(name: str, value, rule: str) -> None:
    """A FieldError naming name unless value keeps the RANGES rule; NaN keeps none."""
    if not np.all(RANGES[rule](np.asarray(value))):
        raise FieldError(name, f"must be {rule}, got {np.asarray(value).tolist()}")


def check_fields(obj) -> None:
    """check_range on each field of the dataclass obj whose metadata names a "check" rule."""
    for f in fields(obj):
        if f.metadata.get("check"):
            check_range(f.name, getattr(obj, f.name), f.metadata["check"])


def param(default, text: str, check: str | None = None, **metadata):
    """A parameter field: its default, help line, RANGES rule and other metadata, such as its job-config "key"."""
    return field(default=default, metadata={"help": text, "check": check, **metadata})


def rowdot(a, b) -> np.ndarray:
    """Dot products of matching rows of (..., d) arrays, each bit-equal to
    np.dot of the two rows.  np.vecdot makes np.dot's BLAS ddot call per row,
    but ddot sums a row of unit stride in another order than a strided one
    (a Fortran-ordered (n, 4) block differs from np.dot in the last bit), so
    the rows are made contiguous first; einsum and (a * b).sum(-1) round
    differently."""
    return np.vecdot(np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float))


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Flip sign so that w >= 0 (tie: x >= 0); q and -q encode the same rotation.
    Works on (..., 4) rows."""
    q = np.asarray(q, dtype=float)
    flip = (q[..., 0] < 0.0) | ((q[..., 0] == 0.0) & (q[..., 1] < 0.0))
    return np.where(flip[..., None], -q, q)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.sqrt(rowdot(q, q))
    if np.any(n == 0.0):
        raise ValueError("zero quaternion cannot be normalized")
    return quat_canonical(q / n[..., None])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a ⊗ b (both [w,x,y,z], or broadcastable (..., 4) rows)."""
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_conj(q: np.ndarray) -> np.ndarray:
    """Conjugate [w, -x, -y, -z] of (..., 4) rows, x, y and z negated as
    unary minus negates them (a product by -1 keeps a NaN's sign bit)."""
    q = np.asarray(q, dtype=float)
    out = np.negative(q)
    out[..., 0] = q[..., 0]
    return out


def quat_log(q: np.ndarray) -> np.ndarray:
    """Rotation vector of a unit quaternion, with norm in [0, pi], per (..., 4)
    row; a row's bits do not depend on the other rows.  The angle is
    math.atan2 of each row's Python floats, since np.arctan2 can differ from
    it in the last bit.

    quat_exp(quat_log(q)) recovers q up to the double-cover sign.
    """
    q = np.asarray(q, dtype=float)
    q = np.where(q[..., :1] < 0.0, -q, q)
    w = np.minimum(q[..., 0], 1.0)
    v = q[..., 1:4]
    n = np.sqrt(np.vecdot(v, v))   # the bits of np.linalg.norm of one row
    scale = np.empty(n.shape)
    small = n < SMALL_ANGLE
    ws, ns = w[small], n[small]
    # second-order series of 2*atan2(n, w)/n about n = 0
    scale[small] = 2.0 / ws * (1.0 - ns * ns / (3.0 * ws * ws))
    big = ~small
    nb = n[big]
    scale[big] = 2.0 * np.array(list(map(math.atan2, nb.tolist(), w[big].tolist()))) / nb
    return v * scale[..., None]


def quat_exp(r: np.ndarray) -> np.ndarray:
    """Unit quaternion for a rotation of angle ||r|| about r/||r||; works on
    (..., 3) rows."""
    r = np.asarray(r, dtype=float)
    theta = np.sqrt(rowdot(r, r))
    small = theta < SMALL_ANGLE
    half = 0.5 * theta
    q = np.empty(r.shape[:-1] + (4,))
    # second-order series below SMALL_ANGLE: cos(t/2) ~ 1 - t^2/8 and
    # sin(t/2)/t ~ 1/2 - t^2/48
    q[..., 0] = np.where(small, 1.0 - theta * theta / 8.0, np.cos(half))
    scale = np.where(small, 0.5 - theta * theta / 48.0, np.sin(half) / np.where(small, 1.0, theta))
    q[..., 1:] = r * scale[..., None]
    return quat_normalize(q)


def quat_geodesic_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """2*arccos(|q1.q2|): rotation angle between orientations, in [0, pi]."""
    d = abs(float(np.dot(q1, q2)))
    return 2.0 * math.acos(min(d, 1.0))


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("zero axis")
    return quat_exp(axis / n * angle)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def unwrap_rotation_vectors(rs) -> np.ndarray:
    """Make a sequence of rotation vectors elementwise continuous.

    Consecutive quat_log outputs can jump by a 2*pi multiple along the shared
    axis when the angle crosses pi (quaternion branch flip).  Each element is
    replaced by the branch r + 2*pi*k*r_hat, k in {-1, 0, 1}, closest to its
    predecessor.
    """
    rs = np.asarray(rs, dtype=float)
    out = rs.copy()
    for t in range(1, len(out)):
        r = rs[t]
        n = np.linalg.norm(r)
        best = r
        if n > SMALL_ANGLE:
            r_hat = r / n
            best_d = np.linalg.norm(r - out[t - 1])
            for k in (-1, 1):
                cand = r + 2.0 * math.pi * k * r_hat
                d = np.linalg.norm(cand - out[t - 1])
                if d < best_d:
                    best_d = d
                    best = cand
        out[t] = best
    return out


@dataclass(frozen=True)
class Pose:
    position: np.ndarray
    orientation: np.ndarray  # unit quaternion [w,x,y,z]

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "orientation", quat_normalize(self.orientation))
        if not np.all(np.isfinite(self.position)) or self.position.shape != (3,):
            raise ValueError("position must be a finite 3-vector")


_CSV_FIELDS = ["t", "x", "y", "z", "qw", "qx", "qy", "qz", "gripper", "split"]
# A trajectory file's positions stay within this distance of the origin on each axis.  The fit scales
# coordinate differences by the inverse square of the sample spacing and by the goal amplitude, and the
# rollout squares velocities, so coordinates overflow long before 1e308: a demo within 1e150 m sampled every
# 10 us already does.  1e100 leaves a factor of 1e50 for the timing.
_MAX_COORD = 1e100


def _column_text(column: np.ndarray) -> list:
    """The CSV text of each row of a column or an (n, k) block: the reprs of its Python numbers, comma-joined."""
    if column.ndim == 1:
        return list(map(repr, column.tolist()))
    return [",".join(map(repr, row)) for row in column.tolist()]


def _csv_template(text) -> str:
    """A CSV file's text as a %-template: the text of Trajectory._shared_columns,
    as _column_text makes it and with % escaped, and %r for each position value."""
    t, gripper, flags, quats = ([s.replace("%", "%%") for s in column] for column in text)
    rows = [f"{a},%r,%r,%r,{q},{b},{c}" for a, q, b, c in zip(t, quats, gripper, flags)]
    return "\n".join([",".join(_CSV_FIELDS), *rows]) + "\n"


def _row_values(rows, unit: str) -> np.ndarray:
    """The (n, 10) values of rows of numbers or number strings, one row at a
    time, each string read as float() reads it; a TrajectoryError names the
    first row that does not hold ten numbers."""
    width = len(_CSV_FIELDS)
    values = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise TrajectoryError(f"{unit} {i}: expected {width} values, got {len(row)}")
        try:
            values[i] = row   # numpy parses each string as float() does
        except (ValueError, OverflowError) as exc:
            raise TrajectoryError(f"{unit} {i}: {exc}") from None
    return values


def _is_header(row) -> bool:
    """Whether a CSV file's first row, None for an empty file, is the trajectory header, each name stripped."""
    return row is not None and [c.strip() for c in row] == _CSV_FIELDS


def _read_values(path):
    """The (n, 10) values of a CSV file's data rows, from its lines read once,
    after its header is checked.  One np.loadtxt pass over the lines, split
    as csv.reader splits them, reads them, unless that pass refuses them,
    warns or reads another width, or csv.reader could refuse a cell for its
    length; then the header's csv.reader goes on over the same lines, and
    _row_values reads its non-empty rows one at a time, cell by cell, naming
    the first row it refuses.  loadtxt reads each cell it accepts as float()
    reads it, and skips only the lines that csv.reader reads as empty rows,
    which the per-row read skips too."""
    with open(path, newline="") as f:
        lines = list(f)
    rows = csv.reader(lines)
    if not _is_header(next(rows, None)):
        raise TrajectoryError(f"bad trajectory header: expected {_CSV_FIELDS}")
    if max(map(len, lines), default=0) < csv.field_size_limit():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # a file with no data row warns
                values = np.loadtxt(lines[rows.line_num:], delimiter=",", comments=None, ndmin=2)
            if values.shape[1] == len(_CSV_FIELDS):
                return values
        except (ValueError, Warning):
            pass
    return _row_values([row for row in rows if row], "row")


@dataclass
class Trajectory:
    """Timestamped end-effector poses with gripper state and split markers.

    splits is an ordered index list; the first split is always the first
    sample index and the last is the last sample index, so K segments are
    bounded by K+1 splits.
    """

    times: np.ndarray
    positions: np.ndarray
    quaternions: np.ndarray
    gripper: np.ndarray
    splits: list = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.quaternions = np.asarray(self.quaternions, dtype=float)
        self.gripper = np.asarray(self.gripper, dtype=float)
        n = len(self.times)
        if self.positions.shape != (n, 3) or self.quaternions.shape != (n, 4):
            raise TrajectoryError("inconsistent sample array shapes")
        if self.gripper.shape != (n,):
            raise TrajectoryError("gripper channel length mismatch")
        if n < 2:
            raise TrajectoryError("trajectory needs at least 2 samples")
        if np.any(np.diff(self.times) <= 0):
            raise TrajectoryError("times must be strictly increasing")
        samples = (self.times, self.positions, self.quaternions, self.gripper)
        if not all(np.all(np.isfinite(x)) for x in samples):
            raise TrajectoryError("non-finite sample values")
        with np.errstate(over="ignore"):   # a norm that overflows is not 1, and is refused as such
            norms = np.linalg.norm(self.quaternions, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise TrajectoryError("orientations must be unit quaternions")
        self.quaternions = quat_canonical(self.quaternions / norms[:, None])
        self.splits = [int(s) for s in self.splits] or [0, n - 1]
        if self.splits[0] != 0 or self.splits[-1] != n - 1:
            raise TrajectoryError("splits must start at 0 and end at the last index")
        if any(b <= a for a, b in zip(self.splits, self.splits[1:])):
            raise TrajectoryError("splits must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_segments(self) -> int:
        return len(self.splits) - 1

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def arc_length(self) -> float:
        return float(np.sum(np.linalg.norm(np.diff(self.positions, axis=0), axis=1)))

    def pose(self, i: int) -> Pose:
        return Pose(self.positions[i], self.quaternions[i])

    def segment(self, k: int) -> "Trajectory":
        """Sub-trajectory for segment k (inclusive of both boundary samples)."""
        a, b = self.splits[k], self.splits[k + 1]
        return Trajectory(
            self.times[a:b + 1],
            self.positions[a:b + 1],
            self.quaternions[a:b + 1],
            self.gripper[a:b + 1],
        )

    # ---- serialization --------------------------------------------------

    def _table(self) -> list:
        """The samples as rows of Python numbers in _CSV_FIELDS order, split flag an int 0/1."""
        flags = np.zeros(len(self), dtype=int)
        flags[self.splits] = 1
        rows = np.column_stack((self.times, self.positions, self.quaternions, self.gripper)).tolist()
        return [row + [flag] for row, flag in zip(rows, flags.tolist())]

    @classmethod
    def _from_table(cls, table, unit: str) -> "Trajectory":
        """Trajectory from the (n, 10) values of a CSV file's data rows (unit
        "row") or a JSON document {"samples": [{column: number}, ...]} (unit
        "sample").  The one check of outside input, with _row_values: each
        fault names its row or sample, a finite position past _MAX_COORD on an
        axis included."""
        if unit == "sample":
            samples = table.get("samples") if isinstance(table, dict) else None
            if not isinstance(samples, list):
                raise TrajectoryError("expected a JSON object with a 'samples' list")
            for i, sample in enumerate(samples):
                if not isinstance(sample, dict):
                    raise TrajectoryError(f"sample {i}: expected an object, got {json.dumps(sample)}")
                # numpy reads a bool or a string as a number; JSON does not
                bad = next((k for k in _CSV_FIELDS if type(sample.get(k)) not in (int, float)), None)
                if bad is not None:
                    raise TrajectoryError(f"sample {i}: expected a number at key {bad!r}")
            table = _row_values([[sample[k] for k in _CSV_FIELDS] for sample in samples], unit)
        flags = table[:, -1]
        bad = np.flatnonzero((flags != 0) & (flags != 1))
        if len(bad):
            raise TrajectoryError(f"{unit} {bad[0]}: split flag must be 0 or 1, got {flags[bad[0]]:g}")
        t, pos, quat, grip = (table[:, c].copy() for c in (0, slice(1, 4), slice(4, 8), 8))
        far = np.flatnonzero(np.any((np.abs(pos) > _MAX_COORD) & np.isfinite(pos), axis=1))   # else: non-finite
        if len(far):
            raise TrajectoryError(f"{unit} {far[0]}: x,y,z must lie within {_MAX_COORD:g} m of the origin, "
                                  f"got {pos[far[0]].tolist()}")
        return cls(t, pos, quat, grip, np.flatnonzero(flags).tolist())

    def _shared_columns(self) -> tuple:
        """The t, gripper and split-flag columns and the (n, 4) quaternion block:
        the ones the rollouts of a synthesized batch share (the quaternions when sigma_r is 0)."""
        flags = np.zeros(len(self), dtype=int)
        flags[self.splits] = 1
        return self.times, self.gripper, flags, self.quaternions

    def to_csv(self, _template=None) -> str:
        """The CSV text, as one % over the positions.  _template, when given, is
        _csv_template of the text of _shared_columns(), which a batch's export
        makes once for the rollouts that share its bits."""
        template = _template or _csv_template([_column_text(column) for column in self._shared_columns()])
        return template % tuple(self.positions.ravel().tolist())

    def save_csv(self, path, _template=None) -> None:
        with open(path, "w", newline="") as f:
            f.write(self.to_csv(_template))

    @classmethod
    def load_csv(cls, path) -> "Trajectory":
        """The trajectory in a CSV file, as _read_values reads its rows."""
        try:
            return cls._from_table(_read_values(path), "row")
        except (csv.Error, ValueError) as exc:   # a TrajectoryError or the text encoding
            raise TrajectoryError(f"{path}: {exc}") from exc

    def to_json(self) -> str:
        samples = [dict(zip(_CSV_FIELDS, row)) for row in self._table()]
        return json.dumps({"samples": samples}, indent=2, sort_keys=True)

    @classmethod
    def load_json(cls, path) -> "Trajectory":
        try:
            with open(path) as f:
                doc = json.load(f)
            return cls._from_table(doc, "sample")
        except ValueError as exc:   # a TrajectoryError, invalid JSON or the text encoding
            raise TrajectoryError(f"{path}: {exc}") from exc

    @classmethod
    def load(cls, path) -> "Trajectory":
        if str(path).endswith(".json"):
            return cls.load_json(path)
        return cls.load_csv(path)
