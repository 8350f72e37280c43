"""Command-line front end: align, fit, synth, eval, calibrate-rho, density.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.  A job's
parameters live in its config file; a flag that sets a parameter mirrors its field.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
import typing

import numpy as np

from . import alignment, dmp, metrics, obstacles, splats, synthesis
from .geometry import FieldError, Trajectory, check_range


log = logging.getLogger("splatsynth.cli")   # by name: run as python -m, the module is __main__


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are a UsageError, so that main prints
    them as one line, as it prints every other usage error."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# per field type: what its job-config value must be, and how it becomes the field's value
_PARSERS = {
    float: ("a number", _number, float),
    int: ("an integer", lambda v: _number(v) and (isinstance(v, int) or v.is_integer()), int),
    np.ndarray: ("3 numbers", lambda v: isinstance(v, list) and len(v) == 3 and all(map(_number, v)),
                 lambda v: [float(x) for x in v]),
    tuple: ("a list of booleans", lambda v: isinstance(v, list) and all(isinstance(x, bool) for x in v), tuple),
    str: ("a string", lambda v: isinstance(v, str), str),
    Trajectory: ("a path", lambda v: isinstance(v, str), lambda v: Trajectory.load(_require_file(v))),
    splats.GaussianScene | None: ("a path or null", lambda v: v is None or isinstance(v, str),
                                  lambda v: splats.load_scene(_require_file(v)) if v else None),
}


def _config_keys(cls=synthesis.SynthesisJob, prefix: str = "", nested: bool = True):
    """(config key, field, type) per field of a job dataclass, the key being
    the section prefix and the field's metadata "key" or name.  A field
    without a help line is a section; nested, its dataclass's keys replace it."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        key = prefix + f.metadata.get("key", f.name)
        if nested and "help" not in f.metadata:
            yield from _config_keys(hints[f.name], key + ".")
        else:
            yield key, f, hints[f.name]


def _config_help() -> str:
    lines = ["job config keys (JSON):"]
    for key, f, _ in _config_keys():
        default = "required" if f.metadata.get("required") else f"default: {json.dumps(f.default)}"
        lines.append(f"  {key:<25}{f.metadata['help']} ({default})")
    return "\n".join(lines) + "\n"


def _build(cls, values: dict, prefix: str = ""):
    """cls from the {config key: JSON value} map, each value checked against
    its field's range rule as given, before it is converted.  A FieldError
    from __post_init__ names its field; the error names that field's key."""
    kwargs, keys = {}, {}
    for key, f, hint in _config_keys(cls, prefix, nested=False):
        keys[f.name] = key
        if "help" not in f.metadata:
            # a check across sections names a section's field as "<field>.<its field>"
            keys.update((f"{f.name}.{g.name}", k) for k, g, _ in _config_keys(hint, key + ".", nested=False))
            kwargs[f.name] = _build(hint, values, key + ".")
        elif key in values:
            what, valid, parse = _PARSERS[hint]
            try:
                if not valid(values[key]):
                    raise TypeError(f"expected {what}, got {json.dumps(values[key])}")
                if f.metadata.get("check"):   # on the value as given: an integer field's parse expands a float
                    check_range(f.name, values[key], f.metadata["check"])
                kwargs[f.name] = parse(values[key])
            except (UsageError, TypeError, ValueError, LookupError, ArithmeticError, OSError) as exc:
                raise UsageError(f"{key}: {getattr(exc, 'detail', exc)}") from exc   # a FieldError's detail
        elif f.metadata.get("required"):
            raise UsageError(f"missing config key: {key}")
    try:
        return cls(**kwargs)
    except FieldError as exc:
        raise UsageError(f"{keys[exc.field]}: {exc.detail}") from exc


def _job_from_config(cfg) -> synthesis.SynthesisJob:
    """The job a parsed JSON config describes, or a UsageError naming the key at fault."""
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    keys = {key for key, _, _ in _config_keys()}
    sections = {key.split(".")[0] for key in keys if "." in key}
    values = {}
    for name, value in cfg.items():
        if name in sections:
            if not isinstance(value, dict):
                raise UsageError(f"{name}: expected an object, got {json.dumps(value)}")
            values.update((f"{name}.{k}", v) for k, v in value.items())
        elif "." not in name:
            values[name] = value
        else:
            raise UsageError(f"unknown config key: {name}")
    for key in values:
        if key not in keys:
            raise UsageError(f"unknown config key: {key}")
    return _build(synthesis.SynthesisJob, values)


def _load_config(path: str):
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise UsageError(f"config is not readable JSON: {path}: {exc}") from exc


def _require_file(path: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"file not found: {path}")
    if not os.path.isfile(path):
        raise UsageError(f"not a file: {path}")
    return path


def _output_file(flag: str, path: str, shown: str) -> None:
    """Refuse, naming flag, an output file path that names no file, is a
    directory or lies in a missing directory; shown is the path as given."""
    if not os.path.basename(path):
        raise UsageError(f"{flag}: must name a file, got {shown!r}")
    if os.path.isdir(path):
        raise UsageError(f"{flag}: {shown!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"{flag}: {shown!r} is not in an existing directory")


def _output_dir(flag: str, path: str) -> None:
    """Refuse, naming flag, an output directory that is a file or lies in
    one; its missing directories are left to be made."""
    if not path:
        raise UsageError(f"{flag}: must name a directory, got ''")
    head = path
    while not os.path.exists(head or "."):
        head = os.path.dirname(head)
    if not os.path.isdir(head or "."):
        where = "" if head == path else f" lies in {head!r}, which"
        raise UsageError(f"{flag}: {path!r}{where} is not a directory")


def _load_points(path: str) -> np.ndarray:
    """Point set from a scene's means, or from a CSV whose rows start with x, y
    and z: blank rows are skipped and line 1 may be a header; any other row
    that does not start with 3 finite numbers, each within
    alignment._MAX_COORD of 0, is a ValueError naming its line."""
    _require_file(path)
    if path.endswith(".json") or path.endswith(".ply"):
        return splats.load_scene(path, opacity_floor=0.0).means
    rows = []
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            for row in reader:
                try:
                    xyz = [float(v) for v in row[:3]]
                except ValueError:
                    xyz = None
                if not row or (xyz is None and reader.line_num == 1):
                    continue  # blank row or header line
                # three Python floats: math's tests cost a fraction of a numpy call's
                if xyz is None or len(xyz) < 3 or not all(map(math.isfinite, xyz)):
                    raise ValueError(f"{path}: line {reader.line_num}: expected 3 finite numbers x,y,z, "
                                     f"got {','.join(row)!r}")
                if not max(map(abs, xyz)) <= alignment._MAX_COORD:
                    raise ValueError(f"{path}: line {reader.line_num}: expected x,y,z within "
                                     f"{alignment._MAX_COORD:g} m of the origin, got {','.join(row)!r}")
                rows.append(xyz)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return np.array(rows, dtype=float).reshape(-1, 3)


def _moved(scene, T, path: str):
    """The scene moved by the transform of the file at path; a move that takes
    a splat too far is a SceneFormatError naming that file."""
    try:
        return alignment.apply_transform(scene, T)
    except splats.SceneFormatError as exc:
        raise splats.SceneFormatError(f"{path}: {exc}") from exc


# ---- commands ---------------------------------------------------------------

def cmd_align(args) -> int:
    params = alignment.IcpParams(max_iters=args.max_iters, tol=args.tol, max_corr_dist=args.max_corr_dist)
    _output_file("--out", args.out, args.out)
    scene = None
    if args.aligned_scene:
        if not args.scene.endswith((".json", ".ply")):
            raise UsageError(f"--aligned-scene needs a .json or .ply scene to transform, got {args.scene}")
        _output_file("--aligned-scene", args.aligned_scene, args.aligned_scene)
        if os.path.realpath(args.aligned_scene) == os.path.realpath(args.out):
            raise UsageError(f"--aligned-scene: {args.aligned_scene!r} is also --out")
        scene = splats.load_scene(_require_file(args.scene), opacity_floor=0.0)
    source = _load_points(args.scene) if scene is None else scene.means
    target = _load_points(args.proxy)
    init = alignment.RigidTransform.load_json(_require_file(args.init)) if args.init else None
    result = alignment.icp_align(source, target, params, init=init)
    result.transform.save_json(args.out)
    if scene is not None:
        splats.save_scene_json(_moved(scene, result.transform, args.out), args.aligned_scene)
    print(f"rms={result.rms:.9g} inliers={result.n_inliers} iters={len(result.residuals)}")
    return 0


def cmd_fit(args) -> int:
    _output_dir("--out", args.out)
    demo = Trajectory.load(_require_file(args.demo))
    try:
        synthesis.check_n_basis(demo, args.n_basis)
    except FieldError as exc:
        raise UsageError(f"{'--n-basis' if exc.field == 'n_basis' else exc.field}: {exc.detail}") from exc
    os.makedirs(args.out, exist_ok=True)
    for k in range(demo.n_segments):
        model = dmp.fit_dmp(demo.segment(k), n_basis=args.n_basis,
                            ridge_lambda=args.ridge_lambda)
        path = os.path.join(args.out, f"model_{k:02d}.json")
        with open(path, "w") as f:
            f.write(model.to_json())
        print(f"segment {k}: tau={model.duration:.4g} -> {path}")
    return 0


def cmd_synth(args) -> int:
    job = _job_from_config(_load_config(args.config))
    _output_dir("output.dir", job.output_dir)
    trajectories, manifest = synthesis.synthesize(job)
    synthesis.export_dataset(trajectories, manifest, job.output_dir)
    n_ok = 0
    for entry in manifest["rollouts"]:
        print(f"rollout {entry['index']:4d}: {entry['status']}"
              + (f" dtw_pos={entry['dtw_position']:.6g}" if entry["status"] == "ok" else f": {entry['error']}"))
        n_ok += entry["status"] == "ok"
    print(f"{n_ok}/{job.n_demos} rollouts written to {job.output_dir}")
    return 0 if n_ok == job.n_demos else 1


def _raster_spec(args) -> metrics.RasterSpec:
    """The writing-error raster the eval flags describe; a UsageError naming the flag at fault."""
    try:
        vals = [float(v) for v in args.writing_plane.split(",")]
    except ValueError:
        vals = []
    if len(vals) != 6:
        raise UsageError("--writing-plane needs 6 comma-separated numbers px,py,pz,nx,ny,nz, "
                         f"got {args.writing_plane!r}")
    try:
        return metrics.RasterSpec(resolution=args.raster_resolution, stroke_px=args.stroke_px,
                                  plane_point=tuple(vals[:3]), plane_normal=tuple(vals[3:]))
    except FieldError as exc:
        raise UsageError(f"--writing-plane: {exc}") from exc


def _is_rollout(name: str) -> bool:
    """Whether a file name is one that eval reads as a rollout of the dataset."""
    return name.startswith("rollout_") and name.endswith(".csv")


def cmd_eval(args) -> int:
    if _is_rollout(os.path.basename(args.out)):
        raise UsageError(f"--out: {args.out!r} is the name of a rollout file, which eval reads")
    if not args.scene and (args.transform or args.scene_unaligned):
        raise UsageError(f"{'--transform' if args.transform else '--scene-unaligned'} needs --scene")
    if args.scene_unaligned and not args.transform:
        raise UsageError("scene marked unaligned but no --transform provided")
    raster = _raster_spec(args) if args.writing_plane else None
    if not os.path.exists(args.dataset):
        raise UsageError(f"file not found: {args.dataset}")
    if not os.path.isdir(args.dataset):
        raise UsageError(f"not a directory: {args.dataset}")
    out_path = os.path.join(args.dataset, args.out)
    _output_file("--out", out_path, args.out)
    expert = Trajectory.load(_require_file(args.expert))
    if raster is not None:
        try:   # draws the expert, which every file's writing error reads, before any file
            metrics.writing_error(expert, expert, raster)
        except metrics.MetricError as exc:
            raise UsageError(f"--writing-plane: the expert's strokes on this plane: {exc}") from exc
    scene = None
    if args.scene:
        scene = splats.load_scene(_require_file(args.scene))
        if args.transform:
            T = alignment.RigidTransform.load_json(_require_file(args.transform))
            scene = _moved(scene, T, args.transform)
    files = sorted(filter(_is_rollout, os.listdir(args.dataset)))
    if not files:
        raise UsageError(f"no rollout CSVs found in {args.dataset}")
    reports = []
    rows = []
    for name in files:
        path = os.path.join(args.dataset, name)
        traj = Trajectory.load_csv(path)
        try:
            rep = metrics.evaluate_rollout(traj, expert, scene, args.rho_th, raster)
        except metrics.MetricError as exc:
            raise metrics.MetricError(f"{path}: {exc}") from exc
        reports.append(rep)
        rows.append([name, repr(rep.dtw_position), repr(rep.dtw_orientation),
                     int(rep.collided), repr(rep.max_density),
                     "" if rep.writing_error is None else repr(rep.writing_error)])
    paths = scene._paths if scene is not None else None
    log.debug("%d files scored; scene path list: %d rebuilds, %d listed pairs, %d kept; "
              "inverse covariances formed: %d of %d", len(files),
              *((0,) * 3 if paths is None else (paths.rebuilds, paths.listed, paths.kept)),
              *((0, 0) if scene is None else (scene._inverses_formed(), len(scene))))
    with open(out_path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["file", "dtw_position", "dtw_orientation", "collided",
                    "max_density", "writing_error"])
        w.writerows(rows)

    def stats(vals):
        vals = np.asarray(vals, dtype=float)
        return f"{vals.mean():.6g} +/- {vals.std():.6g}"

    print(f"{'metric':<20}{'mean +/- std':<28}")
    print(f"{'dtw_position':<20}{stats([r.dtw_position for r in reports]):<28}")
    print(f"{'dtw_orientation':<20}{stats([r.dtw_orientation for r in reports]):<28}")
    print(f"{'collision_rate':<20}{np.mean([r.collided for r in reports]) * 100:.1f}%")
    if raster is not None:
        print(f"{'writing_error':<20}{stats([r.writing_error for r in reports]):<28}")
    print(f"summary written to {out_path}")
    return 0


def cmd_calibrate_rho(args) -> int:
    scene = splats.load_scene(_require_file(args.scene))
    expert = Trajectory.load(_require_file(args.expert))
    on_path = splats.density_many(scene, expert.positions)
    rng = np.random.default_rng(args.probe_seed)
    if len(scene):
        lo = scene.means.min(axis=0) - scene.radii.max()
        hi = scene.means.max(axis=0) + scene.radii.max()
    else:
        lo = expert.positions.min(axis=0)
        hi = expert.positions.max(axis=0)
    probes = rng.uniform(lo, hi, size=(args.n_probes, 3))
    ambient = splats.density_many(scene, probes)
    if len(scene) == 0 or on_path.max() == 0.0:
        suggested = args.floor
    else:
        suggested = max(2.0 * float(np.percentile(on_path, 99)), args.floor)
    edges = np.histogram_bin_edges(np.concatenate([on_path, ambient]), bins=args.bins)
    on_hist, _ = np.histogram(on_path, bins=edges)
    amb_hist, _ = np.histogram(ambient, bins=edges)
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["bin_lo", "bin_hi", "on_path_count", "probe_count"])
    for i in range(len(on_hist)):
        w.writerow([repr(float(edges[i])), repr(float(edges[i + 1])),
                    int(on_hist[i]), int(amb_hist[i])])
    print(f"on_path_max={on_path.max():.9g}")
    print(f"suggested_rho_th={suggested:.9g}")
    return 0


def cmd_density(args) -> int:
    scene = splats.load_scene(_require_file(args.scene))
    x = np.array([args.x, args.y, args.z])
    rho = splats.density(scene, x)
    grad = splats.density_gradient(scene, x, args.gradient_step)
    print(f"rho={rho:.9g}")
    print(f"grad=({grad[0]:.9g}, {grad[1]:.9g}, {grad[2]:.9g})")
    return 0


# ---- parser -----------------------------------------------------------------

def _flag(p: argparse.ArgumentParser, flag: str, cls, name: str) -> None:
    """Declare flag as the parameter cls.<name>: the schema field's type, default
    and help line, and its RANGES rule in p's ranges."""
    f = cls.__dataclass_fields__[name]
    p.add_argument(flag, type=typing.get_type_hints(cls)[name], default=f.default,
                   help=f"{f.metadata['help']} (default: %(default)s)")
    p.set_defaults(ranges={**(p.get_default("ranges") or {}), flag: f.metadata["check"]})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splatsynth",
        description="Expert-preserving demonstration synthesis in splat scenes.")
    # per command, {flag or positional: its RANGES rule}, checked before the command runs
    parser.set_defaults(ranges={})
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="ICP-align a splat scene to a robot proxy cloud")
    p.add_argument("scene", help="scene PLY/JSON or XYZ CSV point set")
    p.add_argument("proxy", help="robot proxy point set (XYZ CSV or JSON scene)")
    p.add_argument("--init", help="initial 4x4 transform JSON")
    p.add_argument("--out", default="transform.json", help="output transform JSON (default: transform.json)")
    p.add_argument("--aligned-scene", help="optionally write the transformed scene JSON (scene must be PLY/JSON)")
    for flag, name in (("--max-iters", "max_iters"), ("--tol", "tol"), ("--max-corr-dist", "max_corr_dist")):
        _flag(p, flag, alignment.IcpParams, name)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("fit", help="fit per-segment DMP models and write them as JSON")
    p.add_argument("demo", help="expert trajectory CSV/JSON")
    p.add_argument("--out", default="models", help="output directory (default: models)")
    _flag(p, "--n-basis", synthesis.SynthesisJob, "n_basis")
    _flag(p, "--ridge-lambda", synthesis.SynthesisJob, "ridge_lambda")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("synth", help="synthesize a demonstration dataset from a job config",
                       epilog=_config_help(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("config", help="job config JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="evaluate a dataset against the expert demo")
    p.add_argument("dataset", help="dataset directory with rollout CSVs")
    p.add_argument("expert", help="expert trajectory CSV/JSON")
    p.add_argument("--scene", help="splat scene for collision checking")
    p.add_argument("--scene-unaligned", action="store_true",
                   help="declare the scene is not in the trajectory frame")
    p.add_argument("--transform", help="4x4 transform JSON to apply to the scene")
    _flag(p, "--rho-th", obstacles.ObstacleParams, "rho_th")
    p.add_argument("--writing-plane", help="px,py,pz,nx,ny,nz to enable the writing-error metric")
    _flag(p, "--raster-resolution", metrics.RasterSpec, "resolution")
    _flag(p, "--stroke-px", metrics.RasterSpec, "stroke_px")
    p.add_argument("--out", default="summary.csv", help="summary file name (default: summary.csv)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("calibrate-rho", help="histogram densities and suggest rho_th")
    p.add_argument("scene", help="splat scene PLY/JSON")
    p.add_argument("expert", help="expert trajectory CSV/JSON")
    p.add_argument("--n-probes", type=int, default=1000, help="random probe count (default: 1000)")
    p.add_argument("--probe-seed", type=int, default=0, help="probe RNG seed (default: 0)")
    p.add_argument("--bins", type=int, default=20, help="histogram bins (default: 20)")
    p.add_argument("--floor", type=float, default=0.05, help="suggestion floor (default: 0.05)")
    floor_rule = obstacles.ObstacleParams.__dataclass_fields__["rho_th"].metadata["check"]   # a suggested rho_th
    p.set_defaults(func=cmd_calibrate_rho, ranges={"--n-probes": "non-negative", "--probe-seed": "non-negative",
                                                   "--bins": "at least 1", "--floor": floor_rule})

    p = sub.add_parser("density", help="query rho and its gradient at one point")
    p.add_argument("scene", help="splat scene PLY/JSON")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("z", type=float)
    p.set_defaults(func=cmd_density, ranges={"x": "finite", "y": "finite", "z": "finite"})
    _flag(p, "--gradient-step", obstacles.ObstacleParams, "gradient_step")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        level = (os.environ.get("SPLATSYNTH_LOG") or "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):   # a known name maps to its number
            raise UsageError(f"SPLATSYNTH_LOG: unknown level {level!r}, expected DEBUG, INFO, WARNING, "
                             "ERROR or CRITICAL")
        logging.basicConfig(level=level)
        for flag, rule in args.ranges.items():
            try:
                check_range(flag, getattr(args, flag.lstrip("-").replace("-", "_")), rule)
            except FieldError as exc:
                raise UsageError(f"{flag}: {exc.detail}") from exc
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
