"""Command-line front end: align, fit, synth, eval, calibrate-rho, density.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.  All numeric
parameters live in the job config file; flags only override paths and options.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import alignment, dmp, metrics, obstacles, splats, synthesis
from .geometry import Trajectory, TrajectoryError

log = logging.getLogger("splatsynth")

CONFIG_KEYS = {
    "demo": None,
    "scene": None,
    "perturbation": {"sigma_p", "bound_p", "sigma_r", "bound_r", "boundaries", "seed"},
    "obstacle": {"rho_th", "lambda_max", "gamma", "epsilon", "lookahead",
                 "return_gain", "return_cap", "gradient_step"},
    "rollout": {"dt", "n_basis", "ridge_lambda", "alpha_z", "alpha_s", "horizon"},
    "output": {"dir", "n_demos"},
}

CONFIG_HELP = """\
job config keys (JSON):
  demo                  path to expert trajectory CSV/JSON (required)
  scene                 path to splat scene PLY/JSON, or null (default: null)
  perturbation.sigma_p  per-axis translation std, m (default: [0,0,0])
  perturbation.bound_p  per-axis translation bound, m (default: [0,0,0])
  perturbation.sigma_r  rotation std, rad (default: 0)
  perturbation.bound_r  rotation bound, rad (default: 0)
  perturbation.boundaries  perturbable flag per split index (default: all but start)
  perturbation.seed     master RNG seed (default: 0)
  obstacle.rho_th       density threshold (default: 0.1)
  obstacle.lambda_max   peak repulsion gain, m/s^2 (default: 10.0)
  obstacle.gamma        tangential bias (default: 1.0)
  obstacle.epsilon      normalizer guard (default: 1e-8)
  obstacle.lookahead    probe distance floor, m (default: 0.02)
  obstacle.return_gain  return-to-reference stiffness (default: 0.0)
  obstacle.return_cap   return correction bound, m/s^2 (default: 5.0)
  obstacle.gradient_step  central-difference step, m (default: 1e-3)
  rollout.dt            integration step, s (default: 0.02)
  rollout.n_basis       RBF count per channel (default: 30)
  rollout.ridge_lambda  ridge regularizer (default: 1e-6)
  rollout.alpha_z       transformation gain (default: 25.0)
  rollout.alpha_s       canonical decay rate (default: 4.0)
  rollout.horizon       rollout horizon as a multiple of tau (default: 1.25)
  output.dir            dataset directory (required)
  output.n_demos        rollouts to synthesize (default: 1)
"""


class UsageError(Exception):
    pass


def _validate_config(cfg: dict) -> None:
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise UsageError(f"unknown config key: {key}")
        sub = CONFIG_KEYS[key]
        if sub is not None and isinstance(cfg[key], dict):
            for k in cfg[key]:
                if k not in sub:
                    raise UsageError(f"unknown config key: {key}.{k}")
    if "demo" not in cfg:
        raise UsageError("missing config key: demo")
    if "output" not in cfg or "dir" not in cfg["output"]:
        raise UsageError("missing config key: output.dir")
    roll = cfg.get("rollout", {})
    if roll.get("dt", 0.02) <= 0:
        raise UsageError("invalid config value: rollout.dt must be positive")
    if cfg.get("output", {}).get("n_demos", 1) < 1:
        raise UsageError("invalid config value: output.n_demos must be >= 1")


def _load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path) as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {path}: {exc}") from exc
    _validate_config(cfg)
    return cfg


def _require_file(path: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"file not found: {path}")
    return path


def _load_points(path: str) -> np.ndarray:
    """Point set from an XYZ CSV (header optional) or a JSON scene's means."""
    _require_file(path)
    if path.endswith(".json") or path.endswith(".ply"):
        return splats.load_scene(path, opacity_floor=0.0).means
    rows = []
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row[:3]])
            except ValueError:
                continue  # header line
    return np.asarray(rows, dtype=float)


def _job_from_config(cfg: dict) -> synthesis.SynthesisJob:
    demo = Trajectory.load(_require_file(cfg["demo"]))
    scene = None
    if cfg.get("scene"):
        scene = splats.load_scene(_require_file(cfg["scene"]))
    roll = cfg.get("rollout", {})
    return synthesis.SynthesisJob(
        demo=demo,
        scene=scene,
        spec=synthesis.PerturbationSpec.from_dict(cfg.get("perturbation", {})),
        obstacle=obstacles.ObstacleParams.from_dict(cfg.get("obstacle", {})),
        n_demos=int(cfg.get("output", {}).get("n_demos", 1)),
        dt=float(roll.get("dt", 0.02)),
        n_basis=int(roll.get("n_basis", 30)),
        ridge_lambda=float(roll.get("ridge_lambda", 1e-6)),
        alpha_z=float(roll.get("alpha_z", 25.0)),
        alpha_s=float(roll.get("alpha_s", 4.0)),
        horizon_factor=float(roll.get("horizon", 1.25)),
        output_dir=cfg["output"]["dir"],
    )


# ---- commands ---------------------------------------------------------------

def cmd_align(args) -> int:
    source = _load_points(args.scene)
    target = _load_points(args.proxy)
    init = alignment.RigidTransform.load_json(_require_file(args.init)) if args.init else None
    params = alignment.IcpParams(max_iters=args.max_iters, tol=args.tol,
                                 max_corr_dist=args.max_corr_dist)
    result = alignment.icp_align(source, target, params, init=init)
    result.transform.save_json(args.out)
    if args.aligned_scene:
        scene = splats.load_scene(args.scene, opacity_floor=0.0)
        splats.save_scene_json(alignment.apply_transform(scene, result.transform),
                               args.aligned_scene)
    print(f"rms={result.rms:.9g} inliers={result.n_inliers} iters={len(result.residuals)}")
    return 0


def cmd_fit(args) -> int:
    demo = Trajectory.load(_require_file(args.demo))
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
    cfg = _load_config(args.config)
    job = _job_from_config(cfg)
    trajectories, manifest = synthesis.synthesize(job)
    synthesis.export_dataset(trajectories, manifest, job.output_dir)
    n_ok = 0
    for entry in manifest["rollouts"]:
        print(f"rollout {entry['index']:4d}: {entry['status']}"
              + (f" dtw_pos={entry['dtw_position']:.6g}" if entry["status"] == "ok" else ""))
        n_ok += entry["status"] == "ok"
    print(f"{n_ok}/{job.n_demos} rollouts written to {job.output_dir}")
    return 0 if n_ok == job.n_demos else 1


def cmd_eval(args) -> int:
    expert = Trajectory.load(_require_file(args.expert))
    scene = None
    if args.scene:
        if args.scene_unaligned and not args.transform:
            raise UsageError("scene marked unaligned but no --transform provided")
        scene = splats.load_scene(_require_file(args.scene))
        if args.transform:
            T = alignment.RigidTransform.load_json(_require_file(args.transform))
            scene = alignment.apply_transform(scene, T)
    raster = None
    if args.writing_plane:
        vals = [float(v) for v in args.writing_plane.split(",")]
        if len(vals) != 6:
            raise UsageError("--writing-plane needs 6 comma-separated values px,py,pz,nx,ny,nz")
        raster = metrics.RasterSpec(resolution=args.raster_resolution,
                                    stroke_px=args.stroke_px,
                                    plane_point=tuple(vals[:3]),
                                    plane_normal=tuple(vals[3:]))
    _require_file(args.dataset)
    files = sorted(f for f in os.listdir(args.dataset)
                   if f.startswith("rollout_") and f.endswith(".csv"))
    if not files:
        raise UsageError(f"no rollout CSVs found in {args.dataset}")
    reports = []
    rows = []
    for name in files:
        try:
            traj = Trajectory.load_csv(os.path.join(args.dataset, name))
        except TrajectoryError as exc:
            raise TrajectoryError(f"{name}: {exc}") from exc
        rep = metrics.evaluate_rollout(traj, expert, scene, args.rho_th, raster)
        reports.append(rep)
        rows.append([name, repr(rep.dtw_position), repr(rep.dtw_orientation),
                     int(rep.collided), repr(rep.max_density),
                     "" if rep.writing_error is None else repr(rep.writing_error)])
    out_path = os.path.join(args.dataset, args.out)
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splatsynth",
        description="Expert-preserving demonstration synthesis in splat scenes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="ICP-align a splat scene to a robot proxy cloud")
    p.add_argument("scene", help="scene PLY/JSON or XYZ CSV point set")
    p.add_argument("proxy", help="robot proxy point set (XYZ CSV or JSON scene)")
    p.add_argument("--init", help="initial 4x4 transform JSON")
    p.add_argument("--out", default="transform.json", help="output transform JSON (default: transform.json)")
    p.add_argument("--aligned-scene", help="optionally write the transformed scene JSON")
    p.add_argument("--max-iters", type=int, default=100, help="ICP iteration cap (default: 100)")
    p.add_argument("--tol", type=float, default=1e-8, help="RMS change stop tolerance, m (default: 1e-8)")
    p.add_argument("--max-corr-dist", type=float, default=0.1, help="correspondence cap, m (default: 0.1)")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("fit", help="fit per-segment DMP models and write them as JSON")
    p.add_argument("demo", help="expert trajectory CSV/JSON")
    p.add_argument("--out", default="models", help="output directory (default: models)")
    p.add_argument("--n-basis", type=int, default=30, help="RBFs per channel (default: 30)")
    p.add_argument("--ridge-lambda", type=float, default=1e-6, help="ridge regularizer (default: 1e-6)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("synth", help="synthesize a demonstration dataset from a job config",
                       epilog=CONFIG_HELP,
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
    p.add_argument("--rho-th", type=float, default=0.1, help="collision density threshold (default: 0.1)")
    p.add_argument("--writing-plane", help="px,py,pz,nx,ny,nz to enable the writing-error metric")
    p.add_argument("--raster-resolution", type=int, default=128, help="raster canvas size (default: 128)")
    p.add_argument("--stroke-px", type=int, default=3, help="stroke width in pixels (default: 3)")
    p.add_argument("--out", default="summary.csv", help="summary file name (default: summary.csv)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("calibrate-rho", help="histogram densities and suggest rho_th")
    p.add_argument("scene", help="splat scene PLY/JSON")
    p.add_argument("expert", help="expert trajectory CSV/JSON")
    p.add_argument("--n-probes", type=int, default=1000, help="random probe count (default: 1000)")
    p.add_argument("--probe-seed", type=int, default=0, help="probe RNG seed (default: 0)")
    p.add_argument("--bins", type=int, default=20, help="histogram bins (default: 20)")
    p.add_argument("--floor", type=float, default=0.05, help="suggestion floor (default: 0.05)")
    p.set_defaults(func=cmd_calibrate_rho)

    p = sub.add_parser("density", help="query rho and its gradient at one point")
    p.add_argument("scene", help="splat scene PLY/JSON")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("z", type=float)
    p.add_argument("--gradient-step", type=float, default=1e-3, help="central-difference step (default: 1e-3)")
    p.set_defaults(func=cmd_density)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SPLATSYNTH_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
