"""The benchmark workloads, driven the way `splatsynth synth` and
`splatsynth eval` drive the library, plus the checks on their outputs.

A workload has four steps:
  prepare()         writes its seeded inputs to disk (not timed);
  setup(step)       loads and aligns the scene and fits the demo: the set-up a
                    user waits through before the first rollout.  It makes
                    each call through step(fn, *args), so that the caller
                    can time the calls one by one;
  run(s, out, part) one part of the measured batch, writing under out;
  check(...)        verifies the outputs of every part of one batch, counting
                    each check in Checks.

A batch is split into parts of under a second or two each, so that the
machine's speed can be measured next to every part (see calibrate.py).  The
parts of a synth batch are jobs with their own perturbation seeds, derived
from --seed; the parts of an eval batch are slices of the stored rollouts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from splatsynth import alignment, metrics, splats, synthesis
from splatsynth.geometry import Trajectory
from splatsynth.obstacles import ObstacleParams
from splatsynth.synthesis import PerturbationSpec, SynthesisJob

import inputs

N_BACKGROUND = 50_000     # background splats in the desk-scene PLY
COLLISION_RHO = 0.1       # Criterion 05 collision threshold
GOAL_TOL_M = 1e-3         # Criterion 04 terminal bound
ICP_TOL_DEG = 0.5         # Criterion 08 bounds
ICP_TOL_M = 1e-3
RERUN_PREFIX = 16         # rollouts re-made to check byte-identical output
PART_SEEDS = 1000         # part k of a synth batch uses seed * PART_SEEDS + k


class Checks:
    """Output checks; each one counts as attempted, and as failed if false."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {detail}")
        return ok


def dir_digest(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def dir_bytes(path) -> int:
    """Bytes of every file under path."""
    return sum(os.path.getsize(os.path.join(d, n)) for d, _, names in os.walk(path) for n in names)


def _write(path, data) -> str:
    with open(path, "wb" if isinstance(data, bytes) else "w") as f:
        f.write(data)
    return str(path)


def _read(directory, name) -> bytes:
    with open(os.path.join(directory, name), "rb") as f:
        return f.read()


def call(fn, *args):
    return fn(*args)


def _rotation_error_deg(R, R_true) -> float:
    c = (np.trace(R.T @ R_true) - 1.0) / 2.0
    return math.degrees(math.acos(min(max(c, -1.0), 1.0)))


def check_scene(workload, setup: Setup, checks: Checks):
    """The loader keeps and rejects exactly what the generator planted, and
    ICP, where the workload runs it, recovers the planted transform."""
    checks.add("scene kept", setup.kept == workload.planted_kept,
               f"kept {setup.kept}, planted {workload.planted_kept}")
    checks.add("scene rejected", setup.rejected == workload.planted_rejected,
               f"rejected {setup.rejected}, planted {workload.planted_rejected}")
    if setup.icp is not None:
        rot = _rotation_error_deg(setup.icp.transform.rotation, workload.desk.rotation)
        trans = float(np.linalg.norm(setup.icp.transform.translation - workload.desk.translation))
        checks.add("icp recovery", rot < ICP_TOL_DEG and trans < ICP_TOL_M,
                   f"rotation error {rot:.3g} deg, translation error {trans:.3g} m")


@dataclass
class Setup:
    demo: Trajectory
    scene: object                 # the scene in the demo frame
    kept: int                     # len() of the scene as loaded
    rejected: int                 # its rejected_count
    icp: object = None            # IcpResult, where the workload aligns
    job: SynthesisJob | None = None


class SynthWorkload:
    """`synth`: load demo and scene, optionally ICP-align the scene, fit, then
    synthesize n_demos coupled rollouts and export the dataset, as n_parts
    jobs of n_demos / n_parts rollouts each."""

    def __init__(self, seed, workdir, n_demos, n_parts, sigma_p, bound_p, obstacle):
        self.seed = seed
        self.workdir = workdir
        self.n_demos = n_demos
        self.n_parts = n_parts
        self.spec = PerturbationSpec(sigma_p=sigma_p, bound_p=bound_p, seed=seed)
        self.obstacle = ObstacleParams(**obstacle)
        self.desk = None

    def prepare(self):
        raise NotImplementedError

    def setup(self, step=call) -> Setup:
        demo = step(Trajectory.load, self.demo_path)
        loaded = step(splats.load_scene, self.scene_path)
        scene, icp = loaded, None
        if self.desk is not None:
            icp = step(alignment.icp_align, loaded.means, self.desk.proxy)
            scene = step(alignment.apply_transform, loaded, icp.transform)
        job = SynthesisJob(demo=demo, scene=scene, spec=self.spec, obstacle=self.obstacle,
                           n_demos=self.n_demos // self.n_parts, dt=0.01)
        step(synthesis.fit_segments, job)
        return Setup(demo, scene, len(loaded), loaded.rejected_count, icp, job)

    def parts(self):
        return list(range(self.n_parts))

    def run(self, setup: Setup, out_dir, part, n_demos=None):
        spec = dataclasses.replace(setup.job.spec, seed=self.seed * PART_SEEDS + part)
        job = dataclasses.replace(setup.job, spec=spec, n_demos=n_demos or setup.job.n_demos)
        trajectories, manifest = synthesis.synthesize(job)
        synthesis.export_dataset(trajectories, manifest, out_dir)
        return trajectories, manifest

    @staticmethod
    def rollouts(result) -> int:
        return len(result[1]["rollouts"])

    @staticmethod
    def dtw_position_mean(results) -> float:
        return float(np.mean([e["dtw_position"] for _, manifest in results
                              for e in manifest["rollouts"] if e["status"] == "ok"]))

    def check(self, setup: Setup, results, out_dirs, checks: Checks) -> dict:
        """results and out_dirs hold the parts of one batch, in order."""
        demo = setup.demo
        collided = 0
        pairs = [(t, e) for trajectories, manifest in results
                 for t, e in zip(trajectories, manifest["rollouts"])]
        for traj, entry in pairs:
            if not checks.add("rollout status", entry["status"] == "ok", f"rollout {entry['index']}"):
                continue
            worst = 0.0
            for pert in entry["perturbations"]:
                b = pert["boundary"]
                goal = demo.positions[demo.splits[b]] + np.asarray(pert["dp"])
                worst = max(worst, float(np.linalg.norm(traj.positions[traj.splits[b]] - goal)))
            checks.add("terminal goal", worst <= GOAL_TOL_M,
                       f"rollout {entry['index']} misses its goal by {worst:.3g} m")
            hit, rho, _ = metrics.collision_check(traj, setup.scene, COLLISION_RHO)
            collided += hit
            checks.add("collision", not hit, f"rollout {entry['index']} reaches rho {rho:.3g}")
        check_scene(self, setup, checks)
        prefix = min(RERUN_PREFIX, setup.job.n_demos)
        rerun_dir = os.path.join(self.workdir, "rerun")
        _, again = self.run(setup, rerun_dir, 0, n_demos=prefix)
        same = again["rollouts"] == results[0][1]["rollouts"][:prefix] and all(
            _read(out_dirs[0], e["file"]) == _read(rerun_dir, e["file"])
            for e in again["rollouts"] if e.get("file"))
        checks.add("byte-identical rerun", same, f"first {prefix} rollouts differ on a rerun")
        return {"collision_rate": collided / max(len(pairs), 1)}


class C05Batch(SynthWorkload):
    """Criterion 05: a line demo past one blob, 256 coupled rollouts."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, n_demos=256, n_parts=16,
                         sigma_p=[0.01] * 3, bound_p=[0.02] * 3,
                         obstacle=dict(rho_th=0.005, lambda_max=100.0, gamma=2.0,
                                       lookahead=0.015, return_gain=4.0))

    def prepare(self):
        self.demo_path = _write(self.workdir / "demo.csv", inputs.trajectory_csv(*inputs.line_demo()))
        self.scene_path = _write(self.workdir / "scene.json",
                                 inputs.blob_scene_json([0.2, 0.004, 0.0], sigma=0.02))
        self.n_records, self.planted_kept, self.planted_rejected = 1, 1, 0


class SceneSynth(SynthWorkload):
    """A letter-A demo in a room-scale 3DGS PLY that must be ICP-aligned."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, n_demos=64, n_parts=4,
                         sigma_p=[0.004, 0.004, 0.0], bound_p=[0.008, 0.008, 0.0],
                         obstacle=dict(rho_th=0.005, lambda_max=10.0, gamma=1.0,
                                       lookahead=0.015, return_gain=4.0))

    def prepare(self):
        letter = inputs.LetterA()
        self.demo_path = _write(self.workdir / "demo.csv", inputs.trajectory_csv(*letter.demo()))
        self.desk = inputs.desk_scene(self.seed, letter, N_BACKGROUND)
        self.scene_path = _write(self.workdir / "scene.ply", self.desk.ply)
        self.n_records = self.desk.n_vertices
        self.planted_kept, self.planted_rejected = self.desk.n_kept, self.desk.n_rejected


class EvalDataset:
    """`eval`: load and transform the scene, then score stored rollouts for
    DTW, collision and writing error, and write the summary CSV."""

    n_rollouts = 256
    part_files = 32
    tracer = None   # set while traced: spans of one file share its index
    raster = metrics.RasterSpec(plane_point=(0.0, 0.0, 0.0), plane_normal=(0.0, 0.0, 1.0))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        letter = inputs.LetterA()
        self.demo_path = _write(self.workdir / "demo.csv", inputs.trajectory_csv(*letter.demo()))
        desk = inputs.desk_scene(self.seed, letter, N_BACKGROUND)
        self.scene_path = _write(self.workdir / "scene.ply", desk.ply)
        self.transform_path = _write(self.workdir / "transform.json",
                                     inputs.transform_json(desk.rotation, desk.translation))
        self.dataset = self.workdir / "dataset"
        os.makedirs(self.dataset)
        for i, text in enumerate(inputs.eval_rollouts(self.seed, letter, self.n_rollouts)):
            _write(self.dataset / f"rollout_{i:04d}.csv", text)
        self.files = sorted(os.listdir(self.dataset))
        self.n_records = desk.n_vertices
        self.planted_kept, self.planted_rejected = desk.n_kept, desk.n_rejected

    def setup(self, step=call) -> Setup:
        demo = step(Trajectory.load, self.demo_path)
        loaded = step(splats.load_scene, self.scene_path)
        T = step(alignment.RigidTransform.load_json, self.transform_path)
        scene = step(alignment.apply_transform, loaded, T)
        return Setup(demo, scene, len(loaded), loaded.rejected_count)

    def parts(self):
        return list(range(0, self.n_rollouts, self.part_files))

    def run(self, setup: Setup, out_dir, part, files=None):
        reports, rows = [], []
        tracer = self.tracer
        for i, name in enumerate(files or self.files[part:part + self.part_files]):
            if tracer is not None:
                tracer.rollout = part + i
            traj = Trajectory.load_csv(os.path.join(self.dataset, name))
            rep = metrics.evaluate_rollout(traj, setup.demo, setup.scene, COLLISION_RHO, self.raster)
            reports.append(rep)
            rows.append(",".join([name, repr(rep.dtw_position), repr(rep.dtw_orientation),
                                  str(int(rep.collided)), repr(rep.max_density),
                                  repr(rep.writing_error)]))
        if tracer is not None:
            tracer.rollout = -1
        os.makedirs(out_dir, exist_ok=True)
        header = "file,dtw_position,dtw_orientation,collided,max_density,writing_error"
        _write(os.path.join(out_dir, "summary.csv"), "\n".join([header] + rows) + "\n")
        return reports

    @staticmethod
    def rollouts(result) -> int:
        return len(result)

    @staticmethod
    def dtw_position_mean(results) -> float:
        return float(np.mean([r.dtw_position for result in results for r in result]))

    def check(self, setup: Setup, results, out_dirs, checks: Checks) -> dict:
        """results and out_dirs hold the parts of one batch, in order."""
        result = [r for part in results for r in part]
        for name, rep in zip(self.files, result):
            values = (rep.dtw_position, rep.dtw_orientation, rep.max_density, rep.writing_error)
            checks.add("evaluated", all(math.isfinite(v) for v in values), f"{name}: {values}")
        check_scene(self, setup, checks)
        prefix = self.files[:RERUN_PREFIX]
        rerun_dir = os.path.join(self.workdir, "rerun")
        self.run(setup, rerun_dir, 0, files=prefix)
        head = _read(out_dirs[0], "summary.csv").splitlines()[:len(prefix) + 1]
        same = _read(rerun_dir, "summary.csv").splitlines() == head
        checks.add("byte-identical rerun", same, f"summary rows of the first {len(prefix)} files differ")
        return {"collision_rate": float(np.mean([r.collided for r in result]))}


WORKLOADS = {"c05_batch": C05Batch, "scene_synth": SceneSynth, "eval_dataset": EvalDataset}
