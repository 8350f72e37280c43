"""Golden digests: the bytes a coupled synthesis exports and the summaries that
`splatsynth eval` writes, without and with the writing error.  Speed-ups must
leave them unchanged, so any change that moves a byte of these outputs fails
here.

The eval digest was computed before the rollouts of a segment were batched,
the writing-error one before the rasteriser became an array program, and the
export digest when the goal perturbations came to be drawn in closed form
(inverse CDF), which changed the RNG stream (x86-64, numpy 2.4, OpenBLAS).  A different platform or BLAS may round
differently; recompute them there from a commit known to be correct.

The two PLY digests run the same pair through a binary 3DGS PLY that is
loaded and moved into place: a two-segment letter A whose orientation turns,
coupled among a few hundred splats.  They were computed before a scene's
assembly was folded into one path (from_arrays and _from_factors).

The eval, writing-error and PLY digests were re-pinned when every density row
came to be summed left to right (splats._density_sums), which moved the last
bit of some rows of 8 or more kernel terms.
"""

import hashlib
import os

import numpy as np

from splatsynth.cli import main
from splatsynth.alignment import RigidTransform, apply_transform
from splatsynth.geometry import Trajectory, quat_from_axis_angle, quat_to_matrix
from splatsynth.obstacles import ObstacleParams
from splatsynth.splats import GaussianScene, load_scene, save_scene_json
from splatsynth.synthesis import PerturbationSpec, SynthesisJob, export_dataset, synthesize

from helpers import letter_a_demo, line_demo

EXPORT_DIGEST = "6202fa5086750320f766503229f6e8b73207428d91c77f3d40cbcc86ae792412"
EVAL_DIGEST = "ee3eeb0ee91e6a7d7a87b908387078565b3613d164efa7db3f808743666c419b"
WRITING_DIGEST = "9f8fb56737914c54d3a049595a049cfb0658c8bfb2c62056fe9a47720e7402a9"
PLY_EXPORT_DIGEST = "29feabb744cfbf68fc0e62351c380808816aaa226fe042b8dc984548bdab83b5"
PLY_EVAL_DIGEST = "2e3432b8ed38bcb60e6b4ed34c0e7998c796e3fc1b4abb8d51633abd974a67fd"


def dir_digest(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        h.update((path / name).read_bytes())
    return h.hexdigest()


def c05_job(n_demos=16):
    """Criterion 05: the line demo past one blob, coupled with a return pull."""
    demo = line_demo([0, 0, 0], [0.4, 0, 0], n=151)
    scene = GaussianScene.from_arrays([[0.2, 0.004, 0.0]], [0.02 ** 2 * np.eye(3)], [1.0])
    return SynthesisJob(demo=demo, scene=scene, n_demos=n_demos, dt=0.01,
                        spec=PerturbationSpec(sigma_p=[0.01] * 3, bound_p=[0.02] * 3, seed=5),
                        obstacle=ObstacleParams(rho_th=0.005, lambda_max=100.0, gamma=2.0,
                                                lookahead=0.015, return_gain=4.0))


def clutter_scene(n=40, seed=3):
    """Anisotropic blobs strewn along the line demo, close enough that many
    overlap: densities sum over mixed neighbour counts."""
    rng = np.random.default_rng(seed)
    means = np.column_stack([rng.uniform(-0.02, 0.42, n), rng.normal(0.0, 0.03, (n, 2))])
    rot, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    scales = rng.uniform(0.005, 0.04, (n, 3))
    covs = (rot * scales[:, None, :] ** 2) @ rot.transpose(0, 2, 1)
    return GaussianScene.from_arrays(means, 0.5 * (covs + covs.transpose(0, 2, 1)),
                                     rng.uniform(0.2, 1.0, n), opacity_floor=0.0)


def test_c05_export_digest(tmp_path):
    trajectories, manifest = synthesize(c05_job())
    export_dataset(trajectories, manifest, tmp_path / "data")
    assert dir_digest(tmp_path / "data") == EXPORT_DIGEST


def eval_summary_digest(tmp_path, *flags) -> str:
    """sha256 of the summary `splatsynth eval` writes for 8 bent copies of the
    line demo against the clutter scene."""
    demo = line_demo([0, 0, 0], [0.4, 0, 0], n=151)
    demo.save_csv(tmp_path / "demo.csv")
    save_scene_json(clutter_scene(), tmp_path / "scene.json")
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(11)
    bend = np.sin(np.linspace(0.0, np.pi, len(demo)))[:, None]
    for i in range(8):
        offset = bend * rng.normal(0.0, 0.02, 3)
        Trajectory(demo.times, demo.positions + offset, demo.quaternions,
                   demo.gripper).save_csv(data / f"rollout_{i:04d}.csv")
    assert main(["eval", str(data), str(tmp_path / "demo.csv"),
                 "--scene", str(tmp_path / "scene.json"), "--rho-th", "1.4", *flags]) == 0
    return hashlib.sha256((data / "summary.csv").read_bytes()).hexdigest()


def test_eval_summary_digest(tmp_path):
    assert eval_summary_digest(tmp_path) == EVAL_DIGEST


def test_eval_writing_error_digest(tmp_path):
    assert eval_summary_digest(tmp_path, "--writing-plane", "0,0,0,0,0,1") == WRITING_DIGEST


PLY_PROPS = ["x", "y", "z", "scale_0", "scale_1", "scale_2", "rot_0", "rot_1", "rot_2", "rot_3", "opacity"]
# the move from the PLY's frame to the demo's
PLY_MOVE = RigidTransform(quat_to_matrix(np.array([0.9, 0.2, -0.3, 0.25]) / np.linalg.norm([0.9, 0.2, -0.3, 0.25])),
                          np.array([0.3, -0.2, 0.5]))


def turning_letter_a() -> Trajectory:
    """The two-segment letter A of helpers, turning 0.8 rad about a tilted axis."""
    demo = letter_a_demo()
    quats = np.array([quat_from_axis_angle([0.3, 0.2, 1.0], 0.8 * u) for u in demo.times / demo.times[-1]])
    return Trajectory(demo.times, demo.positions, quats, demo.gripper, demo.splits)


def write_letter_a_ply(path, demo, n=300, seed=17):
    """A binary 3DGS PLY, in PLY_MOVE's source frame, of n splats near the
    demo's path: log-scales of 2-8 mm, unnormalised quaternions and logit
    opacities.  8 splats sit on the path and the rest 2-4 cm above or below
    its plane; 12 have a zero quaternion and 42 an opacity below the floor."""
    rng = np.random.default_rng(seed)
    side = np.where(rng.random(n) < 0.5, -1.0, 1.0) * rng.uniform(0.02, 0.04, n)
    side[:8] = 0.0
    means = demo.positions[rng.integers(0, len(demo), n)] + rng.normal(0.0, 0.004, (n, 3))
    means[:, 2] += side
    quats = rng.normal(size=(n, 4)) * rng.uniform(0.5, 2.0, (n, 1))
    quats[:12] = 0.0
    cols = np.column_stack([(means - PLY_MOVE.translation) @ PLY_MOVE.rotation,
                            np.log(rng.uniform(0.002, 0.008, (n, 3))), quats, rng.uniform(-4.0, 3.0, n)])
    rows = np.empty(n, dtype=[(p, "<f4") for p in PLY_PROPS])
    for i, p in enumerate(PLY_PROPS):
        rows[p] = cols[:, i]
    header = "".join(["ply\nformat binary_little_endian 1.0\n", f"element vertex {n}\n",
                      *(f"property float {p}\n" for p in PLY_PROPS), "end_header\n"])
    path.write_bytes(header.encode("ascii") + rows.tobytes())


def ply_dataset(tmp_path):
    """Load and move the PLY, then synthesize four coupled rollouts of the
    turning letter A among its splats and export them."""
    demo = turning_letter_a()
    demo.save_csv(tmp_path / "demo.csv")
    write_letter_a_ply(tmp_path / "scene.ply", demo)
    scene = apply_transform(load_scene(tmp_path / "scene.ply"), PLY_MOVE)
    assert (len(scene), scene.rejected_count) == (246, 12)
    job = SynthesisJob(demo=demo, scene=scene, n_demos=4, dt=0.01,
                       spec=PerturbationSpec(sigma_p=[0.004, 0.004, 0.002], bound_p=[0.01] * 3,
                                             sigma_r=0.05, bound_r=0.1, seed=9),
                       obstacle=ObstacleParams(rho_th=0.03, lambda_max=40.0, gamma=1.0,
                                               lookahead=0.01, return_gain=4.0))
    trajectories, manifest = synthesize(job)
    assert [r["status"] for r in manifest["rollouts"]] == ["ok"] * 4
    export_dataset(trajectories, manifest, tmp_path / "data")
    return tmp_path / "data"


def test_ply_export_digest(tmp_path):
    assert dir_digest(ply_dataset(tmp_path)) == PLY_EXPORT_DIGEST


def test_ply_eval_digest(tmp_path):
    """eval of the dataset against the same PLY and move, with the writing error."""
    data = ply_dataset(tmp_path)
    PLY_MOVE.save_json(tmp_path / "T.json")
    assert main(["eval", str(data), str(tmp_path / "demo.csv"), "--scene", str(tmp_path / "scene.ply"),
                 "--transform", str(tmp_path / "T.json"), "--writing-plane", "0,0,0,0,0,1"]) == 0
    assert hashlib.sha256((data / "summary.csv").read_bytes()).hexdigest() == PLY_EVAL_DIGEST
