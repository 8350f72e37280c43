"""Golden digests: the bytes a coupled synthesis exports and the summaries that
`splatsynth eval` writes, without and with the writing error.  Speed-ups must
leave them unchanged, so any change that moves a byte of these outputs fails
here.

The first two digests were computed before the rollouts of a segment were
batched, the writing-error one before the rasteriser became an array program
(x86-64, numpy 2.4, OpenBLAS).  A different platform or BLAS may round
differently; recompute them there from a commit known to be correct.
"""

import hashlib
import os

import numpy as np

from splatsynth.cli import main
from splatsynth.geometry import Trajectory
from splatsynth.obstacles import ObstacleParams
from splatsynth.splats import GaussianScene, save_scene_json
from splatsynth.synthesis import PerturbationSpec, SynthesisJob, export_dataset, synthesize

from helpers import line_demo

EXPORT_DIGEST = "9d428aa748029971f5c3a39c5addfb6e6ca1c1e76971647e5c46c24f1dd8d9a7"
EVAL_DIGEST = "caa5fd02a13e5008f7413c336612d5ce5bd66b6f6404c2a22e6ef96f48c9a447"
WRITING_DIGEST = "a1ff3f205f13051370d269cf5b550190809a832fa8a842e7baae93f0ce3861e0"


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
