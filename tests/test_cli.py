import json

import numpy as np
import pytest

from splatsynth.cli import main
from splatsynth.geometry import Trajectory
from splatsynth.splats import GaussianBlob, GaussianScene, save_scene_json

from helpers import letter_a_demo, line_demo


@pytest.fixture
def demo_csv(tmp_path):
    path = tmp_path / "demo.csv"
    letter_a_demo().save_csv(path)
    return str(path)


def write_scene(path, blobs):
    save_scene_json(GaussianScene(blobs, opacity_floor=0.0), path)
    return str(path)


def write_config(tmp_path, demo, out_dir, **overrides):
    cfg = {
        "demo": demo,
        "output": {"dir": str(out_dir), "n_demos": overrides.pop("n_demos", 2)},
        "rollout": {"dt": overrides.pop("dt", 0.01)},
        "perturbation": {"sigma_p": [0.005] * 3, "bound_p": [0.01] * 3, "seed": 1},
    }
    cfg.update(overrides)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["synth", "/nonexistent/job.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text("{not json")
        assert main(["synth", str(path)]) == 2

    def test_unknown_config_key_named(self, tmp_path, demo_csv, capsys):
        cfg = write_config(tmp_path, demo_csv, tmp_path / "out", typo_key={"a": 1})
        assert main(["synth", cfg]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_unknown_nested_key_named(self, tmp_path, demo_csv, capsys):
        cfg = write_config(tmp_path, demo_csv, tmp_path / "out",
                           rollout={"dt": 0.01, "stepsize": 5})
        assert main(["synth", cfg]) == 2
        assert "rollout.stepsize" in capsys.readouterr().err

    def test_negative_dt(self, tmp_path, demo_csv, capsys):
        cfg = write_config(tmp_path, demo_csv, tmp_path / "out", dt=-0.01)
        assert main(["synth", cfg]) == 2
        assert "dt" in capsys.readouterr().err

    def test_bad_n_demos(self, tmp_path, demo_csv):
        cfg = write_config(tmp_path, demo_csv, tmp_path / "out", n_demos=0)
        assert main(["synth", cfg]) == 2

    def test_missing_demo_file(self, tmp_path):
        cfg = write_config(tmp_path, str(tmp_path / "nope.csv"), tmp_path / "out")
        assert main(["synth", cfg]) == 2


class TestHelp:
    def test_synth_help_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for key in ["demo", "scene", "perturbation.sigma_p", "obstacle.rho_th",
                    "obstacle.lambda_max", "rollout.dt", "rollout.n_basis",
                    "output.dir", "output.n_demos", "perturbation.seed"]:
            assert key in out


class TestAlign:
    def test_identity(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.3, 0.3, size=(100, 3))
        src = tmp_path / "src.csv"
        np.savetxt(src, pts, delimiter=",", header="x,y,z")
        out = tmp_path / "T.json"
        assert main(["align", str(src), str(src), "--out", str(out)]) == 0
        from splatsynth.alignment import RigidTransform
        T = RigidTransform.load_json(out)
        assert np.allclose(T.to_matrix(), np.eye(4), atol=1e-9)

    def test_recovers_synthetic_offset(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.3, 0.3, size=(200, 3))
        shift = np.array([0.02, -0.01, 0.03])
        src = tmp_path / "src.csv"
        dst = tmp_path / "dst.csv"
        np.savetxt(src, pts, delimiter=",")
        np.savetxt(dst, pts + shift, delimiter=",")
        out = tmp_path / "T.json"
        assert main(["align", str(src), str(dst), "--out", str(out),
                     "--max-corr-dist", "0.5"]) == 0
        from splatsynth.alignment import RigidTransform
        T = RigidTransform.load_json(out)
        assert np.linalg.norm(T.translation - shift) < 1e-3

    def test_scene_json_source(self, tmp_path):
        rng = np.random.default_rng(2)
        blobs = [GaussianBlob(rng.uniform(-0.2, 0.2, 3), 1e-4 * np.eye(3), 1.0)
                 for _ in range(50)]
        scene_path = write_scene(tmp_path / "scene.json", blobs)
        out = tmp_path / "T.json"
        aligned = tmp_path / "aligned.json"
        assert main(["align", scene_path, scene_path, "--out", str(out),
                     "--aligned-scene", str(aligned)]) == 0
        assert aligned.exists()


class TestFit:
    def test_writes_one_model_per_segment(self, tmp_path, demo_csv, capsys):
        out = tmp_path / "models"
        assert main(["fit", demo_csv, "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["model_00.json", "model_01.json"]
        model = json.loads((out / "model_00.json").read_text())
        assert "weights" in json.dumps(model)


class TestSynth:
    def test_writes_dataset(self, tmp_path, demo_csv, capsys):
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, demo_csv, out_dir, n_demos=4)
        assert main(["synth", cfg]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["manifest.json", "rollout_0000.csv", "rollout_0001.csv",
                         "rollout_0002.csv", "rollout_0003.csv", "summary.csv"]
        out = capsys.readouterr().out
        assert "4/4 rollouts" in out
        man = json.loads((out_dir / "manifest.json").read_text())
        assert len(man["rollouts"]) == 4

    def test_rerun_byte_identical(self, tmp_path, demo_csv):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path, demo_csv, out_a)
        assert main(["synth", cfg_a]) == 0
        cfg_b = write_config(tmp_path, demo_csv, out_b)
        assert main(["synth", cfg_b]) == 0
        for name in ["rollout_0000.csv", "rollout_0001.csv", "summary.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestEval:
    def make_dataset(self, tmp_path, demo_csv):
        out_dir = tmp_path / "data"
        out_dir.mkdir()
        demo = Trajectory.load_csv(demo_csv)
        demo.save_csv(out_dir / "rollout_0000.csv")
        return out_dir, demo

    def test_expert_vs_itself(self, tmp_path, demo_csv, capsys):
        out_dir, demo = self.make_dataset(tmp_path, demo_csv)
        assert main(["eval", str(out_dir), demo_csv,
                     "--writing-plane", "0,0,0,0,0,1"]) == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()
        header = rows[0].split(",")
        vals = rows[1].split(",")
        rec = dict(zip(header, vals))
        assert float(rec["dtw_position"]) == 0.0
        assert float(rec["dtw_orientation"]) < 1e-7
        assert rec["collided"] == "0"
        assert float(rec["writing_error"]) == 0.0
        assert "collision_rate" in capsys.readouterr().out

    def test_collision_detected(self, tmp_path, demo_csv, capsys):
        out_dir, demo = self.make_dataset(tmp_path, demo_csv)
        # plant a blob directly on the path
        on_path = demo.positions[len(demo) // 2]
        scene_path = write_scene(tmp_path / "scene.json",
                                 [GaussianBlob(on_path, 1e-4 * np.eye(3), 1.0)])
        assert main(["eval", str(out_dir), demo_csv, "--scene", scene_path,
                     "--rho-th", "0.1"]) == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "1"
        assert "100.0%" in capsys.readouterr().out

    def test_unaligned_scene_requires_transform(self, tmp_path, demo_csv, capsys):
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        scene_path = write_scene(tmp_path / "scene.json",
                                 [GaussianBlob(np.zeros(3), 1e-4 * np.eye(3), 1.0)])
        code = main(["eval", str(out_dir), demo_csv, "--scene", scene_path,
                     "--scene-unaligned"])
        assert code == 2
        assert "transform" in capsys.readouterr().err

    def test_transform_applied(self, tmp_path, demo_csv):
        out_dir, demo = self.make_dataset(tmp_path, demo_csv)
        on_path = demo.positions[len(demo) // 2]
        shift = np.array([0.5, 0.0, 0.0])
        scene_path = write_scene(tmp_path / "scene.json",
                                 [GaussianBlob(on_path + shift, 1e-4 * np.eye(3), 1.0)])
        from splatsynth.alignment import RigidTransform
        T = RigidTransform(np.eye(3), -shift)
        t_path = tmp_path / "T.json"
        T.save_json(t_path)
        assert main(["eval", str(out_dir), demo_csv, "--scene", scene_path,
                     "--scene-unaligned", "--transform", str(t_path)]) == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "1"  # collides after alignment

    def test_empty_dataset_dir(self, tmp_path, demo_csv):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["eval", str(empty), demo_csv]) == 2

    def test_nan_quaternion_rollout(self, tmp_path, demo_csv, capsys):
        out_dir, demo = self.make_dataset(tmp_path, demo_csv)
        path = out_dir / "rollout_0000.csv"
        lines = path.read_text().splitlines()
        row = lines[5].split(",")
        row[5] = "nan"   # qx
        lines[5] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(out_dir), demo_csv]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == ["error: rollout_0000.csv: non-finite sample values"]
        assert "Traceback" not in err

    def test_bad_writing_plane(self, tmp_path, demo_csv, capsys):
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        assert main(["eval", str(out_dir), demo_csv,
                     "--writing-plane", "0,0,1"]) == 2


class TestCalibrateRho:
    def test_empty_scene_uses_floor(self, tmp_path, demo_csv, capsys):
        scene_path = write_scene(tmp_path / "scene.json", [])
        assert main(["calibrate-rho", scene_path, demo_csv]) == 0
        out = capsys.readouterr().out
        assert "suggested_rho_th=0.05" in out

    def test_grazing_blob_raises_suggestion(self, tmp_path, capsys):
        demo = line_demo([0, 0, 0], [0.4, 0, 0], n=100)
        demo_path = tmp_path / "demo.csv"
        demo.save_csv(demo_path)
        # blob near but off the path so on-path density is small yet nonzero
        scene_path = write_scene(tmp_path / "scene.json",
                                 [GaussianBlob(np.array([0.2, 0.05, 0.0]),
                                               1e-3 * np.eye(3), 1.0)])
        assert main(["calibrate-rho", scene_path, str(demo_path)]) == 0
        out = capsys.readouterr().out
        on_path_max = float(out.split("on_path_max=")[1].splitlines()[0])
        suggested = float(out.split("suggested_rho_th=")[1].splitlines()[0])
        assert suggested > on_path_max
        assert "bin_lo,bin_hi,on_path_count,probe_count" in out

    def test_deterministic(self, tmp_path, demo_csv, capsys):
        scene_path = write_scene(tmp_path / "scene.json",
                                 [GaussianBlob(np.array([0.05, 0.05, 0.0]),
                                               1e-3 * np.eye(3), 1.0)])
        assert main(["calibrate-rho", scene_path, demo_csv]) == 0
        first = capsys.readouterr().out
        assert main(["calibrate-rho", scene_path, demo_csv]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestDensity:
    def test_query(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path / "scene.json",
                                 [GaussianBlob(np.zeros(3), np.eye(3), 1.0)])
        assert main(["density", scene_path, "0", "0", "0"]) == 0
        out = capsys.readouterr().out
        assert "rho=1" in out
        assert "grad=(" in out
