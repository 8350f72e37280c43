import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splatsynth
from splatsynth.alignment import IcpParams, RigidTransform
from splatsynth.cli import UsageError, _config_keys, _job_from_config, _load_points, build_parser, main
from splatsynth.geometry import RANGES, Trajectory
from splatsynth.metrics import RasterSpec
from splatsynth.obstacles import ObstacleParams
from splatsynth.splats import GaussianBlob, GaussianScene, save_scene_json
from splatsynth.synthesis import PerturbationSpec, SynthesisJob, synthesize

from helpers import letter_a_demo, line_demo, run_within


@pytest.fixture
def demo_csv(tmp_path):
    path = tmp_path / "demo.csv"
    letter_a_demo().save_csv(path)
    return str(path)


def write_scene(path, blobs):
    save_scene_json(GaussianScene(blobs, opacity_floor=0.0), path)
    return str(path)


def one_error_line(capsys, start):
    """stderr holds exactly one line, the "error: ..." one, and no traceback or warning."""
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and err.startswith(f"error: {start}"), err


def forbid(monkeypatch, module, name):
    """Make module.name fail the test if it is called."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran before the input was refused")
    monkeypatch.setattr(module, name, refuse)


# file name: (scene file text, what the error line names after the file)
BAD_SCENES = {
    "number.json": ("5", "scene JSON must be an object"),
    "blobs_number.json": ('{"blobs": 5}', "scene JSON must be an object"),
    "blob_number.json": ('{"blobs": [5]}', "blob 0: expected an object"),
    "alpha_null.json": ('{"blobs": [{"mu": [0, 0, 0], "cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "alpha": null}]}',
                        "blob 0: 'alpha' must hold only numbers"),
    "alpha_list.json": ('{"blobs": [{"mu": [0, 0, 0], "cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
                        '"alpha": [1, 2]}]}',
                        "blob 0: 'alpha' must be a finite number"),
    "no_count.ply": ("ply\nformat ascii 1.0\nelement vertex\nproperty float x\nend_header\n",
                     "malformed PLY header line 3: 'element vertex'"),
    "no_name.ply": ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float\nend_header\n",
                    "malformed PLY header line 4: 'property float'"),
    "bare_format.ply": ("ply\nformat\nelement vertex 1\nproperty float x\nend_header\n",
                        "malformed PLY header line 2: 'format'"),
    # one all-zero vertex under headers that claim 10^12, and a body one record short
    **{f"{name}.ply": ("ply\n" f"format {fmt} 1.0\nelement vertex {count}\n"
                       + "".join(f"property float {p}\n" for p in ["x", "y", "z", "scale_0", "scale_1", "scale_2",
                                                                  "rot_0", "rot_1", "rot_2", "rot_3", "opacity"])
                       + "end_header\n" + body, message)
       for name, fmt, count, body, message in [
           ("oversized_binary", "binary_little_endian", 10 ** 12, "\0" * 44, "truncated PLY body"),
           ("oversized_ascii", "ascii", 10 ** 12, "0 0 0 0 0 0 1 0 0 0 0\n", "PLY body shape mismatch"),
           ("one_record_short", "binary_little_endian", 2, "\0" * 44, "truncated PLY body")]},
}

BAD_TRANSFORMS = {
    "missing_matrix": "{}",
    "2x2": '{"matrix": [[1, 0], [0, 1]]}',
    "strings": '{"matrix": [["1", "0", "0", "0"], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
}


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

    # (key, value): the config of write_config with that key set to the value;
    # key None replaces the whole config
    @pytest.mark.parametrize("key, value", [
        ("rollout.dt", "x"),
        ("output.n_demos", "2"),
        ("obstacle.lambda_max", "10"),
        ("obstacle", [1, 2]),
        ("rollout", None),
        ("perturbation.seed", 1.5),
        (None, [1, 2]),
        ("output.n_demos", 1.5),
        ("rollout.n_basis", 30.7),
        ("rollout.dt", True),
        ("perturbation.boundaries", "ab"),
        ("perturbation.sigma_p", [-0.005, 0.005, 0.005]),
        ("perturbation.sigma_p", [0.005, 0.005]),
        ("obstacle.rho_th", 0),
        ("rollout.dt", 0.5),
        ("perturbation.seed", -1),
        ("demo", 5),
        ("scene", False),
        ("output.dir", ["out"]),
        ("perturbation.boundaries", [True]),
        ("perturbation.sigma_r", -1),
        ("perturbation.sigma_p", [math.inf, 0, 0]),
    ])
    def test_bad_value_exits_2_naming_key(self, tmp_path, demo_csv, capsys, key, value):
        path = Path(write_config(tmp_path, demo_csv, tmp_path / "out"))
        cfg = json.loads(path.read_text())
        if key is None:
            cfg = value
        else:
            section, _, name = key.rpartition(".")
            (cfg.setdefault(section, {}) if section else cfg)[name] = value
        path.write_text(json.dumps(cfg))
        assert run_within(20, main, ["synth", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {key}: " if key else "error: config must be a JSON object")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, line", [
        ("horizon", 1e9, "rollout.horizon: must keep horizon * tau / dt within 100000 steps, got 5e+10 at tau = 1.0"),
        ("dt", 1e-9, "rollout.dt: must keep horizon * tau / dt within 100000 steps, got 1.25e+09 at tau = 1.0"),
    ])
    def test_step_budget_exits_2(self, tmp_path, demo_csv, capsys, key, value, line):
        cfg = write_config(tmp_path, demo_csv, tmp_path / "out", rollout={key: value})
        assert run_within(20, main, ["synth", cfg]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "out").exists()

    def test_dotted_top_level_key_is_unknown(self, tmp_path, demo_csv, capsys):
        cfg = write_config(tmp_path, demo_csv, tmp_path / "out", **{"rollout.dt": 0.01})
        assert main(["synth", cfg]) == 2
        assert "unknown config key: rollout.dt" in capsys.readouterr().err


# (key, field, type) of each numeric job-config key
NUMERIC_KEYS = [(key, f, hint) for key, f, hint in _config_keys() if hint in (float, int, np.ndarray)]

# per range rule: the number just outside it
JUST_OUTSIDE = {"positive": 0.0, "finite and positive": 0.0, "non-negative": -5e-324,
                "finite and non-negative": -5e-324, "non-negative, at most 1e100": -5e-324,
                "non-negative, at most 1e6": -5e-324,
                "at least 1": 0.0, "at least 2": 1.0}


class TestRanges:
    """Each numeric job-config key's field metadata names its range rule, and
    synth refuses a value just outside it, NaN and -inf, and inf where the rule
    or the type asks for a finite value, with one line naming the key."""

    def test_every_numeric_key_has_a_range(self):
        rules = {key: f.metadata.get("check") for key, f, _ in NUMERIC_KEYS}
        assert set(rules.values()) <= set(RANGES)
        assert rules == {
            "perturbation.sigma_p": "finite and non-negative",
            "perturbation.bound_p": "non-negative",
            "perturbation.sigma_r": "finite and non-negative",
            "perturbation.bound_r": "non-negative",
            "perturbation.seed": "non-negative",
            "obstacle.rho_th": "positive",
            "obstacle.lambda_max": "non-negative, at most 1e100",
            "obstacle.gamma": "non-negative, at most 1e6",
            "obstacle.epsilon": "finite and positive",
            "obstacle.lookahead": "finite and non-negative",
            "obstacle.return_gain": "non-negative, at most 1e100",
            "obstacle.return_cap": "non-negative, at most 1e100",
            "obstacle.gradient_step": "finite and positive",
            "output.n_demos": "at least 1",
            "rollout.dt": "positive",
            "rollout.n_basis": "at least 2",
            "rollout.ridge_lambda": "finite and non-negative",
            "rollout.alpha_z": "finite and positive",
            "rollout.alpha_s": "finite and positive",
            "rollout.horizon": "finite and positive",
        }

    @pytest.mark.parametrize("key, f, hint", NUMERIC_KEYS, ids=[key for key, _, _ in NUMERIC_KEYS])
    def test_out_of_range_exits_2_naming_key(self, tmp_path, demo_csv, capsys, key, f, hint):
        rule = f.metadata["check"]
        outside = math.floor(JUST_OUTSIDE[rule]) if hint is int else JUST_OUTSIDE[rule]
        values = [outside, math.nan, -math.inf] + [math.inf] * (not RANGES[rule](math.inf) or hint is int)
        path = Path(write_config(tmp_path, demo_csv, tmp_path / "out"))
        for i, value in enumerate(values):
            value = [value, 0.0, 0.0] if hint is np.ndarray else value
            cfg = json.loads(path.read_text())
            section, _, name = key.rpartition(".")
            cfg.setdefault(section, {})[name] = value
            path.write_text(json.dumps(cfg))
            assert main(["synth", str(path)]) == 2
            # the value just outside the range is refused by its rule; NaN or inf may be refused sooner
            one_error_line(capsys, f"{key}: must be {rule}, got {value}" if i == 0 else f"{key}: ")
            assert not (tmp_path / "out").exists()


class TestFlagRanges:
    """A flag or argument out of its range exits 2 with one line naming it,
    before any file is read (here none of the files exists); a flag that sets
    a job-config parameter takes that key's rule."""

    @pytest.mark.parametrize("argv, message", [
        (["fit", "{f}", "--n-basis", "1"], "--n-basis: must be at least 2, got 1"),
        (["fit", "{f}", "--n-basis", "0"], "--n-basis: must be at least 2, got 0"),
        (["fit", "{f}", "--n-basis", "-3"], "--n-basis: must be at least 2, got -3"),
        (["fit", "{f}", "--ridge-lambda", "nan"], "--ridge-lambda: must be finite and non-negative, got nan"),
        (["eval", "{f}", "{f}", "--rho-th", "nan"], "--rho-th: must be positive, got nan"),
        (["eval", "{f}", "{f}", "--rho-th", "-1"], "--rho-th: must be positive, got -1.0"),
        (["density", "{f}", "0", "0", "0", "--gradient-step", "0"],
         "--gradient-step: must be finite and positive, got 0.0"),
        (["density", "{f}", "0", "0", "0", "--gradient-step", "nan"],
         "--gradient-step: must be finite and positive, got nan"),
        (["density", "{f}", "0", "0", "0", "--gradient-step", "inf"],
         "--gradient-step: must be finite and positive, got inf"),
        (["density", "{f}", "nan", "0", "0"], "x: must be finite, got nan"),
        (["density", "{f}", "0", "0", "inf"], "z: must be finite, got inf"),
        (["calibrate-rho", "{f}", "{f}", "--n-probes", "-1"], "--n-probes: must be non-negative, got -1"),
        (["calibrate-rho", "{f}", "{f}", "--bins", "0"], "--bins: must be at least 1, got 0"),
        (["calibrate-rho", "{f}", "{f}", "--probe-seed", "-1"], "--probe-seed: must be non-negative, got -1"),
        (["calibrate-rho", "{f}", "{f}", "--floor", "nan"], "--floor: must be positive, got nan"),
        (["calibrate-rho", "{f}", "{f}", "--floor", "-1"], "--floor: must be positive, got -1.0"),
        (["align", "{f}", "{f}", "--max-iters", "0"], "--max-iters: must be at least 1, got 0"),
        (["align", "{f}", "{f}", "--tol", "nan"], "--tol: must be non-negative, got nan"),
        (["align", "{f}", "{f}", "--tol", "-1"], "--tol: must be non-negative, got -1.0"),
        (["align", "{f}", "{f}", "--max-corr-dist", "0"], "--max-corr-dist: must be positive, got 0.0"),
        (["eval", "{f}", "{f}", "--raster-resolution", "0"], "--raster-resolution: must be at least 1, got 0"),
        (["eval", "{f}", "{f}", "--stroke-px", "-3"], "--stroke-px: must be at least 1, got -3"),
    ])
    def test_out_of_range_exits_2(self, tmp_path, capsys, argv, message):
        assert main([a.format(f=tmp_path / "missing") for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["density", "s.json", "abc", "0", "0"], "splatsynth density: argument x: invalid float value: 'abc'"),
        (["density", "s.json", "0"], "splatsynth density: the following arguments are required: y, z"),
        (["fit", "demo.csv", "--n-basis", "many"], "splatsynth fit: argument --n-basis: invalid int value: 'many'"),
        (["eval", "d", "e.csv", "--rho-th"], "splatsynth eval: argument --rho-th: expected one argument"),
        (["fit", "demo.csv", "--bogus"], "splatsynth: unrecognized arguments: --bogus"),
        (["paint"], "splatsynth: argument command: invalid choice: 'paint'"),
        ([], "splatsynth: the following arguments are required: command"),
    ])
    def test_parse_error_is_one_line(self, capsys, argv, message):
        # argparse's own refusals: one line naming the command, no usage line
        assert main(argv) == 2
        one_error_line(capsys, message)

    @pytest.mark.parametrize("level, code, err", [
        ("LOUD", 2, "error: SPLATSYNTH_LOG: unknown level 'LOUD', expected DEBUG, INFO, WARNING, ERROR or CRITICAL\n"),
        ("debug", 0, ""),
    ])
    def test_log_level(self, tmp_path, level, code, err):
        """SPLATSYNTH_LOG takes a level name in any case; another word exits 2 with one line.  At DEBUG,
        stderr is err and then the scene load's line."""
        scene = write_scene(tmp_path / "scene.json", [GaussianBlob(np.zeros(3), np.eye(3), 1.0)])
        env = dict(os.environ, SPLATSYNTH_LOG=level,
                   PYTHONPATH=str(Path(splatsynth.__file__).resolve().parent.parent))
        run = subprocess.run([sys.executable, "-m", "splatsynth.cli", "density", scene, "0", "0", "0"],
                             capture_output=True, text=True, env=env, timeout=60)
        loaded = (f"DEBUG:splatsynth.splats:scene {scene}: 1 records, 1 splats kept, 0 rejected as invalid, "
                  "0 below the opacity floor 0.05\n")
        assert (run.returncode, run.stderr) == (code, err + (loaded if level == "debug" else ""))


# (command and its positionals, flag, the schema field it sets)
SCHEMA_FLAGS = [
    (["align", "s", "p"], "--max-iters", IcpParams, "max_iters"),
    (["align", "s", "p"], "--tol", IcpParams, "tol"),
    (["align", "s", "p"], "--max-corr-dist", IcpParams, "max_corr_dist"),
    (["fit", "d"], "--n-basis", SynthesisJob, "n_basis"),
    (["fit", "d"], "--ridge-lambda", SynthesisJob, "ridge_lambda"),
    (["eval", "d", "e"], "--rho-th", ObstacleParams, "rho_th"),
    (["eval", "d", "e"], "--raster-resolution", RasterSpec, "resolution"),
    (["eval", "d", "e"], "--stroke-px", RasterSpec, "stroke_px"),
    (["density", "s", "0", "0", "0"], "--gradient-step", ObstacleParams, "gradient_step"),
]


class TestSchemaFlags:
    """A flag that sets a parameter takes its schema field's type, default,
    help line and range."""

    @pytest.mark.parametrize("argv, flag, cls, name", SCHEMA_FLAGS, ids=[flag for _, flag, _, _ in SCHEMA_FLAGS])
    def test_flag_mirrors_its_field(self, capsys, argv, flag, cls, name):
        f = cls.__dataclass_fields__[name]
        args = build_parser().parse_args(argv)
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        assert value == f.default and type(value) is type(f.default)
        assert args.ranges[flag] == f.metadata["check"]
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert f"{f.metadata['help']} (default: {f.default})" in " ".join(capsys.readouterr().out.split())


class TestCouplingGainBounds:
    """obstacle.lambda_max, return_gain and return_cap stop at 1e100, far
    below where the coupling hook's squared speeds overflow: a value past it
    exits 2 with one line naming the key, and the Criterion-05 job runs at
    the bound with no numpy warning (a RuntimeWarning fails the test)."""

    C05 = {"rho_th": 0.005, "lambda_max": 100.0, "gamma": 2.0, "lookahead": 0.015, "return_gain": 4.0}

    @pytest.mark.parametrize("value", [1e200, float(np.nextafter(1e100, math.inf))])
    @pytest.mark.parametrize("key", ["lambda_max", "return_gain", "return_cap"])
    def test_past_the_bound_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        demo = tmp_path / "demo.csv"
        line_demo([0, 0, 0], [0.4, 0, 0], n=151).save_csv(demo)
        scene = write_scene(tmp_path / "scene.json", [GaussianBlob(np.array([0.2, 0.004, 0.0]),
                                                                   0.02 ** 2 * np.eye(3), 1.0)])
        cfg = write_config(tmp_path, str(demo), tmp_path / "out", scene=scene, obstacle={**self.C05, key: value})
        assert main(["synth", cfg]) == 2
        assert capsys.readouterr().err == f"error: obstacle.{key}: must be non-negative, at most 1e100, got {value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys", [["lambda_max"], ["return_gain"], ["return_cap"],
                                      ["lambda_max", "return_gain", "return_cap"]])
    def test_the_c05_job_runs_at_the_bound(self, keys):
        scene = GaussianScene([GaussianBlob(np.array([0.2, 0.004, 0.0]), 0.02 ** 2 * np.eye(3), 1.0)])
        params = ObstacleParams(**{**self.C05, **dict.fromkeys(keys, 1e100)})
        job = SynthesisJob(demo=line_demo([0, 0, 0], [0.4, 0, 0], n=151), scene=scene, n_demos=8, dt=0.01,
                           spec=PerturbationSpec(sigma_p=[0.01] * 3, bound_p=[0.02] * 3, seed=3), obstacle=params)
        assert len(synthesize(job)[1]["rollouts"]) == 8


class TestTangentialBiasBound:
    """obstacle.gamma stops at 1e6: the repulsion is lambda_max times up to
    1 + gamma, so both gains at their bounds stay far below where the
    coupling hook overflows, and a gamma past it exits 2 with one line naming
    the key (a RuntimeWarning fails the test)."""

    C05 = TestCouplingGainBounds.C05

    @pytest.mark.parametrize("value", [1e200, float(np.nextafter(1e6, math.inf))])
    def test_past_the_bound_exits_2_naming_the_key(self, tmp_path, capsys, value):
        demo = tmp_path / "demo.csv"
        line_demo([0, 0, 0], [0.4, 0, 0], n=151).save_csv(demo)
        scene = write_scene(tmp_path / "scene.json", [GaussianBlob(np.array([0.2, 0.004, 0.0]),
                                                                   0.02 ** 2 * np.eye(3), 1.0)])
        cfg = write_config(tmp_path, str(demo), tmp_path / "out", scene=scene, obstacle={**self.C05, "gamma": value})
        assert main(["synth", cfg]) == 2
        assert capsys.readouterr().err == f"error: obstacle.gamma: must be non-negative, at most 1e6, got {value}\n"
        assert not (tmp_path / "out").exists()

    def test_the_c05_job_runs_with_both_gains_at_their_bounds(self):
        bounds = {}
        for key in ("lambda_max", "gamma"):
            rule = ObstacleParams.__dataclass_fields__[key].metadata["check"]
            assert rule.startswith("non-negative, at most ")
            bounds[key] = float(rule.rsplit(" ", 1)[1])
        scene = GaussianScene([GaussianBlob(np.array([0.2, 0.004, 0.0]), 0.02 ** 2 * np.eye(3), 1.0)])
        job = SynthesisJob(demo=line_demo([0, 0, 0], [0.4, 0, 0], n=151), scene=scene, n_demos=8, dt=0.01,
                           spec=PerturbationSpec(sigma_p=[0.01] * 3, bound_p=[0.02] * 3, seed=3),
                           obstacle=ObstacleParams(**{**self.C05, **bounds}))
        assert len(synthesize(job)[1]["rollouts"]) == 8


class TestReadmeRanges:
    def test_range_table_matches_the_schema(self):
        """The README's "Range | Keys" table lists each numeric job-config key
        under the rule its field's metadata names."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| Range | Keys |\n| --- | --- |\n")[1].split("\n\n")[0]
        documented = {}
        for row in table.splitlines():
            rule, keys = row.strip("|").split("|")
            documented.update((key, rule.strip()) for key in re.findall(r"`([^`]+)`", keys))
        assert documented == {key: f.metadata["check"] for key, f, _ in _config_keys() if f.metadata.get("check")}


class TestHelp:
    def test_synth_help_documents_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        documented = {}
        for line in out.split("job config keys (JSON):\n")[1].splitlines():
            documented[line.split()[0]] = line.rsplit("(", 1)[1].rstrip(")")
        assert documented == {
            "demo": "required",
            "scene": "default: null",
            "perturbation.sigma_p": "default: [0.0, 0.0, 0.0]",
            "perturbation.bound_p": "default: [0.0, 0.0, 0.0]",
            "perturbation.sigma_r": "default: 0.0",
            "perturbation.bound_r": "default: 0.0",
            "perturbation.boundaries": "default: []",
            "perturbation.seed": "default: 0",
            "obstacle.rho_th": "default: 0.1",
            "obstacle.lambda_max": "default: 10.0",
            "obstacle.gamma": "default: 1.0",
            "obstacle.epsilon": "default: 1e-08",
            "obstacle.lookahead": "default: 0.02",
            "obstacle.return_gain": "default: 0.0",
            "obstacle.return_cap": "default: 5.0",
            "obstacle.gradient_step": "default: 0.001",
            "rollout.dt": "default: 0.02",
            "rollout.n_basis": "default: 30",
            "rollout.ridge_lambda": "default: 1e-06",
            "rollout.alpha_z": "default: 25.0",
            "rollout.alpha_s": "default: 4.0",
            "rollout.horizon": "default: 1.25",
            "output.dir": "required",
            "output.n_demos": "default: 1",
        }


class TestConfigSchema:
    def test_every_key_sets_its_field(self, tmp_path, demo_csv):
        scene_path = write_scene(tmp_path / "scene.json",
                                 [GaussianBlob(np.zeros(3), 1e-4 * np.eye(3), 1.0)])
        job = _job_from_config({
            "demo": demo_csv,
            "scene": scene_path,
            "perturbation": {"sigma_p": [0.001, 0.002, 0.003], "bound_p": [0.01, 0.02, 0.03],
                             "sigma_r": 0.05, "bound_r": 0.1,
                             "boundaries": [False, True, False], "seed": 42},
            "obstacle": {"rho_th": 0.2, "lambda_max": 3.0, "gamma": 0.5, "epsilon": 1e-9,
                         "lookahead": 0.03, "return_gain": 2.0, "return_cap": 4.0,
                         "gradient_step": 2e-3},
            "rollout": {"dt": 0.005, "n_basis": 20, "ridge_lambda": 1e-5, "alpha_z": 30.0,
                        "alpha_s": 3.0, "horizon": 1.5},
            "output": {"dir": "dataset", "n_demos": 7},
        })
        assert np.array_equal(job.demo.positions, Trajectory.load_csv(demo_csv).positions)
        assert len(job.scene) == 1
        assert job.spec.sigma_p.tolist() == [0.001, 0.002, 0.003]
        assert job.spec.bound_p.tolist() == [0.01, 0.02, 0.03]
        assert (job.spec.sigma_r, job.spec.bound_r, job.spec.seed) == (0.05, 0.1, 42)
        assert job.spec.perturbable == (False, True, False)
        assert job.obstacle == ObstacleParams(rho_th=0.2, lambda_max=3.0, gamma=0.5, epsilon=1e-9,
                                              lookahead=0.03, return_gain=2.0, return_cap=4.0,
                                              gradient_step=2e-3)
        assert (job.dt, job.n_basis, job.ridge_lambda, job.alpha_z, job.alpha_s) == (
            0.005, 20, 1e-5, 30.0, 3.0)
        assert job.horizon_factor == 1.5
        assert (job.output_dir, job.n_demos) == ("dataset", 7)

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path, demo_csv):
        job = _job_from_config({"demo": demo_csv, "output": {"dir": "dataset"}})
        default = SynthesisJob(demo=job.demo, output_dir="dataset")
        assert job.scene is None and default.scene is None
        assert job.obstacle == default.obstacle
        assert job.spec.sigma_p.tolist() == default.spec.sigma_p.tolist() == [0.0] * 3
        assert ((job.n_demos, job.dt, job.n_basis, job.ridge_lambda, job.alpha_z, job.alpha_s,
                 job.horizon_factor) == (default.n_demos, default.dt, default.n_basis,
                                         default.ridge_lambda, default.alpha_z, default.alpha_s,
                                         default.horizon_factor))

    def test_integer_for_float_key_is_a_float(self, tmp_path, demo_csv):
        job = _job_from_config({"demo": demo_csv, "output": {"dir": "dataset"},
                                "obstacle": {"lambda_max": 100}, "rollout": {"n_basis": 20.0}})
        assert type(job.obstacle.lambda_max) is float and job.obstacle.lambda_max == 100.0
        assert type(job.n_basis) is int and job.n_basis == 20


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def fuzz_demo(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "demo.csv"
    letter_a_demo().save_csv(path)
    return str(path)


@st.composite
def fuzz_configs(draw, demo_path):
    """A config with a valid value or nothing at each schema key, the real
    demo at "demo" and a string at "output.dir"; then any JSON value at a
    few keys or sections, and unknown keys."""
    number = st.floats(min_value=1e-3, max_value=1e-2)
    typed = {float: number, int: st.integers(1, 50), str: st.text(max_size=6),
             tuple: st.lists(st.booleans(), max_size=4),
             np.ndarray: st.lists(number, min_size=3, max_size=3),
             Trajectory: st.just(demo_path)}
    keys = [(key, typed.get(hint, st.none())) for key, _, hint in _config_keys()]
    values = {key: draw(value) for key, value in keys if key in ("demo", "output.dir") or draw(st.booleans())}
    for key in draw(st.lists(st.sampled_from([key for key, _ in keys]), max_size=2)):
        values[key] = draw(JSON_VALUES)
    cfg = {}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = value
    for name in draw(st.lists(st.sampled_from(["", "perturbation", "rollout", "obstacle", "output"]),
                              max_size=1)):
        if not name:
            cfg.update(draw(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=2)))
        elif draw(st.booleans()):
            cfg[name] = draw(JSON_VALUES)   # a section that is not an object
        else:
            cfg.setdefault(name, {})[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    return cfg


class TestConfigFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_config_builds_a_job_or_raises_usage_error(self, fuzz_demo, data):
        cfg = data.draw(fuzz_configs(fuzz_demo))
        try:
            job = _job_from_config(cfg)
        except UsageError:
            return
        assert isinstance(job, SynthesisJob)


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

    def test_aligned_scene_refuses_points_csv(self, tmp_path, capsys):
        # a point CSV has no scene to transform: refused before ICP, nothing written
        pts = tmp_path / "pts.csv"
        np.savetxt(pts, np.random.default_rng(0).uniform(size=(20, 3)), delimiter=",")
        out, aligned = tmp_path / "T.json", tmp_path / "aligned.json"
        assert main(["align", str(pts), str(pts), "--out", str(out),
                     "--aligned-scene", str(aligned)]) == 2
        one_error_line(capsys, f"--aligned-scene needs a .json or .ply scene to transform, got {pts}")
        assert not out.exists() and not aligned.exists()

    def test_aligned_scene_moved_too_far(self, tmp_path, capsys):
        # the proxy sits 2e150 m away, so the fitted transform moves the scene
        # past the reach the loader refuses; the error names the transform file
        pts = np.random.default_rng(3).uniform(-1e140, 1e140, size=(30, 3))
        scene_path = write_scene(tmp_path / "scene.json", [GaussianBlob(p, 1e-4 * np.eye(3), 1.0) for p in pts])
        proxy, init = tmp_path / "proxy.csv", tmp_path / "init.json"
        np.savetxt(proxy, pts + [2e150, 0.0, 0.0], delimiter=",")
        RigidTransform(np.eye(3), [2e150, 0.0, 0.0]).save_json(init)
        out, aligned = tmp_path / "T.json", tmp_path / "aligned.json"
        assert main(["align", scene_path, str(proxy), "--init", str(init), "--max-corr-dist", "1e200",
                     "--out", str(out), "--aligned-scene", str(aligned)]) == 1
        one_error_line(capsys, f"{out}: moved splat 0: bounding sphere reaches past 1e+150 m from the origin")
        assert not aligned.exists()

    @pytest.mark.parametrize("name", BAD_TRANSFORMS)
    def test_malformed_init_is_one_error_line(self, tmp_path, capsys, name):
        pts = tmp_path / "pts.csv"
        np.savetxt(pts, np.random.default_rng(0).uniform(size=(20, 3)), delimiter=",")
        init = tmp_path / "init.json"
        init.write_text(BAD_TRANSFORMS[name])
        assert main(["align", str(pts), str(pts), "--init", str(init),
                     "--out", str(tmp_path / "T.json")]) == 1
        one_error_line(capsys, f"{init}: transform must be")

    @pytest.mark.parametrize("row, line", [
        ("foo,1,0", 5), ("1,1,x", 5), ("0.1,0.2", 5), ("nan,0,0", 5), ("", None), ("0.1,0.2,0.3,extra", None)])
    def test_points_csv_rows(self, tmp_path, capsys, row, line):
        """Line 1 may be a header and blank rows are skipped; any other row
        must start with 3 finite numbers, or align exits 1 naming its line."""
        pts = np.random.default_rng(3).uniform(size=(8, 3))
        rows = ["x,y,z"] + [",".join(map(repr, p)) for p in pts.tolist()]
        src = tmp_path / "src.csv"
        src.write_text("\n".join(rows[:4] + [row] + rows[4:]) + "\n")
        dst = tmp_path / "dst.csv"
        dst.write_text("\n".join(rows) + "\n")
        code = main(["align", str(src), str(dst), "--out", str(tmp_path / "T.json")])
        if line is None:
            assert code == 0
        else:
            assert code == 1
            one_error_line(capsys, f"{src}: line {line}: expected 3 finite numbers x,y,z, got {row!r}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would be a second stderr line
    @pytest.mark.parametrize("far", [("source",), ("target",), ("source", "target")])
    def test_points_csv_past_the_reach(self, tmp_path, capsys, far):
        """A point set of coordinates near 1e200 is refused at its first line,
        before ICP squares them."""
        paths = {}
        for side in ("source", "target"):
            paths[side] = tmp_path / f"{side}.csv"
            scale = 1e200 if side in far else 1.0
            np.savetxt(paths[side], np.random.default_rng(4).uniform(size=(50, 3)) * scale, delimiter=",")
        assert main(["align", str(paths["source"]), str(paths["target"]), "--out", str(tmp_path / "T.json")]) == 1
        bad = paths[far[0]]
        row = bad.read_text().splitlines()[0]
        one_error_line(capsys, f"{bad}: line 1: expected x,y,z within 1e+151 m of the origin, got {row!r}")

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-iters", "0", "--max-iters: must be at least 1, got 0"),
        ("--max-iters", "-3", "--max-iters: must be at least 1, got -3"),
        ("--tol", "nan", "--tol: must be non-negative, got nan"),
        ("--tol", "-1", "--tol: must be non-negative, got -1.0"),
        ("--max-corr-dist", "nan", "--max-corr-dist: must be positive, got nan"),
        ("--max-corr-dist", "-1", "--max-corr-dist: must be positive, got -1.0"),
        ("--max-corr-dist", "0", "--max-corr-dist: must be positive, got 0.0"),
    ])
    def test_bad_icp_flag_is_a_usage_error(self, tmp_path, capsys, flag, value, message):
        pts = tmp_path / "pts.csv"
        np.savetxt(pts, np.random.default_rng(0).uniform(size=(20, 3)), delimiter=",")
        out = tmp_path / "T.json"
        assert main(["align", str(pts), str(pts), flag, value, "--out", str(out)]) == 2
        one_error_line(capsys, message)
        assert not out.exists()

    def test_debug_log_shows_each_iteration(self, tmp_path):
        """SPLATSYNTH_LOG=DEBUG adds one stderr line per ICP iteration; stdout
        keeps its one summary line."""
        pts = np.random.default_rng(1).uniform(-0.3, 0.3, size=(200, 3))
        src, dst = tmp_path / "src.csv", tmp_path / "dst.csv"
        np.savetxt(src, pts, delimiter=",")
        np.savetxt(dst, pts + [0.02, -0.01, 0.03], delimiter=",")
        env = dict(os.environ, SPLATSYNTH_LOG="DEBUG",
                   PYTHONPATH=str(Path(splatsynth.__file__).resolve().parent.parent))
        run = subprocess.run([sys.executable, "-m", "splatsynth.cli", "align", str(src), str(dst),
                              "--out", str(tmp_path / "T.json"), "--max-corr-dist", "0.5"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        summary = run.stdout.splitlines()
        assert len(summary) == 1 and re.fullmatch(r"rms=\S+ inliers=200 iters=(\d+)", summary[0])
        iters = int(summary[0].rsplit("=", 1)[1])
        lines = [line for line in run.stderr.splitlines() if "icp iteration" in line]
        assert [line.split("icp iteration ")[1].split(":")[0] for line in lines] == \
            [f"{k}/100" for k in range(1, iters + 1)]
        assert "200 of 200 inliers" in lines[-1] and "(tol 1e-08)" in lines[-1]

    def test_points_csv_header_only_on_line_1(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        src.write_text("x,y,z\nx,y,z\n" + "0,0,0\n1,0,0\n0,1,0\n0,0,1\n")
        assert main(["align", str(src), str(src), "--out", str(tmp_path / "T.json")]) == 1
        one_error_line(capsys, f"{src}: line 2: ")


FUZZ_POINTS = np.random.default_rng(5).uniform(-0.2, 0.2, (12, 3)).tolist()
FUZZ_CELLS = st.one_of(st.sampled_from(["", "abc", "nan", "-inf", "1e400", "1e300", " 2 ", "1_0", "0x10", '"3"']),
                       st.text(max_size=4), st.floats().map(repr))


@st.composite
def mutated_points_csv(draw):
    """A 12-point XYZ CSV with a header, with one to three rows changed: a
    cell dropped, added or replaced, the row removed, or a blank or header
    row inserted."""
    lines = ["x,y,z"] + [",".join(map(repr, p)) for p in FUZZ_POINTS]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        kind = draw(st.sampled_from(["drop", "extra", "cell", "cell", "row", "blank", "header"]))
        if kind == "drop":
            del cells[draw(st.integers(0, len(cells) - 1))]
        elif kind == "extra":
            cells.insert(draw(st.integers(0, len(cells))), draw(FUZZ_CELLS))
        elif kind == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(FUZZ_CELLS)
        lines[i] = ",".join(cells)
        if kind == "row":
            del lines[i]
        elif kind in ("blank", "header"):
            lines.insert(i, "" if kind == "blank" else "x,y,z")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def points_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("points_fuzz")
    (path / "target.csv").write_text("".join(",".join(map(repr, p)) + "\n" for p in FUZZ_POINTS))
    return path


class TestPointsFuzz:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would be a second stderr line
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(text=mutated_points_csv())
    def test_points_csv(self, points_dir, text):
        """_load_points returns finite (n, 3) points or raises a ValueError
        naming the file, and align on the file exits 0, or 1 with one error line."""
        path = points_dir / "src.csv"
        path.write_text(text)
        try:
            points = _load_points(str(path))
            assert points.shape[1:] == (3,) and np.all(np.isfinite(points))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["align", str(path), str(points_dir / "target.csv"), "--out", str(points_dir / "T.json")])
        assert code == 0 and err.getvalue() == "" or code == 1 and len(err.getvalue().splitlines()) == 1
        assert code == 0 or err.getvalue().startswith("error: ")


@st.composite
def mutated_transform(draw):
    """A valid {"matrix": <4x4>} document with up to three changes: a cell
    replaced, mostly by a number, a row dropped or inserted, the matrix or the
    top level replaced; then, one time in five, its text cut short."""
    c, s = math.cos(0.3), math.sin(0.3)
    doc = {"matrix": [[c, -s, 0.0, 0.01], [s, c, 0.0, -0.02], [0.0, 0.0, 1.0, 0.03], [0.0, 0.0, 0.0, 1.0]]}
    for _ in range(draw(st.integers(0, 3))):
        rows = doc.get("matrix") if isinstance(doc, dict) else None
        kind = draw(st.sampled_from(["cell", "cell", "cell", "drop", "insert", "matrix", "top"]))
        if kind in ("cell", "drop", "insert") and isinstance(rows, list) and rows:
            i = draw(st.integers(0, len(rows) - 1))
            if kind == "drop":
                del rows[i]
            elif kind == "insert":
                rows.insert(i, draw(JSON_VALUES))
            elif isinstance(rows[i], list) and rows[i]:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.one_of(
                    st.floats(-2.0, 2.0), st.floats(), st.integers(), JSON_VALUES))
            else:
                rows[i] = draw(JSON_VALUES)
        elif kind == "matrix" and isinstance(doc, dict):
            doc["matrix"] = draw(JSON_VALUES)
        elif kind == "top":
            doc = draw(JSON_VALUES)
    text = json.dumps(doc)
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@pytest.fixture(scope="module")
def transform_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("transform_fuzz")
    (path / "data").mkdir()
    letter_a_demo().save_csv(path / "expert.csv")
    letter_a_demo().save_csv(path / "data" / "rollout_0000.csv")
    write_scene(path / "scene.json", [GaussianBlob(np.zeros(3), 1e-4 * np.eye(3), 1.0)])
    return path


class TestTransformFuzz:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would be a second stderr line
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(text=mutated_transform())
    def test_transform_json(self, transform_dir, text):
        """eval --transform on the file exits 0, or 1 with one error line naming the file."""
        path = transform_dir / "T.json"
        path.write_text(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["eval", str(transform_dir / "data"), str(transform_dir / "expert.csv"),
                         "--scene", str(transform_dir / "scene.json"), "--transform", str(path)])
        lines = err.getvalue().splitlines()
        assert code == 0 and lines == [] or code == 1 and len(lines) == 1 and lines[0].startswith(f"error: {path}: ")


class TestFit:
    def test_writes_one_model_per_segment(self, tmp_path, demo_csv, capsys):
        out = tmp_path / "models"
        assert main(["fit", demo_csv, "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["model_00.json", "model_01.json"]
        model = json.loads((out / "model_00.json").read_text())
        assert "weights" in json.dumps(model)

    # (file name, change): the letter-A demo's file with row 3 of its CSV
    # changed, or its JSON document changed
    @pytest.mark.parametrize("name, change", [
        ("short.csv", lambda row: row[:-1]),
        ("extra.csv", lambda row: row + ["0"]),
        ("word.csv", lambda row: row[:2] + ["abc"] + row[3:]),
        ("split2.csv", lambda row: row[:-1] + ["2"]),
        ("split05.csv", lambda row: row[:-1] + ["0.5"]),
        ("list1.json", lambda doc: {"samples": [1]}),
        ("int.json", lambda doc: {"samples": 5}),
        ("nox.json", lambda doc: {"samples": [{k: v for k, v in doc["samples"][0].items() if k != "x"}]}),
        ("string.json", lambda doc: "samples"),
        ("bool.json", lambda doc: {"samples": [dict(s, x=True) for s in doc["samples"]]}),
    ])
    def test_malformed_demo_is_one_error_line(self, tmp_path, name, change, capsys):
        demo = letter_a_demo()
        path = tmp_path / name
        if name.endswith(".csv"):
            lines = demo.to_csv().splitlines()
            lines[3] = ",".join(change(lines[3].split(",")))
            path.write_text("\n".join(lines) + "\n")
        else:
            path.write_text(json.dumps(change(json.loads(demo.to_json()))))
        assert main(["fit", str(path), "--out", str(tmp_path / "models")]) == 1
        one_error_line(capsys, f"{path}: ")
        assert main(["synth", write_config(tmp_path, str(path), tmp_path / "out")]) == 2
        one_error_line(capsys, f"demo: {path}: ")

    # (column, value, the error after the file): the letter-A demo's file with that column set to the value
    # in every row; each was one error line only after numpy's overflow warnings, or not refused at all
    HUGE_COLUMNS = [
        (1, "1e308", "row 0: x,y,z must lie within 1e+100 m of the origin, got [1e+308, 0.0, 0.0]"),
        (3, "-1.5e100", "row 0: x,y,z must lie within 1e+100 m of the origin, got [0.0, 0.0, -1.5e+100]"),
        (4, "1e200", "orientations must be unit quaternions"),
    ]

    @staticmethod
    def demo_with_column(path, column, value):
        lines = letter_a_demo().to_csv().splitlines()
        lines[1:] = [",".join(row[:column] + [value] + row[column + 1:]) for row in (s.split(",") for s in lines[1:])]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")   # a numpy warning would be a second stderr line
    @pytest.mark.parametrize("column, value, message", HUGE_COLUMNS)
    def test_huge_demo_value_is_one_error_line(self, tmp_path, capsys, column, value, message):
        good, bad = str(tmp_path / "good.csv"), self.demo_with_column(tmp_path / "bad.csv", column, value)
        letter_a_demo().save_csv(good)
        assert main(["fit", bad, "--out", str(tmp_path / "models")]) == 1
        one_error_line(capsys, f"{bad}: {message}")
        assert main(["synth", write_config(tmp_path, bad, tmp_path / "bad_out")]) == 2
        one_error_line(capsys, f"demo: {bad}: {message}")
        assert main(["synth", write_config(tmp_path, good, tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "out"), bad]) == 1
        one_error_line(capsys, f"{bad}: {message}")
        os.replace(bad, tmp_path / "out" / "rollout_0001.csv")
        assert main(["eval", str(tmp_path / "out"), good]) == 1
        one_error_line(capsys, f"{tmp_path / 'out' / 'rollout_0001.csv'}: {message}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column, value, n_failed", [
        pytest.param(1, "1e100", 0, id="1-1e100"), pytest.param(2, "-1e100", 0, id="2--1e100"),
        pytest.param(None, 1e101, 6, id="None-1e+101"), pytest.param(None, 0.99e101, 4, id="None-9.9e+100")])
    def test_demo_on_the_coordinate_bound_runs_without_warnings(self, tmp_path, capsys, column, value, n_failed):
        # a column on the bound, or the whole letter (0.1 m across) scaled to reach it or to stop 1% short, its
        # goals perturbed by 1% of its size: the letter's rollouts overshoot its right foot by about 0.75%, so
        # synth fails those that leave the bound, and eval reads every file that synth writes
        demo, out = str(tmp_path / "far.csv"), tmp_path / "out"
        if column is None:
            letter = letter_a_demo()
            letter.positions *= value
            letter.save_csv(demo)
            perturbation = {"sigma_p": [value * 1e-3] * 3, "bound_p": [value * 2e-3] * 3, "seed": 1}
            config = write_config(tmp_path, demo, out, n_demos=6, perturbation=perturbation)
        else:
            self.demo_with_column(tmp_path / "far.csv", column, value)
            config = write_config(tmp_path, demo, out, n_demos=6)
        assert main(["fit", demo, "--out", str(tmp_path / "models")]) == 0
        assert main(["synth", config]) == (1 if n_failed else 0)
        errors = [r["error"] for r in json.loads((out / "manifest.json").read_text())["rollouts"]
                  if r["status"] == "failed"]
        assert len(errors) == n_failed
        assert all(re.fullmatch(r"position past 1e\+100 m from the origin at step \d+", e) for e in errors)
        if n_failed < 6:
            assert main(["eval", str(out), demo]) == 0
            assert capsys.readouterr().err == ""
        else:
            assert main(["eval", str(out), demo]) == 2
            assert capsys.readouterr().err == f"error: no rollout CSVs found in {out}\n"

    @pytest.mark.parametrize("name, text, message", [
        ("truncated.json", '{"samples": [', "Expecting value: line 1 column 14 (char 13)"),
        ("one.csv", "t,x,y,z,qw,qx,qy,qz,gripper,split\n0,0,0,0,1,0,0,0,0,1\n",
         "trajectory needs at least 2 samples"),
    ])
    def test_load_error_names_the_file(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert main(["fit", str(path), "--out", str(tmp_path / "models")]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "models").exists()

    def test_n_basis_above_the_shortest_segment_is_a_usage_error(self, tmp_path, capsys):
        # the flag and the job-config key share the bound, its wording and exit 2
        demo = tmp_path / "line.csv"
        line_demo([0, 0, 0], [0.4, 0, 0]).save_csv(demo)
        detail = "must be <= 101, the sample count of the shortest demo segment, got 102"
        assert main(["fit", str(demo), "--n-basis", "102", "--out", str(tmp_path / "models")]) == 2
        assert capsys.readouterr().err == f"error: --n-basis: {detail}\n"
        assert not (tmp_path / "models").exists()
        assert main(["synth", write_config(tmp_path, str(demo), tmp_path / "out", rollout={"n_basis": 102})]) == 2
        assert capsys.readouterr().err == f"error: rollout.n_basis: {detail}\n"
        assert main(["fit", str(demo), "--n-basis", "101", "--out", str(tmp_path / "models")]) == 0

    def test_demo_segment_too_short_to_fit_is_a_usage_error(self, tmp_path, capsys):
        # fit_dmp needs 10 samples whatever n_basis: the flag and the job name the demo, exit 2
        demo = tmp_path / "short.csv"
        line_demo([0, 0, 0], [0.4, 0, 0], n=8).save_csv(demo)
        error = "error: demo: every segment must hold at least 10 samples, the shortest holds 8\n"
        assert main(["fit", str(demo), "--n-basis", "2", "--out", str(tmp_path / "models")]) == 2
        assert capsys.readouterr().err == error
        assert not (tmp_path / "models").exists()
        assert main(["synth", write_config(tmp_path, str(demo), tmp_path / "out", rollout={"n_basis": 2})]) == 2
        assert capsys.readouterr().err == error
        assert not (tmp_path / "out").exists()
        line_demo([0, 0, 0], [0.4, 0, 0], n=10).save_csv(demo)
        assert main(["fit", str(demo), "--n-basis", "2", "--out", str(tmp_path / "models")]) == 0


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

    def test_failed_rollout_line_names_its_error(self, tmp_path, demo_csv, capsys, monkeypatch):
        real = splatsynth.synthesis._integrate

        def flaky(model, y, *args, **kwargs):
            times, positions, quaternions, failed = real(model, y, *args, **kwargs)
            if len(y) == 3:   # the first segment: rollout 1 is row 1
                failed[1] = 9
            return times, positions, quaternions, failed

        monkeypatch.setattr(splatsynth.synthesis, "_integrate", flaky)
        out_dir = tmp_path / "out"
        assert main(["synth", write_config(tmp_path, demo_csv, out_dir, n_demos=3)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "rollout    1: failed: non-finite state at step 9"
        assert [line.split(":")[1].split()[0] for line in lines[:3]] == ["ok", "failed", "ok"]
        assert lines[3] == f"2/3 rollouts written to {out_dir}"
        assert not (out_dir / "rollout_0001.csv").exists()

    @pytest.mark.parametrize("alpha", ["2", "1e200", "1e308", "-0.5"])
    def test_scene_alpha_outside_the_unit_interval_is_one_error_line(self, tmp_path, demo_csv, capsys, alpha):
        # refused before any rollout: past 1, the coupling overflows (1e200) or fails every rollout (1e308)
        scene = tmp_path / "scene.json"
        scene.write_text('{"blobs": [{"mu": [0.03, 0.05, 0.0], "cov": [[4e-4, 0, 0], [0, 4e-4, 0], [0, 0, 4e-4]], '
                         f'"alpha": {alpha}}}]}}')
        cfg = write_config(tmp_path, demo_csv, tmp_path / "out", scene=str(scene),
                           obstacle={"rho_th": 0.005, "lambda_max": 100.0, "lookahead": 0.015})
        assert main(["synth", cfg]) == 2
        one_error_line(capsys, f"scene: {scene}: blob 0: 'alpha' must be a finite number in [0, 1], got ")
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_is_one_error_line(self, tmp_path, demo_csv, capsys):
        # 10^14 rollouts need petabytes, past any 64-bit address space: refused at once
        cfg = write_config(tmp_path, demo_csv, tmp_path / "out", n_demos=10 ** 14)
        assert main(["synth", cfg]) == 1
        one_error_line(capsys, "Unable to allocate")

    def test_rerun_byte_identical(self, tmp_path, demo_csv):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path, demo_csv, out_a)
        assert main(["synth", cfg_a]) == 0
        cfg_b = write_config(tmp_path, demo_csv, out_b)
        assert main(["synth", cfg_b]) == 0
        for name in ["rollout_0000.csv", "rollout_0001.csv", "summary.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_debug_log_leaves_the_dataset_byte_identical(self, tmp_path, demo_csv):
        """SPLATSYNTH_LOG=DEBUG adds one stderr line per coupled segment batch and
        changes no byte of the dataset."""
        scene = write_scene(tmp_path / "scene.json", [GaussianBlob(np.array([0.03, 0.05, 0.0]),
                                                                   0.02 ** 2 * np.eye(3), 1.0)])
        obstacle = {"rho_th": 0.005, "lambda_max": 100.0, "lookahead": 0.015, "return_gain": 4.0}
        runs = []
        for level in ("WARNING", "DEBUG"):
            out_dir = tmp_path / level
            out_dir.mkdir()
            cfg = write_config(out_dir, demo_csv, out_dir / "data", n_demos=3, scene=scene,
                               obstacle=obstacle)
            env = dict(os.environ, SPLATSYNTH_LOG=level,
                       PYTHONPATH=str(Path(splatsynth.__file__).resolve().parent.parent))
            run = subprocess.run([sys.executable, "-m", "splatsynth.cli", "synth", cfg],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert run.returncode == 0, run.stderr
            runs.append((run.stderr, {p.name: p.read_bytes() for p in sorted((out_dir / "data").iterdir())}))
        (quiet, files), (loud, debug_files) = runs
        assert quiet == "" and debug_files == files and len(files) == 5
        lines = [line for line in loud.splitlines() if line.startswith("DEBUG:splatsynth.synthesis:")]
        assert [line.split(":")[2] for line in lines] == ["segment 0", "segment 1"]
        assert all(re.search(r"3 rows, \d+ steps, (free|coupled from step \d+), neighbour list: \d+ rebuilds", line)
                   for line in lines)

    def test_debug_log_of_a_ply_scene_leaves_the_dataset_byte_identical(self, tmp_path, demo_csv):
        """At DEBUG, synth on a PLY scene logs what the load kept and dropped,
        and writes the same dataset bytes as at WARNING."""
        scene = tmp_path / "scene.ply"
        props = ["x", "y", "z", "scale_0", "scale_1", "scale_2", "rot_0", "rot_1", "rot_2", "rot_3", "opacity"]
        s = math.log(0.02)
        rows = [[0.03, 0.05, 0.0, s, s, s, 1, 0, 0, 0, 3.0],         # kept
                [0.5, 0.5, 0.5, s, s, s, 0, 0, 0, 0, 3.0],          # a zero quaternion, rejected
                [0.5, -0.5, 0.5, s, s, s, 1, 0, 0, 0, -6.0]]        # below the 0.05 floor
        scene.write_bytes(("ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
                           + "".join(f"property float {p}\n" for p in props) + "end_header\n").encode()
                          + np.array(rows, dtype="<f4").tobytes())
        obstacle = {"rho_th": 0.005, "lambda_max": 100.0, "lookahead": 0.015, "return_gain": 4.0}
        runs = []
        for level in ("WARNING", "DEBUG"):
            out_dir = tmp_path / level
            out_dir.mkdir()
            cfg = write_config(out_dir, demo_csv, out_dir / "data", n_demos=2, scene=str(scene), obstacle=obstacle)
            env = dict(os.environ, SPLATSYNTH_LOG=level,
                       PYTHONPATH=str(Path(splatsynth.__file__).resolve().parent.parent))
            run = subprocess.run([sys.executable, "-m", "splatsynth.cli", "synth", cfg],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert run.returncode == 0, run.stderr
            runs.append((run.stderr, {p.name: p.read_bytes() for p in sorted((out_dir / "data").iterdir())}))
        (quiet, files), (loud, debug_files) = runs
        assert quiet == "" and debug_files == files and len(files) == 4
        assert [line for line in loud.splitlines() if line.startswith("DEBUG:splatsynth.splats:")] == [
            f"DEBUG:splatsynth.splats:scene {scene}: 3 records, 1 splats kept, 1 rejected as invalid, "
            "1 below the opacity floor 0.05"]


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

    @pytest.mark.parametrize("flags, message", [
        (["--transform", "nonexistent.json"], "--transform needs --scene"),
        (["--scene-unaligned"], "--scene-unaligned needs --scene"),
        (["--scene", "nonexistent.json", "--scene-unaligned"], "scene marked unaligned but no --transform provided"),
    ])
    def test_scene_flags_checked_before_any_file(self, tmp_path, capsys, flags, message):
        out_dir = tmp_path / "data"
        out_dir.mkdir()
        demo, demo_csv = line_demo([0, 0, 0], [1, 0, 0]), tmp_path / "demo.csv"
        demo.save_csv(demo_csv)
        demo.save_csv(out_dir / "rollout_0000.csv")
        assert main(["eval", str(out_dir), str(demo_csv)] + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out_dir / "summary.csv").exists()

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
        assert err.strip().splitlines() == [f"error: {path}: non-finite sample values"]
        assert "Traceback" not in err

    def test_bad_writing_plane(self, tmp_path, demo_csv, capsys):
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        assert main(["eval", str(out_dir), demo_csv,
                     "--writing-plane", "0,0,1"]) == 2

    @pytest.mark.parametrize("flags,start", [
        (["--writing-plane", "a,b"], "--writing-plane needs 6 comma-separated numbers"),
        (["--writing-plane", "0,0,0,0,0,x"], "--writing-plane needs 6 comma-separated numbers"),
        (["--writing-plane", "0,0,0,0,0,0"], "--writing-plane: plane_normal must have"),
        (["--writing-plane", "0,nan,0,0,0,1"], "--writing-plane: plane_point must be"),
        (["--writing-plane", "0,0,0,0,0,1", "--raster-resolution", "0"], "--raster-resolution: "),
        (["--writing-plane", "0,0,0,0,0,1", "--stroke-px", "0"], "--stroke-px: "),
        (["--writing-plane", "0,0,0,0,0,1", "--stroke-px", "-3"], "--stroke-px: "),
        (["--writing-plane", "0,0,0,1e300,1e300,0"], "--writing-plane: plane_normal must have"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would be a second stderr line
    def test_bad_raster_flags_exit_2(self, tmp_path, demo_csv, capsys, flags, start):
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        assert main(["eval", str(out_dir), demo_csv] + flags) == 2
        one_error_line(capsys, start)

    def test_smallest_raster_flags_accepted(self, tmp_path, demo_csv):
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        assert main(["eval", str(out_dir), demo_csv, "--writing-plane", "0,0,0,0,0,1",
                     "--raster-resolution", "1", "--stroke-px", "1"]) == 0

    def test_out_of_memory_is_one_error_line(self, tmp_path, demo_csv, capsys):
        # a 10^8-pixel-wide canvas needs petabytes, past any 64-bit address space: refused at once
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        assert main(["eval", str(out_dir), demo_csv, "--writing-plane", "0,0,0,0,0,1",
                     "--raster-resolution", str(10 ** 8)]) == 1
        one_error_line(capsys, "Unable to allocate")

    @pytest.mark.parametrize("name", BAD_TRANSFORMS)
    def test_malformed_transform_is_one_error_line(self, tmp_path, demo_csv, capsys, name):
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        scene_path = write_scene(tmp_path / "scene.json",
                                 [GaussianBlob(np.zeros(3), 1e-4 * np.eye(3), 1.0)])
        t_path = tmp_path / "T.json"
        t_path.write_text(BAD_TRANSFORMS[name])
        assert main(["eval", str(out_dir), demo_csv, "--scene", scene_path,
                     "--transform", str(t_path)]) == 1
        one_error_line(capsys, f"{t_path}: transform must be")

    @pytest.mark.parametrize("shift", [1e160, 1e300])
    def test_transform_past_the_reach_is_one_error_line(self, tmp_path, demo_csv, capsys, shift):
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        scene_path = write_scene(tmp_path / "scene.json",
                                 [GaussianBlob(np.zeros(3), 1e-4 * np.eye(3), 1.0)])
        t_path = tmp_path / "T.json"
        RigidTransform(np.eye(3), [0.0, shift, 0.0]).save_json(t_path)
        assert main(["eval", str(out_dir), demo_csv, "--scene", scene_path,
                     "--transform", str(t_path)]) == 1
        one_error_line(capsys, f"{t_path}: moved splat 0: bounding sphere reaches past 1e+150 m from the origin")

    @pytest.mark.parametrize("out, start", [
        ("", "--out: must name a file, got ''"),
        ("sub/", "--out: must name a file, got 'sub/'"),
        ("rollout_0000.csv", "--out: 'rollout_0000.csv' is the name of a rollout file"),
        ("rollout_0001.csv", "--out: 'rollout_0001.csv' is the name of a rollout file"),
        ("./rollout_0000.csv", "--out: './rollout_0000.csv' is the name of a rollout file"),
    ])
    def test_out_that_is_not_a_summary_name_exits_2(self, tmp_path, demo_csv, capsys, out, start):
        # refused before any file is read: the scene named here does not exist
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        (out_dir / "rollout_0001.csv").write_bytes((out_dir / "rollout_0000.csv").read_bytes())
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert main(["eval", str(out_dir), demo_csv, "--scene", str(tmp_path / "missing.json"), "--out", out]) == 2
        one_error_line(capsys, start)
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    @pytest.mark.parametrize("out, start", [
        (".", "--out: '.' is a directory"),
        ("sub", "--out: 'sub' is a directory"),
        ("nosuchdir/summary.csv", "--out: 'nosuchdir/summary.csv' is not in an existing directory"),
        ("manifest.json/summary.csv", "--out: 'manifest.json/summary.csv' is not in an existing directory"),
    ])
    def test_out_that_cannot_be_written_exits_2_before_scoring(self, tmp_path, demo_csv, capsys, out, start):
        # refused before any file is read: the scene named here does not exist
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        (out_dir / "sub").mkdir()
        (out_dir / "manifest.json").write_text("{}")
        before = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        assert main(["eval", str(out_dir), demo_csv, "--scene", str(tmp_path / "missing.json"), "--out", out]) == 2
        one_error_line(capsys, start)
        assert {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out_dir.iterdir() if p.is_dir()) == ["sub"]

    def test_absolute_out_in_a_missing_directory_exits_2(self, tmp_path, demo_csv, capsys):
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        out = str(tmp_path / "missing" / "summary.csv")
        assert main(["eval", str(out_dir), demo_csv, "--out", out]) == 2
        one_error_line(capsys, f"--out: {out!r} is not in an existing directory")
        assert not (tmp_path / "missing").exists()

    def test_debug_log_leaves_the_summary_byte_identical(self, tmp_path, demo_csv):
        """SPLATSYNTH_LOG=DEBUG adds one stderr line after the file loop, with
        the scene's path list counts, and writes the same summary bytes."""
        out_dir, demo = self.make_dataset(tmp_path, demo_csv)
        for k in (1, 2):
            Trajectory(demo.times, demo.positions + [0.001 * k, 0.0, 0.0], demo.quaternions, demo.gripper,
                       demo.splits).save_csv(out_dir / f"rollout_000{k}.csv")
        scene = write_scene(tmp_path / "scene.json", [GaussianBlob(demo.positions[40], 1e-4 * np.eye(3), 1.0)])
        runs = []
        for level in ("WARNING", "DEBUG"):
            env = dict(os.environ, SPLATSYNTH_LOG=level,
                       PYTHONPATH=str(Path(splatsynth.__file__).resolve().parent.parent))
            run = subprocess.run([sys.executable, "-m", "splatsynth.cli", "eval", str(out_dir), demo_csv,
                                  "--scene", scene, "--writing-plane", "0,0,0,0,0,1", "--out", f"{level}.csv"],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert run.returncode == 0, run.stderr
            runs.append((run.stderr, (out_dir / f"{level}.csv").read_bytes()))
        (quiet, summary), (loud, debug_summary) = runs
        assert quiet == "" and debug_summary == summary and summary.count(b"\n") == 4
        # the scene's load line, then the file loop's: the first rollout builds the list, and it answers the
        # two within its skin
        loaded, line = loud.splitlines()
        assert loaded == (f"DEBUG:splatsynth.splats:scene {scene}: 1 records, 1 splats kept, 0 rejected as invalid, "
                          "0 below the opacity floor 0.05")
        counts = re.fullmatch(r"DEBUG:splatsynth.cli:3 files scored; scene path list: 1 rebuilds, (\d+) listed "
                              r"pairs, (\d+) kept", line)
        assert counts and 0 < int(counts[2]) <= int(counts[1])

    def test_transform_bottom_row_is_one_error_line(self, tmp_path, demo_csv, capsys):
        out_dir, _ = self.make_dataset(tmp_path, demo_csv)
        scene_path = write_scene(tmp_path / "scene.json",
                                 [GaussianBlob(np.zeros(3), 1e-4 * np.eye(3), 1.0)])
        t_path = tmp_path / "T.json"
        t_path.write_text(json.dumps({"matrix": np.eye(4)[:3].tolist() + [[5, 5, 5, 5]]}))
        assert main(["eval", str(out_dir), demo_csv, "--scene", scene_path,
                     "--transform", str(t_path)]) == 1
        one_error_line(capsys, f"{t_path}: bottom row must be [0, 0, 0, 1], got [5.0, 5.0, 5.0, 5.0]")

    def test_plane_that_flattens_the_expert_exits_2(self, tmp_path, capsys, monkeypatch):
        forbid(monkeypatch, splatsynth.metrics, "evaluate_rollout")   # refused before any file is scored
        demo = line_demo([0.0, 0.0, 0.0], [0.4, 0.0, 0.0])
        demo_path, data = tmp_path / "demo.csv", tmp_path / "data"
        demo.save_csv(demo_path)
        data.mkdir()
        demo.save_csv(data / "rollout_0000.csv")
        assert main(["eval", str(data), str(demo_path), "--writing-plane", "0,0,0,1,0,0"]) == 2
        one_error_line(capsys, "--writing-plane: the expert's strokes on this plane: "
                               "degenerate bounding box: zero area")
        assert sorted(p.name for p in data.iterdir()) == ["rollout_0000.csv"]

    def test_flattened_rollout_names_its_file(self, tmp_path, demo_csv, capsys):
        data = tmp_path / "data"
        data.mkdir()
        demo = Trajectory.load_csv(demo_csv)
        demo.save_csv(data / "rollout_0000.csv")
        still = np.broadcast_to(demo.positions[0], demo.positions.shape)
        Trajectory(demo.times, still, demo.quaternions, demo.gripper, demo.splits).save_csv(data / "rollout_0001.csv")
        assert main(["eval", str(data), demo_csv, "--writing-plane", "0,0,0,0,0,1"]) == 1
        one_error_line(capsys, f"{data / 'rollout_0001.csv'}: degenerate bounding box: zero area")
        assert not (data / "summary.csv").exists()


class TestPathErrors:
    """A path of the wrong kind exits 2, and any other OS error exits 1, each
    with one error line and no traceback."""

    @pytest.mark.parametrize("argv,start", [
        (["fit", "{dir}"], "not a file: {dir}"),
        (["density", "{dir}", "0", "0", "0"], "not a file: {dir}"),
        (["align", "{dir}", "{demo}"], "not a file: {dir}"),
        (["calibrate-rho", "{dir}", "{demo}"], "not a file: {dir}"),
        (["eval", "{dir}", "{dir}"], "not a file: {dir}"),
        (["eval", "{demo}", "{demo}"], "not a directory: {demo}"),
        (["eval", "{dir}/missing", "{demo}"], "file not found: {dir}/missing"),
    ])
    def test_wrong_kind_of_path_exits_2(self, tmp_path, demo_csv, capsys, argv, start):
        names = {"dir": str(tmp_path), "demo": demo_csv}
        assert main([a.format(**names) for a in argv]) == 2
        one_error_line(capsys, start.format(**names))

    def test_fit_out_is_a_file_exits_2(self, demo_csv, capsys):
        before = Path(demo_csv).read_bytes()
        assert main(["fit", demo_csv, "--out", demo_csv]) == 2
        one_error_line(capsys, f"--out: {demo_csv!r} is not a directory")
        assert Path(demo_csv).read_bytes() == before

    def test_eval_out_is_a_directory_exits_2(self, tmp_path, demo_csv, capsys):
        out_dir = tmp_path / "data"
        (out_dir / "summary.csv").mkdir(parents=True)
        Trajectory.load_csv(demo_csv).save_csv(out_dir / "rollout_0000.csv")
        assert main(["eval", str(out_dir), demo_csv]) == 2
        one_error_line(capsys, "--out: 'summary.csv' is a directory")


class TestOutputPaths:
    """An output path that cannot be written is refused before any work: exit
    2, one error line naming the flag or key, and nothing written."""

    @staticmethod
    def files(root):
        return sorted((str(p.relative_to(root)), p.read_bytes() if p.is_file() else None) for p in root.rglob("*"))

    @pytest.mark.parametrize("out, line", [
        ("afile", "output.dir: '{root}/afile' is not a directory"),
        ("afile/deeper", "output.dir: '{root}/afile/deeper' lies in '{root}/afile', which is not a directory"),
        ("", "output.dir: must name a directory, got ''"),
    ])
    def test_synth_output_dir(self, tmp_path, demo_csv, capsys, monkeypatch, out, line):
        forbid(monkeypatch, splatsynth.synthesis, "synthesize")
        (tmp_path / "afile").write_text("kept")
        cfg = write_config(tmp_path, demo_csv, tmp_path / out if out else "")
        before = self.files(tmp_path)
        assert main(["synth", cfg]) == 2
        one_error_line(capsys, line.format(root=tmp_path))
        assert self.files(tmp_path) == before

    def test_synth_makes_missing_parent_directories(self, tmp_path, demo_csv):
        out_dir = tmp_path / "nosuch" / "deeper" / "ok"
        assert main(["synth", write_config(tmp_path, demo_csv, out_dir)]) == 0
        assert (out_dir / "manifest.json").is_file()

    @pytest.mark.parametrize("out, line", [
        ("afile/models", "--out: 'afile/models' lies in 'afile', which is not a directory"),
        ("", "--out: must name a directory, got ''"),
    ])
    def test_fit_out(self, tmp_path, demo_csv, capsys, monkeypatch, out, line):
        forbid(monkeypatch, splatsynth.dmp, "fit_dmp")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept")
        before = self.files(tmp_path)
        assert main(["fit", demo_csv, "--out", out]) == 2
        one_error_line(capsys, line)
        assert self.files(tmp_path) == before

    @pytest.mark.parametrize("flags, line", [
        (["--out", "."], "--out: '.' is a directory"),
        (["--out", "sub"], "--out: 'sub' is a directory"),
        (["--out", "sub/"], "--out: must name a file, got 'sub/'"),
        (["--out", "nosuchdir/t.json"], "--out: 'nosuchdir/t.json' is not in an existing directory"),
        (["--out", "afile/t.json"], "--out: 'afile/t.json' is not in an existing directory"),
        (["--aligned-scene", "sub"], "--aligned-scene: 'sub' is a directory"),
        (["--aligned-scene", "nosuchdir/a.json"], "--aligned-scene: 'nosuchdir/a.json' is not in an existing directory"),
        (["--aligned-scene", "./transform.json"], "--aligned-scene: './transform.json' is also --out"),
    ])
    def test_align_out(self, tmp_path, capsys, monkeypatch, flags, line):
        forbid(monkeypatch, splatsynth.alignment, "icp_align")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "afile").write_text("kept")
        write_scene(tmp_path / "scene.json", [GaussianBlob(np.zeros(3), 1e-4 * np.eye(3), 1.0)])
        before = self.files(tmp_path)
        assert main(["align", "scene.json", "scene.json", *flags]) == 2
        one_error_line(capsys, line)
        assert self.files(tmp_path) == before


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

    def test_far_blob_is_one_error_line(self, tmp_path, capsys):
        # the neighbour index used to fail every query with an overflow message
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"blobs": [{"mu": mu, "cov": np.eye(3).tolist(), "alpha": 1.0}
                                              for mu in ([0, 0, 0], [1e200, 0, 0])]}))
        assert main(["density", str(path), "0", "0", "0"]) == 1
        one_error_line(capsys, f"{path}: blob 1: bounding sphere reaches past 1e+150 m")

    def test_query_far_from_every_blob(self, tmp_path, capsys):
        scene_path = write_scene(tmp_path / "near.json", [GaussianBlob(np.zeros(3), np.eye(3), 1.0)])
        assert main(["density", scene_path, "1e200", "0", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "rho=0\ngrad=(0, 0, 0)\n" and captured.err == ""

    @pytest.mark.parametrize("name", BAD_SCENES)
    def test_malformed_scene_is_one_error_line(self, tmp_path, capsys, name):
        data, start = BAD_SCENES[name]
        path = tmp_path / name
        path.write_text(data)
        assert main(["density", str(path), "0", "0", "0"]) == 1
        one_error_line(capsys, f"{path}: {start}")
