"""bench/tracing.py wraps library functions where their callers look them up,
including bindings that only the tracer reads (the `# noqa: F401` imports in
obstacles, metrics and synthesis).  Installing and removing its wrappers
against this source tree must find every binding and restore each one."""

import importlib.util
from pathlib import Path

import numpy as np

from splatsynth import alignment, metrics, obstacles, splats, synthesis
from splatsynth.geometry import Trajectory
from splatsynth.synthesis import SynthesisJob, export_dataset

from helpers import line_demo

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
OWNERS = [alignment, metrics, obstacles, splats, synthesis, Trajectory]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_binding_and_uninstall_restores_it():
    tracing = load_tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for _, owners, attr, _ in tracing.TARGETS:
            for owner in owners:
                assert vars(owner)[attr] is not before[OWNERS.index(owner)][attr], f"{owner.__name__}.{attr}"
        scene = splats.GaussianScene.from_arrays([[0.0, 0.0, 0.0]], [np.eye(3)], [1.0])
        obstacles.density(scene, np.zeros(3))
        metrics.density(scene, np.zeros(3))
        assert tracer.calls["splats.density"] == 2
    finally:
        tracer.uninstall()
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys() and all(now[k] is saved[k] for k in saved), owner.__name__


def test_tracer_sees_the_paired_hook(monkeypatch, tmp_path):
    """With the return pull on, the hook's rows are each rollout's nominal and
    coupled rows, and it keeps the (step, y, v) call that the tracer's
    wrapper makes: a traced coupled synthesize records obstacles.hook spans
    and exports the bytes of an untraced one."""
    scene = splats.GaussianScene([splats.GaussianBlob([0.2, 0.004, 0.0], 0.02 ** 2 * np.eye(3), 1.0)])
    job = SynthesisJob(demo=line_demo([0, 0, 0], [0.4, 0, 0], n=151), scene=scene, n_demos=2, dt=0.01,
                       obstacle=obstacles.ObstacleParams(rho_th=0.005, lambda_max=100.0, gamma=2.0,
                                                         lookahead=0.015, return_gain=4.0))
    export_dataset(*synthesis.synthesize(job), tmp_path / "plain")
    make, calls = synthesis.make_coupling, []

    def spied(*args):
        hook = make(*args)

        def called(*hook_args):
            calls.append((len(hook_args), len(hook_args[1])))
            return hook(*hook_args)
        return called
    monkeypatch.setattr(synthesis, "make_coupling", spied)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        export_dataset(*synthesis.synthesize(job), tmp_path / "traced")
    finally:
        tracer.uninstall()
    hook_spans = [span for span in tracer.spans if span[0] == "obstacles.hook"]
    assert hook_spans and len(hook_spans) == len(calls) == tracer.calls["obstacles.hook"]
    assert set(calls) == {(3, 2 * job.n_demos)}   # (step, y, v), each rollout's nominal and coupled row
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for name in names:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
