"""bench/tracing.py wraps library functions where their callers look them up,
including bindings that only the tracer reads (the `# noqa: F401` imports in
obstacles, metrics and synthesis).  Installing and removing its wrappers
against this source tree must find every binding and restore each one."""

import importlib.util
from pathlib import Path

import numpy as np

from splatsynth import alignment, metrics, obstacles, splats, synthesis
from splatsynth.geometry import Trajectory

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
