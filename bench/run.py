"""Run one splatsynth benchmark workload and print its metrics.

    python3 bench/run.py --workload c05_batch --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src.  Inputs are
generated from --seed under .bench_work/ and removed afterwards.  With
--trace 0 the run reports the end-to-end metrics of BENCHMARK.json, with
times scaled to the machine's speed as a calibration kernel measures it next
to each timed step (calibrate.py); with
--trace 1 it reports the per-layer metrics from traced passes and writes the
spans to .bench_traces/.  Every run checks the outputs; the last stdout line
is a JSON object {"correct", "attempted", "failed", "metrics"}.  Exit code 0
means every check passed, 1 that some check failed, 2 a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

for _var in BLAS_VARS:
    os.environ[_var] = "1"   # closed loop, one job at a time: no BLAS threads
if not (SRC / "splatsynth" / "__init__.py").is_file():
    print(f"error: no splatsynth sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the BLAS settings above)
import scipy  # noqa: E402
import splatsynth  # noqa: E402

if Path(splatsynth.__file__).resolve().parent != SRC / "splatsynth":
    print(f"error: splatsynth imported from {splatsynth.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

from calibrate import Kernel  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks, dir_bytes, dir_digest  # noqa: E402

SETUP_MIN_REPS = 5        # setup_s is the median of at least this many set-ups
SETUP_MAX_REPS = 25       # ... and more, up to this many, while they fit in
SETUP_BUDGET_S = 1.5      # ... this much time
SRC_MODULES = ("geometry", "splats", "alignment", "dmp", "obstacles", "metrics",
               "synthesis", "cli")
KERNEL_REPS = 10          # calibration kernel passes per speed measurement ...
KERNEL_REF_S = 0.04       # ... and about the time they take on an idle core
TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Counts that must repeat exactly between two traced passes of one seed.
EXACT_COUNTS = ("splats.density.calls", "obstacles.density_calls_per_step",
                "dmp.rollout.uncoupled_calls", "metrics.dtw.cells",
                "alignment.icp_align.iterations", "splats.kept", "splats.rejected")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; parts of the batch run until it is up, and the whole batch at least once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_env": {v: os.environ.get(v) for v in BLAS_VARS}}


def src_lines(module: str) -> int:
    """Non-blank, non-comment lines of src/splatsynth/<module>.py."""
    with open(SRC / "splatsynth" / f"{module}.py") as f:
        return sum(1 for line in f if line.strip() and not line.strip().startswith("#"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(durations):
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    n = len(durations)
    if n == 0:
        return 0.0, 0.0
    pct = next((p for p in TAIL_PCTS if n * (1.0 - p / 100.0) >= 10), 50.0)
    return pct, float(np.percentile(durations, pct))


class Speed:
    """The machine's speed next to a timed step: the calibration kernel is
    timed before the step and after it, and the step's time is scaled by
    KERNEL_REF_S over the mean of the two, i.e. to the time it would take at
    the reference speed.  The kernel time after one step is the time before
    the next."""

    def __init__(self):
        self.kernel = Kernel()
        self.kernel.time(KERNEL_REPS)   # warm-up
        self.last = self.kernel.time(KERNEL_REPS)

    def scale(self, took: float) -> float:
        before, self.last = self.last, self.kernel.time(KERNEL_REPS)
        return took * KERNEL_REF_S / ((before + self.last) / 2.0)


def timed_setups(workload, speed):
    """Median set-up time over several set-ups, scaled to the reference speed,
    the same unscaled, and the last set-up.  Each call of a set-up is scaled
    on its own, so a change of speed between its calls is followed."""
    times, scaled, setup = [], [], None

    def step(fn, *args):
        start = perf_counter()
        out = fn(*args)
        took = perf_counter() - start
        times[-1] += took
        scaled[-1] += speed.scale(took)
        return out

    begin = perf_counter()
    while len(times) < SETUP_MIN_REPS or (len(times) < SETUP_MAX_REPS
                                          and perf_counter() - begin < SETUP_BUDGET_S):
        setup = None  # let the previous scene go before loading the next
        times.append(0.0)
        scaled.append(0.0)
        setup = workload.setup(step)
    return statistics.median(scaled), statistics.median(times), setup


def run_plain(workload, seconds, checks):
    """End-to-end metrics: set-up, then the parts of the batch in turn, each
    timed on its own, until `seconds` are up and every part has run."""
    speed = Speed()
    setup_s, raw_setup_s, setup = timed_setups(workload, speed)
    parts = workload.parts()
    rates, raw_rates, factors, digests, first = [], [], [], {}, []
    start = perf_counter()
    while len(rates) < len(parts) or perf_counter() - start < seconds:
        part = parts[len(rates) % len(parts)]
        out = workload.workdir / f"out{len(rates)}"
        t0 = perf_counter()
        result = workload.run(setup, out, part)
        took = perf_counter() - t0
        n = workload.rollouts(result)
        scaled = speed.scale(took)
        raw_rates.append(n / took)
        rates.append(n / scaled)
        factors.append(took / scaled)
        digests.setdefault(part, set()).add(dir_digest(out))
        if len(first) < len(parts):
            first.append((result, out))
        else:
            shutil.rmtree(out)
    repeated = sum(len(d) for d in digests.values())
    checks.add("byte-identical repeats", repeated == len(parts),
               f"{repeated} different outputs from {len(parts)} parts")
    results = [result for result, _ in first]
    facts = workload.check(setup, results, [out for _, out in first], checks)
    facts.update(parts_run=len(rates), raw_setup_s=raw_setup_s,
                 raw_rollouts_per_s=statistics.median(raw_rates),
                 slowdown_median=statistics.median(factors),
                 slowdown_range=[min(factors), max(factors)])
    return {
        "setup_s": setup_s,
        "rollouts_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
        "dtw_position_mean_m": workload.dtw_position_mean(results),
    }, facts


def run_batch(workload, setup, out):
    """Every part of the batch once, under out/; the results and directories."""
    dirs = [out / f"part{i}" for i in range(len(workload.parts()))]
    return [workload.run(setup, d, part) for d, part in zip(dirs, workload.parts())], dirs


def traced_pass(workload, out):
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        start = perf_counter()
        setup = workload.setup()
        results, dirs = run_batch(workload, setup, out)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
        workload.tracer = None
    return tracer, wall, setup, results, dirs


def layer_metrics(workload, summary, out_dir) -> dict:
    names = summary["names"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "infos": []}

    def get(name):
        return names.get(name, empty)

    def per(a, b):
        return a / b if b else 0.0

    load, dens, grad = get("splats.load_scene"), get("splats.density"), get("splats.density_gradient")
    icp, roll, hook = get("alignment.icp_align"), get("dmp.rollout"), get("obstacles.hook")
    dtw, one = get("metrics.dtw"), get("synthesis.synthesize_one")
    kept, rejected = load["infos"][0]
    steps = sum(info[0] for info in roll["infos"])
    cells = sum(dtw["infos"])
    tail_pct, tail_s = tail(one["durations"])
    return {
        "splats.load_scene.s": load["total_s"],
        "splats.load_scene.splats_per_s": per(workload.n_records, load["total_s"]),
        "splats.kept": kept,
        "splats.rejected": rejected,
        "splats.density.calls": dens["calls"],
        "splats.density.us_per_call": per(dens["self_s"] * 1e6, dens["calls"]),
        "splats.density.zero_ratio": per(sum(1 for v in dens["infos"] if v == 0.0), dens["calls"]),
        "splats.density_gradient.calls": grad["calls"],
        "splats.density_gradient.self_s": grad["self_s"],
        "alignment.icp_align.s": icp["total_s"],
        "alignment.icp_align.iterations": sum(icp["infos"]),
        "alignment.apply_transform.s": get("alignment.apply_transform")["total_s"],
        "dmp.fit_dmp.s": get("dmp.fit_dmp")["total_s"],
        "dmp.rollout.calls": roll["calls"],
        "dmp.rollout.uncoupled_calls": sum(1 for info in roll["infos"] if not info[1]),
        "dmp.rollout.steps": steps,
        "dmp.rollout.self_us_per_step": per(roll["self_s"] * 1e6, steps),
        "obstacles.hook.calls": hook["calls"],
        "obstacles.hook.self_s": hook["self_s"],
        "obstacles.hook.active_ratio": per(sum(1 for a, _ in hook["infos"] if a), hook["calls"]),
        "obstacles.density_calls_per_step": per(sum(n for _, n in hook["infos"]), hook["calls"]),
        "metrics.trajectory_dtw.calls": get("metrics.trajectory_dtw")["calls"],
        "metrics.trajectory_dtw.self_s": get("metrics.trajectory_dtw")["self_s"],
        "metrics.dtw.cells": cells,
        "metrics.dtw.ns_per_cell": per(dtw["self_s"] * 1e9, cells),
        "metrics.collision_check.s": get("metrics.collision_check")["total_s"],
        "metrics.collision_check.points": sum(get("metrics.collision_check")["infos"]),
        "metrics.writing_error.s": get("metrics.writing_error")["total_s"],
        "synthesis.synthesize_one.p50_ms": float(np.median(one["durations"])) * 1e3 if one["calls"] else 0.0,
        "synthesis.synthesize_one.tail_ms": tail_s * 1e3,
        "synthesis.synthesize_one.tail_pct": tail_pct,
        "synthesis.synthesize_one.samples": one["calls"],
        "synthesis.synthesize.self_s": get("synthesis.synthesize")["self_s"],
        "synthesis.export_dataset.s": get("synthesis.export_dataset")["total_s"],
        "synthesis.export_dataset.bytes": dir_bytes(out_dir) if get("synthesis.export_dataset")["calls"] else 0,
        "geometry.Trajectory.save_csv.s": get("geometry.Trajectory.save_csv")["total_s"],
        "geometry.Trajectory.load_csv.s": get("geometry.Trajectory.load_csv")["total_s"],
        "trace.attributed_ratio": summary["attributed_ratio"],
    }


def run_traced(workload, checks, trace_path):
    """Per-layer metrics from three passes, each a set-up plus one batch: a
    traced warm-up pass, an untraced pass as the overhead base, and the
    reported traced pass.  The two traced passes' exact counts must agree."""
    warm, wall_warm, _, _, _ = traced_pass(workload, workload.workdir / "warmup")
    counts = layer_metrics(workload, warm.summary(wall_warm), workload.workdir / "warmup")
    del warm
    start = perf_counter()
    run_batch(workload, workload.setup(), workload.workdir / "plain")
    plain = perf_counter() - start
    tracer, wall, setup, results, dirs = traced_pass(workload, workload.workdir / "traced")
    m = layer_metrics(workload, tracer.summary(wall), workload.workdir / "traced")
    m["trace.overhead_ratio"] = wall / plain
    tracer.dump(trace_path)
    del tracer
    for name in EXACT_COUNTS:
        checks.add("exact count", m[name] == counts[name], f"{name}: {counts[name]} then {m[name]}")
    facts = workload.check(setup, results, dirs, checks)
    for module in SRC_MODULES:
        m[f"{module}.src_lines"] = src_lines(module)
    return m, facts


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    checks = Checks()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        if args.trace:
            (ROOT / ".bench_traces").mkdir(exist_ok=True)
            trace_path = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.csv"
            values, facts = run_traced(workload, checks, trace_path)
        else:
            values, facts = run_plain(workload, args.seconds, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fail_ratio = checks.failed / checks.attempted
    if args.trace:
        values["checks.fail_ratio"] = fail_ratio
        values["checks.collision_rate"] = facts["collision_rate"]

    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_info(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} " + json.dumps(facts))
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"fail_ratio {fail_ratio} ratio")
    print(f"collision_rate {facts['collision_rate']} ratio")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
