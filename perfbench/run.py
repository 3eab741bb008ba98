"""sqzmet benchmark: one closed-loop workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 20 --trace 0

The workload runs in child processes started with a clean environment: no
``SQZMET_*`` variables (the CLI lets them override config keys), BLAS and
OpenMP pinned to ``THREADS`` thread, and ``src/`` of this checkout first on
``PYTHONPATH``.  The timed phase is split over one process per CPU (up to
``MAX_PARTS``), each pinned to its CPU.  Generated inputs and outputs live in a temporary
directory under ``.perfbench_run/`` that is removed afterwards; the
program's stdout and stderr are captured, never printed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; ``setup_s`` is the median of ``SETUP_SAMPLES`` set-ups,
each timed from process start to the first timed operation.  Times are
CPU times of the workload process, which on the one core it is pinned to
equal its wall time except for time the host or other processes took; and
they are reported at reference speed: scaled by ``CAL_REF_S`` over the CPU
time the calibration kernel of ``calibration.py`` took around them, so that
drift in the speed of a shared host cancels out.  The unscaled CPU figures
and the wall-clock figures are printed above the JSON line.  With
``--trace 1`` it holds the per-layer metrics of a traced phase that repeats
the first inputs after an untraced timed phase, in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibration import CAL_REF_S, speed_factors
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
THREADS = 1
SETUP_SAMPLES = 6
MAX_PARTS = 2  # timed processes per run, one per CPU
CHILD_TIMEOUT_S = 150.0
TAIL_BEYOND = 10  # fewer samples than this beyond the tail latency are flagged
MAX_LABELS = 16  # per-input medians are printed up to this many distinct inputs

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
MODULE_TOTALS = [
    (f"{layer}.{kind}", unit)
    for layer in LAYERS
    for kind, unit in (("calls", "count"), ("self_ms", "ms"))
]
VALIDATE_CHECKS = ("cross_engine", "table_route", "odd_terms", "variance_identity",
                   "mz_factorization", "series_convergence")
PER_LAYER = dict(MODULE_TOTALS + [
    *((f"gaussian.self_ms.M{m}", "ms") for m in (2, 8, 32, 128)),
    ("gaussian.vacuum_overlap_probability.self_ms", "ms"),
    ("gaussian.apply_network.self_ms", "ms"),
    ("metrology.exact_survival_probability.self_ms", "ms"),
    ("metrology.exact_survival_probability.calls", "count"),
    ("metrology.simulate_shots.self_ms", "ms"),
    ("metrology.simulate_shots.calls", "count"),
    ("metrology.shots_drawn", "count"),
    ("metrology.scaling_sweep.self_ms", "ms"),
    ("network.reck_decompose.self_ms", "ms"),
    *((f"network.reck_decompose.self_ms.M{m}", "ms") for m in (8, 32, 64, 128)),
    ("network.mesh_elements", "count"),
    ("network.nonfinite_meshes", "count"),
    ("network.embed_weights_unitary.self_ms", "ms"),
    ("fock.propagate_through_network.self_ms", "ms"),
    ("fock.table_rows", "count"),
    ("fock.recommend_cutoff.self_ms", "ms"),
    ("fock.cutoff_photons", "count"),
    ("fock.survival_probability_sectors.self_ms", "ms"),
    ("fock.generator_moments_sectors.self_ms", "ms"),
    *((f"validate.check_{name}.self_ms", "ms") for name in VALIDATE_CHECKS),
    ("cli.self_ms.R200", "ms"),
    ("cli.self_ms.M128", "ms"),
    ("trace.overhead_frac", "fraction"),
])


def child_env(root: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SQZMET_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, env, cwd, deadline):
    """Run one workload process; return its set-up time as (CPU seconds, wall
    seconds), its calibration pass in CPU seconds and its last stdout line."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process timed out: {' '.join(cmd)}")
    lines = out.splitlines()
    ready = [ln for ln in lines if ln.startswith("READY ")]
    cal = [ln for ln in lines if ln.startswith("CAL ")]
    if proc.returncode != 0 or not ready or not cal:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{err[-2000:]}")
    _, clock, cpu = ready[0].split()
    return (float(cpu), float(clock) - started), float(cal[0].split()[1]), lines[-1]


def tail_latency(values, pct: float) -> tuple[float, int]:
    """(value, samples beyond) at percentile ``pct``: the sample with
    ``floor(n (100 - pct) / 100)`` samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(int(n * (100.0 - pct) / 100.0), n - 1)
    return ordered[n - 1 - beyond], beyond


def end_to_end(labels, latencies, tail_pct: float) -> dict:
    tail, beyond = tail_latency(latencies, tail_pct)
    by_input: dict[str, list[float]] = {}
    for label, t in zip(labels, latencies):
        by_input.setdefault(label, []).append(t)
    medians = {label: statistics.median(ts) * 1e3 for label, ts in by_input.items()}
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        # every input runs equally often, and inputs of different sizes leave
        # gaps in the latency distribution: the overall median of such a mix
        # is the extreme sample at the edge of a gap, a median of per-input
        # medians is not
        "op_p50_ms": statistics.median(medians.values()),
        "op_tail_ms": tail * 1e3,
        "tail_pct": tail_pct,
        "tail_beyond": beyond,
        "p50_ms_by_input": medians,
    }


def git_revision(root: str) -> str:
    if os.path.isdir(os.path.join(root, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=10).stdout.strip()
    return "unknown"


def cpu_model() -> str:
    with contextlib.suppress(OSError, StopIteration):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            return next(ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name"))
    return platform.processor() or "unknown"


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("protocol", "sweep", "synthesize", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sqzmet", "__init__.py")):
        print("error: run from the root of a sqzmet checkout (src/sqzmet not found)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[:MAX_PARTS]
    env = child_env(root)
    run_root = os.path.join(root, ".perfbench_run")
    os.makedirs(run_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=run_root)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir]
    # one timed process per CPU, each pinned to its CPU for its whole life
    # (children inherit this process's affinity); a traced run uses the first
    parts = 1 if args.trace else len(cpus)
    probes = 0 if args.trace else SETUP_SAMPLES - parts
    setups, reports = [], []  # setups: ((CPU s, wall s), calibration pass CPU s)
    try:
        for i in range(probes):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            setups.append(run_child(cmd + ["--seconds", "0", "--setup-only"],
                                    env, root, deadline)[:2])
        for part in range(parts):
            os.sched_setaffinity(0, {cpus[part]})
            setup, cal, last = run_child(
                cmd + ["--seconds", repr(args.seconds / parts), "--trace", str(args.trace),
                       "--part", str(part), "--parts", str(parts)], env, root, deadline)
            setups.append((setup, cal))
            reports.append(json.loads(last))
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run_root)

    src = os.path.realpath(os.path.join(root, "src")) + os.sep
    for report in reports:
        if not os.path.realpath(report["sqzmet_file"]).startswith(src):
            print(f"error: imported sqzmet from {report['sqzmet_file']}, not from this checkout",
                  file=sys.stderr)
            return 1
    labels = [label for r in reports for label in r["labels"]]
    raw = [t for r in reports for t in r["latencies"]]
    walls = [t for r in reports for t in r["walls"]]
    factors = [f for r in reports for f in speed_factors(len(r["latencies"]), r["calibration"])]
    latencies = [t * f for t, f in zip(raw, factors)]
    failures = [f for r in reports for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reports)
    tail_pct = reports[0]["tail_pct"]
    e2e = end_to_end(labels, latencies, tail_pct)
    raw_e2e, wall_e2e = end_to_end(labels, raw, tail_pct), end_to_end(labels, walls, tail_pct)
    setup_s = statistics.median(cpu * CAL_REF_S / cal for (cpu, _), cal in setups)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, one client, timed on {parts} of "
          f"{len(allowed)} CPUs)")
    print(f"env python={platform.python_version()}  numpy={reports[0]['numpy']}  "
          f"blas={reports[0]['blas']}  cpu={cpu_model()}  nproc={os.cpu_count()}  "
          f"blas_threads={THREADS}  git={git_revision(root)}")
    if len(e2e["p50_ms_by_input"]) <= MAX_LABELS:
        print("p50 ms by input: " + "  ".join(
            f"{label}={ms:.4g}" for label, ms in e2e["p50_ms_by_input"].items()))
    for label in dict.fromkeys(f[0] for f in failures):
        mine = [f for f in failures if f[0] == label]
        kind = "known defect" if mine[0][2] else "FAILED"
        print(f"{kind}: {label} x{len(mine)}: {mine[0][1]}")
    if args.trace:
        layers = reports[0]["per_layer"]
        for name in sorted(layers):
            print(f"  {name:58s} {fmt(layers[name])}")
        slowest = max(LAYERS, key=lambda layer: layers.get(f"{layer}.self_ms", 0.0))
        print(f"slowest layer by self time: {slowest} "
              f"({fmt(layers.get(f'{slowest}.self_ms', 0.0))} ms in the traced phase); "
              f"trace.overhead_frac = {fmt(layers['trace.overhead_frac'])}")
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = dict(e2e, setup_s=setup_s,
                      peak_rss_mb=max(r["peak_rss_mb"] for r in reports))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        raw_values = dict(raw_e2e, setup_s=statistics.median(cpu for (cpu, _), _ in setups))
        wall_values = dict(wall_e2e, setup_s=statistics.median(wall for (_, wall), _ in setups))
        notes = {
            "op_tail_ms": f"p{tail_pct:g}, {e2e['tail_beyond']} of {len(latencies)} samples "
                          f"beyond" + (" (too few: run longer)"
                                       if e2e["tail_beyond"] < TAIL_BEYOND else ""),
            "setup_s": "median of " + " ".join(
                f"{cpu * CAL_REF_S / cal:.3f}" for (cpu, _), cal in setups),
        }
        print(f"CPU times at reference speed; host speed factor median "
              f"{fmt(statistics.median(factors))}, range {fmt(min(factors))}-{fmt(max(factors))}")
        for name, entry in metrics.items():
            measured = (f"(unscaled {fmt(raw_values[name])}, wall {fmt(wall_values[name])})"
                        if name in raw_values else "")
            print(f"{name:16s} = {fmt(entry['value'])} {entry['unit']}  {measured}  "
                  f"{notes.get(name, '')}")
        print(f"{'failed_ops_frac':16s} = {fmt(len(failures) / attempted)} fraction  "
              f"{len(failures)} of {attempted} ops")
    print(json.dumps({
        "correct": not any(not known for _, _, known in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
