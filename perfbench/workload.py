"""One workload process: seeded inputs, warm-up, a closed timed loop, output checks.

``run.py`` starts this file with a clean environment.  It prints ``READY``,
the monotonic clock and the process's CPU time once set-up (imports, input
generation, one warm-up operation) is done, then ``CAL`` and the median CPU
time of a few passes of the calibration kernel, then one JSON object with the
latencies (CPU and wall), the calibration samples of the timed phase and the
failures.  With ``--setup-only`` it exits right after ``CAL``, which is how
``run.py`` samples set-up time several times.

Each workload is a seed-determined list of operations whose inputs repeat
in a fixed cycle.  The timed phase runs them in order until ``--seconds``
have elapsed, stopping only after whole cycles, so every run measures the
same mix of inputs.  One client runs one operation at a time; the next
starts only after the previous one finished and was checked.  Check time is
kept out of the latencies.

Between operations, at least every ``CAL_INTERVAL_S``, the timed phase runs
one pass of the calibration kernel of ``calibration.py``; ``run.py`` scales
each latency by how fast the kernel ran around it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

import sqzmet
from sqzmet import cli, metrology, network
from sqzmet.gaussian import SqueezeParameter

from calibration import CAL_INTERVAL_S, CAL_SETUP_PASSES, calibration_pass, speed_factors
from tracer import Tracer

SHOTS = 100_000
PROTOCOL_MODES = (2, 8, 32, 128)
PROTOCOL_POOL = 64
SYNTH_MODES = (8, 32, 64, 128)
VALIDATE_POOL = 1024


class Op(NamedTuple):
    """One operation: ``run`` returns the program's output, ``check`` returns
    ``None`` when the output is correct and a message otherwise."""

    label: str
    tag: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: bool = False


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``sqzmet`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- protocol


def closed_form_survival(weights, phases, nbar: float) -> float:
    """``1 / |1 + nbar (1 - m^2)|`` with ``m = sum_j w_j exp(-i phi_j)``."""
    m = np.sum(np.asarray(weights) * np.exp(-1j * np.asarray(phases)))
    return 1.0 / abs(1.0 + nbar * (1.0 - m * m))


def check_protocol(run, reference: float) -> str | None:
    if not abs(run.p_exact - reference) <= 1e-9:
        return f"p_exact {run.p_exact!r} vs closed form {reference!r}"
    if not 0.0 <= run.p_hat <= 1.0:
        return f"p_hat {run.p_hat!r} outside [0, 1]"
    if not math.isfinite(run.phi_hat):
        return f"phi_hat {run.phi_hat!r} is not finite"
    return None


def protocol_ops(rng, workdir) -> list[Op]:
    ops = []
    for i in range(PROTOCOL_POOL):
        modes = PROTOCOL_MODES[i % len(PROTOCOL_MODES)]
        weights = rng.dirichlet(np.ones(modes))
        squeeze = SqueezeParameter(rng.uniform(0.1, 2.5), rng.uniform(0.0, 2 * math.pi))
        nbar = squeeze.mean_photon_number
        direction = rng.uniform(-1.0, 1.0, size=modes)
        phases = direction / np.max(np.abs(direction)) * rng.uniform(0.01, 0.25) / nbar
        seed = int(rng.integers(2**31))
        reference = closed_form_survival(weights, phases, nbar)

        def run(w=weights, phi=phases, sq=squeeze, s=seed):
            return metrology.run_protocol(metrology.ExperimentConfig(
                weights=w, true_phases=phi, squeeze=sq, shots=SHOTS, seed=s))

        ops.append(Op(f"M{modes}", f"M{modes}", run,
                      lambda out, ref=reference: check_protocol(out, ref)))
    return ops


# ---------------------------------------------------------------- sweep


def slope_tolerance(nbars, repetitions: int) -> float:
    """0.15, widened to five standard deviations of the fitted slope.

    The sample variance of ``repetitions`` estimates has relative standard
    deviation ``sqrt(2 / (repetitions - 1))``; a least-squares slope over
    ``log(nbars)`` divides that by ``sqrt(Sxx)``.
    """
    x = np.log(np.asarray(nbars, dtype=float))
    sxx = float(np.sum((x - x.mean()) ** 2))
    return max(0.15, 5.0 * math.sqrt(2.0 / (repetitions - 1) / sxx))


def check_sweep(code: int, csv: bytes, target: float, repetitions: int,
                serial_csv: bytes | None) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = csv.decode().splitlines()
    slope_lines = [ln for ln in lines if ln.startswith("slope=")]
    rows = [ln for ln in lines if ln and not ln.startswith(("#", "nbar", "slope="))]
    if len(slope_lines) != 1 or not rows:
        return "CSV has no slope line or no data rows"
    slope = float(slope_lines[0].split("=", 1)[1])
    tol = slope_tolerance([float(r.split(",")[0]) for r in rows], repetitions)
    if not abs(slope - target) <= tol:
        return f"slope {slope!r} outside {target} +- {tol:.3f}"
    if serial_csv is not None and csv != serial_csv:
        return "--jobs 2 CSV differs from the serial CSV"
    return None


def sweep_ops(rng, workdir) -> list[Op]:
    config = os.path.join(workdir, "sweep.cfg")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(f"shots = {SHOTS}\nseed = {int(rng.integers(2**31))}\n")
    serial_outputs: dict[tuple[int, str], bytes] = {}
    ops = []
    for reps in (200, 2000):
        for baseline, target in (("squeezed", -2.0), ("coherent", -1.0)):
            for jobs in (1, 2):
                key = (reps, baseline)
                out = os.path.join(workdir, f"sweep-{reps}-{baseline}-{jobs}.csv")
                argv = ["sweep", "--config", config, "--repetitions", str(reps),
                        "--baseline", baseline, "--out", out]
                if jobs > 1:
                    argv += ["--jobs", str(jobs)]

                def run(argv=argv, out=out):
                    code, _ = call_cli(argv)
                    with open(out, "rb") as handle:
                        return code, handle.read()

                def check(result, key=key, jobs=jobs, target=target, reps=reps):
                    code, csv = result
                    if jobs == 1:
                        serial_outputs[key] = csv
                        return check_sweep(code, csv, target, reps, None)
                    return check_sweep(code, csv, target, reps,
                                       serial_outputs.get(key, b""))

                mode = "serial" if jobs == 1 else f"jobs{jobs}"
                ops.append(Op(f"R{reps}/{baseline}/{mode}", f"R{reps}", run, check))
    return ops


# ---------------------------------------------------------------- synthesize


RESIDUAL_LINES = ("first-column residual", "unitarity residual", "mesh round-trip residual")


def check_synthesize(code: int, stdout: str, netlist: str, unitary) -> str | None:
    if code != 0:
        return f"exit code {code}"
    printed = dict(ln.split(" = ", 1) for ln in stdout.splitlines() if " = " in ln)
    for name in RESIDUAL_LINES:
        if name not in printed:
            return f"missing '{name}' line"
        value = float(printed[name])
        if not value <= 1e-9:
            return f"{name} = {value!r}"
    rebuilt = network.recompose(network.parse_netlist(netlist))
    gap = float(np.linalg.norm(rebuilt - unitary))
    if not gap <= 1e-9:
        return f"netlist round trip misses the unitary by {gap!r}"
    return None


def synthesize_ops(rng, workdir) -> list[Op]:
    ops = []
    for modes in SYNTH_MODES:
        for kind in ("dirichlet", "uniform"):
            weights = rng.dirichlet(np.ones(modes)) if kind == "dirichlet" else np.full(modes, 1.0 / modes)
            path = os.path.join(workdir, f"weights-{modes}-{kind}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(repr(float(w)) for w in weights) + "\n")
            prefix = os.path.join(workdir, f"mesh-{modes}-{kind}")
            unitary = network.embed_weights_unitary(weights)

            def run(path=path, prefix=prefix):
                code, stdout = call_cli(["synthesize", path, "--out", prefix])
                with open(prefix + ".netlist", encoding="utf-8") as handle:
                    return code, stdout, handle.read()

            ops.append(Op(
                f"M{modes}/{kind}", f"M{modes}", run,
                lambda out, u=unitary: check_synthesize(*out, u),
                # reck_decompose returns an all-NaN mesh for equal weights at
                # M >= 64 (a rotation ratio overflows on a tiny pivot)
                known_defect=kind == "uniform" and modes >= 64,
            ))
    return ops


# ---------------------------------------------------------------- validate


def check_validate(code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    if not lines or bad:
        return f"non-PASS line: {bad[0] if bad else '(no output)'}"
    return None


def validate_op(seed: int) -> Op:
    argv = ["validate", "full", "--seed", str(seed)]
    return Op(f"seed{seed}", "full", lambda: call_cli(argv), lambda out: check_validate(*out))


def validate_ops(rng, workdir) -> list[Op]:
    # the cost of one suite varies several-fold with its seed, so every
    # operation of a run gets its own seed
    return [validate_op(int(seed)) for seed in rng.integers(2**31, size=VALIDATE_POOL)]


class Workload(NamedTuple):
    """``cycle``: operations that make up one full mix of inputs.
    ``trace_ops``: operations in the traced phase.
    ``tail_pct``: the percentile ``op_tail_ms`` reports.  It is fixed per
    workload, so that runs doing more operations, on a faster host or a
    faster commit, still report the same percentile: p90 where a 25 s run
    does 95 to 230 operations; p95 for ``protocol`` (3500 to 4500), whose
    p99 falls on the operations hit by swings in host speed shorter than the
    calibration interval."""

    build: Callable[[np.random.Generator, str], list[Op]]
    cycle: int
    trace_ops: int
    tail_pct: float
    warmup: Callable[[list[Op]], Op] = lambda ops: ops[0]


WORKLOADS = {
    "protocol": Workload(protocol_ops, len(PROTOCOL_MODES), PROTOCOL_POOL, 95.0),
    "sweep": Workload(sweep_ops, 8, 16, 90.0),
    "synthesize": Workload(synthesize_ops, 2 * len(SYNTH_MODES), 16, 90.0),
    # warm up on the CLI's default seed, so set-up time does not depend on --seed
    "validate": Workload(validate_ops, 1, 16, 90.0, lambda ops: validate_op(0)),
}


# ---------------------------------------------------------------- timing


class PhaseResult(NamedTuple):
    labels: list[str]
    latencies: list[float]  # CPU seconds
    walls: list[float]  # wall-clock seconds
    failures: list[tuple[str, str, bool]]  # (label, message, known_defect)
    calibration: list[tuple[int, float]]  # (index of the next operation, CPU seconds)

    def add(self, op: Op, cpu: float, wall: float, error: str | None) -> None:
        self.labels.append(op.label)
        self.latencies.append(cpu)
        self.walls.append(wall)
        if error is not None:
            self.failures.append((op.label, error, op.known_defect))


def run_op(op: Op, tracer: Tracer | None = None) -> tuple[float, float, str | None]:
    """Time one operation, then check its output outside the timed region.

    Returns the CPU seconds of this process (all its threads) and the wall
    seconds the operation took, and the check's message.  On the one core a
    workload process is pinned to, the two agree unless the host or another
    process took the core away in between.
    """
    context = tracer.op(op.tag) if tracer is not None else contextlib.nullcontext()
    error = None
    started, cpu_started = time.perf_counter(), time.process_time()
    with context:
        try:
            output = op.run()
        except (Exception, SystemExit) as exc:  # a failed op is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
    cpu, wall = time.process_time() - cpu_started, time.perf_counter() - started
    if error is None:
        try:
            error = op.check(output)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return cpu, wall, error


def timed_phase(ops: list[Op], start: int, cycle: int, seconds: float = math.inf,
                count: int | None = None, tracer: Tracer | None = None,
                calibrate: bool = False) -> PhaseResult:
    """Run ``ops`` in order from index ``start``, wrapping around, for ``count``
    operations or until ``seconds`` have elapsed, stopping after whole cycles.
    With ``calibrate``, a calibration pass runs before the first operation and
    then whenever ``CAL_INTERVAL_S`` has passed since the last one."""
    phase = PhaseResult([], [], [], [], [])
    started = time.perf_counter()
    calibrated = -math.inf
    i = 0
    while True:
        if calibrate and time.perf_counter() - calibrated >= CAL_INTERVAL_S:
            phase.calibration.append((i, calibration_pass()))
            calibrated = time.perf_counter()
        op = ops[(start + i) % len(ops)]
        phase.add(op, *run_op(op, tracer))
        i += 1
        if i % cycle == 0 and (count is not None and i >= count
                               or time.perf_counter() - started >= seconds):
            return phase


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ops = workload.build(np.random.default_rng(args.seed), args.workdir)
    run_op(workload.warmup(ops))
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its own start time;
    # the CPU time is this process's since it started
    print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r} {time.process_time()!r}",
          flush=True)
    passes = [calibration_pass() for _ in range(CAL_SETUP_PASSES)]
    print(f"CAL {statistics.median(passes)!r}", flush=True)
    if args.setup_only:
        return 0

    # the parts of a run start at different inputs, so validate seeds do not repeat
    start = args.part * len(ops) // args.parts // workload.cycle * workload.cycle
    phase = timed_phase(ops, start, workload.cycle, seconds=args.seconds, calibrate=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "labels": phase.labels,
        "latencies": phase.latencies,
        "walls": phase.walls,
        "failures": phase.failures,
        "calibration": phase.calibration,
        "tail_pct": workload.tail_pct,
        "attempted": len(phase.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sqzmet_file": sqzmet.__file__,
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        # the same inputs as the start of the untraced phase, so the counts
        # repeat exactly for a fixed seed; the overhead compares each traced
        # operation with the untraced mean of the same input, both at
        # reference speed (calibration passes call no sqzmet function, so
        # they leave no spans)
        traced = timed_phase(ops, start, workload.cycle, count=workload.trace_ops,
                             tracer=tracer, calibrate=True)
        report["failures"] += traced.failures
        report["attempted"] += len(traced.latencies)
        layers = tracer.metrics()
        untraced: dict[str, list[float]] = {}
        for label, t, f in zip(phase.labels, phase.latencies,
                               speed_factors(len(phase.latencies), phase.calibration)):
            untraced.setdefault(label, []).append(t * f)
        pairs = [(t * f, statistics.fmean(untraced[label]))
                 for label, t, f in zip(traced.labels, traced.latencies,
                                        speed_factors(len(traced.latencies), traced.calibration))
                 if label in untraced]
        layers["trace.overhead_frac"] = sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0
        report["per_layer"] = layers
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
