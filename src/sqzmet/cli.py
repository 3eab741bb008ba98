"""Command-line front end: synthesize, simulate, sweep, validate.

Exit codes: 0 success, 1 a self-check failed (a validation-suite check or a
``synthesize`` residual), 2 bad input or a file that cannot be read or
written, 3 refusal to run outside the small-phase regime.  Output tables
are CSV with a manifest header sufficient to regenerate them; numbers use
shortest round-trip notation, so identical configuration and seed give
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__, metrology, network, validate
from .gaussian import SqueezeParameter

CONFIG_KEYS = ("weights", "true_phases", "squeeze", "shots", "seed")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2
EXIT_REGIME = 3
# acceptance criterion 7's mesh round-trip bound, applied to every synthesize residual
RESIDUAL_TOL = 1e-9


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_list(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _manifest_lines(command: str, entries) -> list[str]:
    # provenance header of every output file; wall-clock timing goes to
    # stderr only, so the file stays byte-reproducible
    lines = [f"# sqzmet = {__version__}", f"# command = {command}"]
    lines += [f"# {key} = {value}" for key, value in entries]
    return lines


def _read_config_file(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_floats(text: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {text!r}") from exc


def load_experiment_config(path: str, args) -> metrology.ExperimentConfig:
    """Assemble an ExperimentConfig from the config file; ``--seed`` overrides its seed."""
    values = _read_config_file(path)
    for key in CONFIG_KEYS:
        if key not in values:
            raise ValueError(f"config {path} is missing required key {key!r}")
    squeeze_parts = _parse_floats(values["squeeze"], "squeeze")
    if len(squeeze_parts) not in (1, 2):
        raise ValueError("squeeze takes one or two comma-separated numbers (r[,theta])")
    return metrology.ExperimentConfig(
        weights=np.array(_parse_floats(values["weights"], "weights")),
        true_phases=np.array(_parse_floats(values["true_phases"], "true_phases")),
        squeeze=SqueezeParameter(*squeeze_parts),
        shots=int(values["shots"]),
        seed=args.seed if args.seed is not None else int(values["seed"]),
    )


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def cmd_synthesize(args) -> int:
    with open(args.weights_file, "r", encoding="utf-8") as handle:
        tokens = handle.read().replace(",", " ").split()
    weights = network.validate_weights([float(tok) for tok in tokens])
    unitary = network.embed_weights_unitary(weights)
    mesh = network.reck_decompose(unitary)
    column_defect = float(np.max(np.abs(unitary[:, 0] - np.sqrt(weights))))
    unitarity = network.unitarity_defect(unitary)
    roundtrip = float(np.linalg.norm(network.recompose(mesh) - unitary))
    residuals = (
        ("first-column residual", column_defect),
        ("unitarity residual", unitarity),
        ("mesh round-trip residual", roundtrip),
    )
    for name, value in residuals:
        if not value <= RESIDUAL_TOL:
            print(
                f"error: {name} = {_fmt(value)} exceeds {RESIDUAL_TOL}; no files written",
                file=sys.stderr,
            )
            return EXIT_VALIDATION

    header = _manifest_lines("synthesize", [("weights", _fmt_list(weights))])
    netlist = "\n".join(header) + "\n" + network.mesh_to_netlist(mesh)
    rows = [" ".join(repr(complex(z)) for z in row) for row in unitary]
    dump = "\n".join(header + rows) + "\n"

    prefix = args.out or "network"
    _write_text(f"{prefix}.netlist", netlist)
    _write_text(f"{prefix}.unitary", dump)
    print(f"modes = {weights.size}")
    for name, value in residuals:
        print(f"{name} = {_fmt(value)}")
    print(f"wrote {prefix}.netlist and {prefix}.unitary")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_experiment_config(args.config, args)
    started = time.perf_counter()
    run = metrology.run_protocol(config)
    elapsed = time.perf_counter() - started
    if not run.regime_ok:
        print(
            f"warning: regime ratio {run.regime_ratio:.3f} outside the "
            f"small-phase expansion (threshold {metrology.REGIME_THRESHOLD})",
            file=sys.stderr,
        )
    lines = _manifest_lines(
        "simulate",
        [
            ("weights", _fmt_list(config.weights)),
            ("true_phases", _fmt_list(config.true_phases)),
            ("squeeze", _fmt_list([config.squeeze.r, config.squeeze.theta])),
            ("shots", str(config.shots)),
            ("seed", str(config.seed)),
        ],
    )
    lines.append("phiBar_true,p_exact,p_hat,phi_hat,regime_ratio")
    lines.append(
        ",".join(
            _fmt(v)
            for v in (run.phi_bar_true, run.p_exact, run.p_hat, run.phi_hat, run.regime_ratio)
        )
    )
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"simulate finished in {elapsed:.3f} s", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = _read_config_file(args.config)
    for key in ("shots", "seed"):
        if key not in values:
            raise ValueError(f"config {args.config} is missing required key {key!r}")
    shots = int(values["shots"])
    seed = args.seed if args.seed is not None else int(values["seed"])
    nbars = _parse_floats(args.nbars, "--nbars") if args.nbars is not None else [0.5, 1.0, 2.0, 4.0]
    baseline = args.baseline or "squeezed"
    started = time.perf_counter()
    result = metrology.scaling_sweep(
        nbars,
        shots,
        args.repetitions,
        seed,
        bias_product=args.bias_product,
        baseline=baseline,
        force=args.force,
    )
    elapsed = time.perf_counter() - started
    lines = _manifest_lines(
        "sweep",
        [
            ("nbars", _fmt_list(nbars)),
            ("shots", str(shots)),
            ("repetitions", str(args.repetitions)),
            ("bias_product", _fmt(args.bias_product)),
            ("baseline", baseline),
            ("seed", str(seed)),
        ],
    )
    lines.append("nbar,nu,delta_phi_sq_empirical,heisenberg_prediction,ratio")
    for nbar, point in zip(result.nbars, result.results):
        lines.append(
            ",".join(
                [
                    _fmt(nbar),
                    str(shots),
                    _fmt(point.delta_phi_sq),
                    _fmt(point.heisenberg_bound),
                    _fmt(point.delta_phi_sq / point.heisenberg_bound),
                ]
            )
        )
    lines.append(f"slope={_fmt(result.slope)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"sweep finished in {elapsed:.3f} s", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    suite = validate.full_suite if args.level == "full" else validate.quick_suite
    results = suite(args.seed if args.seed is not None else 0)
    failed = [r for r in results if not r.passed]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name} ({result.detail})")
    if failed:
        print(f"validation failed: {failed[0].name}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzmet",
        description="Distributed phase estimation with one squeezed probe.",
    )
    parser.add_argument("--version", action="version", version=f"sqzmet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="build the weight-encoding mesh")
    p_syn.add_argument("weights_file", help="text file of non-negative weights summing to 1")
    p_syn.add_argument("--out", help="output prefix (default: network)")
    p_syn.set_defaults(func=cmd_synthesize)

    p_sim = sub.add_parser("simulate", help="one protocol run as a CSV row")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", help="CSV path (default: stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_swp = sub.add_parser("sweep", help="scaling sweep of the estimation variance")
    p_swp.add_argument("--config", required=True, help="supplies shots and seed")
    p_swp.add_argument("--seed", type=int)
    p_swp.add_argument("--nbars", help="comma-separated mean photon numbers")
    p_swp.add_argument("--repetitions", type=int, default=200)
    p_swp.add_argument("--bias-product", type=float, default=0.05, dest="bias_product")
    p_swp.add_argument("--baseline", choices=("squeezed", "coherent"))
    p_swp.add_argument("--force", action="store_true", help="ignore the regime refusal")
    p_swp.add_argument("--jobs", type=int, default=1, help="ignored; sampling is vectorised")
    p_swp.add_argument("--out", help="CSV path (default: stdout)")
    p_swp.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the self-validation suites")
    p_val.add_argument("level", choices=("quick", "full"))
    p_val.add_argument("--seed", type=int)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except metrology.RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (ValueError, OSError) as exc:
        # bad input: the library's validation and truncation errors, and
        # files that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
