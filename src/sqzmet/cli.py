"""Command-line front end: synthesize, simulate, sweep, validate.

Exit codes: 0 success, 1 a self-check failed (a validation-suite check or a
``synthesize`` residual), 2 bad input, an allocation the host cannot make,
or a file that cannot be read or written, 3 refusal to run outside the
small-phase regime.  Output tables are CSV with a manifest header
sufficient to regenerate them; numbers use shortest round-trip notation,
so identical configuration and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import __version__, metrology, network
from .metrology import SqueezeParameter

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
    # the same text as _fmt on each value, without a numpy scalar per value
    return ",".join(map(repr, np.asarray(values, dtype=float).tolist()))


def _manifest_lines(command: str, entries) -> list[str]:
    # provenance header of every output file; wall-clock timing goes to
    # stderr only, so the file stays byte-reproducible
    lines = [f"# sqzmet = {__version__}", f"# command = {command}"]
    lines += [f"# {key} = {value}" for key, value in entries]
    return lines


def _read_config_file(path: str, required: tuple[str, ...]) -> dict[str, str]:
    with open(path, "r", encoding="utf-8-sig") as handle:
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
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    for key in required:
        if key not in values:
            raise ValueError(f"config {path} is missing required key {key!r}")
    return values


def _parse_floats(text: str, key: str) -> np.ndarray:
    values = []
    for tok in text.replace(",", " ").split():
        try:
            values.append(float(tok))
        except ValueError as exc:
            raise ValueError(f"bad value for {key}: {tok!r}") from exc
    return np.array(values, dtype=float)


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {text!r}") from exc


def _shots_and_seed(values: dict[str, str], args) -> tuple[int, int]:
    # --seed replaces the file's seed, which the file must still hold
    shots = _parse_int(values["shots"], "shots")
    return shots, args.seed if args.seed is not None else _parse_int(values["seed"], "seed")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _write_table(args, entries, columns: str, rows: list[str], elapsed: float) -> int:
    # the CSV layout of simulate and sweep: manifest, column line, rows
    lines = _manifest_lines(args.command, entries) + [columns] + rows
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"{args.command} finished in {elapsed:.3f} s", file=sys.stderr)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    with open(args.weights_file, "r", encoding="utf-8-sig") as handle:
        text = handle.read()
    weights = network.validate_weights(_parse_floats(text, args.weights_file))
    header = _manifest_lines("synthesize", [("weights", _fmt_list(weights))])
    chain = network.weight_chain(weights)
    netlist = "\n".join(header) + "\n" + network.mesh_to_netlist(chain)
    # every residual is measured, element by element in O(M), on the network
    # the written file describes
    written = network.parse_netlist(netlist)
    column_gap = np.abs(network.first_column(written) - np.sqrt(weights))
    residuals = (
        ("first-column residual", float(np.max(column_gap))),
        ("unitarity residual", network.block_unitarity_defect(written)),
        ("mesh round-trip residual", network.mesh_gap(written, chain)),
    )
    failed = [(name, value) for name, value in residuals if not value <= RESIDUAL_TOL]
    for name, value in failed:
        print(
            f"error: {name} = {_fmt(value)} exceeds {RESIDUAL_TOL}; no file written",
            file=sys.stderr,
        )
    if failed:
        return EXIT_VALIDATION

    prefix = args.out or "network"
    _write_text(f"{prefix}.netlist", netlist)
    print(f"modes = {weights.size}")
    for name, value in residuals:
        print(f"{name} = {_fmt(value)}")
    print(f"wrote {prefix}.netlist")
    return EXIT_OK


def cmd_simulate(args) -> int:
    values = _read_config_file(args.config, CONFIG_KEYS)
    squeeze = _parse_floats(values["squeeze"], "squeeze")
    if len(squeeze) not in (1, 2):
        raise ValueError("squeeze takes one or two comma-separated numbers (r[,theta])")
    config = metrology.ExperimentConfig(
        _parse_floats(values["weights"], "weights"),
        _parse_floats(values["true_phases"], "true_phases"),
        SqueezeParameter(*squeeze),
        *_shots_and_seed(values, args),
    )
    started = time.perf_counter()
    run = metrology.run_protocol(config)
    elapsed = time.perf_counter() - started
    if not run.regime_ok:
        print(
            f"warning: regime ratio {run.regime_ratio:.3f} outside the "
            f"small-phase expansion (threshold {metrology.REGIME_THRESHOLD})",
            file=sys.stderr,
        )
    entries = [
        ("weights", _fmt_list(config.weights)),
        ("true_phases", _fmt_list(config.true_phases)),
        ("squeeze", _fmt_list([config.squeeze.r, config.squeeze.theta])),
        ("shots", str(config.shots)),
        ("seed", str(config.seed)),
    ]
    row = _fmt_list([run.phi_bar_true, run.p_exact, run.p_hat, run.phi_hat, run.regime_ratio])
    columns = "phiBar_true,p_exact,p_hat,phi_hat,regime_ratio"
    return _write_table(args, entries, columns, [row], elapsed)


def cmd_sweep(args) -> int:
    shots, seed = _shots_and_seed(_read_config_file(args.config, ("shots", "seed")), args)
    nbars = _parse_floats(args.nbars, "--nbars")
    started = time.perf_counter()
    result = metrology.scaling_sweep(
        nbars,
        shots,
        args.repetitions,
        seed,
        bias_product=args.bias_product,
        baseline=args.baseline,
    )
    elapsed = time.perf_counter() - started
    entries = [
        ("nbars", _fmt_list(nbars)),
        ("shots", str(shots)),
        ("repetitions", str(args.repetitions)),
        ("bias_product", _fmt(args.bias_product)),
        ("baseline", args.baseline),
        ("seed", str(seed)),
    ]
    rows = [
        f"{_fmt(nbar)},{shots},"
        + _fmt_list([pt.delta_phi_sq, pt.heisenberg_bound, pt.delta_phi_sq / pt.heisenberg_bound])
        for nbar, pt in zip(result.nbars, result.results)
    ]
    rows.append(f"slope={_fmt(result.slope)}")
    columns = "nbar,nu,delta_phi_sq_empirical,heisenberg_prediction,ratio"
    return _write_table(args, entries, columns, rows, elapsed)


def cmd_validate(args) -> int:
    # imported here, so the other commands never load the verifier suites
    from . import validate

    suite = validate.full_suite if args.level == "full" else validate.quick_suite
    results = suite(args.seed)
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

    p_sim = sub.add_parser("simulate", help="one protocol run as a CSV row")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", help="CSV path (default: stdout)")

    p_swp = sub.add_parser("sweep", help="scaling sweep of the estimation variance")
    p_swp.add_argument("--config", required=True, help="supplies shots and seed")
    p_swp.add_argument("--seed", type=int)
    p_swp.add_argument("--nbars", default="0.5,1,2,4", help="comma-separated mean photon numbers")
    p_swp.add_argument("--repetitions", type=int, default=200)
    p_swp.add_argument("--bias-product", type=float, default=0.05, dest="bias_product")
    p_swp.add_argument("--baseline", choices=("squeezed", "coherent"), default="squeezed")
    p_swp.add_argument("--jobs", type=int, default=1, help="ignored; sampling is vectorised")
    p_swp.add_argument("--out", help="CSV path (default: stdout)")

    p_val = sub.add_parser("validate", help="run the self-validation suites")
    p_val.add_argument("level", choices=("quick", "full"))
    p_val.add_argument("--seed", type=int, default=0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import; it holds no handler and
    # parse_args fills a fresh namespace, so no call sees another's arguments
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the handler is looked up at call time, so a replaced cmd_* is honoured
    handler = {
        "synthesize": cmd_synthesize,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "validate": cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a RegimeError (a ValueError) is the small-phase refusal; the rest
        # is bad input: the library's validation and truncation errors,
        # inputs too large for the host's memory (simulate builds dense
        # M x M arrays, sweep holds --repetitions counts per point), and
        # files that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME if isinstance(exc, metrology.RegimeError) else EXIT_BAD_INPUT


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
