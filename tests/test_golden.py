"""Golden outputs: the sweep and ``simulate`` CSVs and ``synthesize`` netlists.

Each ``sweep-*.csv`` under ``tests/golden/`` is what ``sqzmet sweep`` writes
for one baseline and repetition count at the default nbars, 1e5 shots and the
acceptance seed.  Each ``simulate-*.csv`` is what ``sqzmet simulate`` writes
for one of the configs in ``SIMULATE_CONFIGS``.  Each
``synthesize-M<M>.weights`` is a stored Dirichlet draw of M weights, and
``synthesize-M<M>.netlist`` and ``.out`` are the netlist and stdout
``sqzmet synthesize`` writes for it.  ``validate`` stdout has no golden file:
its detail numbers are the rounding noise of the same BLAS and libm kernels
the tolerances below allow for, so a stored copy would pin one host's last
bits, not the program's output.  The weight files are inputs: the
regeneration command writes one only where it is missing, so a change in
numpy's random stream cannot move them.  A change that alters an output must
regenerate it and say which file changed and why.  Regenerate every output,
from the root of a checkout:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import math
import os
import tempfile

import numpy as np
import pytest

from sqzmet import cli, mesh_to_netlist, parse_netlist
from test_acceptance import MASTER_SEED

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SHOTS = 10 ** 5
SWEEPS = [
    (baseline, repetitions)
    for baseline in ("squeezed", "coherent")
    for repetitions in (200, 2000)
]
# the fitted slope takes its logs from the host's libm log, whose last bit may
# differ between C libraries, so the slope may differ in its last bits between
# hosts; its sums are rounded once each by math.fsum.  Every other byte comes
# from numpy's binomial stream, math.sin and correctly rounded operations in a
# fixed order
SLOPE_REL_TOL = 1e-12


def _file_name(baseline: str, repetitions: int) -> str:
    return f"sweep-{baseline}-R{repetitions}.csv"


def _run_with_config(argv: list[str], config_text: str) -> None:
    # run sqzmet with argv plus --config, a temporary file holding config_text
    with tempfile.TemporaryDirectory() as config_dir:
        config = os.path.join(config_dir, "run.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(config_text)
        argv = argv + ["--config", config]
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"sqzmet {' '.join(argv)} exited with {code}")


def _write_sweep(out_dir: str, baseline: str, repetitions: int) -> str:
    out = os.path.join(out_dir, _file_name(baseline, repetitions))
    argv = ["sweep", "--repetitions", str(repetitions), "--baseline", baseline, "--out", out]
    _run_with_config(argv, f"shots = {SHOTS}\nseed = {MASTER_SEED}\n")
    return out


def _split_slope(path: str) -> tuple[bytes, bytes]:
    with open(path, "rb") as handle:
        body, _, last = handle.read().rpartition(b"slope=")
    return body, last


@pytest.mark.parametrize("baseline,repetitions", SWEEPS)
def test_sweep_csv_matches_golden(tmp_path, baseline, repetitions):
    body, slope = _split_slope(_write_sweep(str(tmp_path), baseline, repetitions))
    golden_body, golden_slope = _split_slope(
        os.path.join(GOLDEN_DIR, _file_name(baseline, repetitions))
    )
    assert body == golden_body
    # the value may move within the tolerance; the line keeps its format
    assert slope == repr(float(slope)).encode() + b"\n"
    assert float(slope) == pytest.approx(float(golden_slope), rel=SLOPE_REL_TOL)


SIMULATE_CONFIGS = {
    # acceptance criterion 9's config
    "criterion9": (
        "weights = 0.25,0.75\n"
        "true_phases = 0.08,0.02\n"
        f"squeeze = {math.asinh(1.0)!r}\n"
        "shots = 20000\n"
        f"seed = {MASTER_SEED}\n"
    ),
    # three modes, a negative phase and a squeezing phase
    "M3": (
        "weights = 0.2, 0.3, 0.5\n"
        "true_phases = 0.03, -0.01, 0.02\n"
        "squeeze = 1.1, 0.7\n"
        "shots = 50000\n"
        f"seed = {MASTER_SEED}\n"
    ),
}
SIMULATE_COLUMNS = b"phiBar_true,p_exact,p_hat,phi_hat,regime_ratio"
# p_hat is a count over shots, exact on any host.  p_exact and phiBar_true
# come from numpy reductions whose BLAS kernel may differ between hosts (one
# OpenBLAS build rounds the M = 16 product without fused multiply-add and the
# other sizes with it), and phi_hat and regime_ratio go through libm's sinh
# and asin, whose last bit may differ between C libraries
SIMULATE_REL_TOL = 1e-15


def _simulate_path(name: str, directory: str = GOLDEN_DIR) -> str:
    return os.path.join(directory, f"simulate-{name}.csv")


def _write_simulate(out_dir: str, name: str) -> str:
    out = _simulate_path(name, out_dir)
    _run_with_config(["simulate", "--out", out], SIMULATE_CONFIGS[name])
    return out


@pytest.mark.parametrize("name", sorted(SIMULATE_CONFIGS))
def test_simulate_csv_matches_golden(tmp_path, name):
    got = _read(_write_simulate(str(tmp_path), name)).split(b"\n")
    want = _read(_simulate_path(name)).split(b"\n")
    # the manifest, the column line, one row and the final newline
    assert len(got) == len(want)
    assert got[:-2] == want[:-2] and got[-1] == want[-1] == b""
    assert want[-3] == SIMULATE_COLUMNS
    got_row, want_row = got[-2].split(b","), want[-2].split(b",")
    assert len(got_row) == len(want_row) == 5
    # p_hat, the third column, byte for byte; the others within the tolerance
    assert got_row[2] == want_row[2]
    for got_value, want_value in zip(got_row[:2] + got_row[3:], want_row[:2] + want_row[3:]):
        assert got_value == repr(float(got_value)).encode()
        assert float(got_value) == pytest.approx(float(want_value), rel=SIMULATE_REL_TOL)


SYNTHESIZE_MODES = (2, 8, 16, 64)
# the netlist angles come from np.arctan2, whose SIMD kernel is not libm's
# atan2: on an AVX-512 Xeon with numpy 2.4.6 the two differed on about 5% of
# 200000 random inputs, by at most 1 ulp, so an angle may move by 1 ulp between
# hosts; every other netlist byte is exact
ANGLE_ULPS = 1
# the three residuals printed on stdout are computed from those angles, so
# their last bits may move with them; each must stay within this bound
RESIDUAL_BOUND = 1e-12
RESIDUAL_NAMES = (b"first-column residual", b"unitarity residual", b"mesh round-trip residual")


def _synthesize_path(modes: int, suffix: str, directory: str = GOLDEN_DIR) -> str:
    return os.path.join(directory, f"synthesize-M{modes}.{suffix}")


def _synthesize(out_dir: str, modes: int) -> bytes:
    # run inside out_dir with a relative prefix, so stdout's "wrote" line
    # names no directory; return that stdout
    argv = ["synthesize", _synthesize_path(modes, "weights"), "--out", f"synthesize-M{modes}"]
    stdout, cwd = io.StringIO(), os.getcwd()
    os.chdir(out_dir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"sqzmet {' '.join(argv)} exited with {code}")
    return stdout.getvalue().encode()


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _assert_netlist_matches(got: bytes, want: bytes):
    got_lines, want_lines = got.split(b"\n"), want.split(b"\n")
    assert len(got_lines) == len(want_lines)
    for got_line, want_line in zip(got_lines, want_lines):
        if not want_line.startswith(b"pair "):
            assert got_line == want_line
            continue
        got_tokens, want_tokens = got_line.split(b" "), want_line.split(b" ")
        # every token but the angle, the fifth of "pair i j / angle / phase"
        assert got_tokens[:4] + got_tokens[5:] == want_tokens[:4] + want_tokens[5:]
        angle, golden = float(got_tokens[4]), float(want_tokens[4])
        assert got_tokens[4] == repr(angle).encode()
        assert abs(angle - golden) <= ANGLE_ULPS * math.ulp(golden)


def _assert_stdout_matches(got: bytes, want: bytes):
    got_lines, want_lines = got.split(b"\n"), want.split(b"\n")
    assert len(got_lines) == len(want_lines)
    for got_line, want_line in zip(got_lines, want_lines):
        name, _, value = want_line.partition(b" = ")
        if name not in RESIDUAL_NAMES:
            assert got_line == want_line
            continue
        got_name, _, got_value = got_line.partition(b" = ")
        assert got_name == name
        assert float(got_value) <= RESIDUAL_BOUND and float(value) <= RESIDUAL_BOUND


@pytest.mark.parametrize("modes", SYNTHESIZE_MODES)
def test_synthesize_matches_golden(tmp_path, modes):
    stdout = _synthesize(str(tmp_path), modes)
    _assert_stdout_matches(stdout, _read(_synthesize_path(modes, "out")))
    _assert_netlist_matches(
        _read(_synthesize_path(modes, "netlist", str(tmp_path))),
        _read(_synthesize_path(modes, "netlist")),
    )


@pytest.mark.parametrize("modes", SYNTHESIZE_MODES)
def test_golden_netlist_parses_back_to_its_bytes(modes):
    # a host-independent check: parsing and rendering are exact both ways
    with open(_synthesize_path(modes, "netlist"), encoding="utf-8") as handle:
        body = "".join(line for line in handle if not line.startswith("#"))
    mesh = parse_netlist(body)
    assert len(mesh.elements) == modes - 1 and mesh.output_phases.size == modes
    assert mesh_to_netlist(mesh) == body


def _write_missing_weights():
    # one generator for every size, seeded once; an existing file is kept
    rng = np.random.default_rng(MASTER_SEED)
    for modes in SYNTHESIZE_MODES:
        weights = rng.dirichlet(np.ones(modes)).tolist()
        path = _synthesize_path(modes, "weights")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(" ".join(map(repr, weights)) + "\n")
            print(path)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for sweep in SWEEPS:
        print(_write_sweep(GOLDEN_DIR, *sweep))
    for name in SIMULATE_CONFIGS:
        print(_write_simulate(GOLDEN_DIR, name))
    _write_missing_weights()
    for modes in SYNTHESIZE_MODES:
        stdout = _synthesize(GOLDEN_DIR, modes)
        with open(_synthesize_path(modes, "out"), "wb") as handle:
            handle.write(stdout)
        print(_synthesize_path(modes, "netlist"))
        print(_synthesize_path(modes, "out"))
