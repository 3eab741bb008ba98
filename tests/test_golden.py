"""Golden outputs: the sweep CSVs of ``sqzmet sweep``, compared byte for byte.

Each file under ``tests/golden/`` is what ``sqzmet sweep`` writes for one
baseline and repetition count at the default nbars, 1e5 shots and the
acceptance seed.  A change that alters one must regenerate it and say which
file changed and why.  Regenerate every file, from the root of a checkout:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import tempfile

import pytest

from sqzmet import cli
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


def _write_sweep(out_dir: str, baseline: str, repetitions: int) -> str:
    out = os.path.join(out_dir, _file_name(baseline, repetitions))
    with tempfile.TemporaryDirectory() as config_dir:
        config = os.path.join(config_dir, "sweep.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(f"shots = {SHOTS}\nseed = {MASTER_SEED}\n")
        argv = ["sweep", "--config", config, "--repetitions", str(repetitions),
                "--baseline", baseline, "--out", out]
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"sqzmet {' '.join(argv)} exited with {code}")
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


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for sweep in SWEEPS:
        print(_write_sweep(GOLDEN_DIR, *sweep))
