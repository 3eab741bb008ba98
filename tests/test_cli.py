import math
from pathlib import Path

import numpy as np
import pytest

import sqzmet.metrology
import sqzmet.network
from sqzmet import RotationMesh, cli, parse_netlist


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# reference single-channel run\n"
        "weights = 1.0\n"
        "true_phases = 0.1\n"
        f"squeeze = {math.asinh(1.0)!r}\n"
        "shots = 10000\n"
        "seed = 42\n"
    )
    return str(path)


def read_csv(path):
    header = None
    rows = []
    manifest = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            manifest.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line)
    return manifest, header, rows


class TestSynthesize:
    def test_writes_netlist_and_unitary(self, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text("0.5, 0.5\n")
        prefix = tmp_path / "net"
        code = cli.main(["synthesize", str(weights), "--out", str(prefix)])
        assert code == 0
        out = capsys.readouterr().out
        printed = dict(
            line.split(" = ") for line in out.splitlines() if " = " in line
        )
        assert float(printed["first-column residual"]) <= 1e-12
        assert float(printed["unitarity residual"]) <= 1e-12
        netlist = (tmp_path / "net.netlist").read_text()
        body = "\n".join(l for l in netlist.splitlines() if not l.startswith("#"))
        mesh = parse_netlist(body)
        assert len(mesh.elements) == 1
        assert abs(mesh.elements[0].theta) == pytest.approx(math.pi / 4, abs=1e-12)
        dump = (tmp_path / "net.unitary").read_text()
        rows = [l for l in dump.splitlines() if not l.startswith("#")]
        matrix = np.array([[complex(tok) for tok in row.split()] for row in rows])
        assert np.allclose(matrix, [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]])

    def test_identity_weights_empty_mesh(self, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text("1 0 0\n")
        code = cli.main(["synthesize", str(weights), "--out", str(tmp_path / "id")])
        assert code == 0
        out = capsys.readouterr().out
        assert "first-column residual = 0.0" in out
        assert "unitarity residual = 0.0" in out
        body = "\n".join(
            l
            for l in (tmp_path / "id.netlist").read_text().splitlines()
            if not l.startswith("#")
        )
        mesh = parse_netlist(body)
        assert mesh.elements == ()
        assert np.allclose(mesh.output_phases, 0.0)

    def test_negative_weight_exits_two(self, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text("1.2, -0.2\n")
        assert cli.main(["synthesize", str(weights)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert cli.main(["synthesize", str(tmp_path / "nope.txt")]) == 2

    def test_non_finite_mesh_exits_one_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        real = sqzmet.network.reck_decompose

        def nan_mesh(unitary):
            mesh = real(unitary)
            return RotationMesh(mesh.elements, np.full(mesh.dim, np.nan))

        monkeypatch.setattr(sqzmet.network, "reck_decompose", nan_mesh)
        weights = tmp_path / "w.txt"
        weights.write_text("0.25 0.25 0.5\n")
        prefix = tmp_path / "net"
        assert cli.main(["synthesize", str(weights), "--out", str(prefix)]) == 1
        assert "mesh round-trip residual = nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [weights]


class TestSimulate:
    def test_row_values(self, tmp_path, config_file, capsys):
        out = tmp_path / "row.csv"
        assert cli.main(["simulate", "--config", config_file, "--out", str(out)]) == 0
        manifest, header, rows = read_csv(out)
        assert header == ["phiBar_true", "p_exact", "p_hat", "phi_hat", "regime_ratio"]
        assert len(rows) == 1
        phi_bar, p_exact, p_hat, phi_hat, ratio = map(float, rows[0].split(","))
        assert phi_bar == pytest.approx(0.1)
        assert p_exact == pytest.approx(0.962369108664265, abs=1e-9)
        assert abs(p_hat - p_exact) < 0.02
        assert ratio == pytest.approx(0.1)
        assert any("seed = 42" in line for line in manifest)

    def test_zero_phase(self, tmp_path, config_file):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "weights=1.0\ntrue_phases=0.0\nsqueeze=0.8813735870195429\n"
            "shots=100\nseed=1\n"
        )
        out = tmp_path / "zero.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        phi_bar, p_exact, p_hat, phi_hat, _ = map(float, rows[0].split(","))
        assert p_exact == 1.0 and p_hat == 1.0 and phi_hat == 0.0

    def test_byte_determinism(self, tmp_path, config_file):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cli.main(["simulate", "--config", config_file, "--out", str(out_a)])
        cli.main(["simulate", "--config", config_file, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_env_override(self, tmp_path, config_file, monkeypatch):
        # the config file and --seed are the only settings; the environment
        # changes nothing
        plain = tmp_path / "plain.csv"
        env = tmp_path / "env.csv"
        assert cli.main(["simulate", "--config", config_file, "--out", str(plain)]) == 0
        monkeypatch.setenv("SQZMET_SHOTS", "500")
        monkeypatch.setenv("SQZMET_ENGINE", "fock")
        assert cli.main(["simulate", "--config", config_file, "--out", str(env)]) == 0
        assert env.read_bytes() == plain.read_bytes()

    def test_cutoff_is_not_a_setting(self, tmp_path, config_file, capsys):
        cfg = tmp_path / "cut.cfg"
        text = Path(config_file).read_text()
        cfg.write_text(text + "cutoff = 2\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "unknown key 'cutoff'" in capsys.readouterr().err
        cfg.write_text(text + "engine = fock\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "unknown key 'engine'" in capsys.readouterr().err
        for flag in (["--cutoff", "2"], ["--engine", "gaussian"]):
            with pytest.raises(SystemExit) as info:
                cli.main(["simulate", "--config", config_file] + flag)
            assert info.value.code == 2

    def test_seed_flag_overrides_config(self, tmp_path, config_file):
        out = tmp_path / "s.csv"
        cli.main(["simulate", "--config", config_file, "--seed", "7", "--out", str(out)])
        manifest, _, _ = read_csv(out)
        assert any("seed = 7" in line for line in manifest)

    def test_regime_warning_still_succeeds(self, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(
            "weights=1.0\ntrue_phases=1.0\nsqueeze=1.2\nshots=100\nseed=1\n"
        )
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert "regime" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("weights=0.5,0.6\ntrue_phases=0,0\nsqueeze=1\nshots=10\nseed=1\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        cfg.write_text("unknown_key=1\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert cli.main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2


class TestSweep:
    def test_small_sweep_slope_and_footer(self, tmp_path, config_file):
        out = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "sweep",
                "--config",
                config_file,
                "--nbars",
                "0.5,1,2,4",
                "--repetitions",
                "60",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest, header, rows = read_csv(out)
        assert header == [
            "nbar",
            "nu",
            "delta_phi_sq_empirical",
            "heisenberg_prediction",
            "ratio",
        ]
        assert rows[-1].startswith("slope=")
        slope = float(rows[-1].split("=", 1)[1])
        assert -2.4 < slope < -1.6
        assert len(rows) == 5

    def test_jobs_do_not_change_bytes(self, tmp_path, config_file):
        out_serial = tmp_path / "serial.csv"
        out_parallel = tmp_path / "parallel.csv"
        base = [
            "sweep", "--config", config_file, "--nbars", "1,2",
            "--repetitions", "40",
        ]
        assert cli.main(base + ["--jobs", "1", "--out", str(out_serial)]) == 0
        assert cli.main(base + ["--jobs", "4", "--out", str(out_parallel)]) == 0
        assert out_serial.read_bytes() == out_parallel.read_bytes()

    def test_empty_nbars_exits_two(self, config_file):
        assert cli.main(["sweep", "--config", config_file, "--nbars", ""]) == 2

    def test_regime_refusal_exits_three(self, config_file, tmp_path):
        args = [
            "sweep", "--config", config_file, "--nbars", "1,2",
            "--repetitions", "10", "--bias-product", "0.5",
        ]
        assert cli.main(args) == 3
        out = tmp_path / "forced.csv"
        assert cli.main(args + ["--force", "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--bias-product", "0"], "zero sample variance at nbar = 0.5"),
            (["--bias-product", "nan"], "bias_product must be finite"),
            (["--nbars", "nan,1"], "nbar = nan"),
            (["--nbars", "1,inf", "--baseline", "coherent"], "nbar = inf"),
        ],
    )
    def test_unfittable_sweep_exits_two_and_writes_nothing(
        self, tmp_path, config_file, capsys, flags, message
    ):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", config_file, "--repetitions", "10", "--out", str(out)]
        assert cli.main(argv + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_coherent_baseline_slope(self, tmp_path, config_file):
        out = tmp_path / "coh.csv"
        code = cli.main(
            [
                "sweep", "--config", config_file, "--nbars", "0.5,1,2,4",
                "--repetitions", "60", "--baseline", "coherent", "--out", str(out),
            ]
        )
        assert code == 0
        slope = float(read_csv(out)[2][-1].split("=", 1)[1])
        assert -1.4 < slope < -0.6


class TestValidate:
    def test_quick_suite_passes(self, capsys):
        assert cli.main(["validate", "quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS cross-engine equality" in out
        assert "FAIL" not in out

    def test_corrupted_engine_is_caught(self, capsys, monkeypatch):
        # simulate a sign flip in the covariance engine; the cross-engine
        # check must fail and be named first
        real = sqzmet.metrology.exact_survival_probability

        def corrupted(weights, phases, squeeze, engine="gaussian"):
            p, used = real(weights, phases, squeeze, engine=engine)
            if engine == "gaussian":
                p = 1.0 - p
            return p, used

        monkeypatch.setattr(
            sqzmet.metrology, "exact_survival_probability", corrupted
        )
        assert cli.main(["validate", "quick"]) == 1
        captured = capsys.readouterr()
        assert "FAIL cross-engine equality" in captured.out
        assert "cross-engine equality" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "{config}"],
        ["sweep", "--config", "{config}", "--repetitions", "10"],
        ["synthesize", "{weights}"],
    ],
    ids=["simulate", "sweep", "synthesize"],
)
def test_unwritable_out_exits_two(tmp_path, config_file, capsys, argv):
    weights = tmp_path / "w.txt"
    weights.write_text("0.5 0.5\n")
    argv = [arg.format(config=config_file, weights=weights) for arg in argv]
    out = tmp_path / "missing" / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "missing" in err


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["explode"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--version"])
        assert "sqzmet" in capsys.readouterr().out
