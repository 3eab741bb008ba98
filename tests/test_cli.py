import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqzmet.metrology
import sqzmet.network
from sqzmet import RotationMesh, cli, parse_netlist, recompose
from conftest import nan_splitter_at


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


def source_env():
    """This process's environment, with this checkout's sources first on PYTHONPATH."""
    source_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([source_root, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


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
    def test_writes_netlist(self, tmp_path, capsys):
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
        assert float(printed["mesh round-trip residual"]) <= 1e-12
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.netlist", "w.txt"]
        mesh = parse_netlist((tmp_path / "net.netlist").read_text())
        assert mesh.elements.tolist() == [(0, pytest.approx(math.pi / 4, abs=1e-12), 0.0)]
        assert np.array_equal(mesh.output_phases, [0.0, 0.0])
        half = 2 ** -0.5
        assert np.allclose(recompose(mesh), [[half, -half], [half, half]], atol=1e-15)

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
        assert len(mesh.elements) == 0
        assert np.allclose(mesh.output_phases, 0.0)

    def test_negative_weight_exits_two(self, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text("1.2, -0.2\n")
        assert cli.main(["synthesize", str(weights)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert cli.main(["synthesize", str(tmp_path / "nope.txt")]) == 2

    def test_bad_token_names_the_file(self, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text("0.5, abc\n")
        assert cli.main(["synthesize", str(weights), "--out", str(tmp_path / "net")]) == 2
        assert f"bad value for {weights}: 'abc'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [weights]

    def test_non_finite_mesh_exits_one_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        real = sqzmet.network.weight_chain

        def nan_mesh(weights):
            mesh = real(weights)
            return RotationMesh(mesh.elements, np.full_like(mesh.output_phases, np.nan))

        monkeypatch.setattr(sqzmet.network, "weight_chain", nan_mesh)
        weights = tmp_path / "w.txt"
        weights.write_text("0.25 0.25 0.5\n")
        prefix = tmp_path / "net"
        assert cli.main(["synthesize", str(weights), "--out", str(prefix)]) == 1
        assert "first-column residual = nan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [weights]

    def test_netlist_has_at_most_m_minus_one_elements(self, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text(" ".join([repr(1 / 128)] * 128) + "\n")
        prefix = tmp_path / "net"
        assert cli.main(["synthesize", str(weights), "--out", str(prefix)]) == 0
        lines = (tmp_path / "net.netlist").read_text().splitlines()
        assert 0 < sum(line.startswith("pair ") for line in lines) <= 127

    def test_one_ulp_moves_no_angle(self, tmp_path, capsys):
        # a mesh whose rotations act on rounding noise would amplify a
        # last-bit change of one weight into an O(1) change of its angles
        rng = np.random.default_rng(6)

        def angles(weights, name):
            path = tmp_path / f"{name}.txt"
            path.write_text(" ".join(repr(float(w)) for w in weights) + "\n")
            assert cli.main(["synthesize", str(path), "--out", str(tmp_path / name)]) == 0
            mesh = parse_netlist((tmp_path / f"{name}.netlist").read_text())
            return mesh.elements["mode"].tolist(), mesh.elements["theta"]

        for _ in range(100):
            dim = int(rng.integers(3, 17))
            weights = rng.dirichlet(np.ones(dim))
            moved = weights.copy()
            k = int(rng.integers(dim))
            moved[k] = np.nextafter(moved[k], 1.0)
            modes, thetas = angles(weights, "base")
            moved_modes, moved_thetas = angles(moved, "moved")
            assert moved_modes == modes
            assert np.max(np.abs(moved_thetas - thetas)) <= 1e-12

    def test_large_m_runs_no_dense_matrix(self, tmp_path, capsys, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("synthesize built a dense matrix")

        for name in ("recompose", "embed_weights_unitary", "unitarity_defect"):
            monkeypatch.setattr(sqzmet.network, name, dense)
        modes = 10_000
        weights = tmp_path / "w.txt"
        w = np.random.default_rng(3).dirichlet(np.ones(modes))
        weights.write_text(" ".join(repr(float(x)) for x in w) + "\n")
        assert cli.main(["synthesize", str(weights), "--out", str(tmp_path / "net")]) == 0
        out = capsys.readouterr().out
        printed = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        assert printed["modes"] == str(modes)
        for name in ("first-column residual", "unitarity residual", "mesh round-trip residual"):
            assert float(printed[name]) <= 1e-12
        lines = (tmp_path / "net.netlist").read_text().splitlines()
        assert sum(line.startswith("pair ") for line in lines) == modes - 1

    def test_lossy_netlist_writer_exits_one_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        real = sqzmet.network.mesh_to_netlist

        def six_digit_angles(mesh):
            coarse = mesh.elements.copy()
            coarse["theta"] = [float(f"{theta:.6g}") for theta in coarse["theta"].tolist()]
            return real(RotationMesh(coarse, mesh.output_phases))

        monkeypatch.setattr(sqzmet.network, "mesh_to_netlist", six_digit_angles)
        weights = tmp_path / "w.txt"
        weights.write_text("0.1 0.2 0.3 0.4\n")
        assert cli.main(["synthesize", str(weights), "--out", str(tmp_path / "net")]) == 1
        captured = capsys.readouterr()
        assert "error: mesh round-trip residual = " in captured.err
        assert "no file written" in captured.err
        assert captured.out == ""
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

    @pytest.mark.parametrize("modes", [128, 512])
    def test_many_modes_match_the_closed_form_byte_for_byte(self, tmp_path, modes):
        # equal weights through the covariance route, at the benchmark's largest
        # mode count and four times it: two runs write the same bytes, and
        # p_exact is the closed form 1/|1 + nbar (1 - m^2)|, m = sum_j w_j e^(-i phi_j)
        weights = np.full(modes, 1.0 / modes)
        phases = [0.02 * ((7 * j) % 11 - 5) for j in range(modes)]
        cfg = tmp_path / "many.cfg"
        cfg.write_text(
            "weights = " + ", ".join(map(repr, weights.tolist())) + "\n"
            "true_phases = " + ", ".join(map(repr, phases)) + "\n"
            "squeeze = 0.8813735870195429\nshots = 20000\nseed = 20260808\n"
        )
        runs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in runs:
            assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert runs[0].read_bytes() == runs[1].read_bytes()
        _, header, rows = read_csv(runs[0])
        p_exact = float(dict(zip(header, rows[0].split(",")))["p_exact"])
        m = np.sum(weights * np.exp(-1j * np.array(phases)))
        nbar = math.sinh(0.8813735870195429) ** 2
        assert abs(p_exact - 1.0 / abs(1.0 + nbar * (1.0 - m * m))) <= 1e-9

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

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_seed_flag_overrides_config(self, tmp_path, config_file, command):
        # --seed 7 on the fixture's seed = 42 runs exactly as a file with seed = 7
        flagged, seven = tmp_path / "flagged.csv", tmp_path / "seven.csv"
        argv = [command, "--config", config_file, "--seed", "7", "--out", str(flagged)]
        assert cli.main(argv) == 0
        manifest, _, _ = read_csv(flagged)
        assert "# seed = 7" in manifest
        cfg = tmp_path / "seven.cfg"
        cfg.write_text(Path(config_file).read_text().replace("seed = 42", "seed = 7"))
        assert cli.main([command, "--config", str(cfg), "--out", str(seven)]) == 0
        assert flagged.read_bytes() == seven.read_bytes()

    def test_regime_warning_still_succeeds(self, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(
            "weights=1.0\ntrue_phases=1.0\nsqueeze=1.2\nshots=100\nseed=1\n"
        )
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert "regime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "squeeze, message",
        [
            ("800", "r = 800.0 outside [0, 177.4456"),
            ("300", "r = 300.0 outside [0, 177.4456"),
            ("177", "nbar = sinh(r)^2 = 1.375e+153, above NBAR_MAX = 1e+100"),
            ("1e-60", "nbar = sinh(r)^2 = 1.000e-120, below NBAR_MIN = 1e-100"),
            ("100", "purity defect inf"),
            ("1, nan", "squeezing phase must be finite"),
            ("1, 0, 2", "squeeze takes one or two comma-separated numbers"),
        ],
    )
    def test_unrepresentable_squeezing_exits_two(self, tmp_path, capsys, squeeze, message):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(
            f"weights=1.0\ntrue_phases=0.01\nsqueeze={squeeze}\nshots=100\nseed=1\n"
        )
        out = tmp_path / "row.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_phase_past_phase_max_exits_two(self, tmp_path, capsys):
        # finite phases past PHASE_MAX used to exit 0 with regime_ratio inf
        cfg = tmp_path / "far.cfg"
        cfg.write_text(
            "weights=0.5,0.5\ntrue_phases=1e308,-1e308\nsqueeze=1.5\nshots=100\nseed=1\n"
        )
        out = tmp_path / "row.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "PHASE_MAX = 1e+100, got max |phi| = 1e+308" in err and "Traceback" not in err
        assert not out.exists()

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
        out = tmp_path / "refused.csv"
        assert cli.main(args + ["--out", str(out)]) == 3
        assert not out.exists()

    def test_regime_refusal_offers_no_override(self, config_file, capsys):
        args = ["sweep", "--config", config_file, "--bias-product", "0.5"]
        assert cli.main(args) == 3
        err = capsys.readouterr().err
        assert "outside the small-phase regime" in err and "--force" not in err
        # argparse refuses --force as an unknown option, a usage error
        with pytest.raises(SystemExit) as exit_info:
            cli.main(args + ["--force"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("bias_product", ["-0.5", "-0.3", "0.3"])
    def test_negative_bias_outside_regime_exits_three(
        self, config_file, tmp_path, capsys, bias_product
    ):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", "--config", config_file, "--nbars", "1,2",
            "--repetitions", "10", "--bias-product", bias_product, "--out", str(out),
        ]
        assert cli.main(args) == 3
        assert f"ratio {abs(float(bias_product))}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("baseline", ["squeezed", "coherent"])
    def test_sign_of_the_bias_leaves_the_rows(self, tmp_path, config_file, baseline):
        base = [
            "sweep", "--config", config_file, "--nbars", "0.5,1,2",
            "--repetitions", "40", "--baseline", baseline,
        ]
        paths = {}
        for bias in ("0.05", "-0.05"):
            paths[bias] = tmp_path / f"{bias}.csv"
            assert cli.main(base + ["--bias-product", bias, "--out", str(paths[bias])]) == 0
        _, header, rows = read_csv(paths["0.05"])
        assert read_csv(paths["-0.05"])[1:] == (header, rows)

    def test_bad_nbars_token_is_named(self, config_file, capsys):
        assert cli.main(["sweep", "--config", config_file, "--nbars", "1,x,2"]) == 2
        assert "bad value for --nbars: 'x'" in capsys.readouterr().err

    def test_single_nbar_writes_nan_slope(self, tmp_path, config_file):
        out = tmp_path / "one.csv"
        argv = ["sweep", "--config", config_file, "--nbars", "1", "--repetitions", "20"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        rows = read_csv(out)[2]
        assert len(rows) == 2
        assert rows[-1] == "slope=nan"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--bias-product", "0"], "zero sample variance at nbar = 0.5"),
            (["--bias-product", "nan"], "bias_product must be finite"),
            (["--nbars", "nan,1"], "nbar = nan"),
            (["--nbars", "1,inf", "--baseline", "coherent"], "nbar = inf"),
            (["--nbars", "1e200,1e201"], "nbar = 1e+200"),
            (["--nbars", "1e-300,1e-299"], "nbar = 1e-300"),
            (["--nbars", "1,1"], "nbars [1.0, 1.0] have no spread"),
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

    def test_coherent_sweep_at_a_large_bias_exits_three_and_writes_nothing(self, tmp_path, config_file):
        # the coherent law stays in [0, 1] there, but its ratio to the
        # Heisenberg reference does not mean anything outside the regime
        out = tmp_path / "coh.csv"
        argv = ["sweep", "--config", config_file, "--repetitions", "10", "--out", str(out)]
        assert cli.main(argv + ["--baseline", "coherent", "--bias-product", "2"]) == 3
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


def _nan_odd_terms(real):
    def stand_in(*args, **kwargs):
        series = real(*args, **kwargs)
        terms = series.terms.copy()
        terms[1::2] = math.nan
        return series._replace(terms=terms)

    return stand_in


# per bounded check: its name, quantity and bound, and a stand-in that turns
# its defect, and no other check's, into NaN
NAN_DEFECTS = [
    ("cross-engine equality", "max |gaussian - fock|", "CROSS_ENGINE_TOL",
     "metrology", "_survival_probability", lambda real: lambda *args: math.nan),
    ("table vs sector route", "max route gap", "TABLE_ROUTE_TOL",
     "fock", "survival_probability", lambda real: lambda *args: math.nan),
    ("odd series terms vanish", "max odd term", "ODD_TERM_TOL",
     "fock", "generator_moments_sectors", _nan_odd_terms),
    ("generator variance identity", "max defect", "VARIANCE_IDENTITY_TOL",
     "metrology", "generator_variance", lambda real: lambda *args: math.nan),
    ("mach-zehnder factorization", "max residual", "MZ_FACTORIZATION_TOL",
     "fock", "_sector_operators", lambda real: nan_splitter_at(real, 3)),
]


class TestValidate:
    @pytest.mark.parametrize(
        "check, quantity, bound_name, module, attribute, stand_in",
        NAN_DEFECTS,
        ids=[entry[0].split()[0] for entry in NAN_DEFECTS],
    )
    def test_a_nan_defect_fails_its_check(
        self, capsys, monkeypatch, check, quantity, bound_name, module, attribute, stand_in
    ):
        # a running max(worst, defect) dropped every NaN: PASS at 0.000e+00, exit 0
        from sqzmet import fock, metrology, validate

        module = {"fock": fock, "metrology": metrology}[module]
        monkeypatch.setattr(module, attribute, stand_in(getattr(module, attribute)))
        bound = getattr(validate, bound_name)
        for level in ("quick", "full"):
            code = cli.main(["validate", level])
            captured = capsys.readouterr()
            failed = [line for line in captured.out.splitlines() if not line.startswith("PASS ")]
            if level == "quick" and check == "mach-zehnder factorization":
                assert (code, failed) == (0, [])
                continue
            assert code == 1, captured.out
            assert failed == [f"FAIL {check} ({quantity} = nan, bound {bound_name} = {bound})"]
            assert captured.err == f"validation failed: {check}\n"

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_quick_suite_passes(self, capsys, level):
        assert cli.main(["validate", level]) == 0
        out = capsys.readouterr().out
        assert "PASS cross-engine equality" in out
        assert "FAIL" not in out
        full_only = ("PASS mach-zehnder factorization", "PASS series convergence order")
        assert all((check in out) == (level == "full") for check in full_only)

    @pytest.mark.parametrize("seed", ["1", "7", "123"])
    def test_full_suite_passes_on_other_seeds(self, capsys, seed):
        assert cli.main(["validate", "full", "--seed", seed]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 6 and "FAIL" not in out

    def test_check_streams_are_keyed_by_seed_and_offset(self):
        # keyed seed + offset, check k at seed s drew check 0's stream at seed s + k
        from sqzmet import validate

        firsts = {validate._stream(seed, k).random() for seed in range(40) for k in range(6)}
        assert len(firsts) == 240
        # offset 0 is the seed's own stream, as before the keys changed
        assert validate._stream(7, 0).random() == np.random.default_rng(7).random()

    def test_each_detail_names_its_bound(self, capsys):
        from sqzmet import validate

        assert cli.main(["validate", "full", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        bounds = [
            "CROSS_ENGINE_TOL", "TABLE_ROUTE_TOL", "ODD_TERM_TOL",
            "VARIANCE_IDENTITY_TOL", "MZ_FACTORIZATION_TOL", "SERIES_ORDER_MIN",
        ]
        assert len(lines) == len(bounds)
        for line, name in zip(lines, bounds):
            assert line.startswith("PASS ")
            assert line.endswith(f" {name} = {getattr(validate, name)})"), line

    def test_importing_the_cli_leaves_the_suites_unloaded(self, tmp_path, config_file):
        # only `sqzmet validate` runs the suites, so only cmd_validate imports
        # them; synthesize and sweep load no verifier, and simulate loads the
        # covariance engine it runs on
        env = source_env()
        weights = tmp_path / "w.txt"
        weights.write_text("0.25 0.75\n")
        out = str(tmp_path / "out")
        code = f"""
import sys
import sqzmet.cli as cli

def loaded():
    return sorted(m for m in ("gaussian", "fock", "validate") if "sqzmet." + m in sys.modules)

assert loaded() == [], loaded()
assert cli.main(["synthesize", {str(weights)!r}, "--out", {out!r}]) == 0
assert cli.main(["sweep", "--config", {config_file!r}, "--repetitions", "10", "--out", {out!r}]) == 0
assert loaded() == [], loaded()
assert cli.main(["simulate", "--config", {config_file!r}, "--out", {out!r}]) == 0
assert loaded() == ["gaussian"], loaded()
"""
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=60, capture_output=True
        )

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


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", "{weights}"],
        ["simulate", "--config", "{config}"],
        ["sweep", "--config", "{config}", "--repetitions", "10"],
    ],
    ids=["synthesize", "simulate", "sweep"],
)
def test_allocation_failure_exits_two_and_writes_nothing(
    tmp_path, config_file, capsys, monkeypatch, argv
):
    # numpy's message for a dense M x M array at M = 10^5; the stand-ins,
    # one on each command's path, raise it without allocating
    message = (
        "Unable to allocate 149. GiB for an array with shape (100000, 100000) "
        "and data type complex128"
    )

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(sqzmet.network, "weight_chain", no_memory)
    monkeypatch.setattr(sqzmet.network, "embed_weights_unitary", no_memory)
    monkeypatch.setattr(sqzmet.metrology, "scaling_sweep", no_memory)
    weights = tmp_path / "w.txt"
    weights.write_text("0.5 0.5\n")
    argv = [arg.format(config=config_file, weights=weights) for arg in argv]
    before = sorted(tmp_path.iterdir())
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


# run in a child under the address-space limit: the netlist parses back into one
# record array, pair (0, 1) last, that renders to the same text
PARSE_BACK = """
import numpy as np
import sqzmet
text = "".join(line for line in open("big.netlist") if not line.startswith("#"))
mesh = sqzmet.parse_netlist(text)
assert len(mesh.elements) == 99999
assert np.array_equal(mesh.elements["mode"], np.arange(99998, -1, -1))
assert sqzmet.mesh_to_netlist(mesh) == text
"""


def test_large_synthesize_and_a_huge_sweep_under_a_3_gb_address_space(tmp_path, config_file):
    # synthesize checks its netlist in O(M) memory, so 10^5 weights pass under
    # `ulimit -v 3000000`; the limit is set in each child only, with one BLAS thread
    resource = pytest.importorskip("resource")
    limit = 3_000_000 * 1024

    def limited():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    env = {**source_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=env, cwd=tmp_path, preexec_fn=limited,
            capture_output=True, text=True, timeout=300,
        )

    (tmp_path / "big.txt").write_text(" ".join(["1e-05"] * 100_000) + "\n")
    plain = run("-m", "sqzmet.cli", "synthesize", "big.txt", "--out", "big")
    assert plain.returncode == 0, plain.stderr
    netlist = (tmp_path / "big.netlist").read_bytes()
    assert sum(line.startswith(b"pair ") for line in netlist.splitlines()) == 99_999
    printed = dict(line.split(" = ", 1) for line in plain.stdout.splitlines() if " = " in line)
    for name in ("first-column residual", "unitarity residual", "mesh round-trip residual"):
        assert float(printed[name]) <= 1e-9, printed
    # the element blocks come from whole columns at once: a numpy warning
    # there fails the run, and the bytes stay the same
    strict = run("-W", "error", "-m", "sqzmet.cli", "synthesize", "big.txt", "--out", "big_w")
    assert strict.returncode == 0, strict.stderr
    assert (tmp_path / "big_w.netlist").read_bytes() == netlist
    parsed = run("-c", PARSE_BACK)
    assert parsed.returncode == 0, parsed.stderr
    # an allocation the host cannot make is bad input: exit 2
    sweep = run("-m", "sqzmet.cli", "sweep", "--config", config_file, "--repetitions", "1000000000")
    assert sweep.returncode == 2, sweep.stderr
    assert sweep.stderr.startswith("error: Unable to allocate"), sweep.stderr


class TestConfigFile:
    COMMANDS = {
        "simulate": ["simulate", "--config", "{config}"],
        "sweep": ["sweep", "--config", "{config}", "--repetitions", "10"],
    }

    def run(self, command, cfg, capsys):
        argv = [arg.format(config=cfg) for arg in self.COMMANDS[command]]
        code = cli.main(argv)
        return code, capsys.readouterr().err

    def test_a_utf8_byte_order_mark_is_read_past(self, tmp_path, config_file, capsys):
        # a BOM was once read as part of the first line, so a config file got
        # "unknown key '\ufeffshots'" and a weights file "bad value ... '\ufeff0.25'"
        text = Path(config_file).read_text(encoding="utf-8")
        outputs = []
        for bom in ("", "\ufeff"):
            run = tmp_path / f"bom{len(bom)}"
            run.mkdir()
            (run / "run.cfg").write_text(bom + text, encoding="utf-8")
            (run / "w.txt").write_text(bom + "0.25, 0.75\n", encoding="utf-8")
            assert cli.main(["simulate", "--config", str(run / "run.cfg"), "--out", str(run / "row.csv")]) == 0
            assert cli.main(["synthesize", str(run / "w.txt"), "--out", str(run / "net")]) == 0
            outputs.append([(run / name).read_bytes() for name in ("row.csv", "net.netlist")])
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_duplicate_key_names_key_and_line(self, tmp_path, config_file, capsys, command):
        # the fixture's sixth line sets seed = 42; a second value used to win silently
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(Path(config_file).read_text() + "seed = 7\n")
        code, err = self.run(command, cfg, capsys)
        assert code == 2
        assert f"{cfg}:7: duplicate key 'seed'" in err

    @pytest.mark.parametrize(
        "command, key", [("simulate", "weights"), ("simulate", "seed"), ("sweep", "shots")]
    )
    def test_missing_key_is_named(self, tmp_path, config_file, capsys, command, key):
        cfg = tmp_path / "short.cfg"
        lines = Path(config_file).read_text().splitlines()
        cfg.write_text("\n".join(l for l in lines if not l.startswith(key)) + "\n")
        code, err = self.run(command, cfg, capsys)
        assert code == 2
        assert f"missing required key {key!r}" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("shots = 1.5", "bad value for shots: '1.5'"),
            ("seed = x", "bad value for seed: 'x'"),
            ("seed 7", "expected key=value, got 'seed 7'"),
        ],
    )
    def test_integer_keys_name_themselves(
        self, tmp_path, config_file, capsys, command, line, message
    ):
        key = line.split()[0]
        cfg = tmp_path / "int.cfg"
        lines = Path(config_file).read_text().splitlines()
        cfg.write_text("\n".join([l for l in lines if not l.startswith(key)] + [line]) + "\n")
        code, err = self.run(command, cfg, capsys)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_shots_beyond_int64_exit_two(self, tmp_path, config_file, capsys, command):
        # 2^63 trials overflow numpy's binomial sampler; 2^63 - 1 is drawn
        cfg = tmp_path / "huge.cfg"
        text = Path(config_file).read_text()
        out = tmp_path / "out.csv"
        argv = [arg.format(config=cfg) for arg in self.COMMANDS[command]]
        cfg.write_text(text.replace("shots = 10000", f"shots = {2 ** 63}"))
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"got {2 ** 63}" in err and "Traceback" not in err
        assert not out.exists()
        cfg.write_text(text.replace("shots = 10000", f"shots = {2 ** 63 - 1}"))
        assert cli.main(argv + ["--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "{negative}"],
            ["sweep", "--config", "{config}", "--seed", "-2"],
            ["validate", "quick", "--seed", "-1"],
        ],
        ids=["simulate-config", "sweep-flag", "validate-flag"],
    )
    def test_negative_seed_is_refused_by_name(self, tmp_path, config_file, capsys, argv):
        negative = tmp_path / "negative.cfg"
        negative.write_text(Path(config_file).read_text().replace("seed = 42", "seed = -3"))
        argv = [arg.format(config=config_file, negative=negative) for arg in argv]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err


class TestParser:
    def test_sweep_flags_do_not_carry_to_the_next_call(self, tmp_path, config_file):
        first, plain = tmp_path / "first.csv", tmp_path / "plain.csv"
        argv = ["sweep", "--config", config_file]
        flags = ["--seed", "5", "--nbars", "1,2", "--repetitions", "10", "--bias-product", "0.1",
                 "--baseline", "coherent"]
        assert cli.main(argv + flags + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(plain)]) == 0
        manifest, _, _ = read_csv(plain)
        assert "# seed = 42" in manifest
        assert "# nbars = 0.5,1.0,2.0,4.0" in manifest
        assert "# repetitions = 200" in manifest
        assert "# bias_product = 0.05" in manifest
        assert "# baseline = squeezed" in manifest

    def test_repeated_calls_write_what_a_fresh_process_writes(self, tmp_path, config_file):
        # each command once in a fresh process with warnings as errors, then
        # twice in this one, which shares one parser between the calls
        env = source_env()
        weights = tmp_path / "w.txt"
        weights.write_text("0.25 0.75\n")
        commands = {
            "net": (["synthesize", str(weights), "--out"], ".netlist"),
            "row": (["simulate", "--config", config_file, "--out"], ""),
            "sweep": (["sweep", "--config", config_file, "--repetitions", "50", "--out"], ""),
        }
        for name, (argv, suffix) in commands.items():
            subprocess.run(
                [sys.executable, "-W", "error", "-m", "sqzmet.cli", *argv, str(tmp_path / name)],
                env=env, check=True, timeout=60, capture_output=True,
            )
        for run in ("1", "2"):
            for name, (argv, suffix) in commands.items():
                assert cli.main(argv + [str(tmp_path / (name + run))]) == 0
                fresh = (tmp_path / (name + suffix)).read_bytes()
                assert (tmp_path / (name + run + suffix)).read_bytes() == fresh, (name, run)

    def test_validate_seed_does_not_carry_to_the_next_call(self, capsys):
        assert cli.main(["validate", "quick", "--seed", "0"]) == 0
        seed_zero = capsys.readouterr().out
        assert cli.main(["validate", "full", "--seed", "7"]) == 0
        capsys.readouterr()
        assert cli.main(["validate", "quick"]) == 0
        assert capsys.readouterr().out == seed_zero

    def test_parser_is_built_once(self, tmp_path, config_file, capsys, monkeypatch):
        weights = tmp_path / "w.txt"
        weights.write_text("0.5 0.5\n")
        assert cli.main(["validate", "quick"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (
            ["synthesize", str(weights), "--out", str(tmp_path / "net")],
            ["simulate", "--config", config_file, "--out", str(tmp_path / "row.csv")],
            ["sweep", "--config", config_file, "--repetitions", "10", "--out", str(tmp_path / "s")],
            ["validate", "quick"],
        ):
            assert cli.main(argv) == 0
        assert built == []

    def test_handler_is_looked_up_at_call_time(self, config_file, monkeypatch):
        # build the shared parser before the patch, so a handler bound at
        # build time would still be the original
        assert cli.main(["validate", "quick"]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args) or 0)
        assert cli.main(["sweep", "--config", config_file, "--seed", "3"]) == 0
        assert [(args.command, args.seed) for args in seen] == [("sweep", 3)]

    def test_sweep_baseline_defaults_to_squeezed(self):
        args = cli.build_parser().parse_args(["sweep", "--config", "run.cfg"])
        assert args.baseline == "squeezed"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["explode"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--version"])
        assert "sqzmet" in capsys.readouterr().out
