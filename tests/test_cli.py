import ast
import ctypes
import hashlib
import importlib
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import brinkman2d.analysis
import brinkman2d.cli
import brinkman2d.config
import brinkman2d.solvers
from brinkman2d import (
    BoundaryData,
    ReferenceScales,
    RunConfig,
    SolverConfig,
    assemble_monolithic,
    build_grid,
    generate_contrast_field,
    gmres_solve,
    load_field,
    normalize,
    parse_config,
    sweep_darcy,
    write_config,
    write_field,
)
from brinkman2d.cli import main, write_scalar_field
from brinkman2d.config import ConfigError, parse_config_text
from brinkman2d.media import PATTERNS
from conftest import blas_info


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


UNIFORM_SOLVE = """
# uniform through-flow on a small grid
grid.nx = 8
grid.ny = 8
anna = 1.0
field.pattern = layered
field.contrast_x = 1.0
field.contrast_y = 1.0
bc.gx = 1.0
bc.gy = 0.0
solver.tol = 1e-12
output.timings = false
output.dir = {out}
"""


def readme_config_example():
    """The README's regime-study config: its first "Command line" config block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Command line", 1)[1].split("```\n")[1]


#: The config_resolved.txt of the README's example, and a scales + field.path
#: config with the config_resolved.txt it resolves to.
RESOLVED_CANONICAL_SWEEP = """\
grid.nx = 20
grid.ny = 20
anna = 1.0
field.pattern = layered
field.contrast_x = 100000.0
field.contrast_y = 100000.0
field.seed = 0
bc.gx = 1.0
bc.gy = 0.0
solver.tol = 1e-06
solver.maxit = 1240
solver.pin_pressure = false
sweep.da = 1e-05,0.0001,0.001,0.01,0.1,1.0,10.0,100.0,1000.0,10000.0,100000.0
output.dir = out
output.timings = true
"""
SCALED_FIELD_PATH = """
grid.nx = 6
grid.ny = 4
scales.l_ref = 0.5
scales.mu = 1e-3
scales.mu_eff = 1.5e-3
scales.k_max = 1e-10
field.path = fields/k.txt
bc.gy = -0.25
solver.restart = 30
solver.pin_pressure = yes
output.dir = runs/scaled
output.timings = off
"""
RESOLVED_SCALED_FIELD_PATH = """\
grid.nx = 6
grid.ny = 4
scales.l_ref = 0.5
scales.mu = 0.001
scales.mu_eff = 0.0015
scales.k_max = 1e-10
field.path = fields/k.txt
bc.gx = 1.0
bc.gy = -0.25
solver.tol = 1e-06
solver.restart = 30
solver.pin_pressure = true
output.dir = runs/scaled
output.timings = false
"""


class TestConfig:
    def test_round_trip_with_anna(self, tmp_path):
        config = RunConfig(
            nx=12, ny=10, anna=0.25, field_pattern="lognormal",
            contrast_x=1e4, contrast_y=30.0, seed=9, gx=2.0, gy=-0.5,
            tol=1e-8, maxit=500, restart=60,
            pin_pressure=True, da_values=(1e-3, 1.0, 1e3),
            out_dir="results", timings=False,
        )
        path = tmp_path / "cfg.txt"
        write_config(config, path)
        assert parse_config(path) == config

    def test_round_trip_with_scales_and_field_path(self, tmp_path):
        config = RunConfig(
            nx=4, ny=4,
            scales=ReferenceScales(1.5, 1.0, 3.0, 1e-4),
            field_path="some/field.txt",
        )
        path = tmp_path / "cfg.txt"
        write_config(config, path)
        assert parse_config(path) == config

    @pytest.mark.parametrize("text, resolved", [
        (readme_config_example, RESOLVED_CANONICAL_SWEEP),
        (lambda: SCALED_FIELD_PATH, RESOLVED_SCALED_FIELD_PATH),
    ], ids=["canonical-sweep", "scales-field-path"])
    def test_resolved_config_bytes(self, tmp_path, text, resolved):
        path = tmp_path / "config_resolved.txt"
        write_config(parse_config_text(text()), path)
        assert path.read_bytes() == resolved.encode()

    @pytest.mark.parametrize("value", ["run#1", "run\n1", "run\r1", " run", "run ", ""])
    @pytest.mark.parametrize("key", ["output.dir", "field.path"])
    def test_text_that_cannot_be_written_back_named(self, key, value):
        if key == "output.dir":
            settings = {"field_pattern": "layered", "out_dir": value}
        else:
            settings = {"field_path": value}
        with pytest.raises(ConfigError, match="cannot be written") as info:
            RunConfig(nx=2, ny=2, anna=1.0, **settings)
        assert info.value.key == key

    def test_byte_order_mark_is_not_read_as_text(self, tmp_path):
        # some editors save UTF-8 text with a leading U+FEFF, which would
        # otherwise be the first character of the first key
        path = tmp_path / "bom.cfg"
        text = "grid.nx = 3\ngrid.ny = 2\nanna = 1.0\nfield.pattern = layered\n"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_config(path) == parse_config_text(text)

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config_text(
            "# header\n\ngrid.nx = 3 # inline\ngrid.ny = 2\nanna = 1.0\n"
            "field.pattern = layered\nfield.contrast_x = 1.0\nfield.contrast_y = 1.0\n"
        )
        assert (config.nx, config.ny, config.anna) == (3, 2, 1.0)

    def test_logspace_da(self):
        config = parse_config_text(
            "grid.nx = 2\ngrid.ny = 2\nanna = 1.0\nfield.pattern = layered\n"
            "sweep.da = logspace:-2,2,5\n"
        )
        np.testing.assert_allclose(config.da_values, np.logspace(-2, 2, 5))

    def test_logspace_points_are_the_printed_decades(self):
        # np.logspace(-5, 5, 11) starts at 9.999999999999999e-06, which a
        # regime_table.csv row prints as 1.00000e-05: the row then names an
        # anna one ulp off the one it solved
        config = parse_config_text(
            "grid.nx = 2\ngrid.ny = 2\nanna = 1.0\nfield.pattern = layered\n"
            "sweep.da = logspace:-5,5,11\n"
        )
        assert config.da_values == (1e-05, 1e-04, 1e-03, 1e-02, 1e-01, 1.0, 1e1, 1e2, 1e3,
                                    1e4, 1e5)
        assert all(v == float(f"{v:.5e}") for v in config.da_values)

    def test_unknown_key_is_named(self):
        # solver.preconditioner and scales.u_ref are gone; older
        # config_resolved.txt files that still set them get the same refusal
        for key, value in (("grid.nz", "3"), ("solver.preconditioner", "none"),
                           ("scales.u_ref", "0.002")):
            with pytest.raises(ConfigError, match=f"'{key}': <config>:1: unknown key$") as info:
                parse_config_text(f"{key} = {value}\n")
            assert info.value.key == key

    def test_anna_and_scales_conflict(self):
        base = "grid.nx = 2\ngrid.ny = 2\nfield.pattern = layered\n"
        scales = (
            "scales.l_ref = 1\nscales.mu = 1\n"
            "scales.mu_eff = 1\nscales.k_max = 1e-3\n"
        )
        with pytest.raises(ConfigError, match="anna"):
            parse_config_text(base + "anna = 1.0\n" + scales)
        with pytest.raises(ConfigError, match="anna"):
            parse_config_text(base)
        config = parse_config_text(base + scales)
        assert config.effective_anna() == pytest.approx(1e-3)

    def test_field_source_exclusivity(self):
        base = "grid.nx = 2\ngrid.ny = 2\nanna = 1.0\n"
        with pytest.raises(ConfigError, match="field"):
            parse_config_text(base)
        with pytest.raises(ConfigError, match="field"):
            parse_config_text(base + "field.pattern = layered\nfield.path = f.txt\n")

    def test_unsorted_da_rejected(self):
        with pytest.raises(ConfigError, match="sweep.da"):
            parse_config_text(
                "grid.nx = 2\ngrid.ny = 2\nanna = 1.0\nfield.pattern = layered\n"
                "sweep.da = 1.0,0.1\n"
            )

    @pytest.mark.parametrize("key", ["field.contrast_x", "field.contrast_y"])
    def test_contrast_below_one_names_its_key(self, key):
        axis = key[-1]
        with pytest.raises(ConfigError) as info:
            RunConfig(nx=2, ny=2, anna=1.0, field_pattern="layered", **{f"contrast_{axis}": 0.5})
        assert info.value.key == key

    def test_round_trip_of_drawn_configs(self, tmp_path):
        # both field sources, anna or scales, each optional key set or left
        # out; a field.path config that sets a generator key is refused
        rng = np.random.default_rng(27)
        generator = {
            "contrast_x": lambda: float(10.0 ** rng.uniform(0.1, 6)),
            "contrast_y": lambda: float(10.0 ** rng.uniform(0.1, 6)),
            "seed": lambda: int(rng.integers(1, 1000)),
        }
        optional = {
            "gx": lambda: float(rng.normal()),
            "gy": lambda: float(rng.normal()),
            "tol": lambda: float(10.0 ** rng.uniform(-12, -1)),
            "maxit": lambda: int(rng.integers(1, 5000)),
            "restart": lambda: int(rng.integers(1, 200)),
            "pin_pressure": lambda: bool(rng.integers(2)),
            "da_values": lambda: tuple(np.unique(10.0 ** rng.uniform(-5, 5, rng.integers(1, 6)))),
            "out_dir": lambda: f"runs/{rng.integers(100)}",
            "timings": lambda: bool(rng.integers(2)),
        }
        path = tmp_path / "cfg.txt"
        kinds = set()
        for _ in range(200):
            settings = {"nx": int(rng.integers(1, 64)), "ny": int(rng.integers(1, 64))}
            if rng.integers(2):
                settings["anna"] = float(10.0 ** rng.uniform(-5, 5))
            else:
                settings["scales"] = ReferenceScales(*(10.0 ** rng.uniform(-3, 3, 4)).tolist())
            if rng.integers(2):
                settings["field_path"] = "fields/k.txt"
            else:
                settings["field_pattern"] = str(rng.choice(PATTERNS))
            draws = {**generator, **optional}
            settings.update({name: draw() for name, draw in draws.items() if rng.integers(2)})
            if "field_path" in settings and generator.keys() & settings.keys():
                with pytest.raises(ConfigError, match="field.path"):
                    RunConfig(**settings)
                kinds.add("refused")
                continue
            config = RunConfig(**settings)
            kinds.add((config.anna is None, config.field_path is None))
            write_config(config, path)
            assert parse_config(path) == config, path.read_text()
        assert len(kinds) == 5

    @pytest.mark.parametrize("key, value", [
        ("anna", float("nan")),
        ("anna", float("inf")),
        ("field.contrast_x", float("nan")),
        ("field.contrast_y", float("inf")),
        ("bc.gx", float("inf")),
        ("bc.gy", float("nan")),
        ("sweep.da", (1.0, float("nan"))),
        ("sweep.da", (1.0, float("inf"))),
    ])
    def test_non_finite_value_named_without_parser(self, key, value):
        # the library path: RunConfig built directly, no config text parsed
        field = {"anna": "anna", "field.contrast_x": "contrast_x",
                 "field.contrast_y": "contrast_y", "bc.gx": "gx", "bc.gy": "gy",
                 "sweep.da": "da_values"}[key]
        settings = {"nx": 2, "ny": 2, "anna": 1.0, "field_pattern": "layered", field: value}
        with pytest.raises(ConfigError, match="finite") as info:
            RunConfig(**settings)
        assert info.value.key == key

    def test_incomplete_scales_rejected(self):
        with pytest.raises(ConfigError, match="scales"):
            parse_config_text(
                "grid.nx = 2\ngrid.ny = 2\nfield.pattern = layered\nscales.l_ref = 1\n"
            )


RESTARTED_SOLVE = """
grid.nx = 16
grid.ny = 16
anna = 1e5
field.pattern = layered
field.contrast_x = 1e5
field.contrast_y = 1e5
bc.gx = 1.0
bc.gy = 0.0
solver.tol = 1e-6
solver.restart = 10
output.timings = false
output.dir = {out}
"""
#: The outputs of RESTARTED_SOLVE: GMRES(10) converges in 56 iterations,
#: five full cycles and a short sixth, and every digit of the fields shows.
RESTARTED_SOLVE_REPORT = (
    "anna,iterations,converged,relres,divergence_max,regime,wall_ms,estimated_relres\n"
    "1.00000e+05,56,true,8.24579e-07,1.01851e+01,stokes,0.00000e+00,8.24579e-07\n"
)
RESTARTED_SOLVE_FIELD_SHA256 = {
    "u.txt": "ff796bf64131e21fb4638ef8b632eb13ef4f2605916ba8b99dd106bbba74d05d",
    "v.txt": "71fd81fe5447b9186bed6ad6d7be89815f1e2808d80ab9c3005e0129d2ee4ebd",
    "p.txt": "f29e4db6d4041655802966e197fa757cd701fcd48e27b5009aff00dd77c5b92e",
}


class TestSolveCommand:
    def test_uniform_flow_solution_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=out))
        assert main(["solve", cfg]) == 0
        u = np.loadtxt(out / "u.txt", comments="#", skiprows=2)
        v = np.loadtxt(out / "v.txt", comments="#", skiprows=2)
        assert np.abs(u - 1.0).max() <= 1e-10
        assert np.abs(v).max() <= 1e-10
        assert (out / "p.txt").exists()
        report = (out / "report.csv").read_text().splitlines()
        assert report[0].startswith("anna,iterations,converged")
        assert ",true," in report[1]
        # the resolved config re-parses to the same run
        resolved = parse_config(out / "config_resolved.txt")
        assert resolved == parse_config(cfg)

    def test_solve_never_loads_sparse_linalg(self, tmp_path):
        # SuperLU, ARPACK and the LAPACK wrappers of scipy.linalg cost ~10 MB
        # resident that a GMRES solve never uses.  A fresh interpreter, since
        # this one has imported scipy.sparse.linalg already.
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=tmp_path / "unused")
                        .replace("grid.nx = 8\ngrid.ny = 8", "grid.nx = 4\ngrid.ny = 4"))
        script = (
            "import json, sys\n"
            "import brinkman2d, brinkman2d.cli\n"
            "code = brinkman2d.cli.main(['solve', sys.argv[1], '--out', sys.argv[2], '--quiet'])\n"
            "loaded = [m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules]\n"
            "import scipy.sparse as sp\n"
            "x = brinkman2d.direct_solve(sp.diags([2.0, 4.0]).tocsr(), [1.0, 1.0])\n"
            "print(json.dumps([code, loaded, x.tolist()]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path / "out")],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        code, loaded, x = json.loads(run.stdout)
        assert code == 0
        assert loaded == []
        assert x == [0.5, 0.25]
        assert (tmp_path / "out" / "report.csv").exists()

    def test_solution_field_headers(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=out))
        main(["solve", cfg])
        lines = (out / "u.txt").read_text().splitlines()
        assert lines[0] == "#field u"
        assert lines[1] == "8 8"
        assert len(lines) == 2 + 9 * 8  # (nx+1)*ny u-faces

    def test_solution_field_bytes(self, tmp_path):
        # round-trip precision, signed zero, subnormal and the largest doubles
        values = np.array([-0.0, 5e-324, 0.1, 1.0 / 3.0,
                           1.7976931348623157e308, -1.7976931348623157e308])
        path = tmp_path / "u.txt"
        write_scalar_field(path, build_grid(2, 3), values, "u")
        assert path.read_bytes() == (
            b"#field u\n2 3\n-0\n4.9406564584124654e-324\n0.10000000000000001\n"
            b"0.33333333333333331\n1.7976931348623157e+308\n-1.7976931348623157e+308\n"
        )

    def test_deterministic_rerun_bitwise(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=out1), "a.cfg")
        cfg2 = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=out2), "b.cfg")
        assert main(["solve", cfg1]) == 0
        assert main(["solve", cfg2]) == 0
        for name in ("u.txt", "v.txt", "p.txt", "report.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_restarted_solve_output_bytes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", write_cfg(tmp_path, RESTARTED_SOLVE.format(out=out)), "--quiet"]) == 0
        blas = f"(BLAS: {blas_info()})"
        assert (out / "report.csv").read_text() == RESTARTED_SOLVE_REPORT, blas
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in RESTARTED_SOLVE_FIELD_SHA256}
        assert digests == RESTARTED_SOLVE_FIELD_SHA256, (
            "the restarted solve moved a digit: if the change is meant, update the "
            f"pins and record the move in CHANGES.md {blas}"
        )

    def test_nonconvergence_exits_1_but_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path,
            UNIFORM_SOLVE.format(out=out).replace("solver.tol = 1e-12",
                                                  "solver.tol = 1e-12\nsolver.maxit = 1"),
        )
        assert main(["solve", cfg, "--quiet"]) == 1
        assert (out / "u.txt").exists()
        assert ",false," in (out / "report.csv").read_text()

    def test_pin_pressure_key_reaches_resolved_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=out) + "solver.pin_pressure = true\n")
        assert main(["solve", cfg]) == 0
        assert parse_config(out / "config_resolved.txt").pin_pressure is True

    def test_pin_pressure_flag_is_a_usage_error(self, tmp_path, capsys):
        # solver.pin_pressure in the config file is the one way to set it
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=out))
        with pytest.raises(SystemExit) as info:
            main(["solve", cfg, "--pin-pressure", "true"])
        assert info.value.code == 2
        assert "--pin-pressure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["run#1", "run\n1", " run", ""])
    def test_out_that_cannot_be_resolved_exits_2_before_any_solve(
            self, tmp_path, capsys, monkeypatch, out):
        # config_resolved.txt would write output.dir = run#1, which re-parses as run
        def no_solve(*args, **kwargs):
            raise AssertionError("solved with an output.dir that cannot be written back")

        monkeypatch.setattr(brinkman2d.cli, "gmres_solve", no_solve)
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out="ignored"))
        monkeypatch.chdir(tmp_path)
        assert main(["solve", cfg, "--out", out]) == 2
        assert "config key 'output.dir'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_out_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=tmp_path / "ignored"))
        other = tmp_path / "elsewhere"
        assert main(["solve", cfg, "--out", str(other)]) == 0
        assert (other / "u.txt").exists()

    def test_no_temp_residue(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=out))
        main(["solve", cfg])
        assert not list(out.glob(".tmp-*"))

    def test_estimated_residual_reported_next_to_relres(self, tmp_path, capsys):
        # the layered 8x8 system at anna 1e-5, unpinned: relres is the true
        # residual of the returned iterate, the last column the Givens
        # estimate GMRES stopped on, two to three decades lower here, as
        # README says (a ratio of 594 under OpenBLAS's SkylakeX kernels, 189
        # under its Haswell ones)
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path,
            "grid.nx = 8\ngrid.ny = 8\nanna = 1e-5\nfield.pattern = layered\n"
            "field.contrast_x = 1e5\nfield.contrast_y = 1e5\nsolver.tol = 1e-6\n"
            f"output.timings = false\noutput.dir = {out}\n",
        )
        assert main(["solve", cfg]) == 0
        header, row = (out / "report.csv").read_text().splitlines()
        assert header == ("anna,iterations,converged,relres,divergence_max,regime,wall_ms,"
                          "estimated_relres")
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["converged"] == "true"
        assert float(fields["relres"]) <= 1e-6
        assert float(fields["estimated_relres"]) < float(fields["relres"]) / 100
        stdout = capsys.readouterr().out
        assert f"relres={fields['relres']} estimated_relres={fields['estimated_relres']} " in stdout

    def test_solve_driven_by_physical_scales(self, tmp_path):
        # mu_eff = mu and k_max/l_ref^2 = 1e-3 puts the run deep in the
        # Darcy regime with anna = 1e-3
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path,
            "grid.nx = 6\ngrid.ny = 6\n"
            "scales.l_ref = 1.0\nscales.mu = 1.0\n"
            "scales.mu_eff = 1.0\nscales.k_max = 1e-3\n"
            "field.pattern = layered\nfield.contrast_x = 1.0\nfield.contrast_y = 1.0\n"
            f"solver.tol = 1e-10\noutput.dir = {out}\n",
        )
        assert main(["solve", cfg, "--quiet"]) == 0
        row = (out / "report.csv").read_text().splitlines()[1].split(",")
        assert float(row[0]) == pytest.approx(1e-3)
        assert row[5] == "darcy"


SWEEP_CFG = """
grid.nx = 8
grid.ny = 8
anna = 1.0
field.pattern = lognormal
field.contrast_x = 1e4
field.contrast_y = 1e4
field.seed = 7
solver.tol = 1e-6
sweep.da = 1e-1,1.0,1e1
output.timings = false
output.dir = {out}
"""


class TestSweepCommand:
    def test_rows_match_da_points(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, SWEEP_CFG.format(out=out))
        assert main(["sweep", cfg, "--quiet"]) == 0
        lines = (out / "regime_table.csv").read_text().splitlines()
        assert lines[0] == "da,anna,kappa,kappa_flag,iterations,relres,regime,wall_ms"
        assert len(lines) == 4

    def test_single_point_sweep_matches_solve(self, tmp_path):
        sweep_out, solve_out = tmp_path / "sw", tmp_path / "sv"
        sweep_cfg = write_cfg(
            tmp_path,
            SWEEP_CFG.format(out=sweep_out).replace("sweep.da = 1e-1,1.0,1e1",
                                                    "sweep.da = 1.0"),
            "sweep.cfg",
        )
        solve_cfg = write_cfg(
            tmp_path,
            SWEEP_CFG.format(out=solve_out).replace("sweep.da = 1e-1,1.0,1e1\n", ""),
            "solve.cfg",
        )
        assert main(["sweep", sweep_cfg, "--quiet"]) == 0
        assert main(["solve", solve_cfg, "--quiet"]) == 0
        sweep_iters = int((sweep_out / "regime_table.csv").read_text().splitlines()[1].split(",")[4])
        solve_iters = int((solve_out / "report.csv").read_text().splitlines()[1].split(",")[1])
        assert sweep_iters == solve_iters

    def test_eleven_point_log_sweep_gives_eleven_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path,
            "grid.nx = 6\ngrid.ny = 6\nanna = 1.0\nfield.pattern = layered\n"
            "field.contrast_x = 1e3\nfield.contrast_y = 1e3\nsolver.tol = 1e-6\n"
            f"sweep.da = logspace:-5,5,11\noutput.dir = {out}\n",
        )
        assert main(["sweep", cfg, "--quiet"]) == 0
        assert len((out / "regime_table.csv").read_text().splitlines()) == 12


VERIFY_CFG = """
grid.nx = 8
grid.ny = 8
anna = 1.0
field.pattern = layered
field.contrast_x = 1e2
field.contrast_y = 1e2
solver.tol = 1e-8
output.dir = {out}
"""
#: The verification suite's checks, in report order.
VERIFY_CHECKS = (
    "uniform_flow",
    "divergence",
    "convergence_order",
    "darcy_limit",
    "stokes_limit",
    "nullspace",
)


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, VERIFY_CFG.format(out=out))
        assert main(["verify", cfg]) == 0
        stdout = capsys.readouterr().out
        lines = [ln for ln in stdout.splitlines() if ": PASS" in ln or ": FAIL" in ln]
        assert len(lines) == len(VERIFY_CHECKS) == 6
        for name in VERIFY_CHECKS:
            assert any(ln.startswith(f"{name}: PASS") for ln in lines)
        assert (out / "verify_report.txt").read_text().count("PASS") == 6

    def test_quiet_prints_nothing_and_still_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, VERIFY_CFG.format(out=out))
        assert main(["verify", cfg, "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        lines = (out / "verify_report.txt").read_text().splitlines()
        assert [ln.split(":")[0] for ln in lines if ": PASS (" in ln] == list(VERIFY_CHECKS)

    @pytest.mark.parametrize("gx", ["1e-200", "1e-160", "1e5", "1e8", "1e308",
                                    "1e-312", "1e-320", "5e-324"])  # the last three subnormal
    def test_verdict_does_not_depend_on_the_units_of_the_wall_data(self, tmp_path, capsys, gx):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, VERIFY_CFG.format(out=out) + f"bc.gx = {gx}\n")
        assert main(["verify", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split(":")[0] for ln in lines if ": PASS (" in ln] == list(VERIFY_CHECKS)
        # the detail printed at bc.gx = 1
        assert "darcy_limit: PASS (relative difference 4.886e-07 (<= 1e-3))" in lines
        # the divergence and its bound print in the config's units: at bc.gx = 1
        # they read 3.750e-07 and 8.596e-07, and at normal data they scale with it
        divergence = next(ln for ln in lines if ln.startswith("divergence: PASS ("))
        printed = [float(v) for v in divergence.removesuffix("))").split("max divergence ")[1]
                   .split(" (<= ")]
        if float(gx) >= np.finfo(float).tiny:
            assert printed == pytest.approx([3.750e-07 * float(gx), 8.596e-07 * float(gx)],
                                            rel=1e-3)

    def test_field_file_verifies_like_the_config_that_wrote_it(self, tmp_path):
        # every check runs on the configured grid and field, so a gen-field
        # file and the config that wrote it give the same report
        gen = write_cfg(tmp_path, VERIFY_CFG.format(out=tmp_path / "gen"), "gen.cfg")
        assert main(["gen-field", gen, "--quiet"]) == 0
        source = "field.pattern = layered\nfield.contrast_x = 1e2\nfield.contrast_y = 1e2"
        reports = {}
        for name, field in [("path", f"field.path = {tmp_path / 'gen' / 'field.txt'}"),
                            ("config", source)]:
            text = VERIFY_CFG.format(out=tmp_path / name).replace(source, field)
            assert main(["verify", write_cfg(tmp_path, text, f"{name}.cfg"), "--quiet"]) == 0
            reports[name] = (tmp_path / name / "verify_report.txt").read_text()
        assert reports["path"] == reports["config"]
        assert [ln.split(":")[0] for ln in reports["path"].splitlines()] == list(VERIFY_CHECKS)

    def test_limit_and_nullspace_checks_run_on_a_non_square_field_file(self, tmp_path, capsys):
        grid = build_grid(10, 6)
        field = generate_contrast_field(grid, 1e3, 1e2, "lognormal", 3)
        write_field(tmp_path / "k.txt", grid, field)
        text = (VERIFY_CFG.format(out=tmp_path / "out")
                .replace("grid.nx = 8\ngrid.ny = 8", "grid.nx = 10\ngrid.ny = 6")
                .replace("field.pattern = layered\nfield.contrast_x = 1e2\nfield.contrast_y = 1e2",
                         f"field.path = {tmp_path / 'k.txt'}"))
        assert main(["verify", write_cfg(tmp_path, text)]) == 0
        lines = capsys.readouterr().out.splitlines()
        limits = brinkman2d.analysis.limit_checks(grid, normalize(field), BoundaryData(1.0, 0.0))
        worst = brinkman2d.analysis.nullspace_residual(grid, normalize(field), 1.0)
        for name, value in [("darcy_limit", limits.darcy_rel_diff),
                            ("stokes_limit", limits.stokes_rel_diff),
                            ("nullspace", worst)]:
            assert any(ln.startswith(f"{name}: PASS (relative") and f" {value:.3e} (<= " in ln
                       for ln in lines), name

    def test_forced_nonconvergence_fails_suite(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path,
            VERIFY_CFG.format(out=out).replace("solver.tol = 1e-8",
                                               "solver.tol = 1e-8\nsolver.maxit = 1"),
        )
        assert main(["verify", cfg]) == 1
        assert "divergence: FAIL" in capsys.readouterr().out

    def test_zero_wall_data_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("verify solved a system with zero wall data")

        monkeypatch.setattr(brinkman2d.analysis, "direct_solve", no_solve)
        monkeypatch.setattr(brinkman2d.cli, "gmres_solve", no_solve)
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, VERIFY_CFG.format(out=out) + "bc.gx = 0.0\nbc.gy = 0.0\n")
        assert main(["verify", cfg]) == 2
        err = capsys.readouterr().err
        assert "'bc.gx'" in err and "bc.gy" in err
        assert not out.exists()


    def test_unbuildable_field_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # the field check comes before the uniform-flow direct solve, which
        # would also load SuperLU
        calls = []
        direct_solve = brinkman2d.analysis.direct_solve

        def counted(*args, **kwargs):
            calls.append(args)
            return direct_solve(*args, **kwargs)

        monkeypatch.setattr(brinkman2d.analysis, "direct_solve", counted)
        (tmp_path / "k.txt").write_text("8x8\n" + "1 1\n" * 64)
        out = tmp_path / "out"
        text = VERIFY_CFG.format(out=out).replace(
            "field.pattern = layered\nfield.contrast_x = 1e2\nfield.contrast_y = 1e2",
            f"field.path = {tmp_path / 'k.txt'}")
        assert main(["verify", write_cfg(tmp_path, text)]) == 2
        assert "header must be 'nx ny', got '8x8'" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


class TestGenFieldCommand:
    def test_generated_file_matches_library_call(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path,
            "grid.nx = 6\ngrid.ny = 5\nanna = 1.0\nfield.pattern = lognormal\n"
            "field.contrast_x = 1e3\nfield.contrast_y = 1e2\nfield.seed = 3\n"
            f"output.dir = {out}\n",
        )
        assert main(["gen-field", cfg, "--quiet"]) == 0
        grid = build_grid(6, 5)
        loaded = load_field(out / "field.txt", grid)
        direct = generate_contrast_field(grid, 1e3, 1e2, "lognormal", 3)
        assert np.array_equal(loaded.kxx, direct.kxx)
        assert np.array_equal(loaded.kyy, direct.kyy)



SCALED_SOLVE = """\
grid.nx = 4
grid.ny = 4
scales.l_ref = 1.0
scales.mu = 1.0
scales.mu_eff = 1.0
scales.k_max = 1e-3
field.pattern = layered
output.dir = {out}
"""


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert main(["solve", "/nonexistent/run.cfg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_key_named_in_message(self, tmp_path, capsys):
        base = f"grid.nx = 2\ngrid.ny = 2\nanna = 1.0\nfield.pattern = layered\n" \
               f"output.dir = {tmp_path / 'out'}\n"
        for text, named in [
            (base + "solver.magic = 3\n", "'solver.magic'"),
            (base + "solver.tol 1e-6\n", "'solver.tol 1e-6': "),  # no '='
            (base + "anna = 2.0\n", "'anna': "),  # given twice
            (base + "solver.tol =\n", "'solver.tol': "),
            (base.replace("grid.nx = 2\n", ""), "'grid.nx': grid.nx and grid.ny are required"),
            (base.replace("grid.ny = 2\n", ""), "'grid.ny': grid.nx and grid.ny are required"),
            (base.replace("grid.nx = 2\ngrid.ny = 2\n", ""),
             "'grid.nx': grid.nx and grid.ny are required"),
            (base.replace("grid.nx = 2", "grid.nx = 0"), "'grid.nx': "),
            (base.replace("grid.ny = 2", "grid.ny = 0"), "'grid.ny': grid must be at least 1x1"),
            (base.replace("= 2", "= 0"), "'grid.nx': grid must be at least 1x1, got 0x0"),
            (base.replace("layered", "stripes"), "'field.pattern': "),
            (base + "solver.pin_pressure = maybe\n", "'solver.pin_pressure': "),
        ]:
            cfg = write_cfg(tmp_path, text)
            assert main(["solve", cfg]) == 2, text
            assert capsys.readouterr().err.startswith(f"error: config key {named}"), text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("solver.tol", "0.0"),
        ("solver.tol", "1.0"),
        ("solver.tol", "2"),
        ("solver.maxit", "0"),
        ("solver.restart", "-3"),
        ("solver.preconditioner", "ilu"),
    ])
    def test_bad_solver_setting_named(self, tmp_path, capsys, key, value):
        text = UNIFORM_SOLVE.format(out=tmp_path / "out").replace(
            "solver.tol = 1e-12", f"{key} = {value}")
        with pytest.raises(ConfigError, match=key) as info:
            parse_config_text(text)
        assert info.value.key == key
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", cfg]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("scales.mu", "-1.0", "must be positive and finite, got -1.0"),
        ("scales.l_ref", "0", "must be positive and finite, got 0.0"),
        ("scales.k_max", "-1e-3", "must be positive and finite, got -0.001"),
        ("solver.tol", "2.0", "must be in (0, 1), got 2.0"),
        ("solver.maxit", "0", "must be >= 1, got 0"),
        ("solver.restart", "-3", "must be >= 1, got -3"),
    ])
    def test_refused_value_names_its_own_key(self, tmp_path, capsys, key, value, message):
        # the check that refuses a value names its key; no layer re-keys it
        lines = SCALED_SOLVE.format(out=tmp_path / "out").splitlines()
        lines = [line for line in lines if not line.startswith(f"{key} =")] + [f"{key} = {value}"]
        cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
        assert main(["solve", cfg]) == 2
        assert capsys.readouterr().err == f"error: config key '{key}': {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, fix, key, message", [
        ("sweep", {}, "sweep.da", "a sweep requires a da list"),
        ("solve", {"sweep.da": "1e-3,1e3"}, "sweep.da",
         "only sweep reads a da list, so solve would ignore it; delete this line"),
        ("verify", {"sweep.da": "1e-3,1e3"}, "sweep.da",
         "only sweep reads a da list, so verify would ignore it; delete this line"),
        ("gen-field", {"sweep.da": "1e-3,1e3"}, "sweep.da",
         "only sweep reads a da list, so gen-field would ignore it; delete this line"),
        # a sweep sets anna = Da per point, so the scales would be echoed in
        # config_resolved.txt but never used
        ("sweep", {"sweep.da": "1.0", "anna": None, "scales.l_ref": "1.0", "scales.mu": "1.0",
                   "scales.mu_eff": "1.0", "scales.k_max": "1e-3"}, "scales.l_ref",
         "a sweep takes anna from sweep.da, so the scales block would be ignored; "
         "set anna = 1.0 instead"),
        ("sweep", {"sweep.da": "1.0", "anna": "7.0"}, "anna",
         "a sweep takes anna from sweep.da, so anna = 7.0 would be ignored; set anna = 1.0"),
        ("gen-field", {"field.pattern": None, "field.contrast_x": None,
                       "field.contrast_y": None, "field.path": "k.txt"}, "field.pattern",
         "gen-field requires a generator pattern, not field.path"),
        ("verify", {"bc.gx": "0.0"}, "bc.gx",
         "verify needs nonzero wall data, but bc.gx and bc.gy are both 0"),
        # incompressibility leaves the lid-driven Stokes limit flow zero
        ("verify", {"grid.nx": "1"}, "grid.nx", "verify needs a grid of at least 2x2, got 1x8"),
        ("verify", {"grid.ny": "1"}, "grid.ny", "verify needs a grid of at least 2x2, got 8x1"),
    ], ids=["sweep-without-da", "da-outside-a-sweep", "da-outside-verify", "da-outside-gen-field",
            "sweep-scales", "sweep-anna", "gen-field-path", "verify-zero-wall-data",
            "verify-one-column", "verify-one-row"])
    def test_command_rule_exits_2_before_the_field_is_built(
            self, tmp_path, capsys, monkeypatch, command, fix, key, message):
        # each command rule is checked before the grid and the field; a key
        # fixed to None is left out
        def no_field(*args, **kwargs):
            raise AssertionError(f"built the field of a {command} its config cannot run")

        monkeypatch.setattr(brinkman2d.cli, "_field_for", no_field)
        out = tmp_path / "out"
        lines = [line for line in UNIFORM_SOLVE.format(out=out).splitlines()
                 if line.split(" =")[0] not in fix]
        cfg = write_cfg(tmp_path, "\n".join(lines + [f"{k} = {v}" for k, v in fix.items()
                                                     if v is not None]) + "\n")
        assert main([command, cfg, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: config key '{key}': {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify", "gen-field"])
    def test_out_under_a_file_exits_2_before_the_field_is_built(
            self, tmp_path, capsys, monkeypatch, command):
        # os.makedirs would fail only once the run is done, losing its results
        def no_field(*args, **kwargs):
            raise AssertionError(f"built the field of a {command} that cannot write its output")

        monkeypatch.setattr(brinkman2d.cli, "_field_for", no_field)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        da = "sweep.da = 1e-3,1e3\n" if command == "sweep" else ""
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=tmp_path / "ignored") + da)
        for out in (taken, taken / "run", taken / "run" / "deeper"):
            assert main([command, cfg, "--out", str(out), "--quiet"]) == 2
            assert capsys.readouterr().err == (
                f"error: config key 'output.dir': {str(out)!r} cannot be a directory: "
                f"{str(taken)!r} exists and is not one\n")
        assert taken.read_text() == "keep\n"
        assert sorted(os.listdir(tmp_path)) == ["run.cfg", "taken"]

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("fix, cause", [
        ({"scales.l_ref": "1e5", "scales.k_max": "1e-320"},
         "config key 'scales.l_ref': Da = 0.0 under- or overflows double precision"),
        ({"scales.l_ref": "1e200"},  # float l_ref**2 raises OverflowError, not inf
         "config key 'scales.l_ref': Da = 0.0 under- or overflows double precision"),
        ({"scales.mu": "1e-10", "scales.mu_eff": "1e300"},
         "config key 'scales.l_ref': mu_eff/mu = inf under- or overflows double precision"),
        ({"scales.l_ref": "1e-200"},  # float k_max / l_ref**2 raised ZeroDivisionError
         "config key 'scales.l_ref': Da = inf under- or overflows double precision"),
    ], ids=["da-underflow", "l_ref-squared-overflows", "ratio-overflow",
            "l_ref-squared-underflows"])
    def test_anna_out_of_double_range_exits_2_before_assembly(
            self, tmp_path, capsys, monkeypatch, command, fix, cause):
        # unchecked, an anna of 0 solves the pure-drag system and exits 0, and
        # an inf one fails only at assembly, after the field is built
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled with an anna of 0 or inf")

        monkeypatch.setattr(brinkman2d.cli, "assemble_monolithic", no_assembly)
        monkeypatch.setattr(brinkman2d.analysis, "assemble_monolithic", no_assembly)
        text = SCALED_SOLVE.format(out=tmp_path / "out")
        lines = [line for line in text.splitlines() if line.split(" =")[0] not in fix]
        cfg = write_cfg(tmp_path, "\n".join(lines + [f"{k} = {v}" for k, v in fix.items()]))
        assert main([command, cfg]) == 2
        assert capsys.readouterr().err == f"error: {cause}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("anna", "inf"),
        ("field.contrast_x", "inf"),
        ("field.contrast_y", "nan"),
        ("bc.gx", "nan"),
        ("bc.gy", "-inf"),
        ("solver.tol", "inf"),
        ("sweep.da", "1e-3,nan"),
        ("sweep.da", "logspace:0,400,3"),
    ])
    def test_non_finite_number_named(self, tmp_path, capsys, key, value):
        text = UNIFORM_SOLVE.format(out=tmp_path / "out")
        lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
        text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
        with pytest.raises(ConfigError, match="finite") as info:
            parse_config_text(text)
        assert info.value.key == key
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", cfg]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_krylov_basis_over_physical_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(brinkman2d.solvers, "_physical_memory_bytes", lambda: 2**16)
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=tmp_path / "out"))
        assert main(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'solver.restart': m = 208 on n = 208 unknowns")
        assert "0.0 GiB of physical memory" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "gen-field", "verify"])
    def test_field_that_cannot_be_allocated_exits_2(self, tmp_path, capsys, monkeypatch,
                                                     command):
        # stands in for grid.nx = grid.ny = 200000, whose 298 GiB field numpy
        # refuses; a real request that large could be granted under overcommit
        def refuse(*args):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(brinkman2d.cli, "generate_contrast_field", refuse)
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=tmp_path / "out"))
        assert main([command, cfg]) == 2
        assert capsys.readouterr().err == ("error: out of memory: Unable to allocate 298. GiB "
                                           "for an array\n")
        assert not (tmp_path / "out").exists()

    def test_da_list_that_cannot_be_allocated_is_a_config_error(self, tmp_path, capsys,
                                                                monkeypatch):
        def refuse(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(brinkman2d.config.np, "linspace", refuse)
        spec = "logspace:0,1,100000000000"
        cfg = write_cfg(tmp_path, SWEEP_CFG.format(out=tmp_path / "out").replace(
            "sweep.da = 1e-1,1.0,1e1", f"sweep.da = {spec}"))
        assert main(["sweep", cfg]) == 2
        assert capsys.readouterr().err == (f"error: config key 'sweep.da': {cfg}:10: "
                                           f"{spec!r} does not fit in memory\n")
        assert not (tmp_path / "out").exists()

    def test_missing_field_file(self, tmp_path, capsys):
        # a missing file, then files the field reader refuses
        for name, text, cause in [
            ("nope.txt", None, "No such file"),
            ("empty.txt", "# a comment\n\n", "empty field file"),
            ("one.txt", "2\n1 1\n", "header must be 'nx ny', got '2'"),
            ("float.txt", "2.0 2\n1 1\n", "non-integer header '2.0 2'"),
        ]:
            path = tmp_path / name
            if text is not None:
                path.write_text(text)
            cfg = write_cfg(tmp_path, f"grid.nx = 2\ngrid.ny = 2\nanna = 1.0\n"
                                      f"field.path = {path}\noutput.dir = {tmp_path / 'out'}\n")
            assert main(["solve", cfg]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and cause in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("field.contrast_x", "1e5"), ("field.contrast_y", "10"), ("field.seed", "7"),
    ])
    def test_generator_key_of_a_field_path_run_exits_2(self, tmp_path, capsys, key, value):
        # config_resolved.txt leaves the generator keys out, so a set one
        # would re-parse to its default; the run refuses it instead
        field = tmp_path / "k.txt"
        field.write_text("2 2\n" + "1 1\n" * 4)
        text = (f"grid.nx = 2\ngrid.ny = 2\nanna = 1.0\nfield.path = {field}\n"
                f"output.dir = {tmp_path / 'out'}\n")
        ok = tmp_path / "ok"
        assert main(["solve", write_cfg(tmp_path, text), "--out", str(ok), "--quiet"]) == 0
        assert main(["solve", write_cfg(tmp_path, text + f"{key} = {value}\n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{key}'") and "field.path" in err, err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # a UTF-16 file with its byte-order mark, as some editors save text
        cfg = tmp_path / "run.cfg"
        text = UNIFORM_SOLVE.format(out=tmp_path / "out")
        cfg.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
        assert main(["solve", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err and "not UTF-8 text" in err
        assert not (tmp_path / "out").exists()

    def test_field_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        field = tmp_path / "k.txt"
        field.write_bytes(b"2 2\n1 1\n1 \xe9\n1 1\n1 1\n")  # a Latin-1 byte on line 3
        cfg = write_cfg(tmp_path, f"grid.nx = 2\ngrid.ny = 2\nanna = 1.0\nfield.path = {field}\n"
                                  f"output.dir = {tmp_path / 'out'}\n")
        assert main(["solve", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(field) in err and "not UTF-8 text" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fix, cause", [
        ({"field.pattern": "lognormal", "field.seed": "-1"}, "'field.seed'"),
        ({"grid.nx": "1", "field.contrast_y": "10"}, "grid too small to realize contrast"),
        ({"grid.nx": "1", "grid.ny": "1", "field.pattern": "checkerboard",
          "field.contrast_x": "10", "field.contrast_y": "10"},
         "grid too small to realize contrast"),
    ], ids=["negative-seed", "layered-one-column", "checkerboard-1x1"])
    def test_bad_field_config_exits_2(self, tmp_path, capsys, fix, cause):
        text = UNIFORM_SOLVE.format(out=tmp_path / "out")
        lines = [line for line in text.splitlines() if line.split(" =")[0] not in fix]
        text = "\n".join(lines + [f"{k} = {v}" for k, v in fix.items()]) + "\n"
        for command in ("solve", "sweep", "gen-field"):
            da = "sweep.da = 1.0\n" if command == "sweep" else ""
            cfg = write_cfg(tmp_path, text + da)
            assert main([command, cfg, "--quiet"]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and cause in err, (command, err)
        assert not (tmp_path / "out").exists()


OVERFLOW_BASE = """
grid.nx = 4
grid.ny = 4
anna = 1.0
field.pattern = layered
field.contrast_x = 1e2
field.contrast_y = 1e2
bc.gx = 1.0
bc.gy = 0.0
solver.tol = 1e-8
output.timings = false
output.dir = {out}
"""


#: A 4x4 field file: one kxx of 1e300, every other kxx 1e-10, every kyy 1.
SUBNORMAL_FIELD = "4 4\n1e300 1\n" + "1e-10 1\n" * 15


@pytest.mark.parametrize("command, fix, cause", [
    ("solve", {"anna": "1e300"}, "the rhs norm ||b|| overflows double precision"),
    ("verify", {"anna": "1e300"}, "the rhs norm ||b|| overflows double precision"),
    ("solve", {"bc.gx": "1e308"}, "the rhs overflows double precision"),
    ("sweep", {"sweep.da": "1e300,1e301"}, "the rhs norm ||b|| overflows double precision"),
    ("sweep", {"sweep.da": "1e308"}, "anna = 1.00000e+308 overflows the matrix"),
    ("solve", {"anna": "1e306", "bc.gx": "1e-300"},
     "the product norm ||A q|| overflows double precision at iteration 1"),
    # drags of 1e200 and 1e300 are finite, and the first product overflows
    ("solve", {"field.contrast_x": "1e200", "field.contrast_y": "1e200"},
     "the product norm ||A q|| overflows double precision at iteration 1"),
    ("solve", {"field.pattern": "lognormal", "field.contrast_x": "1e300",
               "field.contrast_y": "1e300"},
     "the product norm ||A q|| overflows double precision at iteration 1"),
    # SUBNORMAL_FIELD normalizes to K* = 1e-310 in kxx, whose drag is infinite
    ("solve", {"field.pattern": None, "field.contrast_x": None, "field.contrast_y": None,
               "field.path": "k.txt"},
     "the drag 1/K* overflows double precision on 19 faces"),
], ids=["solve-anna", "verify-anna", "solve-gx", "sweep-da", "sweep-da-matrix",
        "solve-product", "solve-drag", "solve-drag-lognormal", "solve-drag-subnormal-field"])
def test_overflowing_finite_input_exits_2(tmp_path, capfd, monkeypatch, command, fix, cause):
    # finite config values whose scale overflows double precision: one error
    # line, no traceback, no warning and nothing else on either stream (the
    # kappa of an overflowed sweep printed a LAPACK DLASCL message); a key
    # fixed to None is left out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.txt").write_text(SUBNORMAL_FIELD)
    text = OVERFLOW_BASE.format(out=tmp_path / "out")
    lines = [line for line in text.splitlines() if line.split(" =")[0] not in fix]
    fixed = [f"{k} = {v}" for k, v in fix.items() if v is not None]
    cfg = write_cfg(tmp_path, "\n".join(lines + fixed))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, cfg, "--quiet"])
    captured = capfd.readouterr()
    assert code == 2
    assert caught == []
    assert captured.err.startswith(f"error: {cause}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


def test_field_whose_normalized_k_underflows_exits_2(tmp_path, capfd):
    # every entry is positive and finite, but K* = 1e-300 / 1e300 is 0.0,
    # which the field check refused as "kxx must be strictly positive"
    field = tmp_path / "k.txt"
    field.write_text("4 4\n" + "1e-300 1e300\n" * 16)
    text = OVERFLOW_BASE.format(out=tmp_path / "out").replace(
        "field.pattern = layered\nfield.contrast_x = 1e2\nfield.contrast_y = 1e2",
        f"field.path = {field}")
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", cfg, "--quiet"]) == 2
    captured = capfd.readouterr()
    assert captured.err == ("error: K* = K / kmax underflows double precision on 16 cells "
                            "(kmax = 1.00000e+300, the field's smallest K is 1.00000e-300)\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_each_command_runs_the_function_bound_on_the_module(tmp_path, monkeypatch, capsys):
    # a tracer or a test that rebinds cli.run_<command> sees the call, on the
    # config's grid, and main prints the text it returns unless --quiet is given
    calls = []
    for name, (run, _) in brinkman2d.cli._commands().items():
        monkeypatch.setattr(brinkman2d.cli, run.__name__, lambda config, grid, name=name:
                            calls.append((name, grid.nx, grid.ny)) or (0, name))
    text = UNIFORM_SOLVE.format(out=tmp_path / "out")
    for name in ("solve", "sweep", "verify", "gen-field"):
        cfg = write_cfg(tmp_path, text + ("sweep.da = 1.0\n" if name == "sweep" else ""))
        assert main([name, cfg]) == 0
        assert capsys.readouterr().out == f"{name}\n"
        assert main([name, cfg, "--quiet"]) == 0
        assert capsys.readouterr().out == ""
    assert calls == [(name, 8, 8) for name in ("solve", "sweep", "verify", "gen-field")
                     for _ in range(2)]


class TestMmapThreshold:
    """Only the CLI fixes glibc's mmap threshold, once per ``main`` call and
    before the config is parsed; importing or calling the library leaves the
    caller's allocator as it was."""

    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)),
                                     malloc_trim=lambda pad: 0)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        return calls

    def test_main_fixes_it_once_per_call(self, tmp_path, mallopt_calls):
        cfg = write_cfg(tmp_path, UNIFORM_SOLVE.format(out=tmp_path / "out"))
        assert main(["solve", cfg, "--quiet"]) == 0
        assert mallopt_calls == [(-3, 1 << 20)]
        assert main(["solve", str(tmp_path / "missing.cfg")]) == 2
        assert mallopt_calls == [(-3, 1 << 20)] * 2

    def test_library_calls_leave_it(self, tmp_path, mallopt_calls):
        grid = build_grid(8, 8)
        field = generate_contrast_field(grid, 1e2, 1e2, "layered", 0)
        bc = BoundaryData(1.0, 0.0)
        system = assemble_monolithic(grid, normalize(field), 1.0, bc)
        assert gmres_solve(system.matrix, system.rhs)[1].converged
        assert sweep_darcy(grid, normalize(field), [1.0], bc, SolverConfig())[0].report.converged
        config = parse_config(write_cfg(tmp_path, VERIFY_CFG.format(out=tmp_path / "out")))
        assert brinkman2d.cli.run_verify(config, grid)[0] == 0
        assert mallopt_calls == []

    def test_import_leaves_it(self):
        code = (
            "import ctypes\n"
            "names = []\n"
            "class LibC:\n"
            "    def __getattr__(self, name):\n"
            "        names.append(name)\n"
            "        raise AttributeError(name)\n"
            "real = ctypes.CDLL\n"
            "ctypes.CDLL = lambda name, *a, **k: LibC() if name is None else real(name, *a, **k)\n"
            "import brinkman2d, brinkman2d.cli\n"
            "print(names)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"


def test_console_script_resolves_to_a_callable():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["brinkman2d"]
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))


class TestModuleEntryPoint:
    """``python -m brinkman2d``, the entry a shell or a benchmark runs."""

    def run(self, tmp_path, text):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        cfg = write_cfg(tmp_path, text)
        return subprocess.run([sys.executable, "-m", "brinkman2d", "solve", cfg, "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)

    def test_small_solve_exits_0(self, tmp_path):
        out = tmp_path / "out"
        text = UNIFORM_SOLVE.format(out=out).replace("grid.nx = 8\ngrid.ny = 8",
                                                      "grid.nx = 4\ngrid.ny = 4")
        run = self.run(tmp_path, text)
        assert run.returncode == 0, run.stderr
        assert (out / "report.csv").read_text().splitlines()[1].split(",")[2] == "true"

    def test_unknown_key_exits_2(self, tmp_path):
        run = self.run(tmp_path, UNIFORM_SOLVE.format(out=tmp_path / "out") + "solver.magic = 3\n")
        assert run.returncode == 2
        assert "'solver.magic'" in run.stderr
        assert not (tmp_path / "out").exists()


def test_every_refusal_names_a_config_key():
    # each module raises ConfigError where it checks a value, so a key is
    # spelled in many places; a literal one must be a key the parser reads
    keys = brinkman2d.config._KEYS
    modules = set()
    for path in sorted((Path(brinkman2d.cli.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "ConfigError" and node.args):
                continue
            first, where = node.args[0], f"{path.name}:{node.lineno}"
            if isinstance(first, ast.Constant):
                assert first.value in keys, where
            elif isinstance(first, ast.JoinedStr):  # f"scales.{name}"
                prefix = first.values[0]
                assert isinstance(prefix, ast.Constant), where
                assert any(key.startswith(prefix.value) for key in keys), where
            else:  # the offending line, a key from a table, the config path
                continue
            modules.add(path.stem)
    assert modules == {"cli", "config", "scaling", "solvers"}


def test_every_value_error_exits_2():
    # main maps each refusal type to exit 2 by name; one it does not name
    # would reach the user as a traceback.  analysis.UnsupportedSizeError
    # is the exception: the CLI asks for kappa only on sizes that allow it
    package = Path(brinkman2d.cli.__file__).parent
    bases = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}

    def refusal(name):
        return name == "ValueError" or any(map(refusal, bases.get(name, ())))

    refusals = set(filter(refusal, bases))
    main_ = next(node for node in ast.parse((package / "cli.py").read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = set()
    for handler in next(node for node in main_.body if isinstance(node, ast.Try)).handlers:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught |= {t.id for t in types}
    assert {"ConfigError", "InvalidFieldError", "NumericOverflowError"} <= refusals
    assert refusals - caught == {"UnsupportedSizeError"}
