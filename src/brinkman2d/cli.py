"""Command-line front end: solve / sweep / verify / gen-field.

Exit codes: 0 success, 1 numerical failure (non-convergence or a failing
verification check), 2 usage or configuration error, including finite
config values whose scale overflows double precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import analysis
from ._util import NumericOverflowError, atomic_write_text
from .config import ConfigError, RunConfig, parse_config, write_config
from .discretization import BoundaryData, assemble_monolithic
from .grid import StaggeredGrid, build_grid
from .media import (
    FieldFormatError,
    InvalidFieldError,
    generate_contrast_field,
    load_field,
    normalize,
    write_field,
)
from .scaling import classify_regime
from .solvers import SettingError, gmres_solve

#: Fixed verification suite, in report order.
VERIFY_CHECKS = (
    "uniform_flow",
    "divergence",
    "convergence_order",
    "darcy_limit",
    "stokes_limit",
    "nullspace",
)


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _field_for(config: RunConfig, grid: StaggeredGrid):
    if config.field_path is not None:
        return load_field(config.field_path, grid)
    return generate_contrast_field(
        grid, config.contrast_x, config.contrast_y, config.field_pattern, config.seed
    )


def write_scalar_field(path, grid: StaggeredGrid, values, name: str) -> None:
    """Solution-field file: ``#field <name>`` header, ``nx ny``, one value per line."""
    lines = [f"#field {name}", f"{grid.nx} {grid.ny}"]
    # Python floats format faster than numpy scalars and give the same text
    lines.extend(map("{:.17g}".format, np.asarray(values, dtype=float).ravel().tolist()))
    atomic_write_text(path, "\n".join(lines) + "\n")


def run_solve(config: RunConfig, quiet: bool = False) -> int:
    grid = build_grid(config.nx, config.ny)
    kstar = normalize(_field_for(config, grid))
    bc = BoundaryData(config.gx, config.gy)
    anna = config.effective_anna()
    system = assemble_monolithic(grid, kstar, anna, bc, pin_pressure=config.pin_pressure)

    x, report = gmres_solve(system.matrix, system.rhs, config.solver_config())
    div_max = analysis.check_divergence(grid, x[: grid.n_velocity])

    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    write_scalar_field(os.path.join(out, "u.txt"), grid, x[: grid.n_u], "u")
    write_scalar_field(os.path.join(out, "v.txt"), grid, x[grid.n_u: grid.n_velocity], "v")
    write_scalar_field(os.path.join(out, "p.txt"), grid, x[grid.n_velocity:], "p")
    wall_ms = report.wall_time * 1e3 if config.timings else 0.0
    estimated = report.residual_history[-1]
    atomic_write_text(
        os.path.join(out, "report.csv"),
        "anna,iterations,converged,relres,divergence_max,regime,wall_ms,estimated_relres\n"
        f"{anna:.5e},{report.iterations},{str(report.converged).lower()},"
        f"{report.final_relres:.5e},{div_max:.5e},{classify_regime(anna).value},{wall_ms:.5e},"
        f"{estimated:.5e}\n",
    )
    write_config(config, os.path.join(out, "config_resolved.txt"))

    _say(
        quiet,
        f"solve: anna={anna:.5e} iterations={report.iterations} "
        f"relres={report.final_relres:.5e} estimated_relres={estimated:.5e} "
        f"converged={report.converged}",
    )
    return 0 if report.converged else 1


def run_sweep(config: RunConfig, quiet: bool = False) -> int:
    if config.da_values is None:
        raise ConfigError("sweep.da", "a sweep requires a da list")
    if config.anna is not None and config.anna != 1.0:
        raise ConfigError("anna", f"a sweep takes anna from sweep.da, so anna = {config.anna} "
                                  "would be ignored; set anna = 1.0, or give a scales block "
                                  "for another viscosity ratio")
    grid = build_grid(config.nx, config.ny)
    field = _field_for(config, grid)
    bc = BoundaryData(config.gx, config.gy)
    rows = analysis.sweep_darcy(
        grid,
        field,
        config.da_values,
        config.viscosity_ratio(),
        bc,
        config.solver_config(),
        pin_pressure=config.pin_pressure,
    )
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    analysis.write_regime_csv(rows, os.path.join(out, "regime_table.csv"), timings=config.timings)
    write_config(config, os.path.join(out, "config_resolved.txt"))

    for row in rows:
        _say(
            quiet,
            f"da={row.da:.1e} anna={row.anna:.1e} iters={row.iterations} "
            f"relres={row.final_relres:.2e} regime={row.regime.value}",
        )
    return 0 if all(row.converged for row in rows) else 1


def run_gen_field(config: RunConfig, quiet: bool = False) -> int:
    if config.field_pattern is None:
        raise ConfigError("field.pattern", "gen-field requires a generator pattern, not field.path")
    grid = build_grid(config.nx, config.ny)
    field = _field_for(config, grid)
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "field.txt")
    write_field(path, grid, field)
    _say(quiet, f"gen-field: wrote {path} (contrast_x={field.contrast_x:.3e}, "
                f"contrast_y={field.contrast_y:.3e})")
    return 0


def run_verify(config: RunConfig, quiet: bool = False) -> int:
    """Run the fixed six-check verification suite; exit 0 iff all pass."""
    if config.gx == 0.0 and config.gy == 0.0:
        # no flow: uniform_flow and divergence would pass vacuously and the
        # Darcy limit would compare zero with zero
        raise ConfigError("bc.gx", "verify needs nonzero wall data, but bc.gx and bc.gy are both 0")
    results: dict[str, tuple[bool, str]] = {}
    grid = build_grid(config.nx, config.ny)
    anna = config.effective_anna()
    kstar = normalize(_field_for(config, grid))  # a field the grid cannot hold fails here

    # uniform flow: constant data and uniform K* admit an exact discrete solution
    err = analysis.uniform_flow_error(grid, anna, config.gx, config.gy)
    results["uniform_flow"] = (err <= 1e-10, f"max relative error {err:.3e} (<= 1e-10)")

    # divergence of a converged iterative solve on the configured problem
    bc = BoundaryData(config.gx, config.gy)
    system = assemble_monolithic(grid, kstar, anna, bc, pin_pressure=config.pin_pressure)
    xg, report = gmres_solve(system.matrix, system.rhs, config.solver_config())
    div = analysis.check_divergence(grid, xg[: grid.n_velocity])
    bound = 10.0 * config.tol * analysis.l2_norm(xg[: grid.n_velocity])
    detail = f"converged={report.converged}, max divergence {div:.3e} (<= {bound:.3e})"
    results["divergence"] = (report.converged and div <= bound, detail)

    # manufactured-solution convergence order
    study = analysis.manufactured_run((16, 32, 64), anna=1.0)
    orders = ", ".join(f"{v:.2f}" for v in study.velocity_orders)
    ok = bool(np.all((study.velocity_orders >= 1.7) & (study.velocity_orders <= 2.3)))
    results["convergence_order"] = (ok, f"velocity orders [{orders}] (in [1.7, 2.3])")

    # limiting models on a 16x16 grid
    vgrid = build_grid(16, 16)
    if config.field_pattern is not None:
        vfield = _field_for(config, vgrid)
    else:
        vfield = generate_contrast_field(vgrid, 1e5, 1e5, "layered", config.seed)
    limits = analysis.limit_checks(vgrid, vfield, bc)  # bc does not depend on the grid
    for name, diff in (("darcy_limit", limits.darcy_rel_diff),
                       ("stokes_limit", limits.stokes_rel_diff)):
        results[name] = (diff <= 1e-3, f"relative difference {diff:.3e} (<= 1e-3)")

    # constant-pressure nullspace of the unpinned matrix
    worst = analysis.nullspace_residual((4, 8, 20), anna)
    results["nullspace"] = (worst <= 1e-14, f"relative residual {worst:.3e} (<= 1e-14)")

    lines = []
    for name in VERIFY_CHECKS:
        ok, detail = results[name]
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    report_text = "\n".join(lines) + "\n"
    print(report_text, end="")
    os.makedirs(config.out_dir, exist_ok=True)
    atomic_write_text(os.path.join(config.out_dir, "verify_report.txt"), report_text)
    return 0 if all(ok for ok, _ in results.values()) else 1


def _commands() -> dict:
    """Every subcommand: the function that runs it and its help line.  Built
    per call, so a function rebound on this module is the one that runs."""
    return {
        "solve": (run_solve, "assemble and solve one system, write solution fields"),
        "sweep": (run_sweep, "run a Darcy-number sweep and write the regime table CSV"),
        "verify": (run_verify, "run the six-check verification suite"),
        "gen-field": (run_gen_field, "generate a permeability field file"),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brinkman2d",
        description="2D finite-volume solver for dimensionless Stokes-Brinkman flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_) in _commands().items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--out", help="output directory (overrides output.dir)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.out is not None:
            config = dataclasses.replace(config, out_dir=args.out)  # checked like output.dir
        run, _ = _commands()[args.command]
        return run(config, quiet=args.quiet)
    except (ConfigError, FieldFormatError, InvalidFieldError, NumericOverflowError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SettingError as exc:  # a setting the solver refused at run time
        print(f"error: solver.{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
