"""Command-line front end: solve / sweep / verify / gen-field.

Exit codes: 0 success, 1 numerical failure (non-convergence or a failing
verification check), 2 usage or configuration error, including finite
config values whose scale overflows double precision and an input too
large to allocate.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import analysis
from ._util import NumericOverflowError, atomic_write_text, fix_mmap_threshold
from .config import ConfigError, RunConfig, parse_config, write_config
from .discretization import BoundaryData, assemble_monolithic
from .grid import StaggeredGrid, build_grid
from .media import (
    InvalidFieldError,
    generate_contrast_field,
    load_field,
    normalize,
    write_field,
)
from .scaling import classify_regime
from .solvers import gmres_solve


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


def _check_out_dir(path: str) -> None:
    """Refuse an output directory that ``os.makedirs`` could not make, before
    any work: the nearest existing component of ``path`` must be a directory."""
    head = path
    while head and not os.path.lexists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise ConfigError("output.dir", f"{path!r} cannot be a directory: {head!r} exists "
                                        "and is not one")


def _check_command(command: str, config: RunConfig) -> None:
    """Refuse a config that ``command`` cannot run or would partly ignore."""
    if command == "sweep" and config.da_values is None:
        raise ConfigError("sweep.da", "a sweep requires a da list")
    if command != "sweep" and config.da_values is not None:
        raise ConfigError("sweep.da", f"only sweep reads a da list, so {command} "
                                      "would ignore it; delete this line")
    if command == "sweep" and config.scales is not None:
        raise ConfigError("scales.l_ref", "a sweep takes anna from sweep.da, so the scales "
                                          "block would be ignored; set anna = 1.0 instead")
    if command == "sweep" and config.anna != 1.0:
        raise ConfigError("anna", f"a sweep takes anna from sweep.da, so anna = {config.anna} "
                                  "would be ignored; set anna = 1.0")
    if command == "gen-field" and config.field_pattern is None:
        raise ConfigError("field.pattern", "gen-field requires a generator pattern, not field.path")
    if command == "verify" and config.gx == 0.0 and config.gy == 0.0:
        # no flow: uniform_flow and divergence would pass vacuously and the
        # Darcy limit would compare zero with zero
        raise ConfigError("bc.gx", "verify needs nonzero wall data, but bc.gx and bc.gy are both 0")
    if command == "verify" and min(config.nx, config.ny) < 2:
        # on a grid one cell wide the lid-driven Stokes limit flow is zero, and
        # so is the Darcy reference's interior flow when the wall data points
        # across that cell: a limit check's relative difference would be 0/0
        raise ConfigError("grid.nx" if config.nx < 2 else "grid.ny",
                          f"verify needs a grid of at least 2x2, got {config.nx}x{config.ny}")


def _solve_configured(config: RunConfig, grid: StaggeredGrid, kstar):
    """The configured system on ``kstar``, solved by GMRES: ``(x, report,
    max |div u|)``."""
    system = assemble_monolithic(grid, kstar, config.effective_anna(),
                                 BoundaryData(config.gx, config.gy),
                                 pin_pressure=config.pin_pressure)
    x, report = gmres_solve(system.matrix, system.rhs, config.solver_config())
    return x, report, analysis.check_divergence(grid, x[: grid.n_velocity])


def run_solve(config: RunConfig, grid: StaggeredGrid) -> tuple[int, str]:
    x, report, div_max = _solve_configured(config, grid, normalize(_field_for(config, grid)))
    anna = config.effective_anna()

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
        f"{report.final_relres:.5e},{div_max:.5e},{classify_regime(anna)},{wall_ms:.5e},"
        f"{estimated:.5e}\n",
    )
    write_config(config, os.path.join(out, "config_resolved.txt"))

    return 0 if report.converged else 1, (
        f"solve: anna={anna:.5e} iterations={report.iterations} "
        f"relres={report.final_relres:.5e} estimated_relres={estimated:.5e} "
        f"converged={report.converged}")


def run_sweep(config: RunConfig, grid: StaggeredGrid) -> tuple[int, str]:
    kstar = normalize(_field_for(config, grid))
    bc = BoundaryData(config.gx, config.gy)
    rows = analysis.sweep_darcy(
        grid,
        kstar,
        config.da_values,
        bc,
        config.solver_config(),
        pin_pressure=config.pin_pressure,
    )
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    analysis.write_regime_csv(rows, os.path.join(out, "regime_table.csv"), timings=config.timings)
    write_config(config, os.path.join(out, "config_resolved.txt"))

    text = "\n".join(f"da={row.anna:.1e} anna={row.anna:.1e} iters={row.report.iterations} "
                     f"relres={row.report.final_relres:.2e} regime={classify_regime(row.anna)}"
                     for row in rows)
    return 0 if all(row.report.converged for row in rows) else 1, text


def run_gen_field(config: RunConfig, grid: StaggeredGrid) -> tuple[int, str]:
    field = _field_for(config, grid)
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "field.txt")
    write_field(path, grid, field)
    return 0, (f"gen-field: wrote {path} (contrast_x={field.contrast_x:.3e}, "
               f"contrast_y={field.contrast_y:.3e})")


def run_verify(config: RunConfig, grid: StaggeredGrid) -> tuple[int, str]:
    """Run the fixed six-check verification suite; exit 0 iff all pass."""
    # every check is linear in the wall data and reads it relative to its
    # size: run them on the data scaled by the exact power of two that brings
    # the larger value into [1, 2), so subnormal data loses no digits
    exponent = math.frexp(max(abs(config.gx), abs(config.gy)))[1] - 1
    config = dataclasses.replace(config, gx=math.ldexp(config.gx, -exponent),
                                 gy=math.ldexp(config.gy, -exponent))
    anna = config.effective_anna()
    kstar = normalize(_field_for(config, grid))  # a field the grid cannot hold fails here

    # uniform flow: constant data and uniform K* admit an exact discrete solution
    err = analysis.uniform_flow_error(grid, anna, config.gx, config.gy)
    # divergence of a converged iterative solve on the configured problem
    xg, report, div = _solve_configured(config, grid, kstar)
    bound = 10.0 * config.tol * analysis.l2_norm(xg[: grid.n_velocity])
    # manufactured-solution convergence order
    orders = analysis.manufactured_run((16, 32, 64), anna=1.0).velocity_orders
    # limiting models on the configured grid and field
    limits = analysis.limit_checks(grid, kstar, BoundaryData(config.gx, config.gy))
    darcy, stokes = limits.darcy_rel_diff, limits.stokes_rel_diff
    # constant-pressure nullspace of the configured unpinned matrix
    worst = analysis.nullspace_residual(grid, kstar, anna)

    checks = (
        ("uniform_flow", err <= 1e-10, f"max relative error {err:.3e} (<= 1e-10)"),
        ("divergence", report.converged and div <= bound,
         f"converged={report.converged}, max divergence {math.ldexp(div, exponent):.3e} "
         f"(<= {math.ldexp(bound, exponent):.3e})"),  # in the config's units
        ("convergence_order", bool(np.all((orders >= 1.7) & (orders <= 2.3))),
         f"velocity orders [{', '.join(f'{v:.2f}' for v in orders)}] (in [1.7, 2.3])"),
        ("darcy_limit", darcy <= 1e-3, f"relative difference {darcy:.3e} (<= 1e-3)"),
        ("stokes_limit", stokes <= 1e-3, f"relative difference {stokes:.3e} (<= 1e-3)"),
        ("nullspace", worst <= 1e-14, f"relative residual {worst:.3e} (<= 1e-14)"),
    )
    text = "\n".join(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
                     for name, ok, detail in checks)
    os.makedirs(config.out_dir, exist_ok=True)
    atomic_write_text(os.path.join(config.out_dir, "verify_report.txt"), text + "\n")
    return 0 if all(ok for _, ok, _ in checks) else 1, text


def _commands() -> dict:
    """Every subcommand: its ``run(config, grid) -> (exit code, stdout text)``
    and help line.  Built per call, so a function rebound here is the one that runs."""
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
    # glibc's mmap and trim thresholds: the same heap layout in every run,
    # whatever was imported first, for this process only
    fix_mmap_threshold()
    try:
        config = parse_config(args.config)
        if args.out is not None:
            config = dataclasses.replace(config, out_dir=args.out)  # checked like output.dir
        _check_out_dir(config.out_dir)
        _check_command(args.command, config)
        run, _ = _commands()[args.command]
        code, text = run(config, build_grid(config.nx, config.ny))
        if not args.quiet:
            print(text)
        return code
    except (ConfigError, InvalidFieldError, NumericOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
