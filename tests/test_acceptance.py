"""Acceptance suite: one test per release criterion.

Each test prints a single `[acceptance] criterion N: PASS/FAIL` line
(run with `pytest -s` to see them live).  Criterion 8 is expected to
fail; the assertion message and the README's 'Known deviations' section
carry the measured analysis.
"""

import numpy as np
import pytest

from brinkman2d import (
    BoundaryData,
    SolverConfig,
    assemble_monolithic,
    build_grid,
    direct_solve,
    eigen_spectrum,
    generate_contrast_field,
    gmres_solve,
    limit_checks,
    manufactured_run,
    normalize,
    uniform_kstar,
)
from brinkman2d.analysis import nullspace_residual, uniform_flow_error
from brinkman2d.cli import main


def report(number, ok, detail):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_system_size():
    grid = build_grid(20, 20)
    system = assemble_monolithic(
        grid, uniform_kstar(grid), 1.0, BoundaryData.uniform(grid, 1.0, 0.0)
    )
    ok = system.matrix.shape == (1240, 1240) and grid.n_total == 1240
    assert report(1, ok, f"20x20 grid gives matrix shape {system.matrix.shape}")


def test_criterion_2_uniform_flow_exactness():
    grid = build_grid(16, 16)
    worst = max(uniform_flow_error(grid, anna, 1.0, 0.0) for anna in (1e-3, 1.0, 1e3))
    ok = worst <= 1e-10
    assert report(2, ok, f"max nodal/divergence error {worst:.3e} (tolerance 1e-10)")


def test_criterion_3_regime_trend(regime_sweep):
    assert len(regime_sweep.rows) == 11
    its = [row.iterations for row in regime_sweep.rows]
    kappas = [row.kappa for row in regime_sweep.rows]

    inversions = [its[k + 1] - its[k] for k in range(len(its) - 1) if its[k + 1] > its[k]]
    ok_a = len(inversions) <= 2 and all(step <= 5 for step in inversions)
    ok_b = its[-1] <= its[0] / 3
    ok_c = all(b >= a for a, b in zip(kappas, kappas[1:]))
    ok = ok_a and ok_b and ok_c
    assert report(
        3,
        ok,
        f"iterations {its} (inversions {inversions}), "
        f"drop {its[0]} -> {its[-1]}, kappa {kappas[0]:.2e} -> {kappas[-1]:.2e} "
        f"monotone={ok_c}",
    )


def test_criterion_4_pressure_nullspace():
    worst = nullspace_residual((4, 8, 20), anna=1.0)
    ok = worst <= 1e-14
    assert report(4, ok, f"worst relative nullspace residual {worst:.3e} (tolerance 1e-14)")


def test_criterion_5_convergence_order():
    study = manufactured_run((16, 32, 64), anna=1.0)
    orders = study.velocity_orders
    ok = bool(np.all((orders >= 1.7) & (orders <= 2.3)))
    assert report(5, ok, f"observed velocity orders {np.round(orders, 3)} (window [1.7, 2.3])")


def test_criterion_6_limit_consistency():
    grid = build_grid(16, 16)
    field = generate_contrast_field(grid, 1e5, 1e5, "layered", 0)
    result = limit_checks(grid, field, BoundaryData.uniform(grid, 1.0, 0.0))
    ok = result.darcy_rel_diff <= 1e-3 and result.stokes_rel_diff <= 1e-3
    assert report(
        6,
        ok,
        f"Darcy limit diff {result.darcy_rel_diff:.3e}, "
        f"Stokes limit diff {result.stokes_rel_diff:.3e} (tolerance 1e-3)",
    )


def test_criterion_7_solver_oracle_equivalence():
    config = SolverConfig(tol=1e-6)
    worst = 0.0
    monotone = True
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(20, 201))
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x, rep = gmres_solve(A, b, config)
        xd = direct_solve(A, b)
        worst = max(worst, np.linalg.norm(x - xd) / np.linalg.norm(xd))
        monotone &= bool(np.all(np.diff(rep.residual_history) <= 1e-14))

    monolithic = (
        (6, 1.0, None, 1.0),
        (8, 0.5, "checkerboard", 10.0),
        (8, 0.1, "layered", 10.0),
    )
    for n, anna, pattern, contrast in monolithic:
        grid = build_grid(n, n)
        kstar = uniform_kstar(grid) if pattern is None else normalize(
            generate_contrast_field(grid, contrast, contrast, pattern, 11)
        )
        system = assemble_monolithic(
            grid, kstar, anna, BoundaryData.uniform(grid, 1.0, 0.0), pin_pressure=True
        )
        x, rep = gmres_solve(system.matrix, system.rhs, config)
        xd = direct_solve(system.matrix, system.rhs)
        worst = max(worst, np.linalg.norm(x - xd) / np.linalg.norm(xd))
        monotone &= bool(np.all(np.diff(rep.residual_history) <= 1e-14))

    ok = worst <= 1e-4 and monotone
    assert report(7, ok, f"worst GMRES-vs-direct relative error {worst:.3e} "
                         f"(tolerance 1e-4), histories monotone={monotone}")


def test_criterion_8_spectrum_trend():
    grid = build_grid(8, 8)
    kstar = normalize(generate_contrast_field(grid, 1e5, 1e5, "layered", 0))
    bc = BoundaryData.uniform(grid, 1.0, 0.0)
    minima = {}
    for da in (1e-2, 1e2):
        system = assemble_monolithic(grid, kstar, da, bc, pin_pressure=True)
        minima[da] = eigen_spectrum(system.matrix).min_abs_nonzero
    ok = minima[1e2] > minima[1e-2]
    report(
        8,
        ok,
        f"min nonzero |lambda|: Da=1e-2 -> {minima[1e-2]:.4e}, Da=1e2 -> {minima[1e2]:.4e}",
    )
    assert ok, (
        "criterion as stated does not hold for this discretization: the "
        "smallest full-matrix eigenvalue is a pressure Schur mode that "
        f"shrinks like 1/anna ({minima[1e-2]:.3e} -> {minima[1e2]:.3e}); the "
        "spectral distance that does grow with Da lives in the momentum "
        "block. See README, 'Known deviations'."
    )


def test_criterion_9_sweep_determinism(tmp_path):
    config_text = (
        "grid.nx = 8\ngrid.ny = 8\nanna = 1.0\n"
        "field.pattern = lognormal\nfield.contrast_x = 1e4\nfield.contrast_y = 1e4\n"
        "field.seed = 7\nsolver.tol = 1e-6\nsweep.da = logspace:-2,2,5\n"
        "output.timings = false\noutput.dir = {out}\n"
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config_text.format(out=out))
        assert main(["sweep", str(cfg), "--quiet"]) == 0
        outputs.append((out / "regime_table.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    assert report(9, ok, f"repeated sweep CSVs byte-identical: {ok} "
                         f"({len(outputs[0])} bytes)")
