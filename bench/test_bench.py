"""Tests of the benchmark's own code: tracing, span accounting, metric
names and the computed-size formulas.  Every system here is tiny."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parents[1]
if importlib.util.find_spec("brinkman2d") is None:
    sys.path.insert(0, str(ROOT / "src"))

import brinkman2d.analysis  # noqa: E402
import brinkman2d.cli  # noqa: E402
import brinkman2d.solvers  # noqa: E402
from brinkman2d.discretization import BoundaryData, assemble_monolithic  # noqa: E402
from brinkman2d.grid import build_grid  # noqa: E402
from brinkman2d.media import generate_contrast_field, normalize  # noqa: E402
from brinkman2d.solvers import SolverConfig  # noqa: E402

from layers import (  # noqa: E402
    NAME_RE,
    PER_LAYER,
    RECORD_ONLY,
    check_accounting,
    gmres_matvecs,
    krylov_basis_bytes,
    layer_metrics,
    self_times,
)
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, dir_bytes  # noqa: E402


def small_system(n: int = 6, pin: bool = True):
    grid = build_grid(n, n)
    kstar = normalize(generate_contrast_field(grid, 1e3, 1e3, "layered", 0))
    return assemble_monolithic(grid, kstar, 1.0, BoundaryData.uniform(grid, 1.0, 0.0),
                               pin_pressure=pin)


def test_traced_solve_is_bit_identical():
    system = small_system()
    config = SolverConfig(tol=1e-10)
    original = brinkman2d.solvers.gmres_solve
    x0, r0 = original(system.matrix, system.rhs, config)
    tracer = Tracer("t")
    with tracer.installed():
        assert brinkman2d.analysis.gmres_solve is brinkman2d.solvers.gmres_solve
        assert brinkman2d.solvers.gmres_solve is not original
        x1, r1 = brinkman2d.cli.gmres_solve(system.matrix, system.rhs, config)
    assert brinkman2d.solvers.gmres_solve is original
    assert brinkman2d.analysis.gmres_solve is original
    assert x0.tobytes() == x1.tobytes()
    assert (r0.iterations, r0.converged, r0.final_relres) == \
        (r1.iterations, r1.converged, r1.final_relres)
    assert r0.residual_history.tobytes() == r1.residual_history.tobytes()
    assert [s["name"] for s in tracer.spans] == ["solvers.gmres_solve"]
    assert tracer.spans[0]["attrs"]["iterations"] == r0.iterations


def traced_sweep(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "grid.nx = 6\ngrid.ny = 6\nanna = 1.0\nfield.pattern = layered\n"
        "field.contrast_x = 1e3\nfield.contrast_y = 1e3\nsolver.tol = 1e-8\n"
        "sweep.da = 1e-2,1,1e2\noutput.timings = false\n"
    )
    out = tmp_path / "out"
    tracer = Tracer("sweep-test")
    with tracer.span("bench.install"):
        with tracer.installed():
            code = brinkman2d.cli.main(["sweep", str(cfg), "--out", str(out), "--quiet"])
    tracer.measure_solves()
    assert code == 0
    return tracer, out


def test_spans_nest_and_account(tmp_path):
    tracer, out = traced_sweep(tmp_path)
    spans = json.loads(json.dumps(tracer.to_json()))["spans"]
    by_id = {s["id"]: s for s in spans}
    assert {s["trace"] for s in spans} == {"sweep-test"}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    assert all(t >= -1e-12 for t in self_times(spans).values())
    names = {s["name"] for s in spans}
    assert {"cli.main", "cli.run_sweep", "analysis.sweep_darcy", "solvers.gmres_solve",
            "analysis.condition_number", "discretization.assemble_monolithic"} <= names

    root = by_id[0]
    run_s = root["end"] - root["start"] + 0.25  # plus time outside every span
    metrics = layer_metrics(spans, run_s, dir_bytes(str(out)))
    assert check_accounting(metrics, run_s)
    assert metrics["cli.self_s"] >= 0.25
    assert metrics["discretization.assemble_calls"] == 6  # 3 solved + 3 pinned for kappa
    assert metrics["analysis.kappa_calls"] == metrics["solvers.gmres_calls"] == 3
    assert metrics["solvers.converged_ratio"] == 1.0
    assert 0.0 < metrics["solvers.true_relres_max"] <= 1e-7
    assert 0.0 < metrics["solvers.matvec_s"] < metrics["solvers.gmres_s"]


def test_metric_names(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert per_layer == list(PER_LAYER)
    names = [m["name"] for m in bench["end_to_end"]] + [m["name"] for m in bench["per_layer"]]
    names += list(RECORD_ONLY) + [w["name"] for w in bench["workloads"]]
    assert all(NAME_RE.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)

    tracer, out = traced_sweep(tmp_path)
    metrics = layer_metrics(tracer.spans, 1.0, dir_bytes(str(out)))
    assert {name for name, _, _ in PER_LAYER} - set(metrics) == {"bench.trace_overhead_s"}


class CountingMatrix(sp.csr_matrix):
    """CSR matrix that counts its products with a vector."""

    matvecs = 0

    def __matmul__(self, other):
        CountingMatrix.matvecs += 1
        return super().__matmul__(other)


def test_implied_matvec_count_matches_a_counted_solve():
    system = small_system(4)
    for restart in (None, 7, 50):
        CountingMatrix.matvecs = 0
        config = SolverConfig(tol=1e-10, restart=restart)
        _, report = brinkman2d.solvers.gmres_solve(CountingMatrix(system.matrix), system.rhs,
                                                   config)
        n = system.matrix.shape[0]
        assert report.iterations > 0
        assert CountingMatrix.matvecs == gmres_matvecs(report.iterations, min(restart or n, n))


def test_computed_bytes_match_real_arrays(tmp_path, monkeypatch):
    system = small_system(4)
    n = system.matrix.shape[0]
    allocated = []
    empty = np.empty

    def recording_empty(shape, *args, **kwargs):
        array = empty(shape, *args, **kwargs)
        if array.ndim == 2:
            allocated.append(array.nbytes)
        return array

    monkeypatch.setattr(np, "empty", recording_empty)
    for maxit, restart in ((None, None), (200, 7), (5, 50)):
        allocated.clear()
        brinkman2d.solvers.gmres_solve(system.matrix, system.rhs,
                                       SolverConfig(tol=1e-10, maxit=maxit, restart=restart))
        m = maxit or n
        assert max(allocated) == krylov_basis_bytes(n, m, min(restart or m, m))
    monkeypatch.undo()

    (tmp_path / "a.txt").write_text("x" * 10)
    (tmp_path / "b.txt").write_bytes(b"\0" * 7)
    assert dir_bytes(str(tmp_path)) == 17
