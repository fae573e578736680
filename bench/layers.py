"""Per-layer metrics computed from the spans of one traced run.

A span's self time is its duration minus the durations of its child
spans.  ``<layer>.self_s`` sums the self times of a layer's spans;
``cli.self_s`` also takes the part of the traced process no span covers
(interpreter start and exit), so the ``*.self_s`` metrics sum to the
traced run's wall time.  Inclusive times such as ``solvers.gmres_s`` sum
the outermost spans of their functions.

Metrics marked computed come from sizes and counts the spans recorded,
not from a clock:

- matvecs of one GMRES solve: ``iterations + cycles + 1`` (one residual
  per cycle start plus the final one), with cycles of ``restart``
  iterations and a shorter last one;
- ``ortho_flops``: modified Gram-Schmidt does ``k + 1`` dot products and
  ``k + 1`` axpys of ``2n`` flops at inner step ``k``, so a cycle of
  ``m`` steps costs ``2 n m (m + 1)``;
- ``krylov_basis_bytes``: the ``(m + 1) x n`` float64 basis a cycle of
  ``m = min(restart, maxit, n)`` steps allocates, largest over solves;
- ``kappa_flops``: ``8/3 n^3`` per dense singular-value decomposition.
"""

from __future__ import annotations

import math
import re

from spans import LAYERS

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Per-layer metrics of the JSON result line: (name, unit, better).
#: Every timing here is exercised on every workload, so none reads 0.
PER_LAYER = (
    ("config.self_s", "s", "lower"),
    ("config.parse_s", "s", "lower"),
    ("media.self_s", "s", "lower"),
    ("media.field_s", "s", "lower"),
    ("discretization.self_s", "s", "lower"),
    ("discretization.assemble_s", "s", "lower"),
    ("discretization.assemble_calls", "count", "lower"),
    ("discretization.nnz_max", "count", "lower"),
    ("solvers.self_s", "s", "lower"),
    ("solvers.gmres_s", "s", "lower"),
    ("solvers.gmres_calls", "count", "lower"),
    ("solvers.gmres_iterations", "count", "lower"),
    ("solvers.gmres_us_per_iter", "us", "lower"),
    ("solvers.matvec_s", "s", "lower"),
    ("solvers.gmres_nonmatvec_s", "s", "lower"),
    ("solvers.ortho_flops", "flop", "lower"),
    ("solvers.krylov_basis_bytes", "B", "lower"),
    ("solvers.converged_ratio", "ratio", "higher"),
    ("solvers.relres_max", "ratio", "lower"),
    ("solvers.true_relres_max", "ratio", "lower"),
    ("solvers.direct_calls", "count", "lower"),
    ("solvers.direct_n_max", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.divergence_s", "s", "lower"),
    ("analysis.divergence_max", "ratio", "lower"),
    ("analysis.kappa_calls", "count", "lower"),
    ("analysis.kappa_flops", "flop", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("bench.self_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)

#: Function-level times that are 0 on the workloads that skip the
#: function; they go to the record and the printed summary only.
RECORD_ONLY = {
    "solvers.direct_s": "solvers.direct_solve",
    "analysis.kappa_s": "analysis.condition_number",
    "analysis.sweep_s": "analysis.sweep_darcy",
    "analysis.manufactured_s": "analysis.manufactured_run",
    "analysis.limit_checks_s": "analysis.limit_checks",
    "analysis.csv_write_s": "analysis.write_regime_csv",
    "cli.field_write_s": "cli.write_scalar_field",
}


def gmres_cycles(iterations: int, restart: int) -> list[int]:
    """Inner-step counts of the cycles of a solve, assuming every cycle but
    the last runs to ``restart`` steps."""
    full, rest = divmod(iterations, restart)
    return [restart] * full + ([rest] if rest else [])


def gmres_matvecs(iterations: int, restart: int) -> int:
    return iterations + len(gmres_cycles(iterations, restart)) + 1


def ortho_flops(n: int, iterations: int, restart: int) -> int:
    return sum(2 * n * m * (m + 1) for m in gmres_cycles(iterations, restart))


def krylov_basis_bytes(n: int, maxit: int, restart: int) -> int:
    m = min(restart, maxit, n)
    return (m + 1) * n * 8


def self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _outermost_s(spans: list[dict], match) -> float:
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if not match(s["name"]):
            continue
        parent = s["parent"]
        while parent is not None and not match(by_id[parent]["name"]):
            parent = by_id[parent]["parent"]
        if parent is None:
            total += s["end"] - s["start"]
    return total


def layer_metrics(spans: list[dict], run_s: float, output_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced run except ``bench.trace_overhead_s``,
    plus the :data:`RECORD_ONLY` times."""
    own = self_times(spans)
    layer_of = {s["id"]: s["name"].split(".", 1)[0] for s in spans}
    m: dict[str, float] = {}
    for layer in (*LAYERS, "bench"):
        m[f"{layer}.self_s"] = sum(t for i, t in own.items() if layer_of[i] == layer)
    m["cli.self_s"] += run_s - sum(own.values())

    def calls(name):
        return [s["attrs"] for s in spans if s["name"] == name]

    def inclusive(name):
        return _outermost_s(spans, lambda n: n == name)

    m["config.parse_s"] = _outermost_s(spans, lambda n: n.startswith("config.parse_config"))
    m["media.field_s"] = _outermost_s(spans, lambda n: n.startswith("media."))
    m["discretization.assemble_s"] = _outermost_s(spans, lambda n: n.startswith("discretization."))
    assemblies = calls("discretization.assemble_monolithic")
    m["discretization.assemble_calls"] = len(assemblies)
    m["discretization.nnz_max"] = max((a["nnz"] for a in assemblies), default=0)

    solves = calls("solvers.gmres_solve")
    gmres_s = inclusive("solvers.gmres_solve")
    iterations = sum(a["iterations"] for a in solves)
    matvec_s = sum(gmres_matvecs(a["iterations"], min(a["restart"], a["n"])) * a["matvec_call_s"]
                   for a in solves)
    m["solvers.gmres_s"] = gmres_s
    m["solvers.gmres_calls"] = len(solves)
    m["solvers.gmres_iterations"] = iterations
    m["solvers.gmres_us_per_iter"] = gmres_s / iterations * 1e6 if iterations else 0.0
    m["solvers.matvec_s"] = matvec_s
    m["solvers.gmres_nonmatvec_s"] = gmres_s - matvec_s
    m["solvers.ortho_flops"] = sum(
        ortho_flops(a["n"], a["iterations"], min(a["restart"], a["n"])) for a in solves)
    m["solvers.krylov_basis_bytes"] = max(
        (krylov_basis_bytes(a["n"], a["maxit"], a["restart"]) for a in solves), default=0)
    m["solvers.converged_ratio"] = (
        sum(a["converged"] for a in solves) / len(solves) if solves else 0.0)
    m["solvers.relres_max"] = max((a["relres"] for a in solves), default=0.0)
    m["solvers.true_relres_max"] = max((a["true_relres"] for a in solves), default=0.0)
    directs = calls("solvers.direct_solve")
    m["solvers.direct_calls"] = len(directs)
    m["solvers.direct_n_max"] = max((a["n"] for a in directs), default=0)

    m["analysis.divergence_s"] = inclusive("analysis.check_divergence")
    m["analysis.divergence_max"] = max(
        (a["value"] for a in calls("analysis.check_divergence")), default=0.0)
    kappas = calls("analysis.condition_number")
    m["analysis.kappa_calls"] = len(kappas)
    m["analysis.kappa_flops"] = sum(8.0 / 3.0 * a["n"] ** 3 for a in kappas)
    m["cli.output_bytes"] = output_bytes

    for metric, name in RECORD_ONLY.items():
        m[metric] = inclusive(name)
    sweeps = [s for s in spans if s["name"] == "analysis.sweep_darcy"]
    m["analysis.sweep_self_s"] = sum(own[s["id"]] for s in sweeps)
    return m


def check_accounting(metrics: dict[str, float], run_s: float) -> bool:
    """The ``<layer>.self_s`` metrics and ``bench.self_s`` sum to ``run_s``."""
    total = sum(metrics[f"{layer}.self_s"] for layer in (*LAYERS, "bench"))
    return math.isclose(total, run_s, rel_tol=1e-9, abs_tol=1e-9)
