"""The benchmark's workloads: the CLI command and config each one runs,
and the check its outputs must pass.

Every workload is one ``brinkman2d`` CLI command on a config generated
here from the workload seed.  The seed is passed as ``field.seed``; the
``layered`` pattern ignores it, so every seed runs the same numerics and
the exact output checks below hold for all of them.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable

#: Exact GMRES iteration counts of the canonical Da sweep, Da = 1e-5 .. 1e5.
SWEEP_ITERATIONS = (1142, 1142, 1142, 1129, 1019, 828, 546, 314, 126, 44, 37)
SWEEP_KAPPA_FLAGS = ("pinned",) * 9 + ("pinned-singular",) * 2
SOLVE_ITERATIONS = 526
VERIFY_CHECKS = (
    "uniform_flow",
    "divergence",
    "convergence_order",
    "darcy_limit",
    "stokes_limit",
    "nullspace",
)


@dataclass
class Outcome:
    """Result of checking one CLI run's outputs."""

    ok: bool
    reason: str = ""
    iterations: list[int] = field(default_factory=list)
    relres: list[float] = field(default_factory=list)
    divergence_max: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str  # config text with a ``{seed}`` placeholder
    why: str
    check: Callable[[str, str, int], Outcome]
    warmup: bool = True  # one untimed run first; off where one run fills the budget

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=seed)


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out_dir: str, stdout: str, exit_code: int) -> Outcome:
    if exit_code != 0:
        return Outcome(False, f"exit code {exit_code}")
    rows = _read_csv(os.path.join(out_dir, "regime_table.csv"))
    iterations = [int(r["iterations"]) for r in rows]
    relres = [float(r["relres"]) for r in rows]
    flags = tuple(r["kappa_flag"] for r in rows)
    outcome = Outcome(True, iterations=iterations, relres=relres)
    if tuple(iterations) != SWEEP_ITERATIONS:
        outcome.ok, outcome.reason = False, f"iterations {iterations} != {list(SWEEP_ITERATIONS)}"
    elif any(not r <= 1e-6 for r in relres):
        outcome.ok, outcome.reason = False, f"a row has relres > 1e-6: {relres}"
    elif flags != SWEEP_KAPPA_FLAGS:
        outcome.ok, outcome.reason = False, f"kappa flags {list(flags)}"
    return outcome


def check_solve(out_dir: str, stdout: str, exit_code: int) -> Outcome:
    if exit_code != 0:
        return Outcome(False, f"exit code {exit_code}")
    (row,) = _read_csv(os.path.join(out_dir, "report.csv"))
    outcome = Outcome(
        True,
        iterations=[int(row["iterations"])],
        relres=[float(row["relres"])],
        divergence_max=float(row["divergence_max"]),
    )
    if row["converged"] != "true":
        outcome.ok, outcome.reason = False, f"converged={row['converged']}"
    elif outcome.iterations != [SOLVE_ITERATIONS]:
        outcome.ok, outcome.reason = False, f"iterations {outcome.iterations[0]} != {SOLVE_ITERATIONS}"
    elif not outcome.relres[0] <= 1e-6:
        outcome.ok, outcome.reason = False, f"relres {outcome.relres[0]} > 1e-6"
    for name in ("u.txt", "v.txt", "p.txt"):
        if not os.path.isfile(os.path.join(out_dir, name)):
            outcome.ok, outcome.reason = False, f"missing field file {name}"
    return outcome


def check_verify(out_dir: str, stdout: str, exit_code: int) -> Outcome:
    if exit_code != 0:
        return Outcome(False, f"exit code {exit_code}")
    passed = [ln.split(":", 1)[0] for ln in stdout.splitlines() if ": PASS (" in ln]
    if passed != list(VERIFY_CHECKS):
        return Outcome(False, f"PASS lines {passed} != {list(VERIFY_CHECKS)}")
    with open(os.path.join(out_dir, "verify_report.txt"), encoding="utf-8") as fh:
        report = fh.read()
    if report.count(": PASS (") != len(VERIFY_CHECKS):
        return Outcome(False, "verify_report.txt does not hold six PASS lines")
    return Outcome(True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-canonical-20",
            command="sweep",
            config="""\
grid.nx = 20
grid.ny = 20
anna = 1.0
field.pattern = layered
field.contrast_x = 1e5
field.contrast_y = 1e5
field.seed = {seed}
bc.gx = 1.0
bc.gy = 0.0
solver.tol = 1e-6
solver.maxit = 1240
sweep.da = logspace:-5,5,11
output.timings = false
""",
            why="the paper's canonical Da sweep: full GMRES, interpreter-bound "
            "orthogonalisation and 11 dense kappa SVDs",
            check=check_sweep,
            warmup=False,
        ),
        Workload(
            name="solve-restart-128",
            command="solve",
            config="""\
grid.nx = 128
grid.ny = 128
anna = 1e3
field.pattern = layered
field.contrast_x = 1e5
field.contrast_y = 1e5
field.seed = {seed}
bc.gx = 1.0
bc.gy = 0.0
solver.tol = 1e-6
solver.restart = 50
solver.maxit = 5000
output.timings = false
""",
            why="one large restarted GMRES(50) solve: bandwidth-bound "
            "orthogonalisation, no kappa, 1 MB of solution fields written",
            check=check_solve,
        ),
        Workload(
            name="verify-8",
            command="verify",
            config="""\
grid.nx = 8
grid.ny = 8
anna = 1.0
field.pattern = layered
field.contrast_x = 1e2
field.contrast_y = 1e2
field.seed = {seed}
solver.tol = 1e-8
""",
            why="the verification suite: dense LU direct solves dominate and "
            "GMRES is a small share, so a Krylov change must not move it",
            check=check_verify,
        ),
    )
}


def digest_dir(path: str) -> str:
    """SHA-256 over the names and bytes of every file in ``path``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))
