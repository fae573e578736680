"""Spans recorded from outside the program, by wrapping its public functions.

A :class:`Tracer` wraps every public function of the traced
``brinkman2d`` layers and rebinds each wrapper wherever the original
function object is bound in a loaded ``brinkman2d`` module, so a call
made through ``analysis.gmres_solve`` nests under ``sweep_darcy`` just as
one made through ``cli.gmres_solve`` nests under ``run_solve``.  Wrappers
pass arguments and return values through untouched.  Spans are kept in
memory and written by the caller when the run ends.

A few calls also record attributes (sizes, iteration counts, residuals)
that the per-layer metrics in ``layers.py`` are computed from.  Matvec
timing and the true residual of each GMRES solve are measured in
:meth:`Tracer.measure_solves`, after the traced call has returned.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time

import numpy as np

#: Traced modules of the ``brinkman2d`` package.  ``grid`` and
#: ``scaling`` are too small to time and fold into their callers.
LAYERS = ("config", "media", "discretization", "solvers", "analysis", "cli")
PACKAGE = "brinkman2d"


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_assembly(arguments, result) -> dict:
    return {"n": int(result.matrix.shape[0]), "nnz": int(result.matrix.nnz)}


def _observe_gmres(arguments, result) -> dict:
    x, report = result
    n = int(np.shape(arguments["rhs"])[0])
    config = arguments["config"]
    maxit = config.maxit if config is not None and config.maxit is not None else n
    restart = config.restart if config is not None and config.restart is not None else maxit
    return {
        "n": n,
        "maxit": int(maxit),
        "restart": int(min(restart, maxit)),
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "relres": float(report.final_relres),
    }


def _observe_size(arguments, result) -> dict:
    return {"n": int(np.shape(arguments["matrix"])[0])}


def _observe_divergence(arguments, result) -> dict:
    return {"value": float(result)}


OBSERVERS = {
    "discretization.assemble_monolithic": _observe_assembly,
    "solvers.gmres_solve": _observe_gmres,
    "solvers.direct_solve": _observe_size,
    "analysis.condition_number": _observe_size,
    "analysis.check_divergence": _observe_divergence,
}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._solves: list[tuple[dict, object, object, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "trace": self.trace_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if observe is not None:
                arguments = _bound(fn, args, kwargs)
                record["attrs"] = observe(arguments, result)
                if name == "solvers.gmres_solve":
                    self._solves.append((record, arguments["matrix"], arguments["rhs"], result[0]))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions of :data:`LAYERS` for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        rebound = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    rebound.append((module, attr, obj))
        try:
            yield
        finally:
            for module, attr, obj in rebound:
                setattr(module, attr, obj)

    def measure_solves(self) -> None:
        """Time ``matrix @ v`` and recompute ``||b - A x|| / ||b||`` for every
        traced GMRES solve, and add both to the solve's span attributes."""
        for record, matrix, rhs, x in self._solves:
            A = matrix.tocsr() if hasattr(matrix, "tocsr") else np.asarray(matrix, dtype=float)
            b = np.asarray(rhs, dtype=float).ravel()
            b_norm = float(np.linalg.norm(b))
            resid = float(np.linalg.norm(b - A @ x))
            record["attrs"]["true_relres"] = resid / b_norm if b_norm else 0.0
            record["attrs"]["matvec_call_s"] = time_matvec(A, x)
        self._solves.clear()

    def to_json(self) -> dict:
        return {"trace": self.trace_id, "spans": self.spans}


def time_matvec(A, v, batches: int = 5, min_batch_s: float = 2e-3) -> float:
    """Median seconds of one ``A @ v`` over ``batches`` timed batches."""
    A @ v
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            A @ v
        if time.perf_counter() - t0 >= min_batch_s:
            break
        reps *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            A @ v
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)
