"""brinkman2d benchmark: one workload, end to end or traced.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this file's
directory and the program is imported from its ``src``.  Every CLI run
is a fresh ``python3 -m brinkman2d`` process, one at a time (a closed
loop with one client), timed from spawn to exit, and its outputs are
checked; a run that fails its check counts as failed and is not timed.

``--trace 0`` measures ``setup_s`` and then repeats the workload for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1``
alternates untraced runs with runs of ``traced_cli.py`` for
``--seconds`` and reports the per-layer metrics (medians over the traced
runs).  The last line of standard output is the JSON result; a fuller
record (environment, iterations, residuals, divergence, every metric)
is written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from layers import PER_LAYER, check_accounting, layer_metrics
from workloads import WORKLOADS, Outcome, Workload, digest_dir, dir_bytes

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 150.0


def spawn(argv: list[str], stdout_path: str, timeout: float = RUN_TIMEOUT_S):
    """Run ``argv`` to completion; return (exit code, wall seconds, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    lock = threading.Lock()
    done = False

    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)

    def kill():
        with lock:
            if not done:
                os.kill(pid, 9)

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        with lock:
            done = True
    finally:
        watchdog.cancel()
        watchdog.join()
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def median(values):
    """Median, or 0.0 when every run failed (the result then reads correct=false)."""
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs and checks one workload's CLI processes in a scratch directory."""

    def __init__(self, workload: Workload, seed: int, work: str):
        self.workload = workload
        self.work = work
        self.config = os.path.join(work, "run.cfg")
        self.out = os.path.join(work, "out")
        self.stdout = os.path.join(work, "stdout.txt")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(seed))
        self.digest: str | None = None
        self.attempted = 0
        self.failed: list[str] = []
        self.last: Outcome | None = None  # outcome of the last checked run

    def cli_argv(self) -> list[str]:
        return [self.workload.command, self.config, "--out", self.out]

    def run(self, traced: bool = False):
        """One checked CLI run; returns (wall s, peak RSS MB, spans or None), or
        None when the run failed its check."""
        shutil.rmtree(self.out, ignore_errors=True)
        spans_path = os.path.join(self.work, "spans.json")
        if traced:
            argv = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_path,
                    f"{self.workload.name}-{os.getpid()}-{self.attempted}", *self.cli_argv()]
        else:
            argv = [sys.executable, "-m", "brinkman2d", *self.cli_argv()]
        self.attempted += 1
        code, wall, rss = spawn(argv, self.stdout)
        with open(self.stdout, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        try:
            outcome = self.workload.check(self.out, stdout, code)
        except (OSError, KeyError, ValueError) as exc:
            outcome = None
            reason = f"unreadable output: {exc!r}"
        else:
            reason = outcome.reason
            if outcome.ok:
                digest = digest_dir(self.out)
                if self.digest is None:
                    self.digest = digest
                elif digest != self.digest:
                    outcome.ok, reason = False, "outputs differ from the first run of this set"
        if outcome is None or not outcome.ok:
            self.failed.append(reason)
            return None
        self.last = outcome
        spans = None
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
        return wall, rss, spans


def probe_info(runner: Runner) -> dict:
    path = os.path.join(runner.work, "info.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), "info", runner.config]
    code, _, _ = spawn(argv, path)
    if code != 0:
        raise RuntimeError(f"environment probe exited with {code}")
    with open(path, encoding="utf-8") as fh:
        info = json.load(fh)
    if not info["module"].startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"brinkman2d imported from {info['module']}, not from {SRC}")
    return info


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "brinkman2d")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def measure_setup(runner: Runner) -> list[float]:
    argv = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), "setup", runner.config]
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _ = spawn(argv, os.path.join(runner.work, "setup.txt"))
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        samples.append(wall)
    return samples


def keep_going(started: float, durations: list[float], seconds: float) -> bool:
    """Start another run only if a typical run still fits in the budget."""
    if not durations:
        return True
    return time.perf_counter() - started + median(durations) <= seconds


def warm_up(runner: Runner) -> None:
    """One checked, untimed run: the first CLI process of a benchmark run is
    measurably slower than the ones after it (cold caches)."""
    if runner.workload.warmup:
        runner.run()


def run_untraced(runner: Runner, seconds: float) -> dict:
    setup = measure_setup(runner)
    warm_up(runner)
    walls, rss, durations = [], [], []
    started = time.perf_counter()
    while keep_going(started, durations, seconds):
        t0 = time.perf_counter()
        result = runner.run()
        durations.append(time.perf_counter() - t0)
        if result is not None:
            walls.append(result[0])
            rss.append(result[1])
    ok_runs = runner.attempted - len(runner.failed)
    return {
        "run_s": ("s", median(walls)),
        "setup_s": ("s", median(setup)),
        "peak_rss_mb": ("MB", median(rss)),
        "success_rate": ("ratio", ok_runs / runner.attempted),
    }, {"run_s_samples": walls, "setup_s_samples": setup, "peak_rss_mb_samples": rss}


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    warm_up(runner)
    untraced, traced, per_run, durations = [], [], [], []
    started = time.perf_counter()
    while len(durations) < 2 or keep_going(started, durations, seconds):
        t0 = time.perf_counter()
        is_traced = len(durations) % 2 == 1
        result = runner.run(traced=is_traced)
        durations.append(time.perf_counter() - t0)
        if result is None:
            continue
        wall, _, spans = result
        if not is_traced:
            untraced.append(wall)
            continue
        traced.append(wall)
        metrics = layer_metrics(spans, wall, dir_bytes(runner.out))
        if not check_accounting(metrics, wall):
            raise RuntimeError("span self times do not sum to the traced run time")
        per_run.append(metrics)
    merged = {name: median([m[name] for m in per_run]) for name in per_run[0]} if per_run else {}
    if per_run:
        merged["bench.trace_overhead_s"] = median(traced) - median(untraced)
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (units[name], merged.get(name, 0.0)) for name, _, _ in PER_LAYER}
    extra = {name: value for name, value in merged.items() if name not in units}
    return metrics, {"traced_run_s_samples": traced, "untraced_run_s_samples": untraced,
                     "record_only": extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "brinkman2d", "__init__.py")):
        print(f"error: no brinkman2d package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # a fixed path, so the resolved config the CLI writes is the same size in every run
    work = os.path.join(OUT, f"work-{workload.name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(workload, args.seed, work)
        try:
            info = probe_info(runner)
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, samples = run_traced(runner, args.seconds)
        else:
            metrics, samples = run_untraced(runner, args.seconds)
        last = runner.last
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failed)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {**info, "git_commit": git_commit(), "src_sha256": source_digest()},
        "attempted": runner.attempted,
        "failed": failed,
        "error_rate": failed / runner.attempted,
        "failures": runner.failed,
        "iterations": last.iterations if last else None,
        "relres": last.relres if last else None,
        "divergence_max": last.divergence_max if last else None,
        "metrics": {name: {"value": v, "unit": u} for name, (u, v) in metrics.items()},
        **samples,
    }
    record_path = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name} seed {args.seed}: {runner.attempted} runs, "
          f"{failed} failed (error_rate {failed / runner.attempted:.3f})")
    for reason in runner.failed:
        print(f"  failed: {reason}")
    for name, (unit, value) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for name, value in samples.get("record_only", {}).items():
        print(f"  {name:32s} {value:.6g} s (record only)")
    if last:
        print(f"  iterations {last.iterations} relres_max {max(last.relres, default=0):.5e} "
              f"divergence_max {last.divergence_max}")
    print(f"  env n_total={info['n_total']} nnz={info['nnz']} python={info['python']} "
          f"numpy={info['numpy']} scipy={info['scipy']} blas={info['blas']} "
          f"blas_threads={info['blas_threads']} nproc={info['nproc']}")
    print(f"  record {os.path.relpath(record_path, ROOT)}")
    result = {
        "correct": failed == 0 and last is not None,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (u, v) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
