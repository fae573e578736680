"""The benchmark's probe process, ``bench/probe.py``, on each workload's
config.  Every benchmark run spawns it, so a library change that breaks
what it imports or calls fails every run; this catches it in the tests.
So does the check of the ``verify-8`` workload on ``verify``'s output,
and a set-up probe that loads scipy, which would double ``setup_s``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brinkman2d.cli import main
from conftest import scipy_modules_after

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

#: ``n_total`` and ``nnz`` of each workload's assembled system.
SYSTEM_SIZES = {
    "sweep-canonical-20": (1240, 6924),
    "solve-restart-128": (49408, 293124),
    "verify-8": (208, 1044),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_probe_setup_and_info_run_on_workload_config(tmp_path, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WORKLOADS[name].config_text(11))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {mode: subprocess.run([sys.executable, str(ROOT / "bench" / "probe.py"), mode, str(cfg)],
                                 env=env, capture_output=True, text=True, timeout=120)
            for mode in ("setup", "info")}
    for mode, run in runs.items():
        assert run.returncode == 0, (mode, run.stderr)
    info = json.loads(runs["info"].stdout)
    assert (info["n_total"], info["nnz"]) == SYSTEM_SIZES[name]


@pytest.mark.parametrize("name", WORKLOADS)
def test_probe_setup_loads_no_scipy(tmp_path, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WORKLOADS[name].config_text(11))
    probe = str(ROOT / "bench" / "probe.py")
    code = (f"import runpy, sys\nsys.argv = [{probe!r}, 'setup', {str(cfg)!r}]\n"
            f"runpy.run_path({probe!r}, run_name='__main__')\n")
    assert scipy_modules_after(code) == []


def test_verify_passes_the_benchmark_check(tmp_path, capsys):
    # the benchmark reads verify's check names and their order from stdout
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WORKLOADS["verify-8"].config_text(11))
    out = str(tmp_path / "out")
    code = main(["verify", str(cfg), "--out", out])
    outcome = WORKLOADS["verify-8"].check(out, capsys.readouterr().out, code)
    assert outcome.ok, outcome.reason
