"""Runs in a fresh interpreter: the two scripts, a bare package import and the
benchmark's own tests."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_oracle_sweep_runs_clean():
    proc = run_python(
        "scripts/oracle_sweep.py", "--max-vertices", "3", "--max-edges", "3", "--max-exp", "1"
    )
    assert proc.returncode == 0, proc.stderr
    assert " 0 mismatches " in proc.stdout


def test_worked_example_runs():
    proc = run_python("scripts/worked_example.py")
    assert proc.returncode == 0, proc.stderr


def test_package_import_leaves_oracles_unloaded():
    proc = run_python(
        "-c", "import sys, graphalign; print('graphalign.oracles' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_benchmark_self_tests_pass():
    # The benchmark's tracer patches graphalign functions by module and name,
    # so renaming one of them must fail here and not only in a benchmark run.
    proc = run_python("-m", "unittest", "discover", "-s", "perfbench")
    assert proc.returncode == 0, proc.stderr
