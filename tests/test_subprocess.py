"""Runs in a fresh interpreter: the three scripts, a bare package import and the
benchmark's own tests."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str, cwd: Path = ROOT, timeout: float = 120) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
    )


def test_oracle_sweep_runs_clean(tmp_path):
    # Run from outside the repository, so that the script must find
    # tests/oracles.py by its own path.
    proc = run_python(
        str(ROOT / "scripts" / "oracle_sweep.py"),
        "--max-vertices", "3", "--max-edges", "3", "--max-exp", "1",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    counts, _, timing = proc.stdout.rpartition(" (")
    assert counts == (
        "22 shapes, 208 labelled graphs swept, 20 witnesses checked, "
        "22 graph texts checked, 22 atlas directories checked, "
        "430 atlas overlaps checked, "
        "22 strata directories checked, 44 thickness enumerations checked, "
        "396 trait factorisations checked, 0 mismatches"
    )
    assert timing.endswith("s)\n")


def test_trait_with_large_valuation_finishes():
    # Each wheel edge is valued 60: searching its 12 divisors per edge
    # would take 12^8 candidates, the fixed values take one.
    proc = run_python(
        "-m", "graphalign.cli", "trait", "tests/fixtures/wheel.graph",
        "--valuation", "x=60", "--max", "60",
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[3:5] == ["  1,1,1,1,1,1,1,1", "separatedness: ok (0 pairs checked)"]


def test_worked_example_runs():
    proc = run_python("scripts/worked_example.py")
    assert proc.returncode == 0, proc.stderr


def test_core_timings_runs():
    proc = run_python("scripts/core_timings.py", "--sizes", "3", "5", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header == "| operation | 3×3 grid (12 edges) | 5×5 grid (40 edges) |"
    assert rule == "| --- | --- | --- |"
    assert [row.split(" | ")[0] for row in rows] == [
        "| `build`",
        "| `contract(G, [])`",
        "| `specialise`",
        "| `check_alignment`",
        "| `circuit_partition`",
        "| `parse_graph`",
    ]
    assert all(row.endswith(" s |") for row in rows)


def test_package_import_leaves_oracles_unloaded():
    # The oracles live in tests/oracles.py: the package ships none at all.
    proc = run_python(
        "-c",
        "import importlib.util, graphalign; "
        "print(importlib.util.find_spec('graphalign.oracles') is None)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_benchmark_self_tests_pass():
    # The benchmark's tracer patches graphalign functions by module and name,
    # so renaming one of them must fail here and not only in a benchmark run.
    proc = run_python("-m", "unittest", "discover", "-s", "perfbench")
    assert proc.returncode == 0, proc.stderr
