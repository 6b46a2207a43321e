"""Runs in a fresh interpreter: the three scripts, a bare package import, the
CLI under two hash seeds and the benchmark's own tests."""

import json
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
        "| `circuit_witness`",
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


# One child per hash seed: each command on each fixture, in-process and
# writing into the working directory.  It prints one JSON object: each
# command's exit code, stdout and stderr, and each output file's digest.
SEED_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from graphalign import formats
from graphalign.cli import run
results = {}
for path in sorted(Path(sys.argv[1]).glob("*.graph")):
    name, graph = path.stem, str(path)
    ones = ",".join(f"{g}=1" for g in formats.load_graph(path).generators.names)
    for argv in (
        ["analyze", graph],
        ["analyze", graph, "--format", "json"],
        ["thickness", graph, "--max", "1"],
        ["trait", graph, "--valuation", ones],
        ["atlas", graph, "--max", "1", "--out", f"{name}-atlas"],
        ["strata", graph, "--out", f"{name}-strata"],
        ["resolve", graph, "--valuation", ones, "--out", f"{name}-trace"],
    ):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
        results[" ".join([argv[0], name] + argv[2:])] = [code, stdout.getvalue(), stderr.getvalue()]
files = {
    str(p): hashlib.sha256(p.read_bytes()).hexdigest()
    for p in sorted(Path().rglob("*"))
    if p.is_file()
}
json.dump({"commands": results, "files": files}, sys.stdout)
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Sets and frozensets of strings iterate in an order that changes with
    # PYTHONHASHSEED; no output may follow it.
    children = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", SEED_CHILD, str(ROOT / "tests" / "fixtures")],
            cwd=out, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        children.append(proc)
    runs = []
    for proc in children:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        runs.append(json.loads(stdout))
    first, second = runs
    assert len(first["commands"]) == 35
    assert any(code == 0 for code, _, _ in first["commands"].values())
    assert any(path.startswith("wheel-atlas/") for path in first["files"])
    assert any(path.startswith("threecycle-strata/") for path in first["files"])
    assert any(path.startswith("wheel-trace/") for path in first["files"])
    assert first["commands"] == second["commands"]
    assert first["files"] == second["files"]


def test_benchmark_self_tests_pass():
    # The benchmark's tracer patches graphalign functions by module and name,
    # so renaming one of them must fail here and not only in a benchmark run.
    proc = run_python("-m", "unittest", "discover", "-s", "perfbench")
    assert proc.returncode == 0, proc.stderr
