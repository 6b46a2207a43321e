"""Run one benchmark workload against the graphalign sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's input graphs from the seed and imports
graphalign from ``src/``.  It is timed in SETUPS fresh child processes, one
after another, and the median is reported, so that no one process's start
decides the figure; the run then sets up once more for itself.  The run
then repeats whole rounds of the workload's operations, first for
``WARM_UP_S`` seconds untimed and then for about ``--seconds`` seconds,
checks every operation's output, and prints one JSON object as the last
line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; times are reference seconds (``refclock.py``), wall time
corrected for the host's changing speed.  With ``--trace 1`` untraced and
traced rounds alternate; the metrics are per-layer calls and self times
(plain seconds) per round, from spans recorded around graphalign's public
functions, plus the tracing overhead in reference seconds.  The spans are
written to ``.perfbench-spans/<workload>.json``.

Everything the run writes lives in a ``.perfbench-work-*`` directory at the
checkout root, removed when the run ends.  Each operation writes into a
scratch directory of its own there, removed after the operation's check.
Exit status 2 when the checkout has no ``src/graphalign``.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import refclock
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 11
WARM_UP_S = 5.0
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def spread_subdirs(directory: Path) -> None:
    """Ask ext2/3/4 to place new subdirectories of ``directory`` in
    little-used block groups, as it does for top-level directories
    (``chattr +T``).

    Otherwise each operation's files land in the block group where the
    outputs of the operation before it were just deleted.  On an ext4
    volume without a journal a new inode skips every inode of its group
    deleted in the last minute or more: creating files slowed from 0.07 to
    0.15 ms each within fifteen rounds of writing and deleting 500, and by
    up to twenty times over a benchmark run, by an amount that depended on
    what ran before.  With the flag the same loop held at 0.036 ms.  The
    flag changes nothing else; where the ioctl is not supported it is
    skipped.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        flags = struct.unpack("i", fcntl.ioctl(fd, FS_IOC_GETFLAGS, struct.pack("i", 0)))[0]
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, struct.pack("i", flags | FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(fd)


def import_program() -> SimpleNamespace:
    """Import graphalign afresh, dropping any earlier import of it."""
    for name in [n for n in sys.modules if n == "graphalign" or n.startswith("graphalign.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"graphalign.{m}") for m in ("cli", "formats", "graph")}
    return SimpleNamespace(**mods)


def time_set_up(name: str, seed: str, directory: str) -> None:
    """Body of a set-up child: print the reference seconds to write the inputs and import."""
    with refclock.RefClock(period=0.01) as clock:
        _, _, seconds = clock.time(
            lambda: (workloads.WORKLOADS[name](int(seed), Path(directory)), import_program()))
    print(seconds)


SET_UP_CHILD = "import sys; sys.path[:0] = sys.argv[1:3]; import run; run.time_set_up(*sys.argv[3:])"


def set_up(name: str, seed: int, work: Path):
    """Time SETUPS set-ups in child processes, then set up in this process."""
    times = []
    for i in range(SETUPS):
        directory = work / f"setup-{i}"
        directory.mkdir()
        child = subprocess.run(
            [sys.executable, "-c", SET_UP_CHILD, str(HERE), str(SRC), name, str(seed), str(directory)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child exited {child.returncode}: {child.stderr.strip()[-500:]}")
        times.append(float(child.stdout.strip().splitlines()[-1]))
        shutil.rmtree(directory)
    inputs_dir = work / "inputs"
    inputs_dir.mkdir()
    workload = workloads.WORKLOADS[name](seed, inputs_dir)
    return workload, import_program(), statistics.median(times)


@dataclass
class Round:
    durations: list[float] = field(default_factory=list)  # reference seconds
    raw: list[float] = field(default_factory=list)  # wall seconds
    failed: int = 0
    correct: bool = True
    files: int = 0
    bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.durations)


def run_round(workload, program, work: Path, clock, tracer=None) -> Round:
    """One pass over the workload's operations, timed by ``clock``."""
    # Each round starts from the same collector state; the program's own
    # collections during the round still count.
    gc.collect()
    r = Round()
    for op in workload.ops:
        scratch = Path(tempfile.mkdtemp(prefix="op-", dir=work))
        span = tracer.open(tracer.span_id(f"op.{op.kind}")) if tracer else None
        try:
            out, raw, ref = clock.time(lambda: op.call(program, scratch))
        except Exception as err:  # one failed operation must not end the run
            out = None
            r.failed += 1
            print(f"FAILED {op.kind}: {type(err).__name__}: {err}", file=sys.stderr)
        if tracer:
            tracer.close(span)
        if out is not None:
            r.durations.append(ref)
            r.raw.append(raw)
            try:
                op.check(out, scratch)
            except Exception as err:  # malformed output fails the check, whatever it raises
                r.correct = False
                print(f"CHECK {op.kind}: {type(err).__name__}: {err}", file=sys.stderr)
            if tracer:
                for path in scratch.rglob("*"):
                    if path.is_file():
                        r.files += 1
                        r.bytes += path.stat().st_size
        shutil.rmtree(scratch)
    return r


def warm_up(workload, program, work: Path, clock) -> list[Round]:
    """Whole rounds, checked but not measured, for at least WARM_UP_S seconds.

    Lazy state in the interpreter and the file system settles before
    timing starts.
    """
    deadline = perf_counter() + WARM_UP_S
    rounds = [run_round(workload, program, work, clock)]
    while perf_counter() < deadline:
        rounds.append(run_round(workload, program, work, clock))
    return rounds


def measure_plain(workload, program, work: Path, seconds: float, clock) -> list[Round]:
    """Whole rounds until the next one would end past the deadline."""
    deadline = perf_counter() + seconds
    rounds = []
    while True:
        t0 = perf_counter()
        rounds.append(run_round(workload, program, work, clock))
        now = perf_counter()
        if now + (now - t0) > deadline:
            return rounds


def measure_traced(workload, program, work: Path, seconds: float, tracer, clock):
    """Pairs of one untraced and one traced round until the deadline."""
    deadline = perf_counter() + seconds
    tracer.install()
    tracer.uninstall()
    plain, traced = [], []
    while True:
        t0 = perf_counter()
        plain.append(run_round(workload, program, work, clock))
        tracer.reinstall()
        tracer.new_round()
        try:
            traced.append(run_round(workload, program, work, clock, tracer))
        finally:
            tracer.uninstall()
        now = perf_counter()
        if now + (now - t0) > deadline:
            return plain, traced


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    durations = [d for r in rounds for d in r.durations]
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(r.wall for r in rounds), "s"),
        "op_p50_s": metric(statistics.median(durations), "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(plain: list[Round], traced: list[Round], tracer) -> dict:
    n = len(traced)
    calls, self_s = tracer.self_times()
    out = {}
    for name in tracing.TRACED:
        out[f"{name}.calls"] = metric(calls.get(name, 0) / n, "count")
        out[f"{name}.self_s"] = metric(self_s.get(name, 0.0) / n, "s")
    partitions = calls.get("graph.circuit_partition", 0)
    checked = calls.get("atlas.is_thickness_function", 0)
    out["graph.circuit_partition.distinct_ratio"] = metric(
        tracer.distinct_graphs / partitions if partitions else 0.0, "ratio")
    out["atlas.is_thickness_function.valid_ratio"] = metric(
        tracer.valid / checked if checked else 0.0, "ratio")
    out["formats.parse_graph.bytes"] = metric(tracer.parse_bytes / n, "bytes")
    out["formats.files_written"] = metric(sum(r.files for r in traced) / n, "count")
    out["formats.bytes_written"] = metric(sum(r.bytes for r in traced) / n, "bytes")
    out["trace.spans"] = metric(len(tracer.start) / n, "count")
    out["trace.overhead_s"] = metric(
        statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphalign" / "__init__.py").is_file():
        print(f"error: no graphalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    spread_subdirs(work)
    try:
        workload, program, setup_s = set_up(args.workload, args.seed, work)
        workload.prepare(program)
        ops_dir = work / "ops"
        ops_dir.mkdir()
        spread_subdirs(ops_dir)
        if args.trace:
            tracer = tracing.Tracer()
            # The sampler's time is charged to no span.
            with refclock.RefClock(on_sample=tracer.exclude) as clock:
                warm = warm_up(workload, program, ops_dir, clock)
                plain, traced = measure_traced(
                    workload, program, ops_dir, args.seconds, tracer, clock)
            timed = plain + traced
            metrics = per_layer(plain, traced, tracer)
            tracer.write(ROOT / ".perfbench-spans" / f"{args.workload}.json")
        else:
            with refclock.RefClock() as clock:
                warm = warm_up(workload, program, ops_dir, clock)
                timed = measure_plain(workload, program, ops_dir, args.seconds, clock)
            metrics = end_to_end(timed, setup_s)
            raw_wall = statistics.median(sum(r.raw) for r in timed)
            print(f"wall time before correction: median round {raw_wall:.4g} s; "
                  f"mean speed factor {statistics.fmean(clock.factors):.4g} "
                  f"over {len(clock.factors)} samples")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = warm + timed
    print(f"{args.workload}: seed {args.seed}, {len(warm)} warm-up and {len(timed)} timed "
          f"rounds of {len(workload.ops)} operations")
    print(json.dumps({
        "correct": all(r.correct for r in rounds),
        "attempted": len(rounds) * len(workload.ops),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
