"""The benchmark's workloads: seeded inputs, the operations run on them, and
the check each operation's output must pass.

An operation is one CLI subcommand call (``graphalign.cli.run`` in-process,
stdout captured) or one library call, on one input.  Each operation gets
an empty scratch directory for the directories it writes; the runner
removes it after the check.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks
import inputs
from inputs import GraphSpec


class OpFailed(RuntimeError):
    """The program refused or crashed on an operation."""


@dataclass
class Op:
    kind: str
    call: Callable[[Any, Path], Any]  # (program modules, scratch dir) -> output
    check: Callable[[Any, Path], None]  # (output, scratch dir); raises CheckFailed


def run_cli(program, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.run(argv)
    if code != 0:
        raise OpFailed(f"exit {code} on {argv[:2]}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def cli_op(kind: str, argv: list[str], check, out: bool = False) -> Op:
    """A CLI call; with ``out`` the argv gets ``--out <scratch>/out``."""

    def call(program, scratch: Path) -> str:
        return run_cli(program, argv + (["--out", str(scratch / "out")] if out else []))

    return Op(kind, call, lambda stdout, scratch: check(stdout, scratch / "out"))


def _values_arg(values: dict) -> str:
    return ",".join(f"{g}={v}" for g, v in sorted(values.items()))


def _off_zero_set(spec: GraphSpec, rng: random.Random, value: int) -> str:
    """0 on a seeded third of the edges and ``value`` off it.

    Every class of the contracted graph then has gcd ``value``: valid for 1,
    never valid for 2.
    """
    names = spec.edge_ids
    zero = set(rng.sample(names, len(names) // 3))
    return ",".join("0" if e in zero else str(value) for e in names)


def _twos(spec: GraphSpec) -> str:
    """Value 2 everywhere: every class has gcd 2, so never valid."""
    return ",".join("2" for _ in spec.edges)


def validate_op(path: str, vector: str, expected: bool) -> Op:
    return cli_op("thickness-validate", ["thickness", path, "--validate", vector],
                  lambda s, _: checks.check_validate(expected, s))


def resolve_op(spec: GraphSpec, path: str, out: bool) -> Op:
    """Resolution with every generator valued 1, so each primitive has valuation 1."""
    values = {g: 1 for g in spec.generators}
    return cli_op(
        "resolve",
        ["resolve", path, "--valuation", _values_arg(values)],
        lambda s, d: checks.check_resolve(spec, values, s, d if out else None),
        out=out,
    )


class Workload:
    """Inputs generated from a seed into a directory, and the operations on them."""

    name = ""

    def __init__(self, seed: int, directory: Path) -> None:
        self.rng = random.Random(f"{self.name}/{seed}")
        self.dir = directory
        self.ops: list[Op] = []
        self.counted: list[tuple[checks.Oracle, int]] = []  # chart counts the checks need
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def write(self, spec: GraphSpec) -> str:
        return str(spec.write(self.dir))

    def prepare(self, program) -> None:
        """Untimed work before the first round: fill the oracle caches."""
        for oracle, bound in self.counted:
            oracle.count_valid(bound)


# ------------------------------------------------------------ atlas_write


class AtlasWrite(Workload):
    """``atlas --out`` on copies of the fixtures and on small generated graphs.

    The bounds give 5,493 overlaps per round, so the overlap loop,
    the chart rebuilds inside each overlap and the directory writer
    dominate.  The NC graphs also get ``--vanishing`` on half their
    generators.  Three NC theta graphs, each seeded apart, are the three
    middle operations by cost, over twice the next cheaper and about a
    quarter of the next dearer, so the median operation is always one of them and
    ``op_p50_s`` never falls between two unlike operations.
    """

    name = "atlas_write"
    # (name, block-tree pieces and label policy or None for a fixture, bound)
    GRAPHS = [
        ("twogon", None, None, 4),
        ("threecycle", None, None, 2),
        ("theta", None, None, 4),
        ("mixed6", None, None, 1),
        ("theta4", [("theta", 4)], "nc", 2),
        ("theta4b", [("theta", 4)], "nc", 2),
        ("theta4c", [("theta", 4)], "nc", 2),
    ]

    def build(self) -> None:
        for name, pieces, policy, bound in self.GRAPHS:
            if pieces is None:
                spec = inputs.fixture(name, self.rng)
            else:
                g = inputs.block_tree(self.rng, pieces)
                spec = inputs.plant(name, g, self.rng, policy, mults=(1, 2), n_gens=2)
            oracle = checks.Oracle(spec)
            self.counted.append((oracle, bound))
            argv = ["atlas", self.write(spec), "--max", str(bound)]
            vanishing = None
            if spec.nc:
                vanishing = sorted(self.rng.sample(spec.generators, len(spec.generators) // 2))
                argv += ["--vanishing", ",".join(vanishing)]
            self.ops.append(cli_op(
                "atlas", argv,
                lambda s, d, o=oracle, b=bound, v=vanishing: checks.check_atlas(o, b, v, s, d),
                out=True,
            ))


# ------------------------------------------------------------ sweep_small


class SweepSmall(Workload):
    """Hundreds of CLI calls on graphs of at most ten edges.

    Each shape comes in three labellings (aligned, misaligned, NC).  Every
    graph gets ``analyze --format json``, ``thickness --max`` and two
    ``thickness --validate`` calls; aligned and misaligned graphs get
    ``trait``, aligned ones ``resolve`` and NC ones ``strata --out``.
    """

    name = "sweep_small"
    # (block-tree pieces, bridges, leaves, loops)
    SHAPES = [
        ([("cycle", 4), ("theta", 2)], 0, 1, 1),
        ([("wheel", 3), ("cycle", 2)], 0, 0, 0),
        ([("cycle", 5), ("cycle", 3)], 1, 0, 0),
        ([("theta", 3), ("cycle", 3)], 0, 0, 1),
        ([("cycle", 3), ("cycle", 3), ("cycle", 2)], 0, 0, 0),
        ([("cycle", 2)], 0, 1, 0),
        ([("cycle", 3)], 0, 0, 1),
        ([("theta", 3), ("cycle", 2)], 0, 0, 0),
        ([("cycle", 4)], 0, 1, 0),
        ([("wheel", 3)], 0, 0, 0),
        ([("grid", 2), ("cycle", 2)], 0, 0, 0),
        ([("theta", 4), ("cycle", 3)], 0, 1, 0),
    ]

    @staticmethod
    def bound_for(n_edges: int) -> int:
        # (b + 1)^|E| candidates: keep each enumeration to at most ~1k.
        return 3 if n_edges <= 4 else 2 if n_edges <= 6 else 1

    @staticmethod
    def trait_values(spec: GraphSpec) -> dict:
        """0 on the primitives of classes of at most two edges and on the
        spoiler, 1 elsewhere.

        Every class has a generator of its own, common to all its labels.
        The zero-valued 2-gons, bridges and loops admit many compatible
        thickness functions, so separatedness checks many pairs.
        """
        values = {g: 0 for g in spec.generators}
        for cls in spec.classes:
            if len(cls) > 2:
                common = set.intersection(*(set(spec.labels[e]) for e in cls))
                values.update(dict.fromkeys(common, 1))
        return values

    def build(self) -> None:
        for i, (pieces, bridges, leaves, loops) in enumerate(self.SHAPES):
            g = inputs.block_tree(self.rng, pieces, bridges, loops, leaves)
            for variant in ("aligned", "misaligned", "nc"):
                spec = inputs.plant(
                    f"s{i:02d}{variant[0]}", g, self.rng,
                    "nc" if variant == "nc" else "aligned",
                    mults=(1, 2, 3), n_gens=len(g.classes),
                    misaligned=variant == "misaligned",
                )
                self.add_ops(spec, variant)

    def add_ops(self, spec: GraphSpec, variant: str) -> None:
        path = self.write(spec)
        oracle = checks.Oracle(spec)
        bound = self.bound_for(len(spec.edges))
        self.counted.append((oracle, bound))
        self.ops += [
            cli_op("analyze-json", ["analyze", path, "--format", "json"],
                   lambda s, _: checks.check_analyze_json(spec, s)),
            cli_op("thickness-max", ["thickness", path, "--max", str(bound)],
                   lambda s, _: checks.check_thickness_list(oracle, bound, s)),
            validate_op(path, _off_zero_set(spec, self.rng, 1), True),
            validate_op(path, _twos(spec), False),
        ]
        if variant != "nc":
            values = self.trait_values(spec)
            self.ops.append(cli_op("trait", ["trait", path, "--valuation", _values_arg(values)],
                                   lambda s, _: checks.check_trait(spec, values, s)))
        if variant == "aligned":
            self.ops.append(resolve_op(spec, path, out=False))
        if variant == "nc":
            self.ops.append(cli_op("strata", ["strata", path],
                                   lambda s, d: checks.check_strata(spec, s, d), out=True))


# ------------------------------------------------------------ core_large


class CoreLarge(Workload):
    """A few calls on graphs of 480 to 10,500 edges.

    ``analyze`` and ``thickness --validate`` on a large block tree,
    ``analyze`` on a grid, ``thickness --validate`` and ``resolve --out`` on
    grids, long cycles and theta graphs, and library ``circuit_witness``
    calls on seeded edge pairs.  The tree's zero set makes its contraction
    the largest one of the round.
    """

    name = "core_large"
    TREE = [("cycle", 3), ("cycle", 5), ("theta", 3), ("wheel", 4), ("grid", 3), ("cycle", 2)]
    TREE_REPEAT = 300

    def one(self, name: str, kind: str, size: int, mults=(1, 2, 3, 4)) -> tuple[GraphSpec, str]:
        g = inputs.block_tree(self.rng, [(kind, size)])
        spec = inputs.plant(name, g, self.rng, "aligned", mults=mults, n_gens=1)
        return spec, self.write(spec)

    def build(self) -> None:
        g = inputs.block_tree(self.rng, self.TREE * self.TREE_REPEAT, bridges=self.TREE_REPEAT,
                              loops=self.TREE_REPEAT // 2, leaves=self.TREE_REPEAT // 2)
        tree = inputs.plant("tree", g, self.rng, "aligned", mults=(1, 2, 3), n_gens=4)
        tree_path = self.write(tree)
        self.ops += [
            cli_op("analyze", ["analyze", tree_path], lambda s, _: checks.check_analyze_text(tree, s)),
            validate_op(tree_path, _off_zero_set(tree, self.rng, 2), False),
        ]
        grid16, p = self.one("grid16", "grid", 16)
        self.ops.append(cli_op("analyze", ["analyze", p],
                               lambda s, _: checks.check_analyze_text(grid16, s)))

        grid32, grid32_path = self.one("grid32", "grid", 32)
        cyc, cyc_path = self.one("cycle1200", "cycle", 1200)
        th, th_path = self.one("theta1200", "theta", 1200)
        self.ops += [
            validate_op(grid32_path, _twos(grid32), False),
            validate_op(cyc_path, _off_zero_set(cyc, self.rng, 1), True),
            validate_op(th_path, _off_zero_set(th, self.rng, 1), True),
        ]

        grid24, p = self.one("grid24", "grid", 24)
        self.ops.append(resolve_op(grid24, p, out=True))
        self.ops.append(resolve_op(cyc, cyc_path, out=True))

        # Of the 25 operations, 8 cost clearly less than a grid witness (two
        # validates at about 0.6 of one, six theta witnesses at about 0.35)
        # and 8 clearly more (the cycle witnesses at about 1.6, the rest 1.8
        # and up).  The nine grid witnesses are thus the 9th to 17th by
        # cost, and the median operation is the middle one of them, not the
        # edge of a group, so op_p50_s does not follow the tails of two
        # unlike operations.
        self.witness_inputs = []
        witnesses = [(grid32, grid32_path, self.grid_pair(grid32, c)) for c in self.GRID_COLUMNS]
        witnesses += [(cyc, cyc_path, self.cycle_pair(cyc)) for _ in range(2)]
        witnesses += [(th, th_path, self.any_pair(th)) for _ in range(6)]
        for spec, path, (e, f) in witnesses:
            self.witness_inputs.append(path)
            self.ops.append(self.witness_op(spec, path, e, f))

    # Witness pairs are structurally alike from seed to seed, so that the
    # search does the same amount of work whatever the seed; the seed picks
    # the names.  On the grid the search costs up to 1.4 times more for a
    # middle column than for one at the border, so the columns are fixed.
    GRID_COLUMNS = range(3, 30, 3)

    @staticmethod
    def grid_pair(spec: GraphSpec, c: int) -> tuple[str, str]:
        """The top-row edge of column ``c`` and the bottom-row edge below it."""
        nv, pairs = spec.structure
        n = round(nv ** 0.5)
        bottom = (n - 1) * n + c
        return spec.edge_of[pairs.index((c, c + 1))], spec.edge_of[pairs.index((bottom, bottom + 1))]

    def cycle_pair(self, spec: GraphSpec) -> tuple[str, str]:
        """Two opposite edges of the cycle."""
        n = len(spec.edges)
        j = self.rng.randrange(n)
        return spec.edge_of[j], spec.edge_of[(j + n // 2) % n]

    def any_pair(self, spec: GraphSpec) -> tuple[str, str]:
        e, f = self.rng.sample(spec.edge_ids, 2)
        return e, f

    def witness_op(self, spec: GraphSpec, path: str, e: str, f: str) -> Op:
        def call(program, scratch):
            return program.graph.circuit_witness(self.loaded[path], e, f)

        return Op("circuit_witness", call, lambda c, _: checks.check_witness(spec, e, f, c))

    def prepare(self, program) -> None:
        self.loaded = {p: program.formats.load_graph(p) for p in set(self.witness_inputs)}


WORKLOADS = {w.name: w for w in (AtlasWrite, SweepSmall, CoreLarge)}
