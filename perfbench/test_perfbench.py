"""Tests of the benchmark itself: seeded generators, oracles, checks, tracing.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

from graphalign import cli, graph  # noqa: E402


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    assert code == 0, argv
    return out.getvalue()


class TempDir(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.tmp)


class GeneratorTests(TempDir):
    def files(self, cls, seed: int) -> dict[str, bytes]:
        d = self.tmp / f"{cls.name}-{seed}-{len(list(self.tmp.iterdir()))}"
        d.mkdir()
        cls(seed, d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    def test_each_workload_is_deterministic_for_a_seed(self) -> None:
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                self.assertEqual(self.files(cls, 7), self.files(cls, 7))
                self.assertNotEqual(self.files(cls, 7), self.files(cls, 8))

    def test_each_family_is_deterministic_for_a_seed(self) -> None:
        def make(seed: int, kind: str, policy: str) -> str:
            rng = random.Random(seed)
            if kind in inputs.FIXTURES:
                spec = inputs.fixture(kind, rng)
            else:
                g = inputs.block_tree(rng, [(kind, 4), ("cycle", 3)], bridges=1, loops=1, leaves=1)
                spec = inputs.plant("g", g, rng, policy, mults=(1, 2, 3), n_gens=3,
                                    misaligned=policy == "misaligned")
            return json.dumps(spec.to_obj())

        for kind in [*inputs.SHAPES, *inputs.FIXTURES]:
            for policy in ("aligned", "misaligned", "nc"):
                with self.subTest(kind=kind, policy=policy):
                    self.assertEqual(make(3, kind, policy), make(3, kind, policy))
                    self.assertNotEqual(make(3, kind, policy), make(4, kind, policy))

    def test_planted_classes_match_circuit_enumeration(self) -> None:
        rng = random.Random(1)
        for pieces in ([("cycle", 3), ("theta", 2)], [("wheel", 3)], [("grid", 2), ("cycle", 1)]):
            g = inputs.block_tree(rng, pieces, bridges=1, loops=1, leaves=1)
            spec = inputs.plant("g", g, rng, "aligned")
            oracle = checks.Oracle(spec)
            self.assertEqual(set(oracle.classes([1] * len(spec.edges))), set(spec.classes))

    def test_names_avoid_chart_variables(self) -> None:
        d = self.tmp / "w"
        d.mkdir()
        wl = workloads.SweepSmall(1, d)
        for path in d.iterdir():
            obj = json.loads(path.read_text())
            for name in obj["generators"]:
                self.assertFalse(name.startswith(("a_", "u_")), name)
        self.assertTrue(wl.ops)


class OracleTests(unittest.TestCase):
    def test_moebius_count_matches_published_chart_counts(self) -> None:
        # Chart counts of the fixture graphs (README and ROADMAP figures).
        known = {("twogon", 3): 10, ("twogon", 4): 14, ("threecycle", 2): 20,
                 ("theta", 3): 32, ("mixed6", 1): 64, ("mixed6", 2): 192,
                 ("wheel", 1): 256, ("wheel", 2): 3712}
        for (name, bound), count in known.items():
            oracle = checks.Oracle(inputs.fixture(name, random.Random(0)))
            self.assertEqual(oracle.count_valid(bound), count, (name, bound))

    def test_coprime_tuples(self) -> None:
        from itertools import product
        from math import gcd
        for b in range(1, 6):
            for k in range(1, 4):
                brute = sum(1 for t in product(range(1, b + 1), repeat=k) if gcd(*t) == 1)
                self.assertEqual(checks.coprime_tuples(b, k), brute)


class CheckTests(TempDir):
    """Every checker passes the program's real output and rejects a corrupted copy."""

    def spec(self, pieces, policy="aligned", **kw) -> inputs.GraphSpec:
        rng = random.Random(11)
        g = inputs.block_tree(rng, pieces, **kw)
        return inputs.plant("g", g, rng, policy, mults=(1, 2, 3), n_gens=len(g.classes))

    def test_atlas(self) -> None:
        spec = inputs.fixture("theta", random.Random(2))
        path = str(spec.write(self.tmp))
        out = self.tmp / "atlas"
        oracle = checks.Oracle(spec)
        stdout = run_cli(["atlas", path, "--max", "2", "--out", str(out), "--vanishing", "g0"])
        checks.check_atlas(oracle, 2, ["g0"], stdout, out)
        index = json.loads((out / "atlas.index").read_text())
        chart_file = next(c["file"] for c in index["charts"]
                          if sum(v > 0 for v in c["values"].values()) >= 2)

        def corrupted(edit) -> None:
            broken = self.tmp / "broken"
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(out, broken)
            edit(broken)
            with self.assertRaises(CheckFailed):
                checks.check_atlas(oracle, 2, ["g0"], stdout, broken)

        def edit_chart(fn):
            def edit(d: Path) -> None:
                obj = json.loads((d / chart_file).read_text())
                fn(obj)
                (d / chart_file).write_text(json.dumps(obj))
            return edit

        def wrong_bezout(obj) -> None:
            obj["classes"][0]["rows"][0]["coefficient"] += 1

        def split_class(obj) -> None:
            cls = obj["classes"][0]
            obj["classes"] = [{**cls, "edges": cls["edges"][:1], "rows": cls["rows"][:1]},
                              {**cls, "edges": cls["edges"][1:], "rows": cls["rows"][1:]}]

        def missing_overlap(d: Path) -> None:
            idx = json.loads((d / "atlas.index").read_text())
            gone = idx["overlaps"].pop()
            (d / gone["file"]).unlink()
            (d / "atlas.index").write_text(json.dumps(idx))

        corrupted(edit_chart(wrong_bezout))
        corrupted(edit_chart(split_class))
        corrupted(missing_overlap)

    def test_merged_class_in_a_chart(self) -> None:
        spec = self.spec([("cycle", 3)], leaves=1)
        path = str(spec.write(self.tmp))
        out = self.tmp / "atlas"
        oracle = checks.Oracle(spec)
        stdout = run_cli(["atlas", path, "--max", "1", "--out", str(out)])
        checks.check_atlas(oracle, 1, None, stdout, out)
        index = json.loads((out / "atlas.index").read_text())
        entry = next(c for c in index["charts"] if all(v == 1 for v in c["values"].values()))
        obj = json.loads((out / entry["file"]).read_text())
        first, second = obj["classes"][:2]
        merged = sorted(first["rows"] + second["rows"], key=lambda r: r["edge"])
        obj["classes"] = [{"edges": [r["edge"] for r in merged], "aligning_var": first["aligning_var"],
                           "rows": merged}] + obj["classes"][2:]
        (out / entry["file"]).write_text(json.dumps(obj))
        with self.assertRaises(CheckFailed):
            checks.check_atlas(oracle, 1, None, stdout, out)

    def test_strata(self) -> None:
        spec = self.spec([("cycle", 3), ("theta", 2)], policy="nc", leaves=1)
        path = str(spec.write(self.tmp))
        out = self.tmp / "strata"
        stdout = run_cli(["strata", path, "--out", str(out)])
        checks.check_strata(spec, stdout, out)
        index = json.loads((out / "strata.index").read_text())
        a, b = index["strata"][1]["file"], index["strata"][2]["file"]
        text_a, text_b = (out / a).read_text(), (out / b).read_text()
        (out / a).write_text(text_b)
        (out / b).write_text(text_a)
        with self.assertRaises(CheckFailed):
            checks.check_strata(spec, stdout, out)

    def test_analyze(self) -> None:
        spec = self.spec([("cycle", 4), ("theta", 3)], bridges=1, loops=1)
        path = str(spec.write(self.tmp))
        stdout = run_cli(["analyze", path, "--format", "json"])
        checks.check_analyze_json(spec, stdout)
        obj = json.loads(stdout)
        first, second = obj["classes"][:2]
        first["edges"] = sorted(first["edges"] + second["edges"])
        obj["classes"].remove(second)
        with self.assertRaises(CheckFailed):
            checks.check_analyze_json(spec, json.dumps(obj))
        text = run_cli(["analyze", path])
        checks.check_analyze_text(spec, text)
        with self.assertRaises(CheckFailed):
            checks.check_analyze_text(spec, text.replace("aligned: true", "aligned: false"))

    def test_thickness(self) -> None:
        spec = self.spec([("cycle", 3)], leaves=1)
        path = str(spec.write(self.tmp))
        stdout = run_cli(["thickness", path, "--max", "2"])
        oracle = checks.Oracle(spec)
        checks.check_thickness_list(oracle, 2, stdout)
        lines = stdout.splitlines()
        with self.assertRaises(CheckFailed):
            checks.check_thickness_list(oracle, 2, "\n".join(lines[:-1]) + "\n")
        with self.assertRaises(CheckFailed):
            checks.check_thickness_list(oracle, 2, "\n".join(lines[:-1] + ["2,2,2,2"]) + "\n")

    def test_trait(self) -> None:
        spec = self.spec([("cycle", 3), ("theta", 2)], loops=1)
        path = str(spec.write(self.tmp))
        values = workloads.SweepSmall.trait_values(spec)
        arg = ",".join(f"{g}={v}" for g, v in sorted(values.items()))
        stdout = run_cli(["trait", path, "--valuation", arg])
        checks.check_trait(spec, values, stdout)
        lines = stdout.splitlines()
        with self.assertRaises(CheckFailed):
            checks.check_trait(spec, values, "\n".join(lines[:-2] + lines[-1:]))
        scale = next(i for i, line in enumerate(lines) if line.startswith("scale"))
        lines[scale] = lines[scale][:-1] + "2"
        with self.assertRaises(CheckFailed):
            checks.check_trait(spec, values, "\n".join(lines))

    def test_resolve(self) -> None:
        spec = self.spec([("cycle", 4), ("theta", 2)])
        path = str(spec.write(self.tmp))
        values = {g: 1 for g in spec.generators}
        arg = ",".join(f"{g}=1" for g in spec.generators)
        out = self.tmp / "trace"
        stdout = run_cli(["resolve", path, "--valuation", arg, "--out", str(out)])
        checks.check_resolve(spec, values, stdout, out)
        with self.assertRaises(CheckFailed):
            checks.check_resolve(spec, values, stdout.replace("delta=0", "delta=1"))
        (out / "trace.index").write_text(json.dumps({"steps": []}))
        with self.assertRaises(CheckFailed):
            checks.check_resolve(spec, values, stdout, out)

    def test_witness(self) -> None:
        spec = self.spec([("grid", 3)])
        path = spec.write(self.tmp)
        from graphalign import formats
        G = formats.load_graph(path)
        e, f = spec.edge_ids[0], spec.edge_ids[-1]
        circuit = graph.circuit_witness(G, e, f)
        checks.check_witness(spec, e, f, circuit)
        with self.assertRaises(CheckFailed):
            checks.check_witness(spec, e, f, circuit[:-1])
        with self.assertRaises(CheckFailed):
            checks.check_witness(spec, e, f, circuit + circuit[1:2])


class TracingTests(TempDir):
    def test_spans_cover_every_binding_and_uninstall_restores(self) -> None:
        import graphalign
        from graphalign import atlas
        original = graph.contract
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(atlas.contract, original)
            self.assertIs(atlas.contract, graph.contract)
            self.assertIs(graphalign.contract, graph.contract)
            spec = inputs.fixture("twogon", random.Random(0))
            run_cli(["thickness", str(spec.write(self.tmp)), "--max", "2"])
        finally:
            tracer.uninstall()
        self.assertIs(atlas.contract, original)
        calls, self_s = tracer.self_times()
        self.assertEqual(calls["cli.run"], 1)
        self.assertEqual(calls["formats.parse_graph"], 1)
        self.assertEqual(calls["atlas.is_thickness_function"], 9)
        self.assertEqual(calls["graph.contract"], calls["graph.morphism_check"])
        self.assertEqual(tracer.valid, 6)
        # Self times cover the root span except the counting hooks' time.
        hooks = sum(tracer.excluded)
        self.assertGreater(hooks, 0.0)
        total = tracer.end[0] - tracer.start[0]
        self.assertAlmostEqual(sum(self_s.values()), total - hooks, delta=1e-6)


class RefClockTests(unittest.TestCase):
    def test_samples_while_entered_and_restores_the_signal(self) -> None:
        import signal
        before = signal.getsignal(signal.SIGALRM)
        def work() -> int:  # Python bytecode, so the timer signal gets in
            total = 0
            for i in range(1_000_000):
                total += i
            return total

        with refclock.RefClock(period=0.01) as clock:
            result, raw, ref = clock.time(work)
        self.assertEqual(result, sum(range(1_000_000)))
        self.assertGreater(len(clock.factors), 2)
        self.assertGreater(clock.sampling, 0.0)
        self.assertGreater(raw, 0.0)
        # ref is raw times the mean speed factor of the samples in its window.
        factors = clock.factors[:]
        self.assertTrue(min(factors) * raw <= ref <= max(factors) * raw)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)


if __name__ == "__main__":
    unittest.main()
