"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The small-graph sweeps enumerate multigraph shapes up to isomorphism
(isomorphic duplicates cannot add coverage since both predicates are
invariant under relabelling), then exhaust the label alphabet on every
structurally relevant edge; edges that no multi-edge class or subgraph
touches provably cannot change either verdict, so their labels stay fixed.
End-to-end calls on sampled labellings and on the random graphs guard the
glue code around the memoised per-class and per-subgraph decisions.
"""

import itertools
import math
import random
import time

from graphalign import (
    GeneratorSet,
    LabelledGraph,
    Monomial,
    ThicknessFunction,
    Valuation,
    build_atlas,
    chart,
    circuit_partition,
    closed_fibre,
    enumerate_thickness,
    first_betti,
    is_aligned,
    is_thickness_function,
    overlap_edges,
    resolve,
    specialisation_map,
    stratify,
    trait_factorisation,
    verify_chart_substitution,
)
from graphalign.cli import run
from graphalign.formats import load_graph, parse_graph, serialize_graph

from conftest import FIXTURES
from oracles import (
    AlignmentSweep,
    brute_circuit_partition,
    brute_overlap_edges,
    canonical_shapes,
    contracted_classes,
    is_aligned_oracle,
    shape_graph,
)
from strategies import random_graph, theta, threecycle, twogon

FIXTURE_NAMES = ["twogon.graph", "threecycle.graph", "theta.graph", "mixed6.graph"]

LABELS9 = [
    Monomial.from_dict({g: e for g, e in (("x", i), ("y", j)) if e > 0})
    for i in range(3)
    for j in range(3)
]


def test_criterion_1_thickness_examples():
    start = time.perf_counter()
    G2, G3, Gt = twogon(), threecycle(), theta()

    def ok(G, vec):
        return is_thickness_function(G, ThicknessFunction.from_vector(G, vec))

    assert ok(G2, (2, 3)) and ok(G2, (0, 1))
    assert ok(G3, (2, 3, 5)) and ok(G3, (0, 2, 3)) and ok(G3, (0, 0, 1))
    assert not ok(G3, (0, 2, 4))
    for triple in [(1, 1, 1), (2, 3, 5), (1, 2, 3)]:
        assert ok(Gt, triple)
    for perm in set(itertools.permutations((0, 1, 1))) | set(
        itertools.permutations((0, 0, 1))
    ):
        assert ok(Gt, perm)
    assert not ok(Gt, (0, 1, 2))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: thickness examples exact ({elapsed:.3f}s)")


def test_criterion_2_alignment_oracle_equivalence():
    start = time.perf_counter()

    shapes = canonical_shapes()
    sweep = AlignmentSweep(LABELS9)
    checked = 0
    end_to_end = 0
    for shape in shapes:
        rows = sweep.labellings(shape)
        sample = {0, len(rows) // 2, len(rows) - 1}
        for a_i, (vec, fast, orac) in enumerate(rows):
            assert fast == orac, (shape, vec)
            checked += 1
            if a_i in sample:
                G = shape_graph(shape, [LABELS9[q] for q in vec])
                full_fast = is_aligned(G)
                full_orac = is_aligned_oracle(G)
                assert full_fast == fast and full_orac == orac, (shape, vec)
                end_to_end += 1

    rng = random.Random(991)
    for _ in range(1000):
        G = random_graph(rng, max_vertices=5, max_edges=8, gens=("x", "y"), max_exp=2)
        assert is_aligned(G) == is_aligned_oracle(G)
        end_to_end += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 2 PASS: alignment oracle equivalence, {len(shapes)} shapes, "
        f"{checked} labelled graphs, {end_to_end} end-to-end ({elapsed:.1f}s)"
    )


def test_criterion_3_partition_oracle_equivalence():
    start = time.perf_counter()
    shapes = canonical_shapes()
    for shape in shapes:
        G = shape_graph(shape)
        assert circuit_partition(G) == brute_circuit_partition(G), shape
    rng = random.Random(991)
    for _ in range(1000):
        G = random_graph(rng, max_vertices=5, max_edges=8, gens=("x", "y"), max_exp=2)
        assert circuit_partition(G) == brute_circuit_partition(G)
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 3 PASS: partition matches brute force on {len(shapes)} shapes "
        f"+ 1000 random graphs ({elapsed:.1f}s)"
    )


def _fixture_charts(bound=3):
    out = {}
    for name in FIXTURE_NAMES:
        G = load_graph(FIXTURES / name)
        out[name] = (G, enumerate_thickness(G, bound))
    return out


def test_criterion_4_chart_identities():
    start = time.perf_counter()
    total = 0
    for name, (G, ms) in _fixture_charts().items():
        for M in ms:
            c = chart(G, M)
            assert verify_chart_substitution(c), (name, M)
            values = dict(M.values)
            for cls in c.classes:
                # The torus relation's exponents are the rows' Bezout coefficients.
                s = sum(row.coefficient * values[row.edge] for row in cls.rows)
                assert s == 1, (name, M, cls)
            total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4 PASS: {total} charts verified ({elapsed:.1f}s)")


def test_criterion_5_gluing_symmetry_and_separatedness():
    start = time.perf_counter()
    pair_count = 0
    for name, (G, ms) in _fixture_charts().items():
        parts = {M: contracted_classes(G, M) for M in ms}

        def delta_of(M, N):
            return brute_overlap_edges(M, N, parts[M], parts[N])

        rng = random.Random(17)
        spot = 0
        for i, M in enumerate(ms):
            for N in ms[i + 1 :]:
                d1, d2 = delta_of(M, N), delta_of(N, M)
                assert d1 == d2, (name, M, N)
                pair_count += 1
                if spot < 100 and rng.random() < 0.01:
                    spot += 1
                    assert overlap_edges(G, M, N) == d1 == overlap_edges(G, N, M)

    valuation_count = 0
    rng = random.Random(29)
    for name in FIXTURE_NAMES:
        G = load_graph(FIXTURES / name)
        vals_of = {e.id: e.label for e in G.edges}
        for _ in range(125):
            v = Valuation.from_dict(
                {g: rng.randint(0, 4) for g in G.generators.names}
            )
            fact = trait_factorisation(G, v)
            assert fact.all_valid, (name, v)
            assert fact.canonical in fact.all_valid, (name, v)
            valid = list(fact.all_valid)
            for i, M in enumerate(valid):
                for N in valid[i + 1 :]:
                    for e in overlap_edges(G, M, N):
                        assert v.of(vals_of[e]) == 0, (name, v, M, N, e)
            valuation_count += 1

    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 5 PASS: {pair_count} chart pairs symmetric, "
        f"{valuation_count} valuations separated ({elapsed:.1f}s)"
    )


def _euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_criterion_6_worked_example_fibre_counts():
    G = twogon()
    expected_by_bound = {1: 1, 2: 3, 3: 7}
    for bound, expected in expected_by_bound.items():
        atlas = build_atlas(G, bound)
        nonempty = sum(
            1
            for c in atlas.charts.values()
            if closed_fibre(c, {"x", "y"}).nonempty
        )
        brute = sum(
            1
            for a in range(1, bound + 1)
            for b in range(1, bound + 1)
            if math.gcd(a, b) == 1
        )
        phi_sum = 2 * sum(_euler_phi(k) for k in range(1, bound + 1)) - 1
        assert nonempty == expected == brute == phi_sum, bound
    print("ACCEPTANCE 6 PASS: fibre counts 1, 3, 7 for bounds 1, 2, 3")


def test_criterion_7_resolution_chains():
    start = time.perf_counter()
    gens = GeneratorSet(("x",))
    v = Valuation.from_dict({"x": 1})
    for n in range(2, 11):
        G = LabelledGraph.build(
            gens, ["a", "b"], [("e", "a", "b", Monomial.from_dict({"x": n}))]
        )
        trace = resolve(G, v)
        assert len(trace.steps) - 1 == math.ceil((n - 1) / 2), n
        assert len(trace.final.edges) == n
        deltas = [s.delta for s in trace.steps]
        assert all(a > b for a, b in zip(deltas, deltas[1:])), n
        b0 = first_betti(G)
        for step in trace.steps:
            assert is_aligned(step.graph), n
            assert first_betti(step.graph) == b0, n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 7 PASS: chains resolve in ceil((n-1)/2) steps ({elapsed:.3f}s)")


def test_criterion_8_worked_example_strata():
    fam = stratify(load_graph(FIXTURES / "twogon.graph"))
    assert len(fam.strata) == 4
    loop_x = fam.strata[frozenset({"x"})]
    assert [(e.id, str(e.label), e.is_loop) for e in loop_x.edges] == [("e1", "x", True)]
    loop_y = fam.strata[frozenset({"y"})]
    assert [(e.id, str(e.label), e.is_loop) for e in loop_y.edges] == [("e2", "y", True)]
    assert fam.strata[frozenset({"x", "y"})] == fam.controlling
    assert fam.strata[frozenset()].edges == ()

    from graphalign import verify_controlling, compose

    assert verify_controlling(fam).passed
    subsets = fam.subsets()
    for J in subsets:
        for J1 in subsets:
            if not J1 <= J:
                continue
            for J2 in subsets:
                if not J2 <= J1:
                    continue
                lhs = compose(
                    specialisation_map(fam, J, J1), specialisation_map(fam, J1, J2)
                )
                assert lhs == specialisation_map(fam, J, J2)
    print("ACCEPTANCE 8 PASS: 2-gon strata, controlling check, functoriality")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    commands = [
        ["analyze", str(FIXTURES / "twogon.graph")],
        ["analyze", str(FIXTURES / "mixed6.graph"), "--format", "json"],
        ["analyze", str(FIXTURES / "wheel.graph"), "--format", "dot"],
        ["thickness", str(FIXTURES / "theta.graph"), "--max", "1"],
        ["thickness", str(FIXTURES / "theta.graph"), "--max", "1", "--validate", "0,1,2"],
        ["trait", str(FIXTURES / "twogon.graph"), "--valuation", "x=4,y=6"],
        ["strata", str(FIXTURES / "twogon.graph")],
        ["strata", str(FIXTURES / "threecycle.graph"), "--format", "dot"],
    ]
    for argv in commands:
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second, argv

    for i in (1, 2):
        out = tmp_path / f"atlas{i}"
        assert (
            run(
                [
                    "atlas",
                    str(FIXTURES / "twogon.graph"),
                    "--max",
                    "2",
                    "--out",
                    str(out),
                    "--vanishing",
                    "x,y",
                ]
            )
            == 0
        )
        capsys.readouterr()
    files1 = sorted(p.name for p in (tmp_path / "atlas1").iterdir())
    files2 = sorted(p.name for p in (tmp_path / "atlas2").iterdir())
    assert files1 == files2
    for name in files1:
        assert (tmp_path / "atlas1" / name).read_bytes() == (
            tmp_path / "atlas2" / name
        ).read_bytes()

    for name in FIXTURE_NAMES + ["wheel.graph"]:
        text = (FIXTURES / name).read_text()
        G = parse_graph(text, source=name)
        canonical = serialize_graph(G)
        assert parse_graph(canonical) == G
        assert serialize_graph(parse_graph(canonical)) == canonical
    print("ACCEPTANCE 9 PASS: byte-identical CLI output, round-trip law")
