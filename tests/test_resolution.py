import json
import math
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphalign import (
    GeneratorSet,
    LabelledGraph,
    Monomial,
    Valuation,
    alignment,
    blowup_step,
    check_alignment,
    first_betti,
    formats,
    is_aligned,
    primitive_part,
    resolution,
    resolve,
)

from conftest import FIXTURES
from oracles import class_multiplicities, delta, resolve_oracle, rewrite_oracle
from strategies import (
    aligned_graphs,
    chained_blocks,
    labelled_graphs,
    mono,
    random_graph,
    twogon,
)

VX = Valuation.from_dict({"x": 1})
# Sends every primitive of ``strategies.PRIMITIVES`` to 1.
VXY = Valuation.from_dict({"x": 1, "y": 0})


def assert_primitive_parts_match(G: LabelledGraph) -> None:
    """Each label in an aligned class is its class primitive's power, so its
    own primitive part is that primitive and multiplicity; on an aligned
    graph that covers every edge without a unit label."""
    report = check_alignment(G)
    expected = class_multiplicities(report)
    for e in G.edges:
        if e.id in expected:
            assert primitive_part(e.label) == expected[e.id], e.id
    if report.aligned:
        assert set(expected) == {e.id for e in G.edges if not e.label.is_unit}


def single_edge(n: int) -> LabelledGraph:
    gens = GeneratorSet(("x",))
    return LabelledGraph.build(gens, ["a", "b"], [("e", "a", "b", mono(x=n))])


class TestDelta:
    def test_examples(self):
        assert delta(single_edge(3), VX) == 2
        assert delta(single_edge(1), VX) == 0
        G = twogon(mono(x=2), mono(x=3))
        assert delta(G, Valuation.from_dict({"x": 1, "y": 0})) == 3

    def test_unit_edges_do_not_count(self):
        gens = GeneratorSet(("x",))
        G = LabelledGraph.build(
            gens, ["a"], [("e", "a", "a", Monomial.unit())]
        )
        assert delta(G, VX) == 0


class TestBlowupStep:
    def test_square_splits_in_two(self):
        H, records = blowup_step(single_edge(2))
        assert [(e.id, str(e.label)) for e in H.edges] == [("e.1", "x"), ("e.2", "x")]
        assert records[0].rule == "split-two"

    def test_higher_power_splits_in_three(self):
        H, records = blowup_step(single_edge(4))
        assert [(e.id, str(e.label)) for e in H.edges] == [
            ("e.1", "x"),
            ("e.2", "x^2"),
            ("e.3", "x"),
        ]
        assert records[0].rule == "split-three"

    def test_unit_edge_deleted(self):
        gens = GeneratorSet(("x",))
        G = LabelledGraph.build(gens, ["a"], [("e", "a", "a", Monomial.unit())])
        H, records = blowup_step(G)
        assert H.edges == ()
        assert records[0].rule == "delete-unit"

    def test_primitive_edges_untouched(self):
        H, records = blowup_step(single_edge(1))
        assert H == single_edge(1)
        assert records[0].rule == "keep"

    def test_non_aligned_rejected(self):
        with pytest.raises(ValueError):
            blowup_step(twogon())

    def test_fresh_ids_colliding_with_existing_ids_rejected(self):
        gens = GeneratorSet(("x",))
        x, x2 = mono(x=1), mono(x=2)
        edge_clash = LabelledGraph.build(
            gens, ["a", "b", "c"], [("e", "a", "b", x2), ("e.1", "b", "c", x)]
        )
        with pytest.raises(ValueError, match=r"collide.*'e\.1'"):
            blowup_step(edge_clash)
        vertex_clash = LabelledGraph.build(
            gens, ["a", "b", "e@1.1"], [("e", "a", "b", x2), ("f", "b", "e@1.1", x)]
        )
        with pytest.raises(ValueError, match=r"collide.*'e@1\.1'"):
            blowup_step(vertex_clash)

    def test_equal_labels_share_one_object_in_every_step(self):
        # Powers of x around a cycle: split edges make many equal pieces, and
        # the two kept x edges start as distinct objects.
        exps = [2, 3, 4, 5, 4, 3, 2, 1, 1]
        n = len(exps)
        G = LabelledGraph.build(
            GeneratorSet(("x",)),
            [f"v{i}" for i in range(n)],
            [(f"e{i}", f"v{i}", f"v{(i + 1) % n}", mono(x=k)) for i, k in enumerate(exps)],
        )
        trace = resolve(G, VX)
        assert len(trace.steps) == 3
        for step in trace.steps[1:]:
            shared = {}
            for e in step.graph.edges:
                assert shared.setdefault(e.label, e.label) is e.label, e.id
            assert len(shared) < len(step.graph.edges)

    def test_fixpoint_idempotence(self):
        G = twogon(mono(x=1), mono(x=1))
        assert delta(G, Valuation.from_dict({"x": 1, "y": 0})) == 0
        H, _ = blowup_step(G)
        assert H == G


class TestResolve:
    def test_single_edge_chain_law(self):
        for n in range(2, 11):
            trace = resolve(single_edge(n), VX)
            assert len(trace.steps) - 1 == math.ceil((n - 1) / 2)
            final = trace.final
            assert len(final.edges) == n
            assert all(e.label == mono(x=1) for e in final.edges)
            deltas = [s.delta for s in trace.steps]
            assert deltas[0] == n - 1
            assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_already_resolved(self):
        trace = resolve(single_edge(1), VX)
        assert len(trace.steps) == 1
        assert trace.final == single_edge(1)

    def test_twogon_x_x3_gives_fourcycle(self):
        G = twogon(mono(x=1), mono(x=3))
        trace = resolve(G, Valuation.from_dict({"x": 1, "y": 0}))
        final = trace.final
        assert len(final.edges) == 4
        assert first_betti(final) == 1
        assert all(e.label == mono(x=1) for e in final.edges)

    def test_alignment_and_betti_preserved(self):
        rng = random.Random(5)
        count = 0
        while count < 40:
            G = random_graph(rng, max_edges=5, gens=("x",), max_exp=4)
            if not is_aligned(G) or any(e.label.is_unit for e in G.edges):
                continue
            count += 1
            v = VX
            trace = resolve(G, v)
            b = first_betti(G)
            for step in trace.steps:
                assert is_aligned(step.graph)
                assert first_betti(step.graph) == b
            deltas = [s.delta for s in trace.steps]
            assert all(a > b2 for a, b2 in zip(deltas, deltas[1:]))
            assert all(
                v.of(e.label) <= 1 for e in trace.final.edges
            )

    def test_bad_valuation_rejected(self):
        with pytest.raises(ValueError):
            resolve(single_edge(4), Valuation.from_dict({"x": 2}))

    def test_primitives_are_checked_before_any_label(self):
        # The first class's primitive fails before the second class's
        # labels, which name a generator the valuation lacks, are read.
        G = LabelledGraph.build(
            GeneratorSet(("x", "y")),
            ["u", "v", "w"],
            [("a", "u", "v", mono(x=2)), ("b", "v", "w", mono(y=3))],
        )
        with pytest.raises(ValueError, match=r"class primitive x \(edge 'a'\) to 1"):
            resolve(G, Valuation.from_dict({"x": 2}))
        with pytest.raises(ValueError, match="missing generator 'y'"):
            resolve(G, Valuation.from_dict({"x": 1}))

    def test_trace_records_rules(self):
        trace = resolve(single_edge(4), VX)
        rules = [r.rule for r in trace.steps[1].rewrites]
        assert rules == ["split-three"]
        produced = trace.steps[1].rewrites[0].produced
        assert produced == ("e.1", "e.2", "e.3")


class TestAlignmentIsCheckedOnce:
    @pytest.mark.parametrize("name", ["mixed6", "theta", "threecycle", "twogon", "wheel"])
    def test_fixture_primitive_parts_are_class_multiplicities(self, name):
        assert_primitive_parts_match(formats.load_graph(FIXTURES / f"{name}.graph"))

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            labelled_graphs(max_edges=7),
            labelled_graphs(max_edges=7, gens=("x",), max_exp=4),
            chained_blocks(),
            chained_blocks(gens=("x",), max_exp=4),
        )
    )
    def test_primitive_parts_are_class_multiplicities(self, G):
        assert_primitive_parts_match(G)

    def test_class_verdicts_only_on_the_input(self, monkeypatch):
        # A loop x^2, a bridge x^3 and a 4-cycle with x^5: three steps.
        gens = GeneratorSet(("x",))
        G = LabelledGraph.build(
            gens,
            ["a", "b", "c", "d"],
            [
                ("l", "a", "a", mono(x=2)),
                ("r", "a", "b", mono(x=3)),
                ("c1", "b", "c", mono(x=5)),
                ("c2", "c", "d", mono(x=1)),
                ("c3", "b", "d", mono(x=1)),
            ],
        )
        seen = []
        verdict = alignment._class_verdict

        def counting(edges, labels):
            seen.append(tuple(edges))
            return verdict(edges, labels)

        monkeypatch.setattr(alignment, "_class_verdict", counting)
        trace = resolve(G, VX)
        assert len(trace.steps) == 3
        assert seen == [("c1", "c2", "c3"), ("l",), ("r",)]

    # The oracle that replaces a per-step alignment check in ``resolve``.
    @settings(max_examples=150, deadline=None)
    @given(aligned_graphs(max_exp=12))
    def test_every_step_is_aligned_with_its_primitive_parts(self, G):
        assert is_aligned(G)
        trace = resolve(G, VXY)
        for step in trace.steps:
            assert check_alignment(step.graph).aligned
            assert_primitive_parts_match(step.graph)
        assert all(VXY.of(e.label) <= 1 for e in trace.final.edges)


def cycle(n: int, k: int) -> LabelledGraph:
    """An n-cycle with every edge labelled x^k."""
    return LabelledGraph.build(
        GeneratorSet(("x",)),
        [f"v{i}" for i in range(n)],
        [(f"e{i}", f"v{i}", f"v{(i + 1) % n}", mono(x=k)) for i in range(n)],
    )


def bridges(*edges: tuple[str, int]) -> LabelledGraph:
    """A path of bridges, edge i with id edges[i][0] labelled x^edges[i][1]."""
    return LabelledGraph.build(
        GeneratorSet(("x",)),
        [f"v{i}" for i in range(len(edges) + 1)],
        [(eid, f"v{i}", f"v{i + 1}", mono(x=k)) for i, (eid, k) in enumerate(edges)],
    )


def assert_same_trace(G: LabelledGraph, v: Valuation) -> None:
    trace, oracle = resolve(G, v), resolve_oracle(G, v)
    assert len(trace.steps) == len(oracle.steps)
    for i, (step, expected) in enumerate(zip(trace.steps, oracle.steps)):
        assert step.graph == expected.graph, i
        assert step.delta == expected.delta, i
        assert step.rewrites == expected.rewrites, i
    # The size guard's count is the trace's.
    assert resolution._trace_size(check_alignment(G)) == (
        len(trace.steps) - 1,
        sum(len(step.graph.edges) for step in trace.steps),
    )


def valuation_reads(monkeypatch) -> list:
    """The labels that ``Valuation.of`` is called on from now on."""
    read = []
    of = Valuation.of

    def counting_of(self, m):
        read.append(m)
        return of(self, m)

    monkeypatch.setattr(Valuation, "of", counting_of)
    return read


def assert_same_outcome(G: LabelledGraph, v: Valuation) -> None:
    """The same trace as the oracle, or the same refusal."""
    try:
        resolve_oracle(G, v)
    except ValueError as expected:
        with pytest.raises(ValueError) as got:
            resolve(G, v)
        assert str(got.value) == str(expected)
    else:
        assert_same_trace(G, v)


class TestRewritingKernel:
    """The incremental kernel against the whole-graph loop it replaced."""

    # VXY resolves every such graph.  The drawn valuation refuses those
    # with a primitive it does not send to 1; x=0, y=1 resolves the graphs
    # whose primitives are all x*y.
    @settings(max_examples=150, deadline=None)
    @given(aligned_graphs(max_exp=12), st.integers(0, 2), st.integers(0, 2))
    def test_every_step_matches_the_oracle(self, G, x, y):
        assert_same_trace(G, VXY)
        assert_same_outcome(G, Valuation.from_dict({"x": x, "y": y}))

    @settings(max_examples=100, deadline=None)
    @given(aligned_graphs(max_exp=6), st.integers(1, 5))
    def test_blowup_step_matches_the_oracle(self, G, step):
        assert blowup_step(G, step) == rewrite_oracle(G, step)

    def test_fourcycle_x60_step_by_step(self):
        assert_same_trace(cycle(4, 60), VX)

    @pytest.mark.parametrize(
        "edges",
        [
            # "-" sorts below ".", so e's pieces go after "e-" and "e-1".
            [("e", 5), ("e-", 4), ("e-1", 1), ("f", 3)],
            # A kept id between two pieces of one edge.
            [("e", 6), ("e.1a", 1), ("e.2-", 2), ("e.2.1-", 1)],
            # Both at once, at several steps.
            [("a", 9), ("a-", 7), ("a.2.1x", 1), ("a.2.2.1x", 1), ("a-.1x", 1)],
        ],
    )
    def test_pieces_are_merged_into_id_order(self, edges):
        assert_same_trace(bridges(*edges), VX)

    def test_fresh_id_clash_at_step_two(self):
        # Step 1 makes e.2 = x^2 beside e.2.1; step 2 would split it into e.2.1.
        G = bridges(("e", 4), ("e.2.1", 1))
        with pytest.raises(ValueError) as expected:
            resolve_oracle(G, VX)
        with pytest.raises(ValueError) as got:
            resolve(G, VX)
        assert str(got.value) == str(expected.value) == (
            "fresh ids collide with existing ids: ['e.2.1']"
        )

    def test_equal_labels_held_apart_are_merged_as_the_oracle_does(self):
        G = LabelledGraph.build(
            GeneratorSet(("x",)),
            ["a", "b", "c"],
            [("e1", "a", "b", mono(x=1)), ("e2", "b", "c", mono(x=1)), ("e3", "a", "c", mono(x=3))],
        )
        assert G.edges[0].label is not G.edges[1].label
        assert_same_trace(G, VX)
        final = resolve(G, VX).final
        assert len({id(e.label) for e in final.edges}) == 1

    def test_work_is_in_the_size_of_the_rewrites(self, monkeypatch):
        # 100 steps on a 4-cycle labelled x^200.  Rewriting every edge of
        # every step builds 40,000 records and reads 40,000 valuations; the
        # kernel reads none, and ``resolve`` reads the one class primitive.
        made = []
        record = resolution.RewriteRecord

        def counting_record(*args):
            made.append(args)
            return record(*args)

        monkeypatch.setattr(resolution, "RewriteRecord", counting_record)
        read = valuation_reads(monkeypatch)
        trace = resolve(cycle(4, 200), VX)
        assert len(trace.steps) == 101
        final_edges = len(trace.final.edges)
        rewrites = sum(r.rule != "keep" for step in trace.steps for r in step.rewrites)
        assert (final_edges, rewrites) == (800, 400)
        assert len(made) <= 2 * (final_edges + rewrites)
        assert read == [mono(x=1)]
        # A kept edge carries the same record at every step that keeps it.
        kept = {id(r) for step in trace.steps for r in step.rewrites if r.rule == "keep"}
        assert len(kept) <= final_edges

    def test_valuation_is_read_once_per_class_primitive(self, monkeypatch):
        # A loop x^2, a bridge (x*y)^3, a triangle with (x*y^2)^5 and a
        # unit loop, whose class has no primitive: three reads.
        G = LabelledGraph.build(
            GeneratorSet(("x", "y")),
            ["a", "b", "c", "d"],
            [
                ("l", "a", "a", mono(x=2)),
                ("r", "a", "b", mono(x=3, y=3)),
                ("c1", "b", "c", mono(x=5, y=10)),
                ("c2", "c", "d", mono(x=1, y=2)),
                ("c3", "b", "d", mono(x=1, y=2)),
                ("u", "d", "d", Monomial.unit()),
            ],
        )
        primitives = [c.primitive for c in check_alignment(G).classes if c.primitive is not None]
        read = valuation_reads(monkeypatch)
        assert len(resolve(G, VXY).steps) == 3
        assert len(primitives) == 3
        assert read == primitives

    def test_a_step_that_does_not_lower_delta_is_a_bug(self, monkeypatch):
        # Each stuck step sleeps, so that if the guard let the loop run on,
        # the trace would grow slowly until the alarm failed the test.
        calls = []

        def stuck(self, index):
            calls.append(index)
            time.sleep(0.001)
            return LabelledGraph(self.generators, tuple(self.vertices), tuple(self.edges)), ()

        def on_alarm(signum, frame):
            raise TimeoutError("resolve kept stepping")

        monkeypatch.setattr(resolution._Rewriter, "step", stuck)
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            with pytest.raises(AssertionError, match="^delta failed to decrease; rewriting bug$"):
                resolve(cycle(4, 6), VX)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert calls == [1]


class TestSizeGuard:
    def test_count_is_exact_on_the_40x40_grid(self):
        n = 40
        G = LabelledGraph.build(
            GeneratorSet(("x",)),
            [f"v{i}_{j}" for i in range(n) for j in range(n)],
            [(f"h{i}_{j}", f"v{i}_{j}", f"v{i + 1}_{j}", mono(x=40)) for i in range(n - 1) for j in range(n)]
            + [(f"w{i}_{j}", f"v{i}_{j}", f"v{i}_{j + 1}", mono(x=40)) for i in range(n) for j in range(n - 1)],
        )
        steps, slots = resolution._trace_size(check_alignment(G))
        assert (steps, slots) == (20, 1_372_800)
        assert slots <= resolution.MAX_TRACE_EDGE_SLOTS

    def test_units_count_in_step_zero_only(self):
        G = LabelledGraph.build(
            GeneratorSet(("x",)),
            ["a", "b"],
            [("u", "a", "a", Monomial.unit()), ("e", "a", "b", mono(x=5))],
        )
        assert_same_trace(G, VX)
        assert resolution._trace_size(check_alignment(G)) == (2, 1 + 1 + 3 + 5)

    def test_refused_before_the_first_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(resolution._Rewriter, "step", no_step)
        with pytest.raises(ValueError) as err:
            resolve(cycle(4, 100_000), VX)
        assert str(err.value) == (
            "resolving takes 50000 steps whose graphs hold 10000400000 edges in all, "
            f"above the limit of {resolution.MAX_TRACE_EDGE_SLOTS}"
        )


def _path_text(n: int, own_generators: bool) -> str:
    """A path of n bridges labelled g_i^2, each with its own generator, or
    all labelled x^2."""
    gens = [f"g{i}" for i in range(n)] if own_generators else ["x"]
    edges = [
        {"id": f"e{i}", "ends": [f"v{i}", f"v{i + 1}"], "label": {gens[i] if own_generators else "x": 2}}
        for i in range(n)
    ]
    vertices = sorted(f"v{i}" for i in range(n + 1))
    return json.dumps({"generators": gens, "nc": False, "vertices": vertices, "edges": edges})


def test_many_generators_cost_linear_time():
    # Generator lookups are one set or dict lookup each: a path with 20,000
    # generators parses and resolves within 10x the time of the same path
    # over one generator.  Scanning the generator tuple took about 40x.
    def parse_and_resolve(text: str) -> float:
        start = time.perf_counter()
        G = formats.parse_graph(text)
        trace = resolve(G, Valuation.from_dict({g: 1 for g in G.generators.names}))
        assert len(trace.final.edges) == 2 * len(G.edges)
        return time.perf_counter() - start

    n = 20_000
    own, shared = _path_text(n, True), _path_text(n, False)
    assert parse_and_resolve(own) < 10 * parse_and_resolve(shared)
