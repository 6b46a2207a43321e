import math
import random

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
    delta,
    first_betti,
    formats,
    is_aligned,
    primitive_part,
    resolve,
)

from conftest import FIXTURES
from oracles import class_multiplicities
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
