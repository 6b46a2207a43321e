import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphalign import (
    GeneratorSet,
    GraphMorphism,
    LabelledGraph,
    Monomial,
    WitnessNotFoundError,
    circuit_partition,
    circuit_witness,
    compose,
    contract,
    first_betti,
    specialise,
)
from graphalign import graph
from graphalign.formats import load_graph
from graphalign.graph import Edge

from conftest import FIXTURES
from oracles import (
    brute_circuit_partition,
    enumerate_2vc_subgraphs,
    two_disjoint_paths_oracle,
    witness_failures,
)
from strategies import chained_blocks, labelled_graphs, mono, theta, threecycle, twogon


def path_plus_loop():
    gens = GeneratorSet(("x",))
    x = mono(x=1)
    return LabelledGraph.build(
        gens,
        ["a", "b", "c"],
        [("e1", "a", "b", x), ("e2", "b", "c", x), ("e3", "c", "c", x)],
    )


class TestCircuitPartition:
    def test_twogon_is_one_class(self):
        assert circuit_partition(twogon()) == (frozenset({"e1", "e2"}),)

    def test_theta_is_one_class(self):
        assert circuit_partition(theta()) == (frozenset({"e1", "e2", "e3"}),)

    def test_bridges_and_loops_are_singletons(self):
        assert circuit_partition(path_plus_loop()) == (
            frozenset({"e1"}),
            frozenset({"e2"}),
            frozenset({"e3"}),
        )

    @settings(max_examples=150)
    @given(labelled_graphs())
    def test_matches_brute_force(self, G):
        assert circuit_partition(G) == brute_circuit_partition(G)

    @settings(max_examples=100, deadline=None)
    @given(labelled_graphs(max_edges=8))
    def test_classes_are_maximal_2vc_plus_loops(self, G):
        part = set(circuit_partition(G))
        subs = enumerate_2vc_subgraphs(G)
        maximal = {s for s in subs if not any(s < t for t in subs)}
        assert part == maximal

    def test_second_call_returns_the_kept_partition(self):
        G = load_graph(FIXTURES / "wheel.graph")
        assert circuit_partition(G) is circuit_partition(G)

    @settings(max_examples=100, deadline=None)
    @given(labelled_graphs())
    def test_kept_partition_matches_a_fresh_copy(self, G):
        first = circuit_partition(G)
        fresh = LabelledGraph(G.generators, G.vertices, G.edges)
        assert circuit_partition(G) == circuit_partition(fresh) == first

    def test_kept_partition_leaves_equality_alone(self):
        G = twogon()
        circuit_partition(G)
        assert G == twogon() and hash(G) == hash(twogon())


GOLDEN_WITNESSES = json.loads(
    (Path(__file__).parent / "golden" / "witnesses.json").read_text()
)


def _unlabelled(edges):
    x = mono(x=1)
    vertices = {v for _, a, b in edges for v in (a, b)}
    return LabelledGraph.build(
        GeneratorSet(("x",)), vertices, [(i, a, b, x) for i, a, b in edges]
    )


def _cycle(n):
    return _unlabelled([(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)])


class TestCircuitWitness:
    def test_twogon(self):
        assert circuit_witness(twogon(), "e1", "e2") == ["e1", "e2"]

    def test_theta_parallel_pair(self):
        w = circuit_witness(theta(), "e1", "e3")
        assert sorted(w) == ["e1", "e3"]
        assert w[0] == "e1"

    def test_different_classes_fail(self):
        with pytest.raises(WitnessNotFoundError):
            circuit_witness(path_plus_loop(), "e1", "e2")

    @pytest.mark.parametrize("e, f", [("zz", "e1"), ("e1", "zz"), ("zz", "zz")])
    def test_unknown_edge_is_not_a_missing_witness(self, e, f):
        with pytest.raises(ValueError, match=r"^unknown edge id 'zz'$") as err:
            circuit_witness(path_plus_loop(), e, f)
        assert not isinstance(err.value, WitnessNotFoundError)

    def test_same_edge_twice_is_refused(self):
        with pytest.raises(ValueError, match=r"^the two edges must be distinct$"):
            circuit_witness(path_plus_loop(), "e1", "e1")

    def test_wheel_every_same_class_pair(self):
        G = load_graph(FIXTURES / "wheel.graph")
        (cls,) = circuit_partition(G)
        assert witness_failures(G) == (len(cls) * (len(cls) - 1), [])

    @settings(max_examples=100, deadline=None)
    @given(labelled_graphs(max_edges=7))
    def test_random_graphs(self, G):
        assert witness_failures(G)[1] == []

    @pytest.mark.parametrize("name", sorted(GOLDEN_WITNESSES["fixtures"]))
    def test_golden_fixture_witnesses(self, name):
        G = load_graph(FIXTURES / f"{name}.graph")
        rows = GOLDEN_WITNESSES["fixtures"][name]
        pairs = [
            (e, f) for cls in circuit_partition(G) for e in sorted(cls) for f in sorted(cls) if e != f
        ]
        assert sorted(pairs) == sorted((e, f) for e, f, _ in rows)
        for e, f, circuit in rows:
            assert circuit_witness(G, e, f) == circuit

    @pytest.mark.parametrize("name", sorted(GOLDEN_WITNESSES["graphs"]))
    def test_golden_generated_witnesses(self, name):
        entry = GOLDEN_WITNESSES["graphs"][name]
        G = _unlabelled(entry["edges"])
        for e, f, circuit in entry["witnesses"]:
            assert circuit_witness(G, e, f) == circuit

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(labelled_graphs(max_edges=8), chained_blocks(max_edges=9)), st.randoms())
    def test_warm_network_gives_the_fresh_witness(self, G, rnd):
        # The class networks are kept on G, so each call after the first in
        # a class runs on a warm memo; a fresh copy of G has none.
        pairs = [(e, f) for cls in circuit_partition(G) for e in sorted(cls) for f in sorted(cls) if e != f]
        rnd.shuffle(pairs)
        for e, f in pairs[:12]:
            fresh = LabelledGraph(G.generators, G.vertices, G.edges)
            assert circuit_witness(G, e, f) == circuit_witness(fresh, e, f)

    @staticmethod
    def _assert_search_equals_the_oracle_search(G, pairs):
        # The flat-array search that stops at the sink against the
        # dict-based one that pops it.
        found = [circuit_witness(G, e, f) for e, f in pairs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_two_disjoint_paths", two_disjoint_paths_oracle)
            assert [circuit_witness(G, e, f) for e, f in pairs] == found

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(labelled_graphs(max_edges=8), chained_blocks(max_edges=9)))
    def test_search_equals_the_oracle_search(self, G):
        # Every ordered same-class pair; these graphs give loops, bridges
        # and parallel edges, but no search on them was seen to step
        # backwards.
        pairs = [(e, f) for cls in circuit_partition(G) for e, f in itertools.permutations(sorted(cls), 2)]
        self._assert_search_equals_the_oracle_search(G, pairs)

    @pytest.mark.parametrize("name", ["wheel", "blocks_31", "grid_12x12"])
    def test_search_equals_the_oracle_search_with_backward_steps(self, name):
        # Some witnesses on these graphs need a search that steps backwards
        # along an arc carrying flow.  Every ordered same-class pair, except
        # on the 264-edge grid: there, the 5,676 of its 69,432 pairs that
        # hold one of every 24th edge, in either place.
        if name == "wheel":
            G = load_graph(FIXTURES / "wheel.graph")
        else:
            G = _unlabelled(GOLDEN_WITNESSES["graphs"][name]["edges"])
        pairs = [(e, f) for cls in circuit_partition(G) for e, f in itertools.permutations(sorted(cls), 2)]
        if name == "grid_12x12":
            (cls,) = circuit_partition(G)
            some = set(sorted(cls)[::24])
            pairs = [(e, f) for e, f in pairs if e in some or f in some]
        self._assert_search_equals_the_oracle_search(G, pairs)

    def test_empty_edge_id(self):
        # Edge ids are any strings; the empty one is an ordinary edge.
        G = LabelledGraph.build(
            GeneratorSet(()),
            ["a", "b", "c"],
            [("", "a", "b", Monomial.unit()), ("x", "b", "c", Monomial.unit()), ("y", "a", "c", Monomial.unit())],
        )
        assert circuit_witness(G, "x", "y") == ["x", "", "y"]
        assert circuit_witness(G, "", "x") == ["", "y", "x"]
        assert witness_failures(G) == (6, [])

    def test_long_cycle(self):
        # Each augmenting path costs O(V + E) on the block, so a witness on
        # 20,000 edges is cheap; a quadratic search would take about a minute.
        n = 20000
        w = circuit_witness(_cycle(n), "e0", "e10000")
        assert w == ["e0"] + [f"e{i}" for i in range(n - 1, 0, -1)]


class TestEnumerate2vc:
    def test_single_loop(self):
        gens = GeneratorSet(("x",))
        G = LabelledGraph.build(gens, ["a"], [("l", "a", "a", mono(x=1))])
        assert enumerate_2vc_subgraphs(G) == [frozenset({"l"})]

    def test_single_bridge(self):
        gens = GeneratorSet(("x",))
        G = LabelledGraph.build(gens, ["a", "b"], [("e", "a", "b", mono(x=1))])
        assert enumerate_2vc_subgraphs(G) == [frozenset({"e"})]

    def test_twogon(self):
        assert enumerate_2vc_subgraphs(twogon()) == [
            frozenset({"e1"}),
            frozenset({"e2"}),
            frozenset({"e1", "e2"}),
        ]

    def test_loop_only_as_singleton(self):
        G = path_plus_loop()
        subs = enumerate_2vc_subgraphs(G)
        assert frozenset({"e3"}) in subs
        assert all(len(s) == 1 for s in subs)

    def test_size_cap(self):
        gens = GeneratorSet(("x",))
        edges = [(f"e{i}", "a", "b", mono(x=1)) for i in range(13)]
        G = LabelledGraph.build(gens, ["a", "b"], edges)
        with pytest.raises(ValueError):
            enumerate_2vc_subgraphs(G)


class TestContract:
    def test_twogon_single_edge(self):
        H, phi = contract(twogon(), ["e1"])
        assert H.vertices == ("v1",)
        assert [e.id for e in H.edges] == ["e2"]
        assert H.edge("e2").is_loop
        images = dict(phi.edge_map)
        assert images["e1"] == ("vertex", "v1")
        assert images["e2"] == ("edge", "e2")

    def test_empty_contraction_is_identity(self):
        G = twogon()
        H, phi = contract(G, [])
        assert H == G
        assert phi == GraphMorphism.identity(G)

    def test_threecycle_becomes_twogon(self):
        H, _ = contract(threecycle(), ["e1"])
        assert len(H.vertices) == 2
        assert circuit_partition(H) == (frozenset({"e2", "e3"}),)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(labelled_graphs(max_edges=8), chained_blocks(max_edges=9)), st.data())
    def test_partition_of_contraction_matches_brute_force(self, G, data):
        # Multigraphs with loops, bridges and parallel edges; the contracted
        # edges may close cycles and turn edges into loops.
        zero = data.draw(st.lists(st.sampled_from(G.edge_ids), unique=True) if G.edges else st.just([]))
        H, _ = contract(G, zero)
        assert circuit_partition(H) == brute_circuit_partition(H)

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            contract(twogon(), ["nope"])


class TestSpecialise:
    def test_worked_example_stratum(self):
        H, _ = specialise(twogon(), {"x"})
        assert [e.id for e in H.edges] == ["e1"]
        assert H.edge("e1").is_loop
        assert H.edge("e1").label == mono(x=1)

    def test_all_generators_is_identity_on_graph(self):
        G = twogon()
        H, phi = specialise(G, {"x", "y"})
        assert H.vertices == G.vertices
        assert H.edges == G.edges
        assert phi.contracted_edges == frozenset()

    def test_normalise_drops_unit_factor(self):
        gens = GeneratorSet(("x", "y"))
        G = LabelledGraph.build(gens, ["a", "b"], [("e", "a", "b", mono(x=1, y=1))])
        H, phi = specialise(G, {"y"})
        assert H.edge("e").label == mono(y=1)
        assert phi.kept_generators == ("y",)

    def test_builds_one_checked_morphism(self, monkeypatch):
        checks = []
        check = GraphMorphism.__post_init__

        def counting(self):
            checks.append(self)
            check(self)

        monkeypatch.setattr(GraphMorphism, "__post_init__", counting)
        G = load_graph(FIXTURES / "wheel.graph")
        H, phi = specialise(G, G.generators.names[:1])
        assert checks == [phi]
        assert phi.target is H and phi.kept_generators == G.generators.names[:1]

    def test_contraction_criterion(self):
        gens = GeneratorSet(("x", "y", "z"))
        G = LabelledGraph.build(
            gens,
            ["a", "b"],
            [
                ("e1", "a", "b", mono(x=1)),
                ("e2", "a", "b", mono(y=2, z=1)),
                ("e3", "a", "a", Monomial.unit()),
            ],
        )
        _, phi = specialise(G, {"x", "z"})
        assert phi.contracted_edges == frozenset({"e3"})
        _, phi = specialise(G, {"y"})
        assert phi.contracted_edges == frozenset({"e1", "e3"})


class TestCompose:
    def test_identity(self):
        G = twogon()
        ident = GraphMorphism.identity(G)
        _, phi = specialise(G, {"x"})
        assert compose(ident, phi) == phi

    def test_contract_in_stages(self):
        G = threecycle()
        H1, phi1 = contract(G, ["e1"])
        H2, phi2 = contract(H1, ["e2"])
        direct_H, direct = contract(G, ["e1", "e2"])
        assert H2 == direct_H
        assert compose(phi1, phi2) == direct

    def test_specialise_chain_equals_direct(self):
        G = theta(nc=True)
        for J in [{"x", "y"}, {"x"}, {"y", "z"}]:
            for J2 in [set(), {"x"} & J]:
                H1, phi1 = specialise(G, J)
                H2, phi2 = specialise(H1, J2)
                direct_H, direct = specialise(G, J2)
                assert H2 == direct_H
                assert compose(phi1, phi2) == direct

    def test_mismatch_rejected(self):
        G = twogon()
        _, phi = specialise(G, {"x"})
        with pytest.raises(ValueError):
            compose(phi, phi)


class TestMorphismValidation:
    def test_label_mismatch_rejected(self):
        G = twogon()
        H = twogon(mono(x=2), mono(y=1))
        with pytest.raises(ValueError, match="labels do not match"):
            GraphMorphism(
                G,
                H,
                tuple((v, v) for v in G.vertices),
                tuple((e, ("edge", e)) for e in G.edge_ids),
            )

    def test_endpoint_mismatch_rejected(self):
        gens = GeneratorSet(("x",))
        x = mono(x=1)
        G = LabelledGraph.build(
            gens, ["a", "b", "c"], [("e1", "a", "b", x), ("e2", "b", "c", x)]
        )
        with pytest.raises(ValueError, match="endpoints do not commute"):
            GraphMorphism(
                G,
                G,
                (("a", "a"), ("b", "b"), ("c", "c")),
                (("e1", ("edge", "e2")), ("e2", ("edge", "e1"))),
            )

    def test_partial_maps_rejected(self):
        G = twogon()
        with pytest.raises(ValueError, match="total"):
            GraphMorphism(G, G, (("v1", "v1"),), tuple((e, ("edge", e)) for e in G.edge_ids))

    def test_contracted_edge_must_land_on_merged_image(self):
        gens = GeneratorSet(("x",))
        x = mono(x=1)
        G = LabelledGraph.build(
            gens, ["a", "b", "c"], [("e1", "a", "b", x), ("e2", "b", "c", x)]
        )
        H, _ = contract(G, ["e1"])
        with pytest.raises(ValueError, match="must map onto"):
            GraphMorphism(
                G,
                H,
                (("a", "a"), ("b", "c"), ("c", "c")),
                (("e1", ("vertex", "a")), ("e2", ("edge", "e2"))),
            )

    def test_vertex_listed_twice_rejected(self):
        # A dict of the pairs keeps the last image only, which here commutes.
        G = twogon()
        with pytest.raises(ValueError, match=r"^vertex map lists 'v1' twice$"):
            GraphMorphism(
                G,
                G,
                (("v1", "v2"), ("v1", "v1"), ("v2", "v2")),
                tuple((e, ("edge", e)) for e in G.edge_ids),
            )

    def test_edge_listed_twice_rejected(self):
        G = twogon(mono(x=1), mono(x=1))
        with pytest.raises(ValueError, match=r"^edge map lists 'e1' twice$"):
            GraphMorphism(
                G,
                G,
                tuple((v, v) for v in G.vertices),
                (("e1", ("edge", "e1")), ("e1", ("edge", "e2")), ("e2", ("edge", "e2"))),
            )

    def test_edge_image_missing_from_target_rejected(self):
        G = twogon()
        with pytest.raises(ValueError, match="unknown edge id 'e9'"):
            GraphMorphism(
                G,
                G,
                tuple((v, v) for v in G.vertices),
                (("e1", ("edge", "e1")), ("e2", ("edge", "e9"))),
            )


class TestBettiBookkeeping:
    @settings(max_examples=150)
    @given(labelled_graphs(gens=("x", "y"), max_edges=7))
    def test_betti_drop_is_cyclomatic_number_of_contracted_part(self, G):
        # Contract the x-free edges; the drop in b1 equals the cyclomatic
        # number of the contracted subgraph, computed class by class.
        H, phi = specialise(G, {"x"})
        contracted = phi.contracted_edges
        sub_edges = [(e.id, *e.ends, e.label) for e in G.edges if e.id in contracted]
        sub_vertices = {v for _, u, w, _ in sub_edges for v in (u, w)}
        sub = LabelledGraph.build(G.generators, sub_vertices, sub_edges)
        drop = sum(
            len(cls) - len({v for e in cls for v in sub.edge(e).ends}) + 1
            for cls in circuit_partition(sub)
        )
        assert first_betti(G) == first_betti(H) + drop
        assert drop == first_betti(sub)


class TestEdgeRecord:
    @pytest.mark.parametrize(
        "ends",
        [("b", "a"), ["a", "b"], ("a", "b", "c"), ("c", "b", "a"), ("a",)],
        ids=["unsorted-pair", "list", "sorted-triple", "unsorted-triple", "single"],
    )
    def test_ends_must_be_a_sorted_pair(self, ends):
        with pytest.raises(ValueError, match=r"^edge 'e': endpoints must be stored sorted$"):
            Edge("e", ends, Monomial.unit())

    @pytest.mark.parametrize("ends", [("a", "b"), ("a", "a")])
    def test_sorted_pairs_and_loops_accepted(self, ends):
        assert Edge("e", ends, Monomial.unit()).ends == ends


class TestEdgeIndex:
    def test_edge_lookup(self):
        G = path_plus_loop()
        assert [G.edge(e) for e in ("e1", "e2", "e3")] == list(G.edges)
        with pytest.raises(ValueError, match=r"^unknown edge id 'e4'$"):
            G.edge("e4")
        with pytest.raises(ValueError, match=r"^unknown edge id \['e1'\]$"):
            G.edge(["e1"])

    def test_cache_is_not_part_of_the_value(self):
        G, H = path_plus_loop(), path_plus_loop()
        assert G.edge_ids is G.edge_ids
        assert G.edge_ids == ("e1", "e2", "e3")
        G.edge("e1")
        assert {"edge_ids", "_edge_index"} <= set(vars(G))
        assert not {"edge_ids", "_edge_index"} & set(vars(H))
        assert G == H
        assert hash(G) == hash(H)
        assert repr(G) == repr(H)
