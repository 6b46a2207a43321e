import random

import pytest
from hypothesis import given, settings

from graphalign import (
    GeneratorSet,
    GraphMorphism,
    LabelledGraph,
    Monomial,
    StratifiedFamily,
    compose,
    specialisation_map,
    specialise,
    stratify,
    verify_controlling,
)
from graphalign.formats import load_graph

from conftest import FIXTURES
from oracles import controlling_oracle
from strategies import labelled_graphs, mono, random_graph, theta, threecycle, twogon


def single_loop():
    gens = GeneratorSet(("x",), nc=True)
    return LabelledGraph.build(gens, ["a"], [("l", "a", "a", mono(x=1))])


def nc_relabel(G):
    """G with its own generator g<i> on the i-th edge, over an NC base."""
    gens = GeneratorSet(tuple(f"g{i}" for i in range(len(G.edges))), nc=True)
    return LabelledGraph.build(
        gens,
        G.vertices,
        [(e.id, *e.ends, mono(**{f"g{i}": 1})) for i, e in enumerate(G.edges)],
    )


class TestStratify:
    def test_twogon_four_strata(self):
        fam = stratify(twogon(nc=True))
        assert len(fam.strata) == 4
        assert fam.strata[frozenset({"x", "y"})] == fam.controlling
        loop_x = fam.strata[frozenset({"x"})]
        assert [(e.id, str(e.label), e.is_loop) for e in loop_x.edges] == [
            ("e1", "x", True)
        ]
        loop_y = fam.strata[frozenset({"y"})]
        assert [(e.id, str(e.label), e.is_loop) for e in loop_y.edges] == [
            ("e2", "y", True)
        ]
        smooth = fam.strata[frozenset()]
        assert smooth.edges == ()

    def test_single_loop_two_strata(self):
        fam = stratify(single_loop())
        assert len(fam.strata) == 2

    def test_theta_eight_strata(self):
        fam = stratify(theta(nc=True))
        assert len(fam.strata) == 8

    def test_unused_generators_do_not_index_strata(self):
        gens = GeneratorSet(("x", "y", "z"), nc=True)
        G = LabelledGraph.build(
            gens, ["a", "b"], [("e1", "a", "b", mono(x=1)), ("e2", "a", "b", mono(y=1))]
        )
        fam = stratify(G)
        assert len(fam.strata) == 4
        # the most special stratum is the controlling graph, unused
        # generators included
        assert fam.strata[frozenset({"x", "y"})] == G
        assert_strata_are_specialisations(G)
        assert verify_controlling(fam).passed

    def test_non_nc_base_rejected(self):
        with pytest.raises(ValueError):
            stratify(twogon())  # nc flag not set

    def test_non_nc_labels_rejected(self):
        with pytest.raises(ValueError):
            stratify(twogon(mono(x=2), mono(y=1), nc=True))
        with pytest.raises(ValueError):
            stratify(twogon(mono(x=1), mono(x=1), nc=True))
        with pytest.raises(ValueError):
            stratify(twogon(mono(x=1), Monomial.unit(), nc=True))


def assert_strata_are_specialisations(G):
    """Each stratum is the graph ``specialise`` gives, whose morphism is
    built and checked here; the most special one is G itself."""
    fam = stratify(G)
    top = frozenset(g for e in G.edges for g in e.label.support)
    for J, stratum in fam.strata.items():
        assert stratum == (G if J == top else specialise(G, J)[0])


@pytest.mark.parametrize("name", ["twogon", "threecycle", "theta"])
def test_strata_of_fixtures_are_specialisations(name):
    assert_strata_are_specialisations(load_graph(FIXTURES / f"{name}.graph"))


@settings(max_examples=60, deadline=None)
@given(labelled_graphs(max_edges=6))
def test_strata_of_random_nc_graphs_are_specialisations(G):
    assert_strata_are_specialisations(nc_relabel(G))


def test_stratify_and_verify_controlling_build_no_morphism(monkeypatch):
    built = []
    check = GraphMorphism.__post_init__

    def counting_check(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(GraphMorphism, "__post_init__", counting_check)
    for G in [twogon(nc=True), threecycle(nc=True), theta(nc=True), single_loop()]:
        assert verify_controlling(stratify(G)).passed
    assert built == []
    # The count sees the morphisms that specialisation_map builds.
    specialisation_map(stratify(twogon(nc=True)), {"x", "y"}, {"x"})
    assert len(built) == 1


class TestSpecialisationMap:
    def test_worked_example_step(self):
        fam = stratify(twogon(nc=True))
        phi = specialisation_map(fam, {"x", "y"}, {"x"})
        assert phi.contracted_edges == frozenset({"e2"})
        assert dict(phi.edge_map)["e1"] == ("edge", "e1")

    def test_identity_on_equal_subsets(self):
        fam = stratify(twogon(nc=True))
        phi = specialisation_map(fam, {"x"}, {"x"})
        assert phi.contracted_edges == frozenset()
        assert phi.source == phi.target

    def test_chain_equals_direct(self):
        fam = stratify(twogon(nc=True))
        phi1 = specialisation_map(fam, {"x", "y"}, {"x"})
        phi2 = specialisation_map(fam, {"x"}, frozenset())
        direct = specialisation_map(fam, {"x", "y"}, frozenset())
        assert compose(phi1, phi2) == direct

    def test_functoriality_all_chains(self):
        fam = stratify(theta(nc=True))
        subsets = fam.subsets()
        for J in subsets:
            for J1 in subsets:
                if not J1 <= J:
                    continue
                phi = specialisation_map(fam, J, J1)
                src = fam.strata[J]
                expected = {
                    e.id for e in src.edges if not (e.label.support & J1)
                }
                assert phi.contracted_edges == expected
                for J2 in subsets:
                    if not J2 <= J1:
                        continue
                    lhs = compose(phi, specialisation_map(fam, J1, J2))
                    assert lhs == specialisation_map(fam, J, J2)

    def test_contraction_criterion(self):
        fam = stratify(theta(nc=True))
        phi = specialisation_map(fam, {"x", "y", "z"}, {"y"})
        assert phi.contracted_edges == frozenset({"e1", "e3"})

    def test_non_nested_rejected(self):
        fam = stratify(twogon(nc=True))
        with pytest.raises(ValueError):
            specialisation_map(fam, {"x"}, {"y"})


class TestVerifyControlling:
    def test_twogon_passes_with_support_witnesses(self):
        fam = stratify(twogon(nc=True))
        report = verify_controlling(fam)
        assert report.passed
        witnesses = dict(report.witnesses)
        assert witnesses[("x", "y")] == ("x", "y")
        assert witnesses[("x",)] == ("x",)
        assert witnesses[()] == ()

    def test_stratum_labelled_outside_its_index_falls_back_to_itself(self):
        # Only a hand-built family can label the stratum at J with a generator
        # outside J; then the labelling set is no candidate and J is the witness.
        G = twogon(nc=True)
        J = frozenset({"x"})
        fam = StratifiedFamily(G, {J: G})
        report = verify_controlling(fam)
        assert report.passed
        assert report.witnesses == ((("x",), ("x",)),)

    def test_stratum_labelled_by_a_proper_subset_of_its_index_is_its_own_witness(self):
        # A hand-built stratum at {x, y} labelled by x alone: the witness is
        # J itself.  The searching oracle tries {x}, which indexes no stratum.
        G = LabelledGraph.build(
            GeneratorSet(("x", "y"), nc=True), ["a"], [("l", "a", "a", mono(x=1))]
        )
        fam = StratifiedFamily(G, {frozenset({"x", "y"}): G})
        assert verify_controlling(fam).witnesses == ((("x", "y"), ("x", "y")),)
        with pytest.raises(ValueError, match="unknown stratum"):
            controlling_oracle(fam)

    def test_distinct_single_generator_families_always_pass(self):
        for G in [twogon(nc=True), theta(nc=True), single_loop()]:
            assert verify_controlling(stratify(G)).passed

    def test_covers_recorded_for_covering_relations(self):
        fam = stratify(twogon(nc=True))
        expected_pairs = {
            (frozenset({"x", "y"}), frozenset({"x"})),
            (frozenset({"x", "y"}), frozenset({"y"})),
            (frozenset({"x"}), frozenset()),
            (frozenset({"y"}), frozenset()),
        }
        assert set(fam.covers) == expected_pairs


@pytest.mark.parametrize("name", ["twogon", "threecycle", "theta", "mixed6", "wheel"])
def test_controlling_witnesses_equal_the_oracle_on_fixtures(name):
    fam = stratify(nc_relabel(load_graph(FIXTURES / f"{name}.graph")))
    assert verify_controlling(fam).witnesses == controlling_oracle(fam)


@settings(max_examples=60, deadline=None)
@given(labelled_graphs(max_edges=6))
def test_controlling_witnesses_equal_the_oracle_on_random_nc_graphs(G):
    fam = stratify(nc_relabel(G))
    assert verify_controlling(fam).witnesses == controlling_oracle(fam)


def assert_covers_consistent(fam):
    """Each cover J -> J - {g} maps between the stored strata (the stratum
    check inside specialisation_map) and contracts exactly the edge of g."""
    edge_of = {e.label.exps[0][0]: e.id for e in fam.controlling.edges}
    k = len(edge_of)
    assert len(fam.covers) == k * 2**k // 2
    for J, J2 in fam.covers:
        (g,) = J - J2
        assert specialisation_map(fam, J, J2).contracted_edges == {edge_of[g]}


@pytest.mark.parametrize("build", [twogon, threecycle, theta])
def test_every_cover_contracts_the_dropped_generators_edge(build):
    assert_covers_consistent(stratify(build(nc=True)))


def test_every_cover_contracts_the_dropped_generators_edge_on_random_shapes():
    graphs = (random_graph(random.Random(seed), max_edges=6) for seed in range(100))
    shapes = [G for G in graphs if G.edges][:50]
    assert len(shapes) == 50
    for G in shapes:
        assert_covers_consistent(stratify(nc_relabel(G)))
