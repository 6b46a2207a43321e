import itertools
import math
import random
from dataclasses import replace

import pytest
from graphalign import atlas as atlas_module
from hypothesis import given, settings
from hypothesis import strategies as st

from graphalign import (
    GeneratorSet,
    LabelledGraph,
    ThicknessFunction,
    Valuation,
    bezout,
    build_atlas,
    chart,
    circuit_partition,
    closed_fibre,
    enumerate_thickness,
    is_thickness_function,
    overlap,
    overlap_edges,
    trait_factorisation,
    verify_chart_substitution,
)
from graphalign.atlas import TraitFactorisation
from graphalign.cli import run
from graphalign.formats import load_graph, serialize_graph

from conftest import FIXTURES
from oracles import (
    brute_overlap_edges,
    brute_thickness,
    brute_trait,
    brute_trait_separated,
    contracted_classes,
)
from strategies import (
    GENS3,
    chained_blocks,
    labelled_graphs,
    mono,
    random_graph,
    theta,
    threecycle,
    twogon,
)


def tf(G, *values):
    return ThicknessFunction.from_vector(G, values)


def chained_threecycles():
    """Three 3-cycles chained at the cut vertices v2 and v4; cycle j has the
    edges e{j}, e{j+3} and e{j+6}, so the blocks interleave in id order."""
    return LabelledGraph.build(
        GeneratorSet(("x",)),
        [f"v{i}" for i in range(7)],
        [
            (f"e{j + 3 * i}", f"v{2 * j + a}", f"v{2 * j + b}", mono(x=1))
            for j in range(3)
            for i, (a, b) in enumerate([(0, 1), (1, 2), (0, 2)])
        ],
    )


valuations = st.fixed_dictionaries({"x": st.integers(0, 2), "y": st.integers(0, 2)}).map(
    Valuation.from_dict
)
trait_graphs = st.one_of(labelled_graphs(max_edges=7, max_exp=2), chained_blocks(max_edges=8))


class TestIsThicknessFunction:
    def test_twogon_coprime_pairs(self):
        G = twogon()
        assert is_thickness_function(G, tf(G, 2, 3))
        assert is_thickness_function(G, tf(G, 0, 1))
        assert not is_thickness_function(G, tf(G, 2, 4))
        assert not is_thickness_function(G, tf(G, 0, 2))

    def test_theta_zero_forces_ones(self):
        G = theta()
        assert is_thickness_function(G, tf(G, 0, 1, 1))
        assert not is_thickness_function(G, tf(G, 0, 1, 2))
        assert is_thickness_function(G, tf(G, 2, 3, 5))

    def test_threecycle(self):
        G = threecycle()
        assert is_thickness_function(G, tf(G, 0, 2, 3))
        assert is_thickness_function(G, tf(G, 2, 3, 5))
        assert not is_thickness_function(G, tf(G, 0, 2, 4))

    def test_zero_function_is_valid(self):
        G = theta()
        assert is_thickness_function(G, tf(G, 0, 0, 0))

    def test_must_be_total_on_the_graph(self):
        G = theta()
        M = ThicknessFunction((("e1", 1), ("e2", 1)))
        with pytest.raises(ValueError):
            is_thickness_function(G, M)
        with pytest.raises(ValueError):
            ThicknessFunction.from_vector(G, (1, 1))

    def test_cycle_graph_law(self):
        # On a cycle, validity is exactly gcd(nonzero values) == 1 or all zero.
        gens = GeneratorSet(("x",))
        x = mono(x=1)
        fourcycle = LabelledGraph.build(
            gens,
            ["a", "b", "c", "d"],
            [
                ("e1", "a", "b", x),
                ("e2", "b", "c", x),
                ("e3", "c", "d", x),
                ("e4", "a", "d", x),
            ],
        )
        for G, k in [(twogon(), 2), (threecycle(), 3), (fourcycle, 4)]:
            for vec in itertools.product(range(5), repeat=k):
                nonzero = [v for v in vec if v]
                expected = not nonzero or math.gcd(*nonzero) == 1
                assert is_thickness_function(G, tf(G, *vec)) == expected, vec


class TestEnumerateThickness:
    def test_twogon_bound_one(self):
        G = twogon()
        assert [M.vector() for M in enumerate_thickness(G, 1)] == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_threecycle_bound_one(self):
        G = threecycle()
        vectors = [M.vector() for M in enumerate_thickness(G, 1)]
        assert vectors == sorted(itertools.product(range(2), repeat=3))

    def test_theta_bound_one(self):
        G = theta()
        vectors = {M.vector() for M in enumerate_thickness(G, 1)}
        expected = {(0, 0, 0), (1, 1, 1)}
        expected |= set(itertools.permutations((0, 1, 1)))
        expected |= set(itertools.permutations((0, 0, 1)))
        assert vectors == expected

    def test_equals_brute_filter(self):
        for name, bound in [
            ("twogon", 4),
            ("threecycle", 3),
            ("theta", 3),
            ("mixed6", 2),
            ("wheel", 1),
        ]:
            G = load_graph(FIXTURES / f"{name}.graph")
            assert enumerate_thickness(G, bound) == brute_thickness(G, bound), name

    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs(max_edges=5, max_exp=2))
    def test_random_graphs_equal_brute_filter(self, G):
        for bound in (1, 2):
            assert enumerate_thickness(G, bound) == brute_thickness(G, bound)

    @settings(max_examples=30, deadline=None)
    @given(chained_blocks(max_edges=9))
    def test_chained_blocks_equal_brute_filter(self, G):
        for bound in (0, 1):
            assert enumerate_thickness(G, bound) == brute_thickness(G, bound)

    # The oracle contracts every one of the 3^|E| candidates afresh (1.2 s at
    # nine edges), so bound 2 is drawn on smaller chains; nine edges at
    # bound 2 are covered by the chain of three 3-cycles below.
    @settings(max_examples=30, deadline=None)
    @given(chained_blocks(max_edges=7))
    def test_chained_blocks_bound_two_equal_brute_filter(self, G):
        assert enumerate_thickness(G, 2) == brute_thickness(G, 2)

    def test_edgeless_graph(self):
        G = LabelledGraph.build(GeneratorSet(("x",)), ["v1", "v2"], [])
        for bound in (0, 1, 2):
            assert enumerate_thickness(G, bound) == [ThicknessFunction(())]
            assert enumerate_thickness(G, bound) == brute_thickness(G, bound)

    def test_loops_and_bridges_only(self):
        # Every class is one edge, where the values 0 and 1 are valid.
        x, y = mono(x=1), mono(y=1)
        G = LabelledGraph.build(
            GeneratorSet(("x", "y")),
            ["v1", "v2", "v3"],
            [
                ("e3", "v1", "v2", x),
                ("e1", "v2", "v2", y),
                ("e4", "v2", "v3", mono()),
                ("e2", "v1", "v1", x),
            ],
        )
        for bound in (0, 1, 2):
            found = enumerate_thickness(G, bound)
            assert found == brute_thickness(G, bound)
        assert [M.vector() for M in found] == list(itertools.product(range(2), repeat=4))

    def test_checks_each_block_once(self, monkeypatch):
        # At bound 2 that is 3 * 3^3 checks, not 3^9.
        x = mono(x=1)
        G = chained_threecycles()
        assert circuit_partition(G) == tuple(
            frozenset({f"e{j}", f"e{j + 3}", f"e{j + 6}"}) for j in range(3)
        )
        calls = []
        check = atlas_module.is_thickness_function

        def counted(H, M):
            calls.append(M)
            return check(H, M)

        monkeypatch.setattr(atlas_module, "is_thickness_function", counted)
        found = enumerate_thickness(G, 2)
        assert len(calls) == 3 * 27
        per_block = len(enumerate_thickness(threecycle(x, x, x), 2))
        assert len(found) == per_block**3
        assert found == brute_thickness(G, 2)


class TestBezout:
    def test_pinned_values(self):
        assert bezout([2, 3]) == [-1, 1]
        assert bezout([1]) == [1]
        assert bezout([1, 1]) == [1, 0]
        coeffs = bezout([6, 10, 15])
        assert sum(c * m for c, m in zip(coeffs, [6, 10, 15])) == 1
        assert coeffs == [-14, 7, 1]

    def test_identity_holds_generally(self):
        rng = random.Random(3)
        for _ in range(200):
            ms = [rng.randint(1, 40) for _ in range(rng.randint(1, 5))]
            if math.gcd(*ms) != 1:
                continue
            coeffs = bezout(ms)
            assert sum(c * m for c, m in zip(coeffs, ms)) == 1
            assert math.gcd(*coeffs) == 1

    def test_rejects_gcd_not_one(self):
        with pytest.raises(ValueError):
            bezout([2, 4])
        with pytest.raises(ValueError):
            bezout([])
        with pytest.raises(ValueError):
            bezout([0, 1])


class TestChart:
    def test_twogon_full_chart(self):
        G = twogon()
        c = chart(G, tf(G, 1, 1))
        assert c.inverted == ()
        (cls,) = c.classes
        assert cls.aligning_var == "a_e1"
        assert [(r.edge, r.multiplicity, r.coefficient) for r in cls.rows] == [
            ("e1", 1, 1),
            ("e2", 1, 0),
        ]
        # One binomial per row, label = a_e1^multiplicity * unit_var, and
        # the class's torus relation 1 = u_e1^1 * u_e2^0.
        assert cls.edges == ("e1", "e2")
        assert [(r.edge, str(r.label), r.unit_var) for r in cls.rows] == [
            ("e1", "x", "u_e1"),
            ("e2", "y", "u_e2"),
        ]

    def test_twogon_partial_chart_inverts_dropped_label(self):
        G = twogon()
        c = chart(G, tf(G, 1, 0))
        (cls,) = c.classes
        assert cls.edges == ("e1",)
        assert [str(m) for m in c.inverted] == ["y"]

    def test_zero_chart_inverts_everything(self):
        G = twogon()
        c = chart(G, tf(G, 0, 0))
        assert c.classes == ()
        assert [str(m) for m in c.inverted] == ["x", "y"]

    def test_invalid_thickness_rejected(self):
        G = twogon()
        with pytest.raises(ValueError):
            chart(G, tf(G, 2, 4))


class TestSubstitution:
    def test_examples(self):
        G2, G3, Gt = twogon(), threecycle(), theta()
        assert verify_chart_substitution(chart(G2, tf(G2, 1, 1)))
        assert verify_chart_substitution(chart(G3, tf(G3, 1, 2, 3)))
        assert verify_chart_substitution(chart(Gt, tf(Gt, 0, 1, 1)))

    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs(max_edges=5, max_exp=2))
    def test_every_chart_verifies(self, G):
        for M in enumerate_thickness(G, 2):
            assert verify_chart_substitution(chart(G, M))


class TestOverlap:
    def test_twogon_disagreement(self):
        G = twogon()
        delta, _ = overlap(G, tf(G, 1, 1), tf(G, 1, 2))
        assert delta == frozenset({"e1", "e2"})

    def test_equal_functions(self):
        G = twogon()
        M = tf(G, 1, 1)
        delta, oc = overlap(G, M, M)
        assert delta == frozenset()
        assert oc == chart(G, M)

    def test_theta_contracted_side(self):
        G = theta()
        delta, _ = overlap(G, tf(G, 0, 1, 1), tf(G, 1, 1, 1))
        assert delta == frozenset({"e1", "e2", "e3"})

    def test_symmetry(self):
        G = theta()
        ms = enumerate_thickness(G, 2)
        for M, N in itertools.combinations(ms, 2):
            assert overlap_edges(G, M, N) == overlap_edges(G, N, M)


class TestBuildAtlas:
    def test_twogon_counts(self):
        atlas = build_atlas(twogon(), 1)
        assert len(atlas.charts) == 4
        assert len(atlas.overlaps) == 6

    def test_bound_zero(self):
        atlas = build_atlas(theta(), 0)
        assert [M.vector() for M in atlas.charts] == [(0, 0, 0)]

    def test_theta_chart_count_matches_enumeration(self):
        atlas = build_atlas(theta(), 1)
        assert len(atlas.charts) == len(enumerate_thickness(theta(), 1))
        for M, c in atlas.charts.items():
            assert verify_chart_substitution(c)
        for (M, N), edges in atlas.overlaps.items():
            assert edges == overlap_edges(theta(), N, M)
            assert verify_chart_substitution(atlas.charts[M].inverting(edges))

    def test_overlap_accessor_is_symmetric(self):
        # One overlap per unordered pair of distinct charts, keyed in chart
        # order, with the same inverted edges read from either side.
        G = twogon()
        atlas = build_atlas(G, 1)
        ms = list(atlas.charts)
        assert list(atlas.overlaps) == list(itertools.combinations(ms, 2))
        for (M, N), edges in atlas.overlaps.items():
            assert edges == overlap_edges(G, M, N) == overlap_edges(G, N, M)

    def test_equal_overlap_sets_are_one_object(self):
        # 256 charts give 32,640 overlaps but only 255 distinct edge sets.
        atlas = build_atlas(load_graph(FIXTURES / "wheel.graph"), 1)
        sets = atlas.overlaps.values()
        assert len({id(s) for s in sets}) == len(set(sets)) == 255

    def test_each_function_checked_once(self, monkeypatch):
        # Four functions, each checked by is_thickness_function while it is
        # enumerated and by chart; the six pairs add no check.
        calls = []
        original = atlas_module._check_total

        def counted(G, M):
            calls.append(M)
            return original(G, M)

        monkeypatch.setattr(atlas_module, "_check_total", counted)
        atlas = build_atlas(twogon(), 1)
        assert len(atlas.overlaps) == 6
        assert len(calls) == 8

    @settings(max_examples=30, deadline=None)
    @given(labelled_graphs(max_edges=4, max_exp=2))
    def test_random_atlases_verify_throughout(self, G):
        atlas = build_atlas(G, 1)
        for c in atlas.charts.values():
            assert verify_chart_substitution(c)
        for (M, _), edges in atlas.overlaps.items():
            assert verify_chart_substitution(atlas.charts[M].inverting(edges))


def _assert_atlas_equals_per_pair(G, bound):
    """build_atlas against the slow path of the oracles, pair by pair: every
    call contracts and partitions afresh, with no zero-pattern cache.

    Each chart is built on a fresh copy of G, whose cache holds only that
    function's zero pattern, and must have the slow path's classes.
    """
    atlas = build_atlas(G, bound)
    ms = brute_thickness(G, bound)
    charts = {M: chart(replace(G), M) for M in ms}
    for M, c in charts.items():
        slow = sorted(tuple(sorted(cls)) for cls in contracted_classes(G, M))
        assert [cls.edges for cls in c.classes] == slow
    assert list(atlas.charts) == ms
    assert atlas.charts == charts
    assert list(atlas.overlaps) == list(itertools.combinations(ms, 2))
    labels = G.labels()
    for (M, N), edges in atlas.overlaps.items():
        delta = brute_overlap_edges(M, N, contracted_classes(G, M), contracted_classes(G, N))
        assert edges == delta
        assert overlap_edges(G, M, N) == delta
        inverted = list(charts[M].inverted)
        for e in sorted(delta):
            if labels[e] not in inverted:
                inverted.append(labels[e])
        assert atlas.charts[M].inverting(edges) == replace(charts[M], inverted=tuple(inverted))
    # overlap() builds chart(M) on each call, so only a prefix of the pairs.
    for (M, N), edges in itertools.islice(atlas.overlaps.items(), 500):
        assert overlap(G, M, N) == (edges, atlas.charts[M].inverting(edges))


class TestAtlasEqualsPerPairConstruction:
    @pytest.mark.parametrize("bound", [1, 2])
    @pytest.mark.parametrize("name", ["twogon", "threecycle", "theta", "mixed6"])
    def test_fixtures(self, name, bound):
        _assert_atlas_equals_per_pair(load_graph(FIXTURES / f"{name}.graph"), bound)

    @settings(max_examples=30, deadline=None)
    @given(labelled_graphs(max_edges=4, max_exp=2))
    def test_random_graphs(self, G):
        _assert_atlas_equals_per_pair(G, 1)


class TestClosedFibre:
    def test_twogon_full_chart_fibre(self):
        G = twogon()
        fr = closed_fibre(chart(G, tf(G, 1, 1)), {"x", "y"})
        assert (fr.nonempty, fr.connected, fr.torus_rank) == (True, True, 1)

    def test_inverted_label_kills_fibre(self):
        G = twogon()
        fr = closed_fibre(chart(G, tf(G, 1, 0)), {"x", "y"})
        assert not fr.nonempty

    def test_generic_point_fibre(self):
        G = twogon()
        for vec in [(1, 1), (1, 0), (0, 0), (2, 3)]:
            fr = closed_fibre(chart(G, tf(G, *vec)), set())
            assert fr.nonempty
            assert fr.torus_rank == 0

    def test_mixed_class_kills_fibre(self):
        G = twogon()
        fr = closed_fibre(chart(G, tf(G, 1, 1)), {"x"})
        assert not fr.nonempty

    def test_non_nc_chart_rejected(self):
        G = twogon(mono(x=2), mono(x=1))
        c = chart(G, tf(G, 2, 1))
        with pytest.raises(ValueError):
            closed_fibre(c, {"x"})

    def test_unknown_generator_rejected(self):
        G = twogon()
        with pytest.raises(ValueError):
            closed_fibre(chart(G, tf(G, 1, 1)), {"w"})


class TestTraitFactorisation:
    def test_gcd_normalisation(self):
        G = twogon()
        fact = trait_factorisation(G, Valuation.from_dict({"x": 4, "y": 6}))
        assert fact.canonical.vector() == (2, 3)
        assert fact.class_scales == ((("e1", "e2"), 2),)
        assert fact.canonical in fact.all_valid

    def test_partial_vanishing(self):
        G = twogon()
        fact = trait_factorisation(G, Valuation.from_dict({"x": 1, "y": 0}))
        assert fact.canonical.vector() == (1, 0)

    def test_theta_unit_scale(self):
        G = theta()
        fact = trait_factorisation(G, Valuation.from_dict({"x": 1, "y": 1, "z": 1}))
        assert fact.canonical.vector() == (1, 1, 1)
        assert fact.class_scales == ((("e1", "e2", "e3"), 1),)

    def test_all_valid_equals_brute_filter(self):
        rng = random.Random(11)
        for path in ["twogon.graph", "threecycle.graph", "theta.graph"]:
            G = load_graph(FIXTURES / path)
            for _ in range(25):
                v = Valuation.from_dict(
                    {g: rng.randint(0, 4) for g in G.generators.names}
                )
                fact = trait_factorisation(G, v)
                vals = {e.id: v.of(e.label) for e in G.edges}
                brute = []
                for M in enumerate_thickness(G, fact.bound):
                    ok = all(
                        vals[e] == 0 for e, m in M.values if m == 0
                    ) and _scales(G, M, vals)
                    if ok:
                        brute.append(M)
                assert list(fact.all_valid) == brute
                assert fact.canonical in fact.all_valid

    def test_separatedness_on_disagreements(self):
        rng = random.Random(12)
        G = load_graph(FIXTURES / "mixed6.graph")
        for _ in range(30):
            v = Valuation.from_dict({g: rng.randint(0, 3) for g in G.generators.names})
            fact = trait_factorisation(G, v)
            vals = {e.id: v.of(e.label) for e in G.edges}
            for M, N in itertools.combinations(fact.all_valid, 2):
                for e in overlap_edges(G, M, N):
                    assert vals[e] == 0
            assert brute_trait_separated(G, fact)

    def test_separatedness_fails_on_a_disagreement_of_valued_edges(self):
        G = twogon()
        v = Valuation.from_dict({"x": 1, "y": 1})
        M, N = tf(G, 1, 1), tf(G, 1, 2)
        assert not brute_trait_separated(G, TraitFactorisation(v, M, (), 2, (M, N)))
        assert brute_trait_separated(G, TraitFactorisation(v, M, (), 2, (M,)))

    def test_separatedness_fails_in_one_class_of_two(self):
        # The twogon e1, e2 and a loop e3 at v2: two circuit classes.  The
        # loop's label has valuation 0, so disagreeing there is harmless;
        # disagreeing on the valued twogon is not.
        G = LabelledGraph.build(
            GENS3,
            ["v1", "v2"],
            [
                ("e1", "v1", "v2", mono(x=1)),
                ("e2", "v1", "v2", mono(y=1)),
                ("e3", "v2", "v2", mono(z=1)),
            ],
        )
        v = Valuation.from_dict({"x": 1, "y": 1, "z": 0})
        M, N, P = tf(G, 1, 1, 0), tf(G, 1, 1, 1), tf(G, 1, 2, 1)
        cases = [((M, N), True), ((M, P), False), ((N, P), False), ((M, N, P), False)]
        for functions, separated in cases:
            fact = TraitFactorisation(v, M, (), 2, functions)
            assert brute_trait_separated(G, fact) is separated

    @settings(max_examples=80, deadline=None)
    @given(trait_graphs, valuations, st.sampled_from([None, 0, 1, 2]))
    def test_factorisation_equals_whole_product(self, G, v, bound):
        # Equal canonical function, class scales, bound and all_valid.
        assert trait_factorisation(G, v, bound) == brute_trait(G, v, bound)

    @settings(max_examples=80, deadline=None)
    @given(
        trait_graphs,
        st.fixed_dictionaries({"x": st.integers(0, 12), "y": st.integers(0, 12)}).map(
            Valuation.from_dict
        ),
        st.sampled_from([None, 0, 1, 2]),
    )
    def test_members_equal_canonical_on_valued_edges(self, G, v, bound):
        # The valued-edge lemma and its corollary, separatedness, which the
        # trait command prints without comparing any pair: checked here over
        # every pair of whole functions.
        fact = trait_factorisation(G, v, bound)
        valued = [i for i, e in enumerate(G.edges) if v.of(e.label)]
        canonical = fact.canonical.vector()
        for M in fact.all_valid:
            assert [M.vector()[i] for i in valued] == [canonical[i] for i in valued]
        assert brute_trait_separated(G, fact)

    def test_valued_edges_are_not_searched(self, monkeypatch):
        # Both edges of the twogon are valued, so the one candidate is the
        # canonical function (1, 1), not the 6 x 6 divisor pairs of 12.
        calls = {"_classes": 0, "_is_valid": 0}
        for name in calls:
            original = getattr(atlas_module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(atlas_module, name, counted)
        fact = trait_factorisation(twogon(), Valuation.from_dict({"x": 12, "y": 12}), 12)
        assert [M.vector() for M in fact.all_valid] == [(1, 1)]
        assert calls == {"_classes": 3, "_is_valid": 1}

    def test_separatedness_on_subsets_reaches_both_verdicts(self):
        # A random subset of the bound-1 functions need not be a product of
        # per-class sets, nor separated.
        rng = random.Random(5)
        verdicts = set()
        for _ in range(300):
            v = Valuation.from_dict({"x": rng.randint(0, 2), "y": rng.randint(0, 2)})
            G = random_graph(rng, max_edges=7)
            ms = enumerate_thickness(G, 1)
            chosen = tuple(rng.sample(ms, rng.randint(1, min(len(ms), 12))))
            fact = TraitFactorisation(v, chosen[0], (), 1, chosen)
            verdicts.add(brute_trait_separated(G, fact))
        assert verdicts == {True, False}

    def test_trait_command_compares_no_pairs(self, tmp_path, capsys, monkeypatch):
        # Valuation 0 keeps every bound-1 function: 8 per cycle, 8^3 in all,
        # and the verdict covers their C(512, 2) pairs without an overlap.
        path = tmp_path / "chained.graph"
        path.write_text(serialize_graph(chained_threecycles()))
        calls = []
        pairs = atlas_module._overlap_positions

        def counted(H, a, b):
            calls.append((a, b))
            return pairs(H, a, b)

        monkeypatch.setattr(atlas_module, "_overlap_positions", counted)
        assert run(["trait", str(path), "--valuation", "x=0", "--max", "1"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(f"separatedness: ok ({math.comb(512, 2)} pairs checked)\n")
        assert calls == []


def _scales(G, M, vals):
    values = dict(M.values)
    for cls in contracted_classes(G, M):
        ts = set()
        for e in cls:
            if vals[e] % values[e]:
                return False
            ts.add(vals[e] // values[e])
        if len(ts) > 1:
            return False
    return True
