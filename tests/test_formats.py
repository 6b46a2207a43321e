import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from graphalign import (
    GeneratorSet,
    LabelledGraph,
    Monomial,
    Valuation,
    build_atlas,
    check_alignment,
    resolve,
    stratify,
    strong_alignment_level,
)
from graphalign.atlas import Atlas, ThicknessFunction, chart
from graphalign.formats import (
    GraphFormatError,
    alignment_report_json,
    graph_to_dot,
    load_graph,
    parse_graph,
    render_relations,
    serialize_graph,
    strata_poset_dot,
    write_atlas,
    write_strata,
    write_trace,
)
from graphalign.cli import run

from conftest import FIXTURES
from oracles import (
    analysis_json,
    atlas_files_oracle,
    graph_to_obj,
    serialize_chart,
    strata_files_oracle,
    trace_files_oracle,
)
from strategies import labelled_graphs, mono, twogon


ALL_FIXTURES = [
    "twogon.graph",
    "threecycle.graph",
    "theta.graph",
    "mixed6.graph",
    "wheel.graph",
]


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_parse_serialize_round_trip(self, name):
        text = (FIXTURES / name).read_text()
        G = parse_graph(text, source=name)
        canonical = serialize_graph(G)
        assert canonical == json.dumps(graph_to_obj(G), indent=2) + "\n"
        assert parse_graph(canonical) == G
        assert serialize_graph(parse_graph(canonical)) == canonical

    def test_serialize_is_canonical_json(self):
        G = twogon()
        obj = json.loads(serialize_graph(G))
        assert list(obj) == ["generators", "nc", "vertices", "edges"]

    def test_unit_label_round_trips_as_empty_map(self):
        G = twogon(mono(x=1), Monomial.unit())
        obj = json.loads(serialize_graph(G))
        assert obj["edges"][1]["label"] == {}
        assert parse_graph(serialize_graph(G)) == G

    @settings(max_examples=150)
    @given(labelled_graphs(max_edges=6, gens=("x", "y", "z"), max_exp=4))
    def test_round_trip_on_arbitrary_graphs(self, G):
        assert parse_graph(serialize_graph(G)) == G


# Names that json.dumps escapes: non-ASCII, a quote, a backslash and U+2028.
NAMES = st.sampled_from(["\u00e9", 'a"b', "\\", "\u2028", "x", "v1"]) | st.text(max_size=3)


@st.composite
def named_graphs(draw, max_edges=6, nc_labels=False):
    """Graphs named from NAMES; with ``nc_labels`` the base is NC and the
    labels are distinct single generators, as ``stratify`` needs (so their
    names are non-empty and free of ',')."""
    names = NAMES.filter(lambda g: g and "," not in g) if nc_labels else NAMES
    gens = draw(st.lists(names, unique=True, max_size=3))
    vertices = draw(st.lists(NAMES, unique=True, max_size=4))
    if nc_labels:
        max_edges = len(gens)
        nc_gens = draw(st.permutations(gens))
    ids = draw(st.lists(NAMES, unique=True, max_size=max_edges)) if vertices else []
    edges = []
    for i, eid in enumerate(ids):
        ends = draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=2))
        if nc_labels:
            exps = {nc_gens[i]: 1}
        elif not gens:
            exps = {}
        else:
            exps = draw(st.dictionaries(st.sampled_from(gens), st.integers(1, 4)))
        edges.append((eid, *ends, Monomial.from_dict(exps)))
    nc = nc_labels or draw(st.booleans())
    return LabelledGraph.build(GeneratorSet(tuple(gens), nc), vertices, edges)


ESCAPES = LabelledGraph.build(
    GeneratorSet(("\u00e9", 'a"b', "\\", "\u2028"), nc=True),
    ["\u00e9", "\u2028", "\\"],
    [
        ('a"b', "\u2028", "\u00e9", Monomial.from_dict({"\u00e9": 2, 'a"b': 1})),
        ("\\", "\\", "\\", Monomial.unit()),
        ("\u2028", "\u00e9", "\\", Monomial.from_dict({"\u00e9": 2, 'a"b': 1})),
    ],
)


class TestWriterOracle:
    """serialize_graph against json.dumps, the encoder it replaces."""

    @settings(max_examples=200)
    @given(named_graphs())
    @example(ESCAPES)
    @example(LabelledGraph.build(GeneratorSet(()), [], []))
    @example(LabelledGraph.build(GeneratorSet(()), ["v"], [("e", "v", "v", Monomial.unit())]))
    @example(LabelledGraph.build(GeneratorSet(("x",)), ["v"], []))
    def test_serialize_equals_json_dumps(self, G):
        text = serialize_graph(G)
        assert text == json.dumps(graph_to_obj(G), indent=2) + "\n"
        assert parse_graph(text) == G

    @settings(max_examples=200)
    @given(named_graphs())
    @example(ESCAPES)
    @example(LabelledGraph.build(GeneratorSet(()), [], []))
    def test_analysis_json_equals_json_dumps(self, G):
        report, level = check_alignment(G), strong_alignment_level(G)
        assert alignment_report_json(report, level) == analysis_json(report, level)


class TestLabelInterning:
    def test_equal_labels_share_one_monomial(self):
        labels = [{"x": 1, "y": 2}, {"y": 2, "x": 1}, {"x": 3}, {}, {"x": 1, "y": 2}, {}]
        text = json.dumps(
            {
                "generators": ["x", "y"],
                "nc": False,
                "vertices": ["a"],
                "edges": [
                    {"id": f"e{i}", "ends": ["a", "a"], "label": label}
                    for i, label in enumerate(labels)
                ],
            }
        )
        e0, e1, e2, e3, e4, e5 = parse_graph(text).edges
        assert e0.label is e1.label is e4.label
        assert e3.label is e5.label
        assert e2.label is not e0.label
        assert [e.label for e in (e0, e2, e3)] == [mono(x=1, y=2), mono(x=3), Monomial.unit()]

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([{"q": 1}, {"q": 1}], "edge 'e0' label uses unknown generator 'q'"),
            ([{"x": 1}, {"q": 1}, {"q": 1}], "edge 'e1' label uses unknown generator 'q'"),
            ([{"x": 1}, {"x": 1, "r": 2, "q": 1}], "edge 'e1' label uses unknown generator 'q'"),
        ],
        ids=["shared-bad-label", "good-then-shared-bad", "least-unknown-named"],
    )
    def test_unknown_generator_named_at_first_offending_edge(self, labels, message):
        text = json.dumps(
            {
                "generators": ["x"],
                "nc": False,
                "vertices": ["a"],
                "edges": [
                    {"id": f"e{i}", "ends": ["a", "a"], "label": label}
                    for i, label in enumerate(labels)
                ],
            }
        )
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text, source="g")
        assert str(err.value) == f"g: {message}"


class TestParseErrors:
    def test_malformed_json_reports_position(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("{\n  broken\n}", source="bad.graph")
        assert "bad.graph:2:" in str(err.value)

    def test_unknown_generator(self):
        text = json.dumps(
            {
                "generators": ["x"],
                "nc": False,
                "vertices": ["a"],
                "edges": [{"id": "e", "ends": ["a", "a"], "label": {"q": 1}}],
            }
        )
        with pytest.raises(GraphFormatError, match="unknown generator"):
            parse_graph(text)

    def test_duplicate_edge_id(self):
        text = json.dumps(
            {
                "generators": ["x"],
                "nc": False,
                "vertices": ["a"],
                "edges": [
                    {"id": "e", "ends": ["a", "a"], "label": {"x": 1}},
                    {"id": "e", "ends": ["a", "a"], "label": {"x": 2}},
                ],
            }
        )
        with pytest.raises(GraphFormatError, match="duplicate edge ids"):
            parse_graph(text)

    def test_unknown_vertex(self):
        text = json.dumps(
            {
                "generators": ["x"],
                "nc": False,
                "vertices": ["a"],
                "edges": [{"id": "e", "ends": ["a", "b"], "label": {"x": 1}}],
            }
        )
        with pytest.raises(GraphFormatError, match="unknown vertex"):
            parse_graph(text)

    def test_missing_field(self):
        with pytest.raises(GraphFormatError, match="missing field"):
            parse_graph('{"generators": [], "nc": false, "vertices": []}')

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([["e", "a", "b"]], "edges[0]: must be an object"),
            ([{}], "edges[0]: missing field 'id'"),
            ([{"label": {}, "ends": ["a", "b"]}], "edges[0]: missing field 'id'"),
            ([{"id": "e"}], "edges[0]: missing field 'ends'"),
            ([{"id": "e", "label": {}}], "edges[0]: missing field 'ends'"),
            ([{"id": "e", "ends": ["a", "b"]}], "edges[0]: missing field 'label'"),
            ([{"id": 7, "ends": ["a"], "label": 1}], "edges[0]: ends must be a pair of vertex ids"),
            ([{"id": 7, "ends": "ab", "label": {}}], "edges[0]: ends must be a pair of vertex ids"),
            ([{"id": 7, "ends": ["a", "b", "a"], "label": {}}], "edges[0]: ends must be a pair of vertex ids"),
            ([{"id": 7, "ends": ["a", 2], "label": {}}], "edges[0]: ends must be a pair of vertex ids"),
            ([{"id": 7, "ends": ["a", "b"], "label": [1]}], "edges[0]: id must be a string, got 7"),
            ([{"id": "e", "ends": ["a", "b"], "label": [1]}], "edges[0]: label must be an object, got [1]"),
            ([{"id": "e", "ends": ["a", "b"], "label": None}], "edges[0]: label must be an object, got None"),
            (
                [{"id": "e", "ends": ["a", "b"], "label": {"x": 1, "y": 0}}],
                "edges[0]: exponent of 'y' must be an integer >= 1, got 0",
            ),
            (
                [{"id": "e", "ends": ["a", "b"], "label": {"x": -1, "y": 1.5}}],
                "edges[0]: exponent of 'x' must be an integer >= 1, got -1",
            ),
            (
                [
                    {"id": "e", "ends": ["a", "b"], "label": {"x": 1}},
                    {"id": 7, "ends": ["a", "b"], "label": {"x": 1}},
                    "f",
                    {"id": "g", "ends": ["a", "b"], "label": {"x": 0}},
                ],
                "edges[1]: id must be a string, got 7",
            ),
            (
                [
                    {"id": "e", "ends": ["a", "b"], "label": {"x": 1}},
                    {"id": "f", "ends": ["a", "b"], "label": {"x": True}},
                    {"id": "g"},
                ],
                "edges[1]: exponent of 'x' must be an integer >= 1, got True",
            ),
            (
                [{"id": "e", "ends": ["a", "q"], "label": {"q": 1}}, {"id": "f"}],
                "edges[1]: missing field 'ends'",
            ),
        ],
        ids=[
            "not-an-object",
            "missing-all",
            "missing-id",
            "missing-ends-and-label",
            "missing-ends",
            "missing-label",
            "short-ends-before-bad-id",
            "string-ends-before-bad-id",
            "long-ends-before-bad-id",
            "non-string-end-before-bad-id",
            "bad-id-before-bad-label",
            "list-label",
            "null-label",
            "zero-exponent",
            "first-bad-exponent",
            "first-offending-edge",
            "first-offending-edge-after-equal-label",
            "edge-checks-before-graph-checks",
        ],
    )
    def test_edge_error_messages_and_precedence(self, edges, message):
        text = json.dumps(
            {"generators": ["x", "y"], "nc": False, "vertices": ["a", "b"], "edges": edges}
        )
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text, source="g")
        assert str(err.value) == f"g: {message}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(tmp_path / "nope.graph")

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([{"id": "e", "label": {"x": 1.7}}], "exponent of 'x' must be an integer"),
            ([{"id": "e", "label": {"x": True}}], "exponent of 'x' must be an integer"),
            ([{"id": "e", "label": {"x": "2"}}], "exponent of 'x' must be an integer"),
            ([{"id": 7, "label": {"x": 1}}], "id must be a string"),
            # True and 1.0 compare equal to the valid 1 before them, so a
            # label memo keyed before validation would let them through.
            (
                [{"id": "e", "label": {"x": 1}}, {"id": "f", "label": {"x": True}}],
                r"edges\[1\]: exponent of 'x' must be an integer",
            ),
            (
                [{"id": "e", "label": {"x": 1}}, {"id": "f", "label": {"x": 1.0}}],
                r"edges\[1\]: exponent of 'x' must be an integer",
            ),
        ],
        ids=[
            "float-exponent",
            "bool-exponent",
            "string-exponent",
            "integer-id",
            "bool-after-equal-int",
            "float-after-equal-int",
        ],
    )
    def test_strict_exponents_and_ids(self, tmp_path, edges, message):
        text = json.dumps(
            {
                "generators": ["x"],
                "nc": False,
                "vertices": ["a", "b"],
                "edges": [{"ends": ["a", "b"], **edge} for edge in edges],
            }
        )
        with pytest.raises(GraphFormatError, match=message):
            parse_graph(text)
        path = tmp_path / "bad.graph"
        path.write_text(text)
        assert run(["analyze", str(path)]) == 1


class TestDot:
    def test_edge_labels_rendered(self):
        dot = graph_to_dot(twogon(mono(x=2), mono(y=1)))
        assert '"v1" -- "v2"' in dot
        assert "e1: x^2" in dot

    def test_strata_poset(self):
        fam = stratify(twogon(nc=True))
        dot = strata_poset_dot(fam)
        assert '"{x,y}" -> "{x}"' in dot


class TestDirectoryWriters:
    def test_atlas_directory(self, tmp_path):
        atlas = build_atlas(twogon(), 1)
        out = tmp_path / "atlas"
        write_atlas(atlas, out, vanishing=["x", "y"])
        index = json.loads((out / "atlas.index").read_text())
        assert len(index["charts"]) == 4
        assert len(index["overlaps"]) == 6
        for entry in index["charts"]:
            assert (out / entry["file"]).exists()
            assert "fibre" in entry
        rendered = json.loads((out / index["charts"][3]["file"]).read_text())["rendered"]
        assert "x = a_e1^1 * u_e1" in rendered

    def test_negative_bezout_coefficient_rendered(self):
        G = twogon()
        c = chart(G, ThicknessFunction.from_vector(G, (2, 3)))
        assert render_relations(c) == [
            "x = a_e1^2 * u_e1",
            "y = a_e1^3 * u_e2",
            "1 = u_e1^-1 * u_e2^1",
        ]

    @pytest.mark.parametrize("name, bound", [("theta", 2), ("mixed6", 1)])
    def test_atlas_files_equal_unshared_serialisation(self, tmp_path, name, bound):
        atlas = build_atlas(load_graph(FIXTURES / f"{name}.graph"), bound)
        out = tmp_path / "atlas"
        write_atlas(atlas, out)
        index = json.loads((out / "atlas.index").read_text())
        expected = {}
        for entry, c in zip(index["charts"], atlas.charts.values()):
            expected[entry["file"]] = serialize_chart(c)
        for entry, ((M, _), edges) in zip(index["overlaps"], atlas.overlaps.items()):
            expected[entry["file"]] = serialize_chart(atlas.charts[M].inverting(edges))
        assert len(expected) == len(atlas.charts) + len(atlas.overlaps)
        written = {p.name for p in out.iterdir()} - {"atlas.index"}
        assert written == set(expected)
        for fname, text in expected.items():
            assert (out / fname).read_bytes() == text.encode(), fname

    def test_atlas_refuses_overwrite(self, tmp_path):
        atlas = build_atlas(twogon(), 0)
        out = tmp_path / "atlas"
        write_atlas(atlas, out)
        with pytest.raises(FileExistsError):
            write_atlas(atlas, out)
        # no stray temp directories left behind
        assert [p.name for p in tmp_path.iterdir()] == ["atlas"]

    def test_trace_directory(self, tmp_path):
        trace = resolve(
            twogon(mono(x=1), mono(x=3)), Valuation.from_dict({"x": 1, "y": 0})
        )
        out = tmp_path / "trace"
        write_trace(trace, out, dot=True)
        index = json.loads((out / "trace.index").read_text())
        assert len(index["steps"]) == len(trace.steps)
        assert (out / "step_00.graph").exists()
        assert (out / "step_01.dot").exists()

    def test_strata_directory(self, tmp_path):
        fam = stratify(twogon(nc=True))
        out = tmp_path / "strata"
        write_strata(fam, out)
        index = json.loads((out / "strata.index").read_text())
        assert [s["generators"] for s in index["strata"]] == [
            [],
            ["x"],
            ["y"],
            ["x", "y"],
        ]
        assert (out / "poset.dot").exists()


def written(out):
    return {p.name: p.read_text() for p in out.iterdir()}


def assert_same_files(out, expected):
    got = written(out)
    assert sorted(got) == sorted(expected)
    for name, text in expected.items():
        assert got[name] == text, name


U = Monomial.unit()

# A chart whose inverted labels include the unit, from a zero on e2.
UNIT_LABELS = LabelledGraph.build(
    GeneratorSet(("x", "y"), nc=True),
    ["a", "b", "c"],
    [("e1", "a", "b", mono(x=1)), ("e2", "a", "b", U), ("e3", "b", "c", mono(y=1)), ("e4", "c", "c", U)],
)
NO_EDGES = LabelledGraph.build(GeneratorSet(("x",), nc=True), ["v"], [])
EMPTY = LabelledGraph.build(GeneratorSet(()), [], [])

# Aligned, so it resolves: one class with primitive é, a unit loop, and
# ids that need escaping.
E = "\u00e9"
ESCAPED_RESOLVABLE = LabelledGraph.build(
    GeneratorSet((E, 'a"b', "\\", "\u2028"), nc=True),
    ["\\", "\u2028", E],
    [
        ('a"b', "\\", "\u2028", Monomial.from_dict({E: 3})),
        ("\\", "\u2028", E, Monomial.from_dict({E: 2})),
        ("\u2028", "\\", E, Monomial.from_dict({E: 1})),
        ("loop", E, E, U),
    ],
)

ESCAPED_NC = LabelledGraph.build(
    GeneratorSet((E, 'a"b', "\\", "\u2028"), nc=True),
    ["\\", "\u2028", E],
    [
        ('a"b', "\\", "\u2028", Monomial.generator(E)),
        ("\\", "\u2028", E, Monomial.generator("\\")),
        ("\u2028", "\\", E, Monomial.generator('a"b')),
    ],
)


class TestDirectoryOracle:
    """Every file of an atlas, trace or strata directory equals its old
    ``json.dumps`` text."""

    @pytest.mark.parametrize(
        "name, bound, vanishing",
        [
            ("twogon", 2, None),
            ("twogon", 2, ["y", "x"]),
            ("twogon", 1, []),
            ("threecycle", 2, ["x"]),
            ("theta", 2, None),
            ("theta", 1, ["x", "z"]),
            ("mixed6", 1, None),
            # At bound 1 wheel has 32,640 overlaps, too many for this suite.
            ("wheel", 0, None),
        ],
    )
    def test_atlas_fixtures(self, tmp_path, name, bound, vanishing):
        atlas = build_atlas(load_graph(FIXTURES / f"{name}.graph"), bound)
        write_atlas(atlas, tmp_path / "out", vanishing=vanishing)
        assert_same_files(tmp_path / "out", atlas_files_oracle(atlas, vanishing))

    @pytest.mark.parametrize(
        "G, vanishing",
        [
            (UNIT_LABELS, ["x"]),
            (NO_EDGES, []),
            (NO_EDGES, None),
            (EMPTY, None),
            (ESCAPED_RESOLVABLE, None),
            (ESCAPED_NC, ["\\", E]),
        ],
        ids=["unit-labels", "no-edges-vanishing", "no-edges", "empty", "escapes", "escapes-nc"],
    )
    def test_atlas_edge_cases(self, tmp_path, G, vanishing):
        atlas = build_atlas(G, 1)
        expected = atlas_files_oracle(atlas, vanishing)
        if G is UNIT_LABELS:
            assert '"inverted_labels": [\n    {}' in expected["chart_1-0-1-1.json"]
        write_atlas(atlas, tmp_path / "out", vanishing=vanishing)
        assert_same_files(tmp_path / "out", expected)

    def test_atlas_overlap_inverting_no_edge(self, tmp_path):
        full = build_atlas(twogon(), 1)
        M, N = next(iter(full.overlaps))
        atlas = Atlas(full.graph, 1, full.charts, {(M, N): frozenset()})
        expected = atlas_files_oracle(atlas)
        assert '"inverted_edges": []' in expected["atlas.index"]
        write_atlas(atlas, tmp_path / "out")
        assert_same_files(tmp_path / "out", expected)

    @settings(max_examples=60, deadline=None)
    @given(named_graphs(max_edges=4), st.integers(0, 1))
    @example(ESCAPES, 1)
    def test_atlas_named_graphs(self, G, bound):
        try:
            atlas = build_atlas(G, bound)
        except ValueError:
            assume(False)  # a chart variable collides with a generator name
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            write_atlas(atlas, out)
            assert_same_files(out, atlas_files_oracle(atlas))

    @pytest.mark.parametrize(
        "G, valuation",
        [
            (twogon(mono(x=1), mono(x=3)), {"x": 1, "y": 0}),
            (ESCAPED_RESOLVABLE, {E: 1, 'a"b': 0, "\\": 0, "\u2028": 0}),
            (LabelledGraph.build(GeneratorSet(()), ["v"], [("e", "v", "v", U)]), {}),
            (NO_EDGES, {}),
        ],
        ids=["twogon", "escapes-and-delete-unit", "empty-valuation", "no-edges"],
    )
    @pytest.mark.parametrize("dot", [False, True])
    def test_trace(self, tmp_path, G, valuation, dot):
        trace = resolve(G, Valuation.from_dict(valuation))
        expected = trace_files_oracle(trace, dot)
        if G is ESCAPED_RESOLVABLE:
            assert '"rule": "delete-unit",\n          "produced": []' in expected["trace.index"]
        write_trace(trace, tmp_path / "out", dot=dot)
        assert_same_files(tmp_path / "out", expected)

    @pytest.mark.parametrize("name", ["twogon", "threecycle", "theta"])
    def test_strata_fixtures(self, tmp_path, name):
        fam = stratify(load_graph(FIXTURES / f"{name}.graph"))
        write_strata(fam, tmp_path / "out")
        assert_same_files(tmp_path / "out", strata_files_oracle(fam))

    def test_strata_cover_order_on_ten_generators(self, tmp_path):
        # As strings x10 sorts before x2, so the covers' order must follow
        # the sorted generator names, not their numbers.
        gens = tuple(f"x{i}" for i in range(1, 11))
        G = LabelledGraph.build(
            GeneratorSet(gens, nc=True),
            [f"v{i}" for i in range(10)],
            [(f"e{i}", f"v{i}", f"v{(i + 1) % 10}", Monomial.generator(g))
             for i, g in enumerate(gens)],
        )
        fam = stratify(G)
        assert len(fam.strata) == 1024
        expected = strata_files_oracle(fam)
        assert strata_poset_dot(fam) == expected["poset.dot"]
        write_strata(fam, tmp_path / "out")
        assert_same_files(tmp_path / "out", expected)

    @settings(max_examples=40, deadline=None)
    @given(named_graphs(nc_labels=True))
    @example(NO_EDGES)
    @example(ESCAPED_NC)
    def test_strata_named_graphs(self, G):
        fam = stratify(G)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            write_strata(fam, out)
            assert_same_files(out, strata_files_oracle(fam))
