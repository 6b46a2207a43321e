import gc
import json
from collections import Counter
from pathlib import Path

import pytest

from graphalign import (
    GeneratorSet,
    LabelledGraph,
    Monomial,
    alignment,
    atlas,
    check_alignment,
    formats,
    graph,
    resolution,
    strata,
    strong_alignment_level,
)
from graphalign.cli import build_parser, run

from conftest import FIXTURES
from oracles import analysis_json

TWOGON = str(FIXTURES / "twogon.graph")
THETA = str(FIXTURES / "theta.graph")
THREECYCLE = str(FIXTURES / "threecycle.graph")
GOLDEN = Path(__file__).parent / "golden" / "strata_threecycle"


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestAnalyze:
    def test_twogon_not_aligned(self, capsys):
        assert run(["analyze", TWOGON]) == 0
        out, _ = out_of(capsys)
        assert "aligned: false" in out
        assert "strong alignment level: none" in out

    def test_json_format(self, capsys):
        assert run(["analyze", TWOGON, "--format", "json"]) == 0
        out, _ = out_of(capsys)
        obj = json.loads(out)
        assert obj["aligned"] is False
        assert obj["irregularly_aligned"] is False

    def test_dot_format(self, capsys):
        assert run(["analyze", TWOGON, "--format", "dot"]) == 0
        out, _ = out_of(capsys)
        assert out.startswith('graph "G"')

    @pytest.mark.parametrize("name", ["mixed6", "theta", "threecycle", "twogon", "wheel"])
    def test_json_equals_json_dumps(self, capsys, name):
        path = FIXTURES / f"{name}.graph"
        assert run(["analyze", str(path), "--format", "json"]) == 0
        out, _ = out_of(capsys)
        G = formats.load_graph(path)
        assert out == analysis_json(check_alignment(G), strong_alignment_level(G))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["mixed6", "theta", "threecycle", "twogon", "wheel"])
    def test_one_block_search_per_graph(self, capsys, monkeypatch, name, fmt):
        # The report and the strong level share the partition kept on the graph.
        searches = []
        blocks = graph._blocks

        def counting(*args):
            searches.append(args)
            return blocks(*args)

        monkeypatch.setattr(graph, "_blocks", counting)
        assert run(["analyze", str(FIXTURES / f"{name}.graph"), "--format", fmt]) == 0
        out_of(capsys)
        assert len(searches) == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["mixed6", "theta", "threecycle", "twogon", "wheel"])
    def test_one_partition_call_per_graph(self, capsys, monkeypatch, name, fmt):
        # The strong level reads the report kept on the graph, so it asks
        # for no partition of its own.
        calls = []
        partition = graph.circuit_partition

        def counting(G):
            calls.append(G)
            return partition(G)

        monkeypatch.setattr(graph, "circuit_partition", counting)
        monkeypatch.setattr(alignment, "circuit_partition", counting)
        assert run(["analyze", str(FIXTURES / f"{name}.graph"), "--format", fmt]) == 0
        out_of(capsys)
        assert len(calls) == 1


class TestThickness:
    def test_enumerate(self, capsys):
        assert run(["thickness", TWOGON, "--max", "1"]) == 0
        out, _ = out_of(capsys)
        assert out.splitlines() == ["0,0", "0,1", "1,0", "1,1"]

    def test_validate_invalid_theta(self, capsys):
        assert run(["thickness", THETA, "--max", "1", "--validate", "0,1,2"]) == 0
        out, _ = out_of(capsys)
        assert out.strip() == "invalid"

    def test_validate_valid(self, capsys):
        assert run(["thickness", TWOGON, "--validate", "2,3"]) == 0
        out, _ = out_of(capsys)
        assert out.strip() == "valid"

    def test_wrong_length_vector(self, capsys):
        assert run(["thickness", TWOGON, "--validate", "1,2,3"]) == 2

    def test_enumerate_without_max(self, capsys):
        assert run(["thickness", TWOGON]) == 2


class TestTrait:
    def test_canonical(self, capsys):
        assert run(["trait", TWOGON, "--valuation", "x=4,y=6"]) == 0
        out, _ = out_of(capsys)
        assert "canonical: 2,3" in out
        assert "separatedness: ok" in out

    def test_missing_generator(self, capsys):
        assert run(["trait", TWOGON, "--valuation", "x=4"]) == 2

    def test_empty_valuation_needs_a_graph_without_generators(self, capsys):
        assert run(["trait", TWOGON, "--valuation", ""]) == 2
        _, err = out_of(capsys)
        assert "--valuation is missing generators ['x', 'y']" in err

    def test_bad_valuation_syntax(self, capsys):
        assert run(["trait", TWOGON, "--valuation", "x=4,y"]) == 2

    def test_negative_max_rejected(self, capsys):
        assert run(["trait", TWOGON, "--valuation", "x=4,y=6", "--max", "-1"]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert "bound must be >= 0" in err


class TestAtlasCommand:
    def test_writes_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "atlas"
        code = run(
            ["atlas", TWOGON, "--max", "1", "--out", str(out_dir), "--vanishing", "x,y"]
        )
        assert code == 0
        out, _ = out_of(capsys)
        assert "charts: 4" in out
        assert "nonempty fibres at {x,y}: 1" in out
        assert (out_dir / "atlas.index").exists()

    def test_each_fibre_is_computed_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        fibre = atlas.closed_fibre

        def counted(c, vanishing):
            calls.append(c)
            return fibre(c, vanishing)

        for module in (atlas, formats):
            monkeypatch.setattr(module, "closed_fibre", counted)
        out_dir = str(tmp_path / "atlas")
        assert run(["atlas", TWOGON, "--max", "2", "--out", out_dir, "--vanishing", "x"]) == 0
        out, _ = out_of(capsys)
        assert "charts: 6" in out
        assert len(calls) == 6

    def test_existing_directory_fails_cleanly(self, tmp_path, capsys):
        out_dir = tmp_path / "atlas"
        assert run(["atlas", TWOGON, "--max", "0", "--out", str(out_dir)]) == 0
        assert run(["atlas", TWOGON, "--max", "0", "--out", str(out_dir)]) == 2


@pytest.mark.parametrize(
    "argv, module, work",
    [
        (["atlas", TWOGON, "--max", "1"], atlas, "build_atlas"),
        (["resolve", TWOGON, "--valuation", "x=1,y=1"], resolution, "resolve"),
        (["strata", TWOGON], strata, "stratify"),
    ],
    ids=["atlas", "resolve", "strata"],
)
def test_existing_out_refused_before_any_work(
    tmp_path, capsys, monkeypatch, argv, module, work
):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{work} ran although --out exists")

    monkeypatch.setattr(module, work, must_not_run)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run(argv + ["--out", str(out_dir)]) == 2
    _, err = out_of(capsys)
    assert "refusing to overwrite" in err
    assert list(out_dir.iterdir()) == []


# Each form is one that int() accepts and the [0-9]+ grammar refuses.
MAX_ERR = "argument --max: invalid int value: "
VALIDATE_ERR = "--validate: expected comma-separated integers"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["thickness", TWOGON, "--max", "0_1"], MAX_ERR + "'0_1'"),
        (["thickness", TWOGON, "--max", "+1"], MAX_ERR + "'+1'"),
        (["thickness", TWOGON, "--max", " 1"], MAX_ERR + "' 1'"),
        (["thickness", TWOGON, "--max", "\u0661"], MAX_ERR + "'\u0661'"),
        (["thickness", TWOGON, "--max", "-0"], MAX_ERR + "'-0'"),
        (["thickness", TWOGON, "--validate", "1_0,+1"], VALIDATE_ERR),
        (["thickness", TWOGON, "--validate", "2, 3"], VALIDATE_ERR),
        (["thickness", TWOGON, "--validate", "\u0662,3"], VALIDATE_ERR),
        (["thickness", TWOGON, "--validate=-0,1"], VALIDATE_ERR),
        (["thickness", TWOGON, "--validate", "1,,2"], VALIDATE_ERR),
        (["thickness", TWOGON, "--validate", "1,"], VALIDATE_ERR),
        (["thickness", TWOGON, "--validate", ",1"], VALIDATE_ERR),
        (["thickness", TWOGON, "--validate", "1, 2"], VALIDATE_ERR),
        (["thickness", TWOGON, "--validate=-0"], VALIDATE_ERR),
        (["thickness", TWOGON, "--validate", "1,\uff11"], VALIDATE_ERR),
        (["trait", TWOGON, "--valuation", "x=4_0,y=6"], "--valuation: '4_0' is not an integer"),
        (["trait", TWOGON, "--valuation", "x=+4,y=6"], "--valuation: '+4' is not an integer"),
        (
            ["trait", TWOGON, "--valuation", " x = \u0661 ,y=0"],
            "--valuation: ' \u0661 ' is not an integer",
        ),
        (["trait", TWOGON, "--valuation", "x=-0,y=6"], "--valuation: '-0' is not an integer"),
        (
            ["resolve", THREECYCLE, "--valuation", "x=1,y=1,z=0_1"],
            "--valuation: '0_1' is not an integer",
        ),
    ],
    ids=[
        "max-underscore",
        "max-plus",
        "max-space",
        "max-arabic-indic",
        "max-minus-zero",
        "validate-underscore-plus",
        "validate-space",
        "validate-arabic-indic",
        "validate-minus-zero",
        "validate-empty-value",
        "validate-trailing-comma",
        "validate-leading-comma",
        "validate-space-after-comma",
        "validate-lone-minus-zero",
        "validate-fullwidth",
        "valuation-underscore",
        "valuation-plus",
        "valuation-padded-arabic-indic",
        "valuation-minus-zero",
        "resolve-valuation-underscore",
    ],
)
def test_integer_arguments_are_ascii_digits(capsys, argv, message):
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert message in err


class TestVanishing:
    @pytest.mark.parametrize(
        "graph, vanishing, message",
        [
            (TWOGON, "x,x", "--vanishing: duplicate generators ['x']"),
            (TWOGON, "y,x,y", "--vanishing: duplicate generators ['y']"),
            (TWOGON, "zz", "unknown generators ['zz']"),
            (TWOGON, "x,", "unknown generators ['']"),
            (TWOGON, "", "unknown generators ['']"),
            (
                str(FIXTURES / "mixed6.graph"),
                "x",
                "closed-fibre analysis needs single-generator labels, got z^2",
            ),
        ],
        ids=[
            "duplicate",
            "duplicate-apart",
            "unknown",
            "empty-name",
            "empty-argument",
            "non-nc-label",
        ],
    )
    def test_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, graph, vanishing, message
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("build_atlas ran although --vanishing is bad")

        monkeypatch.setattr(atlas, "build_atlas", must_not_run)
        out_dir = tmp_path / "atlas"
        argv = ["atlas", graph, "--max", "1", "--out", str(out_dir), "--vanishing", vanishing]
        assert run(argv) == 2
        assert out_of(capsys) == ("", f"error: {message}\n")
        assert not out_dir.exists()

    def test_distinct_generators_in_any_order(self, tmp_path, capsys):
        out_dir = tmp_path / "atlas"
        assert run(["atlas", TWOGON, "--max", "1", "--out", str(out_dir), "--vanishing", "y,x"]) == 0
        out, _ = out_of(capsys)
        assert "nonempty fibres at {x,y}: 1" in out


@pytest.mark.parametrize(
    "command, first_line",
    [("trait", "canonical: 0,0"), ("resolve", "step 0: delta=0, 2 vertices, 2 edges")],
)
def test_empty_valuation_on_a_graph_without_generators(tmp_path, capsys, command, first_line):
    graph = tmp_path / "units.graph"
    graph.write_text(
        json.dumps(
            {
                "generators": [],
                "nc": False,
                "vertices": ["a", "b"],
                "edges": [
                    {"id": "e1", "ends": ["a", "b"], "label": {}},
                    {"id": "e2", "ends": ["a", "b"], "label": {}},
                ],
            }
        )
    )
    assert run([command, str(graph), "--valuation", ""]) == 0
    out, err = out_of(capsys)
    assert err == ""
    assert out.splitlines()[0] == first_line


class TestResolveCommand:
    def test_writes_trace(self, tmp_path, capsys):
        graph = tmp_path / "chain.graph"
        graph.write_text(
            json.dumps(
                {
                    "generators": ["x"],
                    "nc": False,
                    "vertices": ["a", "b"],
                    "edges": [{"id": "e", "ends": ["a", "b"], "label": {"x": 4}}],
                }
            )
        )
        out_dir = tmp_path / "trace"
        assert run(["resolve", str(graph), "--valuation", "x=1", "--out", str(out_dir)]) == 0
        out, _ = out_of(capsys)
        assert out.splitlines()[0] == "step 0: delta=3, 2 vertices, 1 edges"
        assert (out_dir / "trace.index").exists()

    def test_non_aligned_input(self, capsys):
        assert run(["resolve", TWOGON, "--valuation", "x=1,y=1"]) == 2


class TestStrataCommand:
    def test_lattice_listing(self, capsys):
        assert run(["strata", TWOGON]) == 0
        out, _ = out_of(capsys)
        assert "stratum {}" in out
        assert "stratum {x,y}" in out
        assert "controlling: ok" in out

    def test_non_nc_rejected(self, capsys):
        assert run(["strata", str(FIXTURES / "mixed6.graph")]) == 2

    @pytest.mark.parametrize(
        "gens, bad", [(["a", "b", "a,b"], "a,b"), (["", "x"], "")], ids=["comma", "empty"]
    )
    def test_generator_that_cannot_tag_a_stratum_refused(self, tmp_path, capsys, gens, bad):
        # Strata are tagged "{g1,g2,...}": with a, b and "a,b" the strata
        # {a, b} and {"a,b"} would share the tag "{a,b}", and with "" the
        # strata {} and {""} would share "{}".
        edges = [
            {"id": f"e{i}", "ends": ["u", "v"], "label": {g: 1}} for i, g in enumerate(gens)
        ]
        path = tmp_path / "tags.graph"
        path.write_text(
            json.dumps({"generators": gens, "nc": True, "vertices": ["u", "v"], "edges": edges})
        )
        out_dir = tmp_path / "strata"
        assert run(["strata", str(path), "--out", str(out_dir)]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert f"generator {bad!r}" in err
        assert not out_dir.exists()

    def test_threecycle_golden_bytes(self, tmp_path, capsys):
        # The listing, the poset DOT (cover order included) and every file of
        # the --out directory, byte for byte.
        listing = (GOLDEN / "stdout.txt").read_text()
        assert run(["strata", THREECYCLE]) == 0
        assert out_of(capsys) == (listing, "")
        assert run(["strata", THREECYCLE, "--format", "dot"]) == 0
        assert out_of(capsys) == ((GOLDEN / "out" / "poset.dot").read_text(), "")
        out_dir = tmp_path / "strata"
        assert run(["strata", THREECYCLE, "--out", str(out_dir)]) == 0
        assert out_of(capsys) == (listing, "")
        names = sorted(p.name for p in (GOLDEN / "out").iterdir())
        assert sorted(p.name for p in out_dir.iterdir()) == names
        for name in names:
            assert (out_dir / name).read_bytes() == (GOLDEN / "out" / name).read_bytes(), name


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert run(["analyze", "does-not-exist.graph"]) == 1

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("{ not json")
        assert run(["analyze", str(bad)]) == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", TWOGON],
            ["analyze", THETA, "--format", "json"],
            ["thickness", THREECYCLE, "--max", "2"],
            ["trait", TWOGON, "--valuation", "x=4,y=6"],
            ["strata", TWOGON],
        ],
    )
    def test_byte_identical_output(self, argv, capsys):
        assert run(argv) == 0
        first, _ = out_of(capsys)
        assert run(argv) == 0
        second, _ = out_of(capsys)
        assert first == second


class TestCollector:
    """Commands run with the cyclic collector paused, and build no reference cycles."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, code, loads",
        [
            (["analyze", TWOGON], 0, 1),
            (["analyze", "does-not-exist.graph"], 1, 1),
            (["thickness", TWOGON, "--validate", "1,2,3"], 2, 1),
            (["thickness", TWOGON, "--max", "x"], 2, 0),
        ],
        ids=["ok", "input-error", "precondition", "usage"],
    )
    def test_run_restores_the_callers_state(self, capsys, monkeypatch, enabled, argv, code, loads):
        seen = []
        load = formats.load_graph

        def recording(path):
            seen.append(gc.isenabled())
            return load(path)

        monkeypatch.setattr(formats, "load_graph", recording)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(argv) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False] * loads


def grid_graph(n: int) -> LabelledGraph:
    """The n x n grid, its edges labelled x, x^2 and x^3 in turn: one
    aligned circuit class with primitive and non-primitive labels."""
    labels = [Monomial.generator("x", k) for k in (1, 2, 3)]
    v = [[f"v{r}_{c}" for c in range(n)] for r in range(n)]
    pairs = [(v[r][c], v[r][c + 1]) for r in range(n) for c in range(n - 1)]
    pairs += [(v[r][c], v[r + 1][c]) for r in range(n - 1) for c in range(n)]
    edges = [(f"e{i}", a, b, labels[i % 3]) for i, (a, b) in enumerate(pairs)]
    return LabelledGraph.build(GeneratorSet(("x",)), [u for row in v for u in row], edges)


def command(kind: str, path: str, G: LabelledGraph, out: str, bound: str) -> list[str]:
    valuation = ",".join(f"{g}=1" for g in G.generators.names)
    return {
        "analyze": ["analyze", path],
        "analyze-json": ["analyze", path, "--format", "json"],
        "analyze-dot": ["analyze", path, "--format", "dot"],
        "thickness-max": ["thickness", path, "--max", "1"],
        "thickness-validate": ["thickness", path, "--validate", ",".join("1" for _ in G.edges)],
        "atlas": ["atlas", path, "--max", bound, "--out", out],
        "atlas-vanishing": [
            "atlas", path, "--max", bound, "--out", out, "--vanishing", G.generators.names[0]
        ],
        "resolve": ["resolve", path, "--valuation", valuation],
        "resolve-out": ["resolve", path, "--valuation", valuation, "--out", out],
        "strata-out": ["strata", path, "--out", out],
        "strata-dot": ["strata", path, "--format", "dot"],
        "trait": ["trait", path, "--valuation", valuation],
    }[kind]


KINDS = [
    "analyze", "analyze-json", "analyze-dot", "thickness-max", "thickness-validate", "atlas",
    "atlas-vanishing", "resolve", "resolve-out", "strata-out", "strata-dot", "trait",
]
# The grid's one class of 760 edges has 2^760 candidate functions at bound 1.
GRID_KINDS = [k for k in KINDS if k not in ("thickness-max", "atlas", "atlas-vanishing")]
# Atlases at bound 1 of the two larger fixtures take seconds; bound 0 writes one chart.
ATLAS_BOUND = {"mixed6": "0", "wheel": "0"}


@pytest.fixture(scope="module")
def grid_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("grid") / "grid20.graph"
    path.write_text(formats.serialize_graph(grid_graph(20)))
    return path


def unreachable_after(argv: list[str]) -> tuple[int, Counter]:
    """run(argv)'s exit status, and the types of the objects it left that
    only the cyclic collector can free."""
    build_parser()
    # Frozen objects are left out of collections: the one after the command
    # looks only at what the command made.
    gc.freeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = run(argv)
        gc.collect()
        return code, Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["mixed6", "theta", "threecycle", "twogon", "wheel"])
def test_fixture_commands_leave_no_cycles(tmp_path, capsys, name, kind):
    path = FIXTURES / f"{name}.graph"
    G = formats.load_graph(path)
    argv = command(kind, str(path), G, str(tmp_path / "out"), ATLAS_BOUND.get(name, "1"))
    code, leaked = unreachable_after(argv)
    assert code in (0, 2)
    assert not leaked, f"unreachable after {argv[0]}: {dict(leaked)}"


@pytest.mark.parametrize("kind", GRID_KINDS)
def test_grid_commands_leave_no_cycles(tmp_path, capsys, grid_path, kind):
    argv = command(kind, str(grid_path), grid_graph(20), str(tmp_path / "out"), "1")
    code, leaked = unreachable_after(argv)
    assert code in (0, 2)
    assert not leaked, f"unreachable after {argv[0]}: {dict(leaked)}"
