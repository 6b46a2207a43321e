"""One structured text format for graphs, reports, charts, and atlases.

Graph files are JSON with the fixed top-level fields ``generators``
(ordered list), ``nc`` (boolean), ``vertices`` (list of ids) and ``edges``
(list of ``{id, ends: [v, w], label: {gen: exp}}``).  Serialisation is
canonical (sorted ids, two-space indent, trailing newline), so re-encoding
a parsed file is idempotent and outputs diff cleanly.  DOT is emit-only.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

from .alignment import AlignmentReport
from .atlas import (
    Atlas,
    ChartPresentation,
    ThicknessFunction,
    closed_fibre,
)
from .graph import Edge, LabelledGraph
from .labels import GeneratorSet, Monomial
from .resolution import ResolutionTrace, RewriteRecord
from .strata import StratifiedFamily


class GraphFormatError(ValueError):
    """Malformed input file (distinct from precondition violations)."""


def parse_graph(text: str, source: str = "<string>") -> LabelledGraph:
    """Parse the graph file format, with positions on JSON-level errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise GraphFormatError(
            f"{source}:{err.lineno}:{err.colno}: {err.msg}"
        ) from err
    if not isinstance(data, dict):
        raise GraphFormatError(f"{source}: top level must be an object")
    for key in ("generators", "nc", "vertices", "edges"):
        if key not in data:
            raise GraphFormatError(f"{source}: missing field {key!r}")
    gens = data["generators"]
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise GraphFormatError(f"{source}: generators must be a list of names")
    if not isinstance(data["nc"], bool):
        raise GraphFormatError(f"{source}: nc must be a boolean")
    verts = data["vertices"]
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise GraphFormatError(f"{source}: vertices must be a list of ids")
    if not isinstance(data["edges"], list):
        raise GraphFormatError(f"{source}: edges must be a list")
    try:
        ctx = GeneratorSet(tuple(gens), data["nc"])
    except ValueError as err:
        raise GraphFormatError(f"{source}: {err}") from err
    edges = []
    # One Monomial per distinct label, held under its exponent items as
    # written and as sorted.  Looked up only after validation, since True
    # and 1.0 compare equal to 1.
    interned: dict[tuple, Monomial] = {}
    records = data["edges"]
    for i, rec in enumerate(records):
        # Released once its edge is built: the records and the edges are
        # never all held at once.
        records[i] = None
        if not isinstance(rec, dict):
            raise GraphFormatError(f"{source}: edges[{i}]: must be an object")
        for key in ("id", "ends", "label"):
            if key not in rec:
                raise GraphFormatError(f"{source}: edges[{i}]: missing field {key!r}")
        ends = rec["ends"]
        if (
            not isinstance(ends, list)
            or len(ends) != 2
            or not isinstance(u := ends[0], str)
            or not isinstance(w := ends[1], str)
        ):
            raise GraphFormatError(f"{source}: edges[{i}]: ends must be a pair of vertex ids")
        eid = rec["id"]
        if not isinstance(eid, str):
            raise GraphFormatError(f"{source}: edges[{i}]: id must be a string, got {eid!r}")
        obj = rec["label"]
        if not isinstance(obj, dict):
            raise GraphFormatError(f"{source}: edges[{i}]: label must be an object, got {obj!r}")
        items = tuple(obj.items())
        for g, x in items:
            # bool is a subclass of int, so test the exact type.
            if type(x) is not int or x < 1:
                raise GraphFormatError(
                    f"{source}: edges[{i}]: exponent of {g!r} must be an integer >= 1, got {x!r}"
                )
        label = interned.get(items)
        if label is None:
            exps = tuple(sorted(items))
            label = interned[items] = interned.setdefault(exps, Monomial(exps))
        edges.append(Edge(eid, (u, w) if u <= w else (w, u), label))
    edges.sort(key=attrgetter("id"))
    try:
        return LabelledGraph(ctx, tuple(sorted(verts)), tuple(edges))
    except ValueError as err:
        raise GraphFormatError(f"{source}: {err}") from err


def load_graph(path: str | Path) -> LabelledGraph:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise GraphFormatError(f"{path}: {err.strerror or err}") from err
    return parse_graph(text, source=str(path))


_quote = json.encoder.encode_basestring_ascii


def _list(items: Sequence[str], depth: int) -> str:
    """Encoded items laid out as ``json.dumps(obj, indent=2)`` lays out a
    list whose opening bracket sits at nesting ``depth`` (0 for the whole
    document, 1 for a field of the top-level object)."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return f"[{pad}{(',' + pad).join(items)}{pad[:-2]}]"


def _object_parts(fields: Sequence[tuple[str, str]], depth: int) -> list[str]:
    """The pieces of ``_object(fields, depth)``; each value is one piece, so
    that a large one (an index's list of entries) is never copied by
    concatenation."""
    if not fields:
        return ["{}"]
    pad = "\n" + "  " * (depth + 1)
    parts = []
    for k, v in fields:
        parts += ("," + pad, _quote(k), ": ", v)
    parts[0] = "{" + pad
    parts.append(pad[:-2] + "}")
    return parts


def _object(fields: Sequence[tuple[str, str]], depth: int) -> str:
    """Likewise for an object, from (key, encoded value) pairs in order."""
    return "".join(_object_parts(fields, depth))


def _write_document(path: Path, fields: Sequence[tuple[str, str]]) -> None:
    """Write ``_object(fields, 0)`` and the newline that ends every canonical
    text, piece by piece: the whole text of a large index is never held at
    once."""
    with open(path, "w") as f:
        f.writelines(_object_parts(fields, 0))
        f.write("\n")


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _label(m: Monomial, depth: int) -> str:
    return _object([(g, str(k)) for g, k in m.exps], depth)


def _nested(text: str) -> str:
    """A document's text as the value of a top-level field.  An encoded
    string holds no raw newline, so indenting after every newline is exact."""
    return text[:-1].replace("\n", "\n  ")


def serialize_graph(G: LabelledGraph) -> str:
    """The canonical text of G: ``json.dumps(obj, indent=2)`` plus a newline,
    for the object with the fields ``generators``, ``nc``, ``vertices`` and
    ``edges`` described above (tests/oracles.py builds it and compares).

    Written in one pass over the edges, with each distinct label's fragment
    encoded once: ``json.dumps`` would run its pure-Python indenting encoder
    over one object per edge.
    """
    return _graph_text(G, {}, {}, {})


def _graph_text(
    G: LabelledGraph,
    vertices: dict[str, str],
    labels: dict[int, str],
    edges: dict[int, str],
) -> str:
    """``serialize_graph(G)``, taking each vertex id's encoding from
    ``vertices``, and each label's fragment and each edge's entry from
    ``labels`` and ``edges`` by the object's identity, and adding there the
    ones not yet encoded: graphs that share ids, labels and edges share the
    work.  The objects must outlive the dicts that hold their ids."""
    quoted = [vertices.get(v) or vertices.setdefault(v, _quote(v)) for v in G.vertices]
    entries = [edges.get(id(e)) or _edge_entry(e, vertices, labels, edges) for e in G.edges]
    generators = _list([_quote(g) for g in G.generators.names], 1)
    return (
        f'{{\n  "generators": {generators},\n  "nc": {_bool(G.generators.nc)},\n'
        f'  "vertices": {_list(quoted, 1)},\n'
        f'  "edges": {_list(entries, 1)}\n}}\n'
    )


def _edge_entry(
    e: Edge, vertices: dict[str, str], labels: dict[int, str], edges: dict[int, str]
) -> str:
    """Encode e's entry in a graph text into ``edges``; its ends are in
    ``vertices`` already."""
    label = labels.get(id(e.label))
    if label is None:
        label = labels[id(e.label)] = _label(e.label, 3)
    u, w = e.ends
    text = edges[id(e)] = (
        f'{{\n      "id": {_quote(e.id)},\n      "ends": [\n'
        f"        {vertices[u]},\n        {vertices[w]}\n      ],\n"
        f'      "label": {label}\n    }}'
    )
    return text


def graph_to_dot(G: LabelledGraph, name: str = "G") -> str:
    """Undirected DOT with monomial edge labels."""
    lines = [f"graph {_quote(name)} {{"]
    for v in G.vertices:
        lines.append(f"  {_quote(v)};")
    for e in G.edges:
        u, w = e.ends
        lines.append(
            f"  {_quote(u)} -- {_quote(w)} "
            f"[label={_quote(f'{e.id}: {e.label}')}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def alignment_report_json(r: AlignmentReport, level: Optional[int]) -> str:
    """The text of ``analyze --format json``: the report's fields, then
    ``irregularly_aligned`` and ``strong_level``, as ``json.dumps(obj,
    indent=2)`` plus a newline lays them out (tests/oracles.py builds the
    object and compares)."""
    classes = []
    for c in r.classes:
        mults = c.multiplicities
        fields = [
            ("edges", _list([_quote(e) for e in c.edges], 3)),
            ("aligned", _bool(c.aligned)),
            ("primitive", "null" if c.primitive is None else _label(c.primitive, 3)),
            (
                "multiplicities",
                "null" if mults is None else _object([(e, str(n)) for e, n in mults], 3),
            ),
            ("reason", "null" if c.reason is None else _quote(c.reason)),
        ]
        classes.append(_object(fields, 2))
    fields = [
        ("aligned", _bool(r.aligned)),
        ("unit_edges", _list([_quote(e) for e in r.unit_edges], 1)),
        ("classes", _list(classes, 1)),
        ("irregularly_aligned", _bool(r.aligned)),
        ("strong_level", "null" if level is None else str(level)),
    ]
    return _object(fields, 0) + "\n"


def render_relations(c: ChartPresentation) -> list[str]:
    """Human-readable lines: each class's binomials, then its torus relation."""
    out = []
    for cls in c.classes:
        for row in cls.rows:
            out.append(f"{row.label} = {cls.aligning_var}^{row.multiplicity} * {row.unit_var}")
        out.append("1 = " + " * ".join(f"{row.unit_var}^{row.coefficient}" for row in cls.rows))
    return out


def _chart_parts(c: ChartPresentation) -> tuple[str, str]:
    """The text of c's file before and after its ``inverted_labels`` list.

    An overlap has the classes of chart(M) and more inverted labels, so
    these two parts serve chart(M) and every one of its overlaps.
    """
    classes = []
    for cls in c.classes:
        rows = [
            _object(
                [
                    ("edge", _quote(row.edge)),
                    ("label", _label(row.label, 5)),
                    ("multiplicity", str(row.multiplicity)),
                    ("coefficient", str(row.coefficient)),
                    ("unit_var", _quote(row.unit_var)),
                ],
                4,
            )
            for row in cls.rows
        ]
        fields = [
            ("edges", _list([_quote(e) for e in cls.edges], 3)),
            ("aligning_var", _quote(cls.aligning_var)),
            ("rows", _list(rows, 3)),
        ]
        classes.append(_object(fields, 2))
    # NUL marks the split: every encoded string escapes control characters.
    text = _object(
        [
            ("generators", _list([_quote(g) for g in c.base.names], 1)),
            ("nc", _bool(c.base.nc)),
            ("classes", _list(classes, 1)),
            ("inverted_labels", "\0"),
            ("rendered", _list([_quote(r) for r in render_relations(c)], 1)),
        ],
        0,
    )
    head, tail = text.split("\0")
    return head, tail + "\n"


@contextlib.contextmanager
def _staged_dir(outdir: str | Path):
    """Assemble output in a temporary sibling, move into place on success.

    Failures leave no partial directory; an existing target is refused.
    """
    outdir = Path(outdir)
    outdir.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".staged-", dir=outdir.parent))
    try:
        yield tmp
        if outdir.exists():
            raise FileExistsError(f"refusing to overwrite {outdir}")
        os.replace(tmp, outdir)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp)


def write_atlas(
    atlas: Atlas, outdir: str | Path, vanishing: Optional[Sequence[str]] = None
) -> int:
    """Write atlas.index plus one presentation file per chart and overlap;
    return how many charts have a nonempty fibre over ``vanishing`` (0
    without it).

    Every file is canonical ``json.dumps(indent=2)`` text, spliced from
    fragments encoded once: each chart's text around its inverted labels,
    each distinct inverted label, each thickness function's ``values`` and
    file-name tag, and each overlap set's ``inverted_edges`` list (equal
    sets are one object, interned by ``build_atlas``).  Most overlaps of
    chart(M) share their text with chart(M) or with another of its
    overlaps, so each distinct text is built once and written to every
    file that has it.  The atlas oracle in tests/oracles.py rebuilds every
    file with ``json.dumps``.
    """
    parts: dict[int, tuple[str, str]] = {}
    labels: dict[Monomial, str] = {}
    texts: dict[tuple[int, tuple[Monomial, ...]], bytes] = {}
    by_edges: dict[tuple[int, frozenset[str]], bytes] = {}
    functions: dict[int, tuple[str, str]] = {}
    listed: dict[frozenset[str], str] = {}

    def write(fname: str, c: ChartPresentation, edges: frozenset[str]) -> None:
        # c is held by the atlas, so its id names it for the whole write.
        # Its overlaps that invert the same edges have one text, and so have
        # those whose inverted labels come out the same.
        left = id(c)
        data = by_edges.get((left, edges))
        if data is None:
            inverted = c.inverted_with(edges)
            data = texts.get((left, inverted))
            if data is None:
                head, tail = parts.get(left) or parts.setdefault(left, _chart_parts(c))
                items = [labels.get(m) or labels.setdefault(m, _label(m, 2)) for m in inverted]
                data = texts[(left, inverted)] = (head + _list(items, 1) + tail).encode()
            by_edges[(left, edges)] = data
        with open(os.path.join(tmp, fname), "wb") as f:
            f.write(data)

    def function(M: ThicknessFunction) -> tuple[str, str]:
        """M's ``values`` fragment in an index entry, and its file-name tag."""
        found = functions.get(id(M))
        if found is None:
            values = _object([(e, str(v)) for e, v in M.values], 3)
            found = functions[id(M)] = (values, "-".join(str(v) for _, v in M.values))
        return found

    point = None if vanishing is None else _list([_quote(g) for g in sorted(vanishing)], 4)
    nonempty = 0
    with _staged_dir(outdir) as tmp:
        charts = []
        for M, c in atlas.charts.items():
            values, tag = function(M)
            fname = f"chart_{tag}.json"
            write(fname, c, frozenset())
            fields = [("values", values), ("file", _quote(fname))]
            if vanishing is not None:
                fr = closed_fibre(c, vanishing)
                nonempty += fr.nonempty
                fibre = [
                    ("vanishing", point),
                    ("nonempty", _bool(fr.nonempty)),
                    ("connected", _bool(fr.connected)),
                    ("torus_rank", str(fr.torus_rank)),
                ]
                fields.append(("fibre", _object(fibre, 3)))
            charts.append(_object(fields, 2))
        overlaps = []
        for (M, N), edges in atlas.overlaps.items():
            (left, ltag), (right, rtag) = function(M), function(N)
            fname = f"overlap_{ltag}__{rtag}.json"
            write(fname, atlas.charts[M], edges)
            inverted = listed.get(edges)
            if inverted is None:
                inverted = listed[edges] = _list([_quote(e) for e in sorted(edges)], 3)
            fields = [
                ("left", left),
                ("right", right),
                ("inverted_edges", inverted),
                ("file", _quote(fname)),
            ]
            overlaps.append(_object(fields, 2))
        index = [
            ("graph", _nested(serialize_graph(atlas.graph))),
            ("bound", str(atlas.bound)),
            ("charts", _list(charts, 1)),
            ("overlaps", _list(overlaps, 1)),
        ]
        _write_document(tmp / "atlas.index", index)
    return nonempty


def _rewrite_entry(r: RewriteRecord) -> str:
    """A rewrite record's entry in the trace index, as ``_object`` lays out
    its fields at nesting 4."""
    produced = "[]"
    if r.produced:
        produced = "[\n            " + ",\n            ".join(map(_quote, r.produced)) + "\n          ]"
    return (
        f'{{\n          "edge": {_quote(r.edge)},\n          "rule": {_quote(r.rule)},\n'
        f'          "produced": {produced}\n        }}'
    )


def write_trace(trace: ResolutionTrace, outdir: str | Path, dot: bool = False) -> None:
    """One graph file per step plus a rewrite log.

    Steps share most of their objects: a kept edge, its vertex ids, its
    label and its keep record are the previous step's.  So each edge entry,
    vertex id, label and rewrite record is encoded once per trace, keyed by
    object identity (the trace holds every object), and each step's text
    is joins of cached text.  An edge or record that a step does not hold
    is in no later step, so only the last step's entries are kept.  The
    index is written step by step, so no step's log outlives its step.
    """
    vertices: dict[str, str] = {}
    labels: dict[int, str] = {}
    edges: dict[int, str] = {}
    entries: dict[int, str] = {}
    valuation = _object([(g, str(v)) for g, v in trace.valuation.values], 1)
    with _staged_dir(outdir) as tmp, open(tmp / "trace.index", "w") as index:
        # ``_object`` of the fields ``valuation`` and ``steps``, at nesting 0.
        index.write(f'{{\n  "valuation": {valuation},\n  "steps": [')
        for i, step in enumerate(trace.steps):
            fname = f"step_{i:02d}.graph"
            (tmp / fname).write_text(_graph_text(step.graph, vertices, labels, edges))
            edges = {id(e): edges[id(e)] for e in step.graph.edges}
            if dot:
                (tmp / f"step_{i:02d}.dot").write_text(
                    graph_to_dot(step.graph, name=f"step{i}")
                )
            rewrites = [entries.get(id(r)) or _rewrite_entry(r) for r in step.rewrites]
            entries = dict(zip(map(id, step.rewrites), rewrites))
            fields = [
                ("file", _quote(fname)),
                ("delta", str(step.delta)),
                ("rewrites", _list(rewrites, 3)),
            ]
            index.write(",\n    " if i else "\n    ")
            index.writelines(_object_parts(fields, 2))
        index.write("\n  ]\n}\n" if trace.steps else "]\n}\n")


def strata_poset_dot(fam: StratifiedFamily) -> str:
    # Each subset's sorted generators, and its node name, are made once.
    subsets = fam.subsets()
    key = {J: tuple(sorted(J)) for J in subsets}
    tag = {J: "{" + ",".join(k) + "}" for J, k in key.items()}
    node = {J: _quote(t) for J, t in tag.items()}
    lines = ['digraph "strata" {']
    for J in subsets:
        label = _quote(f"{tag[J]}: {len(fam.strata[J].edges)} edges")
        lines.append(f"  {node[J]} [label={label}];")
    for J, J2 in sorted(fam.covers, key=lambda p: (key[p[0]], key[p[1]])):
        lines.append(f"  {node[J]} -> {node[J2]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_strata(fam: StratifiedFamily, outdir: str | Path) -> None:
    """Lattice listing: numbered stratum files, an index, and the poset DOT.

    The strata share their vertex ids and labels, so each id and label is
    encoded once for the whole family.
    """
    vertices: dict[str, str] = {}
    labels: dict[int, str] = {}
    with _staged_dir(outdir) as tmp:
        strata = []
        for i, J in enumerate(fam.subsets()):
            fname = f"stratum_{i:02d}.graph"
            with open(os.path.join(tmp, fname), "w") as f:
                f.write(_graph_text(fam.strata[J], vertices, labels, {}))
            generators = _list([_quote(g) for g in sorted(J)], 3)
            strata.append(_object([("generators", generators), ("file", _quote(fname))], 2))
        with open(os.path.join(tmp, "poset.dot"), "w") as f:
            f.write(strata_poset_dot(fam))
        index = [
            ("controlling", _nested(_graph_text(fam.controlling, vertices, labels, {}))),
            ("strata", _list(strata, 1)),
        ]
        _write_document(tmp / "strata.index", index)
