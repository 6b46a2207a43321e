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
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .alignment import AlignmentReport
from .atlas import (
    Atlas,
    BinomialRelation,
    ChartPresentation,
    ThicknessFunction,
    TorusRelation,
    closed_fibre,
)
from .graph import GraphMorphism, LabelledGraph
from .labels import GeneratorSet, Monomial
from .resolution import ResolutionTrace
from .strata import StratifiedFamily


class GraphFormatError(ValueError):
    """Malformed input file (distinct from precondition violations)."""


def monomial_to_obj(m: Monomial) -> dict[str, int]:
    return {g: e for g, e in m.exps}


def _monomial_from_obj(
    obj, where: str, interned: dict[tuple[tuple[str, int], ...], Monomial]
) -> Monomial:
    """Validate a label object, then return the one ``Monomial`` that
    ``interned`` holds for its exponents (made and added on first sight)."""
    if not isinstance(obj, dict):
        raise GraphFormatError(f"{where}: label must be an object, got {obj!r}")
    for g, e in obj.items():
        # bool is a subclass of int, so test the exact type.
        if type(e) is not int or e < 1:
            raise GraphFormatError(
                f"{where}: exponent of {g!r} must be an integer >= 1, got {e!r}"
            )
    # Keyed only after validation: True and 1.0 compare equal to 1.
    exps = tuple(sorted(obj.items()))
    m = interned.get(exps)
    if m is None:
        m = interned[exps] = Monomial(exps)
    return m


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
    labels: dict[tuple[tuple[str, int], ...], Monomial] = {}
    for i, rec in enumerate(data["edges"]):
        where = f"{source}: edges[{i}]"
        if not isinstance(rec, dict):
            raise GraphFormatError(f"{where}: must be an object")
        for key in ("id", "ends", "label"):
            if key not in rec:
                raise GraphFormatError(f"{where}: missing field {key!r}")
        ends = rec["ends"]
        if (
            not isinstance(ends, list)
            or len(ends) != 2
            or not all(isinstance(v, str) for v in ends)
        ):
            raise GraphFormatError(f"{where}: ends must be a pair of vertex ids")
        if not isinstance(rec["id"], str):
            raise GraphFormatError(f"{where}: id must be a string, got {rec['id']!r}")
        label = _monomial_from_obj(rec["label"], where, labels)
        edges.append((rec["id"], ends[0], ends[1], label))
    try:
        return LabelledGraph.build(ctx, verts, edges)
    except ValueError as err:
        raise GraphFormatError(f"{source}: {err}") from err


def load_graph(path: str | Path) -> LabelledGraph:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise GraphFormatError(f"{path}: {err.strerror or err}") from err
    return parse_graph(text, source=str(path))


def graph_to_obj(G: LabelledGraph) -> dict:
    return {
        "generators": list(G.generators.names),
        "nc": G.generators.nc,
        "vertices": list(G.vertices),
        "edges": [
            {"id": e.id, "ends": list(e.ends), "label": monomial_to_obj(e.label)}
            for e in G.edges
        ],
    }


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


_quote = json.encoder.encode_basestring_ascii


def _top_list(items: Sequence[str]) -> str:
    """Encoded items laid out as a list in a top-level field of
    ``json.dumps(obj, indent=2)``."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def serialize_graph(G: LabelledGraph) -> str:
    """The canonical text of G, equal to ``_dump(graph_to_obj(G))``.

    Written in one pass over the edges, with each distinct label's fragment
    encoded once: ``json.dumps`` would run its pure-Python indenting encoder
    over one object per edge.
    """
    vertices = {v: _quote(v) for v in G.vertices}
    labels: dict[Monomial, str] = {}
    edges = []
    for e in G.edges:
        label = labels.get(e.label)
        if label is None:
            items = ",".join(f"\n        {_quote(g)}: {k}" for g, k in e.label.exps)
            label = labels[e.label] = "{" + items + "\n      }" if items else "{}"
        u, w = e.ends
        edges.append(
            f'{{\n      "id": {_quote(e.id)},\n      "ends": [\n'
            f"        {vertices[u]},\n        {vertices[w]}\n      ],\n"
            f'      "label": {label}\n    }}'
        )
    generators = _top_list([_quote(g) for g in G.generators.names])
    nc = "true" if G.generators.nc else "false"
    return (
        f'{{\n  "generators": {generators},\n  "nc": {nc},\n'
        f'  "vertices": {_top_list(list(vertices.values()))},\n'
        f'  "edges": {_top_list(edges)}\n}}\n'
    )


def graph_to_dot(
    G: LabelledGraph,
    name: str = "G",
    merged_from: Optional[Mapping[str, Sequence[str]]] = None,
) -> str:
    """Undirected DOT with monomial edge labels.

    ``merged_from`` annotates vertices of contracted or specialised graphs
    with the source ids they absorb.
    """
    lines = [f"graph {json.dumps(name)} {{"]
    for v in G.vertices:
        attrs = ""
        if merged_from and len(merged_from.get(v, ())) > 1:
            srcs = ",".join(merged_from[v])
            attrs = f" [label={json.dumps(f'{v} <- {srcs}')}]"
        lines.append(f"  {json.dumps(v)}{attrs};")
    for e in G.edges:
        u, w = e.ends
        lines.append(
            f"  {json.dumps(u)} -- {json.dumps(w)} "
            f"[label={json.dumps(f'{e.id}: {e.label}')}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def morphism_merged_vertices(phi: GraphMorphism) -> dict[str, list[str]]:
    merged: dict[str, list[str]] = {}
    for v, w in phi.vertex_map:
        merged.setdefault(w, []).append(v)
    return {w: sorted(vs) for w, vs in merged.items()}


def alignment_report_to_obj(r: AlignmentReport) -> dict:
    return {
        "aligned": r.aligned,
        "unit_edges": list(r.unit_edges),
        "classes": [
            {
                "edges": list(c.edges),
                "aligned": c.aligned,
                "primitive": None if c.primitive is None else monomial_to_obj(c.primitive),
                "multiplicities": None
                if c.multiplicities is None
                else {e: n for e, n in c.multiplicities},
                "reason": c.reason,
            }
            for c in r.classes
        ],
    }


def render_relations(c: ChartPresentation) -> list[str]:
    """Human-readable lines, one per relation."""
    out = []
    for rel in c.relations():
        if isinstance(rel, BinomialRelation):
            out.append(f"{rel.label} = {rel.aligning_var}^{rel.multiplicity} * {rel.unit_var}")
        elif isinstance(rel, TorusRelation):
            factors = [f"u_{e}^{n}" for e, n in rel.exponents]
            out.append("1 = " + " * ".join(factors))
    return out


def chart_to_obj(c: ChartPresentation) -> dict:
    return {
        "generators": list(c.base.names),
        "nc": c.base.nc,
        "classes": [
            {
                "edges": list(cls.edges),
                "aligning_var": cls.aligning_var,
                "rows": [
                    {
                        "edge": row.edge,
                        "label": monomial_to_obj(row.label),
                        "multiplicity": row.multiplicity,
                        "coefficient": row.coefficient,
                        "unit_var": row.unit_var,
                    }
                    for row in cls.rows
                ],
            }
            for cls in c.classes
        ],
        "inverted_labels": [monomial_to_obj(m) for m in c.inverted],
        "rendered": render_relations(c),
    }


def serialize_chart(c: ChartPresentation) -> str:
    return _dump(chart_to_obj(c))


def _chart_filename(kind: str, *tfs: ThicknessFunction) -> str:
    tag = "__".join("-".join(str(v) for v in tf.vector()) for tf in tfs)
    return f"{kind}_{tag}.json"


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
) -> None:
    """Write atlas.index plus one presentation file per chart and overlap.

    Most overlaps of chart(M) share their presentation with chart(M) or
    with another of its overlaps, so each distinct text is encoded once
    and written to every file that has it.
    """
    texts: dict[tuple[int, tuple[Monomial, ...]], bytes] = {}

    def write(path: Path, left: ChartPresentation, c: ChartPresentation) -> None:
        # c is ``left`` with more labels inverted; ``left`` is held by the
        # atlas, so its id names it for the whole write.
        key = (id(left), c.inverted)
        data = texts.get(key)
        if data is None:
            data = texts[key] = serialize_chart(c).encode()
        path.write_bytes(data)

    with _staged_dir(outdir) as tmp:
        index: dict = {
            "graph": graph_to_obj(atlas.graph),
            "bound": atlas.bound,
            "charts": [],
            "overlaps": [],
        }
        for M, c in atlas.charts.items():
            fname = _chart_filename("chart", M)
            write(tmp / fname, c, c)
            entry: dict = {"values": M.as_dict(), "file": fname}
            if vanishing is not None:
                fr = closed_fibre(c, vanishing)
                entry["fibre"] = {
                    "vanishing": sorted(vanishing),
                    "nonempty": fr.nonempty,
                    "connected": fr.connected,
                    "torus_rank": fr.torus_rank,
                }
            index["charts"].append(entry)
        for (M, N), ov in atlas.overlaps.items():
            fname = _chart_filename("overlap", M, N)
            write(tmp / fname, ov.left_chart, ov.chart)
            index["overlaps"].append(
                {
                    "left": M.as_dict(),
                    "right": N.as_dict(),
                    "inverted_edges": sorted(ov.inverted_edges),
                    "file": fname,
                }
            )
        (tmp / "atlas.index").write_text(_dump(index))


def write_trace(trace: ResolutionTrace, outdir: str | Path, dot: bool = False) -> None:
    """One graph file per step plus a rewrite log."""
    with _staged_dir(outdir) as tmp:
        log: dict = {"valuation": trace.valuation.as_dict(), "steps": []}
        for i, step in enumerate(trace.steps):
            fname = f"step_{i:02d}.graph"
            (tmp / fname).write_text(serialize_graph(step.graph))
            if dot:
                (tmp / f"step_{i:02d}.dot").write_text(
                    graph_to_dot(step.graph, name=f"step{i}")
                )
            log["steps"].append(
                {
                    "file": fname,
                    "delta": step.delta,
                    "rewrites": [
                        {"edge": r.edge, "rule": r.rule, "produced": list(r.produced)}
                        for r in step.rewrites
                    ],
                }
            )
        (tmp / "trace.index").write_text(_dump(log))


def strata_poset_dot(fam: StratifiedFamily) -> str:
    lines = ['digraph "strata" {']
    for J in fam.subsets():
        tag = "{" + ",".join(sorted(J)) + "}"
        stratum = fam.strata[J]
        lines.append(
            f"  {json.dumps(tag)} [label="
            f"{json.dumps(f'{tag}: {len(stratum.graph.edges)} edges')}];"
        )
    for (J, J2) in sorted(fam.covers, key=lambda p: (sorted(p[0]), sorted(p[1]))):
        a = "{" + ",".join(sorted(J)) + "}"
        b = "{" + ",".join(sorted(J2)) + "}"
        lines.append(f"  {json.dumps(a)} -> {json.dumps(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_strata(fam: StratifiedFamily, outdir: str | Path) -> None:
    """Lattice listing: numbered stratum files, an index, and the poset DOT."""
    with _staged_dir(outdir) as tmp:
        index: dict = {"controlling": graph_to_obj(fam.controlling), "strata": []}
        for i, J in enumerate(fam.subsets()):
            stratum = fam.strata[J]
            fname = f"stratum_{i:02d}.graph"
            (tmp / fname).write_text(serialize_graph(stratum.graph))
            index["strata"].append({"generators": sorted(J), "file": fname})
        (tmp / "poset.dot").write_text(strata_poset_dot(fam))
        (tmp / "strata.index").write_text(_dump(index))
