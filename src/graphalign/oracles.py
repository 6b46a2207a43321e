"""Brute-force oracles that tests and scripts/oracle_sweep.py compare against.

They re-derive the circuit classes and the alignment verdict the slow way:
every 2-vertex-connected edge subset, and for each one a direct search for
a common root of its labels.  The directory oracles give the text of every
file of an atlas, trace or strata directory as ``json.dumps`` of an object
built field by field, the encoding the writers in ``formats`` splice from
fragments.  The package does not import this module.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Optional, Sequence

from .atlas import Atlas, ThicknessFunction, closed_fibre
from .formats import _dump, chart_to_obj, graph_to_obj
from .graph import Edge, LabelledGraph, connected_components
from .labels import Monomial
from .resolution import ResolutionTrace
from .strata import StratifiedFamily

ORACLE_EDGE_CAP = 12


def _subset_connected(
    vertices: set[str], edges: Sequence[Edge], removed: Optional[str] = None
) -> bool:
    """Connectivity of the subgraph, with the degenerate conventions.

    The empty graph and a single vertex both count as connected.  When
    ``removed`` is given, that vertex and its incident edges are deleted
    first (other vertices stay, possibly isolated).
    """
    verts = {v for v in vertices if v != removed}
    if len(verts) <= 1:
        return True
    pairs = [e.ends for e in edges if removed not in e.ends]
    comps = connected_components(verts, pairs)
    return len(comps) == 1


def enumerate_2vc_subgraphs(G: LabelledGraph) -> list[frozenset[str]]:
    """All edge subsets inducing a 2-vertex-connected subgraph (oracle only).

    Conventions: a single edge (loop or bridge) is 2-vertex-connected; a
    subgraph with >= 2 edges must be loop-free, connected, and stay
    connected after removing any one vertex.  Loops inside larger subsets
    are excluded so that 2-vertex-connected subgraphs are exactly the
    circuit-connected ones.
    """
    if len(G.edges) > ORACLE_EDGE_CAP:
        raise ValueError(
            f"oracle is capped at {ORACLE_EDGE_CAP} edges, got {len(G.edges)}"
        )
    by_id = {e.id: e for e in G.edges}
    out: list[frozenset[str]] = []
    ids = sorted(by_id)
    for size in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            edges = [by_id[i] for i in combo]
            if size == 1:
                out.append(frozenset(combo))
                continue
            if any(e.is_loop for e in edges):
                continue
            verts = {v for e in edges for v in e.ends}
            if not _subset_connected(verts, edges):
                continue
            if all(_subset_connected(verts, edges, removed=v) for v in verts):
                out.append(frozenset(combo))
    return out


def _has_common_root(labels: Sequence[Monomial]) -> bool:
    """Direct search for l with every label a positive power of l.

    Candidate roots are read off the first label's exponent divisors; no
    gcd-normalisation shortcut, so this stays independent of
    primitive_root.
    """
    units = [m.is_unit for m in labels]
    if all(units):
        return True
    if any(units):
        return False
    first = labels[0]
    g = math.gcd(*(e for _, e in first.exps))
    for k in range(1, g + 1):
        if g % k:
            continue
        if any(e % k for _, e in first.exps):
            continue
        root = Monomial(tuple((gen, e // k) for gen, e in first.exps))
        ok = True
        for m in labels:
            n = m.exponent(root.exps[0][0]) // root.exps[0][1]
            if n < 1 or root.pow(n) != m:
                ok = False
                break
        if ok:
            return True
    return False


def is_aligned_oracle(G: LabelledGraph) -> bool:
    """Brute force: every 2-vertex-connected subgraph must admit a common root."""
    by_id = G.labels()
    for sub in enumerate_2vc_subgraphs(G):
        if not _has_common_root([by_id[e] for e in sorted(sub)]):
            return False
    return True


# Directory oracles ----------------------------------------------------------


def _chart_filename(kind: str, *tfs: ThicknessFunction) -> str:
    tag = "__".join("-".join(str(v) for v in tf.vector()) for tf in tfs)
    return f"{kind}_{tag}.json"


def atlas_files_oracle(
    atlas: Atlas, vanishing: Optional[Sequence[str]] = None
) -> dict[str, str]:
    """File name to text for ``write_atlas(atlas, out, vanishing)``."""
    files = {}
    index: dict = {
        "graph": graph_to_obj(atlas.graph),
        "bound": atlas.bound,
        "charts": [],
        "overlaps": [],
    }
    for M, c in atlas.charts.items():
        fname = _chart_filename("chart", M)
        files[fname] = _dump(chart_to_obj(c))
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
        files[fname] = _dump(chart_to_obj(ov.chart))
        index["overlaps"].append(
            {
                "left": M.as_dict(),
                "right": N.as_dict(),
                "inverted_edges": sorted(ov.inverted_edges),
                "file": fname,
            }
        )
    files["atlas.index"] = _dump(index)
    return files


def _graph_dot(G: LabelledGraph, name: str) -> str:
    lines = [f"graph {json.dumps(name)} {{"]
    for v in G.vertices:
        lines.append(f"  {json.dumps(v)};")
    for e in G.edges:
        u, w = e.ends
        label = json.dumps(f"{e.id}: {e.label}")
        lines.append(f"  {json.dumps(u)} -- {json.dumps(w)} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_files_oracle(trace: ResolutionTrace, dot: bool = False) -> dict[str, str]:
    """File name to text for ``write_trace(trace, out, dot)``."""
    files = {}
    log: dict = {"valuation": trace.valuation.as_dict(), "steps": []}
    for i, step in enumerate(trace.steps):
        fname = f"step_{i:02d}.graph"
        files[fname] = _dump(graph_to_obj(step.graph))
        if dot:
            files[f"step_{i:02d}.dot"] = _graph_dot(step.graph, f"step{i}")
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
    files["trace.index"] = _dump(log)
    return files


def strata_files_oracle(fam: StratifiedFamily) -> dict[str, str]:
    """File name to text for ``write_strata(fam, out)``."""

    def tag(J: frozenset[str]) -> str:
        return "{" + ",".join(sorted(J)) + "}"

    files = {}
    index: dict = {"controlling": graph_to_obj(fam.controlling), "strata": []}
    lines = ['digraph "strata" {']
    for i, J in enumerate(fam.subsets()):
        fname = f"stratum_{i:02d}.graph"
        graph = fam.strata[J].graph
        files[fname] = _dump(graph_to_obj(graph))
        index["strata"].append({"generators": sorted(J), "file": fname})
        label = json.dumps(f"{tag(J)}: {len(graph.edges)} edges")
        lines.append(f"  {json.dumps(tag(J))} [label={label}];")
    for J, J2 in sorted(fam.covers, key=lambda p: (sorted(p[0]), sorted(p[1]))):
        lines.append(f"  {json.dumps(tag(J))} -> {json.dumps(tag(J2))};")
    lines.append("}")
    files["poset.dot"] = "\n".join(lines) + "\n"
    files["strata.index"] = _dump(index)
    return files
