"""Blowup rewriting of aligned graphs with a strictly decreasing measure.

One rewriting step works class by class: an edge whose label is the square
of the class primitive splits into two primitive-labelled edges, a higher
power p^n splits into the path (p, p^{n-2}, p), unit-labelled edges are
deleted, primitive labels stay put.  The measure delta sums
(valuation - 1) over edges of positive valuation; it drops at every step,
so rewriting terminates with all labels of valuation at most one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alignment import AlignmentReport, check_alignment
from .graph import Edge, LabelledGraph, _edge
from .labels import Monomial, Valuation, primitive_part


@dataclass(frozen=True)
class RewriteRecord:
    edge: str
    rule: str  # "keep" | "delete-unit" | "split-two" | "split-three"
    produced: tuple[str, ...]


@dataclass(frozen=True)
class ResolutionStep:
    graph: LabelledGraph
    delta: int
    rewrites: tuple[RewriteRecord, ...]


@dataclass(frozen=True)
class ResolutionTrace:
    valuation: Valuation
    steps: tuple[ResolutionStep, ...]

    @property
    def final(self) -> LabelledGraph:
        return self.steps[-1].graph


def delta(G: LabelledGraph, v: Valuation) -> int:
    """Sum of (valuation - 1) over edges with positive label valuation."""
    total = 0
    for e in G.edges:
        w = v.of(e.label)
        if w >= 1:
            total += w - 1
    return total


def _require_aligned(G: LabelledGraph) -> AlignmentReport:
    report = check_alignment(G)
    if not report.aligned:
        bad = [c for c in report.classes if not c.aligned]
        raise ValueError(f"graph is not aligned (first failing class: {bad[0].edges})")
    return report


def blowup_step(
    G: LabelledGraph, step: int = 1
) -> tuple[LabelledGraph, tuple[RewriteRecord, ...]]:
    """Apply one simultaneous rewriting pass to an aligned graph.

    Fresh vertex names combine the parent edge id with the step index, and
    fresh edge ids extend the parent id, so traces are reproducible.
    """
    _require_aligned(G)
    return _rewrite(G, step)


def _rewrite(
    G: LabelledGraph, step: int
) -> tuple[LabelledGraph, tuple[RewriteRecord, ...]]:
    """``blowup_step`` on a graph already known to be aligned.

    There each non-unit label is p^n with p its class primitive, so its
    ``primitive_part`` gives (p, n) without the block search.
    """
    vertices = set(G.vertices)
    taken = {e.id for e in G.edges}
    new_edges: list[Edge] = []
    records: list[RewriteRecord] = []
    # One label object per distinct label in H, as ``parse_graph`` gives,
    # so that label facts cached on a Monomial are computed once per label.
    # G's objects come first: a kept edge is rebuilt only when G itself
    # holds equal labels apart.
    shared: dict[Monomial, Monomial] = {}
    for e in G.edges:
        shared.setdefault(e.label, e.label)
    for e in G.edges:
        if e.label.is_unit:
            records.append(RewriteRecord(e.id, "delete-unit", ()))
            continue
        p, n = primitive_part(e.label)
        if n == 1:
            label = shared[e.label]
            new_edges.append(e if label is e.label else Edge(e.id, e.ends, label))
            records.append(RewriteRecord(e.id, "keep", (e.id,)))
            continue
        p = shared.setdefault(p, p)
        a, b = e.ends
        if n == 2:
            w = f"{e.id}@{step}.1"
            ids = (f"{e.id}.1", f"{e.id}.2")
            pieces = [(ids[0], a, w, p), (ids[1], w, b, p)]
            rule = "split-two"
            fresh = [w]
        else:
            w1 = f"{e.id}@{step}.1"
            w2 = f"{e.id}@{step}.2"
            middle = p.pow(n - 2)
            middle = shared.setdefault(middle, middle)
            ids = (f"{e.id}.1", f"{e.id}.2", f"{e.id}.3")
            pieces = [
                (ids[0], a, w1, p),
                (ids[1], w1, w2, middle),
                (ids[2], w2, b, p),
            ]
            rule = "split-three"
            fresh = [w1, w2]
        clash = (set(fresh) & vertices) | (set(ids) & taken)
        if clash:
            raise ValueError(f"fresh ids collide with existing ids: {sorted(clash)}")
        vertices.update(fresh)
        taken.update(ids)
        new_edges.extend(_edge(i, u, v, l) for i, u, v, l in pieces)
        records.append(RewriteRecord(e.id, rule, ids))
    H = LabelledGraph(
        G.generators,
        tuple(sorted(vertices)),
        tuple(sorted(new_edges, key=lambda x: x.id)),
    )
    return H, tuple(records)


def resolve(G: LabelledGraph, v: Valuation) -> ResolutionTrace:
    """Iterate blowup steps until delta reaches zero, recording the trace.

    The valuation must send each class primitive to 1, so that label
    valuations agree with the intrinsic multiplicities and delta is the
    correct termination measure.  Alignment and the primitives are checked
    once, on G: every step stays aligned with the same primitives, since
    subdividing an edge keeps its pieces in its parent's block (a loop's
    pieces form a new cycle, a bridge's are bridges), and deleting the
    unit edges, whose classes hold only units, merges no blocks.
    """
    for c in _require_aligned(G).classes:
        if c.primitive is not None and v.of(c.primitive) != 1:
            raise ValueError(
                f"valuation must send the class primitive {c.primitive} (edge {c.edges[0]!r}) to 1"
            )
    steps = [ResolutionStep(G, delta(G, v), ())]
    while steps[-1].delta > 0:
        H, records = _rewrite(steps[-1].graph, len(steps))
        d = delta(H, v)
        if d >= steps[-1].delta:
            raise AssertionError("delta failed to decrease; rewriting bug")
        steps.append(ResolutionStep(H, d, records))
    return ResolutionTrace(v, tuple(steps))
