"""Blowup rewriting of aligned graphs with a strictly decreasing measure.

One rewriting step works class by class: an edge whose label is the square
of the class primitive splits into two primitive-labelled edges, a higher
power p^n splits into the path (p, p^{n-2}, p), unit-labelled edges are
deleted, primitive labels stay put.  The measure delta sums
(valuation - 1) over edges of positive valuation; it drops at every step,
so rewriting terminates with all labels of valuation at most one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .alignment import AlignmentReport, check_alignment
from .graph import Edge, LabelledGraph, _edge
from .labels import Monomial, Valuation, primitive_part

# The most edge slots (one per edge of each step's graph) that ``resolve``
# lets a trace hold.  The trace keeps every step's edge and rewrite tuples,
# and ``resolve --out`` writes one edge entry per slot.  The 40x40 grid
# labelled x^40 holds 1,372,800 slots; a 4-cycle labelled x^n holds about
# n^2, so x^3000 passes and x^3200 is refused.
MAX_TRACE_EDGE_SLOTS = 10_000_000


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


def _require_aligned(G: LabelledGraph) -> AlignmentReport:
    report = check_alignment(G)
    if not report.aligned:
        bad = [c for c in report.classes if not c.aligned]
        raise ValueError(f"graph is not aligned (first failing class: {bad[0].edges})")
    return report


_ID = attrgetter("id")


def _without(items: list, drop: list[int]) -> list:
    """``items`` less the items at the increasing positions ``drop``."""
    out = []
    start = 0
    for pos in drop:
        out += items[start:pos]
        start = pos + 1
    out += items[start:]
    return out


def _with(items: list, at: list[int], new: list) -> list:
    """``items`` with each ``new[j]`` put before ``items[at[j]]``; ``at`` is
    non-decreasing."""
    out = []
    start = 0
    for pos, item in zip(at, new):
        out += items[start:pos]
        out.append(item)
        start = pos
    out += items[start:]
    return out


class _Rewriter:
    """Blowup steps from an aligned graph on, each costing its rewrites plus
    one linear copy and validation of the new graph.

    On an aligned graph each non-unit label is p^n with p its class
    primitive, so its ``primitive_part`` gives (p, n) without the block
    search.  A split edge's pieces inherit p, with multiplicities 1, n-2
    and 1, so only units and edges of multiplicity >= 2 ever change, and
    after the first step those are middle pieces.  ``delta`` is the sum
    of max(n - 1, 0) over the edges, which ``resolve``'s valuation check
    makes the sum of (valuation - 1) over edges of positive valuation: a
    split-two lowers it by 1, a split-three by 2 (n - 1 becomes n - 3),
    and deleting a unit leaves it.  Carried from step to step:

    - per-label facts, computed once per distinct label: its primitive,
      multiplicity and interned middle power;
    - the positions of the edges still to rewrite;
    - ``delta``;
    - the sorted edge and vertex lists, and the id and vertex sets of the
      fresh-id clash check;
    - one keep record per kept edge, shared by every step that keeps it.
    """

    def __init__(self, G: LabelledGraph) -> None:
        self.generators = G.generators
        # One label object per distinct label, as ``parse_graph`` gives, so
        # that facts cached on a Monomial are computed once per label.  G's
        # objects come first, in id order: a kept edge is rebuilt only
        # when G itself holds equal labels apart.
        self.canon: dict[Monomial, Monomial] = {}
        for label in {id(e.label): e.label for e in G.edges}.values():
            self.canon.setdefault(label, label)
        # By the id of a canonical label, which ``canon`` keeps alive:
        # (primitive, multiplicity, middle power).
        self.facts: dict[int, tuple] = {}
        self.vertices = list(G.vertices)
        self.vertex_set = set(G.vertices)
        self.taken = {e.id for e in G.edges}
        self.edges = edges = list(G.edges)
        self.keeps: list[Optional[RewriteRecord]] = []
        self.work: list[int] = []
        self.delta = 0
        for i, e in enumerate(edges):
            p, n, _ = self._facts(e.label)
            self.delta += max(n - 1, 0)
            if n == 1:
                if p is not e.label:
                    edges[i] = e = Edge(e.id, e.ends, p)
                self.keeps.append(RewriteRecord(e.id, "keep", (e.id,)))
            else:
                self.keeps.append(None)
                self.work.append(i)

    def _facts(self, label: Monomial) -> tuple:
        found = self.facts.get(id(label))
        if found is None:
            canon = self.canon.setdefault(label, label)
            if canon is not label:
                return self._facts(canon)
            if label.is_unit:
                found = (None, 0, None)
            else:
                p, n = primitive_part(label)
                p = self.canon.setdefault(p, p)
                middle = None
                if n >= 3:
                    middle = p.pow(n - 2)
                    middle = self.canon.setdefault(middle, middle)
                found = (p, n, middle)
            self.facts[id(label)] = found
        return found

    def step(self, index: int) -> tuple[LabelledGraph, tuple[RewriteRecord, ...]]:
        """Rewrite every edge of the current graph at once.  Fresh vertex
        names combine the parent edge id with ``index``, and fresh edge ids
        extend the parent id."""
        edges, work, vertices, taken = self.edges, self.work, self.vertex_set, self.taken
        facts, read = self.facts, self._facts
        records = self.keeps.copy()
        pieces: list[tuple[Edge, Optional[RewriteRecord]]] = []
        fresh: list[str] = []
        d = self.delta
        for pos in work:
            e = edges[pos]
            eid = e.id
            p, n, middle = facts.get(id(e.label)) or read(e.label)
            if n == 0:
                records[pos] = RewriteRecord(eid, "delete-unit", ())
                continue
            a, b = e.ends
            if n == 2:
                names = (f"{eid}@{index}.1",)
                ids = (f"{eid}.1", f"{eid}.2")
                new = (_edge(ids[0], a, names[0], p), _edge(ids[1], names[0], b, p))
                rule = "split-two"
            else:
                names = (f"{eid}@{index}.1", f"{eid}@{index}.2")
                ids = (f"{eid}.1", f"{eid}.2", f"{eid}.3")
                new = (
                    _edge(ids[0], a, names[0], p),
                    _edge(ids[1], names[0], names[1], middle),
                    _edge(ids[2], names[1], b, p),
                )
                rule = "split-three"
            clash = vertices.intersection(names) | taken.intersection(ids)
            if clash:
                raise ValueError(f"fresh ids collide with existing ids: {sorted(clash)}")
            vertices.update(names)
            taken.update(ids)
            fresh += names
            records[pos] = RewriteRecord(eid, rule, ids)
            d -= len(names)  # 1 for a split-two, 2 for a split-three
            pieces.append((new[0], RewriteRecord(ids[0], "keep", ids[:1])))
            if n >= 3:
                pieces.append((new[1], RewriteRecord(ids[1], "keep", ids[1:2]) if n == 3 else None))
            pieces.append((new[-1], RewriteRecord(ids[-1], "keep", ids[-1:])))
        taken.difference_update([edges[pos].id for pos in work])
        kept = _without(edges, work)
        # The pieces are merged into id order, not put in their parent's
        # place: "." sorts below digits and letters, so an edge "e-" or
        # "e.1a" after "e" sorts below its piece "e.3".
        pieces.sort(key=lambda piece: piece[0].id)
        new_edges = [e for e, _ in pieces]
        piece_keeps = [keep for _, keep in pieces]
        at = [bisect_left(kept, e.id, key=_ID) for e in new_edges]
        self.edges = _with(kept, at, new_edges)
        self.keeps = _with(_without(self.keeps, work), at, piece_keeps)
        self.work = [k + i for i, (k, keep) in enumerate(zip(at, piece_keeps)) if keep is None]
        self.vertices += fresh
        self.vertices.sort()
        self.delta = d
        H = LabelledGraph(self.generators, tuple(self.vertices), tuple(self.edges))
        return H, tuple(records)


def blowup_step(
    G: LabelledGraph, step: int = 1
) -> tuple[LabelledGraph, tuple[RewriteRecord, ...]]:
    """Apply one simultaneous rewriting pass to an aligned graph.

    Fresh vertex names combine the parent edge id with the step index, and
    fresh edge ids extend the parent id, so traces are reproducible.
    """
    _require_aligned(G)
    return _Rewriter(G).step(step)


def _trace_size(report: AlignmentReport) -> tuple[int, int]:
    """The number of steps ``resolve`` takes on an aligned graph, and the
    number of edge slots its trace holds, from the multiplicities alone.

    An edge of multiplicity n is min(2s + 1, n) edges after step s: 2s + 1
    before its last step n // 2, and n from there on.  A unit edge is in
    step 0 only.
    """
    mults = [n for c in report.classes if c.primitive is not None for _, n in c.multiplicities]
    steps = max(mults, default=0) // 2
    slots = len(report.unit_edges)
    for n in mults:
        last = n // 2
        slots += last * last + (steps - last + 1) * n
    return steps, slots


def resolve(G: LabelledGraph, v: Valuation) -> ResolutionTrace:
    """Iterate blowup steps until delta reaches zero, recording the trace.

    The valuation must send each class primitive p to 1.  Valuations are
    additive, so each label p^n then has valuation n, and delta is read
    from the multiplicities: the valuation is read only at the primitives.
    Alignment and the primitives are checked once, on G: every step stays
    aligned with the same primitives, since subdividing an edge keeps its
    pieces in its parent's block (a loop's pieces form a new cycle, a
    bridge's are bridges), and deleting the unit edges, whose classes hold
    only units, merges no blocks.

    A trace whose step graphs would hold more than ``MAX_TRACE_EDGE_SLOTS``
    edges in all is refused before the first step.  Each step then costs
    its rewrites plus one linear copy and validation of its graph: the
    edges it keeps are the previous step's objects, with their rewrite
    records, and each distinct label's primitive part is read once.
    """
    report = _require_aligned(G)
    for c in report.classes:
        if c.primitive is not None and v.of(c.primitive) != 1:
            raise ValueError(
                f"valuation must send the class primitive {c.primitive} (edge {c.edges[0]!r}) to 1"
            )
    rewriter = _Rewriter(G)
    count, slots = _trace_size(report)
    if slots > MAX_TRACE_EDGE_SLOTS:
        raise ValueError(
            f"resolving takes {count} steps whose graphs hold {slots} edges in all, "
            f"above the limit of {MAX_TRACE_EDGE_SLOTS}"
        )
    steps = [ResolutionStep(G, rewriter.delta, ())]
    while steps[-1].delta > 0:
        H, records = rewriter.step(len(steps))
        if rewriter.delta >= steps[-1].delta:
            raise AssertionError("delta failed to decrease; rewriting bug")
        steps.append(ResolutionStep(H, rewriter.delta, records))
    return ResolutionTrace(v, tuple(steps))
