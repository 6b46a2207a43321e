"""Monomial-labelled multigraphs and their contraction machinery.

Graphs are finite, allow loops and parallel edges, and carry a Monomial
label per edge.  The central structure is the circuit-connected partition
of the edge set: loops are singletons, every other class is the edge set
of a 2-vertex-connected block of the loop-deleted graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .labels import GeneratorSet, Monomial

EdgePartition = tuple[frozenset[str], ...]

# ("edge", id) when the edge survives, ("vertex", id) when it is contracted.
EdgeImage = tuple[str, str]


class WitnessNotFoundError(ValueError):
    """Raised when no common circuit through the two requested edges exists."""


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, str]
    label: Monomial

    def __post_init__(self) -> None:
        ends = self.ends
        if not isinstance(ends, tuple) or len(ends) != 2 or ends[0] > ends[1]:
            raise ValueError(f"edge {self.id!r}: endpoints must be stored sorted")

    @property
    def is_loop(self) -> bool:
        return self.ends[0] == self.ends[1]

    def other_end(self, v: str) -> str:
        a, b = self.ends
        return b if v == a else a


def _edge(eid: str, u: str, v: str, label: Monomial) -> Edge:
    return Edge(eid, (u, v) if u <= v else (v, u), label)


@dataclass(frozen=True)
class LabelledGraph:
    """Finite multigraph with Monomial edge labels over a generator context.

    Vertices and edges are normalised to sorted order at construction so
    that all derived output is deterministic.
    """

    generators: GeneratorSet
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if list(self.vertices) != sorted(self.vertices):
            raise ValueError("vertices must be stored sorted")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        ids = [e.id for e in self.edges]
        if ids != sorted(ids):
            raise ValueError("edges must be stored sorted by id")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        vset = set(self.vertices)
        # Labels are shared between edges, so each distinct label's
        # generators are checked once, at the first edge that carries it.
        checked: set[Monomial] = set()
        for e in self.edges:
            for v in e.ends:
                if v not in vset:
                    raise ValueError(f"edge {e.id!r} references unknown vertex {v!r}")
            if e.label not in checked:
                for g, _ in e.label.exps:
                    if g not in self.generators:
                        raise ValueError(
                            f"edge {e.id!r} label uses unknown generator {g!r}"
                        )
                checked.add(e.label)

    @classmethod
    def build(
        cls,
        generators: GeneratorSet,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, str, Monomial]],
    ) -> "LabelledGraph":
        """Construct from (edge id, end, end, label) tuples in any order."""
        es = tuple(
            sorted((_edge(i, u, v, l) for i, u, v, l in edges), key=lambda e: e.id)
        )
        return cls(generators, tuple(sorted(vertices)), es)

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_index[eid]
        except (KeyError, TypeError):
            raise ValueError(f"unknown edge id {eid!r}") from None

    # Like the memos kept in ``__dict__``, these two live outside the
    # fields that equality, hashing and repr read.
    @cached_property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    @cached_property
    def _edge_index(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    def labels(self) -> dict[str, Monomial]:
        return {e.id: e.label for e in self.edges}


def _component_min(vertices: Iterable[str], pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Map each vertex to the least member of its connected component.

    Union-find that always links the larger root under the smaller one, so
    every root is the least member of its set.
    """
    parent = {v: v for v in vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {v: find(v) for v in parent}


def connected_components(vertices: Iterable[str], pairs: Iterable[tuple[str, str]]) -> list[frozenset[str]]:
    comps: dict[str, set[str]] = {}
    for v, root in _component_min(vertices, pairs).items():
        comps.setdefault(root, set()).add(v)
    return [frozenset(c) for c in comps.values()]


def first_betti(G: LabelledGraph) -> int:
    """|E| - |V| + number of connected components (isolated vertices count)."""
    comps = connected_components(G.vertices, (e.ends for e in G.edges))
    return len(G.edges) - len(G.vertices) + len(comps)


def _blocks(vertices: Sequence[str], nonloop: Sequence[Edge]) -> list[frozenset[str]]:
    """Edge sets of the biconnected blocks of a loopless multigraph.

    Iterative lowpoint computation; parallel edges are distinguished by id,
    so a doubled edge already forms a block of its own.
    """
    adj: dict[str, list[tuple[str, str]]] = {}
    for e in nonloop:
        u, v = e.ends
        adj.setdefault(u, []).append((e.id, v))
        adj.setdefault(v, []).append((e.id, u))
    for v in adj:
        adj[v].sort()

    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    seen_edge: set[str] = set()
    estack: list[str] = []
    blocks: list[frozenset[str]] = []
    clock = 0

    for root in sorted(adj):
        if root in disc:
            continue
        disc[root] = low[root] = clock
        clock += 1
        frames: list[tuple[str, Optional[str], Iterable]] = [
            (root, None, iter(adj[root]))
        ]
        while frames:
            v, in_edge, it = frames[-1]
            descended = False
            for eid, w in it:
                if eid in seen_edge:
                    continue
                seen_edge.add(eid)
                estack.append(eid)
                if w not in disc:
                    disc[w] = low[w] = clock
                    clock += 1
                    frames.append((w, eid, iter(adj[w])))
                    descended = True
                    break
                low[v] = min(low[v], disc[w])
            if descended:
                continue
            frames.pop()
            if frames:
                u = frames[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        eid = estack.pop()
                        block.append(eid)
                        if eid == in_edge:
                            break
                    blocks.append(frozenset(block))
    return blocks


def circuit_partition(G: LabelledGraph) -> EdgePartition:
    """Partition of the edges into maximal circuit-connected classes.

    Loops are singleton classes; the remaining classes are the edge sets
    of the 2-vertex-connected blocks of the loop-deleted graph (bridges
    yield singletons).  The result is kept on G, which is immutable, so
    every later call on the same graph (the alignment checks, each
    ``circuit_witness``) returns it without a second block search.
    """
    found = G.__dict__.get("_circuit_partition")
    if found is None:
        classes = [frozenset([e.id]) for e in G.edges if e.is_loop]
        classes.extend(_blocks(G.vertices, [e for e in G.edges if not e.is_loop]))
        found = G.__dict__["_circuit_partition"] = tuple(sorted(classes, key=min))
    return found


def _two_disjoint_paths(adj, src, dst) -> list[list[tuple]]:
    """Two internally vertex-disjoint paths src -> dst, as (edge, vertex) steps.

    Unit-capacity augmenting paths on the vertex-split network; two
    augmentations always succeed here because the callers only ask inside
    a 2-vertex-connected block.  Each augmentation is one breadth-first
    search that reads a node's backward arcs from the list of arcs into
    that node, so it costs O(V + E) on the block (Edmonds-Karp with an
    indexed residual network).
    """
    # Nodes are (v, "in") / (v, "out"); src and dst are not split.
    flow: dict[tuple, int] = {}
    # Arcs by head node, each recorded when it first carries flow: the
    # candidates for the node's residual (backward) arcs, in the order of
    # ``flow``.
    into: dict[tuple, list[tuple]] = {}

    def residual_neighbours(node):
        kind = node[1]
        if kind == "out":
            v = node[0]
            for eid, w in adj[v]:
                tgt = (w, "in") if w not in (src, dst) else (w, "io")
                if flow.get((node, tgt, eid), 0) < 1:
                    yield tgt, (node, tgt, eid), 1
        if kind == "in":
            v = node[0]
            if flow.get(((v, "in"), (v, "out"), ""), 0) < 1:
                yield (v, "out"), ((v, "in"), (v, "out"), ""), 1
        if kind == "io":
            v = node[0]
            if v == src:
                for eid, w in adj[v]:
                    tgt = (w, "in") if w not in (src, dst) else (w, "io")
                    if flow.get((node, tgt, eid), 0) < 1:
                        yield tgt, (node, tgt, eid), 1
        # Residual (backward) arcs.
        for arc in into.get(node, ()):
            if flow[arc] > 0:
                yield arc[0], arc, -1

    source, sink = (src, "io"), (dst, "io")
    for _ in range(2):
        prev: dict[tuple, tuple] = {source: None}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if node == sink:
                break
            for tgt, arc, direction in residual_neighbours(node):
                if tgt not in prev:
                    prev[tgt] = (node, arc, direction)
                    queue.append(tgt)
        if sink not in prev:
            raise WitnessNotFoundError("no two disjoint paths found")
        node = sink
        while prev[node] is not None:
            parent, arc, direction = prev[node]
            if arc not in flow:
                into.setdefault(arc[1], []).append(arc)
            flow[arc] = flow.get(arc, 0) + direction
            node = parent

    # Decompose the flow into two edge paths from src to dst.
    out_arcs: dict[str, list[tuple[str, str]]] = {}
    for (a, b, eid), used in flow.items():
        if used > 0 and eid:
            out_arcs.setdefault(a[0], []).append((eid, b[0]))
    for v in out_arcs:
        out_arcs[v].sort(key=repr)
    paths = []
    for _ in range(2):
        path = []
        v = src
        while v != dst:
            eid, w = out_arcs[v].pop(0)
            path.append((eid, w))
            v = w
        paths.append(path)
    return paths


def circuit_witness(G: LabelledGraph, e: str, f: str) -> list[str]:
    """A circuit (closed walk, no repeated edge or intermediate vertex)
    containing both edges, listed as edge ids in traversal order.

    Raises WitnessNotFoundError when the edges lie in different classes of
    the circuit partition.  Implemented by subdividing both edges and
    finding two vertex-disjoint paths between the subdivision points.
    """
    if e == f:
        raise ValueError("the two edges must be distinct")
    part = circuit_partition(G)
    cls = next((c for c in part if e in c), None)
    if cls is None:
        raise ValueError(f"unknown edge id {e!r}")
    if f not in cls:
        G.edge(f)  # an unknown id is refused as such
        raise WitnessNotFoundError(
            f"edges {e!r} and {f!r} lie in different circuit classes"
        )

    block = [x for x in G.edges if x.id in cls]
    # Tuple sentinels cannot collide with real (string) vertex or edge ids.
    mid = {e: ("~", e), f: ("~", f)}
    adj: dict = {}

    def add(u, eid, v):
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))

    for edge in block:
        u, v = edge.ends
        if edge.id in mid:
            m = mid[edge.id]
            add(u, ("half-a", edge.id), m)
            add(m, ("half-b", edge.id), v)
        else:
            add(u, edge.id, v)
    for v in adj:
        adj[v].sort(key=repr)

    paths = _two_disjoint_paths(adj, mid[e], mid[f])
    forward, backward = paths[0], paths[1]
    walk = [step[0] for step in forward] + [step[0] for step in reversed(backward)]
    # Collapse the subdivision halves back onto the original edge ids.
    circuit: list[str] = []
    for eid in walk:
        orig = eid[1] if isinstance(eid, tuple) else eid
        if not circuit or circuit[-1] != orig:
            circuit.append(orig)
    if circuit and circuit[0] == circuit[-1] and len(circuit) > 1:
        circuit.pop()
    # The walk starts with a half of e, so e already leads.
    return circuit


@dataclass(frozen=True)
class GraphMorphism:
    """Map of labelled graphs: vertices to vertices, edges to edges or vertices.

    ``kept_generators`` records a generator-normalisation applied to the
    labels (None means the identity transform).
    """

    source: LabelledGraph
    target: LabelledGraph
    vertex_map: tuple[tuple[str, str], ...]
    edge_map: tuple[tuple[str, EdgeImage], ...]
    kept_generators: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        vm = dict(self.vertex_map)
        em = dict(self.edge_map)
        if set(vm) != set(self.source.vertices):
            raise ValueError("vertex map must be total on the source")
        if set(em) != set(self.source.edge_ids):
            raise ValueError("edge map must be total on the source")
        tverts = set(self.target.vertices)
        for v, w in vm.items():
            if w not in tverts:
                raise ValueError(f"vertex image {w!r} missing from target")
        tedges = {e.id: e for e in self.target.edges}
        for e in self.source.edges:
            kind, tid = em[e.id]
            u, v = e.ends
            if kind == "edge":
                te = tedges.get(tid)
                if te is None:
                    raise ValueError(f"unknown edge id {tid!r}")
                if {vm[u], vm[v]} != set(te.ends):
                    raise ValueError(f"edge {e.id!r}: endpoints do not commute")
                if self.transform_label(e.label) != te.label:
                    raise ValueError(f"edge {e.id!r}: labels do not match")
            elif kind == "vertex":
                if vm[u] != tid or vm[v] != tid:
                    raise ValueError(
                        f"contracted edge {e.id!r} must map onto its endpoint image"
                    )
            else:
                raise ValueError(f"bad edge image tag {kind!r}")

    @classmethod
    def identity(cls, G: LabelledGraph) -> "GraphMorphism":
        return cls(
            G,
            G,
            tuple((v, v) for v in G.vertices),
            tuple((e, ("edge", e)) for e in G.edge_ids),
        )

    def transform_label(self, m: Monomial) -> Monomial:
        if self.kept_generators is None:
            return m
        return m.restrict(self.kept_generators)

    @property
    def contracted_edges(self) -> frozenset[str]:
        return frozenset(e for e, (kind, _) in self.edge_map if kind == "vertex")

    @property
    def is_identity(self) -> bool:
        return (
            self.source == self.target
            and all(v == w for v, w in self.vertex_map)
            and all(img == ("edge", e) for e, img in self.edge_map)
            and self.kept_generators is None
        )


def _contraction(
    G: LabelledGraph, edge_ids: Iterable[str], label: Callable[[Monomial], Monomial]
) -> tuple[tuple[str, ...], tuple[Edge, ...], tuple, tuple]:
    """Vertices, relabelled edges, vertex map and edge map of G with the given
    edges contracted, as ``contract`` describes; the edges keep their order.
    """
    to_remove = set(edge_ids)
    unknown = to_remove - set(G.edge_ids)
    if unknown:
        raise ValueError(f"unknown edge ids {sorted(unknown)!r}")

    rep = _component_min(G.vertices, (e.ends for e in G.edges if e.id in to_remove))
    vertices = tuple(sorted(set(rep.values())))
    edges = tuple(
        _edge(e.id, rep[e.ends[0]], rep[e.ends[1]], label(e.label))
        for e in G.edges
        if e.id not in to_remove
    )
    vertex_map = tuple((v, rep[v]) for v in G.vertices)
    edge_map = tuple(
        (e.id, ("vertex", rep[e.ends[0]]) if e.id in to_remove else ("edge", e.id))
        for e in G.edges
    )
    return vertices, edges, vertex_map, edge_map


def contract(G: LabelledGraph, edge_ids: Iterable[str]) -> tuple[LabelledGraph, GraphMorphism]:
    """Remove the given edges and merge their endpoint classes.

    Merged vertices take the lexicographically least member id, so the
    result is reproducible.
    """
    vertices, edges, vertex_map, edge_map = _contraction(G, edge_ids, lambda m: m)
    H = LabelledGraph(G.generators, vertices, edges)
    return H, GraphMorphism(G, H, vertex_map, edge_map)


def _specialisation(
    G: LabelledGraph, nonunit_gens: Iterable[str]
) -> tuple[LabelledGraph, tuple, tuple]:
    """The graph ``specialise`` returns, with the vertex and edge maps of
    its morphism; no morphism is built or checked."""
    keep = frozenset(nonunit_gens)
    unknown = keep - set(G.generators.names)
    if unknown:
        raise ValueError(f"unknown generators {sorted(unknown)!r}")
    dead = [e.id for e in G.edges if not (e.label.support & keep)]
    vertices, edges, vertex_map, edge_map = _contraction(
        G, dead, lambda m: m.restrict(keep)
    )
    return LabelledGraph(G.generators.restrict(keep), vertices, edges), vertex_map, edge_map


def specialise(
    G: LabelledGraph, nonunit_gens: Iterable[str]
) -> tuple[LabelledGraph, GraphMorphism]:
    """Contract every edge whose label becomes a unit at the target point.

    A label becomes a unit exactly when its support is disjoint from
    ``nonunit_gens``.  The surviving labels drop the generators outside
    ``nonunit_gens`` (unit factors at the target) and the generator
    context is restricted accordingly.
    """
    H, vertex_map, edge_map = _specialisation(G, nonunit_gens)
    return H, GraphMorphism(G, H, vertex_map, edge_map, kept_generators=H.generators.names)


def compose(m1: GraphMorphism, m2: GraphMorphism) -> GraphMorphism:
    """Set-theoretic composition; the target of m1 must equal the source of m2."""
    if m1.target != m2.source:
        raise ValueError("composition mismatch: target of first != source of second")
    vm2 = dict(m2.vertex_map)
    em2 = dict(m2.edge_map)
    vmap = tuple((v, vm2[w]) for v, w in m1.vertex_map)
    emap = []
    for e, (kind, tid) in m1.edge_map:
        if kind == "vertex":
            emap.append((e, ("vertex", vm2[tid])))
        else:
            emap.append((e, em2[tid]))
    if m1.kept_generators is None and m2.kept_generators is None:
        kept = None
    else:
        k1 = m1.kept_generators if m1.kept_generators is not None else m1.source.generators.names
        k2 = set(m2.kept_generators) if m2.kept_generators is not None else set(k1)
        kept = tuple(g for g in k1 if g in k2)
    return GraphMorphism(m1.source, m2.target, vmap, tuple(emap), kept)
