"""Monomial-labelled multigraphs and their contraction machinery.

Graphs are finite, allow loops and parallel edges, and carry a Monomial
label per edge.  The central structure is the circuit-connected partition
of the edge set: loops are singletons, every other class is the edge set
of a 2-vertex-connected block of the loop-deleted graph.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
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
        # Labels are shared between edges, so each distinct label object's
        # generators are checked once, at the first edge that carries it.
        checked: set[int] = set()
        for e in self.edges:
            for v in e.ends:
                if v not in vset:
                    raise ValueError(f"edge {e.id!r} references unknown vertex {v!r}")
            if id(e.label) not in checked:
                for g, _ in e.label.exps:
                    if g not in self.generators:
                        raise ValueError(
                            f"edge {e.id!r} label uses unknown generator {g!r}"
                        )
                checked.add(id(e.label))

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

    # Like the memos kept in ``__dict__``, these three live outside the
    # fields that equality, hashing and repr read.
    @cached_property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    @cached_property
    def _edge_index(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _index(self) -> tuple[list[int], list[int]]:
        """The positions in ``vertices`` of each edge's lower and upper end,
        in the order of ``edges``."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        return [pos[e.ends[0]] for e in self.edges], [pos[e.ends[1]] for e in self.edges]

    def labels(self) -> dict[str, Monomial]:
        return {e.id: e.label for e in self.edges}


def _least_roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Map each position 0..n-1 to the least position of its connected component.

    Union-find that always links the larger root under the smaller one, so
    every root is the least member of its set and every parent lies below
    its child; one pass in increasing order then flattens every chain.
    """
    parent = list(range(n))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
    for v in range(n):
        parent[v] = parent[parent[v]]
    return parent


def first_betti(G: LabelledGraph) -> int:
    """|E| - |V| + number of connected components (isolated vertices count)."""
    lo, hi = G._index
    roots = _least_roots(len(G.vertices), zip(lo, hi))
    return len(G.edges) - len(G.vertices) + sum(v == r for v, r in enumerate(roots))


def _blocks(n: int, lo: Sequence[int], hi: Sequence[int]) -> list[list[int]]:
    """Edge positions of the biconnected blocks of a multigraph on vertex
    positions 0..n-1 with its loops deleted, edge i joining lo[i] and hi[i].

    Iterative lowpoint computation; parallel edges are distinguished by
    position, so a doubled edge already forms a block of its own.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(zip(lo, hi)):
        if a != b:
            adj[a].append(i)
            adj[b].append(i)
    # v ^ across[i] is the end of edge i opposite v.
    across = [a ^ b for a, b in zip(lo, hi)]
    disc = [0] * n  # discovery time from 1; 0 while unreached
    low = [0] * n
    used = bytearray(len(lo))
    estack: list[int] = []
    blocks: list[list[int]] = []
    clock = 0
    for root in range(n):
        if disc[root] or not adj[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        # (vertex, length of estack below its tree edge, unscanned edges)
        frames = [(root, 0, iter(adj[root]))]
        while frames:
            v, mark, it = frames[-1]
            for i in it:
                if used[i]:
                    continue
                used[i] = 1
                w = v ^ across[i]
                if not disc[w]:
                    frames.append((w, len(estack), iter(adj[w])))
                    estack.append(i)
                    clock += 1
                    disc[w] = low[w] = clock
                    break
                estack.append(i)
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        blocks.append(estack[mark:])
                        del estack[mark:]
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
        name = [e.id for e in G.edges].__getitem__
        found = G.__dict__["_circuit_partition"] = tuple(
            frozenset(map(name, c)) for c in _class_positions(G)
        )
    return found


def _class_positions(G: LabelledGraph) -> list[list[int]]:
    """The circuit classes as lists of edge positions, by least position."""
    lo, hi = G._index
    classes = [[i] for i, (a, b) in enumerate(zip(lo, hi)) if a == b]
    classes += _blocks(len(G.vertices), lo, hi)
    # Positions follow the sorted ids, so the least position is the least id.
    classes.sort(key=min)
    return classes


def _two_disjoint_paths(
    adj: Sequence[Sequence[int]], end: Sequence[int], src: int, dst: int
) -> list[list[int]]:
    """Two internally vertex-disjoint paths src -> dst, as lists of arcs;
    src has exactly two arcs, and the paths start with them in order.

    Arc a leaves vertex ``end[a]`` and enters ``end[a ^ 1]``; ``adj[v]``
    lists the arcs leaving v in the order the search scans them.
    Unit-capacity augmenting paths on the vertex-split network; two
    augmentations always succeed here because the callers only ask inside
    a 2-vertex-connected block.  Node 2v is v's in-node and 2v + 1 its
    out-node, joined by the inner arc ``len(end) + v``; src and dst are not
    split and are node 2v alone.  Each augmentation is one breadth-first
    search that scans a node's forward arcs, then the arc into it that
    carries flow, so it costs O(V + E).  A node has at most one such arc
    (an in-node passes one unit on through its inner arc, an out-node
    receives only that arc, and the sink is never scanned), so one slot
    per node holds the arc into it that last took flow.

    A search ends in the scan that first reaches the sink rather than when
    the sink would leave the queue: a node's parent is fixed when it is
    first reached, so the sink's parent chain, and with it the augmenting
    path, the flow and the circuit, are the same as if the search had run
    on until then.
    """
    inner = len(end)
    flow = bytearray(inner + len(adj))
    n = 2 * len(adj)
    into = [-1] * n  # node -> the arc into it that last took flow
    arc = [0] * n  # node -> the arc that reached it, ~a if taken backwards
    source, sink = 2 * src, 2 * dst
    for _ in range(2):
        parent = [-1] * n
        parent[source] = source
        queue = [source]
        for node in queue:
            v = node >> 1
            if node & 1 or v == src:
                for a in adj[v]:
                    if not flow[a]:
                        t = 2 * end[a ^ 1]
                        if parent[t] < 0:
                            parent[t] = node
                            arc[t] = a
                            queue.append(t)
                if parent[sink] >= 0:
                    break
            elif not flow[inner + v] and parent[node + 1] < 0:
                parent[node + 1] = node
                arc[node + 1] = inner + v
                queue.append(node + 1)
            a = into[node]
            if a >= 0 and flow[a]:
                # Back to the arc's tail: an in-node, src or an out-node.
                t = 2 * (a - inner) if a >= inner else 2 * end[a] + (end[a] != src)
                if parent[t] < 0:
                    parent[t] = node
                    arc[t] = ~a
                    queue.append(t)
        else:
            raise WitnessNotFoundError("no two disjoint paths found")
        node = sink
        while node != source:
            a = arc[node]
            if a >= 0:
                into[node] = a
                flow[a] = 1
            else:
                flow[~a] = 0
            node = parent[node]

    # Every other vertex on a path has one unit of capacity, so one arc of
    # the flow leaves it.
    leaving = {end[a]: a for a in compress(range(inner), flow)}
    paths = []
    for a in adj[src]:
        path = [a]
        while (v := end[a ^ 1]) != dst:
            a = leaving[v]
            path.append(a)
        paths.append(path)
    return paths


def circuit_witness(G: LabelledGraph, e: str, f: str) -> list[str]:
    """A circuit (closed walk, no repeated edge or intermediate vertex)
    containing both edges, listed as edge ids in traversal order.

    Raises WitnessNotFoundError when the edges lie in different classes of
    the circuit partition.  Implemented by subdividing both edges and
    finding two vertex-disjoint paths between the subdivision points.  G
    keeps a memo, built on first use, so that a warm call costs a scan for
    e's class, its search and a copy of its class's network:
    ``_flow_networks`` maps the index of a class in ``circuit_partition(G)``
    to that class's network, which holds the class's edge ids in repr
    order and the tail and scan order of every arc.
    """
    part = circuit_partition(G)
    k = next((k for k, c in enumerate(part) if e in c), None)
    if k is None:
        raise ValueError(f"unknown edge id {e!r}")
    if e == f:
        raise ValueError("the two edges must be distinct")
    if f not in part[k]:
        G.edge(f)  # an unknown id is refused as such
        raise WitnessNotFoundError(
            f"edges {e!r} and {f!r} lie in different circuit classes"
        )
    networks = G.__dict__.setdefault("_flow_networks", {})
    if k not in networks:
        # Class edge j (ids in repr order) joins its lower and upper end,
        # local vertices end[2j] and end[2j + 1]: arc 2j runs upwards along
        # it and arc 2j + 1 back, so each vertex lists its arcs by the repr
        # of their edge ids, the order of the search.  Arrays keep the memo
        # free of one int object per arc.
        lo, hi = G._index
        cls = part[k]
        edges = [(e.id, a, b) for e, a, b in zip(G.edges, lo, hi) if e.id in cls]
        edges.sort(key=lambda t: repr(t[0]))
        ids = [eid for eid, _, _ in edges]
        local: dict[int, int] = {}
        end = array("i", [local.setdefault(v, len(local)) for _, a, b in edges for v in (a, b)])
        adj = [array("i") for _ in local]
        for a, v in enumerate(end):
            adj[v].append(a)
        networks[k] = ids, end, adj
    ids, end, adj = networks[k]

    # Subdivide e and f at new vertices m: for an edge from u up to w, the
    # half-a arcs u -> m, m -> u and the half-b arcs m -> w, w -> m.  The
    # halves come after every whole edge at u and w, ordered by ("half-a"
    # or "half-b", repr of the id).  That arc order decides which circuit
    # is found, and tests/golden/witnesses.json pins it.
    gone = [2 * bisect_left(ids, repr(x), key=repr) + i for x in (e, f) for i in (0, 1)]
    end, adj = end[:], adj[:]
    halves: dict[int, list[tuple[str, str, int]]] = {}
    for j in gone[::2]:
        u, w, m, a = end[j], end[j + 1], len(adj), len(end)
        end.extend((u, m, m, w))
        adj.append([a + 1, a + 2])
        halves.setdefault(u, []).append(("half-a", repr(ids[j >> 1]), a))
        halves.setdefault(w, []).append(("half-b", repr(ids[j >> 1]), a + 3))
    for v, extra in halves.items():
        adj[v] = [a for a in adj[v] if a not in gone] + [a for *_, a in sorted(extra)]

    forward, backward = _two_disjoint_paths(adj, end, len(adj) - 2, len(adj) - 1)
    # Arc a runs along class edge a >> 1, or along a half of e or of f.
    names = ids + [e, e, f, f]
    circuit: list[str] = []
    for a in forward + backward[::-1]:
        orig = names[a >> 1]
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
        for pairs, found, what in ((self.vertex_map, vm, "vertex"), (self.edge_map, em, "edge")):
            if len(found) != len(pairs):
                twice = next(x for x, n in Counter(x for x, _ in pairs).items() if n > 1)
                raise ValueError(f"{what} map lists {twice!r} twice")
        if vm.keys() != set(self.source.vertices):
            raise ValueError("vertex map must be total on the source")
        if em.keys() != set(self.source.edge_ids):
            raise ValueError("edge map must be total on the source")
        tverts = set(self.target.vertices)
        for v, w in vm.items():
            if w not in tverts:
                raise ValueError(f"vertex image {w!r} missing from target")
        tedges = self.target._edge_index
        for e in self.source.edges:
            kind, tid = em[e.id]
            u, v = vm[e.ends[0]], vm[e.ends[1]]
            if kind == "edge":
                te = tedges.get(tid)
                if te is None:
                    raise ValueError(f"unknown edge id {tid!r}")
                if ((u, v) if u <= v else (v, u)) != te.ends:
                    raise ValueError(f"edge {e.id!r}: endpoints do not commute")
                if self.transform_label(e.label) != te.label:
                    raise ValueError(f"edge {e.id!r}: labels do not match")
            elif kind == "vertex":
                if u != tid or v != tid:
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
        return m.restrict(self._kept)

    # One set per morphism, not one per label; outside equality.
    @cached_property
    def _kept(self) -> frozenset[str]:
        return frozenset(self.kept_generators)

    @property
    def contracted_edges(self) -> frozenset[str]:
        return frozenset(e for e, (kind, _) in self.edge_map if kind == "vertex")


def _contraction(
    G: LabelledGraph, edge_ids: Iterable[str], label: Callable[[Monomial], Monomial]
) -> tuple[tuple[str, ...], tuple[Edge, ...], tuple, tuple]:
    """Vertices, relabelled edges, vertex map and edge map of G with the given
    edges contracted, as ``contract`` describes; the edges keep their order,
    and an edge whose ends and label do not change keeps its object.
    """
    to_remove = set(edge_ids)
    unknown = {e for e in to_remove if e not in G._edge_index}
    if unknown:
        raise ValueError(f"unknown edge ids {sorted(unknown)!r}")

    lo, hi = G._index
    dead = bytes(map(to_remove.__contains__, G.edge_ids))
    roots = _least_roots(len(G.vertices), compress(zip(lo, hi), dead))
    names = G.vertices
    vertices = tuple(v for i, v in enumerate(names) if roots[i] == i)
    edges = []
    for e, a, b, gone in zip(G.edges, lo, hi, dead):
        if gone:
            continue
        ra, rb, m = roots[a], roots[b], label(e.label)
        if ra == a and rb == b and m is e.label:
            edges.append(e)
        else:
            ends = (names[ra], names[rb]) if ra <= rb else (names[rb], names[ra])
            edges.append(Edge(e.id, ends, m))
    vertex_map = tuple(zip(names, [names[r] for r in roots]))
    edge_map = tuple(
        (e.id, ("vertex", names[roots[a]]) if gone else ("edge", e.id))
        for e, a, gone in zip(G.edges, lo, dead)
    )
    return vertices, tuple(edges), vertex_map, edge_map


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
