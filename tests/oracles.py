"""Brute-force oracles that the tests and scripts/oracle_sweep.py compare against.

Each re-derives a result the slow way, sharing no shortcut with the code
under test: circuit classes from every circuit, alignment from every
2-vertex-connected subgraph and a direct common-root search, thickness
functions by contracting every candidate afresh, and the text of every
atlas, trace and strata file as ``json.dumps`` of an object built field by
field.  Trait factorisations are filtered over the candidate product of the
whole graph and their separatedness checked over every pair of whole
functions, both on fresh contractions, and the controlling-point witness
of each stratum is searched through specialisation maps.  The two disjoint
paths of a circuit witness have a second search, kept in dicts of tuples
and run until the sink leaves its queue.  The package holds none of this;
the script loads it by its path.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import deque
from dataclasses import replace
from typing import Optional, Sequence

from graphalign import (
    Atlas,
    ChartPresentation,
    Edge,
    GeneratorSet,
    LabelledGraph,
    Monomial,
    ResolutionTrace,
    StratifiedFamily,
    ThicknessFunction,
    TraitFactorisation,
    Valuation,
    WitnessNotFoundError,
    circuit_partition,
    circuit_witness,
    closed_fibre,
    contract,
    is_thickness_function,
    power_equivalent,
    specialisation_map,
)
from graphalign.alignment import AlignmentReport, _class_verdict
from graphalign.formats import _chart_parts, _label, _list

ORACLE_EDGE_CAP = 12


def canonical_shapes(max_vertices=4, max_edges=5) -> list[tuple[tuple[int, int], ...]]:
    """Edge multisets on at most ``max_vertices`` vertices with 1 to
    ``max_edges`` edges, one representative per isomorphism class, ordered
    by edge count and then by the edge pairs."""
    verts = range(max_vertices)
    pairs = [(i, j) for i in verts for j in verts if i <= j]
    perms = list(itertools.permutations(verts))
    seen = set()
    for k in range(1, max_edges + 1):
        for combo in itertools.combinations_with_replacement(pairs, k):
            sig = min(
                tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in combo))
                for p in perms
            )
            seen.add(sig)
    return sorted(seen, key=lambda s: (len(s), s))


def shape_graph(
    shape,
    labels: Optional[Sequence[Monomial]] = None,
    base: GeneratorSet = GeneratorSet(("x", "y")),
) -> LabelledGraph:
    """The graph of ``shape`` over ``base`` (the generators x, y unless
    given): edge ``e{i}`` joins ``v{a}`` and ``v{b}`` for the i-th pair
    (a, b) and carries ``labels[i]`` (``x`` on every edge when no labels
    are given)."""
    used = sorted({v for pair in shape for v in pair})
    if labels is None:
        labels = [Monomial.from_dict({"x": 1})] * len(shape)
    return LabelledGraph.build(
        base,
        [f"v{v}" for v in used],
        [(f"e{i}", f"v{a}", f"v{b}", labels[i]) for i, (a, b) in enumerate(shape)],
    )


def _is_circuit(G: LabelledGraph, subset: Sequence[str]) -> bool:
    """A subset of edges is a single circuit iff every touched vertex has
    degree exactly 2 (a loop contributes 2) and the subgraph is connected."""
    edges = [G.edge(e) for e in subset]
    deg: dict[str, int] = {}
    for e in edges:
        for v in e.ends:
            deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    verts = set(deg)
    seen = {min(verts)}
    frontier = list(seen)
    while frontier:
        at = frontier.pop()
        for e in edges:
            if at in e.ends:
                a, b = e.ends
                other = b if at == a else a
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
    return seen == verts


def all_circuits(G: LabelledGraph) -> list[frozenset[str]]:
    """Every circuit of G, as a set of edge ids, by trying every edge subset."""
    ids = sorted(G.edge_ids)
    return [
        frozenset(combo)
        for size in range(1, len(ids) + 1)
        for combo in itertools.combinations(ids, size)
        if _is_circuit(G, combo)
    ]


def brute_circuit_partition(G: LabelledGraph) -> tuple[frozenset[str], ...]:
    """Maximal circuit-connected sets via X(e) = {e} + all co-circuit edges."""
    circuits = all_circuits(G)
    classes = set()
    for e in G.edge_ids:
        x = {e}
        for c in circuits:
            if e in c:
                x |= c
        classes.add(frozenset(x))
    return tuple(sorted(classes, key=min))


def witness_failures(G: LabelledGraph) -> tuple[int, list[tuple[str, str, list[str]]]]:
    """``circuit_witness(G, e, f)`` for every ordered pair of distinct edges
    in one circuit class, against the enumerated circuits: the number of
    pairs checked, and each (e, f, w) whose w is not a circuit that starts
    at e and passes through f."""
    circuits = set(all_circuits(G))
    checked, failures = 0, []
    for cls in circuit_partition(G):
        for e, f in itertools.permutations(sorted(cls), 2):
            w = circuit_witness(G, e, f)
            checked += 1
            is_circuit = len(set(w)) == len(w) and frozenset(w) in circuits
            if not is_circuit or w[0] != e or f not in w:
                failures.append((e, f, w))
    return checked, failures


def two_disjoint_paths_oracle(
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
    search that scans a node's forward arcs, then the arcs into it that
    carry flow in the order they first did, so it costs O(V + E).
    """
    inner = len(end)
    flow = bytearray(inner + len(adj))
    into: dict[int, list[int]] = {}  # node -> arcs into it that have carried flow
    source, sink = 2 * src, 2 * dst
    for _ in range(2):
        prev: dict[int, Optional[tuple[int, int, int]]] = {source: None}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if node == sink:
                break
            v = node >> 1
            if node & 1 or v == src:
                for a in adj[v]:
                    if not flow[a]:
                        t = 2 * end[a ^ 1]
                        if t not in prev:
                            prev[t] = (node, a, 1)
                            queue.append(t)
            elif v != dst and not flow[inner + v] and node + 1 not in prev:
                prev[node + 1] = (node, inner + v, 1)
                queue.append(node + 1)
            for a in into.get(node, ()):
                if flow[a]:
                    # Back to the arc's tail: an in-node, src or an out-node.
                    t = 2 * (a - inner) if a >= inner else 2 * end[a] + (end[a] != src)
                    if t not in prev:
                        prev[t] = (node, a, -1)
                        queue.append(t)
        if sink not in prev:
            raise WitnessNotFoundError("no two disjoint paths found")
        node = sink
        while (step := prev[node]) is not None:
            parent, a, direction = step
            if direction > 0:
                into.setdefault(node, []).append(a)
            flow[a] = direction > 0
            node = parent

    # Every other vertex on a path has one unit of capacity, so one arc of
    # the flow leaves it.
    leaving = {end[a]: a for arcs in into.values() for a in arcs if a < inner and flow[a]}
    paths = []
    for a in adj[src]:
        path = [a]
        while (v := end[a ^ 1]) != dst:
            a = leaving[v]
            path.append(a)
        paths.append(path)
    return paths


def connected_components(vertices, pairs) -> list[frozenset[str]]:
    """The vertex sets of the components of the graph on ``vertices`` with
    an edge per pair, found by depth-first search."""
    adjacent: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in pairs:
        adjacent[a].add(b)
        adjacent[b].add(a)
    comps, seen = [], set()
    for v in adjacent:
        if v not in seen:
            comp, stack = set(), [v]
            while stack:
                u = stack.pop()
                if u not in comp:
                    comp.add(u)
                    stack.extend(adjacent[u] - comp)
            seen |= comp
            comps.append(frozenset(comp))
    return comps


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
            n = dict(m.exps).get(root.exps[0][0], 0) // root.exps[0][1]
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


def irregularly_aligned_oracle(G: LabelledGraph) -> bool:
    """Pairwise power-equivalence within every class: a pair with a unit
    passes only when both labels are units."""
    by_id = G.labels()
    for cls in circuit_partition(G):
        labels = [by_id[e] for e in sorted(cls)]
        for a, b in itertools.combinations(labels, 2):
            if a.is_unit or b.is_unit:
                if not (a.is_unit and b.is_unit):
                    return False
            elif not power_equivalent(a, b):
                return False
    return True


def strong_level_oracle(G: LabelledGraph) -> Optional[int]:
    """The strong alignment level from the labels themselves, not from the
    alignment verdicts: per non-loop class, all units pass, a unit beside a
    non-unit fails, and otherwise every label must be a power of one and
    the same generator; the level is the largest such power."""
    by_id = G.labels()
    loops = {e.id for e in G.edges if e.is_loop}
    level = 0
    for cls in circuit_partition(G):
        if cls <= loops:
            continue
        labels = [by_id[e] for e in sorted(cls)]
        units = [m.is_unit for m in labels]
        if all(units):
            continue
        if any(units):
            return None
        supports = set().union(*(m.support for m in labels))
        if len(supports) != 1:
            return None
        level = max(level, max(e for m in labels for _, e in m.exps))
    return level


def class_multiplicities(r: AlignmentReport) -> dict[str, tuple[Monomial, int]]:
    """Per edge of a class that the report finds aligned with a primitive,
    that primitive and the power of it that the edge's label is."""
    return {
        e: (c.primitive, n)
        for c in r.classes
        if c.primitive is not None
        for e, n in c.multiplicities
    }


class AlignmentSweep:
    """The partition-based alignment test against the 2-vertex-connected
    subgraph oracle, on every labelling of a shape over an alphabet.

    Only the structurally relevant edges vary: an edge that no multi-edge
    circuit class and no multi-edge 2-vertex-connected subgraph touches
    cannot change either verdict, so its label stays ``alphabet[0]``.  Each
    verdict depends only on the labels of one class or subgraph, so both
    are memoised per tuple of alphabet indices, across shapes.
    """

    def __init__(self, alphabet: Sequence[Monomial]):
        def fast(key: tuple[int, ...]) -> bool:
            names = tuple(f"d{i}" for i in range(len(key)))
            return _class_verdict(names, [alphabet[i] for i in key]).aligned

        def oracle(key: tuple[int, ...]) -> bool:
            return _has_common_root([alphabet[i] for i in key])

        self._size = len(alphabet)
        self._fast = functools.cache(fast)
        self._oracle = functools.cache(oracle)

    def labellings(self, shape) -> list[tuple[tuple[int, ...], bool, bool]]:
        """``(vec, fast, oracle)`` for each labelling, in lexicographic order
        of ``vec``: edge ``e{i}`` of ``shape_graph(shape)`` carries
        ``alphabet[vec[i]]``, and ``fast`` and ``oracle`` are its two
        alignment verdicts."""
        G = shape_graph(shape)
        position = {e: int(e[1:]) for e in G.edge_ids}
        classes = [
            tuple(sorted(position[e] for e in cls))
            for cls in circuit_partition(G)
            if len(cls) > 1
        ]
        subsets = [
            tuple(sorted(position[e] for e in sub))
            for sub in enumerate_2vc_subgraphs(G)
            if len(sub) > 1
        ]
        relevant = {p for grp in classes + subsets for p in grp}
        choices = [range(self._size) if p in relevant else (0,) for p in range(len(shape))]
        fast, oracle = self._fast, self._oracle
        return [
            (
                vec,
                all(fast(tuple(vec[p] for p in grp)) for grp in classes),
                all(oracle(tuple(vec[p] for p in grp)) for grp in subsets),
            )
            for vec in itertools.product(*choices)
        ]


def contracted_classes(G: LabelledGraph, M: ThicknessFunction) -> tuple[frozenset[str], ...]:
    """The circuit classes of G with M's zero edges contracted, computed
    afresh on every call (no zero-pattern cache)."""
    return circuit_partition(contract(G, [e for e, m in M.values if m == 0])[0])


def brute_overlap_edges(
    M: ThicknessFunction, N: ThicknessFunction, classes_of_M, classes_of_N
) -> frozenset[str]:
    """The edges the overlap of chart(M) and chart(N) inverts: every edge of
    a contracted class of M or of N that holds an edge where M and N differ."""
    theirs = dict(N.values)
    diff = {e for e, v in M.values if theirs[e] != v}
    return frozenset(e for cls in (*classes_of_M, *classes_of_N) if cls & diff for e in cls)


def brute_thickness(G: LabelledGraph, bound: int) -> list[ThicknessFunction]:
    """Every candidate vector with values <= bound whose classes, after its
    zero edges are contracted, each have gcd 1; lexicographic."""
    found = []
    for vec in itertools.product(range(bound + 1), repeat=len(G.edges)):
        M = ThicknessFunction.from_vector(G, vec)
        values = dict(M.values)
        if all(math.gcd(*(values[e] for e in cls)) == 1 for cls in contracted_classes(G, M)):
            found.append(M)
    return found


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _edge_valuations(G: LabelledGraph, v: Valuation) -> list[int]:
    return [v.of(e.label) for e in G.edges]


def brute_trait(
    G: LabelledGraph, v: Valuation, bound: Optional[int] = None
) -> TraitFactorisation:
    """``trait_factorisation`` on the whole graph: every vector of the
    candidate product over all edges is checked for compatibility on the
    classes of a fresh contraction, made once per zero set within the call,
    and then through ``is_thickness_function``."""
    ids = G.edge_ids
    vals = dict(zip(ids, _edge_valuations(G, v)))
    memo: dict[frozenset[str], tuple[frozenset[str], ...]] = {}

    def classes(values: dict[str, int]) -> tuple[frozenset[str], ...]:
        zero = frozenset(e for e in ids if values[e] == 0)
        if zero not in memo:
            memo[zero] = contracted_classes(G, ThicknessFunction(tuple(values.items())))
        return memo[zero]

    scales = []
    canonical = dict.fromkeys(ids, 0)
    for cls in classes(vals):
        t = math.gcd(*[vals[e] for e in cls])
        scales.append((tuple(e for e in ids if e in cls), t))
        for e in cls:
            canonical[e] = vals[e] // t
    if bound is None:
        bound = max(canonical.values(), default=0)
    elif bound < 0:
        raise ValueError("bound must be >= 0")

    # Ascending candidates give the vectors in lexicographic order.  An edge
    # of nonzero valuation only takes divisors of it, so M never vanishes
    # there and divides the valuation on every class.
    candidates = [
        range(bound + 1) if w == 0 else [d for d in _divisors(w) if d <= bound]
        for w in vals.values()
    ]
    valid = []
    for vec in itertools.product(*candidates):
        values = dict(zip(ids, vec))
        if all(len({vals[e] // values[e] for e in cls}) == 1 for cls in classes(values)):
            M = ThicknessFunction(tuple(values.items()))
            if is_thickness_function(G, M):
                valid.append(M)
    return TraitFactorisation(
        v,
        ThicknessFunction(tuple(canonical.items())),
        tuple(sorted(scales)),
        bound,
        tuple(valid),
    )


def brute_trait_separated(G: LabelledGraph, fact: TraitFactorisation) -> bool:
    """Separatedness over every pair of whole functions of fact.all_valid:
    each overlap, on G, holds only edges of valuation 0.  The ``trait``
    command prints it from the valued-edge lemma without a check."""
    vals = dict(zip(G.edge_ids, _edge_valuations(G, fact.valuation)))
    classes = [contracted_classes(G, M) for M in fact.all_valid]
    pairs = itertools.combinations(zip(fact.all_valid, classes), 2)
    for (M, of_M), (N, of_N) in pairs:
        if any(vals[e] for e in brute_overlap_edges(M, N, of_M, of_N)):
            return False
    return True


def _dump(obj) -> str:
    """``json.dumps(obj, indent=2)`` plus a newline: the canonical text of
    every output file."""
    return json.dumps(obj, indent=2) + "\n"


def monomial_to_obj(m: Monomial) -> dict[str, int]:
    return {g: e for g, e in m.exps}


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


def analysis_json(r: AlignmentReport, level: Optional[int]) -> str:
    """The text of ``analyze --format json``: the report's object with
    ``irregularly_aligned`` and ``strong_level`` added."""
    obj = alignment_report_to_obj(r)
    obj["irregularly_aligned"] = r.aligned
    obj["strong_level"] = level
    return _dump(obj)


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


def rendered_relations(c: ChartPresentation) -> list[str]:
    """The chart's relations as text, named from the edges: per class, one
    ``label = a_<first edge>^m * u_<edge>`` line per edge, then the torus
    relation ``1 = u_<edge>^n * ...`` with the Bezout coefficients."""
    lines = []
    for cls in c.classes:
        a = f"a_{cls.edges[0]}"
        lines += [f"{row.label} = {a}^{row.multiplicity} * u_{row.edge}" for row in cls.rows]
        lines.append("1 = " + " * ".join(f"u_{row.edge}^{row.coefficient}" for row in cls.rows))
    return lines


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
        "rendered": rendered_relations(c),
    }


def serialize_chart(c: ChartPresentation) -> str:
    """The canonical text of c from the writer's fragments, with nothing
    shared between files: equal to ``_dump(chart_to_obj(c))``."""
    head, tail = _chart_parts(c)
    return head + _list([_label(m, 2) for m in c.inverted], 1) + tail


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
        entry: dict = {"values": dict(M.values), "file": fname}
        if vanishing is not None:
            fr = closed_fibre(c, vanishing)
            entry["fibre"] = {
                "vanishing": sorted(vanishing),
                "nonempty": fr.nonempty,
                "connected": fr.connected,
                "torus_rank": fr.torus_rank,
            }
        index["charts"].append(entry)
    # An edge outside every class of chart(M) is contracted there, so its
    # label is inverted already.
    labels = atlas.graph.labels()
    for (M, N), edges in atlas.overlaps.items():
        fname = _chart_filename("overlap", M, N)
        c = atlas.charts[M]
        inverted = list(c.inverted)
        for e in sorted(edges):
            if labels[e] not in inverted:
                inverted.append(labels[e])
        files[fname] = _dump(chart_to_obj(replace(c, inverted=tuple(inverted))))
        index["overlaps"].append(
            {
                "left": dict(M.values),
                "right": dict(N.values),
                "inverted_edges": sorted(edges),
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
    log: dict = {"valuation": dict(trace.valuation.values), "steps": []}
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
        graph = fam.strata[J]
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


def controlling_oracle(fam: StratifiedFamily) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
    """The controlling-point witness of each stratum J, searched: the
    generators labelling the stratum, if they lie within J and their
    specialisation map from J contracts no edge, else J itself through the
    identity.  ``specialisation_map`` raises ``unknown stratum`` when that
    labelling set is a proper subset of J that indexes no stratum of fam."""
    witnesses = []
    for J in fam.subsets():
        used = frozenset(g for e in fam.strata[J].edges for g in e.label.support)
        for J2 in (used, J):
            if J2 == J or (J2 <= J and not specialisation_map(fam, J, J2).contracted_edges):
                witnesses.append((tuple(sorted(J)), tuple(sorted(J2))))
                break
    return tuple(witnesses)
