#!/usr/bin/env python3
"""Exhaustive small-graph sweep of the two oracle equivalences.

Enumerates multigraph shapes up to isomorphism (default: at most 4
vertices and 5 edges), checks the circuit partition against the
brute-force maximal-circuit computation, checks that the witness for
every ordered pair of edges in one class is an enumerated circuit
through both, checks the graph writer against ``json.dumps`` and the
parser on one labelling of every shape, checks every file ``write_atlas``
writes at bound 1 on that labelling against ``json.dumps`` of the object
it encodes, checks ``enumerate_thickness`` at bounds 1 and 2 on that
labelling against the (b+1)^|E| filter that contracts every candidate's
zero edges afresh, and sweeps every labelling of the structurally
relevant edges to compare the partition-based alignment test with the
2-vertex-connected-subgraph oracle.  Prints counts; exits non-zero on any
mismatch.
"""

import argparse
import itertools
import json
import math
import sys
import tempfile
import time
from pathlib import Path

from graphalign import (
    GeneratorSet,
    LabelledGraph,
    Monomial,
    ThicknessFunction,
    build_atlas,
    circuit_partition,
    circuit_witness,
    contracted_graph,
    enumerate_thickness,
)
from graphalign.alignment import _class_verdict
from graphalign.formats import graph_to_obj, parse_graph, serialize_graph, write_atlas
from graphalign.oracles import _has_common_root, atlas_files_oracle, enumerate_2vc_subgraphs


def canonical_shapes(max_vertices, max_edges):
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


def shape_graph(shape, labels):
    used = sorted({v for pair in shape for v in pair})
    return LabelledGraph.build(
        GeneratorSet(("x", "y")),
        [f"v{v}" for v in used],
        [(f"e{i}", f"v{a}", f"v{b}", labels[i]) for i, (a, b) in enumerate(shape)],
    )


def brute_circuits(G):
    """Every circuit of G, as a frozenset of edge ids, by explicit enumeration."""
    ids = sorted(G.edge_ids)
    circuits = []
    for size in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            edges = [G.edge(e) for e in combo]
            deg = {}
            for e in edges:
                for v in e.ends:
                    deg[v] = deg.get(v, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            verts = set(deg)
            seen = {min(verts)}
            frontier = [min(verts)]
            while frontier:
                at = frontier.pop()
                for e in edges:
                    if at in e.ends and e.other_end(at) not in seen:
                        seen.add(e.other_end(at))
                        frontier.append(e.other_end(at))
            if seen == verts:
                circuits.append(frozenset(combo))
    return circuits


def brute_partition(G, circuits):
    """Maximal circuit-connected sets from the enumerated circuits of G."""
    classes = set()
    for e in sorted(G.edge_ids):
        x = {e}
        for c in circuits:
            if e in c:
                x |= c
        classes.add(frozenset(x))
    return tuple(sorted(classes, key=min))


def brute_thickness(G, bound):
    """Every candidate vector with values <= bound whose classes, after its
    zero edges are contracted, each have gcd 1; lexicographic."""
    found = []
    for vec in itertools.product(range(bound + 1), repeat=len(G.edges)):
        M = ThicknessFunction.from_vector(G, vec)
        values = M.as_dict()
        parts = circuit_partition(contracted_graph(G, M))
        if all(math.gcd(*(values[e] for e in cls)) == 1 for cls in parts):
            found.append(M)
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=4)
    parser.add_argument("--max-edges", type=int, default=5)
    parser.add_argument("--max-exp", type=int, default=2)
    args = parser.parse_args(argv)

    alphabet = [
        Monomial.from_dict({g: e for g, e in (("x", i), ("y", j)) if e > 0})
        for i in range(args.max_exp + 1)
        for j in range(args.max_exp + 1)
    ]

    start = time.time()
    shapes = canonical_shapes(args.max_vertices, args.max_edges)
    mismatches = swept = witnessed = written = atlases = enumerated = 0
    class_cache, root_cache = {}, {}
    names = {k: tuple(f"d{i}" for i in range(k)) for k in range(1, args.max_edges + 1)}

    for shape in shapes:
        # Cycling through the alphabet gives unit labels, powers, and shared
        # labels once a shape has more edges than the alphabet has entries.
        G = shape_graph(shape, [alphabet[i % len(alphabet)] for i in range(len(shape))])
        text = serialize_graph(G)
        written += 1
        if text != json.dumps(graph_to_obj(G), indent=2) + "\n" or parse_graph(text) != G:
            print(f"WRITER MISMATCH on shape {shape}")
            mismatches += 1
        atlas = build_atlas(G, 1)
        with tempfile.TemporaryDirectory() as tmp:
            write_atlas(atlas, Path(tmp) / "atlas")
            files = {p.name: p.read_text() for p in (Path(tmp) / "atlas").iterdir()}
        atlases += 1
        if files != atlas_files_oracle(atlas):
            print(f"ATLAS WRITER MISMATCH on shape {shape}")
            mismatches += 1
        for bound in (1, 2):
            enumerated += 1
            if enumerate_thickness(G, bound) != brute_thickness(G, bound):
                print(f"THICKNESS MISMATCH on shape {shape}, bound {bound}")
                mismatches += 1
        G0 = shape_graph(shape, [alphabet[0]] * len(shape))
        circuits = set(brute_circuits(G0))
        if circuit_partition(G0) != brute_partition(G0, circuits):
            print(f"PARTITION MISMATCH on shape {shape}")
            mismatches += 1
            continue
        for cls in circuit_partition(G0):
            for e, f in itertools.permutations(sorted(cls), 2):
                w = circuit_witness(G0, e, f)
                witnessed += 1
                is_circuit = len(set(w)) == len(w) and frozenset(w) in circuits
                if not is_circuit or w[0] != e or f not in w:
                    print(f"WITNESS MISMATCH on shape {shape}, edges {e} {f}: {w}")
                    mismatches += 1
        idx = {e: i for i, e in enumerate(G0.edge_ids)}
        cgroups = [
            tuple(sorted(idx[e] for e in cls))
            for cls in circuit_partition(G0)
            if len(cls) > 1
        ]
        sgroups = [
            tuple(sorted(idx[e] for e in sub))
            for sub in enumerate_2vc_subgraphs(G0)
            if len(sub) > 1
        ]
        relevant = sorted({p for grp in cgroups + sgroups for p in grp})
        pos = {p: i for i, p in enumerate(relevant)}
        cpos = [tuple(pos[p] for p in grp) for grp in cgroups]
        spos = [tuple(pos[p] for p in grp) for grp in sgroups]
        for vec in itertools.product(range(len(alphabet)), repeat=len(relevant)):
            fast = True
            for grp in cpos:
                key = tuple(vec[q] for q in grp)
                v = class_cache.get(key)
                if v is None:
                    v = _class_verdict(
                        names[len(key)], [alphabet[i] for i in key]
                    ).aligned
                    class_cache[key] = v
                if not v:
                    fast = False
                    break
            orac = True
            for grp in spos:
                key = tuple(vec[q] for q in grp)
                v = root_cache.get(key)
                if v is None:
                    v = _has_common_root([alphabet[i] for i in key])
                    root_cache[key] = v
                if not v:
                    orac = False
                    break
            swept += 1
            if fast != orac:
                print(f"ALIGNMENT MISMATCH on shape {shape}, labels {vec}")
                mismatches += 1

    elapsed = time.time() - start
    print(
        f"{len(shapes)} shapes, {swept} labelled graphs swept, "
        f"{witnessed} witnesses checked, {written} graph texts checked, "
        f"{atlases} atlas directories checked, "
        f"{enumerated} thickness enumerations checked, "
        f"{mismatches} mismatches ({elapsed:.1f}s)"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
