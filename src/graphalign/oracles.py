"""Brute-force oracles that tests and scripts/oracle_sweep.py compare against.

They re-derive the circuit classes and the alignment verdict the slow way:
every 2-vertex-connected edge subset, and for each one a direct search for
a common root of its labels.  The package does not import this module.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from .graph import Edge, LabelledGraph, connected_components
from .labels import Monomial

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
