"""Alignment predicates on labelled graphs.

A graph is aligned when, class by class of the circuit partition, all
labels are positive powers of one common element.  Unit labels are only
admissible when the whole class consists of units; mixed classes fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import LabelledGraph, circuit_partition
from .labels import Monomial, _is_nc_label, primitive_root


@dataclass(frozen=True)
class ClassAlignment:
    """Verdict for one class of the circuit partition."""

    edges: tuple[str, ...]
    aligned: bool
    primitive: Optional[Monomial] = None
    multiplicities: Optional[tuple[tuple[str, int], ...]] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class AlignmentReport:
    aligned: bool
    classes: tuple[ClassAlignment, ...]
    unit_edges: tuple[str, ...]


def _class_verdict(edges: Sequence[str], labels: Sequence[Monomial]) -> ClassAlignment:
    # edges and labels are parallel sequences; callers pass edges sorted.
    edges = tuple(edges)
    units = [m.is_unit for m in labels]
    if all(units):
        return ClassAlignment(edges, True)
    if any(units):
        # A unit can only be a positive power of a unit, which the other
        # labels are not; such classes normally disappear by contraction.
        return ClassAlignment(
            edges, False, reason="class mixes unit and non-unit labels"
        )
    found = primitive_root(list(labels))
    if found is None:
        return ClassAlignment(
            edges, False, reason="labels admit no common primitive root"
        )
    p, mults = found
    return ClassAlignment(edges, True, p, tuple(zip(edges, mults)))


def check_alignment(G: LabelledGraph) -> AlignmentReport:
    """Alignment report: one verdict per circuit class.

    Singleton classes are always aligned; a class with >= 2 edges needs a
    common primitive root for its labels (or must consist purely of units).
    The report is kept on G, which is immutable, like its circuit
    partition, so the strong level and ``resolve`` read these verdicts
    without deciding alignment again.
    """
    found = G.__dict__.get("_alignment")
    if found is None:
        by_id = G.labels()
        classes = tuple(
            _class_verdict(edges, [by_id[e] for e in edges])
            for edges in map(sorted, circuit_partition(G))
        )
        found = G.__dict__["_alignment"] = AlignmentReport(
            aligned=all(c.aligned for c in classes),
            classes=classes,
            unit_edges=tuple(sorted(e for e, m in by_id.items() if m.is_unit)),
        )
    return found


def is_aligned(G: LabelledGraph) -> bool:
    return check_alignment(G).aligned


def is_irregularly_aligned(G: LabelledGraph) -> bool:
    """Pairwise power-equivalence within every class, the same verdict as
    ``is_aligned`` in the monomial model.

    Power-equivalence is equality of primitive parts, so the labels of a
    class are pairwise power-equivalent exactly when they share a primitive
    root; a unit is power-equivalent only to a unit, so a class passes with
    unit labels only when all of them are units.  Both are the per-class
    verdicts of ``check_alignment``.
    """
    return is_aligned(G)


def strong_alignment_level(G: LabelledGraph) -> Optional[int]:
    """Least e such that the graph is e-strongly aligned, or None.

    Loops are excluded.  Per block of the loop-deleted graph, one element
    a must realise every label as a^r with 0 <= r <= e, and the chosen
    tuple must be a weak normal-crossings family; for monomials that
    forces each a to be a unit or a single generator with exponent 1.  So
    all-unit classes pass, any other class must be aligned with such a
    primitive, and e is the largest multiplicity in ``check_alignment``'s
    verdicts.  Classes mixing unit and non-unit labels are not aligned,
    which keeps strong alignment within plain alignment.
    """
    loops = {e.id for e in G.edges if e.is_loop}
    level = 0
    for c in check_alignment(G).classes:
        if c.edges[0] in loops or (c.aligned and c.primitive is None):
            continue
        if not c.aligned or not _is_nc_label(c.primitive):
            return None
        level = max(level, max(n for _, n in c.multiplicities))
    return level
