"""Stratified controlled families over a normal-crossings monomial base.

Strata are indexed by the subsets J of the generators appearing on the
controlling graph: the stratum at J is the specialisation that keeps
exactly the J-generators non-unit.  The subset lattice doubles as the
specialisation poset, and the controlling-point condition becomes a
search for a generic stratum reached without contracting any edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .graph import GraphMorphism, LabelledGraph, specialise
from .labels import GeneratorSet, _is_nc_label


@dataclass(frozen=True)
class Stratum:
    gens: frozenset[str]
    graph: LabelledGraph
    from_controlling: GraphMorphism


@dataclass
class StratifiedFamily:
    base: GeneratorSet
    controlling: LabelledGraph
    strata: dict[frozenset[str], Stratum]
    covers: dict[tuple[frozenset[str], frozenset[str]], GraphMorphism] = field(
        default_factory=dict
    )

    @property
    def support(self) -> frozenset[str]:
        return frozenset().union(
            *(e.label.support for e in self.controlling.edges)
        ) if self.controlling.edges else frozenset()

    def subsets(self) -> list[frozenset[str]]:
        return sorted(self.strata, key=lambda J: (len(J), tuple(sorted(J))))


def _require_nc(G: LabelledGraph) -> list[str]:
    """Check that G fits its NC base; return the generators labelling it, sorted."""
    if not G.generators.nc:
        raise ValueError("stratification requires a base declared normal-crossings")
    seen: dict = {}
    for e in G.edges:
        m = e.label
        if m.is_unit:
            raise ValueError(
                f"edge {e.id!r} carries a unit label; contract it before stratifying"
            )
        if not _is_nc_label(m):
            raise ValueError(
                f"edge {e.id!r}: normal crossings needs single-generator labels, got {m}"
            )
        g = m.exps[0][0]
        if g in seen:
            raise ValueError(
                f"edges {seen[g]!r} and {e.id!r} share the label {m}; "
                "normal crossings needs pairwise distinct labels"
            )
        seen[g] = e.id
    return sorted(seen)


def stratify(G: LabelledGraph) -> StratifiedFamily:
    """All strata of the family controlled by G, over its NC base.

    One stratum per subset of the generators appearing on G, together with
    the specialisation morphism from the controlling graph, plus the
    morphisms along every covering relation of the subset lattice.
    """
    support = _require_nc(G)
    strata: dict[frozenset[str], Stratum] = {}
    for r in range(len(support) + 1):
        for combo in itertools.combinations(support, r):
            J = frozenset(combo)
            if J == frozenset(support):
                # The most special stratum is the controlling graph itself,
                # including generators no label uses.
                graph, phi = G, GraphMorphism.identity(G)
            else:
                graph, phi = specialise(G, J, normalise=True)
            strata[J] = Stratum(J, graph, phi)
    fam = StratifiedFamily(G.generators, G, strata)
    for J in fam.subsets():
        for g in sorted(J):
            J2 = J - {g}
            fam.covers[(J, J2)] = specialisation_map(fam, J, J2)
    return fam


def specialisation_map(
    fam: StratifiedFamily, J: Iterable[str], J2: Iterable[str]
) -> GraphMorphism:
    """Morphism from the stratum at J to the stratum at J2 (J2 within J).

    An edge survives exactly when its label's support meets J2; the result
    matches the directly computed specialisation of the stratum.
    """
    J = frozenset(J)
    J2 = frozenset(J2)
    if not J2 <= J:
        raise ValueError(f"{sorted(J2)} is not a subset of {sorted(J)}")
    if J not in fam.strata or J2 not in fam.strata:
        raise ValueError("unknown stratum")
    src = fam.strata[J].graph
    if J == J2:
        return GraphMorphism.identity(src)
    graph, phi = specialise(src, J2, normalise=True)
    if graph != fam.strata[J2].graph:
        raise AssertionError("stratum mismatch; contraction naming bug")
    return phi


@dataclass(frozen=True)
class ControllingReport:
    passed: bool
    witnesses: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    failures: tuple[tuple[tuple[str, ...], str], ...]


def verify_controlling(fam: StratifiedFamily) -> ControllingReport:
    """Check the controlling-point condition stratum by stratum.

    For each stratum J we need some J' within J whose specialisation map
    contracts no edge (an isomorphism on the underlying graph).  The
    canonical candidate is the set of generators actually labelling the
    stratum; the only other one tried is J itself, whose map is the
    identity.
    """
    witnesses = []
    failures = []
    for J in fam.subsets():
        stratum = fam.strata[J]
        used = frozenset(
            g for e in stratum.graph.edges for g in e.label.support
        )
        found: Optional[frozenset[str]] = None
        for J2 in (used, J):
            if J2 <= J and not specialisation_map(fam, J, J2).contracted_edges:
                found = J2
                break
        if found is None:
            failures.append((tuple(sorted(J)), "every specialisation contracts an edge"))
        else:
            witnesses.append((tuple(sorted(J)), tuple(sorted(found))))
    return ControllingReport(not failures, tuple(witnesses), tuple(failures))
