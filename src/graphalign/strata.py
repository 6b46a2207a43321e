"""Stratified controlled families over a normal-crossings monomial base.

Strata are indexed by the subsets J of the generators appearing on the
controlling graph: the stratum at J is the specialisation that keeps
exactly the J-generators non-unit.  The subset lattice doubles as the
specialisation poset, and the controlling-point condition becomes a
search for a generic stratum reached without contracting any edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import GraphMorphism, LabelledGraph, _specialisation, specialise
from .labels import _is_nc_label


@dataclass(frozen=True)
class StratifiedFamily:
    """The controlling graph and, keyed by J, the stratum graph at J."""

    controlling: LabelledGraph
    strata: dict[frozenset[str], LabelledGraph]

    def subsets(self) -> list[frozenset[str]]:
        return sorted(self.strata, key=lambda J: (len(J), tuple(sorted(J))))

    @property
    def covers(self) -> list[tuple[frozenset[str], frozenset[str]]]:
        """The covering pairs (J, J minus one generator) of the subset lattice.

        ``specialisation_map(fam, J, J2)`` gives the morphism along each.
        """
        return [(J, J - {g}) for J in self.subsets() for g in sorted(J)]


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
        if not g or "," in g:
            # Strata are named "{g1,g2,...}", so two would share a name.
            raise ValueError(f"generator {g!r} cannot name a stratum: it is empty or holds ','")
        if g in seen:
            raise ValueError(
                f"edges {seen[g]!r} and {e.id!r} share the label {m}; "
                "normal crossings needs pairwise distinct labels"
            )
        seen[g] = e.id
    return sorted(seen)


def stratify(G: LabelledGraph) -> StratifiedFamily:
    """All strata of the family controlled by G, over its NC base.

    One stratum per subset of the generators appearing on G, each the graph
    ``specialise`` gives; the morphisms between strata are built and checked
    on demand by ``specialisation_map``.
    """
    support = _require_nc(G)
    top = frozenset(support)
    strata: dict[frozenset[str], LabelledGraph] = {}
    for r in range(len(support) + 1):
        for combo in itertools.combinations(support, r):
            J = frozenset(combo)
            # The most special stratum is the controlling graph itself,
            # including generators no label uses.
            strata[J] = G if J == top else _specialisation(G, J)[0]
    return StratifiedFamily(G, strata)


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
    src = fam.strata[J]
    if J == J2:
        return GraphMorphism.identity(src)
    graph, phi = specialise(src, J2)
    if graph != fam.strata[J2]:
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
    identity and is accepted without being built.

    On every family that ``stratify`` builds the check passes by
    construction, and the witness is always the first candidate: each
    label surviving in stratum J is a single generator in J, so that set
    lies within J and its map keeps every edge.  Whether the condition
    needs J' to be a proper subset of J is an open question.
    """
    witnesses = []
    failures = []
    for J in fam.subsets():
        used = frozenset(g for e in fam.strata[J].edges for g in e.label.support)
        found: Optional[frozenset[str]] = None
        for J2 in (used, J):
            if J2 == J or (J2 <= J and not specialisation_map(fam, J, J2).contracted_edges):
                found = J2
                break
        if found is None:
            failures.append((tuple(sorted(J)), "every specialisation contracts an edge"))
        else:
            witnesses.append((tuple(sorted(J)), tuple(sorted(found))))
    return ControllingReport(not failures, tuple(witnesses), tuple(failures))
