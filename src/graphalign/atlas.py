"""Thickness functions and the chart atlas they index.

A thickness function M assigns a non-negative integer to every edge; after
contracting the zero edges, each circuit class must have values with gcd 1.
Every valid M indexes one chart: a finitely presented algebra over the base
with, per class, an aligning variable a and invertible variables u_e tied
together by the binomials label(e) - a^{m_e} u_e and one torus relation
1 - prod u_e^{n_e} built from a fixed Bezout choice.  Labels of edges with
M(e) = 0 are formally inverted, which localises the chart away from their
vanishing loci.  Overlaps invert, in addition, the labels of every class
(on either side) that meets the disagreement set of the two functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .graph import LabelledGraph, _class_positions, circuit_partition, contract
from .labels import GeneratorSet, LaurentMonomial, Monomial, Valuation, _is_nc_label


@dataclass(frozen=True)
class ThicknessFunction:
    """Non-negative integer per edge, total on the controlling graph."""

    values: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [e for e, _ in self.values]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("thickness entries must be sorted by distinct edge id")
        for e, v in self.values:
            if v < 0:
                raise ValueError(f"thickness of {e!r} must be >= 0, got {v}")

    @classmethod
    def from_vector(cls, G: LabelledGraph, vector: Sequence[int]) -> "ThicknessFunction":
        ids = G.edge_ids
        if len(vector) != len(ids):
            raise ValueError(
                f"expected {len(ids)} values (edges {list(ids)}), got {len(vector)}"
            )
        return cls(tuple(zip(ids, (int(v) for v in vector))))

    def vector(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.values)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.vector())


def _check_total(G: LabelledGraph, M: ThicknessFunction) -> None:
    if tuple(e for e, _ in M.values) != G.edge_ids:
        raise ValueError("thickness function does not match the graph's edges")


def is_thickness_function(G: LabelledGraph, M: ThicknessFunction) -> bool:
    """Validity: per class of the contracted graph, the values have gcd 1.

    The identically-zero function is valid (no classes survive).
    """
    _check_total(G, M)
    return _is_valid(G, M.vector())


def enumerate_thickness(G: LabelledGraph, bound: int) -> list[ThicknessFunction]:
    """All valid thickness functions with values <= bound.

    Lexicographic in the edge-id-sorted value vectors; includes the zero
    function.  Each circuit class B is enumerated on its own graph (see
    ``_by_class``): sum over B of (b+1)^|B| validity checks, not (b+1)^|E|.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    return _by_class(G, [range(bound + 1)] * len(G.edges), is_thickness_function)


def _class_graphs(G: LabelledGraph) -> tuple[tuple[Sequence[int], LabelledGraph], ...]:
    """Each circuit class of G: its edge positions in G, ascending, and a
    graph of that class alone, kept on G with the zero patterns it
    memoises.  A graph of at most one class is its own class graph."""
    parts = circuit_partition(G)
    if len(parts) <= 1:
        return ((range(len(G.edges)), G),)
    found = G.__dict__.get("_class_graphs")
    if found is None:
        position = {e: i for i, e in enumerate(G.edge_ids)}
        found = []
        for cls in parts:
            places = sorted(position[e] for e in cls)
            edges = tuple(G.edges[i] for i in places)
            vertices = tuple(sorted({v for e in edges for v in e.ends}))
            found.append((places, LabelledGraph(G.generators, vertices, edges)))
        found = G.__dict__["_class_graphs"] = tuple(found)
    return found


def _by_class(G: LabelledGraph, candidates, keep) -> list[ThicknessFunction]:
    """The functions M with M(e_i) in candidates[i] (ascending) whose
    restriction to each circuit class B passes keep(H, M|B) on the graph H
    of B; lexicographic.  A cycle matroid is the direct sum of its
    components, the circuit classes, and contraction commutes with that
    sum: the classes of G/Z are those of B/(Z & B) over all B.  So validity
    and a trait's compatibility hold on G exactly when they hold on each B.
    """
    classes = _class_graphs(G)
    kept = []
    for places, H in classes:
        ids = H.edge_ids
        tried = itertools.product(*[candidates[i] for i in places])
        functions = (ThicknessFunction(tuple(zip(ids, vec))) for vec in tried)
        kept.append([M for M in functions if keep(H, M)])
    if len(kept) == 1:
        return kept[0]
    # Class edges interleave in id order: place each value at its position
    # in G, then sort back into lexicographic order.
    order = [i for places, _ in classes for i in places]
    place = itemgetter(*sorted(range(len(order)), key=order.__getitem__))
    parts = [[M.vector() for M in found] for found in kept]
    chain = itertools.chain.from_iterable
    vectors = sorted(place(tuple(chain(p))) for p in itertools.product(*parts))
    return [ThicknessFunction(tuple(zip(G.edge_ids, vec))) for vec in vectors]


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def bezout(ms: Sequence[int]) -> list[int]:
    """Coefficients n with sum(n_i * ms_i) == 1, fixed once and for all.

    Left fold of the extended Euclidean algorithm over the list order,
    stopping as soon as the running gcd reaches 1 (later coefficients are
    zero).  Requires gcd(ms) == 1 and positive entries.
    """
    if not ms:
        raise ValueError("bezout needs at least one integer")
    if any(m < 1 for m in ms):
        raise ValueError("bezout entries must be positive")
    if math.gcd(*ms) != 1:
        raise ValueError(f"gcd of {list(ms)} is not 1")
    g = ms[0]
    coeffs = [1]
    for m in ms[1:]:
        if g == 1:
            coeffs.append(0)
            continue
        g, s, t = _egcd(g, m)
        coeffs = [c * s for c in coeffs] + [t]
    return coeffs


@dataclass(frozen=True)
class ClassRow:
    """One edge of a chart class and its binomial relation, label = a^multiplicity * u.

    The Bezout coefficient is the edge's exponent in its class's torus relation.
    """

    edge: str
    label: Monomial
    multiplicity: int
    coefficient: int

    @property
    def unit_var(self) -> str:
        return f"u_{self.edge}"


@dataclass(frozen=True)
class ChartClass:
    """One class of a chart: a binomial relation per row, and the torus relation
    1 = prod u_e^{coefficient_e} over its rows."""

    edges: tuple[str, ...]
    rows: tuple[ClassRow, ...]

    @property
    def aligning_var(self) -> str:
        return f"a_{self.edges[0]}"


@dataclass(frozen=True)
class ChartPresentation:
    """Finitely presented algebra over the base attached to one thickness function."""

    base: GeneratorSet
    classes: tuple[ChartClass, ...]
    inverted: tuple[Monomial, ...]

    # Kept in ``__dict__``, outside the fields that equality reads.
    @cached_property
    def _edge_labels(self) -> dict[str, Monomial]:
        """The label of every edge in a class of the chart."""
        return {row.edge: row.label for cls in self.classes for row in cls.rows}

    def inverted_with(self, edges: Iterable[str]) -> tuple[Monomial, ...]:
        """The inverted labels of this chart with the labels of ``edges`` inverted too."""
        # An edge outside every class of the chart is contracted there, so its
        # label is inverted already.
        labels = self._edge_labels
        inverted = list(self.inverted)
        for e in sorted(edges):
            label = labels.get(e)
            if label is not None and label not in inverted:
                inverted.append(label)
        return tuple(inverted)

    def inverting(self, edges: Iterable[str]) -> "ChartPresentation":
        """This chart with the labels of ``edges`` inverted too."""
        return ChartPresentation(self.base, self.classes, self.inverted_with(edges))


def chart(G: LabelledGraph, M: ThicknessFunction) -> ChartPresentation:
    """The chart indexed by M.

    Per class of the contracted graph, emit one binomial per edge and the
    torus relation from the Bezout choice; the labels of M(e) = 0 edges go
    to the inverted list.
    """
    _check_total(G, M)
    vector = M.vector()
    if not _is_valid(G, vector):
        raise ValueError(f"not a thickness function: {M}")
    edges = G.edges
    chart_classes = []
    for cls in _classes(G, vector):
        ms = [vector[i] for i in cls]
        rows = tuple(
            ClassRow(edges[i].id, edges[i].label, m, n)
            for i, m, n in zip(cls, ms, bezout(ms))
        )
        chart_classes.append(ChartClass(tuple(edges[i].id for i in cls), rows))
    inverted = []
    for e, v in zip(edges, vector):
        if v == 0 and e.label not in inverted:
            inverted.append(e.label)
    var_names = {c.aligning_var for c in chart_classes}
    var_names.update(r.unit_var for c in chart_classes for r in c.rows)
    clash = var_names & set(G.generators.names)
    if clash:
        raise ValueError(f"chart variables collide with generators: {sorted(clash)}")
    return ChartPresentation(G.generators, tuple(chart_classes), tuple(inverted))


def _classes(G: LabelledGraph, vector: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The circuit classes of G/Z, Z the zero set of a value vector.

    Validity of a thickness function, the classes of its chart and its
    overlaps depend on the function only through Z = {e : M(e) = 0}.  So
    each zero pattern is contracted and partitioned once, and the result is
    kept on G, which is immutable: every call given the same graph shares
    it.  A class is a tuple of edge positions in ``G.edge_ids``, ascending,
    and the classes are ordered by first position, the order of
    ``circuit_partition`` and of chart classes.
    """
    memo = G.__dict__.setdefault("_zero_patterns", {})
    key = bytes(v == 0 for v in vector)
    found = memo.get(key)
    if found is None:
        # ``contract`` keeps the surviving edges in order: the j-th edge of
        # the contracted graph is G's edge kept[j].
        kept = [i for i, z in enumerate(key) if not z]
        parts = _class_positions(contract(G, [e.id for e, z in zip(G.edges, key) if z])[0])
        found = memo[key] = tuple(tuple(kept[j] for j in sorted(c)) for c in parts)
    return found


def _is_valid(G: LabelledGraph, vector: Sequence[int]) -> bool:
    return all(math.gcd(*[vector[i] for i in cls]) == 1 for cls in _classes(G, vector))


def _overlap_positions(G: LabelledGraph, a: Sequence[int], b: Sequence[int]) -> set[int]:
    """The edge positions of the classes of either side that meet {a != b}."""
    diff = {i for i, (x, y) in enumerate(zip(a, b)) if x != y}
    out: set[int] = set()
    for vector in (a, b):
        for cls in _classes(G, vector):
            if not diff.isdisjoint(cls):
                out.update(cls)
    return out


def verify_chart_substitution(c: ChartPresentation) -> bool:
    """Check that a |-> prod label^n, u |-> label * a^-m kills every relation.

    The substitution is evaluated in exact Laurent-monomial arithmetic;
    False indicates a construction bug, never bad input.
    """
    for cls in c.classes:
        a_sub = LaurentMonomial.one()
        for row in cls.rows:
            a_sub = a_sub * LaurentMonomial.from_monomial(row.label).pow(row.coefficient)
        u_subs = {}
        for row in cls.rows:
            u_subs[row.edge] = LaurentMonomial.from_monomial(row.label) * a_sub.pow(
                -row.multiplicity
            )
        for row in cls.rows:
            lhs = LaurentMonomial.from_monomial(row.label)
            rhs = a_sub.pow(row.multiplicity) * u_subs[row.edge]
            if lhs != rhs:
                return False
        torus = LaurentMonomial.one()
        for row in cls.rows:
            torus = torus * u_subs[row.edge].pow(row.coefficient)
        if not torus.is_one:
            return False
    return True


def overlap_edges(
    G: LabelledGraph, M: ThicknessFunction, N: ThicknessFunction
) -> frozenset[str]:
    """The disagreement locus: union over both sides of every class meeting {M != N}."""
    _check_total(G, M)
    _check_total(G, N)
    ids = G.edge_ids
    return frozenset(ids[i] for i in _overlap_positions(G, M.vector(), N.vector()))


def overlap(
    G: LabelledGraph, M: ThicknessFunction, N: ThicknessFunction
) -> tuple[frozenset[str], ChartPresentation]:
    """The overlap chart: chart(M) with the disagreement labels inverted too."""
    delta = overlap_edges(G, M, N)
    return delta, chart(G, M).inverting(delta)


@dataclass
class Atlas:
    """Charts for every valid thickness function up to the bound, plus overlaps.

    ``overlaps`` maps each pair (M, N), M before N, to the edges its overlap
    inverts, one object per distinct set; the overlap chart is
    ``charts[M].inverting(overlaps[(M, N)])``.
    """

    graph: LabelledGraph
    bound: int
    charts: dict[ThicknessFunction, ChartPresentation]
    overlaps: dict[tuple[ThicknessFunction, ThicknessFunction], frozenset[str]]


def build_atlas(G: LabelledGraph, bound: int) -> Atlas:
    """Charts in lexicographic order and one overlap per unordered pair.

    The functions come from ``enumerate_thickness`` on G, so they are total
    on it: the pairs skip the guards of ``overlap_edges``.
    """
    ms = enumerate_thickness(G, bound)
    charts = {M: chart(G, M) for M in ms}
    ids = G.edge_ids
    interned: dict[frozenset[str], frozenset[str]] = {}
    overlaps = {}
    pairs = itertools.combinations([(M, M.vector()) for M in ms], 2)
    for (M, a), (N, b) in pairs:
        delta = frozenset(ids[k] for k in _overlap_positions(G, a, b))
        overlaps[(M, N)] = interned.setdefault(delta, delta)
    return Atlas(G, bound, charts, overlaps)


@dataclass(frozen=True)
class FibreReport:
    nonempty: bool
    connected: bool
    torus_rank: int


def check_fibre_point(
    base: GeneratorSet, labels: Iterable[Monomial], vanishing: Iterable[str]
) -> None:
    """Refuse what ``closed_fibre`` cannot analyse: a vanishing generator
    outside the base, or a label that is neither a unit nor a single
    generator with exponent 1 (checked in the order given)."""
    unknown = frozenset(vanishing) - set(base.names)
    if unknown:
        raise ValueError(f"unknown generators {sorted(unknown)!r}")
    for m in labels:
        if not m.is_unit and not _is_nc_label(m):
            raise ValueError(
                f"closed-fibre analysis needs single-generator labels, got {m}"
            )


def closed_fibre(c: ChartPresentation, vanishing: Iterable[str]) -> FibreReport:
    """Fibre of the chart over the point where exactly ``vanishing`` vanishes.

    Requires weak normal-crossings labels (units or single generators with
    exponent 1).  The fibre is empty when an inverted label vanishes or a
    class mixes vanishing and non-vanishing labels; otherwise it is
    connected, and each class whose labels all vanish contributes a torus
    factor of rank (#edges - 1).
    """
    vanishing = frozenset(vanishing)
    rows = (row.label for cls in c.classes for row in cls.rows)
    check_fibre_point(c.base, itertools.chain(c.inverted, rows), vanishing)

    def vanishes(m: Monomial) -> bool:
        return bool(m.support & vanishing)

    if any(vanishes(m) for m in c.inverted):
        return FibreReport(False, False, 0)
    rank = 0
    for cls in c.classes:
        flags = [vanishes(row.label) for row in cls.rows]
        if any(flags) and not all(flags):
            return FibreReport(False, False, 0)
        if all(flags) and flags:
            rank += len(cls.edges) - 1
    return FibreReport(True, True, rank)


@dataclass(frozen=True)
class TraitFactorisation:
    """Thickness functions through which an integer valuation factors."""

    valuation: Valuation
    canonical: ThicknessFunction
    class_scales: tuple[tuple[tuple[str, ...], int], ...]
    bound: int
    all_valid: tuple[ThicknessFunction, ...]


def trait_factorisation(
    G: LabelledGraph, v: Valuation, bound: Optional[int] = None
) -> TraitFactorisation:
    """Factor a trait (an integer valuation on the base) through the atlas.

    The canonical thickness function vanishes where the edge valuation
    does and divides out the per-class gcd; all_valid collects every valid
    M with values <= bound compatible with the valuation: on each class of
    the contracted graph the edge valuations are t * M for one integer t.
    With the default bound the canonical function is always a member.

    Every member equals canonical on W1, the edges of nonzero valuation;
    only the edges of W0, the rest, are searched: sum over classes B of
    (b+1)^|B & W0| candidates.  Let M be compatible with zero set Z.  A W0
    edge outside Z has ratio 0 and a W1 edge a ratio >= 1, so every class
    of G/Z is pure: all of its valuations are 0, or none is.  The W0 edges
    outside Z thus lie in all-zero components of the cycle matroid of G/Z,
    and contracting them reaches G/W0 with every other component unchanged,
    since contraction commutes with a direct sum.  So the W1 classes of G/Z
    are those of G/W0, which give canonical, and gcd 1 forces M = w/t there.
    So all_valid is separated, for every bound: two members disagree only
    on W0, and a pure class holding a W0 edge has valuation 0 throughout.
    """
    ids = G.edge_ids
    vals = [v.of(e.label) for e in G.edges]
    scales = []
    canonical = [0] * len(vals)
    for cls in _classes(G, vals):
        t = math.gcd(*[vals[i] for i in cls])
        scales.append((tuple(ids[i] for i in cls), t))
        for i in cls:
            canonical[i] = vals[i] // t
    if bound is None:
        bound = max(canonical, default=0)
    elif bound < 0:
        raise ValueError("bound must be >= 0")

    candidates = [
        range(bound + 1) if w == 0 else [m] if m <= bound else []
        for w, m in zip(vals, canonical)
    ]
    valued = dict(zip(ids, vals))

    def compatible(H: LabelledGraph, M: ThicknessFunction) -> bool:
        vec, ws = M.vector(), [valued[e] for e in H.edge_ids]
        ratios = ({ws[i] // vec[i] for i in cls} for cls in _classes(H, vec))
        return all(len(t) == 1 for t in ratios) and _is_valid(H, vec)

    all_valid = tuple(_by_class(G, candidates, compatible))
    canonical_function = ThicknessFunction(tuple(zip(ids, canonical)))
    return TraitFactorisation(v, canonical_function, tuple(sorted(scales)), bound, all_valid)

