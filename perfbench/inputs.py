"""Seeded input graphs for the benchmark, with their structure planted.

Every graph is assembled from 2-connected pieces (cycles C_n, theta graphs
theta_k with k parallel edges, wheels W_n, n x n grids) joined at cut
vertices or linked by bridges, plus loops.  Each piece, bridge and loop is
therefore one class of the circuit partition by construction, and the
planted labels fix each class's alignment verdict.

The seed chooses names (vertex, edge and generator ids are permuted), where
pieces are glued, and how a fixed multiset of multiplicities is spread over
a class.  It never changes the shapes, the class sizes or the multiset of
label exponents, so the amount of work an operation does stays the same
from seed to seed while its inputs differ.

Generator names are ``g<i>``, edge ids ``e<i>`` and vertex ids ``n<i>``,
so nothing collides with the chart variables ``a_<edge>`` / ``u_<edge>``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

Label = dict  # generator name -> positive exponent


# ---------------------------------------------------------------- shapes


def cycle(n: int) -> tuple[int, list[tuple[int, int]]]:
    """C_n on local vertices 0..n-1 (n = 1 is a loop, n = 2 a 2-gon)."""
    if n == 1:
        return 1, [(0, 0)]
    return n, [(i, (i + 1) % n) for i in range(n)]


def theta(k: int) -> tuple[int, list[tuple[int, int]]]:
    """theta_k: two vertices joined by k parallel edges."""
    return 2, [(0, 1)] * k


def wheel(n: int) -> tuple[int, list[tuple[int, int]]]:
    """W_n: hub 0 joined to every vertex of the rim cycle 1..n."""
    spokes = [(0, i) for i in range(1, n + 1)]
    rim = [(i, i % n + 1) for i in range(1, n + 1)]
    return n + 1, spokes + rim


def grid(n: int) -> tuple[int, list[tuple[int, int]]]:
    """The n x n grid graph (2n(n-1) edges), 2-connected for n >= 2."""
    edges = []
    for r in range(n):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                edges.append((v, v + 1))
            if r + 1 < n:
                edges.append((v, v + n))
    return n * n, edges


SHAPES = {"cycle": cycle, "theta": theta, "wheel": wheel, "grid": grid}


# ---------------------------------------------------------------- graphs


@dataclass
class GraphSpec:
    """A generated graph together with the structure planted in it.

    ``classes`` is the circuit partition by construction.  ``aligned`` is
    the planted verdict per class; for the classes planted aligned,
    ``primitive`` is the class primitive and ``mult`` each edge's
    multiplicity (label == primitive ** mult).
    """

    name: str
    generators: list[str]
    nc: bool
    vertices: list[str]
    edges: list[tuple[str, str, str, Label]]
    classes: list[frozenset] = field(default_factory=list)
    aligned: dict = field(default_factory=dict)
    primitive: dict = field(default_factory=dict)
    mult: dict = field(default_factory=dict)
    # The unnamed structure: vertex count and edge end pairs, and the name
    # given to each abstract edge.  Copies of one structure share it, so
    # oracles are computed once per structure.
    structure: tuple = ()
    edge_of: list[str] = field(default_factory=list)

    @property
    def labels(self) -> dict[str, Label]:
        return {e: lab for e, _, _, lab in self.edges}

    @property
    def ends(self) -> dict[str, tuple[str, str]]:
        return {e: (u, v) for e, u, v, _ in self.edges}

    @property
    def edge_ids(self) -> list[str]:
        return sorted(e for e, _, _, _ in self.edges)

    def to_obj(self) -> dict:
        return {
            "generators": list(self.generators),
            "nc": self.nc,
            "vertices": list(self.vertices),
            "edges": [
                {"id": e, "ends": [u, v], "label": dict(sorted(lab.items()))}
                for e, u, v, lab in self.edges
            ],
        }

    def write(self, directory: Path) -> Path:
        path = Path(directory) / f"{self.name}.graph"
        path.write_text(json.dumps(self.to_obj()) + "\n")
        return path


class Assembly:
    """Integer-indexed multigraph under construction, one class at a time."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.nv = 0
        self.edges: list[tuple[int, int]] = []
        self.classes: list[list[int]] = []

    def _add_class(self, pairs) -> None:
        start = len(self.edges)
        self.edges.extend(pairs)
        self.classes.append(list(range(start, len(self.edges))))

    def _fresh(self) -> int:
        self.nv += 1
        return self.nv - 1

    def add_piece(self, shape: tuple[int, list[tuple[int, int]]], link: str) -> None:
        """Add a 2-connected piece.

        ``link`` is "glue" (one of its vertices is a random existing
        vertex), "bridge" (a new edge joins one of its vertices to a random
        existing vertex) or "free".
        """
        n, local = shape
        anchor = self.rng.randrange(self.nv) if self.nv else None
        shared = self.rng.randrange(n) if link == "glue" and anchor is not None else None
        ids = [anchor if i == shared else self._fresh() for i in range(n)]
        self._add_class([(ids[a], ids[b]) for a, b in local])
        if link == "bridge" and anchor is not None:
            self._add_class([(anchor, ids[self.rng.randrange(n)])])

    def add_loop(self) -> None:
        v = self.rng.randrange(self.nv)
        self._add_class([(v, v)])

    def add_leaf(self) -> None:
        v = self.rng.randrange(self.nv)
        self._add_class([(v, self._fresh())])


def block_tree(
    rng: random.Random,
    pieces: list[tuple[str, int]],
    bridges: int = 0,
    loops: int = 0,
    leaves: int = 0,
) -> Assembly:
    """Random block tree over the given pieces.

    The pieces are shuffled; ``bridges`` of them are linked to the graph
    built so far by a bridge and the rest share a cut vertex with it.
    ``leaves`` pendant bridges and ``loops`` loops hang from random
    vertices.  Every piece, bridge and loop is one circuit class.
    """
    order = list(pieces)
    rng.shuffle(order)
    links = ["bridge"] * bridges + ["glue"] * (len(order) - 1 - bridges)
    rng.shuffle(links)
    g = Assembly(rng)
    for i, (kind, size) in enumerate(order):
        g.add_piece(SHAPES[kind](size), "free" if i == 0 else links[i - 1])
    for _ in range(leaves):
        g.add_leaf()
    for _ in range(loops):
        g.add_loop()
    return g


def _ids(prefix: str, count: int, rng: random.Random) -> list[str]:
    width = len(str(max(count - 1, 0)))
    numbers = list(range(count))
    rng.shuffle(numbers)
    return [f"{prefix}{k:0{width}d}" for k in numbers]


def _spread(values, count: int, rng: random.Random) -> list[int]:
    """``count`` values cycling through ``values``, in seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def plant(
    name: str,
    g: Assembly,
    rng: random.Random,
    policy: str,
    mults: tuple[int, ...] = (1,),
    n_gens: int = 2,
    misaligned: bool = False,
) -> GraphSpec:
    """Plant labels on the assembly, then give everything seeded names.

    ``policy`` is "aligned" or "nc".  Aligned: class i takes generator
    i mod n_gens as its primitive and its edges carry powers spread from
    ``mults``.  With ``misaligned``, every class with two or more edges
    gets one label multiplied by an extra generator (index ``n_gens``)
    used nowhere else, so no power of the primitive equals it.  NC: every
    edge gets a generator of its own with exponent 1.
    """
    nc = policy == "nc"
    if nc:
        n_gens = len(g.edges)
    labels: dict[int, dict[int, int]] = {}
    aligned, primitive, mult = {}, {}, {}
    for ci, cls in enumerate(g.classes):
        if nc:
            for j in cls:
                labels[j] = {j: 1}
            aligned[ci] = len(cls) == 1
            if len(cls) == 1:
                primitive[ci], mult[cls[0]] = {cls[0]: 1}, 1
            continue
        p = ci % n_gens
        for j, m in zip(cls, _spread(mults, len(cls), rng)):
            labels[j], mult[j] = {p: m}, m
        primitive[ci], aligned[ci] = {p: 1}, True
        if misaligned and len(cls) >= 2:
            j = cls[rng.randrange(len(cls))]
            labels[j] = {p: labels[j][p], n_gens: 1}
            aligned[ci] = False
            del primitive[ci]
            for k in cls:
                del mult[k]
    n_used = n_gens + (not nc and misaligned)
    return _named(name, g, labels, n_used, nc, rng, aligned, primitive, mult)


def _named(name, g, labels, n_gens, nc, rng, aligned, primitive, mult) -> GraphSpec:
    vnames = _ids("n", g.nv, rng)
    enames = _ids("e", len(g.edges), rng)
    gnames = [f"g{i}" for i in range(n_gens)]
    perm = list(gnames)
    rng.shuffle(perm)

    def lab(d: dict[int, int]) -> Label:
        return {perm[i]: e for i, e in d.items()}

    spec = GraphSpec(
        name,
        gnames,
        nc,
        sorted(vnames),
        [(enames[j], vnames[a], vnames[b], lab(labels[j])) for j, (a, b) in enumerate(g.edges)],
        mult={enames[j]: m for j, m in mult.items()},
        structure=(g.nv, tuple(g.edges)),
        edge_of=enames,
    )
    rng.shuffle(spec.edges)
    for ci, cls in enumerate(g.classes):
        key = frozenset(enames[j] for j in cls)
        spec.classes.append(key)
        spec.aligned[key] = aligned[ci]
        if ci in primitive:
            spec.primitive[key] = lab(primitive[ci])
    return spec


# The shapes of the test fixtures: (vertex count, edges as (end, end,
# label over generator indices), circuit classes as edge indices, generator
# count, nc).  Copies of them get seeded names like every other input.
FIXTURES = {
    "twogon": (2, [(0, 1, {0: 1}), (0, 1, {1: 1})], [[0, 1]], 2, True),
    "threecycle": (3, [(0, 1, {0: 1}), (1, 2, {1: 1}), (0, 2, {2: 1})], [[0, 1, 2]], 3, True),
    "theta": (2, [(0, 1, {0: 1}), (0, 1, {1: 1}), (0, 1, {2: 1})], [[0, 1, 2]], 3, True),
    "mixed6": (
        4,
        [(0, 1, {1: 1}), (0, 0, {0: 1}), (1, 2, {2: 1}), (1, 2, {2: 2}),
         (3, 2, {0: 1, 1: 1}), (3, 1, {1: 2})],
        [[0], [1], [2, 3, 4, 5]],
        3,
        False,
    ),
    "wheel": (5, [(0, i, {0: 1}) for i in range(1, 5)]
              + [(1, 2, {0: 1}), (2, 3, {0: 1}), (3, 4, {0: 1}), (1, 4, {0: 1})],
              [list(range(8))], 1, False),
}


def fixture(name: str, rng: random.Random) -> GraphSpec:
    """A copy of the named fixture shape with seeded names.

    Only the classes are planted; the atlas checks need nothing more.
    """
    nv, edges, classes, n_gens, nc = FIXTURES[name]
    g = Assembly(rng)
    g.nv = nv
    g.edges = [(a, b) for a, b, _ in edges]
    g.classes = classes
    labels = {j: lab for j, (_, _, lab) in enumerate(edges)}
    verdict = {ci: None for ci in range(len(classes))}
    return _named(name, g, labels, n_gens, nc, rng, verdict, {}, {})
