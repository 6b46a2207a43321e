"""Shared graph builders and hypothesis strategies.

The brute-force oracles the tests compare against live in ``oracles.py``.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from graphalign import GeneratorSet, LabelledGraph, Monomial

GENS2 = GeneratorSet(("x", "y"))
GENS3 = GeneratorSet(("x", "y", "z"))


def mono(**exps) -> Monomial:
    return Monomial.from_dict(exps)


def twogon(label1=None, label2=None, nc=False) -> LabelledGraph:
    l1 = label1 if label1 is not None else mono(x=1)
    l2 = label2 if label2 is not None else mono(y=1)
    gens = GeneratorSet(("x", "y"), nc=nc)
    return LabelledGraph.build(
        gens, ["v1", "v2"], [("e1", "v1", "v2", l1), ("e2", "v1", "v2", l2)]
    )


def theta(l1=None, l2=None, l3=None, nc=False) -> LabelledGraph:
    labels = [
        l1 if l1 is not None else mono(x=1),
        l2 if l2 is not None else mono(y=1),
        l3 if l3 is not None else mono(z=1),
    ]
    gens = GeneratorSet(("x", "y", "z"), nc=nc)
    return LabelledGraph.build(
        gens,
        ["v1", "v2"],
        [(f"e{i+1}", "v1", "v2", l) for i, l in enumerate(labels)],
    )


def threecycle(l1=None, l2=None, l3=None, nc=False) -> LabelledGraph:
    labels = [
        l1 if l1 is not None else mono(x=1),
        l2 if l2 is not None else mono(y=1),
        l3 if l3 is not None else mono(z=1),
    ]
    gens = GeneratorSet(("x", "y", "z"), nc=nc)
    return LabelledGraph.build(
        gens,
        ["v1", "v2", "v3"],
        [
            ("e1", "v1", "v2", labels[0]),
            ("e2", "v2", "v3", labels[1]),
            ("e3", "v1", "v3", labels[2]),
        ],
    )


# Hypothesis strategies -----------------------------------------------------

def monomials(gens=("x", "y"), max_exp=3, allow_unit=True):
    entry = st.integers(min_value=0 if allow_unit else 0, max_value=max_exp)
    base = st.fixed_dictionaries({g: entry for g in gens}).map(
        lambda d: Monomial.from_dict({g: e for g, e in d.items() if e > 0})
    )
    if allow_unit:
        return base
    return base.filter(lambda m: not m.is_unit)


def nonunit_monomials(gens=("x", "y"), max_exp=3):
    return monomials(gens, max_exp).filter(lambda m: not m.is_unit)


@st.composite
def labelled_graphs(draw, max_vertices=5, max_edges=8, gens=("x", "y"), max_exp=2):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    k = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for i in range(k):
        u = draw(st.sampled_from(vertices))
        v = draw(st.sampled_from(vertices))
        label = draw(monomials(gens, max_exp))
        edges.append((f"e{i}", u, v, label))
    return LabelledGraph.build(GeneratorSet(tuple(gens)), vertices, edges)


@st.composite
def chained_blocks(draw, max_edges=9, gens=("x", "y"), max_exp=2, block_labels=None):
    """Blocks chained at cut vertices, each hung at a vertex drawn before it:
    loops, bridges, bundles of parallel edges and cycles (some with an edge
    doubled).  Edge ids are a shuffled numbering, so the blocks interleave
    in id order.  Each block is one circuit class; ``block_labels(k)``,
    when given, is a strategy for the k labels of a block, drawn in place
    of one independent label per edge."""
    vertices = ["v0"]
    pairs = []
    labels = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        at = draw(st.sampled_from(vertices))
        kind = draw(st.sampled_from(["loop", "bridge", "bundle", "cycle"]))
        if kind == "loop":
            block = [(at, at)]
        elif kind == "bridge":
            block = [(at, f"v{len(vertices)}")]
        elif kind == "bundle":
            block = [(at, f"v{len(vertices)}")] * draw(st.integers(2, 3))
        else:
            ring = [at] + [f"v{len(vertices) + i}" for i in range(draw(st.integers(2, 3)))]
            block = list(zip(ring, ring[1:] + ring[:1]))
            if draw(st.booleans()):
                block.append(block[0])
        if len(pairs) + len(block) > max_edges:
            break
        pairs.extend(block)
        vertices.extend(sorted({v for pair in block for v in pair} - set(vertices)))
        if block_labels is not None:
            labels.extend(draw(block_labels(len(block))))
    ids = draw(st.permutations(range(len(pairs))))
    if block_labels is None:
        labels = [draw(monomials(gens, max_exp)) for _ in pairs]
    edges = [(f"e{i}", u, v, label) for i, (u, v), label in zip(ids, pairs, labels)]
    return LabelledGraph.build(GeneratorSet(tuple(gens)), vertices, edges)


# Each is valued 1 where x is 1 and y is 0.
PRIMITIVES = (mono(x=1), mono(x=1, y=1), mono(x=1, y=2))


@st.composite
def _aligned_block(draw, k, max_exp):
    p = draw(st.sampled_from((None,) + PRIMITIVES))
    if p is None:
        return [Monomial.unit()] * k
    return [p.pow(draw(st.integers(1, max_exp))) for _ in range(k)]


def aligned_graphs(max_edges=9, max_exp=12):
    """``chained_blocks`` that are aligned by construction: each block's
    labels are all units, or powers p^1 .. p^max_exp of one primitive in
    ``PRIMITIVES``."""
    return chained_blocks(
        max_edges, block_labels=lambda k: _aligned_block(k, max_exp)
    )


def random_graph(rng: random.Random, max_vertices=5, max_edges=8, gens=("x", "y"), max_exp=2):
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    k = rng.randint(0, max_edges)
    edges = []
    for i in range(k):
        u, v = rng.choice(vertices), rng.choice(vertices)
        label = Monomial.from_dict(
            {g: e for g in gens if (e := rng.randint(0, max_exp)) > 0}
        )
        edges.append((f"e{i}", u, v, label))
    return LabelledGraph.build(GeneratorSet(tuple(gens)), vertices, edges)

