#!/usr/bin/env python3
"""Exhaustive small-graph sweep of the two oracle equivalences.

Enumerates multigraph shapes up to isomorphism (default: at most 4
vertices and 5 edges), checks the circuit partition against the
brute-force maximal-circuit computation, checks that the witness for
every ordered pair of edges in one class is an enumerated circuit
through both, checks the graph writer against ``json.dumps`` and the
parser on one labelling of every shape, checks every file ``write_atlas``
writes at bound 1 on that labelling against ``json.dumps`` of the object
it encodes and every overlap's inverted edges against the classes of
fresh contractions, checks ``enumerate_thickness`` at bounds 1 and 2 on that
labelling against the (b+1)^|E| filter that contracts every candidate's
zero edges afresh, checks ``trait_factorisation`` on that labelling at
every valuation with x and y in 0..2, at the default bound and at bound
1, against the filter over the whole graph's candidate product, and its
separatedness, which the ``trait`` command prints without checking, over
every pair of whole functions, gives
every shape a normal-crossings labelling (edge ``e{i}`` carries its own
generator ``g{i}``) and checks every file
``write_strata`` writes on it against ``json.dumps`` of the object it
encodes and every stratum against ``specialise``, which builds and checks
the stratum's morphism, and sweeps every labelling of the structurally
relevant edges to compare the partition-based alignment test with the
2-vertex-connected-subgraph oracle.  Prints counts; exits non-zero on any
mismatch.

Every oracle comes from tests/oracles.py, which the script loads by its
own path, so it runs from any directory once ``graphalign`` is importable:

    PYTHONPATH=src python3 scripts/oracle_sweep.py
"""

import argparse
import itertools
import json
import sys
import tempfile
import time
from pathlib import Path

from graphalign import (
    GeneratorSet,
    Monomial,
    Valuation,
    build_atlas,
    circuit_partition,
    enumerate_thickness,
    specialise,
    stratify,
    trait_factorisation,
)
from graphalign.formats import parse_graph, serialize_graph, write_atlas, write_strata

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    AlignmentSweep,
    atlas_files_oracle,
    brute_circuit_partition,
    brute_overlap_edges,
    brute_thickness,
    brute_trait,
    brute_trait_separated,
    canonical_shapes,
    contracted_classes,
    graph_to_obj,
    shape_graph,
    strata_files_oracle,
    witness_failures,
)


def written(write, obj) -> dict[str, str]:
    """File name to text of the directory ``write(obj, outdir)`` makes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        write(obj, out)
        return {p.name: p.read_text() for p in out.iterdir()}


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
    mismatches = swept = witnessed = texts = atlases = overlaps = 0
    strata_dirs = enumerated = traits = 0
    valuations = [Valuation.from_dict({"x": i, "y": j}) for i in range(3) for j in range(3)]
    sweep = AlignmentSweep(alphabet)

    for shape in shapes:
        # Cycling through the alphabet gives unit labels, powers, and shared
        # labels once a shape has more edges than the alphabet has entries.
        G = shape_graph(shape, [alphabet[i % len(alphabet)] for i in range(len(shape))])
        text = serialize_graph(G)
        texts += 1
        if text != json.dumps(graph_to_obj(G), indent=2) + "\n" or parse_graph(text) != G:
            print(f"WRITER MISMATCH on shape {shape}")
            mismatches += 1
        atlas = build_atlas(G, 1)
        atlases += 1
        if written(write_atlas, atlas) != atlas_files_oracle(atlas):
            print(f"ATLAS WRITER MISMATCH on shape {shape}")
            mismatches += 1
        classes = {M: contracted_classes(G, M) for M in atlas.charts}
        for (M, N), edges in atlas.overlaps.items():
            overlaps += 1
            if edges != brute_overlap_edges(M, N, classes[M], classes[N]):
                print(f"OVERLAP MISMATCH on shape {shape}, functions {M} and {N}")
                mismatches += 1
        gens = tuple(f"g{i}" for i in range(len(shape)))
        N = shape_graph(shape, [Monomial.generator(g) for g in gens], GeneratorSet(gens, nc=True))
        fam = stratify(N)
        strata_dirs += 1
        if written(write_strata, fam) != strata_files_oracle(fam):
            print(f"STRATA WRITER MISMATCH on shape {shape}")
            mismatches += 1
        for J, stratum in fam.strata.items():
            if stratum != specialise(N, J)[0]:
                print(f"STRATUM MISMATCH on shape {shape}, generators {sorted(J)}")
                mismatches += 1
        for bound in (1, 2):
            enumerated += 1
            if enumerate_thickness(G, bound) != brute_thickness(G, bound):
                print(f"THICKNESS MISMATCH on shape {shape}, bound {bound}")
                mismatches += 1
        for v, bound in itertools.product(valuations, (None, 1)):
            traits += 1
            fact = trait_factorisation(G, v, bound)
            if fact != brute_trait(G, v, bound) or not brute_trait_separated(G, fact):
                print(f"TRAIT MISMATCH on shape {shape}, valuation {dict(v.values)}, bound {bound}")
                mismatches += 1
        G0 = shape_graph(shape)
        if circuit_partition(G0) != brute_circuit_partition(G0):
            print(f"PARTITION MISMATCH on shape {shape}")
            mismatches += 1
            continue
        checked, failures = witness_failures(G0)
        witnessed += checked
        for e, f, w in failures:
            print(f"WITNESS MISMATCH on shape {shape}, edges {e} {f}: {w}")
        mismatches += len(failures)
        for vec, fast, oracle in sweep.labellings(shape):
            swept += 1
            if fast != oracle:
                print(f"ALIGNMENT MISMATCH on shape {shape}, labels {vec}")
                mismatches += 1

    elapsed = time.time() - start
    print(
        f"{len(shapes)} shapes, {swept} labelled graphs swept, "
        f"{witnessed} witnesses checked, {texts} graph texts checked, "
        f"{atlases} atlas directories checked, {overlaps} atlas overlaps checked, "
        f"{strata_dirs} strata directories checked, "
        f"{enumerated} thickness enumerations checked, "
        f"{traits} trait factorisations checked, "
        f"{mismatches} mismatches ({elapsed:.1f}s)"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
