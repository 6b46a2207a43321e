#!/usr/bin/env python3
"""Graph-core timings on square grids, as in ROADMAP item 7's table.

For each size n the script builds the n x n grid (2n(n - 1) edges, the
horizontal ones labelled x and the vertical ones y) and prints, per
operation, the best of ``--repeat`` runs in plain wall seconds:

    build               LabelledGraph.build from (id, end, end, label) tuples
    contract(G, [])     the empty contraction, with its checked morphism
    specialise          specialise(G, ["x"]): every vertical edge contracted,
                        with its checked morphism
    check_alignment     the alignment report of the one circuit class
    circuit_partition   the block search
    parse_graph         parse_graph on the grid's canonical serialize_graph text
    circuit_witness     circuit_witness(G, e, f) for the top-row edge of the
                        middle column and the bottom-row edge below it

Every timed call but the witness gets a fresh copy of the grid, so nothing
a graph keeps from one call (its circuit partition, its index view) helps
the next.  The witness is timed warm, on a copy that has already answered
the same pair, so its partition and class network are built and the
figure is the search and the copy of the network alone: the benchmark's
``core_large`` witnesses run on graphs loaded once, so that is the case
it measures.
Like scripts/oracle_sweep.py it needs ``graphalign`` importable:

    PYTHONPATH=src python3 scripts/core_timings.py [--sizes 100 200] [--repeat 3]
"""

import argparse
import time

from graphalign import (
    GeneratorSet,
    LabelledGraph,
    Monomial,
    check_alignment,
    circuit_partition,
    circuit_witness,
    contract,
    specialise,
)
from graphalign.formats import parse_graph, serialize_graph

X, Y = Monomial.generator("x"), Monomial.generator("y")


def grid_edges(n: int) -> list[tuple[str, str, str, Monomial]]:
    v = [[f"v{r}_{c}" for c in range(n)] for r in range(n)]
    edges = [(v[r][c], v[r][c + 1], X) for r in range(n) for c in range(n - 1)]
    edges += [(v[r][c], v[r + 1][c], Y) for r in range(n - 1) for c in range(n)]
    return [(f"e{i}", a, b, label) for i, (a, b, label) in enumerate(edges)]


def best(repeat: int, make, run) -> float:
    """Least wall time of ``run(make())`` over ``repeat`` calls; ``make`` is not timed."""
    times = []
    for _ in range(repeat):
        arg = make()
        t0 = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - t0)
    return min(times)


def timings(n: int, repeat: int) -> dict[str, float]:
    gens = GeneratorSet(("x", "y"))
    names = [f"v{r}_{c}" for r in range(n) for c in range(n)]
    edges = grid_edges(n)
    G = LabelledGraph.build(gens, names, edges)
    text = serialize_graph(G)

    def fresh() -> LabelledGraph:
        return LabelledGraph(G.generators, G.vertices, G.edges)

    # Horizontal edge c of row r is e{r(n - 1) + c}.
    c = (n - 1) // 2
    pair = f"e{c}", f"e{(n - 1) * (n - 1) + c}"
    warm = fresh()
    circuit_witness(warm, *pair)

    return {
        "build": best(repeat, lambda: None, lambda _: LabelledGraph.build(gens, names, edges)),
        "contract(G, [])": best(repeat, fresh, lambda H: contract(H, [])),
        "specialise": best(repeat, fresh, lambda H: specialise(H, ["x"])),
        "check_alignment": best(repeat, fresh, check_alignment),
        "circuit_partition": best(repeat, fresh, circuit_partition),
        "parse_graph": best(repeat, lambda: None, lambda _: parse_graph(text)),
        "circuit_witness": best(repeat, lambda: warm, lambda H: circuit_witness(H, *pair)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 200], help="grid side lengths")
    ap.add_argument("--repeat", type=int, default=3, help="runs per operation; the best is printed")
    args = ap.parse_args(argv)
    if args.repeat < 1 or any(n < 2 for n in args.sizes):
        ap.error("--repeat must be at least 1 and every size at least 2")
    columns = {n: timings(n, args.repeat) for n in args.sizes}
    print("| operation | " + " | ".join(f"{n}×{n} grid ({2 * n * (n - 1):,} edges)" for n in args.sizes) + " |")
    print("| --- |" + " --- |" * len(args.sizes))
    for op in columns[args.sizes[0]]:
        print(f"| `{op}` | " + " | ".join(f"{columns[n][op]:.3f} s" for n in args.sizes) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
