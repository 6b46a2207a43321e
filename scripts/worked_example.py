#!/usr/bin/env python3
"""End-to-end tour of the 2-gon family with labels x and y.

The 2-gon is the smallest non-aligned graph: its two parallel edges carry
labels that are not powers of a common element.  The script walks through
the stratification of the family, the chart atlas at growing bounds (the
closed fibre over the origin picks up one torus per coprime pair), and a
resolution run on an aligned relative.
"""

import math

from graphalign import (
    GeneratorSet,
    LabelledGraph,
    Monomial,
    Valuation,
    build_atlas,
    check_alignment,
    closed_fibre,
    resolve,
    stratify,
    strong_alignment_level,
    trait_factorisation,
    verify_controlling,
)


def twogon(l1, l2, nc=False):
    gens = GeneratorSet(("x", "y"), nc=nc)
    return LabelledGraph.build(
        gens, ["v1", "v2"], [("e1", "v1", "v2", l1), ("e2", "v1", "v2", l2)]
    )


def main():
    x, y = Monomial.generator("x"), Monomial.generator("y")
    G = twogon(x, y, nc=True)

    print("== alignment ==")
    report = check_alignment(G)
    for cls in report.classes:
        print(f"class {cls.edges}: aligned={cls.aligned} ({cls.reason})")
    print(f"aligned: {report.aligned}")
    print(f"strong alignment level: {strong_alignment_level(G)}")

    print("\n== strata ==")
    fam = stratify(G)
    for J in fam.subsets():
        labels = ", ".join(f"{e.id}:{e.label}" for e in fam.strata[J].edges) or "smooth"
        print(f"  {{{','.join(sorted(J))}}}: {labels}")
    print(f"controlling check: {verify_controlling(fam).passed}")

    print("\n== atlas fibres over the origin ==")
    print("bound  charts  nonempty fibres  coprime pairs in [1,e]^2")
    for bound in (1, 2, 3, 4):
        atlas = build_atlas(G, bound)
        nonempty = sum(
            1 for c in atlas.charts.values() if closed_fibre(c, {"x", "y"}).nonempty
        )
        coprime = sum(
            1
            for a in range(1, bound + 1)
            for b in range(1, bound + 1)
            if math.gcd(a, b) == 1
        )
        print(f"{bound:5d}  {len(atlas.charts):6d}  {nonempty:15d}  {coprime:24d}")
    print("(each nonempty fibre is one torus: the closed fibre grows without bound)")

    print("\n== trait factorisation for ord(x)=4, ord(y)=6 ==")
    fact = trait_factorisation(G, Valuation.from_dict({"x": 4, "y": 6}))
    print(f"canonical thickness function: {fact.canonical}")
    print(f"per-class scale: {fact.class_scales}")
    print(f"all valid up to {fact.bound}: {[str(M) for M in fact.all_valid]}")

    print("\n== resolving the aligned 2-gon with labels x, x^3 ==")
    G2 = twogon(x, Monomial.generator("x", 3))
    trace = resolve(G2, Valuation.from_dict({"x": 1, "y": 0}))
    for i, step in enumerate(trace.steps):
        shape = ", ".join(f"{e.id}:{e.label}" for e in step.graph.edges)
        print(f"step {i} (delta {step.delta}): {shape}")


if __name__ == "__main__":
    main()
