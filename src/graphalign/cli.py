"""Command-line front end.

Subcommands: analyze, thickness, atlas, resolve, strata, trait.  Exit
status 0 on success, 1 on a malformed input file, 2 on a precondition
violation.  Output is deterministic for fixed input and flags.
"""

from __future__ import annotations

import argparse
import functools
import gc
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import alignment, atlas, formats, resolution, strata
from .labels import Valuation


# An integer argument is ASCII digits.  A minus sign before digits that are
# not all zero is read too, as a negative number, so that the range check
# of the option refuses it with its own message.
_INTEGER = re.compile(r"[0-9]+|-[0-9]*[1-9][0-9]*")
_VECTOR = re.compile(rf"(?:{_INTEGER.pattern})(?:,(?:{_INTEGER.pattern}))*")


def _integer(text: str) -> int:
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _bound(text: str) -> int:
    """argparse type of ``--max``."""
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_assignments(text: str, flag: str) -> dict[str, int]:
    """``k=v,...`` as a mapping; the empty string is the empty mapping."""
    out: dict[str, int] = {}
    for part in text.split(",") if text else ():
        if "=" not in part:
            raise ValueError(f"{flag}: expected k=v pairs, got {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key in out:
            raise ValueError(f"{flag}: duplicate key {key!r}")
        try:
            out[key] = _integer(val)
        except ValueError:
            raise ValueError(f"{flag}: {val!r} is not an integer") from None
        if out[key] < 0:
            raise ValueError(f"{flag}: values must be >= 0")
    return out


def _parse_vector(text: str, flag: str) -> list[int]:
    if _VECTOR.fullmatch(text) is None:
        raise ValueError(f"{flag}: expected comma-separated integers")
    return list(map(int, text.split(",")))


def _parse_vanishing(G, text: Optional[str]) -> Optional[list[str]]:
    """The ``--vanishing`` generators, checked against G before any work."""
    if text is None:
        return None
    vanishing = text.split(",")
    dup = sorted({g for g in vanishing if vanishing.count(g) > 1})
    if dup:
        raise ValueError(f"--vanishing: duplicate generators {dup!r}")
    atlas.check_fibre_point(G.generators, (e.label for e in G.edges), vanishing)
    return vanishing


def _valuation_for(G, mapping: dict[str, int]) -> Valuation:
    missing = set(G.generators.names) - set(mapping)
    if missing:
        raise ValueError(f"--valuation is missing generators {sorted(missing)}")
    extra = set(mapping) - set(G.generators.names)
    if extra:
        raise ValueError(f"--valuation names unknown generators {sorted(extra)}")
    return Valuation.from_dict(mapping)


def _refuse_existing(out: Optional[str]) -> None:
    """Refuse an existing output directory before any work is done.

    The directory writers check again when they move their output into
    place, for a directory made in the meantime.
    """
    if out and Path(out).exists():
        raise FileExistsError(f"refusing to overwrite {out}")


def _cmd_analyze(args) -> int:
    G = formats.load_graph(args.graph)
    report = alignment.check_alignment(G)
    level = alignment.strong_alignment_level(G)
    if args.format == "dot":
        sys.stdout.write(formats.graph_to_dot(G))
        return 0
    if args.format == "json":
        sys.stdout.write(formats.alignment_report_json(report, level))
        return 0
    print(f"graph: {len(G.vertices)} vertices, {len(G.edges)} edges")
    gens = ", ".join(G.generators.names)
    print(f"generators: {gens}" + (" (nc)" if G.generators.nc else ""))
    for c in report.classes:
        edges = " ".join(c.edges)
        if c.aligned and c.primitive is not None:
            mults = ",".join(str(n) for _, n in c.multiplicities)
            print(f"class [{edges}]: aligned, primitive {c.primitive}, multiplicities ({mults})")
        elif c.aligned:
            print(f"class [{edges}]: aligned (unit labels)")
        else:
            print(f"class [{edges}]: not aligned ({c.reason})")
    units = " ".join(report.unit_edges) if report.unit_edges else "none"
    print(f"unit-labelled edges: {units}")
    print(f"aligned: {str(report.aligned).lower()}")
    print(f"irregularly aligned: {str(report.aligned).lower()}")
    print(f"strong alignment level: {'none' if level is None else level}")
    return 0


def _cmd_thickness(args) -> int:
    G = formats.load_graph(args.graph)
    if args.validate is not None:
        vec = _parse_vector(args.validate, "--validate")
        M = atlas.ThicknessFunction.from_vector(G, vec)
        ok = atlas.is_thickness_function(G, M)
        print("valid" if ok else "invalid")
        return 0
    if args.max is None:
        raise ValueError("--max is required when enumerating")
    for M in atlas.enumerate_thickness(G, args.max):
        print(M)
    return 0


def _cmd_atlas(args) -> int:
    _refuse_existing(args.out)
    G = formats.load_graph(args.graph)
    vanishing = _parse_vanishing(G, args.vanishing)
    built = atlas.build_atlas(G, args.max)
    nonempty = formats.write_atlas(built, args.out, vanishing=vanishing)
    print(f"charts: {len(built.charts)}")
    print(f"overlaps: {len(built.overlaps)}")
    if vanishing is not None:
        print(f"nonempty fibres at {{{','.join(sorted(vanishing))}}}: {nonempty}")
    return 0


def _cmd_resolve(args) -> int:
    _refuse_existing(args.out)
    G = formats.load_graph(args.graph)
    v = _valuation_for(G, _parse_assignments(args.valuation, "--valuation"))
    trace = resolution.resolve(G, v)
    if args.out:
        formats.write_trace(trace, args.out, dot=(args.format == "dot"))
    for i, step in enumerate(trace.steps):
        print(
            f"step {i}: delta={step.delta}, "
            f"{len(step.graph.vertices)} vertices, {len(step.graph.edges)} edges"
        )
        for r in step.rewrites:
            if r.rule != "keep":
                produced = " ".join(r.produced) if r.produced else "-"
                print(f"  {r.edge}: {r.rule} -> {produced}")
    return 0


def _cmd_strata(args) -> int:
    _refuse_existing(args.out)
    G = formats.load_graph(args.graph)
    fam = strata.stratify(G)
    if args.out:
        formats.write_strata(fam, args.out)
    if args.format == "dot":
        sys.stdout.write(formats.strata_poset_dot(fam))
        return 0
    for J in fam.subsets():
        stratum = fam.strata[J]
        tag = "{" + ",".join(sorted(J)) + "}"
        labels = ", ".join(f"{e.id}:{e.label}" for e in stratum.edges) or "smooth"
        print(f"stratum {tag}: {len(stratum.vertices)} vertices, {labels}")
    report = strata.verify_controlling(fam)
    print(f"controlling: {'ok' if report.passed else 'FAILED'}")
    return 0


def _cmd_trait(args) -> int:
    G = formats.load_graph(args.graph)
    v = _valuation_for(G, _parse_assignments(args.valuation, "--valuation"))
    fact = atlas.trait_factorisation(G, v, bound=args.max)
    print(f"canonical: {fact.canonical}")
    for edges, t in fact.class_scales:
        print(f"scale t[{' '.join(edges)}] = {t}")
    print(f"all valid (max {fact.bound}):")
    for M in fact.all_valid:
        print(f"  {M}")
    # The valued-edge lemma (see trait_factorisation) proves every pair.
    n = len(fact.all_valid)
    print(f"separatedness: ok ({n * (n - 1) // 2} pairs checked)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="graphalign",
        description="Alignment analysis and chart atlases for labelled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="partition, alignment report, strong level")
    p.add_argument("graph")
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("thickness", help="enumerate or validate thickness functions")
    p.add_argument("graph")
    p.add_argument("--max", type=_bound)
    p.add_argument("--validate", help="edge-id-sorted values v1,v2,...")
    p.set_defaults(fn=_cmd_thickness)

    p = sub.add_parser("atlas", help="write the chart atlas directory")
    p.add_argument("graph")
    p.add_argument("--max", type=_bound, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vanishing", help="generators g1,g2,... for the fibre summary")
    p.set_defaults(fn=_cmd_atlas)

    p = sub.add_parser("resolve", help="blowup rewriting trace")
    p.add_argument("graph")
    p.add_argument("--valuation", required=True, help="k=v,... on the generators")
    p.add_argument("--out")
    p.add_argument("--format", choices=["text", "dot"], default="text")
    p.set_defaults(fn=_cmd_resolve)

    p = sub.add_parser("strata", help="stratum lattice of an NC family")
    p.add_argument("graph")
    p.add_argument("--out")
    p.add_argument("--format", choices=["text", "dot"], default="text")
    p.set_defaults(fn=_cmd_strata)

    p = sub.add_parser("trait", help="factor a valuation through the atlas")
    p.add_argument("graph")
    p.add_argument("--valuation", required=True, help="k=v,... on the generators")
    p.add_argument("--max", type=_bound)
    p.set_defaults(fn=_cmd_trait)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    # A command builds no reference cycle, so the cyclic collector would
    # only trace its data again and again, never free any of it: it is
    # paused for the command and left as the caller had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except formats.GraphFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, FileExistsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
