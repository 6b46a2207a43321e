"""Output checks for every benchmark operation.

Each check recomputes what it needs apart from graphalign: circuit classes
come from brute-force circuit enumeration on the benchmark's own copy of
the graph, chart counts from the Moebius count of coprime tuples, and the
remaining verdicts from the structure planted by ``inputs`` or from a
property the method must have (Bezout sums, delta decreasing to 0, the
subset lattice of strata).  None of them compares against stored output.

A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from pathlib import Path

from inputs import GraphSpec


class CheckFailed(AssertionError):
    """An operation's output disagrees with the independent expectation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def monomial_str(label: dict) -> str:
    """The conventional rendering g or g^e joined by '*', sorted, '1' for units."""
    if not label:
        return "1"
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in sorted(label.items()))


def valuation_of(label: dict, values: dict) -> int:
    return sum(e * values[g] for g, e in label.items())


# ------------------------------------------------------------ structure oracle


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _merge_ends(nv: int, pairs, chosen) -> list[int]:
    """Vertex representatives after identifying the ends of ``chosen`` edges."""
    parent = list(range(nv))
    for j in chosen:
        a, b = _find(parent, pairs[j][0]), _find(parent, pairs[j][1])
        if a != b:
            parent[max(a, b)] = min(a, b)
    return [_find(parent, v) for v in range(nv)]


def _is_circuit(ends, subset: list) -> bool:
    """Connected, and every vertex it touches has degree exactly 2."""
    degree: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for j in subset:
        a, b = ends[j]
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(d != 2 for d in degree.values()):
        return False
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


@lru_cache(maxsize=None)
def circuit_classes(nv: int, pairs: tuple, zero_mask: int) -> tuple[int, ...]:
    """Circuit classes of G/Z as edge bitmasks, by enumerating all circuits.

    Z is the set of edges in ``zero_mask``; they are contracted, and every
    subset of the remaining edges is tested for being a circuit of the
    contracted graph.  Edges sharing a circuit are merged; an edge in no
    circuit is a class of its own.
    """
    m = len(pairs)
    rep = _merge_ends(nv, pairs, [j for j in range(m) if zero_mask >> j & 1])
    ends = [(rep[a], rep[b]) for a, b in pairs]
    rest = [j for j in range(m) if not zero_mask >> j & 1]
    owner = {j: j for j in rest}

    def root(j: int) -> int:
        while owner[j] != j:
            j = owner[j]
        return j

    for sub in range(1, 1 << len(rest)):
        subset = [rest[i] for i in range(len(rest)) if sub >> i & 1]
        if len(subset) > 1 and _is_circuit(ends, subset):
            r0 = root(subset[0])
            for j in subset[1:]:
                r = root(j)
                if r != r0:
                    owner[r] = r0
    masks: dict[int, int] = {}
    for j in rest:
        masks[root(j)] = masks.get(root(j), 0) | (1 << j)
    return tuple(sorted(masks.values()))


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def coprime_tuples(bound: int, k: int) -> int:
    """Number of k-tuples in [1, bound]^k with gcd 1: sum_d mu(d) floor(b/d)^k."""
    return sum(_mobius(d) * (bound // d) ** k for d in range(1, bound + 1))


class Oracle:
    """Brute-force circuit structure of one generated graph, by edge name.

    Vectors are in the program's order: values listed by sorted edge id.
    """

    def __init__(self, spec: GraphSpec) -> None:
        self.spec = spec
        self.nv, self.pairs = spec.structure
        self.order = sorted(range(len(self.pairs)), key=lambda j: spec.edge_of[j])
        self.names = [spec.edge_of[j] for j in self.order]

    def _zero_mask(self, vector) -> int:
        return sum(1 << j for j, v in zip(self.order, vector) if v == 0)

    def classes(self, vector) -> list[frozenset]:
        """Circuit classes (edge names) of the graph with the zero edges of ``vector`` contracted."""
        masks = circuit_classes(self.nv, self.pairs, self._zero_mask(vector))
        of = self.spec.edge_of
        return [frozenset(of[j] for j in range(len(of)) if mask >> j & 1) for mask in masks]

    def is_valid(self, vector) -> bool:
        values = dict(zip(self.names, vector))
        return all(math.gcd(*(values[e] for e in cls)) == 1 for cls in self.classes(vector))

    def count_valid(self, bound: int) -> int:
        """Valid thickness functions with values <= bound, by zero pattern."""
        total = 0
        for zero in range(1 << len(self.pairs)):
            prod = 1
            for mask in circuit_classes(self.nv, self.pairs, zero):
                prod *= coprime_tuples(bound, bin(mask).count("1"))
            total += prod
        return total

    def overlap_edges(self, left, right) -> frozenset:
        diff = {e for e, a, b in zip(self.names, left, right) if a != b}
        out: set = set()
        for vec in (left, right):
            for cls in self.classes(vec):
                if cls & diff:
                    out |= cls
        return frozenset(out)


def _vector(values: dict, names) -> tuple[int, ...]:
    return tuple(values[e] for e in names)


# ------------------------------------------------------------ analyze


def expected_strong_level(spec: GraphSpec):
    """Least e with every non-loop class labelled by powers <= e of one generator."""
    labels, ends = spec.labels, spec.ends
    level = 0
    for cls in spec.classes:
        if all(ends[e][0] == ends[e][1] for e in cls):
            continue
        support = set().union(*(labels[e] for e in cls))
        if len(support) != 1:
            return None
        level = max(level, max(labels[e][g] for e in cls for g in labels[e]))
    return level


def check_analyze_json(spec: GraphSpec, stdout: str) -> None:
    obj = json.loads(stdout)
    got = {frozenset(c["edges"]): c for c in obj["classes"]}
    require(set(got) == set(spec.classes), f"{spec.name}: classes differ from the planted block tree")
    for cls in spec.classes:
        c = got[cls]
        require(c["edges"] == sorted(cls), f"{spec.name}: class edges not sorted")
        require(c["aligned"] == spec.aligned[cls], f"{spec.name}: verdict of {sorted(cls)}")
        if spec.aligned[cls]:
            require(c["primitive"] == spec.primitive[cls], f"{spec.name}: primitive of {sorted(cls)}")
            require(
                c["multiplicities"] == {e: spec.mult[e] for e in cls},
                f"{spec.name}: multiplicities of {sorted(cls)}",
            )
    aligned = all(spec.aligned.values())
    require(obj["aligned"] == aligned, f"{spec.name}: overall verdict")
    require(obj["irregularly_aligned"] == aligned, f"{spec.name}: irregular verdict")
    require(obj["unit_edges"] == [], f"{spec.name}: no unit labels were planted")
    require(obj["strong_level"] == expected_strong_level(spec), f"{spec.name}: strong level")


_CLASS_LINE = re.compile(r"^class \[(.*)\]: (aligned|not aligned)(.*)$")


def check_analyze_text(spec: GraphSpec, stdout: str) -> None:
    lines = stdout.splitlines()
    require(
        lines[0] == f"graph: {len(spec.vertices)} vertices, {len(spec.edges)} edges",
        f"{spec.name}: size line {lines[0]!r}",
    )
    seen = set()
    for line in lines:
        match = _CLASS_LINE.match(line)
        if not match:
            continue
        edges = match.group(1).split(" ")
        cls = frozenset(edges)
        require(cls in spec.aligned and cls not in seen, f"{spec.name}: unplanted class {edges[:4]}")
        seen.add(cls)
        require(edges == sorted(cls), f"{spec.name}: class edges not sorted")
        verdict = match.group(2) == "aligned"
        require(verdict == spec.aligned[cls], f"{spec.name}: verdict of {edges[:4]}")
        if verdict:
            mults = ",".join(str(spec.mult[e]) for e in edges)
            want = f", primitive {monomial_str(spec.primitive[cls])}, multiplicities ({mults})"
            require(match.group(3) == want, f"{spec.name}: class line {line[:80]!r}")
    require(len(seen) == len(spec.classes), f"{spec.name}: {len(seen)} classes, planted {len(spec.classes)}")
    aligned = str(all(spec.aligned.values())).lower()
    level = expected_strong_level(spec)
    require(lines[-4:] == [
        "unit-labelled edges: none",
        f"aligned: {aligned}",
        f"irregularly aligned: {aligned}",
        f"strong alignment level: {'none' if level is None else level}",
    ], f"{spec.name}: summary lines {lines[-4:]}")


# ------------------------------------------------------------ thickness


def _parse_vectors(lines) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in line.strip().split(",")) for line in lines]


def check_thickness_list(oracle: Oracle, bound: int, stdout: str) -> None:
    name = oracle.spec.name
    vectors = _parse_vectors(stdout.splitlines())
    require(len(vectors) == oracle.count_valid(bound), f"{name}: {len(vectors)} functions at bound {bound}")
    require(vectors == sorted(set(vectors)), f"{name}: functions not strictly lexicographic")
    for vec in vectors:
        require(len(vec) == len(oracle.names) and max(vec) <= bound, f"{name}: bad vector {vec}")
        require(oracle.is_valid(vec), f"{name}: {vec} has a class with gcd != 1")


def check_validate(expected: bool, stdout: str) -> None:
    require(stdout == ("valid\n" if expected else "invalid\n"), f"validate printed {stdout!r}")


# ------------------------------------------------------------ trait


def check_trait(spec: GraphSpec, values: dict, stdout: str) -> None:
    lines = stdout.splitlines()
    names = spec.edge_ids
    vals = {e: valuation_of(lab, values) for e, lab in spec.labels.items()}
    require(lines[0].startswith("canonical: "), f"{spec.name}: no canonical line")
    canonical = dict(zip(names, _parse_vectors([lines[0][len("canonical: "):]])[0]))
    i = 1
    covered: set = set()
    while lines[i].startswith("scale t["):
        head, _, t = lines[i].partition("] = ")
        edges = head[len("scale t["):].split(" ")
        for e in edges:
            require(canonical[e] * int(t) == vals[e], f"{spec.name}: canonical * scale != valuation on {e}")
        covered.update(edges)
        i += 1
    for e in names:
        if e not in covered:
            require(vals[e] == 0 and canonical[e] == 0, f"{spec.name}: edge {e} outside every scaled class")
    require(lines[i].startswith("all valid (max "), f"{spec.name}: no all-valid header")
    i += 1
    valid = _parse_vectors(line for line in lines[i:-1])
    require(all(line.startswith("  ") for line in lines[i:-1]), f"{spec.name}: bad all-valid line")
    require(_vector(canonical, names) in valid, f"{spec.name}: canonical function not in all_valid")
    n = len(valid)
    require(
        lines[-1] == f"separatedness: ok ({n * (n - 1) // 2} pairs checked)",
        f"{spec.name}: {lines[-1]!r} with {n} functions",
    )


# ------------------------------------------------------------ resolve


_STEP_LINE = re.compile(r"^step (\d+): delta=(\d+), (\d+) vertices, (\d+) edges$")


def check_resolve(spec: GraphSpec, values: dict, stdout: str, outdir: Path | None = None) -> None:
    """Resolution of an aligned graph whose primitives have valuation 1."""
    name = spec.name
    weights = [valuation_of(lab, values) for lab in spec.labels.values()]
    steps = [m.groups() for m in map(_STEP_LINE.match, stdout.splitlines()) if m]
    require([int(s[0]) for s in steps] == list(range(len(steps))), f"{name}: step numbering")
    deltas = [int(s[1]) for s in steps]
    require(deltas[0] == sum(w - 1 for w in weights if w >= 1), f"{name}: initial delta {deltas[0]}")
    require(all(a > b for a, b in zip(deltas, deltas[1:])) and deltas[-1] == 0, f"{name}: deltas {deltas}")
    require(len(steps) - 1 == max(weights) // 2, f"{name}: {len(steps) - 1} steps for top power {max(weights)}")
    first, last = steps[0], steps[-1]
    require((int(first[2]), int(first[3])) == (len(spec.vertices), len(spec.edges)), f"{name}: step 0 size")
    require(int(last[3]) == sum(weights), f"{name}: final edge count {last[3]} != {sum(weights)}")
    require(int(last[2]) == len(spec.vertices) + sum(w - 1 for w in weights), f"{name}: final vertex count")
    if outdir is None:
        return
    snapshots = sorted(p.name for p in outdir.glob("step_*.graph"))
    require(snapshots == [f"step_{i:02d}.graph" for i in range(len(steps))], f"{name}: trace snapshots")
    index = json.loads((outdir / "trace.index").read_text())
    require([s["delta"] for s in index["steps"]] == deltas, f"{name}: trace index deltas")
    final = json.loads((outdir / snapshots[-1]).read_text())
    require(len(final["edges"]) == sum(weights), f"{name}: final snapshot size")
    require(
        all(valuation_of(e["label"], values) == 1 for e in final["edges"]),
        f"{name}: final snapshot keeps a label of valuation > 1",
    )


# ------------------------------------------------------------ strata


def check_strata(spec: GraphSpec, stdout: str, outdir: Path) -> None:
    """Strata of an NC graph: one per subset of the k generators used."""
    name = spec.name
    gen_of_edge = {e: next(iter(lab)) for e, lab in spec.labels.items()}
    k = len(set(gen_of_edge.values()))
    lines = stdout.splitlines()
    require(sum(line.startswith("stratum {") for line in lines) == 2 ** k, f"{name}: stratum lines")
    require(lines[-1] == "controlling: ok", f"{name}: {lines[-1]!r}")
    index = json.loads((outdir / "strata.index").read_text())
    require(len(index["strata"]) == 2 ** k, f"{name}: {len(index['strata'])} strata, want 2^{k}")
    require(len(list(outdir.glob("stratum_*.graph"))) == 2 ** k, f"{name}: stratum files")
    covers = (outdir / "poset.dot").read_text().count(" -> ")
    require(covers == k * 2 ** (k - 1), f"{name}: {covers} covers, want {k * 2 ** (k - 1)}")
    vindex = {v: i for i, v in enumerate(spec.vertices)}
    pairs = [(vindex[u], vindex[v]) for _, u, v, _ in spec.edges]
    seen = set()
    for entry in index["strata"]:
        J = frozenset(entry["generators"])
        seen.add(J)
        graph = json.loads((outdir / entry["file"]).read_text())
        kept = {e["id"] for e in graph["edges"]}
        want = {e for e, g in gen_of_edge.items() if g in J}
        require(kept == want, f"{name}: stratum {sorted(J)} keeps {sorted(kept)}")
        require(
            all(e["label"] == spec.labels[e["id"]] for e in graph["edges"]),
            f"{name}: stratum {sorted(J)} changed a label",
        )
        dead = [j for j, (e, _, _, _) in enumerate(spec.edges) if e not in want]
        reps = set(_merge_ends(len(spec.vertices), pairs, dead))
        require(len(graph["vertices"]) == len(reps), f"{name}: stratum {sorted(J)} vertex count")
    require(len(seen) == 2 ** k, f"{name}: repeated strata")


# ------------------------------------------------------------ atlas


def fibre(chart: dict, vanishing: frozenset) -> tuple[bool, bool, int]:
    """Closed fibre over the point where exactly ``vanishing`` vanishes.

    Empty when an inverted label vanishes or a class mixes vanishing and
    non-vanishing labels; otherwise connected, with one torus factor of
    rank (#edges - 1) per class whose labels all vanish.
    """
    if any(set(lab) & vanishing for lab in chart["inverted_labels"]):
        return False, False, 0
    rank = 0
    for cls in chart["classes"]:
        flags = [bool(set(row["label"]) & vanishing) for row in cls["rows"]]
        if any(flags) and not all(flags):
            return False, False, 0
        if flags and all(flags):
            rank += len(flags) - 1
    return True, True, rank


def _check_chart(oracle: Oracle, values: dict, chart: dict, where: str) -> None:
    labels = oracle.spec.labels
    vec = _vector(values, oracle.names)
    got = {frozenset(c["edges"]) for c in chart["classes"]}
    require(got == set(oracle.classes(vec)), f"{where}: classes differ from circuit enumeration")
    for cls in chart["classes"]:
        rows = cls["rows"]
        require([r["edge"] for r in rows] == cls["edges"], f"{where}: rows out of order")
        require(sum(r["coefficient"] * r["multiplicity"] for r in rows) == 1, f"{where}: Bezout sum != 1")
        for r in rows:
            require(r["label"] == labels[r["edge"]], f"{where}: row label of {r['edge']}")
            require(r["multiplicity"] == values[r["edge"]], f"{where}: multiplicity of {r['edge']}")


def check_atlas(oracle: Oracle, bound: int, vanishing, stdout: str, outdir: Path) -> None:
    spec = oracle.spec
    name = spec.name
    labels = spec.labels
    n = oracle.count_valid(bound)
    pairs = n * (n - 1) // 2
    lines = stdout.splitlines()
    require(lines[:2] == [f"charts: {n}", f"overlaps: {pairs}"], f"{name}: printed {lines[:2]}, want {n} charts")
    index = json.loads((outdir / "atlas.index").read_text())
    require(len(index["charts"]) == n, f"{name}: index lists {len(index['charts'])} charts, want {n}")
    require(len(index["overlaps"]) == pairs, f"{name}: index lists {len(index['overlaps'])} overlaps, want {pairs}")
    files = {"atlas.index"}
    charts, nonempty = {}, 0
    for entry in index["charts"]:
        vec = _vector(entry["values"], oracle.names)
        require(oracle.is_valid(vec) and max(vec, default=0) <= bound, f"{name}: invalid chart {vec}")
        chart = json.loads((outdir / entry["file"]).read_text())
        _check_chart(oracle, entry["values"], chart, f"{name}/{entry['file']}")
        zero_labels = {json.dumps(labels[e], sort_keys=True) for e, v in entry["values"].items() if v == 0}
        got = {json.dumps(lab, sort_keys=True) for lab in chart["inverted_labels"]}
        require(got == zero_labels, f"{name}/{entry['file']}: inverted labels")
        charts[vec] = chart
        files.add(entry["file"])
        if vanishing is not None:
            fr = fibre(chart, frozenset(vanishing))
            require(
                entry["fibre"] == {"vanishing": sorted(vanishing), "nonempty": fr[0],
                                   "connected": fr[1], "torus_rank": fr[2]},
                f"{name}/{entry['file']}: fibre {entry['fibre']}",
            )
            nonempty += fr[0]
    require(len(charts) == n, f"{name}: repeated charts")
    order = list(charts)
    want_pairs = {(order[i], order[j]) for i in range(n) for j in range(i + 1, n)}
    seen = set()
    for entry in index["overlaps"]:
        left = _vector(entry["left"], oracle.names)
        right = _vector(entry["right"], oracle.names)
        seen.add((left, right))
        delta = oracle.overlap_edges(left, right)
        require(set(entry["inverted_edges"]) == delta, f"{name}: overlap {entry['file']} inverted edges")
        ov = json.loads((outdir / entry["file"]).read_text())
        require(ov["classes"] == charts[left]["classes"], f"{name}/{entry['file']}: classes differ from the left chart")
        want = {json.dumps(labels[e], sort_keys=True) for e in delta}
        want |= {json.dumps(lab, sort_keys=True) for lab in charts[left]["inverted_labels"]}
        got = {json.dumps(lab, sort_keys=True) for lab in ov["inverted_labels"]}
        require(got == want, f"{name}/{entry['file']}: inverted labels")
        files.add(entry["file"])
    require(seen == want_pairs, f"{name}: overlaps are not one per pair of charts")
    require({p.name for p in outdir.iterdir()} == files, f"{name}: atlas directory holds unlisted files")
    if vanishing is not None:
        require(
            lines[2] == f"nonempty fibres at {{{','.join(sorted(vanishing))}}}: {nonempty}",
            f"{name}: fibre line {lines[2]!r}",
        )
    else:
        require(len(lines) == 2, f"{name}: unexpected lines")


# ------------------------------------------------------------ circuit witness


def check_witness(spec: GraphSpec, e: str, f: str, circuit: list) -> None:
    require(circuit and circuit[0] == e and f in circuit, f"{spec.name}: witness misses {e} or {f}")
    require(len(set(circuit)) == len(circuit), f"{spec.name}: witness repeats an edge")
    require(_is_circuit(spec.ends, circuit),
            f"{spec.name}: witness is not connected with every degree 2")
