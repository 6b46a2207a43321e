"""Spans around graphalign's public functions, installed only for traced runs.

Each traced function is replaced, at every module attribute that binds it
(``atlas`` imports ``contract`` by name, the package re-exports most
functions), by a wrapper that records one span: name, start, end and
parent span.  Spans live in flat arrays in memory and are written out
when the run ends.  A layer's self time is its span's duration minus the
time its child spans cover and minus the time the tracer's own counting
hooks took inside it.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# Metric prefix -> (module, attribute).  ``graph.morphism_check`` is the
# validation every GraphMorphism runs when it is built.
TRACED = {
    "labels.primitive_root": ("labels", "primitive_root"),
    "labels.primitive_part": ("labels", "primitive_part"),
    "labels.power_equivalent": ("labels", "power_equivalent"),
    "graph.circuit_partition": ("graph", "circuit_partition"),
    "graph.contract": ("graph", "contract"),
    "graph.specialise": ("graph", "specialise"),
    "graph.circuit_witness": ("graph", "circuit_witness"),
    "graph.morphism_check": ("graph", "GraphMorphism.__post_init__"),
    "alignment.check_alignment": ("alignment", "check_alignment"),
    "alignment.is_irregularly_aligned": ("alignment", "is_irregularly_aligned"),
    "alignment.strong_alignment_level": ("alignment", "strong_alignment_level"),
    "atlas.enumerate_thickness": ("atlas", "enumerate_thickness"),
    "atlas.is_thickness_function": ("atlas", "is_thickness_function"),
    "atlas.chart": ("atlas", "chart"),
    "atlas.overlap": ("atlas", "overlap"),
    "atlas.overlap_edges": ("atlas", "overlap_edges"),
    "atlas.trait_factorisation": ("atlas", "trait_factorisation"),
    "atlas.closed_fibre": ("atlas", "closed_fibre"),
    "resolution.resolve": ("resolution", "resolve"),
    "resolution.blowup_step": ("resolution", "blowup_step"),
    "strata.stratify": ("strata", "stratify"),
    "strata.specialisation_map": ("strata", "specialisation_map"),
    "strata.verify_controlling": ("strata", "verify_controlling"),
    "formats.parse_graph": ("formats", "parse_graph"),
    "formats.write_atlas": ("formats", "write_atlas"),
    "formats.write_trace": ("formats", "write_trace"),
    "formats.write_strata": ("formats", "write_strata"),
    "cli.run": ("cli", "run"),
}


PACKAGE = "graphalign"


class Tracer:
    """Records spans while installed; counts a few outcomes at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")  # time of counting hooks run inside the span
        self.stack = [-1]
        self.patches: list[tuple[object, str, object, object]] = []
        self.parse_bytes = 0
        self.valid = 0
        self.graphs_seen: set[int] = set()
        self.distinct_graphs = 0

    # -------------------------------------------------------- spans

    def span_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.excluded.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, metric: str, fn):
        nid = self.span_id(metric)
        before = {
            "graph.circuit_partition": self._see_graph,
            "formats.parse_graph": self._count_bytes,
        }.get(metric)
        count_valid = metric == "atlas.is_thickness_function"
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                t0 = perf_counter()
                before(args)
                tracer.exclude(perf_counter() - t0)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count_valid and result:
                tracer.valid += 1
            return result

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Take a hook's time out of the self time of the span it ran in."""
        if self.stack[-1] >= 0:
            self.excluded[self.stack[-1]] += seconds

    def _see_graph(self, args) -> None:
        key = hash(args[0])
        if key not in self.graphs_seen:
            self.graphs_seen.add(key)
            self.distinct_graphs += 1

    def _count_bytes(self, args) -> None:
        self.parse_bytes += len(args[0].encode("utf-8"))

    # -------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every traced function at every attribute of the package that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for metric, (module, attr) in TRACED.items():
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(metric, cls.__dict__[meth]))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(metric, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, key: str, new) -> None:
        self.patches.append((obj, key, getattr(obj, key), new))
        setattr(obj, key, new)

    def uninstall(self) -> None:
        """Put the original functions back; ``reinstall`` wraps them again."""
        for obj, key, old, _ in reversed(self.patches):
            setattr(obj, key, old)

    def reinstall(self) -> None:
        for obj, key, _, new in self.patches:
            setattr(obj, key, new)

    def new_round(self) -> None:
        self.graphs_seen.clear()

    # -------------------------------------------------------- report

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and total self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        for j in range(n):
            p = self.parent[j]
            if p >= 0:
                child[p] += self.end[j] - self.start[j]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for j in range(n):
            name = self.names[self.name[j]]
            calls[name] = calls.get(name, 0) + 1
            own = self.end[j] - self.start[j] - child[j] - self.excluded[j]
            self_s[name] = self_s.get(name, 0.0) + own
        return calls, self_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "excluded": self.excluded.tolist(),
                },
                fh,
            )
            fh.write("\n")
