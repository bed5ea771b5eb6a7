"""Spans around calls into richflow's public functions, recorded from outside.

The package binds names with ``from .x import y``, so a function is wrapped at
every module attribute through which a caller reaches it; ``Tracer.restore``
puts every original object back. Each span records its name, start, end,
parent span, graph id, the exception that ended it (if any) and a few counts
taken from the call's arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    graph: str | None
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)


# Counts each span keeps: name -> function(args, kwargs, result) -> dict.
def _pairs_tested(args, kwargs, result):
    m = args[0].edge_count
    return {"pairs_tested": m * (m - 1) // 2}


def _split_taken(args, kwargs, result):
    return {"split": result is not None}


def _confluent_pairs(args, kwargs, result):
    return {"pairs": len(args[1])}


def _cotree_edges(args, kwargs, result):
    g = args[0]
    return {"cotree_edges": g.edge_count - g.vertex_count + 1}


def _resolved(args, kwargs, result):
    return {"resolved": result.value is not None}


# (span name, public function, modules whose attribute is patched, counts).
# The modules are the callers: each one looks the function up in its own
# namespace at call time.
WRAP_POINTS = (
    ("cli.parse", "parse_multigraph", ("cli",), None),
    ("multigraph.admissibility", "is_rich_flow_admissible",
     ("synthesis", "seymour", "oracle", "cli"), None),
    ("multigraph.two_cut_enum", "enumerate_two_edge_cuts",
     ("multigraph", "synthesis"), _pairs_tested),
    ("multigraph.chain_search", "find_circuit_chain", ("synthesis",), None),
    ("synthesis.synthesize", "synthesize_rich_flow", ("synthesis", "cli"), None),
    ("synthesis.rich_mod_flow", "rich_mod_flow", ("synthesis",), None),
    ("synthesis.split", "split_on_two_cut", ("synthesis",), _split_taken),
    ("synthesis.building_phi", "building_phi", ("synthesis",), None),
    ("synthesis.build_tower", "build_tower", ("synthesis",), None),
    ("seymour.confluence", "flow_avoiding_confluence", ("synthesis",), _confluent_pairs),
    ("seymour.split_graph", "build_pair_splitting", ("seymour",), None),
    ("seymour.z6", "nowhere_zero_z6", ("seymour",), None),
    ("cotree.search", "cotree_flow_search", ("seymour", "cotree"), _cotree_edges),
    ("flowalg.lift", "modular_to_integer", ("synthesis",), None),
    ("flowalg.verify", "verify_flow", ("flowalg", "synthesis", "seymour", "oracle", "cli"), None),
    ("flowalg.verify", "rich_report", ("flowalg", "synthesis", "cli"), None),
    ("flowalg.adjacent_pairs", "adjacent_pairs", ("flowalg", "synthesis"), None),
    ("oracle.exact", "exact_rich_flow_number", ("cli",), _resolved),
    ("oracle.chromatic", "chromatic_index", ("cli",), _resolved),
)


class Tracer:
    """Records spans; a parent stack per thread, so thread-pool rows nest correctly."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root: int | None = None  # parent of spans opened on an empty stack
        self.graph_of_text: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_graph(self, graph: str | None) -> None:
        self._local.graph = graph

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self.root
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    getattr(self._local, "graph", None))
        stack.append(span)
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack().pop()
        self.spans.append(span)

    def call(self, name: str, fn, counts, args, kwargs):
        if name == "cli.parse" and args and args[0] in self.graph_of_text:
            self.set_graph(self.graph_of_text[args[0]])
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.close(span, exc)
            raise
        if counts is not None:
            span.info = counts(args, kwargs, result)
        self.close(span)
        return result

    def install(self) -> None:
        for name, attr, modules, counts in WRAP_POINTS:
            for short in modules:
                module = importlib.import_module(f"richflow.{short}")
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original, counts))

    def _wrapper(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, counts, args, kwargs)

        return traced

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanIndex:
    """Aggregates over a finished span list."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_id = {s.id: s for s in spans}
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def _has_ancestor_named(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def busy(self, name: str) -> float:
        """Seconds inside spans of this name, nested repeats counted once."""
        return sum(
            s.end - s.start for s in self.named(name) if not self._has_ancestor_named(s, name)
        )

    def self_time(self, name: str) -> float:
        """Seconds inside spans of this name not covered by any of their children."""
        total = 0.0
        for s in self.named(name):
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in self.children.get(s.id, ())]
            total += (s.end - s.start) - _union_length(kids)
        return total

    def count(self, name: str) -> int:
        return len(self.named(name))

    def info_sum(self, name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in self.named(name))
