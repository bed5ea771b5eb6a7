"""Test-only reference for circuit chains: exhaustive backtracking over every
circuit of the graph. Tests check ``find_circuit_chain``, which builds a chain
from two edge-disjoint paths of minimum total size, against it.
"""

from __future__ import annotations

from richflow import Multigraph
from richflow.multigraph import validate_circuit_chain
from richflow.errors import InternalDefectError
from richflow.multigraph import Circuit, CircuitChain


def all_circuits(g: Multigraph, cap: int = 20000) -> list[Circuit]:
    """Every circuit of g (anchored at its minimum edge id), up to a count cap."""
    out: list[Circuit] = []
    m = g.edge_count
    for anchor in range(m):
        a = g.edge(anchor)
        # Path from a.head back to a.tail using only edges with larger ids;
        # each circuit shows up exactly once, anchored at its smallest edge.
        stack: list[tuple[int, list[int], list[int]]] = [(a.head, [a.tail, a.head], [anchor])]
        while stack:
            cur, verts, eids = stack.pop()
            for eid in g.incident(cur):
                if eid <= anchor or eid in eids:
                    continue
                w = g.edge(eid).other_end(cur)
                if w == a.tail:
                    out.append(Circuit(tuple(verts), tuple(eids + [eid])))
                    if len(out) > cap:
                        raise InternalDefectError("circuit enumeration cap exceeded")
                elif w not in verts:
                    stack.append((w, verts + [w], eids + [eid]))
    return out


def chain_via_backtracking(g: Multigraph, u: int, v: int) -> CircuitChain | None:
    circuits = all_circuits(g)
    order = sorted(range(len(circuits)), key=lambda i: (len(circuits[i]), circuits[i].edges))
    by_vertex: dict[int, list[int]] = {}
    for i in order:
        for w in circuits[i].vertices:
            by_vertex.setdefault(w, []).append(i)

    def extend(chain: list[Circuit], used: set[int], entry: int | None) -> CircuitChain | None:
        cand = CircuitChain(tuple(chain))
        if validate_circuit_chain(g, cand, (u, v)):
            return cand
        if len(chain) >= g.vertex_count:
            return None
        last = chain[-1]
        for w in sorted(last.vertex_set):
            if w == entry or w == u:
                continue
            for ci in by_vertex.get(w, ()):
                nxt = circuits[ci]
                if nxt.vertex_set & used != {w}:
                    continue
                res = extend(chain + [nxt], used | nxt.vertex_set, w)
                if res is not None:
                    return res
        return None

    for ci in by_vertex.get(u, ()):
        first = circuits[ci]
        res = extend([first], set(first.vertex_set), None)
        if res is not None:
            return res
    return None
