"""Independent output checks for the benchmark; imports nothing from richflow.

Graphs are plain ``(n, edges)`` pairs with ``edges`` a list of ``(tail, head)``
tuples indexed by edge id. The same checks validate the generated workloads
(3-edge-connectivity, admissibility) so that workload generation never relies
on the code under test.
"""

from __future__ import annotations

import json


def parse_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    n, m = (int(x) for x in rows[0].split())
    edges = [tuple(int(x) for x in ln.split()) for ln in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, found {len(edges)}")
    return n, edges


def format_graph(n: int, edges) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def max_degree(n: int, edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def synth_bound(delta: int) -> int:
    """Exclusive bound on |value| that every synthesized rich flow must meet."""
    return 264 * delta - 445


def _incidence(n: int, edges, removed=()) -> list[list[tuple[int, int]]]:
    inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        if i in removed:
            continue
        inc[u].append((i, v))
        inc[v].append((i, u))
    return inc


def component_count(n: int, edges, removed=()) -> int:
    inc = _incidence(n, edges, removed)
    seen = [False] * n
    count = 0
    for root in range(n):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            for _, y in inc[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


def bridge_set(n: int, edges, removed=()) -> set[int]:
    """Bridges of the graph minus ``removed`` (iterative DFS lowpoint)."""
    inc = _incidence(n, edges, removed)
    disc = [-1] * n
    low = [0] * n
    out: set[int] = set()
    clock = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(inc[root]))]
        while stack:
            v, via, it = stack[-1]
            for eid, w in it:
                if eid == via:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, eid, iter(inc[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > disc[p]:
                        out.add(via)
    return out


def two_edge_cuts(n: int, edges) -> list[tuple[int, int]]:
    """Every 2-edge-cut of a connected bridgeless graph: (e, f) with f a bridge of G - e."""
    cuts = set()
    for e in range(len(edges)):
        for f in bridge_set(n, edges, removed=(e,)):
            cuts.add((min(e, f), max(e, f)))
    return sorted(cuts)


def is_three_edge_connected(n: int, edges) -> bool:
    return (
        component_count(n, edges) == 1
        and not bridge_set(n, edges)
        and not two_edge_cuts(n, edges)
    )


def is_admissible(n: int, edges) -> bool:
    """Connected, bridgeless, and no 2-edge-cut whose two edges share an endpoint."""
    if component_count(n, edges) != 1 or bridge_set(n, edges):
        return False
    return not any(set(edges[e]) & set(edges[f]) for e, f in two_edge_cuts(n, edges))


def is_admissible_brute_force(n: int, edges) -> bool:
    """The same verdict by removing every edge and every edge pair outright."""
    if component_count(n, edges) != 1:
        return False
    m = len(edges)
    if any(component_count(n, edges, (e,)) > 1 for e in range(m)):
        return False
    for e in range(m):
        for f in range(e + 1, m):
            if set(edges[e]) & set(edges[f]) and component_count(n, edges, (e, f)) > 1:
                return False
    return True


def certificate_errors(n: int, edges, text: str) -> list[str]:
    """Every way the integer flow certificate fails to be a rich flow below the bound."""
    try:
        payload = json.loads(text)
        rows = payload["edges"]
        values = [None] * len(edges)
        for row in rows:
            eid, tail, head, value = row["id"], row["tail"], row["head"], row["value"]
            if (tail, head) == edges[eid]:
                values[eid] = value
            elif (head, tail) == edges[eid]:
                values[eid] = -value
            else:
                return [f"edge {eid} endpoints do not match the graph"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable certificate: {exc!r}"]
    if payload.get("group") != "int" or any(not isinstance(v, int) for v in values):
        return ["certificate is not an integer flow over every edge"]
    errors = []
    excess = [0] * n
    for (u, v), val in zip(edges, values):
        excess[u] -= val
        excess[v] += val
    if any(excess):
        errors.append(f"conservation fails at {sum(1 for x in excess if x)} vertices")
    if any(v == 0 for v in values):
        errors.append("zero value")
    bound = synth_bound(max_degree(n, edges))
    if any(abs(v) >= bound for v in values):
        errors.append(f"|value| reaches the bound {bound}")
    for x in range(n):
        at_x = [abs(values[i]) for i, (u, v) in enumerate(edges) if x in (u, v)]
        if len(set(at_x)) != len(at_x):
            errors.append(f"adjacent edges share an absolute value at vertex {x}")
            break
    return errors


def max_abs_value(text: str) -> int:
    return max(abs(row["value"]) for row in json.loads(text)["edges"])


def batch_row_errors(n: int, edges, row: dict) -> list[str]:
    """Check one CSV row of ``richflow batch`` against independent facts."""
    errors = []
    delta = max_degree(n, edges)
    if (row["n"], row["m"], row["delta"]) != (str(n), str(len(edges)), str(delta)):
        errors.append("n, m or delta column is wrong")
    admissible = is_admissible_brute_force(n, edges)
    if row["admissible"] != ("true" if admissible else "false"):
        errors.append(f"admissible column says {row['admissible']}")
    chi = int(row["chi_prime"]) if row["chi_prime"] else None
    if chi is not None and not delta <= chi <= (3 * delta) // 2:
        errors.append(f"chi_prime {chi} outside [{delta}, {(3 * delta) // 2}]")
    exact = int(row["exact_R"]) if row["exact_R"] else None
    if chi is not None and exact is not None and exact < chi + 1:
        errors.append(f"exact_R {exact} below chi_prime + 1")
    status = row["status"].split(";")[0]
    if admissible:
        if status != "ok":
            errors.append(f"status {row['status']!r} on an admissible graph")
        elif int(row["synth_bound"]) != synth_bound(delta):
            errors.append("synth_bound column is wrong")
        elif not 0 < int(row["synth_max_abs"]) < int(row["synth_bound"]):
            errors.append("synth_max_abs not below synth_bound")
    elif status != "not_admissible":
        errors.append(f"status {row['status']!r} on an inadmissible graph")
    return errors
