from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from richflow import Multigraph, is_rich_flow_admissible, parse_multigraph

# A failing property test prints a blob that replays it with
# @reproduce_failure, so a failure on CI can be reproduced locally.
# Registering over the active "default" profile takes effect at once; where
# hypothesis detects CI it keeps its own "ci" profile, which derandomizes and
# prints the blob too.
settings.register_profile("default", print_blob=True)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

ADMISSIBLE_NAMES = [
    "t3",
    "t4",
    "dt",
    "tri3",
    "k4",
    "k4_doubled",
    "c4_doubled",
    "l2",
    "k5",
    "w5",
    "k33",
    "prism",
    "wagner",
    "petersen",
    "two_k4",
    "three_k4",
]

INADMISSIBLE_NAMES = ["c4", "c5", "bridge"]

ALL_NAMES = ADMISSIBLE_NAMES + INADMISSIBLE_NAMES


def load(name: str) -> Multigraph:
    return parse_multigraph((CORPUS / f"{name}.graph").read_text())


def three_edge_connected(g: Multigraph) -> bool:
    """Read off the admissibility verdict: admissible with no 2-edge-cut."""
    verdict = is_rich_flow_admissible(g)
    return verdict.admissible and not verdict.two_cuts


@pytest.fixture
def k4() -> Multigraph:
    return load("k4")


@pytest.fixture
def t3() -> Multigraph:
    return load("t3")


@pytest.fixture
def bowtie() -> Multigraph:
    # Two triangles sharing vertex 2.
    return Multigraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


# ---------------------------------------------------------------------------
# Independent connectivity oracle for cut tests (no richflow internals).


def oracle_components(n: int, edges: list[tuple[int, int]]) -> int:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        stack = [s]
        seen[s] = True
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


def oracle_cuts(g: Multigraph):
    """All bridges and non-bridge disconnecting pairs by subset deletion."""
    pairs = [(e.tail, e.head) for e in g.edges]
    n = g.vertex_count
    base = oracle_components(n, pairs)
    bridges = set()
    for i in range(len(pairs)):
        rest = [p for j, p in enumerate(pairs) if j != i]
        if oracle_components(n, rest) > base:
            bridges.add(i)
    two_cuts = set()
    for i in range(len(pairs)):
        if i in bridges:
            continue
        for j in range(i + 1, len(pairs)):
            if j in bridges:
                continue
            rest = [p for k, p in enumerate(pairs) if k not in (i, j)]
            if oracle_components(n, rest) > base:
                two_cuts.add((i, j))
    return bridges, two_cuts


def prism(n: int) -> Multigraph:
    """C_n x K_2: two n-cycles joined by n spokes."""
    outer = [(i, (i + 1) % n) for i in range(n)]
    inner = [(n + i, n + (i + 1) % n) for i in range(n)]
    return Multigraph(2 * n, outer + inner + [(i, n + i) for i in range(n)])


def relabel(g: Multigraph, vperm: list[int], eperm: list[int]) -> Multigraph:
    """Graph with vertices renamed by vperm and edges reordered by eperm."""
    pairs = [None] * g.edge_count
    for old, new in enumerate(eperm):
        e = g.edge(old)
        pairs[new] = (vperm[e.tail], vperm[e.head])
    return Multigraph(g.vertex_count, pairs)


def doubled_cycle(n: int) -> Multigraph:
    """C_n with every edge doubled: n + 1 co-tree edges, one circuit per pair."""
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n) for _ in range(2)])


def random_cubic(rng, n: int) -> Multigraph:
    """A uniformly paired random simple cubic graph on n (even) vertices; it
    may be disconnected or have bridges."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = list(zip(points[0::2], points[1::2]))
        if all(u != v for u, v in pairs) and len({frozenset(p) for p in pairs}) == len(pairs):
            return Multigraph(n, pairs)
