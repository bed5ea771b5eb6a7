"""Seeded workload generators. The same seed always yields the same graphs.

Every generated graph is validated with the benchmark's own checker, never
with the code under test.
"""

from __future__ import annotations

import random

from . import checker

CUBIC_SIZES = (16, 20, 24)
# The sizes at which the seed's cotree Z6 search sometimes stalls for minutes.
LARGE_CUBIC_SIZES = (32, 48, 64)


def cubic_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A uniformly paired random simple cubic graph that is 3-edge-connected."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = list(zip(points[0::2], points[1::2]))
        keys = {tuple(sorted(e)) for e in edges}
        if any(u == v for u, v in edges) or len(keys) != len(edges):
            continue
        if checker.is_three_edge_connected(n, edges):
            return edges


def small_multigraph(
    rng: random.Random, n: int, admissible: bool, m: int | None = None, max_m: int = 14
) -> list[tuple[int, int]]:
    """A connected random multigraph on n vertices of the requested class, with
    m edges, or with m drawn from n+1..max_m on each attempt when m is None."""
    while True:
        size = m if m is not None else rng.randint(n + 1, max(max_m, n + 1))
        edges = []
        for _ in range(size):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v))
        if checker.component_count(n, edges) != 1:
            continue
        if checker.is_admissible_brute_force(n, edges) == admissible:
            return edges


def synth_cubic(seed: int, count: int, sizes=CUBIC_SIZES) -> list[tuple[str, str]]:
    """``count`` cubic graphs whose sizes cycle through ``sizes``."""
    rng = random.Random(f"synth-cubic/{seed}")
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        out.append((f"cubic-{i:04d}-n{n}", checker.format_graph(n, cubic_graph(rng, n))))
    return out


# (n, m) of the 18 admissible graphs in each block of 24. The oracles' cost
# follows m closely (few edges: exact R found at once; many: the node limit
# binds), so fixing the mix keeps the work per batch directory alike from seed
# to seed. The n mix follows how often drawing n uniformly from 3..8 and
# rejecting yields each n (n = 7, 8 almost never admissible).
ADMISSIBLE_SHAPES = (
    (3, 5), (3, 7), (3, 8), (3, 10), (3, 11), (3, 12), (3, 14),
    (4, 7), (4, 8), (4, 10), (4, 11), (4, 12), (4, 14),
    (5, 10), (5, 12), (5, 14),
    (6, 12), (6, 14),
)
# Vertex counts of the 6 inadmissible graphs; their m is drawn.
INADMISSIBLE_N = (3, 4, 5, 6, 7, 8)


def batch_small(seed: int, count: int, max_n: int = 8, max_m: int = 14) -> list[tuple[str, str]]:
    """``count`` small multigraphs, every fourth one inadmissible."""
    rng = random.Random(f"batch-small/{seed}")
    out = []
    for i in range(count):
        if i % 4 == 3:
            n = min(INADMISSIBLE_N[i // 4 % len(INADMISSIBLE_N)], max_n)
            edges = small_multigraph(rng, n, False, max_m=max_m)
        else:
            n, m = ADMISSIBLE_SHAPES[(i - i // 4) % len(ADMISSIBLE_SHAPES)]
            n, m = min(n, max_n), min(m, max_m)
            edges = small_multigraph(rng, n, True, m)
        out.append((f"small-{i:04d}", checker.format_graph(n, edges)))
    return out
