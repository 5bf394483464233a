"""Shared graph builders and random corpora for the test suite."""

from __future__ import annotations

import itertools
import random

from hypothesis import HealthCheck, settings

from matchex import GallaiEdmonds, Multigraph, derive_item_seed
from matchex.matching import _match_size, _solve_matching, _support_adj

settings.register_profile(
    "stable",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("stable")

# Seed of the 500-graph acceptance corpus (criterion 8 and the
# Gallai-Edmonds oracle cross-check).
CORPUS_SEED = 88

# One line per acceptance criterion, echoed after the run so the verdicts
# are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def path_graph(k: int) -> Multigraph:
    g = Multigraph(k)
    for v in range(k - 1):
        g.add_edges(v, v + 1, 1)
    return g.freeze()


def cycle_graph(k: int) -> Multigraph:
    g = Multigraph(k)
    for v in range(k):
        g.add_edges(v, (v + 1) % k, 1)
    return g.freeze()


def complete_graph(k: int) -> Multigraph:
    g = Multigraph(k)
    for u in range(k):
        for v in range(u + 1, k):
            g.add_edges(u, v, 1)
    return g.freeze()


def star_graph(leaves: int) -> Multigraph:
    g = Multigraph(leaves + 1)
    for v in range(1, leaves + 1):
        g.add_edges(0, v, 1)
    return g.freeze()


def petersen_graph() -> Multigraph:
    g = Multigraph(10)
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    for u, v in outer + spokes + inner:
        g.add_edges(u, v, 1)
    return g.freeze()


def disjoint_triangles(count: int) -> Multigraph:
    g = Multigraph(3 * count)
    for t in range(count):
        base = 3 * t
        g.add_edges(base, base + 1, 1)
        g.add_edges(base + 1, base + 2, 1)
        g.add_edges(base, base + 2, 1)
    return g.freeze()


def random_multigraph(rng: random.Random, max_n: int = 12,
                      max_support_edges: int = 32, max_mult: int = 3) -> Multigraph:
    """Random loop-free multigraph within the brute-force oracle guard."""
    n = rng.randint(1, max_n)
    g = Multigraph(n)
    possible = list(itertools.combinations(range(n), 2))
    if possible:
        m = rng.randint(0, min(max_support_edges, len(possible)))
        for u, v in rng.sample(possible, m):
            g.add_edges(u, v, rng.randint(1, max_mult))
    return g.freeze()


def random_graph_corpus(seed: int, count: int, **kwargs) -> list[Multigraph]:
    """Deterministic corpus: graph i is drawn from its own derived seed."""
    return [random_multigraph(random.Random(derive_item_seed(seed, i)), **kwargs)
            for i in range(count)]


def random_subcubic_connected(rng: random.Random, n_min: int = 4,
                              n_max: int = 12) -> Multigraph:
    """Random connected simple graph with every degree 2 or 3."""
    while True:
        n = rng.randint(n_min, n_max)
        degs = [rng.choice((2, 3)) for _ in range(n)]
        if sum(degs) % 2 == 1:
            i = rng.randrange(n)
            degs[i] = 5 - degs[i]
        stubs = [v for v in range(n) for _ in range(degs[v])]
        for _ in range(50):
            rng.shuffle(stubs)
            pairs = set()
            ok = True
            for a in range(0, len(stubs), 2):
                u, v = stubs[a], stubs[a + 1]
                if u == v or (min(u, v), max(u, v)) in pairs:
                    ok = False
                    break
                pairs.add((min(u, v), max(u, v)))
            if not ok:
                continue
            g = Multigraph(n)
            for u, v in sorted(pairs):
                g.add_edges(u, v, 1)
            g.freeze()
            if g.is_connected():
                return g


def deletion_gallai_edmonds(g: Multigraph) -> GallaiEdmonds:
    """Reference decomposition by the deletion oracle: v is in D iff
    deleting v leaves the matching number unchanged (n+1 blossom solves)."""
    n = g.n
    adj = _support_adj(g)
    nu = _match_size(_solve_matching(adj))
    d: set[int] = set()
    alive = [True] * n
    for v in range(n):
        alive[v] = False
        if _match_size(_solve_matching(adj, alive)) == nu:
            d.add(v)
        alive[v] = True
    a = {w for v in d for w in adj[v]} - d
    c = set(range(n)) - d - a
    return GallaiEdmonds(d=frozenset(d), a=frozenset(a), c=frozenset(c))
