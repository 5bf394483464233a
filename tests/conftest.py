"""Shared graph builders, random corpora and reference oracles for the
test suite."""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Callable, Optional

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from matchex import (
    DegreeProfile,
    GallaiEdmonds,
    GenerationError,
    Multigraph,
    analyze,
    derive_item_seed,
    visit_maximum_matchings,
)
from matchex.hunt import DEFAULT_RETRY_BUDGET
from matchex.matching import (
    EnumerationStats,
    Matching,
    _augment_from,
    _solve_matching,
)

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


def graph_from_edges(n: int, edges) -> Multigraph:
    """Graph on n vertices from (u, v) or (u, v, m) edges, m defaulting to 1:
    ends in either order, repeats of a pair adding up onto one bundle."""
    bundles: dict[tuple[int, int], int] = {}
    for u, v, *m in edges:
        key = (u, v) if u < v else (v, u)
        bundles[key] = bundles.get(key, 0) + (m[0] if m else 1)
    return Multigraph(n, bundles)


def bundle_map(g: Multigraph) -> dict[tuple[int, int], int]:
    """The (u, v) -> multiplicity map g was built from, u < v."""
    return {(u, v): m for u, v, m in g.bundles()}


def strip_labels(g: Multigraph) -> Multigraph:
    """g with its labels dropped."""
    return Multigraph(g.n, bundle_map(g))


def degree_profile(g: Multigraph) -> DegreeProfile:
    """The degree shape of g in the form `expected_stats` states it."""
    degrees = [g.degree(v) for v in range(g.n)]
    hi, lo = max(degrees), min(degrees)
    if hi == lo:
        return DegreeProfile("regular", hi, lo)
    # every edge joins the two degrees: the degree classes 2-colour g
    if all({degrees[u], degrees[v]} == {hi, lo} for u, v, _ in g.bundles()):
        return DegreeProfile("biregular", hi, lo)
    return DegreeProfile("minmax", hi, lo)


def path_graph(k: int) -> Multigraph:
    return graph_from_edges(k, ((v, v + 1) for v in range(k - 1)))


def cycle_graph(k: int) -> Multigraph:
    return graph_from_edges(k, ((v, (v + 1) % k) for v in range(k)))


def complete_graph(k: int) -> Multigraph:
    return graph_from_edges(k, itertools.combinations(range(k), 2))


def star_graph(leaves: int) -> Multigraph:
    return graph_from_edges(leaves + 1, ((0, v) for v in range(1, leaves + 1)))


def petersen_graph() -> Multigraph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return graph_from_edges(10, outer + spokes + inner)


def disjoint_triangles(count: int) -> Multigraph:
    return graph_from_edges(3 * count, (
        e for b in range(0, 3 * count, 3) for e in ((b, b + 1), (b + 1, b + 2), (b, b + 2))))


def random_multigraph(rng: random.Random, max_n: int = 12,
                      max_support_edges: int = 32, max_mult: int = 3) -> Multigraph:
    """Random loop-free multigraph within the brute-force oracle guard."""
    n = rng.randint(1, max_n)
    possible = list(itertools.combinations(range(n), 2))
    edges = []
    if possible:
        m = rng.randint(0, min(max_support_edges, len(possible)))
        edges = [(u, v, rng.randint(1, max_mult)) for u, v in rng.sample(possible, m)]
    return graph_from_edges(n, edges)


def random_graph_corpus(seed: int, count: int, **kwargs) -> list[Multigraph]:
    """Deterministic corpus: graph i is drawn from its own derived seed."""
    return [random_multigraph(random.Random(derive_item_seed(seed, i)), **kwargs)
            for i in range(count)]


_small_graphs_pairs = st.integers(0, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sampled_from(list(itertools.combinations(range(n), 2))),
            unique=True,
            max_size=12,
        )
        if n >= 2
        else st.just([]),
        st.lists(st.integers(1, 3), min_size=12, max_size=12),
    )
)


@st.composite
def small_multigraphs(draw):
    """Multigraphs on at most 7 vertices with at most 12 support edges of
    multiplicity 1-3, for hypothesis."""
    n, edges, mults = draw(_small_graphs_pairs)
    return graph_from_edges(n, ((u, v, m) for (u, v), m in zip(edges, itertools.cycle(mults))))


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
            g = graph_from_edges(n, pairs)
            if len(g.components(range(n))) == 1:
                return g


# -- brute-force oracle -----------------------------------------------------
#
# Exhaustive backtracking over all matchings, sharing nothing with the
# blossom code of matchex.matching.  Guarded: refuses graphs with more than
# BRUTE_FORCE_EDGE_LIMIT support edges.

BRUTE_FORCE_EDGE_LIMIT = 32


def _check_brute_force_guard(g: Multigraph) -> None:
    m = g.support_edge_count()
    if m > BRUTE_FORCE_EDGE_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_EDGE_LIMIT} support edges, got {m}")


def _for_each_matching(adj: list[tuple[int, ...]], n: int,
                       emit: Callable[[list[tuple[int, int]]], None]) -> None:
    # Visits every matching exactly once: the smallest undecided vertex is
    # either left exposed for good or matched to a larger free neighbor.
    covered = [False] * n
    current: list[tuple[int, int]] = []

    def rec(v: int) -> None:
        while v < n and covered[v]:
            v += 1
        if v == n:
            emit(current)
            return
        rec(v + 1)  # v stays exposed
        covered[v] = True
        for w in adj[v]:
            if w > v and not covered[w]:
                covered[w] = True
                current.append((v, w))
                rec(v + 1)
                current.pop()
                covered[w] = False
        covered[v] = False

    rec(0)


def brute_force_matching_number(g: Multigraph) -> int:
    """Exact matching number by exhaustive search (independent oracle)."""
    _check_brute_force_guard(g)
    best = 0

    def emit(current: list[tuple[int, int]]) -> None:
        nonlocal best
        if len(current) > best:
            best = len(current)

    _for_each_matching(g.support_adjacency(), g.n, emit)
    return best


def brute_force_all_maximum_matchings(g: Multigraph) -> set[Matching]:
    """All maximum matchings by exhaustive search (independent oracle)."""
    _check_brute_force_guard(g)
    best = 0
    found: set[frozenset[tuple[int, int]]] = set()

    def emit(current: list[tuple[int, int]]) -> None:
        nonlocal best, found
        if len(current) > best:
            best = len(current)
            found = set()
        if len(current) == best:
            found.add(frozenset(current))

    _for_each_matching(g.support_adjacency(), g.n, emit)
    return {Matching(edges) for edges in found}


def match_size(match: list[int]) -> int:
    """Number of edges in a partner array."""
    return (len(match) - match.count(-1)) // 2


def deletion_gallai_edmonds(g: Multigraph) -> GallaiEdmonds:
    """Reference decomposition by the deletion oracle: v is in D iff
    deleting v leaves the matching number unchanged (n+1 blossom solves,
    each of g - v on the adjacency it induces)."""
    n = g.n
    adj = g.support_adjacency()
    nu = match_size(_solve_matching(adj))
    d: set[int] = set()
    for v in range(n):
        without_v = [() if u == v else tuple(w for w in nbrs if w != v)
                     for u, nbrs in enumerate(adj)]
        if match_size(_solve_matching(without_v)) == nu:
            d.add(v)
    a = {w for v in d for w in adj[v]} - d
    c = set(range(n)) - d - a
    return GallaiEdmonds(d=frozenset(d), a=frozenset(a), c=frozenset(c))


# -- full-scan blossom oracle ------------------------------------------------
#
# The augmenting search and the alternating forest as they were before
# contraction kept per-base member lists, kept verbatim: each contraction
# marks the cycle's bases in an n-entry list and rescans all n vertices.
# Quadratic on large odd graphs, so keep it to the sizes the tests use.


def _full_scan_lca(match: list[int], p: list[int], base: list[int], a: int, b: int) -> int:
    seen = set()
    while True:
        a = base[a]
        seen.add(a)
        if match[a] == -1:
            break
        a = p[match[a]]
    while True:
        b = base[b]
        if b in seen:
            return b
        b = p[match[b]]


def _full_scan_mark_path(match: list[int], p: list[int], base: list[int],
                         in_blossom: list[bool], v: int, stop: int, child: int) -> None:
    while base[v] != stop:
        in_blossom[base[v]] = True
        in_blossom[base[match[v]]] = True
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _full_scan_augment_from(adj: list[tuple[int, ...]], alive: list[bool],
                            match: list[int], root: int) -> bool:
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = deque((root,))
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if not alive[to]:
                continue
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                # odd cycle: contract the blossom at the stems' junction
                cur = _full_scan_lca(match, p, base, v, to)
                in_blossom = [False] * n
                _full_scan_mark_path(match, p, base, in_blossom, v, cur, to)
                _full_scan_mark_path(match, p, base, in_blossom, to, cur, v)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    u = to
                    while u != -1:
                        pv = p[u]
                        ppv = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = ppv
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def greedy_matching(adj: list[tuple[int, ...]], alive: list[bool]) -> list[int]:
    """Partner array of the solver's greedy warm start over the alive
    vertices: each in turn takes its first free alive neighbour."""
    match = [-1] * len(adj)
    for v, nbrs in enumerate(adj):
        if alive[v] and match[v] == -1:
            for w in nbrs:
                if alive[w] and match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break
    return match


def full_scan_solve_matching(adj: list[tuple[int, ...]]) -> list[int]:
    """Partner array of `_solve_matching` (greedy warm start, then one
    search per exposed root, ascending) with full-scan contraction."""
    alive = [True] * len(adj)
    match = greedy_matching(adj, alive)
    for root in range(len(adj)):
        if match[root] == -1:
            _full_scan_augment_from(adj, alive, match, root)
    return match


def full_scan_analyze(g: Multigraph) -> tuple[list[int], int, GallaiEdmonds]:
    """Partner array, deficiency and D/A/C that `analyze` derives, from
    `full_scan_solve_matching` and the full-scan alternating forest."""
    n = g.n
    adj = g.support_adjacency()
    match = full_scan_solve_matching(adj)
    p = [-1] * n
    base = list(range(n))
    outer = [False] * n
    tree = [-1] * n  # exposed root of the tree a reached vertex belongs to
    queue: deque[int] = deque()
    for v in range(n):
        if match[v] == -1:
            outer[v] = True
            tree[v] = v
            queue.append(v)
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if outer[to]:
                if tree[to] != tree[v]:
                    raise RuntimeError("full-scan forest joins two trees")
                cur = _full_scan_lca(match, p, base, v, to)
                in_blossom = [False] * n
                _full_scan_mark_path(match, p, base, in_blossom, v, cur, to)
                _full_scan_mark_path(match, p, base, in_blossom, to, cur, v)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif p[to] == -1:
                p[to] = v
                mate = match[to]
                tree[to] = tree[mate] = tree[v]
                outer[mate] = True
                queue.append(mate)
    d = {v for v in range(n) if outer[v]}
    a = {w for v in d for w in adj[v]} - d
    c = set(range(n)) - d - a
    return match, n - 2 * match_size(match), GallaiEdmonds(
        d=frozenset(d), a=frozenset(a), c=frozenset(c))


def reference_visit_maximum_matchings(
        g: Multigraph, visit: Callable[[Matching], Optional[bool]],
        cap: Optional[int] = None) -> EnumerationStats:
    """Reference enumerator: the recursive branch-and-prune walk that
    `visit_maximum_matchings` replaced, kept verbatim.  It rescans every
    exposed root per branch and recurses once per tree level, so keep it
    to small graphs.

    Branches on the smallest live vertex: first the branch that leaves it
    exposed, then one branch per live neighbor, ascending.  A branch is
    explored only when the residual matching number still allows a maximum
    matching, which both prunes and dedupes (branches are disjoint).
    `visit` may return False to stop early; `cap` bounds the number of
    matchings delivered.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    n = g.n
    adj = g.support_adjacency()
    base = _solve_matching(adj)
    target = match_size(base)
    alive = [True] * n
    chosen: list[tuple[int, int]] = []
    state = {"count": 0, "stopped": False}

    def residual_with(killed: tuple[int, ...], hint: list[int], want: int) -> Optional[list[int]]:
        # Matching of the residual graph minus `killed` reaching size `want`,
        # seeded from the parent matching; None when `want` is unreachable.
        m2 = hint.copy()
        size = target - len(chosen)
        for x in killed:
            px = m2[x]
            if px != -1:
                m2[px] = -1
                m2[x] = -1
                size -= 1
            alive[x] = False
        if size < want:
            for root in range(n):
                if size >= want:
                    break
                if (alive[root] and m2[root] == -1
                        and _augment_from(adj, alive, m2, (root,)) is None):
                    size += 1
        for x in killed:
            alive[x] = True
        return m2 if size >= want else None

    def walk(hint: list[int], remaining: int) -> bool:
        if remaining == 0:
            if cap is not None and state["count"] >= cap:
                state["stopped"] = True
                return False
            state["count"] += 1
            return visit(Matching(chosen)) is not False
        v = -1
        for u in range(n):
            if alive[u] and any(alive[w] for w in adj[u]):
                v = u
                break
        # remaining > 0 guarantees a live edge, hence v >= 0
        m2 = residual_with((v,), hint, remaining)
        if m2 is not None:
            alive[v] = False
            ok = walk(m2, remaining)
            alive[v] = True
            if not ok:
                return False
        for w in adj[v]:
            if not alive[w]:
                continue
            m2 = residual_with((v, w), hint, remaining - 1)
            if m2 is not None:
                alive[v] = alive[w] = False
                chosen.append((v, w) if v < w else (w, v))
                ok = walk(m2, remaining - 1)
                chosen.pop()
                alive[v] = alive[w] = True
                if not ok:
                    return False
        return True

    finished = walk(base, target)
    return EnumerationStats(count=state["count"], exhaustive=finished and not state["stopped"])


def collect_maximum_matchings(
        g: Multigraph, cap: Optional[int] = None) -> tuple[list[Matching], EnumerationStats]:
    """The maximum matchings of g that `visit_maximum_matchings` delivers,
    in its order, and its stats."""
    found: list[Matching] = []
    stats = visit_maximum_matchings(analyze(g), lambda m: found.append(m) or True, cap=cap)
    return found, stats


# -- reference sampler -------------------------------------------------------


def reference_random_regular_graph(n: int, degree: int, seed: int, *,
                                   simple_only: bool = True,
                                   max_retries: int = DEFAULT_RETRY_BUDGET) -> Multigraph:
    """Reference sampler: the one-loop `random_regular_graph` that the
    per-mode pairing loops replaced, kept verbatim.  Both modes share one
    step loop that tests `simple_only` at every step; the draws, the stub
    swaps and the accepted pairings are the ones the sampler must make."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if (n * degree) % 2 != 0:
        raise ValueError(f"n * degree must be even, got {n} * {degree}")
    if degree > 0:
        if simple_only and degree >= n:
            raise ValueError(f"simple {degree}-regular graph needs n > degree, got n={n}")
        if not simple_only and n < 2:
            raise ValueError(f"{degree}-regular graph needs n >= 2, got n={n}")
    if max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    rng = random.Random(seed)
    if n == 0 or degree == 0:
        return Multigraph(n)
    stubs = [v for v in range(n) for _ in range(degree)]
    last = len(stubs) - 1
    steps = [(i, last - i, (last - i).bit_length()) for i in range(0, last, 2)]
    getrandbits = rng.getrandbits
    for _ in range(max_retries):
        seen: set[int] = set()
        for i, span, bits in steps:
            j = getrandbits(bits)
            while j >= span:
                j = getrandbits(bits)
            j += i + 1
            u, v = stubs[i], stubs[j]
            stubs[j] = stubs[i + 1]
            stubs[i + 1] = v
            if u == v:
                break
            if simple_only:
                key = u * n + v if u < v else v * n + u
                if key in seen:
                    break
                seen.add(key)
        else:
            counts: dict[tuple[int, int], int] = {}
            for u, v in zip(stubs[0::2], stubs[1::2]):
                key = (u, v) if u < v else (v, u)
                counts[key] = counts.get(key, 0) + 1
            return Multigraph(n, counts)
    raise GenerationError(
        f"no acceptable {degree}-regular pairing on {n} vertices "
        f"in {max_retries} attempts")
