"""Maximum matchings on multigraphs.

Every algorithm here runs on the support graph: multiplicities never
change which vertex sets are matchable, so parallel edges are dropped on
entry.  The module provides

* `maximum_matching` - deterministic blossom-style augmentation,
* `visit_maximum_matchings` / `enumerate_maximum_matchings` - exhaustive
  enumeration of all maximum matchings by branch-and-prune over an
  explicit stack; each branch is checked by single-root augmenting
  searches from the partners it frees only,
* `brute_force_matching_number` / `brute_force_all_maximum_matchings` -
  an independent backtracking oracle (no blossom code path),
* `analyze` - one `MatchingAnalysis` per graph: a maximum matching, the
  deficiency and the Gallai-Edmonds D/A/C decomposition, from one blossom
  solve plus one alternating forest; `gallai_edmonds` returns its D/A/C,
* `tutte_berge_witness` - a deficiency-attaining vertex set read off an
  analysis, verified against its deficiency before it is returned,
* `hall_violator` - a witness set for unsaturated bipartite sides.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .multigraph import Multigraph

BRUTE_FORCE_EDGE_LIMIT = 32


class Matching:
    """A set of vertex-disjoint support edges, stored as (u, v) with u < v."""

    __slots__ = ("_edges", "_partner")

    def __init__(self, edges: Iterable[tuple[int, int]]):
        partner: dict[int, int] = {}
        normalized = []
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"matching edge {u}-{v} is a loop")
            if u > v:
                u, v = v, u
            if u in partner or v in partner:
                raise ValueError(f"matching edges are not vertex-disjoint at {u}-{v}")
            partner[u] = v
            partner[v] = u
            normalized.append((u, v))
        self._edges = frozenset(normalized)
        self._partner = partner

    @classmethod
    def _trusted(cls, edges: frozenset[tuple[int, int]], partner: dict[int, int]) -> Matching:
        """Matching from vertex-disjoint (u, v) edges with u < v and their
        symmetric partner map, unchecked and owned by the new object; for
        callers that only build such edges."""
        m = cls.__new__(cls)
        m._edges = edges
        m._partner = partner
        return m

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._edges))

    def size(self) -> int:
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def saturates(self, v: int) -> bool:
        return v in self._partner

    def partner(self, v: int) -> Optional[int]:
        return self._partner.get(v)

    def unsaturated(self, vertices: frozenset[int]) -> frozenset[int]:
        """The members of `vertices` that the matching leaves exposed."""
        return vertices.difference(self._partner)

    def validate_in(self, g: Multigraph) -> None:
        """Reject matchings that use vertices or bundles g does not have."""
        for u, v in self._edges:
            if not (0 <= u < g.n and 0 <= v < g.n):
                raise ValueError(f"matching edge {u}-{v} out of range for n={g.n}")
            if g.bundle_multiplicity(u, v) == 0:
                raise ValueError(f"matching edge {u}-{v} is not an edge of the graph")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self) -> int:
        return hash(self._edges)

    def __repr__(self) -> str:
        inner = " ".join(f"{u}-{v}" for u, v in self.sorted_edges())
        return f"Matching({inner})"


def _support_adj(g: Multigraph) -> list[tuple[int, ...]]:
    return [tuple(sorted(g.support_neighbors(v))) for v in range(g.n)]


# -- blossom augmentation ---------------------------------------------------
#
# Array-based augmenting search with cycle contraction, deterministic:
# roots are tried in ascending id order and adjacency lists are sorted.
# An `alive` mask lets callers delete vertices without rebuilding, and a
# pre-seeded `match` array lets the enumerator reuse parent matchings.


def _augment_from(adj: list[tuple[int, ...]], alive: list[bool],
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
                cur = _lca(match, p, base, v, to)
                in_blossom = [False] * n
                _mark_path(match, p, base, in_blossom, v, cur, to)
                _mark_path(match, p, base, in_blossom, to, cur, v)
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


def _lca(match: list[int], p: list[int], base: list[int], a: int, b: int) -> int:
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


def _mark_path(match: list[int], p: list[int], base: list[int],
               in_blossom: list[bool], v: int, stop: int, child: int) -> None:
    while base[v] != stop:
        in_blossom[base[v]] = True
        in_blossom[base[match[v]]] = True
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _solve_matching(adj: list[tuple[int, ...]], alive: Optional[list[bool]] = None,
                    match: Optional[list[int]] = None) -> list[int]:
    """Maximum matching over the alive vertices; returns the partner array.

    A supplied `match` array is augmented in place (callers own the copy).
    """
    n = len(adj)
    if alive is None:
        alive = [True] * n
    if match is None:
        match = [-1] * n
        for v in range(n):  # greedy warm start
            if alive[v] and match[v] == -1:
                for w in adj[v]:
                    if alive[w] and match[w] == -1:
                        match[v] = w
                        match[w] = v
                        break
    for root in range(n):
        if alive[root] and match[root] == -1:
            _augment_from(adj, alive, match, root)
    return match


def _match_size(match: list[int]) -> int:
    return sum(1 for v in match if v != -1) // 2


def _matching_from(match: list[int]) -> Matching:
    return Matching((v, w) for v, w in enumerate(match) if v < w)


def maximum_matching(g: Multigraph) -> Matching:
    """One maximum matching, deterministic for a fixed graph."""
    return _matching_from(_solve_matching(_support_adj(g)))


def matching_number(g: Multigraph) -> int:
    return _match_size(_solve_matching(_support_adj(g)))


def deficiency(g: Multigraph) -> int:
    """Number of vertices left exposed by any maximum matching."""
    return g.n - 2 * matching_number(g)


def exposed_vertices(g: Multigraph, m: Matching) -> set[int]:
    """Vertices of g not saturated by m; m must be a matching in g."""
    m.validate_in(g)
    return {v for v in range(g.n) if not m.saturates(v)}


# -- exhaustive enumeration -------------------------------------------------


@dataclass(frozen=True)
class EnumerationStats:
    """Outcome of a maximum-matching traversal.

    `exhaustive` is true iff every maximum matching was visited: the
    traversal neither hit the cap nor was stopped by the visitor.
    """

    count: int
    exhaustive: bool


@dataclass(frozen=True)
class MatchingEnumeration:
    matchings: tuple[Matching, ...]
    exhaustive: bool

    def count(self) -> int:
        return len(self.matchings)


def visit_maximum_matchings(g: Multigraph, visit: Callable[[Matching], Optional[bool]],
                            cap: Optional[int] = None) -> EnumerationStats:
    """Call `visit` on every maximum matching of g, in a fixed order.

    Branches on the smallest live vertex v with a live neighbor: first the
    branch that leaves v exposed, then one branch per live neighbor w,
    ascending, that matches v-w.  A branch is explored only when the
    residual matching number still allows a maximum matching, which both
    prunes and dedupes (branches are disjoint).  `visit` may return False
    to stop early; `cap` bounds the number of matchings delivered.

    The walk keeps its branch points on an explicit stack, so its depth is
    not bounded by Python's recursion limit.  Each node holds a maximum
    matching `hint` of its live graph.  Deleting v (and w) from it loses
    at most one edge more than the branch may, and any augmenting path
    then ends at a partner the deletion freed: a path between two vertices
    `hint` already left exposed would augment `hint` itself (Edmonds 1965).
    So one single-root search per freed partner, at most two per branch,
    decides feasibility exactly.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    n = g.n
    adj = _support_adj(g)
    alive = [True] * n
    is_alive = alive.__getitem__
    chosen: list[tuple[int, int]] = []
    partner: dict[int, int] = {}
    count = 0

    def residual(hint: list[int], v: int, w: int) -> Optional[list[int]]:
        # Maximum matching of the live graph once v, and w when the branch
        # matches v-w (w >= 0), are dead; None when it falls short of what
        # the branch needs.  Live vertices of a returned array are matched
        # only to live ones; entries of dead vertices are stale.
        if hint[v] == w:  # v exposed (w == -1), or v-w already in hint
            return hint
        m2 = hint.copy()
        freed = []
        for x in (v, w) if w >= 0 else (v,):
            px = m2[x]
            if px != -1:
                m2[px] = m2[x] = -1
                freed.append(px)
        if w >= 0 and len(freed) < 2:  # the v-w branch may lose one edge
            return m2
        for root in freed:
            if _augment_from(adj, alive, m2, root):
                return m2
        return None

    # A frame [v, hint, remaining, j] is an inner node branching on v; its
    # v-w branches resume at w = adj[v][j], and j > 0 means the branch to
    # adj[v][j - 1] is the one being explored.  v stays dead while its frame
    # is on the stack.
    stack: list[list] = []
    hint = _solve_matching(adj)
    remaining = _match_size(hint)
    start = 0
    while True:
        if remaining == 0:
            if cap is not None and count >= cap:
                return EnumerationStats(count=count, exhaustive=False)
            count += 1
            if visit(Matching._trusted(frozenset(chosen), partner.copy())) is False:
                return EnumerationStats(count=count, exhaustive=False)
        else:
            # Vertices below the parent's v are dead or isolated, and stay so.
            v = start
            while not (alive[v] and any(map(is_alive, adj[v]))):
                v += 1
            alive[v] = False
            stack.append([v, hint, remaining, 0])
            m2 = residual(hint, v, -1)
            if m2 is not None:
                hint, start = m2, v + 1
                continue
        while stack:
            frame = stack[-1]
            v, hint, remaining, j = frame
            nbrs = adj[v]
            if j:
                w = nbrs[j - 1]
                alive[w] = True
                chosen.pop()
                del partner[v], partner[w]
            for j in range(j, len(nbrs)):
                w = nbrs[j]
                if alive[w]:
                    alive[w] = False
                    m2 = residual(hint, v, w)
                    if m2 is not None:
                        break
                    alive[w] = True
            else:
                alive[v] = True
                stack.pop()
                continue
            frame[3] = j + 1
            chosen.append((v, w) if v < w else (w, v))
            partner[v] = w
            partner[w] = v
            hint, remaining, start = m2, remaining - 1, v + 1
            break
        else:
            return EnumerationStats(count=count, exhaustive=True)


def enumerate_maximum_matchings(g: Multigraph, cap: Optional[int] = None) -> MatchingEnumeration:
    """Materialize all maximum matchings of g (up to `cap`)."""
    found: list[Matching] = []
    stats = visit_maximum_matchings(g, lambda m: found.append(m) or True, cap=cap)
    return MatchingEnumeration(matchings=tuple(found), exhaustive=stats.exhaustive)


# -- brute-force oracle -----------------------------------------------------
#
# Exhaustive backtracking over all matchings, sharing nothing with the
# blossom path above.  Guarded: refuses graphs with more than
# BRUTE_FORCE_EDGE_LIMIT support edges.


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

    _for_each_matching(_support_adj(g), g.n, emit)
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

    _for_each_matching(_support_adj(g), g.n, emit)
    return {Matching(edges) for edges in found}


# -- structure theory -------------------------------------------------------


@dataclass(frozen=True)
class GallaiEdmonds:
    """Canonical decomposition: d = vertices some maximum matching misses,
    a = their outside neighbors, c = the rest."""

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]


@dataclass(frozen=True)
class MatchingAnalysis:
    """What one maximum matching of g determines: the deficiency and the
    Gallai-Edmonds decomposition.  Built once per graph by `analyze` and
    handed to everything that needs them."""

    g: Multigraph
    matching: Matching
    deficiency: int
    ge: GallaiEdmonds


def analyze(g: Multigraph) -> MatchingAnalysis:
    """One maximum matching (that of `maximum_matching`) plus the D/A/C
    decomposition, from one blossom solve and one alternating forest.

    Edmonds' search grows a tree from every exposed vertex at once,
    contracting blossoms, until no outer vertex has an unexplored edge; D
    is then exactly the set of outer (even) vertices.  An edge joining two
    outer vertices of different trees would close an augmenting path, so it
    raises: the matching was not maximum.
    """
    n = g.n
    adj = _support_adj(g)
    match = _solve_matching(adj)
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
                # Exposed vertices are outer roots from the start, so one is
                # never reached at odd depth: an edge to it from another
                # tree is caught here.
                if tree[to] != tree[v]:
                    raise RuntimeError(
                        f"alternating forest joins the trees of exposed vertices "
                        f"{tree[v]} and {tree[to]}: the matching is not maximum; "
                        "matching implementation is buggy")
                cur = _lca(match, p, base, v, to)
                in_blossom = [False] * n
                _mark_path(match, p, base, in_blossom, v, cur, to)
                _mark_path(match, p, base, in_blossom, to, cur, v)
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
    return MatchingAnalysis(
        g=g, matching=_matching_from(match), deficiency=n - 2 * _match_size(match),
        ge=GallaiEdmonds(d=frozenset(d), a=frozenset(a), c=frozenset(c)))


def gallai_edmonds(g: Multigraph) -> GallaiEdmonds:
    """The D/A/C decomposition of g (see `analyze`)."""
    return analyze(g).ge


@dataclass(frozen=True)
class TutteBergeWitness:
    """Vertex set s with odd_count = (odd components of g - s), attaining
    deficiency(g) = odd_count - |s|."""

    s: frozenset[int]
    odd_count: int


def tutte_berge_witness(analysis: MatchingAnalysis) -> TutteBergeWitness:
    """Deficiency-attaining set (the A side of Gallai-Edmonds).

    The identity odd_count - |s| = deficiency is checked before returning;
    failure raises, since it would mean the matching was not maximum.
    """
    g = analysis.g
    s = analysis.ge.a
    seen = [False] * g.n
    for v in s:
        seen[v] = True
    odd = 0
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        size = 1
        queue = deque((start,))
        while queue:
            u = queue.popleft()
            for w in g.support_neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    size += 1
                    queue.append(w)
        if size % 2 == 1:
            odd += 1
    if odd - len(s) != analysis.deficiency:
        raise RuntimeError(
            f"Tutte-Berge identity violated: odd={odd} |s|={len(s)} "
            f"deficiency={analysis.deficiency}; matching implementation is buggy")
    return TutteBergeWitness(s=s, odd_count=odd)


def hall_violator(g: Multigraph, side: Iterable[int]) -> Optional[frozenset[int]]:
    """A set W within `side` with fewer neighbors than members, if any.

    `side` must be one part of a bipartition of g (every support edge must
    cross).  Returns None exactly when every maximum matching saturates
    the side.
    """
    side_set = set(side)
    for v in side_set:
        g._check_vertex(v)
    for u, v in g.support_edges():
        if (u in side_set) == (v in side_set):
            raise ValueError(f"edge {u}-{v} does not cross the given side; "
                             "graph is not bipartite with this part")
    m = maximum_matching(g)
    exposed_side = [v for v in sorted(side_set) if not m.saturates(v)]
    if not exposed_side:
        return None
    # Alternating reachability from the exposed side vertices: free edges
    # out of the side, matched edges back into it.
    reach = set(exposed_side)
    queue = deque(exposed_side)
    while queue:
        u = queue.popleft()
        if u in side_set:
            for w in g.support_neighbors(u):
                if w != m.partner(u) and w not in reach:
                    reach.add(w)
                    queue.append(w)
        else:
            p = m.partner(u)
            if p is not None and p not in reach:
                reach.add(p)
                queue.append(p)
    return frozenset(reach & side_set)
