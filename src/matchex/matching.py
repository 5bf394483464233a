"""Maximum matchings on multigraphs.

Every algorithm here runs on the support graph: multiplicities never
change which vertex sets are matchable, so parallel edges are dropped on
entry.  The module provides

* `analyze` - one `MatchingAnalysis` per graph: a deterministic maximum
  matching, the deficiency and the Gallai-Edmonds D/A/C decomposition, from
  one blossom solve plus one alternating forest, grown when first read,
* `visit_maximum_matchings` - exhaustive enumeration of all maximum
  matchings of an analysed graph by branch-and-prune over an explicit
  stack, started from the analysis matching; each branch is checked by
  single-root augmenting searches from the partners it frees only, and
  the matchings below a branch the caller marks settled are counted, not
  visited,
* `tutte_berge_witness` - a deficiency-attaining vertex set read off an
  analysis, verified against its deficiency before it is returned.

The solve, the enumerator and the D/A/C forest share one search routine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .multigraph import Multigraph


class Matching:
    """A set of vertex-disjoint support edges (u, v), u < v, stored as given:
    the caller guarantees that form, as the solver and the enumerator do."""

    __slots__ = ("_edges",)

    def __init__(self, edges: Iterable[tuple[int, int]]):
        self._edges = frozenset(edges)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._edges))

    def __len__(self) -> int:
        return len(self._edges)

    def exposed(self, n: int) -> tuple[int, ...]:
        """The vertices 0..n-1 that the matching leaves exposed, ascending."""
        return tuple(sorted(set(range(n)).difference(chain.from_iterable(self._edges))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self) -> int:
        return hash(self._edges)

    def __repr__(self) -> str:
        inner = " ".join(f"{u}-{v}" for u, v in self.sorted_edges())
        return f"Matching({inner})"


# -- blossom augmentation ---------------------------------------------------
#
# One alternating-forest search with cycle contraction, deterministic: roots
# are grown in the order given and adjacency lists are sorted.  The solver and
# the enumerator grow one root; `_gallai_edmonds` grows every exposed vertex.
# An `alive` mask lets the enumerator delete vertices without rebuilding,
# and a search augments the `match` array it is given in place, so the
# enumerator searches from the maximum matching a branch already holds.
#
# A contraction touches only the vertices it absorbs.  `members` maps each
# base that heads a contracted blossom to the vertices it holds; a base
# missing from it holds only itself, so a search starts with an empty dict
# and no per-vertex setup.  `_contract` collects the bases on the cycle,
# moves their members under the new base, and queues the ones not yet
# outer in ascending vertex order.  That is the order a scan over all n
# vertices would queue them in, so every search visits vertices, and every
# partner array comes out, exactly as with such a scan.


def _augment_from(adj: list[tuple[int, ...]], alive: list[bool], match: list[int],
                  roots: Sequence[int]) -> Optional[list[bool]]:
    """Grow an alternating forest from the exposed `roots`, in order.  At the
    first exposed non-root reached at odd depth, augment `match` along the
    path and return None; otherwise return the outer flags."""
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    members: dict[int, list[int]] = {}
    outer = [False] * n
    for root in roots:
        outer[root] = True
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if not alive[to]:
                continue
            if base[v] == base[to] or match[v] == to:
                continue
            if outer[to]:
                _contract(match, p, base, members, outer, queue, v, to)
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
                    return None
                outer[match[to]] = True
                queue.append(match[to])
    return outer


def _contract(match: list[int], p: list[int], base: list[int],
              members: dict[int, list[int]], outer: list[bool],
              queue: deque[int], v: int, to: int) -> None:
    """Contract the odd cycle closed by the edge v-to into one blossom whose
    base is the stems' junction; mark outer and queue, ascending, the
    absorbed vertices not outer yet."""
    cur = _lca(match, p, base, v, to)
    marked: set[int] = set()
    _mark_path(match, p, base, marked, v, cur, to)
    _mark_path(match, p, base, marked, to, cur, v)
    # cur is outer, and so were its blossom's members when it formed
    marked.discard(cur)
    into = members.get(cur)
    if into is None:
        into = members[cur] = [cur]
    fresh = []
    for b in marked:
        group = members.pop(b, None) or [b]
        for i in group:
            base[i] = cur
            if not outer[i]:
                fresh.append(i)
        into.extend(group)
    fresh.sort()
    for i in fresh:
        outer[i] = True
    queue.extend(fresh)


def _lca(match: list[int], p: list[int], base: list[int], a: int, b: int) -> int:
    """The base where the stems of a and b meet.  b's stem reaching an
    exposed base off a's stem means two trees met: an augmenting path."""
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
        if match[b] == -1:
            raise RuntimeError(
                f"alternating forest joins the trees of exposed vertices {a} and {b}: "
                "the matching is not maximum; matching implementation is buggy")
        b = p[match[b]]


def _mark_path(match: list[int], p: list[int], base: list[int],
               marked: set[int], v: int, stop: int, child: int) -> None:
    while base[v] != stop:
        marked.add(base[v])
        marked.add(base[match[v]])
        p[v] = child
        child = match[v]
        v = p[match[v]]


def _solve_matching(adj: list[tuple[int, ...]]) -> list[int]:
    """Maximum matching of the graph; returns the partner array."""
    n = len(adj)
    match = [-1] * n
    for v in range(n):  # greedy warm start
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v], match[w] = w, v
                    break
    # A failed root never ends a later augmenting path (Edmonds 1965), so
    # the last exposed root, with no exposed vertex above it, is not searched.
    roots = [v for v in range(n) if match[v] == -1]
    left = len(roots)  # roots still exposed, from the current one up
    alive = [True] * n
    for root in roots:
        if match[root] == -1:
            left -= 1 + (left > 1 and _augment_from(adj, alive, match, (root,)) is None)
    return match


def _matching_from(match: list[int]) -> Matching:
    """The matching of a partner array, which must be symmetric."""
    for v, w in enumerate(match):
        if w != -1 and match[w] != v:
            raise RuntimeError(f"partner array matches {v} to {w} but {w} to {match[w]}; "
                               "matching implementation is buggy")
    return Matching((v, w) for v, w in enumerate(match) if v < w)


# -- exhaustive enumeration -------------------------------------------------


@dataclass(frozen=True)
class EnumerationStats:
    """Outcome of a maximum-matching traversal.

    `exhaustive` is true iff every maximum matching was visited: the
    traversal neither hit the cap nor was stopped by the visitor.
    """

    count: int
    exhaustive: bool


def visit_maximum_matchings(analysis: MatchingAnalysis,
                            visit: Callable[[Matching], Optional[bool]],
                            cap: Optional[int] = None,
                            settled: Optional[Callable[[int], bool]] = None) -> EnumerationStats:
    """Call `visit` on every maximum matching of the analysed graph g, in a
    fixed order.

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
    decides feasibility exactly, and the walk starts from the analysis
    matching without solving again.  A branch that needs more edges than
    half the live vertices fails without a search, since that search must
    fail.  Since feasibility is exact, the order depends on g alone, not
    on which maximum matching it starts from.

    `settled`, for callers inside the package, takes the bitmask of the
    vertices a branch already leaves exposed: those it branched as exposed
    and the live isolated vertices its vertex scan passed, which the scan
    kills until it backtracks.  It must be monotone, and may hold only if
    `visit` would return a true value, with no side effect, for every
    maximum matching exposing that set.  Once one matching has been
    delivered, the matchings below a settled branch, and each one on whose
    whole exposed set `settled` holds, are counted instead of built and
    visited.  After the scan every vertex below the branch vertex is
    dead, so the live set alone fixes the subtree: all maximum matchings
    of g[live], in a fixed order.  A settled subtree that is walked to the
    end records its count under its live bitmask, and the next settled
    branch with that live set adds the count without descending.  The cap
    stays exact: a recorded count that would pass it ends the walk at the
    cap.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    n = analysis.g.n
    adj = analysis._adj
    alive = [True] * n
    is_alive = alive.__getitem__
    live_count = n  # vertices alive
    chosen: list[tuple[int, int]] = []
    count = 0
    memo: dict[int, int] = {}  # live bitmask -> maximum matchings below it

    def residual(hint: list[int], v: int, w: int, need: int) -> Optional[list[int]]:
        # Maximum matching of the live graph once v, and w when the branch
        # matches v-w (w >= 0), are dead; None when it has fewer than the
        # `need` edges the branch needs.  Live vertices of a returned array
        # are matched only to live ones; entries of dead vertices are stale.
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
        if 2 * need > live_count:  # too few live vertices: every search fails
            return None
        for root in freed:
            if _augment_from(adj, alive, m2, (root,)) is None:
                return m2
        return None

    def branch() -> tuple[int, int, bool]:
        # Live and exposed bitmasks of the branch being entered, and whether
        # its parent was settled, read off the top frame.
        if not stack:
            return (1 << n) - 1, 0, False
        v, _, _, j, _, (live, exposed, calm, _) = stack[-1]
        if j:
            return live ^ (1 << v) ^ (1 << adj[v][j - 1]), exposed, calm
        return live ^ (1 << v), exposed | (1 << v), calm

    # A frame [v, hint, remaining, j, isolated, marks] is an inner node
    # branching on v; its v-w branches resume at w = adj[v][j], and j > 0
    # means the branch to adj[v][j - 1] is the one being explored.  v and
    # the `isolated` bitmask of vertices its scan killed stay dead while the
    # frame is on the stack.  With a `settled` predicate, `marks` holds the
    # node's live and exposed bitmasks, whether it is settled and the count
    # when it was pushed.
    stack: list[list] = []
    hint = analysis._match.copy()
    remaining = len(analysis.matching)
    start = 0
    while True:
        if remaining == 0:
            if cap is not None and count >= cap:
                return EnumerationStats(count=count, exhaustive=False)
            count += 1
            if settled is not None and count > 1:
                live, exposed, calm = branch()
                # the live vertices left are isolated, hence exposed too
                skip = calm or settled(exposed | live)
            else:
                skip = False
            if not skip and visit(Matching(chosen)) is False:
                return EnumerationStats(count=count, exhaustive=False)
        else:
            # Vertices below the parent's v are dead, and stay so.
            v = start
            isolated = 0
            while True:
                if alive[v]:
                    if any(map(is_alive, adj[v])):
                        break
                    alive[v] = False
                    live_count -= 1
                    isolated |= 1 << v
                v += 1
            known = marks = None
            if settled is not None:
                live, exposed, calm = branch()
                live ^= isolated
                exposed |= isolated
                calm = calm or settled(exposed)
                if calm and count:
                    known = memo.get(live)
                marks = (live, exposed, calm, count)
            if known is None:
                stack.append([v, hint, remaining, 0, isolated, marks])
                alive[v] = False
                live_count -= 1
                m2 = residual(hint, v, -1, remaining)
                if m2 is not None:
                    hint, start = m2, v + 1
                    continue
            else:
                if cap is not None and count + known > cap:
                    # the walk would deliver cap - count of them, then stop
                    return EnumerationStats(count=cap, exhaustive=False)
                count += known
                _revive(alive, isolated)
                live_count += isolated.bit_count()
        while stack:
            frame = stack[-1]
            v, hint, remaining, j, isolated, marks = frame
            nbrs = adj[v]
            if j:
                w = nbrs[j - 1]
                alive[w] = True
                live_count += 1
                chosen.pop()
            for j in range(j, len(nbrs)):
                w = nbrs[j]
                if alive[w]:
                    alive[w] = False
                    live_count -= 1
                    m2 = residual(hint, v, w, remaining - 1)
                    if m2 is not None:
                        break
                    alive[w] = True
                    live_count += 1
            else:
                alive[v] = True
                live_count += 1
                if isolated:
                    _revive(alive, isolated)
                    live_count += isolated.bit_count()
                stack.pop()
                if marks is not None and marks[2]:
                    memo[marks[0]] = count - marks[3]
                continue
            frame[3] = j + 1
            chosen.append((v, w) if v < w else (w, v))
            hint, remaining, start = m2, remaining - 1, v + 1
            break
        else:
            return EnumerationStats(count=count, exhaustive=True)


def _revive(alive: list[bool], isolated: int) -> None:
    """Mark alive again the vertices of the bitmask `isolated`."""
    while isolated:
        low = isolated & -isolated
        alive[low.bit_length() - 1] = True
        isolated ^= low


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
    handed to everything that needs them; `ge` is grown on first read."""

    g: Multigraph
    matching: Matching
    deficiency: int
    _adj: list[tuple[int, ...]] = field(compare=False, repr=False)
    _match: list[int] = field(compare=False, repr=False)

    @cached_property
    def ge(self) -> GallaiEdmonds:
        return _gallai_edmonds(self._adj, self._match)


def analyze(g: Multigraph) -> MatchingAnalysis:
    """One maximum matching, deterministic for a fixed graph, from one blossom
    solve.  The D/A/C forest is grown on first read of `ge`, and here at
    deficiency >= 2, where two trees can meet if the matching is not maximum."""
    adj = g.support_adjacency()
    match = _solve_matching(adj)
    matching = _matching_from(match)
    analysis = MatchingAnalysis(g, matching, g.n - 2 * len(matching), adj, match)
    if analysis.deficiency >= 2:
        analysis.ge
    return analysis


def _gallai_edmonds(adj: list[tuple[int, ...]], match: list[int]) -> GallaiEdmonds:
    """D/A/C from the partner array of a maximum matching.

    Edmonds' search grows a tree from every exposed vertex at once,
    contracting blossoms, until no outer vertex has an unexplored edge; D
    is then exactly the set of outer (even) vertices.  Every exposed vertex
    is a root, so the search cannot augment: an edge joining two outer
    vertices of different trees would close an augmenting path, and `_lca`
    raises on it, since the matching was not maximum.
    """
    n = len(adj)
    outer = _augment_from(adj, [True] * n, match, [v for v in range(n) if match[v] == -1])
    d = {v for v in range(n) if outer[v]}
    a = {w for v in d for w in adj[v]} - d
    c = set(range(n)) - d - a
    return GallaiEdmonds(d=frozenset(d), a=frozenset(a), c=frozenset(c))


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
    odd = sum(len(comp) % 2 for comp in g.components(set(range(g.n)) - s))
    if odd - len(s) != analysis.deficiency:
        raise RuntimeError(
            f"Tutte-Berge identity violated: odd={odd} |s|={len(s)} "
            f"deficiency={analysis.deficiency}; matching implementation is buggy")
    return TutteBergeWitness(s=s, odd_count=odd)
