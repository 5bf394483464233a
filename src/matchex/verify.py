"""Verdicts about maximum matchings and common neighbors of exposed vertices.

The central question: does a graph have some maximum matching whose exposed
vertices are pairwise without common neighbors?  `conjecture_holds` answers
it; `is_counterexample` decides the two refutation strengths

* SomePair - every maximum matching leaves some exposed pair with a common
  neighbor (the exact negation of the question above), and
* AllPairs - deficiency is at least 2 and every exposed pair of every
  maximum matching shares a neighbor.

Enumeration is exact but capped; two sound-but-incomplete structural
certificates can decide counterexample status without enumeration.  Every
outcome is wrapped in a VerificationReport that records which method
actually decided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence, Union

from .matching import (
    Matching,
    deficiency,
    gallai_edmonds,
    maximum_matching,
    visit_maximum_matchings,
)
from .multigraph import Copy, Hub, Multigraph

DEFAULT_CAP = 100_000

METHOD_ENUMERATION = "enumeration"
METHOD_CERTIFICATE = "certificate"
METHOD_SHORT_CIRCUIT = "short-circuit"


class Verdict(enum.Enum):
    HOLDS = "holds"
    COUNTEREXAMPLE = "counterexample"
    INCONCLUSIVE = "inconclusive"


class PairMode(enum.Enum):
    ALL_PAIRS = "all-pairs"
    SOME_PAIR = "some-pair"


@dataclass(frozen=True)
class MatchingWitness:
    """A maximum matching with its exposed set; `pair` is an exposed pair
    with common neighbor `common` when one is relevant to the verdict."""

    matching: Matching
    exposed: tuple[int, ...]
    pair: Optional[tuple[int, int]] = None
    common: Optional[int] = None


@dataclass(frozen=True)
class HubClass:
    """A vertex class dominated by a hub adjacent to all its members."""

    hub: int
    members: frozenset[int]


@dataclass(frozen=True)
class StrongCertificate:
    """Proof of an AllPairs counterexample: deficiency >= 2 and every two
    exposable vertices share a neighbor (witnessed per pair)."""

    exposable: frozenset[int]
    deficiency: int
    common_neighbor: dict[tuple[int, int], int] = field(compare=False)


@dataclass(frozen=True)
class WeakCertificate:
    """Proof of a SomePair counterexample by pigeonhole: exposable vertices
    fall into fewer hub-dominated classes than the deficiency."""

    classes: tuple[HubClass, ...]
    deficiency: int
    exposable: frozenset[int]


Witness = Union[MatchingWitness, StrongCertificate, WeakCertificate, None]


@dataclass(frozen=True)
class VerificationReport:
    verdict: Verdict
    method: str
    matchings_examined: int = 0
    exhaustive: bool = False
    witness: Witness = None
    detail: str = ""


def _validate_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")


class _SmallestCommonNeighbor(dict):
    """Memo from a vertex pair (a, b), a < b, to the smallest common
    neighbor of a and b in g, or -1 when they share none."""

    def __init__(self, g: Multigraph):
        super().__init__()
        self._g = g

    def __missing__(self, pair: tuple[int, int]) -> int:
        shared = self._g.common_neighbors(*pair)
        common = self[pair] = min(shared) if shared else -1
        return common


def _exposed(m: Matching, vertices: frozenset[int]) -> tuple[int, ...]:
    """The vertices m leaves exposed, ascending; `vertices` is all of g."""
    return tuple(sorted(m.unsaturated(vertices)))


def _sharing_pair(exposed: Sequence[int],
                  common: _SmallestCommonNeighbor) -> Optional[tuple[int, int, int]]:
    """First exposed pair (ascending) with a common neighbor, plus the
    smallest such neighbor."""
    for pair in combinations(exposed, 2):
        c = common[pair]
        if c >= 0:
            return pair[0], pair[1], c
    return None


def _lonely_pair(exposed: Sequence[int],
                 common: _SmallestCommonNeighbor) -> Optional[tuple[int, int]]:
    """First exposed pair with no common neighbor."""
    for pair in combinations(exposed, 2):
        if common[pair] < 0:
            return pair
    return None


def strong_counterexample_certificate(g: Multigraph) -> Optional[StrongCertificate]:
    """Certificate that g is an AllPairs counterexample, or None.

    Sound but incomplete: deficiency >= 2 and every pair of exposable
    vertices (the Gallai-Edmonds D set, a superset of every exposed set)
    shares a neighbor.  Absence proves nothing.
    """
    defic = deficiency(g)
    if defic < 2:
        return None
    d = sorted(gallai_edmonds(g).d)
    witness: dict[tuple[int, int], int] = {}
    for a in range(len(d)):
        for b in range(a + 1, len(d)):
            shared = g.common_neighbors(d[a], d[b])
            if not shared:
                return None
            witness[(d[a], d[b])] = min(shared)
    return StrongCertificate(exposable=frozenset(d), deficiency=defic, common_neighbor=witness)


def weak_counterexample_certificate(
        g: Multigraph, classes: Sequence[HubClass]) -> Optional[WeakCertificate]:
    """Certificate that g is a SomePair counterexample, or None.

    Requires every exposable vertex to lie in some class, each class hub
    adjacent to all its members, and deficiency > number of classes: any
    maximum matching then exposes two vertices of one class, which share
    that class's hub.  Malformed classes are rejected.
    """
    if not classes:
        raise ValueError("need at least one class")
    seen: set[int] = set()
    for cls in classes:
        g._check_vertex(cls.hub)
        if not cls.members:
            raise ValueError(f"class with hub {cls.hub} has no members")
        if seen & cls.members:
            raise ValueError("classes must be disjoint")
        seen |= cls.members
        for v in cls.members:
            g._check_vertex(v)
            if v not in g.support_neighbors(cls.hub):
                raise ValueError(f"hub {cls.hub} is not adjacent to member {v}")
    defic = deficiency(g)
    d = gallai_edmonds(g).d
    if not d <= seen:
        return None
    if defic <= len(classes):
        return None
    return WeakCertificate(classes=tuple(classes), deficiency=defic, exposable=d)


def hub_classes_from_labels(g: Multigraph) -> Optional[tuple[HubClass, ...]]:
    """Derive hub classes from vertex labels: members grouped by the k in
    Copy(k, i), each class dominated by the smallest all-adjacent Hub
    vertex.  None when labels do not support the grouping."""
    hubs = []
    groups: dict[int, set[int]] = {}
    for v in range(g.n):
        label = g.label(v)
        if isinstance(label, Hub):
            hubs.append(v)
        elif isinstance(label, Copy):
            groups.setdefault(label.k, set()).add(v)
    if not hubs or not groups:
        return None
    out = []
    for k in sorted(groups):
        members = groups[k]
        dominating = [h for h in hubs if members <= g.support_neighbors(h)]
        if not dominating:
            return None
        out.append(HubClass(hub=min(dominating), members=frozenset(members)))
    return tuple(out)


def conjecture_holds(g: Multigraph, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Does some maximum matching expose a pairwise common-neighbor-free set?

    Decision order: deficiency <= 1 short-circuits to holds; the structural
    certificates may prove counterexample without enumeration; otherwise
    maximum matchings are enumerated up to `cap`, stopping at the first
    matching that satisfies the property.  Cap exhaustion is inconclusive.
    """
    _validate_cap(cap)
    vertices = frozenset(range(g.n))
    defic = deficiency(g)
    if defic <= 1:
        m = maximum_matching(g)
        return VerificationReport(
            verdict=Verdict.HOLDS, method=METHOD_SHORT_CIRCUIT,
            witness=MatchingWitness(m, _exposed(m, vertices)),
            detail=f"deficiency {defic} <= 1, no exposed pair can exist")
    cert = strong_counterexample_certificate(g)
    if cert is not None:
        return VerificationReport(
            verdict=Verdict.COUNTEREXAMPLE, method=METHOD_CERTIFICATE, witness=cert,
            detail="every exposable pair shares a neighbor")
    classes = hub_classes_from_labels(g)
    if classes is not None:
        weak = weak_counterexample_certificate(g, classes)
        if weak is not None:
            return VerificationReport(
                verdict=Verdict.COUNTEREXAMPLE, method=METHOD_CERTIFICATE, witness=weak,
                detail=f"deficiency {weak.deficiency} exceeds {len(classes)} hub classes")
    found: list[MatchingWitness] = []
    common = _SmallestCommonNeighbor(g)

    def check(m: Matching) -> bool:
        exposed = _exposed(m, vertices)
        if _sharing_pair(exposed, common) is None:
            found.append(MatchingWitness(m, exposed))
            return False
        return True

    stats = visit_maximum_matchings(g, check, cap=cap)
    if found:
        return VerificationReport(
            verdict=Verdict.HOLDS, method=METHOD_ENUMERATION,
            matchings_examined=stats.count, exhaustive=stats.exhaustive,
            witness=found[0],
            detail="found a maximum matching with common-neighbor-free exposed set")
    if stats.exhaustive:
        m0 = maximum_matching(g)
        exposed = _exposed(m0, vertices)
        pair = _sharing_pair(exposed, common)
        return VerificationReport(
            verdict=Verdict.COUNTEREXAMPLE, method=METHOD_ENUMERATION,
            matchings_examined=stats.count, exhaustive=True,
            witness=MatchingWitness(m0, exposed, (pair[0], pair[1]), pair[2]),
            detail=f"all {stats.count} maximum matchings leave a sharing exposed pair")
    return VerificationReport(
        verdict=Verdict.INCONCLUSIVE, method=METHOD_ENUMERATION,
        matchings_examined=stats.count, exhaustive=False,
        detail=f"enumeration cap {cap} reached without a deciding matching")


def is_counterexample(g: Multigraph, mode: PairMode, cap: int = DEFAULT_CAP,
                      classes: Optional[Sequence[HubClass]] = None) -> VerificationReport:
    """Decide counterexample status at the given strength.

    Enumeration runs first (it can both confirm and refute); if the cap is
    hit, the certificates take over: the strong certificate decides either
    mode, the weak one only SomePair.  `classes` overrides the label-derived
    hub classes for the weak certificate.
    """
    _validate_cap(cap)
    vertices = frozenset(range(g.n))
    defic = deficiency(g)
    if defic < 2:
        m = maximum_matching(g)
        return VerificationReport(
            verdict=Verdict.HOLDS, method=METHOD_SHORT_CIRCUIT,
            witness=MatchingWitness(m, _exposed(m, vertices)),
            detail=f"deficiency {defic} < 2, cannot be a counterexample")
    refuting: list[MatchingWitness] = []
    sample: list[MatchingWitness] = []
    common = _SmallestCommonNeighbor(g)

    def check(m: Matching) -> bool:
        exposed = _exposed(m, vertices)
        if mode is PairMode.SOME_PAIR:
            hit = _sharing_pair(exposed, common)
            if hit is None:
                refuting.append(MatchingWitness(m, exposed))
                return False
            if not sample:
                sample.append(MatchingWitness(m, exposed, (hit[0], hit[1]), hit[2]))
        else:
            miss = _lonely_pair(exposed, common)
            if miss is not None:
                refuting.append(MatchingWitness(m, exposed, miss))
                return False
            if not sample:
                hit = _sharing_pair(exposed, common)
                sample.append(MatchingWitness(m, exposed, (hit[0], hit[1]), hit[2]))
        return True

    stats = visit_maximum_matchings(g, check, cap=cap)
    if refuting:
        what = ("a maximum matching with common-neighbor-free exposed set"
                if mode is PairMode.SOME_PAIR
                else "a maximum matching with an exposed pair sharing no neighbor")
        return VerificationReport(
            verdict=Verdict.HOLDS, method=METHOD_ENUMERATION,
            matchings_examined=stats.count, exhaustive=stats.exhaustive,
            witness=refuting[0], detail=f"found {what}")
    if stats.exhaustive:
        claim = ("every maximum matching leaves a sharing exposed pair"
                 if mode is PairMode.SOME_PAIR
                 else "every exposed pair of every maximum matching shares a neighbor")
        return VerificationReport(
            verdict=Verdict.COUNTEREXAMPLE, method=METHOD_ENUMERATION,
            matchings_examined=stats.count, exhaustive=True,
            witness=sample[0] if sample else None,
            detail=f"{claim} ({stats.count} matchings)")
    cert = strong_counterexample_certificate(g)
    if cert is not None:
        return VerificationReport(
            verdict=Verdict.COUNTEREXAMPLE, method=METHOD_CERTIFICATE,
            matchings_examined=stats.count, exhaustive=False, witness=cert,
            detail="enumeration capped; strong certificate decides")
    if mode is PairMode.SOME_PAIR:
        use = classes if classes is not None else hub_classes_from_labels(g)
        if use:
            weak = weak_counterexample_certificate(g, use)
            if weak is not None:
                return VerificationReport(
                    verdict=Verdict.COUNTEREXAMPLE, method=METHOD_CERTIFICATE,
                    matchings_examined=stats.count, exhaustive=False, witness=weak,
                    detail="enumeration capped; weak certificate decides")
    return VerificationReport(
        verdict=Verdict.INCONCLUSIVE, method=METHOD_ENUMERATION,
        matchings_examined=stats.count, exhaustive=False,
        detail=f"enumeration cap {cap} reached and no certificate applies")


class SubcubicGuaranteeError(RuntimeError):
    """A graph with all degrees in {2, 3} came back as a counterexample.

    That outcome is impossible for a correct implementation, so it is
    raised as a loud implementation-bug signal rather than returned.
    """

    def __init__(self, report: VerificationReport):
        super().__init__(
            "counterexample verdict on a graph with 2 <= min degree <= max degree <= 3; "
            "this contradicts a known guarantee and indicates a bug")
        self.report = report


def check_subcubic_guarantee(g: Multigraph, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Run conjecture_holds on a graph with 2 <= min <= max degree <= 3.

    Such graphs always satisfy the property, so the verdict must be holds
    (or inconclusive under a tiny cap); a counterexample verdict raises.
    """
    if g.n == 0:
        raise ValueError("degree precondition needs a nonempty graph")
    lo, hi = g.min_degree(), g.max_degree()
    if not (2 <= lo and hi <= 3):
        raise ValueError(f"degrees must lie in [2, 3], got min {lo} max {hi}")
    report = conjecture_holds(g, cap=cap)
    if report.verdict is Verdict.COUNTEREXAMPLE:
        raise SubcubicGuaranteeError(report)
    return report


def all_maximum_matchings_saturate(g: Multigraph, s: Sequence[int],
                                   cap: int = DEFAULT_CAP) -> VerificationReport:
    """Do all maximum matchings saturate every vertex of s?

    Decided exactly by the Gallai-Edmonds D criterion (holds iff s avoids
    D); enumeration up to `cap` cross-checks the verdict and any
    disagreement on an exhaustive run raises.
    """
    _validate_cap(cap)
    s_set = frozenset(s)
    for v in s_set:
        g._check_vertex(v)
    ge = gallai_edmonds(g)
    bad = sorted(s_set & ge.d)
    vertices = frozenset(range(g.n))
    exposed_hits: list[MatchingWitness] = []

    def check(m: Matching) -> bool:
        if not exposed_hits and m.unsaturated(s_set):
            exposed_hits.append(MatchingWitness(m, _exposed(m, vertices)))
        return True

    stats = visit_maximum_matchings(g, check, cap=cap)
    if stats.exhaustive and bool(bad) != bool(exposed_hits):
        raise RuntimeError(
            "Gallai-Edmonds saturation verdict disagrees with exhaustive "
            "enumeration; matching implementation is buggy")
    if not bad:
        return VerificationReport(
            verdict=Verdict.HOLDS, method=METHOD_CERTIFICATE,
            matchings_examined=stats.count, exhaustive=stats.exhaustive,
            detail="s avoids every exposable vertex")
    if exposed_hits:
        witness = exposed_hits[0]
    else:
        witness = MatchingWitness(*_matching_exposing(g, bad[0]))
    return VerificationReport(
        verdict=Verdict.COUNTEREXAMPLE, method=METHOD_CERTIFICATE,
        matchings_examined=stats.count, exhaustive=stats.exhaustive,
        witness=witness,
        detail=f"vertices {bad} are exposable")


def _matching_exposing(g: Multigraph, v: int) -> tuple[Matching, tuple[int, ...]]:
    """Maximum matching of g avoiding the exposable vertex v, with its
    exposed set.  Only valid when v lies in the Gallai-Edmonds D set."""
    from .matching import _solve_matching, _support_adj  # array-level internals

    alive = [True] * g.n
    alive[v] = False
    arr = _solve_matching(_support_adj(g), alive)
    m = Matching((u, arr[u]) for u in range(g.n) if u < arr[u])
    return m, _exposed(m, frozenset(range(g.n)))
