"""Verdicts about maximum matchings and common neighbors of exposed vertices.

The central question: does a graph have some maximum matching whose exposed
vertices are pairwise without common neighbors?  `conjecture_holds` answers
it; `is_counterexample` decides the two refutation strengths

* SomePair - every maximum matching leaves some exposed pair with a common
  neighbor (the exact negation of the question above), and
* AllPairs - deficiency is at least 2 and every exposed pair of every
  maximum matching shares a neighbor.

Both run one decision pipeline on one `MatchingAnalysis` of the graph:
deficiency <= 1 short-circuits; two sound-but-incomplete structural
certificates read off the analysis can prove a counterexample (the
question runs them before enumerating, the refutation modes once
enumeration hits its cap); enumeration of maximum matchings is exact but
capped.  Every outcome is wrapped in a VerificationReport that records
which method actually decided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence, Union

from .matching import Matching, MatchingAnalysis, analyze, visit_maximum_matchings
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
        self._neighbors = [g.support_neighbors(v) for v in range(g.n)]

    def __missing__(self, pair: tuple[int, int]) -> int:
        a, b = pair
        shared = self._neighbors[a] & self._neighbors[b]
        common = self[pair] = min(shared) if shared else -1
        return common


def _exposed(m: Matching, vertices: frozenset[int]) -> tuple[int, ...]:
    """The vertices m leaves exposed, ascending; `vertices` is all of g."""
    return tuple(sorted(m.unsaturated(vertices)))


def _sharing_pair(exposed: Sequence[int],
                  common: _SmallestCommonNeighbor) -> Optional[tuple[tuple[int, int], int]]:
    """First exposed pair (ascending) with a common neighbor, plus the
    smallest such neighbor."""
    for pair in combinations(exposed, 2):
        c = common[pair]
        if c >= 0:
            return pair, c
    return None


def _lonely_pair(exposed: Sequence[int],
                 common: _SmallestCommonNeighbor) -> Optional[tuple[int, int]]:
    """First exposed pair with no common neighbor."""
    for pair in combinations(exposed, 2):
        if common[pair] < 0:
            return pair
    return None


def strong_counterexample_certificate(analysis: MatchingAnalysis) -> Optional[StrongCertificate]:
    """Certificate that the analysed graph is an AllPairs counterexample,
    or None.

    Sound but incomplete: deficiency >= 2 and every pair of exposable
    vertices (the Gallai-Edmonds D set, a superset of every exposed set)
    shares a neighbor.  Absence proves nothing.
    """
    if analysis.deficiency < 2:
        return None
    d = analysis.ge.d
    common = _SmallestCommonNeighbor(analysis.g)
    if any(common[pair] < 0 for pair in combinations(sorted(d), 2)):
        return None
    return StrongCertificate(exposable=d, deficiency=analysis.deficiency,
                             common_neighbor=dict(common))


def weak_counterexample_certificate(
        analysis: MatchingAnalysis, classes: Sequence[HubClass]) -> Optional[WeakCertificate]:
    """Certificate that the analysed graph is a SomePair counterexample, or
    None.

    Requires every exposable vertex to lie in some class, each class hub
    adjacent to all its members, and deficiency > number of classes: any
    maximum matching then exposes two vertices of one class, which share
    that class's hub.  Malformed classes are rejected.
    """
    if not classes:
        raise ValueError("need at least one class")
    g = analysis.g
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
    d = analysis.ge.d
    if not d <= seen:
        return None
    if analysis.deficiency <= len(classes):
        return None
    return WeakCertificate(classes=tuple(classes), deficiency=analysis.deficiency, exposable=d)


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
    return _decide(g, None, cap, None)


def is_counterexample(g: Multigraph, mode: PairMode, cap: int = DEFAULT_CAP,
                      classes: Optional[Sequence[HubClass]] = None) -> VerificationReport:
    """Decide counterexample status at the given strength.

    Enumeration runs first (it can both confirm and refute); if the cap is
    hit, the certificates take over: the strong certificate decides either
    mode, the weak one only SomePair.  `classes` overrides the label-derived
    hub classes for the weak certificate.
    """
    return _decide(g, mode, cap, classes)


def _decide(g: Multigraph, mode: Optional[PairMode], cap: int,
            classes: Optional[Sequence[HubClass]]) -> VerificationReport:
    """The decision pipeline behind both entry points.

    Mode None is the question itself, the negation of SomePair.  It differs
    from SomePair only in its `detail` lines, in running the certificates
    before enumeration instead of after the cap, and in showing the analysed
    matching, not the first one enumerated, when every matching fails.
    """
    _validate_cap(cap)
    analysis = analyze(g)
    defic = analysis.deficiency
    vertices = frozenset(range(g.n))
    if defic < 2:
        m = analysis.matching
        return VerificationReport(
            verdict=Verdict.HOLDS, method=METHOD_SHORT_CIRCUIT,
            witness=MatchingWitness(m, _exposed(m, vertices)),
            detail=(f"deficiency {defic} <= 1, no exposed pair can exist" if mode is None
                    else f"deficiency {defic} < 2, cannot be a counterexample"))
    if mode is None:
        report = _certified(analysis, mode, classes, 0)
        if report is not None:
            return report
    refuting: list[MatchingWitness] = []
    sample: list[MatchingWitness] = []
    common = _SmallestCommonNeighbor(g)

    def check(m: Matching) -> bool:
        exposed = _exposed(m, vertices)
        if mode is PairMode.ALL_PAIRS:
            miss = _lonely_pair(exposed, common)
            if miss is not None:
                refuting.append(MatchingWitness(m, exposed, miss))
                return False
            if not sample:
                sample.append(MatchingWitness(m, exposed, *_sharing_pair(exposed, common)))
        else:
            hit = _sharing_pair(exposed, common)
            if hit is None:
                refuting.append(MatchingWitness(m, exposed))
                return False
            if not sample:
                sample.append(MatchingWitness(m, exposed, *hit))
        return True

    stats = visit_maximum_matchings(g, check, cap=cap)
    if refuting:
        what = ("an exposed pair sharing no neighbor" if mode is PairMode.ALL_PAIRS
                else "common-neighbor-free exposed set")
        return VerificationReport(
            verdict=Verdict.HOLDS, method=METHOD_ENUMERATION,
            matchings_examined=stats.count, exhaustive=stats.exhaustive,
            witness=refuting[0], detail=f"found a maximum matching with {what}")
    if stats.exhaustive:
        witness = sample[0]
        if mode is None:
            m = analysis.matching
            exposed = _exposed(m, vertices)
            witness = MatchingWitness(m, exposed, *_sharing_pair(exposed, common))
            detail = f"all {stats.count} maximum matchings leave a sharing exposed pair"
        elif mode is PairMode.SOME_PAIR:
            detail = f"every maximum matching leaves a sharing exposed pair ({stats.count} matchings)"
        else:
            detail = ("every exposed pair of every maximum matching shares a neighbor "
                      f"({stats.count} matchings)")
        return VerificationReport(
            verdict=Verdict.COUNTEREXAMPLE, method=METHOD_ENUMERATION,
            matchings_examined=stats.count, exhaustive=True, witness=witness, detail=detail)
    if mode is None:
        detail = f"enumeration cap {cap} reached without a deciding matching"
    else:
        report = _certified(analysis, mode, classes, stats.count)
        if report is not None:
            return report
        detail = f"enumeration cap {cap} reached and no certificate applies"
    return VerificationReport(
        verdict=Verdict.INCONCLUSIVE, method=METHOD_ENUMERATION,
        matchings_examined=stats.count, exhaustive=False, detail=detail)


def _certified(analysis: MatchingAnalysis, mode: Optional[PairMode],
               classes: Optional[Sequence[HubClass]], count: int) -> Optional[VerificationReport]:
    """The certificate chain of `_decide`: the strong certificate, then the
    weak one unless mode is AllPairs; None when neither applies."""
    cert = strong_counterexample_certificate(analysis)
    detail = ("every exposable pair shares a neighbor" if mode is None
              else "enumeration capped; strong certificate decides")
    if cert is None and mode is not PairMode.ALL_PAIRS:
        use = classes if classes is not None else hub_classes_from_labels(analysis.g)
        if use:
            cert = weak_counterexample_certificate(analysis, use)
            detail = (f"deficiency {analysis.deficiency} exceeds {len(use)} hub classes"
                      if mode is None else "enumeration capped; weak certificate decides")
    if cert is None:
        return None
    return VerificationReport(
        verdict=Verdict.COUNTEREXAMPLE, method=METHOD_CERTIFICATE,
        matchings_examined=count, exhaustive=False, witness=cert, detail=detail)


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
    bad = sorted(s_set & analyze(g).ge.d)
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
    else:  # bad[0] is in D: a maximum matching of g - bad[0] is maximum in g
        from .matching import _matching_from, _solve_matching, _support_adj  # array-level internals

        alive = [True] * g.n
        alive[bad[0]] = False
        m = _matching_from(_solve_matching(_support_adj(g), alive))
        witness = MatchingWitness(m, _exposed(m, vertices))
    return VerificationReport(
        verdict=Verdict.COUNTEREXAMPLE, method=METHOD_CERTIFICATE,
        matchings_examined=stats.count, exhaustive=stats.exhaustive,
        witness=witness,
        detail=f"vertices {bad} are exposable")
