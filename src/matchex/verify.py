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
capped, and starts from the analysis matching, so every decision makes
exactly one blossom solve.  The enumerator is told which partial exposed
sets already fix the verdict: every mode from the root when the strong
certificate holds, else SomePair and the question once two exposed vertices
share a neighbor.  The matchings below such a branch are counted, by
live-set memo, not checked one by one; `matchings_examined` still counts
every one of them.  Every outcome is wrapped in a VerificationReport that
records which method actually decided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional, Sequence, Union

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
        hub_neighbors = g.support_neighbors(cls.hub)
        if not cls.members:
            raise ValueError(f"class with hub {cls.hub} has no members")
        if seen & cls.members:
            raise ValueError("classes must be disjoint")
        seen |= cls.members
        for v in cls.members:
            g._check_vertex(v)
            if v not in hub_neighbors:
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
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    analysis = analyze(g)
    defic = analysis.deficiency
    if defic < 2:
        m = analysis.matching
        return VerificationReport(
            verdict=Verdict.HOLDS, method=METHOD_SHORT_CIRCUIT,
            witness=MatchingWitness(m, m.exposed(g.n)),
            detail=(f"deficiency {defic} <= 1, no exposed pair can exist" if mode is None
                    else f"deficiency {defic} < 2, cannot be a counterexample"))
    # one strong certificate per decision: it settles the walk from the
    # root in every mode, and decides the refutation modes at the cap
    strong = strong_counterexample_certificate(analysis)
    if mode is None:
        report = _certified(analysis, mode, classes, 0, strong)
        if report is not None:
            return report
    refuting: list[MatchingWitness] = []
    sample: list[MatchingWitness] = []
    common = _SmallestCommonNeighbor(g)

    def check(m: Matching) -> bool:
        exposed = m.exposed(g.n)
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

    stats = visit_maximum_matchings(analysis, check, cap=cap,
                                    settled=_settled_predicate(analysis, mode, strong))
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
            exposed = analysis.matching.exposed(g.n)
            witness = MatchingWitness(analysis.matching, exposed, *_sharing_pair(exposed, common))
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
        report = _certified(analysis, mode, classes, stats.count, strong)
        if report is not None:
            return report
        detail = f"enumeration cap {cap} reached and no certificate applies"
    return VerificationReport(
        verdict=Verdict.INCONCLUSIVE, method=METHOD_ENUMERATION,
        matchings_examined=stats.count, exhaustive=False, detail=detail)


def _settled_predicate(analysis: MatchingAnalysis, mode: Optional[PairMode],
                       strong: Optional[StrongCertificate]) -> Optional[Callable[[int], bool]]:
    """The `settled` hook `_decide` hands the enumerator: true on an exposed
    bitmask once `check` must accept every maximum matching exposing it.

    When the strong certificate holds (every pair of D shares a neighbor),
    every mode is settled from the root.  Otherwise a SomePair matching
    passes once two of its exposed vertices share a neighbor, so the
    question and SomePair settle there; an AllPairs matching passes only
    when every exposed pair shares one, which no partial set shows.
    """
    if strong is not None or mode is PairMode.ALL_PAIRS:
        return None if strong is None else (lambda exposed: True)
    g = analysis.g
    # Support-neighbor bitmasks, built on first use: the walk may touch few
    # of the vertices of D, and n masks of n bits would not fit for large n.
    neighbors: dict[int, int] = {}

    def shares(exposed: int) -> bool:
        seen = 0  # the neighbors of the exposed vertices scanned so far
        while exposed:
            low = exposed & -exposed
            v = low.bit_length() - 1
            mask = neighbors.get(v)
            if mask is None:
                mask = neighbors[v] = sum(1 << w for w in g.support_neighbors(v))
            if seen & mask:
                return True
            seen |= mask
            exposed ^= low
        return False

    return shares


def _certified(analysis: MatchingAnalysis, mode: Optional[PairMode],
               classes: Optional[Sequence[HubClass]], count: int,
               strong: Optional[StrongCertificate]) -> Optional[VerificationReport]:
    """The certificate chain of `_decide`: the strong certificate, then the
    weak one unless mode is AllPairs; None when neither applies."""
    cert = strong
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
