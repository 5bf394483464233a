"""Verdict machinery: enumeration decisions, certificates, guarantees."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import matchex.matching as matching_mod
import matchex.verify as verify_mod
from matchex import (
    DEFAULT_CAP,
    HubClass,
    Matching,
    MatchingWitness,
    Multigraph,
    PairMode,
    StrongCertificate,
    Verdict,
    WeakCertificate,
    analyze,
    build_B,
    build_F,
    build_G,
    build_H,
    conjecture_holds,
    hub_classes_from_labels,
    is_counterexample,
    strong_counterexample_certificate,
    visit_maximum_matchings,
    weak_counterexample_certificate,
)
from matchex.verify import METHOD_CERTIFICATE, METHOD_ENUMERATION, METHOD_SHORT_CIRCUIT

from conftest import (
    CORPUS_SEED,
    collect_maximum_matchings,
    complete_graph,
    cycle_graph,
    disjoint_triangles,
    graph_from_edges,
    petersen_graph,
    random_graph_corpus,
    small_multigraphs,
    strip_labels,
)


def common_neighbors(g: Multigraph, a: int, b: int) -> set[int]:
    return g.support_neighbors(a) & g.support_neighbors(b)


def complete_bipartite(p: int, q: int) -> Multigraph:
    return graph_from_edges(p + q, ((u, v) for u in range(p) for v in range(p, p + q)))


# --------------------------------------------------------- conjecture_holds


def test_holds_short_circuit_perfect_matching():
    report = conjecture_holds(petersen_graph())
    assert report.verdict is Verdict.HOLDS
    assert report.method == METHOD_SHORT_CIRCUIT
    assert report.matchings_examined == 0
    assert isinstance(report.witness, MatchingWitness)
    assert report.witness.exposed == ()


def test_holds_short_circuit_deficiency_one():
    report = conjecture_holds(cycle_graph(5))
    assert report.verdict is Verdict.HOLDS
    assert report.method == METHOD_SHORT_CIRCUIT
    assert len(report.witness.exposed) == 1


def test_holds_by_enumeration_two_triangles():
    # deficiency 2, exposable pairs span components: decided by the very
    # first enumerated matching
    report = conjecture_holds(disjoint_triangles(2))
    assert report.verdict is Verdict.HOLDS
    assert report.method == METHOD_ENUMERATION
    assert report.matchings_examined == 1
    w = report.witness
    assert isinstance(w, MatchingWitness)
    assert len(w.exposed) == 2
    g = disjoint_triangles(2)
    a, b = w.exposed
    assert not common_neighbors(g, a, b)


def test_counterexample_by_strong_certificate_B2():
    report = conjecture_holds(build_B(2))
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.method == METHOD_CERTIFICATE
    assert isinstance(report.witness, StrongCertificate)


def test_counterexample_by_weak_certificate_G3():
    report = conjecture_holds(build_G(3))
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.method == METHOD_CERTIFICATE
    assert isinstance(report.witness, WeakCertificate)


def test_counterexample_by_enumeration_when_unlabeled():
    g = strip_labels(build_G(3))
    report = conjecture_holds(g, cap=20000)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.method == METHOD_ENUMERATION
    assert report.exhaustive
    assert report.matchings_examined == 17010
    w = report.witness
    assert isinstance(w, MatchingWitness)
    assert w.pair is not None and w.common is not None
    assert w.common in common_neighbors(g, *w.pair)


def test_inconclusive_under_tiny_cap():
    g = strip_labels(build_G(3))
    report = conjecture_holds(g, cap=10)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.method == METHOD_ENUMERATION
    assert report.matchings_examined == 10
    assert not report.exhaustive


def test_cap_validation():
    with pytest.raises(ValueError):
        conjecture_holds(cycle_graph(4), cap=0)
    with pytest.raises(ValueError):
        is_counterexample(cycle_graph(4), PairMode.SOME_PAIR, cap=-1)


# -------------------------------------------------------- is_counterexample


def test_not_counterexample_when_deficiency_small():
    report = is_counterexample(cycle_graph(4), PairMode.SOME_PAIR)
    assert report.verdict is Verdict.HOLDS
    assert report.method == METHOD_SHORT_CIRCUIT
    report = is_counterexample(cycle_graph(5), PairMode.ALL_PAIRS)
    assert report.verdict is Verdict.HOLDS


def test_B2_all_pairs_by_enumeration():
    report = is_counterexample(build_B(2), PairMode.ALL_PAIRS)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.method == METHOD_ENUMERATION
    assert report.exhaustive
    assert report.matchings_examined == 448
    w = report.witness
    assert isinstance(w, MatchingWitness)
    assert w.pair is not None
    assert w.common in common_neighbors(build_B(2), *w.pair)


def test_B2_some_pair_by_enumeration():
    report = is_counterexample(build_B(2), PairMode.SOME_PAIR)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.exhaustive
    assert report.matchings_examined == 448


def test_G3_all_pairs_refuted():
    # some maximum matching leaves two exposed copies with different k in
    # different blocks, which share nothing
    g = build_G(3)
    report = is_counterexample(g, PairMode.ALL_PAIRS)
    assert report.verdict is Verdict.HOLDS
    assert report.method == METHOD_ENUMERATION
    w = report.witness
    assert isinstance(w, MatchingWitness)
    assert w.pair is not None
    assert not common_neighbors(g, *w.pair)


def test_G3_some_pair_full_enumeration():
    report = is_counterexample(build_G(3), PairMode.SOME_PAIR)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.method == METHOD_ENUMERATION
    assert report.exhaustive
    assert report.matchings_examined == 17010


def test_G3_some_pair_capped_weak_certificate():
    report = is_counterexample(build_G(3), PairMode.SOME_PAIR, cap=100)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.method == METHOD_CERTIFICATE
    assert report.matchings_examined == 100
    assert not report.exhaustive
    assert isinstance(report.witness, WeakCertificate)


def test_H3_some_pair_capped_weak_certificate():
    report = is_counterexample(build_H(3), PairMode.SOME_PAIR, cap=100)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert isinstance(report.witness, WeakCertificate)


def test_F5_all_pairs_enumeration_and_capped_certificate():
    g = build_F(5)
    full = is_counterexample(g, PairMode.ALL_PAIRS)
    assert full.verdict is Verdict.COUNTEREXAMPLE
    assert full.method == METHOD_ENUMERATION
    assert full.exhaustive
    assert full.matchings_examined == 4320
    capped = is_counterexample(g, PairMode.ALL_PAIRS, cap=50)
    assert capped.verdict is Verdict.COUNTEREXAMPLE
    assert capped.method == METHOD_CERTIFICATE
    assert isinstance(capped.witness, StrongCertificate)


def test_explicit_classes_override_labels():
    g = strip_labels(build_G(3))
    classes = hub_classes_from_labels(build_G(3))
    assert classes is not None
    report = is_counterexample(g, PairMode.SOME_PAIR, cap=50, classes=classes)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.method == METHOD_CERTIFICATE
    assert isinstance(report.witness, WeakCertificate)


def test_some_pair_inconclusive_without_certificates():
    g = strip_labels(build_G(3))
    report = is_counterexample(g, PairMode.SOME_PAIR, cap=10)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.matchings_examined == 10


def test_all_pairs_never_uses_weak_certificate():
    # weak pigeonhole only yields a sharing pair, not all pairs sharing:
    # with the cap hit and no strong certificate the verdict must stay open
    g = build_G(3)
    assert strong_counterexample_certificate(analyze(g)) is None
    report = is_counterexample(g, PairMode.ALL_PAIRS, cap=1)
    assert report.verdict in (Verdict.INCONCLUSIVE, Verdict.HOLDS)
    if report.verdict is Verdict.INCONCLUSIVE:
        assert not isinstance(report.witness, WeakCertificate)


# ------------------------------------------------------------- certificates


def test_strong_certificate_B2_soundness():
    g = build_B(2)
    cert = strong_counterexample_certificate(analyze(g))
    assert cert is not None
    assert cert.deficiency == 2
    assert cert.exposable == frozenset(range(6, 14))
    exposable = sorted(cert.exposable)
    assert set(cert.common_neighbor) == {
        (a, b) for i, a in enumerate(exposable) for b in exposable[i + 1:]
    }
    for (a, b), w in cert.common_neighbor.items():
        assert w in common_neighbors(g, a, b)


def test_strong_certificate_absent():
    assert strong_counterexample_certificate(analyze(build_G(3))) is None
    assert strong_counterexample_certificate(analyze(cycle_graph(5))) is None  # deficiency 1
    assert strong_counterexample_certificate(analyze(disjoint_triangles(2))) is None
    assert strong_counterexample_certificate(analyze(build_F(5))) is not None


def test_weak_certificate_G3():
    g = build_G(3)
    classes = hub_classes_from_labels(g)
    cert = weak_counterexample_certificate(analyze(g), classes)
    assert cert is not None
    assert cert.deficiency == 4
    assert len(cert.classes) == 3
    assert cert.exposable <= frozenset().union(*(c.members for c in cert.classes))


def test_weak_certificate_needs_deficiency_margin():
    # F(5): deficiency 2 does not exceed its 3 hub classes
    g = build_F(5)
    classes = hub_classes_from_labels(g)
    assert classes is not None
    assert weak_counterexample_certificate(analyze(g), classes) is None


def test_weak_certificate_needs_cover():
    g = build_G(3)
    classes = hub_classes_from_labels(g)
    assert weak_counterexample_certificate(analyze(g), classes[:2]) is None


def test_weak_certificate_malformed_classes():
    g = build_G(3)
    with pytest.raises(ValueError):
        weak_counterexample_certificate(analyze(g), [])
    with pytest.raises(ValueError):
        weak_counterexample_certificate(analyze(g), [HubClass(0, frozenset())])
    with pytest.raises(ValueError):
        weak_counterexample_certificate(
            analyze(g), [HubClass(0, frozenset({3})), HubClass(1, frozenset({3}))])
    with pytest.raises(ValueError):
        weak_counterexample_certificate(analyze(g), [HubClass(0, frozenset({4}))])  # x not at v2
    with pytest.raises(ValueError):
        weak_counterexample_certificate(analyze(g), [HubClass(0, frozenset({99}))])
    with pytest.raises(ValueError):
        weak_counterexample_certificate(analyze(g), [HubClass(99, frozenset({3}))])


def test_hub_classes_from_labels_G3():
    classes = hub_classes_from_labels(build_G(3))
    assert classes is not None
    assert [c.hub for c in classes] == [0, 1, 2]
    assert [len(c.members) for c in classes] == [7, 7, 7]
    assert classes[0].members == frozenset(3 + 3 * i for i in range(7))


def test_hub_classes_from_labels_F5_smallest_dominating_hub():
    classes = hub_classes_from_labels(build_F(5))
    assert classes is not None
    assert [c.hub for c in classes] == [0, 0, 1]


def test_hub_classes_from_labels_absent():
    from matchex import Copy, Hub

    assert hub_classes_from_labels(build_B(2)) is None  # no hub labels
    assert hub_classes_from_labels(cycle_graph(4)) is None  # no labels at all
    # hub present but one copy escapes its reach
    g = Multigraph(3, {(0, 1): 1}, {0: Hub("x"), 1: Copy(1, 1), 2: Copy(1, 2)})
    assert hub_classes_from_labels(g) is None


# --------------------------------------------------------- degree guarantee


@pytest.mark.parametrize(
    "g",
    [cycle_graph(4), cycle_graph(5), cycle_graph(7), complete_graph(4),
     petersen_graph(), complete_bipartite(3, 3)],
)
def test_subcubic_guarantee_holds(g):
    # degrees 2 and 3 provably satisfy the property
    assert {g.degree(v) for v in range(g.n)} <= {2, 3}
    report = conjecture_holds(g)
    assert report.verdict is Verdict.HOLDS


# ------------------------------------------------------------- saturation
#
# Every maximum matching saturates s exactly when s avoids the
# Gallai-Edmonds D set; each test also enumerates every maximum matching.


def _exposing_matchings(g, s):
    """The maximum matchings of g that leave some vertex of s exposed."""
    found, stats = collect_maximum_matchings(g)
    assert stats.exhaustive
    return [m for m in found if not set(s).isdisjoint(m.exposed(g.n))]


def test_saturate_B2_sides():
    g = build_B(2)
    d = analyze(g).ge.d
    assert not set(range(6)) & d
    assert not _exposing_matchings(g, range(6))
    down = set(range(6, 14))
    assert down & d
    m = _exposing_matchings(g, down)[0]
    assert len(m) == len(analyze(g).matching)


def test_saturate_G3_hubs():
    g = build_G(3)
    d = analyze(g).ge.d
    assert not {0, 1, 2} & d
    assert not _exposing_matchings(g, [0, 1, 2])
    assert 3 in d
    assert _exposing_matchings(g, [3])


def test_saturate_empty_set_and_validation():
    # every vertex of C5 is exposable, and the empty set avoids them all
    g = cycle_graph(5)
    assert analyze(g).ge.d == frozenset(range(5))
    assert not _exposing_matchings(g, [])
    for v in range(5):
        assert _exposing_matchings(g, [v])


# ------------------------------------------------------- global properties


def test_verdict_duality_on_corpus():
    # conjecture_holds and SomePair counterexample status are exact
    # negations once enumeration is exhaustive
    for g in random_graph_corpus(seed=301, count=80, max_n=9, max_support_edges=14):
        ch = conjecture_holds(g, cap=10**6)
        sp = is_counterexample(g, PairMode.SOME_PAIR, cap=10**6)
        assert ch.verdict in (Verdict.HOLDS, Verdict.COUNTEREXAMPLE)
        assert ch.verdict == sp.verdict
        ap = is_counterexample(g, PairMode.ALL_PAIRS, cap=10**6)
        if ap.verdict is Verdict.COUNTEREXAMPLE:
            assert sp.verdict is Verdict.COUNTEREXAMPLE
            assert analyze(g).deficiency >= 2
        if ch.verdict is Verdict.HOLDS and ch.method == METHOD_ENUMERATION:
            w = ch.witness
            assert len(w.matching) == len(analyze(g).matching)
            for i, a in enumerate(w.exposed):
                for b in w.exposed[i + 1:]:
                    assert not common_neighbors(g, a, b)


def test_certificates_are_sound_on_corpus():
    # wherever a certificate fires, exhaustive enumeration agrees
    for g in random_graph_corpus(seed=302, count=60, max_n=9, max_support_edges=14):
        cert = strong_counterexample_certificate(analyze(g))
        if cert is not None:
            report = is_counterexample(g, PairMode.ALL_PAIRS, cap=10**6)
            assert report.verdict is Verdict.COUNTEREXAMPLE
            assert report.exhaustive


# ------------------------------------------------- counted, not visited
#
# `_decide` hands the enumerator a `settled` predicate so that matchings
# whose verdict is already fixed are counted instead of checked.  Each
# report must equal the one from visiting every matching.


def _decisions(g, cap):
    return (conjecture_holds(g, cap), is_counterexample(g, PairMode.SOME_PAIR, cap),
            is_counterexample(g, PairMode.ALL_PAIRS, cap))


def _assert_skipping_changes_no_report(g, caps=(DEFAULT_CAP,)):
    fast = [_decisions(g, cap) for cap in caps]
    with mock.patch.object(verify_mod, "_settled_predicate", lambda *args: None):
        slow = [_decisions(g, cap) for cap in caps]
    for cap, got, want in zip(caps, fast, slow):
        assert got == want, f"cap {cap}"


def _sweep_caps(g, most=200):
    """Every cap from 1 to one past the matching count when g has at most
    `most` maximum matchings, so a cap lands before, on and just past each
    counted subtree; else the default cap alone."""
    stats = visit_maximum_matchings(analyze(g), lambda m: True, cap=most + 1)
    if stats.count > most:
        return (DEFAULT_CAP,)
    return tuple(range(1, stats.count + 2)) + (DEFAULT_CAP,)


def test_skipping_changes_no_report_on_acceptance_corpus():
    corpus = random_graph_corpus(seed=CORPUS_SEED, count=500,
                                 max_n=12, max_support_edges=32)
    for g in corpus:
        _assert_skipping_changes_no_report(g, _sweep_caps(g))


def test_skipping_changes_no_report_below_a_star():
    # A K_{1,3} on the first vertices settles every branch once it is
    # matched, and the corpus graph beside it is the same subtree under each
    # of its three edges: the second and third are counted from the memo.
    corpus = random_graph_corpus(seed=CORPUS_SEED, count=100,
                                 max_n=12, max_support_edges=32)
    for g in corpus:
        h = graph_from_edges(4 + g.n, [(0, 1), (0, 2), (0, 3)]
                             + [(u + 4, v + 4) for u, v, _ in g.bundles()])
        _assert_skipping_changes_no_report(h, _sweep_caps(h))


FAMILY_MEMBERS = {
    "B2": lambda: build_B(2), "G3": lambda: build_G(3), "H3": lambda: build_H(3),
    "F5": lambda: build_F(5), "F6": lambda: build_F(6), "G4": lambda: build_G(4),
    "G3-unlabeled": lambda: strip_labels(build_G(3)),
    "G4-unlabeled": lambda: strip_labels(build_G(4)),
}


@pytest.mark.parametrize("name", FAMILY_MEMBERS)
def test_skipping_changes_no_report_on_families(name):
    _assert_skipping_changes_no_report(FAMILY_MEMBERS[name](), (1, 2, 100, DEFAULT_CAP))


@given(small_multigraphs())
def test_property_skipping_changes_no_report(g):
    _assert_skipping_changes_no_report(g, _sweep_caps(g))


def test_F5_some_pair_settled_at_the_root_by_strong_certificate(monkeypatch):
    # Every two triangle vertices of F5 share a hub, so every maximum matching
    # passes SomePair: the walk counts the 4320 matchings below the root and
    # visits the first, as AllPairs does (1479 single-root searches each, plus
    # the two-root analysis forest; checking every matching for a sharing pair
    # took 5388 searches, before the enumerator's live-vertex prune).
    searches, visits = [0], [0]
    augment = matching_mod._augment_from
    enumerate_all = verify_mod.visit_maximum_matchings

    def counted_augment(*args):
        searches[0] += 1
        return augment(*args)

    def counted_enumeration(analysis, visit, **kwargs):
        def counted_visit(m):
            visits[0] += 1
            return visit(m)
        return enumerate_all(analysis, counted_visit, **kwargs)

    monkeypatch.setattr(matching_mod, "_augment_from", counted_augment)
    monkeypatch.setattr(verify_mod, "visit_maximum_matchings", counted_enumeration)
    cost = {}
    for mode in (PairMode.ALL_PAIRS, PairMode.SOME_PAIR):
        searches[0] = visits[0] = 0
        report = is_counterexample(build_F(5), mode, cap=10**6)
        cost[mode] = searches[0], visits[0]
    assert (report.verdict, report.method, report.matchings_examined, report.exhaustive) == (
        Verdict.COUNTEREXAMPLE, METHOD_ENUMERATION, 4320, True)
    assert report.detail == "every maximum matching leaves a sharing exposed pair (4320 matchings)"
    assert report.witness == MatchingWitness(
        Matching([(0, 3), (1, 6), (2, 10), (4, 5), (7, 8), (9, 11), (13, 14), (16, 17)]),
        (12, 15), (12, 15), 0)
    assert cost[PairMode.SOME_PAIR][1] == 1
    assert cost[PairMode.SOME_PAIR][0] <= cost[PairMode.ALL_PAIRS][0]


def test_G4_some_pair_counts_settled_matchings(monkeypatch):
    searches, visits = [0], [0]
    augment = matching_mod._augment_from
    enumerate_all = verify_mod.visit_maximum_matchings

    def counted_augment(*args):
        searches[0] += 1
        return augment(*args)

    def counted_enumeration(analysis, visit, **kwargs):
        def counted_visit(m):
            visits[0] += 1
            return visit(m)
        return enumerate_all(analysis, counted_visit, **kwargs)

    monkeypatch.setattr(matching_mod, "_augment_from", counted_augment)
    monkeypatch.setattr(verify_mod, "visit_maximum_matchings", counted_enumeration)
    report = is_counterexample(build_G(4), PairMode.SOME_PAIR)
    assert (report.verdict, report.method, report.matchings_examined, report.exhaustive) == (
        Verdict.COUNTEREXAMPLE, METHOD_CERTIFICATE, DEFAULT_CAP, False)
    # visiting all 100000 matchings takes 79949 single-root searches
    assert searches[0] <= 10_000
    assert visits[0] <= 10
