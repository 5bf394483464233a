"""Verdict machinery: enumeration decisions, certificates, guarantees."""

from __future__ import annotations

import dataclasses

import pytest

import matchex.verify as verify_mod
from matchex import (
    DEFAULT_CAP,
    GallaiEdmonds,
    HubClass,
    Matching,
    MatchingWitness,
    Multigraph,
    PairMode,
    StrongCertificate,
    SubcubicGuaranteeError,
    Verdict,
    VerificationReport,
    WeakCertificate,
    all_maximum_matchings_saturate,
    analyze,
    build_B,
    build_F,
    build_G,
    build_H,
    check_subcubic_guarantee,
    conjecture_holds,
    deficiency,
    hub_classes_from_labels,
    is_counterexample,
    matching_number,
    strong_counterexample_certificate,
    weak_counterexample_certificate,
)
from matchex.verify import METHOD_CERTIFICATE, METHOD_ENUMERATION, METHOD_SHORT_CIRCUIT

from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_triangles,
    path_graph,
    petersen_graph,
    random_graph_corpus,
)


def strip_labels(g: Multigraph) -> Multigraph:
    bare = Multigraph(g.n)
    for u, v, m in g.bundles():
        bare.add_edges(u, v, m)
    return bare.freeze()


def complete_bipartite(p: int, q: int) -> Multigraph:
    g = Multigraph(p + q)
    for u in range(p):
        for v in range(p, p + q):
            g.add_edges(u, v, 1)
    return g.freeze()


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
    assert not g.common_neighbors(a, b)


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
    assert w.common in g.common_neighbors(*w.pair)


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
    with pytest.raises(ValueError):
        all_maximum_matchings_saturate(cycle_graph(4), [0], cap=0)


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
    assert w.common in build_B(2).common_neighbors(*w.pair)


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
    assert not g.common_neighbors(*w.pair)


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
        assert w in g.common_neighbors(a, b)


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
    g = Multigraph(3)
    g.set_label(0, Hub("x"))
    g.set_label(1, Copy(1, 1))
    g.set_label(2, Copy(1, 2))
    g.add_edges(0, 1, 1)
    g.freeze()
    assert hub_classes_from_labels(g) is None


# --------------------------------------------------------- degree guarantee


@pytest.mark.parametrize(
    "g",
    [cycle_graph(4), cycle_graph(5), cycle_graph(7), complete_graph(4),
     petersen_graph(), complete_bipartite(3, 3)],
)
def test_subcubic_guarantee_holds(g):
    report = check_subcubic_guarantee(g)
    assert report.verdict is Verdict.HOLDS


def test_subcubic_guarantee_preconditions():
    with pytest.raises(ValueError):
        check_subcubic_guarantee(Multigraph(0).freeze())
    with pytest.raises(ValueError):
        check_subcubic_guarantee(path_graph(3))  # endpoints have degree 1
    with pytest.raises(ValueError):
        check_subcubic_guarantee(complete_graph(5))  # degree 4
    g = Multigraph(5)
    for v in range(4):
        g.add_edges(v, (v + 1) % 4, 1)
    with pytest.raises(ValueError):
        check_subcubic_guarantee(g.freeze())  # isolated fifth vertex


def test_subcubic_guarantee_raises_on_contradiction(monkeypatch):
    bogus = VerificationReport(verdict=Verdict.COUNTEREXAMPLE, method=METHOD_CERTIFICATE)
    monkeypatch.setattr(verify_mod, "conjecture_holds", lambda g, cap: bogus)
    with pytest.raises(SubcubicGuaranteeError) as exc:
        check_subcubic_guarantee(cycle_graph(4))
    assert exc.value.report is bogus


# ------------------------------------------------------------- saturation


def test_saturate_B2_sides():
    g = build_B(2)
    up = all_maximum_matchings_saturate(g, range(6))
    assert up.verdict is Verdict.HOLDS
    assert up.method == METHOD_CERTIFICATE
    down = all_maximum_matchings_saturate(g, range(6, 14))
    assert down.verdict is Verdict.COUNTEREXAMPLE
    w = down.witness
    assert isinstance(w, MatchingWitness)
    assert w.matching.size() == matching_number(g)
    assert set(w.exposed) & set(range(6, 14))


def test_saturate_G3_hubs():
    g = build_G(3)
    assert all_maximum_matchings_saturate(g, [0, 1, 2]).verdict is Verdict.HOLDS
    assert all_maximum_matchings_saturate(g, [3]).verdict is Verdict.COUNTEREXAMPLE


def test_saturate_empty_set_and_validation():
    assert all_maximum_matchings_saturate(cycle_graph(5), []).verdict is Verdict.HOLDS
    with pytest.raises(ValueError):
        all_maximum_matchings_saturate(cycle_graph(5), [9])


def test_saturate_witness_without_enumeration_hit():
    # cap 1 sees only the matching exposing vertex 0; the verdict for {4}
    # still carries a genuine exposing matching
    g = cycle_graph(5)
    report = all_maximum_matchings_saturate(g, [4], cap=1)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert not report.exhaustive
    w = report.witness
    assert isinstance(w, MatchingWitness)
    assert 4 in w.exposed
    assert w.matching.size() == 2
    w.matching.validate_in(g)


def test_saturate_crosscheck_raises_on_bad_decomposition(monkeypatch):
    fake = GallaiEdmonds(d=frozenset({0}), a=frozenset(), c=frozenset({1, 2, 3}))
    monkeypatch.setattr(verify_mod, "analyze",
                        lambda g: dataclasses.replace(analyze(g), ge=fake))
    with pytest.raises(RuntimeError):
        all_maximum_matchings_saturate(cycle_graph(4), [0])


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
            assert deficiency(g) >= 2
        if ch.verdict is Verdict.HOLDS and ch.method == METHOD_ENUMERATION:
            w = ch.witness
            assert w.matching.size() == matching_number(g)
            for i, a in enumerate(w.exposed):
                for b in w.exposed[i + 1:]:
                    assert not g.common_neighbors(a, b)


def test_certificates_are_sound_on_corpus():
    # wherever a certificate fires, exhaustive enumeration agrees
    for g in random_graph_corpus(seed=302, count=60, max_n=9, max_support_edges=14):
        cert = strong_counterexample_certificate(analyze(g))
        if cert is not None:
            report = is_counterexample(g, PairMode.ALL_PAIRS, cap=10**6)
            assert report.verdict is Verdict.COUNTEREXAMPLE
            assert report.exhaustive
