"""Acceptance suite: the package's headline guarantees, one test per criterion.

Each criterion prints one `ACCEPTANCE <k> <name>: PASS|FAIL (<seconds>)` line
(visible with `pytest -s`).  Quantities are exact (zero tolerance); runtime
bounds are enforced as hard limits.
"""

from __future__ import annotations

import functools
import time

from matchex import (
    FamilySpec,
    HuntConfig,
    PairMode,
    Verdict,
    analyze,
    build_family,
    derive_item_seed,
    expected_stats,
    format_summary,
    hub_classes_from_labels,
    hunt,
    is_counterexample,
    parse_mgf,
    strong_counterexample_certificate,
    tutte_berge_witness,
    weak_counterexample_certificate,
)
from matchex.verify import METHOD_CERTIFICATE, METHOD_ENUMERATION, conjecture_holds

from conftest import (
    ACCEPTANCE_LINES,
    BRUTE_FORCE_EDGE_LIMIT,
    CORPUS_SEED,
    brute_force_all_maximum_matchings,
    brute_force_matching_number,
    collect_maximum_matchings,
    degree_profile,
    random_graph_corpus,
    random_subcubic_connected,
)

ALL_SPECS = (
    [FamilySpec("B", r) for r in range(2, 6)]
    + [FamilySpec("G", r) for r in range(3, 7)]
    + [FamilySpec("H", r) for r in range(3, 7)]
    + [FamilySpec("F", r) for r in range(5, 9)]
)

SUBCUBIC_SEED = 1010


def criterion(number: int, name: str, bound: float | None = None):
    """Wrap a test body: time it, print one PASS/FAIL line, enforce bound."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if bound is not None and elapsed >= bound:
                    raise AssertionError(
                        f"criterion {number} took {elapsed:.2f}s, bound {bound}s")
            except BaseException:
                elapsed = time.perf_counter() - start
                line = f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.2f}s)"
                print(line)
                ACCEPTANCE_LINES.append(line)
                raise
            line = f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)"
            print(line)
            ACCEPTANCE_LINES.append(line)

        return wrapper

    return deco


@functools.lru_cache(maxsize=None)
def family_graphs():
    return tuple((spec, build_family(spec)) for spec in ALL_SPECS)


@functools.lru_cache(maxsize=None)
def random_corpus():
    return tuple(random_graph_corpus(seed=CORPUS_SEED, count=500,
                                     max_n=12, max_support_edges=32))


@criterion(1, "family-exactness", bound=1.0)
def test_criterion_1_family_exactness():
    for spec, g in family_graphs():
        stats = expected_stats(spec)
        assert g.n == stats.vertex_count, spec
        assert g.weighted_edge_count() == stats.weighted_edge_count, spec
        assert degree_profile(g) == stats.degree_profile, spec


@criterion(2, "deficiency-reproduction", bound=5.0)
def test_criterion_2_deficiency_reproduction():
    for spec, g in family_graphs():
        want = {"B": spec.r, "G": 2 * spec.r - 2, "H": 2 * spec.r - 2,
                "F": spec.r - 3}[spec.family]
        assert expected_stats(spec).expected_deficiency == want
        assert analyze(g).deficiency == want, spec


@criterion(3, "B2-allpairs-exhaustive", bound=60.0)
def test_criterion_3_B2_all_pairs():
    g = build_family(FamilySpec("B", 2))
    report = is_counterexample(g, PairMode.ALL_PAIRS, cap=10**6)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.method == METHOD_ENUMERATION
    assert report.exhaustive
    assert report.matchings_examined == 448  # cross-checked against brute force


@criterion(4, "G3-H3-somepair", bound=120.0)
def test_criterion_4_G3_H3_some_pair():
    for fam in ("G", "H"):
        g = build_family(FamilySpec(fam, 3))
        report = is_counterexample(g, PairMode.SOME_PAIR, cap=10**6)
        assert report.verdict is Verdict.COUNTEREXAMPLE, fam
        assert report.method == METHOD_ENUMERATION
        assert report.exhaustive
        assert report.matchings_examined == 17010, fam
        classes = hub_classes_from_labels(g)
        assert classes is not None
        assert weak_counterexample_certificate(analyze(g), classes) is not None, fam
        capped = is_counterexample(g, PairMode.SOME_PAIR, cap=100)
        assert capped.verdict is Verdict.COUNTEREXAMPLE
        assert capped.method == METHOD_CERTIFICATE


@criterion(5, "F5-allpairs-certificate", bound=120.0)
def test_criterion_5_F5_all_pairs():
    g = build_family(FamilySpec("F", 5))
    cert = strong_counterexample_certificate(analyze(g))
    assert cert is not None
    assert cert.deficiency == 2
    report = is_counterexample(g, PairMode.ALL_PAIRS, cap=10**6)
    assert report.verdict is Verdict.COUNTEREXAMPLE
    assert report.exhaustive and report.matchings_examined == 4320
    capped = is_counterexample(g, PairMode.ALL_PAIRS, cap=1000)
    assert capped.verdict is Verdict.COUNTEREXAMPLE
    assert capped.method == METHOD_CERTIFICATE


@criterion(6, "certificates-at-scale", bound=60.0)
def test_criterion_6_certificates_at_scale():
    for spec, g in family_graphs():
        if spec.family in ("B", "F"):
            cert = strong_counterexample_certificate(analyze(g))
            assert cert is not None, spec
            assert cert.deficiency == expected_stats(spec).expected_deficiency
        else:
            classes = hub_classes_from_labels(g)
            assert classes is not None, spec
            weak = weak_counterexample_certificate(analyze(g), classes)
            assert weak is not None, spec
            assert weak.deficiency == expected_stats(spec).expected_deficiency


@criterion(7, "saturation-claims")
def test_criterion_7_saturation_claims():
    # every maximum matching saturates s iff s avoids the Gallai-Edmonds D
    # set; the cap is comfortably above both full counts so the D criterion
    # is cross-checked against exhaustive enumeration
    r = 2
    for g, s in ((build_family(FamilySpec("B", r)), frozenset(range(2 * r * r - r))),
                 (build_family(FamilySpec("G", 3)), frozenset({0, 1, 2}))):
        assert set(s) & analyze(g).ge.d == set()
        found, stats = collect_maximum_matchings(g, cap=25_000)
        assert stats.exhaustive
        assert [m for m in found if not s.isdisjoint(m.exposed(g.n))] == []


@criterion(8, "oracle-equivalence")
def test_criterion_8_oracle_equivalence():
    mismatches = 0
    graphs = list(random_corpus())
    graphs += [g for _, g in family_graphs()
               if g.support_edge_count() <= BRUTE_FORCE_EDGE_LIMIT]
    assert len(graphs) > 500  # at least one family graph fits the guard
    for g in graphs:
        if len(analyze(g).matching) != brute_force_matching_number(g):
            mismatches += 1
            continue
        found, stats = collect_maximum_matchings(g)
        if not stats.exhaustive or set(found) != brute_force_all_maximum_matchings(g):
            mismatches += 1
    assert mismatches == 0


@criterion(9, "tutte-berge-identity")
def test_criterion_9_tutte_berge_identity():
    pool = [g for _, g in family_graphs()] + list(random_corpus())
    for g in pool:
        analysis = analyze(g)
        w = tutte_berge_witness(analysis)  # raises internally on any mismatch
        assert w.odd_count - len(w.s) == g.n - 2 * len(analysis.matching)


@criterion(10, "subcubic-regression", bound=120.0)
def test_criterion_10_subcubic_regression():
    import random

    for i in range(200):
        rng = random.Random(derive_item_seed(SUBCUBIC_SEED, i))
        g = random_subcubic_connected(rng, n_min=4, n_max=12)
        assert {g.degree(v) for v in range(g.n)} <= {2, 3}, f"graph {i}"
        report = conjecture_holds(g)
        assert report.verdict is Verdict.HOLDS, f"graph {i}"


@criterion(11, "hunt-determinism")
def test_criterion_11_hunt_determinism():
    # cubic control: guaranteed clean, so any hit is a false positive
    control = hunt(HuntConfig(degree=3, n_min=10, n_max=14, count=50, seed=0))
    assert control.graphs_tested == 50
    assert control.counterexample_count == 0
    assert control.inconclusive_count == 0

    # 4-regular determinism: byte-identical regardless of parallelism;
    # anything recorded must re-verify from its serialized payload
    cfg = HuntConfig(degree=4, n_min=10, n_max=14, count=100, seed=7)
    first = hunt(cfg)
    second = hunt(cfg)
    parallel = hunt(cfg, workers=3)
    assert format_summary(first) == format_summary(second) == format_summary(parallel)
    for item in first.counterexamples:
        back = parse_mgf(item.mgf)
        assert conjecture_holds(back, cap=cfg.cap).verdict is Verdict.COUNTEREXAMPLE
