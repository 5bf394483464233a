"""Blossom solver, enumeration against the brute-force oracle, structure theory."""

from __future__ import annotations

import dataclasses
import random
import time

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

import conftest
import matchex.matching as matching_mod
from matchex import (
    Matching,
    Multigraph,
    analyze,
    build_B,
    build_F,
    build_G,
    build_H,
    conjecture_holds,
    derive_item_seed,
    random_regular_graph,
    tutte_berge_witness,
    visit_maximum_matchings,
)

from conftest import (
    BRUTE_FORCE_EDGE_LIMIT,
    CORPUS_SEED,
    brute_force_all_maximum_matchings,
    brute_force_matching_number,
    bundle_map,
    collect_maximum_matchings,
    complete_graph,
    cycle_graph,
    deletion_gallai_edmonds,
    disjoint_triangles,
    full_scan_analyze,
    full_scan_solve_matching,
    graph_from_edges,
    greedy_matching,
    path_graph,
    petersen_graph,
    random_graph_corpus,
    reference_visit_maximum_matchings,
    small_multigraphs,
    star_graph,
)

# ---------------------------------------------------------- Matching class


def test_matching_equality_and_hash():
    m = Matching([(1, 2), (0, 3)])
    assert m.sorted_edges() == ((0, 3), (1, 2))
    assert len(m) == 2
    assert m == Matching([(0, 3), (1, 2)])
    assert len({m, Matching([(0, 3), (1, 2)])}) == 1
    assert Matching([]) != Matching([(0, 1)])
    assert Matching([]) != "something else"


def test_exposed_vertices():
    assert Matching([(0, 1)]).exposed(3) == (2,)
    assert Matching([]).exposed(3) == (0, 1, 2)
    assert Matching([(1, 4), (0, 3)]).exposed(6) == (2, 5)
    assert Matching([]).exposed(0) == ()


# ------------------------------------------------------------- known values


@pytest.mark.parametrize(
    "g, nu",
    [
        (Multigraph(0), 0),
        (Multigraph(1), 0),
        (path_graph(2), 1),
        (path_graph(3), 1),
        (path_graph(6), 3),
        (cycle_graph(4), 2),
        (cycle_graph(5), 2),
        (cycle_graph(7), 3),
        (complete_graph(4), 2),
        (complete_graph(5), 2),
        (star_graph(3), 1),
        (petersen_graph(), 5),
        (disjoint_triangles(2), 2),
    ],
)
def test_matching_number_known(g, nu):
    m = analyze(g).matching
    assert bundle_map(g).keys() >= m.edges
    assert len(m) == nu
    assert analyze(g).deficiency == g.n - 2 * nu


def test_maximum_matching_deterministic():
    g = petersen_graph()
    assert analyze(g).matching == analyze(g).matching


@pytest.mark.parametrize(
    "g, count",
    [
        (Multigraph(0), 1),
        (Multigraph(2), 1),
        (path_graph(3), 2),
        (cycle_graph(4), 2),
        (cycle_graph(5), 5),
        (complete_graph(4), 3),
        (petersen_graph(), 6),
        (path_graph(201), 101),
        (cycle_graph(201), 201),
    ],
)
def test_enumeration_counts_known(g, count):
    found, stats = collect_maximum_matchings(g)
    assert stats.count == len(found) == count
    assert stats.exhaustive
    assert len(set(found)) == count


def test_enumeration_order_expose_branch_first():
    found, _ = collect_maximum_matchings(path_graph(3))
    assert found == [Matching([(1, 2)]), Matching([(0, 1)])]


def test_enumeration_deterministic():
    g = petersen_graph()
    assert collect_maximum_matchings(g) == collect_maximum_matchings(g)


def test_enumeration_cap_semantics():
    g = cycle_graph(5)  # exactly 5 maximum matchings
    found, stats = collect_maximum_matchings(g, cap=3)
    assert stats.count == len(found) == 3
    assert not stats.exhaustive
    found, stats = collect_maximum_matchings(g, cap=5)
    assert stats.count == len(found) == 5 and stats.exhaustive
    with pytest.raises(ValueError):
        collect_maximum_matchings(g, cap=0)


def test_empty_graph_single_empty_matching_under_cap():
    stats = visit_maximum_matchings(analyze(Multigraph(3)), lambda m: True, cap=1)
    assert stats.count == 1 and stats.exhaustive


def test_visitor_early_stop():
    stats = visit_maximum_matchings(analyze(cycle_graph(5)), lambda m: False)
    assert stats.count == 1
    assert not stats.exhaustive


def test_visited_matchings_are_maximum_and_valid():
    g = cycle_graph(7)
    nu = len(analyze(g).matching)

    def check(m):
        assert bundle_map(g).keys() >= m.edges
        assert len(m) == nu
        return True

    stats = visit_maximum_matchings(analyze(g), check)
    assert stats.exhaustive


@pytest.mark.parametrize("build", [path_graph, cycle_graph])
def test_enumeration_depth_beyond_recursion_limit(build):
    # 2500 branch levels lie above the first matching
    g = build(5001)
    start = time.perf_counter()
    stats = visit_maximum_matchings(analyze(g), lambda m: False)
    elapsed = time.perf_counter() - start
    assert stats.count == 1 and not stats.exhaustive
    assert elapsed < 30.0, f"first matching took {elapsed:.2f}s on n={g.n}"


@pytest.mark.parametrize("build", [path_graph, cycle_graph])
def test_first_matching_of_long_path_skips_searches_that_must_fail(monkeypatch, build):
    # Below the first level, the branch leaving v exposed needs 2500 edges
    # on 4999 or fewer live vertices, so the live count rejects it without
    # a search: 1 search in all, where searching took 2501 searches and
    # ~2 s (0.05 s now, both on a 2-vCPU x86 sandbox).
    g = build(5001)
    analysis = analyze(g)
    searches = _count_calls(monkeypatch, matching_mod, "_augment_from")
    start = time.perf_counter()
    stats = visit_maximum_matchings(analysis, lambda m: False)
    elapsed = time.perf_counter() - start
    assert stats.count == 1 and not stats.exhaustive
    assert searches[0] == 1
    assert elapsed < 0.5, f"first matching took {elapsed:.2f}s on n={g.n}"


# --------------------------------------------------------- oracle agreement


def test_brute_force_guard():
    g = complete_graph(12)  # 66 support edges
    assert g.support_edge_count() > BRUTE_FORCE_EDGE_LIMIT
    with pytest.raises(ValueError):
        brute_force_matching_number(g)
    with pytest.raises(ValueError):
        brute_force_all_maximum_matchings(g)


def test_blossom_agrees_with_brute_force_on_corpus():
    for g in random_graph_corpus(seed=202, count=200):
        assert len(analyze(g).matching) == brute_force_matching_number(g)


def test_enumeration_agrees_with_brute_force_on_corpus():
    for g in random_graph_corpus(seed=203, count=120):
        found, stats = collect_maximum_matchings(g)
        assert stats.exhaustive
        assert set(found) == brute_force_all_maximum_matchings(g)


def test_matching_number_agrees_with_networkx():
    for g in random_graph_corpus(seed=204, count=200):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(bundle_map(g))
        expect = len(nx.max_weight_matching(h, maxcardinality=True))
        assert len(analyze(g).matching) == expect


@given(small_multigraphs())
def test_property_blossom_matches_brute(g):
    assert len(analyze(g).matching) == brute_force_matching_number(g)


@given(small_multigraphs())
def test_property_enumeration_matches_brute(g):
    found, stats = collect_maximum_matchings(g)
    assert stats.exhaustive
    assert set(found) == brute_force_all_maximum_matchings(g)


@given(small_multigraphs())
def test_property_multiplicities_do_not_matter(g):
    s = Multigraph(g.n, dict.fromkeys(bundle_map(g), 1))
    assert len(analyze(g).matching) == len(analyze(s).matching)
    assert set(collect_maximum_matchings(g)[0]) == set(collect_maximum_matchings(s)[0])
    assert analyze(g).ge == analyze(s).ge


# ------------------------------------------- reference enumerator agreement


def _visit_trace(enumerator, g, cap=None, stop_after=None):
    """Matchings an enumerator delivers, in order, and its stats; the
    visitor stops it at the `stop_after`-th matching when given."""
    seen = []

    def visit(m):
        seen.append(m.sorted_edges())
        return stop_after is None or len(seen) < stop_after

    stats = enumerator(g, visit, cap=cap)
    return seen, stats


def _assert_same_as_reference(g, cap=None, stop_after=None):
    got = _visit_trace(visit_maximum_matchings, analyze(g), cap, stop_after)
    assert got == _visit_trace(reference_visit_maximum_matchings, g, cap, stop_after)
    return got


def test_enumerator_matches_reference_on_acceptance_corpus():
    corpus = random_graph_corpus(seed=CORPUS_SEED, count=500,
                                 max_n=12, max_support_edges=32)
    for g in corpus:
        seen, stats = _assert_same_as_reference(g)
        assert stats.exhaustive and stats.count == len(seen)
        if stats.count > 1:
            # the cap ends the walk one matching early; the visitor halfway
            _assert_same_as_reference(g, cap=stats.count - 1)
            _assert_same_as_reference(g, stop_after=(stats.count + 1) // 2)


@pytest.mark.parametrize(
    "build, r, cap, count, exhaustive",
    [(build_B, 2, None, 448, True), (build_G, 3, None, 17010, True),
     (build_H, 3, None, 17010, True), (build_F, 5, None, 4320, True),
     (build_F, 6, None, 25920, True), (build_G, 4, 5000, 5000, False)],
)
def test_enumerator_matches_reference_on_families(build, r, cap, count, exhaustive):
    seen, stats = _assert_same_as_reference(build(r), cap=cap)
    assert (stats.count, stats.exhaustive) == (count, exhaustive)
    assert len(seen) == count


def test_enumerator_early_stop_matches_reference():
    seen, stats = _assert_same_as_reference(build_G(3), stop_after=1000)
    assert len(seen) == stats.count == 1000 and not stats.exhaustive


@given(small_multigraphs(), st.integers(1, 6), st.integers(1, 6))
def test_property_enumerator_matches_reference(g, cap, stop_after):
    _assert_same_as_reference(g)
    _assert_same_as_reference(g, cap=cap)
    _assert_same_as_reference(g, stop_after=stop_after)


@pytest.mark.parametrize(
    "build, r, cap",
    [(build_B, 2, None), (build_G, 3, None), (build_H, 3, None), (build_F, 5, None),
     (build_F, 6, None), (build_G, 4, 5000)],
)
def test_settled_everywhere_counts_like_reference(build, r, cap):
    # A predicate that always holds lets the walk deliver the first
    # matching only and count the rest, memoised by live set.
    g = build(r)
    first = []
    ref_stats = reference_visit_maximum_matchings(
        g, lambda m: first.append(m.sorted_edges()) if not first else True, cap=cap)
    seen = []
    stats = visit_maximum_matchings(
        analyze(g), lambda m: seen.append(m.sorted_edges()), cap=cap, settled=lambda e: True)
    assert stats == ref_stats
    assert seen == first


def test_settled_masks_are_exposed_by_the_matchings_below():
    # The last mask handed to `settled` before a matching is delivered is
    # part of that matching's exposed set, and all of it after the first.
    g = build_G(3)
    asked = []

    def settled(exposed):
        asked.append(exposed)
        return False

    def visit(m):
        mask = sum(1 << v for v in m.exposed(g.n))
        if seen:
            assert asked[-1] == mask
        else:
            assert asked[-1] | mask == mask
        seen.append(m)
        return True

    seen = []
    stats = visit_maximum_matchings(analyze(g), visit, settled=settled)
    assert (stats.count, stats.exhaustive) == (17010, True)


@given(small_multigraphs(), st.integers(0, 6), st.one_of(st.none(), st.integers(1, 8)))
def test_property_settled_skips_exactly_the_settled_matchings(g, x, cap):
    # With "x is exposed" as the predicate, the walk delivers the reference's
    # first matching and then exactly those that leave x matched, and counts
    # the rest: the same stats at every cap.
    ref, ref_stats = _visit_trace(reference_visit_maximum_matchings, g, cap)
    seen = []
    stats = visit_maximum_matchings(
        analyze(g), lambda m: seen.append(m.sorted_edges()), cap=cap,
        settled=lambda exposed: exposed >> x & 1 == 1)
    assert stats == ref_stats
    expect = ref[:1] + [edges for edges in ref[1:]
                        if x not in Matching(edges).exposed(g.n)]
    assert seen == expect


# ------------------------------------------------ full-scan contraction oracle


def _assert_same_as_full_scan(g):
    """Partner array of the solve, and the matching, deficiency and D/A/C
    of `analyze`, equal those of the full-scan reference."""
    ref_match, ref_deficiency, ref_ge = full_scan_analyze(g)
    assert matching_mod._solve_matching(g.support_adjacency()) == ref_match
    analysis = analyze(g)
    assert analysis.matching.sorted_edges() == tuple(
        (v, w) for v, w in enumerate(ref_match) if v < w)
    assert analysis.deficiency == ref_deficiency
    assert analysis.ge == ref_ge


def test_contraction_matches_full_scan_on_acceptance_corpus():
    corpus = random_graph_corpus(seed=CORPUS_SEED, count=500,
                                 max_n=12, max_support_edges=32)
    for g in corpus:
        _assert_same_as_full_scan(g)


def test_masked_search_matches_full_scan_on_acceptance_corpus():
    # The enumerator searches with dead vertices masked out: from the greedy
    # matching of a random alive set, every exposed alive root's search must
    # find, and leave behind, what the full-scan search does.
    corpus = random_graph_corpus(seed=CORPUS_SEED, count=500,
                                 max_n=12, max_support_edges=32)
    searches = augmented = 0
    for i, g in enumerate(corpus):
        rng = random.Random(derive_item_seed(CORPUS_SEED, i))
        adj = g.support_adjacency()
        for _ in range(3):
            alive = [rng.random() < 0.75 for _ in range(g.n)]
            match = greedy_matching(adj, alive)
            ref = match.copy()
            for root in range(g.n):
                if alive[root] and match[root] == -1:
                    found = matching_mod._augment_from(adj, alive, match, (root,)) is None
                    assert found == conftest._full_scan_augment_from(adj, alive, ref, root)
                    assert match == ref
                    assert all(match[v] == -1 for v in range(g.n) if not alive[v])
                    searches += 1
                    augmented += found
    assert searches > 1000 and augmented > 100


@given(small_multigraphs())
def test_property_contraction_matches_full_scan(g):
    _assert_same_as_full_scan(g)


@pytest.mark.parametrize(
    "build, r",
    [*((build_B, r) for r in range(2, 7)), *((build_G, r) for r in range(3, 9)),
     *((build_H, r) for r in range(3, 9)), *((build_F, r) for r in range(5, 12))],
)
def test_contraction_matches_full_scan_on_families(build, r):
    _assert_same_as_full_scan(build(r))


def test_contraction_matches_full_scan_on_sampled_regular_graphs():
    # d 3-5, simple and multigraph; odd n only where d is even
    kinds = set()
    for i in range(300):
        rng = random.Random(derive_item_seed(0xB10550, i))
        degree = rng.choice((3, 4, 5))
        simple = rng.random() < 0.5
        n = rng.choice([n for n in range(degree + 1, 121) if n * degree % 2 == 0])
        g = random_regular_graph(n, degree, rng.getrandbits(63), simple_only=simple)
        _assert_same_as_full_scan(g)
        kinds.add((degree, simple, n % 2))
    assert len(kinds) == 8  # every (degree, simple) pair, and both parities at d 4


# ---------------------------------------------------------- Gallai-Edmonds


@pytest.mark.parametrize(
    "g, d, a",
    [
        (cycle_graph(3), {0, 1, 2}, set()),
        (cycle_graph(4), set(), set()),
        (path_graph(3), {0, 2}, {1}),
        (star_graph(3), {1, 2, 3}, {0}),
        (petersen_graph(), set(), set()),
        (disjoint_triangles(2), {0, 1, 2, 3, 4, 5}, set()),
    ],
)
def test_gallai_edmonds_known(g, d, a):
    ge = analyze(g).ge
    assert ge.d == frozenset(d)
    assert ge.a == frozenset(a)
    assert ge.c == frozenset(range(g.n)) - ge.d - ge.a


def test_gallai_edmonds_partition_and_exposure_on_corpus():
    for g in random_graph_corpus(seed=205, count=80):
        ge = analyze(g).ge
        assert ge.d | ge.a | ge.c == set(range(g.n))
        assert not (ge.d & ge.a) and not (ge.d & ge.c) and not (ge.a & ge.c)
        found, stats = collect_maximum_matchings(g)
        assert stats.exhaustive
        exposable = set()
        for m in found:
            assert bundle_map(g).keys() >= m.edges
            exposable.update(m.exposed(g.n))
        assert ge.d == frozenset(exposable)


def test_gallai_edmonds_matches_deletion_oracle_on_acceptance_corpus():
    corpus = random_graph_corpus(seed=CORPUS_SEED, count=500,
                                 max_n=12, max_support_edges=32)
    for g in corpus:
        assert analyze(g).ge == deletion_gallai_edmonds(g)


def test_analyze_agrees_with_separate_solves_on_corpus():
    # one solve serves the matching, the deficiency and D/A/C
    for g in random_graph_corpus(seed=207, count=150):
        analysis = analyze(g)
        assert analysis.g is g
        assert bundle_map(g).keys() >= analysis.matching.edges
        nu = brute_force_matching_number(g)
        assert len(analysis.matching) == nu and analysis.deficiency == g.n - 2 * nu
        assert analysis.ge == deletion_gallai_edmonds(g)


@pytest.mark.parametrize(
    "build, r",
    [(build_B, 2), (build_B, 3), (build_B, 4), (build_G, 3), (build_H, 3),
     (build_F, 5), (build_F, 6)],
)
def test_gallai_edmonds_matches_deletion_oracle_on_families(build, r):
    g = build(r)
    assert analyze(g).ge == deletion_gallai_edmonds(g)


@given(small_multigraphs())
def test_property_gallai_edmonds_matches_deletion_oracle(g):
    assert analyze(g).ge == deletion_gallai_edmonds(g)


def _timed_gallai_edmonds(g):
    start = time.perf_counter()
    ge = analyze(g).ge
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"analyze took {elapsed:.2f}s on n={g.n}"
    return ge


def test_gallai_edmonds_B12_closed_form():
    # pair vertices come first (2r^2 - r of them), then the 2r^2 copy
    # vertices; every maximum matching saturates the pair side
    r = 12
    g = build_B(r)
    assert g.n == 564
    ge = _timed_gallai_edmonds(g)
    assert ge.d == frozenset(range(2 * r * r - r, g.n))
    assert ge.a == frozenset(range(2 * r * r - r))
    assert ge.c == frozenset()


def test_analyze_large_odd_regular_multigraph():
    # a contraction costs the vertices it absorbs; a rescan of all n
    # vertices per blossom made this quadratic (about 3 s at n = 8001)
    g = random_regular_graph(20001, 4, 7, simple_only=False)
    start = time.perf_counter()
    analysis = analyze(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"analyze took {elapsed:.2f}s on n={g.n}"
    assert analysis.deficiency == 1
    assert analysis.ge.d == frozenset(range(g.n))


def test_gallai_edmonds_long_path():
    g = path_graph(5001)
    ge = _timed_gallai_edmonds(g)
    assert ge.d == frozenset(range(0, g.n, 2))
    assert ge.a == frozenset(range(1, g.n, 2))
    assert ge.c == frozenset()


def test_gallai_edmonds_raises_on_non_maximum_matching(monkeypatch):
    # an empty "maximum" matching leaves both ends of every edge exposed,
    # so the forest meets an outer-outer edge between two trees
    monkeypatch.setattr(matching_mod, "_solve_matching", lambda adj: [-1] * len(adj))
    with pytest.raises(RuntimeError, match="matching implementation is buggy"):
        analyze(path_graph(3))



def test_gallai_edmonds_raises_when_trees_meet_through_a_blossom():
    # 0-1-2 is a blossom of 0's tree with base 0, and 3's tree reaches it
    # through 2: the stems meet only at two different exposed bases
    g = graph_from_edges(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(RuntimeError, match="the matching is not maximum"):
        matching_mod._gallai_edmonds(g.support_adjacency(), [-1, 2, 1, -1])


def _assert_forest_raises_iff_not_maximum(g: Multigraph, rng: random.Random) -> bool:
    # A random valid matching: support edges in random order, each taken
    # with probability 1/2 when both ends are free.  The forest must raise
    # exactly when it is not maximum, and read the canonical D/A/C otherwise.
    adj = g.support_adjacency()
    edges = [(v, w) for v in range(g.n) for w in adj[v] if v < w]
    rng.shuffle(edges)
    match = [-1] * g.n
    for v, w in edges:
        if match[v] == match[w] == -1 and rng.random() < 0.5:
            match[v], match[w] = w, v
    short = conftest.match_size(match) < brute_force_matching_number(g)
    try:
        ge = matching_mod._gallai_edmonds(adj, match)
    except RuntimeError as exc:
        assert short and "the matching is not maximum" in str(exc)
    else:
        assert not short
        assert ge == deletion_gallai_edmonds(g)
    return short


def test_gallai_edmonds_raises_iff_not_maximum_on_acceptance_corpus():
    corpus = random_graph_corpus(seed=CORPUS_SEED, count=500,
                                 max_n=12, max_support_edges=32)
    raised = 0
    for i, g in enumerate(corpus):
        rng = random.Random(derive_item_seed(CORPUS_SEED, i))
        for _ in range(6):
            raised += _assert_forest_raises_iff_not_maximum(g, rng)
    assert 500 < raised < 2500


@given(small_multigraphs(), st.randoms(use_true_random=False))
def test_property_gallai_edmonds_raises_iff_not_maximum(g, rng):
    _assert_forest_raises_iff_not_maximum(g, rng)

ASYMMETRIC_PARTNER_ARRAYS = [
    # 1 is claimed by both 0 and 2; read edge by edge, this would be a
    # perfect "matching" of two edges sharing vertex 1
    (path_graph(4), [1, 2, 1, -1]),
    # 0 points at 1, which points nowhere: deficiency 1, so no forest is
    # grown to notice it
    (path_graph(3), [1, -1, -1]),
]


@pytest.mark.parametrize("g, match", ASYMMETRIC_PARTNER_ARRAYS)
def test_analyze_raises_on_asymmetric_partner_array(monkeypatch, g, match):
    monkeypatch.setattr(matching_mod, "_solve_matching", lambda adj: list(match))
    with pytest.raises(RuntimeError, match="matching implementation is buggy"):
        analyze(g)


def _count_calls(monkeypatch, module, name):
    """Patch `module.name` to count its calls; returns the one-element list
    that holds the count."""
    calls = [0]
    fn = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_solve_skips_the_last_exposed_root(monkeypatch):
    # A root whose search failed never ends a later augmenting path, so the
    # last exposed root cannot augment and is not searched.  Of the k roots
    # the greedy start leaves, (k - deficiency) / 2 are matched by an earlier
    # root's search and never searched; the full scan searches the rest.
    g = random_regular_graph(201, 4, 5, simple_only=False)
    adj = g.support_adjacency()
    k = greedy_matching(adj, [True] * g.n).count(-1)  # roots the greedy start leaves
    full = _count_calls(monkeypatch, conftest, "_full_scan_augment_from")
    ref_match = full_scan_solve_matching(adj)
    searches = _count_calls(monkeypatch, matching_mod, "_augment_from")
    analysis = analyze(g)
    assert analysis.deficiency == 1
    assert analysis.matching.sorted_edges() == tuple(
        (v, w) for v, w in enumerate(ref_match) if v < w)
    assert k > 1
    assert full[0] == (k + analysis.deficiency) // 2
    assert searches[0] == full[0] - 1


def test_short_circuit_grows_no_forest(monkeypatch):
    g = random_regular_graph(201, 4, 5, simple_only=False)
    forests = _count_calls(monkeypatch, matching_mod, "_gallai_edmonds")
    assert conjecture_holds(g).method == "short-circuit"
    analysis = analyze(g)
    assert forests[0] == 0
    assert analysis.ge == analysis.ge == deletion_gallai_edmonds(g)
    assert forests[0] == 1


def test_forest_grown_once_at_deficiency_two(monkeypatch):
    # two trees can meet only from deficiency 2 on, so analyze grows the
    # forest before returning, to raise on a matching that is not maximum
    forests = _count_calls(monkeypatch, matching_mod, "_gallai_edmonds")
    analysis = analyze(build_B(2))
    assert (analysis.deficiency, forests[0]) == (2, 1)
    assert analysis.ge == deletion_gallai_edmonds(build_B(2))
    assert forests[0] == 1


# -------------------------------------------------------------- Tutte-Berge


@pytest.mark.parametrize(
    "g, s, odd",
    [
        (path_graph(3), {1}, 2),
        (cycle_graph(4), set(), 0),
        (star_graph(3), {0}, 3),
        (disjoint_triangles(2), set(), 2),
        (build_G(3), {0, 1, 2}, 7),
    ],
)
def test_tutte_berge_known(g, s, odd):
    w = tutte_berge_witness(analyze(g))
    assert w.s == frozenset(s)
    assert w.odd_count == odd
    assert w.odd_count - len(w.s) == g.n - 2 * len(analyze(g).matching)


def test_tutte_berge_identity_on_corpus():
    # the function re-derives odd components and raises on any mismatch
    for g in random_graph_corpus(seed=206, count=120):
        w = tutte_berge_witness(analyze(g))
        assert w.odd_count - len(w.s) == g.n - 2 * brute_force_matching_number(g)


def test_tutte_berge_raises_on_inconsistent_analysis():
    # a deficiency that the A side does not attain means the analysed
    # matching was not maximum
    analysis = analyze(build_G(3))
    with pytest.raises(RuntimeError, match="Tutte-Berge identity violated"):
        tutte_berge_witness(dataclasses.replace(analysis, deficiency=analysis.deficiency + 2))


# ------------------------------------------------------------ Hall violator
#
# On a bipartite graph, the members of a side that some maximum matching
# leaves exposed are ge.d & side; when that set is not empty it has fewer
# neighbors than members (a Hall violator), and when it is empty every
# maximum matching saturates the side.


def _hall_violator(g, side):
    return analyze(g).ge.d & frozenset(side)


def _assert_violates_hall(g, w):
    nbrs = {x for v in w for x in g.support_neighbors(v)}
    assert len(nbrs) < len(w)


def test_hall_violator_star():
    g = star_graph(3)
    w = _hall_violator(g, {1, 2, 3})
    assert w == frozenset({1, 2, 3})
    _assert_violates_hall(g, w)
    assert not _hall_violator(g, {0})


def test_hall_violator_path3():
    g = path_graph(3)
    w = _hall_violator(g, {0, 2})
    assert w == frozenset({0, 2})
    _assert_violates_hall(g, w)


def test_hall_violator_cycle4():
    assert not _hall_violator(cycle_graph(4), {0, 2})


def test_hall_violator_family_B2():
    g = build_B(2)
    u_side = set(range(6))
    v_side = set(range(6, 14))
    assert not _hall_violator(g, u_side)
    w = _hall_violator(g, v_side)
    assert w and w <= v_side
    _assert_violates_hall(g, w)


def test_hall_violator_matches_saturation_semantics():
    # empty exactly when every maximum matching saturates the side
    for i in range(120):
        rng = random.Random(derive_item_seed(207, i))
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        g = graph_from_edges(p + q, [(u, v, rng.randint(1, 2))
                                     for u in range(p) for v in range(p, p + q)
                                     if rng.random() < 0.55])
        side = set(range(p))
        w = _hall_violator(g, side)
        found, stats = collect_maximum_matchings(g)
        assert stats.exhaustive
        always_saturated = all(side.isdisjoint(m.exposed(g.n)) for m in found)
        assert (not w) == always_saturated
        if w:
            assert w <= side
            _assert_violates_hall(g, w)
