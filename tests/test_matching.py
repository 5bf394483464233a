"""Blossom solver, enumeration, brute-force oracle, structure theory."""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

import matchex.matching as matching_mod
from matchex import (
    BRUTE_FORCE_EDGE_LIMIT,
    Matching,
    Multigraph,
    analyze,
    brute_force_all_maximum_matchings,
    brute_force_matching_number,
    build_B,
    build_F,
    build_G,
    build_H,
    deficiency,
    derive_item_seed,
    enumerate_maximum_matchings,
    exposed_vertices,
    gallai_edmonds,
    hall_violator,
    matching_number,
    maximum_matching,
    tutte_berge_witness,
    visit_maximum_matchings,
)

from conftest import (
    CORPUS_SEED,
    complete_graph,
    cycle_graph,
    deletion_gallai_edmonds,
    disjoint_triangles,
    path_graph,
    petersen_graph,
    random_graph_corpus,
    reference_visit_maximum_matchings,
    star_graph,
)

# ---------------------------------------------------------- Matching class


def test_matching_normalizes_and_validates():
    m = Matching([(2, 1), (0, 3)])
    assert m.sorted_edges() == ((0, 3), (1, 2))
    assert m.size() == 2 and len(m) == 2
    assert m.saturates(3) and not m.saturates(4)
    assert m.partner(1) == 2 and m.partner(4) is None
    with pytest.raises(ValueError):
        Matching([(1, 1)])
    with pytest.raises(ValueError):
        Matching([(0, 1), (1, 2)])


def test_matching_equality_and_hash():
    assert Matching([(1, 0)]) == Matching([(0, 1)])
    assert len({Matching([(0, 1)]), Matching([(1, 0)])}) == 1
    assert Matching([]) != Matching([(0, 1)])
    assert Matching([]) != "something else"


def test_matching_validate_in():
    g = path_graph(3)
    Matching([(0, 1)]).validate_in(g)
    with pytest.raises(ValueError):
        Matching([(0, 2)]).validate_in(g)  # not an edge
    with pytest.raises(ValueError):
        Matching([(2, 3)]).validate_in(g)  # out of range


def test_exposed_vertices():
    g = path_graph(3)
    assert exposed_vertices(g, Matching([(0, 1)])) == {2}
    assert exposed_vertices(g, Matching([])) == {0, 1, 2}
    with pytest.raises(ValueError):
        exposed_vertices(g, Matching([(0, 2)]))


# ------------------------------------------------------------- known values


@pytest.mark.parametrize(
    "g, nu",
    [
        (Multigraph(0).freeze(), 0),
        (Multigraph(1).freeze(), 0),
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
    assert matching_number(g) == nu
    assert deficiency(g) == g.n - 2 * nu
    m = maximum_matching(g)
    m.validate_in(g)
    assert m.size() == nu


def test_maximum_matching_deterministic():
    g = petersen_graph()
    assert maximum_matching(g) == maximum_matching(g)


@pytest.mark.parametrize(
    "g, count",
    [
        (Multigraph(0).freeze(), 1),
        (Multigraph(2).freeze(), 1),
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
    enum = enumerate_maximum_matchings(g)
    assert enum.count() == count
    assert enum.exhaustive
    assert len(set(enum.matchings)) == count


def test_enumeration_order_expose_branch_first():
    enum = enumerate_maximum_matchings(path_graph(3))
    assert enum.matchings == (Matching([(1, 2)]), Matching([(0, 1)]))


def test_enumeration_deterministic():
    g = petersen_graph()
    a = enumerate_maximum_matchings(g).matchings
    b = enumerate_maximum_matchings(g).matchings
    assert a == b


def test_enumeration_cap_semantics():
    g = cycle_graph(5)  # exactly 5 maximum matchings
    assert enumerate_maximum_matchings(g, cap=3).count() == 3
    assert not enumerate_maximum_matchings(g, cap=3).exhaustive
    full = enumerate_maximum_matchings(g, cap=5)
    assert full.count() == 5 and full.exhaustive
    with pytest.raises(ValueError):
        enumerate_maximum_matchings(g, cap=0)


def test_empty_graph_single_empty_matching_under_cap():
    stats = visit_maximum_matchings(Multigraph(3).freeze(), lambda m: True, cap=1)
    assert stats.count == 1 and stats.exhaustive


def test_visitor_early_stop():
    stats = visit_maximum_matchings(cycle_graph(5), lambda m: False)
    assert stats.count == 1
    assert not stats.exhaustive


def test_visited_matchings_are_maximum_and_valid():
    g = cycle_graph(7)
    nu = matching_number(g)

    def check(m):
        m.validate_in(g)
        assert m.size() == nu
        return True

    stats = visit_maximum_matchings(g, check)
    assert stats.exhaustive


@pytest.mark.parametrize("build", [path_graph, cycle_graph])
def test_enumeration_depth_beyond_recursion_limit(build):
    # 2500 branch levels lie above the first matching
    g = build(5001)
    start = time.perf_counter()
    stats = visit_maximum_matchings(g, lambda m: False)
    elapsed = time.perf_counter() - start
    assert stats.count == 1 and not stats.exhaustive
    assert elapsed < 30.0, f"first matching took {elapsed:.2f}s on n={g.n}"


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
        assert matching_number(g) == brute_force_matching_number(g)


def test_enumeration_agrees_with_brute_force_on_corpus():
    for g in random_graph_corpus(seed=203, count=120):
        enum = enumerate_maximum_matchings(g)
        assert enum.exhaustive
        assert set(enum.matchings) == brute_force_all_maximum_matchings(g)


def test_matching_number_agrees_with_networkx():
    for g in random_graph_corpus(seed=204, count=200):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.support_edges())
        expect = len(nx.max_weight_matching(h, maxcardinality=True))
        assert matching_number(g) == expect


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
    n, edges, mults = draw(_small_graphs_pairs)
    g = Multigraph(n)
    for (u, v), m in zip(edges, itertools.cycle(mults)):
        g.add_edges(u, v, m)
    return g.freeze()


@given(small_multigraphs())
def test_property_blossom_matches_brute(g):
    assert matching_number(g) == brute_force_matching_number(g)


@given(small_multigraphs())
def test_property_enumeration_matches_brute(g):
    enum = enumerate_maximum_matchings(g)
    assert enum.exhaustive
    assert set(enum.matchings) == brute_force_all_maximum_matchings(g)


@given(small_multigraphs())
def test_property_multiplicities_do_not_matter(g):
    s = g.support_graph()
    assert matching_number(g) == matching_number(s)
    assert set(enumerate_maximum_matchings(g).matchings) == set(
        enumerate_maximum_matchings(s).matchings
    )
    assert gallai_edmonds(g) == gallai_edmonds(s)


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
    got = _visit_trace(visit_maximum_matchings, g, cap, stop_after)
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
    ge = gallai_edmonds(g)
    assert ge.d == frozenset(d)
    assert ge.a == frozenset(a)
    assert ge.c == frozenset(range(g.n)) - ge.d - ge.a


def test_gallai_edmonds_partition_and_exposure_on_corpus():
    for g in random_graph_corpus(seed=205, count=80):
        ge = gallai_edmonds(g)
        assert ge.d | ge.a | ge.c == set(range(g.n))
        assert not (ge.d & ge.a) and not (ge.d & ge.c) and not (ge.a & ge.c)
        enum = enumerate_maximum_matchings(g)
        assert enum.exhaustive
        exposable = set()
        for m in enum.matchings:
            exposable |= exposed_vertices(g, m)
        assert ge.d == frozenset(exposable)


def test_gallai_edmonds_matches_deletion_oracle_on_acceptance_corpus():
    corpus = random_graph_corpus(seed=CORPUS_SEED, count=500,
                                 max_n=12, max_support_edges=32)
    for g in corpus:
        assert gallai_edmonds(g) == deletion_gallai_edmonds(g)


def test_analyze_agrees_with_separate_solves_on_corpus():
    # one solve serves the matching, the deficiency and D/A/C
    for g in random_graph_corpus(seed=207, count=150):
        analysis = analyze(g)
        assert analysis.g is g
        assert analysis.matching == maximum_matching(g)
        analysis.matching.validate_in(g)
        assert analysis.deficiency == deficiency(g)
        assert analysis.ge == deletion_gallai_edmonds(g)


@pytest.mark.parametrize(
    "build, r",
    [(build_B, 2), (build_B, 3), (build_B, 4), (build_G, 3), (build_H, 3),
     (build_F, 5), (build_F, 6)],
)
def test_gallai_edmonds_matches_deletion_oracle_on_families(build, r):
    g = build(r)
    assert gallai_edmonds(g) == deletion_gallai_edmonds(g)


@given(small_multigraphs())
def test_property_gallai_edmonds_matches_deletion_oracle(g):
    assert gallai_edmonds(g) == deletion_gallai_edmonds(g)


def _timed_gallai_edmonds(g):
    start = time.perf_counter()
    ge = gallai_edmonds(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gallai_edmonds took {elapsed:.2f}s on n={g.n}"
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


def test_gallai_edmonds_long_path():
    g = path_graph(5001)
    ge = _timed_gallai_edmonds(g)
    assert ge.d == frozenset(range(0, g.n, 2))
    assert ge.a == frozenset(range(1, g.n, 2))
    assert ge.c == frozenset()


def test_gallai_edmonds_raises_on_non_maximum_matching(monkeypatch):
    # an empty "maximum" matching leaves both ends of every edge exposed,
    # so the forest meets an outer-outer edge between two trees
    monkeypatch.setattr(matching_mod, "_solve_matching",
                        lambda adj, alive=None, match=None: [-1] * len(adj))
    with pytest.raises(RuntimeError, match="matching implementation is buggy"):
        gallai_edmonds(path_graph(3))


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
    assert w.odd_count - len(w.s) == deficiency(g)


def test_tutte_berge_identity_on_corpus():
    # the function re-derives odd components and raises on any mismatch
    for g in random_graph_corpus(seed=206, count=120):
        w = tutte_berge_witness(analyze(g))
        assert w.odd_count - len(w.s) == deficiency(g)


def test_tutte_berge_raises_on_inconsistent_analysis():
    # a deficiency that the A side does not attain means the analysed
    # matching was not maximum
    analysis = analyze(build_G(3))
    with pytest.raises(RuntimeError, match="Tutte-Berge identity violated"):
        tutte_berge_witness(dataclasses.replace(analysis, deficiency=analysis.deficiency + 2))


# ------------------------------------------------------------ Hall violator


def test_hall_violator_star():
    g = star_graph(3)
    w = hall_violator(g, side={1, 2, 3})
    assert w == frozenset({1, 2, 3})
    assert hall_violator(g, side={0}) is None


def test_hall_violator_path3():
    w = hall_violator(path_graph(3), side={0, 2})
    assert w == frozenset({0, 2})


def test_hall_violator_cycle4():
    assert hall_violator(cycle_graph(4), side={0, 2}) is None


def test_hall_violator_family_B2():
    g = build_B(2)
    u_side = set(range(6))
    v_side = set(range(6, 14))
    assert hall_violator(g, side=u_side) is None
    w = hall_violator(g, side=v_side)
    assert w is not None and w <= v_side
    nbrs = {x for v in w for x in g.support_neighbors(v)}
    assert len(nbrs) < len(w)


def test_hall_violator_rejects_non_crossing_side():
    with pytest.raises(ValueError):
        hall_violator(cycle_graph(3), side={0, 1})
    with pytest.raises(ValueError):
        hall_violator(path_graph(3), side={7})


def test_hall_violator_matches_saturation_semantics():
    # None exactly when every maximum matching saturates the side
    for i in range(120):
        rng = random.Random(derive_item_seed(207, i))
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        g = Multigraph(p + q)
        for u in range(p):
            for v in range(p, p + q):
                if rng.random() < 0.55:
                    g.add_edges(u, v, rng.randint(1, 2))
        g.freeze()
        side = set(range(p))
        w = hall_violator(g, side)
        enum = enumerate_maximum_matchings(g)
        assert enum.exhaustive
        always_saturated = all(
            all(m.saturates(v) for v in side) for m in enum.matchings
        )
        assert (w is None) == always_saturated
        if w is not None:
            assert w and w <= side
            nbrs = {x for v in w for x in g.support_neighbors(v)}
            assert len(nbrs) < len(w)
