"""Counterexample family builders: sizes, degrees, labels, determinism."""

from __future__ import annotations

import pytest

from matchex import (
    FAMILIES,
    Copy,
    DegreeProfile,
    FamilySpec,
    FamilyStats,
    Hub,
    Pair,
    analyze,
    build_B,
    build_F,
    build_G,
    build_H,
    build_family,
    expected_stats,
    serialize_mgf,
)
from matchex.multigraph import MGF_MAX_VERTICES

from conftest import bundle_map, degree_profile

ALL_SPECS = (
    [FamilySpec("B", r) for r in range(2, 6)]
    + [FamilySpec("G", r) for r in range(3, 7)]
    + [FamilySpec("H", r) for r in range(3, 7)]
    + [FamilySpec("F", r) for r in range(5, 9)]
)


def test_families_constant():
    assert FAMILIES == ("B", "G", "H", "F")


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("X", 3)
    for fam, min_r in (("B", 2), ("G", 3), ("H", 3), ("F", 5)):
        FamilySpec(fam, min_r)  # smallest admissible r is fine
        with pytest.raises(ValueError):
            FamilySpec(fam, min_r - 1)


@pytest.mark.parametrize("fam, max_r", [("B", 500), ("G", 166665), ("H", 166665),
                                         ("F", 333332)])
def test_family_spec_rejects_r_beyond_the_mgf_vertex_limit(fam, max_r):
    # checked from the closed form, so nothing here builds a graph
    assert expected_stats(FamilySpec(fam, max_r)).vertex_count <= MGF_MAX_VERTICES
    with pytest.raises(ValueError, match=f"more than the {MGF_MAX_VERTICES}"):
        FamilySpec(fam, max_r + 1)
    with pytest.raises(ValueError, match=f"more than the {MGF_MAX_VERTICES}"):
        FamilySpec(fam, 10**9)


@pytest.mark.parametrize(
    "builder, min_r",
    [(build_B, 2), (build_G, 3), (build_H, 3), (build_F, 5)],
)
def test_builders_reject_small_r(builder, min_r):
    with pytest.raises(ValueError):
        builder(min_r - 1)


def test_expected_stats_exact_values():
    assert expected_stats(FamilySpec("B", 2)) == FamilyStats(
        14, 24, DegreeProfile("biregular", 4, 3), 2)
    assert expected_stats(FamilySpec("G", 3)) == FamilyStats(
        24, 84, DegreeProfile("regular", 7, 7), 4)
    assert expected_stats(FamilySpec("H", 3)) == FamilyStats(
        24, 77, DegreeProfile("minmax", 7, 6), 4)
    assert expected_stats(FamilySpec("F", 5)) == FamilyStats(
        18, 90, DegreeProfile("regular", 10, 10), 2)


def test_degree_profile_describe():
    assert DegreeProfile("regular", 7, 7).describe() == "regular(7)"
    assert DegreeProfile("biregular", 4, 3).describe() == "biregular(4,3)"
    assert DegreeProfile("minmax", 7, 6).describe() == "minmax(7,6)"


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}{s.r}")
def test_family_matches_expected_stats(spec):
    g = build_family(spec)
    stats = expected_stats(spec)
    assert g.n == stats.vertex_count
    assert g.weighted_edge_count() == stats.weighted_edge_count
    assert degree_profile(g) == stats.degree_profile
    assert len(g.components(range(g.n))) == 1
    assert len(g.labeled_vertices()) == g.n  # every vertex carries a label


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}{s.r}")
def test_family_deficiency(spec):
    assert analyze(build_family(spec)).deficiency == expected_stats(spec).expected_deficiency


def test_B_layout():
    g = build_B(2)
    # pair vertices first, lexicographic
    assert [g.label(v) for v in (0, 1, 5)] == [Pair(1, 2), Pair(1, 3), Pair(3, 4)]
    # copy vertices in (i, k) order
    assert [g.label(v) for v in (6, 7, 8, 13)] == [Copy(1, 1), Copy(2, 1), Copy(1, 2), Copy(2, 4)]
    # u(i,j) is joined to the copies of blocks i and j only, one edge each
    assert g.support_neighbors(0) == {6, 7, 8, 9}
    assert all(m == 1 for _, _, m in g.bundles())
    assert g.degree(0) == 4
    assert g.degree(6) == 3


def test_G_layout():
    g = build_G(3)
    assert [g.label(v) for v in (0, 1, 2)] == [Hub("x"), Hub("y"), Hub("z")]
    assert [g.label(v) for v in (3, 5, 6)] == [Copy(1, 1), Copy(3, 1), Copy(1, 2)]
    # triangle side bundles all have multiplicity r
    assert [bundle_map(g)[e] for e in ((3, 4), (4, 5), (3, 5))] == [3, 3, 3]
    # hub x sees v1 of each of the 2r+1 = 7 blocks
    assert g.support_neighbors(0) == {3 + 3 * i for i in range(7)}
    assert g.support_neighbors(1) == {4 + 3 * i for i in range(7)}
    assert g.support_neighbors(2) == {5 + 3 * i for i in range(7)}
    assert g.degree(0) == 7 and g.degree(3) == 7


def test_H_layout():
    g = build_H(3)
    # identical to G(3) except one parallel edge dropped from each (v3, v1)
    assert [bundle_map(g)[e] for e in ((3, 4), (4, 5), (3, 5))] == [3, 3, 2]
    assert g.degree(0) == 7  # hubs keep degree 2r+1
    assert g.degree(4) == 7  # v2 keeps degree 2r+1
    assert g.degree(3) == 6 and g.degree(5) == 6  # v1, v3 drop to 2r
    # support graph unchanged: same adjacency as G(3)
    assert bundle_map(g).keys() == bundle_map(build_G(3)).keys()
    assert g.labeled_vertices() == build_G(3).labeled_vertices()


def test_F_layout():
    g = build_F(5)
    assert g.n == 18  # r = 5 blocks, not 2r+1
    assert [bundle_map(g)[e] for e in ((3, 4), (4, 5), (3, 5))] == [4, 4, 4]
    # each hub touches two corners of every triangle
    assert g.support_neighbors(3) == {0, 1, 4, 5}  # v1: x, y
    assert g.support_neighbors(4) == {0, 2, 3, 5}  # v2: x, z
    assert g.support_neighbors(5) == {1, 2, 3, 4}  # v3: y, z
    assert g.degree(0) == 10 and g.degree(3) == 10


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}{s.r}")
def test_family_build_deterministic(spec):
    a, b = build_family(spec), build_family(spec)
    assert a == b
    assert serialize_mgf(a) == serialize_mgf(b)


def test_build_family_dispatch():
    assert build_family(FamilySpec("B", 2)) == build_B(2)
    assert build_family(FamilySpec("G", 3)) == build_G(3)
    assert build_family(FamilySpec("H", 3)) == build_H(3)
    assert build_family(FamilySpec("F", 5)) == build_F(5)
