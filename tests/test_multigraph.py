"""Multigraph container, labels, the degree shape `info` prints, MGF and DOT."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import sys
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchex import (
    Copy,
    Hub,
    MGFParseError,
    Multigraph,
    Pair,
    Plain,
    analyze,
    build_B,
    build_H,
    derive_item_seed,
    export_dot,
    parse_mgf,
    serialize_mgf,
)
from matchex.cli import main
from matchex.multigraph import _check_bundle

from conftest import (
    CORPUS_SEED,
    bundle_map,
    complete_graph,
    cycle_graph,
    disjoint_triangles,
    graph_from_edges,
    path_graph,
    petersen_graph,
    random_graph_corpus,
    random_multigraph,
    random_subcubic_connected,
    small_multigraphs,
    star_graph,
)

# ---------------------------------------------------------------- labels


def test_label_str_forms():
    assert str(Hub("x")) == "x"
    assert str(Pair(1, 3)) == "u(1,3)"
    assert str(Copy(2, 5)) == "v2^(5)"
    assert str(Plain(7)) == "7"


def test_label_validation():
    with pytest.raises(ValueError):
        Hub("w")
    with pytest.raises(ValueError):
        Pair(2, 2)
    with pytest.raises(ValueError):
        Pair(3, 1)
    with pytest.raises(ValueError):
        Pair(0, 1)
    with pytest.raises(ValueError):
        Copy(0, 1)
    with pytest.raises(ValueError):
        Copy(1, 0)


def test_plain_labels_are_implicit():
    g = Multigraph(2, labels={0: Plain(0)})  # the default, not stored
    assert g.labeled_vertices() == []
    assert g == Multigraph(2)
    assert g.label(1) == Plain(1)
    with pytest.raises(ValueError):
        Multigraph(2, labels={0: Plain(1)})


def test_plain_lookup_blocked_by_explicit_label():
    g = Multigraph(2, labels={0: Hub("z")})
    assert g.label(0) == Hub("z")
    assert g.labeled_vertices() == [(0, Hub("z"))]


# ------------------------------------------------------------ construction


def test_construction_errors():
    with pytest.raises(ValueError):
        Multigraph(-1)
    # bad bundle values: test_from_bundles_rejects_bad_bundle
    for bundles, labels in [
        ({(True, 2): 1}, {}),  # bools are not vertex ids
        ({}, {3: Hub("x")}),
        ({}, {-1: Hub("x")}),
        ({}, {True: Hub("x")}),
        ({}, {0: Hub("x"), 1: Hub("x")}),  # labels are injective
    ]:
        with pytest.raises(ValueError):
            Multigraph(3, bundles, labels)


@pytest.mark.parametrize(
    "bad",
    [((1, 1), 1), ((0, 3), 1), ((-1, 1), 1), ((2, 1), 1), ((0, 1), 0), ((0, 1), -2)],
    ids=["loop", "out-of-range", "negative", "unordered", "multiplicity-0",
         "multiplicity-negative"],
)
def test_from_bundles_rejects_bad_bundle(bad):
    # the constructor rejects a bad bundle next to a good one
    with pytest.raises(ValueError):
        Multigraph(3, {(0, 2): 1, bad[0]: bad[1]})


def _verdict(check, *args):
    """None when check(*args) returns, else the type and message it raised."""
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@st.composite
def _bundle_args(draw):
    """(n, u, v, m) for one bundle: mostly ints about [0, n), some of them
    negative or out of range, and bools, floats and strings; half the
    draws take u < v from [0, n)."""
    n = draw(st.integers(0, 10))

    def value(lo: int, hi: int):
        kind = draw(st.sampled_from(["int"] * 6 + ["bool", "float", "str"]))
        if kind == "int":
            return draw(st.integers(lo, hi))
        if kind == "bool":
            return draw(st.booleans())
        if kind == "float":
            return draw(st.floats(lo, hi))
        return draw(st.text(max_size=2))

    if n >= 2 and draw(st.booleans()):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
    else:
        u, v = value(-1, n), value(-1, n)
    return n, u, v, value(-2, 3)


@given(_bundle_args())
@settings(max_examples=500)
def test_property_constructor_checks_bundles_as_check_bundle(args):
    n, u, v, m = args
    # the constructor's inline test sends every bundle it does not pass to
    # _check_bundle: the same bundles are accepted, and the rest raise the
    # same exception with the same message
    want = _verdict(_check_bundle, u, v, m, n)
    assert _verdict(Multigraph, n, {(u, v): m}) == want
    if want is None:
        g = Multigraph(n, {(u, v): m})
        assert list(g.bundles()) == [(u, v, m)]


def test_degree_queries():
    g = Multigraph(4, {(0, 1): 3, (0, 2): 1})
    assert g.degree(0) == 4
    assert g.degree(3) == 0
    assert g.support_neighbors(0) == {1, 2}
    assert g.weighted_edge_count() == 4
    assert g.support_edge_count() == 2


def test_common_neighbors():
    g = star_graph(3)
    assert g.support_neighbors(1) & g.support_neighbors(2) == {0}
    assert g.support_neighbors(0) & g.support_neighbors(1) == set()


def test_bundles_sorted():
    g = Multigraph(4, {(2, 3): 1, (0, 3): 2, (0, 1): 1})
    assert list(g.bundles()) == [(0, 1, 1), (0, 3, 2), (2, 3, 1)]


def test_components_and_connectivity():
    g = Multigraph(5, {(0, 2): 1, (1, 3): 1})
    assert g.components(range(5)) == [[0, 2], [1, 3], [4]]
    assert g.components({0, 1, 4}) == [[0], [1], [4]]
    assert path_graph(4).components(range(4)) == [[0, 1, 2, 3]]
    assert path_graph(4).components({0, 1, 3}) == [[0, 1], [3]]
    assert Multigraph(0).components([]) == []
    with pytest.raises(ValueError):
        g.components([5])


def _assert_components_match_networkx(g: Multigraph) -> None:
    # all of V, V - A (the Tutte-Berge witness) and D (the Gallai-Edmonds side)
    ge = analyze(g).ge
    everything = set(range(g.n))
    for vertices in (everything, everything - ge.a, ge.d):
        h = nx.Graph()
        h.add_nodes_from(vertices)
        h.add_edges_from(e for e in bundle_map(g) if vertices.issuperset(e))
        expect = sorted(sorted(c) for c in nx.connected_components(h))
        assert g.components(vertices) == expect


def test_components_match_networkx_on_corpus():
    for g in random_graph_corpus(seed=CORPUS_SEED, count=500, max_n=12, max_support_edges=32):
        _assert_components_match_networkx(g)
    g = star_graph(3)  # g - A leaves three isolated vertices
    assert analyze(g).ge.a == {0}
    assert g.components({1, 2, 3}) == [[1], [2], [3]]
    _assert_components_match_networkx(g)


@given(small_multigraphs())
def test_property_components_match_networkx(g):
    _assert_components_match_networkx(g)


def test_equality_sensitive_to_structure_and_labels():
    a = Multigraph(2, {(0, 1): 1})
    assert a == Multigraph(2, {(0, 1): 1})
    assert a != Multigraph(2, {(0, 1): 1}, {0: Hub("x")})
    assert Multigraph(2) != Multigraph(3)
    assert Multigraph(2) != "not a graph"
    assert a != Multigraph(2, {(0, 1): 2})


def test_repr_mentions_counts():
    g = Multigraph(3, {(0, 1): 2})
    assert "n=3" in repr(g)
    assert "edges=2" in repr(g)


# ------------------------------------------------------------ degree shape


def info_degrees(g: Multigraph) -> str:
    """The `degrees=` field that `matchex info` prints for g."""
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(serialize_mgf(g))), \
            contextlib.redirect_stdout(out):
        assert main(["info"]) == 0
    field = next(f for f in out.getvalue().split() if f.startswith("degrees="))
    return field.removeprefix("degrees=")


def test_classify_path3():
    assert info_degrees(path_graph(3)) == "biregular(2,1)"


def test_classify_cycle4():
    assert info_degrees(cycle_graph(4)) == "regular(2)"


def test_classify_star():
    assert info_degrees(star_graph(3)) == "biregular(3,1)"


def test_classify_rejects_non_bipartite_and_degenerate():
    assert info_degrees(cycle_graph(3)) == "regular(2)"
    assert info_degrees(cycle_graph(5)) == "regular(2)"
    assert info_degrees(complete_graph(4)) == "regular(3)"
    # K4 minus an edge: degrees 3 and 2, but the two degree-3 vertices meet
    k4_minus_edge = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert info_degrees(k4_minus_edge) == "irregular(max=3,min=2)"
    assert info_degrees(Multigraph(0)) == "empty"
    assert info_degrees(Multigraph(3)) == "regular(0)"


def test_classify_path4_nonuniform_sides():
    # degrees 1,2,2,1: the middle edge joins two degree-2 vertices
    assert info_degrees(path_graph(4)) == "irregular(max=2,min=1)"


def test_classify_counts_parallel_edges():
    assert info_degrees(Multigraph(2, {(0, 1): 3})) == "regular(3)"


def test_classify_family_B2():
    assert info_degrees(build_B(2)) == "biregular(4,3)"


def test_classify_family_H3():
    # H3 has degrees 7 and 6 only, yet is not bipartite
    assert info_degrees(build_H(3)) == "irregular(max=7,min=6)"


def test_classify_edge_plus_isolated_has_no_reading():
    # K2 + K1: the edge joins two degree-1 vertices, none of degree 0
    g = Multigraph(3, {(0, 1): 1})
    assert info_degrees(g) == "irregular(max=1,min=0)"


def _oracle_biregular_pairs(g: Multigraph) -> set[tuple[int, int]]:
    """All (a, b) readings (a >= b) reachable by exhaustively orienting
    component 2-colorings; empty when none exists."""
    if g.n == 0 or g.support_edge_count() == 0:
        return set()
    color = [-1] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        comp = [s]
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.support_neighbors(u):
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    comp.append(w)
                    stack.append(w)
                elif color[w] == color[u]:
                    return set()
        comps.append(comp)
    out: set[tuple[int, int]] = set()
    for bits in itertools.product((0, 1), repeat=len(comps)):
        side_a: set[int] = set()
        for flip, comp in zip(bits, comps):
            side_a.update(v for v in comp if color[v] ^ flip == 0)
        side_b = set(range(g.n)) - side_a
        if not side_a or not side_b:
            continue
        da = {g.degree(v) for v in side_a}
        db = {g.degree(v) for v in side_b}
        if len(da) == 1 and len(db) == 1:
            a, b = da.pop(), db.pop()
            out.add((max(a, b), min(a, b)))
    return out


def _assert_info_matches_oracle(g: Multigraph) -> None:
    # biregular(hi,lo) exactly when some 2-colouring has uniform sides hi != lo
    readings = {f"biregular({a},{b})" for a, b in _oracle_biregular_pairs(g) if a != b}
    shape = info_degrees(g)
    assert readings == ({shape} if shape.startswith("biregular(") else set()), shape


def _random_bipartite(rng: random.Random) -> Multigraph:
    p = rng.randint(1, 5)
    q = rng.randint(1, 5)
    return graph_from_edges(p + q, [(u, v, rng.randint(1, 2))
                                    for u in range(p) for v in range(p, p + q)
                                    if rng.random() < 0.5])


def test_classify_matches_exhaustive_oracle_on_corpus():
    # half arbitrary multigraphs, half bipartite-by-construction, 1000 total,
    # then the seed-88 corpus
    for i in range(1000):
        rng = random.Random(derive_item_seed(101, i))
        g = random_multigraph(rng, max_n=9) if i % 2 else _random_bipartite(rng)
        _assert_info_matches_oracle(g)
    for g in random_graph_corpus(seed=CORPUS_SEED, count=500, max_n=12, max_support_edges=32):
        _assert_info_matches_oracle(g)


@given(small_multigraphs())
def test_property_info_biregular_matches_oracle(g):
    _assert_info_matches_oracle(g)


# ------------------------------------------------------------------- MGF

SAMPLE_MGF = """\
mgf 4
# label 0 hub x
# label 2 pair 1 3
# label 3 copy 2 1
0 1 2
1 3 1
2 3 4
"""


def test_mgf_round_trip_sample():
    g = parse_mgf(SAMPLE_MGF)
    assert g.n == 4
    assert g.label(0) == Hub("x")
    assert g.label(1) == Plain(1)
    assert g.label(2) == Pair(1, 3)
    assert g.label(3) == Copy(2, 1)
    assert bundle_map(g)[2, 3] == 4
    assert serialize_mgf(g) == SAMPLE_MGF
    assert parse_mgf(serialize_mgf(g)) == g


def test_mgf_blank_lines_and_whitespace():
    text = "\nmgf 2\n\n  0 1 3  \n\n"
    g = parse_mgf(text)
    assert g.n == 2
    assert bundle_map(g) == {(0, 1): 3}


def test_mgf_vertex_only_graph():
    g = parse_mgf("mgf 5\n")
    assert g.n == 5
    assert g.support_edge_count() == 0
    assert serialize_mgf(g) == "mgf 5\n"


@pytest.mark.parametrize(
    "text, line_no, needle",
    [
        ("", 1, "empty input"),
        ("graph 3\n", 1, "header"),
        ("mgf\n", 1, "header"),
        ("mgf -2\n", 1, ">= 0"),
        ("mgf x\n", 1, "integer"),
        ("mgf 3\n0 1\n", 2, "bundle line"),
        ("mgf 3\n0 1 1 1\n", 2, "bundle line"),
        ("mgf 3\n1 1 1\n", 2, "loop"),
        ("mgf 3\n2 1 1\n", 2, "u < v"),
        ("mgf 3\n0 1 1\n0 1 2\n", 3, "duplicate bundle"),
        ("mgf 3\n0 1 0\n", 2, "multiplicity"),
        ("mgf 3\n0 5 1\n", 2, "out of range"),
        ("mgf 3\n4 5 1\n", 2, "vertex id 4"),
        ("mgf 3\n-1 1 1\n", 2, "vertex id -1"),
        ("mgf 3\n0 1 1\n0 1 0\n", 3, "duplicate bundle"),
        ("mgf 3\n0 q 1\n", 2, "integer"),
        ("mgf 3\n# comment here\n", 2, "directive"),
        ("mgf 3\n# label 0\n", 2, "too short"),
        ("mgf 3\n# label 0 hub\n", 2, "hub label"),
        ("mgf 3\n# label 0 hub w\n", 2, "hub name"),
        ("mgf 3\n# label 0 pair 2 2\n", 2, "1 <= i < j"),
        ("mgf 3\n# label 0 copy 0 1\n", 2, "k >= 1"),
        ("mgf 3\n# label 0 blob 1\n", 2, "unknown label kind"),
        ("mgf 3\n# label 9 hub x\n", 2, "out of range"),
        ("mgf 3\n# label 0 hub x\n# label 1 hub x\n", 3, "already used"),
        ("mgf 3\n0 1 1\n# label 0 hub x\n", 3, "label line after bundle"),
    ],
)
def test_mgf_parse_errors(text, line_no, needle):
    with pytest.raises(MGFParseError) as exc:
        parse_mgf(text)
    assert exc.value.line_no == line_no
    assert needle in str(exc.value)


def test_mgf_later_label_line_replaces_earlier():
    g = parse_mgf("mgf 2\n# label 0 hub x\n# label 0 hub y\n# label 1 hub x\n")
    assert g.labeled_vertices() == [(0, Hub("y")), (1, Hub("x"))]


_label_st = st.one_of(
    st.sampled_from([Hub("x"), Hub("y"), Hub("z")]),
    st.tuples(st.integers(1, 4), st.integers(1, 4))
    .filter(lambda t: t[0] < t[1])
    .map(lambda t: Pair(*t)),
    st.builds(Copy, st.integers(1, 3), st.integers(1, 5)),
)


@st.composite
def labeled_multigraphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    bundles = {}
    if pairs:
        bundles = {(u, v): draw(st.integers(1, 4))
                   for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))}
    labels = {}
    if n:
        kinds = draw(st.lists(_label_st, unique=True, max_size=min(n, 4)))
        ids = draw(
            st.lists(st.integers(0, n - 1), unique=True,
                     min_size=len(kinds), max_size=len(kinds))
        )
        labels = dict(zip(ids, kinds))
    return Multigraph(n, bundles, labels)


@given(labeled_multigraphs())
def test_mgf_round_trip_property(g):
    text = serialize_mgf(g)
    back = parse_mgf(text)
    assert back == g
    assert serialize_mgf(back) == text


@given(labeled_multigraphs())
def test_handshake_and_symmetry(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.weighted_edge_count()
    for v in range(g.n):
        for w in g.support_neighbors(v):
            assert v in g.support_neighbors(w)
        # degree reads v's side of each bundle, bundles() the lower end's
        assert g.degree(v) == sum(m for e, m in bundle_map(g).items() if v in e)


# ------------------------------------------------------------------- DOT


def _dot_text(g, highlight=()):
    out = io.StringIO()
    export_dot(g, out, highlight=highlight)
    return out.getvalue()


def test_export_dot_repeats_multiplicity():
    g = Multigraph(3, {(0, 1): 3, (1, 2): 1}, {0: Hub("x")})
    dot = _dot_text(g)
    assert dot.count("0 -- 1;") == 3
    assert dot.count("1 -- 2;") == 1
    assert 'label="x"' in dot
    assert "style=filled" not in dot


def test_export_dot_highlight():
    g = path_graph(3)
    dot = _dot_text(g, highlight=[0, 2])
    assert dot.count("style=filled") == 2
    out = io.StringIO()
    with pytest.raises(ValueError):
        export_dot(g, out, highlight=[5])
    assert out.getvalue() == ""  # rejected before anything is written


# ------------------------------------------------------------ test graphs

# sha256 of serialize_mgf over the shared test graphs: the acceptance corpus,
# the subcubic draws of criterion 10 (seed 1010) and the named small graphs.
# A builder or seed that changes changes it, and with it what the suite tests.
TEST_GRAPHS_SHA256 = "20fb5c39e4bb69a01dc8f7eabbd6b24bef213c3ef56964826328d7d65eaf03f7"


def test_shared_test_graphs_pinned():
    graphs = random_graph_corpus(seed=CORPUS_SEED, count=500, max_n=12, max_support_edges=32)
    graphs += [random_subcubic_connected(random.Random(derive_item_seed(1010, i)),
                                         n_min=4, n_max=12) for i in range(200)]
    for k in range(7):
        graphs += [path_graph(k), star_graph(k), complete_graph(k), disjoint_triangles(k)]
    graphs += [cycle_graph(k) for k in range(3, 9)]
    graphs.append(petersen_graph())
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(serialize_mgf(g).encode("utf-8"))
    assert digest.hexdigest() == TEST_GRAPHS_SHA256
