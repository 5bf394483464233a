"""Counterexample family constructions B, G, H and F.

Each builder returns a labeled Multigraph, built in one constructor call,
with a documented vertex id layout, so graphs serialize identically across
runs and vertices can be addressed symbolically through their labels.

Family overview (r is the size parameter):

* B(r), r >= 2: simple bipartite (2r, 2r-1)-biregular graph on pair
  vertices u(i,j), 1 <= i < j <= 2r, and copy vertices v_k^(i), 1 <= k <= r,
  1 <= i <= 2r.  Every maximum matching saturates the pair side and leaves
  r copy vertices exposed, any two of which share a neighbor.
* G(r), r >= 3: (2r+1)-regular multigraph on hubs x, y, z and 2r+1
  triangles; hub k is joined to the k-th vertex of every triangle and each
  triangle side is a bundle of multiplicity r.  Deficiency 2r-2.
* H(r), r >= 3: G(r) with one parallel edge removed from each triangle's
  (v3, v1) bundle, giving maximum degree 2r+1 and minimum degree 2r.
* F(r), r >= 5: 2r-regular multigraph on hubs x, y, z and r triangles;
  x sees v1 and v2, y sees v1 and v3, z sees v2 and v3 of every triangle,
  and triangle sides are bundles of multiplicity r-1.  Deficiency r-3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import MGF_MAX_VERTICES, Copy, Hub, Multigraph, Pair

FAMILIES = ("B", "G", "H", "F")
_MIN_R = {"B": 2, "G": 3, "H": 3, "F": 5}


@dataclass(frozen=True)
class FamilySpec:
    """Family identifier plus size parameter, validated on construction: r is
    at least the family's minimum, and the graph fits in MGF_MAX_VERTICES."""

    family: str
    r: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.r < _MIN_R[self.family]:
            raise ValueError(
                f"family {self.family} requires r >= {_MIN_R[self.family]}, got {self.r}")
        n = expected_stats(self).vertex_count
        if n > MGF_MAX_VERTICES:
            raise ValueError(f"family {self.family} with r = {self.r} has {n} vertices, "
                             f"more than the {MGF_MAX_VERTICES} an MGF file may hold")


@dataclass(frozen=True)
class DegreeProfile:
    """Degree shape: regular(d), biregular(a, b) or minmax(hi, lo)."""

    kind: str  # "regular" | "biregular" | "minmax"
    a: int
    b: int

    def describe(self) -> str:
        if self.kind == "regular":
            return f"regular({self.a})"
        return f"{self.kind}({self.a},{self.b})"


@dataclass(frozen=True)
class FamilyStats:
    vertex_count: int
    weighted_edge_count: int
    degree_profile: DegreeProfile
    expected_deficiency: int


def expected_stats(spec: FamilySpec) -> FamilyStats:
    """Closed-form size, edge count, degree shape and deficiency."""
    r = spec.r
    if spec.family == "B":
        return FamilyStats(
            vertex_count=(2 * r * r - r) + 2 * r * r,
            weighted_edge_count=2 * r * (2 * r * r - r),
            degree_profile=DegreeProfile("biregular", 2 * r, 2 * r - 1),
            expected_deficiency=r,
        )
    if spec.family == "G":
        return FamilyStats(
            vertex_count=6 * r + 6,
            weighted_edge_count=3 * (2 * r + 1) * (r + 1),
            degree_profile=DegreeProfile("regular", 2 * r + 1, 2 * r + 1),
            expected_deficiency=2 * r - 2,
        )
    if spec.family == "H":
        return FamilyStats(
            vertex_count=6 * r + 6,
            weighted_edge_count=3 * (2 * r + 1) * (r + 1) - (2 * r + 1),
            degree_profile=DegreeProfile("minmax", 2 * r + 1, 2 * r),
            expected_deficiency=2 * r - 2,
        )
    return FamilyStats(
        vertex_count=3 * r + 3,
        weighted_edge_count=3 * r * (r + 1),
        degree_profile=DegreeProfile("regular", 2 * r, 2 * r),
        expected_deficiency=r - 3,
    )


def build_B(r: int) -> Multigraph:
    """Bipartite (2r, 2r-1)-biregular graph, all multiplicities 1.

    Ids: pair vertices u(i,j) first, in lexicographic (i, j) order, then
    copy vertices v_k^(i) in (i, k) order.  u(i,j) is joined to v_k^(i)
    and v_k^(j) for every k.
    """
    spec = FamilySpec("B", r)
    pairs = [(i, j) for i in range(1, 2 * r + 1) for j in range(i + 1, 2 * r + 1)]
    n_pairs = len(pairs)

    def copy_id(i: int, k: int) -> int:
        return n_pairs + (i - 1) * r + (k - 1)

    labels = {u: Pair(i, j) for u, (i, j) in enumerate(pairs)}
    labels.update((copy_id(i, k), Copy(k, i))
                  for i in range(1, 2 * r + 1) for k in range(1, r + 1))
    bundles = {(u, copy_id(i, k)): 1
               for u, pair in enumerate(pairs) for i in pair for k in range(1, r + 1)}
    g = Multigraph(n_pairs + 2 * r * r, bundles, labels)
    assert g.n == expected_stats(spec).vertex_count
    return g


def _hub_triangle_graph(blocks: int, triangle_mult: tuple[int, int, int],
                        hub_edges: tuple[tuple[int, int], ...]) -> Multigraph:
    """Shared layout for G, H and F: hubs x=0, y=1, z=2, then triangle
    vertices grouped by block, v_k^(i) at id 3 + 3(i-1) + (k-1).

    `triangle_mult` gives the multiplicities of the (v1,v2), (v2,v3) and
    (v3,v1) bundles; `hub_edges` lists (hub id, k) attachments, one simple
    edge from the hub to v_k of every block.
    """
    labels = {hub_id: Hub(name) for hub_id, name in enumerate("xyz")}
    bundles = {}

    def vid(i: int, k: int) -> int:
        return 3 + 3 * (i - 1) + (k - 1)

    m12, m23, m31 = triangle_mult
    for i in range(1, blocks + 1):
        for k in (1, 2, 3):
            labels[vid(i, k)] = Copy(k, i)
        for hub_id, k in hub_edges:
            bundles[hub_id, vid(i, k)] = 1
        bundles[vid(i, 1), vid(i, 2)] = m12
        bundles[vid(i, 2), vid(i, 3)] = m23
        bundles[vid(i, 1), vid(i, 3)] = m31
    return Multigraph(3 + 3 * blocks, bundles, labels)


def build_G(r: int) -> Multigraph:
    """(2r+1)-regular multigraph: 2r+1 triangles with side bundles of
    multiplicity r, hub x joined to every v1, y to every v2, z to every v3."""
    FamilySpec("G", r)
    return _hub_triangle_graph(2 * r + 1, (r, r, r), ((0, 1), (1, 2), (2, 3)))


def build_H(r: int) -> Multigraph:
    """G(r) minus one parallel edge per triangle: the (v3, v1) bundle drops
    to multiplicity r-1, so degrees are 2r+1 at hubs and v2, 2r elsewhere."""
    FamilySpec("H", r)
    return _hub_triangle_graph(2 * r + 1, (r, r, r - 1), ((0, 1), (1, 2), (2, 3)))


def build_F(r: int) -> Multigraph:
    """2r-regular multigraph: r triangles with side bundles of multiplicity
    r-1; x joined to v1 and v2, y to v1 and v3, z to v2 and v3 of every
    triangle."""
    FamilySpec("F", r)
    return _hub_triangle_graph(
        r, (r - 1, r - 1, r - 1), ((0, 1), (0, 2), (1, 1), (1, 3), (2, 2), (2, 3)))


_BUILDERS = {"B": build_B, "G": build_G, "H": build_H, "F": build_F}


def build_family(spec: FamilySpec) -> Multigraph:
    return _BUILDERS[spec.family](spec.r)
