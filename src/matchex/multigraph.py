"""Loop-free multigraph with integer-multiplicity edge bundles.

Vertices are dense 0-based ids.  Parallel edges between two vertices are
stored once, as an unordered bundle with a multiplicity count; adjacency
queries ("support" queries) ignore multiplicities.  A graph is built in
one validated constructor call, from a bundle map and a label map, and is
immutable from then on.

The module also owns the MGF text format (parse/serialize) and a DOT
export that repeats each bundle once per multiplicity unit, written to a
stream as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, TextIO, Union

HUB_NAMES = ("x", "y", "z")

# Largest vertex count an MGF header may declare.  The parsed graph holds
# one adjacency dict per vertex, bundles or not, so an unchecked header
# would let a one-line input allocate without bound.
MGF_MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class Hub:
    """Distinguished high-degree vertex, named x, y or z."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in HUB_NAMES:
            raise ValueError(f"hub name must be one of {HUB_NAMES}, got {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Pair:
    """Vertex indexed by an unordered pair (i, j) with 1 <= i < j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if not (1 <= self.i < self.j):
            raise ValueError(f"pair label needs 1 <= i < j, got ({self.i}, {self.j})")

    def __str__(self) -> str:
        return f"u({self.i},{self.j})"


@dataclass(frozen=True)
class Copy:
    """k-th copy vertex attached to block i (k >= 1, i >= 1)."""

    k: int
    i: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.i < 1:
            raise ValueError(f"copy label needs k >= 1 and i >= 1, got ({self.k}, {self.i})")

    def __str__(self) -> str:
        return f"v{self.k}^({self.i})"


@dataclass(frozen=True)
class Plain:
    """Default label: the vertex id itself."""

    index: int

    def __str__(self) -> str:
        return str(self.index)


VertexLabel = Union[Hub, Pair, Copy, Plain]


class MGFParseError(ValueError):
    """MGF text rejected; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_EMPTY: Mapping = MappingProxyType({})


def _check_vertex_id(v: int, n: int) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
        raise ValueError(f"vertex id {v} out of range [0, {n})")


def _check_bundle(u: int, v: int, m: int, n: int) -> None:
    """Reject (u, v) -> m as a bundle of a graph on n vertices unless
    0 <= u < v < n and m >= 1."""
    if u == v:
        raise ValueError(f"loop edge {u}-{v} not allowed")
    if u > v:
        raise ValueError(f"bundle must satisfy u < v, got {u} {v}")
    if u < 0 or v >= n or type(u) is not int or type(v) is not int:
        # the inline test spares two calls per bundle line in parse_mgf;
        # these name the end out of range, u first
        _check_vertex_id(u, n)
        _check_vertex_id(v, n)
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")


class Multigraph:
    """Undirected loop-free multigraph on vertices 0..n-1, immutable."""

    __slots__ = ("_n", "_adj", "_labels")

    def __init__(self, n: int, bundles: Mapping[tuple[int, int], int] = _EMPTY,
                 labels: Mapping[int, VertexLabel] = _EMPTY):
        """Graph with one bundle of multiplicity m per entry (u, v) -> m of
        `bundles` and the label `labels[v]` on each vertex v it names.

        Each bundle needs 0 <= u < v < n and m >= 1.  Labels must be
        injective and sit on vertex ids in range; Plain(v) is the default
        label of v, allowed only on v and not stored.
        """
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        self._n = n
        # neighbor -> bundle multiplicity, kept symmetric
        self._adj: list[dict[int, int]] = [{} for _ in range(n)]
        adj = self._adj
        for (u, v), m in bundles.items():
            # the inline test passes only bundles _check_bundle accepts and
            # cannot raise; the rest get its exact verdict and message
            if not (type(u) is int and type(v) is int and 0 <= u < v < n
                    and type(m) is int and m >= 1):
                _check_bundle(u, v, m, n)
            adj[u][v] = m
            adj[v][u] = m
        self._labels: dict[int, VertexLabel] = {}
        owner: dict[VertexLabel, int] = {}
        for v, label in labels.items():
            _check_vertex_id(v, n)
            if isinstance(label, Plain):
                if label.index != v:
                    raise ValueError(f"plain label {label.index} does not match vertex {v}")
                continue
            other = owner.setdefault(label, v)
            if other != v:
                raise ValueError(f"label {label} already used by vertex {other}")
            self._labels[v] = label

    def _check_vertex(self, v: int) -> None:
        _check_vertex_id(v, self._n)

    # -- basic queries -----------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    def degree(self, v: int) -> int:
        """Weighted degree: every parallel edge counts."""
        self._check_vertex(v)
        return sum(self._adj[v].values())

    def support_neighbors(self, v: int) -> set[int]:
        """Distinct neighbors of v, multiplicities ignored."""
        self._check_vertex(v)
        return set(self._adj[v])

    def support_adjacency(self) -> list[tuple[int, ...]]:
        """Distinct neighbors of every vertex, ascending, indexed by vertex."""
        return list(map(tuple, map(sorted, self._adj)))

    def bundles(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, multiplicity) with u < v, ascending."""
        for u in range(self._n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield u, v, self._adj[u][v]

    def support_edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def weighted_edge_count(self) -> int:
        return sum(sum(nbrs.values()) for nbrs in self._adj) // 2

    # -- labels --------------------------------------------------------

    def label(self, v: int) -> VertexLabel:
        self._check_vertex(v)
        return self._labels.get(v, Plain(v))

    def labeled_vertices(self) -> list[tuple[int, VertexLabel]]:
        """Explicitly labeled vertices only, ascending by id."""
        return sorted(self._labels.items())

    # -- structure -----------------------------------------------------

    def components(self, vertices: Iterable[int]) -> list[list[int]]:
        """Connected components of the support graph of g[vertices], each
        sorted, ordered by smallest member."""
        inside = [False] * self._n
        for v in vertices:
            self._check_vertex(v)
            inside[v] = True
        out: list[list[int]] = []
        for start in range(self._n):
            if not inside[start]:
                continue
            inside[start] = False
            comp = [start]
            stack = [start]
            while stack:
                for w in self._adj[stack.pop()]:
                    if inside[w]:
                        inside[w] = False
                        comp.append(w)
                        stack.append(w)
            out.append(sorted(comp))
        return out

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._adj == other._adj
            and self._labels == other._labels
        )

    def __repr__(self) -> str:
        return (
            f"Multigraph(n={self._n}, bundles={self.support_edge_count()}, "
            f"edges={self.weighted_edge_count()})"
        )


# -- MGF text format -------------------------------------------------------


def _format_label_line(v: int, label: VertexLabel) -> str:
    if isinstance(label, Hub):
        return f"# label {v} hub {label.name}"
    if isinstance(label, Pair):
        return f"# label {v} pair {label.i} {label.j}"
    if isinstance(label, Copy):
        return f"# label {v} copy {label.k} {label.i}"
    raise ValueError(f"label {label!r} has no MGF form")


def serialize_mgf(g: Multigraph) -> str:
    """Canonical MGF text: header, label lines by id, bundle lines ascending."""
    lines = [f"mgf {g.n}"]
    for v, label in g.labeled_vertices():
        lines.append(_format_label_line(v, label))
    for u, v, m in g.bundles():
        lines.append(f"{u} {v} {m}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MGFParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def _parse_label_tokens(tokens: list[str], line_no: int) -> tuple[int, VertexLabel]:
    # tokens: ["label", <id>, <kind>, ...]
    if len(tokens) < 3:
        raise MGFParseError(line_no, "label line too short")
    vid = _parse_int(tokens[1], line_no, "label vertex id")
    kind = tokens[2]
    try:
        if kind == "hub":
            if len(tokens) != 4:
                raise MGFParseError(line_no, "hub label needs exactly one name")
            return vid, Hub(tokens[3])
        if kind == "pair":
            if len(tokens) != 5:
                raise MGFParseError(line_no, "pair label needs two indices")
            return vid, Pair(_parse_int(tokens[3], line_no, "pair index"),
                             _parse_int(tokens[4], line_no, "pair index"))
        if kind == "copy":
            if len(tokens) != 5:
                raise MGFParseError(line_no, "copy label needs two indices")
            return vid, Copy(_parse_int(tokens[3], line_no, "copy index"),
                             _parse_int(tokens[4], line_no, "copy index"))
    except ValueError as exc:
        if isinstance(exc, MGFParseError):
            raise
        raise MGFParseError(line_no, str(exc)) from None
    raise MGFParseError(line_no, f"unknown label kind {kind!r}")


def parse_mgf(text: str) -> Multigraph:
    """Parse MGF text into a Multigraph.

    Grammar: line 1 is `mgf <n>` with 0 <= n <= MGF_MAX_VERTICES; optional
    `# label <id> ...` lines follow, a later one for the same id replacing
    the earlier; then one `<u> <v> <multiplicity>` line per bundle with
    u < v and each unordered pair appearing at most once.  Blank lines are
    ignored.  Errors carry the offending line number.
    """
    n: Optional[int] = None
    bundles: dict[tuple[int, int], int] = {}
    labels: dict[int, VertexLabel] = {}
    label_to_id: dict[VertexLabel, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "mgf" or len(tokens) != 2:
                raise MGFParseError(line_no, "expected header `mgf <n>`")
            n = _parse_int(tokens[1], line_no, "vertex count")
            if n < 0:
                raise MGFParseError(line_no, f"vertex count must be >= 0, got {n}")
            if n > MGF_MAX_VERTICES:
                raise MGFParseError(
                    line_no, f"vertex count must be <= {MGF_MAX_VERTICES}, got {n}")
            continue
        if tokens[0] == "#":
            if len(tokens) < 2 or tokens[1] != "label":
                raise MGFParseError(line_no, "unrecognized directive; only `# label ...` allowed")
            if bundles:
                raise MGFParseError(line_no, "label line after bundle data")
            vid, label = _parse_label_tokens(tokens[1:], line_no)
            try:
                _check_vertex_id(vid, n)
            except ValueError as exc:
                raise MGFParseError(line_no, str(exc)) from None
            other = label_to_id.get(label)
            if other is not None and other != vid:
                raise MGFParseError(line_no, f"label {label} already used by vertex {other}")
            label_to_id.pop(labels.get(vid), None)
            labels[vid] = label
            label_to_id[label] = vid
            continue
        if len(tokens) != 3:
            raise MGFParseError(line_no, "expected bundle line `<u> <v> <multiplicity>`")
        u = _parse_int(tokens[0], line_no, "vertex id")
        v = _parse_int(tokens[1], line_no, "vertex id")
        m = _parse_int(tokens[2], line_no, "multiplicity")
        if (u, v) in bundles:
            raise MGFParseError(line_no, f"duplicate bundle {u}-{v}")
        try:
            _check_bundle(u, v, m, n)
        except ValueError as exc:
            raise MGFParseError(line_no, str(exc)) from None
        bundles[u, v] = m
    if n is None:
        raise MGFParseError(1, "empty input, expected header `mgf <n>`")
    return Multigraph(n, bundles, labels)


# Edge lines of one bundle are written this many at a time, so the memory
# the DOT export holds stays bounded whatever the multiplicity.
_DOT_EDGE_CHUNK = 1024


def export_dot(g: Multigraph, out: TextIO, highlight: Iterable[int] = ()) -> None:
    """Write DOT text to `out`, with one edge repeated per multiplicity unit.

    Vertices in `highlight` are drawn filled; callers typically pass the
    exposed set of a maximum matching.  Lines are written as they are
    made, so memory does not grow with the multiplicities.
    """
    marked = set(highlight)
    for v in marked:
        g._check_vertex(v)
    out.write("graph multigraph {\n")
    for v in range(g.n):
        attrs = [f'label="{g.label(v)}"']
        if v in marked:
            attrs.append("style=filled")
            attrs.append("fillcolor=gray")
        out.write(f"  {v} [{', '.join(attrs)}];\n")
    for u, v, m in g.bundles():
        line = f"  {u} -- {v};\n"
        while m > 0:
            k = min(m, _DOT_EDGE_CHUNK)
            out.write(line * k)
            m -= k
    out.write("}\n")
