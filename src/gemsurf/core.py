"""Core data model: 3-regular edge-colored multigraphs and their structural predicates.

A graph is stored as three fixed-point-free involutions on the vertex set
{1..n}, one per color.  ``matchings[c][u]`` is the unique color-``c``
neighbor of ``u``.  Proper coloring and looplessness are structural:
every vertex has exactly one neighbor per color and never itself.

Every operation builds its result as three such rows and passes them to
``graph_from_matchings``, the one internal constructor.  ``validate`` is
the one checker of (color, u, v) edge records, for library callers and
file parsers alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

COLORS = (0, 1, 2)


class GemError(Exception):
    """Base error for this package."""


class ValidationError(GemError):
    """Raised when edge records do not form a valid colored graph."""


class SeamError(GemError):
    """Raised for invalid connected-sum witnesses."""


# ============================================================
# The graph value and its constructors
# ============================================================


@dataclass(frozen=True)
class ColoredGraph:
    """Immutable 3-regular colored multigraph on vertices 1..n.

    ``matchings`` holds three tuples of length n+1 (slot 0 unused); entry
    ``matchings[c][u]`` is the color-c neighbor of u.
    """

    n: int
    matchings: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        n = self.n
        if n < 2 or n % 2 != 0:
            raise ValidationError(f"vertex count must be a positive even integer, got {n}")
        for c in COLORS:
            m = self.matchings[c]
            if len(m) != n + 1:
                raise ValidationError(f"color {c} matching has wrong length")
            for u in range(1, n + 1):
                v = m[u]
                if not 1 <= v <= n:
                    raise ValidationError(f"color {c} image of vertex {u} out of range")
                if v == u:
                    raise ValidationError(f"loop of color {c} at vertex {u}")
                if m[v] != u:
                    raise ValidationError(f"color {c} matching is not an involution at vertex {u}")

    def neighbor(self, color: int, v: int) -> int:
        return self.matchings[color][v]

    def edges(self):
        """Yield every edge once as (color, u, v) with u < v, sorted."""
        for c in COLORS:
            m = self.matchings[c]
            for u in range(1, self.n + 1):
                if u < m[u]:
                    yield (c, u, m[u])

    def edges_of_color(self, color: int) -> list[tuple[int, int]]:
        m = self.matchings[color]
        return [(u, m[u]) for u in range(1, self.n + 1) if u < m[u]]

    def has_edge(self, color: int, u: int, v: int) -> bool:
        return 1 <= u <= self.n and self.matchings[color][u] == v

    def is_simple(self) -> bool:
        """True iff no two colors match the same vertex pair."""
        for u in range(1, self.n + 1):
            nbrs = [self.matchings[c][u] for c in COLORS]
            if len(set(nbrs)) != 3:
                return False
        return True


def graph_from_matchings(n: int, m0, m1, m2) -> ColoredGraph:
    """Build a graph from three neighbor rows of length n+1, slot 0 unused (validated)."""
    return ColoredGraph(n, (tuple(m0), tuple(m1), tuple(m2)))


def _copy_edges(rows: list[list[int]], g: ColoredGraph, new: dict[int, int]) -> None:
    """Write into ``rows`` every edge of g with both ends kept by ``new`` (old -> new)."""
    for m, row in zip(g.matchings, rows):
        for u, x in new.items():
            v = m[u]
            if v in new:
                row[x] = new[v]


def graph_from_pairs(n: int, pairs_by_color: tuple) -> ColoredGraph:
    """Build a graph from three lists of vertex pairs, one list per color."""
    return validate(n, ((c, u, v) for c in COLORS for (u, v) in pairs_by_color[c]))


def validate(n: int, edge_records) -> ColoredGraph:
    """Check (color, u, v) records and return the graph.

    This is the package's one checker of edge records; file parsers feed
    it their records one at a time, so the first faulty record raises.
    Errors: odd or non-positive vertex count, vertex index out of range,
    loop edge, color not in {0,1,2}, duplicate color at a vertex, missing
    color at a vertex.
    """
    if n < 2 or n % 2 != 0:
        raise ValidationError(f"vertex count must be a positive even integer, got {n}")
    rows = [[0] * (n + 1) for _ in COLORS]
    for (c, u, v) in edge_records:
        if c not in COLORS:
            raise ValidationError(f"invalid color {c} on edge {u}-{v}")
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise ValidationError(f"vertex index out of range on color-{c} edge {u}-{v}")
        if u == v:
            raise ValidationError(f"loop of color {c} at vertex {u}")
        row = rows[c]
        for w in (u, v):
            if row[w]:
                raise ValidationError(f"duplicate color {c} at vertex {w}")
        row[u] = v
        row[v] = u
    for c, row in zip(COLORS, rows):
        if 0 in row[1:]:
            raise ValidationError(f"missing color {c} at vertex {row.index(0, 1)}")
    return graph_from_matchings(n, *rows)


def relabel(g: ColoredGraph, perm: dict[int, int]) -> ColoredGraph:
    """Apply the vertex bijection ``perm`` (old -> new) to ``g``."""
    if sorted(perm) != list(range(1, g.n + 1)) or sorted(perm.values()) != list(range(1, g.n + 1)):
        raise ValidationError("relabeling is not a bijection of 1..n")
    rows = [[0] * (g.n + 1) for _ in COLORS]
    _copy_edges(rows, g, perm)
    return graph_from_matchings(g.n, *rows)


# ============================================================
# Bicolored cycles, contractedness, connectivity
# ============================================================


@dataclass(frozen=True)
class BicoloredCycles:
    """Cycle decomposition of the subgraph spanned by two colors.

    Cycles partition {1..n}; each is listed starting at its smallest
    vertex, first step along the first color, and cycles are sorted by
    smallest member.
    """

    colors: tuple[int, int]
    cycles: tuple[tuple[int, ...], ...]


def bicolored_cycles(g: ColoredGraph, i: int, j: int) -> BicoloredCycles:
    """Orbits of the group generated by the color-i and color-j matchings."""
    if i == j or i not in COLORS or j not in COLORS:
        raise GemError(f"invalid color pair ({i}, {j})")
    mi, mj = g.matchings[i], g.matchings[j]
    seen = [False] * (g.n + 1)
    cycles = []
    for start in range(1, g.n + 1):
        if seen[start]:
            continue
        cyc = []
        v, next_color = start, i
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = (mi if next_color == i else mj)[v]
            next_color = j if next_color == i else i
        cycles.append(tuple(cyc))
    return BicoloredCycles((i, j), tuple(cycles))


def cycle_counts(g: ColoredGraph) -> dict[tuple[int, int], int]:
    """Number of bicolored cycles for each of the three color pairs."""
    return {(i, j): len(bicolored_cycles(g, i, j).cycles)
            for (i, j) in ((0, 1), (0, 2), (1, 2))}


def is_contracted(g: ColoredGraph) -> bool:
    """True iff every bicolored subgraph is a single Hamiltonian cycle."""
    return all(k == 1 for k in cycle_counts(g).values())


def connected_components(g: ColoredGraph,
                         removed_edges: frozenset = frozenset()) -> list[frozenset[int]]:
    """Components of g, ignoring ``removed_edges``.

    ``removed_edges`` holds (color, u, v) triples with u < v.
    """
    seen: set[int] = set()
    comps = []
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for c in COLORS:
                v = g.matchings[c][u]
                e = (c, min(u, v), max(u, v))
                if e in removed_edges:
                    continue
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(frozenset(comp))
    return comps


def is_connected(g: ColoredGraph) -> bool:
    return len(connected_components(g)) == 1


# ============================================================
# Bipartiteness
# ============================================================

BLACK = "black"
WHITE = "white"


@dataclass(frozen=True)
class Bipartition:
    """A 2-coloring of the vertices, normalized so vertex 1 is black."""

    blacks: frozenset[int]
    whites: frozenset[int]

    def type_of(self, v: int) -> str:
        return BLACK if v in self.blacks else WHITE


def is_bipartite(g: ColoredGraph) -> Bipartition | None:
    """The normalized bipartition if one exists, else None.

    The input must be connected (the normalization anchors vertex 1).  One
    2-coloring walk from vertex 1 both finds an odd edge and checks that
    every vertex was reached.
    """
    side = [None] * (g.n + 1)
    side[1] = 0
    stack = [1]
    odd = False
    while stack:
        u = stack.pop()
        for c in COLORS:
            v = g.matchings[c][u]
            if side[v] is None:
                side[v] = 1 - side[u]
                stack.append(v)
            elif side[v] == side[u]:
                odd = True
    if None in side[1:]:
        raise GemError("bipartiteness is only defined here for connected graphs")
    if odd:
        return None
    blacks = frozenset(v for v in range(1, g.n + 1) if side[v] == 0)
    whites = frozenset(v for v in range(1, g.n + 1) if side[v] == 1)
    return Bipartition(blacks, whites)


# ============================================================
# Canonical labeling and isomorphism (colors fixed, never permuted)
# ============================================================


def _bfs_encoding(g: ColoredGraph, root: int, bound: tuple | None = None,
                  exact: bool = False) -> tuple[tuple, list[int]] | None:
    """Relabel root's component by first-visit order (neighbors in color order).

    Returns ((size, m0, m1, m2), order): the matchings restricted to the
    component in the new labels, each row listing new labels 1..size in
    order, and the visit order (order[i] is labeled i+1).

    With ``bound``, an encoding to compare against, the walk checks its m0
    row while it goes.  Entry i is the label of order[i]'s color-0
    neighbor, fixed as soon as order[i] is reached, so the walk returns
    None once its m0 prefix is above bound's, or, with ``exact``, once it
    differs from bound's.  Without ``exact``, bound must have the same size.
    """
    m0, m1, m2 = g.matchings
    label = {root: 1}
    order = [root]
    row0 = []
    ref = bound[1] if bound is not None else None
    size = len(ref) if ref is not None else 0
    for i, u in enumerate(order):
        v = m0[u]
        x = label.get(v)
        if x is None:
            x = label[v] = len(order) + 1
            order.append(v)
        if ref is not None:
            y = ref[i] if i < size else 0  # labels start at 1: past bound's end is above it
            if x != y:
                if exact or x > y:
                    return None
                ref = None  # below bound: the rest need not be compared
        row0.append(x)
        v = m1[u]
        if v not in label:
            label[v] = len(order) + 1
            order.append(v)
        v = m2[u]
        if v not in label:
            label[v] = len(order) + 1
            order.append(v)
    rows = (tuple(label[m1[u]] for u in order), tuple(label[m2[u]] for u in order))
    return (len(order), tuple(row0), *rows), order


def canonical_graph(g: ColoredGraph) -> ColoredGraph:
    """The lexicographically least relabeling of g.

    Per connected component, the encoding is taken from every vertex and
    the least kept; components are then sorted and concatenated.  This is
    a canonical labeling, so equality of canonical graphs is exactly
    isomorphism.

    Roots are scanned in ascending order, so the first root of each
    component is its least vertex, and that root's visit order is the
    component.  Every later root of the component is walked against the
    least encoding so far and dropped once its m0 prefix is larger.
    Encodings compare by size (equal within a component), then the m0, m1
    and m2 rows, so a dropped root's encoding is larger than the kept one
    and the minimum is the one a full scan would keep; the m1 and m2 rows
    decide only between roots whose m0 rows tie exactly.
    """
    first_of = [0] * (g.n + 1)
    least: dict[int, tuple] = {}
    for root in range(1, g.n + 1):
        first = first_of[root]
        if not first:
            least[root], comp = _bfs_encoding(g, root)
            for v in comp:
                first_of[v] = root
            continue
        found = _bfs_encoding(g, root, least[first])
        if found is not None and found[0] < least[first]:
            least[first] = found[0]
    rows: list[list[int]] = [[0], [0], [0]]
    offset = 0
    for (k, *enc_rows) in sorted(least.values()):
        for row, enc in zip(rows, enc_rows):
            row.extend(offset + x for x in enc)
        offset += k
    return graph_from_matchings(g.n, *rows)


def are_isomorphic(g: ColoredGraph, h: ColoredGraph) -> dict[int, int] | None:
    """A color-preserving vertex bijection g -> h, or None.

    With colors fixed, root -> dst extends to an isomorphism of their
    components exactly when both encodings are equal, and it is then the
    zip of the two visit orders.  Components of g, by least vertex, each
    take the least unused such dst (greedy matching is safe: isomorphism
    classes partition the components).  A candidate dst is dropped as soon
    as its m0 prefix differs from root's, which only skips unequal
    encodings, so the witness is the one a full scan would return.
    """
    if g.n != h.n:
        return None
    mapping: dict[int, int] = {}
    used: set[int] = set()
    for root in range(1, g.n + 1):
        if root in mapping:
            continue
        enc, order = _bfs_encoding(g, root)
        for dst in range(1, h.n + 1):
            if dst not in used:
                found = _bfs_encoding(h, dst, enc, exact=True)
                if found is not None and found[0] == enc:
                    break
        else:
            return None
        image = found[1]
        mapping.update(zip(order, image))
        used.update(image)
    return mapping


# ============================================================
# Connected sums and seams
# ============================================================


def renumbering(n: int, removed) -> dict[int, int]:
    """Order-preserving renumbering of {1..n} minus ``removed`` onto 1..n-len(removed)."""
    gone = set(removed)
    kept = [v for v in range(1, n + 1) if v not in gone]
    return {v: new for new, v in enumerate(kept, start=1)}


def connected_sum(g1: ColoredGraph, v1: int, g2: ColoredGraph, v2: int,
                  enforce_type_rule: bool = False) -> ColoredGraph:
    """Delete v1 from g1 and v2 from g2 and weld the dangling ends color by color.

    Vertices of g1 except v1 keep their order (renumbered 1..n1-1), g2's
    follow.  With ``enforce_type_rule`` and both graphs bipartite, v1 and
    v2 must be of different types under each graph's own normalization.
    """
    if not 1 <= v1 <= g1.n:
        raise GemError(f"vertex {v1} not in first summand")
    if not 1 <= v2 <= g2.n:
        raise GemError(f"vertex {v2} not in second summand")
    if enforce_type_rule:
        b1, b2 = is_bipartite(g1), is_bipartite(g2)
        if b1 is not None and b2 is not None and b1.type_of(v1) == b2.type_of(v2):
            raise GemError(
                f"type rule violated: vertices {v1} and {v2} are both {b1.type_of(v1)}")
    r1 = renumbering(g1.n, (v1,))
    r2 = {u: new + (g1.n - 1) for u, new in renumbering(g2.n, (v2,)).items()}
    n = g1.n + g2.n - 2
    rows = [[0] * (n + 1) for _ in COLORS]
    _copy_edges(rows, g1, r1)
    _copy_edges(rows, g2, r2)
    for c, row in zip(COLORS, rows):
        a = r1[g1.matchings[c][v1]]
        b = r2[g2.matchings[c][v2]]
        row[a] = b
        row[b] = a
    return graph_from_matchings(n, *rows)


@dataclass(frozen=True)
class Seam:
    """A triple of edges, one per color, whose removal disconnects the graph.

    ``edges[c]`` is the color-c seam edge as (u, v) with u < v.  ``side_a``
    is the side containing vertex 1.  A seam is proper when both sides
    have at least two vertices; the edge triple at a single vertex is the
    trivial seam exhibiting the graph as a sum with the 2-vertex graph.
    """

    edges: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    side_a: frozenset[int]
    side_b: frozenset[int]
    proper: bool


def _seam_from_triple(g: ColoredGraph, triple) -> Seam | None:
    removed = frozenset((c, u, v) for c, (u, v) in zip(COLORS, triple))
    comps = connected_components(g, removed_edges=removed)
    if len(comps) != 2:
        return None
    a, b = comps if 1 in comps[0] else (comps[1], comps[0])
    for (u, v) in triple:
        if not ((u in a) != (v in a)):
            return None
    if len(a) == 1 and len(b) == 1:
        # Degenerate 2-vertex case: both summands would be forced to the
        # 2-vertex graph with the seam using all three edges; not a seam.
        return None
    return Seam(tuple(triple), a, b, proper=len(a) >= 2 and len(b) >= 2)


def find_seams(g: ColoredGraph) -> list[Seam]:
    """All seams of a connected graph, by brute force over (n/2)^3 triples."""
    if not is_connected(g):
        raise GemError("seam search requires a connected graph")
    seams = []
    for triple in itertools.product(*(g.edges_of_color(c) for c in COLORS)):
        s = _seam_from_triple(g, triple)
        if s is not None:
            seams.append(s)
    return seams


def seam_from_side(g: ColoredGraph, side: frozenset[int]) -> Seam:
    """Build the seam separating ``side`` from its complement.

    Requires exactly three crossing edges, one per color, and both parts
    connected once the triple is removed.
    """
    crossing: dict[int, tuple[int, int]] = {}
    for (c, u, v) in g.edges():
        if (u in side) != (v in side):
            if c in crossing:
                raise SeamError(f"more than one color-{c} edge crosses the side")
            crossing[c] = (u, v)
    if sorted(crossing) != list(COLORS):
        raise SeamError("side is not separated by one edge per color")
    triple = tuple(crossing[c] for c in COLORS)
    s = _seam_from_triple(g, triple)
    if s is None or side not in (s.side_a, s.side_b):
        raise SeamError("edge triple does not disconnect the graph along the given side")
    return s


def extract_summands(g: ColoredGraph, s: Seam) -> tuple[ColoredGraph, int, ColoredGraph, int]:
    """Invert a connected sum at a seam.

    Returns (G1, u, G2, v): G1 is side A plus a fresh apex u closing the
    three dangling ends (likewise G2/v for side B), renumbered so side
    vertices keep their order and the apex comes last.  Then
    ``connected_sum(G1, u, G2, v)`` is isomorphic to g.
    """
    check = _seam_from_triple(g, s.edges)
    if check is None or {check.side_a, check.side_b} != {s.side_a, s.side_b}:
        raise SeamError("not a seam of this graph")

    def build(other_side: frozenset[int]) -> tuple[ColoredGraph, int]:
        order = renumbering(g.n, other_side)
        apex = len(order) + 1
        rows = [[0] * (apex + 1) for _ in COLORS]
        _copy_edges(rows, g, order)
        for (u, v), row in zip(s.edges, rows):
            end = order[u] if u in order else order[v]
            row[apex] = end
            row[end] = apex
        return graph_from_matchings(apex, *rows), apex

    g1, u = build(s.side_b)
    g2, v = build(s.side_a)
    return g1, u, g2, v
