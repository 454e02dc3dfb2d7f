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
import operator
from dataclasses import dataclass, field

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


def _is_bijection(perm: dict[int, int], n: int) -> bool:
    """True iff ``perm`` maps 1..n one-to-one onto 1..n."""
    return sorted(perm) == list(range(1, n + 1)) and sorted(perm.values()) == list(range(1, n + 1))


def relabel(g: ColoredGraph, perm: dict[int, int]) -> ColoredGraph:
    """Apply the vertex bijection ``perm`` (old -> new) to ``g``."""
    if not _is_bijection(perm, g.n):
        raise ValidationError("relabeling is not a bijection of 1..n")
    new, old = [0] * (g.n + 1), [0] * (g.n + 1)
    for u, x in perm.items():
        new[u], old[x] = x, u
    return graph_from_matchings(g.n, *([new[m[u]] for u in old] for m in g.matchings))


def _maps_onto(g: ColoredGraph, h: ColoredGraph, perm: dict[int, int]) -> bool:
    """True iff ``relabel(g, perm) == h``, where a ``perm`` that is no
    bijection of 1..n maps nothing.  Checked edge by edge without building a
    graph: h[c][perm[u]] == perm[g[c][u]] for every color c and vertex u."""
    if g.n != h.n or not _is_bijection(perm, g.n):
        return False
    p = [0, *map(perm.__getitem__, range(1, g.n + 1))]
    return all([hc[x] for x in p] == [p[x] for x in gc] for gc, hc in zip(g.matchings, h.matchings))


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


def _cycle(a, b, v: int) -> list[int]:
    """The cycle of the neighbor rows ``a`` and ``b`` through v, listed from v,
    first step along ``a``."""
    cyc, u = [], v
    while True:
        w = a[u]
        cyc += (u, w)
        u = b[w]
        if u == v:
            return cyc


def bicolored_cycles(g: ColoredGraph, i: int, j: int) -> BicoloredCycles:
    """Orbits of the group generated by the color-i and color-j matchings."""
    if i == j or i not in COLORS or j not in COLORS:
        raise GemError(f"invalid color pair ({i}, {j})")
    mi, mj = g.matchings[i], g.matchings[j]
    seen = [False] * (g.n + 1)
    cycles = []
    for start in range(1, g.n + 1):
        if not seen[start]:
            cyc = _cycle(mi, mj, start)
            for v in cyc:
                seen[v] = True
            cycles.append(tuple(cyc))
    return BicoloredCycles((i, j), tuple(cycles))


def cycle_counts(g: ColoredGraph) -> dict[tuple[int, int], int]:
    """Number of bicolored cycles for each of the three color pairs."""
    return {(i, j): len(bicolored_cycles(g, i, j).cycles)
            for (i, j) in ((0, 1), (0, 2), (1, 2))}


def is_contracted(g: ColoredGraph) -> bool:
    """True iff every bicolored subgraph is a single Hamiltonian cycle."""
    m = g.matchings
    return all(len(_cycle(m[i], m[j], 1)) == g.n for (i, j) in ((0, 1), (0, 2), (1, 2)))


def _reach(g: ColoredGraph, start: int, seen: list[bool], blocked) -> list[int]:
    """Mark in ``seen`` and return the unmarked vertices reachable from ``start``,
    never leaving a vertex of ``blocked[c]`` along color c.  Unrolled over
    the three colours: certify rounds ran about 4% faster than with a loop
    over ``zip(g.matchings, blocked)`` (BENCH_20.json)."""
    m0, m1, m2 = g.matchings
    b0, b1, b2 = blocked
    seen[start] = True
    found = [start]
    for u in found:
        v = m0[u]
        if not seen[v] and u not in b0:
            seen[v] = True
            found.append(v)
        v = m1[u]
        if not seen[v] and u not in b1:
            seen[v] = True
            found.append(v)
        v = m2[u]
        if not seen[v] and u not in b2:
            seen[v] = True
            found.append(v)
    return found


def _components(g: ColoredGraph) -> list:
    """The vertex lists of g's components, each ascending, by least vertex.

    One walk of the {0,1}-cycle through vertex 1 settles a graph whose
    {0,1}-cycle is Hamiltonian, as in every contracted graph.  Otherwise
    each component is the ``_reach`` walk, blocking no edge, from the least
    vertex no earlier walk reached.
    """
    if len(_cycle(g.matchings[0], g.matchings[1], 1)) == g.n:
        return [range(1, g.n + 1)]
    seen = [False] * (g.n + 1)
    return [sorted(_reach(g, v, seen, ((), (), ()))) for v in range(1, g.n + 1) if not seen[v]]


def connected_components(g: ColoredGraph) -> list[frozenset[int]]:
    """Components of g, by least vertex."""
    return [frozenset(c) for c in _components(g)]


def is_connected(g: ColoredGraph) -> bool:
    return len(connected_components(g)) == 1


# ============================================================
# Bipartiteness
# ============================================================

@dataclass(frozen=True)
class Bipartition:
    """A 2-coloring of the vertices, normalized so vertex 1 is black."""

    blacks: frozenset[int]
    whites: frozenset[int]


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


# A walk from a root labels the root's component by first visit, taking
# each visited vertex's neighbours in colour order.  It is held as its visit
# order (order[i] is labelled i+1), a label list indexed by vertex (0 for
# unvisited, reused across walks and zeroed through the visit order) and its
# m0 row so far: entry i is the label of order[i]'s colour-0 neighbour,
# fixed as soon as order[i] is reached.  A root's encoding is (size, m0,
# m1, m2), the component's matchings in the new labels, each row listing
# new labels 1..size in order.  Encodings compare by size, then m0, then
# the m1 and m2 rows.


def _walk(m, lab, order, row0, stop=None) -> bool:
    """Step the walk until its m0 row has ``stop`` entries; False if it ends first."""
    m0, m1, m2 = m
    i, k = len(row0), len(order)
    while i < k and i != stop:
        u = order[i]
        i += 1
        v = m0[u]
        x = lab[v]
        if not x:
            k += 1
            x = lab[v] = k
            order.append(v)
        row0.append(x)
        v = m1[u]
        if not lab[v]:
            k += 1
            lab[v] = k
            order.append(v)
        v = m2[u]
        if not lab[v]:
            k += 1
            lab[v] = k
            order.append(v)
    return i == stop


def _race(m, lab, root: int, mb, order_b, lab_b, row0_b) -> tuple[int, list[int], int]:
    """Walk root (rows ``m``, labels ``lab``) against the partial walk
    (``order_b``, ``lab_b``, ``row0_b``) on rows ``mb``, comparing m0 rows
    entry by entry and extending the other walk one step at a time, only
    as far as the comparison reaches.

    Returns (sign, order, i): sign < 0 if root's m0 row is below the
    other's at entry i, > 0 if above, and 0 if the m0 rows and the sizes
    agree in full (i is then the size).  A walk that ends first is below;
    one that runs past the other's end is above.  A race that stops at
    entry i has taken root's steps before i and labelled order[i]'s
    colour-0 neighbour, so ``_walk`` resumes root's walk with row
    ``row0_b[:i]``.
    """
    m0, m1, m2 = m
    lab[root] = k = 1
    order = [root]
    known = len(row0_b)
    for i, u in enumerate(order):
        if i < known:
            y = row0_b[i]
        elif _walk(mb, lab_b, order_b, row0_b, i + 1):
            y = row0_b[i]
            known += 1
        else:
            return 1, order, i
        v = m0[u]
        x = lab[v]
        if not x:
            k += 1
            x = lab[v] = k
            order.append(v)
        if x != y:
            return x - y, order, i
        v = m1[u]
        if not lab[v]:
            k += 1
            lab[v] = k
            order.append(v)
        v = m2[u]
        if not lab[v]:
            k += 1
            lab[v] = k
            order.append(v)
    return (0 if len(order_b) == k else -1), order, k


def _rows(m, lab, order) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The m1 and m2 rows of a finished walk."""
    m1, m2 = m[1], m[2]
    return tuple([lab[m1[u]] for u in order]), tuple([lab[m2[u]] for u in order])


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _join(parent: list[int], order_a, order_b) -> None:
    """Merge the orbits of the automorphism order_a[k] -> order_b[k] in the
    union-find ``parent``, which roots every class at its least vertex."""
    for a, b in zip(order_a, order_b):
        a, b = _find(parent, a), _find(parent, b)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b


def _least_roots(m, comp):
    """The roots of the ascending component ``comp`` whose m0 entries 2 and
    3, read off each root's neighbourhood, are least; all of comp if it has
    a parallel edge.  Entry 3 is read only where entry 2 ties the least.

    Entries 0 and 1 are 2 and 1 from every root.  In a simple graph the walk
    from r labels r, a = m0[r], b = m1[r] and c = m2[r] as 1..4, then
    d = m1[a], which is c or new, and e = m2[a], which is b or new.  Entry 2
    is the label of f = m0[b]: c, d, e or new.  The walk then labels
    h = m2[b], which is a exactly when e is b, else d or new (m2[e] = a), and
    entry 3 is the label of p = m0[c].  As m0 pairs r with a and b with f, p
    is b exactly when f = c, and otherwise d, e, h or new, never a new f.
    """
    m0, m1, m2 = m
    low, least = 8, []  # entry 2 is at most 7
    for r in comp:
        a, b, c = m0[r], m1[r], m2[r]
        if a == b or a == c or b == c:
            return comp
        f = m0[b]
        if f == c:
            x = 4
        elif low == 4:  # 4 is the least an entry 2 can be
            continue
        else:  # d's label if f is d, else the one after d (or c) and a new e
            d, e = m1[a], m2[a]
            x = 5 if f == d else (5 if d == c else 6) + (e != b and f != e)
        if x < low:
            low, least = x, [r]
        elif x == low:
            least.append(r)
    if len(least) > 1:
        entry3 = [_m0_entry3(m, r) for r in least]
        low = min(entry3)
        least = [r for r, x in zip(least, entry3) if x == low]
    return least


def _m0_entry3(m, r: int) -> int:
    """Entry 3 of r's m0 row in a simple graph, by ``_least_roots``' rule."""
    m0, m1, m2 = m
    a, b, c = m0[r], m1[r], m2[r]
    f = m0[b]
    if f == c:
        return 3
    d, e, h, p = m1[a], m2[a], m2[b], m0[c]
    x = 5  # the next new label
    if d != c:
        if p == d:
            return x
        x += 1
    if e != b:
        if p == e:
            return x
        x += 1
    x += f != d and f != e  # a new f, which p never is
    return x + (h != a and h != d and p != h)


def canonical_graph(g: ColoredGraph) -> ColoredGraph:
    """The lexicographically least relabeling of g (see ``_canonical_rows``)."""
    return graph_from_matchings(g.n, *((0, *row) for row in _canonical_rows(g)))


def _canonical_rows(g: ColoredGraph) -> tuple:
    """The rows m0, m1, m2 of g's lexicographically least relabeling, each
    listing the new labels 1..n in order (no slot 0).

    Per connected component, the least encoding over all roots is kept;
    components are then sorted and concatenated.  This is a canonical
    labeling, so equality of canonical graphs is exactly isomorphism.

    Only the roots that ``_least_roots`` keeps are walked, since any other
    is above them at m0 entry 2 or 3.  The least walk so far starts at the
    first of them and is kept partial.  Each later root races it entry by
    entry along the m0 rows, and the least walk is extended only when the
    race reaches past its known prefix.  A root stops at its first
    differing entry: above, it is dropped; below, its walk, stopped there,
    becomes the least one.  The m1 and m2 rows are built only when two m0
    rows tie in full, and for the final least walk.  A full tie of all
    three rows means that zipping the two visit orders is an automorphism;
    a union-find over these automorphisms skips every root whose orbit
    already holds a scanned root, since roots in one orbit have equal
    encodings.  The minimum of a set does not depend on scan order or on
    how far a losing root is walked, so the result is the one a full walk
    from every root would give.
    """
    m = g.matchings
    lab, spare = [0] * (g.n + 1), [0] * (g.n + 1)
    parent = None  # parent[v] < v once v's orbit holds a lesser vertex
    least = []
    for comp in _components(g):
        roots = _least_roots(m, comp)
        order, row0, rows = [roots[0]], [], None
        lab[roots[0]] = 1
        for root in roots[1:]:
            if parent and parent[root] != root:
                continue
            sign, cur, i = _race(m, spare, root, m, order, lab, row0)
            if not sign:
                rows = rows or _rows(m, lab, order)
                cur_rows = _rows(m, spare, cur)
                if cur_rows == rows:
                    parent = parent or list(range(g.n + 1))
                    _join(parent, order, cur)
                elif cur_rows < rows:
                    sign, rows = -1, cur_rows
            if sign < 0:  # root's walk becomes the least one
                for v in order:
                    lab[v] = 0
                lab, spare, order = spare, lab, cur
                if i < len(row0):  # won at m0 entry i: keep the shared prefix
                    del row0[i:]
                    rows = None
            else:
                for v in cur:
                    spare[v] = 0
        _walk(m, lab, order, row0)
        least.append((len(order), row0, *(rows or _rows(m, lab, order))))
        for v in order:
            lab[v] = 0
    if len(least) == 1:
        return least[0][1:]
    rows: list[list[int]] = [[], [], []]
    offset = 0
    for (k, *enc_rows) in sorted(least):
        for row, enc in zip(rows, enc_rows):
            row.extend([offset + x for x in enc] if offset else enc)
        offset += k
    return tuple(rows)


def are_isomorphic(g: ColoredGraph, h: ColoredGraph) -> dict[int, int] | None:
    """A color-preserving vertex bijection g -> h, or None.

    With colors fixed, root -> dst extends to an isomorphism of their
    components exactly when both encodings are equal, and it is then the
    zip of the two visit orders.  Components of g, by least vertex, each
    take the least unused such dst (greedy matching is safe: isomorphism
    classes partition the components).  Each candidate races root's walk
    as ``canonical_graph``'s roots do, and any difference drops it, so the
    witness is the one a full walk from every candidate would give.
    """
    if g.n != h.n:
        return None
    lab_g, lab_h = [0] * (g.n + 1), [0] * (h.n + 1)
    mapping: dict[int, int] = {}
    used = [False] * (h.n + 1)
    for root in range(1, g.n + 1):
        if root in mapping:
            continue
        order, row0, rows = [root], [], None
        lab_g[root] = 1
        for dst in range(1, h.n + 1):
            if used[dst]:
                continue
            sign, image, _ = _race(h.matchings, lab_h, dst, g.matchings, order, lab_g, row0)
            if not sign:
                rows = rows or _rows(g.matchings, lab_g, order)
            found = not sign and _rows(h.matchings, lab_h, image) == rows
            for v in image:
                lab_h[v] = 0
            if found:
                break
        else:
            return None
        for v in order:
            lab_g[v] = 0
        mapping.update(zip(order, image))
        for v in image:
            used[v] = True
    return mapping


# ============================================================
# Connected sums and seams
# ============================================================


def renumbering(n: int, removed) -> list[int]:
    """Order-preserving renumbering of {1..n} minus ``removed`` onto 1..n-len(removed).

    Returns an index map: entry v is v's new number, 0 for a removed v, and
    entry 0 is 0, so a neighbor row maps entry by entry.  ``removed`` holds
    vertices of 1..n.
    """
    keep = [0] + [1] * n
    for v in removed:
        keep[v] = 0
    return list(map(operator.mul, itertools.accumulate(keep), keep))


def connected_sum(g1: ColoredGraph, v1: int, g2: ColoredGraph, v2: int) -> ColoredGraph:
    """Delete v1 from g1 and v2 from g2 and weld the dangling ends color by color.

    Vertices of g1 except v1 keep their order (renumbered 1..n1-1), g2's
    follow.  Any two vertices are welded: no type rule is checked here.
    """
    if not 1 <= v1 <= g1.n:
        raise GemError(f"vertex {v1} not in first summand")
    if not 1 <= v2 <= g2.n:
        raise GemError(f"vertex {v2} not in second summand")
    r1 = renumbering(g1.n, (v1,))
    r2 = [x and x + g1.n - 1 for x in renumbering(g2.n, (v2,))]
    rows = []
    for m1, m2 in zip(g1.matchings, g2.matchings):
        # g2's vertex u sits at g1.n + u before the two deleted slots go.
        row = [r1[x] for x in m1] + [r2[x] for x in m2[1:]]
        del row[g1.n + v2], row[v1]
        a, b = r1[m1[v1]], r2[m2[v2]]
        row[a], row[b] = b, a
        rows.append(row)
    return graph_from_matchings(g1.n + g2.n - 2, *rows)


@dataclass(frozen=True)
class Seam:
    """A triple of edges, one per color, whose removal disconnects the graph.

    ``edges[c]`` is the color-c seam edge as (u, v) with u < v.  ``side_a``
    is the side containing vertex 1.  A seam is proper when both sides
    have at least two vertices; the edge triple at a single vertex is the
    trivial seam exhibiting the graph as a sum with the 2-vertex graph.

    ``graph`` is the graph the seam was derived from, set only by the seam
    derivations of this module; a hand-built seam, or a
    ``dataclasses.replace`` copy, has None and is checked again before use.
    """

    edges: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    side_a: frozenset[int]
    side_b: frozenset[int]
    proper: bool
    graph: ColoredGraph | None = field(default=None, init=False, compare=False, repr=False)


def _seam_from_triple(g: ColoredGraph, triple) -> Seam | None:
    """The seam on the edge triple (``triple[c]`` of color c), or None: side A is
    the walk from vertex 1 that takes no triple edge, side B the walk from the
    least vertex outside A, and they must cover g with each entry joining them."""
    # The ends of each entry are read once.  An entry that is reversed or is
    # no edge of its color names nothing and blocks nothing.
    blocked = [(), (), ()]
    for c, (u, v) in enumerate(triple):
        if 1 <= u < v <= g.n and g.matchings[c][u] == v:
            blocked[c] = (u, v)
    seen = [False] * (g.n + 1)
    a = frozenset(_reach(g, 1, seen, blocked))
    if len(a) == g.n or any((u in a) == (v in a) for (u, v) in triple):
        return None
    b = frozenset(_reach(g, seen.index(False, 1), seen, blocked))
    if len(a) + len(b) != g.n:
        return None
    if len(a) == 1 and len(b) == 1:
        # Degenerate 2-vertex case: both summands would be forced to the
        # 2-vertex graph with the seam using all three edges; not a seam.
        return None
    seam = Seam(tuple(triple), a, b, proper=len(a) >= 2 and len(b) >= 2)
    object.__setattr__(seam, "graph", g)
    return seam


def find_seams(g: ColoredGraph) -> list[Seam]:
    """All seams of a connected graph, by brute force over (n/2)^3 triples.

    Part of the law-check API, with ``moves.enumerate_cut_specs`` and
    ``moves.enumerate_glue_specs``: exhaustive enumerators for checking a
    law of the calculus on every seam or move of a small graph.  Nothing in
    ``reduce`` or ``verify`` calls them; those derive each seam they need
    from a side or an edge triple.
    """
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
    inside = side
    if min(side, default=1) < 1 or max(side, default=1) > g.n:
        inside = side.intersection(range(1, g.n + 1))
    ends = [[u for u in inside if m[u] not in inside] for m in g.matchings]
    for c, crossing in enumerate(ends):
        if len(crossing) > 1:
            raise SeamError(f"more than one color-{c} edge crosses the side")
    if not all(ends):
        raise SeamError("side is not separated by one edge per color")
    triple = tuple((min(u, m[u]), max(u, m[u])) for [u], m in zip(ends, g.matchings))
    s = _seam_from_triple(g, triple)
    if s is None or side not in (s.side_a, s.side_b):
        raise SeamError("edge triple does not disconnect the graph along the given side")
    return s


def extract_summands(g: ColoredGraph, s: Seam) -> tuple[ColoredGraph, int, ColoredGraph, int]:
    """Invert a connected sum at a seam.

    Returns (G1, u, G2, v): G1 is side A plus a fresh apex u closing the
    three dangling ends (likewise G2/v for side B), renumbered so side
    vertices keep their order and the apex comes last.  Then
    ``connected_sum(G1, u, G2, v)`` is isomorphic to g.  A seam derived
    from g itself is used as it is; any other is re-derived from its edge
    triple first.
    """
    if s.graph is not g:
        check = _seam_from_triple(g, s.edges)
        if check is None or {check.side_a, check.side_b} != {s.side_a, s.side_b}:
            raise SeamError("not a seam of this graph")

    def build(other_side: frozenset[int]) -> tuple[ColoredGraph, int]:
        order = renumbering(g.n, other_side)
        apex = g.n - len(other_side) + 1
        rows = []
        for (u, v), m in zip(s.edges, g.matchings):
            # The seam edge's kept end points across the seam (0) until welded to the apex.
            end = order[u] or order[v]
            row = [0, *itertools.compress(map(order.__getitem__, m), order), end]
            row[end] = apex
            rows.append(row)
        return graph_from_matchings(apex, *rows), apex

    g1, u = build(s.side_b)
    g2, v = build(s.side_a)
    return g1, u, g2, v
