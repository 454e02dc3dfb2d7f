"""The move calculus: simple cut, simple glueing, cut-and-glue, interchange.

Also home of the canonical fingerprint (a full canonical labeling, not a
lossy hash, formatted from the rows behind ``core.canonical_graph``) and
of replayable, machine-verified move traces.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .core import (
    COLORS,
    ColoredGraph,
    GemError,
    Seam,
    _canonical_rows,
    _cycle,
    _seam_from_triple,
    bicolored_cycles,
    connected_sum,
    extract_summands,
    graph_from_matchings,
    is_bipartite,
    renumbering,
)


class MoveError(GemError):
    """Raised for illegal move parameters."""


class TraceError(GemError):
    """Raised when a trace fails to replay."""


def other_colors(c: int) -> tuple[int, int]:
    """The two colors other than c, in increasing order."""
    a, b = sorted(set(COLORS) - {c})
    return a, b


# ============================================================
# Move parameter records
# ============================================================


@dataclass(frozen=True)
class CutSpec:
    """Parameters of a simple cut with chosen color ``cut_color``.

    ``edge_a`` is an edge of color a and ``edge_b`` of color b, where
    (a, b) are the other two colors in increasing order; both must lie on
    one cycle of the {a,b}-subgraph.  The first fresh vertex z1 = n+1 is
    placed on the arc containing ``arc_vertex``; z2 = n+2 on the other.
    """

    cut_color: int
    edge_a: tuple[int, int]
    edge_b: tuple[int, int]
    arc_vertex: int


def cut_spec(cut_color: int, edge_a, edge_b, arc_vertex: int | None = None) -> CutSpec:
    """Normalize a CutSpec; default arc is the one holding edge_a's smaller end."""
    ea = tuple(sorted(edge_a))
    eb = tuple(sorted(edge_b))
    if arc_vertex is None:
        arc_vertex = ea[0]
    return CutSpec(cut_color, ea, eb, arc_vertex)


@dataclass(frozen=True)
class GlueSpec:
    """A simple glueing at ``pair`` = (w1, w2), joined by an edge of the cut color."""

    cut_color: int
    pair: tuple[int, int]


@dataclass(frozen=True)
class Cut:
    spec: CutSpec


@dataclass(frozen=True)
class Glue:
    spec: GlueSpec


@dataclass(frozen=True)
class CutGlue:
    cut: CutSpec
    glue: GlueSpec


@dataclass(frozen=True)
class Interchange:
    """Re-choose the welded pair of the connected-sum decomposition at a seam.

    ``seam_edges[c]`` is the color-c seam edge; ``u_new``/``v_new`` are
    vertices of the extracted summands (side A first, apex last).
    """

    seam_edges: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    u_new: int
    v_new: int


Move = Cut | Glue | CutGlue | Interchange


# ============================================================
# Simple cut
# ============================================================


def simple_cut(g: ColoredGraph, spec: CutSpec) -> ColoredGraph:
    """Split one {a,b}-cycle in two, inserting z1 = n+1 and z2 = n+2.

    z1 is welded into the arc containing ``spec.arc_vertex`` (an a-edge to
    that arc's edge_a end and a b-edge to its edge_b end), z2 into the
    other arc, and a new cut-color edge joins z1 to z2.  Degenerate cuts
    whose two edges share a vertex yield a singleton arc and hence
    parallel edges at the fresh vertex; that is allowed.
    """
    return graph_from_matchings(g.n + 2, *_cut_rows(g, spec))


def _cut_rows(g: ColoredGraph, spec: CutSpec) -> list[list[int]]:
    """The neighbor rows of ``simple_cut(g, spec)``, checked as it checks them."""
    c = spec.cut_color
    if c not in COLORS:
        raise MoveError(f"invalid cut color {c}")
    a, b = other_colors(c)
    ea, eb = spec.edge_a, spec.edge_b
    if not g.has_edge(a, *ea):
        raise MoveError(f"{ea} is not an edge of color {a}")
    if not g.has_edge(b, *eb):
        raise MoveError(f"{eb} is not an edge of color {b}")
    # The cycle walked from edge_a: edge_a is (cyc[0], cyc[1]), and the
    # b-edges sit at odd k as (cyc[k], cyc[k+1 mod L]), so edge_b is at k.
    cyc = _cycle(g.matchings[a], g.matchings[b], ea[0])
    if eb[0] not in cyc:
        raise MoveError(f"edges {ea} and {eb} lie on different ({a},{b})-cycles")
    k = cyc.index(eb[0])
    k = k if k % 2 else (k - 1) % len(cyc)
    # Each arc runs from its edge_a end to its edge_b end.
    arc_z1, arc_z2 = cyc[1:k + 1], [cyc[0], *cyc[:k:-1]]
    if spec.arc_vertex in arc_z2:
        arc_z1, arc_z2 = arc_z2, arc_z1
    elif spec.arc_vertex not in arc_z1:
        raise MoveError(f"arc vertex {spec.arc_vertex} is not on the cut cycle")

    # Every end of edge_a and edge_b is rewelded to z1 or z2 below, which
    # overwrites the two removed edges in the copied rows.
    z1, z2 = g.n + 1, g.n + 2
    rows = [[*m, 0, 0] for m in g.matchings]
    for z, arc in ((z1, arc_z1), (z2, arc_z2)):
        rows[a][z] = arc[0]
        rows[a][arc[0]] = z
        rows[b][z] = arc[-1]
        rows[b][arc[-1]] = z
    rows[c][z1] = z2
    rows[c][z2] = z1
    return rows


# ============================================================
# Simple glueing
# ============================================================


def _glue(rows: list[list[int]], n: int, spec: GlueSpec) -> ColoredGraph:
    """Check ``spec`` on the neighbor rows of a graph on n vertices, as
    ``simple_glue`` does, then glue in place and build the one result."""
    c = spec.cut_color
    if c not in COLORS:
        raise MoveError(f"invalid cut color {c}")
    w1, w2 = spec.pair
    if not (1 <= w1 <= n and rows[c][w1] == w2):
        raise MoveError(f"no color-{c} edge between {w1} and {w2}")
    a, b = other_colors(c)
    if w2 in _cycle(rows[a], rows[b], w1):
        raise MoveError(
            f"glue pair ({w1},{w2}) lies on a single ({a},{b})-cycle; "
            "such a glue inverts no cut")
    for d in (a, b):
        row = rows[d]
        x, y = row[w1], row[w2]
        row[x], row[y] = y, x
    r = renumbering(n, spec.pair)
    for row in rows:
        del row[max(w1, w2)], row[min(w1, w2)]
    return graph_from_matchings(n - 2, *([r[x] for x in row] for row in rows))


def simple_glue(g: ColoredGraph, spec: GlueSpec) -> ColoredGraph:
    """Delete the glue pair and reweld its {a,b}-neighbors, merging two cycles."""
    return _glue([list(m) for m in g.matchings], g.n, spec)


def cut_and_glue(g: ColoredGraph, cut: CutSpec, glue: GlueSpec) -> ColoredGraph:
    """A simple cut followed by a simple glueing with the same chosen color.

    The glue is checked and applied on the cut's rows, so the cut graph is
    never built; results and errors are those of
    ``simple_glue(simple_cut(g, cut), glue)``.
    """
    if cut.cut_color != glue.cut_color:
        raise MoveError("cut and glue phases must use the same chosen color")
    return _glue(_cut_rows(g, cut), g.n + 2, glue)


# ============================================================
# Interchange
# ============================================================


def interchange(g: ColoredGraph, seam: Seam, u_new: int, v_new: int) -> ColoredGraph:
    """Re-weld the two summands at (u_new, v_new) instead of the seam's apexes.

    When both summands are bipartite, the welded apexes (a1, a2) are a legal
    pair, so (u_new, v_new) is legal exactly when u_new relates to a1 as
    v_new relates to a2: the same type as its apex on both sides or on
    neither.  Each side compares two vertices of one summand, so the
    summands' own normalizations cancel.
    """
    if not seam.proper:
        raise MoveError("interchange requires a proper seam")
    g1, a1, g2, a2 = extract_summands(g, seam)
    if not 1 <= u_new <= g1.n:
        raise MoveError(f"vertex {u_new} not in the first summand")
    if not 1 <= v_new <= g2.n:
        raise MoveError(f"vertex {v_new} not in the second summand")
    b1, b2 = is_bipartite(g1), is_bipartite(g2)
    if b1 is not None and b2 is not None and (
            ((u_new in b1.blacks) == (a1 in b1.blacks))
            != ((v_new in b2.blacks) == (a2 in b2.blacks))):
        raise MoveError(
            f"type rule violated: replacement vertices {u_new} and {v_new} "
            "are of the same type")
    return connected_sum(g1, u_new, g2, v_new)


# ============================================================
# Fingerprints
# ============================================================


# The numerals 0..4096, so that fingerprint text of graphs up to that size
# reads each label from a table; larger labels go through ``str``.
_NUMERALS = tuple(map(str, range(4097)))


def _fingerprint_text(n: int, rows) -> str:
    """The fingerprint of every graph on n vertices whose canonical rows,
    without slot 0, are ``rows``."""
    if n < len(_NUMERALS):
        # A row has n >= 2 entries, so itemgetter returns a tuple of numerals.
        rows = [operator.itemgetter(*row)(_NUMERALS) for row in rows]
    else:
        rows = [map(str, row) for row in rows]
    return f"{n}:" + ":".join([".".join(row) for row in rows])


# The memo of one ``reduction.reduce`` or ``verify_certificate`` call, and
# None outside them: fingerprints keyed by ``g.matchings``, realized forms
# keyed by their ``CanonicalForm``, and the graph of each move and seam
# split keyed by the identities of its inputs.  Such a key fixes its value,
# so a hit is the answer a second computation would give.  A ContextVar
# keeps each thread's and context's memo apart.
_call_memo: ContextVar[dict | None] = ContextVar("gemsurf_call_memo", default=None)


@contextmanager
def _open_call_memo():
    """Open a call memo for the ``with`` body, or reuse the one already open.

    A memo this opens is closed when the body returns or raises."""
    if _call_memo.get() is not None:
        yield
        return
    token = _call_memo.set({})
    try:
        yield
    finally:
        _call_memo.reset(token)


def _memoized(key, build, *args):
    """``build(*args)``, read from or kept in the open call memo under ``key``.

    ``key`` may hold the ids of objects in ``args``: the entry keeps
    ``args`` alive, so no id in a key is reused while the memo lives."""
    memo = _call_memo.get()
    if memo is None:
        return build(*args)
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (build(*args), args)
    return entry[0]


def _label(g: ColoredGraph) -> str:
    return _fingerprint_text(g.n, _canonical_rows(g))


def fingerprint(g: ColoredGraph) -> str:
    """Collision-free canonical fingerprint: n and the canonical matchings."""
    return _memoized(g.matchings, _label, g)


# ============================================================
# Applying moves and verifying traces
# ============================================================


def apply_move(g: ColoredGraph, move: Move) -> ColoredGraph:
    """The graph ``move`` takes g to, kept in the open call memo under the
    identities of g and ``move``."""
    return _memoized((id(g), id(move)), _apply, g, move)


def _apply(g: ColoredGraph, move: Move) -> ColoredGraph:
    if isinstance(move, Cut):
        return simple_cut(g, move.spec)
    if isinstance(move, Glue):
        return simple_glue(g, move.spec)
    if isinstance(move, CutGlue):
        return cut_and_glue(g, move.cut, move.glue)
    if isinstance(move, Interchange):
        seam = _seam_from_triple(g, move.seam_edges)
        if seam is None:
            raise MoveError(f"edge triple {move.seam_edges} is not a seam")
        return interchange(g, seam, move.u_new, move.v_new)
    raise MoveError(f"unknown move {move!r}")


@dataclass(frozen=True)
class MoveTrace:
    """A replayable move sequence with a fingerprint checkpoint per step."""

    initial: str
    steps: tuple[tuple[Move, str], ...]


def record_trace(g0: ColoredGraph, moves) -> tuple[MoveTrace, ColoredGraph]:
    """Apply ``moves`` in order, recording fingerprints after each step."""
    g = g0
    steps = []
    for move in moves:
        g = apply_move(g, move)
        steps.append((move, fingerprint(g)))
    return MoveTrace(fingerprint(g0), tuple(steps)), g


def verify_trace(g0: ColoredGraph, trace: MoveTrace) -> ColoredGraph:
    """Replay a trace from g0, checking every fingerprint; return the final graph.

    A trace that verifies is a proof object that g0 is D-equivalent to the
    final graph.
    """
    if fingerprint(g0) != trace.initial:
        raise TraceError("initial fingerprint does not match the starting graph")
    g = g0
    for i, (move, fp) in enumerate(trace.steps, start=1):
        try:
            g = apply_move(g, move)
        except GemError as exc:
            raise TraceError(f"step {i}: illegal move: {exc}") from exc
        if fingerprint(g) != fp:
            raise TraceError(f"step {i}: fingerprint mismatch")
    return g


# ============================================================
# Exhaustive move enumeration: the law-check API
# ============================================================
#
# With ``core.find_seams``, these enumerators list every legal cut, glue
# or seam of a graph, so that a law of the calculus can be checked on all
# of them: a cut is undone by the glue at its fresh pair, and every cut or
# glue keeps the Euler characteristic and bipartiteness.  Their cost grows
# polynomially with n, so they serve small graphs; ``reduce`` and
# ``verify`` never call them.


def enumerate_cut_specs(g: ColoredGraph):
    """All legal CutSpecs of g, one per (color, edge pair, arc) choice; law-check API.

    ``after`` maps each {a,b}-cycle edge, as (parity, u, v) with u < v, to its
    cycle and the vertex after it, where one arc of a cut at that edge starts.
    """
    for c in COLORS:
        a, b = other_colors(c)
        after = {}
        for idx, cyc in enumerate(bicolored_cycles(g, a, b).cycles):
            L = len(cyc)
            for k, u in enumerate(cyc):
                v = cyc[(k + 1) % L]
                after[(k % 2, min(u, v), max(u, v))] = (idx, v)
        for ea in g.edges_of_color(a):
            cyc_a, head_a = after[(0, *ea)]
            for eb in g.edges_of_color(b):
                cyc_b, head_b = after[(1, *eb)]
                if cyc_a != cyc_b:
                    continue
                yield CutSpec(c, ea, eb, head_a)
                if head_b != head_a:
                    yield CutSpec(c, ea, eb, head_b)


def enumerate_glue_specs(g: ColoredGraph, cut_color: int):
    """All legal GlueSpecs of g for the given chosen color; part of the law-check API."""
    a, b = other_colors(cut_color)
    comp_of = {}
    for idx, cyc in enumerate(bicolored_cycles(g, a, b).cycles):
        for v in cyc:
            comp_of[v] = idx
    for (w1, w2) in g.edges_of_color(cut_color):
        if comp_of[w1] != comp_of[w2]:
            yield GlueSpec(cut_color, (w1, w2))
