"""Canonical generators and the constructive reduction to normal form.

Every contracted graph reduces to one of the normal forms: the 2-vertex
graph L, the (2m+2)-vertex P(m), or the (4m+2)-vertex T(m).  The
reduction emits a certificate tree; leaves are verified move traces or
concrete isomorphisms, and internal nodes record the congruence
"summand S reduces to form F, so the whole sum is equivalent to the sum
with S replaced by the canonical graph of F" together with a seam
witness and the re-chosen weld vertices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import (
    ColoredGraph,
    GemError,
    Seam,
    ValidationError,
    _seam_from_triple,
    are_isomorphic,
    bicolored_cycles,
    connected_sum,
    extract_summands,
    find_seams,
    graph_from_matchings,
    graph_from_pairs,
    is_bipartite,
    is_contracted,
    relabel,
    renumbering,
    seam_from_side,
)
from .moves import (
    CutGlue,
    GlueSpec,
    MoveTrace,
    apply_move,
    cut_spec,
    fingerprint,
    record_trace,
    verify_trace,
)


class ReductionError(GemError):
    """Raised on invalid reduction inputs or internal contradictions."""


class CertificateError(GemError):
    """Raised when a reduction certificate fails to verify."""


# ============================================================
# Normal forms
# ============================================================


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """One of L, P(m), or T(m)."""

    kind: str
    m: int = 0

    def __post_init__(self):
        if self.kind not in ("L", "P", "T"):
            raise ReductionError(f"unknown form kind {self.kind!r}")
        if self.kind == "L" and self.m != 0:
            raise ReductionError("L carries no index")
        if self.kind in ("P", "T") and self.m < 1:
            raise ReductionError(f"{self.kind} requires index m >= 1")

    @property
    def vertex_count(self) -> int:
        if self.kind == "L":
            return 2
        if self.kind == "P":
            return 2 * self.m + 2
        return 4 * self.m + 2

    def token(self) -> str:
        return "L" if self.kind == "L" else f"{self.kind}{self.m}"

    def __str__(self) -> str:
        return "L" if self.kind == "L" else f"{self.kind}({self.m})"


def form_L() -> CanonicalForm:
    return CanonicalForm("L")


def form_P(m: int) -> CanonicalForm:
    return CanonicalForm("P", m)


def form_T(m: int) -> CanonicalForm:
    return CanonicalForm("T", m)


def parse_form_token(tok: str) -> CanonicalForm:
    if tok == "L":
        return form_L()
    digits = tok[1:]
    if tok[:1] in ("P", "T") and digits.isascii() and digits.isdigit():
        try:  # int() refuses more than 4300 digits
            return CanonicalForm(tok[0], int(digits))
        except ValueError:
            pass
    raise ReductionError(f"bad form token {tok!r}")


def make_L() -> ColoredGraph:
    """The 2-vertex graph: all three colors on the pair {1, 2}."""
    return graph_from_pairs(2, ([(1, 2)], [(1, 2)], [(1, 2)]))


def make_P1() -> ColoredGraph:
    """K4 with a proper 3-edge-coloring; the unique contracted 4-vertex graph."""
    return graph_from_pairs(4, ([(1, 2), (3, 4)],
                                [(2, 3), (4, 1)],
                                [(1, 3), (2, 4)]))


def make_T1() -> ColoredGraph:
    """K33 hexagon with antipodal color-2 edges; the bipartite 6-vertex graph."""
    return graph_from_pairs(6, ([(1, 2), (3, 4), (5, 6)],
                                [(2, 3), (4, 5), (6, 1)],
                                [(1, 4), (2, 5), (3, 6)]))


def make_P2() -> ColoredGraph:
    """The non-bipartite contracted 6-vertex graph."""
    return graph_from_pairs(6, ([(1, 2), (3, 4), (5, 6)],
                                [(2, 3), (4, 5), (6, 1)],
                                [(1, 4), (2, 6), (3, 5)]))


@functools.lru_cache(maxsize=None)
def make_P(m: int) -> ColoredGraph:
    """Connected sum of m copies of K4, accumulated left to right.

    Each copy is welded at the accumulator's highest vertex and the fresh
    copy's vertex 1.
    """
    if m < 1:
        raise ReductionError("P(m) requires m >= 1")
    return _chain(make_P1(), m)


@functools.lru_cache(maxsize=None)
def make_T(m: int) -> ColoredGraph:
    """Connected sum of m copies of the torus graph, accumulated left to right.

    Welds pair the accumulator's highest vertex with vertex 1 of the fresh
    copy; the different-types rule holds at every step.  (Each copy keeps
    its own 2-coloring in the sum, so the highest vertex is always a copy's
    vertex 6, which is white, and it meets vertex 1, which is black.)
    """
    if m < 1:
        raise ReductionError("T(m) requires m >= 1")
    return _chain(make_T1(), m)


def _chain(block: ColoredGraph, m: int) -> ColoredGraph:
    """m copies of block, each welded at the accumulator's highest vertex and
    its own vertex 1, built in one pass over three growing rows.

    This is ``connected_sum(acc, acc.n, block, 1)`` folded m-1 times.  The
    deleted vertex is always the accumulator's highest, so the others keep
    their numbers and block vertices 2..b follow, shifted by n-2.  Time and
    memory are linear in the result and no smaller form is built or
    cached, so a large m read from a file costs only the form itself.
    """
    rows = [list(row) for row in block.matchings]
    for _ in range(m - 1):
        shift = len(rows[0]) - 3  # the highest vertex, about to be deleted, minus 2
        for row, nbr in zip(rows, block.matchings):
            end = row.pop()
            row.extend(v + shift for v in nbr[2:])
            w = nbr[1] + shift
            row[end], row[w] = w, end
    return graph_from_matchings(len(rows[0]) - 1, *rows)


def realize(form: CanonicalForm) -> ColoredGraph:
    if form.kind == "L":
        return make_L()
    if form.kind == "P":
        return make_P(form.m)
    return make_T(form.m)


def canonical_of(n: int, bipartite: bool) -> CanonicalForm:
    """The Theorem-1.1 normal form for a contracted graph of given size and parity."""
    if n < 2 or n % 2 != 0:
        raise ReductionError(f"vertex count must be a positive even integer, got {n}")
    if n == 2:
        return form_L()
    if n % 4 == 0:
        m = n // 4
        if bipartite:
            raise ReductionError(
                f"no contracted bipartite graph on {n} = 4*{m} vertices exists "
                "(parity of the permutation product forbids it)")
        return form_P(2 * m - 1)
    m = (n - 2) // 4
    return form_T(m) if bipartite else form_P(2 * m)


# ============================================================
# Certificates
# ============================================================


@dataclass(frozen=True)
class IsoCert:
    """Claims the current graph is isomorphic to the canonical graph of ``form``."""

    form: CanonicalForm
    mapping: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TraceCert:
    """Claims the trace replays from the current graph; ``rest`` continues there."""

    trace: MoveTrace
    rest: "Cert"


@dataclass(frozen=True)
class RecombineCert:
    """Congruence record: reduce both summands at a seam, then re-weld.

    The current graph splits at the seam into summands (side A first).
    ``left``/``right`` certify the summands' forms f_A/f_B; the successor
    graph is connected_sum(realize(f_A), weld_a, realize(f_B), weld_b) and
    ``rest`` certifies it.  Changing weld vertices is absorbed by
    interchange moves, so the record is sound without replaying sub-traces
    inside the composite graph.

    ``left_fp``, ``right_fp`` and ``fp`` are the fingerprints of the two
    summands and of the successor graph, as the compose record prints them.
    The writer copies them out; verification does not trust them.
    """

    seam_edges: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    left: "Cert"
    right: "Cert"
    weld_a: int
    weld_b: int
    rest: "Cert"
    left_fp: str
    right_fp: str
    fp: str


Cert = IsoCert | TraceCert | RecombineCert


@dataclass(frozen=True)
class ReductionCertificate:
    conclusion: CanonicalForm
    root: Cert


def certificate_conclusion(node: Cert) -> CanonicalForm:
    while not isinstance(node, IsoCert):
        node = node.rest
    return node.form


def _drive(walk):
    """Run a tree walk made of generators without Python recursion.

    A generator yields a child generator to have it run to completion and
    receives the child's return value; ``_drive`` returns the root's.
    """
    stack, sent = [walk], None
    while stack:
        try:
            child = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            sent = done.value
        else:
            stack.append(child)
            sent = None
    return sent


def verify_certificate(g: ColoredGraph, cert: ReductionCertificate) -> CanonicalForm:
    """Re-check a certificate end to end; returns the verified conclusion.

    Leaf traces are replayed, isomorphism witnesses re-checked edge by
    edge, seams re-derived via extract_summands, and every recombined
    graph rebuilt with the type rule enforced.
    """
    if cert.conclusion.vertex_count != g.n:
        raise CertificateError("conclusion vertex count does not match the input")
    form = _drive(_verify_node(g, cert.root))
    if form != cert.conclusion:
        raise CertificateError(f"certificate concludes {form}, claimed {cert.conclusion}")
    return form


def _verify_node(g: ColoredGraph, node: Cert):
    """Walk (run by ``_drive``) verifying ``node`` on g; returns its form."""
    while not isinstance(node, IsoCert):
        if isinstance(node, TraceCert):
            try:
                g = verify_trace(g, node.trace)
            except GemError as exc:
                raise CertificateError(f"leaf trace failed: {exc}") from exc
        elif isinstance(node, RecombineCert):
            seam = _seam_from_triple(g, node.seam_edges)
            if seam is None:
                raise CertificateError(f"recorded edge triple {node.seam_edges} is not a seam")
            g1, _, g2, _ = extract_summands(g, seam)
            f_a = yield _verify_node(g1, node.left)
            f_b = yield _verify_node(g2, node.right)
            try:
                g = connected_sum(realize(f_a), node.weld_a, realize(f_b), node.weld_b,
                                  enforce_type_rule=True)
            except GemError as exc:
                raise CertificateError(f"illegal recombination weld: {exc}") from exc
        else:
            raise CertificateError(f"unknown certificate node {node!r}")
        node = node.rest
    # Compare sizes before realize: a claimed form's size is untrusted.
    try:
        valid = (node.form.vertex_count == g.n
                 and relabel(g, dict(node.mapping)) == realize(node.form))
    except ValidationError:
        valid = False
    if not valid:
        raise CertificateError(f"isomorphism witness onto {node.form} is invalid")
    return node.form


def _iso_cert(g: ColoredGraph, form: CanonicalForm) -> IsoCert:
    mapping = are_isomorphic(g, realize(form))
    if mapping is None:
        raise ReductionError(
            f"internal: graph on {g.n} vertices failed to match {form}; "
            "this contradicts the small-catalog uniqueness")
    return IsoCert(form, tuple(sorted(mapping.items())))


# ============================================================
# Standard labelings along the {0,1}-Hamiltonian cycle
# ============================================================


def _standard_labelings(g: ColoredGraph):
    """All relabelings v_1..v_n of the {0,1}-cycle in standard position.

    Yields lists lab with lab[k] = the vertex at position k (lab[0]
    unused), such that lab[2i-1]lab[2i] is always a color-0 edge.  There
    are n of them: n/2 rotations in each direction.
    """
    cycles = bicolored_cycles(g, 0, 1).cycles
    if len(cycles) != 1:
        raise ReductionError("standard labeling requires a Hamiltonian {0,1}-cycle")
    cyc = cycles[0]
    n = len(cyc)
    for off in range(0, n, 2):
        yield [0] + [cyc[(off + k) % n] for k in range(n)]
    for off in range(1, n, 2):
        yield [0] + [cyc[(off - k) % n] for k in range(n)]


# ============================================================
# Splitting off a torus block (bipartite) or a K4 block (non-bipartite)
# ============================================================


@dataclass(frozen=True)
class SplitOff:
    """Outcome of a split: a verified trace plus the seam decomposition."""

    trace: MoveTrace
    final: ColoredGraph
    seam: Seam
    piece: ColoredGraph
    piece_is_side_a: bool
    remainder: ColoredGraph


def _choose_anchor(g: ColoredGraph, bipartite: bool):
    """Check a split's preconditions, then choose its labeling deterministically.

    Scans all standard labelings; in each, v1's color-2 partner sits at
    position j, which must be even for the torus split and odd for the K4
    split (labelings with the other parity are skipped).  The crossing
    color-2 edge (v_s, v_t) with t > j is taken with smallest s then t,
    where s runs over the odd positions in [3, j-1] for the torus split and
    over [2, j-1] for the K4 split.  The labeling minimizing (j, s, t) wins,
    first found on ties.  Returns (labeling, j, s, t).
    """
    if not is_contracted(g):
        raise ReductionError("split requires a contracted graph")
    if (is_bipartite(g) is not None) != bipartite:
        raise ReductionError(f"this split requires a {'' if bipartite else 'non-'}"
                             "bipartite graph")
    n = g.n
    if bipartite and (n < 10 or n % 4 != 2):
        raise ReductionError(f"bipartite split requires n = 4q+2 with q >= 2, got {n}")
    if not bipartite and n < 6:
        raise ReductionError(f"non-bipartite split requires n >= 6, got {n}")
    best = None
    for lab in _standard_labelings(g):
        pos = {lab[k]: k for k in range(1, n + 1)}
        j = pos[g.matchings[2][lab[1]]]
        if (j % 2 == 0) != bipartite:
            continue
        s_range = range(3, j, 2) if bipartite else range(2, j)
        hit = next(((s, t) for s in s_range
                    if (t := pos[g.matchings[2][lab[s]]]) > j), None)
        if hit is None:
            raise ReductionError(
                "internal: no crossing color-2 edge; contradicts Hamiltonicity")
        if best is None or (j, *hit) < best[0]:
            best = ((j, *hit), lab)
    if best is None:
        raise ReductionError("internal: no color-2 edge from v1 of the required parity")
    (j, s, t), lab = best
    return lab, j, s, t


def _summands_at(g: ColoredGraph, side: frozenset[int]):
    """The seam around ``side`` and its two summands, ``side``'s first.

    Returns (seam, side's summand, the other summand, whether ``side`` is
    side A).  A summand numbers its side's vertices in their order in g,
    then the apex.
    """
    seam = seam_from_side(g, side)
    s_a, _, s_b, _ = extract_summands(g, seam)
    if seam.side_a == side:
        return seam, s_a, s_b, True
    return seam, s_b, s_a, False


def _detach(g: ColoredGraph, steps, block: frozenset[int], form: CanonicalForm) -> SplitOff:
    """The SplitOff for the (move, graph) ``steps`` from g; ``block`` is the
    side of the last graph whose summand must be the canonical graph of ``form``."""
    trace = MoveTrace(fingerprint(g), tuple((move, fingerprint(h)) for move, h in steps))
    final = steps[-1][1]
    seam, piece, remainder, piece_is_side_a = _summands_at(final, block)
    if are_isomorphic(piece, realize(form)) is None:
        raise ReductionError(f"internal: detached block is not {form}")
    return SplitOff(trace, final, seam, piece, piece_is_side_a, remainder)


def split_off_T1(g: ColoredGraph) -> SplitOff:
    """Two cut-and-glue moves detaching a 6-vertex torus block.

    With the cycle labeled v1..vn (color 0 on v_{2i-1}v_{2i}) and the
    anchor edges chosen as in ``_choose_anchor`` (j even):

    * move 1 cuts the color-0 edge v_{j-1}v_j and the color-1 edge v2v3
      (z1 on the arc through v3) and glues at (v_s, v_t);
    * move 2 cuts the color-0 edge v1v2 and the current color-1 edge at
      z1 (z1' on the arc through v2) and glues at (v_j, v1).

    In the generic position of the figures z1's color-1 edge is z1v3; when
    the first glue consumed v3 the edge runs to the rewelded successor,
    and cutting it is the faithful generalization.  The result carries the
    seam around {z1, z1', v2, z2, z2'}, whose summand is the torus block.
    """
    v, j, s, t = _choose_anchor(g, bipartite=True)  # v[k]: the vertex at position k
    n = g.n
    move1 = CutGlue(
        cut_spec(2, (v[j - 1], v[j]), (v[2], v[3]), arc_vertex=v[3]),
        GlueSpec(2, (v[s], v[t])))
    g1 = apply_move(g, move1)
    r1 = renumbering(n + 2, (v[s], v[t]))
    z1, z2 = r1[n + 1], r1[n + 2]
    v1, v2, vj = r1[v[1]], r1[v[2]], r1[v[j]]

    move2 = CutGlue(
        cut_spec(2, tuple(sorted((v1, v2))),
                 tuple(sorted((z1, g1.matchings[1][z1]))), arc_vertex=v2),
        GlueSpec(2, (vj, v1)))
    g2 = apply_move(g1, move2)
    r2 = renumbering(n + 2, (vj, v1))
    block = frozenset({r2[z1], r2[z2], r2[v2], r2[n + 1], r2[n + 2]})
    return _detach(g, ((move1, g1), (move2, g2)), block, form_T(1))


def split_off_P1(g: ColoredGraph) -> SplitOff:
    """One cut-and-glue move detaching a 4-vertex K4 block.

    With the anchor chosen as in ``_choose_anchor`` (j odd): cuts the
    color-0 edge v1v2 and the color-1 edge v_{j-1}v_j (z1 on the arc
    through v2), glues at (v_s, v_t); the block summand sits on
    {v1, z2, v_j} plus the apex.
    """
    v, j, s, t = _choose_anchor(g, bipartite=False)
    n = g.n
    move = CutGlue(
        cut_spec(2, (v[1], v[2]), (v[j - 1], v[j]), arc_vertex=v[2]),
        GlueSpec(2, (v[s], v[t])))
    g1 = apply_move(g, move)
    r1 = renumbering(n + 2, (v[s], v[t]))
    block = frozenset({r1[v[1]], r1[n + 2], r1[v[j]]})
    return _detach(g, ((move, g1),), block, form_P(1))


# ============================================================
# The torus-times-K4 rewrite (the figure-for-Lemma-3.1 move)
# ============================================================


def tp1_seam(g: ColoredGraph) -> Seam:
    """A proper seam decomposing an 8-vertex graph as torus-block # K4-block."""
    for seam in find_seams(g):
        if not seam.proper or {len(seam.side_a), len(seam.side_b)} != {3, 5}:
            continue
        s_a, _, s_b, _ = extract_summands(g, seam)
        small, big = (s_a, s_b) if s_a.n == 4 else (s_b, s_a)
        if small.n != 4 or big.n != 6:
            continue
        if are_isomorphic(small, make_P1()) and are_isomorphic(big, make_T1()):
            return seam
    raise ReductionError("graph admits no torus # K4 seam")


def rewrite_TP1_to_P3(g: ColoredGraph, seam: Seam) -> MoveTrace:
    """The one cut-and-glue move taking a torus # K4 sum to make_P(3) exactly.

    Three pairwise non-isomorphic (though equivalent) chains of three K4
    blocks exist, one per color of the edge joining the middle block's two
    welded slots; a cut-and-glue with chosen color c lands on the class
    whose middle pair is c-related.  make_P(3) is the color-1 class, so
    the move uses chosen color 1.  Both summands have vertex-transitive
    color-preserving automorphism groups, so the torus summand may be
    framed with its welded vertex as the hexagon's 6 and the K4 summand
    with its welded vertex as 1.  Then the torus ends of the color-0, 1
    and 2 seam edges are the hexagon's 5, 1 and 3, its 2 and 4 are the
    color-0 partners of 1 and 3, and the K4 end of the color-1 seam edge
    is K4's 4.  The move cuts the color-0 edge hexagon 3-4 and the color-2
    edge hexagon 2-5 with z1 on the arc through hexagon-5, then glues at
    (K4's 4, hexagon's 1), which the color-1 seam edge joins.
    """
    if g.n != 8:
        raise ReductionError(f"rewrite applies to 8-vertex graphs, got n={g.n}")
    s_a, _, s_b, _ = extract_summands(g, seam)
    t_sum, p_sum, t_side = (s_a, s_b, seam.side_a) if s_a.n == 6 else (s_b, s_a, seam.side_b)
    if are_isomorphic(t_sum, make_T1()) is None or are_isomorphic(p_sum, make_P1()) is None:
        raise ReductionError("seam summands are not the torus graph and K4")
    h5, h1, h3 = (u if u in t_side else v for (u, v) in seam.edges)
    h2, h4, k4 = g.matchings[0][h1], g.matchings[0][h3], g.matchings[1][h1]
    move = CutGlue(cut_spec(1, (h3, h4), (h2, h5), arc_vertex=h5), GlueSpec(1, (k4, h1)))
    trace, final = record_trace(g, [move])
    if are_isomorphic(final, make_P(3)) is None:
        raise ReductionError("internal: rewrite did not land on P(3)")
    return trace


# ============================================================
# The reduction driver
# ============================================================


def reduce(g: ColoredGraph) -> tuple[CanonicalForm, ReductionCertificate]:
    """Reduce a contracted graph to its normal form with a verified certificate."""
    if not is_contracted(g):
        raise ReductionError("reduction requires a contracted graph")
    root = _reduce_node(g)
    form = certificate_conclusion(root)
    expected = canonical_of(g.n, is_bipartite(g) is not None)
    if form != expected:
        raise ReductionError(f"internal: reduced to {form}, expected {expected}")
    cert = ReductionCertificate(form, root)
    verify_certificate(g, cert)
    return form, cert


def _fingerprint_of(g: ColoredGraph, node: Cert) -> str:
    """fingerprint(g) for the graph that ``node`` certifies; a trace already holds it."""
    return node.trace.initial if isinstance(node, TraceCert) else fingerprint(g)


def _congruence(seam: Seam, x: ColoredGraph, x_cert: Cert, y: ColoredGraph, y_cert: Cert,
                x_is_a: bool):
    """Open the compose record for the summands x and y of ``seam``.

    Returns the canonical welding of both conclusions and a function that
    closes the record once ``rest`` certifies that welding.  A P form is
    welded at its vertex 1 to a T form's highest vertex; otherwise the
    first form's highest vertex (white, for T) meets the second's vertex 1
    (black).
    """
    g_a, left, g_b, right = (x, x_cert, y, y_cert) if x_is_a else (y, y_cert, x, x_cert)
    f_a, f_b = certificate_conclusion(left), certificate_conclusion(right)
    if (f_a.kind, f_b.kind) == ("P", "T"):
        welds = (1, f_b.vertex_count)
    else:
        welds = (f_a.vertex_count, 1)
    joined = connected_sum(realize(f_a), welds[0], realize(f_b), welds[1],
                           enforce_type_rule=True)

    def close(rest: Cert) -> RecombineCert:
        return RecombineCert(seam.edges, left, right, *welds, rest,
                             _fingerprint_of(g_a, left), _fingerprint_of(g_b, right),
                             _fingerprint_of(joined, rest))
    return joined, close


def _reduce_node(g: ColoredGraph) -> Cert:
    """Split off torus or K4 blocks down to n <= 6, then fold the splits back up."""
    splits = []
    while g.n > 6:
        bip = is_bipartite(g) is not None
        splits.append((split_off_T1(g) if bip else split_off_P1(g), bip))
        g = splits[-1][0].remainder
    node = _iso_cert(g, canonical_of(g.n, is_bipartite(g) is not None))
    for sp, bip in reversed(splits):
        piece = form_T(1) if bip else form_P(1)
        rem = certificate_conclusion(node)
        joined, close = _congruence(sp.seam, sp.piece, _iso_cert(sp.piece, piece),
                                    sp.remainder, node, sp.piece_is_side_a)
        if rem.kind == piece.kind:
            rest = _iso_cert(joined, CanonicalForm(rem.kind, rem.m + 1))
        else:
            rest = _mixed_chain(joined, rem.m, sp.piece_is_side_a)
        node = TraceCert(sp.trace, close(rest))
    return node


def _welding_ids(m: int, j: int, p_first: bool) -> tuple[range, range]:
    """The ids of P(m)'s vertices 2..2m+2 and of T(j)'s vertices 1..4j+1 in
    their canonical welding (P(m) at vertex 1, T(j) at 4j+2), P(m) first or not."""
    p, t = 2 * m + 1, 4 * j + 1
    if p_first:
        return range(1, p + 1), range(p + 1, p + t + 1)
    return range(t + 1, t + p + 1), range(1, t + 1)


def _mixed_chain(w: ColoredGraph, k: int, p_first: bool) -> Cert:
    """Certificate for the canonical welding w of P(1) and T(k); concludes P(2k+1).

    One 8-vertex rewrite per torus block, last block first.  While torus
    blocks remain before it, the summand holding the P(m) part and the last
    block is recombined into the canonical welding of P(m) and T(1), which
    ``_rewrite_block`` certifies, and the chain goes on with P(m+2) welded
    to T(j-1).  The records are closed from the last one back.
    """
    closes, m = [], 1
    for j in range(k, 1, -1):
        p_ids, t_ids = _welding_ids(m, j, p_first)
        prev = frozenset(t_ids[:4 * j - 3])  # the T(j-1) part
        seam, prev_sum, big, prev_is_a = _summands_at(w, prev)
        inner = renumbering(w.n, prev)
        seam_b, p_sum, t_sum, p_first_b = _summands_at(big, frozenset(inner[v] for v in p_ids))
        w_b, close_b = _congruence(seam_b, p_sum, _iso_cert(p_sum, form_P(m)),
                                   t_sum, _iso_cert(t_sum, form_T(1)), p_first_b)
        big_cert = close_b(_rewrite_block(w_b, m, p_first_b))
        w, close = _congruence(seam, prev_sum, _iso_cert(prev_sum, form_T(j - 1)),
                               big, big_cert, prev_is_a)
        closes.append(close)
        m, p_first = m + 2, not prev_is_a
    node = _rewrite_block(w, m, p_first)
    for close in reversed(closes):
        node = close(node)
    return node


def _rewrite_block(w: ColoredGraph, m: int, p_first: bool) -> Cert:
    """Certificate for the canonical welding w of P(m) and T(1); concludes P(m+2).

    The 8-vertex rewrite takes the torus block and the K4 block welded to
    it to P(3); where m >= 3 the P(m-1) tail is detached first.
    """
    p_ids, _ = _welding_ids(m, 1, p_first)
    if m > 1:
        # P(m)'s vertices 2 and 3 and rew's apex form the K4 block; 4.. are the tail.
        seam, tail, rew, tail_is_a = _summands_at(w, frozenset(p_ids[2:]))
        inner = renumbering(w.n, p_ids[2:])
        k4 = frozenset((inner[p_ids[0]], inner[p_ids[1]], rew.n))
    else:
        rew, k4 = w, frozenset(p_ids)
    trace = rewrite_TP1_to_P3(rew, seam_from_side(rew, k4))
    node = TraceCert(trace, _iso_cert(verify_trace(rew, trace), form_P(3)))
    if m == 1:
        return node
    joined, close = _congruence(seam, tail, _iso_cert(tail, form_P(m - 1)),
                                rew, node, tail_is_a)
    return close(_iso_cert(joined, form_P(m + 2)))
