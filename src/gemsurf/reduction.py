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
    _propagate,
    _seam_from_triple,
    are_isomorphic,
    bicolored_cycles,
    connected_sum,
    extract_summands,
    find_seams,
    graph_from_pairs,
    is_bipartite,
    is_contracted,
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
    g = make_P1()
    for _ in range(m - 1):
        g = connected_sum(g, g.n, make_P1(), 1)
    return g


@functools.lru_cache(maxsize=None)
def make_T(m: int) -> ColoredGraph:
    """Connected sum of m copies of the torus graph, accumulated left to right.

    Welds pair the accumulator's highest vertex with vertex 1 of the fresh
    copy; the different-types rule holds at every step.
    """
    if m < 1:
        raise ReductionError("T(m) requires m >= 1")
    g = make_T1()
    for _ in range(m - 1):
        g = connected_sum(g, g.n, make_T1(), 1, enforce_type_rule=True)
    return g


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


def _check_iso_mapping(g: ColoredGraph, h: ColoredGraph, mapping: dict[int, int]) -> bool:
    if sorted(mapping) != list(range(1, g.n + 1)):
        return False
    if sorted(mapping.values()) != list(range(1, h.n + 1)):
        return False
    for c in (0, 1, 2):
        for u in range(1, g.n + 1):
            if mapping[g.matchings[c][u]] != h.matchings[c][mapping[u]]:
                return False
    return True


def verify_certificate(g: ColoredGraph, cert: ReductionCertificate) -> CanonicalForm:
    """Re-check a certificate end to end; returns the verified conclusion.

    Leaf traces are replayed, isomorphism witnesses re-checked edge by
    edge, seams re-derived via extract_summands, and every recombined
    graph rebuilt with the type rule enforced.
    """
    if cert.conclusion.vertex_count != g.n:
        raise CertificateError("conclusion vertex count does not match the input")
    form = _verify_node(g, cert.root)
    if form != cert.conclusion:
        raise CertificateError(f"certificate concludes {form}, claimed {cert.conclusion}")
    return form


def _verify_node(g: ColoredGraph, node: Cert) -> CanonicalForm:
    if isinstance(node, IsoCert):
        # Compare sizes before realize: a claimed form's size is untrusted.
        if (node.form.vertex_count != g.n
                or not _check_iso_mapping(g, realize(node.form), dict(node.mapping))):
            raise CertificateError(f"isomorphism witness onto {node.form} is invalid")
        return node.form
    if isinstance(node, TraceCert):
        try:
            final = verify_trace(g, node.trace)
        except GemError as exc:
            raise CertificateError(f"leaf trace failed: {exc}") from exc
        return _verify_node(final, node.rest)
    if isinstance(node, RecombineCert):
        seam = _seam_from_triple(g, node.seam_edges)
        if seam is None:
            raise CertificateError(f"recorded edge triple {node.seam_edges} is not a seam")
        g1, _, g2, _ = extract_summands(g, seam)
        f_a = _verify_node(g1, node.left)
        f_b = _verify_node(g2, node.right)
        try:
            joined = connected_sum(realize(f_a), node.weld_a, realize(f_b), node.weld_b,
                                   enforce_type_rule=True)
        except GemError as exc:
            raise CertificateError(f"illegal recombination weld: {exc}") from exc
        return _verify_node(joined, node.rest)
    raise CertificateError(f"unknown certificate node {node!r}")


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
# Splitting off a torus block (bipartite case)
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


def _choose_t1_anchor(g: ColoredGraph):
    """Deterministic labeling choice for the bipartite split.

    Scans all standard labelings; in each, v1's color-2 partner sits at an
    even position 2r, and the qualifying color-2 edge from an odd position
    in [3, 2r-1] to an even position in [2r+2, n] is taken with smallest s
    then t.  The labeling minimizing (r, s, t) wins, first found on ties.
    """
    n = g.n
    best = None
    for lab in _standard_labelings(g):
        pos = {lab[k]: k for k in range(1, n + 1)}
        j = pos[g.matchings[2][lab[1]]]
        if j % 2 != 0:
            raise ReductionError("internal: color-2 partner of v1 has odd position "
                                 "in a bipartite graph")
        r = j // 2
        if r < 2 or 2 * r >= n:
            raise ReductionError("internal: anchor edge parallel to a cycle edge "
                                 "in a simple graph")
        hit = None
        for s2 in range(3, 2 * r, 2):
            t2 = pos[g.matchings[2][lab[s2]]]
            if t2 % 2 == 0 and 2 * r + 1 <= t2 <= n:
                hit = (s2, t2)
                break
        if hit is None:
            raise ReductionError(
                "internal: no crossing color-2 edge; contradicts Hamiltonicity "
                "of the {0,2}-cycle")
        key = (r, hit[0], hit[1])
        if best is None or key < best[0]:
            best = (key, lab)
    (r, s2, t2), lab = best
    return lab, r, s2, t2


def split_off_T1(g: ColoredGraph) -> SplitOff:
    """Two cut-and-glue moves detaching a 6-vertex torus block.

    With the cycle labeled v1..vn (color 0 on v_{2i-1}v_{2i}) and the
    anchor edges chosen as in ``_choose_t1_anchor``:

    * move 1 cuts the color-0 edge v_{2r-1}v_{2r} and the color-1 edge
      v2v3 (z1 on the arc through v3) and glues at (v_{2s-1}, v_{2t});
    * move 2 cuts the color-0 edge v1v2 and the current color-1 edge at
      z1 (z1' on the arc through v2) and glues at (v_{2r}, v1).

    In the generic position of the figures z1's color-1 edge is z1v3; when
    the first glue consumed v3 the edge runs to the rewelded successor,
    and cutting it is the faithful generalization.  The result carries the
    seam around {z1, z1', v2, z2, z2'}, whose summand is the torus block.
    """
    if not is_contracted(g):
        raise ReductionError("split requires a contracted graph")
    if is_bipartite(g) is None:
        raise ReductionError("this split requires a bipartite graph")
    n = g.n
    if n < 10 or n % 4 != 2:
        raise ReductionError(f"bipartite split requires n = 4q+2 with q >= 2, got {n}")

    lab, r, s2, t2 = _choose_t1_anchor(g)
    v = lab  # v[k] is the vertex at position k

    move1 = CutGlue(
        cut_spec(2, (v[2 * r - 1], v[2 * r]), (v[2], v[3]), arc_vertex=v[3]),
        GlueSpec(2, (v[s2], v[t2])))
    g1 = apply_move(g, move1)
    r1 = renumbering(n + 2, (v[s2], v[t2]))
    z1, z2 = r1[n + 1], r1[n + 2]
    v1, v2, v2r = r1[v[1]], r1[v[2]], r1[v[2 * r]]

    move2 = CutGlue(
        cut_spec(2, tuple(sorted((v1, v2))),
                 tuple(sorted((z1, g1.matchings[1][z1]))), arc_vertex=v2),
        GlueSpec(2, (v2r, v1)))
    g2 = apply_move(g1, move2)
    r2 = renumbering(n + 2, (v2r, v1))
    block = frozenset({r2[z1], r2[z2], r2[v2], r2[n + 1], r2[n + 2]})

    trace = MoveTrace(fingerprint(g), ((move1, fingerprint(g1)), (move2, fingerprint(g2))))
    seam = seam_from_side(g2, block)
    s_a, _, s_b, _ = extract_summands(g2, seam)
    piece_is_side_a = seam.side_a == block
    piece, remainder = (s_a, s_b) if piece_is_side_a else (s_b, s_a)
    if are_isomorphic(piece, make_T1()) is None:
        raise ReductionError("internal: detached block is not the torus graph")
    return SplitOff(trace, g2, seam, piece, piece_is_side_a, remainder)


# ============================================================
# Splitting off a projective-plane block (non-bipartite case)
# ============================================================


def _choose_p1_anchor(g: ColoredGraph):
    """Deterministic labeling for the non-bipartite split.

    Only labelings putting a same-type color-2 edge at (v1, v_{2r-1}) are
    eligible; the crossing edge (v_s, v_t) with s in [2, 2r-2] and t in
    [2r, n] is taken with smallest s then t, and (r, s, t) minimized.
    """
    n = g.n
    best = None
    for lab in _standard_labelings(g):
        pos = {lab[k]: k for k in range(1, n + 1)}
        j = pos[g.matchings[2][lab[1]]]
        if j % 2 == 0:
            continue
        r = (j + 1) // 2
        hit = None
        for sp in range(2, 2 * r - 1):
            tp = pos[g.matchings[2][lab[sp]]]
            if 2 * r <= tp <= n:
                hit = (sp, tp)
                break
        if hit is None:
            raise ReductionError(
                "internal: no crossing color-2 edge; contradicts Hamiltonicity")
        key = (r, hit[0], hit[1])
        if best is None or key < best[0]:
            best = (key, lab)
    if best is None:
        raise ReductionError("internal: no same-type color-2 edge in a "
                             "non-bipartite graph")
    (r, sp, tp), lab = best
    return lab, r, sp, tp


def split_off_P1(g: ColoredGraph) -> SplitOff:
    """One cut-and-glue move detaching a 4-vertex K4 block.

    Cuts the color-0 edge v1v2 and the color-1 edge v_{2r-2}v_{2r-1}
    (z1 on the arc through v2), glues at (v_s, v_t); the block summand
    sits on {v1, z2, v_{2r-1}} plus the apex.
    """
    if not is_contracted(g):
        raise ReductionError("split requires a contracted graph")
    if is_bipartite(g) is not None:
        raise ReductionError("this split requires a non-bipartite graph")
    n = g.n
    if n < 6:
        raise ReductionError(f"non-bipartite split requires n >= 6, got {n}")

    lab, r, sp, tp = _choose_p1_anchor(g)
    v = lab

    move = CutGlue(
        cut_spec(2, (v[1], v[2]), (v[2 * r - 2], v[2 * r - 1]), arc_vertex=v[2]),
        GlueSpec(2, (v[sp], v[tp])))
    g1 = apply_move(g, move)
    r1 = renumbering(n + 2, (v[sp], v[tp]))
    block = frozenset({r1[v[1]], r1[n + 2], r1[v[2 * r - 1]]})

    trace = MoveTrace(fingerprint(g), ((move, fingerprint(g1)),))
    seam = seam_from_side(g1, block)
    s_a, _, s_b, _ = extract_summands(g1, seam)
    piece_is_side_a = seam.side_a == block
    piece, remainder = (s_a, s_b) if piece_is_side_a else (s_b, s_a)
    if are_isomorphic(piece, make_P1()) is None:
        raise ReductionError("internal: detached block is not K4")
    return SplitOff(trace, g1, seam, piece, piece_is_side_a, remainder)


# ============================================================
# The torus-times-K4 rewrite (the figure-for-Lemma-3.1 move)
# ============================================================


def _iso_with_image(g: ColoredGraph, h: ColoredGraph, src: int, dst: int) -> dict[int, int] | None:
    """A color-preserving isomorphism g -> h sending src to dst, if any.

    Only for connected g (one propagation decides).
    """
    mapping: dict[int, int] = {}
    used: set[int] = set()
    if g.n == h.n and _propagate(g, h, src, dst, mapping, used) and len(mapping) == g.n:
        return mapping
    return None


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
    the move uses chosen color 1: with the torus summand framed so its
    welded vertex is the hexagon's 6 and the K4 summand so its welded
    vertex is 1, cut the color-0 edge at (the images of) hexagon 3-4 and
    the color-2 edge at hexagon 2-5 with z1 on the arc through hexagon-5,
    then glue at (K4's 4, hexagon's 1), which the color-1 weld edge joins.
    """
    if g.n != 8:
        raise ReductionError(f"rewrite applies to 8-vertex graphs, got n={g.n}")
    s_a, apex_a, s_b, apex_b = extract_summands(g, seam)
    if s_a.n == 6 and s_b.n == 4:
        t_summand, t_apex, t_side = s_a, apex_a, seam.side_a
        p_summand, p_apex, p_side = s_b, apex_b, seam.side_b
    elif s_a.n == 4 and s_b.n == 6:
        t_summand, t_apex, t_side = s_b, apex_b, seam.side_b
        p_summand, p_apex, p_side = s_a, apex_a, seam.side_a
    else:
        raise ReductionError("seam does not split 8 vertices as 6 # 4")

    psi_t = _iso_with_image(make_T1(), t_summand, 6, t_apex)
    psi_p = _iso_with_image(make_P1(), p_summand, 1, p_apex)
    if psi_t is None or psi_p is None:
        raise ReductionError("seam summands are not the torus graph and K4")

    to_g_t = {i + 1: w for i, w in enumerate(sorted(t_side))}
    to_g_p = {i + 1: w for i, w in enumerate(sorted(p_side))}
    mu_t = {x: to_g_t[psi_t[x]] for x in (1, 2, 3, 4, 5)}
    mu_p = {x: to_g_p[psi_p[x]] for x in (2, 3, 4)}

    move = CutGlue(
        cut_spec(1, (mu_t[3], mu_t[4]), (mu_t[2], mu_t[5]), arc_vertex=mu_t[5]),
        GlueSpec(1, (mu_p[4], mu_t[1])))
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


def _recombine(seam: Seam, g_a: ColoredGraph, left: Cert, g_b: ColoredGraph, right: Cert,
               weld_a: int, weld_b: int, then) -> RecombineCert:
    """The congruence record for summands g_a, g_b (side A first) of ``seam``.

    Welds the canonical graphs of both conclusions at (weld_a, weld_b) and
    certifies that sum with ``then(joined)``.
    """
    joined = connected_sum(realize(certificate_conclusion(left)), weld_a,
                           realize(certificate_conclusion(right)), weld_b,
                           enforce_type_rule=True)
    rest = then(joined)
    return RecombineCert(seam.edges, left, right, weld_a, weld_b, rest,
                         _fingerprint_of(g_a, left), _fingerprint_of(g_b, right),
                         _fingerprint_of(joined, rest))


def _reduce_node(g: ColoredGraph) -> Cert:
    bip = is_bipartite(g) is not None
    if g.n <= 6:
        return _iso_cert(g, canonical_of(g.n, bip))

    sp = split_off_T1(g) if bip else split_off_P1(g)
    piece_form = form_T(1) if bip else form_P(1)
    piece = (sp.piece, _iso_cert(sp.piece, piece_form))
    rem_cert = _reduce_node(sp.remainder)
    rem = certificate_conclusion(rem_cert)
    sides = (piece + (sp.remainder, rem_cert) if sp.piece_is_side_a
             else (sp.remainder, rem_cert) + piece)

    if rem.kind == piece_form.kind:
        # T1 # T(q-1) or P1 # P(m): weld the first form's highest vertex
        # (white, for T) onto the second's vertex 1 (black).
        weld_a = certificate_conclusion(sides[1]).vertex_count
        node = _recombine(sp.seam, *sides, weld_a, 1,
                          lambda joined: _iso_cert(joined, CanonicalForm(rem.kind, rem.m + 1)))
    else:
        # Remainder reduced to T(k): enter the mixed chain, which applies the
        # 8-vertex rewrite k times under congruence records.
        k, p_first = rem.m, sp.piece_is_side_a
        welds = (1, 4 * k + 2) if p_first else (4 * k + 2, 1)
        node = _recombine(sp.seam, *sides, *welds,
                          lambda joined: _mixed_chain_node(joined, k, 1, p_first))
    return TraceCert(sp.trace, node)


def _mixed_part_ids(j: int, m: int, p_first: bool):
    """Vertex-id layout of connected_sum(P(m), 1, T(j), 4j+2) (or swapped order).

    Returns (p_part, tj_part, tprev_part) as id sets: the P(m) remnant,
    the last torus block remnant, and the T(j-1) remnant (empty for j=1).
    """
    np_, nt = 2 * m + 2, 4 * j + 2
    if p_first:
        p_part = set(range(1, np_))
        shift = np_ - 1
        t_id = lambda w: w + shift
    else:
        p_part = set(range(nt, nt + np_ - 1))
        t_id = lambda w: w
    tprev = {t_id(w) for w in range(1, 4 * j - 2)} if j >= 2 else set()
    lo = 4 * j - 2 if j >= 2 else 1
    tj = {t_id(w) for w in range(lo, 4 * j + 2)}
    return p_part, tj, tprev


def _mixed_chain_node(w: ColoredGraph, j: int, m: int, p_first: bool) -> Cert:
    """Certificate for (a canonical welding of) T(j) # P(m); concludes P(2j+m).

    One 8-vertex rewrite per torus block: the seam isolating the last
    block next to (a K4 block of) the P side is recombined after the
    rewrite, and the chain recurses with j-1 and m+2.
    """
    p_part, tj_part, tprev_part = _mixed_part_ids(j, m, p_first)

    if j >= 2:
        seam = seam_from_side(w, frozenset(tprev_part))
        side_big = frozenset(p_part | tj_part)
        # Certify the P(m) # T1 side: recombine its own split into canonical
        # graphs, then run the j=1 chain on the canonical welding.
        s_a, _, s_b, _ = extract_summands(w, seam)
        big_is_a = seam.side_a == side_big
        big, prev = (s_a, s_b) if big_is_a else (s_b, s_a)
        big_cert = _mixed_side_cert(big, side_big, p_part, m)
        prev_cert = _iso_cert(prev, form_T(j - 1))
        w_t = 4 * (j - 1) + 2
        args = ((s_a, big_cert, s_b, prev_cert, 1, w_t) if big_is_a
                 else (s_a, prev_cert, s_b, big_cert, w_t, 1))
        return _recombine(seam, *args,
                          lambda nxt: _mixed_chain_node(nxt, j - 1, m + 2, big_is_a))

    if m == 1:
        trace = rewrite_TP1_to_P3(w, tp1_seam(w))
        final = verify_trace(w, trace)
        return TraceCert(trace, _iso_cert(final, form_P(3)))

    # j = 1, m >= 3: detach the P(m-1) tail, rewrite the remaining 8 vertices.
    # The welded K4 copy keeps its original vertices 2 and 3, which are the
    # two smallest ids of the P part in either layout.
    small = set(sorted(p_part)[:2])
    tail = frozenset(p_part - small)
    seam = seam_from_side(w, tail)
    s_a, _, s_b, _ = extract_summands(w, seam)
    tail_is_a = seam.side_a == tail
    tail_sum, rew_sum = (s_a, s_b) if tail_is_a else (s_b, s_a)
    trace = rewrite_TP1_to_P3(rew_sum, tp1_seam(rew_sum))
    rew_cert = TraceCert(trace, _iso_cert(verify_trace(rew_sum, trace), form_P(3)))
    tail_cert = _iso_cert(tail_sum, form_P(m - 1))
    args = ((s_a, tail_cert, s_b, rew_cert, 2 * (m - 1) + 2, 1) if tail_is_a
             else (s_a, rew_cert, s_b, tail_cert, 8, 1))
    return _recombine(seam, *args, lambda nxt: _iso_cert(nxt, form_P(m + 2)))


def _mixed_side_cert(side_graph: ColoredGraph, side_ids: frozenset[int],
                     p_part: set[int], m: int) -> Cert:
    """Certificate that a P(m)-plus-torus-block summand reduces to P(m+2).

    The summand's own seam between the P remnant and the torus remnant is
    recombined into the canonical welding, then the j=1 chain runs there.
    """
    order = {v: i + 1 for i, v in enumerate(sorted(side_ids))}
    inner_p = frozenset(order[v] for v in p_part)
    seam = seam_from_side(side_graph, inner_p)
    s_a, _, s_b, _ = extract_summands(side_graph, seam)
    p_first = seam.side_a == inner_p
    p_sum, t_sum = (s_a, s_b) if p_first else (s_b, s_a)
    p_cert = _iso_cert(p_sum, form_P(m))
    t_cert = _iso_cert(t_sum, form_T(1))
    args = ((s_a, p_cert, s_b, t_cert, 1, 6) if p_first
             else (s_a, t_cert, s_b, p_cert, 6, 1))
    return _recombine(seam, *args, lambda nxt: _mixed_chain_node(nxt, 1, m, p_first))
