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

from dataclasses import dataclass, field

from .core import (
    ColoredGraph,
    GemError,
    Seam,
    _cycle,
    _maps_onto,
    _rows,
    _seam_from_triple,
    _walk,
    are_isomorphic,
    connected_sum,
    extract_summands,
    graph_from_matchings,
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
    _fingerprint_text,
    _memoized,
    _open_call_memo,
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
    """The form whose ``token()`` is ``tok``: its index is plain decimal, as printed."""
    if tok == "L":
        return form_L()
    if tok[:1] in ("P", "T"):
        try:  # int() refuses more than 4300 digits
            m = int(tok[1:])
        except ValueError:
            m = 0
        if m > 0 and tok == f"{tok[0]}{m}":
            return CanonicalForm(tok[0], m)
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


def make_P(m: int) -> ColoredGraph:
    """m copies of K4 welded in a row, each at the previous one's highest vertex
    and its own vertex 1.  On n = 2m+2 vertices, color 0 joins v and v+1 for odd
    v; color 1 joins v and v+1 for even v < n, and n and 1; color 2 joins 1 and
    3, v and v+3 for even v <= n-4, and n-2 and n."""
    return _form_graph(form_P(m))


def make_T(m: int) -> ColoredGraph:
    """m torus graphs welded in a row as in ``make_P``.  On n = 4m+2 vertices,
    colors 0 and 1 are as in ``make_P``; color 2 joins 1 and 4, v and v+3 for
    v = 2 (mod 4) with v <= n-4, v and v+5 for v = 3 (mod 4) with v <= n-7,
    and n-3 and n."""
    return _form_graph(form_T(m))


# The vertex numbers up to 4096, one int object each, which the rows of every
# form share.  A call keeps all of its forms, and forms that made their own
# ints raised the tracemalloc peak of a stand-alone verify of a random
# non-bipartite graph at n=1026 from 33.5 to 47.0 MB.
_VERTICES = tuple(range(4097))


def _join(row: list, ints: tuple, first: int, last: int, step: int, d: int) -> None:
    """Join v and v+d in ``row`` for v = first, first+step, ..., up to last."""
    row[first:last + 1:step] = ints[first + d:last + d + 1:step]
    row[first + d:last + d + 1:step] = ints[first:last + 1:step]


def _form_graph(form: CanonicalForm) -> ColoredGraph:
    """A new graph of ``form``, its rows written from ``make_P``'s or ``make_T``'s formulas."""
    if form.kind == "L":
        return make_L()
    n = form.vertex_count
    ints = _VERTICES if n < len(_VERTICES) else tuple(range(n + 1))
    m0, m1, m2 = ([0] * (n + 1) for _ in range(3))
    _join(m0, ints, 1, n - 1, 2, 1)
    _join(m1, ints, 2, n - 2, 2, 1)
    m1[1], m1[n] = n, 1
    if form.kind == "P":
        _join(m2, ints, 2, n - 4, 2, 3)
        m2[1], m2[3], m2[n - 2], m2[n] = 3, 1, n, n - 2
    else:
        _join(m2, ints, 2, n - 4, 4, 3)
        _join(m2, ints, 3, n - 7, 4, 5)
        m2[1], m2[4], m2[n - 3], m2[n] = 4, 1, n, n - 3
    return graph_from_matchings(n, m0, m1, m2)


def realize(form: CanonicalForm) -> ColoredGraph:
    """The canonical graph of ``form``, built once per ``reduce`` or
    ``verify_certificate`` call and kept only until that call returns."""
    return _memoized(form, _form_graph, form)


def _form_fingerprint(form: CanonicalForm) -> str:
    """``fingerprint(realize(form))``, labelled by one walk from vertex 3 (from
    1 in L) and kept in the call memo under the key ``fingerprint`` uses.

    ``core._canonical_rows`` keeps the least encoding over all roots, and
    encodings compare by their m0 rows first.  Every root's m0 entries 0 and
    1 are 2 and 1, and only the roots that ``core._least_roots`` finds least
    at entries 2 and 3 are walked.  So the walk from 3 is a least one:

    * L, P(1) and T(1) are vertex-transitive: every root gives one encoding.
    * v -> n+1-v is a colour-preserving automorphism of P(m) and T(m), since
      it maps each formula of ``make_P`` and ``make_T`` onto itself.  So the
      roots v and n+1-v give one encoding.
    * In P(m) and T(m), m >= 2, ``core._least_roots`` keeps 3 and its
      reflection n-2 alone.  In P(m) their entry 2 is 4, the least an entry
      2 can be, from the triangles 1-2-3 and (n-2)-(n-1)-n.  In T(m) it is
      6, as at 2 and n-1, and root 3 beats root 2 at entry 3 (7 against 8).

    The T facts follow from a finite check: entries 2 and 3 read only
    vertices a few steps from the root, the rows repeat with period 4 away
    from vertices 1 and n, and near 1 and n they read the same, counted from
    1 and from n, once m is large.  The tests check every fact for m <= 256,
    and up to n = 8194 among the slow tests.
    """
    h = realize(form)
    return _memoized(h.matchings, _walk_label, h, 1 if form.kind == "L" else 3)


def _walk_label(h: ColoredGraph, root: int) -> str:
    """The fingerprint text of the connected h as the walk from ``root`` labels it."""
    lab, order, row0 = [0] * (h.n + 1), [root], []
    lab[root] = 1
    _walk(h.matchings, lab, order, row0)
    return _fingerprint_text(h.n, (row0, *_rows(h.matchings, lab, order)))


def _weld(f_a: CanonicalForm, a: int, f_b: CanonicalForm, b: int) -> ColoredGraph:
    """connected_sum(realize(f_a), a, realize(f_b), b); unless a form is a P,
    a and b must differ in type.  A bipartite normal form is 2-coloured by
    vertex parity, odd vertices black: L has vertices 1 and 2, and by the
    formulas of ``make_T`` every edge of T(m) joins an odd and an even
    vertex.  P(m) holds the triangle 1-2-3, so it is not bipartite.  Only a
    verify welds, once per compose record."""
    joined = connected_sum(realize(f_a), a, realize(f_b), b)
    if "P" not in (f_a.kind, f_b.kind) and a % 2 == b % 2:
        raise GemError(f"type rule violated: vertices {a} and {b} are both "
                       f"{'black' if a % 2 else 'white'}")
    return joined


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
    inside the composite graph.  ``reduce``'s records weld F(1) and F(k) at
    f_A's highest vertex and 1, and ``rest`` is the identity onto F(k+1).

    ``left_fp``, ``right_fp`` and ``fp`` are the fingerprints of the two
    summands and of the successor graph, as the compose record prints them.
    The writer copies them out.  Verification checks a summand's field
    against F's fingerprint where a witness onto F certifies the summand.
    A parsed file ties a field that a trace starts from to the trace's
    initial fingerprint, which the replay checks; an ``fp`` that a conclude
    follows is not checked.
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
    # The root block's header, set only by ``fileio.parse_certificate``.
    _header: str | None = field(default=None, init=False, compare=False, repr=False)


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
    edge, every compose seam re-derived from its edge triple before its
    summands are built, and every recombined graph rebuilt by ``_weld``
    under the type rule.  A compose field whose summand a witness onto F
    certifies must be F's fingerprint, and the header that
    ``fileio.parse_certificate`` read for a root that is no trace must be
    g's.  Fingerprints, forms, moves and seam splits go through a call
    memo, ``reduce``'s when it verifies its own certificate; there each
    move, and each seam split with its summands, reads back what
    ``reduce`` derived on the same graph and triple.
    """
    if cert.conclusion.vertex_count != g.n:
        raise CertificateError("conclusion vertex count does not match the input")
    with _open_call_memo():
        form = _drive(_verify_node(g, cert.root))
        # A root trace's replay checks its header; no other root reads it.
        if (cert._header is not None and not isinstance(cert.root, TraceCert)
                and cert._header != fingerprint(g)):
            raise CertificateError("root header fingerprint does not match the input graph")
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
            triple = node.seam_edges
            g1, _, g2, _ = _memoized((id(g), triple), _split, g, triple)
            f_a = yield _verify_node(g1, node.left)
            f_b = yield _verify_node(g2, node.right)
            # No trace checks the field of a summand that a witness onto F certifies.
            for name, sub, fp in (("left", node.left, node.left_fp),
                                  ("right", node.right, node.right_fp)):
                if isinstance(sub, IsoCert) and fp != fingerprint(realize(sub.form)):
                    raise CertificateError(f"compose {name} fingerprint is not that of {sub.form}")
            try:
                g = _weld(f_a, node.weld_a, f_b, node.weld_b)
            except GemError as exc:
                raise CertificateError(f"illegal recombination weld: {exc}") from exc
        else:
            raise CertificateError(f"unknown certificate node {node!r}")
        node = node.rest
    # Compare sizes before realize: a claimed form's size is untrusted.  A
    # witness of g.n pairs that is a bijection repeats no vertex.
    if not (node.form.vertex_count == g.n == len(node.mapping)
            and _maps_onto(g, realize(node.form), dict(node.mapping))):
        raise CertificateError(f"isomorphism witness onto {node.form} is invalid")
    return node.form


def _iso_cert(g: ColoredGraph, form: CanonicalForm) -> IsoCert:
    """The witness that g is the canonical graph of ``form``, found by search."""
    mapping = are_isomorphic(g, realize(form))
    if mapping is None:
        raise ReductionError(
            f"internal: graph on {g.n} vertices failed to match {form}; "
            "this contradicts the small-catalog uniqueness")
    return IsoCert(form, tuple(sorted(mapping.items())))


# ============================================================
# Splitting off a torus block (bipartite) or a K4 block (non-bipartite)
# ============================================================


@dataclass(frozen=True)
class SplitOff:
    """Outcome of a split: a verified trace, the seam decomposition and
    ``piece_cert``, the one witness that ``piece`` is T(1) or P(1)."""

    trace: MoveTrace
    final: ColoredGraph
    seam: Seam
    piece: ColoredGraph
    piece_is_side_a: bool
    remainder: ColoredGraph
    piece_cert: IsoCert


def _anchors(g: ColoredGraph, bipartite: bool):
    """Check a split's preconditions, then yield its anchors in a fixed order.

    The caller has found g ``bipartite`` or not; the parity check is its own.

    A standard labeling v_1..v_n reads the {0,1}-cycle ``cyc`` forwards from
    an even index ``off`` or backwards from an odd one, so each v_{2i-1}v_{2i}
    is a color-0 edge and cyc[k] sits at position d*(k-off) % n + 1, d = 1 or -1.
    Even offsets are scanned first, then odd ones.  In each labeling v1's
    color-2 partner sits at position j, which must be even for the torus
    split and odd for the K4 split.  The crossing color-2 edge (v_s, v_t)
    with t > j is taken with smallest s then t, s running over the odd
    positions in [3, j-1] for the torus split and over [2, j-1] for the K4
    split.  Anchors come least (j, s, t) first, first found on ties, and
    only the labeling of an anchor taken is built.  Yields
    (labeling, j, s, t); labeling[k] is v_k.
    """
    if not is_contracted(g):
        raise ReductionError("split requires a contracted graph")
    n = g.n
    if bipartite and (n < 10 or n % 4 != 2):
        raise ReductionError(f"bipartite split requires n = 4q+2 with q >= 2, got {n}")
    if not bipartite and n < 6:
        raise ReductionError(f"non-bipartite split requires n >= 6, got {n}")
    cyc = _cycle(g.matchings[0], g.matchings[1], 1)
    at = {v: k for k, v in enumerate(cyc)}
    partner = [at[g.matchings[2][v]] for v in cyc]  # cycle index of cyc[k]'s partner
    found = []
    for off in (*range(0, n, 2), *range(1, n, 2)):
        d = -1 if off % 2 else 1
        j = d * (partner[off] - off) % n + 1
        if (j % 2 == 0) != bipartite:
            continue
        for s in range(3, j, 2) if bipartite else range(2, j):
            t = d * (partner[(off + d * (s - 1)) % n] - off) % n + 1
            if t > j:
                break
        else:
            raise ReductionError(
                "internal: no crossing color-2 edge; contradicts Hamiltonicity")
        found.append(((j, s, t), off, d))
    if not found:
        raise ReductionError("internal: no color-2 edge from v1 of the required parity")
    found.sort(key=lambda anchor: anchor[0])  # stable: first found on ties
    for (j, s, t), off, d in found:
        yield [0] + [cyc[(off + d * k) % n] for k in range(n)], j, s, t


def _choose_anchor(g: ColoredGraph, bipartite: bool):
    """The least anchor of ``_anchors``, which the public splits take."""
    return next(_anchors(g, bipartite))


def _check_split_input(g: ColoredGraph, bipartite: bool) -> None:
    """Refuse g as a public split does: not contracted, then of the wrong
    parity.  ``_choose_anchor`` checks the rest; ``reduce`` knows g's parity."""
    if not is_contracted(g):
        raise ReductionError("split requires a contracted graph")
    if (is_bipartite(g) is not None) != bipartite:
        raise ReductionError(f"this split requires a {'' if bipartite else 'non-'}"
                             "bipartite graph")


def _summands_at(g: ColoredGraph, side: frozenset[int]):
    """The seam around ``side`` and its two summands, ``side``'s first.

    Returns (seam, side's summand, the other summand, whether ``side`` is
    side A).  A summand numbers its side's vertices in their order in g,
    then the apex.  The summands are kept in the open call memo under the
    identity of g and the seam's edge triple, which fix the seam, so
    ``reduce``'s self-verify reads them back without deriving it again.
    """
    seam = seam_from_side(g, side)
    s_a, _, s_b, _ = _memoized((id(g), seam.edges), extract_summands, g, seam)
    if seam.side_a == side:
        return seam, s_a, s_b, True
    return seam, s_b, s_a, False


def _split(g: ColoredGraph, triple):
    """The summands of g at the seam on the edge ``triple``, derived from the
    triple as a verifier must: the value ``_summands_at`` keeps for that seam."""
    seam = _seam_from_triple(g, triple)
    if seam is None:
        raise CertificateError(f"recorded edge triple {triple} is not a seam")
    return extract_summands(g, seam)


def _detach(g: ColoredGraph, steps, block: frozenset[int], form: CanonicalForm) -> SplitOff:
    """The SplitOff for the (move, graph) ``steps`` from g; ``block`` is the
    side of the last graph whose summand must be the canonical graph of ``form``."""
    trace = MoveTrace(fingerprint(g), tuple((move, fingerprint(h)) for move, h in steps))
    final = steps[-1][1]
    seam, piece, remainder, piece_is_side_a = _summands_at(final, block)
    return SplitOff(trace, final, seam, piece, piece_is_side_a, remainder,
                    _iso_cert(piece, form))


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
    _check_split_input(g, bipartite=True)
    return _split_T1(g, *_choose_anchor(g, bipartite=True))


def _split_T1(g: ColoredGraph, v, j: int, s: int, t: int) -> SplitOff:
    """``split_off_T1`` at the anchor (v, j, s, t); v[k] is the vertex at position k."""
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
    _check_split_input(g, bipartite=False)
    return _split_P1(g, *_choose_anchor(g, bipartite=False))


def _split_P1(g: ColoredGraph, v, j: int, s: int, t: int) -> SplitOff:
    """``split_off_P1`` at the anchor (v, j, s, t)."""
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


def rewrite_TP1_to_P3(g: ColoredGraph, seam: Seam) -> tuple[MoveTrace, ColoredGraph]:
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
    (K4's 4, hexagon's 1), which the color-1 seam edge joins.  Returns the
    trace and the graph it lands on, as ``record_trace`` does.
    """
    if g.n != 8:
        raise ReductionError(f"rewrite applies to 8-vertex graphs, got n={g.n}")
    s_a, _, s_b, _ = extract_summands(g, seam)
    t_sum, p_sum, t_side = (s_a, s_b, seam.side_a) if s_a.n == 6 else (s_b, s_a, seam.side_b)
    if (are_isomorphic(t_sum, realize(form_T(1))) is None
            or are_isomorphic(p_sum, realize(form_P(1))) is None):
        raise ReductionError("seam summands are not the torus graph and K4")
    h5, h1, h3 = (u if u in t_side else v for (u, v) in seam.edges)
    h2, h4, k4 = g.matchings[0][h1], g.matchings[0][h3], g.matchings[1][h1]
    move = CutGlue(cut_spec(1, (h3, h4), (h2, h5), arc_vertex=h5), GlueSpec(1, (k4, h1)))
    return record_trace(g, [move])


# ============================================================
# The reduction driver
# ============================================================


def reduce(g: ColoredGraph) -> tuple[CanonicalForm, ReductionCertificate]:
    """Reduce a contracted graph to its normal form with a verified certificate."""
    if not is_contracted(g):
        raise ReductionError("reduction requires a contracted graph")
    bipartite = is_bipartite(g) is not None
    # One call memo: each graph is labelled, each form realized and each
    # move and seam split built once; the self-verify below replays every
    # step, reads its graph back from the same memo, and builds each weld.
    with _open_call_memo():
        root = _reduce_node(g, bipartite)
        form = certificate_conclusion(root)
        expected = canonical_of(g.n, bipartite)
        if form != expected:
            raise ReductionError(f"internal: reduced to {form}, expected {expected}")
        cert = ReductionCertificate(form, root)
        verify_certificate(g, cert)
    return form, cert


def _reduce_node(g: ColoredGraph, bipartite: bool) -> Cert:
    """Split off torus or K4 blocks down to n <= 6, then fold the splits back up.

    g is ``bipartite`` or not, as the caller found, and every remainder keeps
    that parity: a summand of a bipartite graph is bipartite, since the three
    seam edges leave one side from vertices of one colour, and a K4 split is
    taken only where its remainder is not.  So each fold-up welds the block
    F(1) and the remainder's F(k), side A's highest vertex (even) to side B's
    vertex 1 (odd) as ``_weld``'s type rule asks, into realize(F(k+1))
    itself, so ``rest`` is the identity: the rows of ``make_P`` and
    ``make_T`` repeat with period 2 and 4 between their corners at 1 and n,
    the weld shifts side B by |A| - 2, a multiple of it, and the joint reads
    as at k = 1.  A compose field prints a trace's initial fingerprint, or
    F's where a witness onto F certifies the summand, so each form is
    labelled once per call, by one walk, and no isomorph is.
    """
    splits = []
    while g.n > 6:
        splits.append(_split_T1(g, *_choose_anchor(g, True)) if bipartite else _keeping_split(g))
        g = splits[-1].remainder
    form = canonical_of(g.n, bipartite)
    node, fp = _iso_cert(g, form), _form_fingerprint(form)
    for sp in reversed(splits):
        block = sp.piece_cert.form
        sides = [(sp.piece_cert, block, _form_fingerprint(block)), (node, form, fp)]
        (left, f_a, left_fp), (right, f_b, right_fp) = sides[::1 if sp.piece_is_side_a else -1]
        form = CanonicalForm(form.kind, form.m + 1)
        ids = range(1, form.vertex_count + 1)
        rest = IsoCert(form, tuple(zip(ids, ids)))
        node = TraceCert(sp.trace, RecombineCert(sp.seam.edges, left, right, f_a.vertex_count, 1,
                                                 rest, left_fp, right_fp, _form_fingerprint(form)))
        fp = sp.trace.initial
    return node


def _keeping_split(g: ColoredGraph) -> SplitOff:
    """The K4 split of the non-bipartite g at the least anchor whose
    remainder is not bipartite.  The parity is read off each anchor, so only
    the split taken is built."""
    for anchor in _anchors(g, bipartite=False):
        if not _remainder_is_bipartite(g, *anchor):
            return _split_P1(g, *anchor)
    raise ReductionError("internal: no K4 split keeps the remainder non-bipartite "
                         f"on {g.n} vertices")


def _remainder_is_bipartite(g: ColoredGraph, v, j: int, s: int, t: int) -> bool:
    """Whether the K4 split at the anchor (v, j, s, t) leaves a bipartite
    remainder, read off the anchor without building the split.

    It does exactly when s and t have the same parity, and every colour-2
    edge but v_1 v_j joins positions of one parity exactly when it crosses
    between [2, j-1] and [j+1, n].  (v_s v_t crosses, so the scan below
    checks the first condition again.)  Proof: the cut leaves the
    {0,1}-cycles z1 v_2 ... v_{j-1} and v_j ... v_n v_1 z2, and the block
    {v_1, z2, v_j} contracts to the apex, which takes v_j's place on the
    second: with z1 at position 1, every vertex keeps the parity of its
    position on its cycle.  The glue deletes v_s and v_t and joins their
    colour-0 neighbours, at positions of the parities opposite to s and t,
    and likewise their colour-1 neighbours.  So on the one {0,1}-cycle of
    the remainder, which a 2-colouring must alternate along, the second arc
    follows the first with its parities kept when s and t differ in parity
    and flipped when they agree.  The seam edge z1-apex joins positions 1
    and j, both odd, so the remainder is bipartite only with the flip, and
    then an edge within one arc needs ends of opposite parity and an edge
    between the arcs ends of one parity.  A wrong answer would be caught:
    ``reduce`` checks its conclusion, and the self-verify replays each step.
    """
    if (s - t) % 2:
        return False
    pos = [0] * (g.n + 1)
    for k, u in enumerate(v):
        pos[u] = k
    m2 = g.matchings[2]
    for p in range(2, g.n + 1):  # each edge at its lower end; v_1 v_j is skipped
        q = pos[m2[v[p]]]
        if p < q and ((q - p) % 2 == 0) != (p < j < q):
            return False
    return True
