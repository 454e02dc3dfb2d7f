import dataclasses
import itertools

import pytest

import gemsurf as gs
from gemsurf import CutGlue, Glue, GlueSpec, Interchange, MoveError, TraceError
from gemsurf.catalog import enumerate_contracted
from gemsurf.moves import cut_spec, enumerate_cut_specs, enumerate_glue_specs, other_colors
from gemsurf.surfaces import complex_stats
from test_golden import prism


def catalog_graphs(max_n):
    out = []
    for n in range(2, max_n + 1, 2):
        out.extend(e.graph for e in enumerate_contracted(n).classes)
    return out


def chi(g):
    return complex_stats(g).euler_characteristic


def bip(g):
    return gs.is_bipartite(g) is not None


# ============================================================
# simple cut
# ============================================================


def test_cut_of_l_is_the_doubled_square():
    # Cutting the 2-vertex graph doubles the {0,1}-edges at each original
    # vertex and leaves two color-2 edges.
    g = gs.simple_cut(gs.make_L(), cut_spec(2, (1, 2), (1, 2), arc_vertex=1))
    assert g.n == 4
    assert g.neighbor(0, 1) == 3 and g.neighbor(1, 1) == 3
    assert g.neighbor(0, 2) == 4 and g.neighbor(1, 2) == 4
    assert g.neighbor(2, 1) == 2 and g.neighbor(2, 3) == 4
    back = gs.simple_glue(g, GlueSpec(2, (3, 4)))
    assert gs.are_isomorphic(back, gs.make_L()) is not None


def test_cut_of_welded_graph_matches_the_drawing():
    # Cutting the welded 8-vertex graph (hexagon ids 4..8, K4 remnant 1..3)
    # at the color-0 edge {7,8} and color-1 edge {5,6}: z1 = 9 lands on the
    # arc through 6 with a 1-edge to 6 and a 0-edge to 7; z2 = 10 takes the
    # other arc with a 1-edge to 5 and a 0-edge to 8.
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 4)
    gbar = gs.simple_cut(g, cut_spec(2, (7, 8), (5, 6), arc_vertex=6))
    assert gbar.n == 10
    assert gbar.neighbor(1, 9) == 6 and gbar.neighbor(0, 9) == 7
    assert gbar.neighbor(1, 10) == 5 and gbar.neighbor(0, 10) == 8
    assert gbar.neighbor(2, 9) == 10
    cycles = gs.bicolored_cycles(gbar, 0, 1).cycles
    assert sorted(len(c) for c in cycles) == [4, 6]


def test_glue_at_drawn_pair_gives_the_drawn_chain():
    # The drawn glue at (u3, v1) = (2, 4) produces exactly the final panel:
    # a chain of three K4 blocks whose middle block's welded slots are
    # joined by a color-2 edge.  That chain is equivalent to P(3) but not
    # isomorphic to make_P(3), whose middle slots are color-1 related.
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 4)
    gbar = gs.simple_cut(g, cut_spec(2, (7, 8), (5, 6), arc_vertex=6))
    h = gs.simple_glue(gbar, GlueSpec(2, (2, 4)))
    expected = {
        (0, 5, 7), (0, 1, 4), (0, 2, 3), (0, 6, 8),
        (1, 4, 7), (1, 2, 5), (1, 1, 6), (1, 3, 8),
        (2, 7, 8), (2, 1, 2), (2, 4, 6), (2, 3, 5),
    }
    assert set(h.edges()) == expected
    assert gs.is_contracted(h)
    assert gs.are_isomorphic(h, gs.make_P(3)) is None


def test_cut_requires_common_cycle():
    g = gs.connected_sum(gs.make_T1(), 1, gs.make_T1(), 2)
    spec2 = next(s for s in enumerate_cut_specs(g) if s.cut_color == 2)
    gbar = gs.simple_cut(g, spec2)
    a, b = other_colors(2)
    cycles = gs.bicolored_cycles(gbar, a, b).cycles
    assert len(cycles) == 2
    ea = next(e for e in gbar.edges_of_color(a) if all(v in cycles[0] for v in e))
    eb = next(e for e in gbar.edges_of_color(b) if all(v in cycles[1] for v in e))
    with pytest.raises(MoveError, match="different"):
        gs.simple_cut(gbar, cut_spec(2, ea, eb))


def test_cut_rejects_wrong_color_edge():
    with pytest.raises(MoveError, match="not an edge"):
        gs.simple_cut(gs.make_T1(), cut_spec(2, (2, 3), (2, 3)))


def test_cut_splits_cycle_counts():
    for g in catalog_graphs(6):
        for spec in enumerate_cut_specs(g):
            gbar = gs.simple_cut(g, spec)
            a, b = other_colors(spec.cut_color)
            before = gs.cycle_counts(g)
            after = gs.cycle_counts(gbar)
            key_ab = tuple(sorted((a, b)))
            for pair, count in before.items():
                want = count + 1 if pair == key_ab else count
                assert after[pair] == want
            assert gbar.n == g.n + 2
            assert chi(gbar) == chi(g)
            assert bip(gbar) == bip(g)


# ============================================================
# differential check of the cut against the decomposition-based one
# ============================================================
#
# The reference below locates both cut edges by scanning every cycle of a
# full {a,b}-decomposition and keeps each arc's ends as it walks them; the
# package walks only the cycle through edge_a.


def _reference_locate(g, a, b, ea, eb):
    for cyc in gs.bicolored_cycles(g, a, b).cycles:
        L = len(cyc)
        k_a = k_b = None
        for k in range(L):
            pair = tuple(sorted((cyc[k], cyc[(k + 1) % L])))
            if k % 2 == 0 and pair == ea:
                k_a = k
            if k % 2 == 1 and pair == eb:
                k_b = k
        if k_a is not None and k_b is not None:
            return cyc, k_a, k_b
        if k_a is not None or k_b is not None:
            raise MoveError(f"edges {ea} and {eb} lie on different ({a},{b})-cycles")
    raise MoveError(f"no ({a},{b})-cycle through edges {ea} and {eb}")


def _reference_cut(g, spec):
    c = spec.cut_color
    a, b = other_colors(c)
    ea, eb = spec.edge_a, spec.edge_b
    if not g.has_edge(a, *ea):
        raise MoveError(f"{ea} is not an edge of color {a}")
    if not g.has_edge(b, *eb):
        raise MoveError(f"{eb} is not an edge of color {b}")
    cyc, k_a, k_b = _reference_locate(g, a, b, ea, eb)
    L = len(cyc)

    def arc(start, stop):
        out = [cyc[start % L]]
        k = start
        while k % L != stop % L:
            k += 1
            out.append(cyc[k % L])
        return out

    arc1, arc2 = arc(k_a + 1, k_b), arc(k_b + 1, k_a)
    if spec.arc_vertex in arc1:
        arc_z1, arc_z2 = arc1, arc2
    elif spec.arc_vertex in arc2:
        arc_z1, arc_z2 = arc2, arc1
    else:
        raise MoveError(f"arc vertex {spec.arc_vertex} is not on the cut cycle")
    z1, z2 = g.n + 1, g.n + 2
    rows = [list(m) + [0, 0] for m in g.matchings]
    for z, arc_z in ((z1, arc_z1), (z2, arc_z2)):
        end_a = arc_z[0] if arc_z is arc1 else arc_z[-1]
        end_b = arc_z[-1] if arc_z is arc1 else arc_z[0]
        rows[a][z], rows[a][end_a] = end_a, z
        rows[b][z], rows[b][end_b] = end_b, z
    rows[c][z1], rows[c][z2] = z2, z1
    return gs.core.graph_from_matchings(z2, *rows)


def _reference_cut_specs(g):
    for c in gs.COLORS:
        a, b = other_colors(c)
        for ea in g.edges_of_color(a):
            for eb in g.edges_of_color(b):
                try:
                    cyc, k_a, k_b = _reference_locate(g, a, b, ea, eb)
                except MoveError:
                    continue
                L = len(cyc)
                heads = (cyc[(k_a + 1) % L], cyc[(k_b + 1) % L])
                yield gs.CutSpec(c, ea, eb, heads[0])
                if heads[1] != heads[0]:
                    yield gs.CutSpec(c, ea, eb, heads[1])


def _outcome(move, *args):
    """The graph a move returns, or the type and message of its error."""
    try:
        return move(*args)
    except MoveError as exc:
        return type(exc), str(exc)


def test_cut_matches_the_decomposition_based_cut():
    graphs = catalog_graphs(8)
    # Each catalog graph cut once per color: inputs with two cycles of the
    # cut pair, so edge pairs on different cycles are exercised too.
    graphs += [gs.simple_cut(g, next(s for s in enumerate_cut_specs(g) if s.cut_color == c))
               for g in catalog_graphs(8) for c in gs.COLORS]
    for g in graphs:
        assert gs.is_contracted(g) == all(k == 1 for k in gs.cycle_counts(g).values())
        assert list(enumerate_cut_specs(g)) == list(_reference_cut_specs(g))
        for c in gs.COLORS:
            a, b = other_colors(c)
            for ea, eb in itertools.product(g.edges_of_color(a), g.edges_of_color(b)):
                for x in range(g.n + 2):
                    spec = gs.CutSpec(c, ea, eb, x)
                    assert _outcome(gs.simple_cut, g, spec) == _outcome(_reference_cut, g, spec)
    for g in (e.graph for e in enumerate_contracted(10).classes):
        assert gs.is_contracted(g)
        assert list(enumerate_cut_specs(g)) == list(_reference_cut_specs(g))


def test_cut_with_unsorted_edges_cuts_like_its_sorted_twin():
    # The decomposition-based cut compared sorted pairs only, so a hand-built
    # spec with an unsorted edge was reported as lying on different cycles.
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 4)
    sorted_cut = gs.simple_cut(g, cut_spec(2, (7, 8), (5, 6), arc_vertex=6))
    assert gs.simple_cut(g, gs.CutSpec(2, (8, 7), (6, 5), 6)) == sorted_cut
    assert gs.simple_cut(g, gs.CutSpec(2, (8, 7), (5, 6), 6)) == sorted_cut
    with pytest.raises(MoveError, match="different"):
        _reference_cut(g, gs.CutSpec(2, (8, 7), (5, 6), 6))


# ============================================================
# simple glue
# ============================================================


def test_glue_requires_c_edge_and_distinct_cycles():
    g = gs.make_T1()
    with pytest.raises(MoveError, match="no color-2 edge"):
        gs.simple_glue(g, GlueSpec(2, (1, 2)))
    # (1,4) is a color-2 edge but the hexagon is a single {0,1}-cycle
    with pytest.raises(MoveError, match="single"):
        gs.simple_glue(g, GlueSpec(2, (1, 4)))


def test_glue_inverts_cut_everywhere():
    for g in catalog_graphs(6):
        for spec in enumerate_cut_specs(g):
            gbar = gs.simple_cut(g, spec)
            back = gs.simple_glue(gbar, GlueSpec(spec.cut_color, (g.n + 1, g.n + 2)))
            assert gs.are_isomorphic(back, g) is not None


def test_cut_inverts_glue_everywhere():
    # After any legal glue, cutting the welded edge pair with the matching
    # arc choice reproduces the pre-glue graph.
    for g in catalog_graphs(6):
        for spec in enumerate_cut_specs(g):
            gbar = gs.simple_cut(g, spec)
            c = spec.cut_color
            a, b = other_colors(c)
            for glue in enumerate_glue_specs(gbar, c):
                w1, w2 = glue.pair
                r = gs.core.renumbering(gbar.n, (w1, w2))
                ea = tuple(sorted((r[gbar.neighbor(a, w1)], r[gbar.neighbor(a, w2)])))
                eb = tuple(sorted((r[gbar.neighbor(b, w1)], r[gbar.neighbor(b, w2)])))
                h = gs.simple_glue(gbar, glue)
                recut = gs.simple_cut(h, cut_spec(c, ea, eb,
                                                  arc_vertex=r[gbar.neighbor(a, w1)]))
                assert gs.are_isomorphic(recut, gbar) is not None


def test_glue_conservation():
    for g in catalog_graphs(6):
        for spec in enumerate_cut_specs(g):
            gbar = gs.simple_cut(g, spec)
            for glue in enumerate_glue_specs(gbar, spec.cut_color):
                h = gs.simple_glue(gbar, glue)
                assert h.n == gbar.n - 2
                assert chi(h) == chi(gbar)
                assert bip(h) == bip(gbar)
                a, b = other_colors(spec.cut_color)
                key_ab = tuple(sorted((a, b)))
                before = gs.cycle_counts(gbar)
                after = gs.cycle_counts(h)
                for pair, count in before.items():
                    want = count - 1 if pair == key_ab else count
                    assert after[pair] == want


# ============================================================
# cut-and-glue
# ============================================================


def test_cut_and_glue_identity():
    g = gs.make_P2()
    spec = next(iter(enumerate_cut_specs(g)))
    h = gs.cut_and_glue(g, spec, GlueSpec(spec.cut_color, (g.n + 1, g.n + 2)))
    assert gs.are_isomorphic(h, g) is not None


def test_cut_and_glue_preserves_hamiltonicity_when_legal():
    g = gs.make_T(2)
    sp = gs.split_off_T1(g)
    move = sp.trace.steps[0][0]
    h = gs.apply_move(g, move)
    assert h.n == 10
    assert gs.is_contracted(h)
    assert bip(h)
    assert chi(h) == -2


def test_cut_and_glue_color_mismatch():
    g = gs.make_P2()
    spec = next(iter(enumerate_cut_specs(g)))
    other = (spec.cut_color + 1) % 3
    with pytest.raises(MoveError, match="same chosen color"):
        gs.cut_and_glue(g, spec, GlueSpec(other, (1, 2)))


def _glue_after_cut(g, cut, glue):
    """cut_and_glue as a built cut graph and a simple glue on it."""
    if cut.cut_color != glue.cut_color:
        raise MoveError("cut and glue phases must use the same chosen color")
    return gs.simple_glue(gs.simple_cut(g, cut), glue)


def _glue_specs(gbar, c):
    """Every color-c edge of gbar as a glue in both orders (legal ones and pairs
    on one cycle), then a non-edge, a color mismatch and zero, out-of-range and
    negative vertices.  A color outside 0..2 keeps the pairs of color c mod 3."""
    n, m = gbar.n, gbar.matchings[c % 3]
    pairs = [(u, m[u]) for u in range(1, n + 1)]
    pairs += [(1, next(v for v in range(2, n + 1) if v != m[1])),
              (0, 1), (1, 0), (n + 1, 1), (1, n + 1), (-1, 1), (0, 0)]
    specs = [GlueSpec(c, pair) for pair in pairs]
    return specs + [GlueSpec((c + 1) % 3, pairs[0]), GlueSpec(7, pairs[0])]


def test_cut_and_glue_matches_glue_after_cut():
    """The fused move gives the built cut graph's glue result or error, for
    every cut spec of the catalog through n=8 and a few illegal ones."""
    seen = {"legal": 0}
    for g in catalog_graphs(8):
        cuts = list(enumerate_cut_specs(g))
        cuts += [cut_spec(2, (1, g.matchings[0][1]), (1, g.matchings[0][1]), arc_vertex=1),
                 dataclasses.replace(cuts[0], arc_vertex=g.n + 5),
                 dataclasses.replace(cuts[0], cut_color=4)]
        for cut in cuts:
            try:
                gbar = gs.simple_cut(g, cut)
            except MoveError:
                gbar = gs.simple_cut(g, cuts[0])  # any glues: the cut's error comes first
            for glue in _glue_specs(gbar, cut.cut_color):
                want = _outcome(_glue_after_cut, g, cut, glue)
                assert _outcome(gs.cut_and_glue, g, cut, glue) == want, (g, cut, glue)
                key = "legal" if isinstance(want, gs.ColoredGraph) else want[1].split()[0]
                seen[key] = seen.get(key, 0) + 1
    # Every outcome occurs: a result; the cut's errors on a non-edge ("(1,"),
    # an arc vertex off the cycle ("arc") and a bad color ("invalid"); the
    # glue's on a non-edge ("no"), a pair on one cycle ("glue") and a color
    # mismatch ("cut").
    assert set(seen) == {"legal", "(1,", "arc", "invalid", "no", "glue", "cut"}, seen
    assert seen["legal"] > 1000, seen


# ============================================================
# interchange
# ============================================================


def test_interchange_p1p1_all_choices_give_p2():
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_P1(), 1)
    seam = next(s for s in gs.find_seams(g) if s.proper)
    p2 = gs.make_P2()
    for u_new in range(1, 5):
        for v_new in range(1, 5):
            h = gs.interchange(g, seam, u_new, v_new)
            assert h.n == 6
            assert gs.are_isomorphic(h, p2) is not None


def test_interchange_identity():
    g = gs.connected_sum(gs.make_T1(), 6, gs.make_T1(), 1)
    seam = next(s for s in gs.find_seams(g) if s.proper and len(s.side_a) == 5)
    g1, a1, g2, a2 = gs.extract_summands(g, seam)
    h = gs.interchange(g, seam, a1, a2)
    assert gs.are_isomorphic(h, g) is not None


def test_interchange_type_rule_split():
    # Both summands bipartite: exactly the opposite-type pairs are legal,
    # with types anchored to the parent graph's bipartition.
    g = gs.connected_sum(gs.make_T1(), 6, gs.make_T1(), 1)
    seam = next(s for s in gs.find_seams(g) if s.proper and len(s.side_a) == 5)
    legal = illegal = 0
    for u_new in range(1, 7):
        for v_new in range(1, 7):
            try:
                h = gs.interchange(g, seam, u_new, v_new)
            except MoveError:
                illegal += 1
                continue
            legal += 1
            assert bip(h)
            assert h.n == 10
    assert legal == 18 and illegal == 18


def test_interchange_needs_proper_seam():
    g = gs.make_T1()
    seam = gs.find_seams(g)[0]
    with pytest.raises(MoveError, match="proper"):
        gs.interchange(g, seam, 1, 1)


# ============================================================
# traces
# ============================================================


def test_empty_trace():
    g = gs.make_T1()
    trace, final = gs.record_trace(g, [])
    assert final == g
    assert gs.verify_trace(g, trace) == g


def test_trace_tamper_detection_names_step():
    g = gs.make_T(2)
    sp = gs.split_off_T1(g)
    steps = list(sp.trace.steps)
    move, _ = steps[1]
    steps[1] = (move, "corrupted")
    bad = gs.MoveTrace(sp.trace.initial, tuple(steps))
    with pytest.raises(TraceError, match="step 2"):
        gs.verify_trace(g, bad)


def test_trace_initial_mismatch():
    g = gs.make_T(2)
    sp = gs.split_off_T1(g)
    with pytest.raises(TraceError, match="initial"):
        gs.verify_trace(gs.make_P(2), sp.trace)


def test_trace_replay_deterministic():
    g = gs.make_T(2)
    sp = gs.split_off_T1(g)
    assert gs.verify_trace(g, sp.trace) == gs.verify_trace(g, sp.trace)


def test_interchange_move_in_trace():
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_P1(), 1)
    seam = next(s for s in gs.find_seams(g) if s.proper)
    move = Interchange(seam.edges, 2, 3)
    trace, final = gs.record_trace(g, [move])
    assert gs.verify_trace(g, trace) == final
    assert gs.are_isomorphic(final, gs.make_P2()) is not None


def test_interchange_step_derives_its_seam_once(monkeypatch):
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_P1(), 1)
    seam = next(s for s in gs.find_seams(g) if s.proper)
    derive, calls = gs.core._seam_from_triple, []

    def counted(h, triple):
        calls.append(triple)
        return derive(h, triple)

    monkeypatch.setattr(gs.core, "_seam_from_triple", counted)
    monkeypatch.setattr(gs.moves, "_seam_from_triple", counted)
    gs.apply_move(g, Interchange(seam.edges, 2, 3))
    assert calls == [seam.edges]


def test_interchange_move_rejects_non_seam():
    g = gs.make_T1()
    bogus = ((1, 2), (4, 5), (3, 6))  # removal leaves the hexagon connected
    with pytest.raises(MoveError, match="not a seam"):
        gs.apply_move(g, Interchange(bogus, 1, 1))
    star = ((1, 2), (2, 3), (2, 5))  # the trivial seam at vertex 2
    with pytest.raises(MoveError, match="proper"):
        gs.apply_move(g, Interchange(star, 1, 1))


# ============================================================
# fingerprints
# ============================================================


@pytest.mark.parametrize("k, weld", [(1, False), (2, False), (1024, False), (2048, False),
                                     (2048, True)])
def test_fingerprint_text_is_the_canonical_graph_written_out(k, weld):
    """Numerals read from the table (n <= 4096, down to rows of two entries
    at n = 2) or through str (n = 4098) give the text of the canonical
    graph's rows.  k = 1 stands for L, the one graph on 2 vertices."""
    if k == 1:
        g = gs.make_L()
    else:
        g = gs.connected_sum(prism(k), 1, gs.make_P1(), 1) if weld else prism(k)
    rows = gs.canonical_graph(g).matchings
    assert gs.fingerprint(g) == f"{g.n}:" + ":".join(".".join(str(x) for x in m[1:]) for m in rows)


def test_fingerprint_is_isomorphism_invariant():
    import random
    rng = random.Random(11)
    for g in catalog_graphs(8):
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = gs.relabel(g, {u: perm[u - 1] for u in range(1, g.n + 1)})
        assert gs.fingerprint(h) == gs.fingerprint(g)
        assert gs.canonical_graph(h) == gs.canonical_graph(g)


def test_fingerprint_of_disconnected_graph():
    two_l = gs.validate(4, [(c, u, v) for c in gs.COLORS
                            for (u, v) in ((1, 2), (3, 4))])
    shuffled = gs.relabel(two_l, {1: 3, 2: 4, 3: 1, 4: 2})
    assert gs.fingerprint(two_l) == gs.fingerprint(shuffled)


def test_fingerprint_separates_classes():
    fps = [gs.fingerprint(e.graph) for e in enumerate_contracted(10).classes]
    assert len(set(fps)) == len(fps)


def test_fingerprint_canonical_is_lossless():
    g = gs.make_P(3)
    fp = gs.fingerprint(g)
    n_str, *rows = fp.split(":")
    rebuilt = gs.validate(int(n_str), [
        (c, u, int(img))
        for c, row in enumerate(rows)
        for u, img in enumerate(row.split("."), start=1) if u < int(img)
    ])
    assert gs.are_isomorphic(rebuilt, g) is not None
