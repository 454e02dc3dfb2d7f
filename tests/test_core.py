import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gemsurf as gs
from gemsurf import ValidationError
from gemsurf.catalog import enumerate_contracted
from gemsurf.core import _bfs_encoding, connected_components, graph_from_matchings
from gemsurf.moves import enumerate_cut_specs

T1_EDGES = [(0, 1, 2), (0, 3, 4), (0, 5, 6),
            (1, 2, 3), (1, 4, 5), (1, 6, 1),
            (2, 1, 4), (2, 2, 5), (2, 3, 6)]


def small_catalog():
    out = []
    for n in (2, 4, 6):
        out.extend(e.graph for e in enumerate_contracted(n).classes)
    return out


def check_iso_witness(g, h, mapping):
    assert sorted(mapping) == list(range(1, g.n + 1))
    assert sorted(mapping.values()) == list(range(1, h.n + 1))
    for c in gs.COLORS:
        for u in range(1, g.n + 1):
            assert mapping[g.neighbor(c, u)] == h.neighbor(c, mapping[u])


def random_relabeling(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return {u: perm[u - 1] for u in range(1, g.n + 1)}


# ============================================================
# validate
# ============================================================


def test_validate_t1():
    g = gs.validate(6, [(c, u, v) for (c, u, v) in T1_EDGES])
    assert g == gs.make_T1()


def test_validate_l():
    g = gs.validate(2, [(0, 1, 2), (1, 1, 2), (2, 1, 2)])
    assert g == gs.make_L()


def test_validate_duplicate_color():
    records = [(0, 1, 2), (0, 1, 3)]
    with pytest.raises(ValidationError, match="duplicate color 0 at vertex 1"):
        gs.validate(4, records)


def test_validate_missing_color():
    records = T1_EDGES[:-1]
    with pytest.raises(ValidationError, match="missing color 2"):
        gs.validate(6, records)


def test_validate_loop():
    with pytest.raises(ValidationError, match="loop"):
        gs.validate(2, [(0, 1, 1), (1, 1, 2), (2, 1, 2)])


def test_validate_out_of_range():
    with pytest.raises(ValidationError, match="out of range"):
        gs.validate(2, [(0, 1, 3), (1, 1, 2), (2, 1, 2)])


def test_validate_odd_count():
    with pytest.raises(ValidationError, match="even"):
        gs.validate(3, [])


# ============================================================
# bicolored cycles and contractedness
# ============================================================


def doubled_graph():
    # matching[0] = matching[2] = {1-2, 3-4}: two (0,2)-cycles
    return gs.validate(4, [(0, 1, 2), (0, 3, 4), (1, 1, 3), (1, 2, 4),
                           (2, 1, 2), (2, 3, 4)])


def test_t1_hexagon():
    cyc = gs.bicolored_cycles(gs.make_T1(), 0, 1)
    assert cyc.cycles == ((1, 2, 3, 4, 5, 6),)


def test_l_twocycle():
    cyc = gs.bicolored_cycles(gs.make_L(), 0, 1)
    assert cyc.cycles == ((1, 2),)


def test_doubled_two_cycles():
    cyc = gs.bicolored_cycles(doubled_graph(), 0, 2)
    assert cyc.cycles == ((1, 2), (3, 4))
    assert not gs.is_contracted(doubled_graph())


def test_cycles_partition_vertices():
    for g in small_catalog():
        for i, j in ((0, 1), (0, 2), (1, 2)):
            cycles = gs.bicolored_cycles(g, i, j).cycles
            seen = [v for cyc in cycles for v in cyc]
            assert sorted(seen) == list(range(1, g.n + 1))
            assert all(len(cyc) % 2 == 0 for cyc in cycles)


def test_is_contracted_examples():
    assert gs.is_contracted(gs.make_T1())
    assert gs.is_contracted(gs.make_L())


def test_contracted_implies_simple():
    for n in (4, 6, 8, 10, 12):
        for e in enumerate_contracted(n).classes:
            assert e.graph.is_simple()


# ============================================================
# bipartiteness
# ============================================================


def test_bipartite_t1():
    b = gs.is_bipartite(gs.make_T1())
    assert b.blacks == frozenset({1, 3, 5})
    assert b.whites == frozenset({2, 4, 6})


def test_bipartite_p1_none():
    assert gs.is_bipartite(gs.make_P1()) is None


def test_bipartite_l():
    b = gs.is_bipartite(gs.make_L())
    assert b.blacks == frozenset({1})


def test_bipartite_disconnected_raises():
    g = gs.validate(4, [(c, u, v) for c in gs.COLORS for (u, v) in ((1, 2), (3, 4))])
    with pytest.raises(gs.GemError):
        gs.is_bipartite(g)


# ============================================================
# isomorphism
# ============================================================


def test_iso_reflexive_and_witness():
    for g in small_catalog():
        m = gs.are_isomorphic(g, g)
        check_iso_witness(g, g, m)


def test_iso_symmetric_witness_inverts():
    g = gs.make_T1()
    h = gs.relabel(g, {1: 3, 2: 4, 3: 5, 4: 6, 5: 1, 6: 2})
    m = gs.are_isomorphic(g, h)
    check_iso_witness(g, h, m)
    back = gs.are_isomorphic(h, g)
    check_iso_witness(h, g, back)


def test_iso_t1_vs_p2_and_l_vs_p1():
    assert gs.are_isomorphic(gs.make_T1(), gs.make_P2()) is None
    assert gs.are_isomorphic(gs.make_L(), gs.make_P1()) is None


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_iso_relabel_invariance(rnd):
    g = gs.make_T(2)
    perm = random_relabeling(g, rnd)
    h = gs.relabel(g, perm)
    m = gs.are_isomorphic(g, h)
    assert m is not None
    check_iso_witness(g, h, m)


def test_iso_disconnected():
    two_l = gs.validate(4, [(c, u, v) for c in gs.COLORS for (u, v) in ((1, 2), (3, 4))])
    shuffled = gs.relabel(two_l, {1: 3, 2: 4, 3: 1, 4: 2})
    m = gs.are_isomorphic(two_l, shuffled)
    check_iso_witness(two_l, shuffled, m)


# ============================================================
# pruned encoder against the full scan
# ============================================================
#
# canonical_graph and are_isomorphic drop a root or a candidate as soon as
# its m0 prefix loses; the references below walk every root to the end.


def unpruned_canonical(g):
    encs = sorted(min(_bfs_encoding(g, root)[0] for root in sorted(comp))
                  for comp in connected_components(g))
    rows = [[0], [0], [0]]
    offset = 0
    for (k, *enc_rows) in encs:
        for row, enc in zip(rows, enc_rows):
            row.extend(offset + x for x in enc)
        offset += k
    return graph_from_matchings(g.n, *rows)


def unpruned_witness(g, h):
    if g.n != h.n:
        return None
    mapping, used = {}, set()
    for root in range(1, g.n + 1):
        if root in mapping:
            continue
        enc, order = _bfs_encoding(g, root)
        for dst in range(1, h.n + 1):
            if dst not in used:
                h_enc, image = _bfs_encoding(h, dst)
                if h_enc == enc:
                    break
        else:
            return None
        mapping.update(zip(order, image))
        used.update(image)
    return mapping


def copies(g, k):
    """k disjoint copies of g, the i-th on vertices i*n+1 .. (i+1)*n."""
    rows = [[0], [0], [0]]
    for i in range(k):
        for row, m in zip(rows, g.matchings):
            row.extend(i * g.n + v for v in m[1:])
    return graph_from_matchings(k * g.n, *rows)


def tie_heavy_graphs():
    """Inputs whose roots tie on long m0 prefixes: unions of equal components,
    every catalog class at n <= 10, and simple cuts, each also relabelled."""
    rng = random.Random(11)
    graphs = [copies(g, k) for g in (gs.make_L(), gs.make_P1(), gs.make_T1())
              for k in (2, 3, 5)]
    graphs += [e.graph for n in range(2, 11, 2) for e in enumerate_contracted(n).classes]
    for source in (gs.make_T(2), gs.make_P(3), copies(gs.make_P1(), 2)):
        graphs += [gs.simple_cut(source, spec) for spec in enumerate_cut_specs(source)][::3]
    return graphs + [gs.relabel(g, random_relabeling(g, rng)) for g in graphs]


def test_canonical_graph_matches_full_scan_on_ties():
    graphs = tie_heavy_graphs()
    assert any(not gs.is_connected(g) for g in graphs)
    assert any(not gs.is_contracted(g) for g in graphs)
    for g in graphs:
        assert gs.canonical_graph(g) == unpruned_canonical(g)


def test_are_isomorphic_witness_matches_full_scan():
    rng = random.Random(12)
    graphs = tie_heavy_graphs()
    for g in graphs:
        same_n = [h for h in graphs if h.n == g.n]
        for h in [g] + rng.sample(same_n, min(3, len(same_n))):
            h = gs.relabel(h, random_relabeling(h, rng))
            assert gs.are_isomorphic(g, h) == unpruned_witness(g, h)


# ============================================================
# connected sums
# ============================================================


def test_sum_vertex_count():
    g = gs.connected_sum(gs.make_T1(), 1, gs.make_P1(), 1)
    assert g.n == 8


def test_sum_reproduces_figure_graph():
    # P1 welded at u1 with the hexagon welded at its vertex 4; ids:
    # u2,u3,u4 -> 1,2,3 and v1,v2,v3,v5,v6 -> 4,5,6,7,8
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 4)
    expected = {
        (0, 2, 3), (0, 4, 5), (0, 7, 8), (0, 1, 6),
        (1, 1, 2), (1, 5, 6), (1, 4, 8), (1, 3, 7),
        (2, 1, 3), (2, 5, 7), (2, 6, 8), (2, 2, 4),
    }
    assert set(g.edges()) == expected


def test_sum_of_contracted_is_contracted():
    graphs = small_catalog()
    for g1, g2 in itertools.product(graphs, repeat=2):
        for v1 in range(1, g1.n + 1):
            for v2 in range(1, g2.n + 1):
                s = gs.connected_sum(g1, v1, g2, v2)
                assert s.n == g1.n + g2.n - 2
                assert gs.is_contracted(s)


def test_sum_type_rule():
    t1 = gs.make_T1()
    with pytest.raises(gs.GemError, match="type rule"):
        gs.connected_sum(t1, 6, t1, 2, enforce_type_rule=True)
    assert gs.connected_sum(t1, 6, t1, 1, enforce_type_rule=True).n == 10


def test_sum_bad_vertex():
    with pytest.raises(gs.GemError):
        gs.connected_sum(gs.make_L(), 3, gs.make_L(), 1)


# ============================================================
# seams
# ============================================================


def brute_force_seams(g):
    """Independent seam oracle: plain set-based BFS over edge triples."""
    found = []
    for triple in itertools.product(*(g.edges_of_color(c) for c in gs.COLORS)):
        removed = set(zip(gs.COLORS, triple))
        adjacency = {v: set() for v in range(1, g.n + 1)}
        for (c, u, v) in g.edges():
            if (c, (u, v)) in removed:
                continue
            adjacency[u].add(v)
            adjacency[v].add(u)
        comp = {1}
        frontier = [1]
        while frontier:
            u = frontier.pop()
            for v in adjacency[u]:
                if v not in comp:
                    comp.add(v)
                    frontier.append(v)
        rest = set(range(1, g.n + 1)) - comp
        if not rest:
            continue
        # rest must itself be one component
        start = min(rest)
        comp2 = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in adjacency[u]:
                if v not in comp2:
                    comp2.add(v)
                    frontier.append(v)
        if comp2 != rest:
            continue
        if not all((u in comp) != (v in comp) for (u, v) in triple):
            continue
        if len(comp) == 1 and len(rest) == 1:
            continue
        found.append((triple, frozenset(comp), frozenset(rest)))
    return found


@pytest.mark.parametrize("maker, trivial, proper", [
    (gs.make_T1, 6, 0),
    (gs.make_P1, 4, 0),
    (gs.make_P2, 6, 1),
])
def test_seams_against_oracle(maker, trivial, proper):
    g = maker()
    oracle = brute_force_seams(g)
    seams = gs.find_seams(g)
    assert len(seams) == len(oracle)
    keyed = {s.edges: (s.side_a, s.side_b) for s in seams}
    for (triple, a, b) in oracle:
        assert keyed[tuple(triple)] == (a, b)
    assert sum(1 for s in seams if not s.proper) == trivial
    assert sum(1 for s in seams if s.proper) == proper


def test_seams_l_empty():
    assert gs.find_seams(gs.make_L()) == []


def test_p3_has_proper_seams():
    seams = gs.find_seams(gs.make_P(3))
    assert sum(1 for s in seams if s.proper) >= 2
    assert sum(1 for s in seams if not s.proper) == 8


def test_trivial_seam_counts():
    for g in small_catalog():
        if g.n < 4:
            continue
        seams = gs.find_seams(g)
        assert sum(1 for s in seams if not s.proper) == g.n


def test_seams_relabel_stability():
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 4)
    rng = random.Random(7)
    perm = random_relabeling(g, rng)
    h = gs.relabel(g, perm)
    mapped = set()
    for s in gs.find_seams(g):
        edges = tuple(tuple(sorted((perm[u], perm[v]))) for (u, v) in s.edges)
        mapped.add(edges)
    assert mapped == {s.edges for s in gs.find_seams(h)}


# ============================================================
# extract_summands
# ============================================================


def test_extract_round_trip():
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 4)
    for s in gs.find_seams(g):
        g1, u, g2, v = gs.extract_summands(g, s)
        back = gs.connected_sum(g1, u, g2, v)
        assert gs.are_isomorphic(back, g) is not None


def test_extract_figure_summands():
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 4)
    proper = [s for s in gs.find_seams(g) if s.proper]
    assert proper
    for s in proper:
        g1, _, g2, _ = gs.extract_summands(g, s)
        small, big = (g1, g2) if g1.n < g2.n else (g2, g1)
        assert gs.are_isomorphic(small, gs.make_P1()) is not None
        assert gs.are_isomorphic(big, gs.make_T1()) is not None


def test_extract_trivial_seam_gives_l():
    g = gs.make_T1()
    for s in gs.find_seams(g):
        g1, u, g2, v = gs.extract_summands(g, s)
        small = g1 if g1.n == 2 else g2
        other = g2 if small is g1 else g1
        assert gs.are_isomorphic(small, gs.make_L()) is not None
        assert gs.are_isomorphic(other, g) is not None


def test_extract_rejects_bogus_seam():
    # P2's proper seam uses the color-2 edge {1,4}, which the hexagon shares,
    # but its sides are not a valid split of the hexagon graph.
    g = gs.make_T1()
    seam = next(s for s in gs.find_seams(gs.make_P2()) if s.proper)
    with pytest.raises(gs.SeamError):
        gs.extract_summands(g, seam)
