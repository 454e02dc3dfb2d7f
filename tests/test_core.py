import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gemsurf as gs
from gemsurf import ValidationError, core
from gemsurf.catalog import enumerate_contracted
from gemsurf.core import _components, _least_roots, _m0_entry3, _maps_onto, graph_from_matchings
from gemsurf.moves import enumerate_cut_specs
from test_golden import _disjoint_union, circ, p2_hexagon, prism, random_contracted

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
    assert g == gs.make_T(1)


def test_validate_p1():
    g = gs.validate(4, [(0, 1, 2), (0, 3, 4), (1, 2, 3), (1, 4, 1), (2, 1, 3), (2, 2, 4)])
    assert g == gs.make_P(1)


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
    cyc = gs.bicolored_cycles(gs.make_T(1), 0, 1)
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
    assert gs.is_contracted(gs.make_T(1))
    assert gs.is_contracted(gs.make_L())


def test_contracted_implies_simple():
    for n in (4, 6, 8, 10, 12):
        for e in enumerate_contracted(n).classes:
            assert e.graph.is_simple()


# ============================================================
# bipartiteness
# ============================================================


def test_bipartite_t1():
    b = gs.is_bipartite(gs.make_T(1))
    assert b.blacks == frozenset({1, 3, 5})
    assert b.whites == frozenset({2, 4, 6})


def test_bipartite_p1_none():
    assert gs.is_bipartite(gs.make_P(1)) is None


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
    g = gs.make_T(1)
    h = gs.relabel(g, {1: 3, 2: 4, 3: 5, 4: 6, 5: 1, 6: 2})
    m = gs.are_isomorphic(g, h)
    check_iso_witness(g, h, m)
    back = gs.are_isomorphic(h, g)
    check_iso_witness(h, g, back)


def test_iso_t1_vs_p2_and_l_vs_p1():
    assert gs.are_isomorphic(gs.make_T(1), p2_hexagon()) is None
    assert gs.are_isomorphic(gs.make_L(), gs.make_P(1)) is None


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
# canonical_graph and are_isomorphic stop a root or a candidate at its first
# differing m0 entry and skip roots by orbit; the references below are a
# plain dict walk from every root, each taken to its end.


def full_encoding(g, root):
    """Root's component labelled by first visit, neighbours in colour order:
    ((size, m0, m1, m2), visit order)."""
    label, order = {root: 1}, [root]
    for u in order:
        for m in g.matchings:
            if m[u] not in label:
                label[m[u]] = len(order) + 1
                order.append(m[u])
    return (len(order), *(tuple(label[m[u]] for u in order) for m in g.matchings)), order


def unpruned_canonical(g):
    least = {}
    for root in range(1, g.n + 1):
        enc, order = full_encoding(g, root)
        key = min(order)
        least[key] = min(least.get(key, enc), enc)
    rows = [[0], [0], [0]]
    offset = 0
    for (k, *enc_rows) in sorted(least.values()):
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
        enc, order = full_encoding(g, root)
        for dst in range(1, h.n + 1):
            if dst not in used:
                h_enc, image = full_encoding(h, dst)
                if h_enc == enc:
                    break
        else:
            return None
        mapping.update(zip(order, image))
        used.update(image)
    return mapping


def copies(g, k):
    """k disjoint copies of g, the i-th on vertices i*n+1 .. (i+1)*n."""
    return _disjoint_union(*[g] * k)


def tie_heavy_graphs():
    """Inputs whose roots tie on long m0 prefixes or in full: unions of equal
    components, every catalog class at n <= 10, simple cuts, the symmetric
    circ(66, 3), circ(130, 3), prisms, T(5) and P(9), and a prism beside a
    random graph twice, each also relabelled."""
    rng = random.Random(11)
    graphs = [copies(g, k) for g in (gs.make_L(), gs.make_P(1), gs.make_T(1))
              for k in (2, 3, 5)]
    graphs += [e.graph for n in range(2, 11, 2) for e in enumerate_contracted(n).classes]
    for source in (gs.make_T(2), gs.make_P(3), copies(gs.make_P(1), 2)):
        graphs += [gs.simple_cut(source, spec) for spec in enumerate_cut_specs(source)][::3]
    graphs += [circ(66, 3), circ(130, 3), gs.make_T(5), gs.make_P(9)]
    graphs += [prism(k) for k in range(4, 33, 2)]
    other = random_contracted(rng, 30, False)
    graphs.append(_disjoint_union(prism(8), other, other))
    return graphs + [gs.relabel(g, random_relabeling(g, rng)) for g in graphs]


def test_canonical_graph_matches_full_scan_on_ties():
    graphs = tie_heavy_graphs()
    assert any(not gs.is_connected(g) for g in graphs)
    assert any(not gs.is_contracted(g) for g in graphs)
    for g in graphs:
        assert gs.canonical_graph(g) == unpruned_canonical(g)


def random_matchings_graph(rng, n):
    """Three independent random perfect matchings on 1..n: multi-edges and
    several components are common."""
    rows = []
    for _ in range(3):
        vs = list(range(1, n + 1))
        rng.shuffle(vs)
        row = [0] * (n + 1)
        for u, v in zip(vs[::2], vs[1::2]):
            row[u], row[v] = v, u
        rows.append(row)
    return graph_from_matchings(n, *rows)


def test_encoder_matches_full_scan_on_random_matchings():
    rng = random.Random(40)
    graphs = [random_matchings_graph(rng, rng.randrange(2, 41, 2)) for _ in range(600)]
    assert any(not gs.is_connected(g) for g in graphs)
    assert 100 <= sum(g.is_simple() for g in graphs) <= 500
    for g in graphs:
        assert gs.canonical_graph(g) == unpruned_canonical(g)
        h = gs.relabel(g, random_relabeling(g, rng))
        assert gs.are_isomorphic(g, h) == unpruned_witness(g, h)


def test_m0_entry2_matches_the_full_walk():
    # canonical_graph walks only the roots of a simple component whose m0
    # entries 2 and 3, read off the neighbourhood, are least; they must be
    # exactly the roots at the least entries the full walk finds.
    rng = random.Random(41)
    graphs = [g for g in tie_heavy_graphs() if g.is_simple()]
    graphs += [g for g in (random_matchings_graph(rng, rng.randrange(4, 41, 2))
                           for _ in range(600)) if g.is_simple()]
    assert len(graphs) > 300
    for g in graphs:
        for comp in _components(g):
            heads = {r: full_encoding(g, r)[0][1][2:4] for r in comp}
            low = min(heads.values())
            assert _least_roots(g.matchings, comp) == [r for r in comp if heads[r] == low]
    comp = range(1, 3)
    assert _least_roots(gs.make_L().matchings, comp) is comp


def test_m0_entry3_matches_the_full_walk():
    rng = random.Random(42)
    graphs = [g for g in tie_heavy_graphs() if g.is_simple()]
    randoms = []
    while len(randoms) < 600:
        g = random_matchings_graph(rng, rng.randrange(4, 41, 2))
        if g.is_simple():
            randoms.append(g)
    for g in graphs + randoms:
        for root in range(1, g.n + 1):
            assert _m0_entry3(g.matchings, root) == full_encoding(g, root)[0][1][3]


def test_each_component_keeps_its_own_least_roots():
    """Every root at the least m0 entries 2 and 3 of the whole graph lies
    outside vertex 1's component; that component must still be labelled
    from its own least roots."""
    for parts in ((prism(8), gs.make_P(3)), (prism(8), gs.make_T(2), prism(6))):
        g = _disjoint_union(*parts)
        heads = {r: full_encoding(g, r)[0][1][2:4] for r in range(1, g.n + 1)}
        low = min(heads.values())
        assert all(r > parts[0].n for r in heads if heads[r] == low)
        assert gs.canonical_graph(g) == unpruned_canonical(g)


def test_reduce_races_few_roots(monkeypatch):
    """Filtering roots by m0 entries 2 and 3 leaves few to race: reduce of
    the seeded bipartite n=66 graph runs 89 races, where a filter on entry
    2 alone ran 395."""
    races = 0
    race = core._race

    def counted(*args):
        nonlocal races
        races += 1
        return race(*args)

    monkeypatch.setattr(core, "_race", counted)
    gs.reduce(random_contracted(random.Random(66), 66, True))
    assert races <= 120


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
    g = gs.connected_sum(gs.make_T(1), 1, gs.make_P(1), 1)
    assert g.n == 8


def test_sum_reproduces_figure_graph():
    # P1 welded at u1 with the hexagon welded at its vertex 4; ids:
    # u2,u3,u4 -> 1,2,3 and v1,v2,v3,v5,v6 -> 4,5,6,7,8
    g = gs.connected_sum(gs.make_P(1), 1, gs.make_T(1), 4)
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
    # connected_sum welds any pair; reduction's welding of normal forms
    # reads the type rule off vertex parity, odd vertices black.
    t1 = gs.make_T(1)
    assert gs.connected_sum(t1, 6, t1, 2).n == 10
    weld = gs.reduction._weld
    with pytest.raises(gs.GemError, match="vertices 6 and 2 are both white"):
        weld(gs.form_T(1), 6, gs.form_T(1), 2)
    with pytest.raises(gs.GemError, match="vertices 5 and 1 are both black"):
        weld(gs.form_T(1), 5, gs.form_L(), 1)
    assert weld(gs.form_T(1), 6, gs.form_T(1), 1) == gs.connected_sum(t1, 6, t1, 1)
    assert weld(gs.form_T(1), 5, gs.form_P(1), 1).n == 8


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
    (lambda: gs.make_T(1), 6, 0),
    (lambda: gs.make_P(1), 4, 0),
    (p2_hexagon, 6, 1),
], ids=["make_T1-6-0", "make_P1-4-0", "make_P2-6-1"])
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
    g = gs.connected_sum(gs.make_P(1), 1, gs.make_T(1), 4)
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
    g = gs.connected_sum(gs.make_P(1), 1, gs.make_T(1), 4)
    for s in gs.find_seams(g):
        g1, u, g2, v = gs.extract_summands(g, s)
        back = gs.connected_sum(g1, u, g2, v)
        assert gs.are_isomorphic(back, g) is not None


def test_extract_figure_summands():
    g = gs.connected_sum(gs.make_P(1), 1, gs.make_T(1), 4)
    proper = [s for s in gs.find_seams(g) if s.proper]
    assert proper
    for s in proper:
        g1, _, g2, _ = gs.extract_summands(g, s)
        small, big = (g1, g2) if g1.n < g2.n else (g2, g1)
        assert gs.are_isomorphic(small, gs.make_P(1)) is not None
        assert gs.are_isomorphic(big, gs.make_T(1)) is not None


def test_extract_trivial_seam_gives_l():
    g = gs.make_T(1)
    for s in gs.find_seams(g):
        g1, u, g2, v = gs.extract_summands(g, s)
        small = g1 if g1.n == 2 else g2
        other = g2 if small is g1 else g1
        assert gs.are_isomorphic(small, gs.make_L()) is not None
        assert gs.are_isomorphic(other, g) is not None


def _unbound_seams():
    """Proper seams that do not carry P(2), each with P(2)'s seam triple and wrong sides."""
    g = p2_hexagon()
    s = next(s for s in gs.find_seams(g) if s.proper)  # sides {1,2,6} and {3,4,5}
    assert s.graph is g
    hand_built = gs.Seam(s.edges, frozenset({1, 2, 5}), frozenset({3, 4, 6}), True)
    moved = dataclasses.replace(s, side_a=s.side_a - {6}, side_b=s.side_b | {6})
    assert moved.graph is None
    # Swapping 5 and 6 keeps every edge of the triple but moves 5 to side A.
    h = gs.relabel(g, {**{v: v for v in range(1, 7)}, 5: 6, 6: 5})
    foreign = next(t for t in gs.find_seams(h) if t.proper)
    assert foreign.edges == s.edges and foreign.graph is h
    return g, {"hand-built": hand_built, "replaced": moved, "foreign": foreign}


@pytest.mark.parametrize("kind", ["hand-built", "replaced", "foreign"])
def test_unbound_seam_is_checked_again(kind):
    g, seams = _unbound_seams()
    with pytest.raises(gs.SeamError, match="not a seam of this graph"):
        gs.extract_summands(g, seams[kind])
    with pytest.raises(gs.SeamError, match="not a seam of this graph"):
        gs.interchange(g, seams[kind], 1, 1)


def test_seam_graph_is_outside_equality_and_repr():
    g = p2_hexagon()
    s = next(s for s in gs.find_seams(g) if s.proper)
    copy = dataclasses.replace(s)
    assert copy == s and hash(copy) == hash(s) and repr(copy) == repr(s)
    assert gs.extract_summands(g, copy) == gs.extract_summands(g, s)


def test_extract_rejects_bogus_seam():
    # P2's proper seam uses the color-2 edge {1,4}, which the hexagon shares,
    # but its sides are not a valid split of the hexagon graph.
    g = gs.make_T(1)
    seam = next(s for s in gs.find_seams(p2_hexagon()) if s.proper)
    with pytest.raises(gs.SeamError):
        gs.extract_summands(g, seam)


# ============================================================
# index maps, witnesses and seams from a side
# ============================================================


@pytest.mark.parametrize("n, removed", [
    (2, ()), (6, (1,)), (6, (6,)), (10, (4, 2, 4)), (30, range(3, 30, 3)), (30, frozenset({1, 30})),
])
def test_renumbering_is_an_index_map(n, removed):
    kept = [v for v in range(1, n + 1) if v not in set(removed)]
    want = [0] * (n + 1)
    for new, v in enumerate(kept, start=1):
        want[v] = new
    assert gs.core.renumbering(n, removed) == want


def _relabel_maps_onto(g, h, perm):
    try:
        return gs.relabel(g, perm) == h
    except ValidationError:
        return False


def test_edge_by_edge_witness_agrees_with_relabel():
    """The check ``verify_certificate`` runs on a conclude witness gives the
    verdict of building ``relabel(g, perm)`` and comparing, a ValidationError
    counting as invalid."""
    rng = random.Random(21)
    verdicts = []
    for g in [gs.make_L(), p2_hexagon(), gs.make_T(3), random_contracted(rng, 30, False)]:
        sigma = random_relabeling(g, rng)
        n = g.n
        for h in (g, gs.relabel(g, sigma)):
            pair_lists = [[(v, v) for v in range(1, n + 1)], sorted(sigma.items())]
            pair_lists += [sorted(random_relabeling(g, rng).items()) for _ in range(6)]
            good = pair_lists[0] if h is g else pair_lists[1]
            pair_lists += [
                good + [(1, good[-1][1])],                  # a duplicate key, last wins
                good + [(good[0][0], good[0][1])],          # a repeated entry
                good[1:],                                   # a missing entry
                good + [(n + 1, n + 1)],                    # an extra entry
                [(u, 0 if u == 1 else x) for u, x in good],  # a zero image
                [(0, x) if u == 1 else (u, x) for u, x in good],  # a zero key
                [(u, n + 1 if u == n else x) for u, x in good],   # an image out of range
                [(u, x) for u, x in good] + [(-1, 1)],      # a key out of range
            ]
            for pairs in pair_lists:
                perm = dict(pairs)
                verdict = _maps_onto(g, h, perm)
                assert verdict == _relabel_maps_onto(g, h, perm), (g, h, pairs)
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    # Both verdicts reach verify_certificate unchanged.
    g = gs.make_T(1)
    identity = [(v, v) for v in range(1, 7)]
    for pairs, ok in ((identity, True), ([(1, 1)] * 6, False),
                      ([(1, 2)] + identity, False),    # a repeated key, last wins in a dict
                      (identity + [(3, 3)], False)):   # a repeated pair
        cert = gs.ReductionCertificate(gs.form_T(1), gs.IsoCert(gs.form_T(1), tuple(pairs)))
        if ok:
            assert gs.verify_certificate(g, cert) == gs.form_T(1)
        else:
            with pytest.raises(gs.CertificateError, match="isomorphism witness onto T"):
                gs.verify_certificate(g, cert)


def _seam_from_side_by_edge_scan(g, side):
    """seam_from_side as it found the crossing edges by scanning every edge of g."""
    crossing = {}
    for (c, u, v) in g.edges():
        if (u in side) != (v in side):
            if c in crossing:
                raise gs.SeamError(f"more than one color-{c} edge crosses the side")
            crossing[c] = (u, v)
    if sorted(crossing) != list(gs.COLORS):
        raise gs.SeamError("side is not separated by one edge per color")
    s = gs.core._seam_from_triple(g, tuple(crossing[c] for c in gs.COLORS))
    if s is None or side not in (s.side_a, s.side_b):
        raise gs.SeamError("edge triple does not disconnect the graph along the given side")
    return s


def test_seam_from_side_matches_the_edge_scan():
    rng = random.Random(22)
    graphs = [gs.make_L(), p2_hexagon(), gs.connected_sum(gs.make_P(1), 1, gs.make_T(1), 4),
              gs.make_P(4), gs.relabel(gs.make_T(3), random_relabeling(gs.make_T(3), rng))]
    outcomes = set()
    for g in graphs:
        sides = [s.side_a for s in gs.find_seams(g)] + [s.side_b for s in gs.find_seams(g)]
        sides += [frozenset(rng.sample(range(1, g.n + 1), rng.randint(1, g.n))) for _ in range(40)]
        sides += [frozenset(), frozenset({0}), frozenset({1, g.n + 1}), frozenset({-2, 1, 2})]
        for side in sides:
            try:
                want = _seam_from_side_by_edge_scan(g, side)
            except gs.SeamError as exc:
                with pytest.raises(gs.SeamError) as got:
                    gs.core.seam_from_side(g, side)
                assert str(got.value) == str(exc), (g, side)
                outcomes.add(str(exc).split()[0])
            else:
                assert gs.core.seam_from_side(g, side) == want
                outcomes.add("seam")
    assert outcomes == {"seam", "more", "side", "edge"}, outcomes
