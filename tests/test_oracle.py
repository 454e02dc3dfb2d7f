"""Fingerprints checked against an isomorphism test from outside the package.

Two graphs must have equal fingerprints exactly when networkx finds a
color-preserving isomorphism between them, and ``are_isomorphic`` must
give the same answer with a witness that maps one graph onto the other.
"""

import itertools
import random

import pytest

import gemsurf as gs
from gemsurf.catalog import _standard_cycle_matchings
from gemsurf.core import _seam_from_triple, connected_components, graph_from_matchings
from gemsurf.moves import enumerate_cut_specs

nx = pytest.importorskip("networkx")
SAME_COLORS = nx.algorithms.isomorphism.categorical_multiedge_match("color", None)


def to_networkx(g):
    h = nx.MultiGraph()
    h.add_edges_from((u, v, {"color": c}) for (c, u, v) in g.edges())
    return h


def relabelled(g, rng):
    images = list(range(1, g.n + 1))
    rng.shuffle(images)
    return gs.relabel(g, dict(zip(range(1, g.n + 1), images)))


def disjoint_union(*graphs):
    records, offset = [], 0
    for g in graphs:
        records += [(c, u + offset, v + offset) for (c, u, v) in g.edges()]
        offset += g.n
    return gs.validate(offset, records)


def assert_agree(g, h, isomorphic):
    """g and h are (graph, networkx copy) pairs; a witness must map g onto h."""
    assert nx.is_isomorphic(g[1], h[1], edge_match=SAME_COLORS) == isomorphic
    witness = gs.are_isomorphic(g[0], h[0])
    assert (witness is not None) == isomorphic
    if witness is not None:
        assert gs.relabel(g[0], witness) == h[0]


def assert_fingerprints_match_networkx(graphs):
    # Isomorphism is an equivalence, so comparing every member with its
    # class's first graph, and the first graphs with each other, covers
    # every pair.  are_isomorphic is held to the same answers.
    classes = {}
    for g in graphs:
        classes.setdefault(gs.fingerprint(g), []).append((g, to_networkx(g)))
    for first, *rest in classes.values():
        for h in rest:
            assert_agree(first, h, True)
    for (a, *_), (b, *_) in itertools.combinations(classes.values(), 2):
        assert_agree(a, b, False)


def test_catalog_classes_and_relabellings():
    rng = random.Random(8)
    graphs = [e.graph for n in (2, 4, 6, 8) for e in gs.enumerate_contracted(n).classes]
    assert_fingerprints_match_networkx(graphs + [relabelled(g, rng) for g in graphs])


def test_cut_graphs_and_relabellings():
    rng = random.Random(9)
    sources = [e.graph for n in (4, 6, 8) for e in gs.enumerate_contracted(n).classes]
    cuts = [gs.simple_cut(g, spec) for g in sources for spec in enumerate_cut_specs(g)]
    assert not any(gs.is_contracted(g) for g in cuts)
    assert_fingerprints_match_networkx(cuts + [relabelled(g, rng) for g in cuts])


def test_disjoint_unions_and_relabellings():
    rng = random.Random(10)
    classes = [e.graph for n in (2, 4, 6) for e in gs.enumerate_contracted(n).classes]
    unions = [disjoint_union(*(rng.choice(classes) for _ in range(rng.choice((2, 3)))))
              for _ in range(40)]
    assert not any(gs.is_connected(g) for g in unions)
    assert_fingerprints_match_networkx(unions + [relabelled(g, rng) for g in unions])


@pytest.mark.slow
def test_catalog_n12_partition_matches_networkx():
    """The 125 classes at n=12 are pairwise non-isomorphic, and seeded raw
    contracted involutions each match exactly one class, their fingerprint's.
    Every vertex has one edge of each color, so Weisfeiler-Lehman hashes
    cannot tell the classes apart; this runs VF2 on every pair."""
    entries = gs.enumerate_contracted(12).classes
    classes = [to_networkx(e.graph) for e in entries]
    assert len(classes) == 125
    for a, b in itertools.combinations(classes, 2):
        assert not nx.is_isomorphic(a, b, edge_match=SAME_COLORS)
    rng = random.Random(12)
    m0, m1 = _standard_cycle_matchings(12)
    hits = 0
    while hits < 20:
        vertices = list(range(1, 13))
        rng.shuffle(vertices)
        m2 = [0] * 13
        for u, v in zip(vertices[::2], vertices[1::2]):
            m2[u], m2[v] = v, u
        g = graph_from_matchings(12, m0, m1, m2)
        if not gs.is_contracted(g):
            continue
        h = to_networkx(g)
        matches = [k for k, c in enumerate(classes) if nx.is_isomorphic(h, c, edge_match=SAME_COLORS)]
        assert len(matches) == 1
        assert entries[matches[0]].fingerprint == gs.fingerprint(g)
        hits += 1


# ============================================================
# seams and components against a reference and networkx
# ============================================================


def components_without(g, removed):
    """Components of g once the (color, u, v) records in ``removed``, u < v,
    are taken out: the removed_edges mode connected_components used to have."""
    seen, comps = set(), []
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for c in gs.COLORS:
                v = g.matchings[c][u]
                if (c, min(u, v), max(u, v)) not in removed and v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(frozenset(comp))
    return comps


def reference_seam(g, triple):
    """The seam as the components of g minus the triple, as it was derived
    before ``_seam_from_triple`` walked its two sides."""
    comps = components_without(g, frozenset((c, u, v) for c, (u, v) in zip(gs.COLORS, triple)))
    if len(comps) != 2:
        return None
    a, b = comps if 1 in comps[0] else (comps[1], comps[0])
    if any((u in a) == (v in a) for (u, v) in triple):
        return None
    if len(a) == 1 and len(b) == 1:
        return None
    return gs.Seam(tuple(triple), a, b, proper=len(a) >= 2 and len(b) >= 2)


def random_triples(g, rng, k):
    """k triples whose entries are g's edges, edges spelled v-u, pairs with one
    end in vertex 1's component and one outside, or pairs naming no vertex."""
    comps = sorted(nx.connected_components(to_networkx(g)), key=min)
    first, rest = sorted(comps[0]), sorted(set(range(1, g.n + 1)) - comps[0])

    def entry(c):
        u, v = rng.choice(g.edges_of_color(c))
        kind = rng.randrange(10)
        if kind < 5:
            return u, v
        if kind < 7:
            return v, u
        if kind < 9 and rest:
            return tuple(sorted((rng.choice(first), rng.choice(rest))))
        return rng.choice(((0, u), (u, g.n + 1), (u, u)))

    return [tuple(entry(c) for c in gs.COLORS) for _ in range(k)]


def seam_inputs():
    """Catalog classes at n <= 10, seeded relabelled sums of them, and the
    disjoint unions of test_disjoint_unions_and_relabellings."""
    rng = random.Random(10)
    classes = [e.graph for n in (2, 4, 6) for e in gs.enumerate_contracted(n).classes]
    unions = [disjoint_union(*(rng.choice(classes) for _ in range(rng.choice((2, 3)))))
              for _ in range(40)]
    rng = random.Random(13)
    catalog = [e.graph for n in range(4, 11, 2) for e in gs.enumerate_contracted(n).classes]
    sums = []
    for _ in range(20):
        a, b = rng.choice(catalog[:7]), rng.choice(catalog[:7])
        sums.append(relabelled(gs.connected_sum(a, rng.randint(1, a.n), b, rng.randint(1, b.n)),
                               rng))
    return catalog + sums, unions


def test_seam_from_triple_matches_components_minus_triple():
    rng = random.Random(14)
    connected, unions = seam_inputs()
    found = {"proper": 0, "trivial": 0, "disconnected": 0}
    for g, union in [(g, False) for g in connected] + [(g, True) for g in unions]:
        triples = random_triples(g, rng, 60)
        if not union:
            triples += itertools.product(*(g.edges_of_color(c) for c in gs.COLORS))
        for triple in triples:
            seam = _seam_from_triple(g, triple)
            assert seam == reference_seam(g, triple), (g, triple)
            if seam is not None:
                found["disconnected" if union else "proper" if seam.proper else "trivial"] += 1
    assert all(found.values()), found


def test_connected_components_match_networkx():
    connected, unions = seam_inputs()
    for g in connected + unions:
        want = sorted((frozenset(c) for c in nx.connected_components(to_networkx(g))), key=min)
        assert connected_components(g) == want
