"""Fingerprints checked against an isomorphism test from outside the package.

Two graphs must have equal fingerprints exactly when networkx finds a
color-preserving isomorphism between them, and ``are_isomorphic`` must
give the same answer with a witness that maps one graph onto the other.
"""

import itertools
import random

import pytest

import gemsurf as gs
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
