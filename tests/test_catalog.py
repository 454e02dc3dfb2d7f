import random
import tracemalloc

import pytest

import gemsurf as gs
from gemsurf.catalog import (
    CatalogError,
    _contracted_rows,
    enumerate_contracted,
    parity_certificate,
)
from gemsurf.core import graph_from_matchings
from gemsurf.reduction import _cycle_rows, form_P, form_T
from test_core import full_encoding
from test_golden import p2_hexagon


def all_involutions(vertices):
    """Every fixed-point-free involution of ``vertices``, as (u, v) pairs."""
    if not vertices:
        yield []
        return
    u, rest = vertices[0], vertices[1:]
    for i, v in enumerate(rest):
        for pairs in all_involutions(rest[:i] + rest[i + 1:]):
            yield [(u, v)] + pairs


def standard_graph(n, m2):
    m0, m1 = _cycle_rows(n)
    return graph_from_matchings(n, m0, m1, m2)


def brute_force_count(n):
    count = 0
    for pairs in all_involutions(list(range(1, n + 1))):
        m2 = [0] * (n + 1)
        for u, v in pairs:
            m2[u], m2[v] = v, u
        count += gs.is_contracted(standard_graph(n, m2))
    return count


def test_search_yields_every_contracted_row_once():
    for n, want in ((2, 1), (4, 1), (6, 4), (8, 20), (10, 148)):
        rows = [tuple(row) for row in _contracted_rows(n)]
        assert len(rows) == len(set(rows)) == want == brute_force_count(n)
        assert all(gs.is_contracted(standard_graph(n, row)) for row in rows)


def test_orbit_sizes_sum_to_the_raw_row_count():
    # Each class is one orbit of the n cycle symmetries; its size is
    # n / |Aut(G)|, and an automorphism is a root whose full encoding
    # equals root 1's.
    for n in range(2, 13, 2):
        total = 0
        for e in enumerate_contracted(n).classes:
            enc = full_encoding(e.graph, 1)[0]
            aut = sum(full_encoding(e.graph, r)[0] == enc for r in range(1, n + 1))
            assert n % aut == 0
            total += n // aut
        assert total == sum(1 for _ in _contracted_rows(n))


def test_search_first_row_is_flat_and_small():
    # `gemsurf enum 4002 --bound 5000` must reach its first row without a
    # RecursionError and in memory linear in n.
    tracemalloc.start()
    try:
        row = list(next(_contracted_rows(4002)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert gs.is_contracted(standard_graph(4002, row))


def test_small_counts():
    assert len(enumerate_contracted(2).classes) == 1
    assert len(enumerate_contracted(4).classes) == 1
    assert len(enumerate_contracted(6).classes) == 2


def test_small_classes_match_the_generators():
    cat2 = enumerate_contracted(2)
    assert gs.are_isomorphic(cat2.classes[0].graph, gs.make_L()) is not None
    cat4 = enumerate_contracted(4)
    assert gs.are_isomorphic(cat4.classes[0].graph, gs.make_P(1)) is not None
    cat6 = enumerate_contracted(6)
    reps = [e.graph for e in cat6.classes]
    assert any(gs.are_isomorphic(g, gs.make_T(1)) for g in reps)
    assert any(gs.are_isomorphic(g, p2_hexagon()) for g in reps)


def test_bipartite_counts():
    assert enumerate_contracted(4).bipartite_count == 0
    assert enumerate_contracted(6).bipartite_count == 1
    assert enumerate_contracted(8).bipartite_count == 0


def test_torus_family_found():
    for n, m in ((6, 1), (10, 2)):
        cat = enumerate_contracted(n)
        bip = [e.graph for e in cat.classes if e.bipartite]
        assert any(gs.are_isomorphic(g, gs.make_T(m)) for g in bip)


def test_catalog_entries_valid():
    for n in (2, 4, 6, 8, 10, 12):
        cat = enumerate_contracted(n)
        for e in cat.classes:
            assert gs.is_contracted(e.graph)
            assert e.euler_characteristic == 3 - n // 2
            assert e.form == gs.canonical_of(n, e.bipartite)
            assert gs.fingerprint(e.graph) == e.fingerprint


@pytest.mark.parametrize("n", [10, 12])
def test_catalog_labels_each_class_once(monkeypatch, n):
    """One canonical labeling per class, and none through ``moves.fingerprint``."""
    labeled = []

    def counted(g):
        labeled.append(g.n)
        return gs.core.canonical_graph(g)

    def refused(g):
        raise AssertionError("enumerate_contracted labeled a graph through moves")

    monkeypatch.setattr(gs.catalog, "canonical_graph", counted)
    monkeypatch.setattr(gs.moves, "_canonical_rows", refused)
    cat = enumerate_contracted(n)
    assert labeled == [n] * len(cat.classes)


def test_classes_pairwise_nonisomorphic():
    cat = enumerate_contracted(8)
    for i, a in enumerate(cat.classes):
        for b in cat.classes[i + 1:]:
            assert gs.are_isomorphic(a.graph, b.graph) is None


def test_catalog_stable_across_runs_and_relabelings():
    cat = enumerate_contracted(8)
    again = enumerate_contracted(8)
    assert [e.fingerprint for e in cat.classes] == [e.fingerprint for e in again.classes]
    rng = random.Random(3)
    fps = set()
    for e in cat.classes:
        perm = list(range(1, 9))
        rng.shuffle(perm)
        h = gs.relabel(e.graph, {u: perm[u - 1] for u in range(1, 9)})
        fps.add(gs.fingerprint(h))
    assert fps == {e.fingerprint for e in cat.classes}


def test_bounds():
    with pytest.raises(CatalogError):
        enumerate_contracted(14)
    with pytest.raises(CatalogError):
        enumerate_contracted(7)
    assert enumerate_contracted(2, bound=2).n == 2


@pytest.mark.slow
def test_class_count_at_n14():
    assert len(enumerate_contracted(14, bound=14).classes) == 1161


@pytest.mark.slow
def test_no_bipartite_class_at_n16():
    cat = enumerate_contracted(16, bound=16)
    assert len(cat.classes) == 12504
    assert cat.bipartite_count == 0


# ============================================================
# parity certificate
# ============================================================


def test_parity_certificate_t1():
    g = gs.make_T(1)
    cert = parity_certificate(g, gs.is_bipartite(g))
    # blacks 1,3,5; whites indexed 2,4,6 via the color-0 matching
    assert cert.half == 3
    assert cert.sigma1 == (0, 3, 1, 2)
    assert cert.sigma2 == (0, 2, 3, 1)
    assert cert.sigma1_cycle_type == (3,)
    assert cert.sigma2_cycle_type == (3,)
    assert cert.ratio_cycle_type == (3,)
    assert (cert.sigma1_parity, cert.sigma2_parity, cert.ratio_parity) == \
        ("even", "even", "even")
    assert cert.consistent


def test_parity_certificate_t2():
    g = gs.make_T(2)
    cert = parity_certificate(g, gs.is_bipartite(g))
    assert cert.half == 5
    assert cert.sigma1_full_cycle and cert.sigma2_full_cycle and cert.ratio_full_cycle
    # odd-order full cycles are even permutations
    assert (cert.sigma1_parity, cert.sigma2_parity) == ("even", "even")
    assert cert.consistent


def test_parity_certificate_near_miss():
    # Bipartite, standard {0,1}-cycle, sigma2 a full 4-cycle, so the {0,1}
    # and {0,2} subgraphs are Hamiltonian; the parity argument then forces
    # the ratio even, hence not a full 4-cycle: {1,2} is not Hamiltonian.
    g = gs.validate(8, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8),
                        (1, 2, 3), (1, 4, 5), (1, 6, 7), (1, 1, 8),
                        (2, 1, 4), (2, 3, 6), (2, 5, 8), (2, 2, 7)])
    assert len(gs.bicolored_cycles(g, 0, 1).cycles) == 1
    assert len(gs.bicolored_cycles(g, 0, 2).cycles) == 1
    assert len(gs.bicolored_cycles(g, 1, 2).cycles) > 1
    cert = parity_certificate(g, gs.is_bipartite(g))
    assert cert.sigma1_full_cycle and cert.sigma2_full_cycle
    assert not cert.ratio_full_cycle
    assert cert.ratio_cycle_type == (2, 2)
    assert (cert.sigma1_parity, cert.sigma2_parity, cert.ratio_parity) == \
        ("odd", "odd", "even")
    assert not cert.consistent
    assert "cannot" in cert.diagnosis


def test_parity_certificate_rejects_unequal_parts():
    g = gs.make_T(1)
    bad = gs.Bipartition(frozenset({1, 2, 3, 5}), frozenset({4, 6}))
    with pytest.raises(CatalogError):
        parity_certificate(g, bad)
