import pytest

import gemsurf as gs
from gemsurf import SurfaceError, nonorientable, orientable, sphere
from gemsurf.catalog import enumerate_contracted
from gemsurf.moves import enumerate_cut_specs, enumerate_glue_specs
from gemsurf.surfaces import classify_surface, complex_stats, crystallization_of
from test_golden import p2_hexagon


# Hand-derived complex counts: the 2-vertex graph gives two triangles glued
# along all three edge pairs (3 vertices, 3 edges); the 4-vertex graph gives
# four triangles with 5 identified edges... counts below follow the corner
# identification rule directly.


def test_complex_stats_l():
    st = complex_stats(gs.make_L())
    assert st.face_count == 2
    assert st.edge_count == 3
    assert st.vertex_count == 3
    assert st.euler_characteristic == 2


def test_complex_stats_p1():
    st = complex_stats(gs.make_P(1))
    assert st.face_count == 4
    assert st.edge_count == 6
    assert st.vertex_count == 3
    assert st.euler_characteristic == 1


def test_complex_stats_t1():
    st = complex_stats(gs.make_T(1))
    assert (st.face_count, st.edge_count, st.vertex_count) == (6, 9, 3)
    assert st.euler_characteristic == 0


def test_complex_counts_general():
    for n in (4, 6, 8):
        for e in enumerate_contracted(n).classes:
            st = complex_stats(e.graph)
            assert st.face_count == n
            assert st.edge_count == 3 * n // 2
            assert all(k >= 1 for k in st.vertex_count_per_label)
            assert st.vertex_count == 3  # contracted: one cycle per pair
            assert st.euler_characteristic == 3 - n // 2


def test_complex_stats_noncontracted():
    g = gs.simple_cut(gs.make_T(1),
                      gs.moves.cut_spec(2, (1, 2), (2, 3), arc_vertex=2))
    st = complex_stats(g)
    assert st.vertex_count_per_label[2] == 2
    assert st.euler_characteristic == 0  # cuts preserve chi


def test_complex_stats_disconnected_raises():
    g = gs.validate(4, [(c, u, v) for c in gs.COLORS for (u, v) in ((1, 2), (3, 4))])
    with pytest.raises(SurfaceError):
        complex_stats(g)


# ============================================================
# classification
# ============================================================


def test_classify_fixtures():
    assert classify_surface(gs.make_L()) == sphere()
    assert classify_surface(gs.make_P(1)) == nonorientable(1)
    assert classify_surface(gs.make_T(1)) == orientable(1)
    assert classify_surface(p2_hexagon()) == nonorientable(2)


def test_classify_requires_contracted():
    g = gs.validate(4, [(0, 1, 2), (0, 3, 4), (1, 1, 3), (1, 2, 4),
                        (2, 1, 2), (2, 3, 4)])
    with pytest.raises(SurfaceError):
        classify_surface(g)


def test_classify_catalog_both_derivations():
    # classify_surface cross-checks internally; re-derive here as well.
    for n in (2, 4, 6, 8, 10):
        for e in enumerate_contracted(n).classes:
            s = classify_surface(e.graph)
            chi = complex_stats(e.graph).euler_characteristic
            assert s.euler_characteristic == chi
            assert (s.kind != "nonorientable") == e.bipartite


def test_classify_invariant_under_contracted_moves():
    for n in (4, 6):
        for e in enumerate_contracted(n).classes:
            g = e.graph
            before = classify_surface(g)
            for cut in enumerate_cut_specs(g):
                gbar = gs.simple_cut(g, cut)
                for glue in enumerate_glue_specs(gbar, cut.cut_color):
                    h = gs.simple_glue(gbar, glue)
                    if gs.is_contracted(h):
                        assert classify_surface(h) == before


def test_crystallization_round_trip():
    surfaces = [sphere()]
    surfaces += [orientable(g) for g in (1, 2)]
    surfaces += [nonorientable(h) for h in (1, 2, 3, 4, 5)]
    for s in surfaces:
        g = crystallization_of(s)
        assert g.n <= 12
        assert classify_surface(g) == s


def test_crystallization_counts_and_parity():
    assert crystallization_of(nonorientable(3)).n == 8
    assert gs.is_bipartite(crystallization_of(orientable(2))) is not None


def test_surface_value_checks():
    assert sphere().euler_characteristic == 2
    assert orientable(2).euler_characteristic == -2
    assert nonorientable(2).euler_characteristic == 0
    with pytest.raises(SurfaceError):
        gs.SurfaceClass("orientable", 0)
    with pytest.raises(SurfaceError):
        gs.SurfaceClass("klein")
