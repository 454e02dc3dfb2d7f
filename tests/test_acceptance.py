"""Acceptance suite: every criterion at its stated tolerance, one line each.

All checks are exact (combinatorial equalities); the stated runtime budgets
are asserted with wall-clock measurements.
"""

import random
import time
from contextlib import contextmanager

import gemsurf as gs
from gemsurf import fileio
from gemsurf.catalog import enumerate_contracted, parity_certificate
from gemsurf.core import seam_from_side
from gemsurf.moves import enumerate_cut_specs, enumerate_glue_specs
from gemsurf.reduction import form_P, form_T
from gemsurf.surfaces import classify_surface, complex_stats, crystallization_of
from test_golden import p2_hexagon


@contextmanager
def criterion(number, title):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title} ({time.monotonic() - start:.2f}s)")


def chi(g):
    return complex_stats(g).euler_characteristic


def bip(g):
    return gs.is_bipartite(g) is not None


def test_c1_catalog_counts():
    with criterion(1, "catalog counts 1/1/2 at n=2/4/6 in under a second"):
        start = time.monotonic()
        assert len(enumerate_contracted(2).classes) == 1
        assert len(enumerate_contracted(4).classes) == 1
        assert len(enumerate_contracted(6).classes) == 2
        assert time.monotonic() - start < 1.0


def test_c2_no_bipartite_on_4m_vertices():
    with criterion(2, "zero bipartite classes at n=4, 8, 12 within a minute"):
        start = time.monotonic()
        assert gs.enumerate_contracted(4).bipartite_count == 0
        assert gs.enumerate_contracted(8).bipartite_count == 0
        assert gs.enumerate_contracted(12).bipartite_count == 0
        assert time.monotonic() - start < 60.0


def test_c3_figure_replication():
    with criterion(3, "recorded cut-and-glue on the K4#torus weld lands on P(3)"):
        start = time.monotonic()
        g = gs.connected_sum(gs.make_P(1), 1, gs.make_T(1), 4)
        # the welded 8-vertex graph, exactly as drawn
        expected = {
            (0, 2, 3), (0, 4, 5), (0, 7, 8), (0, 1, 6),
            (1, 1, 2), (1, 5, 6), (1, 4, 8), (1, 3, 7),
            (2, 1, 3), (2, 5, 7), (2, 6, 8), (2, 2, 4),
        }
        assert set(g.edges()) == expected
        trace, final = gs.rewrite_TP1_to_P3(g, seam_from_side(g, frozenset({1, 2, 3})))
        assert len(trace.steps) == 1
        assert gs.verify_trace(g, trace) == final
        assert gs.are_isomorphic(final, gs.make_P(3)) is not None
        assert time.monotonic() - start < 1.0


def test_c4_normal_form_conformance():
    with criterion(4, "every class with n<=10 reduces to its predicted form, "
                      "certificates verify end to end, within a minute"):
        start = time.monotonic()
        for n in (2, 4, 6, 8, 10):
            for entry in enumerate_contracted(n).classes:
                form, cert = gs.reduce(entry.graph)
                assert form == gs.canonical_of(n, entry.bipartite)
                assert gs.verify_certificate(entry.graph, cert) == form
                if n == 8:
                    assert form == form_P(3)
                if n == 10:
                    assert form == (form_T(2) if entry.bipartite else form_P(4))
        assert time.monotonic() - start < 60.0


def test_c5_move_conservation_laws():
    with criterion(5, "exhaustive n<=8 cut/glue conservation and inversion "
                      "within five minutes"):
        start = time.monotonic()
        for n in (2, 4, 6, 8):
            for entry in enumerate_contracted(n).classes:
                g = entry.graph
                g_chi, g_bip = chi(g), bip(g)
                for cut in enumerate_cut_specs(g):
                    gbar = gs.simple_cut(g, cut)
                    assert gbar.n == n + 2
                    assert chi(gbar) == g_chi
                    assert bip(gbar) == g_bip
                    back = gs.simple_glue(
                        gbar, gs.GlueSpec(cut.cut_color, (n + 1, n + 2)))
                    assert gs.are_isomorphic(back, g) is not None
                    for glue in enumerate_glue_specs(gbar, cut.cut_color):
                        h = gs.simple_glue(gbar, glue)
                        assert h.n == n
                        assert chi(h) == g_chi
                        assert bip(h) == g_bip
        assert time.monotonic() - start < 300.0


def test_c6_classification_fixtures():
    with criterion(6, "surface fixtures and the two classifier derivations "
                      "agree on every class up to n=12"):
        assert classify_surface(gs.make_L()) == gs.sphere()
        assert classify_surface(gs.make_P(1)) == gs.nonorientable(1)
        assert classify_surface(gs.make_T(1)) == gs.orientable(1)
        assert classify_surface(p2_hexagon()) == gs.nonorientable(2)
        for n in (2, 4, 6, 8, 10, 12):
            for entry in enumerate_contracted(n).classes:
                # classify_surface raises on any disagreement between the
                # size/parity and Euler-characteristic derivations
                s = classify_surface(entry.graph)
                assert s.euler_characteristic == entry.euler_characteristic
                assert (s.kind != "nonorientable") == entry.bipartite


def test_c7_euler_characteristic_law():
    with criterion(7, "chi = 3 - n/2 on all catalog classes; family values "
                      "chi(P(m)) = 2-m and chi(T(m)) = 2-2m for m<=5"):
        for n in (2, 4, 6, 8, 10, 12):
            for entry in enumerate_contracted(n).classes:
                assert chi(entry.graph) == 3 - n // 2
        for m in (1, 2, 3, 4, 5):
            assert chi(gs.make_P(m)) == 2 - m
            assert chi(gs.make_T(m)) == 2 - 2 * m


def test_c8_parity_certificates():
    with criterion(8, "parity certificates for the 6- and 10-vertex torus "
                      "graphs report even full cycles and conclude consistency"):
        t1 = gs.make_T(1)
        cert = parity_certificate(t1, gs.is_bipartite(t1))
        assert cert.sigma1_cycle_type == (3,) and cert.sigma2_cycle_type == (3,)
        assert cert.ratio_cycle_type == (3,)
        assert (cert.sigma1_parity, cert.sigma2_parity, cert.ratio_parity) == \
            ("even", "even", "even")
        assert cert.consistent
        t2 = gs.make_T(2)
        cert2 = parity_certificate(t2, gs.is_bipartite(t2))
        assert cert2.sigma1_cycle_type == (5,) and cert2.sigma2_cycle_type == (5,)
        assert cert2.ratio_full_cycle
        assert (cert2.sigma1_parity, cert2.sigma2_parity) == ("even", "even")
        assert cert2.consistent


def test_c9_serialization_round_trips():
    with criterion(9, "100 randomized graph and trace round trips are byte "
                      "identical after write-read-write"):
        rng = random.Random(20240817)
        pool = []
        for n in (4, 6, 8):
            pool.extend(e.graph for e in enumerate_contracted(n).classes)
        for i in range(100):
            g = rng.choice(pool)
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            h = gs.relabel(g, {u: perm[u - 1] for u in range(1, g.n + 1)})
            text = fileio.write_graph(h)
            assert fileio.write_graph(fileio.parse_graph(text)) == text

            moves = []
            current = h
            for _ in range(rng.randrange(1, 4)):
                cuts = list(enumerate_cut_specs(current))
                cut = rng.choice(cuts)
                gbar = gs.simple_cut(current, cut)
                glues = list(enumerate_glue_specs(gbar, cut.cut_color))
                if glues and rng.random() < 0.6:
                    move = gs.CutGlue(cut, rng.choice(glues))
                else:
                    move = gs.Cut(cut)
                moves.append(move)
                current = gs.apply_move(current, move)
            trace, final = gs.record_trace(h, moves)
            ttext = fileio.write_trace(trace)
            assert fileio.write_trace(fileio.parse_trace(ttext)) == ttext
            assert gs.verify_trace(h, fileio.parse_trace(ttext)) == final
