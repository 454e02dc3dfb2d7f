import inspect
import random
import sys

import pytest

import gemsurf as gs
from gemsurf import CertificateError, ReductionError, fileio
from gemsurf.catalog import enumerate_contracted
from gemsurf.reduction import (
    IsoCert,
    TraceCert,
    certificate_conclusion,
    form_L,
    form_P,
    form_T,
    tp1_seam,
)
from gemsurf.surfaces import complex_stats


def chi(g):
    return complex_stats(g).euler_characteristic


# ============================================================
# generators
# ============================================================


def test_generator_shapes():
    assert gs.make_L().n == 2
    p1 = gs.make_P1()
    assert p1.n == 4 and gs.is_contracted(p1) and gs.is_bipartite(p1) is None
    t1 = gs.make_T1()
    assert t1.n == 6 and gs.is_contracted(t1) and gs.is_bipartite(t1) is not None
    p2 = gs.make_P2()
    assert gs.is_contracted(p2) and gs.is_bipartite(p2) is None
    assert gs.are_isomorphic(p2, t1) is None


def test_make_p2_matches_catalog_graph():
    assert gs.are_isomorphic(gs.make_P(2), gs.make_P2()) is not None


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_family_vertex_counts(m):
    assert gs.make_P(m).n == 2 * m + 2
    assert gs.make_T(m).n == 4 * m + 2


def test_family_structure():
    for m in (1, 2, 3):
        p = gs.make_P(m)
        assert gs.is_contracted(p) and gs.is_bipartite(p) is None
        t = gs.make_T(m)
        assert gs.is_contracted(t) and gs.is_bipartite(t) is not None


def test_family_bad_index():
    with pytest.raises(ReductionError):
        gs.make_P(0)
    with pytest.raises(ReductionError):
        gs.make_T(0)


def left_fold(block, k, **kwargs):
    """k copies of block, each welded at the accumulator's last vertex and its vertex 1."""
    g = block
    for _ in range(k - 1):
        g = gs.connected_sum(g, g.n, block, 1, **kwargs)
    return g


def test_families_equal_the_left_fold():
    for k in range(1, 21):
        assert gs.make_P(k) == left_fold(gs.make_P1(), k)
        assert gs.make_T(k) == left_fold(gs.make_T1(), k, enforce_type_rule=True)


def test_families_build_without_deep_recursion():
    # k comes from untrusted files, so a form must not take one frame per
    # block: k is taken beyond the headroom the limit leaves.
    gs.make_P.cache_clear()
    gs.make_T.cache_clear()
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        k = sys.getrecursionlimit() - depth + 20
        assert gs.make_P(k).n == 2 * k + 2
        assert gs.make_T(k).n == 4 * k + 2
    finally:
        sys.setrecursionlimit(limit)


def test_sum_additivity_of_families():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i + j > 4:
                continue
            p = gs.connected_sum(gs.make_P(i), gs.make_P(i).n, gs.make_P(j), 1)
            assert gs.are_isomorphic(p, gs.make_P(i + j)) is not None
            t = gs.connected_sum(gs.make_T(i), gs.make_T(i).n, gs.make_T(j), 1,
                                 enforce_type_rule=True)
            assert gs.are_isomorphic(t, gs.make_T(i + j)) is not None


# ============================================================
# canonical_of
# ============================================================


def test_canonical_of_table():
    assert gs.canonical_of(2, True) == form_L()
    assert gs.canonical_of(4, False) == form_P(1)
    assert gs.canonical_of(6, True) == form_T(1)
    assert gs.canonical_of(6, False) == form_P(2)
    assert gs.canonical_of(10, True) == form_T(2)
    assert gs.canonical_of(10, False) == form_P(4)
    assert gs.canonical_of(12, False) == form_P(5)


def test_canonical_of_forbidden_bipartite():
    with pytest.raises(ReductionError, match="no contracted bipartite"):
        gs.canonical_of(8, True)


def test_canonical_of_bad_n():
    with pytest.raises(ReductionError):
        gs.canonical_of(7, False)


# ============================================================
# splits
# ============================================================


def test_split_t1_on_t2():
    sp = gs.split_off_T1(gs.make_T(2))
    assert gs.are_isomorphic(sp.remainder, gs.make_T1()) is not None
    assert gs.verify_trace(gs.make_T(2), sp.trace) == sp.final
    assert gs.are_isomorphic(sp.piece, gs.make_T1()) is not None


def test_split_t1_on_all_ten_vertex_bipartite():
    for e in enumerate_contracted(10).classes:
        if not e.bipartite:
            continue
        sp = gs.split_off_T1(e.graph)
        assert sp.remainder.n == 6
        assert gs.is_contracted(sp.remainder)
        assert gs.is_bipartite(sp.remainder) is not None
        # both moves preserve chi and the seam split satisfies the sum law
        assert chi(sp.final) == chi(e.graph)
        assert chi(sp.remainder) + chi(sp.piece) - 2 == chi(e.graph)


def test_split_t1_preconditions():
    with pytest.raises(ReductionError):
        gs.split_off_T1(gs.make_P(3))  # non-bipartite
    with pytest.raises(ReductionError):
        gs.split_off_T1(gs.make_T1())  # too small


def test_split_p1_on_p2():
    sp = gs.split_off_P1(gs.make_P(2))
    assert gs.are_isomorphic(sp.remainder, gs.make_P1()) is not None
    assert gs.are_isomorphic(sp.piece, gs.make_P1()) is not None


def test_split_p1_on_all_eight_vertex():
    for e in enumerate_contracted(8).classes:
        sp = gs.split_off_P1(e.graph)
        assert sp.remainder.n == 6
        assert gs.is_contracted(sp.remainder)
        assert gs.verify_trace(e.graph, sp.trace) == sp.final


def test_split_p1_remainder_both_parities_occur():
    kinds = set()
    for e in enumerate_contracted(12).classes:
        sp = gs.split_off_P1(e.graph)
        kinds.add(gs.is_bipartite(sp.remainder) is not None)
    assert kinds == {True, False}


def test_split_p1_preconditions():
    with pytest.raises(ReductionError):
        gs.split_off_P1(gs.make_T(2))  # bipartite
    with pytest.raises(ReductionError):
        gs.split_off_P1(gs.make_P1())  # too small


# ============================================================
# the 8-vertex rewrite
# ============================================================


def test_rewrite_all_weldings():
    p3 = gs.make_P(3)
    for tv in range(1, 7):
        for pv in range(1, 5):
            g = gs.connected_sum(gs.make_T1(), tv, gs.make_P1(), pv)
            trace = gs.rewrite_TP1_to_P3(g, tp1_seam(g))
            final = gs.verify_trace(g, trace)
            assert final.n == 8
            assert gs.are_isomorphic(final, p3) is not None


def test_rewrite_rejects_wrong_graph():
    with pytest.raises(ReductionError):
        tp1_seam(gs.make_P(3))  # no torus summand
    with pytest.raises(ReductionError):
        gs.rewrite_TP1_to_P3(gs.make_T(2), tp1_seam(
            gs.connected_sum(gs.make_T1(), 1, gs.make_P1(), 1)))


# ============================================================
# reduce
# ============================================================


def test_reduce_base_cases():
    form, cert = gs.reduce(gs.make_T1())
    assert form == form_T(1)
    assert isinstance(cert.root, IsoCert)  # no moves needed
    assert gs.reduce(gs.make_L())[0] == form_L()
    assert gs.reduce(gs.make_P1())[0] == form_P(1)
    assert gs.reduce(gs.make_P2())[0] == form_P(2)


def test_reduce_requires_contracted():
    g = gs.validate(4, [(0, 1, 2), (0, 3, 4), (1, 1, 3), (1, 2, 4),
                        (2, 1, 2), (2, 3, 4)])
    with pytest.raises(ReductionError, match="contracted"):
        gs.reduce(g)


def test_reduce_eight_vertex_classes():
    for e in enumerate_contracted(8).classes:
        form, cert = gs.reduce(e.graph)
        assert form == form_P(3)
        assert gs.verify_certificate(e.graph, cert) == form


def test_reduce_ten_vertex_classes():
    for e in enumerate_contracted(10).classes:
        form, cert = gs.reduce(e.graph)
        assert form == (form_T(2) if e.bipartite else form_P(4))
        assert gs.verify_certificate(e.graph, cert) == form


def test_reduce_mixed_chain_deep():
    g = gs.connected_sum(gs.make_T(3), 5, gs.make_P1(), 2)
    form, cert = gs.reduce(g)
    assert form == form_P(7)
    # the chain applies the 8-vertex rewrite once per torus block
    def count_rewrites(node):
        if isinstance(node, IsoCert):
            return 0
        if isinstance(node, TraceCert):
            inner = sum(1 for (m, _) in node.trace.steps
                        if isinstance(m, gs.CutGlue) and m.cut.cut_color == 1)
            return inner + count_rewrites(node.rest)
        return (count_rewrites(node.left) + count_rewrites(node.right)
                + count_rewrites(node.rest))
    assert count_rewrites(cert.root) == 3


def _max_stack_depth(fn):
    """The deepest Python call nesting reached while ``fn()`` runs."""
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return deepest


@pytest.mark.parametrize("small, large", [
    (gs.connected_sum(gs.make_P1(), 1, gs.make_T(4), 1),
     gs.connected_sum(gs.make_P1(), 1, gs.make_T(8), 1)),
    (gs.connected_sum(gs.make_P(4), 1, gs.make_P(4), 1),
     gs.connected_sum(gs.make_P(8), 1, gs.make_P(8), 1)),
], ids=["P1+T4-vs-P1+T8", "P4+P4-vs-P8+P8"])
def test_reduce_stack_depth_does_not_grow_with_n(small, large):
    depths = [_max_stack_depth(lambda: gs.reduce(g)) for g in (small, large)]
    assert depths[1] - depths[0] <= 2, depths


def test_reduce_relabel_invariance():
    rng = random.Random(5)
    for e in enumerate_contracted(8).classes:
        g = e.graph
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = gs.relabel(g, {u: perm[u - 1] for u in range(1, g.n + 1)})
        assert gs.reduce(h)[0] == gs.reduce(g)[0]


def test_reduce_form_matches_invariants():
    for n in (8, 10):
        for e in enumerate_contracted(n).classes:
            form, _ = gs.reduce(e.graph)
            target = gs.realize(form)
            assert target.n == e.graph.n
            assert chi(target) == chi(e.graph)
            assert (gs.is_bipartite(target) is not None) == e.bipartite


# ============================================================
# certificate verification and tampering
# ============================================================


def _sample_cert():
    g = gs.connected_sum(gs.make_P1(), 3, gs.make_T(2), 9)
    form, cert = gs.reduce(g)
    return g, form, cert


def test_certificate_full_verification():
    g, form, cert = _sample_cert()
    assert gs.verify_certificate(g, cert) == form


def test_certificate_wrong_graph_rejected():
    g, form, cert = _sample_cert()
    with pytest.raises(CertificateError):
        gs.verify_certificate(gs.make_P(5), cert)


def test_certificate_wrong_conclusion_rejected():
    g, form, cert = _sample_cert()
    bad = gs.ReductionCertificate(form_P(4), cert.root)
    with pytest.raises(CertificateError):
        gs.verify_certificate(g, bad)


@pytest.mark.parametrize("block", [0, 1])
def test_oversized_conclusion_rejected_before_realize(monkeypatch, block):
    # An edited conclude line must be rejected by size, never built: make_T
    # costs time and memory that grow with the claimed index.
    g = gs.make_T(2)
    _, cert = gs.reduce(g)
    lines = fileio.write_certificate(g, cert).splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith("conclude ")][block]
    lines[at] = "conclude T100000 " + lines[at].split()[2]
    bad = fileio.parse_certificate("\n".join(lines) + "\n")

    make_t = gs.reduction.make_T

    def guarded(m):
        if m == 100000:
            raise AssertionError("make_T(100000) called before the size check")
        return make_t(m)

    monkeypatch.setattr(gs.reduction, "make_T", guarded)
    with pytest.raises(CertificateError):
        gs.verify_certificate(g, bad)


def test_certificate_tampered_iso_rejected():
    g = gs.make_T1()
    form, cert = gs.reduce(g)
    mapping = list(cert.root.mapping)
    mapping[0], mapping[1] = (mapping[0][0], mapping[1][1]), (mapping[1][0], mapping[0][1])
    bad = gs.ReductionCertificate(form, IsoCert(form, tuple(mapping)))
    with pytest.raises(CertificateError, match="witness"):
        gs.verify_certificate(g, bad)


def test_certificate_tampered_trace_rejected():
    g, form, cert = _sample_cert()
    root = cert.root
    assert isinstance(root, TraceCert)
    move, _ = root.trace.steps[0]
    bad_trace = gs.MoveTrace(root.trace.initial, ((move, "bogus"),))
    bad = gs.ReductionCertificate(form, TraceCert(bad_trace, root.rest))
    with pytest.raises(CertificateError, match="trace"):
        gs.verify_certificate(g, bad)


def test_certificate_conclusion_walker():
    g, form, cert = _sample_cert()
    assert certificate_conclusion(cert.root) == form
