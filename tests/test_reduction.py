import collections
import dataclasses
import functools
import gc
import inspect
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gemsurf as gs
from gemsurf import CertificateError, ReductionError, TraceError, fileio, moves
from gemsurf.catalog import enumerate_contracted
from gemsurf.core import _least_roots, _maps_onto, _walk, seam_from_side
from gemsurf.moves import enumerate_cut_specs
from gemsurf.reduction import (
    CanonicalForm,
    IsoCert,
    TraceCert,
    _anchors,
    _remainder_is_bipartite,
    _split_P1,
    _weld,
    certificate_conclusion,
    form_L,
    form_P,
    form_T,
)
from gemsurf.surfaces import complex_stats
from test_golden import circ, p2_hexagon, random_contracted


def chi(g):
    return complex_stats(g).euler_characteristic


# ============================================================
# generators
# ============================================================


def test_generator_shapes():
    assert gs.make_L().n == 2
    p1 = gs.make_P(1)
    assert p1.n == 4 and gs.is_contracted(p1) and gs.is_bipartite(p1) is None
    t1 = gs.make_T(1)
    assert t1.n == 6 and gs.is_contracted(t1) and gs.is_bipartite(t1) is not None
    p2 = p2_hexagon()
    assert gs.is_contracted(p2) and gs.is_bipartite(p2) is None
    assert gs.are_isomorphic(p2, t1) is None


def test_make_p2_matches_catalog_graph():
    """The hexagon P(2) of the tests is an isomorph of make_P(2), not its graph,
    so the inputs built from each stay what they were."""
    assert gs.are_isomorphic(gs.make_P(2), p2_hexagon()) is not None
    assert gs.make_P(2) != p2_hexagon()


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
    with pytest.raises(ReductionError, match="P requires index m >= 1"):
        gs.make_P(0)
    with pytest.raises(ReductionError, match="T requires index m >= 1"):
        gs.make_T(0)


@functools.cache
def left_fold(kind, k):
    """k copies of ``make_P(1)`` or ``make_T(1)``, each welded at the
    accumulator's last vertex and its vertex 1; the fold of k-1 is kept."""
    block = gs.make_P(1) if kind == "P" else gs.make_T(1)
    if k == 1:
        return block
    g = left_fold(kind, k - 1)
    return gs.connected_sum(g, g.n, block, 1)


def test_families_equal_the_left_fold():
    for k in range(1, 65):
        assert gs.make_P(k) == left_fold("P", k)
        assert gs.make_T(k) == left_fold("T", k)
    with moves._open_call_memo():  # largest first
        for k in range(64, 0, -1):
            for kind in "PT":
                assert gs.realize(CanonicalForm(kind, k)) == left_fold(kind, k)


def test_forms_beyond_the_vertex_table_equal_the_left_fold(monkeypatch):
    """A form with more vertices than ``_VERTICES`` holds makes its own ints."""
    monkeypatch.setattr(gs.reduction, "_VERTICES", tuple(range(11)))
    for k in range(1, 17):
        assert gs.make_P(k) == left_fold("P", k)
        assert gs.make_T(k) == left_fold("T", k)


def test_forms_share_their_vertex_ints():
    """A call keeps all of its forms, so their rows hold the ints of
    ``_VERTICES``; only the few corner entries written from n do not."""
    table = {id(v) for v in gs.reduction._VERTICES}
    for g in (gs.make_P(600), gs.make_T(600)):
        own = [v for row in g.matchings for v in row if id(v) not in table]
        assert len(own) <= 6


def test_bipartite_forms_are_coloured_by_vertex_parity():
    """``_weld`` reads the type rule off vertex parity: odd vertices are black."""
    for form in [form_L()] + [form_T(m) for m in range(1, 41)]:
        g = gs.realize(form)
        assert gs.is_bipartite(g).blacks == frozenset(range(1, g.n + 1, 2))
    for m in range(1, 41):
        assert gs.is_bipartite(gs.make_P(m)) is None


def test_families_build_without_deep_recursion():
    # k comes from untrusted files, so a form must not take one frame per
    # block: k is taken beyond the headroom the limit leaves.
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
            p = _weld(form_P(i), 2 * i + 2, form_P(j), 1)
            assert gs.are_isomorphic(p, gs.make_P(i + j)) is not None
            t = _weld(form_T(i), 4 * i + 2, form_T(j), 1)
            assert gs.are_isomorphic(t, gs.make_T(i + j)) is not None
    # Each fold-up step of ``reduce`` welds F(1) and F(k) in one order or the
    # other and writes the identity witness onto F(k+1) without building the
    # weld; its self-verify builds the weld and relies on this identity.
    for kind in "PT":
        for k in range(1, 257):
            assert_weld_identity(CanonicalForm(kind, k + 1))


def assert_weld_identity(form):
    """F(1) and F(m-1) weld into realize(F(m)) itself, in both orders."""
    one, rest = CanonicalForm(form.kind, 1), CanonicalForm(form.kind, form.m - 1)
    assert _weld(one, one.vertex_count, rest, 1) == gs.realize(form), form
    assert _weld(rest, rest.vertex_count, one, 1) == gs.realize(form), form


# ============================================================
# the one-walk label of a normal form
# ============================================================


def _m0_prefix(g, root, k):
    """The first k entries of the m0 row of the walk from ``root``."""
    lab, order, row0 = [0] * (g.n + 1), [root], []
    lab[root] = 1
    _walk(g.matchings, lab, order, row0, k)
    return row0


def assert_reflection_is_an_automorphism(form):
    g = gs.realize(form)
    assert _maps_onto(g, g, {v: g.n + 1 - v for v in range(1, g.n + 1)})


def assert_least_entry2_roots(form):
    """Only 3 and n-2 reach the least m0 entries 2 and 3 of P(m) and T(m);
    entry 2 is 4 there in P(m) and 6 in T(m)."""
    g = gs.realize(form)
    assert _least_roots(g.matchings, range(1, g.n + 1)) == [3, g.n - 2]
    assert _m0_prefix(g, 3, 3)[2] == (4 if form.kind == "P" else 6)


def assert_root3_beats_root2(form):
    g = gs.realize(form)
    assert _m0_prefix(g, 3, 4) == [2, 1, 6, 7] and _m0_prefix(g, 2, 4) == [2, 1, 6, 8]


def assert_walk_label(form):
    assert gs.reduction._form_fingerprint(form) == moves._label(gs.realize(form)), form


FORMS_UP_TO_M256 = [CanonicalForm(kind, m) for m in range(2, 257) for kind in "PT"]
# Beyond m = 256 the slow test strides, which keeps it near 5-6 s.
FORMS_UP_TO_N8194 = ([form_P(m) for m in [*range(257, 4096, 32), 4096]]
                     + [form_T(m) for m in [*range(257, 2048, 16), 2048]])


def test_walk_labels_every_form_up_to_m256():
    for form in [form_L(), form_P(1), form_T(1), *FORMS_UP_TO_M256]:
        assert_walk_label(form)


def test_reflection_is_an_automorphism_of_the_forms():
    for form in FORMS_UP_TO_M256:
        assert_reflection_is_an_automorphism(form)


def test_least_entry2_roots_of_the_forms():
    for form in FORMS_UP_TO_M256:
        assert_least_entry2_roots(form)


def test_root3_beats_root2_in_t():
    for m in range(2, 257):
        assert_root3_beats_root2(form_T(m))


def test_smallest_forms_are_vertex_transitive():
    for g in (gs.make_L(), gs.make_P(1), gs.make_T(1)):
        assert len({gs.reduction._walk_label(g, r) for r in range(1, g.n + 1)}) == 1


@pytest.mark.slow
def test_walk_labels_and_lemmas_up_to_n8194():
    for form in FORMS_UP_TO_N8194:
        assert_walk_label(form)
        assert_reflection_is_an_automorphism(form)
        assert_least_entry2_roots(form)
        if form.kind == "T":
            assert_root3_beats_root2(form)
        assert_weld_identity(form)


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
    assert gs.are_isomorphic(sp.remainder, gs.make_T(1)) is not None
    assert gs.verify_trace(gs.make_T(2), sp.trace) == sp.final
    assert gs.are_isomorphic(sp.piece, gs.make_T(1)) is not None


def assert_piece_witness(sp, form):
    """The split carries a witness that its detached block is ``form``."""
    assert sp.piece_cert.form == form
    assert gs.relabel(sp.piece, dict(sp.piece_cert.mapping)) == gs.realize(form)


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
        assert_piece_witness(sp, form_T(1))


def test_split_t1_preconditions():
    with pytest.raises(ReductionError):
        gs.split_off_T1(gs.make_P(3))  # non-bipartite
    with pytest.raises(ReductionError, match="requires a bipartite graph"):
        gs.split_off_T1(gs.make_P(4))  # non-bipartite, n = 4q+2
    with pytest.raises(ReductionError):
        gs.split_off_T1(gs.make_T(1))  # too small


def test_split_p1_on_p2():
    sp = gs.split_off_P1(gs.make_P(2))
    assert gs.are_isomorphic(sp.remainder, gs.make_P(1)) is not None
    assert gs.are_isomorphic(sp.piece, gs.make_P(1)) is not None


def test_split_p1_on_all_eight_vertex():
    for e in enumerate_contracted(8).classes:
        sp = gs.split_off_P1(e.graph)
        assert sp.remainder.n == 6
        assert gs.is_contracted(sp.remainder)
        assert gs.verify_trace(e.graph, sp.trace) == sp.final
        assert_piece_witness(sp, form_P(1))


def test_split_p1_keeps_the_remainder_non_bipartite():
    """On every non-bipartite catalog class with n <= 12.  That both remainder
    parities occur is checked anchor by anchor by the parity-rule tests."""
    for n in range(6, 13, 2):
        for e in enumerate_contracted(n).classes:
            if e.bipartite:
                continue
            sp = gs.split_off_P1(e.graph)
            assert gs.is_bipartite(sp.remainder) is None
            assert_piece_witness(sp, form_P(1))


@pytest.mark.parametrize("bipartite", [True, False])
def test_reduce_takes_the_public_split(bipartite):
    """The root trace of ``reduce`` is the trace of the public split."""
    g = random_contracted(random.Random(66), 66, bipartite)
    _, cert = gs.reduce(g)
    split = gs.split_off_T1 if bipartite else gs.split_off_P1
    assert cert.root.trace == split(g).trace


def test_split_p1_preconditions():
    with pytest.raises(ReductionError, match="requires a non-bipartite graph"):
        gs.split_off_P1(gs.make_T(2))  # bipartite
    with pytest.raises(ReductionError):
        gs.split_off_P1(gs.make_P(1))  # too small


def reference_anchor(g, bipartite):
    """The scan ``_anchors`` replaced: build all n standard labelings and a
    position map for each, and keep the least (j, s, t), first found on ties."""
    cyc = gs.bicolored_cycles(g, 0, 1).cycles[0]
    n = len(cyc)
    labelings = [[0] + [cyc[(off + k) % n] for k in range(n)] for off in range(0, n, 2)]
    labelings += [[0] + [cyc[(off - k) % n] for k in range(n)] for off in range(1, n, 2)]
    best = None
    for lab in labelings:
        pos = {lab[k]: k for k in range(1, n + 1)}
        j = pos[g.matchings[2][lab[1]]]
        if (j % 2 == 0) != bipartite:
            continue
        s_range = range(3, j, 2) if bipartite else range(2, j)
        s, t = next((s, t) for s in s_range if (t := pos[g.matchings[2][lab[s]]]) > j)
        if best is None or (j, s, t) < best[0]:
            best = ((j, s, t), lab)
    (j, s, t), lab = best
    return lab, j, s, t


def anchor_inputs():
    """Every catalog class at n <= 12 that a split accepts, and seeded random
    contracted graphs of both parities up to n = 130."""
    graphs = [(e.graph, e.bipartite) for n in range(6, 13, 2)
              for e in enumerate_contracted(n).classes if not e.bipartite or n == 10]
    rng = random.Random(9)
    for n in (6, 8, 10, 14, 18, 26, 34, 50, 66, 98, 130):
        for bipartite in (True, False) if n % 4 == 2 and n >= 10 else (False,):
            graphs += [(random_contracted(rng, n, bipartite), bipartite) for _ in range(3)]
    return graphs


def test_choose_anchor_matches_every_labeling_scan():
    graphs = anchor_inputs()
    assert {bip for _, bip in graphs} == {True, False}
    for g, bipartite in graphs:
        assert next(_anchors(g, bipartite)) == reference_anchor(g, bipartite)


# ============================================================
# the 8-vertex rewrite
# ============================================================


def test_rewrite_all_weldings():
    p3 = gs.make_P(3)
    for tv in range(1, 7):
        for pv in range(1, 5):
            g = gs.connected_sum(gs.make_T(1), tv, gs.make_P(1), pv)
            trace, final = gs.rewrite_TP1_to_P3(g, seam_from_side(g, frozenset(range(1, 6))))
            assert final == gs.verify_trace(g, trace)
            assert final.n == 8
            assert gs.are_isomorphic(final, p3) is not None


def test_rewrite_rejects_wrong_graph():
    p3 = gs.make_P(3)
    with pytest.raises(ReductionError, match="seam summands are not the torus graph and K4"):
        gs.rewrite_TP1_to_P3(p3, seam_from_side(p3, frozenset({1, 2, 3})))  # K4 # P(2)
    with pytest.raises(ReductionError):
        gs.rewrite_TP1_to_P3(gs.make_T(2), seam_from_side(
            gs.connected_sum(gs.make_T(1), 1, gs.make_P(1), 1), frozenset(range(1, 6))))


# ============================================================
# reduce
# ============================================================


def test_reduce_base_cases():
    form, cert = gs.reduce(gs.make_T(1))
    assert form == form_T(1)
    assert isinstance(cert.root, IsoCert)  # no moves needed
    assert gs.reduce(gs.make_L())[0] == form_L()
    assert gs.reduce(gs.make_P(1))[0] == form_P(1)
    assert gs.reduce(p2_hexagon())[0] == form_P(2)


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


def _records(cert):
    """The trace records and the compose records of ``cert``, in tree order."""
    traces, composes, stack = [], [], [cert.root]
    while stack:
        node = stack.pop()
        if isinstance(node, TraceCert):
            traces.append(node)
            stack.append(node.rest)
        elif isinstance(node, gs.RecombineCert):
            composes.append(node)
            stack += [node.rest, node.right, node.left]
    return traces, composes


def assert_parity_kept(cert, kind):
    """Every trace of ``cert`` is one K4 split's move, or two torus split
    moves, and every compose record welds two forms of ``kind``."""
    traces, composes = _records(cert)
    for node in traces:
        moves_made = [move for move, _ in node.trace.steps]
        assert len(moves_made) == (1 if kind == "P" else 2)
        assert all(isinstance(m, gs.CutGlue) and m.cut.cut_color == 2 for m in moves_made)
    assert {(certificate_conclusion(r.left).kind, certificate_conclusion(r.right).kind)
            for r in composes} <= {(kind, kind)}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2])
def test_reduce_mixed_sum_welds_only_p_forms(monkeypatch, p, k):
    """A K4 split never leaves a torus remainder, so ``reduce`` takes P(p) #
    T(k) to P(p+2k) by K4 splits alone, with no 8-vertex rewrite."""
    def refused(g, seam):
        raise AssertionError("rewrite_TP1_to_P3 called")

    monkeypatch.setattr(gs.reduction, "rewrite_TP1_to_P3", refused)
    pk, tk = gs.make_P(p), gs.make_T(k)
    for g in (gs.connected_sum(pk, 1, tk, 1), gs.connected_sum(pk, pk.n, tk, 1),
              gs.connected_sum(pk, 1, tk, tk.n), gs.connected_sum(tk, 5, pk, 2)):
        form, cert = gs.reduce(g)
        assert form == form_P(p + 2 * k)
        assert_parity_kept(cert, "P")


def test_reduce_mixed_chain_deep():
    """The deep sum T(3) # P(1) reduces to P(7) with no 8-vertex rewrite: no
    trace holds a colour-1 cut, and the verifier accepts the certificate."""
    g = gs.connected_sum(gs.make_T(3), 5, gs.make_P(1), 2)
    form, cert = gs.reduce(g)
    assert form == form_P(7)
    traces, _ = _records(cert)
    assert not any(isinstance(m, gs.CutGlue) and m.cut.cut_color == 1
                   for node in traces for m, _ in node.trace.steps)
    assert_parity_kept(cert, "P")
    assert gs.verify_certificate(g, cert) == form


def test_reduce_raises_when_no_split_keeps_the_parity(monkeypatch):
    """Where every K4 split leaves a bipartite remainder, ``reduce`` says so
    rather than end the anchor scan with a bare StopIteration."""
    g = gs.connected_sum(gs.make_T(2), 5, gs.make_P(1), 2)
    monkeypatch.setattr(gs.reduction, "_remainder_is_bipartite", lambda h, *anchor: True)
    with pytest.raises(ReductionError, match="no K4 split keeps the remainder non-bipartite"):
        gs.reduce(g)


def assert_parity_rule_on_every_anchor(g):
    """At every K4 anchor of the non-bipartite g, the parity read off the
    anchor is that of the remainder the split builds; returns the count of
    each outcome."""
    outcomes = collections.Counter()
    with moves._open_call_memo():
        for anchor in _anchors(g, bipartite=False):
            built = gs.is_bipartite(_split_P1(g, *anchor).remainder) is not None
            assert _remainder_is_bipartite(g, *anchor) == built, anchor[1:]
            outcomes[built] += 1
    return outcomes


def assert_parity_rule_on_catalog(n):
    return sum((assert_parity_rule_on_every_anchor(e.graph)
                for e in enumerate_contracted(n, bound=14).classes if not e.bipartite),
               collections.Counter())


def test_parity_rule_on_every_anchor_of_the_catalog_up_to_n12():
    outcomes = collections.Counter()
    for n in range(6, 13, 2):
        outcomes += assert_parity_rule_on_catalog(n)
    assert outcomes[True] > 10 and outcomes[False] > 100, outcomes


@pytest.mark.slow
def test_parity_rule_on_every_anchor_of_the_catalog_at_n14():
    """Every remainder here has 12 vertices, and no contracted bipartite
    graph does, so the rule must read each one as non-bipartite."""
    assert assert_parity_rule_on_catalog(14) == {False: 8568}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 60))
def test_parity_rule_on_random_non_bipartite_graphs(seed, half):
    assert_parity_rule_on_every_anchor(random_contracted(random.Random(seed), 2 * half, False))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.data())
def test_parity_rule_on_p_and_t_sums(m, k, data):
    pm, tk = gs.make_P(m), gs.make_T(k)
    v, w = data.draw(st.integers(1, pm.n)), data.draw(st.integers(1, tk.n))
    g = gs.connected_sum(pm, v, tk, w) if data.draw(st.booleans()) else \
        gs.connected_sum(tk, w, pm, v)
    assert_parity_rule_on_every_anchor(g)


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_reduce_every_catalog_class_keeping_its_parity(n):
    catalog = enumerate_contracted(n, bound=14)
    forms = collections.Counter()
    for e in catalog.classes:
        form, cert = gs.reduce(e.graph)
        assert form == gs.canonical_of(n, e.bipartite)
        assert_parity_kept(cert, form.kind)
        forms[form] += 1
    if n == 14:
        assert forms == {form_P(6): 1136, form_T(3): 25}


@pytest.mark.slow
def test_reduce_every_catalog_class_at_n16_keeping_its_parity():
    catalog = enumerate_contracted(16, bound=16)
    assert len(catalog.classes) == 12504
    for e in catalog.classes:
        form, cert = gs.reduce(e.graph)
        assert form == form_P(7)
        assert_parity_kept(cert, "P")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(4, 40))
def test_reduce_random_non_bipartite_keeps_its_parity(seed, half):
    g = random_contracted(random.Random(seed), 2 * half, False)
    form, cert = gs.reduce(g)
    assert form == gs.canonical_of(g.n, False)
    assert_parity_kept(cert, "P")


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 40), st.data())
def test_reduce_p_and_t_sum_keeps_its_parity(m, k, data):
    pm, tk = gs.make_P(m), gs.make_T(k)
    v, w = data.draw(st.integers(1, pm.n)), data.draw(st.integers(1, tk.n))
    g = gs.connected_sum(pm, v, tk, w) if data.draw(st.booleans()) else \
        gs.connected_sum(tk, w, pm, v)
    form, cert = gs.reduce(g)
    assert form == form_P(m + 2 * k)
    assert_parity_kept(cert, "P")


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
    (gs.connected_sum(gs.make_P(1), 1, gs.make_T(4), 1),
     gs.connected_sum(gs.make_P(1), 1, gs.make_T(8), 1)),
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
# the fingerprint memo of one reduce call
# ============================================================


def _count_labellings(monkeypatch):
    """Record the matchings of every graph ``moves`` hands to ``_canonical_rows``."""
    labelled = []
    canonical_rows = moves._canonical_rows

    def counted(g):
        labelled.append(g.matchings)
        return canonical_rows(g)

    monkeypatch.setattr(moves, "_canonical_rows", counted)
    return labelled


on_four_inputs = pytest.mark.parametrize("g", [
    random_contracted(random.Random(66), 66, True),
    random_contracted(random.Random(66), 66, False),
    gs.connected_sum(gs.make_T(15), 7, gs.make_P(2), 3),
    circ(66, 3),
], ids=["bipartite-n66", "nonbipartite-n66", "T15+P2", "circ66"])


@on_four_inputs
def test_reduce_labels_each_graph_once(monkeypatch, g):
    """The self-verify replays every move, but labels no graph a second time."""
    labelled = _count_labellings(monkeypatch)
    gs.reduce(g)
    assert labelled
    assert len(labelled) == len(set(labelled))


def test_compose_records_label_forms_not_their_isomorphs(monkeypatch):
    """A compose field whose graph is certified by a witness onto F prints
    the fingerprint of F's graph, which the witness proves is the same text,
    so ``reduce`` labels no summand or welding that only a witness certifies.
    F's graph is labelled by one walk, so no realized form reaches the
    canonical labelling either."""
    g = gs.connected_sum(gs.make_T(15), 7, gs.make_P(2), 3)
    labelled = _count_labellings(monkeypatch)
    built, _ = _count_forms(monkeypatch)
    witnessed = []  # (graph, form) for each graph a compose field certifies by a witness
    iso_cert = gs.reduction._iso_cert

    def recorded(h, form):
        witnessed.append((h, form))
        return iso_cert(h, form)

    monkeypatch.setattr(gs.reduction, "_iso_cert", recorded)
    gs.reduce(g)
    isomorphs = [h.matchings for h, form in witnessed if h != gs.realize(form)]
    assert len(isomorphs) > 10
    assert set(isomorphs).isdisjoint(labelled)
    assert len(labelled) == len(set(labelled)) == 60
    assert len(built) > 10
    # A copy: each realize outside the call appends to ``built``.
    assert {gs.realize(form).matchings for form in list(built)}.isdisjoint(labelled)


@on_four_inputs
def test_reduce_and_verify_build_no_throwaway_graph(monkeypatch, g):
    """Each cut-and-glue builds only its result, and each conclude witness is
    checked edge by edge: no cut graph and no relabelled graph is built."""
    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for name in ("simple_cut", "relabel"):
        for module in (gs, gs.core, moves, gs.reduction):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused(name))
    form, cert = gs.reduce(g)
    assert gs.verify_certificate(g, cert) == form


def test_reduce_two_colours_each_remainder_once(monkeypatch):
    """``reduce`` 2-colours its input and nothing else: a bipartite input's
    remainders are bipartite, and a K4 split's parity is read off its anchor."""
    coloured = []
    is_bipartite = gs.core.is_bipartite

    def counted(h):
        coloured.append(h.matchings)
        return is_bipartite(h)

    monkeypatch.setattr(gs.reduction, "is_bipartite", counted)
    for bipartite in (False, True):
        coloured.clear()
        g = random_contracted(random.Random(67), 66, bipartite)
        gs.reduce(g)
        assert coloured == [g.matchings]


def test_verify_welds_forms_without_two_colouring(monkeypatch):
    """Each compose record re-welds two realized forms; the type rule is read
    off their vertex parity, so verifying 2-colours no graph."""
    g = gs.connected_sum(gs.make_T(6), 5, gs.make_P(3), 2)
    form, cert = gs.reduce(g)
    assert form == form_P(15)

    def refused(h):
        raise AssertionError(f"is_bipartite called on {h.n} vertices")

    for module in (gs.core, moves, gs.reduction):
        monkeypatch.setattr(module, "is_bipartite", refused)
    assert gs.verify_certificate(g, cert) == form


def _assert_memo_closed(g, labelled):
    assert moves._call_memo.get() is None
    labelled.clear()
    assert gs.fingerprint(g) == gs.fingerprint(g)
    assert labelled == [g.matchings] * 2


def test_fingerprint_memo_ends_with_reduce(monkeypatch):
    g = gs.connected_sum(gs.make_P(1), 3, gs.make_T(2), 9)
    labelled = _count_labellings(monkeypatch)
    gs.reduce(g)
    _assert_memo_closed(g, labelled)

    flat = gs.validate(4, [(0, 1, 2), (0, 3, 4), (1, 1, 3), (1, 2, 4),
                           (2, 1, 2), (2, 3, 4)])
    with pytest.raises(ReductionError, match="contracted"):
        gs.reduce(flat)
    _assert_memo_closed(flat, labelled)

    def failing_verify(g, cert):
        assert moves._call_memo.get()  # open and filled by the splits
        raise CertificateError("forced")

    monkeypatch.setattr(gs.reduction, "verify_certificate", failing_verify)
    with pytest.raises(CertificateError, match="forced"):
        gs.reduce(g)
    _assert_memo_closed(g, labelled)


def test_verify_closes_the_memo_it_opens(monkeypatch):
    g, form, cert = _sample_cert()
    labelled = _count_labellings(monkeypatch)
    assert gs.verify_certificate(g, cert) == form
    _assert_memo_closed(g, labelled)

    assert g != gs.make_P(5)
    identity = tuple((v, v) for v in range(1, g.n + 1))
    bad = gs.ReductionCertificate(form, IsoCert(form, identity))
    with pytest.raises(CertificateError, match="isomorphism witness"):
        gs.verify_certificate(g, bad)
    _assert_memo_closed(g, labelled)


def test_verify_reuses_the_memo_of_reduce(monkeypatch):
    """The self-verify realizes its forms in the memo ``reduce`` opened."""
    g = gs.connected_sum(gs.make_P(1), 3, gs.make_T(2), 9)
    memos, in_verify = [], []
    realize, verify = gs.reduction.realize, gs.reduction.verify_certificate

    def recorded(form):
        memos.append((bool(in_verify), moves._call_memo.get()))
        return realize(form)

    def flagged(g, cert):
        in_verify.append(True)
        return verify(g, cert)

    monkeypatch.setattr(gs.reduction, "realize", recorded)
    monkeypatch.setattr(gs.reduction, "verify_certificate", flagged)
    gs.reduce(g)
    assert {in_v for in_v, _ in memos} == {False, True}
    assert len({id(memo) for _, memo in memos}) == 1 and memos[0][1]


def _count_forms(monkeypatch):
    """Record the form of every ``_form_graph`` call, and a weakref to its graph."""
    built, refs = [], []
    build = gs.reduction._form_graph

    def counted(form):
        h = build(form)
        built.append(form)
        refs.append(weakref.ref(h))
        return h

    monkeypatch.setattr(gs.reduction, "_form_graph", counted)
    return built, refs


@on_four_inputs
def test_reduce_builds_each_form_once(monkeypatch, g):
    built, _ = _count_forms(monkeypatch)
    gs.reduce(g)
    counts = collections.Counter(built)
    assert any(form.m > 1 for form in counts) and set(counts.values()) == {1}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("PT"), st.integers(1, 64)), max_size=12))
def test_realize_in_one_memo_equals_the_builders(requests):
    """In one open call memo, forms asked for in any order are the left
    folds of their blocks."""
    with moves._open_call_memo():
        for kind, m in requests:
            assert gs.realize(CanonicalForm(kind, m)) == left_fold(kind, m)


def _count_steps(monkeypatch):
    """Record a key for every cut-and-glue, seam split and weld built, the
    call memo open at the time, and a weakref to each graph built."""
    built = {"cut_and_glue": [], "extract_summands": [], "connected_sum": []}
    memo_open, refs = [], []

    def count(module, name, key):
        build = getattr(module, name)

        def counted(*args):
            out = build(*args)
            built[name].append(key(*args))
            memo_open.append(moves._call_memo.get() is not None)
            refs.extend(weakref.ref(h) for h in (out if isinstance(out, tuple) else (out,))
                        if isinstance(h, gs.ColoredGraph))
            return out
        monkeypatch.setattr(module, name, counted)

    count(moves, "cut_and_glue", lambda g, cut, glue: (g.matchings, cut, glue))
    count(gs.reduction, "extract_summands", lambda g, seam: (g.matchings, seam.edges))
    count(gs.reduction, "connected_sum", lambda g1, a, g2, b: (g1.matchings, a, g2.matchings, b))
    return built, memo_open, refs


@on_four_inputs
def test_reduce_builds_each_step_once(monkeypatch, g):
    """``reduce`` builds its cut-and-glues and seam splits but no weld; its
    self-verify reads every move and seam split back from the call memo and
    builds one weld per compose record.  A stand-alone verify, in its own
    call memo, builds each of these steps as often as ``reduce`` did in all:
    a K4 anchor that ``reduce`` rejects builds nothing."""
    built, memo_open, _ = _count_steps(monkeypatch)
    verify, self_verify_built = gs.reduction.verify_certificate, {}

    def measured(h, cert):
        before = {name: len(keys) for name, keys in built.items()}
        form = verify(h, cert)
        self_verify_built.update({name: collections.Counter(keys[before[name]:])
                                  for name, keys in built.items()})
        return form

    monkeypatch.setattr(gs.reduction, "verify_certificate", measured)
    form, cert = gs.reduce(g)
    in_all = {name: collections.Counter(keys) for name, keys in built.items()}
    in_reduce = {name: in_all[name] - self_verify_built[name] for name in built}
    assert in_reduce["cut_and_glue"] and in_reduce["extract_summands"]
    assert not in_reduce["connected_sum"]
    _, composes = _records(cert)
    welds = self_verify_built.pop("connected_sum")
    assert composes and welds.total() == len(composes)
    assert not any(self_verify_built.values()) and all(memo_open)

    for keys in built.values():
        keys.clear()
    memo_open.clear()
    assert gs.verify_certificate(g, cert) == form
    assert {name: collections.Counter(keys) for name, keys in built.items()} == in_all
    assert memo_open and all(memo_open)


def test_no_form_outlives_its_call(monkeypatch):
    """Nothing keeps a realized form or a step's graph once ``reduce`` or
    ``verify`` returns; the certificate refers to forms by name only."""
    g = gs.connected_sum(gs.make_T(6), 5, gs.make_P(3), 2)
    _, refs = _count_forms(monkeypatch)
    _, _, step_refs = _count_steps(monkeypatch)
    form, cert = gs.reduce(g)
    assert refs and step_refs
    gc.collect()
    assert [r for r in refs + step_refs if r() is not None] == []

    refs.clear()
    step_refs.clear()
    assert gs.verify_certificate(g, cert) == form
    assert refs and step_refs
    gc.collect()
    assert [r for r in refs + step_refs if r() is not None] == []


def _other_arc(move):
    """``move`` with its cut's fresh vertex z1 on the other arc: the other
    end of the cut edge that holds its arc vertex."""
    cut = move.cut
    edge = cut.edge_a if cut.arc_vertex in cut.edge_a else cut.edge_b
    other = edge[0] if cut.arc_vertex == edge[1] else edge[1]
    return dataclasses.replace(move, cut=dataclasses.replace(cut, arc_vertex=other))


# Each fault below returns None where it would not make the record false,
# and the next call is tried instead.


def _stale_fingerprint(args, sp):
    """The first step of the split whose graph is no isomorph of the one
    before it records the fingerprint of the one before."""
    fps = [sp.trace.initial] + [fp for _, fp in sp.trace.steps]
    changed = [k for k in range(1, len(fps)) if fps[k] != fps[k - 1]]
    if not changed:
        return None
    k = changed[0]
    steps = list(sp.trace.steps)
    steps[k - 1] = (steps[k - 1][0], fps[k - 1])
    return dataclasses.replace(sp, trace=gs.MoveTrace(sp.trace.initial, tuple(steps)))


def _other_move(args, sp):
    """The first move of a torus split records its cut with z1 on the other
    arc.  That lands on an isomorph with z1 and z2 swapped, which the second
    move, naming z1's edge, does not fit.  (A one-move split's records fit
    the isomorph too, so there the changed certificate is still valid.)"""
    if len(sp.trace.steps) < 2:
        return None
    (move, fp), *rest = sp.trace.steps
    bad = ((_other_arc(move), fp), *rest)
    return dataclasses.replace(sp, trace=gs.MoveTrace(sp.trace.initial, bad))


def _other_weld(args, root):
    """The outermost compose record names other weld vertices."""
    rec = root.rest
    bad = dataclasses.replace(rec, weld_b=3 if rec.weld_b == 1 else rec.weld_b - 2)
    return dataclasses.replace(root, rest=bad)


def _other_seam(args, root):
    """The outermost compose record names its seam's edge triple rotated, a
    triple the split did not derive, so the call memo holds nothing under it."""
    rec = root.rest
    e0, e1, e2 = rec.seam_edges
    return dataclasses.replace(root, rest=dataclasses.replace(rec, seam_edges=(e1, e2, e0)))


def _swapped_images(args, cert):
    (u1, v1), (u2, v2), *rest = cert.mapping
    return IsoCert(cert.form, ((u1, v2), (u2, v1), *rest))


_FAULT_INPUTS = {
    "bipartite-n30": random_contracted(random.Random(30), 30, True),
    "T6+P3": gs.connected_sum(gs.make_T(6), 5, gs.make_P(3), 2),
    "T6+T3": gs.connected_sum(gs.make_T(6), 5, gs.make_T(3), 2),
}
_FAULTS = {
    "stale-fingerprint": ("_detach", _stale_fingerprint),
    "other-arc": ("_detach", _other_move),
    "other-weld": ("_reduce_node", _other_weld),
    "other-seam": ("_reduce_node", _other_seam),
    "swapped-witness": ("_iso_cert", _swapped_images),
}


# T6+P3 is not bipartite, so it takes no torus split for other-arc to act on.
@pytest.mark.parametrize("name, fault, g", [
    pytest.param(*_FAULTS[f], g, id=f"{f}-{i}")
    for f in _FAULTS for i, g in _FAULT_INPUTS.items()
    if (f, i) != ("other-arc", "T6+P3")])
def test_self_verify_catches_a_bookkeeping_fault(monkeypatch, name, fault, g):
    """One wrong record in ``reduce``'s own certificate fails its self-verify,
    though the graph of every move and seam split sits in the call memo: a
    fingerprint of the graph before the move, the same cut with z1 on its
    other arc, other weld vertices, a seam triple other than the one split,
    a witness with two images swapped."""
    step = getattr(gs.reduction, name)
    faulted = []

    def faulty(*args):
        out = step(*args)
        bad = None if faulted else fault(args, out)
        if bad is None:
            return out
        faulted.append(name)
        return bad

    monkeypatch.setattr(gs.reduction, name, faulty)
    with pytest.raises(CertificateError):
        gs.reduce(g)
    assert faulted


def test_open_memo_still_rejects_a_tampered_trace():
    g = random_contracted(random.Random(30), 30, False)
    first = next(enumerate_cut_specs(g))
    second = next(enumerate_cut_specs(gs.simple_cut(g, first)))
    with moves._open_call_memo():
        trace, _ = gs.record_trace(g, [gs.Cut(first), gs.Cut(second)])
        gs.verify_trace(g, trace)  # every step's graph is in the memo now
        (m1, fp1), (m2, fp2) = trace.steps
        for bad_step, steps in ((1, ((m1, fp2), (m2, fp2))), (2, ((m1, fp1), (m2, fp1)))):
            with pytest.raises(TraceError, match=f"step {bad_step}: fingerprint mismatch"):
                gs.verify_trace(g, gs.MoveTrace(trace.initial, steps))


# ============================================================
# certificate verification and tampering
# ============================================================


def _sample_cert():
    g = gs.connected_sum(gs.make_P(1), 3, gs.make_T(2), 9)
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

    build = gs.reduction._form_graph

    def guarded(form):
        if form == form_T(100000):
            raise AssertionError("T(100000) built before the size check")
        return build(form)

    monkeypatch.setattr(gs.reduction, "_form_graph", guarded)
    with pytest.raises(CertificateError):
        gs.verify_certificate(g, bad)


def test_certificate_tampered_iso_rejected():
    g = gs.make_T(1)
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
