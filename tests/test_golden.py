"""Golden corpus: fixed inputs whose outputs must stay byte for byte the same.

For every catalog class with n <= 12 and a few seeded, relabelled connected
sums, ``golden/corpus.json`` holds the graph file text and, as produced
when the corpus was made, the sha256 of its fingerprint, the sha256 of its
certificate file, the ``gemsurf info`` output and the reduced form.

``golden/moves.json`` pins two move tables per graph, as sha256 of their
text: the outcome (the result, or the error type and message) of every
``interchange`` at every proper seam, and the trace bytes (or error type)
of ``rewrite_TP1_to_P3`` at every seam of every torus # K4 welding.

``golden/large.json`` pins fingerprints where the corpus stops: seeded,
relabelled random contracted graphs at n = 130, 258 and 514, the forms
T(64), T(128), P(128), P(256) and a relabelled P(60) # T(30), simple cuts
of large graphs, a relabelled disjoint union of three components, and the
symmetric worst cases: relabelled ``circ(130, 3)`` and ``circ(258, 3)``
and prisms at n = 512 and 2048.  Each case holds the sha256 of its graph
file text (so the seeded inputs are pinned too) and of its fingerprint;
the two random n = 130 graphs and ``circ(258, 3)`` also hold the sha256
of their certificate file and their reduced form.

To rebuild the three files after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest

import gemsurf as gs
from gemsurf import fileio
from gemsurf.cli import main
from gemsurf.core import graph_from_matchings
from gemsurf.moves import enumerate_cut_specs
from gemsurf.reduction import parse_form_token

CORPUS = Path(__file__).with_name("golden") / "corpus.json"
MOVES = CORPUS.with_name("moves.json")
LARGE = CORPUS.with_name("large.json")
SUMS = (("T5", "P3"), ("P7", "P8"), ("T4", "T7"), ("T11", "P2"), ("P15", "T8"),
        ("T12", "T12"))
# Every T(k) # P(m) with k in 2..4, m in 1..3 and n <= 20, in both orders.
# Each reduces by K4 splits alone, rejecting the anchors whose split leaves a
# bipartite remainder.
MIXED_SUMS = tuple((f"T{k}", f"P{m}") for k in (2, 3, 4) for m in (1, 2, 3)
                   if 4 * k + 2 * m + 2 <= 20)
MIXED_SUMS += tuple((b, a) for a, b in MIXED_SUMS)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _shuffled(g, rng):
    """g under a random relabeling drawn from rng."""
    images = list(range(1, g.n + 1))
    rng.shuffle(images)
    return gs.relabel(g, dict(zip(range(1, g.n + 1), images)))


def outputs(text: str):
    """The graph and certificate for one graph file text, and every recorded output."""
    g = fileio.parse_graph(text)
    form, cert = gs.reduce(g)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.gem"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["info", str(path)]) == 0
    return g, cert, {
        "fingerprint_sha256": _sha(gs.fingerprint(g)),
        "certificate_sha256": _sha(fileio.write_certificate(g, cert)),
        "info": out.getvalue(),
        "form": str(form),
    }


def inputs() -> dict[str, str]:
    """The corpus inputs as graph file text, made from fixed seeds."""
    found = {}
    for n in range(2, 13, 2):
        for i, entry in enumerate(gs.enumerate_contracted(n).classes):
            found[f"catalog-n{n}-{i:02d}"] = fileio.write_graph(entry.graph)
    rng = random.Random(2016)
    for a, b in SUMS + MIXED_SUMS:
        g1, g2 = (gs.realize(parse_form_token(tok)) for tok in (a, b))
        g = gs.connected_sum(g1, rng.randint(1, g1.n), g2, rng.randint(1, g2.n))
        g = _shuffled(g, rng)
        found[f"sum-{a}-{b}-n{g.n}"] = fileio.write_graph(g)
    return found


def test_golden():
    corpus = json.loads(CORPUS.read_text())
    changed = {}
    for name, case in sorted(corpus.items()):
        g, cert, got = outputs(case["gem"])
        fields = [key for key, value in got.items() if case[key] != value]
        if fileio.parse_certificate(fileio.write_certificate(g, cert)) != cert:
            fields.append("certificate round trip")
        if fields:
            changed[name] = fields
    assert changed == {}


def _outcome(make) -> str:
    """make()'s result, or the type and message of the GemError it raises."""
    try:
        return f"ok {make()}"
    except gs.GemError as exc:
        return f"{type(exc).__name__}: {exc}"


def interchange_graphs():
    """Every catalog class at n = 6 and 10, seeded relabelled T(a) # T(b) with
    a + b <= 4, P1 # T1, and the first 20 simple cuts of T(2)."""
    graphs = {}
    for n in (6, 10):
        for i, entry in enumerate(gs.enumerate_contracted(n).classes):
            graphs[f"catalog-n{n}-{i:02d}"] = entry.graph
    rng = random.Random(1602)
    for k in range(9):
        a = rng.randint(1, 3)
        b = rng.randint(1, 4 - a)
        g1, g2 = gs.make_T(a), gs.make_T(b)
        g = gs.connected_sum(g1, rng.randint(1, g1.n), g2, rng.randint(1, g2.n))
        graphs[f"sum{k}-T{a}-T{b}"] = _shuffled(g, rng)
    graphs["sum-P1-T1"] = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 1)
    t2 = gs.make_T(2)
    for i, spec in enumerate(itertools.islice(enumerate_cut_specs(t2), 20)):
        graphs[f"cut-T2-{i:02d}"] = gs.simple_cut(t2, spec)
    return graphs


def interchange_table(g) -> str:
    """The outcome of interchange(g, seam, u', v') for every proper seam and pair."""
    lines = []
    for seam in gs.find_seams(g):
        if not seam.proper:
            continue
        g1, _, g2, _ = gs.extract_summands(g, seam)
        for u_new, v_new in itertools.product(range(1, g1.n + 1), range(1, g2.n + 1)):
            out = _outcome(lambda: gs.interchange(g, seam, u_new, v_new).matchings)
            lines.append(f"{seam.edges} {u_new} {v_new} {out}")
    return "\n".join(lines)


def rewrite_graphs():
    """Every welding of T1 and P1, in both orders, under six seeded relabelings."""
    graphs = {}
    rng = random.Random(3101)
    for tv, pv in itertools.product(range(1, 7), range(1, 5)):
        for first in ("T", "P"):
            g = gs.connected_sum(gs.make_T1(), tv, gs.make_P1(), pv)
            if first == "P":
                g = gs.connected_sum(gs.make_P1(), pv, gs.make_T1(), tv)
            for k in range(6):
                graphs[f"weld-T{tv}-P{pv}-{first}-r{k}"] = _shuffled(g, rng)
    return graphs


def rewrite_table(g) -> str:
    """The trace sha256, or the error type, of the rewrite at every seam of g."""
    lines = []
    for seam in gs.find_seams(g):
        try:
            out = _sha(fileio.write_trace(gs.rewrite_TP1_to_P3(g, seam)[0]))
        except gs.GemError as exc:
            out = type(exc).__name__
        lines.append(f"{seam.edges} {out}")
    return "\n".join(lines)


def move_tables() -> dict[str, dict[str, str]]:
    return {
        "interchange": {name: _sha(interchange_table(g))
                        for name, g in interchange_graphs().items()},
        "rewrite": {name: _sha(rewrite_table(g)) for name, g in rewrite_graphs().items()},
    }


def test_golden_moves():
    expected = json.loads(MOVES.read_text())
    got = move_tables()
    assert {kind: sorted(table) for kind, table in got.items()} == \
        {kind: sorted(table) for kind, table in expected.items()}
    changed = [f"{kind}/{name}" for kind, table in got.items()
               for name, sha in table.items() if expected[kind][name] != sha]
    assert changed == []


def random_contracted(rng, n: int, bipartite: bool):
    """A relabelled contracted graph on the standard {0,1}-cycle.

    The colour-0 edges (u, u+1), u odd, are put in a random cyclic order,
    each read odd end first when ``bipartite`` and either way round
    otherwise; colour 2 joins each edge's second end to the next edge's
    first end, so the {0,2}-subgraph is one cycle.  Draws are repeated until
    the {1,2}-subgraph is one cycle too and the bipartiteness is as asked.
    """
    m0, m1 = _standard_cycle(n)
    while True:
        starts = list(range(1, n, 2))
        rng.shuffle(starts)
        ends = [(u, u + 1) if bipartite or rng.getrandbits(1) else (u + 1, u) for u in starts]
        m2 = [0] * (n + 1)
        for (_, tail), (head, _) in zip(ends, ends[1:] + ends[:1]):
            m2[tail], m2[head] = head, tail
        if _walk_closes_at(n, m1, m2):
            g = graph_from_matchings(n, m0, m1, m2)
            if (gs.is_bipartite(g) is not None) == bipartite:
                return _shuffled(g, rng)


def _standard_cycle(n: int):
    """Rows of the standard {0,1}-cycle: colour 0 on (u, u+1), u odd; colour 1 on the rest."""
    m0 = [0] + [u + 1 if u % 2 else u - 1 for u in range(1, n + 1)]
    m1 = [0] + [u % n + 1 if u % 2 == 0 else (u - 2) % n + 1 for u in range(1, n + 1)]
    return m0, m1


def circ(n: int, s: int):
    """The circulant graph circ(n, s) on the standard {0,1}-cycle, s odd.

    Colour 2 joins each odd i to ((i - 1 + s) mod n) + 1.  The graph is
    bipartite; circ(n, 3) is contracted exactly when n = 2 mod 4, and then
    reduces to T((n - 2) / 4).  Its symmetry makes many roots of the
    canonical encoder tie over long prefixes, so it is a slow case for
    ``reduce``, unlike ``random_contracted``.
    """
    m0, m1 = _standard_cycle(n)
    m2 = [0] * (n + 1)
    for i in range(1, n + 1, 2):
        j = (i - 1 + s) % n + 1
        m2[i], m2[j] = j, i
    return graph_from_matchings(n, m0, m1, m2)


def prism(k: int):
    """The prism on n = 2k vertices, k even: two k-cycles joined by colour-2 rungs.

    Vertices 1..k and k+1..2k each carry a standard {0,1}-cycle, and
    colour 2 joins i to k + i.  The graph is vertex-transitive and not
    contracted; every root of the canonical encoder ties every other in
    full, so without orbit pruning its fingerprint costs time quadratic in n.
    """
    m0, m1 = _standard_cycle(k)
    rows = [m0 + [v + k for v in m0[1:]], m1 + [v + k for v in m1[1:]]]
    m2 = [0] + [i + k for i in range(1, k + 1)] + list(range(1, k + 1))
    return graph_from_matchings(2 * k, *rows, m2)


def _walk_closes_at(n: int, ma, mb) -> bool:
    """True iff the cycle of the ma, mb matchings through vertex 1 has all n vertices."""
    v, length = 1, 0
    while True:
        v, length = mb[ma[v]], length + 2
        if v == 1:
            return length == n


def large_graphs():
    """The large-n gate's inputs, made from fixed seeds."""
    rng = random.Random(1026)
    graphs = {}
    for n in (130, 258, 514):
        for bipartite in (True, False):
            name = f"random-n{n}-{'bip' if bipartite else 'nonbip'}"
            graphs[name] = random_contracted(rng, n, bipartite)
    for tok in ("T64", "T128", "P128", "P256"):
        graphs[f"form-{tok}"] = gs.realize(parse_form_token(tok))
    p, t = gs.make_P(60), gs.make_T(30)
    graphs["sum-P60-T30"] = _shuffled(
        gs.connected_sum(p, rng.randint(1, p.n), t, rng.randint(1, t.n)), rng)
    for source in ("random-n130-bip", "random-n258-nonbip", "form-P128"):
        g = graphs[source]
        for k in range(2):
            for _ in range(k + 1):
                specs = list(itertools.islice(enumerate_cut_specs(g), 300))
                g = gs.simple_cut(g, rng.choice(specs))
            graphs[f"cut{k + 1}-{source}"] = _shuffled(g, rng)
    graphs["union-n130-bip-twice-P64"] = _shuffled(_disjoint_union(
        graphs["random-n130-bip"], graphs["random-n130-bip"], gs.make_P(64)), rng)
    rng = random.Random(2048)
    for n in (130, 258):
        graphs[f"circ-n{n}-s3"] = _shuffled(circ(n, 3), rng)
    for n in (512, 2048):
        graphs[f"prism-n{n}"] = _shuffled(prism(n // 2), rng)
    return graphs


def _disjoint_union(*parts):
    """The graphs side by side, each shifted past the ones before it."""
    rows = [[0], [0], [0]]
    offset = 0
    for g in parts:
        for row, m in zip(rows, g.matchings):
            row.extend(offset + v for v in m[1:])
        offset += g.n
    return graph_from_matchings(offset, *rows)


REDUCED = ("random-n130-bip", "random-n130-nonbip", "circ-n258-s3")


def large_table() -> dict[str, dict[str, str]]:
    table = {}
    for name, g in large_graphs().items():
        case = {"graph_sha256": _sha(fileio.write_graph(g)),
                "fingerprint_sha256": _sha(gs.fingerprint(g))}
        if name in REDUCED:
            form, cert = gs.reduce(g)
            case["certificate_sha256"] = _sha(fileio.write_certificate(g, cert))
            case["form"] = str(form)
        table[name] = case
    return table


def test_golden_large():
    expected = json.loads(LARGE.read_text())
    got = large_table()
    assert sorted(got) == sorted(expected)
    changed = [f"{name}/{key}" for name, case in got.items()
               for key, value in case.items() if expected[name].get(key) != value]
    assert changed == []


@pytest.mark.slow
@pytest.mark.parametrize("bipartite", [True, False], ids=["bip", "nonbip"])
def test_reduce_and_verify_at_n514(bipartite):
    g = random_contracted(random.Random(514), 514, bipartite)
    form, cert = gs.reduce(g)
    assert form == gs.canonical_of(g.n, bipartite)
    text = fileio.write_certificate(g, cert)
    assert gs.verify_certificate(g, fileio.parse_certificate(text)) == form


@pytest.mark.slow
def test_reduce_and_verify_circ_n514():
    g = circ(514, 3)
    form, cert = gs.reduce(g)
    assert str(form) == "T(128)"
    text = fileio.write_certificate(g, cert)
    assert gs.verify_certificate(g, fileio.parse_certificate(text)) == form


if __name__ == "__main__":
    corpus = {name: {"gem": text, **outputs(text)[2]} for name, text in inputs().items()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} cases to {CORPUS}")
    MOVES.write_text(json.dumps(move_tables(), indent=1, sort_keys=True) + "\n")
    print(f"wrote the move tables to {MOVES}")
    LARGE.write_text(json.dumps(large_table(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(json.loads(LARGE.read_text()))} large cases to {LARGE}")
