import functools
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gemsurf as gs
from gemsurf import fileio, moves
from gemsurf.catalog import enumerate_contracted
from gemsurf.cli import main
from gemsurf.core import seam_from_side
from gemsurf.fileio import FormatError
from gemsurf.moves import GlueSpec, enumerate_cut_specs, enumerate_glue_specs
from test_golden import random_contracted


# ============================================================
# graph files
# ============================================================


def test_graph_round_trip_exact():
    for g in (gs.make_L(), gs.make_P(1), gs.make_T(2), gs.make_P(4)):
        text = fileio.write_graph(g)
        assert fileio.parse_graph(text) == g
        assert fileio.write_graph(fileio.parse_graph(text)) == text


def test_graph_golden_format():
    assert fileio.write_graph(gs.make_L()) == (
        "gem 1 2\nedge 0 1 2\nedge 1 1 2\nedge 2 1 2\n")


def test_graph_comments_and_blanks():
    text = "# a torus block\n\ngem 1 2   # header\nedge 0 1 2\nedge 1 1 2\nedge 2 1 2\n"
    assert fileio.parse_graph(text) == gs.make_L()


@pytest.mark.parametrize("text, line, needle", [
    ("", 1, "empty"),
    ("gem 1 02\n", 1, "plain decimal"),
    ("gem 1 2\nedge 0 +1 2\nedge 1 1 2\nedge 2 1 2\n", 2, "plain decimal"),
    ("gem 1 2\nedge 0 1 2\nedge 01 1 2\nedge 2 1 2\n", 3, "plain decimal"),
    ("gem 1 2\nedge 0 1 2\nedge 1 1 2\nedge \u0662 1 2\n", 4, "plain decimal"),
    ("gem 2 2\n", 1, "version"),
    ("gem 1 3\n", 1, "even"),
    ("gem 1 2\nedge 0 1 1\nedge 1 1 2\nedge 2 1 2\n", 2, "loop"),
    ("gem 1 2\nedge 0 2 1\nedge 1 1 2\nedge 2 1 2\n", 2, "u < v"),
    ("gem 1 2\nedge 3 1 2\nedge 1 1 2\nedge 2 1 2\n", 2, "color"),
    ("gem 1 2\nedge 0 1 2\nedge 0 1 2\nedge 2 1 2\n", 3, "duplicate color 0"),
    ("gem 1 2\nedge 0 1 2\nedge 1 1 2\n", 3, "expected 3n/2 = 3"),
])
def test_graph_errors_positioned(text, line, needle):
    with pytest.raises(FormatError) as exc:
        fileio.parse_graph(text)
    assert exc.value.line == line
    assert needle in str(exc.value)


def test_graph_too_many_edges():
    t1 = fileio.write_graph(gs.make_T(1))
    text = t1 + "edge 0 1 2\n"
    with pytest.raises(FormatError, match="too many") as exc:
        fileio.parse_graph(text)
    assert exc.value.line == 11


def test_graph_missing_color_positioned():
    # right arity, wrong content: color 2 listed twice for one pair
    text = ("gem 1 4\nedge 0 1 2\nedge 0 3 4\nedge 1 2 3\nedge 1 1 4\n"
            "edge 2 1 3\nedge 2 1 3\n")
    with pytest.raises(FormatError, match="duplicate color 2 at vertex 1"):
        fileio.parse_graph(text)


# ============================================================
# trace files
# ============================================================


def _sample_trace():
    g = gs.make_T(2)
    return g, gs.split_off_T1(g).trace


def test_trace_round_trip_exact():
    g, trace = _sample_trace()
    text = fileio.write_trace(trace)
    back = fileio.parse_trace(text)
    assert back == trace
    assert fileio.write_trace(back) == text
    assert gs.verify_trace(g, back).n == g.n


def test_trace_with_every_record_kind():
    g = gs.connected_sum(gs.make_P(1), 1, gs.make_P(1), 1)
    seam = next(s for s in gs.find_seams(g) if s.proper)
    g2 = gs.apply_move(g, gs.Interchange(seam.edges, 1, 1))
    cut = next(iter(enumerate_cut_specs(g2)))
    gbar = gs.simple_cut(g2, cut)
    glue = next(iter(enumerate_glue_specs(gbar, cut.cut_color)))
    trace, final = gs.record_trace(
        g, [gs.Interchange(seam.edges, 1, 1), gs.Cut(cut), gs.Glue(glue)])
    text = fileio.write_trace(trace)
    assert fileio.parse_trace(text) == trace
    assert gs.verify_trace(g, fileio.parse_trace(text)) == final


def test_trace_rejects_certificate_records():
    with pytest.raises(FormatError, match="certificates"):
        fileio.parse_trace("trace 1 x\nconclude P3 map=1-1\n")


def test_trace_parse_errors():
    with pytest.raises(FormatError, match="->"):
        fileio.parse_trace("trace 1 x\nglue c=2 w=1-2\n")
    with pytest.raises(FormatError, match="unknown record"):
        fileio.parse_trace("trace 1 x\nwiggle a=1 -> y\n")
    with pytest.raises(FormatError, match="inconsistent"):
        fileio.parse_trace("trace 1 x\ncut c=2 ea=2:1-2 eb=1:3-4 arc=1 -> y\n")


# ============================================================
# certificate files
# ============================================================


def _sample_certificate():
    g = gs.connected_sum(gs.make_P(1), 3, gs.make_T(2), 9)
    form, cert = gs.reduce(g)
    return g, form, cert


def test_certificate_round_trip_exact():
    g, form, cert = _sample_certificate()
    text = fileio.write_certificate(g, cert)
    back = fileio.parse_certificate(text)
    assert fileio.write_certificate(g, back) == text
    assert gs.verify_certificate(g, back) == form


def test_certificate_detection():
    g, _, cert = _sample_certificate()
    assert fileio.is_certificate(fileio.write_certificate(g, cert))
    assert not fileio.is_certificate(fileio.write_trace(_sample_trace()[1]))


def test_certificate_trailing_block_rejected():
    g, _, cert = _sample_certificate()
    text = fileio.write_certificate(g, cert)
    extra = text + "trace 1 bogus\nconclude L map=1-1,2-2\n"
    with pytest.raises(FormatError, match="trailing"):
        fileio.parse_certificate(extra)


def test_certificate_fp_mismatch_rejected():
    g, _, cert = _sample_certificate()
    lines = fileio.write_certificate(g, cert).splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("compose"))
    lines[idx] = lines[idx].replace("left=", "left=zzz", 1)
    with pytest.raises(FormatError, match="left fingerprint"):
        fileio.parse_certificate("\n".join(lines) + "\n")


def test_certificate_missing_conclude_rejected():
    with pytest.raises(FormatError, match="conclude"):
        fileio.parse_certificate("trace 1 x\nglue c=2 w=1-2 -> y\n")


def test_certificate_tamper_caught_at_verify():
    g, form, cert = _sample_certificate()
    lines = fileio.write_certificate(g, cert).splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("cutglue"))
    head, _, _ = lines[idx].rpartition(" ")
    lines[idx] = head + " tampered"
    back = fileio.parse_certificate("\n".join(lines) + "\n")
    with pytest.raises(gs.CertificateError):
        gs.verify_certificate(g, back)


@pytest.mark.parametrize("g", [
    gs.connected_sum(gs.make_P(1), 3, gs.make_T(2), 9),
    gs.connected_sum(gs.make_T(3), 7, gs.make_P(4), 2),
    gs.connected_sum(gs.make_T(2), 10, gs.make_T(3), 1),
    gs.make_P(9),
    random_contracted(random.Random(66), 66, False),
    gs.make_T(1),
], ids=["P1+T2", "T3+P4", "T2+T3", "P9", "n66", "T1"])
def test_write_certificate_fingerprints_only_the_root(monkeypatch, g):
    """The writer labels no graph, except the input of a certificate whose
    root is not a trace: for ``reduce``, an input of at most 6 vertices."""
    _, cert = gs.reduce(g)
    real = moves._canonical_rows
    labelled = []
    monkeypatch.setattr(moves, "_canonical_rows", lambda h: labelled.append(h) or real(h))
    text = fileio.write_certificate(g, cert)
    assert labelled == ([g] if g.n <= 6 else [])
    monkeypatch.undo()
    assert text.startswith(f"trace 1 {gs.fingerprint(g)}\n")


def _nested_certificate(g, depth):
    """A certificate whose left summands nest ``depth`` blocks deep, in writer format."""
    leaf = "conclude L map=1-1,2-2"
    blocks = [f"trace 1 {gs.fingerprint(g) if i == 0 else f'left{i}'}\n"
              f"compose left=left{i + 1} right=right{i} seam=0:1-2,1:1-2,2:1-2 "
              f"weld=1-1 -> sum{i}\n{leaf}" for i in range(depth)]
    blocks.append(f"trace 1 left{depth}\n{leaf}")
    blocks += [f"trace 1 right{i}\n{leaf}" for i in reversed(range(depth))]
    return "\n".join(blocks) + "\n"


def test_deeply_nested_certificate_round_trips():
    g = gs.make_L()
    text = _nested_certificate(g, 1500)
    assert fileio.write_certificate(g, fileio.parse_certificate(text)) == text


def test_deeply_nested_certificate_fails_verify_cleanly(tmp_path, capsys):
    gf, cf = tmp_path / "l.gem", tmp_path / "deep.cert"
    gf.write_text(fileio.write_graph(gs.make_L()))
    cf.write_text(_nested_certificate(gs.make_L(), 1500))
    assert main(["verify", str(gf), str(cf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failed:") and "Traceback" not in err


# ============================================================
# mutated graph files, traces and certificates
# ============================================================


JUNK = ("-1", "99999", "\u00b2", "P0", "")


@functools.cache
def _mutation_inputs():
    """(name, lines, check, write_back) for the graph file, a cut-and-glue
    trace, an interchange trace and the reduced certificate of a few small
    sums with mixed blocks; ``check`` runs the text of a possibly mutated
    copy, and ``write_back`` parses it and writes it out again."""
    sums = ((gs.make_P(1), 3, gs.make_T(2), 9),
            (gs.make_T(2), 7, gs.make_P(2), 2),
            (gs.make_P(2), 1, gs.make_T(1), 1))
    cases = []
    for k, (a, va, b, vb) in enumerate(sums):
        g = gs.connected_sum(a, va, b, vb)
        ms, n = g.matchings, g.n
        cert = gs.reduce(g)[1]
        # The benchmark's trace shapes: a cut undone by a glue, and an
        # interchange at the first summand's seam.
        far = ms[1][ms[0][ms[1][ms[0][1]]]]
        cut = gs.Cut(gs.cut_spec(2, (1, ms[0][1]), (far, ms[1][far])))
        glue = gs.Glue(GlueSpec(2, (n + 1, n + 2)))
        seam = seam_from_side(g, frozenset(range(1, a.n)))
        swap = gs.Interchange(seam.edges, 1, 1)
        cases.append((f"graph{k}", fileio.write_graph(g),
                      lambda text, cert=cert: gs.verify_certificate(fileio.parse_graph(text), cert),
                      lambda text: fileio.write_graph(fileio.parse_graph(text))))
        for name, moves in (("glue", [cut, glue]), ("interchange", [swap])):
            text = fileio.write_trace(gs.record_trace(g, moves)[0])
            cases.append((f"{name}{k}", text,
                          lambda text, g=g: gs.verify_trace(g, fileio.parse_trace(text)),
                          lambda text: fileio.write_trace(fileio.parse_trace(text))))
        cases.append((f"cert{k}", fileio.write_certificate(g, cert),
                      lambda text, g=g: gs.verify_certificate(g, fileio.parse_certificate(text)),
                      lambda text, g=g: fileio.write_certificate(g, fileio.parse_certificate(text))))
    return [(name, tuple(text.splitlines()), *funcs) for name, text, *funcs in cases]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_certificate_raises_only_gem_errors(data):
    _, lines, check, _ = data.draw(st.sampled_from(_mutation_inputs()))
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1))
    op = data.draw(st.sampled_from(["token", "field", "reverse", "delete", "duplicate", "swap"]))
    tokens = lines[i].split(" ")
    if op == "token":
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(JUNK))
    elif op == "field":
        k = data.draw(st.integers(0, len(tokens) - 1))
        key, eq, value = tokens[k].rpartition("=")
        parts = re.split(r"([,:-])", value)  # values at even indices
        parts[2 * data.draw(st.integers(0, len(parts) // 2))] = data.draw(st.sampled_from(JUNK))
        tokens[k] = key + eq + "".join(parts)
    lines[i] = " ".join(tokens)
    if op == "reverse":  # one u-v pair, or a graph file's "u v", spelled v-u
        pairs = list(re.finditer(r"\d+-\d+|\d+ \d+$", lines[i]))
        if pairs:
            m = pairs[data.draw(st.integers(0, len(pairs) - 1))]
            u, sep, v = re.split(r"([- ])", m.group())
            lines[i] = lines[i][:m.start()] + v + sep + u + lines[i][m.end():]
    elif op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[k] = lines[k], lines[i]
    start = time.perf_counter()
    try:
        check("\n".join(lines) + "\n")
    except gs.GemError:
        pass
    assert time.perf_counter() - start < 1.0


def _integer_spots(lines):
    """(line, token, match) for every digit run outside a fingerprint token:
    the header's third token, left= and right= values, and the token after '->'."""
    spots = []
    for i, line in enumerate(lines):
        tokens = line.split(" ")
        for k, token in enumerate(tokens):
            if ((tokens[0] == "trace" and k == 2) or (k and tokens[k - 1] == "->")
                    or token.startswith(("left=", "right="))):
                continue
            spots += [(i, k, m) for m in re.finditer("[0-9]+", token)]
    return spots


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_mutant_parses_only_as_written(data):
    """Respell one integer (+7, 07, 0_7, Arabic-Indic digits), swap two fields
    of one line or reorder a seam's edges: the mutant is refused, or it is
    written back as it reads, once runs of spaces are one (a graph file as
    the same set of lines)."""
    name, lines, _, write_back = data.draw(st.sampled_from(_mutation_inputs()))
    lines = list(lines)
    seams = [(i, k) for i, line in enumerate(lines)
             for k, token in enumerate(line.split(" ")) if token.startswith("seam=")]
    op = data.draw(st.sampled_from(["respell", "swap", "seam"] if seams else ["respell", "swap"]))
    if op == "respell":
        i, k, m = data.draw(st.sampled_from(_integer_spots(lines)))
        digits = m.group()
        new = data.draw(st.sampled_from(
            ["+" + digits, "0" + digits, "0_" + digits, digits.translate(ARABIC_INDIC)]))
        tokens = lines[i].split(" ")
        tokens[k] = tokens[k][:m.start()] + new + tokens[k][m.end():]
    elif op == "swap":
        i = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        a, b = data.draw(st.lists(st.integers(0, len(tokens) - 1), min_size=2, max_size=2,
                                  unique=True))
        tokens[a], tokens[b] = tokens[b], tokens[a]
    else:
        i, k = data.draw(st.sampled_from(seams))
        tokens = lines[i].split(" ")
        key, _, edges = tokens[k].partition("=")
        order = data.draw(st.sampled_from([p for p in itertools.permutations(range(3))
                                           if p != (0, 1, 2)]))
        tokens[k] = key + "=" + ",".join(edges.split(",")[j] for j in order)
    lines[i] = " ".join(tokens)
    try:
        back = write_back("\n".join(lines) + "\n").splitlines()
    except gs.GemError:
        return
    want = [" ".join(line.split()) for line in lines]
    if name.startswith("graph"):
        assert sorted(back) == sorted(want)
    else:
        assert back == want


# ============================================================
# randomized round trips
# ============================================================


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_graph_round_trips(rnd):
    base = [e.graph for e in enumerate_contracted(8).classes]
    g = rnd.choice(base)
    perm = list(range(1, g.n + 1))
    rnd.shuffle(perm)
    h = gs.relabel(g, {u: perm[u - 1] for u in range(1, g.n + 1)})
    text = fileio.write_graph(h)
    assert fileio.parse_graph(text) == h
    assert fileio.write_graph(fileio.parse_graph(text)) == text


def random_legal_trace(g, rng, steps=3):
    moves = []
    current = g
    for _ in range(steps):
        cuts = list(enumerate_cut_specs(current))
        if not cuts:
            break
        cut = rng.choice(cuts)
        gbar = gs.simple_cut(current, cut)
        glues = list(enumerate_glue_specs(gbar, cut.cut_color))
        if rng.random() < 0.5 and glues:
            move = gs.CutGlue(cut, rng.choice(glues))
        else:
            move = gs.Cut(cut)
        moves.append(move)
        current = gs.apply_move(current, move)
    return gs.record_trace(g, moves)


def test_random_trace_round_trips():
    rng = random.Random(2024)
    base = [e.graph for e in enumerate_contracted(6).classes]
    for _ in range(40):
        g = rng.choice(base)
        trace, final = random_legal_trace(g, rng)
        text = fileio.write_trace(trace)
        back = fileio.parse_trace(text)
        assert back == trace
        assert fileio.write_trace(back) == text
        assert gs.verify_trace(g, back) == final
