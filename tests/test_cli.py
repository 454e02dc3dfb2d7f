import re
from pathlib import Path

import pytest

import gemsurf as gs
from gemsurf import fileio
from gemsurf.cli import main
from gemsurf.core import seam_from_side


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def t1_file(tmp_path):
    return write(tmp_path, "t1.gem", fileio.write_graph(gs.make_T1()))


def test_validate_ok(tmp_path, capsys):
    assert main(["validate", t1_file(tmp_path)]) == 0
    assert capsys.readouterr().out == "valid, n=6\n"


def test_validate_positioned_error(tmp_path, capsys):
    path = write(tmp_path, "bad.gem",
                 "gem 1 2\nedge 0 1 1\nedge 1 1 2\nedge 2 1 2\n")
    assert main(["validate", path]) == 3
    err = capsys.readouterr().err
    assert "line 2" in err and "loop" in err


def test_validate_arity_error(tmp_path, capsys):
    text = fileio.write_graph(gs.make_T1()).splitlines()[:-1]
    path = write(tmp_path, "short.gem", "\n".join(text) + "\n")
    assert main(["validate", path]) == 3
    assert "3n/2" in capsys.readouterr().err


def test_info_t1(tmp_path, capsys):
    assert main(["info", t1_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "contracted bipartite χ=0 T(1) orientable genus 1" in out
    assert "cycles: {0,1}=1 {0,2}=1 {1,2}=1" in out


def test_info_l_and_p2(tmp_path, capsys):
    lf = write(tmp_path, "l.gem", fileio.write_graph(gs.make_L()))
    assert main(["info", lf]) == 0
    assert "χ=2 L sphere" in capsys.readouterr().out
    pf = write(tmp_path, "p2.gem", fileio.write_graph(gs.make_P2()))
    assert main(["info", pf]) == 0
    assert "non-bipartite χ=0 P(2) non-orientable genus 2" in capsys.readouterr().out


def test_gen_and_info(tmp_path, capsys):
    out = str(tmp_path / "t2.gem")
    assert main(["gen", "T", "2", "-o", out]) == 0
    capsys.readouterr()
    assert main(["info", out]) == 0
    assert "contracted bipartite χ=-2 T(2)" in capsys.readouterr().out


def test_gen_requires_index(tmp_path, capsys):
    assert main(["gen", "P", "-o", str(tmp_path / "x.gem")]) == 2


@pytest.mark.parametrize("family, m", [("P", "0"), ("T", "0"), ("T", "-1")])
def test_gen_index_below_one_is_usage_error(tmp_path, capsys, family, m):
    out = tmp_path / "x.gem"
    assert main(["gen", family, m, "-o", str(out)]) == 2
    assert f"error: {family} requires index m >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_gen_l_takes_no_index(tmp_path, capsys):
    out = tmp_path / "l.gem"
    assert main(["gen", "L", "5", "-o", str(out)]) == 2
    assert "L takes no index" in capsys.readouterr().err
    assert not out.exists()


def test_enum_summary_and_files(tmp_path, capsys):
    out_dir = tmp_path / "classes"
    assert main(["enum", "6", "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "6\t2\t1\tP2,T1"
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["class_000.gem", "class_001.gem", "summary.tsv"]
    graphs = [fileio.parse_graph((out_dir / f).read_text()) for f in files[:2]]
    assert all(gs.is_contracted(g) for g in graphs)


@pytest.mark.parametrize("argv, message", [
    (["0"], "vertex count must be a positive even integer, got 0"),
    (["3"], "vertex count must be a positive even integer, got 3"),
    (["-2"], "vertex count must be a positive even integer, got -2"),
    (["8", "--bound", "6"], "n=8 exceeds the enumeration bound 6"),
])
def test_enum_bad_n_is_usage_error(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "classes"
    assert main(["enum", *argv, "--out-dir", str(out_dir)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_iso_negative_and_positive(tmp_path, capsys):
    a = t1_file(tmp_path)
    b = write(tmp_path, "p2.gem", fileio.write_graph(gs.make_P2()))
    assert main(["iso", a, b]) == 1
    assert capsys.readouterr().out == "non-isomorphic\n"
    shuffled = gs.relabel(gs.make_T1(), {1: 3, 2: 4, 3: 5, 4: 6, 5: 1, 6: 2})
    c = write(tmp_path, "t1s.gem", fileio.write_graph(shuffled))
    assert main(["iso", a, c]) == 0
    assert capsys.readouterr().out.startswith("isomorphic: 1->")


def disjoint_union(*graphs):
    records, offset = [], 0
    for g in graphs:
        records += [(c, u + offset, v + offset) for (c, u, v) in g.edges()]
        offset += g.n
    return gs.validate(offset, records)


@pytest.mark.parametrize("g, k, expected", [
    (gs.make_T(2), 3,
     "isomorphic: 1->3 2->6 3->9 4->2 5->5 6->8 7->1 8->4 9->7 10->10\n"),
    (disjoint_union(gs.make_T1(), gs.make_P1(), gs.make_L()), 5,
     "isomorphic: 1->1 2->6 3->5 4->10 5->3 6->8 7->2 8->9 9->4 10->11 11->7 12->12\n"),
])
def test_iso_witness_bytes(tmp_path, capsys, g, k, expected):
    # The relabelling v -> k*v - 1 (mod n) + 1; the witness pins which of
    # the automorphic images `iso` reports, component by component.
    h = gs.relabel(g, {v: (v * k - 1) % g.n + 1 for v in range(1, g.n + 1)})
    a = write(tmp_path, "a.gem", fileio.write_graph(g))
    b = write(tmp_path, "b.gem", fileio.write_graph(h))
    assert main(["iso", a, b]) == 0
    assert capsys.readouterr().out == expected


def test_reduce_verify_round_trip(tmp_path, capsys):
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 4)
    gf = write(tmp_path, "g.gem", fileio.write_graph(g))
    tf = str(tmp_path / "g.trace")
    assert main(["reduce", gf, "-o", tf]) == 0
    assert capsys.readouterr().out == "P(3)\n"
    assert main(["verify", gf, tf]) == 0
    assert capsys.readouterr().out == "verified: P(3)\n"


def test_reduce_t1_emits_bare_conclusion(tmp_path, capsys):
    gf = t1_file(tmp_path)
    tf = str(tmp_path / "t1.trace")
    assert main(["reduce", gf, "-o", tf]) == 0
    assert capsys.readouterr().out == "T(1)\n"
    lines = (tmp_path / "t1.trace").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("conclude T1")
    assert main(["verify", gf, tf]) == 0
    assert capsys.readouterr().out == "verified: T(1)\n"


def test_reduce_catalog_class_file(tmp_path, capsys):
    out_dir = tmp_path / "classes8"
    main(["enum", "8", "--out-dir", str(out_dir)])
    capsys.readouterr()
    gf = str(out_dir / "class_000.gem")
    tf = str(tmp_path / "c.trace")
    assert main(["reduce", gf, "-o", tf]) == 0
    assert capsys.readouterr().out == "P(3)\n"
    assert main(["verify", gf, tf]) == 0
    assert capsys.readouterr().out == "verified: P(3)\n"


def test_verify_tampered_named_step(tmp_path, capsys):
    g = gs.make_T(2)
    sp = gs.split_off_T1(g)
    gf = write(tmp_path, "g.gem", fileio.write_graph(g))
    lines = fileio.write_trace(sp.trace).splitlines()
    head, _, _ = lines[2].rpartition(" ")
    lines[2] = head + " tampered"
    tf = write(tmp_path, "g.trace", "\n".join(lines) + "\n")
    assert main(["verify", gf, tf]) == 1
    assert "step 2" in capsys.readouterr().err


def test_verify_rejects_a_witness_that_lists_a_vertex_twice(tmp_path, capsys):
    gf = str(tmp_path / "t2.gem")
    tf = str(tmp_path / "t2.cert")
    assert main(["gen", "T", "2", "-o", gf]) == 0
    assert main(["reduce", gf, "-o", tf]) == 0
    lines = (tmp_path / "t2.cert").read_text().splitlines()
    at = max(i for i, line in enumerate(lines) if line.startswith("conclude T1 map="))
    lines[at] = lines[at].replace("map=", "map=1-2,", 1)
    bad = write(tmp_path, "bad.cert", "\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", gf, bad]) == 1
    assert "isomorphism witness onto T(1) is invalid" in capsys.readouterr().err


def test_verify_checks_the_header_of_a_conclude_only_summand(tmp_path, capsys):
    """A summand block that holds only a conclude has no trace to check its
    header, so the witness onto T(1) must make it T(1)'s fingerprint, even
    when the compose record names the same wrong value."""
    g = gs.make_T(3)
    rotated = gs.relabel(g, {v: v % g.n + 1 for v in range(1, g.n + 1)})
    gf = write(tmp_path, "t3.gem", fileio.write_graph(rotated))
    cf = str(tmp_path / "t3.cert")
    assert main(["reduce", gf, "-o", cf]) == 0
    lines = (tmp_path / "t3.cert").read_text().splitlines()
    compose = next(i for i, line in enumerate(lines) if line.startswith("compose "))
    t1 = re.search(r" right=(\S+) ", lines[compose]).group(1)
    assert lines[-2:] == [f"trace 1 {t1}", lines[-1]] and lines[-1].startswith("conclude T1 ")
    p2 = gs.fingerprint(gs.make_P(2))
    lines[compose] = lines[compose].replace(f" right={t1} ", f" right={p2} ")
    lines[-2] = f"trace 1 {p2}"
    bad = write(tmp_path, "bad.cert", "\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", gf, bad]) == 1
    assert capsys.readouterr().err == ("verification failed: compose right fingerprint "
                                       "is not that of T(1)\n")


def test_verify_checks_the_header_of_a_conclude_only_root(tmp_path, capsys):
    """No trace replays from the header of a root block that holds only a
    conclude, so verify compares it with the input graph's fingerprint."""
    gf = str(tmp_path / "t1.gem")
    cf = str(tmp_path / "t1.cert")
    assert main(["gen", "T", "1", "-o", gf]) == 0
    assert main(["reduce", gf, "-o", cf]) == 0
    text = (tmp_path / "t1.cert").read_text()
    lines = text.splitlines()
    assert len(lines) == 2 and lines[1].startswith("conclude T1 ")
    g = fileio.parse_graph((tmp_path / "t1.gem").read_text())
    assert fileio.write_certificate(g, fileio.parse_certificate(text)) == text
    k4 = gs.fingerprint(gs.make_P1())
    assert k4 == "4:2.1.4.3:3.4.1.2:4.3.2.1"
    bad = write(tmp_path, "bad.cert", f"trace 1 {k4}\n{lines[1]}\n")
    capsys.readouterr()
    assert main(["verify", gf, bad]) == 1
    assert capsys.readouterr().err == ("verification failed: root header fingerprint "
                                       "does not match the input graph\n")


# Certificates that ``reduce`` wrote while a K4 split could leave a torus
# remainder: they weld P(1) to T(k) and rewrite a torus # K4 sum to P(3).
PT_WELD_CERTS = Path(__file__).with_name("pt_weld_certs")


@pytest.mark.parametrize("name, form", [("sum-P1-T2-n12", "P(5)"), ("sum-T3-P2-n18", "P(8)")])
def test_verify_accepts_certificates_with_pt_welds(tmp_path, capsys, name, form):
    gf, cf = (str(PT_WELD_CERTS / f"{name}.{ext}") for ext in ("gem", "cert"))
    assert main(["verify", gf, cf]) == 0
    assert capsys.readouterr().out == f"verified: {form}\n"

    lines = Path(cf).read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("cutglue c=1 "))
    fields = dict(tok.split("=", 1) for tok in lines[at].split() if "=" in tok)
    arc = fields["arc"]
    ends = next(edge.split(":")[1].split("-") for edge in (fields["ea"], fields["eb"])
                if arc in edge.split(":")[1].split("-"))
    other = ends[0] if ends[1] == arc else ends[1]
    lines[at] = lines[at].replace(f" arc={arc} ", f" arc={other} ")
    bad = write(tmp_path, "bad.cert", "\n".join(lines) + "\n")
    assert main(["verify", gf, bad]) == 1
    assert "verification failed" in capsys.readouterr().err


def test_verify_pure_trace(tmp_path, capsys):
    g = gs.make_T(2)
    sp = gs.split_off_T1(g)
    gf = write(tmp_path, "g.gem", fileio.write_graph(g))
    tf = write(tmp_path, "g.trace", fileio.write_trace(sp.trace))
    assert main(["verify", gf, tf]) == 0
    assert capsys.readouterr().out == "verified: final n=10 T(2)\n"


def test_apply_writes_final_graph(tmp_path, capsys):
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 4)
    trace, _ = gs.rewrite_TP1_to_P3(g, seam_from_side(g, frozenset({1, 2, 3})))
    gf = write(tmp_path, "g.gem", fileio.write_graph(g))
    tf = write(tmp_path, "g.trace", fileio.write_trace(trace))
    out = str(tmp_path / "final.gem")
    assert main(["apply", gf, tf, "-o", out]) == 0
    final = fileio.parse_graph((tmp_path / "final.gem").read_text())
    assert gs.are_isomorphic(final, gs.make_P(3)) is not None


@pytest.mark.parametrize("steps", [0, 1])
def test_apply_prints_the_checked_fingerprint(tmp_path, capsys, steps):
    """apply prints the last checkpoint (or the header of an empty trace),
    which equals the final graph's fingerprint."""
    g = gs.connected_sum(gs.make_P1(), 1, gs.make_T1(), 4)
    trace, final = gs.rewrite_TP1_to_P3(g, seam_from_side(g, frozenset({1, 2, 3})))
    if steps == 0:
        trace, final = gs.MoveTrace(trace.initial, ()), g
    gf = write(tmp_path, "g.gem", fileio.write_graph(g))
    tf = write(tmp_path, "g.trace", fileio.write_trace(trace))
    out = str(tmp_path / "final.gem")
    assert main(["apply", gf, tf, "-o", out]) == 0
    assert capsys.readouterr().out == (
        f"wrote n=8 graph to {out} (fingerprint {gs.fingerprint(final)})\n")


def test_apply_rejects_certificate(tmp_path, capsys):
    g = gs.make_P(3)
    form, cert = gs.reduce(g)
    gf = write(tmp_path, "g.gem", fileio.write_graph(g))
    tf = write(tmp_path, "g.cert", fileio.write_certificate(g, cert))
    out = str(tmp_path / "x.gem")
    assert main(["apply", gf, tf, "-o", out]) == 3
    assert "plain move trace" in capsys.readouterr().err


@pytest.mark.parametrize("record", [
    "glue c=x w=1-2 -> fp",
    "glue c=+1 w=1-2 -> fp",
    "glue c=1 w=01-2 -> fp",
    "interchange seam=0:1-4,1:2-5,2:3-6 u'=\u0662 v'=1 -> fp",
    "interchange seam=0:1-4,1:2-5,2:3-6 u'=a v'=1 -> fp",
    "interchange seam=0:1-4,1:2-5,2:3-6 u'=1 v'=b -> fp",
])
def test_verify_malformed_trace_field_is_format_error(tmp_path, capsys, record):
    tf = write(tmp_path, "bad.trace", f"trace 1 fp\n{record}\n")
    assert main(["verify", t1_file(tmp_path), tf]) == 3
    assert "line 2:" in capsys.readouterr().err


def _t2_proof(kind):
    """T(2) and a valid trace or certificate of it that holds a ``kind`` record."""
    g = gs.make_T(2)
    if kind == "cutglue":
        return g, fileio.write_trace(gs.split_off_T1(g).trace)
    if kind == "glue":
        ms, n = g.matchings, g.n
        far = ms[1][ms[0][ms[1][ms[0][1]]]]
        cut = gs.Cut(gs.cut_spec(2, (1, ms[0][1]), (far, ms[1][far])))
        glue = gs.Glue(gs.moves.GlueSpec(2, (n + 1, n + 2)))
        return g, fileio.write_trace(gs.record_trace(g, [cut, glue])[0])
    if kind == "interchange":
        seam = next(s for s in gs.find_seams(g) if s.proper)
        _, a1, _, a2 = gs.extract_summands(g, seam)
        return g, fileio.write_trace(gs.record_trace(g, [gs.Interchange(seam.edges, a1, a2)])[0])
    return g, fileio.write_certificate(g, gs.reduce(g)[1])


def _edge_swapped_proof(kind):
    """A valid T(2) trace or certificate with its first ``kind`` edge spelled v-u."""
    g, text = _t2_proof(kind)
    field = "ea" if kind == "cutglue" else "seam"
    swapped = re.sub(rf"({field}=\d+):(\d+)-(\d+)", r"\1:\3-\2", text, count=1)
    assert swapped != text
    return g, swapped


@pytest.mark.parametrize("kind", ["cutglue", "interchange", "compose"])
def test_verify_edge_spelled_high_low_is_format_error(tmp_path, capsys, kind):
    g, text = _edge_swapped_proof(kind)
    gf = write(tmp_path, "t2.gem", fileio.write_graph(g))
    assert main(["verify", gf, write(tmp_path, "swapped.trace", text)]) == 3
    err = capsys.readouterr().err
    assert re.search(r"line \d+: edge endpoints must satisfy u < v", err)


def _drop(key):
    return lambda tokens: [t for t in tokens if not t.startswith(key + "=")]


def _swap(a, b):
    return lambda tokens: [tokens[b] if k == a else tokens[a] if k == b else t
                           for k, t in enumerate(tokens)]


def _respell(key, spell):
    return lambda tokens: [f"{key}={spell(t[len(key) + 1:])}" if t.startswith(key + "=") else t
                           for t in tokens]


@pytest.mark.parametrize("kind, edit, needle", [
    ("cutglue", lambda t: t[:1] + ["arc=999"] + t[1:], "cutglue record: expected 'c="),
    ("cutglue", lambda t: t[:1] + ["zzz=1"] + t[1:], "cutglue record: expected 'c="),
    ("compose", lambda t: t[:1] + ["left=999"] + t[1:], "compose record: expected 'right="),
    ("compose", lambda t: t[:1] + ["zzz=1"] + t[1:], "compose record: expected 'left="),
    ("cutglue", _drop("c"), "cutglue record: expected 'c="),
    ("glue", _drop("w"), "glue record: expected 'w="),
    ("interchange", _drop("seam"), "interchange record: expected 'seam="),
    ("compose", _drop("weld"), "compose record: expected 'weld="),
    ("cutglue", _swap(1, 2), "cutglue record: expected 'c="),
    ("compose", _swap(3, 4), "compose record: expected 'seam="),
    ("cutglue", _respell("arc", lambda v: "+" + v), "plain decimal"),
    ("cutglue", _respell("eb", lambda v: v.translate(ARABIC_INDIC)), "plain decimal"),
    ("compose", _respell("weld", lambda v: "0" + v), "plain decimal"),
    ("compose", _respell("seam", lambda v: ",".join(v.split(",")[::-1])), "inconsistent"),
    ("conclude", _respell("map", lambda v: "0" + v), "plain decimal"),
    ("conclude", lambda t: [t[0], t[1][0] + "0" + t[1][1:], *t[2:]], "bad form token"),
], ids=["trace-repeated", "trace-unknown", "compose-repeated", "compose-unknown",
        "cutglue-without-c", "glue-without-w", "interchange-without-seam", "compose-without-weld",
        "cutglue-swapped", "compose-swapped", "arc-plus-sign", "eb-arabic-indic-digits",
        "weld-leading-zero", "seam-reordered", "map-leading-zero", "conclude-leading-zero"])
def test_verify_repeated_or_unknown_field_is_format_error(tmp_path, capsys, kind, edit, needle):
    """A field given twice, one the record kind does not define, a missing one,
    two out of order, an integer not in plain decimal or a seam out of color
    order is refused at its line, even where the record would otherwise
    verify: a field fault names the kind and the key expected there."""
    g, text = _t2_proof(kind)
    gf = write(tmp_path, "t2.gem", fileio.write_graph(g))
    assert main(["verify", gf, write(tmp_path, "good.trace", text)]) == 0
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(kind + " "))
    lines[i] = " ".join(edit(lines[i].split(" ")))
    capsys.readouterr()
    assert main(["verify", gf, write(tmp_path, "bad.trace", "\n".join(lines) + "\n")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {i + 1}: ") and needle in err


@pytest.mark.parametrize("token", ["P\u00b2", "T" + "5" * 5000, "T02", "P+1", "T\u0662"],
                         ids=["superscript-digit", "5000-digits", "leading-zero", "plus-sign",
                              "arabic-indic-digit"])
def test_verify_bad_form_index_is_format_error(tmp_path, capsys, token):
    cf = write(tmp_path, "bad.cert", f"trace 1 fp\nconclude {token} map=1-1\n")
    assert main(["verify", t1_file(tmp_path), cf]) == 3
    assert "line 2:" in capsys.readouterr().err


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.gem")]) == 2


def test_outputs_deterministic(tmp_path, capsys):
    gf = t1_file(tmp_path)
    main(["info", gf])
    first = capsys.readouterr().out
    main(["info", gf])
    assert capsys.readouterr().out == first
    d1, d2 = tmp_path / "e1", tmp_path / "e2"
    main(["enum", "6", "--out-dir", str(d1)])
    capsys.readouterr()
    main(["enum", "6", "--out-dir", str(d2)])
    capsys.readouterr()
    for name in ("class_000.gem", "class_001.gem", "summary.tsv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _trivial_seam_certificate(records, nested, weld="6-1"):
    """A T(1) certificate with ``records`` compose records on the trivial
    seam at vertex 6, each splitting off L and welding it back at ``weld``;
    it is valid at the default weld.

    Chained, the records follow each other in the root block; nested, each
    record's left summand block holds the next one.
    """
    t1 = gs.fingerprint(gs.make_T1())
    compose = (f"compose left={t1} right={gs.fingerprint(gs.make_L())} "
               f"seam=0:5-6,1:1-6,2:3-6 weld={weld} -> {t1}")
    conclude_t1 = "conclude T1 map=" + ",".join(f"{u}-{u}" for u in range(1, 7))
    t1_block = f"trace 1 {t1}\n{conclude_t1}"
    l_block = f"trace 1 {gs.fingerprint(gs.make_L())}\nconclude L map=1-1,2-2"
    if nested:
        blocks = [f"trace 1 {t1}\n{compose}\n{conclude_t1}"] * records
        blocks += [t1_block] + [l_block] * records
    else:
        blocks = [f"trace 1 {t1}\n" + f"{compose}\n" * records + conclude_t1]
        blocks += [t1_block, l_block] * records
    return "\n".join(blocks) + "\n"


@pytest.mark.parametrize("nested", [False, True], ids=["chained", "nested"])
def test_verify_deep_valid_certificate(tmp_path, capsys, nested):
    cf = write(tmp_path, "deep.cert", _trivial_seam_certificate(1500, nested))
    assert main(["verify", t1_file(tmp_path), cf]) == 0
    assert capsys.readouterr().out == "verified: T(1)\n"


@pytest.mark.parametrize("weld, error", [
    ("6-1", ""),
    ("6-2", "type rule violated: vertices 6 and 2 are both white"),
    ("5-1", "type rule violated: vertices 5 and 1 are both black"),
])
def test_verify_checks_the_weld_type_rule(tmp_path, capsys, weld, error):
    cf = write(tmp_path, "weld.cert", _trivial_seam_certificate(1, False, weld))
    assert main(["verify", t1_file(tmp_path), cf]) == (1 if error else 0)
    out, err = capsys.readouterr()
    if error:
        assert err == f"verification failed: illegal recombination weld: {error}\n"
    else:
        assert out == "verified: T(1)\n"
