#!/usr/bin/env python3
"""Benchmark of gemsurf: the certify, check and enum workloads.

    python3 gembench/run.py --workload certify|check|enum --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop: one process runs one operation
after the other, in whole rounds over a fixed input set made from
``--seed``, until the round boundary nearest to ``--seconds``.  A time
metric sums, over the operations it covers, each operation's fastest
round; ``setup_s`` is the median of the set-ups spread over the run.
Every output is checked against the benchmark's own derivations
(``graphs.py``), and negative controls show each check rejecting a wrong
answer.

``--trace 0`` prints the end-to-end metrics, the same three on every
workload: ``work_s``, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` runs
the same untraced rounds, then one traced round over the same inputs, and
prints every per-layer metric: the untraced time of each part of every
workload (0 on the parts of other workloads), the per-layer figures of the
traced round and the tracing overhead; the spans are written to
``.gembench/spans-<workload>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import graphs as oracle
from graphs import CheckError
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".gembench"
# Set-ups per run: at least SETUP_MIN, and more, up to SETUP_MAX, while
# their summed time stays under SETUP_BUDGET_S.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
clock = time.perf_counter


def load_program():
    """Import gemsurf from this checkout's ``src/``, never from elsewhere."""
    package_dir = SRC / "gemsurf"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"error: no gemsurf sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import gemsurf
    if Path(gemsurf.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"error: imported gemsurf from {gemsurf.__file__}, not {package_dir}")
    from gemsurf import catalog, cli, core, fileio, moves, reduction, surfaces
    return argparse.Namespace(core=core, moves=moves, reduction=reduction, surfaces=surfaces,
                              catalog=catalog, fileio=fileio, cli=cli)


def fresh_import() -> None:
    """Start a new interpreter that imports the package: what every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import gemsurf"], cwd=ROOT, env=env,
                   check=True, capture_output=True, timeout=120)


def to_program(gs, graph):
    """A new program graph object for one of the benchmark's graphs."""
    n, ms = graph
    return gs.core.ColoredGraph(n, tuple(tuple(m) for m in ms))


def mixed_sum(gs, rng, k: int):
    """T(k) # P(2) welded at random vertices and relabelled, with its P(2) side."""
    t, p = gs.reduction.make_T(k), gs.reduction.make_P(2)
    g = gs.core.connected_sum(t, rng.randint(1, t.n), p, rng.randint(1, p.n))
    perm = oracle.random_perm(rng, g.n)
    n, ms = oracle.relabel(perm, g.n, g.matchings)
    if not oracle.is_contracted(n, ms) or oracle.is_bipartite(n, ms):
        raise CheckError(f"T({k}) # P(2) is not a non-bipartite contracted graph")
    p_side = frozenset(perm[v] for v in range(t.n, g.n + 1))
    return (n, ms), p_side


# ============================================================
# Workloads
# ============================================================
#
# ops(state) lists (label, fn); fn(times) adds its timed seconds to
# times[part] for the parts it covers and returns its output; the whole
# call is timed as well, as the operation's share of ``work_s``.
# check(state, outputs) raises CheckError on a wrong output of the first
# round; controls(state, outputs) feeds each check a deliberately wrong
# answer and raises CheckError if a check accepts it.  Later rounds must
# repeat the first round's outputs.


class Certify:
    """reduce + classify_surface + write_certificate on seeded contracted graphs."""

    parts = ("reduce_s.n66", "reduce_s.n98", "reduce_s.mixed", "write_s")
    buckets = {"n66": 66, "n98": 98}
    mixed_k = 15  # T(k) # P(2) on 4k+6 = 66 vertices

    def __init__(self, gs):
        self.gs = gs

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        inputs = []
        for bucket, n in self.buckets.items():
            for bip in (True, False):
                inputs.append((bucket, oracle.random_contracted(rng, n, bip)))
        inputs.append(("mixed", mixed_sum(self.gs, rng, self.mixed_k)[0]))
        return {"inputs": inputs, "seed": seed}

    def ops(self, state):
        gs = self.gs

        def certify(graph, metric):
            def op(times):
                g = to_program(gs, graph)
                t0 = clock()
                form, cert = gs.reduction.reduce(g)
                t1 = clock()
                surface = gs.surfaces.classify_surface(g)
                t2 = clock()
                text = gs.fileio.write_certificate(g, cert)
                t3 = clock()
                times[metric] += t1 - t0
                times["write_s"] += t3 - t2
                return (form.kind, form.m), (surface.kind, surface.genus), text
            return op

        return [(bucket, certify(graph, f"reduce_s.{bucket}")) for bucket, graph in state["inputs"]]

    def check(self, state, outputs):
        gs = self.gs
        rng = random.Random(state["seed"] + 1)
        for (bucket, graph), out in zip(state["inputs"], outputs):
            if isinstance(out, Exception):  # a failed operation, counted as such
                continue
            n, ms = graph
            form, surface, text = out
            want = oracle.check_form(form, n, ms)
            oracle.check_surface(surface, want)
            h = gs.reduction.realize(gs.reduction.CanonicalForm(*want))
            oracle.check_same_invariants(n, ms, h.n, h.matchings)
            fp = text.split("\n", 1)[0].split()[2]
            oracle.check_fingerprint(fp, n, ms)
            again = to_program(gs, oracle.relabel(oracle.random_perm(rng, n), n, ms))
            if gs.moves.fingerprint(again) != fp:
                raise CheckError(f"{bucket}: fingerprint changes under relabelling")
            g = to_program(gs, graph)
            parsed = gs.fileio.parse_certificate(text)
            if gs.fileio.write_certificate(g, parsed) != text:
                raise CheckError(f"{bucket}: certificate write -> parse -> write differs")
            verified = gs.reduction.verify_certificate(g, parsed)
            if (verified.kind, verified.m) != want:
                raise CheckError(f"{bucket}: parsed certificate verifies to {verified}")

    def controls(self, state, outputs):
        done = [(graph, out) for (_, graph), out in zip(state["inputs"], outputs)
                if not isinstance(out, Exception)]
        if not done:
            return
        (n, ms), (form, surface, text) = done[0]
        kind, m = form
        fp = text.split("\n", 1)[0].split()[2]
        yield "form off by one", lambda: oracle.check_form((kind, m + 1), n, ms)
        yield "surface genus off by one", lambda: oracle.check_surface(
            (surface[0], surface[1] + 1), form)
        yield "fingerprint with two labels swapped", lambda: oracle.check_fingerprint(
            oracle.swap_two_labels(fp), n, ms)


class Check:
    """In-process ``gemsurf verify`` on valid and tampered certificates and traces."""

    parts = ("verify_s", "reject_s")

    def __init__(self, gs):
        self.gs = gs

    def setup(self, seed: int, workdir: Path):
        gs = self.gs
        rng = random.Random(seed)
        graphs = {
            "n66.bip": oracle.random_contracted(rng, 66, True),
            "n66": oracle.random_contracted(rng, 66, False),
            "n98": oracle.random_contracted(rng, 98, False),
        }
        graphs["mixed.66"] = mixed_sum(gs, rng, 15)[0]
        files = {}

        def put(name, text):
            path = workdir / name
            path.write_text(text)
            files[name] = str(path)

        certs = {}
        for name, graph in graphs.items():
            put(f"{name}.gem", write_graph(graph))
            g = to_program(gs, graph)
            certs[name] = gs.fileio.write_certificate(g, gs.reduction.reduce(g)[1])
            put(f"{name}.cert", certs[name])

        # Plain traces carrying a glue and an interchange record, on a graph
        # that does not depend on the seed: their malformed copies fail every
        # run the same way.
        graphs["fixed.66"], p_side = mixed_sum(gs, random.Random(0), 15)
        n, ms = graphs["fixed.66"]
        put("fixed.66.gem", write_graph(graphs["fixed.66"]))
        ea = tuple(sorted((1, ms[0][1])))
        far = ms[1][ms[0][ms[1][ms[0][1]]]]
        eb = tuple(sorted((far, ms[1][far])))
        cut = gs.moves.Cut(gs.moves.cut_spec(2, ea, eb))
        glue = gs.moves.Glue(gs.moves.GlueSpec(2, (n + 1, n + 2)))
        swap = gs.moves.Interchange(oracle.crossing_edges(n, ms, p_side), 1, 1)
        for name, moves in (("glue", [cut, glue]), ("interchange", [swap])):
            trace, _ = gs.moves.record_trace(to_program(gs, graphs["fixed.66"]), moves)
            put(f"fixed.66.{name}.trace", gs.fileio.write_trace(trace))

        put("n66.fp.cert", tamper_fingerprint(certs["n66"]))
        put("n98.map.cert", tamper_map(certs["n98"]))
        put("mixed.66.seam.cert", tamper_seam(certs["mixed.66"]))
        put("n66.bip.T151.cert", tamper_conclusion(certs["n66.bip"], "T151"))
        put("fixed.66.glue.bad.trace", tamper_field(files["fixed.66.glue.trace"], "glue", "c"))
        put("fixed.66.interchange.bad.trace",
            tamper_field(files["fixed.66.interchange.trace"], "interchange", "u'"))

        def case(graph, proof, expect):
            return (proof, [files[f"{graph}.gem"], files[proof]], expect)

        def valid(graph, proof):
            n, ms = graphs[graph]
            words = oracle.form_text(oracle.expected_form(n, oracle.is_bipartite(n, ms)))
            if proof.endswith(".trace"):
                words = f"final n={n} {words}"
            return case(graph, proof, f"verified: {words}\n")

        cases = [
            valid("n66.bip", "n66.bip.cert"),
            valid("n66", "n66.cert"),
            valid("n98", "n98.cert"),
            valid("mixed.66", "mixed.66.cert"),
            valid("fixed.66", "fixed.66.glue.trace"),
            valid("fixed.66", "fixed.66.interchange.trace"),
            case("n66", "n66.fp.cert", None),
            case("n98", "n98.map.cert", None),
            case("mixed.66", "mixed.66.seam.cert", None),
            case("n66.bip", "n66.bip.T151.cert", None),
            case("fixed.66", "fixed.66.glue.bad.trace", None),
            case("fixed.66", "fixed.66.interchange.bad.trace", None),
        ]
        return {"cases": cases}

    def ops(self, state):
        cli = self.gs.cli

        def verify(paths, metric):
            def op(times):
                out, err = io.StringIO(), io.StringIO()
                t0 = clock()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(["verify", *paths])
                finally:
                    times[metric] += clock() - t0
                return code, out.getvalue()
            return op

        return [(name, verify(paths, "verify_s" if expect else "reject_s"))
                for name, paths, expect in state["cases"]]

    def check(self, state, outputs):
        for (name, _, expect), out in zip(state["cases"], outputs):
            if not isinstance(out, Exception):  # a raised exception is a failed operation
                check_exit(name, expect, *out)

    def controls(self, state, outputs):
        valid = next(c for c in state["cases"] if c[2])
        tampered = next(c for c in state["cases"] if not c[2])
        yield "exit code 0 on a tampered file", lambda: check_exit(
            tampered[0], None, 0, valid[2])
        yield "verified with the wrong form", lambda: check_exit(
            valid[0], valid[2], 0, valid[2].replace("(", "(1"))


def check_exit(name: str, expect, code: int, stdout: str) -> None:
    """Valid files verify to the expected form; tampered ones exit 1 or 3."""
    if expect is not None and (code, stdout) != (0, expect):
        raise CheckError(f"{name}: exit {code}, printed {stdout!r}, expected {expect!r}")
    if expect is None and code not in (1, 3):
        raise CheckError(f"{name}: tampered file gave exit code {code}, expected 1 or 3")


def write_graph(graph) -> str:
    """The graph file format, written by the benchmark."""
    n, ms = graph
    lines = [f"gem 1 {n}"]
    for c, m in enumerate(ms):
        lines += [f"edge {c} {u} {m[u]}" for u in range(1, n + 1) if u < m[u]]
    return "\n".join(lines) + "\n"


def _replace_line(text: str, index: int, line: str) -> str:
    lines = text.split("\n")
    lines[index] = line
    return "\n".join(lines)


def _find(text: str, prefix: str, last: bool = False) -> tuple[int, str]:
    found = [(i, line) for i, line in enumerate(text.split("\n")) if line.startswith(prefix)]
    if not found:
        raise CheckError(f"no {prefix!r} record to tamper with")
    return found[-1] if last else found[0]


def tamper_fingerprint(text: str) -> str:
    """Swap two entries of the color-2 row in the last move checkpoint."""
    i, line = _find(text, "cutglue", last=True)
    head, fp = line.rsplit(" ", 1)
    rows = fp.split(":")
    row = rows[3].split(".")
    row[0], row[1] = row[1], row[0]
    rows[3] = ".".join(row)
    return _replace_line(text, i, f"{head} {':'.join(rows)}")


def tamper_map(text: str) -> str:
    """Swap the images of the first two vertices in the root block's witness."""
    i, line = _find(text, "conclude")
    head, pairs = line.split("map=")
    pairs = pairs.split(",")
    (u1, v1), (u2, v2) = pairs[0].split("-"), pairs[1].split("-")
    pairs[0], pairs[1] = f"{u1}-{v2}", f"{u2}-{v1}"
    return _replace_line(text, i, f"{head}map={','.join(pairs)}")


def tamper_seam(text: str) -> str:
    """Move one end of the first compose record's color-0 seam edge."""
    n = int(text.split()[2].split(":")[0])
    i, line = _find(text, "compose")
    start = line.index("seam=0:") + len("seam=0:")
    stop = line.index(",", start)
    u, v = (int(x) for x in line[start:stop].split("-"))
    w = v % n + 1 if v % n + 1 != u else (v + 1) % n + 1
    return _replace_line(text, i, f"{line[:start]}{u}-{w}{line[stop:]}")


def tamper_conclusion(text: str, token: str) -> str:
    """Raise the root block's concluded form."""
    i, line = _find(text, "conclude")
    parts = line.split()
    parts[1] = token
    return _replace_line(text, i, " ".join(parts))


def tamper_field(path: str, record: str, key: str) -> str:
    """Make one integer field of a trace record malformed."""
    text = Path(path).read_text()
    i, line = _find(text, record)
    return _replace_line(text, i, line.replace(f" {key}=", f" {key}=x", 1))


class Enum:
    """The catalog sweep at n = 10 and n = 12."""

    parts = ("enum_s.n10", "enum_s.n12")
    sizes = (10, 12)

    def __init__(self, gs):
        self.gs = gs

    def setup(self, seed: int, workdir: Path):
        return {}

    def ops(self, state):
        catalog = self.gs.catalog

        def sweep(n):
            def op(times):
                t0 = clock()
                cat = catalog.enumerate_contracted(n, bound=max(self.sizes))
                times[f"enum_s.n{n}"] += clock() - t0
                return cat
            return op

        return [(f"n{n}", sweep(n)) for n in self.sizes]

    def check(self, state, outputs):
        for n, cat in zip(self.sizes, outputs):
            if not isinstance(cat, Exception):
                check_entries(n, cat)

    def controls(self, state, outputs):
        n, cat = self.sizes[0], outputs[0]
        if isinstance(cat, Exception):
            return
        graphs = [(e.graph.n, e.graph.matchings) for e in cat.classes]
        flags = [e.bipartite for e in cat.classes]
        yield "catalog missing one class", lambda: oracle.check_catalog(
            n, graphs[:-1], flags[:-1])
        yield "catalog with one class twice", lambda: oracle.check_catalog(
            n, graphs[:-1] + graphs[:1], flags[:-1] + flags[:1])


def check_entries(n: int, cat) -> None:
    if cat.n != n:
        raise CheckError(f"catalog for n={n} reports n={cat.n}")
    graphs = [(e.graph.n, e.graph.matchings) for e in cat.classes]
    oracle.check_catalog(n, graphs, [e.bipartite for e in cat.classes])
    for e, (g_n, g_ms) in zip(cat.classes, graphs):
        want = oracle.expected_form(g_n, e.bipartite)
        if (e.form.kind, e.form.m) != want or e.euler_characteristic != 3 - n // 2:
            raise CheckError(f"n={n}: class entry carries a wrong form or chi")
        oracle.check_fingerprint(e.fingerprint, g_n, g_ms)


WORKLOADS = {"certify": Certify, "check": Check, "enum": Enum}
PARTS = tuple(part for w in WORKLOADS.values() for part in w.parts)
WORK = "work_s"


# ============================================================
# Running rounds
# ============================================================


def clear_program_caches(gs) -> None:
    """Empty the package's memo tables, so every operation starts as a fresh process would."""
    for module in (gs.core, gs.moves, gs.reduction, gs.surfaces, gs.catalog, gs.fileio, gs.cli):
        for obj in list(vars(module).values()):
            if not str(getattr(obj, "__module__", "")).startswith("gemsurf"):
                continue
            for candidate in (obj, getattr(obj, "__wrapped__", None)):
                clear = getattr(candidate, "cache_clear", None)
                if callable(clear):
                    clear()
                    break


def run_round(gs, ops, tracer=None):
    """Run each operation once; returns (per-operation times, outputs, failures).

    ``times[i][WORK]`` is the wall time of the whole operation, a failed
    one included: its time is part of the workload's work too.
    """
    times, outputs, failures = [], [], []
    for op_id, (label, fn) in enumerate(ops):
        clear_program_caches(gs)
        if tracer is not None:
            tracer.op = op_id
        times.append(defaultdict(float))
        t0 = clock()
        try:
            outputs.append(fn(times[-1]))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(exc)
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
        finally:
            times[-1][WORK] = clock() - t0
    return times, outputs, failures


def best_sums(samples, metrics) -> dict[str, float]:
    """Per metric, the sum over operations of each operation's fastest round.

    Slowdowns of the whole machine come and go for seconds at a time, so
    an operation's fastest time over rounds spread across the run is far
    steadier from run to run than any one round.
    """
    per_op = list(zip(*samples))
    return {name: sum(min(t[name] for t in op) for op in per_op) for name in metrics}


def outcome(outputs) -> list:
    """Outputs with each failure reduced to its exception type, to compare rounds."""
    return [type(o).__name__ if isinstance(o, Exception) else o for o in outputs]


def verify_outputs(workload, state, outputs, problems) -> None:
    try:
        workload.check(state, outputs)
    except CheckError as exc:
        problems.append(f"check failed: {exc}")
    for name, control in workload.controls(state, outputs):
        try:
            control()
        except CheckError:
            continue
        problems.append(f"negative control not rejected: {name}")


# ============================================================
# Per-layer metrics from the spans
# ============================================================

COUNTED = ("moves.apply_move", "moves.verify_trace", "core.are_isomorphic", "core.connected_sum",
           "core.extract_summands", "core.seam_from_side", "core.is_bipartite",
           "core.bicolored_cycles", "reduction.rewrite_TP1_to_P3", "reduction.realize",
           "surfaces.classify_surface")
SELF_TIMED = ("reduction.split_off_T1", "reduction.split_off_P1")


def layer_metrics(tracer, labels) -> dict[str, float]:
    """Aggregate one traced round's spans; ``labels[op]`` is the op's input bucket."""
    idx = {name: i for i, name in enumerate(tracer.names)}
    k = len(tracer.names)
    calls, outer, own = [0] * k, [0.0] * k, [0.0] * k
    open_count = [0] * k
    stack: list[int] = []
    fp, wc = idx["moves.fingerprint"], idx["fileio.write_certificate"]
    ec, gfm, red = idx["catalog.enumerate_contracted"], idx["core.graph_from_matchings"], idx["reduction.reduce"]
    fp_vertices = fp_in_write = candidates = hits = classes = cert_bytes = 0
    catalog_fp_s = 0.0
    distinct = defaultdict(set)
    reduce_by_bucket = defaultdict(float)
    for sid, _, parent, op, t0, t1, self_t, arg_n, key in tracer.spans():
        while stack and stack[-1] != parent:
            open_count[tracer.name[stack.pop()]] -= 1
        i = tracer.name[sid]
        dur = t1 - t0
        calls[i] += 1
        own[i] += self_t
        if open_count[i] == 0:
            outer[i] += dur
        parent_name = tracer.name[parent] if parent >= 0 else -1
        if i == fp:
            fp_vertices += arg_n
            distinct[op].add(key)
            fp_in_write += open_count[wc] > 0
            if parent_name == ec:
                hits += 1
                catalog_fp_s += dur
        elif i == gfm and parent_name == ec:
            candidates += 1
        elif i == wc:
            cert_bytes += key
        elif i == ec:
            classes += key
        elif i == red and labels[op] in Certify.buckets:
            reduce_by_bucket[Certify.buckets[labels[op]]] += dur
        open_count[i] += 1
        stack.append(sid)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "moves.fingerprint.calls": calls[fp],
        "moves.fingerprint.s": outer[fp],
        "moves.fingerprint.vertices": fp_vertices,
        "moves.fingerprint.distinct_ratio": ratio(sum(len(s) for s in distinct.values()), calls[fp]),
    }
    for name in COUNTED:
        m[f"{name}.calls"] = calls[idx[name]]
        m[f"{name}.s"] = outer[idx[name]]
    for name in SELF_TIMED:
        m[f"{name}.calls"] = calls[idx[name]]
        m[f"{name}.self_s"] = own[idx[name]]
    for name in ("reduction.verify_certificate", "fileio.write_certificate",
                 "fileio.parse_certificate", "fileio.parse_graph", "catalog.enumerate_contracted"):
        m[f"{name}.s"] = outer[idx[name]]
    # The command-line layer: main plus the cmd_* handlers and parser it calls.
    m["cli.main.calls"] = calls[idx["cli.main"]]
    m["cli.main.self_s"] = sum(own[i] for name, i in idx.items() if name.startswith("cli."))
    points = sorted(reduce_by_bucket.items())
    m["reduction.reduce.exponent"] = oracle.fitted_exponent(points) if len(points) >= 2 else 0.0
    m["fileio.write_certificate.bytes"] = cert_bytes
    m["fileio.write_certificate.fingerprint_calls"] = fp_in_write
    m["catalog.candidates"] = candidates
    m["catalog.contracted_hits"] = hits
    m["catalog.dedup_ratio"] = ratio(classes, hits)
    m["catalog.fingerprint.s"] = catalog_fp_s
    m["trace.self_sum_s"] = sum(own)
    return m


# ============================================================
# Main
# ============================================================


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gs = load_program()
    workload = WORKLOADS[args.workload](gs)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, spec, gs, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_setup(gs, workload, seed: int, workdir: Path):
    workdir.mkdir(exist_ok=True)
    t0 = clock()
    fresh_import()
    clear_program_caches(gs)
    state = workload.setup(seed, workdir)
    return clock() - t0, state


def measure(args, spec, gs, workload, workdir: Path) -> int:
    problems: list[str] = []
    setup_s, state = timed_setup(gs, workload, args.seed, workdir)
    setups = [setup_s]
    ops = workload.ops(state)
    labels = [label for label, _ in ops]

    first, samples, walls, failures = [], [], [], []
    rounds = 0

    def record(outputs, failed):
        nonlocal rounds
        rounds += 1
        failures.extend(failed)
        if rounds == 1:
            first.extend(outputs)
        elif outcome(outputs) != outcome(first):
            problems.append("a later round gave other outputs than the first")

    start = clock()
    while True:
        t0 = clock()
        times, outputs, failed = run_round(gs, ops)
        walls.append(clock() - t0)
        samples.append(times)
        record(outputs, failed)
        del outputs
        if clock() - start + walls[-1] / 2 > args.seconds:
            break
    best = best_sums(samples, PARTS + (WORK,))

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            t0 = clock()
            outputs, failed = run_round(gs, ops, tracer)[1:]
            traced = clock() - t0
        finally:
            tracer.remove()
        record(outputs, failed)
        values = layer_metrics(tracer, labels)
        values.update((part, best[part]) for part in PARTS)
        values["trace.wall_s"] = traced
        # One traced round against the fastest of many untraced ones: machine
        # noise can only make this larger than the true overhead.
        values["trace.overhead_s"] = traced - min(walls)
        values["trace.unspanned_s"] = traced - values["trace.self_sum_s"]
        tracer.write(OUT / f"spans-{args.workload}.csv")
        wanted = spec["per_layer"]
    else:
        # Repeat the set-up after the rounds, on seeds derived from --seed, so
        # that its samples are spread over the run and over the rejection
        # sampler's luck.
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                          and sum(setups) < SETUP_BUDGET_S):
            k = len(setups)
            setups.append(timed_setup(gs, workload, args.seed * SETUP_MAX + k,
                                      workdir / f"setup-{k}")[0])
        values = {WORK: best[WORK], "setup_s": statistics.median(setups),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        wanted = spec["end_to_end"]

    verify_outputs(workload, state, first, problems)
    for line in dict.fromkeys(failures):
        print(f"failed: {line}", file=sys.stderr)
    for line in problems:
        print(line, file=sys.stderr)
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) ^ set(values))
    if missing:
        print(f"error: metrics out of step with BENCHMARK.json: {missing}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {rounds} round(s) of {len(ops)} operations, "
          f"{len(failures)} failed, median of {len(setups)} set-up(s) "
          f"{statistics.median(setups):.3f} s", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": rounds * len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
