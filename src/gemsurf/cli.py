"""Command-line interface.

Exit codes: 0 success / positive answer, 1 negative answer (non-isomorphic,
failed verification), 2 usage error, 3 validation or format error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .catalog import CatalogError, enumerate_contracted
from .core import (
    GemError,
    are_isomorphic,
    cycle_counts,
    is_bipartite,
    is_connected,
    is_contracted,
)
from .moves import TraceError, verify_trace
from .reduction import (
    CanonicalForm,
    CertificateError,
    canonical_of,
    realize,
    reduce as reduce_graph,
    verify_certificate,
)
from .surfaces import classify_surface, complex_stats


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)


def cmd_validate(args) -> int:
    g = fileio.parse_graph(_read(args.file))
    print(f"valid, n={g.n}")
    return 0


def cmd_info(args) -> int:
    g = fileio.parse_graph(_read(args.file))
    print(f"n={g.n}")
    counts = cycle_counts(g)
    print("cycles: " + " ".join(f"{{{i},{j}}}={counts[(i, j)]}"
                                for (i, j) in ((0, 1), (0, 2), (1, 2))))
    if not is_connected(g):
        print("disconnected")
        return 0
    contracted = is_contracted(g)
    bip = is_bipartite(g)
    chi = complex_stats(g).euler_characteristic
    words = [
        "contracted" if contracted else "not contracted",
        "bipartite" if bip is not None else "non-bipartite",
        f"χ={chi}",
    ]
    if contracted:
        form = canonical_of(g.n, bip is not None)
        words.append(str(form))
        words.append(str(classify_surface(g)))
    print(" ".join(words))
    return 0


def cmd_gen(args) -> int:
    if (args.m is None) != (args.family == "L"):
        need = "takes no index" if args.family == "L" else "needs an index m"
        print(f"error: {args.family} {need}", file=sys.stderr)
        return 2
    if args.m is not None and args.m < 1:
        print(f"error: {args.family} requires index m >= 1", file=sys.stderr)
        return 2
    form = CanonicalForm(args.family, args.m or 0)
    _write(args.output, fileio.write_graph(realize(form)))
    print(f"wrote {form} ({form.vertex_count} vertices) to {args.output}")
    return 0


def cmd_enum(args) -> int:
    try:
        cat = enumerate_contracted(args.n, bound=args.bound)
    except CatalogError as exc:  # raised only for n and --bound, both command-line values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    forms = ",".join(sorted({e.form.token() for e in cat.classes}))
    row = f"{cat.n}\t{len(cat.classes)}\t{cat.bipartite_count}\t{forms}"
    print(row)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, entry in enumerate(cat.classes):
            _write(str(out / f"class_{i:03d}.gem"), fileio.write_graph(entry.graph))
        _write(str(out / "summary.tsv"),
               "n\tclasses\tbipartite\tforms\n" + row + "\n")
        print(f"wrote {len(cat.classes)} class files to {out}")
    return 0


def cmd_iso(args) -> int:
    g = fileio.parse_graph(_read(args.a))
    h = fileio.parse_graph(_read(args.b))
    mapping = are_isomorphic(g, h)
    if mapping is None:
        print("non-isomorphic")
        return 1
    print("isomorphic: " + " ".join(f"{u}->{v}" for u, v in sorted(mapping.items())))
    return 0


def cmd_reduce(args) -> int:
    g = fileio.parse_graph(_read(args.file))
    form, cert = reduce_graph(g)
    _write(args.output, fileio.write_certificate(g, cert))
    print(f"{form}")
    return 0


def cmd_verify(args) -> int:
    g = fileio.parse_graph(_read(args.file))
    text = _read(args.trace)
    if fileio.is_certificate(text):
        cert = fileio.parse_certificate(text)
        try:
            form = verify_certificate(g, cert)
        except CertificateError as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return 1
        print(f"verified: {form}")
        return 0
    trace = fileio.parse_trace(text)
    try:
        final = verify_trace(g, trace)
    except TraceError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    words = [f"verified: final n={final.n}"]
    if is_contracted(final):
        words.append(str(canonical_of(final.n, is_bipartite(final) is not None)))
    print(" ".join(words))
    return 0


def cmd_apply(args) -> int:
    g = fileio.parse_graph(_read(args.file))
    text = _read(args.trace)
    if fileio.is_certificate(text):
        raise fileio.FormatError(1, "apply needs a plain move trace, not a certificate")
    trace = fileio.parse_trace(text)
    try:
        final = verify_trace(g, trace)
    except TraceError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1
    _write(args.output, fileio.write_graph(final))
    fp = trace.steps[-1][1] if trace.steps else trace.initial  # verify_trace checked it
    print(f"wrote n={final.n} graph to {args.output} (fingerprint {fp})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemsurf",
        description="3-regular edge-colored graphs, cut-and-glue moves, "
                    "and surface classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a graph file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", help="structural summary of a graph file")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("gen", help="write a canonical family member")
    p.add_argument("family", choices=("L", "P", "T"))
    p.add_argument("m", nargs="?", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("enum", help="enumerate contracted graphs on n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--out-dir")
    p.add_argument("--bound", type=int, default=12)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("iso", help="decide color-preserving isomorphism of two graph files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("reduce", help="reduce to normal form, writing a certificate")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="replay a trace or certificate against a graph")
    p.add_argument("file")
    p.add_argument("trace")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("apply", help="replay a move trace and write the final graph")
    p.add_argument("file")
    p.add_argument("trace")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_apply)

    return parser


# Built once: parsing reads the parser and nothing mutates it.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
