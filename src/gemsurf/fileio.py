"""Exact text file formats for graphs, move traces, and reduction certificates.

Graph files:
    gem 1 <n>
    edge <color> <u> <v>        (exactly 3n/2 lines, 1 <= u < v <= n)

``parse_graph`` checks only the file format: the header, the edge line
syntax, u < v and the line count.  It hands the edge records one at a time
to ``core.validate``, the package's only checker of edge records, and
reports its errors as ``FormatError`` at the line of the faulty record.

Trace files hold one record per line after a ``trace 1 <fingerprint>``
header.  Pure move traces use cut/glue/cutglue/interchange records; a
reduction certificate additionally uses compose records (one per
congruence step, naming the two summand fingerprints, the seam, and the
re-chosen weld pair) and ends every block with a conclude record carrying
the concluded form and the isomorphism witness.  Sub-certificates follow
as further trace blocks in pre-order: after a block, the blocks of its
first compose's left summand (with their own descendants), then the right
summand's, and so on.  Edge fields ``<color>:<u>-<v>`` need u < v, as in
graph files.  '#' begins a comment; blank lines are ignored.
All writers emit fixed orderings, so write-read-write is byte identical.

Certificate nodes carry the fingerprints their compose records print, so
``write_certificate`` only serializes: it fingerprints the input graph
once, for the root header, and replays nothing.  The writer walks the block
tree with an explicit stack, and the parser runs on ``reduction._drive``, the
driver ``verify_certificate`` uses, so deep nesting costs no Python
recursion.
"""

from __future__ import annotations

from .core import COLORS, ColoredGraph, GemError, ValidationError, validate
from .moves import (
    Cut,
    CutGlue,
    CutSpec,
    Glue,
    GlueSpec,
    Interchange,
    Move,
    MoveTrace,
    fingerprint,
    other_colors,
)
from .reduction import (
    Cert,
    IsoCert,
    RecombineCert,
    ReductionCertificate,
    TraceCert,
    _drive,
    certificate_conclusion,
    parse_form_token,
)

VERSION = "1"


class FormatError(GemError):
    """A parse failure with a 1-based line position."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _parse_int(ln: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(ln, f"{what} {text!r} is not an integer") from None


def _meaningful_lines(text: str):
    """Yield (line_number, stripped_content) with comments and blanks removed."""
    for i, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield i, content


# ============================================================
# Graph files
# ============================================================


def write_graph(g: ColoredGraph) -> str:
    lines = [f"gem {VERSION} {g.n}"]
    for (c, u, v) in g.edges():
        lines.append(f"edge {c} {u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> ColoredGraph:
    """Parse a graph file; every error is a FormatError naming the first faulty line."""
    lines = list(_meaningful_lines(text))
    if not lines:
        raise FormatError(1, "empty file; expected a 'gem' header")
    ln, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "gem":
        raise FormatError(ln, f"expected 'gem {VERSION} <n>', got {header!r}")
    if parts[1] != VERSION:
        raise FormatError(ln, f"unsupported format version {parts[1]!r}")
    n = _parse_int(ln, parts[2], "vertex count")
    if n < 2 or n % 2 != 0:
        raise FormatError(ln, f"vertex count must be a positive even integer, got {n}")
    expected = 3 * n // 2

    def records():
        # ``ln`` tracks the line being read, so a ValidationError raised by
        # ``validate`` while it consumes this generator points at its line.
        nonlocal ln
        count = 0
        for ln, content in lines[1:]:
            parts = content.split()
            if parts[0] != "edge" or len(parts) != 4:
                raise FormatError(ln, f"expected 'edge <color> <u> <v>', got {content!r}")
            try:
                c, u, v = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(ln, f"non-integer field in {content!r}")
            if count == expected:
                raise FormatError(ln, f"too many edge lines (expected 3n/2 = {expected})")
            if u > v:
                raise FormatError(ln, f"edge endpoints must satisfy u < v, got {u} {v}")
            count += 1
            yield c, u, v
        if count != expected:
            raise FormatError(ln, f"expected 3n/2 = {expected} edge lines, found {count}")

    if expected > len(lines) - 1:
        # Too few lines for n, so the file is invalid: report its first
        # faulty line or the count, without sizing rows by an untrusted n.
        for _ in records():
            pass
    try:
        return validate(n, records())
    except ValidationError as exc:
        raise FormatError(ln, str(exc)) from None


# ============================================================
# Move records
# ============================================================


def _fmt_edge(color: int, edge: tuple[int, int]) -> str:
    return f"{color}:{edge[0]}-{edge[1]}"


def _fmt_seam(edges) -> str:
    return ",".join(_fmt_edge(c, edges[c]) for c in COLORS)


def _fmt_cut_fields(spec: CutSpec) -> str:
    a, b = other_colors(spec.cut_color)
    return (f"c={spec.cut_color} ea={_fmt_edge(a, spec.edge_a)} "
            f"eb={_fmt_edge(b, spec.edge_b)} arc={spec.arc_vertex}")


def format_move(move: Move, fp: str) -> str:
    if isinstance(move, Cut):
        return f"cut {_fmt_cut_fields(move.spec)} -> {fp}"
    if isinstance(move, Glue):
        s = move.spec
        return f"glue c={s.cut_color} w={s.pair[0]}-{s.pair[1]} -> {fp}"
    if isinstance(move, CutGlue):
        return (f"cutglue {_fmt_cut_fields(move.cut)} "
                f"w={move.glue.pair[0]}-{move.glue.pair[1]} -> {fp}")
    if isinstance(move, Interchange):
        return (f"interchange seam={_fmt_seam(move.seam_edges)} "
                f"u'={move.u_new} v'={move.v_new} -> {fp}")
    raise GemError(f"unknown move {move!r}")


# The keys each record kind defines, all required; a record gives each once.
# A kind missing here is reported by the caller as an unknown record kind.
_FIELDS = {"cut": ("c", "ea", "eb", "arc"), "glue": ("c", "w"),
           "cutglue": ("c", "ea", "eb", "arc", "w"), "interchange": ("seam", "u'", "v'"),
           "compose": ("left", "right", "seam", "weld")}


def _parse_fields(ln: int, kind: str, parts: list[str]) -> dict[str, str]:
    fields = {}
    for part in parts:
        if "=" not in part:
            raise FormatError(ln, f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        if key in fields:
            raise FormatError(ln, f"field {key!r} given twice")
        if kind in _FIELDS and key not in _FIELDS[kind]:
            raise FormatError(ln, f"{kind} record has no field {key!r}")
        fields[key] = value
    return fields


def _parse_pair(ln: int, text: str) -> tuple[int, int]:
    try:
        u, v = text.split("-")
        return int(u), int(v)
    except ValueError:
        raise FormatError(ln, f"expected <u>-<v>, got {text!r}")


def _parse_edge(ln: int, text: str) -> tuple[int, tuple[int, int]]:
    """Parse ``<color>:<u>-<v>``; like a graph file's edge line, it needs u < v."""
    color, colon, pair = text.partition(":")
    if not colon:
        raise FormatError(ln, f"expected <color>:<u>-<v>, got {text!r}")
    c = _parse_int(ln, color, "edge color")
    u, v = _parse_pair(ln, pair)
    if u >= v:
        raise FormatError(ln, f"edge endpoints must satisfy u < v, got {u} {v}")
    return c, (u, v)


def _parse_cut_fields(ln: int, fields: dict[str, str]) -> CutSpec:
    for key in _FIELDS["cut"]:
        if key not in fields:
            raise FormatError(ln, f"cut record missing field {key!r}")
    c = _parse_int(ln, fields["c"], "cut color")
    arc = _parse_int(ln, fields["arc"], "arc vertex")
    if c not in COLORS:
        raise FormatError(ln, f"bad cut color {c}")
    edges = {}
    for key, want in zip(("ea", "eb"), other_colors(c)):
        color, edges[key] = _parse_edge(ln, fields[key])
        if color != want:
            raise FormatError(ln, f"edge color {color} inconsistent with the cut color "
                                  f"(expected {want})")
    return CutSpec(c, edges["ea"], edges["eb"], arc)


def _parse_seam_edges(ln: int, text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise FormatError(ln, f"seam needs three edges, got {text!r}")
    edges = [None, None, None]
    for part in parts:
        c, edge = _parse_edge(ln, part)
        if c not in COLORS or edges[c] is not None:
            raise FormatError(ln, "seam must list colors 0, 1, 2 once each")
        edges[c] = edge
    return tuple(edges)


def parse_move_record(ln: int, content: str) -> tuple[Move, str]:
    parts = content.split()
    if len(parts) < 3 or parts[-2] != "->":
        raise FormatError(ln, f"record must end with '-> <fingerprint>': {content!r}")
    kind, fp = parts[0], parts[-1]
    fields = _parse_fields(ln, kind, parts[1:-2])
    if kind == "cut":
        return Cut(_parse_cut_fields(ln, fields)), fp
    if kind == "glue":
        if "c" not in fields or "w" not in fields:
            raise FormatError(ln, "glue record needs c= and w=")
        c = _parse_int(ln, fields["c"], "cut color")
        if c not in COLORS:
            raise FormatError(ln, f"bad cut color {c}")
        return Glue(GlueSpec(c, _parse_pair(ln, fields["w"]))), fp
    if kind == "cutglue":
        if "w" not in fields:
            raise FormatError(ln, "cutglue record needs w=")
        spec = _parse_cut_fields(ln, fields)
        return CutGlue(spec, GlueSpec(spec.cut_color, _parse_pair(ln, fields["w"]))), fp
    if kind == "interchange":
        for key in _FIELDS["interchange"]:
            if key not in fields:
                raise FormatError(ln, f"interchange record missing {key!r}")
        edges = _parse_seam_edges(ln, fields["seam"])
        return Interchange(edges, _parse_int(ln, fields["u'"], "vertex u'"),
                           _parse_int(ln, fields["v'"], "vertex v'")), fp
    raise FormatError(ln, f"unknown record kind {kind!r}")


# ============================================================
# Pure move traces
# ============================================================


def write_trace(trace: MoveTrace) -> str:
    lines = [f"trace {VERSION} {trace.initial}"]
    for (move, fp) in trace.steps:
        lines.append(format_move(move, fp))
    return "\n".join(lines) + "\n"


def _parse_header(ln: int, content: str) -> str:
    parts = content.split()
    if len(parts) != 3 or parts[0] != "trace":
        raise FormatError(ln, f"expected 'trace {VERSION} <fingerprint>', got {content!r}")
    if parts[1] != VERSION:
        raise FormatError(ln, f"unsupported format version {parts[1]!r}")
    return parts[2]


def parse_trace(text: str) -> MoveTrace:
    """Parse a pure move trace (certificate records are rejected)."""
    lines = list(_meaningful_lines(text))
    if not lines:
        raise FormatError(1, "empty file; expected a 'trace' header")
    initial = _parse_header(*lines[0])
    steps = []
    for ln, content in lines[1:]:
        kind = content.split()[0]
        if kind in ("compose", "conclude", "trace"):
            raise FormatError(ln, f"{kind!r} records belong to certificates, "
                                  "not plain move traces")
        steps.append(parse_move_record(ln, content))
    return MoveTrace(initial, tuple(steps))


# ============================================================
# Reduction certificates
# ============================================================


def _fmt_mapping(mapping) -> str:
    return ",".join(f"{u}-{v}" for (u, v) in mapping)


def _parse_mapping(ln: int, text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for part in text.split(","):
        pairs.append(_parse_pair(ln, part))
    return tuple(pairs)


def write_certificate(g: ColoredGraph, cert: ReductionCertificate) -> str:
    """Serialize a certificate against its concrete input graph.

    Only the root header needs ``fingerprint(g)``; every other fingerprint
    is carried by the certificate's own records.
    """
    blocks: list[str] = []
    todo = [(fingerprint(g), cert.root)]  # (header, node) blocks, next one last
    while todo:
        header, node = todo.pop()
        lines = [f"trace {VERSION} {header}"]
        summands: list[tuple[str, Cert]] = []
        while not isinstance(node, IsoCert):
            if isinstance(node, TraceCert):
                lines.extend(format_move(move, fp) for (move, fp) in node.trace.steps)
            elif isinstance(node, RecombineCert):
                lines.append(f"compose left={node.left_fp} right={node.right_fp} "
                             f"seam={_fmt_seam(node.seam_edges)} "
                             f"weld={node.weld_a}-{node.weld_b} -> {node.fp}")
                summands += [(node.left_fp, node.left), (node.right_fp, node.right)]
            else:
                raise GemError(f"unknown certificate node {node!r}")
            node = node.rest
        lines.append(f"conclude {node.form.token()} map={_fmt_mapping(node.mapping)}")
        blocks.append("\n".join(lines))
        todo.extend(reversed(summands))
    return "\n".join(blocks) + "\n"


def _split_blocks(text: str):
    """Split a certificate file into blocks at 'trace' headers."""
    blocks = []
    current = None
    for ln, content in _meaningful_lines(text):
        if content.split()[0] == "trace":
            current = [(ln, content)]
            blocks.append(current)
        elif current is None:
            raise FormatError(ln, "record before the first 'trace' header")
        else:
            current.append((ln, content))
    if not blocks:
        raise FormatError(1, "empty file; expected a 'trace' header")
    return blocks


def parse_certificate(text: str) -> ReductionCertificate:
    """Parse a certificate file; its blocks come in pre-order.

    Each block is parsed by a generator that yields the parser of the next
    block when a compose record needs its summand blocks; ``_drive`` runs
    them, as it runs ``verify_certificate``, so nesting depth costs no
    Python stack.
    """
    blocks = _split_blocks(text)
    rest = iter(blocks)
    _, root = _drive(_parse_block(rest, blocks[-1][-1][0]))
    leftover = next(rest, None)
    if leftover is not None:
        raise FormatError(leftover[0][0],
                          "trailing trace block not referenced by any compose record")
    return ReductionCertificate(certificate_conclusion(root), root)


def _parse_block(blocks, last_ln: int):
    """Generator parsing the next block of the iterator ``blocks``.

    It yields a parser of the following block once per summand, receives
    that block's (header, node), and returns its own (header, node).
    ``last_ln`` is the file's last line, where a missing block is reported.
    """
    block = next(blocks, None)
    if block is None:
        raise FormatError(last_ln, "compose record lacks its summand trace blocks")
    header_fp = _parse_header(*block[0])
    items = []
    move_run: list[tuple[Move, str]] = []
    run_initial = header_fp
    concluded = False
    for ln, content in block[1:]:
        kind = content.split()[0]
        if concluded:
            raise FormatError(ln, "records after the conclude record")
        if kind in ("compose", "conclude") and move_run:
            items.append(("trace", MoveTrace(run_initial, tuple(move_run))))
            move_run = []
        if kind == "compose":
            parts = content.split()
            if len(parts) < 3 or parts[-2] != "->":
                raise FormatError(ln, "compose record must end with '-> <fingerprint>'")
            fields = _parse_fields(ln, kind, parts[1:-2])
            for key in _FIELDS["compose"]:
                if key not in fields:
                    raise FormatError(ln, f"compose record missing field {key!r}")
            left_fp, left = yield _parse_block(blocks, last_ln)
            if fields["left"] != left_fp:
                raise FormatError(ln, "left fingerprint does not match its trace block")
            right_fp, right = yield _parse_block(blocks, last_ln)
            if fields["right"] != right_fp:
                raise FormatError(ln, "right fingerprint does not match its trace block")
            edges = _parse_seam_edges(ln, fields["seam"])
            weld_a, weld_b = _parse_pair(ln, fields["weld"])
            run_initial = parts[-1]
            items.append(("compose", (edges, left, right, weld_a, weld_b),
                          (left_fp, right_fp, run_initial)))
        elif kind == "conclude":
            parts = content.split()
            if len(parts) != 3 or not parts[2].startswith("map="):
                raise FormatError(ln, "expected 'conclude <form> map=<pairs>'")
            try:
                form = parse_form_token(parts[1])
            except GemError as exc:
                raise FormatError(ln, str(exc))
            items.append(("conclude", form, _parse_mapping(ln, parts[2][4:])))
            concluded = True
        else:
            move_run.append(parse_move_record(ln, content))
    if not concluded:
        raise FormatError(block[-1][0], "certificate block lacks a conclude record")

    node: Cert = IsoCert(items[-1][1], items[-1][2])
    for item in reversed(items[:-1]):
        if item[0] == "trace":
            node = TraceCert(item[1], node)
        else:
            node = RecombineCert(*item[1], node, *item[2])
    return header_fp, node


def is_certificate(text: str) -> bool:
    """True when the trace file carries certificate records."""
    for _, content in _meaningful_lines(text):
        if content.split()[0] in ("compose", "conclude"):
            return True
    return False
