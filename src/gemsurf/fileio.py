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
summand's, and so on.  '#' begins a comment; blank lines are ignored.

A record gives every field of its kind, in the order of ``_FIELDS``; a seam
lists its edges by color 0, 1, 2, and an edge field ``<color>:<u>-<v>``
needs u < v, as in graph files.  Every integer is plain ASCII decimal.  So
reading a trace or certificate and writing it back reproduces its text,
once comments and blank lines are dropped and runs of spaces become one; a
graph file comes back with the same set of edge lines.

Certificate nodes carry the fingerprints their compose records print, so
``write_certificate`` only serializes and replays nothing; the root header
is the root trace's initial fingerprint, and only a root that is no trace
(from ``reduce``, n <= 6) needs ``fingerprint(g)``.  The writer walks the
block tree with an explicit stack, and the parser runs on
``reduction._drive``, the driver ``verify_certificate`` uses, so deep
nesting costs no Python recursion.
"""

from __future__ import annotations

import re

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

# Every integer in every file is plain ASCII decimal, as the writers print it:
# no sign, no leading zero, no '_' and no other digit.  Each shape of token
# that holds integers is built from that one rule, and ``_parse_ints`` reads
# it; ``_edge_record`` tests the same rule on a graph file's edge lines.
_INT = "0|[1-9][0-9]*"
_ONE, _PAIR, _EDGE = (re.compile(shape.replace("N", f"({_INT})")) for shape in (
    "N", "N-N", "N:N-N"))
_MAPPING = re.compile("(?:N-N,)*N-N".replace("N", f"(?:{_INT})"))  # checked whole, not captured


class FormatError(GemError):
    """A parse failure with a 1-based line position."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _parse_ints(ln: int, text: str, shape: re.Pattern, what: str) -> tuple[int, ...]:
    match = shape.fullmatch(text)
    if match:
        try:  # int() refuses more than 4300 digits
            return tuple(map(int, match.groups()))
        except ValueError:
            pass
    raise FormatError(ln, f"expected {what} in plain decimal, got {text!r}")


def _edge_record(ln: int, content: str) -> tuple[int, int, int]:
    """The (color, u, v) of a graph file's edge line, each in plain decimal.

    String tests on the line's fields, cheaper than a regular expression
    per line: all are ASCII digits, and none but a lone 0 starts with 0.
    """
    parts = content.split()
    if len(parts) == 4 and parts[0] == "edge":
        _, c, u, v = parts
        digits = c + u + v
        if (digits.isdigit() and digits.isascii() and (c[0] != "0" or c == "0")
                and (u[0] != "0" or u == "0") and (v[0] != "0" or v == "0")):
            try:  # int() refuses more than 4300 digits
                return int(c), int(u), int(v)
            except ValueError:
                pass
    raise FormatError(ln, f"expected 'edge <color> <u> <v>' in plain decimal, got {content!r}")


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
    (n,) = _parse_ints(ln, parts[2], _ONE, "the vertex count")
    if n < 2 or n % 2 != 0:
        raise FormatError(ln, f"vertex count must be a positive even integer, got {n}")
    expected = 3 * n // 2

    def records():
        # ``ln`` tracks the line being read, so a ValidationError raised by
        # ``validate`` while it consumes this generator points at its line.
        nonlocal ln
        count = 0
        for ln, content in lines[1:]:
            c, u, v = _edge_record(ln, content)
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
# Records
# ============================================================


# Each record kind's keys, in the order they are printed; all are required.
# A record reads '<kind> k1=v1 ... kN=vN -> <fingerprint>', except that a
# conclude record names its form instead, before its field: 'conclude <form> k1=v1'.
_FIELDS = {"cut": ("c", "ea", "eb", "arc"), "glue": ("c", "w"),
           "cutglue": ("c", "ea", "eb", "arc", "w"), "interchange": ("seam", "u'", "v'"),
           "compose": ("left", "right", "seam", "weld"), "conclude": ("map",)}


def _template(kind: str, keys: tuple[str, ...]) -> str:
    """The str.format template of a record: its values, then its fingerprint or form."""
    fields, last = [f"{key}={{{i}}}" for i, key in enumerate(keys)], f"{{{len(keys)}}}"
    return " ".join([kind, last, *fields] if kind == "conclude" else [kind, *fields, "->", last])


_TEMPLATES = {kind: _template(kind, keys) for kind, keys in _FIELDS.items()}


def _parse_record(ln: int, content: str) -> tuple[str, list[str], str]:
    """Split a record line into (kind, values, fingerprint or form), as ``_template`` lays it out.

    The keys must be exactly the kind's ``_FIELDS``, in that order.
    """
    kind, *parts = content.split()
    keys = _FIELDS.get(kind)
    if keys is None:
        raise FormatError(ln, f"unknown record kind {kind!r}")
    if kind == "conclude":
        last, fields = (parts[0] if parts else ""), parts[1:]
    elif len(parts) >= 2 and parts[-2] == "->":
        last, fields = parts[-1], parts[:-2]
    else:
        raise FormatError(ln, f"{kind} record must end with '-> <fingerprint>': {content!r}")
    values = []
    for i in range(max(len(keys), len(fields))):
        key, eq, value = fields[i].partition("=") if i < len(fields) else ("", "", "")
        if i >= len(keys) or key != keys[i] or not eq:
            want = f"'{keys[i]}=...'" if i < len(keys) else "the end of the record"
            got = repr(fields[i]) if i < len(fields) else "none"
            raise FormatError(ln, f"{kind} record: expected {want} at field {i + 1}, got {got}")
        values.append(value)
    return kind, values, last


def _fmt_edge(color: int, edge: tuple[int, int]) -> str:
    return f"{color}:{edge[0]}-{edge[1]}"


def _fmt_seam(edges) -> str:
    return ",".join(_fmt_edge(c, edges[c]) for c in COLORS)


def _parse_edge(ln: int, text: str, want: int) -> tuple[int, int]:
    """Parse ``<want>:<u>-<v>``; like a graph file's edge line, it needs u < v."""
    c, u, v = _parse_ints(ln, text, _EDGE, "<color>:<u>-<v>")
    if c != want:
        raise FormatError(ln, f"edge color {c} inconsistent with its field (expected {want})")
    if u >= v:
        raise FormatError(ln, f"edge endpoints must satisfy u < v, got {u} {v}")
    return u, v


def _parse_seam(ln: int, text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise FormatError(ln, f"seam needs three edges, got {text!r}")
    return tuple(_parse_edge(ln, part, c) for c, part in zip(COLORS, parts))


def _parse_color(ln: int, text: str) -> int:
    (c,) = _parse_ints(ln, text, _ONE, "the cut color")
    if c not in COLORS:
        raise FormatError(ln, f"bad cut color {c}")
    return c


def format_move(move: Move, fp: str) -> str:
    if isinstance(move, Glue):
        s = move.spec
        return _TEMPLATES["glue"].format(s.cut_color, f"{s.pair[0]}-{s.pair[1]}", fp)
    if isinstance(move, Interchange):
        return _TEMPLATES["interchange"].format(_fmt_seam(move.seam_edges), move.u_new,
                                                move.v_new, fp)
    if isinstance(move, (Cut, CutGlue)):
        spec = move.spec if isinstance(move, Cut) else move.cut
        a, b = other_colors(spec.cut_color)
        values = [spec.cut_color, _fmt_edge(a, spec.edge_a), _fmt_edge(b, spec.edge_b),
                  spec.arc_vertex]
        if isinstance(move, Cut):
            return _TEMPLATES["cut"].format(*values, fp)
        return _TEMPLATES["cutglue"].format(*values, f"{move.glue.pair[0]}-{move.glue.pair[1]}", fp)
    raise GemError(f"unknown move {move!r}")


def parse_move_record(ln: int, content: str) -> tuple[Move, str]:
    kind, values, fp = _parse_record(ln, content)
    if kind == "glue":
        return Glue(GlueSpec(_parse_color(ln, values[0]),
                             _parse_ints(ln, values[1], _PAIR, "<u>-<v>"))), fp
    if kind == "interchange":
        (u,), (v,) = (_parse_ints(ln, value, _ONE, "a vertex") for value in values[1:])
        return Interchange(_parse_seam(ln, values[0]), u, v), fp
    if kind not in ("cut", "cutglue"):
        raise FormatError(ln, f"{kind!r} is not a move record")
    c = _parse_color(ln, values[0])
    a, b = other_colors(c)
    (arc,) = _parse_ints(ln, values[3], _ONE, "the arc vertex")
    spec = CutSpec(c, _parse_edge(ln, values[1], a), _parse_edge(ln, values[2], b), arc)
    if kind == "cut":
        return Cut(spec), fp
    return CutGlue(spec, GlueSpec(c, _parse_ints(ln, values[4], _PAIR, "<u>-<v>"))), fp


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


def _parse_mapping(ln: int, text: str) -> tuple[tuple[int, int], ...]:
    if _MAPPING.fullmatch(text):
        try:  # one pass over the whole list; int() refuses more than 4300 digits
            ints = map(int, text.replace(",", "-").split("-"))
            return tuple(zip(ints, ints))
        except ValueError:
            pass
    return tuple(_parse_ints(ln, part, _PAIR, "<u>-<v>") for part in text.split(","))


def write_certificate(g: ColoredGraph, cert: ReductionCertificate) -> str:
    """Serialize a certificate against its concrete input graph.

    The records carry every fingerprint but the header of a non-trace root.
    """
    blocks: list[str] = []
    # A parsed witness is untrusted, so a non-trace root's header is g's own.
    root = cert.root
    header = root.trace.initial if isinstance(root, TraceCert) else fingerprint(g)
    todo = [(header, root)]  # (header, node) blocks, next one last
    while todo:
        header, node = todo.pop()
        lines = [f"trace {VERSION} {header}"]
        summands: list[tuple[str, Cert]] = []
        while not isinstance(node, IsoCert):
            if isinstance(node, TraceCert):
                lines.extend(format_move(move, fp) for (move, fp) in node.trace.steps)
            elif isinstance(node, RecombineCert):
                lines.append(_TEMPLATES["compose"].format(
                    node.left_fp, node.right_fp, _fmt_seam(node.seam_edges),
                    f"{node.weld_a}-{node.weld_b}", node.fp))
                summands += [(node.left_fp, node.left), (node.right_fp, node.right)]
            else:
                raise GemError(f"unknown certificate node {node!r}")
            node = node.rest
        mapping = ",".join(f"{u}-{v}" for (u, v) in node.mapping)
        lines.append(_TEMPLATES["conclude"].format(mapping, node.form.token()))
        blocks.append("\n".join(lines))
        todo.extend(reversed(summands))
    return "\n".join(blocks) + "\n"


def _split_blocks(text: str):
    """Split a certificate file into blocks at 'trace' headers."""
    blocks = []
    current = None
    for ln, content in _meaningful_lines(text):
        if content.split(None, 1)[0] == "trace":
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
    header, root = _drive(_parse_block(rest, blocks[-1][-1][0]))
    leftover = next(rest, None)
    if leftover is not None:
        raise FormatError(leftover[0][0],
                          "trailing trace block not referenced by any compose record")
    cert = ReductionCertificate(certificate_conclusion(root), root)
    object.__setattr__(cert, "_header", header)
    return cert


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
        if concluded:
            raise FormatError(ln, "records after the conclude record")
        kind = content.split(None, 1)[0]
        if kind not in ("compose", "conclude"):
            move_run.append(parse_move_record(ln, content))
            continue
        if move_run:
            items.append(("trace", MoveTrace(run_initial, tuple(move_run))))
            move_run = []
        _, values, last = _parse_record(ln, content)
        if kind == "compose":
            edges = _parse_seam(ln, values[2])
            weld_a, weld_b = _parse_ints(ln, values[3], _PAIR, "<u>-<v>")
            left_fp, left = yield _parse_block(blocks, last_ln)
            if values[0] != left_fp:
                raise FormatError(ln, "left fingerprint does not match its trace block")
            right_fp, right = yield _parse_block(blocks, last_ln)
            if values[1] != right_fp:
                raise FormatError(ln, "right fingerprint does not match its trace block")
            run_initial = last
            items.append(("compose", (edges, left, right, weld_a, weld_b),
                          (left_fp, right_fp, run_initial)))
        else:
            try:
                form = parse_form_token(last)
            except GemError as exc:
                raise FormatError(ln, str(exc))
            items.append(("conclude", form, _parse_mapping(ln, values[0])))
            concluded = True
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
        if content.split(None, 1)[0] in ("compose", "conclude"):
            return True
    return False
