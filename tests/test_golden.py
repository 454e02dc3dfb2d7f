"""Golden corpus: fixed inputs whose outputs must stay byte for byte the same.

For every catalog class with n <= 12 and a few seeded, relabelled connected
sums, ``golden/corpus.json`` holds the graph file text and, as produced
when the corpus was made, the sha256 of its fingerprint, the sha256 of its
certificate file, the ``gemsurf info`` output and the reduced form.

To rebuild the corpus after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

import gemsurf as gs
from gemsurf import fileio
from gemsurf.cli import main
from gemsurf.reduction import parse_form_token

CORPUS = Path(__file__).with_name("golden") / "corpus.json"
SUMS = (("T5", "P3"), ("P7", "P8"), ("T4", "T7"), ("T11", "P2"), ("P15", "T8"),
        ("T12", "T12"))
# Every T(k) # P(m) with k in 2..4, m in 1..3 and n <= 20, in both orders.
# Among them P1 # T2 reaches the mixed chain with the K4 side first.
MIXED_SUMS = tuple((f"T{k}", f"P{m}") for k in (2, 3, 4) for m in (1, 2, 3)
                   if 4 * k + 2 * m + 2 <= 20)
MIXED_SUMS += tuple((b, a) for a, b in MIXED_SUMS)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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
        images = list(range(1, g.n + 1))
        rng.shuffle(images)
        g = gs.relabel(g, dict(zip(range(1, g.n + 1), images)))
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


if __name__ == "__main__":
    corpus = {name: {"gem": text, **outputs(text)[2]} for name, text in inputs().items()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} cases to {CORPUS}")
