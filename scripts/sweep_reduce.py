#!/usr/bin/env python3
"""Time reduce, verify_certificate and the certificate file path on seeded graphs.

    PYTHONPATH=src python scripts/sweep_reduce.py [--family random|circ] [N ...]

For each N (default 66 130 258 514 1026), which must be even and at least
2, one or two graphs are built.  With ``--family random`` (the default),
one graph per parity allowed at N (only the bipartite L at N = 2) is
drawn with ``random.Random(N)`` by the sampler of ``tests/test_golden.py``.
With ``--family circ``, the one graph is ``circ(N, 3)`` of the same file,
which is contracted only for N = 2 mod 4 and then reduces to
T((N - 2) / 4); its symmetric labelling is the slow case of the canonical
encoder.  For each graph ``reduce`` and ``verify_certificate`` are timed
once each (``reduce_s``, ``verify_s``), then the file path:
``write_certificate`` (``write_s``), ``parse_certificate`` of its text
(``parse_s``) and a stand-alone ``verify_certificate`` of the parsed
certificate (``verify_file_s``).
One JSON object per graph is printed, then, when at least two distinct
sizes were run, the least-squares slope of log(reduce + verify seconds)
against log(N) over all graphs (``fitted_exponent`` of
``gembench/graphs.py``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "gembench")]

import gemsurf as gs  # noqa: E402
from gemsurf import fileio  # noqa: E402
from graphs import fitted_exponent  # noqa: E402
from test_golden import circ, random_contracted  # noqa: E402


def family_graphs(family: str, n: int):
    """Yield (bipartite, graph) for each graph of ``family`` at size n."""
    if family == "circ":
        g = circ(n, 3)
        if not gs.is_contracted(g):
            sys.exit(f"error: circ({n}, 3) is not contracted; it is for n = 2 mod 4")
        yield True, g
        return
    for bipartite in (True,) if n == 2 else (True, False) if n % 4 == 2 else (False,):
        yield bipartite, random_contracted(random.Random(n), n, bipartite)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=("random", "circ"), default="random")
    parser.add_argument("sizes", nargs="*", type=int, default=[66, 130, 258, 514, 1026])
    args = parser.parse_args(argv)
    bad = [n for n in args.sizes if n < 2 or n % 2]
    if bad:  # no contracted graph has an odd number of vertices, or fewer than 2
        parser.error(f"no contracted graph on N = {bad[0]} vertices; N must be even and >= 2")
    points = []
    for n in args.sizes:
        for bipartite, g in family_graphs(args.family, n):
            t0 = time.perf_counter()
            form, cert = gs.reduce(g)
            t1 = time.perf_counter()
            gs.verify_certificate(g, cert)
            t2 = time.perf_counter()
            text = fileio.write_certificate(g, cert)
            t3 = time.perf_counter()
            parsed = fileio.parse_certificate(text)
            t4 = time.perf_counter()
            if gs.verify_certificate(g, parsed) != form:
                sys.exit(f"error: the written certificate of n={n} does not conclude {form}")
            t5 = time.perf_counter()
            points.append((n, t2 - t0))
            print(json.dumps({"n": n, "bipartite": bipartite, "form": str(form),
                              "reduce_s": round(t1 - t0, 3), "verify_s": round(t2 - t1, 3),
                              "write_s": round(t3 - t2, 3), "parse_s": round(t4 - t3, 3),
                              "verify_file_s": round(t5 - t4, 3)}),
                  flush=True)
    if len({n for n, _ in points}) >= 2:  # a slope needs two distinct sizes
        print(json.dumps({"exponent": round(fitted_exponent(points), 2)}))


if __name__ == "__main__":
    main(sys.argv[1:])
