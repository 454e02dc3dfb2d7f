#!/usr/bin/env python3
"""Time reduce + verify_certificate on seeded random contracted graphs.

    PYTHONPATH=src python scripts/sweep_reduce.py [N ...]

For each N (default 66 130 258 514 1026) and each parity allowed at N,
one graph is drawn with ``random.Random(N)`` by the sampler of
``tests/test_golden.py``; the form caches are emptied, then ``reduce``
and ``verify_certificate`` are timed once each.  One JSON object per
graph is printed, then the least-squares slope of log(reduce + verify
seconds) against log(N) over all graphs (``fitted_exponent`` of
``gembench/graphs.py``).
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "gembench")]

import gemsurf as gs  # noqa: E402
from graphs import fitted_exponent  # noqa: E402
from test_golden import random_contracted  # noqa: E402


def main(argv: list[str]) -> None:
    sizes = [int(a) for a in argv] or [66, 130, 258, 514, 1026]
    points = []
    for n in sizes:
        for bipartite in (True, False) if n % 4 == 2 else (False,):
            g = random_contracted(random.Random(n), n, bipartite)
            gs.make_P.cache_clear()
            gs.make_T.cache_clear()
            t0 = time.perf_counter()
            form, cert = gs.reduce(g)
            t1 = time.perf_counter()
            gs.verify_certificate(g, cert)
            t2 = time.perf_counter()
            points.append((n, t2 - t0))
            print(json.dumps({"n": n, "bipartite": bipartite, "form": str(form),
                              "reduce_s": round(t1 - t0, 3), "verify_s": round(t2 - t1, 3)}),
                  flush=True)
    print(json.dumps({"exponent": round(fitted_exponent(points), 2)}))


if __name__ == "__main__":
    main(sys.argv[1:])
