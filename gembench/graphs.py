"""The benchmark's own graph code: seeded inputs and the independent oracle.

Nothing here calls into gemsurf except where a docstring says so.  A graph
is a pair ``(n, (m0, m1, m2))`` of three lists of length n+1 (slot 0
unused), ``m[c][u]`` being the color-c neighbor of u, the same layout as
``gemsurf.ColoredGraph.matchings``, so a program graph ``g`` is read as
``(g.n, g.matchings)``.
"""

from __future__ import annotations

import math


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's own derivation."""


# ============================================================
# Structure: bicolored cycles, 2-coloring, Euler characteristic
# ============================================================


def cycle_count(n: int, ma, mb) -> int:
    """Number of cycles of the subgraph spanned by two matchings."""
    seen = [False] * (n + 1)
    count = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        count += 1
        v, use_a = start, True
        while not seen[v]:
            seen[v] = True
            v = ma[v] if use_a else mb[v]
            use_a = not use_a
    return count


def cycle_counts(n: int, ms) -> tuple[int, int, int]:
    m0, m1, m2 = ms
    return cycle_count(n, m0, m1), cycle_count(n, m0, m2), cycle_count(n, m1, m2)


def is_contracted(n: int, ms) -> bool:
    return cycle_counts(n, ms) == (1, 1, 1)


def is_bipartite(n: int, ms) -> bool:
    """Proper 2-coloring of the vertices by breadth-first search."""
    side = [-1] * (n + 1)
    for root in range(1, n + 1):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = [root]
        for u in queue:
            for m in ms:
                v = m[u]
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def euler_characteristic(n: int, ms) -> int:
    """chi of the 2-complex: one triangle per vertex, one edge per edge,
    one complex vertex per bicolored cycle."""
    return sum(cycle_counts(n, ms)) - 3 * n // 2 + n


# ============================================================
# Normal forms (the (n, bipartite) table of the paper)
# ============================================================


def expected_form(n: int, bipartite: bool) -> tuple[str, int]:
    """(kind, index) of the normal form of a contracted graph."""
    if n == 2:
        return ("L", 0)
    if n % 4 == 0:
        if bipartite:
            raise CheckError(f"bipartite contracted graph on n={n} = 0 mod 4")
        return ("P", n // 2 - 1)
    return ("T", (n - 2) // 4) if bipartite else ("P", (n - 2) // 2)


def form_text(form: tuple[str, int]) -> str:
    """The form as the command line prints it: L, P(m) or T(m)."""
    kind, m = form
    return "L" if kind == "L" else f"{kind}({m})"


def form_surface(form: tuple[str, int]) -> tuple[str, int, int]:
    """(surface kind, genus, chi) encoded by a normal form."""
    kind, m = form
    if kind == "L":
        return ("sphere", 0, 2)
    if kind == "T":
        return ("orientable", m, 2 - 2 * m)
    return ("nonorientable", m, 2 - m)


def check_form(form, n: int, ms) -> tuple[str, int]:
    """The program's normal form ``form`` (kind, m) against the input."""
    want = expected_form(n, is_bipartite(n, ms))
    if tuple(form) != want:
        raise CheckError(f"n={n}: form {form_text(tuple(form))}, expected {form_text(want)}")
    chi = euler_characteristic(n, ms)
    if chi != 3 - n // 2 or form_surface(want)[2] != chi:
        raise CheckError(f"n={n}: chi={chi} disagrees with {form_text(want)}")
    return want


def check_surface(surface, form: tuple[str, int]) -> None:
    """The program's surface classification (kind, genus) against the form."""
    kind, genus, _ = form_surface(form)
    if tuple(surface) != (kind, genus):
        raise CheckError(f"surface {surface} for {form_text(form)}, expected {(kind, genus)}")


def check_same_invariants(n: int, ms, h_n: int, h_ms) -> None:
    """``realize(form)`` must have the input's chi and bipartiteness."""
    if (euler_characteristic(n, ms), is_bipartite(n, ms)) != \
            (euler_characteristic(h_n, h_ms), is_bipartite(h_n, h_ms)):
        raise CheckError(f"realized form on {h_n} vertices differs in chi or parity")


# ============================================================
# Isomorphism and fingerprints
# ============================================================


def _propagate(n: int, ms, hs, src: int, dst: int) -> bool:
    image = [0] * (n + 1)
    used = [False] * (n + 1)
    image[src], used[dst] = dst, True
    stack = [src]
    mapped = 1
    while stack:
        u = stack.pop()
        for m, h in zip(ms, hs):
            v, w = m[u], h[image[u]]
            if image[v]:
                if image[v] != w:
                    return False
            elif used[w]:
                return False
            else:
                image[v], used[w] = w, True
                mapped += 1
                stack.append(v)
    return mapped == n


def isomorphic(n: int, ms, h_n: int, h_ms) -> bool:
    """Color-preserving isomorphism of connected graphs: try every image of vertex 1."""
    return n == h_n and any(_propagate(n, ms, h_ms, 1, w) for w in range(1, n + 1))


def decode_fingerprint(fp: str):
    """``<n>:<m0>:<m1>:<m2>`` back to a graph; raises CheckError if malformed."""
    try:
        head, *rows = fp.split(":")
        n = int(head)
        ms = tuple([0] + [int(x) for x in row.split(".")] for row in rows)
    except ValueError:
        raise CheckError(f"fingerprint is not <n>:<m0>:<m1>:<m2>: {fp[:40]!r}")
    if len(ms) != 3 or any(len(m) != n + 1 for m in ms):
        raise CheckError("fingerprint rows have the wrong length")
    for m in ms:
        for u in range(1, n + 1):
            if not 1 <= m[u] <= n or m[u] == u or m[m[u]] != u:
                raise CheckError("fingerprint row is not a fixed-point-free involution")
    return n, ms


def check_fingerprint(fp: str, n: int, ms) -> None:
    """A fingerprint must decode to a graph isomorphic to the input."""
    f_n, f_ms = decode_fingerprint(fp)
    if not isomorphic(n, ms, f_n, f_ms):
        raise CheckError(f"fingerprint does not decode to a graph isomorphic to the n={n} input")


def swap_two_labels(fp: str) -> str:
    """Negative control: exchange labels of two color-2 partners in the fingerprint.

    Vertices b and d trade places in the color-2 row only (a-b, c-d
    becomes a-d, c-b), so the result is a valid but different graph.
    """
    n, ms = decode_fingerprint(fp)
    m2 = ms[2]
    a = 1
    b = m2[a]
    c = next(u for u in range(1, n + 1) if u not in (a, b))
    d = m2[c]
    m2[a], m2[d], m2[c], m2[b] = d, a, b, c
    rows = [".".join(str(x) for x in m[1:]) for m in ms]
    return f"{n}:" + ":".join(rows)


def rotation_invariant(n: int, ms) -> tuple[int, ...]:
    """Least color-2 code over the n standard labelings of the {0,1}-cycle.

    Isomorphisms of contracted graphs preserve the Hamiltonian
    {0,1}-cycle, so they are exactly its rotations and reflections that
    keep color 0 on positions (2i-1, 2i); two contracted graphs are
    isomorphic iff these minima agree.
    """
    m0, m1, m2 = ms
    cyc = [1]
    use0 = True
    while len(cyc) < n:
        cyc.append((m0 if use0 else m1)[cyc[-1]])
        use0 = not use0
    best = None
    labelings = [[cyc[(off + k) % n] for k in range(n)] for off in range(0, n, 2)]
    labelings += [[cyc[(off - k) % n] for k in range(n)] for off in range(1, n, 2)]
    for lab in labelings:
        pos = [0] * (n + 1)
        for k, v in enumerate(lab, start=1):
            pos[v] = k
        code = tuple(pos[m2[v]] for v in lab)
        if best is None or code < best:
            best = code
    return best


# Published counts of contracted graphs up to isomorphism on n vertices:
# (classes, bipartite classes).
CATALOG_COUNTS = {12: (125, 0), 14: (1161, 25)}


def matchings(items: list[int]):
    """Every perfect matching of ``items``, as lists of pairs."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for tail in matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


def exhaustive_counts(n: int) -> tuple[int, int]:
    """(classes, bipartite classes) by trying every color-2 matching on the standard cycle."""
    m0, m1 = standard_cycle(n)
    classes, bip = set(), set()
    for pairs in matchings(list(range(1, n + 1))):
        m2 = [0] * (n + 1)
        for u, v in pairs:
            m2[u], m2[v] = v, u
        ms = (m0, m1, m2)
        if is_contracted(n, ms):
            key = rotation_invariant(n, ms)
            classes.add(key)
            if is_bipartite(n, ms):
                bip.add(key)
    return len(classes), len(bip)


def check_catalog(n: int, graphs, bipartite_flags) -> None:
    """A catalog: expected counts, contracted, chi = 3 - n/2, pairwise distinct.

    The counts are the published ones where this file has them, and the
    exhaustive search's otherwise.
    """
    classes, bip = CATALOG_COUNTS[n] if n in CATALOG_COUNTS else exhaustive_counts(n)
    if len(graphs) != classes:
        raise CheckError(f"n={n}: {len(graphs)} classes, expected {classes}")
    own_bip = [is_bipartite(g_n, g_ms) for g_n, g_ms in graphs]
    if sum(own_bip) != bip or list(bipartite_flags) != own_bip:
        raise CheckError(f"n={n}: bipartite flags disagree with {bip} expected bipartite classes")
    invariants = set()
    for g_n, g_ms in graphs:
        if g_n != n or not is_contracted(g_n, g_ms) or euler_characteristic(g_n, g_ms) != 3 - n // 2:
            raise CheckError(f"n={n}: a class is not contracted with chi = {3 - n // 2}")
        invariants.add(rotation_invariant(g_n, g_ms))
    if len(invariants) != len(graphs):
        raise CheckError(f"n={n}: {len(graphs) - len(invariants)} classes are isomorphic")


# ============================================================
# Seeded inputs
# ============================================================


def standard_cycle(n: int):
    """Colors 0 and 1 along 1..n: color 0 on (1,2), (3,4), ...; color 1 on (2,3), ..., (n,1)."""
    m0 = [0] * (n + 1)
    m1 = [0] * (n + 1)
    for i in range(1, n + 1, 2):
        m0[i], m0[i + 1] = i + 1, i
    for i in range(2, n + 1, 2):
        j = i + 1 if i < n else 1
        m1[i], m1[j] = j, i
    return m0, m1


def random_perm(rng, n: int) -> list[int]:
    """A uniformly random bijection of 1..n as a list (slot 0 unused)."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [0] + perm


def relabel(perm, n: int, ms):
    """Apply the vertex bijection ``perm`` (old -> new)."""
    out = []
    for m in ms:
        row = [0] * (n + 1)
        for u in range(1, n + 1):
            row[perm[u]] = perm[m[u]]
        out.append(row)
    return n, tuple(out)


def random_contracted(rng, n: int, bipartite: bool):
    """Rejection-sample the color-2 matching over the standard {0,1}-cycle, then relabel.

    Bipartite graphs pair odd positions with even ones; non-bipartite
    samples are redrawn when they happen to be 2-colorable.
    """
    if bipartite and n % 4 != 2:
        raise ValueError(f"no bipartite contracted graph on n={n}")
    m0, m1 = standard_cycle(n)
    while True:
        m2 = [0] * (n + 1)
        if bipartite:
            evens = list(range(2, n + 1, 2))
            rng.shuffle(evens)
            pairs = zip(range(1, n + 1, 2), evens)
        else:
            order = list(range(1, n + 1))
            rng.shuffle(order)
            pairs = zip(order[0::2], order[1::2])
        for a, b in pairs:
            m2[a], m2[b] = b, a
        ms = (m0, m1, m2)
        if cycle_count(n, m0, m2) == 1 and cycle_count(n, m1, m2) == 1 \
                and is_bipartite(n, ms) == bipartite:
            return relabel(random_perm(rng, n), n, ms)


def crossing_edges(n: int, ms, side) -> tuple[tuple[int, int], ...]:
    """The edge per color with exactly one end in ``side``, as (u, v), u < v."""
    out = []
    for m in ms:
        crossing = {tuple(sorted((u, m[u]))) for u in side if m[u] not in side}
        if len(crossing) != 1:
            raise CheckError("side is not cut off by one edge per color")
        out.append(crossing.pop())
    return tuple(out)


def fitted_exponent(points) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
