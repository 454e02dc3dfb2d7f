"""Exhaustive enumeration of contracted graphs and the parity certificate.

The {0,1}-Hamiltonian cycle is fixed in standard position (color 0 on
(1,2), (3,4), ..., color 1 on (2,3), ..., (n,1)), which is legitimate
because every contracted graph can be relabeled along that cycle.  The
color-2 row is then built by a depth-first search that pairs the least
unpaired vertex with each larger one in turn.  The color-0 and color-2
edges placed so far form paths and cycles, and so do the color-1 and
color-2 edges; every unpaired vertex ends one path of each, and two
arrays hold the other end.  A pair that would close either path into a
cycle before the last pair is refused.  That refuses at most two
partners, so with four or more vertices unpaired a partner is always
left, and every branch ends in a contracted row: the search visits no
row it then throws away.

A color-preserving isomorphism between two graphs in standard position
maps the {0,1}-cycle onto itself, so it is one of the n symmetries of
the cycle that keep colors, k -> d(k-1-off) mod n + 1 with d = 1 and off
even or d = -1 and off odd.  Two rows give isomorphic graphs exactly
when one is the other conjugated by such a symmetry, so each class has
one lexicographically least row.  A row is kept only if it is that
least row of its orbit (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998), and only kept rows become graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Bipartition,
    ColoredGraph,
    GemError,
    canonical_graph,
    graph_from_matchings,
    is_bipartite,
)
from .moves import _fingerprint_text
from .reduction import CanonicalForm, _cycle_rows, canonical_of
from .surfaces import complex_stats


class CatalogError(GemError):
    """Raised on out-of-range enumeration requests."""


@dataclass(frozen=True)
class CatalogEntry:
    graph: ColoredGraph
    fingerprint: str
    bipartite: bool
    euler_characteristic: int
    form: CanonicalForm


@dataclass(frozen=True)
class Catalog:
    """All contracted graphs on n vertices, one representative per class."""

    n: int
    classes: tuple[CatalogEntry, ...]

    @property
    def bipartite_count(self) -> int:
        return sum(1 for e in self.classes if e.bipartite)


def _contracted_rows(n: int):
    """Every color-2 row on 1..n that makes the standard cycle contracted.

    Yields one list, updated in place, so a caller that keeps a row must
    copy it.  Nothing recurses, and the state is a few arrays of n+2
    integers: the row, the open-path ends ``end0`` (color 0 and 2) and
    ``end1`` (color 1 and 2), and a linked list of the unpaired vertices.
    """
    end0, end1 = (list(m) for m in _cycle_rows(n))
    nxt = list(range(1, n + 3))  # unpaired vertices as a linked list: 0 heads it,
    prv = list(range(-1, n + 1))  # n + 1 ends it
    row = [0] * (n + 1)
    placed: list[tuple[int, int]] = []
    last = n // 2 - 1  # pairs placed when u and its partner are the last two
    u, w = 1, 2
    while True:
        if len(placed) == last:
            row[u] = w
            row[w] = u
            yield row
        else:
            while w <= n and (w == end0[u] or w == end1[u]):
                w = nxt[w]
            if w <= n:
                row[u] = w
                row[w] = u
                for end in (end0, end1):
                    a, b = end[u], end[w]
                    end[a] = b
                    end[b] = a
                nxt[prv[u]] = nxt[u]
                prv[nxt[u]] = prv[u]
                nxt[prv[w]] = nxt[w]
                prv[nxt[w]] = prv[w]
                placed.append((u, w))
                u = nxt[0]
                w = nxt[u]
                continue
        if not placed:
            return
        u, w = placed.pop()
        nxt[prv[w]] = w
        prv[nxt[w]] = w
        nxt[prv[u]] = u
        prv[nxt[u]] = u
        for end in (end0, end1):
            end[end[u]] = u
            end[end[w]] = w
        w = nxt[w]


def _cycle_symmetries(n: int) -> list[tuple[list[int], list[int]]]:
    """(p, p^-1) for the n - 1 color-keeping symmetries of the standard
    cycle other than the identity, each a list indexed 0..n."""
    syms = []
    for d, first in ((1, 2), (-1, 1)):
        for off in range(first, n, 2):
            p = [0] + [d * (k - 1 - off) % n + 1 for k in range(1, n + 1)]
            q = [0] * (n + 1)
            for k in range(1, n + 1):
                q[p[k]] = k
            syms.append((p, q))
    return syms


def _is_orbit_minimal(row: list[int], syms) -> bool:
    """True iff no conjugate p.row.p^-1 is lexicographically below ``row``."""
    n = len(row) - 1
    for p, q in syms:
        for k in range(1, n + 1):
            x = p[row[q[k]]]
            if x != row[k]:
                if x < row[k]:
                    return False
                break
    return True


def enumerate_contracted(n: int, bound: int = 12) -> Catalog:
    """All contracted graphs with n vertices, up to isomorphism.

    Keeps the orbit-minimal contracted rows, one per class, labels each
    once, and returns their classes sorted by canonical fingerprint.
    """
    if n % 2 != 0 or n < 2:
        raise CatalogError(f"vertex count must be a positive even integer, got {n}")
    if n > bound:
        raise CatalogError(f"n={n} exceeds the enumeration bound {bound}; "
                           "raise the bound deliberately for larger runs")
    m0, m1 = _cycle_rows(n)
    syms = _cycle_symmetries(n)
    entries = []
    for m2 in _contracted_rows(n):
        if not _is_orbit_minimal(m2, syms):
            continue
        g = graph_from_matchings(n, m0, m1, m2)
        bip = is_bipartite(g) is not None
        chi = complex_stats(g).euler_characteristic
        cg = canonical_graph(g)
        fp = _fingerprint_text(n, (m[1:] for m in cg.matchings))
        entries.append(CatalogEntry(cg, fp, bip, chi, canonical_of(n, bip)))
    entries.sort(key=lambda e: e.fingerprint)
    for a, b in zip(entries, entries[1:]):
        if a.fingerprint == b.fingerprint:
            raise GemError(f"two orbit-minimal rows at n={n} share fingerprint {a.fingerprint}")
    return Catalog(n, tuple(entries))


# ============================================================
# The permutation-parity certificate
# ============================================================


@dataclass(frozen=True)
class ParityCertificate:
    """The permutation bookkeeping behind the no-bipartite-4m obstruction.

    With blacks u_1..u_k and whites indexed so the color-0 edges are
    u_i v_i (sigma_0 normalized to the identity), sigma_1 and sigma_2 send
    i to the white index of u_i's color-1 and color-2 neighbor.  The three
    bicolored subgraphs are Hamiltonian exactly when sigma_1, sigma_2 and
    sigma_2^{-1} sigma_1 are full k-cycles.  A full k-cycle is odd for even
    k, so all three conditions force k odd, i.e. n = 2k with n = 2 mod 4.
    """

    half: int
    sigma1: tuple[int, ...]
    sigma2: tuple[int, ...]
    ratio: tuple[int, ...]  # sigma2^{-1} sigma1
    sigma1_cycle_type: tuple[int, ...]
    sigma2_cycle_type: tuple[int, ...]
    ratio_cycle_type: tuple[int, ...]
    sigma1_parity: str
    sigma2_parity: str
    ratio_parity: str
    sigma1_full_cycle: bool
    sigma2_full_cycle: bool
    ratio_full_cycle: bool
    consistent: bool
    diagnosis: str


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    k = len(perm) - 1
    seen = [False] * (k + 1)
    lengths = []
    for i in range(1, k + 1):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _parity(cycle_type: tuple[int, ...]) -> str:
    transpositions = sum(length - 1 for length in cycle_type)
    return "even" if transpositions % 2 == 0 else "odd"


def parity_certificate(g: ColoredGraph, b: Bipartition) -> ParityCertificate:
    """Extract sigma_1, sigma_2 and check the full-cycle/parity arithmetic.

    Requires a bipartition with equal parts.  The graph need not be
    contracted: on near-miss inputs the certificate simply reports which
    full-cycle conditions fail (the parity arithmetic shows the third can
    never hold when n is divisible by 4).
    """
    k = g.n // 2
    if len(b.blacks) != k or len(b.whites) != k:
        raise CatalogError("parity certificate requires parts of equal size")
    blacks = sorted(b.blacks)
    white_index = {}
    for i, u in enumerate(blacks, start=1):
        w = g.matchings[0][u]
        if w not in b.whites:
            raise CatalogError("bipartition does not separate the color-0 edges")
        white_index[w] = i

    def extract(color: int) -> tuple[int, ...]:
        perm = [0] * (k + 1)
        for i, u in enumerate(blacks, start=1):
            w = g.matchings[color][u]
            if w not in white_index:
                raise CatalogError(f"bipartition does not separate the color-{color} edges")
            perm[i] = white_index[w]
        return tuple(perm)

    sigma1 = extract(1)
    sigma2 = extract(2)
    inv2 = [0] * (k + 1)
    for i in range(1, k + 1):
        inv2[sigma2[i]] = i
    ratio = tuple([0] + [inv2[sigma1[i]] for i in range(1, k + 1)])

    types = [_cycle_type(p) for p in (sigma1, sigma2, ratio)]
    full = [t == (k,) for t in types]
    parities = [_parity(t) for t in types]
    consistent = all(full)
    if consistent:
        diagnosis = (f"all three permutations are full {k}-cycles ({parities[0]}), "
                     f"consistent with n = {g.n} = 2 mod 4")
    elif full[0] and full[1] and not full[2]:
        diagnosis = (f"sigma1 and sigma2 are full {k}-cycles ({parities[0]}, "
                     f"{parities[1]}) so their ratio is {parities[2]} and cannot "
                     f"be a full {k}-cycle; the {{1,2}}-subgraph is not Hamiltonian")
    else:
        diagnosis = "one of the Hamiltonicity conditions fails"
    return ParityCertificate(k, sigma1, sigma2, ratio, *types, *parities, *full,
                             consistent, diagnosis)
