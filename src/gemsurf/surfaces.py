"""The incidence model of the associated 2-complex and the surface classifier.

Each graph vertex contributes one triangle, each graph edge one identified
complex edge, and the complex vertices labeled c are in bijection with the
bicolored cycles on the other two colors: the identification rule merges
the c-labeled triangle corners of neighboring triangles precisely along
such a cycle.  That derivation is validated against the hand-counted
2-vertex, 4-vertex and 6-vertex complexes in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ColoredGraph, GemError, cycle_counts, is_bipartite, is_connected, is_contracted
from .reduction import CanonicalForm, canonical_of, realize


class SurfaceError(GemError):
    """Raised on invalid classifier inputs or internal inconsistencies."""


@dataclass(frozen=True)
class ComplexStats:
    """Face/edge/vertex counts and Euler characteristic of the 2-complex."""

    face_count: int
    edge_count: int
    vertex_count_per_label: tuple[int, int, int]
    vertex_count: int
    euler_characteristic: int


@dataclass(frozen=True)
class SurfaceClass:
    """A closed surface: the sphere, or an orientable/non-orientable genus."""

    kind: str  # "sphere" | "orientable" | "nonorientable"
    genus: int = 0

    def __post_init__(self):
        if self.kind == "sphere":
            if self.genus != 0:
                raise SurfaceError("the sphere has genus 0")
        elif self.kind in ("orientable", "nonorientable"):
            if self.genus < 1:
                raise SurfaceError(f"{self.kind} surfaces here have genus >= 1")
        else:
            raise SurfaceError(f"unknown surface kind {self.kind!r}")

    @property
    def euler_characteristic(self) -> int:
        if self.kind == "sphere":
            return 2
        if self.kind == "orientable":
            return 2 - 2 * self.genus
        return 2 - self.genus

    def __str__(self) -> str:
        if self.kind == "sphere":
            return "sphere"
        if self.kind == "orientable":
            return f"orientable genus {self.genus}"
        return f"non-orientable genus {self.genus}"


def sphere() -> SurfaceClass:
    return SurfaceClass("sphere")


def orientable(genus: int) -> SurfaceClass:
    return SurfaceClass("orientable", genus)


def nonorientable(genus: int) -> SurfaceClass:
    return SurfaceClass("nonorientable", genus)


def complex_stats(g: ColoredGraph) -> ComplexStats:
    """Counts for the 2-complex of a connected graph."""
    if not is_connected(g):
        raise SurfaceError("complex statistics require a connected graph")
    # Label c counts the cycles on the other two colors.
    counts = cycle_counts(g)
    per_label = (counts[1, 2], counts[0, 2], counts[0, 1])
    faces = g.n
    edges = 3 * g.n // 2
    vertices = sum(per_label)
    return ComplexStats(faces, edges, per_label, vertices,
                        vertices - edges + faces)


# The normal form of each surface: L, T(m) and P(m) encode the sphere and
# the orientable and non-orientable surfaces of genus m.
_SURFACE_KIND = {"L": "sphere", "T": "orientable", "P": "nonorientable"}
_FORM_KIND = {kind: form for form, kind in _SURFACE_KIND.items()}


def classify_surface(g: ColoredGraph) -> SurfaceClass:
    """The surface encoded by a contracted graph.

    Read off the normal form for (n, bipartiteness) and cross-checked
    against (Euler characteristic, orientability); the two must agree,
    else an internal error is raised.
    """
    if not is_contracted(g):
        raise SurfaceError("classification requires a contracted graph (a crystallization)")
    bip = is_bipartite(g)
    form = canonical_of(g.n, bip is not None)
    result = SurfaceClass(_SURFACE_KIND[form.kind], form.m)

    chi = complex_stats(g).euler_characteristic
    if bip is not None:
        check = sphere() if chi == 2 else orientable((2 - chi) // 2)
    else:
        check = nonorientable(2 - chi)
    if check != result:
        raise SurfaceError(
            f"internal: size/parity derivation gives {result} but the Euler "
            f"characteristic derivation gives {check}")
    return result


def crystallization_of(s: SurfaceClass) -> ColoredGraph:
    """A canonical contracted graph encoding the surface."""
    return realize(CanonicalForm(_FORM_KIND[s.kind], s.genus))
