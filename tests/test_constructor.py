"""The package builds every graph through one constructor.

``core.graph_from_matchings`` is the only place in the package that calls
``ColoredGraph(...)``; every other builder hands it three neighbour rows.
A second direct call fails here.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gemsurf"
CONSTRUCTOR = ("core.py", "graph_from_matchings")


def constructor_calls(source: str) -> list[tuple[str | None, int]]:
    """(enclosing top-level function or None, line) for each call of
    ``ColoredGraph`` or ``<module>.ColoredGraph`` in ``source``."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name == "ColoredGraph":
                found.append((owner, node.lineno))
    return found


def test_only_graph_from_matchings_calls_the_graph_class():
    calls = [(path.name, owner, line) for path in sorted(PACKAGE.glob("*.py"))
             for owner, line in constructor_calls(path.read_text(encoding="utf-8"))]
    assert [call[:2] for call in calls] == [CONSTRUCTOR], calls


def test_a_second_call_is_found():
    source = ("def graph_from_matchings(n, a, b, c):\n    return ColoredGraph(n, (a, b, c))\n"
              "class K:\n    def build(self):\n        return core.ColoredGraph(2, ())\n"
              "g = ColoredGraph(2, ())\n")
    assert constructor_calls(source) == [("graph_from_matchings", 2), (None, 5), (None, 6)]
