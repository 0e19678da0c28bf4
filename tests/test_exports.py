"""Every public name of the package has a use inside the package."""

import ast
import inspect
from pathlib import Path

import fatwedge

SRC = Path(fatwedge.__file__).resolve().parent

#: exported entry points with no use in the package: the Tor-side Hochster
#: check, the filling read off a dual shelling, the filtration layers and the
#: two simplex constructors are library API for callers and tests; the
#: benchmark tracer wraps is_homology_fillable
UNUSED_EXPORTS = frozenset({"filling_from_dual_shelling", "hochster_tor_check",
                            "rmac_filtration", "is_homology_fillable",
                            "simplex", "boundary_of_simplex"})


def _uses(node, owners, seen):
    """Add to seen every name read below node outside a definition of it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            _uses(child, owners | {child.name}, seen)
            continue
        if isinstance(child, ast.Name) and child.id not in owners:
            seen.add(child.id)
        elif isinstance(child, ast.Attribute) and child.attr not in owners:
            seen.add(child.attr)
        _uses(child, owners, seen)


def test_every_export_is_used_in_the_package():
    seen = set()
    for path in sorted(SRC.rglob("*.py")):
        _uses(ast.parse(path.read_text(encoding="utf-8")), frozenset(), seen)
    exports = {name for name in fatwedge.__all__
               if not inspect.ismodule(getattr(fatwedge, name))}
    assert UNUSED_EXPORTS <= exports
    assert sorted(exports - seen) == sorted(UNUSED_EXPORTS)
