"""Every function and method in the package is reached by a shipped path.

A top-level def, or a non-dunder method of a top-level class, in
``src/harmonic_rta/`` counts as reached when the code of some package
module other than ``__init__.py`` names it (as a name or an attribute,
not in a comment or docstring), or when ``benchmarks/*.py`` or
``pyproject.toml`` names it.  A re-export from ``__init__.py`` alone does
not count: it names the function without calling it.  Anything else must
be in ``UNREACHED`` with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "harmonic_rta"

UNREACHED = {
    "nested_ceil": "the paper's nested-ceiling identity, pinned by the "
                   "rta and acceptance tests",
    "wcrt_with_delays": "checks the paper's claim that shifts within the "
                        "exclusion intervals leave the WCRT unchanged",
    "brute_force_feasibility": "the exhaustive oracle the shift solver is "
                               "tested against until the exact search lands",
}


def _definitions() -> dict[str, list[str]]:
    """Defined name -> the places it is defined, as module:qualname."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, []).append(
                    f"{path.stem}:{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        defined.setdefault(item.name, []).append(
                            f"{path.stem}:{node.name}.{item.name}")
    return defined


def _named() -> set[str]:
    """Every name that counts as reaching a definition."""
    return _named_in_code() | _named_in_text()


def _named_in_code() -> set[str]:
    """Names and attributes read by the package modules but `__init__`."""
    named = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return named


def _named_in_text() -> set[str]:
    """Every identifier in the benchmark scripts and pyproject.toml."""
    named = set()
    for path in [*sorted((ROOT / "benchmarks").glob("*.py")),
                 ROOT / "pyproject.toml"]:
        named.update(re.findall(r"[A-Za-z_]\w*",
                                path.read_text(encoding="utf-8")))
    return named


def test_every_definition_is_reached_or_allowed():
    named = _named()
    unreached = {name: places for name, places in _definitions().items()
                 if name not in named and name not in UNREACHED}
    assert not unreached, unreached


def test_allow_list_names_only_unreached_definitions():
    defined = _definitions()
    named = _named()
    for name in UNREACHED:
        assert name in defined, f"{name} is no longer defined"
        assert name not in named, f"{name} is reached; drop it from UNREACHED"
