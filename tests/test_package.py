"""The package's public surface and the hygiene of its modules."""

import ast
import types
from pathlib import Path

import stochgames

SRC = Path(stochgames.__file__).resolve().parent

# adding or removing a public name is a change of the library's interface:
# update this list in the same change, and say so
PUBLIC_NAMES = [
    "Arena",
    "BeliefGraph",
    "Distribution",
    "EvalResult",
    "FiniteMemoryStrategy",
    "GameError",
    "KnowledgeArena",
    "Objective",
    "OneHalfGame",
    "PositiveWinReport",
    "ProductChain",
    "ResourceLimit",
    "SchemaError",
    "SolveReport",
    "ValidationError",
    "best_response_full_info",
    "build_chain",
    "build_knowledge_arena",
    "decide_almost_sure_buchi",
    "decide_almost_sure_reach",
    "fix_candidate",
    "lower_strategy",
    "monte_carlo",
    "objective_probability",
    "parse_game",
    "parse_strategy",
    "positive_cobuchi",
    "positive_safety",
    "serialize_game",
    "serialize_strategy",
    "validate_strategy",
]


def test_public_names_pinned():
    """The names ``stochgames`` exports without a leading underscore.
    Submodules are left out: which of them are attributes of the package
    depends on what the process imported before."""
    names = sorted(
        name
        for name, value in vars(stochgames).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name a module imports and never reads as a
    name; a name read only inside a string, such as a quoted annotation,
    counts as unread."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_flagged():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Sequence, Mapping as M\n"
        "def f(x: Sequence) -> int:\n"
        "    return 1\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "M")]


def test_library_modules_import_nothing_unused():
    """``__init__.py`` is left out: it imports names to export them."""
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text()))
    }
    assert found == {}
