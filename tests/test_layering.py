"""The tuple term API (``ProductTerm`` and the ``sv_*`` helpers) is an input
and convenience layer of ``states``: no other library module uses it."""

import ast
from pathlib import Path

import tridecomp

ALLOWED = {"states.py", "__init__.py"}


def tuple_api_names(path: Path) -> set:
    """Names of the tuple API that ``path`` imports or reads as attributes."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found.update(n for n in names
                     if n == "ProductTerm" or n.startswith("sv_"))
    return found


def test_only_states_uses_the_tuple_term_api():
    src = Path(tridecomp.__file__).parent
    users = {p.name: sorted(tuple_api_names(p))
             for p in sorted(src.glob("*.py")) if p.name not in ALLOWED}
    assert {name: used for name, used in users.items() if used} == {}
