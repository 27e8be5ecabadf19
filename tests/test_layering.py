"""The tuple term API (``ProductTerm`` and the ``sv_*`` helpers) is an input
and convenience layer of ``states``: no other library module uses it.  The
row-block walk over factor overlaps is private to ``states`` too: other
modules read its numbers through ``_overlap_summary``."""

import ast
from pathlib import Path

import tridecomp

ALLOWED = {"states.py", "__init__.py"}
WALK = {"_overlap_blocks", "_gram_forms", "_split_diagonal"}


def used_names(path: Path) -> set:
    """Names that ``path`` imports, reads as attributes or reads bare."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name):
            found.add(node.id)
    return found


def users_of(wanted, allowed) -> dict:
    src = Path(tridecomp.__file__).parent
    users = {p.name: sorted(n for n in used_names(p) if wanted(n))
             for p in sorted(src.glob("*.py")) if p.name not in allowed}
    return {name: used for name, used in users.items() if used}


def test_only_states_uses_the_tuple_term_api():
    assert users_of(lambda n: n == "ProductTerm" or n.startswith("sv_"),
                    ALLOWED) == {}


def test_only_states_walks_the_overlap_blocks():
    assert users_of(WALK.__contains__, {"states.py"}) == {}
