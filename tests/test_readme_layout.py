"""README's library layout table names only what exists.

Every backticked identifier in a ``| `conserva.…` |`` row of README.md, a
dotted name alone or followed by its call or subscript (``recover_fluxes(graph,
psi)``, ``phi[..., 0]``), must resolve: to a module or an attribute of one
(``numpy.polynomial``, ``np.einsum``, a builtin), to names the library binds
in ``src/conserva`` (every component of a dotted name: a definition, field,
attribute, parameter, local or import alias), to a scheme, base residual or
correction id of ``records.SCHEMES``, or to the short allow-list below.
Spans that are formulas (``L = A A^T``) or command names (``recover-fluxes``)
are not identifiers and are not checked.
"""

import ast
import builtins
import importlib
import re
from pathlib import Path

from conserva.records import SCHEMES

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "conserva"

# numpy names the table mentions without their module
ALLOWED = {"einsum"}
ALIASES = {"np": "numpy"}

_IDENTIFIER = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\)|\[.*\])*")


def _table_identifiers():
    rows = [line for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
            if line.startswith("| `conserva.")]
    assert rows, "README.md has no library layout rows"
    for row in rows:
        for span in re.findall(r"`([^`]+)`", row):
            match = _IDENTIFIER.fullmatch(span)
            if match:
                yield match.group(1)


def _library_bindings():
    """Every name the library binds, and the names of its modules."""
    bound = set()
    for path in LIBRARY.rglob("*.py"):
        bound.update(part for part in path.relative_to(LIBRARY).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                bound.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.alias):
                bound.update((node.asname or node.name).split("."))
    return bound


def _resolves_in_a_module(name):
    """Whether a dotted name is a module, or an attribute chain of one."""
    head, *rest = name.split(".")
    if not rest:
        return hasattr(builtins, head)
    parts = [ALIASES.get(head, head)] + rest
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _scheme_ids():
    ids = set(SCHEMES)
    for row in SCHEMES.values():
        ids.add(row.base)
        ids.update(row.corrections)
    return ids


def test_every_identifier_in_the_library_table_exists():
    bound, ids = _library_bindings(), _scheme_ids()
    unknown = sorted({
        name for name in _table_identifiers()
        if not (name in ALLOWED or name in ids or _resolves_in_a_module(name)
                or all(part in bound for part in name.split(".")))
    })
    assert unknown == [], "README's library table names what the library lacks: " + ", ".join(unknown)
