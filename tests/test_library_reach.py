"""Every public module-level function and class of the library, and every
public method and property of its classes, is reached by the library itself,
by the benchmark or by the console script.

Names count as used where the ASTs of ``src/conserva`` and ``perfbench``
(``__init__`` files excluded, since a re-export reaches nothing) load them:
``Attribute`` attributes and import aliases, plus ``Name`` ids inside the
library.  The benchmark reaches the library only through attributes, imports
and the string constants that name its trace targets; its bare names are its
own.  ``pyproject.toml`` names the console entry point, so it counts too.  A
method counts as reached only by a use outside its own class body: one that
only its class calls is private.  A public definition that only tests reach
belongs in the tests, or nowhere.

The library's modules also import nothing they do not use, bar an import
marked ``# noqa: F401``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "conserva"
PERFBENCH = ROOT / "perfbench"

# public definitions that may stay although only tests reach them, each by
# the name its "unreached" report gives; empty today
ALLOWED = set()


def _sources(directory):
    return [path for path in sorted(directory.rglob("*.py")) if path.name != "__init__.py"]


def _names(tree, benchmark=False):
    """The names ``tree`` uses, counted once per use; in the benchmark, its
    string constants instead of its bare names."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not benchmark:
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used.update(part for name in (node.name, node.asname) if name
                        for part in name.split("."))
        elif benchmark and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.replace(":", ".").split("."))
    return used


def _used_names():
    used = Counter()
    for path in _sources(LIBRARY) + _sources(PERFBENCH):
        used += _names(ast.parse(path.read_text(encoding="utf-8")),
                       benchmark=PERFBENCH in path.parents)
    used.update((ROOT / "pyproject.toml").read_text(encoding="utf-8")
                .replace(":", ".").replace('"', " ").replace(".", " ").split())
    return used


def _assigned(node):
    """The names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for name in ast.walk(target):
            if isinstance(name, ast.Name):
                yield name.id


def _public_definitions():
    """(where, name, uses inside the definition itself) of every public
    module-level function, class or constant and every public method or
    property; a constant's own use is the name it binds."""
    for path in _sources(LIBRARY):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.relative_to(LIBRARY)}:{node.name}", node.name, 0
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _assigned(node):
                    if not name.startswith("_"):
                        yield f"{path.relative_to(LIBRARY)}:{name}", name, 1
            if isinstance(node, ast.ClassDef):
                own = _names(node)
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        where = f"{path.relative_to(LIBRARY)}:{node.name}.{member.name}"
                        yield where, member.name, own[member.name]


def test_every_public_definition_is_reached_outside_the_tests():
    used = _used_names()
    unreached = [where for where, name, own in _public_definitions()
                 if used[name] <= own and where.split(":")[1] not in ALLOWED]
    assert unreached == [], "reached only by tests: " + ", ".join(unreached)


def test_every_allowed_name_is_a_public_definition():
    defined = {where.split(":")[1] for where, _, _ in _public_definitions()}
    assert sorted(ALLOWED - defined) == []


def test_library_modules_use_every_import():
    unused = []
    for path in _sources(LIBRARY):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loaded:
                    unused.append(f"{path.relative_to(LIBRARY)}: {bound}")
    assert unused == [], "unused imports: " + ", ".join(unused)
