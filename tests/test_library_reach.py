"""Every public module-level function and class of the library is reached by
the library itself, by the benchmark or by the console script.

Names count as used where the ASTs of ``src/conserva`` and ``perfbench``
(``__init__`` files excluded, since a re-export reaches nothing) load them:
``Name`` ids, ``Attribute`` attributes and import aliases.  The benchmark
names its trace targets in string constants, and ``pyproject.toml`` names the
console entry point, so both count too.  A public definition that only tests
reach belongs in the tests, or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "conserva"
PERFBENCH = ROOT / "perfbench"

# the one-element recovery's argument wrapper: ``recover_fluxes`` is a
# benchmark trace target, so both leave with the benchmark change that
# drops that target (ROADMAP item 9)
ALLOWED = {"RecoveryProblem"}


def _sources(directory):
    return [path for path in sorted(directory.rglob("*.py")) if path.name != "__init__.py"]


def _used_names():
    used = set()
    for path in _sources(LIBRARY) + _sources(PERFBENCH):
        in_perfbench = PERFBENCH in path.parents
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(part for name in (node.name, node.asname) if name
                            for part in name.split("."))
            elif in_perfbench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(node.value.replace(":", ".").split("."))
    used.update((ROOT / "pyproject.toml").read_text(encoding="utf-8")
                .replace(":", ".").replace('"', " ").replace(".", " ").split())
    return used


def _public_definitions():
    for path in _sources(LIBRARY):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.relative_to(LIBRARY)}:{node.name}", node.name


def test_every_public_definition_is_reached_outside_the_tests():
    used = _used_names()
    unreached = [where for where, name in _public_definitions()
                 if name not in used and name not in ALLOWED]
    assert unreached == [], "reached only by tests: " + ", ".join(unreached)
