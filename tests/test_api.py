"""The package's public API is what the pipeline and the benchmark call.

A public function, class or method that only tests call belongs in
``tests/helpers.py``, or nowhere.
"""

import ast
from pathlib import Path

from crowdcdr import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "crowdcdr").glob("*.py"))


def referenced_names() -> set[str]:
    """Every name read by a Name or Attribute node, or imported, in the
    package or the benchmark; strings and docstrings do not count."""
    names = set()
    for path in [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def public_definitions() -> list[tuple[str, str]]:
    """(qualified name, name) of each public module-level function or
    class of the package, and of each public method of a public class."""
    out = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{m.name}", m.name)
                        for m in node.body if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_")]
    return out


def test_every_public_name_is_used_outside_the_tests():
    # ``run_command`` calls each stage by the name COMMANDS gives it.
    used = referenced_names() | {
        f"stage_{stage}" for stages, _ in cli.COMMANDS.values()
        for stage in stages}
    unused = [q for q, name in public_definitions() if name not in used]
    assert not unused, f"public, but called only by tests: {unused}"
