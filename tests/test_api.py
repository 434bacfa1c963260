"""The package's public API is what the pipeline and the benchmark call.

A public function, class or method that only tests call belongs in
``tests/helpers.py``, or nowhere; a keyword option that no caller sets
is a constant.
"""

import ast
from pathlib import Path

from crowdcdr import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "crowdcdr").glob("*.py"))


def referenced_names(
        paths=(*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py")))
) -> set[str]:
    """Every name read by a Name or Attribute node, or imported, in
    ``paths``, the package and the benchmark unless given; strings,
    docstrings and the targets of assignments do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def public_definitions() -> list[tuple[str, ast.FunctionDef | ast.ClassDef]]:
    """(qualified name, node) of each public module-level function or
    class of the package, and of each public method of a public class."""
    out = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            out.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{m.name}", m)
                        for m in node.body if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_")]
    return out


def keywords_passed() -> set[tuple[str, str]]:
    """(called name, keyword) of every keyword argument of a call in the
    package, the benchmark or the tests; the called name is the Name or
    the Attribute the call is made through."""
    passed = set()
    for path in [p for top in ("src", "perfbench", "tests")
                 for p in sorted((ROOT / top).rglob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            passed |= {(name, k.arg) for k in node.keywords if k.arg}
    return passed


def test_every_public_name_is_used_outside_the_tests():
    # ``run_command`` calls each stage by the name COMMANDS gives it.
    used = referenced_names() | {
        f"stage_{stage}" for stages, _ in cli.COMMANDS.values()
        for stage in stages}
    unused = [q for q, node in public_definitions() if node.name not in used]
    assert not unused, f"public, but called only by tests: {unused}"


def test_every_keyword_option_is_set_by_some_caller():
    # An option only its default ever takes is a constant in disguise.
    passed = keywords_passed()
    unset = [f"{q}({arg.arg}=)" for q, node in public_definitions()
             if isinstance(node, ast.FunctionDef)
             for arg, default in zip(node.args.kwonlyargs,
                                     node.args.kw_defaults)
             if default is not None and (node.name, arg.arg) not in passed]
    assert not unset, f"keyword options that no call sets: {unset}"


def private_definitions() -> list[str]:
    """module.name of each private module-level function, class and
    assigned name of the package; dunder names are not private."""
    out = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            out += [f"{path.stem}.{name}" for name in names
                    if name.startswith("_") and not name.endswith("__")]
    return out


def test_every_private_name_is_read_in_the_package():
    # A private name only its own definition mentions is dead code.
    read = referenced_names(PACKAGE)
    unread = [q for q in private_definitions()
              if q.rpartition(".")[2] not in read]
    assert not unread, f"private, but read nowhere in the package: {unread}"
