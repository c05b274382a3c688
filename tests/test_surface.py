"""Every name ``src/cmred`` defines is used there or traced by the benchmark.

Code that only the tests call belongs under ``tests/`` (as an oracle or a
helper), not in the package.  The scan reads the source with ``ast``: every
top-level def, class and constant, and every public method of a top-level
class, must be referenced (as a name, an attribute or an import) somewhere
in ``src/cmred`` outside its own definition, or be named in a string of
``perfbench/child.py``, whose ``TARGETS`` trace functions by name.
References are matched by name only, so a name that something else also
uses passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cmred"
CHILD = ROOT / "perfbench" / "child.py"


def definitions(tree):
    """(name, node) of every top-level def, class and constant, and of every
    public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def references(tree):
    """(name, line) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno


def traced_names(child: Path) -> set:
    """Every part of every dotted identifier written as a string."""
    names = set()
    for node in ast.walk(ast.parse(child.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def unused_names(src: Path, child: Path) -> list:
    """The names defined under ``src`` that nothing there references outside
    their own definition and ``child`` does not name, as sorted
    'module.name' strings."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    refs = {stem: list(references(tree)) for stem, tree in trees.items()}
    traced = traced_names(child)
    unused = []
    for stem, tree in trees.items():
        for name, node in definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            used = name in traced or any(
                ref == name and (other != stem or line not in own)
                for other, found in refs.items() for ref, line in found)
            if not used:
                unused.append(f"{stem}.{name}")
    return sorted(unused)


def test_every_name_in_the_package_is_used_by_it():
    assert unused_names(SRC, CHILD) == []


def test_the_scan_flags_what_only_its_own_definition_uses(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def loop(n):\n    return loop(n - 1) if n else LIMIT\n"
        "class Box:\n"
        "    def size(self):\n        return Box\n"
        "    def _hidden(self):\n        return 0\n"
        "def traced():\n    return 1\n")
    (package / "b.py").write_text("from .a import Box\n")
    child = tmp_path / "child.py"
    child.write_text('TARGETS = [("pkg.a", "traced", "a.traced")]\n'
                     '"""A loop docstring."""\n')
    assert unused_names(package, child) == ["a.UNUSED", "a.loop", "a.size"]
