"""Every name ``src/cmred`` defines is used there or traced by the benchmark,
and every parameter default it declares is overridden by a call there.

Code that only the tests call belongs under ``tests/`` (as an oracle or a
helper), not in the package.  The scan reads the source with ``ast``: every
top-level def, class and constant, and every public method of a top-level
class, must be referenced (as a name, an attribute or an import) somewhere
in ``src/cmred`` outside its own definition, or be named in a string of
``perfbench/child.py``, whose ``TARGETS`` trace functions by name.
References are matched by name only, so a name that something else also
uses passes.

Likewise an option that only the tests set is a configuration no command
reaches: every parameter with a default of a top-level function, or of a
method of a top-level class, must be passed by some call in ``src/cmred``
outside its own definition.  Calls are matched by name (a method's, or its
class's for ``__init__``); a call that unpacks ``*args`` or ``**kwargs``
counts as passing every parameter.
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


def defaulted_parameters(tree):
    """(called name, qualified name, definition node, parameter, position or
    None) of every parameter with a default of a top-level function or of a
    method of a top-level class.  The position is the parameter's index
    among a call's positional arguments, which do not hold a method's
    ``self``; None for a keyword-only parameter."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _defaulted(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    called = node.name if item.name == "__init__" \
                        else item.name
                    yield from _defaulted(called, f"{node.name}.{item.name}",
                                          item, 1)


def _defaulted(called, qualname, fn, skip):
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for k in range(first, len(positional)):
        yield called, qualname, fn, positional[k].arg, k - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield called, qualname, fn, arg.arg, None


def calls(tree):
    """(called name, line, positional count, keyword names, whether it
    unpacks) of every call of a name or an attribute."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords)
        yield (name, node.lineno, len(node.args),
               {k.arg for k in node.keywords}, unpacks)


def unpassed_defaults(src: Path) -> list:
    """The defaulted parameters under ``src`` that no call there passes
    outside their own definition, as sorted 'module.qualname(parameter)'
    strings."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    found = {stem: list(calls(tree)) for stem, tree in trees.items()}
    unpassed = []
    for stem, tree in trees.items():
        for called, qualname, fn, param, position in \
                defaulted_parameters(tree):
            own = range(fn.lineno, fn.end_lineno + 1)
            passed = any(
                name == called and (other != stem or line not in own)
                and (unpacks or param in keywords
                     or (position is not None and count > position))
                for other, found_calls in found.items()
                for name, line, count, keywords, unpacks in found_calls)
            if not passed:
                unpassed.append(f"{stem}.{qualname}({param})")
    return sorted(unpassed)


def test_every_name_in_the_package_is_used_by_it():
    assert unused_names(SRC, CHILD) == []


def test_every_default_in_the_package_is_passed_by_it():
    # the entry point's argv is passed by the interpreter, not by cmred
    assert unpassed_defaults(SRC) == ["cli.main(argv)"]


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
    # defaults that only their own definition passes
    package = tmp_path / "defaults"
    package.mkdir()
    (package / "a.py").write_text(
        "def scaled(n, factor=2, *, offset=0, label=None):\n"
        "    return scaled(n - 1, 1, label=label) if n else offset\n"
        "def forwarded(n, step=1, *, unit=None):\n    return n\n"
        "class Box:\n"
        "    def __init__(self, width=1, depth=0):\n        self.width = width\n"
        "    def size(self, unit=None):\n        return self.width\n"
        "    def wider(self, by=1):\n        return Box(self.width + by)\n")
    (package / "b.py").write_text(
        "from .a import Box, forwarded, scaled\n"
        "def use(args):\n"
        "    return scaled(3, 4), Box(2).wider(3).size(), forwarded(*args)\n")
    assert unpassed_defaults(package) == [
        "a.Box.__init__(depth)", "a.Box.size(unit)", "a.scaled(label)",
        "a.scaled(offset)"]

