"""Package hygiene: the runtime imports nothing outside the standard
library, every top-level name and every method of the package is used
somewhere, and the double-range message is worded in one place."""

import ast
import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zetapath"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for src in sources:
        for node in ast.walk(ast.parse(src.read_text(), str(src))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [(src.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


ROOT = PACKAGE.parents[1]


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from (sub.id for sub in ast.walk(node)
                        if isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Store))


def _method_names(tree):
    """(class, name) of every method and property of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, sub.name) for sub in node.body
                        if isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)))


def _references(tree):
    """Names a module reads: loaded names, attributes, imported names, and
    string constants spelt as one identifier (monkeypatch.setattr)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def _used_names():
    # every name that src/, tests/, perfbench/ or the README reads
    used = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used.update(_references(ast.parse(path.read_text(), str(path))))
    used.update(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    return used


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_top_level_name_is_used():
    # a top-level name of the package that nothing reads is dead weight
    used = _used_names()
    unused = [f"{src.stem}.{name}"
              for src in sorted(PACKAGE.glob("*.py"))
              for name in _top_level_names(ast.parse(src.read_text()))
              if not _is_dunder(name) and name not in used]
    assert unused == []


def test_every_method_is_used():
    # the same rule for the methods and properties of the package's
    # classes: one whose last caller goes is dead weight too
    used = _used_names()
    unused = [f"{src.stem}.{cls}.{name}"
              for src in sorted(PACKAGE.glob("*.py"))
              for cls, name in _method_names(ast.parse(src.read_text()))
              if not _is_dunder(name) and name not in used]
    assert unused == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_import_is_read():
    # a name a module imports and never reads is dead weight, and after a
    # refactor often a stale one
    unused = []
    for src in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(src.read_text(), str(src))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused += [f"{src.stem}.{name}" for name in _imported_names(tree)
                   if name not in read]
    assert unused == []


def test_double_range_message_has_one_source():
    # NearPole for a value out of double range is worded in one module,
    # which the eta and zeta layers both call
    wording = [src.stem for src in sorted(PACKAGE.glob("*.py"))
               if "leaves double range" in src.read_text()]
    assert wording == ["errors"]
