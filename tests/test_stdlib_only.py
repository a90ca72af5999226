"""The runtime imports nothing outside the standard library."""

import ast
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
