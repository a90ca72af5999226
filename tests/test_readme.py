"""README's Python quick start, run as written: each expression line's
result is checked against the value its comment states."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_gives_the_results_its_comments_state():
    source = _quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], []), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                   namespace)
        # the comment's first word: the value, or ~ and its order
        stated = lines[node.lineno - 1].split("#", 1)[1].split()[0].rstrip(":")
        if stated.startswith("~"):
            want = float(stated[1:])
            assert want / 10.0 < got < want * 10.0, (node.lineno, got)
        else:
            assert got == ast.literal_eval(stated), (node.lineno, got)
        checked.append(stated)
    assert checked == ["True", "41", "~8e-16", "2", "20"]
