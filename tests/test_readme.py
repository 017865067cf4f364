"""README's Library block runs as written and gives the results that its
comments state, so that every name it imports stays public."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_gives_its_commented_results():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    results = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            # `expression  # result: remark`
            expected = lines[node.end_lineno - 1].partition("# ")[2].split(":")[0]
            got = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            results.append((repr(got), expected))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert results == [("2", "2"), ("False", "False"), ("True", "True")]
