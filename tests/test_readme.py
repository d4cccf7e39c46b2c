"""README's Python examples run as written and print what they say."""

import ast
import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_examples():
    assert len(BLOCKS) >= 2  # the quick start and the suite example


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_example_runs_and_prints_its_comments(source):
    # a top-level print whose line ends in "# text" must print text, where
    # "..." stands for the characters the comment leaves out
    lines = source.splitlines()
    namespace = {}
    for stmt in ast.parse(source).body:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if isinstance(stmt, ast.Expr) and tail.startswith("#"):
            pattern = re.escape(tail[1:].strip()).replace(re.escape("..."), r"\S*")
            assert re.fullmatch(pattern, out.getvalue().strip()), (tail, out.getvalue())
