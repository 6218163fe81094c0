"""The library's own checks raise its exceptions: no `assert` statement in
`src/`, since `python -O` strips asserts and a check that cannot fail is no
check."""

import ast

from test_numpy_free import SRC


def test_no_assert_statements_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
