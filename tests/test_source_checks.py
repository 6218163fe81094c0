"""Rules the source under `src/` keeps.

The library's own checks raise its exceptions: no `assert` statement,
since `python -O` strips asserts and a check that cannot fail is no check.

Every memo is bounded: each `lru_cache` passes an integer `maxsize`, so
the memory a cache may hold is fixed before it fills.  `make_field` is one
of them; a test that patches anything `make_field` calls must call
`make_field.cache_clear()` first, or it may be served a field built
before the patch.
"""

import ast

from test_numpy_free import SRC


def _nodes():
    files = sorted(SRC.rglob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield f"{path.relative_to(SRC)}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements_in_src():
    assert [where for where, node in _nodes() if isinstance(node, ast.Assert)] == []


def _memo_decorators():
    """(where, function name, decorator) for each `lru_cache` or `cache` decorator."""
    for where, node in _nodes():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            func = dec.func if isinstance(dec, ast.Call) else dec
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("lru_cache", "cache"):
                yield where, node.name, dec


def _has_int_maxsize(dec):
    if not isinstance(dec, ast.Call):
        return False                # bare @lru_cache or @cache
    sizes = dec.args[:1] + [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
    return (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int)


def test_every_lru_cache_is_bounded():
    memos = list(_memo_decorators())
    assert "make_field" in {name for _, name, _ in memos}    # the scan sees the memos
    assert [f"{where} {name}" for where, name, dec in memos if not _has_int_maxsize(dec)] == []
