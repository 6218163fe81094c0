"""Rules the source under `src/` keeps.

The library's own checks raise its exceptions: no `assert` statement,
since `python -O` strips asserts and a check that cannot fail is no check.

Every memo is bounded: each `lru_cache` passes an integer `maxsize`, so
the memory a cache may hold is fixed before it fills.  `make_field` is one
of them; a test that patches anything `make_field` calls must call
`make_field.cache_clear()` first, or it may be served a field built
before the patch.

No record field is write-only: every field a result carries is read by
some caller in the library or the demos.

The oracles stay independent: `oracles.py` takes from the package only
`InputError` and the `QuadField` type, so no oracle runs through the code
it checks.  Oracles return values, and `verify` and the tests compare them.

Every memory charge is measured: each `_BYTES_PER_*` constant under
`src/` is named by some test, which checks the charge against a traced
peak or a budget.

Every `.py` under `src/`, `tests/` and `demos/` parses at the Python floor
that `pyproject.toml` declares, so syntax from a later release fails here
and not on a user's older interpreter.

Every module-level import under `src/`, `tests/` and `demos/` is loaded by
name in its module, so deleting code cannot leave its imports behind.  The
package `__init__.py` is exempt: its imports re-export.

Integers stay integers below the Lefschetz layer: `exactmath`, `quadfield`
and `eisenstein` import no `fractions`, and no module under `src/` defines
or calls `as_integer`, whose check that a product of integer factors is an
integer could not fail.
"""

import ast
import re

from test_numpy_free import SRC

DEMOS = SRC.parent / "demos"


def _nodes(root=SRC):
    files = sorted(root.rglob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield f"{path.relative_to(root)}:{getattr(node, 'lineno', 0)}", node


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


def _record_fields():
    """(where, class, field) for every `NamedTuple` field and every
    `self.x = ...` in an `__init__` under `src/`."""
    for where, node in _nodes():
        if not isinstance(node, ast.ClassDef):
            continue
        if any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
               for base in node.bases):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield where, node.name, stmt.target.id
        for init in node.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                for sub in ast.walk(init):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and getattr(sub.value, "id", None) == "self"):
                        yield where, node.name, sub.attr


def test_no_write_only_record_fields():
    """Each record field is read as an attribute in `src/` or `demos/`.

    The match is by name alone, so an echo field whose name is read on
    some other object (`d`, say, as `field.d`) passes unseen.
    """
    read = {node.attr for root in (SRC, DEMOS) for _, node in _nodes(root)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = list(_record_fields())
    assert {"BoundReport", "SczechOperator"} <= {cls for _, cls, _ in fields}
    assert [f"{where} {cls}.{name}" for where, cls, name in fields if name not in read] == []


def test_every_memory_charge_is_named_by_a_test():
    charges = {target.id for _, node in _nodes() if isinstance(node, ast.Assign)
               for target in node.targets
               if isinstance(target, ast.Name) and target.id.startswith("_BYTES_PER_")}
    assert {"_BYTES_PER_MATRIX", "_BYTES_PER_PRODUCT", "_BYTES_PER_PAIR",
            "_BYTES_PER_CELL", "_BYTES_PER_B", "_BYTES_PER_ELEMENT"} <= charges
    named = {getattr(node, "attr", getattr(node, "id", None))
             for _, node in _nodes(SRC.parent / "tests")}
    assert sorted(charges - named) == []


def test_oracles_import_nothing_they_check():
    path = SRC / "bianchi_lefschetz" / "oracles.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("bianchi_lefschetz")):
            module = (node.module or "").removeprefix("bianchi_lefschetz").lstrip(".")
            imported |= {f"{module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names
                         if alias.name.startswith("bianchi_lefschetz")}
    assert imported == {"exactmath.InputError", "quadfield.QuadField"}


def _unused_imports(path):
    """Names a module imports at its top level and never loads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound |= {(a.asname or a.name.split(".")[0]): stmt.lineno for a in stmt.names}
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound |= {(a.asname or a.name): stmt.lineno for a in stmt.names}
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for name, line in bound.items() if name not in loaded]


def _sources():
    """Every `.py` under `src/`, `tests/` and `demos/`."""
    return [path for top in ("src", "tests", "demos")
            for path in sorted((SRC.parent / top).rglob("*.py"))]


def test_no_unused_module_imports():
    files = [path for path in _sources() if path.name != "__init__.py"]
    assert len(files) > 20
    unused = [f"{path.relative_to(SRC.parent)}:{entry}"
              for path in files for entry in _unused_imports(path)]
    assert unused == []


def _python_floor():
    text = (SRC.parent / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_sources_parse_at_the_python_floor():
    floor = _python_floor()
    assert floor == (3, 10)
    files = _sources()
    assert len(files) > 20
    rejected = []
    for path in files:
        try:
            ast.parse(path.read_text(), str(path), feature_version=floor)
        except SyntaxError as exc:
            rejected.append(f"{path.relative_to(SRC.parent)}:{exc.lineno} {exc.msg}")
    assert rejected == []


def test_integer_layers_take_no_fraction_round_trips():
    for name in ("exactmath", "quadfield", "eisenstein"):
        path = SRC / "bianchi_lefschetz" / f"{name}.py"
        modules = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules.add((node.module or "").split(".")[0])
        assert "exactmath" in modules or name == "exactmath"     # the scan sees the imports
        assert "fractions" not in modules, name
    uses = [where for where, node in _nodes()
            if getattr(node, "name", None) == "as_integer"              # def or import
            or getattr(node, "id", getattr(node, "attr", None)) == "as_integer"]
    assert uses == []
