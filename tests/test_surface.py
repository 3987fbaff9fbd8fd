"""The package's public surface is what its users reach.

A module-level public name in src/sigma2lab must be referenced from
src/, demos/ or perfbench/ (a perfbench boundary string such as
"monoids.Recognition.complemented" counts). The package __init__
re-exports nothing, so it vouches for no name. Names that only tests
reach belong in the tests, next to the test or in tests/oracles.py.
cli.py is exempt: click registers its commands by decorator, so
nothing names them.

The same holds for every public method and property of a class there,
and for every public field annotated in its body, but only an attribute
read (x.member) or a dotted string naming it counts: a bare name or a
dict key such as "member" does not. The scan goes by name, not by class:
TangledReport.k would count as read even if nothing read it, because
demos/05_circuit_adversary.py reads c.k of a Sigma2Circuit.

No module-level name in src/sigma2lab, defined or imported, private or
public, shadows a Python builtin.
"""

import ast
import builtins
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sigma2lab"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _bound(tree: ast.Module) -> list[str]:
    """Names the module's top level defines or assigns, private ones too."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _defined(tree: ast.Module) -> list[str]:
    return [name for name in _bound(tree) if not name.startswith("_")]


def _shadowing(tree: ast.Module) -> list[str]:
    """Top-level names, defined or imported, that hide a builtin."""
    imported = [
        alias.asname or alias.name.split(".")[0]
        for stmt in tree.body
        if isinstance(stmt, (ast.Import, ast.ImportFrom))
        for alias in stmt.names
    ]
    return [name for name in _bound(tree) + imported if hasattr(builtins, name)]


def _referenced(tree: ast.Module) -> set[str]:
    """Names loaded, attributes read, names imported, and dotted strings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                found.update(node.value.split("."))
    return found


def _methods(tree: ast.Module) -> list[str]:
    """Class.name for every public method and property of a module-level class."""
    return [
        f"{stmt.name}.{item.name}"
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
        for item in stmt.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def _fields(tree: ast.Module) -> list[str]:
    """Class.name for every public field annotated in a module-level class body."""
    return [
        f"{stmt.name}.{item.target.id}"
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
        for item in stmt.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and not item.target.id.startswith("_")
    ]


def _attributes_read(tree: ast.Module) -> set[str]:
    """Attributes read, and the parts of dotted strings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "." in node.value and DOTTED.fullmatch(node.value):
                found.update(node.value.split("."))
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _users() -> list[ast.Module]:
    return [
        _parse(path)
        for folder in ("src", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts
    ]


def _modules() -> list[tuple[str, ast.Module]]:
    return [
        (path.stem, _parse(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("__init__.py", "cli.py")
    ]


def unreached_names() -> list[str]:
    """module.name for every public name nothing outside the tests reaches."""
    referenced = set().union(*map(_referenced, _users()))
    return [
        f"{stem}.{name}"
        for stem, tree in _modules()
        for name in _defined(tree)
        if name not in referenced
    ]


def unread_members(members) -> list[str]:
    """module.Class.name for every member nothing outside the tests reads."""
    read = set().union(*map(_attributes_read, _users()))
    return [
        f"{stem}.{member}"
        for stem, tree in _modules()
        for member in members(tree)
        if member.split(".")[1] not in read
    ]


def test_every_public_name_is_reached_outside_the_tests():
    unreached = unreached_names()
    assert unreached == [], f"public names only the tests reach: {unreached}"


def test_every_public_method_is_read_outside_the_tests():
    unreached = unread_members(_methods)
    assert unreached == [], f"public methods only the tests read: {unreached}"


def test_every_dataclass_field_is_read_outside_the_tests():
    unread = unread_members(_fields)
    assert unread == [], f"fields only the tests read: {unread}"


def test_no_module_level_name_shadows_a_builtin():
    shadowing = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _shadowing(_parse(path))
    ]
    assert shadowing == [], f"module-level names that shadow builtins: {shadowing}"


def test_the_scan_sees_definitions_and_references():
    tree = ast.parse(
        "import x.y as z\nA = 1\n_B = 2\ndef f(): return g\nclass C: pass\n"
        "S = 'mod.D.meth'\nT = 'not dotted, a sentence'\n"
    )
    assert _defined(tree) == ["A", "f", "C", "S", "T"]
    assert {"y", "g", "mod", "D", "meth"} <= _referenced(tree)
    assert not {"A", "f", "C", "sentence"} & _referenced(tree)


def test_the_shadow_scan_sees_definitions_assignments_and_imports():
    tree = ast.parse(
        "from x import open\nimport os.path as input\ndef compile(): pass\n"
        "class _C: pass\nsum = 1\nid: int = 2\nimport os\ndef inner(): len = 3\n"
    )
    assert sorted(_shadowing(tree)) == ["compile", "id", "input", "open", "sum"]


def test_the_method_scan_counts_attribute_reads_and_dotted_strings_only():
    tree = ast.parse(
        "class C:\n    def m(self): pass\n    @property\n    def p(self): pass\n"
        "    def _q(self): pass\n    def __len__(self): return 0\n"
        "x.a\nx.b = 1\nd = {'member': 1}\nS = 'mod.C.meth'\nmember\n"
    )
    assert _methods(tree) == ["C.m", "C.p"]
    assert {"a", "mod", "C", "meth"} <= _attributes_read(tree)
    assert not {"b", "member"} & _attributes_read(tree)


def test_the_field_scan_sees_annotated_public_fields_of_top_level_classes():
    tree = ast.parse(
        "class D:\n    f: int\n    g: str = 'x'\n    _h: int = 0\n    k = 1\n"
        "    def m(self): pass\n"
        "def outer():\n    class E:\n        e: int\n"
        "top: int = 2\n"
    )
    assert _fields(tree) == ["D.f", "D.g"]
