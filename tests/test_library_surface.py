"""The library keeps no routine that only its tests call, no two routines of
one bare name, and no import it does not use."""

from __future__ import annotations

import ast
from pathlib import Path

import oscillquad

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oscillquad"


def definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of each class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}"


def referenced_names(paths) -> set[str]:
    """Every Name, Attribute and import alias used in the files under ``paths``."""
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    names.add(node.asname)
    return names


def test_every_library_routine_has_a_caller_outside_the_tests():
    users = [p for d in ("src", "benchmarks", "demos") for p in sorted((ROOT / d).rglob("*.py"))]
    used = referenced_names(users) | set(oscillquad.__all__)
    unused = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in definitions(ast.parse(module.read_text()))
        if name.rsplit(".", 1)[-1] not in used
    ]
    assert not unused, f"only tests call: {unused}"


def test_no_two_library_definitions_share_a_bare_name():
    # the caller check above matches bare names, so a routine that shares its
    # name with a used one (a method of another class) would pass unseen
    seen: dict[str, list[str]] = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for name in definitions(ast.parse(module.read_text())):
            seen.setdefault(name.rsplit(".", 1)[-1], []).append(f"{module.stem}.{name}")
    shared = [owners for owners in seen.values() if len(owners) > 1]
    assert not shared, f"definitions share a bare name: {shared}"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names the module imports (bar ``__future__``) but never reads.

    ``import a.b`` binds ``a``; a name counts as read when it appears as a
    Name node anywhere in the module.
    """
    bound = [
        (alias.asname or alias.name).split(".", 1)[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_library_import_is_used_in_its_module():
    # an import alias counts as a use above, so a leftover import would keep
    # a dead routine alive; the package namespace re-exports on purpose
    unused = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        if module.name != "__init__.py"
        for name in unused_imports(ast.parse(module.read_text()))
    ]
    assert not unused, f"imported but unused: {unused}"


def test_the_import_check_sees_a_leftover_import():
    tree = ast.parse("from .banded import dense_solve, hockney_permutation\n"
                     "import scipy.fft\n"
                     "x = dense_solve(1, 2) + scipy.fft.dct(3)\n")
    assert unused_imports(tree) == ["hockney_permutation"]


def unbounded_caches(tree: ast.Module) -> list[str]:
    """Functions under a ``functools`` cache that states no finite bound:
    ``cache``, or ``lru_cache`` without a ``maxsize`` or with ``None``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name not in ("cache", "lru_cache"):
                continue
            sizes = ([*call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")]
                     if call and name == "lru_cache" else [])
            if not sizes or any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                found.append(node.name)
    return found


def test_every_library_cache_is_bounded():
    # a cache keyed by problem shape must not grow with the shapes a
    # process meets
    unbounded = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in unbounded_caches(ast.parse(module.read_text()))
    ]
    assert not unbounded, f"caches without a finite maxsize: {unbounded}"


def test_the_cache_check_sees_an_unbounded_cache():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@functools.lru_cache(maxsize=8)\ndef a(n): return n\n"
                     "@lru_cache(SIZE + 1)\ndef b(n): return n\n"
                     "@functools.lru_cache(maxsize=None)\ndef c(n): return n\n"
                     "@lru_cache\ndef d(n): return n\n"
                     "@cache\ndef e(n): return n\n"
                     "@functools.lru_cache(None)\ndef f(n): return n\n")
    assert unbounded_caches(tree) == ["c", "d", "e", "f"]
