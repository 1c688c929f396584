"""Every cache in the package is bounded by a named module constant."""

import ast
import pathlib

import diffcert

PACKAGE = pathlib.Path(diffcert.__file__).parent


def _module_names(tree: ast.Module) -> set[str]:
    """The names a module assigns or imports at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _unbounded_caches(source: str) -> list[int]:
    """The line of each ``functools.lru_cache`` or ``functools.cache`` in
    ``source`` whose bound is not ``maxsize=`` an upper-case constant of
    the module: a literal, None, a positional bound or no bound at all."""
    tree = ast.parse(source)
    constants = {name for name in _module_names(tree) if name.isupper()}
    imported = {  # functools' caches under the names the module imports them as
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }

    def cache_kind(node) -> str | None:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            return node.attr
        return imported.get(node.id) if isinstance(node, ast.Name) else None

    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        kind = cache_kind(node)
        if kind not in ("lru_cache", "cache"):
            continue
        call = calls.get(id(node))  # None for a bare decorator, which takes the default bound
        bound = [] if call is None or call.args else [kw.value for kw in call.keywords if kw.arg == "maxsize"]
        if kind == "cache" or not (len(bound) == 1 and isinstance(bound[0], ast.Name) and bound[0].id in constants):
            found.append(node.lineno)
    return found


def test_every_cache_is_bounded_by_a_module_constant():
    # a bound is one named, documented figure; a literal one is easy to
    # lose track of and None lets a hostile corpus grow a cache at will
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {path.name: _unbounded_caches(path.read_text()) for path in modules}
    assert {name: lines for name, lines in offenders.items() if lines} == {}
    assert sum("lru_cache(maxsize=" in path.read_text() for path in modules) >= 3  # the check has something to see


def test_the_cache_bound_check_sees_an_unbounded_cache():
    head = "import functools\nfrom functools import lru_cache\nLIMIT = 8\nfrom .certs import PART_CACHE_LIMIT\n"
    assert _unbounded_caches(head + "@functools.lru_cache(maxsize=LIMIT)\ndef f(x): ...\n") == []
    assert _unbounded_caches(head + "@lru_cache(maxsize=PART_CACHE_LIMIT)\ndef f(x): ...\n") == []
    for line in (
        "@functools.lru_cache(maxsize=1024)",
        "@functools.lru_cache(maxsize=None)",
        "@functools.lru_cache(1024)",
        "@functools.lru_cache",
        "@functools.lru_cache()",
        "@lru_cache(maxsize=128)",
        "@functools.cache",
        "@functools.lru_cache(maxsize=limit)",  # not a module constant
        "@functools.lru_cache(maxsize=OTHER)",  # not defined in the module
    ):
        assert _unbounded_caches(head + line + "\ndef f(x): ...\n") == [5], line
    assert _unbounded_caches(head + "g = functools.lru_cache(maxsize=2**10)(len)\n") == [5]
