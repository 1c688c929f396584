"""Module boundaries inside the package."""

import ast
import pathlib

import diffcert

PACKAGE = pathlib.Path(diffcert.__file__).parent


def _private_imports(source: str) -> list[str]:
    """Each ``from .<module> import _<name>`` in ``source``, as ``module._name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("diffcert")):
            found += [f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_siblings_private_name():
    # a private name is its module's own business; a sibling that needs it
    # needs a public one (tests may still reach in)
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {path.name: _private_imports(path.read_text()) for path in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_layering_check_sees_a_private_import():
    assert _private_imports("from .certs import (\n    Name,\n    _name,\n)\nfrom . import asn1") == ["certs._name"]
    assert _private_imports("from diffcert.asn1 import _decode_oid") == ["diffcert.asn1._decode_oid"]
    assert _private_imports("from __future__ import annotations\nfrom os import _exit") == []
