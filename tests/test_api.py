"""Public-surface checks: the exports resolve, and modules use each other
only through public names."""

import ast
from pathlib import Path

import hhfrac

PACKAGE = Path(hhfrac.__file__).resolve().parent


def test_every_export_resolves():
    missing = [name for name in hhfrac.__all__ if not hasattr(hhfrac, name)]
    assert missing == []


def test_no_private_imports_between_modules():
    # "from .module import _name" couples a module to a sibling's internals
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []
