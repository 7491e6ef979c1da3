"""Every exception the package declares is raised somewhere in it."""
from __future__ import annotations

import ast
from pathlib import Path

import kplab
from kplab import errors

SRC = Path(kplab.__file__).resolve().parent


def _raised_names() -> set[str]:
    names: set[str] = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_declared_error_is_raised():
    declared = {name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, errors.KplabError)
                and obj is not errors.KplabError}
    assert declared
    assert declared - _raised_names() == set()
