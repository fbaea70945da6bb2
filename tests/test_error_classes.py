"""Every error class is a live fault: something raises it, and the package exports it."""

import ast
import inspect
from pathlib import Path

import vouchnet
from vouchnet import errors

SRC = Path(vouchnet.__file__).resolve().parent


def error_classes() -> dict[str, type]:
    return {name: cls for name, cls in vars(errors).items()
            if inspect.isclass(cls) and issubclass(cls, errors.VouchnetError)}


def raised_names() -> set[str]:
    """The class names that appear in the target of some ``raise``."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
    return names


def test_every_error_class_is_raised_somewhere():
    unraised = sorted(set(error_classes()) - {"VouchnetError"} - raised_names())
    assert not unraised, f"error classes nothing raises: {unraised}"


def test_package_exports_exactly_the_error_classes():
    exported = {name for name, obj in vars(vouchnet).items()
                if inspect.isclass(obj) and issubclass(obj, errors.VouchnetError)}
    assert exported == set(error_classes())
    assert all(getattr(vouchnet, name) is cls for name, cls in error_classes().items())
