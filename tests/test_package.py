import ast
import importlib
import pkgutil
from pathlib import Path

import quotamatch


def test_every_exported_name_resolves():
    # A name left in an __all__ after its definition is deleted would break
    # star imports and mislead readers of the public surface.
    modules = [quotamatch] + [
        importlib.import_module(f"quotamatch.{info.name}")
        for info in pkgutil.iter_modules(quotamatch.__path__)
        if not info.name.startswith("_")
    ]
    assert len(modules) > 8
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_no_module_reaches_into_ae_internals():
    # The fixed point's state and sweeps live behind ae.FixedPoint; the other
    # modules use its public surface only.
    package = Path(quotamatch.__file__).parent
    reaching = [
        f"{path.name}: {alias.name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "ae.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and "." * node.level + (node.module or "") in (".ae", "quotamatch.ae")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert reaching == []
