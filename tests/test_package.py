import importlib
import pkgutil

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
