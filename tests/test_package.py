import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


#: (importing module, name) pairs allowed across the module boundary
BOUNDARY_EXCEPTIONS = {
    # The one writer of compact, finite-only JSON, shared by the commands
    # that write a document of their own (the estimate output).
    ("cli.py", "market._write_json"),
    # Reading a covariate file must fail the way every market file does: a
    # SchemaViolationError naming the file.
    ("estimation.py", "market._document"),
}


def test_no_module_reaches_into_private_names():
    # Each module's underscore names are its own: no other module imports
    # one (``from .ae import _ipfp``) or reads one (``experiments._record``).
    package = Path(quotamatch.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    reaching = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                source = "quotamatch." * node.level + (node.module or "")
                reaching |= {
                    (path.name, f"{source.removeprefix('quotamatch.')}.{alias.name}")
                    for alias in node.names
                    if private(alias.name)
                }
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and private(node.attr)
            ):
                reaching.add((path.name, f"{node.value.id}.{node.attr}"))
    assert reaching == BOUNDARY_EXCEPTIONS


def test_importing_the_package_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves the test oracles only.
    src = Path(quotamatch.__file__).parent.parent
    code = (
        "import importlib, pkgutil, sys, quotamatch\n"
        "for info in pkgutil.iter_modules(quotamatch.__path__):\n"
        "    if not info.name.startswith('_'):\n"
        "        importlib.import_module(f'quotamatch.{info.name}')\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_process_pool():
    # Only ``experiment --jobs K`` with K > 1 uses a process pool; every
    # other command would pay its import for nothing.
    src = Path(quotamatch.__file__).parent.parent
    code = (
        "import sys, quotamatch.cli\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'concurrent'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    package = Path(quotamatch.__file__).parent
    importing = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            importing |= {(path.name, name) for name in names if name.split(".")[0] == "scipy"}
    assert importing == set()
