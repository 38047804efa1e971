"""Public-API surface tests: every exported name must resolve.

Guards against the classic packaging bug where ``__all__`` lists a name
that was renamed or dropped — import-time works but star-imports and
documentation links break.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGES = (
    "repro",
    "repro.rf",
    "repro.sim",
    "repro.protocol",
    "repro.world",
    "repro.world.scenarios",
    "repro.reader",
    "repro.core",
    "repro.analysis",
    "repro.obs",
)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.skip(f"{package_name} has no __all__")
    for name in exported:
        assert hasattr(module, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_has_no_duplicates(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)


REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE_ROOT = REPO_ROOT / "src"

#: Trees whose files count as callers; tests, including perfbench's, do not.
CALLER_TREES = ("src/repro", "benchmarks", "examples", "perfbench")
PERFBENCH_TESTS = "perfbench/tests/"


def _module_name(path):
    parts = path.relative_to(SOURCE_ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_module(node, module_name, is_package):
    """Absolute name of the module a ``from ... import`` reads from."""
    if node.level == 0:
        return node.module
    package = module_name if is_package else module_name.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _import_graph():
    """Parse (never execute) every source and caller file.

    Returns the ``repro`` modules, the re-exports of each package
    ``__init__`` (package -> name -> module it is imported from) and the
    ``(module, name)`` pairs each caller imports.
    """
    modules = {}
    for path in sorted((SOURCE_ROOT / "repro").rglob("*.py")):
        modules[_module_name(path)] = path
    callers = []
    for tree in CALLER_TREES:
        for path in sorted((REPO_ROOT / tree).rglob("*.py")):
            relative = path.relative_to(REPO_ROOT).as_posix()
            if not relative.startswith(PERFBENCH_TESTS):
                callers.append(path)
    reexports = {}
    imports = []
    for path in callers:
        in_source = path.is_relative_to(SOURCE_ROOT)
        module_name = _module_name(path) if in_source else ""
        is_package = in_source and path.name == "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imports.extend((alias.name, None) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                source = _imported_module(node, module_name, is_package)
                for alias in node.names:
                    if is_package and source != module_name:
                        # ``from .x import Name`` in a package: a re-export.
                        reexports.setdefault(module_name, {})[alias.name] = source
                    else:
                        imports.append((source, alias.name))
    return modules, reexports, imports


def _defining_module(package, name, modules, reexports):
    """Follow re-exports from ``package.name`` to the module defining it."""
    while f"{package}.{name}" not in modules and name in reexports.get(package, {}):
        package = reexports[package][name]
    submodule = f"{package}.{name}"
    return submodule if submodule in modules else package


def test_every_module_has_a_caller():
    """No module under ``src/repro`` is imported only by its own tests."""
    modules, reexports, imports = _import_graph()
    used = set()
    for source, name in imports:
        if name is None:
            used.add(source)
        elif source in modules:
            used.add(_defining_module(source, name, modules, reexports))
    leaves = {
        name
        for name, path in modules.items()
        if path.name not in ("__init__.py", "__main__.py")
    }
    orphans = sorted(leaves - used)
    assert not orphans, f"modules with no caller outside tests: {orphans}"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_headline_api_one_liner():
    """The README's core flow must work as advertised."""
    from repro import (
        PaperSetup,
        PortalPassSimulator,
        combined_reliability,
        single_antenna_portal,
    )

    setup = PaperSetup()
    simulator = PortalPassSimulator(
        portal=single_antenna_portal(), env=setup.env, params=setup.params
    )
    assert simulator.portal.antenna_count == 1
    assert combined_reliability([0.63, 0.63]) > 0.63
