"""Every ``repro`` import in the docs, the examples and the benches
names something.

CI runs only a few of the examples and none of the Markdown, so a
renamed or dropped name would leave a snippet that fails on first copy.
This reads each import with ``ast`` and resolves it with ``importlib``:
the module is imported, the snippet or script itself never runs.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util

import pytest

from test_service_structure import ROOT, caller_sources


def repro_imports(source: str) -> list[tuple[str, str | None]]:
    """``(module, name)`` per imported ``repro`` name; ``name`` is
    ``None`` for a plain ``import repro.x``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] == "repro":
                found.extend((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return found


def resolves(module: str, name: str | None) -> bool:
    if name is None:
        return importlib.util.find_spec(module) is not None
    if hasattr(importlib.import_module(module), name):
        return True
    return importlib.util.find_spec(f"{module}.{name}") is not None


SOURCES = [
    (str(path.relative_to(ROOT)), source)
    for path, source, _ in caller_sources()
]


def test_every_python_block_parses_and_some_import_repro():
    assert sum(len(repro_imports(source)) for _, source in SOURCES) > 0


@pytest.mark.parametrize(
    "label, source", SOURCES, ids=[label for label, _ in SOURCES]
)
def test_every_repro_import_resolves(label, source):
    missing = [
        f"{module}.{name}" if name else module
        for module, name in repro_imports(source)
        if not resolves(module, name)
    ]
    assert not missing, f"{label} imports {missing}"
