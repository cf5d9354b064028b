"""Every ``from repro... import ...`` in the documentation's Python
blocks resolves, so the docs cannot advertise a deleted name."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_IMPORT = re.compile(
    r"^\s*from\s+(repro[\w.]*)\s+import\s+(\([^)]*\)|[^\n]*)", re.M
)


def doc_imports(path):
    """``(module, name)`` for every repro import in *path*'s blocks."""
    found = []
    for block in _BLOCK.findall(path.read_text()):
        for module, names in _IMPORT.findall(block):
            names = re.sub(r"#[^\n]*", "", names).strip("()")
            for item in names.split(","):
                name = item.split(" as ")[0].strip()
                if name:
                    found.append((module, name))
    return found


def test_the_docs_have_imports_to_check():
    assert sum(len(doc_imports(path)) for path in DOCS) >= 50


def _resolves(module_name, name):
    try:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            # a submodule imported by name: ``from repro import obs``
            importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_doc_imports_resolve(path):
    missing = [
        f"from {module_name} import {name}"
        for module_name, name in doc_imports(path)
        if not _resolves(module_name, name)
    ]
    assert not missing, f"{path.name}: {missing}"
