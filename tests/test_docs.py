"""README.md's Python examples import only names that exist. The blocks are
parsed, never run: the library example trains for six epochs."""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def python_blocks(text: str) -> list[str]:
    return _BLOCK.findall(text)


def _resolves(module: str, name: str) -> bool:
    """`from module import name` (or `import name`) would succeed."""
    if module:
        try:
            if hasattr(importlib.import_module(module), name):
                return True
        except ImportError:
            return False
    try:  # a submodule
        importlib.import_module(f"{module}.{name}" if module else name)
    except ImportError:
        return False
    return True


def unresolved_imports(source: str) -> list[str]:
    """`module.name` for each crashcast import in the source that fails."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module, names = node.module or "", [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            module, names = "", [a.name for a in node.names]
        else:
            continue
        for name in names:
            if (module or name).startswith("crashcast") and not _resolves(module, name):
                missing.append(f"{module}.{name}" if module else name)
    return missing


def test_readme_has_python_examples_that_import_crashcast():
    blocks = python_blocks(README.read_text())
    assert any("from crashcast" in b for b in blocks)


@pytest.mark.parametrize("index", range(len(python_blocks(README.read_text()))))
def test_readme_python_block_imports_resolve(index):
    block = python_blocks(README.read_text())[index]
    assert unresolved_imports(block) == []


def test_unresolved_imports_names_a_moved_or_missing_name():
    source = ("import numpy\n"
              "from crashcast.scenario import generate_dataset, read_dataset\n"
              "from crashcast.scenario.generate import generate_one\n"
              "from crashcast.nowhere import thing\n"
              "import crashcast.autodiff\n"
              "import crashcast.missing\n")
    assert unresolved_imports(source) == [
        "crashcast.scenario.generate_dataset", "crashcast.nowhere.thing",
        "crashcast.missing"]
