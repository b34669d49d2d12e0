"""README.md's Python examples import only names that exist, every
function, class and method in src has a reader outside the tests, and so
does every dataclass field. The blocks are parsed, never run: the library
example trains for six epochs."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src"
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


# src definitions that only tests reach, each kept as what the named test
# checks against
TEST_ONLY = {
    "crashcast.autodiff.transpose2d":
        "test_autodiff.py::test_gru_sequence_matches_gru_cell_loop",
    "crashcast.trafficgen.RoutePath.time_at":
        "test_acceptance.py::test_criterion_03_time_mapping_inversion_and_sample_count",
}


def definitions(path: Path):
    """(qualified name, name) of each module-level function and class in a
    src file, and of each method that is not a dunder."""
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    module = module.removesuffix(".__init__")
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not re.fullmatch(r"__\w+__", sub.name)):
                    yield f"{module}.{node.name}.{sub.name}", sub.name


def referenced_names(source: str) -> set[str]:
    """Every name and attribute the source reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def readme_code(text: str) -> list[str]:
    """README's fenced blocks and backtick spans."""
    return (re.findall(r"^```[^\n]*\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
            + re.findall(r"`([^`\n]+)`", text))


def readme_code_names(text: str) -> set[str]:
    """The identifiers in README's code."""
    return {name for span in readme_code(text)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_src_definition_is_reached_from_outside_the_tests():
    files = sorted(SRC.rglob("*.py"))
    used = readme_code_names(README.read_text())
    for path in files + sorted((ROOT / "perfbench").glob("*.py")):
        used |= referenced_names(path.read_text())
    unreached = {qualified for path in files
                 for qualified, name in definitions(path) if name not in used}
    assert unreached == set(TEST_ONLY), sorted(unreached ^ set(TEST_ONLY))


def test_test_only_definitions_name_a_test_that_exists():
    for qualified, oracle in TEST_ONLY.items():
        module, test = oracle.split("::")
        assert f"def {test}(" in (ROOT / "tests" / module).read_text(), qualified


# src dataclass fields that no code reads as an attribute, each with the
# function that reads it by name
FIELD_READERS = {
    "crashcast.scenario.generate.Track.present":
        "crashcast.scenario.generate._assemble",
}


def _is_dataclass(decorator: ast.expr) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", getattr(func, "attr", None)) == "dataclass"


def dataclass_fields(path: Path):
    """(qualified name, name) of each annotated field of each module-level
    dataclass in a src file."""
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass,
                                                      node.decorator_list)):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield f"{module}.{node.name}.{sub.target.id}", sub.target.id


def attributes_read(source: str) -> set[str]:
    """Every attribute the source loads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def readme_attributes(text: str) -> set[str]:
    """The names that follow a dot in README's code."""
    return {name for span in readme_code(text)
            for name in re.findall(r"\.([A-Za-z_]\w*)", span)}


def test_every_src_dataclass_field_is_read_outside_the_tests():
    files = sorted(SRC.rglob("*.py"))
    read = readme_attributes(README.read_text())
    for path in files + sorted((ROOT / "perfbench").glob("*.py")):
        read |= attributes_read(path.read_text())
    unread = {qualified for path in files
              for qualified, name in dataclass_fields(path) if name not in read}
    assert unread == set(FIELD_READERS), sorted(unread ^ set(FIELD_READERS))


def test_field_readers_read_the_field_by_name():
    for qualified, reader in FIELD_READERS.items():
        module, func = reader.rsplit(".", 1)
        source = inspect.getsource(getattr(importlib.import_module(module), func))
        assert "getattr" in source and f'"{qualified.rsplit(".", 1)[1]}"' in source, \
            qualified
