"""The README's python examples compile and import names that exist."""
import ast
import importlib
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert python_blocks()


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_python_block_compiles_and_imports_resolve(index):
    source = python_blocks()[index]
    tree = ast.parse(source, filename=f"README.md python block {index}")
    compile(tree, f"README.md python block {index}", "exec")
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "pneurc"]
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(module, alias.name):
                # a submodule that its package does not import itself
                importlib.import_module(f"{node.module}.{alias.name}")
