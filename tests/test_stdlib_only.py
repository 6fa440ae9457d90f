"""The runtime needs nothing beyond the standard library."""

import ast
import pathlib
import sys

import movingsearch

PACKAGE_DIR = pathlib.Path(movingsearch.__file__).parent


def test_runtime_imports_only_the_standard_library():
    files = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(files) > 10  # the package is really there
    allowed = set(sys.stdlib_module_names) | {"movingsearch"}
    for file in files:
        for node in ast.walk(ast.parse(file.read_text(), filename=str(file))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{file.name}:{node.lineno} imports {name}"
