"""The runtime and the tools need nothing beyond the standard library."""

import ast
import pathlib
import sys

import movingsearch

PACKAGE_DIR = pathlib.Path(movingsearch.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_runtime_imports_only_the_standard_library():
    files = sorted(PACKAGE_DIR.glob("*.py"))
    # the A/B and ladder scripts that back speed claims run on a bare
    # interpreter too; they may import the benchmark's own modules
    tools = sorted((ROOT / "tools").glob("*.py"))
    assert len(files) > 10 and tools  # the package and the tools are really there
    allowed = set(sys.stdlib_module_names) | {"movingsearch"}
    bench = {file.stem for file in (ROOT / "perfbench").glob("*.py")}
    for file in files + tools:
        ok = allowed | bench if file in tools else allowed
        for node in ast.walk(ast.parse(file.read_text(), filename=str(file))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ok, f"{file.name}:{node.lineno} imports {name}"
