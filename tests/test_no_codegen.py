"""No class of the library generates code when the library is imported.

``@dataclass`` writes each class's methods as source and runs it through
``exec``, and a ``typing.NamedTuple`` class compiles every field's
annotation into a ``ForwardRef``; both run again at every fresh import,
which is most of what a set-up costs beyond compiling the modules.  The
records are ``collections.namedtuple`` subclasses and the value classes
are slotted classes, and this guard keeps it so.
"""

import ast
import pathlib

import movingsearch

PACKAGE_DIR = pathlib.Path(movingsearch.__file__).parent


def _generates_code(node: ast.AST) -> bool:
    """An import of ``dataclasses`` or of ``typing.NamedTuple``, or a use of
    ``NamedTuple`` by name or as an attribute."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")[0]
        return node.level == 0 and (
            module == "dataclasses" or module == "typing" and any(a.name == "NamedTuple" for a in node.names)
        )
    return (isinstance(node, ast.Name) and node.id == "NamedTuple"
            or isinstance(node, ast.Attribute) and node.attr == "NamedTuple")


def test_guard_sees_each_way_to_generate_a_class():
    generating = [
        "import dataclasses",
        "from dataclasses import dataclass",
        "from dataclasses import dataclass as record",
        "from typing import Optional, NamedTuple",
        "from typing import NamedTuple as Record",
        "class Node(typing.NamedTuple):\n    test: int",
        "class Node(t.NamedTuple):\n    test: int",
        "Node = typing.NamedTuple('Node', [('test', int)])",
    ]
    allowed = [
        "from collections import namedtuple",
        "class Node(namedtuple('Node', 'test on0 on1 answer')):\n    __slots__ = ()",
        "from typing import Iterator, Optional",
        "from .records import dataclass_like",
    ]
    for text in generating:
        assert any(_generates_code(n) for n in ast.walk(ast.parse(text))), text
    for text in allowed:
        assert not any(_generates_code(n) for n in ast.walk(ast.parse(text))), text


def test_library_imports_no_class_generator():
    files = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(files) > 10
    for file in files:
        for node in ast.walk(ast.parse(file.read_text(), filename=str(file))):
            assert not _generates_code(node), f"{file.name}:{node.lineno} generates a class at import"
