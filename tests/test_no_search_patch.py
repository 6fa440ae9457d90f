"""No tool or test replaces the oracle's engine class to read its counts.

Every exact query returns the record ``_Search.value`` builds, and the edge
cap's error carries one as ``.value``, so nothing needs to swap
``oracle._Search`` for a wrapper.  Patching a method on the class (the
differential tests swap ``_Search.pairs`` for the reference) stays allowed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _replaces_search(node: ast.AST) -> bool:
    """An assignment to ``<module>._Search``, or a ``setattr``-style call
    (``setattr``, ``monkeypatch.setattr``, ``mock.patch``) naming it."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Attribute) and t.attr == "_Search" for t in targets)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else ""
        if name in ("setattr", "patch"):
            return any(
                isinstance(a, ast.Constant) and isinstance(a.value, str)
                and (a.value == "_Search" or a.value.endswith("._Search"))
                for a in node.args
            )
    return False


def test_guard_sees_each_way_to_replace_the_engine_class():
    replacing = [
        "oracle._Search = wrap",
        "movingsearch.oracle._Search = wrap",
        "monkeypatch.setattr(oracle, '_Search', wrap)",
        "setattr(oracle, '_Search', wrap)",
        "monkeypatch.setattr('movingsearch.oracle._Search', wrap)",
        "mock.patch('movingsearch.oracle._Search')",
    ]
    allowed = [
        "m.setattr(oracle._Search, 'pairs', reference_pairs)",
        "oracle._Search.pairs = reference_pairs",
        "search = oracle._Search(arena, 'intervals', 4)",
    ]
    for text in replacing:
        assert any(_replaces_search(n) for n in ast.walk(ast.parse(text))), text
    for text in allowed:
        assert not any(_replaces_search(n) for n in ast.walk(ast.parse(text))), text


def test_no_tool_or_test_replaces_the_oracle_search_class():
    files = sorted((ROOT / "tools").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    for file in files:
        for node in ast.walk(ast.parse(file.read_text(), filename=str(file))):
            assert not _replaces_search(node), f"{file.name}:{node.lineno} replaces oracle._Search"
