import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "exospringer"


def test_library_checks_are_raises_not_asserts():
    # python -O strips assert statements; every library check must survive it
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = ["%s:%d" % (path.name, node.lineno) for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
