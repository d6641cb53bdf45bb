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


def _nodes(tree):
    """(dotted name of the innermost enclosing class or def, node) for
    every node; a def or class is named with itself."""
    stack = [("", tree)]
    while stack:
        owner, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = owner + "." + child.name if owner else child.name
            yield name, child
            stack.append((name, child))


def _is_object_new(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object")


def test_only_frozen_guards_and_builds_unchecked_values():
    # every value type inherits ffield.Frozen's immutability guard, trusted
    # constructor and identity rule; none writes its own copy of them, but
    # Bipartition returns its stored hash and SymplecticSpace copies by
    # its checking constructor
    found = []
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _nodes(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "__setattr__", "_trusted", "__eq__", "__hash__",
                    "__reduce__"):
                found.append("%s:%s" % (path.stem, owner))
            elif _is_object_new(node):
                found.append("%s:%s calls object.__new__" % (path.stem, owner))
    assert sorted(found) == [
        "bicomb:Bipartition.__hash__", "ffield:Frozen.__eq__",
        "ffield:Frozen.__hash__", "ffield:Frozen.__reduce__",
        "ffield:Frozen.__setattr__", "ffield:Frozen._trusted",
        "ffield:Frozen._trusted calls object.__new__",
        "symplectic:SymplecticSpace.__reduce__"]
