"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zpoly"


def test_no_assert_statements_in_src():
    # invariants must be real errors: python -O strips assert statements
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/zpoly: {found}"


def test_src_imports_only_the_standard_library():
    # the runtime is stdlib-only; relative imports stay inside the package
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not found, f"non-stdlib imports in src/zpoly: {found}"


def test_one_lattice_builder():
    # lattices come from the cover enumerator, or are cut from one; a
    # second builder would need its own checks and its own flat cap
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, path, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call)
                    and ast.unparse(child.func).rpartition(".")[2] == "FlatLattice"
                    and scope[-1:] != ("_enumerate_by_covers",)
                    and scope[-2:] != ("FlatLattice", "_sublattice")):
                found.append(f"{path.name}:{child.lineno} in {'.'.join(scope) or 'module'}")
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, ())
    assert not found, f"FlatLattice built outside _enumerate_by_covers: {found}"
