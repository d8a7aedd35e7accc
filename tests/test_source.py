"""Checks on the package source itself."""

import ast
import re
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


def test_one_caller_of_the_enumerator():
    # every spec reaches the cover enumerator through enumerate_flats, which
    # applies the flat cap; a module that drives it directly bypasses both
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "matroid.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).rpartition(".")[2] == "_enumerate_by_covers"]
    assert not found, f"_enumerate_by_covers called outside matroid.py: {found}"


def test_star_import_binds_no_module():
    # `from zpoly import *` gives the API, not the submodules it comes from
    import types

    import zpoly
    modules = [name for name in zpoly.__all__
               if isinstance(getattr(zpoly, name), types.ModuleType)]
    assert not modules, f"modules in zpoly.__all__: {modules}"


def test_every_private_helper_is_used():
    # a module-level private function or class that nothing else in the
    # package names is dead, such as a copy left behind by a shared helper
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unused = []
    for name, text in texts.items():
        lines = text.splitlines()
        for node in ast.parse(text, name).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
                others = [t for other, t in texts.items() if other != name]
                if not any(re.search(rf"\b{node.name}\b", t) for t in [rest, *others]):
                    unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, f"private helpers named nowhere else in src/zpoly: {unused}"
