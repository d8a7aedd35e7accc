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


def test_one_owner_of_the_orbit_numbering():
    # matroid._orbit_rows numbers the orbits for every orbit route; a module
    # that reads orbit_rep itself keeps a second numbering beside it
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "matroid.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "orbit_rep"]
    assert not found, f"orbit_rep read outside matroid.py: {found}"


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


def test_each_lattice_cache_key_has_one_owner():
    # a key of a lattice's private cache holds data one module builds; a
    # second module that reads or writes it has to know when it is filled.
    # Keys are read or written by subscript, get, setdefault, pop, `in`,
    # or in a dict assigned to the cache
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Subscript):
                cache, keys = node.value, [node.slice]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("get", "setdefault", "pop")):
                cache, keys = node.func.value, node.args[:1]
            elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
                cache, keys = node.comparators[0], [node.left]
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                cache, keys = node.targets[0], node.value.keys
            else:
                continue
            if isinstance(cache, ast.Attribute) and cache.attr == "_cache":
                for key in keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        owners.setdefault(key.value, set()).add(path.name)
    assert owners, f"no lattice cache keys found under {SRC}"
    shared = {key: sorted(names) for key, names in owners.items() if len(names) > 1}
    assert not shared, f"lattice cache keys touched by more than one module: {shared}"
