import ast
import importlib
import pkgutil
import tomllib
from pathlib import Path

import cemhelm

PACKAGE = Path(cemhelm.__file__).parent
ROOT = PACKAGE.parents[1]

# the public names that code outside the package calls: the benchmark
# (perfbench/run.py) and tools/ through its solver modules, and the
# `cemhelm` script
ENTRY_POINTS = {
    ("assembly", "build_forms"),
    ("assembly", "element_loads"),
    ("cem", "assemble_coarse"),
    ("cem", "build_space"),
    ("cem", "solve_multiscale"),
    ("cli", "main"),
    ("errors", "CemhelmError"),
    ("grid", "build_coarse_grid"),
    ("grid", "build_fine_grid"),
    ("grid", "oversample"),
    ("medium", "Medium"),
    ("metrics", "relative_errors"),
    ("reference", "ProblemSpec"),
    ("spectral", "build_projection"),
}


def test_every_public_name_exists():
    for info in pkgutil.iter_modules(cemhelm.__path__):
        module = importlib.import_module(f"cemhelm.{info.name}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def _public(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _defines(node, name):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name
                                                for t in node.targets)


def _references(node):
    """The names read in `node`: plain names and attributes (not imports,
    strings or comments)."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_public_name_is_used_or_an_entry_point():
    # a public name that only the tests use belongs in tests/oracles.py
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    unused = []
    for module, tree in sorted(trees.items()):
        for name in _public(tree):
            if (module, name) in ENTRY_POINTS:
                continue
            if not any(name in _references(node) for other, t in trees.items() for node in t.body
                       if not (other == module and _defines(node, name))):
                unused.append(f"{module}.{name}")
    assert unused == []


def test_entry_points_are_called_from_outside():
    # the benchmark and the tools reach the solver modules as `sv.<module>.<name>`
    called = set()
    for path in [ROOT / "perfbench" / "run.py", *sorted((ROOT / "tools").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                called.add((node.value.attr, node.attr))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    for target in scripts.values():
        module, name = target.split(":")
        called.add((module.removeprefix("cemhelm."), name))
    assert ENTRY_POINTS <= called, ENTRY_POINTS - called


def test_dense_limit_is_read_only_by_build_space():
    # the space fixes the regime of its coarse solve once, when it is built;
    # the solve reads the regime from the space, never DENSE_LIMIT again
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for n in ast.walk(node):
                if (isinstance(getattr(n, "ctx", None), ast.Load)
                        and "DENSE_LIMIT" in (getattr(n, "id", None), getattr(n, "attr", None))):
                    readers.add((path.stem, getattr(node, "name", None)))
    assert readers == {("cem", "build_space")}


def test_no_module_starts_threads():
    # the build runs on one thread: SuperLU waits for the interpreter lock
    # while another thread runs Python (see `kernels`)
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            imports += [f"{path.name}:{node.lineno}" for name in names
                        if name.split(".")[0] in ("threading", "concurrent")]
    assert imports == []


def test_only_the_layout_plan_makes_layouts():
    # a skeleton layout is made one way: `_LayoutPlan.layout` packs a class
    # (`_skeleton_layout`) the first time it is asked for it and builds
    # every `_Layout` from the packed arrays (`_with_pattern`)
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(f"{node.name}.{f.name}", f) for node in tree.body
                  if isinstance(node, ast.ClassDef) for f in node.body
                  if isinstance(f, ast.FunctionDef)]
        scopes += [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for name, scope in scopes:
            for n in ast.walk(scope):
                if (isinstance(n, ast.Call) and getattr(n.func, "id", None)
                        in ("_with_pattern", "_skeleton_layout")):
                    callers.add((path.stem, name, n.func.id))
    assert callers == {("cem", "_LayoutPlan.layout", "_with_pattern"),
                       ("cem", "_LayoutPlan.layout", "_skeleton_layout")}
