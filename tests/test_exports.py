"""The package's public names, a caller for every definition, and the README example."""

import ast
import contextlib
import importlib
import importlib.util
import io
import runpy
import sys
from pathlib import Path

import rghw

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rghw"


def test_every_export_resolves_and_star_import_succeeds():
    assert [name for name in rghw.__all__ if not hasattr(rghw, name)] == []
    namespace = {}
    exec("from rghw import *", namespace)
    assert set(rghw.__all__) <= set(namespace)


# One-element forms of the stack functions; only the benchmark names them
ONE_ELEMENT_NAMES = ("enumerate_subspaces", "intersect_with_cyclic_group", "nj_via_charsum",
                     "subspace_from_rows", "subspace_support_size")


def test_the_package_exports_no_one_element_name():
    assert not set(ONE_ELEMENT_NAMES) & set(rghw.__all__)
    assert not set(ONE_ELEMENT_NAMES) & set(dir(rghw))


def _definitions(tree):
    """(class or None, node) for every module-level function and class and
    every method whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield node, item


def _occurrences(tree):
    """(name, node) for every Name, Attribute and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node


def _overrides(module: str, cls: ast.ClassDef, name: str) -> bool:
    owner = getattr(importlib.import_module(f"rghw.{module}"), cls.name)
    return any(hasattr(base, name) for base in owner.__mro__[1:])


def _private_dataclass_fields(tree):
    """(class, field) for every annotated field of a module-level dataclass
    whose name starts with an underscore."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name.startswith("_") and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node, item.target.id


def test_every_definition_has_a_caller():
    """A definition is called when its name occurs in the package (outside
    __init__.py's re-exports) or in the benchmark (outside its tests),
    other than inside the definition itself; tracing names its targets by
    string, so string constants count.  A field of a private dataclass is
    used when that code reads it as an attribute."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    callers = [tree for stem, tree in modules.items() if stem != "__init__"]
    callers += [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))
                if not path.name.startswith("test_")]
    seen: dict = {}
    read = set()
    for tree in callers:
        for name, node in _occurrences(tree):
            seen.setdefault(name, []).append(node)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = [f"{module}.{cls.name}.{name}" for module, tree in modules.items()
            for cls, name in _private_dataclass_fields(tree) if name not in read]
    for module, tree in modules.items():
        for cls, node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if any(id(n) not in inside for n in seen.get(node.name, ())):
                continue
            if cls is not None and _overrides(module, cls, node.name):
                continue
            dead.append(f"{module}.{cls.name + '.' if cls else ''}{node.name}")
    assert not dead, f"definitions without a caller: {dead}"


def test_no_bare_assert_in_the_package():
    """Checks must hold under python -O, which strips assert statements."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"


def test_every_name_the_benchmark_tracer_binds_resolves():
    """perfbench/tracing.py rebinds package functions and TableOps methods by
    name, and every perfbench module imports package names, some inside
    functions; tier-1 does not collect perfbench, so a rename or deletion in
    the package would break a benchmark run without failing anything else."""
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    missing = [f"{module}.{attr}" for module, attr, _ in tracing["FUNCTION_TARGETS"]
               if not hasattr(importlib.import_module(module), attr)]
    table_ops = importlib.import_module("rghw.linalg").TableOps
    missing += [f"TableOps.{name}" for name in tracing["LINALG_METHODS"]
                if not hasattr(table_ops, name)]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                missing += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("rghw")
                            and not importlib.util.find_spec(alias.name)]
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rghw"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)]
    assert not missing, f"benchmark names missing from the package: {missing}"


def test_the_benchmark_tracer_installs_and_restores_every_hook():
    """Entering perfbench/tracing.py's Tracer wraps every function target,
    enumerate_subspaces and every traced TableOps method; leaving it puts
    back every attribute it touched, in every package module."""
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    for name in ("charsum", "cli", "subspaces", "verify"):
        importlib.import_module(f"rghw.{name}")
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "rghw"]
    table_ops = importlib.import_module("rghw.linalg").TableOps
    suites = importlib.import_module("rghw.verify").SUITES
    owners = [*(vars(m) for m in modules), vars(table_ops), suites]
    before = [dict(owner) for owner in owners]
    hooks = [(importlib.import_module(module), attr)
             for module, attr, _ in tracing["FUNCTION_TARGETS"]]
    hooks += [(importlib.import_module("rghw.subspaces"), "enumerate_subspaces")]
    hooks += [(table_ops, name) for name in tracing["LINALG_METHODS"]]
    originals = [getattr(owner, attr) for owner, attr in hooks]
    with tracing["Tracer"]() as tracer:
        wrapped = [getattr(owner, attr) is not original
                   for (owner, attr), original in zip(hooks, originals)]
        importlib.import_module("rghw.gf").build_field(2, 3)
    assert all(wrapped), [f"{owner.__name__}.{attr}" for (owner, attr), ok in zip(hooks, wrapped)
                          if not ok]
    assert tracer.calls("gf.build_field") == 1
    changed = [key for owner, saved in zip(owners, before) for key in owner.keys() | saved.keys()
               if owner.get(key) is not saved.get(key)]
    assert not changed, f"attributes the tracer did not restore: {changed}"


def test_the_readme_library_example_runs():
    """README's library example runs as printed, and its outputs that do not
    depend on the argmax tie order are the ones its comments give."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library example"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-3:] == ["[12]", "[[1 0 2 0 1]]", "[35.]"]
