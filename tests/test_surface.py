"""Surface guard: every public name of the package is reached by the package itself.

A public top-level function or class of ``src/qsl/*.py``, or a public method
of a public class, must be named (as a variable or an attribute, read) in
``src/qsl`` outside its own definition, in a ``[project.scripts]`` entry of
``pyproject.toml``, or at a hook site of ``perfbench/layers.py``. Re-exports
and ``__all__`` strings do not count: they are surface, not use. A name only
tests reach is API kept for the tests' sake; delete it with its tests, move
it into the tests (as ``tests/inner_objective.py`` holds F(y)), or make it
the callee of the code that re-derives it. There is no exception list.
Likewise every name a module imports is read in that module, or is a hook
site.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qsl"


def _reads(tree):
    """Every name read in ``tree``, as a variable or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _public_definitions(tree):
    """(qualified name, node) of each public top-level function and class and public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _hook_sites():
    """Every ``module:attr`` site of the ``HOOKS`` table in ``perfbench/layers.py``."""
    layers = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    for node in layers.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets):
            for _, _, sites in ast.literal_eval(node.value):
                yield from sites


def _external_names():
    """Names that pyproject's scripts and the benchmark's hook sites look up."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    names = set(re.findall(r":(\w+)", scripts))
    names.update(site.split(":")[1] for site in _hook_sites())
    return names


def unreached_names():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    external = _external_names()
    unreached = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = node.name
            inside = sum(1 for read in _reads(node) if read == name)
            if reads[name] - inside == 0 and name not in external:
                unreached.append(f"{module}.{qualname}")
    return unreached


def test_every_public_name_has_a_caller_in_the_package():
    unreached = unreached_names()
    assert not unreached, f"public names only tests reach: {unreached}"


def unread_imports():
    """``qsl.module:name`` of each name a module of the package imports and never reads."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = set(_reads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in reads:
                        yield f"qsl.{path.stem}:{name}"


def test_every_import_is_read_or_a_benchmark_hook_site():
    unread = sorted(set(unread_imports()) - set(_hook_sites()))
    assert not unread, f"imports that nothing in their module reads: {unread}"


def test_every_benchmark_hook_site_resolves():
    # the traced benchmark run patches these attributes; a deleted one breaks only that run
    sites = list(_hook_sites())
    assert sites
    missing = [site for site in sites
               if not hasattr(importlib.import_module(site.split(":")[0]), site.split(":")[1])]
    assert not missing, f"benchmark hook sites that no longer resolve: {missing}"


def test_the_delta_rule_is_written_once():
    # every function that takes delta checks it through errors.delta_array
    text = "".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    assert text.count("delta must lie in [0, 1]") == 1
