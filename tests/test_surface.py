"""Every name a ``gridsynth`` module exports has a caller.

The package's surface is what its own modules and the benchmark harness
call: fit a reference, generate networks from it, validate them. A name in
an ``__all__`` that nothing in ``src/gridsynth`` or in the non-test files of
``perfbench`` refers to, outside its own definition, is surface that only
tests use: delete it, or move it into the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridsynth"

# The user's seed and feeder-file entry points: nothing in the package calls
# them, by design.
ENTRY_POINTS = {"make_rng", "load_topology"}


def caller_files() -> list[Path]:
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    return sorted(PACKAGE.glob("*.py")) + bench


def exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def defined_names(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def references(tree: ast.Module) -> set[str]:
    """Names the module reads (as a name, an attribute or an import), leaving
    out each top-level definition's references to the names it defines."""
    found: set[str] = set()
    for statement in tree.body:
        own = defined_names(statement)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name not in own:
                found.add(name)
    return found


def test_every_exported_name_has_a_caller():
    exported: dict[str, str] = {}
    referenced: set[str] = set()
    for path in caller_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= references(tree)
        if path.parent == PACKAGE:
            exported.update({name: path.stem for name in exports(tree)})
    assert ENTRY_POINTS <= exported.keys()
    unused = sorted(
        f"{module}.{name}"
        for name, module in exported.items()
        if name not in referenced and name not in ENTRY_POINTS
    )
    assert unused == [], "exported but called only by tests, if at all: " + ", ".join(unused)
