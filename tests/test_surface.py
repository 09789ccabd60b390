"""Every name and member the ``gridsynth`` package defines has a reader.

The package's surface is what its own modules and the benchmark harness
call: fit a reference, generate networks from it, validate them. Code that
nothing in ``src/gridsynth`` or in the non-test files of ``perfbench`` reads
is surface that only tests use: delete it, or move it into the tests. Three
checks hold this:

- every name in an ``__all__`` is referenced outside its own definition;
- every top-level function or class, private ones included, is referenced
  outside its own definition;
- every public method, property and annotated field of a public class is
  read as an attribute (``obj.name`` in load context) outside any function
  of the same name, so a method that only forwards to a namesake does not
  count as its reader. A keyword in a constructor call sets a field and does
  not read it.

The checks go by name, not by type: a member counts as read when any
attribute of that name is read. A member that shares its name with a member
that is read is invisible to them: a ``NetworkTopology.degree`` method that
only tests call would pass, because the topology layers read
``_Index.degree``.

A fourth check keeps every import of the package inside ``src/gridsynth``
relative, so that a second copy of the package imported under another name
(to time two versions in one process) loads its own modules.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridsynth"

# The user's seed and feeder-file entry points: nothing in the package calls
# them, by design.
ENTRY_POINTS = {"make_rng", "load_topology"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def caller_files() -> list[Path]:
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    return sorted(PACKAGE.glob("*.py")) + bench


def parsed() -> list[tuple[Path, ast.Module]]:
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in caller_files()]


def exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def defined_names(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
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


def attributes_read(tree: ast.Module) -> set[str]:
    """Attribute names the module reads, leaving out reads inside a function
    of the same name."""
    found: set[str] = set()

    def visit(node: ast.AST, functions: frozenset[str]) -> None:
        if isinstance(node, FUNCTIONS):
            functions = functions | {node.name}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr not in functions
        ):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, functions)

    visit(tree, frozenset())
    return found


def members(cls: ast.ClassDef) -> list[str]:
    """The public methods, properties and annotated fields of a class."""
    names = []
    for node in cls.body:
        if isinstance(node, FUNCTIONS):
            names.append(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def test_every_exported_name_has_a_caller():
    exported: dict[str, str] = {}
    referenced: set[str] = set()
    for path, tree in parsed():
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


def test_every_function_and_class_has_a_caller():
    files = parsed()
    referenced = set().union(*(references(tree) for _, tree in files))
    unused = sorted(
        f"{path.stem}.{node.name}"
        for path, tree in files
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (*FUNCTIONS, ast.ClassDef))
        and node.name not in referenced
        and node.name not in ENTRY_POINTS
    )
    assert unused == [], "defined but called only by tests, if at all: " + ", ".join(unused)


def test_every_class_member_has_a_reader():
    files = parsed()
    read = set().union(*(attributes_read(tree) for _, tree in files))
    unread = sorted(
        f"{node.name}.{member}"
        for path, tree in files
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for member in members(node)
        if member not in read
    )
    assert unread == [], "members read only by tests, if at all: " + ", ".join(unread)


def test_the_package_imports_itself_relatively():
    absolute = sorted(
        f"{path.name}:{node.lineno}"
        for path, tree in parsed()
        if path.parent == PACKAGE
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == PACKAGE.name
        )
        or (
            isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == PACKAGE.name for alias in node.names)
        )
    )
    assert absolute == [], "absolute imports of the package: " + ", ".join(absolute)
