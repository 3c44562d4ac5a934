"""Every public name of the package is used by the program, not only by its tests.

Each name in a module's `__all__`, and each public method of each class a
module defines, must be referenced from `src/`, `perfbench/` or `scripts/`
outside test files. A module-level name counts only through its own module:
a bare use inside the module, an import of the name from the module (or from
`wsml`, which re-exports it), or an attribute of a name bound to the module
(or to `wsml`, for the names it re-exports). A method counts when any
attribute or name has its spelling, since a static walk cannot tell a
method's receiver. Definitions, assignment targets, re-exports in
`wsml/__init__.py` and the `__all__` strings do not count as references.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wsml"

# public names that nothing in the program references, and why they stay
ALLOWED = {
    "model.grad_check",  # the acceptance suite's gradient checker
    "dataset.PartialDataset.unknown_mask",  # the acceptance suite calls it
    "evaluation.average_precision",  # the acceptance suite calls it
    "cli._Parser.error",  # argparse calls it on a bad command line
}


def _program_trees():
    for top in ("src", "perfbench", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path, ast.parse(path.read_text(encoding="utf-8"))


def _re_exports() -> dict[str, str]:
    """Bare name -> the module `wsml/__init__.py` imports it from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module for alias in node.names}


def _imported_module(path: pathlib.Path, node: ast.ImportFrom) -> str | None:
    """'wsml' or 'wsml.<module>' for an import from the package, else None."""
    if node.level == 0:
        return node.module if node.module and node.module.split(".")[0] == "wsml" else None
    if node.level == 1 and path.parent == PACKAGE:
        return "wsml" + (f".{node.module}" if node.module else "")
    return None


def _module_of(expr, bound: dict[str, str]) -> str | None:
    """The package module ('wsml' or 'wsml.<module>') an expression names, if any."""
    if isinstance(expr, ast.Name):
        return bound.get(expr.id)
    if isinstance(expr, ast.Attribute) and _module_of(expr.value, bound) == "wsml":
        return f"wsml.{expr.attr}"
    return None


def _references() -> tuple[set[str], set[str]]:
    """(the `module.name`s used through their own module, every name and attribute spelling loaded)."""
    exports, qualified, spelled = _re_exports(), set(), set()

    def use(module: str, name: str) -> None:  # `name` read from package module `module`
        if module == "wsml":
            if name in exports:
                qualified.add(f"{exports[name]}.{name}")
        else:
            qualified.add(f"{module.removeprefix('wsml.')}.{name}")

    for path, tree in _program_trees():
        own = f"wsml.{path.stem}" if path.parent == PACKAGE else None
        bound = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "wsml":
                        bound[alias.asname or "wsml"] = alias.name if alias.asname else "wsml"
            elif isinstance(node, ast.ImportFrom) and (module := _imported_module(path, node)):
                for alias in node.names:
                    if module == "wsml" and (PACKAGE / f"{alias.name}.py").exists():
                        bound[alias.asname or alias.name] = f"wsml.{alias.name}"
                    elif path.name != "__init__.py":  # a re-export is no use
                        use(module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                spelled.add(node.id)
                if own:
                    use(own, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                spelled.add(node.attr)
                if module := _module_of(node.value, bound):
                    use(module, node.attr)
    return qualified, spelled


def _public_surface():
    """(dotted name, whether it is a method) of each `__all__` entry and each public method."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                for name in ast.literal_eval(node.value):
                    yield f"{module}.{name}", False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", True


def _unused(qualified: set[str], spelled: set[str]) -> set[str]:
    return {dotted for dotted, method in _public_surface()
            if (dotted.rsplit(".", 1)[1] not in spelled if method else dotted not in qualified)}


def test_every_public_name_is_referenced_by_the_program():
    assert len(list(_public_surface())) > 50  # the walk found the package
    assert _unused(*_references()) == ALLOWED


def test_a_name_counts_only_through_its_own_module():
    qualified, spelled = _references()
    assert "model.forward" in qualified  # `model_mod.forward(...)` in trainer
    assert "trainer.run" in qualified  # `trainer.run(...)` in cli and scripts
    assert "dataset.LabelState" in qualified  # `from wsml import LabelState` in perfbench
    # `take` is spelled as an attribute (`ds.take`, `arr.take`) but `schemes` has no `take`
    assert "take" in spelled and "schemes.take" not in qualified
