"""Every public name of the package is used by the program, not only by its tests.

Each name in a module's `__all__`, and each public method of each class a
module defines, must be referenced, as a name or an attribute, from `src/`,
`perfbench/` or `scripts/` outside test files. Definitions, assignment
targets, re-exports in `wsml/__init__.py` and the `__all__` strings do not
count as references.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public names that nothing in the program references, and why they stay
ALLOWED = {
    "model.grad_check",  # the acceptance suite's gradient checker
    "dataset.PartialDataset.unknown_mask",  # the acceptance suite calls it
    "cli._Parser.error",  # argparse calls it on a bad command line
}


def _program_trees():
    for top in ("src", "perfbench", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path, ast.parse(path.read_text(encoding="utf-8"))


def _references() -> set[str]:
    used = set()
    for _, tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def _public_surface():
    """(dotted name, bare name) of each `__all__` entry and each public method."""
    for path in sorted((ROOT / "src" / "wsml").glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                for name in ast.literal_eval(node.value):
                    yield f"{module}.{name}", name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def test_every_public_name_is_referenced_by_the_program():
    used = _references()
    surface = list(_public_surface())
    assert len(surface) > 50  # the walk found the package
    assert {dotted for dotted, name in surface if name not in used} == ALLOWED
