"""Every top-level function and class of ln_kit, and every method and
property of its top-level classes (dunders aside), has a caller outside tests/.

The package keeps no code that only its tests run: a definition in
src/ln_kit must be loaded by name somewhere in src/, scripts/ or
perfbench/.  An op name of the step table STEPS counts as a use too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ln_kit"


def parsed(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def loaded_names(trees):
    """Every name read as a bare name or an attribute, and the keys of STEPS."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "STEPS":
                names.update(key.value for key in node.value.keys)
    return names


def definitions(path, tree):
    """Each top-level function and class, and each method or property of a
    top-level class other than a dunder, as module.name or module.cls.name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield f"{path.stem}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not member.name.startswith("__"):
                    yield f"{path.stem}.{node.name}.{member.name}"


def test_every_definition_is_loaded_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    scripts = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = loaded_names(parsed([*sources, *scripts]))
    defined = {
        name
        for path, tree in zip(sources, parsed(sources))
        for name in definitions(path, tree)
    }
    assert len(defined) > 50
    assert {name for name in defined if name.split(".")[-1] not in used} == set()
