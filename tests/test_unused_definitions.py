"""Every top-level function and class of ln_kit, and every method and
property of its top-level classes (dunders aside), has a caller outside tests/.

The package keeps no code that only its tests run: a definition in
src/ln_kit must be loaded by name somewhere in src/, scripts/ or
perfbench/.  A top-level name counts as loaded when it is read as a bare
name or an attribute, a method or property only when it is read as an
attribute, so a local variable of the same name does not keep it.  An op
name of the step table STEPS counts as a use of a top-level name too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ln_kit"


def parsed(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def loaded_names(trees):
    """The names read as bare names or STEPS keys, and those read as
    attributes, as two sets."""
    bare, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "STEPS":
                bare.update(key.value for key in node.value.keys)
    return bare, attributes


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
    bare, attributes = loaded_names(parsed([*sources, *scripts]))
    defined = {
        name
        for path, tree in zip(sources, parsed(sources))
        for name in definitions(path, tree)
    }

    def used(name):
        # module.name is a top-level name, module.cls.name a method or property
        parts = name.split(".")
        return parts[-1] in attributes or (len(parts) == 2 and parts[-1] in bare)

    assert len(defined) > 50
    assert {name for name in defined if not used(name)} == set()
