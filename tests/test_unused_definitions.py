"""Every top-level function and class of ln_kit, and every method and
property of its top-level classes (dunders aside), has a caller outside
tests/, every name a module of ln_kit imports is read in that module, and
every parameter of every function of ln_kit (dunders, self and cls aside)
is read in its body, but for the cache keys that name a digit limit.

The package keeps no code that only its tests run: a definition in
src/ln_kit must be loaded by name somewhere in src/, scripts/ or
perfbench/.  A top-level name counts as loaded when it is read as a bare
name or an attribute, a method or property only when it is read as an
attribute, so a local variable of the same name does not keep it.  An op
name of the step table STEPS counts as a use of a top-level name too.
A dunder is called by Python, not loaded by name (a module's __getattr__,
a class's __post_init__), so it needs no caller.
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


def dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(path, tree):
    """Each top-level function and class, and each method or property of a
    top-level class, other than a dunder, as module.name or module.cls.name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)) or dunder(node.name):
            continue
        yield f"{path.stem}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not dunder(member.name):
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


def test_every_imported_name_is_read_where_it_is_imported():
    # a name read as a bare name only: a STEPS key of the same name does not
    # keep an import; from __future__ import annotations is not read at all
    dead = set()
    for path in sorted(PACKAGE.glob("*.py")):
        (tree,) = parsed([path])
        nodes = list(ast.walk(tree))
        read = {
            n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and name != "annotations":
                        dead.add(f"{path.stem}: {name}")
    assert dead == set()


def parameters(node, prefix):
    """(prefix.qualname.parameter, read) for each parameter of each non-dunder
    function under node, self and cls aside; read is whether the function's
    body loads it as a name."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            loaded = {
                n.id
                for statement in child.body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            a = child.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg and arg.arg not in ("self", "cls") and not dunder(child.name):
                    yield f"{name}.{arg.arg}", arg.arg in loaded
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
        yield from parameters(child, name)


def test_every_parameter_is_read():
    # a procedure takes only the inputs its verdict reads
    unread = {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name, read in parameters(*parsed([path]), path.stem)
        if not read
    }
    # each limit is a cache key: the digit limit the verdict or the instance
    # block was checked under
    assert unread == {
        "lucas_engine._primitive_divisor_verdict.limit",
        "solver._instance.limit",
    }
