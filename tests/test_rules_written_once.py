"""Rules the package writes once: one declaration of a verdict cache
(lucas_engine.shared), one check of u_n's length (in lucas_u), every cache
built from that declaration, one reader of the int-to-str digit limit
(lucas_engine.digit_limit), one constructor per value type, one way to
hold a frozen value's fields (the tuple it is), each read off an object
alone, and one class that records proof steps (solver.ProofTrace)."""

import ast
from pathlib import Path

from conftest import package_caches

from ln_kit.lucas_engine import VERDICT_CACHE_SIZE, Frozen

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ln_kit"


def modules():
    """(module name, its source lines, its tree) for each module of ln_kit."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        yield path.stem, text.splitlines(), ast.parse(text, str(path))


def test_lru_cache_is_called_only_on_the_shared_line():
    places = []
    for module, lines, tree in modules():
        for node in ast.walk(tree):
            names = {"lru_cache", "cache"}
            named = (
                isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.alias) and node.name in names
            )
            if named:
                places.append((module, lines[node.lineno - 1].strip()))
    shared = "shared = functools.lru_cache(maxsize=VERDICT_CACHE_SIZE, typed=True)"
    assert places == [("lucas_engine", shared)]


def test_only_lucas_u_checks_the_length_of_u_n():
    callers = []
    for module, _, tree in modules():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and ast.unparse(node.func).endswith("check_digits")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "u_n"
                ):
                    callers.append(f"{module}.{function.name}")
    assert callers == ["lucas_engine.lucas_u"]


def test_every_cache_comes_from_the_one_declaration():
    caches = package_caches()
    assert len(caches) >= 5
    assert {name: c.cache_parameters() for name, c in caches.items()} == dict.fromkeys(
        caches, {"maxsize": VERDICT_CACHE_SIZE, "typed": True}
    )


def test_only_digit_limit_reads_the_digit_limit():
    # a refusal may name sys.get_int_max_str_digits() in its message
    name = "get_int_max_str_digits"
    places = []
    for module, lines, tree in modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.Constant) and node.value == name
            ):
                places.append((module, lines[node.lineno - 1].strip()))
    reader = 'return getattr(sys, "get_int_max_str_digits", int)()'
    assert places == [("lucas_engine", reader)]


def test_no_classmethod_only_calls_the_constructor():
    # a classmethod whose body is return cls(...) (a docstring aside) is a
    # second way to build what the constructor builds
    places = []
    for module, _, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or not any(
                    ast.unparse(d) == "classmethod" for d in method.decorator_list
                ):
                    continue
                body = method.body
                if ast.get_docstring(method) is not None:
                    body = body[1:]
                if (
                    len(body) == 1
                    and isinstance(body[0], ast.Return)
                    and isinstance(body[0].value, ast.Call)
                    and ast.unparse(body[0].value.func) == "cls"
                ):
                    places.append(f"{module}.{node.name}.{method.name}")
    assert places == []


def test_no_class_subclasses_proof_trace():
    # a subclass of ProofTrace would be a second path that records (or
    # skips recording) steps; replay runs solve on a plain ProofTrace
    subclasses = [
        f"{module}.{node.name}"
        for module, _, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).split(".")[-1] == "ProofTrace" for base in node.bases)
    ]
    assert subclasses == []


def test_frozen_values_are_tuples_and_nothing_sets_attributes_around_them():
    # the tuple holds the fields and refuses assignment: no type keeps a
    # __dict__ beside it, and no module writes through object.__setattr__
    # (conftest has imported every module, so every type is defined)
    types = Frozen.__subclasses__()
    assert len(types) == 7
    assert [t for t in types if t.__dictoffset__ or not issubclass(t, tuple)] == []
    calls = [
        module
        for module, _, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__"
    ]
    assert calls == []


def test_no_module_reads_a_frozen_field_off_the_class():
    # a field is a property of its type, so SearchWindow.n_max is that
    # property, not a default: a default is read off an object, such as
    # oracle.DEFAULT_WINDOW.  getattr on the class counts as a read too.
    fields = {t.__name__: set(t.__match_args__) for t in Frozen.__subclasses__()}
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    paths += (ROOT / "perfbench").glob("*.py")
    places = []
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                owner, read = node.value, {node.attr}
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr":
                owner, read = node.args[0], None  # any name it may be given
            else:
                continue
            held = fields.get(ast.unparse(owner).split(".")[-1], set())
            if held and (read is None or read & held):
                places.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert places == []
