"""The code both sides share: each function that the proof side imports from
the oracle, or the oracle from the proof side, is named here.

The package checks the theorem twice, by replaying solve's proof and by the
brute-force oracle in oracle.py.  A fault in a function both sides run can
hide from the cross-check between them, because both inherit it.  So every
import of a function across that line is pinned in SHARED, and a new one
fails until SHARED names it.  Each function in SHARED has a check in tests/
that does not take the function's own word (REFERENCES), and README's
"Notes on scope" names it.  Left out: brute_force, the oracle itself, which
the solver calls to cross-check; the value types and the constants, which
compute nothing.  cli is the front end, on neither side.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ln_kit"
ORACLE_SIDE = {"oracle"}
FRONT_END = {"__init__", "__main__", "cli"}
NOT_KERNEL = {"brute_force"}

# (importing module, module imported from, function)
SHARED = {
    ("caseworks", "oracle", "check_budget"),
    ("caseworks", "oracle", "generalized_scan"),
    ("caseworks", "oracle", "iroot"),
    ("caseworks", "oracle", "perfect_root"),
    ("quadratic_integers", "oracle", "check_budget"),
    ("solver", "oracle", "perfect_root"),
    ("oracle", "lucas_engine", "trial_divide"),
    ("oracle", "equation_model", "is_solution"),
}

# each shared function -> the test module and the names there that check it:
# a reference that imports nothing from ln_kit, or a property or worked
# examples that state the answer without calling anything else of ln_kit
REFERENCES = {
    "generalized_scan": ("test_oracle", ("naive_scan",)),
    "iroot": ("test_oracle", ("test_iroot_brackets",)),
    "perfect_root": (
        "test_oracle", ("test_perfect_root_roundtrip", "test_perfect_root_near_misses")
    ),
    "trial_divide": ("test_lucas_engine", ("reference_factorization", "REFERENCE_UP_TO_10K")),
    "check_budget": (
        "test_caseworks", ("test_mod_pow2_insoluble_is_priced_at_its_odd_residues",)
    ),
    "is_solution": ("test_equation_model", ("test_is_solution_examples",)),
}


def parsed(path):
    return ast.parse(path.read_text(), str(path))


def side(module):
    if module in FRONT_END:
        return None
    return "oracle" if module in ORACLE_SIDE else "proof"


def top_level(tree):
    """Each top-level function, class and assigned name, with its node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def cross_imports():
    """(importer, source, name) for every `from .source import name` whose
    two modules lie on opposite sides, with whether name is a function."""
    trees = {path.stem: parsed(path) for path in sorted(PACKAGE.glob("*.py"))}
    functions = {
        module: {n for n, node in top_level(tree) if isinstance(node, ast.FunctionDef)}
        for module, tree in trees.items()
    }
    for importer, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            sides = {side(importer), side(node.module)}
            if None in sides or len(sides) == 1:
                continue
            for alias in node.names:
                yield importer, node.module, alias.name, alias.name in functions[node.module]


def test_every_function_both_sides_run_is_named():
    functions = {(i, s, n) for i, s, n, function in cross_imports() if function}
    assert {t for t in functions if t[2] not in NOT_KERNEL} == SHARED
    # a left-out name that is no longer imported across has no place here
    assert NOT_KERNEL <= {n for _, _, n in functions}


def test_each_shared_function_has_a_reference_under_tests():
    kernel = {name for _, _, name in SHARED}
    assert set(REFERENCES) == kernel
    for function, (module, names) in REFERENCES.items():
        tree = parsed(ROOT / "tests" / f"{module}.py")
        defined = dict(top_level(tree))
        assert set(names) <= set(defined), (function, module)
        from_ln_kit = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ln_kit")
            for alias in node.names
        }
        for name in names:
            if name.startswith("test_"):
                continue
            # a reference implementation reads nothing ln_kit defines
            read = {n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name)}
            assert read & from_ln_kit == set(), (function, name)


def test_readme_names_each_shared_function():
    readme = (ROOT / "README.md").read_text()
    scope = readme[readme.index("## Notes on scope"):]
    assert {name for _, _, name in SHARED if f"`{name}`" not in scope} == set()
