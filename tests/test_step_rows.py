"""Each op's input names are written once, as the parameters of its
procedure in the step table STEPS, and the rest of solver.py agrees with
them: every procedure takes only plain positional parameters, so NAMES
reads them all, and every ProofTrace.step and repeat call in solver.py
passes that many values.  The names are the keys of a step's JSON inputs,
so they are pinned here too: renaming a parameter fails here, not as a
renamed key in every trace's JSON form.  STEPS stays an annotated
assignment, which test_unused_definitions reads its keys from."""

import ast
import inspect
from pathlib import Path

from ln_kit.solver import NAMES, STEPS, solve

SOLVER = Path(__file__).resolve().parents[1] / "src" / "ln_kit" / "solver.py"


# each op's input names, in the order its steps record them
PINNED_NAMES = {
    "no_19z2_solutions": ("n_max", "z_max"),
    "even_case": ("k", "m"),
    "mod19_forces_p": ("k", "t", "p"),
    "mod19_forces_kt": ("k", "t"),
    "mod_pow2_insoluble": ("p", "t"),
    "bhv_gate": ("P", "Q", "p"),
    "always_primitive_closure": ("p",),
    "p3_case": ("k", "search_bound"),
    "primitive_divisor": ("P", "Q", "n", "factoring_budget"),
    "defect_table": ("p", "k"),
    "lucas_u": ("P", "Q", "n"),
    "defective_pair_expansion": ("k", "p"),
    "composite_lift": ("y", "j", "n"),
    "valuation_trichotomy": ("k", "s", "t", "X", "Y", "n"),
    "oracle_cross_check": ("k", "n_min", "n_max", "x_max"),
}


def test_each_rows_names_are_its_procedures_parameters():
    # no *args, **kwargs, defaults or keyword-only parameters: NAMES reads a
    # procedure's positional parameters, so they must be all it takes
    for op, procedure in STEPS.items():
        parameters = inspect.signature(procedure).parameters.values()
        kinds = {p.kind for p in parameters}
        assert kinds == {inspect.Parameter.POSITIONAL_OR_KEYWORD}, op
        assert all(p.default is inspect.Parameter.empty for p in parameters), op
        assert tuple(NAMES[op]) == tuple(p.name for p in parameters), op


def test_each_ops_input_names_are_pinned():
    assert {op: tuple(names) for op, names in NAMES.items()} == PINNED_NAMES


def width(rows, assigned):
    """How many values each row of a repeat call holds: rows is a zip of that
    many iterables or a comprehension of tuples, written in the call or
    assigned to a name in the same function."""
    if isinstance(rows, ast.Name):
        rows = assigned[rows.id]
    if isinstance(rows, ast.Call) and ast.unparse(rows.func) == "zip":
        return len(rows.args)
    assert isinstance(rows, (ast.GeneratorExp, ast.ListComp)), ast.unparse(rows)
    assert isinstance(rows.elt, ast.Tuple), ast.unparse(rows)
    return len(rows.elt.elts)


def call_sites():
    """(op, number of values passed, the call's text) for each call of a
    recorder's step (trace.step, or step bound to it) or repeat in solver.py."""
    tree = ast.parse(SOLVER.read_text())
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        assigned = {
            node.targets[0].id: node.value
            for node in ast.walk(function)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            if func != "step" and not func.endswith((".step", ".repeat")):
                continue
            text = ast.unparse(node)
            op = node.args[0]
            # a literal op and no unpacked or keyword values: each is counted
            assert isinstance(op, ast.Constant) and op.value in STEPS, text
            assert not node.keywords, text
            assert not any(isinstance(a, ast.Starred) for a in node.args), text
            if func.endswith(".repeat"):
                yield op.value, width(node.args[2], assigned), text
            else:
                yield op.value, len(node.args) - 1, text


def test_every_call_site_passes_as_many_values_as_its_row_names():
    sites = list(call_sites())
    assert {op for op, _, _ in sites} == set(STEPS)
    assert len(sites) == len(STEPS) + 2  # primitive_divisor twice, a repeat
    for op, passed, text in sites:
        assert passed == len(NAMES[op]), text


def test_the_width_of_a_repeat_is_read_from_its_rows():
    assigned = {"rows": ast.parse("zip(repeat(kk), range(kk), repeat(p))").body[0].value}
    assert width(ast.Name("rows"), assigned) == 3
    assert width(ast.parse("[(k, t) for t in ts]").body[0].value, {}) == 2


def test_unpacking_a_step_gives_its_stored_fields():
    # the inputs come back as the tuple the step holds, in the order of its
    # op's names; step.inputs reads the same values under those names
    _, trace = solve(7)
    for step in trace.steps:
        assert tuple(step) == step[:]
        op, inputs, value = step
        assert type(inputs) is tuple and inputs is step[1] and value is step.value
        assert dict(zip(NAMES[op], inputs)) == step.inputs
