"""The contract of the package's nine value types.  The seven Frozen ones
and ProofStep are tuples of their fields that write only their own __new__:
the Frozen ones take field names, repr and equality from Frozen and the
tuple's hash of their fields, and refuse assignment and deletion; ProofStep
is a read-only tuple of its three fields, ProofTrace borrows Frozen's repr
and equality and stays mutable, and both are unhashable; equality reads
every field and never holds across two classes; repr is
Name(field=value, ...), which error messages quote; a Frozen value copies
and pickles through its class's __new__.  No class of ln_kit but Frozen
writes __eq__, __ne__ or __hash__."""

import ast
import copy
import itertools
import pickle
from pathlib import Path
from types import MappingProxyType

import pytest

from ln_kit.caseworks import CaseVerdict
from ln_kit.equation_model import LNInstance, Solution
from ln_kit.lucas_engine import Frozen, LucasPair, PrimitiveDivisorVerdict
from ln_kit.oracle import DEFAULT_WINDOW, SearchWindow
from ln_kit.quadratic_integers import QuadInt19
from ln_kit.solver import ProofStep, ProofTrace, solve

# (a maker of one instance, its fields, its repr); each call makes a new
# object, with new containers, equal to the last
VALUES = {
    "LNInstance": (lambda: LNInstance(3), ("k",), "LNInstance(k=3)"),
    "Solution": (lambda: Solution(9, 5, 2), ("x", "y", "n"), "Solution(x=9, y=5, n=2)"),
    "LucasPair": (lambda: LucasPair(1, 5), ("P", "Q"), "LucasPair(P=1, Q=5)"),
    "PrimitiveDivisorVerdict": (
        lambda: PrimitiveDivisorVerdict(11, True, witness=11),
        ("n", "exists", "witness", "obstruction", "indeterminate"),
        "PrimitiveDivisorVerdict(n=11, exists=True, witness=11, obstruction=None, "
        "indeterminate=False)",
    ),
    "SearchWindow": (
        lambda: SearchWindow(k=0, n_min=5),
        ("k", "n_min", "n_max", "x_max"),
        "SearchWindow(k=0, n_min=5, n_max=30, x_max=10000000)",
    ),
    "QuadInt19": (lambda: QuadInt19(1, -3), ("a", "b"), "QuadInt19(a=1, b=-3)"),
    "CaseVerdict": (
        lambda: CaseVerdict("reduced", reduced_k=2, constraints=("19 | x",)),
        (
            "outcome", "reason", "assignments", "reduced_k", "constraints",
            "solutions", "trace",
        ),
        "CaseVerdict(outcome='reduced', reason='', assignments=(), reduced_k=2, "
        "constraints=('19 | x',), solutions=(), trace=())",
    ),
    "ProofStep": (
        lambda: ProofStep("lucas_u", {"P": 1, "Q": 5, "n": 7}, {"value": 1}),
        ("op", "inputs", "value"),
        "ProofStep(op='lucas_u', inputs={'P': 1, 'Q': 5, 'n': 7}, value={'value': 1})",
    ),
    "ProofTrace": (
        lambda: ProofTrace(k=0, n_max=7, steps=[ProofStep("even_case", {"m": 1}, 0)]),
        ("k", "n_max", "steps", "solutions", "oracle_x_max"),
        "ProofTrace(k=0, n_max=7, steps=[ProofStep(op='even_case', inputs={'m': 1}, "
        "value=0)], solutions=None, oracle_x_max=None)",
    ),
}
UNHASHABLE = {"ProofStep", "ProofTrace"}
FROZEN = sorted(set(VALUES) - UNHASHABLE)

# for each field, a second valid value, unequal to the one VALUES makes
OTHER = {
    "LNInstance": {"k": 4},
    "Solution": {"x": 11, "y": 7, "n": 3},
    "LucasPair": {"P": 3, "Q": 7},
    "PrimitiveDivisorVerdict": {
        "n": 13, "exists": False, "witness": 23,
        "obstruction": ({"prime": 11, "divides": "discriminant"},),
        "indeterminate": True,
    },
    "SearchWindow": {"k": 1, "n_min": 6, "n_max": 29, "x_max": 10**6},
    "QuadInt19": {"a": 3, "b": -1},
    "CaseVerdict": {
        "outcome": "forced", "reason": "19 | x", "assignments": (("t", 0),),
        "reduced_k": 1, "constraints": ("19 | y",), "solutions": ((9, 5, 2),),
        "trace": ({"mod": 19},),
    },
    "ProofStep": {"op": "bhv_gate", "inputs": {"P": 1, "Q": 5, "n": 11}, "value": None},
    "ProofTrace": {"k": 1, "n_max": 9, "steps": [], "solutions": [], "oracle_x_max": 10},
}
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ln_kit").glob("*.py"))


@pytest.mark.parametrize("name", sorted(VALUES))
def test_repr_names_each_field(name):
    make, _, text = VALUES[name]
    assert repr(make()) == str(make()) == text


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_make_equal_objects(name):
    make, fields, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_types_refuse_assignment_and_deletion(name):
    make, fields, text = VALUES[name]
    value = make()
    for field in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == text


def copies(value):
    """value through copy.copy, copy.deepcopy and each pickle protocol."""
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_survive_copy_and_pickle(name):
    make, fields, _ = VALUES[name]
    for value in (make(), type(make())(**OTHER[name])):
        for other in copies(value):
            assert type(other) is type(value) and other == value, other
            assert [getattr(other, f) for f in fields] == [getattr(value, f) for f in fields]


def test_a_verdict_holding_a_mapping_proxy_refuses_deep_copies():
    # a shared verdict's trace is read-only: copy.copy shares it, while
    # deepcopy and pickle refuse it, and neither returns an unequal verdict
    verdict = CaseVerdict("contradiction", "r", trace=(MappingProxyType({"mod": 19}),))
    shallow = copy.copy(verdict)
    assert type(shallow) is CaseVerdict and shallow == verdict
    assert shallow.trace[0] is verdict.trace[0]
    with pytest.raises(TypeError):
        copy.deepcopy(verdict)
    with pytest.raises(TypeError):
        pickle.dumps(verdict)


def test_proof_steps_copy_and_pickle_through_their_fields():
    # a step copies through ProofStep's own __new__, given its three fields
    _, trace = solve(7)
    copied = [copy.copy(step) for step in trace.steps]
    for step, other in zip(trace.steps, copied):
        assert type(other) is ProofStep and other == step and other is not step
    assert ProofTrace(7, trace.n_max, copied, trace.solutions, trace.oracle_x_max).replay() == []
    (step, *_) = trace.find("bhv_gate")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        other = pickle.loads(pickle.dumps(step, protocol))
        assert type(other) is ProofStep and other == step
    # a value holding a read-only mapping refuses a deep copy, as a verdict does
    step = next(s for s in trace.steps if type(s.value) is MappingProxyType)
    with pytest.raises(TypeError):
        copy.deepcopy(step)


def test_proof_traces_are_mutable_and_unhashable():
    make, fields, _ = VALUES["ProofTrace"]
    value = make()
    setattr(value, fields[0], 8)
    assert getattr(value, fields[0]) == 8 and value != make()
    with pytest.raises(TypeError):
        hash(value)


def test_proof_steps_refuse_assignment_and_are_unhashable():
    # solve shares each instance's steps between traces: none may change
    make, fields, text = VALUES["ProofStep"]
    step = make()
    for field in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(step, field, 1)
        with pytest.raises(AttributeError):
            delattr(step, field)
    with pytest.raises(TypeError):
        step.inputs["n"] = 8
    with pytest.raises(TypeError):
        hash(step)
    assert step == make() and repr(step) == text


def test_objects_of_two_classes_are_never_equal():
    values = {name: make() for name, (make, _, _) in VALUES.items()}
    for (a, x), (b, y) in itertools.permutations(values.items(), 2):
        assert x != y and not x == y, (a, b)
    assert LucasPair(1, 5) != QuadInt19(1, 5)
    assert Solution(9, 5, 2) != (9, 5, 2) and (9, 5, 2) != Solution(9, 5, 2)
    assert Solution(9, 5, 2) != Solution(9, 5, 7)


def test_construction_by_position_and_keyword_agree():
    assert SearchWindow(k=0, n_min=5) == SearchWindow(0, 5, 30, 10**7)
    defaults = (DEFAULT_WINDOW.n_min, DEFAULT_WINDOW.n_max, DEFAULT_WINDOW.x_max)
    assert defaults == (2, 30, 10**7)
    # a list is stored as a tuple
    assert CaseVerdict("reduced", "", [], 2, ["19 | x"]) == VALUES["CaseVerdict"][0]()
    assert PrimitiveDivisorVerdict(n=11, exists=True, witness=11) == (
        VALUES["PrimitiveDivisorVerdict"][0]()
    )
    step = ProofStep(op="lucas_u", inputs={"P": 1, "Q": 5, "n": 7}, value={"value": 1})
    assert step == VALUES["ProofStep"][0]()
    # each trace starts with a list of steps of its own, and no solutions
    first, second = ProofTrace(0, 7), ProofTrace(k=0, n_max=7)
    assert first == second and first.steps is not second.steps
    assert first.solutions is None and first.oracle_x_max is None
    assert ProofTrace(0, 7, [], [], 10) == ProofTrace(
        k=0, n_max=7, steps=[], solutions=[], oracle_x_max=10
    )


def test_every_frozen_type_is_held_to_the_contract():
    assert {cls.__name__ for cls in Frozen.__subclasses__()} == set(FROZEN)
    assert set(OTHER) == set(VALUES)


@pytest.mark.parametrize(
    "name, field", [(name, f) for name in sorted(VALUES) for f in VALUES[name][1]]
)
def test_every_field_decides_equality(name, field):
    make, fields, _ = VALUES[name]
    value = make()
    kwargs = {f: getattr(value, f) for f in fields}
    other = type(value)(**{**kwargs, field: OTHER[name][field]})
    assert [f for f in fields if getattr(other, f) != getattr(value, f)] == [field]
    assert other != value and not other == value
    assert value != other and not value == other


def test_only_frozen_writes_eq_or_hash():
    written = {
        f"{path.stem}.{cls.name}.{node.name}"
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("__eq__", "__ne__", "__hash__")
    }
    # Frozen takes the tuple's hash, so it writes none
    assert written == {"lucas_engine.Frozen.__eq__", "lucas_engine.Frozen.__ne__"}
