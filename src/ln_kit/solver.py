"""Full decision procedure for one instance: dispatch on n, apply the
casework and the Lucas gate, scale solutions back through the 19-adic
reduction, and cross-check the result against the brute-force oracle.

Every pipeline step runs through the step table ``STEPS`` at the bottom of
this module, which records it as (procedure, inputs, returned value); the
value's JSON form is built only when the trace is serialized, once per
distinct value object (many steps share one, e.g. the single mod19_forces_p
verdict per p).  Replay runs the same table on every step, in memory or
from the trace's JSON form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from . import caseworks
from .caseworks import CaseVerdict
from .equation_model import (
    LNInstance,
    Solution,
    check_D_digits,
    is_solution,
    theorem_solution_set,
)
from .lucas_engine import (
    FACTORING_BUDGET,
    BhvRoute,
    LucasPair,
    bhv_gate,
    is_probable_prime,
    lucas_u,
    primitive_divisor,
)
from .oracle import SearchWindow, brute_force, perfect_root
from .quadratic_integers import QuadInt19, qpow

# Bounds of the pipeline's two bounded searches, recorded as step inputs:
# p3_case's candidate bound and the z bound of the 19*Z^2 + 1 = 4*Y^n scan.
P3_SEARCH_BOUND = 500
LE_Z_MAX = 10**5

# Most steps one solve may record, checked against step_bound before any
# step runs.  solve(49) records 14,153 steps against a bound of 61,981.
STEP_BUDGET = 10**5


class OracleMismatchError(RuntimeError):
    """The pipeline and the brute-force oracle disagree: the primary alarm."""

    def __init__(self, k: int, only_pipeline, only_oracle):
        self.k = k
        self.only_pipeline = sorted(s.as_tuple() for s in only_pipeline)
        self.only_oracle = sorted(s.as_tuple() for s in only_oracle)
        super().__init__(
            f"k={k}: pipeline-only triples {self.only_pipeline}, "
            f"oracle-only triples {self.only_oracle}"
        )


@dataclass(slots=True)
class ProofStep:
    """One step: the op, its inputs and the value its procedure returned.

    value is the procedure's own return value when the step was recorded,
    and the JSON result when the trace was rebuilt from its JSON form;
    caseworks.json_safe turns either into the JSON result.  The class is not
    frozen: a frozen __init__ sets each field through object.__setattr__, a
    cost every recorded step pays, and freezing would not guard a trace
    anyway (inputs is a mutable dict); replay is the check.
    """

    op: str
    inputs: dict[str, Any]
    value: Any

    @property
    def result(self) -> dict[str, Any]:
        """The JSON form of the value, built by caseworks.json_safe on each
        access; it shares no container with the value."""
        return caseworks.json_safe(self.value)

    def to_jsonable(self, result: Any = None) -> dict[str, Any]:
        """The step as JSON; result, when given, is self.result already built."""
        return {
            "op": self.op,
            "inputs": caseworks.json_safe(self.inputs),
            "result": self.result if result is None else result,
        }


@dataclass
class ProofTrace:
    k: int
    n_max: int
    steps: list[ProofStep] = field(default_factory=list)
    solutions: list[Solution] = field(default_factory=list)

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> ProofTrace:
        """The trace to_jsonable's form describes: k, n_max and the steps."""
        steps = [ProofStep(s["op"], s["inputs"], s["result"]) for s in data["steps"]]
        return cls(k=data["k"], n_max=data["n_max"], steps=steps)

    @property
    def oracle_checked(self) -> bool:
        """Whether the trace holds the oracle cross-check step."""
        return self.oracle_x_max is not None

    @property
    def oracle_x_max(self) -> int | None:
        """The x bound of the oracle cross-check, or None without one."""
        found = self.find("oracle_cross_check")
        return _step_input("x_max", found[0].inputs["x_max"]) if found else None

    def step(self, op: str, **inputs: int) -> Any:
        """Run STEPS[op] on the inputs, record the value it returns as it is,
        and return it; the JSON form waits for to_jsonable."""
        value = STEPS[op](**inputs)
        self.steps.append(ProofStep(op, inputs, value))
        return value

    def find(self, op: str) -> list[ProofStep]:
        return [s for s in self.steps if s.op == op]

    def replay(self) -> list[str]:
        """Re-run every step through STEPS; returns the ops that diverged.

        Every step input is an integer: an int, or after a JSON round trip
        possibly the exact decimal string the writer emits; anything else (a
        bool, a float, a padded or signed-plus string) has diverged.  One
        check per step passes a dict whose values are all of type int (a
        bool's type is bool) as it is; any other inputs are decoded one by
        one through _step_input.  A procedure that returns the very object
        the step recorded (a shared mod19_forces_p verdict) has matched
        without an __eq__ call; otherwise a recorded value is compared as it
        is, and a value rebuilt from JSON with the new value's JSON form,
        built once per distinct new value object in one call.  A malformed
        step (an op outside STEPS, inputs that are not a mapping), one whose
        inputs its procedure rejects or overflows on, or one whose value is
        too long to encode has diverged.
        """
        bad = []
        # id(value) -> (value, its JSON form); holding value keeps its id
        # from being reused by another object during this call
        encoded: dict[int, tuple[Any, Any]] = {}
        for step in self.steps:
            try:
                fn = STEPS.get(step.op)
                if fn is None:
                    bad.append(f"{step.op}: not replayable")
                    continue
                inputs = step.inputs
                if type(inputs) is not dict or set(map(type, inputs.values())) != {int}:
                    inputs = {k: _step_input(k, v) for k, v in inputs.items()}
                got = fn(**inputs)
                if got is not step.value and got != step.value:
                    if id(got) not in encoded:
                        encoded[id(got)] = (got, caseworks.json_safe(got))
                    if encoded[id(got)][1] != step.value:
                        bad.append(step.op)
            except (AttributeError, OverflowError, TypeError, ValueError) as exc:
                bad.append(f"{step.op}: {exc}")
        return bad

    def jsonable_steps(self) -> Iterator[dict[str, Any]]:
        """Each step's to_jsonable(), in order, with one result dict built
        per distinct value object (see to_jsonable)."""
        results: dict[int, Any] = {}
        for s in self.steps:
            key = id(s.value)
            if key not in results:
                results[key] = s.result
            yield s.to_jsonable(results[key])

    def to_jsonable(self) -> dict[str, Any]:
        """The trace as JSON, its steps from jsonable_steps: steps that share
        a value object share one result dict, so treat the output as
        read-only input to json.dumps."""
        x_max = self.oracle_x_max
        return {
            "k": self.k,
            "n_max": self.n_max,
            "oracle_checked": x_max is not None,
            "oracle_x_max": x_max,
            "solutions": caseworks.json_safe(self.solutions),
            "steps": list(self.jsonable_steps()),
        }


def _step_input(name: str, v: Any) -> int:
    """A step input as the int it stands for: an int that is not a bool, or
    a string that is exactly str() of an int; ValueError otherwise."""
    if type(v) is int:  # a bool is an int too, but not this type
        return v
    if type(v) is str:
        i = int(v)
        if str(i) == v:
            return i
    raise ValueError(f"input {name}={v!r} is not an integer")


def always_primitive_closure(p: int) -> CaseVerdict:
    """u_p has a primitive divisor for every Lucas pair when p > 13 is prime
    (Bilu-Hanrot-Voutier, cited), so u_p = +-1 is impossible."""
    if p <= 13 or not is_probable_prime(p):
        raise ValueError(f"p must be a prime above 13, got {p}")
    return CaseVerdict.contradiction(
        f"u_{p} has a primitive divisor for every Lucas pair (p > 13), "
        f"contradicting u_p = +-1"
    )


# p -> why no pair of the required shape is defective for p (only p = 7 has one)
NO_DEFECTIVE_PAIR = {
    5: "no defective pair of the required shape exists for p = 5",
    11: "no defective pair exists for p = 11",
    13: "the only defective pair for p = 13 lies in Q(sqrt(-7)), not Q(sqrt(-19))",
}


def defect_table_route(p: int, k: int) -> CaseVerdict:
    """Defective-pair tables for p in {5, 7, 11, 13} (classification cited):
    only p = 7 admits a pair of the required shape (a + 19^k*sqrt(-19))/2,
    namely a = +-1 with k = 0; NO_DEFECTIVE_PAIR says why the others do not.
    """
    if p != 7 and p not in NO_DEFECTIVE_PAIR:
        raise ValueError(f"defect table covers p in {{5, 7, 11, 13}}, got {p}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if p in NO_DEFECTIVE_PAIR:
        return CaseVerdict.contradiction(NO_DEFECTIVE_PAIR[p])
    if k != 0:
        return CaseVerdict.contradiction(
            f"the defective pair for p = 7 requires k = 0, got k = {k}"
        )
    return CaseVerdict.forced(
        [("a", 1), ("k", 0)],
        reason="defective pair (1 +- sqrt(-19))/2: expand candidates directly",
    )


def defective_pair_expansion(k: int, p: int) -> CaseVerdict:
    """Expand the four unit/sign candidates (+-1 +- sqrt(-19))/2 to the p-th
    power and keep those matching (x + 19^k*sqrt(-19))/2 with x > 0."""
    if k != 0 or p != 7:
        raise ValueError(f"only the (k, p) = (0, 7) defective pair exists, got {k}, {p}")
    sols = []
    trace = []
    for a in (1, -1):
        for b in (1, -1):
            w = qpow(QuadInt19(a, b), p)
            trace.append({"check": "qpow", "a": a, "b": b, "A": w.a, "B": w.b})
            if w.b == 19**k and w.a > 0:
                y = QuadInt19(a, b).norm
                sols.append(Solution(w.a, y, p))
    for s in sols:
        assert is_solution(LNInstance(k), *s.as_tuple())
    return CaseVerdict.found(sols, trace)


def _odd_prime_solutions(kk: int, p: int, trace: ProofTrace) -> list[Solution]:
    """Solutions of instance kk with n = p odd prime and 19 coprime to x."""
    # b = +-19^t with t < kk: the mod-19 and mod-2^(s+1) sieves
    for t in range(kk):
        v1 = trace.step("mod19_forces_p", k=kk, t=t, p=p)
        if v1.outcome == caseworks.OUTCOME_CONTRADICTION:
            continue
        v2 = trace.step("mod19_forces_kt", k=kk, t=t)
        if v2.outcome == caseworks.OUTCOME_CONTRADICTION:
            continue
        v3 = trace.step("mod_pow2_insoluble", p=19, t=t)
        if v3.outcome != caseworks.OUTCOME_CONTRADICTION:
            raise RuntimeError(
                f"power-of-two sieve unexpectedly soluble at k={kk}, t={t}"
            )
    # b = +-19^k: the Lucas route through u_p = +-1
    pair = LucasPair(1, 5)  # the canonical instance pair (1 +- sqrt(-19))/2
    route = trace.step("bhv_gate", P=pair.P, Q=pair.Q, p=p)
    if route is BhvRoute.ALWAYS_PRIMITIVE:
        trace.step("always_primitive_closure", p=p)
        return []
    if route is BhvRoute.SMALL_PRIME:
        trace.step("p3_case", k=kk, search_bound=P3_SEARCH_BOUND)
        return []
    # CheckDefectTable: p in {5, 7, 11, 13}, routed by the table's verdict
    primdiv = {"P": pair.P, "Q": pair.Q, "n": p, "factoring_budget": FACTORING_BUDGET}
    if p in NO_DEFECTIVE_PAIR:
        trace.step("primitive_divisor", **primdiv)
    verdict = trace.step("defect_table", p=p, k=kk)
    if verdict.outcome == caseworks.OUTCOME_CONTRADICTION:
        return []
    trace.step("lucas_u", P=pair.P, Q=pair.Q, n=p)
    trace.step("primitive_divisor", **primdiv)
    return list(trace.step("defective_pair_expansion", k=kk, p=p).solutions)


def _primitive_solutions(kk: int, n_max: int, trace: ProofTrace) -> list[Solution]:
    """All solutions of instance kk with 2 <= n <= n_max and 19 coprime to x."""
    inst = LNInstance(kk)
    sols: list[Solution] = []
    for m in range(1, n_max // 2 + 1):
        sols.extend(trace.step("even_case", k=kk, m=m).solutions)
    # the least prime factors of the odd n <= n_max are the odd primes <= n_max
    primes = [p for p in range(3, n_max + 1, 2) if is_probable_prime(p)]
    by_prime = {p: _odd_prime_solutions(kk, p, trace) for p in primes}
    for n in range(3, n_max + 1, 2):
        p = next(p for p in primes if n % p == 0)
        j = n // p
        for s in by_prime[p]:
            if j == 1:
                sols.append(s)
                continue
            # a solution for n = p*j needs y^j to hit the y-value found at p
            root = trace.step("composite_lift", y=s.y, j=j, n=n)["root"]
            if root is not None:
                sols.append(Solution(s.x, root, n))
    for s in sols:
        assert is_solution(inst, *s.as_tuple())
    return sols


def step_bound(k: int, n_max: int) -> int:
    """An upper bound on the steps solve(k, n_max) records, from its loops alone.

    Per instance kk <= k: n_max // 2 even_case steps; for each odd n (at
    least as many as the odd primes p) at most 3 sieve steps per t < kk, the
    gate and 4 more; at most 4 solutions per p, so at most 4 composite_lift
    steps per odd n.  An instance thus has at most n_max // 2 + 4 * odd
    solutions, each met by one valuation_trichotomy per s <= k.  Plus
    no_19z2_solutions and the oracle step.
    """
    even, odd = n_max // 2, (n_max - 1) // 2
    sieves = odd * (3 * k * (k + 1) // 2 + 5 * (k + 1))
    # per instance: the even_case plus composite_lift steps, and as many
    # solutions; k + 1 instances, then k valuation_trichotomy passes
    per_instance = even + 4 * odd
    return 2 + sieves + (2 * k + 1) * per_instance


def solve(
    k: int,
    n_max: int = SearchWindow.n_max,
    oracle_x_max: int = SearchWindow.x_max,
    *,
    cross_check: bool = True,
) -> tuple[list[Solution], ProofTrace]:
    """Complete solution set for 2 <= n <= n_max plus a replayable proof trace.

    Raises OracleMismatchError when the brute-force cross-check (over
    x <= oracle_x_max) disagrees with the pipeline, RuntimeError when the
    bounded 19*Z^2 + 1 = 4*Y^n scan finds a witness, and ValueError before
    any step runs when step_bound(k, n_max) exceeds STEP_BUDGET, when
    19^(2k+1), which the trace writes, is over check_D_digits, or when the
    cross-check's SearchWindow is invalid.
    """
    inst = LNInstance(k)
    bound = step_bound(k, n_max)
    if bound > STEP_BUDGET:
        raise ValueError(
            f"solve(k={k}, n_max={n_max}) may take up to {bound} steps, "
            f"over the step budget of {STEP_BUDGET}"
        )
    check_D_digits(k)
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    if cross_check:
        SearchWindow(k, 2, n_max, oracle_x_max)
    trace = ProofTrace(k=k, n_max=n_max)
    # close the two symbolic 19|x branches that do not reduce: both land on
    # 19*Z^2 + 1 = 4*Y^n (bounded scan here, unbounded statement cited)
    scan = trace.step("no_19z2_solutions", n_max=max(3, min(n_max, 20)), z_max=LE_Z_MAX)
    if scan.outcome != caseworks.OUTCOME_CONTRADICTION:
        raise RuntimeError(f"19*Z^2 + 1 = 4*Y^n unexpectedly soluble: {scan.reason}")
    primitive: dict[int, list[Solution]] = {}
    for kk in range(k + 1):
        primitive[kk] = _primitive_solutions(kk, n_max, trace)
    full = list(primitive[k])
    for s_val in range(1, k + 1):
        for sol in primitive[k - s_val]:
            if (2 * s_val) % sol.n != 0:
                continue
            t = 2 * s_val // sol.n
            verdict = trace.step(
                "valuation_trichotomy", k=k, s=s_val, t=t, X=sol.x, Y=sol.y, n=sol.n
            )
            if (
                verdict.outcome == caseworks.OUTCOME_REDUCED
                and verdict.reduced_k == k - s_val
            ):
                lifted = Solution(19**s_val * sol.x, 19**t * sol.y, sol.n)
                assert is_solution(inst, *lifted.as_tuple())
                full.append(lifted)
    full.sort(key=lambda s: s.sort_key)
    if cross_check:
        found = trace.step(
            "oracle_cross_check", k=k, n_min=2, n_max=n_max, x_max=oracle_x_max
        )["solutions"]
        mine = [s for s in full if s.x <= oracle_x_max]
        if set(found) != set(mine):
            raise OracleMismatchError(
                k, set(mine) - set(found), set(found) - set(mine)
            )
    trace.solutions = full
    return full, trace


def verify_solution_completeness(
    k: int, window: SearchWindow
) -> tuple[bool, dict[str, Any]]:
    """Set-compare brute force against the theorem's families inside a window.

    Disagreement is reported, not raised; the report lists both sides.
    k must be the window's k: the scan and the theorem set are of one equation.
    """
    if k != window.k:
        raise ValueError(f"k={k} differs from the window's k={window.k}")
    found = brute_force(window)
    # the smallest member is n2(k), x = 9 * 19^k: every n2(t) has
    # x >= 9 * 19^(2k - t) and n7 has x = 559 * 19^k, so above x_max the
    # theorem side is empty and no member is built
    claimed = (
        []
        if 9 * 19**k > window.x_max
        else [
            s
            for s in theorem_solution_set(LNInstance(k), window.n_max)
            if s.x <= window.x_max and window.n_min <= s.n <= window.n_max
        ]
    )
    ok = set(found) == set(claimed)
    report = {
        "k": k,
        "window": dict(n_min=window.n_min, n_max=window.n_max, x_max=str(window.x_max)),
        "oracle": found,
        "theorem": claimed,
        "ok": ok,
    }
    return ok, caseworks.json_safe(report)


def _primitive_divisor_step(P: int, Q: int, n: int, factoring_budget: int) -> Any:
    """primitive_divisor at most at the budget solve records; a larger one,
    which no solve spends, is refused before any work."""
    if factoring_budget > FACTORING_BUDGET:
        raise ValueError(
            f"factoring_budget={factoring_budget} is over the solver's "
            f"FACTORING_BUDGET of {FACTORING_BUDGET}"
        )
    return primitive_divisor(LucasPair(P, Q), n, factoring_budget)


def _oracle_step(window: SearchWindow) -> dict[str, list[Solution]]:
    """The oracle's solutions in full, so that replay compares the scan
    itself; a k past the one solve accepts is refused before D is built."""
    check_D_digits(window.k)
    return {"solutions": brute_force(window)}


# op name -> procedure.  Each entry looks its procedure up when called, so
# a name rebound on its module (a test double, a profiler) is what runs.
STEPS: dict[str, Callable[..., Any]] = {
    "no_19z2_solutions": lambda n_max, z_max: caseworks.no_19z2_solutions(n_max, z_max),
    "even_case": lambda k, m: caseworks.even_case(k, m),
    "mod19_forces_p": lambda k, t, p: caseworks.mod19_forces_p(k, t, p),
    "mod19_forces_kt": lambda k, t: caseworks.mod19_forces_kt(k, t),
    "mod_pow2_insoluble": lambda p, t: caseworks.mod_pow2_insoluble(p, t),
    "bhv_gate": lambda P, Q, p: bhv_gate(LucasPair(P, Q), p),
    "always_primitive_closure": lambda p: always_primitive_closure(p),
    "p3_case": lambda k, search_bound: caseworks.p3_case(k, search_bound),
    "primitive_divisor": _primitive_divisor_step,
    "defect_table": lambda p, k: defect_table_route(p, k),
    "lucas_u": lambda P, Q, n: {"value": lucas_u(LucasPair(P, Q), n)},
    "defective_pair_expansion": lambda k, p: defective_pair_expansion(k, p),
    "composite_lift": lambda y, j, n: {"root": perfect_root(y, j)},
    "valuation_trichotomy": lambda k, s, t, X, Y, n: caseworks.valuation_trichotomy(
        k, s, t, X, Y, n
    ),
    "oracle_cross_check": lambda k, n_min, n_max, x_max: _oracle_step(
        SearchWindow(k, n_min, n_max, x_max)
    ),
}
