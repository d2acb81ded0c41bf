"""Full decision procedure for one instance: dispatch on n, apply the
casework and the Lucas gate, scale solutions back through the 19-adic
reduction, and cross-check the result against the brute-force oracle.

Every step runs through ProofTrace.step and the table ``STEPS`` at the end
of this module, which maps each op to its procedure; the procedure's
parameters are the op's input names (NAMES).  A step records the op, the
tuple of its inputs and the returned value as a read-only ProofStep; the
JSON form, the inputs under their names, waits for serialization, which
builds one result per distinct value object.  A step rebuilt from JSON
keeps the mapping it was given, which replay alone reads by the names.
The sieve rows of one instance and odd prime p share one mod19_forces_p
call: its verdict reads p alone, so ProofTrace.repeat appends the later
rows with it, as step would.  Replay runs solve again on the trace's
header, then compares the steps it took with the trace's (_differences),
so procedures only see the inputs solve computes, never recorded ones.

solve(k) is built from instance proofs: each instance kk <= k, its even
cases then its odd primes, is decided once per process as one block of
steps and solutions (_instance), which solve(k) appends and every later
solve shares.  Replay checks a trace against the same blocks: a trace step
that is the block's own step object passes by identity, as no step can be
edited; any other is checked field by field, so a replaced, moved or edited
copy is still named.

A question whose answer does not depend on the instance is decided once per
process: the 19*Z^2 + 1 = 4*Y^n scan, the mod-19 and power-of-two sieves'
verdicts per p, the fixed pair's primitive-divisor verdicts, the closure for
each p > 13 and the defect table's verdict for each p in NO_DEFECTIVE_PAIR.
Each is one read-only verdict (lucas_engine.shared) that every step and every
solve share, so a trace and its replay in one process hold the same objects.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Iterator
from itertools import compress, count, repeat
from types import MappingProxyType

from . import caseworks
from .caseworks import CaseVerdict
from .equation_model import (
    JSON_INT_LIMIT,
    LNInstance,
    Solution,
    check_D_digits,
    is_solution,
    json_safe,
    theorem_solution_set,
)
from .lucas_engine import (
    FACTORING_BUDGET,
    BhvRoute,
    Frozen,
    LucasPair,
    bhv_gate,
    digit_limit,
    is_probable_prime,
    lucas_u,
    primitive_divisor,
    shared,
    shown,
)
from .oracle import DEFAULT_WINDOW, SearchWindow, brute_force, perfect_root
from .quadratic_integers import QuadInt19, qpow

# Bounds of the pipeline's two bounded searches, recorded as step inputs:
# p3_case's candidate bound and the z bound of the 19*Z^2 + 1 = 4*Y^n scan.
P3_SEARCH_BOUND = 500
LE_Z_MAX = 10**5

# The canonical instance pair (1 +- sqrt(-19))/2, built once for every solve.
INSTANCE_PAIR = LucasPair(1, 5)

# Most steps one solve may record, checked against step_bound before any
# step runs.  solve(49) records 14,153 steps against a bound of 61,981.  The
# cached instance blocks hold at most as many in all (_instance).
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


class ProofStep(tuple):
    """One step: the op, its inputs and the value its procedure returned.

    A step keeps its three fields as given.  solve records the inputs as a
    tuple in the order of the op's names (NAMES); a trace read from JSON
    holds them as a mapping under those names, which replay reads by the
    names (_differences), and anything else stays there for replay to name.
    step.inputs reads a tuple as a read-only mapping under the names;
    unpacking a step gives its three fields as stored, as for any tuple.
    value is the procedure's own return value when the step was recorded,
    and the JSON result when the trace was rebuilt from its JSON form;
    the trace writer alone (jsonable_steps) turns either into the JSON
    result.  A step is read-only, as solve shares each instance's steps
    between every trace that holds them (_instance).  Equality is the
    tuple's, of the three fields; a step may hold a mapping, so no hash.
    """

    __slots__ = ()
    __hash__ = None
    __getnewargs__ = Frozen.__getnewargs__  # copy and pickle through __new__
    op = property(operator.itemgetter(0))
    value = property(operator.itemgetter(2))

    def __new__(cls, op: str, inputs: object, value: object) -> ProofStep:
        return tuple.__new__(cls, (op, inputs, value))

    def __repr__(self) -> str:
        op, inputs, value = self[0], shown(self.inputs), self[2]
        return f"ProofStep(op={op!r}, inputs={inputs}, value={value!r})"

    @property
    def inputs(self) -> object:
        """The inputs under the op's names when they are a tuple of as many
        values as it has, read-only as a dict is; others as they are."""
        op, inputs, _ = self
        names = NAMES.get(op) if type(op) is str else None
        if type(inputs) is tuple and names is not None and len(names) == len(inputs):
            inputs = dict(zip(names, inputs))
        return MappingProxyType(inputs) if type(inputs) is dict else inputs


class ProofTrace:
    """One solve's header (k, n_max and oracle_x_max, the oracle cross-check's
    x bound or None without one), its steps, a new list unless given, and its
    solutions, None until solve sets them."""

    __slots__ = __match_args__ = ("k", "n_max", "steps", "solutions", "oracle_x_max")
    __repr__, __eq__ = Frozen.__repr__, Frozen.__eq__
    _fields = operator.attrgetter(*__match_args__)

    def __init__(self, k, n_max, steps=None, solutions=None, oracle_x_max=None) -> None:
        self.k = k
        self.n_max = n_max
        self.steps = [] if steps is None else steps
        self.solutions = solutions
        self.oracle_x_max = oracle_x_max

    @classmethod
    def from_jsonable(cls, data: dict[str, object]) -> ProofTrace:
        """The trace to_jsonable's form describes, fields as the JSON holds them;
        solutions may be left out, and oracle_x_max unless oracle_checked is true."""
        steps = [ProofStep(s["op"], s["inputs"], s["result"]) for s in data["steps"]]
        sols, x_max = data.get("solutions"), data.get("oracle_x_max")
        if data.get("oracle_checked") is True and x_max is None:
            raise ValueError("oracle_checked is true, yet oracle_x_max is null")
        return cls(data["k"], data["n_max"], steps, sols, x_max)

    @property
    def oracle_checked(self) -> bool:
        """Whether the header asks for the oracle cross-check."""
        return self.oracle_x_max is not None

    def step(self, op: str, *inputs: int) -> object:
        """Run op's procedure (STEPS) on the inputs, in its parameters' order,
        record their tuple and the value it returns as it is, and return it."""
        value = STEPS[op](*inputs)
        # ProofStep(op, inputs, value), without its __new__'s Python call
        self.steps.append(tuple.__new__(ProofStep, (op, inputs, value)))
        return value

    def repeat(self, op: str, value: object, inputs: Iterable[tuple[int, ...]]) -> None:
        """Append one step of op per inputs tuple, each holding value: what
        step records when op's procedure returns that very object for each."""
        rows = zip(repeat(op), inputs, repeat(value))
        self.steps.extend(map(tuple.__new__, repeat(ProofStep), rows))

    def find(self, op: str) -> list[ProofStep]:
        return [s for s in self.steps if s.op == op]

    def replay(self) -> list[str]:
        """How the trace differs from solve's proof, empty exactly when it is
        that proof: solve run again on its header, then its steps compared
        with the trace's (_differences).  The header must be three ints
        (oracle_x_max may be None); one that solve refuses is one entry,
        after those of the steps solve took before it refused.  Solutions
        are checked unless None."""
        for name in ("k", "n_max", "oracle_x_max"):
            v = getattr(self, name)
            if type(v) is not int and not (v is None and name == "oracle_x_max"):
                return [f"header: {name}={shown(v)} is not an integer"]
        proof = ProofTrace(self.k, self.n_max, oracle_x_max=self.oracle_x_max)
        try:
            sols = _prove(proof)
        except ValueError as exc:
            bad = _differences(proof.steps, self.steps, whole=False)
            return [*bad, f"solve refuses the header: {exc}"]
        bad = _differences(proof.steps, self.steps, whole=True)
        kept = self.solutions
        if kept is not None and sols != kept and not _same_form(json_safe(sols), kept):
            held = f"{len(kept)} are" if type(kept) is list else f"{shown(kept)} is"
            bad.append(f"solutions: the trace's {held} not solve's {len(sols)}")
        return bad

    def jsonable_steps(self) -> Iterator[dict[str, object]]:
        """Each step as {"op", "inputs", "result"}, the one place a step becomes
        JSON: result is json_safe(value), once per distinct value (to_jsonable);
        inputs, a tuple of numbers under 2^53 in all, under the op's names, or
        else json_safe(step.inputs).  An op outside STEPS or a non-number raises."""
        results: dict[int, object] = {}
        for step in self.steps:
            op, inputs, value = step
            names = NAMES[op]
            small = type(inputs) is tuple and sum(map(abs, inputs)) < JSON_INT_LIMIT
            small = small and len(inputs) == len(names)
            result = results.get(id(value))
            if result is None:
                result = results[id(value)] = json_safe(value)
            inputs = dict(zip(names, inputs)) if small else json_safe(step.inputs)
            yield {"op": op, "inputs": inputs, "result": result}

    def to_jsonable(self) -> dict[str, object]:
        """The trace as JSON, its steps from jsonable_steps: steps that share
        a value object share one result dict, so treat the output as
        read-only input to json.dumps."""
        return {
            "k": self.k,
            "n_max": self.n_max,
            "oracle_checked": self.oracle_checked,
            "oracle_x_max": self.oracle_x_max,
            "solutions": json_safe(self.solutions),
            "steps": list(self.jsonable_steps()),
        }


def _differences(mine: list[ProofStep], theirs: list, whole: bool) -> list[str]:
    """How the trace's steps (theirs) differ from the steps solve took (mine),
    one entry per step, naming its index and solve's op.  A trace step that
    is solve's very step object (from an instance block) passes at once:
    steps are read-only, so it holds what solve records there.  Any other
    must have solve's op and inputs (an equal tuple of ints, one C compare,
    or the writer's JSON form of them; a mapping whose keys are the op's
    names is read as the tuple of its values in their order, the one place
    a recorded mapping is read), and the value of solve's procedure
    on them: the same object (a shared verdict, no __eq__ call), an equal
    one of the same type, or the writer's JSON form of it, built once per
    object and matched type for type (_same_form).  Each step of solve's
    past the trace's end is missing from it; when solve's proof is whole, a
    longer trace's next step is named too."""
    bad: list[str] = []
    ints = frozenset({int})
    encoded: dict[int, object] = {}  # id(value) -> its JSON form; mine holds value
    # the indices where the two hold different objects, found at C speed
    for i in compress(count(), map(operator.is_not, mine, theirs)):
        op, inputs, value = mine[i]
        recorded_op, recorded, recorded_value = theirs[i]
        names = NAMES[op]
        if type(recorded) in (dict, MappingProxyType) and recorded.keys() == names:
            recorded = tuple(map(recorded.__getitem__, names))
        if recorded_op != op or not (
            recorded == inputs and ints.issuperset(map(type, recorded))
            or type(recorded) is tuple and _same_form(json_safe(inputs), [*recorded])
        ):
            bad.append(
                f"step {i} {op}: solve passes {shown(mine[i].inputs)}, the "
                f"trace records {shown(recorded_op)} {shown(theirs[i].inputs)}"
            )
        elif value is not recorded_value and not (
            type(value) is type(recorded_value) and value == recorded_value
        ):
            if id(value) not in encoded:
                encoded[id(value)] = json_safe(value)
            if not _same_form(encoded[id(value)], recorded_value):
                bad.append(f"step {i} {op}: value differs")
    for i in range(len(theirs), len(mine)):
        bad.append(f"step {i} {mine[i].op}: missing from the trace")
    if whole and len(theirs) > len(mine):
        i = len(mine)
        bad.append(f"step {i} {theirs[i].op}: past the end of solve's proof")
    return bad


def _same_form(form: object, recorded: object) -> bool:
    """Whether recorded is form, a JSON form json_safe built, type for type,
    as reading the writer's JSON back gives it: true, 1, 1.0 and "1" all
    differ, and so do a dict and a MappingProxyType."""
    if type(recorded) is not type(form):
        return False
    if type(form) is list:
        return len(recorded) == len(form) and all(map(_same_form, form, recorded))
    if type(form) is dict:
        values = map(recorded.__getitem__, form)
        return recorded.keys() == form.keys() and all(
            map(_same_form, form.values(), values)
        )
    return recorded == form


@shared
def always_primitive_closure(p: int) -> CaseVerdict:
    """u_p has a primitive divisor for every Lucas pair when p > 13 is prime
    (Bilu-Hanrot-Voutier, cited), so u_p = +-1 is impossible.  Cached
    itself, as its check reads only p: every instance shares one verdict."""
    if p <= 13 or not is_probable_prime(p):
        raise ValueError(f"p must be a prime above 13, got {p}")
    return CaseVerdict(
        caseworks.OUTCOME_CONTRADICTION,
        reason=f"u_{p} has a primitive divisor for every Lucas pair (p > 13), "
        f"contradicting u_p = +-1",
    )


# p -> the verdict, shared by every k, that no pair of the required shape is
# defective for p (only p = 7 has one), with the reason why
NO_DEFECTIVE_PAIR = {
    p: CaseVerdict(caseworks.OUTCOME_CONTRADICTION, reason=reason)
    for p, reason in (
        (5, "no defective pair of the required shape exists for p = 5"),
        (11, "no defective pair exists for p = 11"),
        (13, "the only defective pair for p = 13 lies in Q(sqrt(-7)), "
             "not Q(sqrt(-19))"),
    )
}


def defect_table_route(p: int, k: int) -> CaseVerdict:
    """Defective-pair tables for p in {5, 7, 11, 13} (classification cited):
    only p = 7 admits a pair of the required shape (a + 19^k*sqrt(-19))/2,
    namely a = +-1 with k = 0; NO_DEFECTIVE_PAIR holds the verdict, and the
    reason, for each of the others.
    """
    if p != 7 and p not in NO_DEFECTIVE_PAIR:
        raise ValueError(f"defect table covers p in {{5, 7, 11, 13}}, got {p}")
    LNInstance(k)  # refuses a negative k
    if p in NO_DEFECTIVE_PAIR:
        return NO_DEFECTIVE_PAIR[p]
    if k != 0:
        reason = f"the defective pair for p = 7 requires k = 0, got k = {k}"
        return CaseVerdict(caseworks.OUTCOME_CONTRADICTION, reason=reason)
    return CaseVerdict(
        caseworks.OUTCOME_FORCED,
        assignments=(("a", 1), ("k", 0)),
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
            check = {"check": "qpow", "a": a, "b": b, "A": w.a, "B": w.b}
            trace.append(MappingProxyType(check))
            if w.b == 19**k and w.a > 0:
                y = QuadInt19(a, b).norm
                sols.append(Solution(w.a, y, p))
    for s in sols:
        assert is_solution(LNInstance(k), *s.as_tuple())
    return CaseVerdict(caseworks.OUTCOME_SOLUTIONS, solutions=sols, trace=trace)


def _odd_prime_solutions(kk: int, p: int, trace: ProofTrace) -> list[Solution]:
    """Solutions of instance kk with n = p odd prime and 19 coprime to x."""
    # b = +-19^t with t < kk: the mod-19 and mod-2^(s+1) sieves (solve(49)
    # takes 12,299 steps here).  mod19_forces_p reads p alone, so once it
    # rules p out, the rows of every later t hold that one verdict
    step, contradiction = trace.step, caseworks.OUTCOME_CONTRADICTION
    for t in range(kk):
        verdict = step("mod19_forces_p", kk, t, p)
        if verdict.outcome == contradiction:
            rows = zip(repeat(kk), range(t + 1, kk), repeat(p))
            trace.repeat("mod19_forces_p", verdict, rows)
            break
        if step("mod19_forces_kt", kk, t).outcome == contradiction:
            continue
        step("mod_pow2_insoluble", 19, t)
    # b = +-19^k: the Lucas route through u_p = +-1
    pair = INSTANCE_PAIR
    route = trace.step("bhv_gate", pair.P, pair.Q, p)
    if route is BhvRoute.ALWAYS_PRIMITIVE:
        trace.step("always_primitive_closure", p)
        return []
    if route is BhvRoute.SMALL_PRIME:
        trace.step("p3_case", kk, P3_SEARCH_BOUND)
        return []
    # CheckDefectTable: p in {5, 7, 11, 13}, routed by the table's verdict;
    # the Lucas values recorded on the way must agree with the route taken
    if p in NO_DEFECTIVE_PAIR:
        found = trace.step("primitive_divisor", pair.P, pair.Q, p, FACTORING_BUDGET)
        if not found.exists:
            raise RuntimeError(f"{pair} is not defective for p = {p}, yet {found}")
    verdict = trace.step("defect_table", p, kk)
    if verdict.outcome == caseworks.OUTCOME_CONTRADICTION:
        return []
    u = trace.step("lucas_u", pair.P, pair.Q, p)["value"]
    found = trace.step("primitive_divisor", pair.P, pair.Q, p, FACTORING_BUDGET)
    if abs(u) != 1 or found.exists:
        raise RuntimeError(f"{pair} is defective for p = {p}, yet u_{p} = {u}, {found}")
    return list(trace.step("defective_pair_expansion", kk, p).solutions)


def _primitive_solutions(kk: int, n_max: int, trace: ProofTrace) -> list[Solution]:
    """All solutions of instance kk with 2 <= n <= n_max and 19 coprime to x."""
    inst = LNInstance(kk)
    primes, least = _odd_primes(n_max)
    sols: list[Solution] = []
    for m in range(1, n_max // 2 + 1):
        sols.extend(trace.step("even_case", kk, m).solutions)
    by_prime = {p: _odd_prime_solutions(kk, p, trace) for p in primes}
    for n, p in least:
        j = n // p
        for s in by_prime[p]:
            if j == 1:
                sols.append(s)
                continue
            # a solution for n = p*j needs y^j to hit the y-value found at p
            root = trace.step("composite_lift", s.y, j, n)["root"]
            if root is not None:
                sols.append(Solution(s.x, root, n))
    for s in sols:
        assert is_solution(inst, *s.as_tuple())
    return sols


@shared
def _odd_primes(n_max: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The odd primes <= n_max, and each odd n <= n_max with its least prime
    factor, one of those primes: one table per n_max for every instance."""
    primes = tuple(p for p in range(3, n_max + 1, 2) if is_probable_prime(p))
    least = tuple(
        (n, next(p for p in primes if n % p == 0)) for n in range(3, n_max + 1, 2)
    )
    return primes, least


# steps the cached instance blocks hold in all, at most STEP_BUDGET (_instance)
_held = 0


@shared
def _instance(
    kk: int, n_max: int, limit: int
) -> tuple[tuple[ProofStep, ...], tuple[Solution, ...]]:
    """Instance kk's block: the steps _primitive_solutions records for it, its
    even cases then its odd primes, and its solutions, decided once per
    process and shared, read-only, by every trace and replay that holds them.

    The key is all its steps read but constants: kk, n_max, and the digit
    limit (limit, read by digit_limit) their refusals were checked under, so
    no block comes back under a limit it was not checked under.  The blocks
    hold at most STEP_BUDGET steps in all: one that would take them past it
    empties the cache first.  _held counts them, from 0 whenever the cache
    is found empty; an entry the cache drops at VERDICT_CACHE_SIZE stays
    counted, so the count is never below what the blocks hold.
    """
    global _held
    record = ProofTrace(kk, n_max)
    sols = _primitive_solutions(kk, n_max, record)
    steps = tuple(record.steps)
    held = _held if _instance.cache_info().currsize else 0
    if held + len(steps) > STEP_BUDGET:
        _instance.cache_clear()
        held = 0
    _held = held + len(steps)
    return steps, tuple(sols)


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
    n_max: int = DEFAULT_WINDOW.n_max,
    oracle_x_max: int = DEFAULT_WINDOW.x_max,
    *,
    cross_check: bool = True,
) -> tuple[list[Solution], ProofTrace]:
    """Complete solution set for 2 <= n <= n_max plus a replayable proof trace.

    Raises OracleMismatchError when the brute-force cross-check (over
    x <= oracle_x_max) disagrees with the pipeline; RuntimeError when the
    19*Z^2 + 1 = 4*Y^n scan finds a witness, a lift by 19^s is not reduced
    to k - s, or a recorded Lucas verdict contradicts the defect table's
    route for p; and ValueError before any step runs when step_bound(k,
    n_max) exceeds STEP_BUDGET, 19^(2k+1), which the trace writes, is over
    check_D_digits, or the cross-check's SearchWindow is invalid.
    """
    trace = ProofTrace(k, n_max, oracle_x_max=oracle_x_max if cross_check else None)
    return _prove(trace), trace


def _prove(trace: ProofTrace) -> list[Solution]:
    """solve's run on the trace's header; sets trace.solutions and returns them."""
    k, n_max, oracle_x_max = trace.k, trace.n_max, trace.oracle_x_max
    inst = LNInstance(k)
    bound = step_bound(k, n_max)
    if bound > STEP_BUDGET:
        raise ValueError(
            f"solve(k={shown(k)}, n_max={shown(n_max)}) may take up to "
            f"{shown(bound)} steps, over the step budget of {STEP_BUDGET}"
        )
    check_D_digits(k)
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    if oracle_x_max is not None:
        SearchWindow(k, 2, n_max, oracle_x_max)
    # close the two symbolic 19|x branches that do not reduce: both land on
    # 19*Z^2 + 1 = 4*Y^n (a bounded scan that raises on a witness; the rest cited)
    trace.step("no_19z2_solutions", max(3, min(n_max, 20)), LE_Z_MAX)
    # each instance kk <= k: its block, as _instance shares it
    limit = digit_limit()
    primitive = []
    for kk in range(k + 1):
        steps, sols = _instance(kk, n_max, limit)
        trace.steps.extend(steps)
        primitive.append(sols)
    full = list(primitive[k])
    for s_val in range(1, k + 1):
        kk = k - s_val
        for sol in primitive[kk]:
            if (2 * s_val) % sol.n != 0:
                continue
            t = 2 * s_val // sol.n
            verdict = trace.step(
                "valuation_trichotomy", k, s_val, t, sol.x, sol.y, sol.n
            )
            # 2s = t*n < 2k+1 always reduces; x and y stay out (too long to write)
            if (verdict.outcome, verdict.reduced_k) != (caseworks.OUTCOME_REDUCED, kk):
                raise RuntimeError(
                    f"valuation_trichotomy(s={s_val}, t={t}, n={sol.n}) does not "
                    f"reduce to k - s = {kk}: {verdict.outcome} {verdict.reason!r}"
                )
            lifted = Solution(19**s_val * sol.x, 19**t * sol.y, sol.n)
            assert is_solution(inst, *lifted.as_tuple())
            full.append(lifted)
    full.sort(key=lambda s: s.sort_key)
    if oracle_x_max is not None:
        found = trace.step("oracle_cross_check", k, 2, n_max, oracle_x_max)["solutions"]
        mine = [s for s in full if s.x <= oracle_x_max]
        if set(found) != set(mine):
            raise OracleMismatchError(k, set(mine) - set(found), set(found) - set(mine))
    trace.solutions = full
    return full


def verify_solution_completeness(
    k: int, window: SearchWindow
) -> tuple[bool, dict[str, object]]:
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
    return ok, json_safe(report)


# op name -> its procedure, whose parameters are the op's input names in the
# order a step records them (NAMES), so each name is written once.  Each
# procedure looks its function up when called, so a name rebound on its
# module (a test double, a profiler) is what runs.  Replay checks the inputs
# a procedure does not read like the rest.
STEPS: dict[str, Callable[..., object]] = {
    "no_19z2_solutions": lambda n_max, z_max: caseworks.no_19z2_solutions(n_max, z_max),
    "even_case": lambda k, m: caseworks.even_case(k, m),
    "mod19_forces_p": lambda k, t, p: caseworks.mod19_forces_p(p),
    "mod19_forces_kt": lambda k, t: caseworks.mod19_forces_kt(k, t),
    "mod_pow2_insoluble": lambda p, t: caseworks.mod_pow2_insoluble(p, t),
    "bhv_gate": lambda P, Q, p: bhv_gate(p),
    "always_primitive_closure": lambda p: always_primitive_closure(p),
    "p3_case": lambda k, search_bound: caseworks.p3_case(k, search_bound),
    "primitive_divisor": lambda P, Q, n, factoring_budget: primitive_divisor(
        LucasPair(P, Q), n, factoring_budget
    ),
    "defect_table": lambda p, k: defect_table_route(p, k),
    "lucas_u": lambda P, Q, n: MappingProxyType({"value": lucas_u(LucasPair(P, Q), n)}),
    "defective_pair_expansion": lambda k, p: defective_pair_expansion(k, p),
    "composite_lift": lambda y, j, n: MappingProxyType({"root": perfect_root(y, j)}),
    "valuation_trichotomy": lambda k, s, t, X, Y, n: caseworks.valuation_trichotomy(
        k, s, t, X, Y, n
    ),
    "oracle_cross_check": lambda k, n_min, n_max, x_max: MappingProxyType(
        {"solutions": tuple(brute_force(SearchWindow(k, n_min, n_max, x_max)))}
    ),
}
# op name -> its input names, its procedure's parameters in order, as keys
# that a mapping's keys equal
NAMES = {
    op: dict.fromkeys(f.__code__.co_varnames[: f.__code__.co_argcount]).keys()
    for op, f in STEPS.items()
}
