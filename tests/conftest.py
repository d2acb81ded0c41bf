import importlib
import json
import math
import pkgutil

import pytest

import ln_kit
from ln_kit.solver import ProofTrace


def package_modules():
    # __main__ is left out: importing it runs the CLI
    for info in pkgutil.iter_modules(ln_kit.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"ln_kit.{info.name}")


def package_caches():
    """Every function of ln_kit, at module level or in a class, that has
    cache_info."""
    found = {}
    for module in package_modules():
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else ()
            named = [(name, value), *((f"{name}.{m}", x) for m, x in members)]
            for qualname, v in named:
                if hasattr(v, "cache_info"):
                    found[id(v)] = (f"{module.__name__}.{qualname}", v)
    return dict(found.values())


# every verdict cache of the package, found once
VERDICT_CACHES = tuple(package_caches().values())


def clear_caches():
    """Empty every verdict cache, the solver's instance blocks among them."""
    for cache in VERDICT_CACHES:
        cache.cache_clear()


def rebuilt_from_json(trace):
    """The trace as a reader of its JSON form rebuilds it."""
    return ProofTrace.from_jsonable(json.loads(json.dumps(trace.to_jsonable())))


@pytest.fixture(autouse=True)
def fresh_verdicts():
    """Each test starts with every verdict cache empty, so a verdict an
    earlier test computed (or planted through a patched scan) never stands
    in for the procedure a test runs."""
    clear_caches()


def _imag_binomial_sum(a, b, p):
    """S = sum_{r=0}^{(p-1)/2} C(p, 2r+1) * a^(p-2r-1) * (-19)^r * b^(2r).

    The binomial expansion of the p-th power in Z[(1+sqrt(-19))/2] (cf.
    Cohn, Acta Arith. 65, 1993): for odd a, b and odd prime p,
    b*S == 2^(p-1) * B where (A, B) = qpow(QuadInt19(a, b), p).
    """
    return sum(
        math.comb(p, 2 * r + 1) * a ** (p - 2 * r - 1) * (-19) ** r * b ** (2 * r)
        for r in range((p + 1) // 2)
    )


@pytest.fixture
def imag_binomial_sum():
    """The expansion above, the reference the tests check qpow against."""
    return _imag_binomial_sum
