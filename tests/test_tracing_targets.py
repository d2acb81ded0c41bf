"""The names perfbench/tracing.py rebinds must exist in ln_kit.

A traced run wraps each name in TARGETS and CLI_TARGETS on its module and
reports the ones it cannot find; a renamed function would silently lose its
per-layer span.  The module is read and executed here without being
imported, so nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# caseworks has not looked up isqrt since the oracle took over its scans
KNOWN_STALE = {"ln_kit.caseworks.isqrt"}


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_exists_in_ln_kit():
    tracing = load_tracing()
    targets = tracing.TARGETS + tracing.CLI_TARGETS
    missing = {
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing <= KNOWN_STALE
    assert len(targets) > len(KNOWN_STALE)
