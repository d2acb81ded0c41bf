"""Run one ln-kit CLI command with spans, for the traced cli_cold pass.

Usage: python3 perfbench/cli_child.py <spans.json> <ln-kit arguments...>

Behaves like ``python -m ln_kit <arguments>`` (same stdout and exit code)
after rebinding the names ln_kit.cli and ln_kit.solver look up, and writes
the recorded spans to the given file.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    root = tracer.open("cli.main")
    import ln_kit.cli

    tracing.install(tracer, tracing.TARGETS + tracing.CLI_TARGETS)
    try:
        rc = ln_kit.cli.main(sys.argv[2:])
    finally:
        tracer.close(root)
        sys.stdout.flush()
        with open(sys.argv[1], "w") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
