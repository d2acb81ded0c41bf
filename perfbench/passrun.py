"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/passrun.py '<json spec>'

The spec names the workload, seed, pass id, whether to trace, and whether to
run the JSON round-trip replay check.  The pass times ``import ln_kit`` plus
the package's lazy set-up, runs the workload's ops, gates every output and
prints one JSON object on its last stdout line.  With ``"selftest": true``
it runs the gate self-test instead.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import speedprobe


def main() -> int:
    spec = json.loads(sys.argv[1])
    traced = spec.get("traced", False)
    pinned = speedprobe.pin_to_fastest_cpu()
    setup_probe = [speedprobe.probe()]
    t0 = time.perf_counter()
    import ln_kit.lucas_engine as lucas_engine

    tracer, missing = None, []
    if traced:
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer, tracing.TARGETS)
        setup_span = tracer.open("setup", t0)
    # lazy set-up a first op would otherwise pay: the trial-division sieve
    lucas_engine.primitive_divisor(lucas_engine.LucasPair(1, 5), 5)
    setup_s = time.perf_counter() - t0
    setup_probe.append(speedprobe.probe())
    if traced:
        tracer.close(setup_span)

    import workloads

    p = workloads.Pass(spec, tracer, dict(os.environ))
    if spec.get("selftest"):
        problems = workloads.selftest(p)
        print(json.dumps({"problems": problems, "records": p.records}))
        return 0

    after_ops = workloads.WORKLOADS[spec["workload"]](p)
    who = resource.RUSAGE_CHILDREN if spec["workload"] == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if after_ops is not None:
        after_ops()

    wall_s = sum(r["latency_s"] for r in p.records if r["timed"])
    result = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "records": p.records,
        "fingerprint": p.fingerprint,
        "stdout_bytes": p.stdout_bytes,
        "pinned": pinned,
    }
    if traced:
        scan_n2_s, scan_n3up_s = workloads.decompose_scans(p.windows)
        layers, replay_missing = tracing.layer_metrics(tracer.spans, p.op_roots, p.steps)
        layers.update(
            {
                "oracle.scan_n2_s": scan_n2_s,
                "oracle.scan_n3up_s": scan_n3up_s,
                "solver.trace_bytes": p.trace_bytes,
            }
        )
        # only the pass that ran the JSON round-trip check reports its time
        for s in tracer.spans:
            if s[0] == "solver.replay_json":
                layers["solver.replay_json.busy_s"] = s[2] - s[1]
        result.update(
            {
                "layers": layers,
                "replay_missing": replay_missing,
                "missing_targets": missing,
                "self_sum_s": tracing.self_time_sum(tracer.spans, p.op_roots),
                "spans": tracer.spans,
            }
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
