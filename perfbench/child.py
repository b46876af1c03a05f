"""One cold run of a workload in a fresh interpreter; spawned by run.py.

Usage: child.py WORKLOAD SEED MODE TINY SPANS_FILE

MODE is ``setup`` (import the library and stop), ``plain`` (run the
workload), ``probe`` (run it with the speed probe of ``probe.py``) or
``trace`` (run it with every layer traced and write the spans to
SPANS_FILE).  Prints one JSON line: the monotonic clock reading when the
import returned, and for a run the wall time of the operations, peak
resident memory, each operation's outcome and time ("s", without the
probe's samples), the probe's sample times when probed and, when traced,
the span summary.
"""

import time

import ellipmono
import ellipmono.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402  (after the timed import)
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> None:
    workload, seed, mode, tiny, spans_file = argv
    result = {"imported_at": IMPORTED_AT}
    if mode != "setup":
        ops = workloads.build(workload, int(seed), ellipmono, tiny == "1")
        tracer = sampler = None
        if mode == "trace":
            import spans
            tracer = spans.install()
        elif mode == "probe":
            import probe
            sampler = probe.Probe()
            sampler.start()
        outcomes = []
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = i
            t = time.perf_counter()
            probed = sampler.total if sampler is not None else 0.0
            try:
                out = op.run()
            except Exception as exc:  # reported as a failed operation
                out = {"error": f"{type(exc).__name__}: {exc}"}
            out["s"] = time.perf_counter() - t
            if sampler is not None:
                out["s"] -= sampler.total - probed
            outcomes.append(out)
        if sampler is not None:
            sampler.stop()
        wall = time.perf_counter() - t0
        if sampler is not None:
            wall -= sampler.total
            result["probe_s"] = sampler.times
        result.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            outcomes=outcomes)
        if tracer is not None:
            result["trace"] = tracer.summary(wall)
            tracer.write(spans_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
