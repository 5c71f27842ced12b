"""Run one invhom CLI job in this fresh interpreter and report on it.

Usage: python3 perfbench/job.py TRACE ARGV...

TRACE is 0 or 1.  The CLI's report goes to stdout unchanged.  After it,
one line starting with MARKER carries a JSON record: the monotonic time
at which the CLI entry point was about to be called, the wall and CPU
seconds of ``invhom.cli.main``, its exit code, the process's peak
resident set, and with tracing on, the spans, self times and counts.
"""

import sys
import time

MARKER = "\x00perfbench-record "


def run(trace, argv):
    from invhom.cli import main as cli_main
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = cli_main(argv)
    sys.stdout.flush()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    import json
    import resource
    record = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "exit": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["self_s"] = tracer.self_times()
        record["counts"] = tracer.counts
        record["spans"] = tracer.spans
    sys.stdout.write(MARKER + json.dumps(record) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    run(sys.argv[1] == "1", sys.argv[2:])
