"""Cold-start CLI benchmark for invhom.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job of the workload runs in its own fresh interpreter (job.py), one
at a time, driven by this single closed-loop caller.  Every job runs
twice, back to back: on the program under test (src/invhom) and on
baseline/invhom, a frozen copy of it.  Which side goes first alternates
from job to job.  A pass runs every job once, in an order drawn from the
seed.  Whole passes repeat until S seconds have gone by, so a run lasts S
seconds plus at most one pass.  Every answer is checked against values
computed without invhom (answers.py), and every job's report bytes must
be the same in every pass.

The machine's speed drifts by 10-25 % over seconds to minutes, so every
time reported is scaled to a fixed speed: measured seconds times the
baseline's NOMINAL seconds over the baseline's seconds measured in the
same pass.  The baseline runs the same kind of code, so it slows down
with the program; see README.md for the measurements behind this.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are pass_s,
setup_s and peak_rss_mb; with ``--trace 1`` they are the per-layer
metrics of the traced run.  Per-job details go to perfbench-result.json,
and the spans of a traced run, one line per job, to perfbench-trace.jsonl,
both at the root of the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline"
RESULT = ROOT / "perfbench-result.json"
TRACE = ROOT / "perfbench-trace.jsonl"
JOB_TIMEOUT_S = 60

# The baseline's seconds for one pass of each workload, and for starting
# one job, on the machine this benchmark was written on (2 vCPUs of a
# 2.1 GHz Xeon, Python 3.11): medians of ten unscaled runs.
NOMINAL_PASS_S = {"betti-q": 19.5, "betti-fp": 12.0, "collapse": 8.35}
NOMINAL_SETUP_S = 0.063

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from job import MARKER  # noqa: E402

PER_LAYER = [
    "linalg.rank.calls", "linalg.rank.s", "linalg.rank.cols",
    "linalg.rank.nnz", "linalg.span.calls", "linalg.span.s",
    "linalg.matmul.calls", "linalg.matmul.s", "linalg.quotient.s",
    "homology.complex.s", "homology.complex.cols", "homology.boundary.nnz",
    "homology.module.calls", "homology.module.s",
    "monoids.from_table.calls", "monoids.from_table.s",
    "algebras.algebra.calls", "algebras.algebra.s", "algebras.hochschild.s",
    "algebras.hochschild.cols", "algebras.separable.s",
    "crossed.crossed_product.calls", "crossed.crossed_product.s",
    "crossed.l_mult.calls", "crossed.validate_action.calls",
    "crossed.validate_action.s", "crossed.coinvariants.s",
    "groupoids.bisections.calls", "groupoids.bisections.s",
    "groupoids.psi.s", "groupoids.steinberg_algebra.calls",
    "serialize.resolve.s", "cli.emit.s",
]


def run_job(job, seed, trace, path=SRC):
    """Run one job in a fresh interpreter that imports invhom from ``path``."""
    cmd = [sys.executable, str(BENCH / "job.py"), "1" if trace else "0",
           *job.argv, "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(path))
    out = {"job": job.name, "ok": False, "wrong": False}
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out["reason"] = f"timed out after {JOB_TIMEOUT_S} s"
        return out
    report, sep, rec = stdout.partition(MARKER.encode())
    if proc.returncode != 0 or not sep:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        out["reason"] = f"job process exited {proc.returncode}: {tail}"
        return out
    record = json.loads(rec)
    out.update(setup_s=record["ready"] - spawn, wall_s=record["wall_s"],
               cpu_s=record["cpu_s"], peak_rss_mb=record["peak_rss_kb"] / 1024,
               report=report)
    for key in ("self_s", "counts", "spans"):
        if key in record:
            out[key] = record[key]
    if record["exit"] != 0:
        out["reason"] = f"invhom exited {record['exit']}"
        return out
    reason = workloads.check(job, report)
    if reason is not None:
        out["wrong"] = True
        out["reason"] = reason
        return out
    out["ok"] = True
    return out


def run_pair(job, seed, trace, baseline_first):
    """The job on the program under test, next to it on the baseline."""
    if baseline_first:
        base = run_job(job, seed, 0, BASELINE)
        r = run_job(job, seed, trace)
    else:
        r = run_job(job, seed, trace)
        base = run_job(job, seed, 0, BASELINE)
    r["baseline"] = {k: base[k] for k in ("ok", "reason", "wall_s", "setup_s")
                     if k in base}
    return r


def run_passes(jobs, seed, seconds, spans_out=None):
    """Whole passes over ``jobs`` until ``seconds`` have gone by.

    Which side of a pair runs first alternates from job to job.  With
    ``spans_out`` set, the jobs are traced: each job's spans are written
    there as one JSON line once the job has ended, and dropped from memory.
    """
    trace = spans_out is not None
    rng = random.Random(seed)
    first_report = {}
    passes = []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        results = []
        for i, job in enumerate(rng.sample(jobs, len(jobs))):
            r = run_pair(job, seed, trace, (i + len(passes)) % 2 == 1)
            results.append(r)
            spans = r.pop("spans", None)
            if spans is not None:
                t0 = spans[0][1] if spans else 0
                spans_out.write(json.dumps({
                    "pass": len(passes), "job": r["job"],
                    "spans": [[name, begin - t0, end - t0, parent]
                              for name, begin, end, parent in spans]}))
                spans_out.write("\n")
            if "report" not in r:
                continue
            if first_report.setdefault(r["job"], r["report"]) != r["report"]:
                r.update(ok=False, wrong=True,
                         reason="report bytes differ from the first pass")
        passes.append(results)
    return passes


def tally(passes):
    """Operations attempted and failed; correct unless an answer was wrong."""
    results = [r for rs in passes for r in rs]
    return {"correct": not any(r["wrong"] for r in results),
            "attempted": len(results),
            "failed": sum(not r["ok"] for r in results)}


def _pass_sum(results, value):
    return sum(value(r) for r in results if "wall_s" in r)


def _speed_scale(results, workload):
    """Turns seconds of this pass into seconds at the reference speed."""
    return NOMINAL_PASS_S[workload] / sum(r["baseline"]["wall_s"]
                                          for r in results)


def end_to_end(passes, workload):
    done = [r for results in passes for r in results if "wall_s" in r]
    return {
        "pass_s": {"value": statistics.median(
            _speed_scale(results, workload)
            * _pass_sum(results, lambda r: r["wall_s"])
            for results in passes), "unit": "s"},
        "setup_s": {"value": NOMINAL_SETUP_S * statistics.median(
            r["setup_s"] / r["baseline"]["setup_s"] for r in done),
            "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in done),
                        "unit": "MB"},
    }


def per_layer(passes, workload):
    """Each layer metric summed over a pass, then the median over passes."""
    metrics = {}
    for name in PER_LAYER + ["trace.pass_s"]:
        if name == "trace.pass_s":
            value = lambda r: r["wall_s"]  # noqa: E731
        elif name.endswith(".s"):
            layer = name[:-2]
            value = lambda r: r["self_s"].get(layer, 0.0)  # noqa: E731
        else:
            value = lambda r: r["counts"].get(name, 0)  # noqa: E731
        if name.endswith((".s", "_s")):
            unit = "s"
            per_pass = [_speed_scale(rs, workload) * _pass_sum(rs, value)
                        for rs in passes]
        else:
            unit = "count"
            per_pass = [_pass_sum(rs, value) for rs in passes]
        metrics[name] = {"value": statistics.median(per_pass), "unit": unit}
    return metrics


def write_result(args, passes, metrics):
    details = [{"pass": p, **{k: v for k, v in r.items() if k != "report"}}
               for p, results in enumerate(passes) for r in results]
    with open(RESULT, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "passes": len(passes), "metrics": metrics,
                   "jobs": details}, fh, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "invhom" / "cli.py").is_file():
        print(f"error: no invhom sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once, untimed, as an installed package would be.
    for path in (SRC, BASELINE):
        compileall.compile_dir(str(path / "invhom"), quiet=1)

    jobs = workloads.WORKLOADS[args.workload]()
    if args.trace:
        with open(TRACE, "w", encoding="utf-8") as spans_out:
            passes = run_passes(jobs, args.seed, args.seconds, spans_out)
    else:
        passes = run_passes(jobs, args.seed, args.seconds)
    results = [r for rs in passes for r in rs]
    for r in results:
        if not r["ok"]:
            print(f"FAILED {r['job']}: {r['reason']}", file=sys.stderr)
    if not any("wall_s" in r for r in results):
        print("error: no job produced a record", file=sys.stderr)
        return 1
    bad = [r for r in results if not r["baseline"].get("ok")]
    if bad:
        print(f"error: the baseline failed {bad[0]['job']}: "
              f"{bad[0]['baseline'].get('reason')}", file=sys.stderr)
        return 1
    metrics = (per_layer(passes, args.workload) if args.trace
               else end_to_end(passes, args.workload))
    write_result(args, passes, metrics)
    print(json.dumps({**tally(passes), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
