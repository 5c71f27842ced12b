"""The benchmark's job lists and the independent check of each answer.

A job is one ``invhom`` command line plus the answer it must give, which
``answers`` computes without invhom.  ``check`` returns None when the
report bytes carry that answer and a reason otherwise.
"""

from __future__ import annotations

import json

import answers


def _field_char(token):
    return 0 if token == "q" else int(token[3:])


class Job:
    """One CLI invocation and the answer its report must carry."""

    def __init__(self, argv, expected):
        self.argv = argv
        self.expected = expected

    @property
    def name(self):
        return " ".join(self.argv)


def betti_job(command, k, module, field, max_deg):
    argv = [command, "--monoid", f"i:{k}", "--module", module,
            "--field", field, "--max-degree", str(max_deg), "--format", "json"]
    return Job(argv, answers.monoid_betti(k, module, _field_char(field),
                                          max_deg))


def verify_job(target, option, spec, field, max_deg):
    argv = ["verify", target, option, spec, "--field", field,
            "--max-degree", str(max_deg), "--format", "json"]
    char = _field_char(field)
    if target.startswith("steinberg-"):
        expected = answers.steinberg_hochschild(spec, char, max_deg)
    else:
        expected = answers.separable_hochschild(spec, char, max_deg)
    return Job(argv, expected)


def _betti_q():
    jobs = []
    for command in ("homology", "cohomology"):
        for module in ("trivial-ke", "regular-ks"):
            jobs.append(betti_job(command, 2, module, "q", 3))
            if (command, module) != ("cohomology", "regular-ks"):
                jobs.append(betti_job(command, 3, module, "q", 1))
    return jobs


def _betti_fp():
    jobs = []
    for field in ("fp:2", "fp:3"):
        for command in ("homology", "cohomology"):
            jobs.append(betti_job(command, 2, "trivial-ke", field, 3))
            jobs.append(betti_job(command, 3, "trivial-ke", field, 1))
    jobs.append(betti_job("homology", 2, "regular-ks", "fp:2", 3))
    jobs.append(betti_job("homology", 3, "regular-ks", "fp:2", 1))
    jobs.append(betti_job("cohomology", 2, "regular-ks", "fp:2", 3))
    jobs.append(betti_job("homology", 4, "trivial-ke", "fp:2", 0))
    jobs.append(betti_job("cohomology", 4, "trivial-ke", "fp:3", 0))
    return jobs


def _collapse():
    jobs = []
    for variance in ("homology", "cohomology"):
        jobs.append(verify_job(f"steinberg-{variance}", "--groupoid",
                               "pair:3", "q", 1))
        jobs.append(verify_job(f"steinberg-{variance}", "--groupoid",
                               "group:z:3", "fp:3", 4))
        jobs.append(verify_job(f"separable-{variance}", "--action",
                               "ke:i:2", "q", 2))
    return jobs


WORKLOADS = {"betti-q": _betti_q, "betti-fp": _betti_fp,
             "collapse": _collapse}


def check(job, stdout):
    """None if the report in ``stdout`` carries ``job.expected``."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if not isinstance(doc, dict):
        return "report is not a JSON object"
    if doc.get("command") in ("homology", "cohomology"):
        if doc.get("betti") != job.expected:
            return f"betti {doc.get('betti')} != expected {job.expected}"
        return None
    report = doc.get("report", {})
    data = report.get("data", {})
    if doc.get("verdict") != "PASS" or not report.get("pass"):
        return "verdict is not PASS"
    for side in ("monoid_side", "hochschild_side"):
        if data.get(side) != job.expected:
            return f"{side} {data.get(side)} != expected {job.expected}"
    return None
