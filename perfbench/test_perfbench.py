"""Tests of the benchmark's independent answers and of its failure count."""

import answers
import run
import workloads


def test_cyclic_group_homology_mod_p():
    assert answers.group_homology_dims(answers.cyclic_group(2), 2, 6) == [1] * 7
    assert answers.group_homology_dims(answers.cyclic_group(3), 3, 3) == [1] * 4
    assert answers.group_homology_dims(answers.cyclic_group(3), 2, 3) == [1, 0, 0, 0]


def test_symmetric_group_homology_mod_p():
    s3 = answers.symmetric_group(3)
    assert answers.group_homology_dims(s3, 3, 4) == [1, 0, 0, 1, 1]
    assert answers.group_homology_dims(s3, 2, 3) == [1, 1, 1, 1]


def test_rank_mod_p():
    cols = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    assert answers.rank_mod_p(cols, 2) == 2
    assert answers.rank_mod_p(cols, 3) == 3


def test_symmetric_inverse_monoid_structure():
    # |I_k| = sum_r C(k,r)^2 r!, the D-classes are the ranks 0..k with
    # maximal subgroups S_r, and E(I_k) is the power set of {1..k}.
    assert len(answers.partial_bijections(3)) == 34
    assert [len(g.elements) for _, g in answers.d_classes(3)] == [1, 1, 2, 6]
    assert answers.idempotent_count(4) == 16


def test_monoid_betti():
    assert answers.monoid_betti(2, "trivial-ke", 2, 3) == [3, 1, 1, 1]
    assert answers.monoid_betti(3, "trivial-ke", 2, 1) == [4, 2]
    assert answers.monoid_betti(2, "trivial-ke", 3, 3) == [3, 0, 0, 0]
    assert answers.monoid_betti(3, "trivial-ke", 0, 1) == [4, 0]
    assert answers.monoid_betti(4, "trivial-ke", 2, 0) == [5]
    assert answers.monoid_betti(3, "regular-ks", 0, 1) == [8, 0]


def test_hochschild_dims():
    assert answers.steinberg_hochschild("pair:3", 0, 1) == [1, 0]
    assert answers.steinberg_hochschild("group:z:3", 3, 2) == [3, 3, 3]
    assert answers.separable_hochschild("ke:i:2", 0, 2) == [4, 0, 0]
    # KI_3 over Q: the D-class groups S_0..S_3 have 1, 1, 2, 3 classes.
    assert answers.separable_hochschild("ke:i:3", 0, 1) == [7, 0]


def test_check_reads_verifier_reports():
    job = workloads.verify_job("steinberg-homology", "--groupoid", "pair:3",
                               "q", 1)
    good = ('{"command": "verify", "verdict": "PASS", "report": {"pass": true,'
            ' "data": {"monoid_side": [1, 0], "hochschild_side": [1, 0]}}}')
    assert workloads.check(job, good) is None
    assert workloads.check(job, good.replace("[1, 0]}", "[2, 0]}")) is not None
    assert workloads.check(job, "not json") is not None
    assert workloads.check(job, "[1, 0]") is not None


def test_wrong_answer_counts_as_failed_operation():
    argv = ["homology", "--monoid", "z:2", "--field", "fp:2",
            "--max-degree", "1", "--format", "json"]
    right = workloads.Job(argv, [1, 1])
    wrong = workloads.Job(argv[:2] + ["z:3"] + argv[3:], [1, 1])
    passes = run.run_passes([right, wrong], seed=0, seconds=0.01)
    assert len(passes) == 1
    assert run.tally(passes) == {"correct": False, "attempted": 2, "failed": 1}
    bad = [r for r in passes[0] if not r["ok"]]
    assert bad[0]["job"] == wrong.name and bad[0]["wrong"]


def test_times_are_scaled_by_the_baseline_run_next_to_them():
    def result(wall, base_wall):
        return {"wall_s": wall, "setup_s": 0.1, "peak_rss_mb": 50.0,
                "baseline": {"wall_s": base_wall, "setup_s": 0.05}}
    passes = [[result(2.0, 4.0), result(1.0, 2.0)]]
    metrics = run.end_to_end(passes, "collapse")
    nominal = run.NOMINAL_PASS_S["collapse"]
    assert abs(metrics["pass_s"]["value"] - nominal / 2) < 1e-9
    assert abs(metrics["setup_s"]["value"] - 2 * run.NOMINAL_SETUP_S) < 1e-9
    assert metrics["peak_rss_mb"]["value"] == 50.0
