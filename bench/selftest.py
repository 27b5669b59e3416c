"""Tests that the benchmark's checks reject corrupted answers.

    python3 -m pytest bench/selftest.py -q

The file name keeps these tests out of the repository's own test run.
Each test feeds a check a real output of the program and then a corrupted
copy: an off-by-one count, a perturbed differential, a non-unit chart
image, and the like.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
import worker  # noqa: E402
from worker import percentile, summary  # noqa: E402

from legclus.bridge import BridgeWord  # noqa: E402
from legclus.dga import build_dga  # noqa: E402
from legclus.fillings import run_sequence  # noqa: E402
from legclus.ring import LaurentPolynomial  # noqa: E402


def op_named(workload, label):
    return next(op for op in workload.ops if op.label == label)


# ----------------------------------------------------------------------
# closed forms


def test_closed_forms_match_the_paper():
    assert [checks.seed_count(b) for b in ((5, 4), (5, 5), (6, 4), (7,), (6,))] == [70, 196, 210, 429, 132]
    assert checks.filling_count((6, 5, 6)) == 8820
    assert checks.ruling_count((5, 4)) == 5 * 3
    assert checks.point_count((4, 4, 4), 31) == 775429527600


def test_brute_force_agrees_with_closed_form():
    for blocks in ((3,), (2, 3), (3, 3, 2), (4, 2, 3)):
        for p in (2, 3, 5):
            assert checks.brute_force_count(blocks, p) == checks.point_count(blocks, p)


def test_gf16_is_a_field():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rng.randrange(1, 65536) for _ in range(3))
        assert checks.GF16.mul(a, checks.GF16.inv(a)) == 1
        assert checks.GF16.mul(a, b ^ c) == checks.GF16.mul(a, b) ^ checks.GF16.mul(a, c)


def test_summary_takes_percentiles_over_operation_medians():
    # ten operations, three rounds; one slow outlier round of operation 0
    times = [[float(i), float(i), float(i)] for i in range(1, 11)]
    times[0][1] = 100.0
    got = summary(times)
    assert got["op_p50_ms"] == 5000.0 and got["op_p90_ms"] == 9000.0
    assert got["ops_per_s"] == 10 / 55
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


# ----------------------------------------------------------------------
# off-by-one counts


def test_count_checks_reject_off_by_one():
    checks.check_point_count((4, 4, 4), 7, checks.point_count((4, 4, 4), 7))
    with pytest.raises(CheckError):
        checks.check_point_count((4, 4, 4), 7, checks.point_count((4, 4, 4), 7) + 1)
    wl = workloads.enumerate_workload(1)
    mc = op_named(wl, "mutation_class 5,5")
    with pytest.raises(CheckError):
        mc.check((list(range(195)), False))
    with pytest.raises(CheckError):
        mc.check((list(range(196)), True))
    assert mc.check((list(range(196)), False)) is None


def test_census_check_rejects_off_by_one():
    wl = workloads.enumerate_workload(1)
    census = op_named(wl, "enumerate_filling_classes 6,4,6")

    class Census:
        def __init__(self, count, reps):
            self.count, self.representatives = count, reps

    assert census.check(Census(3528, tuple((i,) for i in range(3528)))) is None
    with pytest.raises(CheckError):
        census.check(Census(3529, tuple((i,) for i in range(3529))))
    with pytest.raises(CheckError):
        census.check(Census(3528, tuple((i % 3527,) for i in range(3528))))


def test_cli_checks_reject_off_by_one():
    wl = workloads.cli_mix(3)
    counted = [
        op for op in wl.ops
        if "--json" in op.label and "--sequence" not in op.label and "--enumerate" not in op.label
        and op.label.split()[0] in ("seeds", "rulings", "fillings", "augvar")
    ]
    assert len(counted) == 8
    for op in counted:
        res = op.run()
        assert op.check(res) is None
        data = json.loads(res.out)
        data["count"] += 1
        with pytest.raises(CheckError):
            op.check(workloads.CliResult(0, json.dumps(data), "", None))


# ----------------------------------------------------------------------
# perturbed differentials


def test_differential_check_rejects_perturbation():
    blocks = (4, 4, 4, 4)
    dga = build_dga(BridgeWord(blocks))
    diffs = {g: p.to_json_terms() for g, p in dga.differentials.items()}
    checks.check_differentials(blocks, diffs, random.Random(1))
    rng = random.Random(2)
    for g in ("b2", "b1", "a5"):
        terms = list(diffs[g])
        victim = rng.randrange(len(terms))
        perturbed = dict(terms[victim])
        perturbed["exponents"] = dict(perturbed["exponents"], a1=perturbed["exponents"].get("a1", 0) + 1)
        terms[victim] = perturbed
        with pytest.raises(CheckError):
            checks.check_differentials(blocks, {**diffs, g: terms}, random.Random(1))


def test_differential_check_rejects_a_dropped_term_through_the_workload():
    wl = workloads.dga_expand(1)
    op = op_named(wl, "build_dga 4,4,4,4")
    pres = op.run()
    b2 = pres.differentials["b2"]
    first = b2.to_json_terms()[0]
    extra = LaurentPolynomial.monomial(b2.table, b2.ring, 1, first["exponents"])
    pres.differentials["b2"] = b2 + extra  # removes that term over F2
    with pytest.raises(CheckError):
        op.check(pres)


def test_digest_tells_a_changed_output_from_a_repeat():
    wl = workloads.dga_expand(1)
    op = op_named(wl, "build_dga 4,4,4,4,4")
    pres = op.run()
    assert op.check(pres) is None
    verified = op.digest(pres)
    assert op.digest(op.run()) == verified
    one = LaurentPolynomial.constant(pres.table, pres.ring, 1)
    pres.differentials["b1"] = pres.differentials["b1"] + one
    assert op.digest(pres) != verified


def test_measured_round_rejects_an_output_that_differs_from_the_verified_one():
    wl = workloads.enumerate_workload(1)
    wl.ops = [op_named(wl, "count_points 4,4,4 p=7")]
    verified = worker.verify(wl)
    assert verified[0]["failed"] is None and verified[0]["wrong"] is None
    worker.Runner(wl, verified).round()
    with pytest.raises(CheckError):
        worker.Runner(wl, [dict(verified[0], digest="0" * 64)]).round()


def test_verify_reports_a_wrong_answer():
    wl = workloads.enumerate_workload(1)
    op = op_named(wl, "count_points 4,4,4 p=7")
    wl.ops = [workloads.Op(op.label, lambda: op.run() + 1, op.check, op.digest)]
    (verified,) = worker.verify(wl)
    assert verified["wrong"] is not None


def test_augmentation_check_rejects_a_non_augmentation():
    blocks = (4, 4, 4, 4)
    dga = build_dga(BridgeWord(blocks))
    diffs = {g: p.to_json_terms() for g, p in dga.differentials.items()}
    zero = {f"a{j}": 0 for j in range(1, 17)}
    with pytest.raises(CheckError):
        checks.check_augmentations(blocks, diffs, [dict(zero, t1=1, t2=1)])


# ----------------------------------------------------------------------
# chart images


def chart_seen(text, seq):
    return workloads.chart_outputs(run_sequence(BridgeWord.parse(text), seq))


SEQUENCES = [("4,5", (1, 2, 3, 6, 7, 8, 9)), ("3,3,3", None), ("7", None)]


@pytest.mark.parametrize("text,seq", SEQUENCES)
def test_chart_check_accepts_real_runs(text, seq):
    blocks = workloads.blocks_of(text)
    seq = seq or checks.random_sequence(blocks, random.Random(4))
    workloads.check_chart_text(blocks, chart_seen(text, seq), random.Random(5))


@pytest.mark.parametrize("text,seq", SEQUENCES)
def test_chart_check_rejects_non_unit_image(text, seq):
    blocks = workloads.blocks_of(text)
    seq = seq or checks.random_sequence(blocks, random.Random(4))
    seen = chart_seen(text, seq)
    for name in seen["images"]:
        images = dict(seen["images"], **{name: seen["images"][name] + " + s1"})
        with pytest.raises(CheckError):
            workloads.check_chart_text(blocks, dict(seen, images=images), random.Random(5))
    with pytest.raises(CheckError):
        workloads.check_chart_text(blocks, dict(seen, t2=seen["t2"] + " + 1"), random.Random(5))


def test_chart_check_rejects_a_cluster_variable_that_is_not_a_unit():
    blocks = (6,)
    units = [f"s{i}" for i in range(1, 7)]
    images = {f"a{c}": [{"exponents": {}, "coefficient": 1}] for c in range(1, 7)}
    one = [{"exponents": {}, "coefficient": 1}]
    # x_i = 1 everywhere makes K_2(1, 1) = 0, a zero cluster variable
    with pytest.raises(CheckError, match="cluster variable"):
        checks.check_chart(blocks, images, [(7, [(1, 3), (1, 4), (1, 5), (1, 6)])], units, one, one, random.Random(0))


def test_triangulation_check_rejects_crossing_and_missing_diagonals():
    checks.check_triangulation(6, [(1, 3), (1, 4), (1, 5)])
    with pytest.raises(CheckError):
        checks.check_triangulation(6, [(1, 3), (2, 4), (1, 5)])
    with pytest.raises(CheckError):
        checks.check_triangulation(6, [(1, 3), (1, 4)])
    with pytest.raises(CheckError):
        checks.check_class_tuples((4, 3), [[(5, [(1, 3), (1, 4)])] * 5, [(4, [(1, 3)]), (4, [(2, 4)])]])


# ----------------------------------------------------------------------
# command-line outcomes


def test_verify_check_rejects_a_failed_verdict():
    wl = workloads.cli_mix(1)
    op = op_named(wl, "verify 5,4 --json")
    res = op.run()
    assert op.check(res) is None
    with pytest.raises(CheckError):
        op.check(workloads.CliResult(0, res.out.replace('"ok": true', '"ok": false'), "", None))
    assert op.check(workloads.CliResult(1, res.out, "error: verification failed\n", None)) is not None


def test_cli_mix_fails_exactly_the_seven_known_calls():
    wl = workloads.cli_mix(1)
    verified = worker.verify(wl)
    assert all(v["wrong"] is None for v in verified)
    failed = {op.label for op, v in zip(wl.ops, verified) if v["failed"] is not None}
    assert failed == {" ".join(argv) for argv in workloads.MALFORMED} | {"verify 2,2,2,2", "verify 2,2,2,2 --json"}


def test_malformed_argv_outcomes():
    check = workloads.malformed_check
    assert check(workloads.CliResult(1, "", "error: vertex 9 out of range\n", None)) is None
    assert check(workloads.CliResult(2, "", "usage: legclus mutate ...\nlegclus mutate: error: bad --at\n", None)) is None
    assert check(workloads.CliResult(None, "", "", "IndexError: list index out of range")) is not None
    assert check(workloads.CliResult(0, "brute-force count over F4: 52  [MISMATCH]\n", "", None)) is not None
    assert check(workloads.CliResult(1, "", "", None)) is not None
