"""Tests of the benchmark's own checks: each must reject a corrupted output.

Not part of the package's test suite; run with

    python -m pytest perfbench/test_checks.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from blockcoh import channels, counting, naimark, sampling  # noqa: E402
from blockcoh.blockcore import BlockPartition  # noqa: E402
from checks import CheckFailed  # noqa: E402

GOOD_REPORT = {"cptp": True, "mbio": True, "bio_structural": True, "bio_semantic": True,
               "sbio_structural": True, "sbio_semantic": True, "tolerance": 1e-10}


def suite_stdout(suite, **override):
    details = {
        "appendix-a": ["sets=200 worst_dev=0.000e+00", "rejected=200/200"],
        "appendix-b": ["sets=200 worst_dev=0.000e+00", "rejected=200/200", "states=10x200"],
        "lemmas": ["bio=6 sbio=4", "bio=39 sbio=15", "bio=340 sbio=64", "bio=3905 sbio=325"],
        "inclusion": ["sets=200"] * 3,
        "naimark": ["worst_dev=1e-15"] * 3,
        "measures": ["states=400/partition"] + ["worst_violation=0.000e+00"] * 3,
    }[suite]
    lines = [f"PASS {name} {detail}" for name, detail in zip(checks.SUITE_CHECKS[suite], details)]
    for index, line in override.items():
        lines[int(index[1:])] = line
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", list(checks.SUITE_CHECKS))
def test_suite_output_accepts_the_expected_lines(suite):
    checks.check_suite_output(suite, 0, suite_stdout(suite), 200)


@pytest.mark.parametrize("stdout, code", [
    (suite_stdout("inclusion"), 1),
    (suite_stdout("inclusion", l1="FAIL sbio-within-bio sets=200"), 0),
    (suite_stdout("inclusion", l1="PASS sbio-within-mbio sets=200"), 0),
    (suite_stdout("inclusion", l2="PASS bio-within-mbio sets=20"), 0),
    ("".join(suite_stdout("inclusion").splitlines(True)[:2]), 0),
])
def test_suite_output_rejects_failures_and_wrong_checks(stdout, code):
    with pytest.raises(CheckFailed):
        checks.check_suite_output("inclusion", code, stdout, 200)


def test_suite_output_rejects_wrong_lemma_totals():
    with pytest.raises(CheckFailed, match="closed forms"):
        stdout = suite_stdout("lemmas", l1="PASS rank-one-bounds-d=3 bio=39 sbio=16")
        checks.check_suite_output("lemmas", 0, stdout, 200)


def test_suite_output_rejects_missed_violations():
    stdout = suite_stdout("appendix-a", l1="PASS bio-pattern-violations-rejected rejected=199/200")
    with pytest.raises(CheckFailed):
        checks.check_suite_output("appendix-a", 0, stdout, 200)


def test_rank_one_totals_match_the_package_closed_forms():
    for d in range(2, 8):
        assert checks.rank_one_totals(d) == (counting.rank_one_bio_total(d),
                                             counting.rank_one_sbio_total(d))


def test_leftover_files_are_reported(tmp_path):
    checks.check_no_leftovers(str(tmp_path))
    (tmp_path / "blockcoh-counterexample-monotonicity.json").write_text("{}")
    with pytest.raises(CheckFailed, match="counterexample"):
        checks.check_no_leftovers(str(tmp_path))


# ---------------------------------------------------------------------------
# classify-ladder
# ---------------------------------------------------------------------------

def test_report_json_requires_the_documented_keys():
    assert checks.check_report_json(json.dumps(GOOD_REPORT)) == GOOD_REPORT
    for bad in ("{not json", json.dumps({k: v for k, v in GOOD_REPORT.items() if k != "mbio"}),
                json.dumps(dict(GOOD_REPORT, tolerance=float("nan"))),
                json.dumps(dict(GOOD_REPORT, cptp=1))):
        with pytest.raises(CheckFailed):
            checks.check_report_json(bad)


@pytest.mark.parametrize("kind", ["bio", "sbio", "pbio"])
def test_generated_members_pass(kind):
    dims = (2, 3)
    ks = channels.gen_random(kind, BlockPartition(dims), 7)
    report = channels.classifier_report(ks)
    checks.check_member(kind, ks.operators, dims, report, np.random.default_rng(0))


def test_member_with_one_cross_block_entry_fails():
    dims = (2, 3)
    ops = channels.gen_random("sbio", BlockPartition(dims), 7).operators.copy()
    # Rotate two basis states of different blocks after the first operator:
    # the set stays complete but operator 0 now has a cross-block entry.
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.eye(5, dtype=complex)
    rot[[1, 1, 2, 2], [1, 2, 1, 2]] = [c, -s, s, c]
    ops[0] = rot @ ops[0]
    assert checks.completeness_deviation(ops) < 1e-12
    with pytest.raises(CheckFailed, match="creates block coherence"):
        checks.check_member("sbio", ops, dims, GOOD_REPORT, np.random.default_rng(0))


def test_member_with_a_wrong_verdict_fails():
    dims = (2, 3)
    ks = channels.gen_random("sbio", BlockPartition(dims), 7)
    with pytest.raises(CheckFailed, match="bio_semantic"):
        checks.check_member("sbio", ks.operators, dims, dict(GOOD_REPORT, bio_semantic=False),
                            np.random.default_rng(0))


def test_incomplete_member_fails():
    dims = (2, 3)
    ops = channels.gen_random("bio", BlockPartition(dims), 7).operators * 1.001
    with pytest.raises(CheckFailed, match="not complete"):
        checks.check_member("bio", ops, dims, GOOD_REPORT, np.random.default_rng(0))


def test_bio_member_sbio_verdict_must_match():
    # A BIO set that merges two column blocks into one row block is not SBIO.
    dims = (2, 3)
    ks = channels.gen_pattern_violating("sbio", BlockPartition(dims), 3)
    with pytest.raises(CheckFailed, match="sbio_semantic"):
        checks.check_member("bio", ks.operators, dims, GOOD_REPORT, np.random.default_rng(0))


@pytest.mark.parametrize("kind, dims", [("bio", (2, 3)), ("bio", (4, 4, 4)), ("sbio", (2, 3)),
                                        ("sbio", (3, 5, 7))])
def test_violators_have_witnesses(kind, dims):
    ks = channels.gen_pattern_violating(kind, BlockPartition(dims), 11)
    n, x, y = checks.find_violation_witness(kind, ks.operators, dims)
    lab = checks.labels(dims)
    assert (lab[x] == lab[y]) == (kind == "bio")
    checks.check_violator(kind, ks.operators, dims, False)
    with pytest.raises(CheckFailed, match="accepted"):
        checks.check_violator(kind, ks.operators, dims, True)


def test_member_passed_off_as_violator_has_no_witness():
    dims = (2, 3)
    ks = channels.gen_random("sbio", BlockPartition(dims), 7)
    assert checks.find_violation_witness("bio", ks.operators, dims) is None
    with pytest.raises(CheckFailed, match="no witness"):
        checks.check_violator("sbio", ks.operators, dims, False)


# ---------------------------------------------------------------------------
# measure-axioms
# ---------------------------------------------------------------------------

def test_axiom_checks_reject_violations():
    checks.check_axiom("ok", 0.0)
    for bad in (1e-6, float("nan"), -1.0):
        with pytest.raises(CheckFailed):
            checks.check_axiom("bad", bad)
    checks.check_max_mixed_entropy(4, 2.0)
    with pytest.raises(CheckFailed):
        checks.check_max_mixed_entropy(4, 1.9)
    checks.check_zero_on_free("ok", 1e-12)
    with pytest.raises(CheckFailed):
        checks.check_zero_on_free("bad", 1e-6)


def test_block_diagonal_state_is_a_state_without_cross_entries():
    dims = (1, 2, 2)
    rho = checks.random_free_state(dims, np.random.default_rng(0))
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert not rho[~checks.same_block(dims)].any()


# ---------------------------------------------------------------------------
# bounds-dilation
# ---------------------------------------------------------------------------

def dilation(d=4, n=3):
    povm = naimark.Povm(sampling.random_povm(d, n, 5))
    rhos = np.stack([sampling.random_density_matrix(d, s) for s in range(3)])
    return povm, naimark.dilate(povm), rhos


def test_dilation_checks_accept_the_dilation():
    povm, ext, rhos = dilation()
    checks.check_unitary(ext.global_unitary, "ok")
    checks.check_dilation_probabilities(ext.global_unitary, ext.ancilla_state_index,
                                        povm.effects, rhos, "ok")


def test_perturbed_v_fails_both_dilation_checks():
    povm, ext, rhos = dilation()
    v = ext.global_unitary.copy()
    v[1, 0] += 1e-6
    with pytest.raises(CheckFailed, match="not unitary"):
        checks.check_unitary(v, "perturbed")
    with pytest.raises(CheckFailed, match="probabilities"):
        checks.check_dilation_probabilities(v, ext.ancilla_state_index, povm.effects, rhos,
                                            "perturbed")


def test_wrong_ancilla_column_fails_the_probability_check():
    povm, ext, rhos = dilation()
    with pytest.raises(CheckFailed, match="probabilities"):
        checks.check_dilation_probabilities(ext.global_unitary, 1, povm.effects, rhos, "shifted")


@pytest.mark.parametrize("dims", [(2, 3), (2, 2), (1, 1, 1), (1,) * 6, (3, 1, 2, 1, 2, 1),
                                  (2, 1, 1, 2, 1, 1, 2, 1)])
def test_bound_references_match_the_package(dims):
    part = BlockPartition(dims)
    for kind, fn in (("bio", counting.bio_bound), ("sbio", counting.sbio_bound)):
        report = fn(part)
        checks.check_bound(kind, dims, report.per_level, report.total)


def test_bound_references_reduce_to_the_rank_one_closed_forms():
    for d in range(2, 8):
        bio, sbio = checks.rank_one_totals(d)
        assert sum(checks.bio_bound_reference((1,) * d)) == bio
        assert sum(checks.sbio_bound_reference((1,) * d)) == sbio


def test_wrong_bounds_fail():
    ref = checks.sbio_bound_reference((2, 3))
    with pytest.raises(CheckFailed):
        checks.check_bound("sbio", (2, 3), ref[:-1] + [ref[-1] + 1], sum(ref) + 1)
    with pytest.raises(CheckFailed):
        checks.check_bound("bio", (1,) * 6, [1] * 6, 6)


def test_frozen_values_are_enforced(monkeypatch):
    monkeypatch.setitem(checks.FROZEN_BOUNDS, (2, 3), (45347, 12208))
    ref = checks.bio_bound_reference((2, 3))
    with pytest.raises(CheckFailed, match="frozen"):
        checks.check_bound("bio", (2, 3), ref, sum(ref))


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_catches_cross_module_calls_and_restores_functions():
    from blockcoh import measures

    original = channels.apply_channel
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert measures.apply_channel is channels.apply_channel is not original
        part = BlockPartition((2, 3))
        ch = channels.gen_random("bio", part, 1)
        measures.monotonicity_probe(measures.rel_entropy_block_coherence, part, ch, trials=3, seed=0)
    finally:
        tracer.uninstall()
    assert measures.apply_channel is channels.apply_channel is original
    groups, spans, _ = tracer.take()
    assert groups["channels.apply"][0] == 3
    assert groups["measures.probe"][0] == 1
    assert groups["sampling.random_density_matrix"][0] == 3
    top = [s for s in spans if s[4] == -1]
    wall = sum(s[3] - s[2] for s in top)
    assert abs(sum(seconds for _, seconds in groups.values()) - wall) < 1e-9


def test_every_layer_metric_group_exists():
    groups = {layers.group_of(m, "no_such_function") for m in layers.MODULES}
    groups |= {f"{m}.{g}" for m, named in layers.NAMED_GROUPS.items() for g in named}
    groups |= {"import"}
    assert {group for group, _ in layers.LAYER_METRICS} <= groups


# ---------------------------------------------------------------------------
# the command itself
# ---------------------------------------------------------------------------

def run_benchmark(cwd, *args):
    import subprocess

    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_a_run_prints_the_metrics_benchmark_json_lists(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    proc = run_benchmark(ROOT, "--workload", "bounds-dilation", "--seed", "3",
                         "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = {m["name"]: m["unit"] for m in bench[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed


def test_without_the_sources_the_command_fails(tmp_path):
    import shutil

    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_benchmark(str(tmp_path), "--workload", "measure-axioms", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
