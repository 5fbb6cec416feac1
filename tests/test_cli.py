import decimal
import importlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from blockcoh import cli, counting, measures, serialize
from blockcoh.blockcore import BlockPartition, block_dephase, block_projectors, is_block_incoherent
from blockcoh.channels import (GEN_KINDS, KrausSet, classifier_report, gen_pattern_violating,
                               gen_random)
from blockcoh.cli import main
from blockcoh.sampling import haar_unitary, random_density_matrix, random_povm
from blockcoh.serialize import kraus_to_json, matrix_to_json, povm_to_json
from blockcoh.naimark import NaimarkExtension, Povm
from blockcoh.verify import SUITES, faithful


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_kraus(path, ks):
    path.write_text(json.dumps(kraus_to_json(ks)))
    return str(path)


def parse_error(capsys, *argv):
    """The message of the one JSON parse-error line; main returns 1 and prints nothing."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.count("\n") == 1, argv
    message = json.loads(err)
    assert message["kind"] == "parse", argv
    return message["error"]


def stdin_of(data):
    """A stand-in for sys.stdin: text over a byte buffer, read from its start."""
    return io.TextIOWrapper(io.BytesIO(data if isinstance(data, bytes) else data.encode()))


def layouts(obj):
    """One document as gen writes it (indent 2), compact, and tab-indented with CRLF line ends."""
    return (serialize.dumps(obj), json.dumps(obj, separators=(",", ":")),
            json.dumps(obj, indent="\t").replace("\n", "\r\n"))


def test_classify_projectors(tmp_path, capsys):
    p = BlockPartition((2, 3))
    ks = KrausSet(p, np.array(block_projectors(p)))
    path = write_kraus(tmp_path / "proj.json", ks)
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    report = json.loads(out)
    for key in ("cptp", "mbio", "bio_structural", "bio_semantic",
                "sbio_structural", "sbio_semantic"):
        assert report[key] is True
    assert report["tolerance"] == 1e-10


def test_classify_dense_unitary(tmp_path, capsys):
    p = BlockPartition((2, 3))
    ks = KrausSet(p, haar_unitary(5, 0))
    path = write_kraus(tmp_path / "dense.json", ks)
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    report = json.loads(out)
    assert report["cptp"] is True
    assert report["bio_structural"] is False
    assert report["bio_semantic"] is False


def test_classify_non_cptp_exits_2(tmp_path, capsys):
    p = BlockPartition((2, 3))
    ks = KrausSet(p, np.array([np.eye(5), np.eye(5)]))
    path = write_kraus(tmp_path / "bad.json", ks)
    code, out, _ = run(capsys, "classify", path)
    assert code == 2
    assert json.loads(out)["cptp"] is False


def test_classify_parse_error_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 1
    message = json.loads(err)
    assert "error" in message


def test_classify_names_offending_operator(tmp_path, capsys):
    obj = {
        "dim": 5,
        "partition": [2, 3],
        "kraus": [matrix_to_json(np.eye(5)), matrix_to_json(np.eye(4))],
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1
    assert "operator 1" in json.loads(err)["error"]


def test_gen_classify_roundtrip(tmp_path, capsys):
    # file-based classification agrees with the in-memory report
    cases = [
        (kind, dims, seed)
        for kind in ("bio", "sbio", "pbio", "unitary")
        for dims in ((1, 1), (2, 3), (1, 2, 2))
        for seed in (0, 1, 2, 3, 4)
    ]
    assert len(cases) >= 50
    for kind, dims, seed in cases:
        partition = ",".join(str(x) for x in dims)
        out_path = tmp_path / f"{kind}-{partition}-{seed}.json"
        code, _, _ = run(capsys, "gen", "--class", kind, "--partition", partition,
                         "--seed", str(seed), "-o", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "classify", str(out_path))
        assert code == 0
        ks = gen_random(kind, BlockPartition(dims), seed)
        assert json.loads(out) == classifier_report(ks)


def test_generated_sets_classify_as_their_class(tmp_path, capsys):
    # read back from gen's indent-2 -o file, up to the 7 MB sets at (16,16,16);
    # a pbio set is an SBIO member, and a Haar unitary is only checked complete
    names = {"bio": "bio", "sbio": "sbio", "pbio": "sbio", "unitary": None}
    path = str(tmp_path / "gen.json")
    for dims in ("2,3", "1,15", "16,16,16"):
        for kind, name in names.items():
            argv = ["gen", "--class", kind, "--partition", dims, "--seed", "7", "-o", path]
            assert run(capsys, *argv) == (0, "", "")
            code, out, _ = run(capsys, "classify", path)
            report = json.loads(out)
            keys = ["cptp"] + ([f"{name}_structural", f"{name}_semantic"] if name else [])
            assert code == 0 and all(report[k] is True for k in keys), (kind, dims, report)


def test_classify_reads_stdin(tmp_path, capsys, monkeypatch):
    ks = gen_random("sbio", BlockPartition((2, 3)), 7)
    obj = kraus_to_json(ks)
    for n, text in enumerate((json.dumps(obj),) + layouts(obj)):  # json's default layout too
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        code, out, _ = run(capsys, "classify", "-")
        assert code == 0
        assert json.loads(out)["sbio_structural"] is True
        # the same bytes as classifying the same text from a file
        path = tmp_path / f"set-{n}.json"
        path.write_bytes(text.encode())
        assert run(capsys, "classify", str(path)) == (0, out, "")
        assert out == serialize.dumps(classifier_report(ks))


def test_bound_cli_frozen(capsys):
    code, out, _ = run(capsys, "bound", "--class", "bio", "--partition", "2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "partition": [2, 3],
        "class": "bio",
        "per_level": ["44772", "574"],
        "total": "45346",
    }
    code, out, _ = run(capsys, "bound", "--class", "sbio", "--partition", "2,2")
    assert json.loads(out)["total"] == "480"


def test_dilate_cli(tmp_path, capsys, monkeypatch):
    povm = Povm(random_povm(2, 3, 4))
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(povm_to_json(povm)))
    code, out, _ = run(capsys, "dilate", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["outcomes"] == 3
    assert payload["ancilla_index"] == 0
    assert payload["partition"] == [2, 2, 2]
    assert sorted(payload["permutation"]) == list(range(6))
    v = np.array([[complex(re, im) for re, im in row] for row in payload["V"]])
    assert np.max(np.abs(v.conj().T @ v - np.eye(6))) <= 1e-9
    # -o writes the same bytes for every layout of the file, read from a file or stdin
    got = tmp_path / "dilation.json"
    for text in layouts(povm_to_json(povm)):
        path.write_bytes(text.encode())
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        for source in (str(path), "-"):
            got.unlink(missing_ok=True)
            assert run(capsys, "dilate", source, "-o", str(got)) == (0, "", "")
            assert got.read_text() == out, source


def test_measure_cli(tmp_path, capsys):
    plus = {
        "dim": 2,
        "matrix": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
    }
    path = tmp_path / "plus.json"
    path.write_text(json.dumps(plus))
    code, out, _ = run(capsys, "measure", "--state", str(path), "--partition", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["measure"] == "rel-entropy"
    assert abs(payload["value"] - 1.0) <= 1e-12
    code, out, _ = run(capsys, "measure", "--state", str(path), "--partition", "1,1",
                       "--measure", "l1")
    assert abs(json.loads(out)["value"] - 1.0) <= 1e-12
    # one report for every layout of the state file
    state = {"dim": 5, "matrix": matrix_to_json(random_density_matrix(5, 11))}
    reports = set()
    for text in layouts(state):
        path.write_bytes(text.encode())
        reports.add(run(capsys, "measure", "--state", str(path), "--partition", "2,3"))
    assert len(reports) == 1 and reports.pop()[0] == 0


def test_measure_cli_rejects_bad_state(tmp_path, capsys):
    bad = {"dim": 2, "matrix": [[[1.0, 0.0], [0.9, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "measure", "--state", str(path), "--partition", "1,1")
    assert code == 1
    assert "error" in json.loads(err)


def test_verify_suites_pass(capsys):
    for suite in ("appendix-a", "appendix-b", "lemmas", "inclusion", "naimark", "measures"):
        code, out, _ = run(capsys, "verify", suite, "--trials", "10", "--seed", "5")
        assert code == 0, f"{suite} failed:\n{out}"
        assert out.strip()
        assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_verify_unknown_suite(capsys):
    assert "invalid choice: 'no-such-suite'" in parse_error(capsys, "verify", "no-such-suite")


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    argv = ["gen", "--class", "sbio", "--partition", "2,3", "--seed", "9"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, *argv, "-o", str(a))
    run(capsys, *argv, "-o", str(b))
    assert a.read_bytes() == b.read_bytes()

    _, v1, _ = run(capsys, "verify", "inclusion", "--trials", "5")
    _, v2, _ = run(capsys, "verify", "inclusion", "--trials", "5")
    assert v1 == v2


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BLOCKCOH_TOL", "1e-6")
    p = BlockPartition((2, 3))
    ks = KrausSet(p, np.array(block_projectors(p)))
    path = write_kraus(tmp_path / "proj.json", ks)
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-6


def test_tolerance_reaches_every_verdict(tmp_path, capsys, monkeypatch):
    # entries of 3e-10 where a member is exactly zero: above the default 1e-10, below 1e-6
    keys = ("mbio", "bio_structural", "bio_semantic", "sbio_structural", "sbio_semantic")
    for dims in ((2, 3), (1, 2, 2)):
        p = BlockPartition(dims)
        ops = gen_random("sbio", p, 3).operators.copy()
        ops[ops == 0] = 3e-10
        path = write_kraus(tmp_path / "leak.json", KrausSet(p, ops))
        code, out, _ = run(capsys, "classify", path)
        report = json.loads(out)
        assert code == 0 and report["cptp"] is True, dims
        assert [report[k] for k in keys] == [False] * len(keys), dims
        code, flag, _ = run(capsys, "classify", path, "--tol=1e-6")
        monkeypatch.setenv("BLOCKCOH_TOL", "1e-6")
        env_code, env, _ = run(capsys, "classify", path)
        monkeypatch.delenv("BLOCKCOH_TOL")
        assert code == env_code == 0 and flag == env, dims
        report = json.loads(flag)
        assert all(report[k] is True for k in ("cptp",) + keys), dims


def test_classify_rejects_non_finite_entries(tmp_path, capsys):
    for bad in (float("nan"), float("inf"), float("-inf")):
        obj = kraus_to_json(KrausSet(BlockPartition((2, 3)), np.eye(5)))
        obj["kraus"][0][3][1] = [bad, 0.0]
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(obj))  # written as the NaN / Infinity literals
        code, out, err = run(capsys, "classify", str(path))
        assert code == 1 and out == ""
        message = json.loads(err)
        assert message["kind"] == "parse" and "not finite" in message["error"]
    # finite entries whose products overflow are a parse error too, with no warning
    for bad in ([1e155, 0.0], [0.0, -1e200], [1.7e308, 1.7e308]):
        obj = kraus_to_json(KrausSet(BlockPartition((2, 3)), np.eye(5)))
        obj["kraus"][0][3][1] = bad
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(capsys, "classify", str(path)) == (1, "", json.dumps({
                "error": "Kraus operators must have finite entries of magnitude at most 2**500",
                "kind": "parse"}) + "\n")


def test_dilate_rejects_effect_entries_above_the_bound(tmp_path, capsys):
    # the hermitian and PSD checks would overflow on these; one parse line, no warning
    texts = ['{"dim":1,"effects":[[[[1e308,0]]],[[[-1e308,0]]]]}']
    texts += [json.dumps({"dim": 1, "effects": [[[[bad, 0]]], [[[-bad, 0]]]]})
              for bad in (1e200, 2.0**500 * (1 + 2**-52))]
    for text in texts:
        path = tmp_path / "huge_povm.json"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(capsys, "dilate", str(path)) == (1, "", json.dumps({
                "error": "effects must have finite entries of magnitude at most 2**500",
                "kind": "parse"}) + "\n")


def test_runtime_error_is_one_json_line(tmp_path, capsys, monkeypatch):
    # -o onto a directory: the rename fails, and the temp file beside it is removed
    (tmp_path / "out").mkdir()
    code, out, err = run(capsys, "gen", "--class", "bio", "-o", str(tmp_path / "out"))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err)["kind"] == "runtime"
    assert [path.name for path in tmp_path.iterdir()] == ["out"]
    # the error names the target, not the temp file, so it is the same on every run
    message = json.loads(err)["error"]
    assert str(tmp_path / "out") in message and ".blockcoh-" not in message, message
    assert run(capsys, "gen", "--class", "bio", "-o", str(tmp_path / "out")) == (code, out, err)

    # an allocation too large for the machine is raised, not made: how a
    # real one fails depends on the machine's memory overcommit
    for exc in (RuntimeError("could not generate"),
                MemoryError("Unable to allocate 116. TiB for an array")):
        def fail(*args):
            raise exc

        monkeypatch.setattr("blockcoh.channels.gen_random", fail)
        code, out, err = run(capsys, "gen", "--class", "bio")
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": str(exc), "kind": "runtime"}


def test_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, monkeypatch):
    p = BlockPartition((2, 3))
    path = write_kraus(tmp_path / "proj.json", KrausSet(p, np.array(block_projectors(p))))
    # ASCII text only, without "_": float() alone reads these as 3.0, 0.5 and 10.0
    not_numbers = ("abc", "٣", "٠.٥", "1_0")

    def message(text):
        if text in not_numbers:
            return f"tolerance {text!r} is not a number"
        return f"tolerance must be finite and >= 0, got {text}"

    for flag in ("nan", "inf", "-1e-3") + not_numbers[1:]:
        assert parse_error(capsys, "classify", path, f"--tol={flag}") == message(flag)
    for env in ("nan", "-1") + not_numbers:
        monkeypatch.setenv("BLOCKCOH_TOL", env)
        assert parse_error(capsys, "classify", path) == message(env)
    # --tol has the environment variable's converter, and it runs before the file is read
    assert parse_error(capsys, "classify", path, "--tol", "abc") == (
        "tolerance 'abc' is not a number")
    assert parse_error(capsys, "classify", str(tmp_path / "missing.json"), "--tol=nan") == (
        "tolerance must be finite and >= 0, got nan")
    # the flag wins over the environment, and commands without a tolerance ignore it
    code, out, _ = run(capsys, "classify", path, "--tol", "0")
    assert code == 0 and json.loads(out)["tolerance"] == 0.0
    code, out, _ = run(capsys, "bound", "--class", "bio")
    assert code == 0 and json.loads(out)["total"] == "45346"


def test_verify_needs_at_least_one_trial(capsys):
    # rejected where argparse converts the flag
    for trials in ("0", "-3"):
        assert "--trials" in parse_error(capsys, "verify", "inclusion", "--trials", trials)


def test_flags_only_on_commands_that_read_them(capsys):
    for argv in (
        ["dilate", "povm.json", "--partition", "2,3"],
        ["bound", "--class", "bio", "--seed", "1"],
        ["measure", "--state", "s.json", "--trials", "5"],
        ["gen", "--class", "bio", "--tol", "1e-6"],
        ["classify", "k.json", "--seed", "1"],
    ):
        assert "unrecognized arguments" in parse_error(capsys, *argv)


def test_sbio_violators_where_first_block_is_largest(capsys):
    for partition in ("4,4,4", "1,1,1"):
        code, out, _ = run(capsys, "verify", "appendix-b", "--partition", partition,
                           "--trials", "10")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_unconvertible_flag_values_are_one_json_line(tmp_path, capsys):
    # usage errors return 1 from main like every other JSON error line
    p = BlockPartition((2, 3))
    path = write_kraus(tmp_path / "proj.json", KrausSet(p, np.array(block_projectors(p))))
    for argv in (
        ["verify", "inclusion", "--trials", "abc"],
        ["verify", "inclusion", "--trials", "0"],
        ["verify", "lemmas", "--trials", "0"],  # rejected although lemmas runs no trials
        ["verify", "inclusion", "--partition", "2,x"],
        ["gen", "--class", "bio", "--seed", "-1"],
        ["classify", path, "--tol", "-1e-3"],  # read as a flag, so --tol has no value
        ["classify", str(tmp_path / "missing.json"), "--tol", "abc"],
        ["gen", "--seed", "3"],  # --class is required
        ["verify", "no-such-suite"],
        ["no-such-command"],
        ["gen", "--class", "bio", "--no-such-flag"],
        # flags are written in full: an abbreviation is an unknown flag
        ["gen", "--cl", "bio"],
        ["gen", "--class", "bio", "--par", "1,1"],
        ["gen", "--class", "bio", "--se", "3"],
        ["verify", "inclusion", "--tri", "5"],
        ["classify", path, "--to", "1e-6"],
        ["measure", "--st", "s.json"],
    ):
        parse_error(capsys, *argv)


def test_exit_code_2_means_only_an_incomplete_channel(tmp_path, capsys):
    p = BlockPartition((2, 3))
    path = write_kraus(tmp_path / "proj.json", KrausSet(p, np.array(block_projectors(p))))
    parse_error(capsys, "classify", path, "--tol", "abc")  # a usage error exits 1, not 2
    path = write_kraus(tmp_path / "bad.json", KrausSet(p, np.array([np.eye(5), np.eye(5)])))
    code, out, err = run(capsys, "classify", path)
    assert code == 2 and err == "" and json.loads(out)["cptp"] is False


def test_failed_dilation_is_one_json_line(tmp_path, capsys, monkeypatch):
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(povm_to_json(Povm(random_povm(2, 3, 4)))))
    monkeypatch.setattr("blockcoh.naimark.GS_SKIP_NORM", 2.0)  # no candidate is long enough
    code, out, err = run(capsys, "dilate", str(path))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "orthonormal completion of the dilation failed",
                               "kind": "runtime"}


def test_malformed_dim_is_a_parse_error(tmp_path, capsys):
    p = BlockPartition((1, 1))
    state = {"dim": 2, "matrix": matrix_to_json(random_density_matrix(2, 0))}
    kraus = kraus_to_json(KrausSet(p, np.array(block_projectors(p))))
    povm = povm_to_json(Povm(random_povm(2, 2, 0)))
    for dim in ("two", [2], None, 2.7, True, "3"):
        for name, obj, argv in (
            ("state", state, ["measure", "--partition", "1,1", "--state"]),
            ("kraus", kraus, ["classify"]),
            ("povm", povm, ["dilate"]),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(obj, dim=dim)))
            code, out, err = run(capsys, *argv, str(path))
            assert code == 1 and out == ""
            message = json.loads(err)
            assert message["kind"] == "parse" and '"dim"' in message["error"], (name, dim)


def test_matrix_entries_must_be_numbers_in_float_range(tmp_path, capsys, monkeypatch):
    huge = "1" + "0" * 400  # a 401-digit JSON integer, past the float range
    p = BlockPartition((1, 1))
    files = (
        ("matrix", {"dim": 2, "matrix": matrix_to_json(random_density_matrix(2, 0))},
         ["measure", "--partition", "1,1", "--state"]),
        ("kraus", kraus_to_json(KrausSet(p, np.array(block_projectors(p)))), ["classify"]),
        ("effects", povm_to_json(Povm(random_povm(2, 2, 0))), ["dilate"]),
    )
    cases = [('{"dim": 1, "matrix": [[[%s, 0]]]}' % huge,
              ["measure", "--partition", "1", "--state"], "entry (0, 0) is too large")]
    for entry, why in ((["HUGE", 0], "is too large for a float"), (["1.0", False], "is not numeric"),
                       ([1.0, True], "is not numeric"), (["0.5", 0.0], "is not numeric")):
        for key, obj, argv in files:
            obj = json.loads(json.dumps(obj))
            (obj[key] if key == "matrix" else obj[key][0])[1][0] = entry
            cases.append((json.dumps(obj).replace('"HUGE"', huge), argv, f"entry (1, 0) {why}"))
    # JSON that json cannot read: an integer past int()'s digit limit, and nesting
    # past the recursion limit
    for (_, _, argv), text in zip(files, ('{"dim": 1, "matrix": [[[%s, 0]]]}',
                                          '{"dim": 2, "partition": [%s, 1], "kraus": []}',
                                          '{"effects": [[[[%s, 0]]]]}')):
        cases.append((text % ("9" * 5000), argv, "Exceeds the limit (4300 digits)"))
        cases.append(("[" * 200000 + "]" * 200000, argv, "maximum recursion depth exceeded"))
    path = tmp_path / "in.json"
    for text, argv, why in cases:
        path.write_text(text)
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        for source in (str(path), "-"):
            code, out, err = run(capsys, *argv, source)
            assert code == 1 and out == "" and err.count("\n") == 1, (argv, text[:80])
            message = json.loads(err)
            assert message["kind"] == "parse" and why in message["error"], (argv, message)


GOLDEN = Path(__file__).parent / "data" / "verify_defaults.txt"


def golden_sections():
    """Each suite's stdout at its defaults, keyed by the command that printed it."""
    sections, key = {}, None
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            key = line[2:].strip()
            sections[key] = ""
        else:
            sections[key] += line
    return sections


def test_verify_defaults_match_golden_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sections = golden_sections()
    assert list(sections) == [f"blockcoh verify {suite}" for suite in SUITES]
    for suite in SUITES:
        code, out, err = run(capsys, "verify", suite)
        assert (code, err) == (0, "")
        assert out == sections[f"blockcoh verify {suite}"], suite


def test_command_line_as_processes(tmp_path, capsys):
    # only what a process shows: bytes under another hash seed, a real pipe, the
    # exit status and argv as the OS delivers them; every other case calls main in-process.
    # The children start in tmp_path, so PYTHONPATH names the package's directory in full.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def python(*args, hashseed="0", **kwargs):
        return subprocess.run([sys.executable, *args], cwd=tmp_path, capture_output=True,
                              env=dict(env, PYTHONHASHSEED=hashseed), **kwargs)

    def blockcoh(*argv, **kwargs):
        return python("-m", "blockcoh.cli", *argv, **kwargs)

    # gen prints the same bytes for every class in two interpreters and in this one
    gens = [["gen", "--class", kind, "--partition", dims, "--seed", "7"]
            for kind in GEN_KINDS for dims in ("2,3", "1,15")]
    want = "".join(run(capsys, *argv)[1] for argv in gens)
    script = f"from blockcoh.cli import main\nfor argv in {gens!r}:\n    main(argv)\n"
    for hashseed in ("0", "1"):
        child = python("-c", script, hashseed=hashseed)
        assert (child.returncode, child.stdout.decode(), child.stderr) == (0, want, b""), hashseed

    gen = subprocess.Popen([sys.executable, "-m", "blockcoh.cli", "gen", "--class", "sbio",
                            "--seed", "7"], cwd=tmp_path, env=env, stdout=subprocess.PIPE)
    classify = blockcoh("classify", "-", stdin=gen.stdout)
    gen.stdout.close()
    assert (gen.wait(), classify.returncode) == (0, 0)
    assert classify.stdout.decode() == serialize.dumps(
        classifier_report(gen_random("sbio", BlockPartition((2, 3)), 7)))

    child = blockcoh("gen", "--class", "bio", "--seed", "٣")
    assert (child.returncode, child.stdout, child.stderr.count(b"\n")) == (1, b"", 1)
    assert json.loads(child.stderr)["kind"] == "parse"
    child = blockcoh("-h")
    assert child.returncode == 0 and child.stdout.startswith(b"usage: blockcoh")
    child = blockcoh("verify", "lemmas")
    assert child.returncode == 0
    assert child.stdout.decode() == golden_sections()["blockcoh verify lemmas"]


def test_partition_must_hold_json_integers(tmp_path, capsys):
    p = BlockPartition((1, 1))
    kraus = kraus_to_json(KrausSet(p, np.array(block_projectors(p))))
    del kraus["dim"]
    rows = [(partition, "partition must be an array of positive integers")
            for partition in ([1.7, True], [1.0, 1.0], [True, True], ["1", "1"], [1, None], "1,1")]
    rows += [([], "bad partition []: partition needs at least one block"),
             ([0], "bad partition [0]: block sizes must be positive integers, got (0,)")]
    path = tmp_path / "k.json"
    for partition, why in rows:
        path.write_text(json.dumps(dict(kraus, partition=partition)))
        assert why in parse_error(capsys, "classify", str(path)), partition
    path.write_text(json.dumps(dict(kraus, partition=[1, 1])))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0 and json.loads(out)["sbio_semantic"]


def test_fixed_partition_suites_reject_an_explicit_partition(capsys):
    for suite in ("lemmas", "naimark", "measures"):
        for partition in ("7,7", "2,3"):
            code, out, err = run(capsys, "verify", suite, "--partition", partition,
                                 "--trials", "5")
            assert code == 1 and out == ""
            assert err.count("\n") == 1
            message = json.loads(err)
            assert message["kind"] == "parse"
            assert f"verify {suite} " in message["error"] and "--partition" in message["error"]
    # the suites that read the partition still take it, 2,3 included
    for suite in ("appendix-a", "appendix-b", "inclusion"):
        code, out, _ = run(capsys, "verify", suite, "--partition", "2,3", "--trials", "5")
        assert code == 0 and out.startswith("PASS")


def test_output_files_get_the_mode_that_open_gives(tmp_path, capsys):
    old = os.umask(0o022)
    try:
        for mask in (0o022, 0o027, 0o077):
            os.umask(mask)
            out = tmp_path / f"gen-{mask:o}.json"
            assert main(["gen", "--class", "sbio", "--partition", "2,3", "-o", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~mask
            # an existing target keeps its mode, and no temp file is left behind
            out.chmod(0o640)
            assert main(["gen", "--class", "bio", "--partition", "2,3", "-o", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o640
    finally:
        os.umask(old)
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen-22.json", "gen-27.json",
                                                          "gen-77.json"]


def test_decoding_a_big_kraus_file_holds_one_operator_tree_at_a_time(monkeypatch):
    # json.load builds the Python tree of all 50 operators at once, 16.5 MB
    # on top of the 7.1 MB text (20.6 MB traced for json.loads alone); the
    # reader holds the text, one operator's tree and the decoded arrays
    text = serialize.dumps(kraus_to_json(gen_random("sbio", BlockPartition((16, 16, 16)), 7)))
    # the command line reads the whole text first, so a copy of it is traced too
    for read, bound in ((lambda: cli._read_json("-"), len(text) + 8e6),
                        (lambda: serialize.load_json(text), 8e6)):
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        tracemalloc.start()
        try:
            ks = serialize.kraus_from_json(read())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ks.n_operators == 50
        assert peak <= bound, f"decoding traced a peak of {peak / 1e6:.1f} MB"


def grid_outcomes(text, pos=0):
    """What the reader's text path and its reference path (raw_decode, then the
    entry loop) make of the array element at ``pos``: bits, shape and end, or
    None.  The reference declines what the loop rejects and zero-width rows."""
    try:
        raw, end = serialize._DECODER.raw_decode(text, pos)
        mat = serialize._matrix_from_entries(raw, "operator 0")
        old = (mat.tobytes(), mat.shape, end) if mat.shape[1] else None
    except (ValueError, RecursionError):  # SchemaError is a ValueError
        old = None
    fast = serialize._grid_matrix(text, pos)
    return None if fast is None else (fast[0].tobytes(), fast[0].shape, fast[1]), old


def test_grid_text_path_takes_exactly_the_well_formed_grids():
    # every single bracket or comma of a 3 x 2 grid deleted, doubled or moved
    # to any other place (over a neighbouring number too, which keeps the
    # grid's skeleton); the text path reads the same bits as the entry loop,
    # or both decline
    grid = [[[1.5, -0.0], [2, 3e-5]], [[-4, 5], [6.25, 7]], [[8, 9], [0, -1e300]]]
    cases = 0
    for text in layouts(grid):
        fast, old = grid_outcomes(text)
        assert fast == old and fast is not None
        for k in [k for k, ch in enumerate(text) if ch in "[],"]:
            rest = text[:k] + text[k + 1:]
            edits = [rest, text[:k + 1] + text[k:]]
            edits += [rest[:to] + text[k] + rest[to:] for to in range(len(rest) + 1)]
            for edited in edits:
                for tail in ("", ", [[[1, 2]]]]"):
                    fast, old = grid_outcomes(edited + tail)
                    assert fast == old, edited
                    cases += 1
    assert cases > 10000


def test_a_declined_element_sends_the_rest_of_the_document_to_raw_decode(monkeypatch):
    # the text path's stop search could otherwise scan ahead once per
    # malformed element; after one decline it is not tried again
    attempts = []
    grid_matrix = serialize._grid_matrix
    monkeypatch.setattr(serialize, "_grid_matrix",
                        lambda text, pos: attempts.append(pos) or grid_matrix(text, pos))
    for bad in ("[[1.5, 2.5]]", "[[[1.5, 2.5]], [1.5]]", "[[[1.5, 2.5]], 7]",
                "[[[1.5, 2.5], [1.5, 2.5, 3.5]]]", '[[[1.5, "2.5"]]]'):
        for good_first in (False, True):
            elements = ["[[[1, 0]]]"] * good_first + [bad] * 2000
            text = '{"dim": 1, "partition": [1], "kraus": [' + ", ".join(elements) + "]}"
            attempts.clear()
            got = serialize.load_json(text)["kraus"]
            assert got[good_first:] == json.loads(text)["kraus"][good_first:]
            assert len(attempts) == 1 + good_first, bad
    # a well-formed array takes the text path for every element
    attempts.clear()
    ks = gen_random("sbio", BlockPartition((2, 3)), 7)
    for text in layouts(kraus_to_json(ks)):
        attempts.clear()
        got = serialize.load_json(text)
        assert len(attempts) == ks.n_operators
        assert all(isinstance(op, np.ndarray) for op in got["kraus"])


def test_appendix_suites_reject_single_block_partitions(capsys):
    for suite in ("appendix-a", "appendix-b"):
        for partition in ("3", "1"):
            code, out, err = run(capsys, "verify", suite, "--partition", partition)
            assert code == 1 and out == ""
            assert err.count("\n") == 1
            message = json.loads(err)
            assert message["kind"] == "parse"
            assert "admits no violating pattern" in message["error"]
    # suites without a violating generator still run on one block
    code, out, _ = run(capsys, "verify", "inclusion", "--partition", "3", "--trials", "5")
    assert code == 0 and out.startswith("PASS")


def test_stacked_faithfulness_matches_per_state_loop():
    verdicts = set()
    for dims in ((1, 1), (2, 3), (1, 2, 2), (4,)):
        p = BlockPartition(dims)
        rng = np.random.default_rng(sum(dims))
        rhos = [random_density_matrix(p.total, s) for s in range(40)]
        states = rhos + [block_dephase(p, rho) for rho in rhos]
        # free states with a cross-block leak around both thresholds
        for rho in rhos[:20]:
            leak = (rho - block_dephase(p, rho)) * 10.0 ** rng.uniform(-12, -6)
            states.append(block_dephase(p, rho) + leak)
        want = []
        for state in states:
            free = is_block_incoherent(p, state, 1e-8)
            want.append(all(
                value >= -1e-12 and (value <= 1e-9) == free
                for value in (measures.rel_entropy_block_coherence(p, state),
                              measures.l1_block_coherence(p, state))
            ))
        got = faithful(p, np.stack(states))
        assert got.tolist() == want, dims
        verdicts.update(want)
    assert verdicts == {True, False}


def scaled(dilate):
    def dilate_scaled(povm):
        ext = dilate(povm)
        return NaimarkExtension(ext.system_dim, ext.outcomes, (1 + 1e-6) * ext.global_unitary)
    return dilate_scaled


def unequal_ranks(dilate):
    # orthogonal coordinate projectors summing to I, of ranks d + 1, d, ..., d, d - 1
    def dilate_unequal(povm):
        ext = dilate(povm)
        owner = np.repeat(np.arange(ext.outcomes), ext.system_dim)
        owner[-1] = 0
        ext.pvm = np.array([np.diag(owner == i) for i in range(ext.outcomes)]).astype(complex)
        return ext
    return dilate_unequal


# (case, suite, the checks that must print FAIL, the blockcoh function replaced,
#  and the replacement, made from the original)
BROKEN_INPUTS = [
    ("members-violate", "appendix-a", ["bio-structural-implies-semantic"],
     "channels.gen_random", lambda gen: gen_pattern_violating),
    ("violators-are-members", "appendix-a", ["bio-pattern-violations-rejected"],
     "channels.gen_pattern_violating", lambda gen: gen_random),
    # still violating, so only the completeness requirement can leave them unrejected
    ("violators-incomplete", "appendix-a", ["bio-pattern-violations-rejected"],
     "channels.gen_pattern_violating",
     lambda bad: lambda kind, p, seed: KrausSet(p, 2.0 * bad(kind, p, seed).operators)),
    ("violators-are-members", "appendix-b", ["sbio-pattern-violations-rejected"],
     "channels.gen_pattern_violating", lambda gen: gen_random),
    ("members-are-bio", "appendix-b",
     ["sbio-structural-implies-semantic", "sbio-commutes-with-dephasing"],
     "channels.gen_random", lambda gen: lambda kind, p, seed: gen("bio", p, seed)),
    ("bio-bound-off", "lemmas", [f"rank-one-bounds-d={d}" for d in range(2, 6)],
     "counting.bio_bound", lambda bound: lambda p: bound(BlockPartition(p.dims + (1,)))),
    ("members-are-dense", "inclusion", ["pbio-within-sbio", "sbio-within-bio", "bio-within-mbio"],
     "channels.gen_random", lambda gen: lambda kind, p, seed: gen("unitary", p, seed)),
    ("scaled", "naimark", ["dilation-unitary", "dilation-pvm-properties",
                           "dilation-probabilities"], "naimark.dilate", scaled),
    ("unequal-ranks", "naimark", ["dilation-pvm-properties"], "naimark.dilate", unequal_ranks),
    ("l1-negative-on-free-states", "measures", ["nonnegativity-and-faithfulness"],
     "measures.l1_block_coherence", lambda l1: lambda p, rho: np.where(
         is_block_incoherent(p, rho, 1e-8), -1e-6, l1(p, rho))),
    ("gap-shifted", "measures", ["nonnegativity-and-faithfulness"],
     "measures.rel_entropy_block_coherence", lambda gap: lambda p, rho: gap(p, rho) + 1.0),
    ("gap-negated", "measures", ["monotonicity", "strong-monotonicity", "convexity"],
     "measures.rel_entropy_block_coherence", lambda gap: lambda p, rho: -gap(p, rho)),
]


@pytest.mark.parametrize("suite, failing, target, breaking", [case[1:] for case in BROKEN_INPUTS],
                         ids=[f"{case[1]}-{case[0]}" for case in BROKEN_INPUTS])
def test_every_verify_check_can_fail(suite, failing, target, breaking, capsys, tmp_path,
                                     monkeypatch):
    module, name = target.split(".")
    module = importlib.import_module(f"blockcoh.{module}")
    monkeypatch.setattr(module, name, breaking(getattr(module, name)))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", suite, "--trials", "10")
    assert (code, err) == (1, "")
    lines = {line.split()[1]: line for line in out.splitlines()}
    for name in failing:
        assert lines[name].startswith(f"FAIL {name} "), out
    # a failed probe writes its counterexample into the cwd and names it; nothing else is written
    probes = [name for name in failing if name.endswith("monotonicity")]
    artifacts = [f"blockcoh-counterexample-{probe}.json" for probe in probes]
    assert sorted(path.name for path in tmp_path.iterdir()) == artifacts
    for probe, artifact in zip(probes, artifacts):
        assert lines[probe].endswith(f" counterexample={artifact}")
        assert json.loads((tmp_path / artifact).read_text())["probe"] == probe


def test_bound_prints_totals_past_the_int_digit_limit(capsys):
    # str() of an int stops at 4300 digits by default; the bound at (120,120) has 4335
    code, out, err = run(capsys, "bound", "--class", "bio", "--partition", "120,120")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    want = counting.bio_bound(BlockPartition((120, 120)))
    assert len(payload["total"]) > 4300
    # compared through Decimal, since int() of the text is limited too
    assert decimal.Decimal(payload["total"]) == decimal.Decimal(want.total)
    assert [decimal.Decimal(c) for c in payload["per_level"]] == [
        decimal.Decimal(c) for c in want.per_level]


def test_command_line_partitions_follow_the_json_rule(capsys):
    for text in ("2,,3", "2,3,", ",2", "1_0", "", " ", "2,x", "+2", "-1,2", "2.0", "0,3",
                 "٣", "２,3", "2 3"):
        parse_error(capsys, "gen", "--class", "bio", f"--partition={text}")
        with pytest.raises(serialize.SchemaError):
            serialize.parse_partition(text)
    # whitespace around a field is stripped
    assert serialize.parse_partition(" 2, 3 ") == BlockPartition((2, 3))
    _, want, _ = run(capsys, "gen", "--class", "bio", "--partition", "2,3")
    code, got, _ = run(capsys, "gen", "--class", "bio", "--partition", "2, 3")
    assert code == 0 and got == want


def test_negative_seed_is_a_parse_error(capsys):
    for argv in (["gen", "--class", "bio", "--seed", "-1"],
                 ["verify", "lemmas", "--seed", "-1"],
                 ["verify", "inclusion", "--seed=-7", "--trials", "2"],
                 ["gen", "--class", "bio", "--seed", "9" * 5000]):  # past int()'s digit limit
        assert "--seed" in parse_error(capsys, *argv)
    code, out, _ = run(capsys, "gen", "--class", "bio", "--seed", "0")
    assert code == 0 and json.loads(out)["partition"] == [2, 3]


def test_seed_trials_and_partition_fields_share_one_integer_rule(capsys):
    # none is ASCII digits, although int() reads the first four as 3, 10, 7 and 2
    for text in ("٣", "1_0", "+7", "２", "1 0", "7.0"):
        with pytest.raises(serialize.SchemaError):
            serialize.parse_int(text, 0)
        for argv in (["gen", "--class", "bio", "--seed", text],
                     ["verify", "inclusion", "--trials", text],
                     ["gen", "--class", "bio", "--partition", f"2,{text}"]):
            assert "in ASCII digits" in parse_error(capsys, *argv), argv
    # whitespace around the digits is stripped and leading zeros are read
    assert serialize.parse_int(" 3 ", 0) == 3 and serialize.parse_int("007", 1) == 7
    for argv, flag in ((["gen", "--class", "bio"], "--seed"),
                       (["gen", "--class", "bio"], "--partition"),
                       (["verify", "inclusion"], "--trials")):
        for text, same in ((" 3 ", "3"), ("007", "7")):
            got = run(capsys, *argv, flag, text)
            assert got[0] == 0 and got == run(capsys, *argv, flag, same), (flag, text)
    # each flag keeps its minimum: a seed may be 0, a trial count or a block size may not
    zero = run(capsys, "gen", "--class", "bio", "--seed", "000")
    assert zero[0] == 0 and zero == run(capsys, "gen", "--class", "bio", "--seed", "0")
    assert ">= 1" in parse_error(capsys, "verify", "inclusion", "--trials", "000")
    assert ">= 1" in parse_error(capsys, "gen", "--class", "bio", "--partition", " 0 ")


def test_input_file_content_errors_are_parse_errors(tmp_path, capsys, monkeypatch):
    zero = {"dim": 2, "matrix": matrix_to_json(np.zeros((2, 2)))}
    skew = {"dim": 2, "matrix": matrix_to_json(np.array([[0.5, 1.0], [0.0, 0.5]]))}
    negative = {"dim": 2, "matrix": matrix_to_json(np.diag([1.5, -0.5]))}
    mixed = matrix_to_json(np.eye(2) / 2)
    p = BlockPartition((1, 1))
    kraus = kraus_to_json(KrausSet(p, np.array(block_projectors(p))))
    measure = ["measure", "--partition", "1,1", "--state"]
    for argv, obj, why in (
        (measure, zero, "trace differs from 1"),
        (measure, skew, "not hermitian"),
        (measure, negative, "not positive semidefinite"),
        (measure, [mixed], 'state file must be an object with "dim" and "matrix"'),
        (measure, {"dim": 3, "matrix": mixed}, "state matrix is 2x2, expected 3x3"),
        (["measure", "--partition", "2,3", "--state"], {"dim": 2, "matrix": mixed},
         "state dimension 2 does not match partition (2,3)"),
        (["classify", "--partition", "1,1,1"], kraus, "must be 3x3"),
        (["classify"], dict(kraus, dim=4, partition=[2, 3]),
         "dim 4 does not match partition total 5"),
        (["dilate"], {"effects": [[[[1, 0], [0, 0]]]]},
         "effects must be a nonempty list of square matrices"),
    ):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        assert why in parse_error(capsys, *argv, str(path)), argv
    # input is UTF-8: other bytes are one parse error, the same from a file and from stdin
    state = json.dumps({"dim": 1, "matrix": [[[1, 0]]]}).encode()
    for argv, data, why in (
        (["measure", "--partition", "1", "--state"], state + b"\xff",
         "'utf-8' codec can't decode byte 0xff in position 32: invalid start byte"),
        (["classify"], b'{"dim": 2, "partition": [1, 1], "kraus": [\xc3]}',
         "'utf-8' codec can't decode byte 0xc3 in position 42: invalid continuation byte"),
        (["dilate"], b"\xfe\xff" + json.dumps(povm_to_json(Povm(np.eye(1)[None]))).encode(),
         "'utf-8' codec can't decode byte 0xfe in position 0: invalid start byte"),
    ):
        path = tmp_path / "in.json"
        path.write_bytes(data)
        monkeypatch.setattr("sys.stdin", stdin_of(data))
        for source in (str(path), "-"):
            assert parse_error(capsys, *argv, source) == why, (argv, source)


def test_povm_effects_without_dim_take_the_first_effects_size(tmp_path, capsys):
    effect = matrix_to_json(np.eye(2))
    path = tmp_path / "povm.json"
    path.write_text(json.dumps({"effects": [[[[1, 0]]], effect]}))
    code, out, err = run(capsys, "dilate", str(path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "effect 1 is 2x2, expected 1x1", "kind": "parse"}
    # effects that agree in size are read without "dim"
    povm = serialize.povm_from_json({"effects": [effect]})
    assert povm.dim == 2 and povm.n_outcomes == 1
