"""The command line's bytes against a committed manifest.

``tests/data/golden/manifest.json`` maps an argv, and for ``classify -`` the
file fed to stdin, to the exit code, stdout and stderr that ``cli.main``
gave for it when the manifest was recorded. Its rows are the outputs that
hold no float computed by LAPACK, so they are the same on every BLAS build:
``classify`` reports, ``bound`` counts and error lines. The other files of
that directory are the inputs the rows name; the ``dilate`` rows that exit 0
read diagonal 0/1 projectors, whose dilation is exact. ``gen``, ``dilate`` and
``measure`` print floats that can differ in the last bits between builds;
``tests/outputs_vs_parent.py`` compares those against a parent checkout on
one machine instead.
"""

import io
import json
import shutil
import sys
from pathlib import Path

from blockcoh.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


def test_commands_match_the_golden_manifest(tmp_path, capsys, monkeypatch):
    rows = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    inputs = sorted(path.name for path in GOLDEN.iterdir() if path.name != "manifest.json")
    for name in inputs:
        shutil.copy(GOLDEN / name, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BLOCKCOH_TOL", raising=False)
    for row in rows:
        data = (tmp_path / row["stdin"]).read_bytes() if "stdin" in row else b""
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code = main(list(row["argv"]))
        out, err = capsys.readouterr()
        assert (code, out, err) == (row["code"], row["stdout"], row["stderr"]), row["argv"]
    # every input is read by some row, and no row wrote a file
    named = {arg for row in rows for arg in row["argv"] + [row.get("stdin")]}
    assert set(inputs) <= named, set(inputs) - named
    assert sorted(path.name for path in tmp_path.iterdir()) == inputs
    assert {row["code"] for row in rows} == {0, 1, 2}
