"""Compare the bytes of gen, classify, dilate -o, measure and verify with a parent checkout.

Usage, from the repository root:

    python tests/outputs_vs_parent.py PARENT_SRC [HEAD_SRC]

PARENT_SRC is the ``src`` directory of another checkout, for example one
unpacked from ``git archive``; HEAD_SRC defaults to this checkout's ``src``.
Each side runs the same fixed list of invocations through
``blockcoh.cli.main`` in one child interpreter, in a temporary directory that
holds the inputs of ``tests/data/golden``, the POVM and state files written
below, and Kraus sets of every class at (8,8,8,8) and (16,16,16) that
PARENT_SRC's ``gen -o`` writes, each in three layouts. The script prints the
first byte that differs (invocation, stream or file, offset and the bytes
around it) and exits 1, or prints how many invocations matched and exits 0.

These outputs hold floats computed by LAPACK, which can differ in the last
bits between BLAS builds, so they are compared on one machine rather than
against a committed file; ``tests/test_golden.py`` holds the outputs without
such floats. The file name keeps pytest from collecting this script.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "golden"

# Runs every invocation of invocations.json through cli.main, an argv or
# [argv, file fed to stdin]; the codes and the module's file go to
# results.json, each stream to results/<i>.<stream>.
CHILD = r"""
import contextlib, io, json, sys
from blockcoh import cli
with open("invocations.json") as fh:
    runs = json.load(fh)
codes = []
for i, run in enumerate(runs):
    argv, stdin = run if isinstance(run[0], list) else (run, None)
    if stdin is not None:
        with open(stdin, "rb") as fh:
            sys.stdin = io.TextIOWrapper(io.BytesIO(fh.read()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes.append(cli.main(argv))
    for stream, text in (("stdout", out), ("stderr", err)):
        with open(f"results/{i}.{stream}", "w", encoding="utf-8") as fh:
            fh.write(text.getvalue())
with open("results.json", "w") as fh:
    json.dump({"codes": codes, "module": cli.__file__}, fh)
"""


def matrix(a):
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def random_effects(d, n, rng):
    # G_i^dag G_i conjugated by S^-1/2, S = sum_i G_i^dag G_i
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    e = g.conj().transpose(0, 2, 1) @ g
    vals, vecs = np.linalg.eigh(e.sum(axis=0))
    root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return root @ e @ root


def projective_effects(d, n, rng):
    # projectors onto consecutive groups of a random orthonormal basis
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return np.array([q[:, g] @ q[:, g].conj().T for g in np.array_split(np.arange(d), n)])


def input_files(rng):
    """POVM and state files, by name: the dilation's one-panel, multi-panel,
    exact-skip and rounding-decided paths, and states of a few sizes."""
    povms = {f"povm_{d}_{n}.json": random_effects(d, n, rng)
             for d, n in ((1, 1), (2, 3), (4, 4), (8, 8), (4, 16), (16, 4), (16, 16))}
    for d, n in ((5, 3), (16, 8)):
        weights = rng.dirichlet(np.ones(n), size=d).T
        povms[f"diagonal_{d}_{n}.json"] = np.array([np.diag(w) for w in weights])
    for d, n in ((7, 5), (12, 7), (16, 8)):
        povms[f"projective_{d}_{n}.json"] = projective_effects(d, n, rng)
    files = {name: {"dim": e.shape[1], "effects": [matrix(m) for m in e]}
             for name, e in povms.items()}
    for d in (3, 6, 8):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        files[f"state_{d}.json"] = {"dim": d, "matrix": matrix(rho / np.trace(rho).real)}
    return files


# gen -o writes these with PARENT_SRC before either side runs
GEN_PARTITIONS = ("8,8,8,8", "16,16,16")
GEN = r"""
import sys
from blockcoh import cli
for kind in ("bio", "sbio", "pbio", "unitary"):
    for part in sys.argv[1:]:
        out = f"gen_{kind}_{part.replace(',', '_')}.json"
        argv = ["gen", "--class", kind, "--partition", part, "--seed", "7", "-o", out]
        assert cli.main(argv) == 0
"""


def generated_sets(src: Path):
    """The gen -o files of every class at GEN_PARTITIONS, each also compact and tab/CRLF."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", GEN, *GEN_PARTITIONS], cwd=tmp, env=env, check=True)
        for path in sorted(Path(tmp).iterdir()):
            text = path.read_text()
            obj = json.loads(text)
            texts[path.name] = text
            texts["compact_" + path.name] = json.dumps(obj, separators=(",", ":"))
            texts["tabs_" + path.name] = json.dumps(obj, indent="\t").replace("\n", "\r\n")
    return texts


def invocations(files):
    runs = []
    for kind in ("bio", "sbio", "pbio", "unitary"):
        for part in ("2,3", "1,15", "1,1,1"):
            for seed in ("7", "8"):
                runs.append(["gen", "--class", kind, "--partition", part, "--seed", seed])
    povms = sorted(name for name in files if name.startswith(("povm", "diagonal", "projective")))
    for name in ["trine.json"] + povms:
        runs.append(["dilate", name, "-o", f"out/{name}"])
    states = [("plus.json", ("1,1", "2")), ("state_2_3.json", ("2,3", "1,1,1,1,1", "5", "1,4")),
              ("state_3.json", ("1,1,1", "1,2")), ("state_6.json", ("3,3", "1,2,3")),
              ("state_8.json", ("4,4", "2,2,2,2", "1,1,1,1,1,1,1,1"))]
    for name, parts in states:
        for part in parts:
            for measure in ("rel-entropy", "l1"):
                runs.append(["measure", "--state", name, "--partition", part,
                             "--measure", measure])
    for name in sorted(name for name in files if name.startswith("gen_")):
        for layout in ("", "compact_", "tabs_"):
            runs.append(["classify", layout + name])
        runs.append([["classify", "-"], name])
        runs.append(["classify", name, "--tol=1e-6"])
    suites = ("appendix-a", "appendix-b", "lemmas", "inclusion", "naimark", "measures")
    runs += [["verify", suite] for suite in suites]
    runs += [["verify", suite, "--seed", "1", "--trials", "50"] for suite in suites]
    return runs


def run_side(src: Path, work: Path, files, runs):
    for path in GOLDEN.iterdir():
        if path.name != "manifest.json":
            shutil.copy(path, work)
    for name, obj in files.items():
        (work / name).write_text(obj if isinstance(obj, str) else json.dumps(obj) + "\n")
    (work / "invocations.json").write_text(json.dumps(runs))
    (work / "out").mkdir()
    (work / "results").mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("BLOCKCOH_TOL", None)
    subprocess.run([sys.executable, "-c", CHILD], cwd=work, env=env, check=True)
    meta = json.loads((work / "results.json").read_text())
    if not Path(meta["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"{src}: imported blockcoh from {meta['module']}")
    return meta["codes"]


def first_difference(a: bytes, b: bytes):
    if a == b:
        return None
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[max(0, i - 40):i + 40], b[max(0, i - 40):i + 40]


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[1]).resolve()
    head = Path(argv[2]).resolve() if len(argv) == 3 else HERE.parent / "src"
    files = input_files(np.random.default_rng(20))
    files.update(generated_sets(parent))
    runs = invocations(files)
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Path(tmp, "parent"), Path(tmp, "head")]
        codes = []
        for src, work in zip((parent, head), sides):
            work.mkdir()
            codes.append(run_side(src, work, files, runs))
        for i, argv_i in enumerate(runs):
            if codes[0][i] != codes[1][i]:
                print(f"{argv_i}: exit code {codes[0][i]} (parent) vs {codes[1][i]} (head)")
                return 1
            targets = [f"results/{i}.stdout", f"results/{i}.stderr"]
            if "-o" in argv_i:
                targets.append(argv_i[argv_i.index("-o") + 1])
            for target in targets:
                diff = first_difference(*((side / target).read_bytes() for side in sides))
                if diff is not None:
                    offset, was, now = diff
                    print(f"{argv_i}: {target} differs at byte {offset}\n"
                          f"  parent: {was!r}\n  head:   {now!r}")
                    return 1
        # every file, those a run left behind (verify's counterexamples) included
        names = [sorted(p.relative_to(side).as_posix() for p in side.rglob("*") if p.is_file())
                 for side in sides]
        if names[0] != names[1]:
            print(f"the runs left different files: {sorted(set(names[0]) ^ set(names[1]))}")
            return 1
        for name in names[0]:
            diff = first_difference(*((side / name).read_bytes() for side in sides))
            if diff is not None and name != "results.json":
                print(f"{name} differs at byte {diff[0]}")
                return 1
    print(f"{len(runs)} invocations: exit codes, stdout, stderr and -o files identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
