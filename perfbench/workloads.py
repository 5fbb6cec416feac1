"""The four workloads.  Each is a fixed list of verdicts, a *pass*.

A workload makes its inputs from the benchmark seed in ``generate`` and runs
one pass in ``run_pass``.  Every call into blockcoh goes through
``Pass.call``, which times it and counts it as one attempted operation; the
benchmark's own checks run between the calls, untimed, and raise
checks.CheckFailed on a wrong output.  Module attributes are looked up at
call time so that the layer tracer's wrappers are the ones called.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout

import numpy as np

import checks
import layers
from blockcoh import blockcore, channels, cli, counting, measures, naimark, sampling
from checks import require

HERE = os.path.dirname(os.path.abspath(__file__))


class Pass:
    """Time, attempted and failed counts of one pass."""

    def __init__(self):
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []       # messages of operations that raised
        self.child_groups = {}   # layer totals reported by traced child processes
        self.extension_bytes = []

    def call(self, fn, *args, **kwargs):
        """Run one operation, timed.  Returns (ok, result or exception)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.seconds += time.perf_counter() - start
            self.failed += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return False, exc
        self.seconds += time.perf_counter() - start
        return True, result


def _seed(base: int, index: int) -> int:
    return base * 1_000_000 + index


def _partition(dims):
    return blockcore.BlockPartition(dims)


def _sized_set(kind: str, dims, seed: int):
    """The first set ``gen_random`` makes from ``seed`` on with a fixed operator count.

    gen_random draws the count from its seed (d to d + 2 operators for BIO
    and SBIO, 1 to 3 for PBIO) and classifier and probe costs follow it.
    Taking d + 1, or 2 for PBIO, keeps the work of a pass the same for every
    benchmark seed while the operators themselves stay random.
    """
    part = _partition(dims)
    want = 2 if kind == "pbio" else part.total + 1
    for s in range(seed, seed + 100):
        ks = channels.gen_random(kind, part, s)
        if ks.n_operators == want:
            return ks
    raise RuntimeError(f"no {kind} set with {want} operators for {dims} from seed {seed}")


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

class VerifySuites:
    """Each ``blockcoh verify`` suite as its own child process, as users run it.

    The suites run at the command-line defaults: seed 42, 200 trials and
    partition (2,3).  The benchmark seed does not reach them, so every run
    times the same work as ``blockcoh verify <suite>``.
    """

    SUITES = tuple(checks.SUITE_CHECKS)
    WORKS_IN_CHILDREN = True
    TRIALS = 200

    def __init__(self, seed: int, root: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def generate(self):
        cwd = os.path.join(self.workdir, "cwd")
        os.makedirs(cwd, exist_ok=True)
        return {"cwd": cwd, "argv": {s: ["verify", s] for s in self.SUITES}}

    @staticmethod
    def same_inputs(a, b) -> bool:
        return a == b

    def run_pass(self, inputs, p: Pass, traced: bool = False):
        cwd = inputs["cwd"]
        summary = os.path.join(self.workdir, "trace-summary.json")
        for suite in self.SUITES:
            args = inputs["argv"][suite]
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "tracechild.py"), summary, *args]
            else:
                cmd = [sys.executable, "-m", "blockcoh.cli", *args]
            ok, proc = p.call(subprocess.run, cmd, cwd=cwd, env=self.env,
                              capture_output=True, text=True, timeout=150)
            if not ok:
                continue
            checks.check_suite_output(suite, proc.returncode, proc.stdout, self.TRIALS)
            checks.check_no_leftovers(cwd)
            if traced:
                with open(summary) as fh:
                    data = json.load(fh)
                os.unlink(summary)
                layers.merge(p.child_groups, data["groups"])
                p.extension_bytes.extend(data["extension_bytes"])


# ---------------------------------------------------------------------------
# classify-ladder
# ---------------------------------------------------------------------------

def _write_kraus_file(path: str, dims, ops: np.ndarray):
    # The documented Kraus-set format, written without blockcoh.serialize and
    # one operator at a time, so that set-up adds little to the peak RSS.
    with open(path, "w") as fh:
        fh.write(f'{{"dim": {sum(dims)}, "partition": {json.dumps(list(dims))}, "kraus": [')
        for n, op in enumerate(ops):
            fh.write((", " if n else "") + json.dumps(np.stack([op.real, op.imag], axis=-1).tolist()))
        fh.write("]}\n")


class ClassifyLadder:
    """``blockcoh classify`` through cli.main on member files, plus violators.

    Members scan every basis pair; violators can stop at the first broken
    pair.  The BIO member is left off (16,16,16), where its report alone
    would add 2 s to a pass.  SBIO violators are generated on every rung but
    (8,8,8,8) and (16,16,16); where the first block is a largest block that
    generation always fails.
    """

    LADDER = ((2, 3), (3, 5, 7), (4, 4, 4), (1, 15), (1,) * 8, (8, 8, 8, 8), (16, 16, 16))
    BIG = ((8, 8, 8, 8), (16, 16, 16))

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.members = [
            (kind, dims)
            for dims in self.LADDER
            for kind in ("bio", "sbio", "pbio")
            if kind != "bio" or dims != (16, 16, 16)
        ]
        self.violators = [
            (kind, dims)
            for dims in self.LADDER
            for kind in ("bio", "sbio")
            if not (kind == "sbio" and dims in self.BIG)
        ]

    def generate(self):
        members = []
        for i, (kind, dims) in enumerate(self.members):
            ops = _sized_set(kind, dims, _seed(self.seed, 100 * i)).operators
            path = os.path.join(self.workdir, f"{kind}-{'_'.join(map(str, dims))}.json")
            _write_kraus_file(path, dims, ops)
            members.append((kind, dims, path, ops))
        violators = [(kind, dims, _seed(self.seed, 10_000 + i))
                     for i, (kind, dims) in enumerate(self.violators)]
        return {"members": members, "violators": violators}

    @staticmethod
    def same_inputs(a, b) -> bool:
        return a["violators"] == b["violators"] and all(
            x[:3] == y[:3] and np.array_equal(x[3], y[3]) for x, y in zip(a["members"], b["members"])
        )

    @staticmethod
    def _classify_file(path: str):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["classify", path])
        return code, out.getvalue()

    @staticmethod
    def _violate_and_classify(kind, dims, seed):
        ks = channels.gen_pattern_violating(kind, _partition(dims), seed)
        verdict = channels.is_bio_semantic(ks) if kind == "bio" else channels.is_sbio_semantic(ks)
        return ks.operators, verdict

    def run_pass(self, inputs, p: Pass, traced: bool = False):
        rng = np.random.default_rng(self.seed)
        for kind, dims, path, ops in inputs["members"]:
            ok, result = p.call(self._classify_file, path)
            if not ok:
                continue
            code, text = result
            require(code == 0, f"classify {kind} member {dims} exited {code}")
            checks.check_member(kind, ops, dims, checks.check_report_json(text), rng)
        for kind, dims, seed in inputs["violators"]:
            ok, result = p.call(self._violate_and_classify, kind, dims, seed)
            if ok:
                checks.check_violator(kind, result[0], dims, result[1])


# ---------------------------------------------------------------------------
# measure-axioms
# ---------------------------------------------------------------------------

class MeasureAxioms:
    """Monotonicity, strong monotonicity and convexity probes for both measures.

    The monotonicity probes run on many channels with few trials each, all
    channels of a partition with d + 1 operators.
    """

    PARTITIONS = ((2, 3), (1, 1, 1, 1), (4, 4, 4))
    MEASURES = ("rel_entropy_block_coherence", "l1_block_coherence")
    CHANNELS = 20
    TRIALS = 10
    CONVEXITY_TRIALS = 200

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed

    def generate(self):
        rng = np.random.default_rng(self.seed)
        cases = []
        for i, dims in enumerate(self.PARTITIONS):
            base = _seed(self.seed, 10_000 * i)
            chans = [_sized_set("bio", dims, base + 100 * c) for c in range(self.CHANNELS)]
            free = checks.random_free_state(dims, rng)
            cases.append((dims, chans, free, _seed(self.seed, 100_000 + 10_000 * i)))
        return cases

    @staticmethod
    def same_inputs(a, b) -> bool:
        return all(
            x[0] == y[0] and x[3] == y[3] and np.array_equal(x[2], y[2])
            and all(np.array_equal(u.operators, v.operators) for u, v in zip(x[1], y[1]))
            for x, y in zip(a, b)
        )

    def run_pass(self, cases, p: Pass, traced: bool = False):
        for dims, chans, free, seed in cases:
            part = _partition(dims)
            for name in self.MEASURES:
                measure = getattr(measures, name)
                for probe in ("monotonicity_probe", "strong_monotonicity_probe"):
                    for c, channel in enumerate(chans):
                        ok, worst = p.call(getattr(measures, probe), measure, part, channel,
                                           trials=self.TRIALS, seed=seed + c * self.TRIALS)
                        # Only the entropy gap is a proven BIO monotone; the l1
                        # probes run for their cost, their values are not gated.
                        if ok and name == "rel_entropy_block_coherence":
                            checks.check_axiom(f"{probe} {name} {dims} channel {c}", worst)
                ok, worst = p.call(measures.convexity_probe, measure, part,
                                   trials=self.CONVEXITY_TRIALS, seed=seed)
                if ok:
                    checks.check_axiom(f"convexity {name} {dims}", worst)
                ok, value = p.call(measure, part, free)
                if ok:
                    checks.check_zero_on_free(f"{name} {dims}", value)
            d = sum(dims)
            ok, value = p.call(measures.von_neumann_entropy, np.eye(d) / d)
            if ok:
                checks.check_max_mixed_entropy(d, value)


# ---------------------------------------------------------------------------
# bounds-dilation
# ---------------------------------------------------------------------------

class BoundsDilation:
    """Naimark dilation of random POVMs and the operator-count bounds."""

    POVM_SIZES = ((4, 4), (8, 8), (4, 16), (16, 4), (16, 16))
    VERIFY_TRIALS = 20
    STATES = 4
    BOUND_PARTITIONS = ((1,) * 6, (3, 1, 2, 1, 2, 1), (1,) * 7, (2, 1, 2, 1, 2, 1, 2),
                        (1,) * 8, (2, 1, 1, 2, 1, 1, 2, 1))

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed

    def generate(self):
        rng = np.random.default_rng(self.seed)
        povms = []
        for i, (d, n) in enumerate(self.POVM_SIZES):
            povm = naimark.Povm(sampling.random_povm(d, n, _seed(self.seed, i)))
            rhos = np.stack([checks.random_free_state((d,), rng) for _ in range(self.STATES)])
            povms.append((povm, rhos, _seed(self.seed, 100 + i)))
        partitions = self.BOUND_PARTITIONS + tuple(checks.FROZEN_BOUNDS)
        return {"povms": povms, "partitions": partitions}

    @staticmethod
    def same_inputs(a, b) -> bool:
        return a["partitions"] == b["partitions"] and all(
            np.array_equal(x[0].effects, y[0].effects) and np.array_equal(x[1], y[1]) and x[2] == y[2]
            for x, y in zip(a["povms"], b["povms"])
        )

    def run_pass(self, inputs, p: Pass, traced: bool = False):
        for povm, rhos, seed in inputs["povms"]:
            label = f"dilation (d, n) = ({povm.dim}, {povm.n_outcomes})"
            ok, ext = p.call(naimark.dilate, povm)
            if not ok:
                continue
            checks.check_unitary(ext.global_unitary, label)
            checks.check_dilation_probabilities(ext.global_unitary, ext.ancilla_state_index,
                                                povm.effects, rhos, label)
            ok, worst = p.call(naimark.verify_dilation, povm, ext,
                               trials=self.VERIFY_TRIALS, seed=seed)
            if ok:
                require(worst <= checks.PROB_TOL, f"{label}: verify_dilation reports {worst:.3e}")
            del ext
        for dims in inputs["partitions"]:
            for kind, fn in (("bio", counting.bio_bound), ("sbio", counting.sbio_bound)):
                ok, report = p.call(fn, _partition(dims))
                if ok:
                    checks.check_bound(kind, dims, report.per_level, report.total)


WORKLOADS = {
    "verify-suites": VerifySuites,
    "classify-ladder": ClassifyLadder,
    "measure-axioms": MeasureAxioms,
    "bounds-dilation": BoundsDilation,
}
