"""blockcoh benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the ``src`` directory next to
this one, never from site-packages.  A run times ``import blockcoh``, makes
the workload's inputs from the seed three times (each must match the first),
runs one untimed warm-up pass, then repeats the identical pass until S
seconds have passed.  Every program output is checked on every pass.

With --trace 0 the result carries the end-to-end metrics: setup_s (import +
median generation + warm-up pass), pass_s (the median over the timed passes
of the time a pass spends in blockcoh calls) and peak_rss_mb.  With --trace 1 it
carries the per-layer metrics instead: the timed phase alternates untraced
and traced passes, and trace.overhead_s is the difference of their medians.
Results are also saved under perfbench/out/results, and the spans of the
last traced pass under perfbench/out/traces.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify-suites", "classify-ladder", "measure-axioms", "bounds-dilation")
GENERATIONS = 3
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_blockcoh() -> float:
    """Import the package from SRC and return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "blockcoh", "__init__.py")):
        raise SystemExit(f"benchmark: no blockcoh sources under {SRC}")
    # One BLAS thread, set before numpy loads; no tolerance override.
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    os.environ.pop("BLOCKCOH_TOL", None)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    package = importlib.import_module("blockcoh")
    seconds = time.perf_counter() - start
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: blockcoh was imported from {package.__file__}")
    return seconds


class Run:
    """What one run measured, filled in as far as it got."""

    def __init__(self):
        self.problem = None      # message of the first failed check
        self.setup = {}          # part -> seconds
        self.warmup = None       # the warm-up Pass
        self.passes = []         # untraced timed passes
        self.traced = []         # traced timed passes (trace runs only)
        self.setup_groups = {}
        self.setup_extension_bytes = []
        self.last_spans = []

    def timed(self):
        return self.passes + self.traced

    def counted(self):
        """The timed passes, or the warm-up pass when a check stopped the run before them."""
        return self.timed() or [p for p in (self.warmup,) if p is not None]


def measure(wl, run: Run, seconds: float):
    from checks import require
    from workloads import Pass

    inputs, times = None, []
    for _ in range(GENERATIONS):
        start = time.perf_counter()
        new = wl.generate()
        times.append(time.perf_counter() - start)
        require(inputs is None or wl.same_inputs(inputs, new),
                "inputs generated twice from one seed differ")
        inputs = new
    run.setup["generation"] = statistics.median(times)
    warm_up(wl, run, inputs)
    start = time.perf_counter()
    while not run.passes or time.perf_counter() - start < seconds:
        run.passes.append(Pass())
        wl.run_pass(inputs, run.passes[-1])


def measure_traced(wl, run: Run, seconds: float):
    import layers
    from checks import require
    from workloads import Pass

    tracer = layers.Tracer()
    start = time.perf_counter()
    tracer.install()
    try:
        inputs = wl.generate()
    finally:
        tracer.uninstall()
    run.setup["generation"] = time.perf_counter() - start
    run.setup_groups, _, run.setup_extension_bytes = tracer.take()
    warm_up(wl, run, inputs)
    start = time.perf_counter()
    while not run.traced or time.perf_counter() - start < seconds:
        run.passes.append(Pass())
        wl.run_pass(inputs, run.passes[-1])
        p = Pass()
        run.traced.append(p)
        tracer.install()
        try:
            wl.run_pass(inputs, p, traced=True)
        finally:
            tracer.uninstall()
        p.groups, run.last_spans, extension_bytes = tracer.take()
        layers.merge(p.groups, p.child_groups)
        p.extension_bytes.extend(extension_bytes)
        calls = {g: c for g, (c, _) in p.groups.items()}
        require(calls == {g: c for g, (c, _) in run.traced[0].groups.items()},
                "call counts differ between identical traced passes")


def warm_up(wl, run: Run, inputs):
    from workloads import Pass

    run.warmup = Pass()
    start = time.perf_counter()
    wl.run_pass(inputs, run.warmup)
    run.setup["warm-up"] = time.perf_counter() - start


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if getattr(wl, "WORKS_IN_CHILDREN", False) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def pass_median(passes) -> float:
    return statistics.median(p.seconds for p in passes)


def end_to_end_metrics(wl, run: Run) -> dict:
    passes = run.counted()
    return {
        "setup_s": {"value": sum(run.setup.values()), "unit": "s"},
        "pass_s": {"value": pass_median(passes) if passes else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(wl), "unit": "MB"},
    }


def layer_metrics(run: Run) -> dict:
    import layers

    traced = run.traced
    metrics = {}
    for group, field in layers.LAYER_METRICS:
        calls, seconds = run.setup_groups.get(group, [0, 0.0])
        if field == "calls":
            value = calls + (traced[0].groups.get(group, [0, 0.0])[0] if traced else 0)
        else:
            per_pass = [p.groups.get(group, [0, 0.0])[1] for p in traced] or [0.0]
            value = 1000.0 * (seconds + statistics.median(per_pass))
        metrics[f"{group}.{field}"] = {"value": value, "unit": layers.UNITS[field]}
    extension = run.setup_extension_bytes + [b for p in traced for b in p.extension_bytes]
    metrics["naimark.extension_mb"] = {"value": max(extension, default=0) / 1e6, "unit": "MB"}
    overhead = pass_median(traced) - pass_median(run.passes) if traced else 0.0
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def describe(args, run: Run, result: dict) -> list[str]:
    setup = " + ".join(f"{part} {sec:.3f}" for part, sec in run.setup.items())
    lines = [f"{args.workload} seed={args.seed} trace={args.trace}: setup {setup} s"]
    for label, passes in (("untraced", run.passes), ("traced", run.traced)):
        if passes:
            times = " ".join(f"{p.seconds:.4f}" for p in passes)
            lines.append(f"  {label}: median pass {pass_median(passes):.4f} s over "
                         f"{len(passes)} passes ({times} s)")
    failures = {}
    for p in run.timed():
        for message in p.failures:
            failures[message] = failures.get(message, 0) + 1
    for message, count in failures.items():
        lines.append(f"  failed x{count}: {message}")
    if run.problem:
        lines.append(f"  CHECK FAILED: {run.problem}")
    lines.append(f"  {result['attempted']} operations attempted, {result['failed']} failed")
    return lines


def save(args, line: str, spans):
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", name + ".json"), "w") as fh:
        fh.write(line + "\n")
    if spans:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        with gzip.open(os.path.join(OUT, "traces", name + ".jsonl.gz"), "wt") as fh:
            origin = spans[0][2]
            for index, (span, group, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({"id": index, "name": span, "group": group, "parent": parent,
                                     "start_us": round((start - origin) * 1e6, 1),
                                     "end_us": round((end - origin) * 1e6, 1)}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_seconds = import_blockcoh()

    # Only now: these load numpy, which must see the thread settings first.
    import checks
    import workloads

    run = Run()
    run.setup["import"] = import_seconds
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        try:
            (measure_traced if args.trace else measure)(wl, run, args.seconds)
        except checks.CheckFailed as exc:
            run.problem = str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        run.setup_groups["import"] = [1, import_seconds]
        metrics = layer_metrics(run)
    else:
        metrics = end_to_end_metrics(wl, run)
    counted = run.counted()
    result = {
        "correct": run.problem is None,
        "attempted": max(1, sum(p.attempted for p in counted)),
        "failed": sum(p.failed for p in counted),
        "metrics": metrics,
    }
    line = json.dumps(result)
    save(args, line, run.last_spans)
    print("\n".join(describe(args, run, result)))
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
