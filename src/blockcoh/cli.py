"""Command-line front end.

Usage examples:

  # classify a Kraus-set file against every free-operation class
  blockcoh classify channel.json

  # generate a strict-class channel and pipe it straight back into classify
  blockcoh gen --class sbio --partition 2,3 --seed 7 | blockcoh classify -

  # operator-count bounds, with big integers as decimal strings
  blockcoh bound --class bio --partition 2,3

  # dilate a POVM file to a projective measurement
  blockcoh dilate povm.json -o dilation.json

  # evaluate a coherence measure on a state file
  blockcoh measure --state plus.json --partition 1,1

  # run a named verification suite
  blockcoh verify inclusion --trials 50 --seed 3

All randomness is seeded (default seed 42) and outputs are byte-stable for
identical invocations.  The default classifier tolerance is 1e-10 and can be
overridden with classify --tol or the BLOCKCOH_TOL environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import channels, counting, measures, naimark, serialize
from .blockcore import BlockPartition, block_dephase, is_block_incoherent, validate_density_matrix
from .sampling import random_density_matrices, random_povm

DEFAULT_SEED = 42
DEFAULT_TRIALS = 200
SUITES = ("appendix-a", "appendix-b", "lemmas", "inclusion", "naimark", "measures")


def _tolerance(value) -> float:
    """The classifier tolerance: --tol, else BLOCKCOH_TOL, else 1e-10."""
    text = os.environ.get("BLOCKCOH_TOL", "1e-10") if value is None else value
    try:
        tol = float(text)
    except ValueError:
        raise serialize.SchemaError(f"tolerance {text!r} is not a number") from None
    if not (math.isfinite(tol) and tol >= 0.0):
        raise serialize.SchemaError(f"tolerance must be finite and >= 0, got {text}")
    return tol


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def cmd_classify(args) -> tuple[int, str]:
    obj = _read_json(args.kraus_file)
    ks = serialize.kraus_from_json(obj)
    if args.partition is not None:
        ks = channels.KrausSet(args.partition, ks.operators)
    report = channels.classifier_report(ks, _tolerance(args.tol))
    return (0 if report["cptp"] else 2), serialize.dumps(report)


def cmd_gen(args) -> tuple[int, str]:
    ks = channels.gen_random(args.kind, args.partition, args.seed)
    return 0, serialize.dumps(serialize.kraus_to_json(ks))


def cmd_bound(args) -> tuple[int, str]:
    if args.kind == "bio":
        report = counting.bio_bound(args.partition)
    else:
        report = counting.sbio_bound(args.partition)
    payload = {
        "partition": list(args.partition.dims),
        "class": report.kind,
        "per_level": [str(c) for c in report.per_level],
        "total": str(report.total),
    }
    return 0, serialize.dumps(payload)


def cmd_dilate(args) -> tuple[int, str]:
    povm = serialize.povm_from_json(_read_json(args.povm_file))
    ext = naimark.dilate(povm)
    partition, perm = naimark.induced_partition(povm)
    payload = {
        "dim": povm.dim,
        "outcomes": povm.n_outcomes,
        "V": serialize.matrix_to_json(ext.global_unitary),
        "ancilla_index": ext.ancilla_state_index,
        "partition": list(partition.dims),
        "permutation": [int(p) for p in perm],
    }
    return 0, serialize.dumps(payload)


def cmd_measure(args) -> tuple[int, str]:
    rho = validate_density_matrix(serialize.state_from_json(_read_json(args.state)))
    if rho.shape[0] != args.partition.total:
        raise serialize.SchemaError(
            f"state dimension {rho.shape[0]} does not match partition {args.partition}"
        )
    fn = {
        "rel-entropy": measures.rel_entropy_block_coherence,
        "l1": measures.l1_block_coherence,
    }[args.measure]
    value = max(0.0, fn(args.partition, rho))
    payload = {
        "measure": args.measure,
        "partition": list(args.partition.dims),
        "value": value,
    }
    return 0, serialize.dumps(payload)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

class _Suite:
    def __init__(self):
        self.lines = []
        self.ok = True

    def check(self, name: str, passed: bool, detail: str = ""):
        tag = "PASS" if passed else "FAIL"
        suffix = f" {detail}" if detail else ""
        self.lines.append(f"{tag} {name}{suffix}")
        self.ok = self.ok and passed


def _suite_appendix(partition: BlockPartition, seed: int, trials: int, strict: bool) -> _Suite:
    suite = _Suite()
    kind = "sbio" if strict else "bio"
    structural = channels.is_sbio_structural if strict else channels.is_bio_structural

    sets = [channels.gen_random(kind, partition, seed + t) for t in range(trials)]
    worst = 0.0
    all_ok = True
    for ks in sets:
        semantic, deviation = channels.semantic_verdict(ks, strict)
        all_ok = all_ok and channels.verify_cptp(ks) and structural(ks) and semantic
        worst = max(worst, deviation)
    suite.check(
        f"{kind}-structural-implies-semantic",
        all_ok and worst <= 1e-9,
        f"sets={trials} worst_dev={worst:.3e}",
    )

    rejected = 0
    for t in range(trials):
        bad = channels.gen_pattern_violating(kind, partition, seed + 10_000 + t)
        if not channels.semantic_verdict(bad, strict)[0]:
            rejected += 1
    suite.check(
        f"{kind}-pattern-violations-rejected",
        rejected == trials,
        f"rejected={rejected}/{trials}",
    )

    if strict:
        # the sets above, each with 10 states from seeds seed + 20_000 + 10 t + r
        worst_comm = 0.0
        for t, ks in enumerate(sets):
            first = seed + 20_000 + 10 * t
            rhos = random_density_matrices(partition.total, range(first, first + 10))
            worst_comm = max(worst_comm, channels.sbio_commutation_deviation(ks, rhos))
        suite.check(
            "sbio-commutes-with-dephasing",
            worst_comm <= 1e-9,
            f"states=10x{trials} worst_dev={worst_comm:.3e}",
        )
    return suite


def _suite_lemmas(seed: int, trials: int) -> _Suite:
    suite = _Suite()
    for d in range(2, 6):
        ones = BlockPartition([1] * d)
        bio_total = counting.bio_bound(ones).total
        sbio_total = counting.sbio_bound(ones).total
        suite.check(
            f"rank-one-bounds-d={d}",
            counting.rank_one_reduction_check(d),
            f"bio={bio_total} sbio={sbio_total}",
        )
    return suite


def _suite_inclusion(partition: BlockPartition, seed: int, trials: int) -> _Suite:
    suite = _Suite()
    ok = all(
        channels.is_sbio_structural(channels.gen_random("pbio", partition, seed + t))
        for t in range(trials)
    )
    suite.check("pbio-within-sbio", ok, f"sets={trials}")
    ok = all(
        channels.is_bio_structural(channels.gen_random("sbio", partition, seed + t))
        for t in range(trials)
    )
    suite.check("sbio-within-bio", ok, f"sets={trials}")
    ok = all(
        channels.is_mbio(channels.gen_random("bio", partition, seed + t))
        for t in range(trials)
    )
    suite.check("bio-within-mbio", ok, f"sets={trials}")
    return suite


def _suite_naimark(seed: int, trials: int) -> _Suite:
    suite = _Suite()
    rng = np.random.default_rng(seed)
    worst_prob = 0.0
    worst_unitary = 0.0
    worst_pvm = 0.0
    for t in range(trials):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        povm = naimark.Povm(random_povm(d, n, rng))
        ext = naimark.dilate(povm)
        big = d * n
        v = ext.global_unitary
        worst_unitary = max(
            worst_unitary,
            float(np.max(np.abs(v.conj().T @ v - np.eye(big)))),
            float(np.max(np.abs(v @ v.conj().T - np.eye(big)))),
        )
        # P_i P_j should be P_i on the diagonal and zero off it
        pvm = ext.pvm
        products = pvm[:, None] @ pvm[None]
        products[np.arange(n), np.arange(n)] -= pvm
        worst_pvm = max(worst_pvm, float(np.max(np.abs(products))))
        worst_pvm = max(worst_pvm, float(np.max(np.abs(pvm.sum(axis=0) - np.eye(big)))))
        worst_prob = max(worst_prob, naimark.verify_dilation(povm, ext, trials=20, seed=seed + t))
    suite.check("dilation-unitary", worst_unitary <= 1e-9, f"worst_dev={worst_unitary:.3e}")
    suite.check("dilation-pvm-properties", worst_pvm <= 1e-9, f"worst_dev={worst_pvm:.3e}")
    suite.check("dilation-probabilities", worst_prob <= 1e-10, f"worst_dev={worst_prob:.3e}")
    return suite


def _faithful(partition: BlockPartition, states) -> np.ndarray:
    """Per state of a stack: each measure vanishes exactly when the state is free."""
    incoherent = is_block_incoherent(partition, states, 1e-8)
    return np.all([
        (measure(partition, states) <= 1e-9) == incoherent
        for measure in (measures.rel_entropy_block_coherence, measures.l1_block_coherence)
    ], axis=0)


def _suite_measures(seed: int, trials: int) -> _Suite:
    suite = _Suite()
    partitions = [BlockPartition(p) for p in ((1, 1), (2, 3), (1, 2, 2))]
    faithful = True
    for p in partitions:
        rhos = random_density_matrices(p.total, range(seed, seed + trials))
        frees = random_density_matrices(p.total, range(seed + 5_000, seed + 5_000 + trials))
        for states in (rhos, block_dephase(p, frees)):
            faithful = faithful and bool(np.all(_faithful(p, states)))
    suite.check("nonnegativity-and-faithfulness", faithful, f"states={2 * trials}/partition")

    p = BlockPartition((2, 3))
    n_channels = max(1, trials // 10)
    for probe in ("monotonicity", "strong-monotonicity"):
        worst = 0.0
        offending = None
        for t in range(n_channels):
            ch = channels.gen_random("bio", p, seed + t)
            report = measures.probe_report(
                probe, measures.rel_entropy_block_coherence, p, ch, trials=20, seed=seed + t
            )
            if report["worst_violation"] > worst:
                worst = report["worst_violation"]
                offending = report
        detail = f"channels={n_channels} worst_violation={worst:.3e}"
        if worst > 1e-8 and offending is not None:
            # keep the offending state around so the violation can be replayed
            artifact = f"blockcoh-counterexample-{probe}.json"
            serialize.write_json_atomic(artifact, offending)
            detail += f" counterexample={artifact}"
        suite.check(probe, worst <= 1e-8, detail)

    worst_convex = max(
        measures.convexity_probe(measures.rel_entropy_block_coherence, p, trials=trials, seed=seed),
        measures.convexity_probe(measures.l1_block_coherence, p, trials=trials, seed=seed),
    )
    suite.check("convexity", worst_convex <= 1e-8, f"worst_violation={worst_convex:.3e}")
    return suite


def cmd_verify(args) -> tuple[int, str]:
    if args.trials < 1:
        raise serialize.SchemaError(f"--trials must be at least 1, got {args.trials}")
    if args.suite in ("appendix-a", "appendix-b") and args.partition.num_blocks < 2:
        raise serialize.SchemaError(
            f"{args.suite} needs at least two blocks: the single-block partition "
            f"{args.partition} admits no violating pattern"
        )
    if args.suite == "appendix-a":
        suite = _suite_appendix(args.partition, args.seed, args.trials, strict=False)
    elif args.suite == "appendix-b":
        suite = _suite_appendix(args.partition, args.seed, args.trials, strict=True)
    elif args.suite == "lemmas":
        suite = _suite_lemmas(args.seed, args.trials)
    elif args.suite == "inclusion":
        suite = _suite_inclusion(args.partition, args.seed, args.trials)
    elif args.suite == "naimark":
        suite = _suite_naimark(args.seed, args.trials)
    else:
        suite = _suite_measures(args.seed, args.trials)
    return (0 if suite.ok else 1), "".join(line + "\n" for line in suite.lines)


def _partition_arg(text: str) -> BlockPartition:
    try:
        return serialize.parse_partition(text)
    except serialize.SchemaError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors in the one-line JSON error form.

    Subparsers are made with the parser's own class, so they inherit this.
    The exit code is 1, as for every other JSON error line; 2 is left to
    ``classify`` for an incomplete channel.
    """

    def error(self, message):
        sys.stderr.write(json.dumps({"error": f"{self.prog}: {message}", "kind": "parse"}) + "\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockcoh",
        description="Block-coherence toolkit: classify, generate, bound, dilate, measure, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, partition=None, seed=False):
        """A subcommand with -o and the shared flags it reads.

        ``partition`` is the --partition default; False leaves the flag out.
        """
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
        if partition is not False:
            p.add_argument("--partition", type=_partition_arg, default=partition,
                           help="comma-separated block sizes, e.g. 2,3")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        return p

    p23 = BlockPartition((2, 3))
    p = add("classify", cmd_classify, "classify a Kraus-set file")
    p.add_argument("kraus_file", help="Kraus-set JSON file, or - for stdin")
    p.add_argument("--tol", type=float, default=None,
                   help="classifier tolerance (default: BLOCKCOH_TOL or 1e-10)")

    p = add("gen", cmd_gen, "generate a random channel of a class", p23, seed=True)
    p.add_argument("--class", dest="kind", required=True, choices=channels.GEN_KINDS)

    p = add("bound", cmd_bound, "operator-count bound for a partition", p23)
    p.add_argument("--class", dest="kind", required=True, choices=("bio", "sbio"))

    p = add("dilate", cmd_dilate, "dilate a POVM file to a projective measurement", False)
    p.add_argument("povm_file", help="POVM JSON file, or - for stdin")

    p = add("measure", cmd_measure, "evaluate a block-coherence measure on a state file",
            BlockPartition((1, 1)))
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--measure", choices=("rel-entropy", "l1"), default="rel-entropy")

    p = add("verify", cmd_verify, "run a named verification suite", p23, seed=True)
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, text = args.func(args)
        if args.output:
            serialize.write_text_atomic(args.output, text)
        else:
            sys.stdout.write(text)
        return code
    except (serialize.SchemaError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "parse"}) + "\n")
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "runtime"}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
