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
identical invocations.  --seed (>= 0), --trials (>= 1) and each --partition
field are read by one rule, serialize.parse_int: ASCII digits, with the
whitespace around them stripped.  Flags are written in full; an abbreviation
such as --se is a usage error.  The default classifier tolerance is
blockcore.ZERO_TOL (1e-10) and can be overridden with classify --tol or the
BLOCKCOH_TOL environment variable, as ASCII text without "_".

Every error, a usage error and a failed allocation included, is one JSON
line on stderr, and main() returns 1 for it; only -h leaves main through
SystemExit.  Input files and stdin are read as UTF-8.  Input that is not
UTF-8, or that json cannot read (invalid, an integer past int()'s digit
limit, or nested past the recursion limit), is a parse error, from a file
and from stdin alike.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import channels, counting, measures, naimark, serialize, verify
from .blockcore import ZERO_TOL, BlockPartition

DEFAULT_SEED = 42
DEFAULT_TRIALS = 200
DEFAULT_PARTITION = BlockPartition((2, 3))


def _tolerance(value) -> float:
    """The classifier tolerance: --tol, else BLOCKCOH_TOL, else ZERO_TOL.

    The text must be ASCII without "_": float() alone would also read "٣" and "1_0".
    The value must then pass classifier_report's own rule, finite and >= 0.
    """
    text = os.environ.get("BLOCKCOH_TOL") if value is None else value
    if text is None:
        return ZERO_TOL
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        tol = float(text)
    except ValueError:
        raise serialize.SchemaError(f"tolerance {text!r} is not a number") from None
    try:
        return channels._check_tolerance(tol, text)
    except ValueError as exc:
        raise serialize.SchemaError(str(exc)) from None


def _read_json(path: str):
    # the whole file as bytes, then one operator at a time (serialize.load_json)
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
        del data  # only the text stays alive while it is parsed
        return serialize.load_json(text)
    except (ValueError, RecursionError) as exc:
        # a UnicodeDecodeError, a JSONDecodeError, and what json raises
        # besides: a plain ValueError past int()'s digit limit, a
        # RecursionError past the nesting limit
        raise serialize.SchemaError(str(exc)) from None


def cmd_classify(args) -> tuple[int, str]:
    tol = _tolerance(args.tol)  # before the file, so a bad tolerance costs no read
    # the parsed document is dropped here, before the classifiers run
    ks = serialize.kraus_from_json(_read_json(args.kraus_file))
    if args.partition is not None:
        try:
            ks = channels.KrausSet(args.partition, ks.operators)
        except ValueError as exc:  # a total that differs from the operators' size
            raise serialize.SchemaError(str(exc)) from None
    report = channels.classifier_report(ks, tol)
    return (0 if report["cptp"] else 2), serialize.dumps(report)


def cmd_gen(args) -> tuple[int, str]:
    ks = channels.gen_random(args.kind, args.partition, args.seed)
    return 0, serialize.dumps(serialize.kraus_to_json(ks))


def cmd_bound(args) -> tuple[int, str]:
    # str(int) stops at sys.get_int_max_str_digits(); Decimal's str does not
    import decimal  # here, so that no other command loads it
    report = (counting.bio_bound if args.kind == "bio" else counting.sbio_bound)(args.partition)
    payload = {
        "partition": list(args.partition.dims),
        "class": report.kind,
        "per_level": [str(decimal.Decimal(c)) for c in report.per_level],
        "total": str(decimal.Decimal(report.total)),
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
    rho = serialize.state_from_json(_read_json(args.state))
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


def cmd_verify(args) -> tuple[int, str]:
    partition = args.partition
    if partition is None:
        partition = DEFAULT_PARTITION
    elif args.suite in verify.FIXED_PARTITION_SUITES:
        raise serialize.SchemaError(
            f"verify {args.suite} runs on fixed partitions and takes no --partition"
        )
    if args.suite in ("appendix-a", "appendix-b") and partition.num_blocks < 2:
        raise serialize.SchemaError(
            f"{args.suite} needs at least two blocks: the single-block partition "
            f"{partition} admits no violating pattern"
        )
    checks = verify.SUITES[args.suite](partition, args.seed, args.trials)
    lines = []
    for check in checks:
        detail = check.detail
        if check.counterexample is not None:
            # keep the offending state around so the violation can be replayed
            artifact = f"blockcoh-counterexample-{check.name}.json"
            serialize.write_text_atomic(artifact, serialize.dumps(check.counterexample))
            detail += f" counterexample={artifact}"
        lines.append(f"{'PASS' if check.passed else 'FAIL'} {check.name} {detail}\n")
    return (0 if all(check.passed for check in checks) else 1), "".join(lines)


def _arg(parse, *args):
    """An argparse type: ``parse(text, *args)``, its SchemaError reported as argparse's own.

    argparse would catch a SchemaError as a ValueError and word it itself.
    """
    def convert(text: str):
        try:
            return parse(text, *args)
        except serialize.SchemaError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as a SchemaError, for main to report.

    Subparsers are made with the parser's own class, so they inherit this.
    """

    def error(self, message):
        raise serialize.SchemaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockcoh",
        allow_abbrev=False,
        description="Block-coherence toolkit: classify, generate, bound, dilate, measure, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, partition=None, seed=False):
        """A subcommand with -o and the shared flags it reads.

        ``partition`` is the --partition default; False leaves the flag out.
        """
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
        if partition is not False:
            p.add_argument("--partition", type=_arg(serialize.parse_partition), default=partition,
                           help="comma-separated block sizes, e.g. 2,3")
        if seed:
            p.add_argument("--seed", type=_arg(serialize.parse_int, 0), default=DEFAULT_SEED)
        return p

    p = add("classify", cmd_classify, "classify a Kraus-set file")
    p.add_argument("kraus_file", help="Kraus-set JSON file, or - for stdin")
    p.add_argument("--tol", default=None,
                   help=f"classifier tolerance (default: BLOCKCOH_TOL or {ZERO_TOL:g})")

    p = add("gen", cmd_gen, "generate a random channel of a class", DEFAULT_PARTITION, seed=True)
    p.add_argument("--class", dest="kind", required=True, choices=channels.GEN_KINDS)

    p = add("bound", cmd_bound, "operator-count bound for a partition", DEFAULT_PARTITION)
    p.add_argument("--class", dest="kind", required=True, choices=("bio", "sbio"))

    p = add("dilate", cmd_dilate, "dilate a POVM file to a projective measurement", False)
    p.add_argument("povm_file", help="POVM JSON file, or - for stdin")

    p = add("measure", cmd_measure, "evaluate a block-coherence measure on a state file",
            BlockPartition((1, 1)))
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--measure", choices=("rel-entropy", "l1"), default="rel-entropy")

    # default None, so that an explicit --partition is told from the default 2,3
    p = add("verify", cmd_verify, "run a named verification suite", None, seed=True)
    p.add_argument("suite", choices=tuple(verify.SUITES))
    p.add_argument("--trials", type=_arg(serialize.parse_int, 1), default=DEFAULT_TRIALS)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code, text = args.func(args)
        if args.output:
            serialize.write_text_atomic(args.output, text)
        else:
            sys.stdout.write(text)
        return code
    except serialize.SchemaError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "parse"}) + "\n")
        return 1
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "runtime"}) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
