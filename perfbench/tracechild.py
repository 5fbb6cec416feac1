"""Run one blockcoh command line with layer tracing and save the group totals.

Usage: python perfbench/tracechild.py SUMMARY.json ARGS...

ARGS are passed to ``blockcoh.cli.main`` exactly as ``python -m blockcoh.cli
ARGS`` would receive them; the exit code is the command's.  SUMMARY.json gets
{"groups": {group: [calls, self_seconds]}, "extension_bytes": [...]}, with the
import of the package as the group "import".
"""

import json
import sys
import time

start = time.perf_counter()
import blockcoh.cli  # noqa: E402

import_seconds = time.perf_counter() - start

import layers  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    tracer.install()
    try:
        code = blockcoh.cli.main(argv)
    finally:
        tracer.uninstall()
    groups, _, extension_bytes = tracer.take()
    groups["import"] = [1, import_seconds]
    with open(summary_path, "w") as fh:
        json.dump({"groups": groups, "extension_bytes": extension_bytes}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
