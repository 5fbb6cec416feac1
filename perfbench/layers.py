"""Layer tracing from outside the package.

The tracer replaces every public function of the blockcoh modules with a
timing wrapper, in every module namespace that binds it (``measures`` binds
``channels.apply_channel``, the package binds nearly everything), so calls
from one module into another are caught too.  Spans (name, start, end,
parent) are kept in memory; ``uninstall`` puts the original functions back.

Per-layer metrics are sums over metric groups: a group's calls are the calls
of its functions, its self time is the span time not covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("blockcore", "sampling", "channels", "measures", "naimark", "counting",
           "serialize", "cli")

# Public functions with a metric group of their own; the rest of a module's
# public functions fall into "<module>.other", or into the module-wide group
# for blockcore and cli.
NAMED_GROUPS = {
    "channels": {
        "gen_random": ("gen_random",),
        "gen_pattern_violating": ("gen_pattern_violating",),
        "is_bio_semantic": ("is_bio_semantic", "bio_semantic_deviation"),
        "is_sbio_semantic": ("is_sbio_semantic", "sbio_semantic_deviation"),
        "is_mbio": ("is_mbio", "mbio_deviation"),
        "structural": ("is_bio_structural", "is_sbio_structural", "block_pattern"),
        "verify_cptp": ("verify_cptp", "cptp_deviation"),
        "apply": ("apply_channel", "apply_selective"),
    },
    "measures": {
        "von_neumann_entropy": ("von_neumann_entropy",),
        "probe": ("monotonicity_probe", "strong_monotonicity_probe", "convexity_probe",
                  "probe_report"),
    },
    "sampling": {"random_density_matrix": ("random_density_matrix",)},
    "naimark": {"dilate": ("dilate",), "verify_dilation": ("verify_dilation",)},
    "counting": {"bio_bound": ("bio_bound",), "sbio_bound": ("sbio_bound",)},
    "serialize": {
        "parse": ("matrix_from_json", "parse_partition", "partition_from_json",
                  "state_from_json", "kraus_from_json", "povm_from_json"),
        "dump": ("matrix_to_json", "kraus_to_json", "povm_to_json", "dumps",
                 "write_json_atomic"),
    },
}
WHOLE_MODULE_GROUPS = {"blockcore": "blockcore", "cli": "cli.main"}

# (group, field) pairs reported as per-layer metrics, in BENCHMARK.json order.
# "import" is the time to import blockcoh, recorded by the caller.
LAYER_METRICS = (
    ("import", "self_ms"),
    ("cli.main", "self_ms"),
    ("serialize.parse", "self_ms"),
    ("serialize.dump", "self_ms"),
    ("blockcore", "calls"),
    ("blockcore", "self_ms"),
    ("channels.gen_random", "calls"),
    ("channels.gen_random", "self_ms"),
    ("channels.gen_pattern_violating", "calls"),
    ("channels.gen_pattern_violating", "self_ms"),
    ("channels.is_bio_semantic", "self_ms"),
    ("channels.is_sbio_semantic", "self_ms"),
    ("channels.is_mbio", "self_ms"),
    ("channels.structural", "self_ms"),
    ("channels.verify_cptp", "self_ms"),
    ("channels.apply", "calls"),
    ("channels.apply", "self_ms"),
    ("channels.other", "self_ms"),
    ("measures.von_neumann_entropy", "calls"),
    ("measures.von_neumann_entropy", "self_ms"),
    ("measures.probe", "self_ms"),
    ("measures.other", "self_ms"),
    ("sampling.random_density_matrix", "calls"),
    ("sampling.random_density_matrix", "self_ms"),
    ("sampling.other", "self_ms"),
    ("naimark.dilate", "self_ms"),
    ("naimark.verify_dilation", "self_ms"),
    ("naimark.other", "self_ms"),
    ("counting.bio_bound", "self_ms"),
    ("counting.sbio_bound", "self_ms"),
    ("counting.other", "self_ms"),
)
UNITS = {"calls": "count", "self_ms": "ms"}


def group_of(module: str, name: str) -> str:
    if module in WHOLE_MODULE_GROUPS:
        return WHOLE_MODULE_GROUPS[module]
    for group, names in NAMED_GROUPS.get(module, {}).items():
        if name in names:
            return f"{module}.{group}"
    return f"{module}.other"


class Tracer:
    """Records a span for every call into a public blockcoh function."""

    def __init__(self):
        self.spans = []           # (name, group, start, end, parent index)
        self.extension_bytes = []  # bytes held by each NaimarkExtension returned
        self._stack = []
        self._saved = []

    def install(self):
        package = importlib.import_module("blockcoh")
        namespaces = [package] + [importlib.import_module(f"blockcoh.{m}") for m in MODULES]
        wrappers = {}
        for mod in namespaces[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(fn, f"{short}.{name}", group_of(short, name))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def uninstall(self):
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name, group):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure_extension = name == "naimark.dilate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, group, start, end, parent)
            if measure_extension:
                self.extension_bytes.append(
                    sum(v.nbytes for v in vars(result).values() if hasattr(v, "nbytes")))
            return result

        return traced

    def take(self) -> tuple[dict, list, list]:
        """Group totals of the spans recorded so far; clears the recorder.

        Returns ({group: [calls, self_seconds]}, spans, extension_bytes).
        """
        spans, ext = list(self.spans), list(self.extension_bytes)
        self.spans.clear()
        self.extension_bytes.clear()
        return summarize(spans), spans, ext


def summarize(spans) -> dict:
    covered = [0.0] * len(spans)
    for name, group, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = defaultdict(lambda: [0, 0.0])
    for (name, group, start, end, parent), child in zip(spans, covered):
        totals[group][0] += 1
        totals[group][1] += end - start - child
    return dict(totals)


def merge(into: dict, other: dict):
    for group, (calls, seconds) in other.items():
        slot = into.setdefault(group, [0, 0.0])
        slot[0] += calls
        slot[1] += seconds
