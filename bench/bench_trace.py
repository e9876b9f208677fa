"""Spans and counters around qsikit's public functions, installed from
outside the package.

install() replaces every module and class attribute of the loaded qsikit
modules that holds one of the functions below by a wrapper, and remove()
puts the originals back. A spanned call records (name, start, end,
parent) in memory; hot calls, membership tests and cyclotomic
arithmetic, only increment a counter. dump() writes everything to a JSON
file when the traced process ends, and per_layer() turns span files into
the per-layer metrics, with self time = span minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter

# (span group, module, attribute); "Class.name" is a method
SPANNED = (
    ("perm.bsgs", "qsikit.perm", "PermGroup.__init__"),
    ("perm.bsgs", "qsikit.perm", "PermGroup.from_generators_bounded"),
    ("perm.bsgs", "qsikit.perm", "PermGroup.point_stabilizer"),
    ("perm.lattice", "qsikit.perm", "PermGroup.subgroups_up_to_conjugacy"),
    ("perm.classes", "qsikit.perm", "PermGroup.elements"),
    ("perm.classes", "qsikit.perm", "PermGroup.conjugacy_classes"),
    ("perm.profile", "qsikit.perm", "PermGroup.class_intersection_profile"),
    ("perm.derived", "qsikit.perm", "PermGroup.derived_subgroup"),
    ("perm.derived", "qsikit.perm", "PermGroup.is_solvable"),
    ("perm.derived", "qsikit.perm", "PermGroup.is_simple"),
    ("perm.derived", "qsikit.perm", "PermGroup.normal_closure"),
    ("perm.quotient", "qsikit.perm", "PermGroup.quotient"),
    ("chartab.table", "qsikit.chartab", "character_table"),
    ("chartab.induce", "qsikit.chartab", "induce"),
    ("chartab.induce_pointwise", "qsikit.chartab", "induce_pointwise"),
    ("chartab.kernel", "qsikit.chartab", "kernel"),
    ("cyclotomic.real_sign", "qsikit.cyclotomic", "Cyclotomic.real_sign"),
    ("qsi.prefilter", "qsikit.qsi", "class_fraction_prefilter"),
    ("qsi.prefilter", "qsikit.qsi", "simple_subgroup_prefilter"),
    ("qsi.verify", "qsikit.qsi", "verify_qsi_witness"),
    ("qsi.decide", "qsikit.qsi", "decide_qsi_character"),
    ("qsi.decide", "qsikit.qsi", "decide_qsi_group"),
    ("qsi.sweep", "qsikit.qsi", "random_subgroup_sweep"),
    ("lietype", "qsikit.lietype", "zsigmondy"),
    ("lietype", "qsikit.lietype", "primitive_part"),
    ("lietype", "qsikit.lietype", "ppd_properties"),
    ("lietype", "qsikit.lietype", "group_order"),
    ("lietype", "qsikit.lietype", "steinberg_degree"),
    ("lietype", "qsikit.lietype", "singer_torus_order"),
    ("lietype", "qsikit.lietype", "eliminate"),
    ("catalog.load", "qsikit.catalog", "load"),
    ("catalog.load", "qsikit.catalog", "load_subgroup"),
    ("catalog.load", "qsikit.catalog", "load_file"),
    ("catalog.load", "qsikit.catalog", "resolve"),
)

COUNTED = (
    ("perm.membership_tests", "qsikit.perm", "PermGroup.contains_tuple"),
) + tuple(
    ("cyclotomic.ops", "qsikit.cyclotomic", f"Cyclotomic.{name}")
    for name in ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
                 "__truediv__", "__pow__"))


class Tracer:
    """Spans and counts of one process, kept in memory until dump()."""

    def __init__(self):
        self.spans = []      # [group, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self._seen = {}  # id -> result, held so that ids stay unique

    # -- wrappers

    def _spanned(self, group, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(fn.__qualname__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [group, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def first_sighting(self, result):
        """True the first time this object is returned; cached results
        come back as the same object."""
        if id(result) in self._seen:
            return False
        self._seen[id(result)] = result
        return True

    # -- installation

    def install(self):
        for table, make in ((SPANNED, self._spanned),
                            (COUNTED, self._counted)):
            for name, module, attr in table:
                self._patch(module, attr, make, name)
        return self

    def _patch(self, module_name, attr, make, name):
        module = importlib.import_module(module_name)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[member]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapper = make(name, fn)
        replacement = classmethod(wrapper) if is_classmethod else wrapper
        if owner_name:
            targets = [owner]
        else:
            # a function imported by name into other modules is held there
            targets = [m for key, m in list(sys.modules.items())
                       if key.split(".")[0] == "qsikit"]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is raw:
                    setattr(target, key, replacement)
                    self._undo.append((target, key, raw))

    def remove(self):
        for target, key, raw in reversed(self._undo):
            setattr(target, key, raw)
        self._undo.clear()

    # -- output

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def _observe_lattice(tracer, result):
    if tracer.first_sighting(result):
        tracer.counts["perm.lattice_classes"] += len(result)


def _observe_table(tracer, result):
    if tracer.first_sighting(result):
        tracer.counts["chartab.tables"] += 1


def _observe_prefilter(tracer, result):
    if result is False:
        tracer.counts["qsi.prefilter_rejects"] += 1


def _observe_verdict(tracer, result):
    tracer.counts["qsi.searched_subgroups"] += sum(
        record.reason == "searched" for record in result.pruning_log)


def _observe_sweep(tracer, result):
    tracer.counts["qsi.sweep_distinct_classes"] += result.distinct_classes
    tracer.counts["qsi.sweep_whole_hits"] += result.whole_group_hits


_OBSERVERS = {
    "PermGroup.subgroups_up_to_conjugacy": _observe_lattice,
    "character_table": _observe_table,
    "class_fraction_prefilter": _observe_prefilter,
    "simple_subgroup_prefilter": _observe_prefilter,
    "decide_qsi_character": _observe_verdict,
    "random_subgroup_sweep": _observe_sweep,
}


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_totals(span_files):
    """Summed self time, call count and counters over span files, plus
    the BSGS builds, all and those made inside subgroup-lattice spans.

    A build is an outermost perm.bsgs span: from_generators_bounded and
    point_stabilizer end in PermGroup(...), whose nested span is part of
    the same build."""
    seconds, calls, counts = Counter(), Counter(), Counter()
    builds = lattice_builds = 0
    for path in span_files:
        with open(path) as handle:
            data = json.load(handle)
        spans = data["spans"]
        for (group, *_), own in zip(spans, self_times(spans)):
            seconds[group] += own
            calls[group] += 1
        for group, _, _, parent in spans:
            if group != "perm.bsgs" or (
                    parent >= 0 and spans[parent][0] == "perm.bsgs"):
                continue
            builds += 1
            while parent >= 0 and spans[parent][0] != "perm.lattice":
                parent = spans[parent][3]
            lattice_builds += parent >= 0
        counts.update(data["counts"])
    return seconds, calls, counts, builds, lattice_builds


def per_layer(span_files, passes):
    """Per-layer metrics {name: (value, unit)}, as means per traced pass;
    the two ratios are taken over all passes."""
    seconds, calls, counts, builds, lattice_builds = span_totals(span_files)

    def layer_s(layer):
        return sum(v for k, v in seconds.items()
                   if k.split(".")[0] == layer)

    def ratio(part, whole):
        return (part / whole if whole else 0.0), "ratio"

    values = {
        "perm.bsgs_builds": (builds, "count"),
        "perm.bsgs_s": (seconds["perm.bsgs"], "s"),
        "perm.membership_tests": (counts["perm.membership_tests"], "count"),
        "perm.lattice_s": (seconds["perm.lattice"], "s"),
        "perm.lattice_classes": (counts["perm.lattice_classes"], "count"),
        "perm.classes_s": (seconds["perm.classes"], "s"),
        "perm.profile_s": (seconds["perm.profile"], "s"),
        "perm.derived_s": (seconds["perm.derived"], "s"),
        "perm.quotient_s": (seconds["perm.quotient"], "s"),
        "perm.s": (layer_s("perm"), "s"),
        "chartab.tables": (counts["chartab.tables"], "count"),
        "chartab.table_s": (seconds["chartab.table"], "s"),
        "chartab.induce_pointwise_s": (seconds["chartab.induce_pointwise"],
                                       "s"),
        "chartab.induce_s": (seconds["chartab.induce"], "s"),
        "chartab.kernel_s": (seconds["chartab.kernel"], "s"),
        "chartab.s": (layer_s("chartab"), "s"),
        "cyclotomic.ops": (counts["cyclotomic.ops"], "count"),
        "cyclotomic.real_sign_calls": (calls["cyclotomic.real_sign"],
                                       "count"),
        "cyclotomic.real_sign_s": (seconds["cyclotomic.real_sign"], "s"),
        "qsi.prefilter_calls": (calls["qsi.prefilter"], "count"),
        "qsi.prefilter_rejects": (counts["qsi.prefilter_rejects"], "count"),
        "qsi.prefilter_s": (seconds["qsi.prefilter"], "s"),
        "qsi.searched_subgroups": (counts["qsi.searched_subgroups"],
                                   "count"),
        "qsi.verify_s": (seconds["qsi.verify"], "s"),
        "qsi.sweep_distinct_classes": (counts["qsi.sweep_distinct_classes"],
                                       "count"),
        "qsi.sweep_whole_hits": (counts["qsi.sweep_whole_hits"], "count"),
        "qsi.s": (layer_s("qsi"), "s"),
        "lietype.calls": (calls["lietype"], "count"),
        "lietype.s": (seconds["lietype"], "s"),
        "catalog.load_s": (seconds["catalog.load"], "s"),
    }
    values = {name: (value / passes, unit)
              for name, (value, unit) in values.items()}
    values["perm.lattice_yield"] = ratio(counts["perm.lattice_classes"],
                                         lattice_builds)
    values["qsi.prefilter_reject_ratio"] = ratio(
        counts["qsi.prefilter_rejects"], calls["qsi.prefilter"])
    return values


def import_times(stderr_texts):
    """Median cumulative import time, in seconds, of qsikit, sympy and
    mpmath over several `python -X importtime` outputs."""
    samples = {"qsikit": [], "sympy": [], "mpmath": []}
    for text in stderr_texts:
        seen = {}
        for line in text.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            package = fields[2].strip()
            if package in samples:
                seen[package] = int(fields[1]) / 1e6
        for package, values in samples.items():
            values.append(seen.get(package, 0.0))
    return {f"import.{package}_s": (statistics.median(values), "s")
            for package, values in samples.items()}
