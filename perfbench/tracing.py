"""Spans around calls into the risbeam modules, for the traced benchmark run.

The tracer replaces module attributes that a sweep looks up at call time.
A function imported by name (``from .channel import effective_gain``) is
looked up in the importing module's globals, so each wrapper is installed in
the module that makes the call. Nothing inside ``risbeam`` is edited, and
``Tracer.remove`` restores every original attribute.

Each span keeps its name, start, end and parent in memory; ``write`` saves
all of them once, at the end of the run. A span's self time is its duration
minus the durations of its direct children (calls are single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

PROTOCOL_TAGS = (
    "exhaustive",
    "hierarchical",
    "hierarchical_adaptive",
    "coded_one_bit",
    "coded_decoupled_two_bit",
)
DESIGN_SPANS = ("codebook.design_bs_codeword", "codebook.relaxed_gs")
PROVIDER_SPAN = "training.provider"


def _coded_name(args, kwargs):
    # run_sweep passes decode_mode positionally, right after the noise generator.
    mode = kwargs.get("decode_mode", args[6] if len(args) > 6 else "one_bit")
    return f"training.coded_{mode}"


def _hierarchical_name(args, kwargs):
    variant = kwargs.get("variant", "full_coverage")
    return "training.hierarchical" + ("" if variant == "full_coverage" else f"_{variant}")


# module -> attribute -> span name (or a function of the call's arguments)
SPANS = {
    "cli": {
        "run_sweep": "experiments.run_sweep",
        "export_results": "experiments.export",
        "export_trial_log": "experiments.export",
    },
    "experiments": {
        "make_angle_grid": "arrays.make_angle_grid",
        "build_codebooks": "codebook.build_codebooks",
        "narrow_beam_matrices": "training.narrow_beam_matrices",
        "sample_channel": "channel.draw",
        "normalize_channel": "channel.normalize",
        "derive_rng": "seeding.derive_rng",
        "run_exhaustive": "training.exhaustive",
        "run_hierarchical": _hierarchical_name,
        "run_coded": _coded_name,
        "grid_transmit_pair": "training.grid_transmit_pair",
        "achievable_rate": "training.achievable_rate",
    },
    "training": {
        "effective_gain": "channel.effective_gain",
        "measure_power": "channel.measure_power",
        "decode": "blockcode.decode",
        "design_bs_codeword": "codebook.design_bs_codeword",
        "relaxed_gs": "codebook.relaxed_gs",
        "derive_rng": "seeding.derive_rng",
    },
    "codebook": {
        "design_bs_codeword": "codebook.design_bs_codeword",
        "relaxed_gs": "codebook.relaxed_gs",
        "derive_rng": "seeding.derive_rng",
    },
}
# Steering vectors are built by the thousand; they are counted, not spanned.
STEERING = {
    "channel": ("ula_steering", "upa_steering_uw"),
    "codebook": ("ula_steering", "upa_steering_uw"),
    "training": ("ula_steering", "upa_steering_uw"),
}


def _count_outcome(tracer, name, args, kwargs, outcome):
    tracer.counts[name + ".pilots"] += outcome.pilots_used
    tracer.counts["training.truncated"] += bool(outcome.truncated)


def _count_decode(tracer, name, args, kwargs, result):
    report = result[1]
    tracer.counts["blockcode.decode.corrected"] += bool(report.corrected)
    tracer.counts["blockcode.decode.uncorrectable"] += bool(report.uncorrectable)


def _count_gs(tracer, name, args, kwargs, result):
    tracer.counts["codebook.relaxed_gs.iters"] += len(result[1])


def _count_export(tracer, name, args, kwargs, result):
    tracer.counts["experiments.export.bytes"] += Path(args[1]).stat().st_size


RESULT_HOOKS = {
    "run_exhaustive": _count_outcome,
    "run_hierarchical": _count_outcome,
    "run_coded": _count_outcome,
    "decode": _count_decode,
    "relaxed_gs": _count_gs,
    "export_results": _count_export,
    "export_trial_log": _count_export,
}


def span_totals(names, parents, durations):
    """Calls, inclusive time and self time per span name.

    names, parents and durations are per span; a parent is an index into the
    same lists, -1 for a root. Self time is duration minus direct children.
    """
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    for name, parent, duration in zip(names, parents, durations):
        calls[name] += 1
        total[name] += duration
        self_time[name] += duration
        if parent >= 0:
            self_time[names[parent]] -= duration
    return calls, total, self_time


class Tracer:
    """In-memory span store plus counters, and the wrappers that fill them."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span name by name id
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")  # the span columns, one entry per span
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")  # index of the parent span, -1 for a root
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sweeps: list[tuple[int, int]] = []  # span index range per sweep
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None):
        """Return fn wrapped in a span; name is a string or f(args, kwargs)."""
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self.stack)
        fixed_id = self._name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if fixed_id is not None else name(args, kwargs)
            idx = len(name_ids)
            name_ids.append(fixed_id if fixed_id is not None else self._name_id(label))
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(self, label, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, risbeam_modules: dict) -> None:
        """Wrap the attributes in SPANS and STEERING, plus the beam provider."""
        missing = []
        for mod_name, attrs in SPANS.items():
            module = risbeam_modules[mod_name]
            for attr, span_name in attrs.items():
                if not hasattr(module, attr):
                    missing.append(f"{mod_name}.{attr}")
                    continue
                self._patch(module, attr, self.wrap(
                    span_name, getattr(module, attr), RESULT_HOOKS.get(attr)))
        for mod_name, attrs in STEERING.items():
            module = risbeam_modules[mod_name]
            for attr in attrs:
                if hasattr(module, attr):
                    self._patch(module, attr,
                                self._counted("arrays.steering", getattr(module, attr)))
                else:
                    missing.append(f"{mod_name}.{attr}")
        experiments = risbeam_modules["experiments"]
        if hasattr(experiments, "HierarchicalBeamProvider"):
            base = experiments.HierarchicalBeamProvider
            methods = {
                attr: self.wrap(PROVIDER_SPAN, value)
                for attr, value in vars(base).items()
                if not attr.startswith("_") and callable(value)
            }
            self._patch(experiments, "HierarchicalBeamProvider",
                        type(base.__name__, (base,), methods))
        else:
            missing.append("experiments.HierarchicalBeamProvider")
        if missing:
            print("tracing: not found, not traced: " + ", ".join(missing),
                  file=sys.stderr)

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def traced_call(self, fn, *args):
        """Call fn under a root span; the spans it opens form one sweep."""
        first = len(self.name_ids)
        self.counts.clear()
        try:
            return self.wrap("cli.main", fn)(*args)
        finally:
            self.sweeps.append((first, len(self.name_ids)))

    def sweep_metrics(self, sweep: int, trials: int, points: int) -> dict:
        """Per-layer metrics of one traced sweep; counters must be unread since."""
        lo, hi = self.sweeps[sweep]
        span_names = [self.names[nid] for nid in self.name_ids[lo:hi]]
        parents = [p - lo if p >= 0 else -1 for p in self.parents[lo:hi]]
        calls, total, self_s = span_totals(
            span_names, parents,
            [end - start for start, end in zip(self.starts[lo:hi], self.ends[lo:hi])])
        provider_designs = 0
        designing_providers = set()
        for i, name in enumerate(span_names):
            if name in DESIGN_SPANS:
                parent = parents[i]
                while parent >= 0 and span_names[parent] != PROVIDER_SPAN:
                    parent = parents[parent]
                if parent >= 0:
                    provider_designs += 1
                    designing_providers.add(parent)
        counts = self.counts
        m: dict = {}
        protocol_calls = 0
        for tag in PROTOCOL_TAGS:
            name = f"training.{tag}"
            pilots = counts[name + ".pilots"]
            protocol_calls += calls[name]
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_s[name]
            m[name + ".pilots"] = pilots
            m[name + ".us_per_pilot"] = total[name] / pilots * 1e6 if pilots else 0.0
        m["training.truncated_share"] = (
            counts["training.truncated"] / protocol_calls if protocol_calls else 0.0)
        for name in ("channel.effective_gain", "channel.measure_power",
                     "codebook.design_bs_codeword", "codebook.relaxed_gs",
                     "blockcode.decode", "seeding.derive_rng"):
            m[name + ".calls"] = calls[name]
            m[name + ".s"] = total[name]
        m["channel.draw.calls"] = calls["channel.draw"]
        m["channel.draw.s"] = total["channel.draw"] + total["channel.normalize"]
        m["channel.draws_per_trial"] = calls["channel.draw"] / (points * trials)
        m["codebook.build_codebooks.s"] = total["codebook.build_codebooks"]
        m["codebook.relaxed_gs.iters"] = counts["codebook.relaxed_gs.iters"]
        m["arrays.make_angle_grid.s"] = total["arrays.make_angle_grid"]
        requests = calls[PROVIDER_SPAN]
        m["training.provider.requests"] = requests
        m["training.provider.designs"] = provider_designs
        m["training.provider.hit_ratio"] = (
            (requests - len(designing_providers)) / requests if requests else 0.0)
        m["blockcode.decode.corrected"] = counts["blockcode.decode.corrected"]
        m["blockcode.decode.uncorrectable"] = counts["blockcode.decode.uncorrectable"]
        m["training.rate_eval.calls"] = calls["training.achievable_rate"]
        m["training.rate_eval.s"] = (total["training.grid_transmit_pair"]
                                     + total["training.achievable_rate"])
        m["arrays.steering.calls"] = counts["arrays.steering"]
        m["experiments.export.s"] = total["experiments.export"]
        m["experiments.export.bytes"] = counts["experiments.export.bytes"]
        m["experiments.run_sweep.self_s"] = self_s["experiments.run_sweep"]
        m["cli.main.self_s"] = self_s["cli.main"]
        m["cli.main.s"] = total["cli.main"]
        return m

    def write(self, path: Path) -> None:
        """Save every span as [name id, start us, end us, parent], one sweep a line.

        Times count from the sweep's root span; parent indexes the sweep's
        span list, -1 for the root.
        """
        with path.open("w") as out:
            out.write('{"names": %s,\n"sweeps": [' % json.dumps(self.names))
            for number, (lo, hi) in enumerate(self.sweeps):
                origin = self.starts[lo] if hi > lo else 0.0
                spans = ",".join(
                    "[%d,%.2f,%.2f,%d]" % (
                        self.name_ids[i], (self.starts[i] - origin) * 1e6,
                        (self.ends[i] - origin) * 1e6,
                        self.parents[i] - lo if self.parents[i] >= 0 else -1)
                    for i in range(lo, hi))
                out.write('%s\n{"sweep": %d, "spans": [%s]}' % ("," if number else "", number, spans))
            out.write("\n]}\n")
