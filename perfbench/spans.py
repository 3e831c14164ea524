"""Instrumentation installed in a benchmark child process.

``Tracer`` wraps the public functions of each paramverify module from
outside the program: every module attribute bound to a function is
replaced by a wrapper that records a span (name, start, end, parent)
and the function's counters.  Spans stay in memory and are written
once, when the child ends; ``self_times`` turns them into self time
per function.

``DecideRecorder`` keeps every satisfying assignment ``decide``
returns, with its formulas, so the child can check them after the
timed region.
"""

import importlib
import json
import sys
from time import perf_counter

# function -> counters it reports besides calls and self time
TRACED = {
    "parsing.parse_task_file": (),
    "reduction.reduce_chain": ("instances", "ground_out"),
    "linear.to_linear": ("conjuncts_out",),
    "linear.eliminate": ("conjuncts_in", "conjuncts_out"),
    "linear.simplify": ("conjuncts_in", "conjuncts_out"),
    "linear.is_sat": ("repeats", "max_atoms"),
    "linear.decide": ("sat",),
    "symelim.generate_constraint": (),
    "hybrid.vcs_invariant": ("vcs",),
    "hybrid.vcs_chatterfree": ("vcs",),
    "transition.bmc": (),
    "transition.check_inductive": (),
    "transition.strengthen": (),
    "printing.canonical": (),
    "printing.print_formula": (),
    "runner.run_task_file": (),
    "runner.format_report": (),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count(name, counts, args, kwargs, result):
    """Update the counters of one outermost call."""
    if name == "linear.is_sat":
        key = frozenset(args[0])
        seen = counts.setdefault("_seen", set())
        if key in seen:
            counts["repeats"] += 1
        seen.add(key)
        counts["max_atoms"] = max(counts["max_atoms"], len(key))
    elif name == "linear.decide":
        counts["sat"] += result is not None
    elif name == "linear.eliminate":
        counts["conjuncts_in"] += len(_arg(args, kwargs, 1, "dnf"))
        counts["conjuncts_out"] += len(result)
    elif name == "linear.simplify":
        counts["conjuncts_in"] += len(_arg(args, kwargs, 0, "dnf"))
        counts["conjuncts_out"] += len(result)
    elif name == "linear.to_linear":
        counts["conjuncts_out"] += len(result)
    elif name == "reduction.reduce_chain":
        counts["instances"] += sum(len(step.instances) for step in result.steps)
        counts["ground_out"] += len(result.ground)
    elif name.startswith("hybrid.vcs_"):
        counts["vcs"] += len(result)


def replace_function(original, replacement):
    """Rebind every paramverify module attribute that names original,
    including names other modules imported with ``from ... import``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("paramverify"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _function(qualname):
    module_name, attr = qualname.split(".")
    return getattr(importlib.import_module("paramverify." + module_name), attr)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.counts = {}
        self._stack = []

    def _name_index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add_span(self, name, start, end):
        """A root span the child measured itself, outside any traced call."""
        self.spans.append([self._name_index(name), start, end, -1])

    def begin(self, name):
        """Open a span that encloses the traced calls made until end()."""
        self._stack.append(len(self.spans))
        self.spans.append([self._name_index(name), perf_counter(), 0.0, -1])

    def end(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def install(self):
        for qualname, counters in TRACED.items():
            self.counts[qualname] = dict.fromkeys(("calls",) + counters, 0)
            original = _function(qualname)
            replace_function(original, self._wrap(qualname, original))

    def _wrap(self, name, fn):
        index = self._name_index(name)
        spans, stack, counts = self.spans, self._stack, self.counts[name]
        active = [False]

        def traced(*args, **kwargs):
            # recursive calls belong to the outermost call's span
            if active[0]:
                return fn(*args, **kwargs)
            if name == "linear.is_sat" and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            active[0] = True
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                active[0] = False
                stack.pop()
            counts["calls"] += 1
            _count(name, counts, args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        counts = {
            "%s.%s" % (name, key): value
            for name, values in self.counts.items()
            for key, value in values.items()
            if not key.startswith("_")
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": counts}, fh)


def self_times(trace):
    """Self time per span name: each span's duration minus the
    durations of the spans whose parent it is."""
    own = [end - start for _, start, end, _ in trace["spans"]]
    for _, start, end, parent in trace["spans"]:
        if parent >= 0:
            own[parent] -= end - start
    totals = dict.fromkeys(trace["names"], 0.0)
    for (index, _, _, _), value in zip(trace["spans"], own):
        totals[trace["names"][index]] += value
    return totals


def inclusive_time(trace, name):
    """Summed duration of the outermost spans of one name."""
    index = trace["names"].index(name) if name in trace["names"] else -1
    return sum(end - start for i, start, end, _ in trace["spans"] if i == index)


class DecideRecorder:
    def __init__(self):
        self.witnesses = []  # (formulas, assumptions, witness)

    def install(self):
        original = _function("linear.decide")
        witnesses = self.witnesses

        def recording(formulas, assumptions=()):
            witness = original(formulas, assumptions)
            if witness is not None:
                listed = formulas if isinstance(formulas, (list, tuple)) else [formulas]
                witnesses.append((listed, list(assumptions), witness))
            return witness

        replace_function(original, recording)
