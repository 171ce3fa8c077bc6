"""Run the defgpa CLI with each layer's public functions wrapped in spans.

Usage: python3 bench/traced_cli.py TRACE_JSON CLI_ARG...

The wrappers are installed from outside: every public function defined in
the layer modules (and the warps' ``basis`` methods) is replaced, in every
defgpa module namespace that refers to it, by a timing wrapper.  No file of
the package changes.  Spans stay in memory; TRACE_JSON is written once the
command has returned.

A span's self time is its duration minus the part of its interval covered
by its child spans.  Each thread keeps its own span stack.  A span opened on
a worker thread with an empty stack (the sweep's thread pool) is a child of
the span open on the main thread at that moment, and parallel children are
merged as intervals, so self time never goes negative.
"""

import functools
import hashlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "shapes", "warps", "gpa", "spectral", "metrics")
METHODS = (("warps", "TpsWarp", "basis"), ("warps", "AffineWarp", "basis"))
# spans whose per-call durations are kept for percentiles
KEEP_DURATIONS = ("gpa.solve",)


def _covered(intervals, start, end):
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self.records = []                 # (name, duration, self time) per span
        self.counts = defaultdict(float)  # computed work counts
        self.prior_inputs = set()         # digests of estimate_prior inputs

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, *args, **kwargs)
            stack = self._stack()
            adopted = None
            if not stack and stack is not self._main_stack:
                try:
                    adopted = self._main_stack[-1]
                except IndexError:
                    pass
            children = []
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    covered = _covered(children, start, end)
                self.records.append((name, end - start, end - start - covered))
                if stack:
                    stack[-1].append((start, end))
                elif adopted is not None:
                    with self._lock:
                        adopted.append((start, end))

        return traced

    def install(self, package):
        """Wrap the layer functions and rebind every reference to them."""
        replace = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    replace[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}",
                                           cls.__dict__[method]))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replace:
                        setattr(module, attr, replace[id(obj)])

    def summary(self):
        spans = {}
        durations = defaultdict(list)
        for name, duration, self_s in self.records:
            span = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            span["calls"] += 1
            span["total_s"] += duration
            span["self_s"] += self_s
            if name in KEEP_DURATIONS:
                durations[name].append(duration)
        counts = dict(self.counts)
        counts["gpa.estimate_prior.distinct_inputs"] = len(self.prior_inputs)
        return {"spans": spans, "durations": dict(durations), "counts": counts}


def _count_eig_sym(tracer, A, *args, **kwargs):
    m = len(A)
    with tracer._lock:
        tracer.counts["spectral.eig_sym.m3_sum"] += m ** 3
        tracer.counts["spectral.eig_sym.bytes_in"] += 8 * m * m


def _count_estimate_prior(tracer, full_shapes, *args, **kwargs):
    digest = hashlib.sha256()
    for D in full_shapes:
        digest.update(D.tobytes())
    with tracer._lock:
        tracer.prior_inputs.add(digest.digest())


_COUNTERS = {"spectral.eig_sym": _count_eig_sym, "gpa.estimate_prior": _count_estimate_prior}


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import defgpa.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install("defgpa")
    code = defgpa.cli.main(cli_args)
    doc = tracer.summary()
    doc["import_s"] = import_s
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
