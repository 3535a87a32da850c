"""Span tracing of hyperlag's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the six modules with a
wrapper, in every hyperlag module namespace that binds it (so a name that
``certify`` imported from ``optimize`` is wrapped in both places), and
``uninstall`` puts the originals back.  A wrapper records one span per call:
name, start, end, span id, parent span id and job id.  Spans stay in memory
until the caller writes them out.  Generator functions get no span, because
their time interleaves with the consumer's; they count the items (array rows)
their outermost call yields.  A few return values feed work counters.

The untraced benchmark run never calls ``install``, so it runs the package's
own functions.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("hypercore", "optimize", "constructions", "closedform", "certify", "cli")

# cli's public interface is its console-script entry point; the cmd_*
# handlers it dispatches to count toward main's self time.
CLI_PUBLIC = ("main",)


def _edges_out(args, kwargs, result):
    return {"edges": result.m}


def _edges_in(args, kwargs, result):
    return {"edges": args[0].m}


def _restarts(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    restarts = cfg.restarts if cfg is not None else _default_restarts()
    return {"restarts": restarts, "starts_converged": result.starts_converged}


def _default_restarts():
    from hyperlag.optimize import OptimizerConfig

    return OptimizerConfig().restarts


# Counters read from arguments or return values, keyed by span name.
COUNTERS = {
    "hypercore.read_hypergraph": _edges_out,
    "constructions.instantiate_pattern": _edges_out,
    "constructions.generate_sparse_adder": _edges_out,
    "constructions.check_local_sparsity": _edges_in,
    "optimize.symmetry_reduce": lambda a, k, r: {"classes": len(r)},
    "optimize.maximize_lagrangian": _restarts,
    "certify.enumerate_profiles_and_bound": lambda a, k, r: {"profiles_checked": r.profiles_checked},
}


class Tracer:
    def __init__(self):
        self.job = None  # spans are recorded only while a job id is set
        self.spans = []  # (span_id, parent_id, job_id, name, start, end, outermost)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._active = defaultdict(int)
        self._next_id = 1
        self._saved = []
        self._thread = threading.get_ident()

    # -- installation ------------------------------------------------------

    def install(self, package):
        modules = {name: getattr(package, name) for name in LAYERS}
        namespaces = [package, *modules.values()]
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                if layer == "cli" and attr not in CLI_PUBLIC:
                    continue
                wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def uninstall(self):
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if self.job is None or threading.get_ident() != self._thread:
                    yield from fn(*args, **kwargs)
                    return
                self.calls[name] += 1
                outermost = self._active[name] == 0
                self._active[name] += 1
                try:
                    for item in fn(*args, **kwargs):
                        if outermost:
                            self.counts[name + ".items"] += len(item) if hasattr(item, "shape") else 1
                        yield item
                finally:
                    self._active[name] -= 1

            gen_wrapper.__qualname__ = name
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            outermost = self._active[name] == 0
            self._stack.append(span_id)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                self.spans.append((span_id, parent, self.job, name, start, end, outermost))
                self.calls[name] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        wrapper.__qualname__ = name
        return wrapper

    def reset(self):
        """Drop the spans and counters of the previous pass."""
        self.spans = []
        self.calls.clear()
        self.counts.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self, intervals):
        """Aggregate the spans of one pass.  ``intervals`` maps each job id to
        the (start, end) of its timer.

        Returns the inclusive time of outermost spans and the self time per
        span name, the time the root spans cover, the call and work counts, the
        pass's wall time, and the problems found in the accounting: a span
        whose children cover more than its own duration, or a root span that
        lies outside its job's timed interval.  A span's self time is its
        duration minus the durations of its direct children; spans on one
        thread nest, so children never overlap.
        """
        inclusive, self_time, names, problems = defaultdict(float), {}, {}, []
        covered = 0.0
        for span_id, parent, job, name, start, end, outermost in self.spans:
            self_time[span_id] = self_time.get(span_id, 0.0) + (end - start)
            names[span_id] = name
            if parent:
                self_time[parent] = self_time.get(parent, 0.0) - (end - start)
            else:
                covered += end - start
                job_start, job_end = intervals[job]
                if not job_start <= start <= end <= job_end:
                    problems.append(f"root span {name} ({start}, {end}) outside job {job} "
                                    f"({job_start}, {job_end})")
            if outermost:
                inclusive[name] += end - start
        self_by_name = defaultdict(float)
        for span_id, value in self_time.items():
            if value < -1e-9:
                problems.append(f"span {names[span_id]} #{span_id} has self time {value}")
            self_by_name[names[span_id]] += value
        wall = sum(end - start for start, end in intervals.values())
        if wall - covered < -1e-9:
            problems.append(f"root spans cover {covered} s of a {wall} s pass")
        return {"inclusive": dict(inclusive), "self": dict(self_by_name), "covered": covered,
                "calls": dict(self.calls), "counts": dict(self.counts), "wall": wall,
                "problems": problems}

    def span_records(self):
        return [
            {"span_id": s, "parent_id": p or None, "job_id": j, "name": n, "start": a, "end": b}
            for s, p, j, n, a, b, _ in self.spans
        ]
