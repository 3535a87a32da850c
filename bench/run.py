#!/usr/bin/env python3
"""Benchmark of the hyperlag package, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py                                   # every workload, one table
    python3 bench/run.py --workload certify --seed 3 --seconds 20 --trace 0

With ``--workload NAME`` the job list is run over and over until
``--seconds`` is used.  Each job starts with the package's functools caches
cleared, as a fresh CLI process would.  Set-up (``import hyperlag`` in a fresh
interpreter plus generation of the input files) is timed once before the
first pass and twice after each of the next passes, so its samples spread
over the run.  Every job's output is checked outside the timed region; a job that
raises or fails a check counts as failed, and ``failed`` over ``attempted`` is
the failed share.

Times are reported in reference seconds.  The host's speed drifts by up to
1.6x over minutes, so after every job the benchmark times a fixed
pure-Python reference routine (``reference``), which does not touch the
package.  A time measured with the clock is scaled by ``REFERENCE_S`` over the
run's mean reference time: if the host ran at half speed, the reference took
twice as long and the scaled time is unchanged, while a faster program still
reads faster.  ``wall_s`` is the mean time of one pass over the job list and
``setup_s`` the median of the set-up samples, both scaled.  The report line
also gives them unscaled, as ``wall_clock_s`` and ``setup_clock_s``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with span wrappers installed on the package's public
functions, and reports per-layer metrics from the median traced pass; its
spans go to ``.bench_out/``.

Output: a header line, a report line, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
each workload in its own fresh process, one at a time, and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import fmean, median

from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("lagrangian-structured", "lagrangian-random", "certify", "construct")
SETUP_REPEATS = 15
# The reference routine's usual time on a 2-vCPU Xeon VM with Python 3.11, so
# that reference seconds read about like seconds on that machine.
REFERENCE_S = 0.026
# The host switches between its speeds every few tens of milliseconds, so one
# reference sample runs the routine several times in a row to average over it,
# and a job is followed by one sample per started REFERENCE_EVERY seconds of
# its time, so that long jobs do not leave the speed thinly sampled.
REFERENCE_CALLS = 3
REFERENCE_EVERY = 1.0
IMPORT_PROBE = "import time; t = time.perf_counter(); import hyperlag; print(time.perf_counter() - t)"

# Per-layer metric names say what they measure by their last part: ".s" is
# the inclusive time of a traced function, ".self_s" its self time (or, after
# a layer name, the self time of all the layer's functions), ".calls" its call
# count, and any other name is a tracer counter.  Two counters are renamed.
RENAMED_COUNTS = {
    "optimize.iter_lattice.points": "optimize.iter_lattice.items",
    "certify.profiles_checked": "certify.enumerate_profiles_and_bound.profiles_checked",
}


def say(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def probe_import():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def load_package():
    sys.path.insert(0, str(SRC))
    import hyperlag

    if Path(hyperlag.__file__).resolve().parent != SRC / "hyperlag":
        raise ImportError(f"hyperlag imported from {hyperlag.__file__}, not from {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"hyperlag.{layer}")
    return hyperlag


def reference():
    """Fixed interpreter work of the kinds the package does most: Fraction
    sums, and triples built and looked up in a set.  Its time tracks the
    host's speed.  An integer loop or numpy work alone tracked it worse: the
    package slows down more than they do when the host is busy."""
    harmonic = Fraction(0)
    for i in range(1, 1500):
        harmonic += Fraction(1, i)
    triples = [(i % 50, (i * 7) % 53, (i * 13) % 59) for i in range(40_000)]
    seen = set(triples)
    return harmonic, sum(1 for t in triples if (t[1], t[0], t[2]) in seen)


def time_reference():
    """Seconds per call of ``reference``, over ``REFERENCE_CALLS`` calls.  The
    garbage collector is off meanwhile (the routine makes no cycles), so the
    time does not depend on how many objects the package keeps alive."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REFERENCE_CALLS):
            reference()
        return (time.perf_counter() - start) / REFERENCE_CALLS
    finally:
        gc.enable()


def clear_caches(package):
    """Empty every functools cache the package holds, as a fresh process has."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith(package.__name__ + "."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(package, wl, tracer=None):
    """Run the job list once, timing the reference routine after each job.
    Returns each job's time, the reference times and the failures; a traced
    pass first regenerates the inputs, as job "setup", and also returns the
    tracer's summary of its spans."""
    jobs = [(job.name, job.run, job.check) for job in wl.jobs]
    if tracer is not None:
        jobs.insert(0, ("setup", lambda ctx: wl.generate(), None))
    ctx, times, intervals, failures, refs = {}, {}, {}, [], []
    for name, run, check in jobs:
        clear_caches(package)
        gc.collect()
        if tracer is not None:
            tracer.job = name
        start = time.perf_counter()
        try:
            output, error = run(ctx), None
        except (Exception, SystemExit):
            output, error = None, traceback.format_exc(limit=3)
        end = time.perf_counter()
        if tracer is not None:
            tracer.job = None
        refs += [time_reference() for _ in range(1 + int((end - start) / REFERENCE_EVERY))]
        times[name], intervals[name] = end - start, (start, end)
        if check is None:
            continue
        if error is None:
            try:
                problems = check(output, ctx)
            except Exception:
                problems = [f"check raised: {traceback.format_exc(limit=3)}"]
        else:
            problems = [f"raised: {error}"]
        if problems:
            failures.append({"job": name, "problems": problems})
    done = {"wall": sum(times.values()), "times": times, "refs": refs, "failures": failures,
            "attempted": len(wl.jobs)}
    if tracer is not None:
        done["summary"] = tracer.summary(intervals)
        done["spans"] = tracer.span_records()
        tracer.reset()
    return done


def measure(wl_pass, budget, min_passes, after_pass=lambda: None):
    """Run passes while the next one is expected to end within ``budget``
    seconds, and at least ``min_passes`` times."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start + passes[-1]["wall"] <= budget:
        passes.append(wl_pass())
        after_pass()
    return passes


def reference_scale(passes):
    """Factor from clock seconds to reference seconds over ``passes``."""
    return REFERENCE_S / fmean(r for p in passes for r in p["refs"])


def layer_metrics(names, summary, extra):
    """The per-layer metrics ``names`` of one traced pass; ``extra`` holds the
    ones measured outside the tracer."""
    restarts = summary["counts"].get("optimize.maximize_lagrangian.restarts", 0)
    converged = summary["counts"].get("optimize.maximize_lagrangian.starts_converged", 0)
    known = dict(extra)
    known["optimize.restarts_converged_ratio"] = converged / restarts if restarts else 0.0
    known["trace.wall_s"] = summary["wall"]
    known["trace.unattributed_s"] = summary["wall"] - summary["covered"]
    metrics = {}
    for name in names:
        stem, _, suffix = name.rpartition(".")
        if name in known:
            value = known[name]
        elif suffix == "self_s" and stem in LAYERS:
            value = sum(v for k, v in summary["self"].items() if k.startswith(stem + "."))
        elif suffix == "self_s":
            value = summary["self"].get(stem, 0.0)
        elif suffix == "s":
            value = summary["inclusive"].get(stem, 0.0)
        elif suffix == "calls":
            value = summary["calls"].get(stem, 0)
        else:
            value = summary["counts"].get(RENAMED_COUNTS.get(name, name), 0)
        metrics[name] = value
    return metrics


def header(package, wl, args, spec):
    import numpy

    from hyperlag import cli

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    parser = cli.build_parser()
    jobs = []
    for job in wl.jobs:
        if job.argv is None:
            jobs.append({"name": job.name, "config": job.config})
        else:
            resolved = vars(parser.parse_args(list(job.argv)))
            resolved.pop("func")
            jobs.append({"name": job.name, "argv": list(job.argv), "config": resolved})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hyperlag": package.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "seed": args.seed,
        "seed_enters_inputs": not wl.deterministic,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "setup_repeats": setup_repeats(args),
        "reference_nominal_s": REFERENCE_S,
        "jobs": jobs,
    }


def setup_repeats(args):
    return SETUP_REPEATS if args.scale == "full" else 1


def run_one(args):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    package = load_package()
    import workloads

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    import_s, gen_s = [], []

    def set_up():
        if len(gen_s) < setup_repeats(args):
            import_s.append(probe_import())
            gc.collect()
            start = time.perf_counter()
            wl.generate()
            gen_s.append(time.perf_counter() - start)

    try:
        wl = workloads.make(args.workload, args.seed, workdir, args.scale)
        print(json.dumps({"header": header(package, wl, args, spec)}), flush=True)
        set_up()
        budget = args.seconds / 2 if args.trace else args.seconds
        # at least two passes, so that every job runs twice and the
        # same-seed-same-value check has something to compare
        plain = measure(lambda: run_pass(package, wl), budget, 2, lambda: (set_up(), set_up()))
        traced = []
        if args.trace:
            tracer = Tracer()
            tracer.install(package)
            try:
                traced = measure(lambda: run_pass(package, wl, tracer), budget, 1)
            finally:
                tracer.uninstall()
        for _ in range(setup_repeats(args)):  # top up when fewer passes ran
            set_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = len(failures)
    setup = [a + b for a, b in zip(import_s, gen_s)]
    to_ref = reference_scale(plain)
    refs = [r for p in plain for r in p["refs"]]
    wall_clock = fmean(p["wall"] for p in plain)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "wall_s": {"value": wall_clock * to_ref, "unit": "s",
                   "base": f"mean of {len(plain)} passes over {len(wl.jobs)} jobs, "
                           "in reference seconds"},
        "wall_clock_s": {"value": wall_clock, "unit": "s",
                         "samples": {name: [p["times"][name] for p in plain]
                                     for name in plain[0]["times"]}},
        "setup_s": {"value": median(setup) * to_ref, "unit": "s",
                    "base": f"median of {len(setup)} set-ups, in reference seconds"},
        "setup_clock_s": {"value": median(setup), "unit": "s", "samples": setup,
                          "import_s": import_s, "generate_s": gen_s},
        "reference_s": {"value": fmean(refs), "unit": "s", "nominal": REFERENCE_S,
                        "base": f"mean of {len(refs)} runs of the reference routine",
                        "samples": refs},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB"},
        "failed_share": {"value": failed / attempted, "unit": "ratio",
                         "base": f"{failed} of {attempted} jobs attempted"},
    }
    if wl.residuals:
        above = sum(residual > tol for residual, tol in wl.residuals.values())
        jobs = len(wl.residuals)
        report["unconverged_share"] = {
            "value": above / jobs, "unit": "ratio",
            "base": f"{above} of {jobs} distinct lagrangian jobs above their tolerance"}
        report["kkt_residual_max"] = {
            "value": max(residual for residual, _ in wl.residuals.values()), "unit": "1"}
    report["failures"] = failures[:10]

    correct = failed == 0
    if args.trace:
        problems = [problem for p in traced for problem in p["summary"]["problems"]]
        correct = correct and not problems
        report["trace_problems"] = problems[:10]
        shown = sorted(traced, key=lambda p: p["wall"])[(len(traced) - 1) // 2]
        extra = {
            "trace.overhead_s": (fmean(p["wall"] for p in traced) * reference_scale(traced)
                                 - (wall_clock + median(gen_s)) * to_ref),
            "optimize.unconverged_share": report.get("unconverged_share", {}).get("value", 0.0),
            "optimize.kkt_residual_max": report.get("kkt_residual_max", {}).get("value", 0.0),
        }
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(names, shown["summary"], extra)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        report["layers"] = metrics
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"passes": [p["spans"] for p in traced]}, fh)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in a fresh process
# ---------------------------------------------------------------------------

def run_all(args):
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            say(f"{name}: exit {done.returncode}\n{done.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        status |= 0 if result["correct"] else 1
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} passes={report['passes']}")
        rows = dict(result["metrics"])
        if not args.trace:
            rows.update({k: report[k] for k in ("wall_clock_s", "setup_clock_s", "failed_share",
                                                "unconverged_share", "kkt_residual_max")
                         if k in report})
        for metric, entry in rows.items():
            base = f"  ({entry['base']})" if "base" in entry else ""
            print(f"  {metric:48s} {entry['value']:>14.6g} {entry['unit']}{base}")
        for failure in report["failures"]:
            say(f"{name}: {failure}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs through the same code paths")
    args = parser.parse_args(argv)
    if not (SRC / "hyperlag" / "__init__.py").is_file():
        say(f"no hyperlag sources under {SRC}; run from a checkout of the repository")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
