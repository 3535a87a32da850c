"""Smoke-size self-test of the benchmark: every workload's jobs and checks on
tiny inputs, the tracer's accounting, and the BENCHMARK.json contract."""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from tracer import LAYERS, Tracer

run.load_package()
import workloads  # noqa: E402  (needs the package on the path)

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*argv, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + list(run.WORKLOADS)
    assert len(set(names)) == len(names) and all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for workload in run.WORKLOADS:
        done = bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1",
                     "--scale", "smoke")
        assert done.returncode == 0, done.stderr
        runs[workload] = [json.loads(line) for line in done.stdout.splitlines()]
    return runs


def test_every_layer_metric_is_measured(traced_runs):
    """A misspelt metric name reads as 0 everywhere; every one must be nonzero
    on some workload, except the overhead, which may fall either side."""
    silent = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    for lines in traced_runs.values():
        silent -= {name for name, m in lines[-1]["metrics"].items() if m["value"] != 0}
    assert not silent


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(traced_runs, workload):
    lines = traced_runs[workload]
    header, report, result = lines[0]["header"], lines[-2]["report"], lines[-1]
    assert header["nproc"] >= 1 and header["workload"] == workload
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert [k for k in result["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        assert report[name]["value"] > 0
    assert report["failed_share"]["value"] == 0
    assert ("unconverged_share" in report) == workload.startswith("lagrangian")
    ref = report["reference_s"]
    assert report["wall_s"]["value"] == pytest.approx(
        report["wall_clock_s"]["value"] * ref["nominal"] / ref["value"], rel=1e-9)
    layers = result["metrics"]
    self_sum = sum(layers[f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert self_sum + layers["trace.unattributed_s"]["value"] == pytest.approx(
        layers["trace.wall_s"]["value"], rel=1e-9)
    assert layers["cli.main.self_s"]["value"] > 0
    assert report["trace_problems"] == []


def test_all_workloads_untraced():
    done = bench("--seed", "2", "--seconds", "0", "--scale", "smoke")
    assert done.returncode == 0, done.stderr
    for workload in run.WORKLOADS:
        assert f"{workload}: correct=True" in done.stdout
    for metric in ("wall_s", "setup_s", "peak_rss_mb", "failed_share", "unconverged_share",
                   "kkt_residual_max"):
        assert f"  {metric} " in done.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_checks_reject_wrong_outputs(tmp_path):
    wl = workloads.make("lagrangian-structured", 0, tmp_path, "smoke")
    wl.generate()
    job = wl.jobs[0]
    code, payload = job.run({})
    assert job.check((code, payload), {}) == []
    n = len(payload["argmax"])
    assert job.check((code, dict(payload, value=1.0)), {})
    assert job.check((code, dict(payload, argmax=[1 / n] * n)), {})
    assert job.check((2, payload), {})

    gain = workloads.make("construct", 0, tmp_path, "smoke").jobs[0]
    code, payload = gain.run({})
    assert gain.check((code, payload), {}) == []
    assert gain.check((code, dict(payload, base_edges=payload["base_edges"] + 1)), {})

    cert = workloads.make("certify", 0, tmp_path, "smoke").jobs[-1]  # alpha
    code, payload = cert.run({})
    assert cert.check((code, payload), {}) == []
    assert cert.check((code, dict(payload, optimize_gap=1e-3)), {})


def test_tracer_nests_spans_and_restores_functions():
    import hyperlag as package
    from hyperlag import certify, constructions, optimize

    original = optimize.project_to_simplex
    tracer = Tracer()
    tracer.install(package)
    try:
        assert certify.project_to_simplex is optimize.project_to_simplex is not original
        G = constructions.build_theorem1_base(10)
        tracer.job = "job"
        start = time.perf_counter()
        optimize.maximize_lagrangian(G)
        end = time.perf_counter()
        tracer.job = None
    finally:
        tracer.uninstall()
    assert optimize.project_to_simplex is original and certify.project_to_simplex is original
    names = {s["span_id"]: s["name"] for s in tracer.span_records()}
    parents = {s["name"]: names.get(s["parent_id"]) for s in tracer.span_records()}
    assert parents["optimize.project_to_simplex"] == "optimize.maximize_lagrangian"
    assert parents["hypercore.link_difference"] == "optimize.symmetry_reduce"
    summary = tracer.summary({"job": (start, end)})
    assert summary["problems"] == []
    assert min(summary["self"].values()) >= 0
    assert sum(summary["self"].values()) == pytest.approx(summary["covered"])
    assert summary["covered"] == pytest.approx(summary["inclusive"]["optimize.maximize_lagrangian"])
    assert summary["counts"]["optimize.maximize_lagrangian.restarts"] == 12
    # a root span outside its job's timer is reported
    assert tracer.summary({"job": (end, end + 1.0)})["problems"]
