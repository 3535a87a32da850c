"""The four benchmark workloads: inputs made from the seed, job lists, checks.

Every job goes through ``hyperlag.cli.main`` with stdout captured and parsed,
except where the CLI exposes no such input: reading a graph back and checking
local sparsity are library calls.  Functions are looked up on their module at
call time, so the traced run sees its wrappers.

A job's ``check`` returns a list of problems; an empty list means the output
is correct.  Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from pathlib import Path
from typing import Callable

from hyperlag import cli, closedform, constructions, hypercore

# Sizes per scale.  "full" is what the benchmark measures; "smoke" runs the
# same code paths on tiny inputs in a few seconds.
SIZES = {
    "full": {
        "t1_base": 30, "t3_base": 35,
        "random": ((60, 10_000), (45, 6_000)),
        "certify_t1": ("--grid", "200", "--refine-iters", "50", "--profiles", "3"),
        "certify_t3k2": ("--refine-iters", "50", "--profiles", "3"),
        "certify_t3k3": ("--refine-iters", "50"),
        "gain_t": 120, "write_t": 80, "sparse_t": 40,
    },
    "smoke": {
        "t1_base": 10, "t3_base": 12,
        "random": ((10, 60), (8, 30)),
        "certify_t1": ("--grid", "40", "--refine-iters", "30", "--profiles", "3"),
        "certify_t3k2": ("--grid", "40", "--refine-iters", "30", "--profiles", "3"),
        "certify_t3k3": ("--grid", "40", "--refine-iters", "30"),
        "gain_t": 20, "write_t": 15, "sparse_t": 12,
    },
}


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list]
    argv: tuple | None = None  # CLI arguments; None for a library call
    config: dict = field(default_factory=dict)  # the arguments of a library call


@dataclass
class Workload:
    name: str
    deterministic: bool  # the seed does not enter the inputs
    generate: Callable[[], None]  # writes the input files; part of set-up
    jobs: list  # one pass runs them in order
    # lagrangian job name -> (stationarity residual, tolerance), recorded by
    # the job's first check, so each input counts once however many passes ran
    residuals: dict = field(default_factory=dict)


def run_cli(argv):
    """Call the CLI in-process; return (exit code, parsed JSON stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def exact_edge_count(pattern, t):
    """Edges of instantiate_pattern(pattern, t), counted without building it."""
    sizes = constructions.pattern_part_sizes(pattern, t)
    total = 0
    for template in pattern.templates:
        mult = {part: template.count(part) for part in set(template)}
        total += prod(comb(sizes[part - 1], need) for part, need in mult.items())
    return total


def _exit_problems(code, payload):
    if code != 0:
        return [f"exit code {code}"]
    if payload is None:
        return ["no JSON on stdout"]
    return []


# ---------------------------------------------------------------------------
# lagrangian-structured and lagrangian-random
# ---------------------------------------------------------------------------

def _lagrangian_workload(name, graphs, opt_seed, workdir):
    """``graphs``: label -> (build, cap), where build() makes the input graph
    and cap is an exact upper bound on its Lagrangian.  One job per graph, all
    with optimizer seed ``opt_seed``."""
    built, lower, first_value = {}, {}, {}

    def generate():
        for label, (build, _cap) in graphs.items():
            G = build()
            hypercore.write_hypergraph(G, str(workdir / f"{label}.txt"))
            built[label] = G

    wl = Workload(name, False, generate, [])

    def make_check(label, job_name):
        cap = graphs[label][1]

        def check(output, ctx):
            code, payload = output
            problems = _exit_problems(code, payload)
            if problems:
                return problems
            G = built[label]
            value = payload["value"]
            if label not in lower:
                lower[label] = hypercore.lagrangian_value(G, [Fraction(1, G.n)] * G.n)
            if not lower[label] <= Fraction(value) <= cap:
                problems.append(f"value {value!r} outside [{float(lower[label])}, {float(cap)}]")
            again = hypercore.lagrangian_value(G, payload["argmax"])
            if abs(again - value) > 1e-12:
                problems.append(f"value {value!r} but the argmax evaluates to {again!r}")
            earlier = first_value.setdefault(label, value)
            if earlier != value:
                problems.append(f"seed {opt_seed} gave {value!r}, earlier {earlier!r}")
            wl.residuals.setdefault(job_name, (payload["stationarity_residual"],
                                               payload["config"]["tol"]))
            return problems

        return check

    for label in graphs:
        argv = ("lagrangian", str(workdir / f"{label}.txt"), "--seed", str(opt_seed))
        job_name = f"lagrangian {label} seed {opt_seed}"
        wl.jobs.append(Job(job_name, lambda ctx, argv=argv: run_cli(argv),
                           make_check(label, job_name), argv))
    return wl


def lagrangian_structured(seed, workdir, sizes):
    """Fixed graphs; the workload seed is the optimizer seed."""
    t1, t3 = sizes["t1_base"], sizes["t3_base"]
    graphs = {
        f"t1_base_t{t1}": (lambda: constructions.build_theorem1_base(t1), Fraction(2, 25)),
        f"t3_base_k2_t{t3}": (
            lambda: constructions.instantiate_pattern(constructions.build_theorem3_pattern(2), t3),
            closedform.alpha_k(2) / 6),
    }
    return _lagrangian_workload("lagrangian-structured", graphs, seed, workdir)


def random_3graph(n, m, rng):
    """m distinct triples drawn uniformly from the C(n, 3) on 1..n."""
    triples = list(itertools.combinations(range(1, n + 1), 3))
    return hypercore.UniformHypergraph(3, n, rng.sample(triples, m))


def lagrangian_random(seed, workdir, sizes):
    """Graphs drawn from the workload seed, which is also the optimizer seed."""
    graphs = {}
    for n, m in sizes["random"]:
        key = f"{seed}:{n}:{m}"
        # the cap is the Lagrangian of the complete graph K_n^3
        graphs[f"random_n{n}_m{m}"] = (
            lambda n=n, m=m, key=key: random_3graph(n, m, random.Random(key)),
            Fraction(comb(n, 3), n**3))
    return _lagrangian_workload("lagrangian-random", graphs, seed, workdir)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _check_certificate(output, ctx):
    code, payload = output
    problems = _exit_problems(code, payload)
    if problems:
        return problems
    if payload["overall"] is not True:
        problems.append("overall is not true")
    problems += [f"case {c['case']} failed" for c in payload["cases"] if c["pass"] is not True]
    return problems


def _check_alpha(output, ctx):
    code, payload = output
    problems = _exit_problems(code, payload)
    if problems:
        return problems
    if not payload["optimize_gap"] <= 1e-9:
        problems.append(f"optimize_gap {payload['optimize_gap']} above 1e-9")
    if payload["irrational"] is not True:
        problems.append("alpha_2 not reported irrational")
    return problems


def certify_workload(seed, workdir, sizes):
    """Deterministic: the seed does not enter."""
    runs = [
        ("certify t1", ("certify", "t1", *sizes["certify_t1"]), _check_certificate),
        ("certify t3 k2", ("certify", "t3", "--k", "2", *sizes["certify_t3k2"]), _check_certificate),
        ("certify t3 k3", ("certify", "t3", "--k", "3", *sizes["certify_t3k3"]), _check_certificate),
        ("alpha k2", ("alpha", "--k", "2", "--check-optimize"), _check_alpha),
    ]
    jobs = [Job(name, lambda ctx, argv=argv: run_cli(argv), check, argv)
            for name, argv, check in runs]
    return Workload("certify", True, lambda: None, jobs)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def construct_workload(seed, workdir, sizes):
    pattern = constructions.build_theorem3_pattern(2)
    gain_t, write_t, sparse_t = sizes["gain_t"], sizes["write_t"], sizes["sparse_t"]
    graph_path = str(workdir / f"theorem3_k2_t{write_t}.txt")
    adder_path = str(workdir / f"sparse_t{sparse_t}.txt")
    gain = ("density-gain", "--kind", "t3", "--k", "2", "--t", str(gain_t), "--seed", str(seed))
    write = ("construct", "theorem3", "--k", "2", "--t", str(write_t), "--out", graph_path)
    sparse = ("construct", "sparse", "--s", "4", "--c", "0.1", "--t", str(sparse_t),
              "--seed", str(seed), "--out", adder_path)

    def check_gain(output, ctx):
        code, payload = output
        problems = _exit_problems(code, payload)
        if not problems and payload["base_edges"] != exact_edge_count(pattern, gain_t):
            problems.append(f"base_edges {payload['base_edges']} != "
                            f"{exact_edge_count(pattern, gain_t)}")
        return problems

    def check_written(output, ctx):
        code, payload = output
        problems = _exit_problems(code, payload)
        if not problems:
            ctx["written_edges"] = payload["edges"]
            if payload["edges"] != exact_edge_count(pattern, write_t):
                problems.append(f"edges {payload['edges']} != {exact_edge_count(pattern, write_t)}")
        return problems

    def check_read(G, ctx):
        with open(graph_path, encoding="utf-8") as fh:
            header = tuple(int(f) for f in fh.readline().split())
        if header != (G.r, G.n, G.m) or G.m != ctx.get("written_edges"):
            return [f"read back {(G.r, G.n, G.m)}, header {header}, "
                    f"written {ctx.get('written_edges')} edges"]
        return []

    def check_adder(output, ctx):
        code, payload = output
        return _exit_problems(code, payload)

    def run_sparsity(ctx):
        A = hypercore.read_hypergraph(adder_path)
        return A, constructions.check_local_sparsity(A, 4)

    def check_sparsity(output, ctx):
        A, verdict = output
        problems = [] if verdict.ok else [f"adder not 4-locally sparse: {verdict.witness}"]
        target = constructions.SparseAdderParams(s=4, c=0.1, t=sparse_t).target_edges()
        if A.m < target:
            problems.append(f"adder has {A.m} edges, fewer than {target}")
        return problems

    jobs = [
        Job("density-gain t3", lambda ctx: run_cli(gain), check_gain, gain),
        Job("construct theorem3", lambda ctx: run_cli(write), check_written, write),
        Job("read_hypergraph theorem3", lambda ctx: hypercore.read_hypergraph(graph_path),
            check_read, config={"call": "read_hypergraph", "path": Path(graph_path).name}),
        Job("construct sparse", lambda ctx: run_cli(sparse), check_adder, sparse),
        Job("check_local_sparsity", run_sparsity, check_sparsity,
            config={"call": "read_hypergraph, check_local_sparsity", "s": 4}),
    ]
    return Workload("construct", False, lambda: None, jobs)


BUILDERS = {
    "lagrangian-structured": lagrangian_structured,
    "lagrangian-random": lagrangian_random,
    "certify": certify_workload,
    "construct": construct_workload,
}


def make(name, seed, workdir: Path, scale="full"):
    return BUILDERS[name](seed, workdir, SIZES[scale])
