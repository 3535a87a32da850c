"""Command-line front end.

JSON results go to stdout, human-readable progress to stderr, so pipelines
can consume the output while a terminal user still sees what happened.
Exit codes: 0 success / certification pass, 1 usage or input error,
2 certification failure, 3 adder generation failure.  ``main`` maps the
input, file and generator errors of every subcommand to these codes, with
one stderr line each.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import closedform, constructions, certify, hypercore, optimize

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERT_FAIL = 2
EXIT_GENERATOR = 3


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _say(f"wrote {out}")
    else:
        print(text)


def _optimizer_config(args) -> optimize.OptimizerConfig:
    return optimize.OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.iters,
        tolerance=args.tol,
        seed=args.seed,
    )


def cmd_lagrangian(args) -> int:
    G = hypercore.read_hypergraph(args.path)
    result = optimize.maximize_lagrangian(G, _optimizer_config(args))
    payload = closedform.to_json(result)
    payload["config"] = {
        "seed": args.seed, "restarts": args.restarts, "iters": args.iters, "tol": args.tol,
    }
    _emit(payload, args.out)
    _say(f"lambda >= {result.value:.12f} on support {list(result.support)}")
    return EXIT_OK


# the options each family cannot do without
_CONSTRUCT_NEEDS = {
    "b2k": ("k", "n"), "theorem1": ("t",), "theorem3": ("k", "t"), "sparse": ("t",), "gstar": ("t",),
}


def cmd_construct(args) -> int:
    kind = args.family
    missing = [f"--{name}" for name in _CONSTRUCT_NEEDS[kind] if getattr(args, name) is None]
    if missing:
        raise ValueError(f"construct {kind} needs {' and '.join(missing)}")
    if kind == "b2k":
        G = constructions.build_b2k(args.k, args.n)
        parts = [(1, 2 * args.k), (2 * args.k + 1, args.n)]
        meta = constructions.construction_metadata("b2k", k=args.k, t=args.n, parts=parts)
    elif kind == "theorem1":
        G = constructions.build_theorem1_base(args.t)
        meta = constructions.construction_metadata(
            "theorem1", t=args.t, parts=constructions.theorem1_parts(args.t))
    elif kind == "theorem3":
        pattern = constructions.build_theorem3_pattern(args.k)
        G = constructions.instantiate_pattern(pattern, args.t)
        meta = constructions.construction_metadata(
            "theorem3", k=args.k, t=args.t,
            parts=constructions.pattern_parts(pattern, args.t))
    elif kind == "sparse":
        params = constructions.SparseAdderParams(s=args.s, c=args.c, t=args.t, seed=args.seed)
        G = constructions.generate_sparse_adder(params)
        meta = constructions.construction_metadata(
            "sparse", t=args.t, s=args.s, c=args.c, seed=args.seed, parts=[(1, args.t)])
    elif kind == "gstar":
        G, meta = _build_gstar(args)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {kind}")

    hypercore.write_hypergraph(G, args.out)
    sidecar = args.out + ".json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    _say(f"wrote {args.out} ({G.m} edges) and {sidecar}")
    print(json.dumps({"out": args.out, "edges": G.m, "sidecar": sidecar}))
    return EXIT_OK


def _build_gstar(args):
    pattern, part, _ = certify.gstar_target(args.kind, args.t, args.k)
    base = constructions.instantiate_pattern(pattern, args.t)
    parts = constructions.pattern_parts(pattern, args.t)
    lo, hi = parts[part - 1]
    adder = constructions.generate_sparse_adder(
        constructions.SparseAdderParams(s=args.s, c=args.c, t=hi - lo + 1, seed=args.seed))
    G = constructions.assemble_gstar(base, adder, range(lo, hi + 1))
    k = args.k if args.kind == "t3" else None
    meta = constructions.construction_metadata(
        f"gstar_{args.kind}", k=k, t=args.t, s=args.s, c=args.c, seed=args.seed, parts=parts)
    return G, meta


def cmd_alpha(args) -> int:
    value = closedform.alpha_k(args.k)
    payload = closedform.exact_to_json(value)
    payload["alpha_over_6"] = float(value) / 6
    payload["irrational"] = closedform.is_non_square_4k_minus_1(args.k)
    if args.check_optimize:
        a_hat, peak = closedform.f_b2k_numeric_max(args.k)
        payload["optimize_gap"] = abs(float(value) / 6 - peak)
        payload["optimize_argmax"] = a_hat
        payload["astar"] = float(closedform.astar_weight(args.k))
    _emit(payload, args.out)
    _say(f"alpha_{args.k} = {float(value):.9f}")
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.theorem == "t3" and args.k is None:
        raise ValueError("certify t3 needs --k")
    # options left out keep the library's defaults
    given = {"grid_resolution": args.grid, "refine_iters": args.refine_iters, "tol": args.tol}
    options = {name: value for name, value in given.items() if value is not None}
    if args.theorem == "t1":
        report = certify.certify_theorem1(profile_s=args.profiles, **options)
    else:
        report = certify.certify_theorem3(args.k, profile_s=args.profiles, **options)
    _emit(closedform.to_json(report), args.out)
    for case in report.cases:
        _say(f"[{'PASS' if case.passed else 'FAIL'}] {case.case_name}: "
             f"found {case.bound_found:.12f} ({case.method})")
    _say(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return EXIT_OK if report.overall else EXIT_CERT_FAIL


def cmd_density_gain(args) -> int:
    report = certify.check_blowup_density_gain(
        args.kind, args.t, s=args.s, c=args.c, seed=args.seed, k=args.k)
    _emit(closedform.to_json(report), args.out)
    _say(f"bound {float(report.bound):.9f} vs target {float(report.target):.9f} "
         f"-> {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_CERT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlag",
        description="Hypergraph Lagrangians: constructions, optimization, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    defaults = optimize.OptimizerConfig()
    p = sub.add_parser("lagrangian", help="maximize the Lagrangian of a hypergraph file")
    p.add_argument("path")
    p.add_argument("--restarts", type=int, default=defaults.restarts)
    p.add_argument("--iters", type=int, default=defaults.max_iters)
    p.add_argument("--tol", type=float, default=defaults.tolerance)
    p.add_argument("--seed", type=int, default=defaults.seed)
    add_out(p)
    p.set_defaults(func=cmd_lagrangian)

    p = sub.add_parser("construct", help="build a hypergraph family and write it to a file")
    p.add_argument("family", choices=["b2k", "theorem1", "theorem3", "sparse", "gstar"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--kind", choices=["t1", "t3"], default="t1", help="base family for gstar")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("alpha", help="evaluate the surd constant alpha_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--check-optimize", action="store_true",
                   help="also compare alpha_k/6 against a 1-d numeric maximization")
    add_out(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("certify", help="run a certification pipeline")
    p.add_argument("theorem", choices=["t1", "t3"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--refine-iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--profiles", type=int, default=None,
                   help="also optimize every part-size profile up to this total size")
    add_out(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("density-gain", help="blow-up density gain accounting for gstar")
    p.add_argument("--kind", choices=["t1", "t3"], required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=cmd_density_gain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except hypercore.HypergraphFormatError as exc:  # a ValueError, so caught first
        _say(f"parse error in {args.path}: {exc}")
    except ValueError as exc:
        _say(f"invalid parameters: {exc}")
    except OSError as exc:
        _say(f"file error: {exc}")
    except constructions.AdderGenerationError as exc:
        _say(f"generator failure: {exc}")
        return EXIT_GENERATOR
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
