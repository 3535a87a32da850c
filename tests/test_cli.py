"""Command-line interface: subcommands, JSON shapes, exit codes, round-trips."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hyperlag
from hyperlag.cli import main
from hyperlag.constructions import check_local_sparsity
from hyperlag.hypercore import read_hypergraph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_b2k_and_sidecar(capsys, tmp_path):
    out = str(tmp_path / "b2k.txt")
    code, stdout, _ = run(capsys, "construct", "b2k", "--k", "1", "--n", "6", "--out", out)
    assert code == 0
    assert json.loads(stdout)["edges"] == 16
    assert read_hypergraph(out).m == 16
    sidecar = json.loads(Path(out + ".json").read_text())
    assert list(sidecar) == ["kind", "k", "t", "s", "c", "seed", "parts"]
    assert sidecar["parts"] == [[1, 2], [3, 6]]


def test_construct_theorem1_then_lagrangian_roundtrip(capsys, tmp_path):
    out = str(tmp_path / "g25.txt")
    code, _, _ = run(capsys, "construct", "theorem1", "--t", "25", "--out", out)
    assert code == 0
    assert read_hypergraph(out).m == 1175
    code, stdout, _ = run(capsys, "lagrangian", out, "--restarts", "6", "--iters", "300")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["value"] >= 1175 / 25**3 - 1e-9
    assert payload["stationarity_residual"] < 1e-6
    assert payload["converged"] is (payload["stationarity_residual"] <= payload["config"]["tol"])
    # every restart stops for one reason, and "converged" is starts_converged
    assert list(payload["stop_reasons"]) == ["converged", "float_floor", "max_iters"]
    assert sum(payload["stop_reasons"].values()) == payload["config"]["restarts"]
    assert payload["stop_reasons"]["converged"] == payload["starts_converged"]


def test_construct_sparse_passes_checker(capsys, tmp_path):
    out = str(tmp_path / "adder.txt")
    code, stdout, _ = run(capsys, "construct", "sparse", "--s", "4", "--c", "0.1",
                          "--t", "30", "--seed", "7", "--out", out)
    assert code == 0
    A = read_hypergraph(out)
    assert A.m >= 90
    assert check_local_sparsity(A, 4).ok


def test_construct_gstar_t1(capsys, tmp_path):
    out = str(tmp_path / "gstar.txt")
    code, stdout, _ = run(capsys, "construct", "gstar", "--kind", "t1", "--t", "25",
                          "--s", "3", "--c", "1.0", "--seed", "0", "--out", out)
    assert code == 0
    assert json.loads(stdout)["edges"] == 1175 + 100


def test_alpha_json_fields(capsys):
    code, stdout, _ = run(capsys, "alpha", "--k", "2", "--check-optimize")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["p"] == "20/81" and payload["q"] == "14/81" and payload["d"] == 7
    assert payload["float"] == pytest.approx(0.704204, abs=1e-6)
    assert payload["optimize_gap"] <= 1e-8
    assert payload["irrational"] is True


def test_alpha_k1(capsys):
    code, stdout, _ = run(capsys, "alpha", "--k", "1")
    payload = json.loads(stdout)
    assert code == 0
    assert payload["p"] == "0/1" and payload["q"] == "1/3" and payload["d"] == 3


def test_certify_t3_passes(capsys, tmp_path):
    out = str(tmp_path / "report.json")
    code, _, err = run(capsys, "certify", "t3", "--k", "2", "--grid", "80",
                       "--refine-iters", "150", "--out", out)
    assert code == 0
    report = json.loads(Path(out).read_text())
    assert report["overall"] is True
    assert report["theorem"] == "t3" and report["k"] == 2
    assert "overall: PASS" in err


def test_certify_t1_coarse_grid_exits_2(capsys):
    code, stdout, _ = run(capsys, "certify", "t1", "--grid", "2", "--refine-iters", "0")
    assert code == 2
    assert json.loads(stdout)["overall"] is False


@pytest.mark.parametrize("argv, points", [
    (("certify", "t1", "--grid", "5000"), "20,858,342,501 lattice points"),
    (("certify", "t3", "--k", "2", "--grid", "20000"), "200,030,001 lattice points"),
])
def test_certify_refuses_a_huge_grid_before_scanning(capsys, argv, points):
    start = time.perf_counter()
    code, stdout, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and points in err and stdout == ""


def test_certify_t3_requires_k(capsys):
    code, _, err = run(capsys, "certify", "t3")
    assert code == 1 and "--k" in err


# an --out path in a directory that does not exist
MISSING = "missing/out.txt"


@pytest.mark.parametrize("argv, problem", [
    (("construct", "theorem1"), "--t"),
    (("construct", "theorem3", "--k", "2"), "--t"),
    (("construct", "gstar"), "--t"),
    (("construct", "sparse"), "--t"),
    (("construct", "b2k", "--n", "6"), "--k"),
    (("construct", "theorem3", "--t", "40"), "--k"),
    (("construct", "b2k", "--k", "2"), "--n"),
    (("certify", "t3", "--k", "1"), "needs k >= 2"),
    (("certify", "t1", "--profiles", "2", "--grid", "4", "--refine-iters", "1"), "profile budget"),
    (("certify", "t1", "--grid", "0"), "grid_resolution must be >= 1"),
    (("lagrangian", "empty.txt"), "at least one vertex"),
    (("lagrangian", "edge.txt", "--restarts", "0"), "restarts must be >= 1"),
    (("lagrangian", "edge.txt", "--tol", "0"), "tolerance must be positive"),
    (("lagrangian", "edge.txt", "--iters", "-1"), "max_iters must be >= 0"),
    (("certify", "t1", "--grid", "4", "--refine-iters", "-1"), "refine_iters must be >= 0"),
    (("alpha", "--k", "0"), "k must be >= 1"),
    (("lagrangian", "edge.txt", "--out", MISSING), "No such file"),
    (("construct", "b2k", "--k", "1", "--n", "6", "--out", MISSING), "No such file"),
    (("alpha", "--k", "2", "--out", MISSING), "No such file"),
    (("certify", "t1", "--grid", "4", "--refine-iters", "0", "--out", MISSING), "No such file"),
    (("certify", "t1", "--k", "5"), "takes no k"),
    (("density-gain", "--kind", "t1", "--t", "25", "--k", "5"), "takes no k"),
    (("construct", "sparse", "--t", "20", "--c", "100"), "more than the 1,140 3-sets"),
    (("construct", "sparse", "--t", "20", "--c", "inf"), "finite and positive"),
    (("construct", "sparse", "--t", "20", "--c", "nan"), "finite and positive"),
    (("certify", "t1", "--tol", "1e-3"), "unrecognized arguments: --tol 1e-3"),
    (("alpha",), "the following arguments are required: --k"),
    (("certify", "t9"), "invalid choice: 't9'"),
    (("alpha", "--k", "x"), "invalid int value: 'x'"),
    (("construct", "theorem1", "--t", "25", "--k", "5"), "takes no k"),
    (("certify", "t1", "--profiles", "10"),
     "profile budget 10: degree 30 gives 211,915,132 lattice points"),
])
def test_input_errors_exit_1(capsys, tmp_path, argv, problem):
    argv = [str(tmp_path / a) if a == MISSING else a for a in argv]
    if argv[0] == "construct" and "--out" not in argv:
        argv += ["--out", str(tmp_path / "g.txt")]
    if argv[0] == "lagrangian":
        (tmp_path / "empty.txt").write_text("3 0 0\n")
        (tmp_path / "edge.txt").write_text("3 3 1\n1 2 3\n")
        argv[1] = str(tmp_path / argv[1])
    start = time.perf_counter()
    code, stdout, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and problem in err and stdout == ""
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "g.txt").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alpha", "--help"])
    assert exc.value.code == 0 and "--check-optimize" in capsys.readouterr().out


def test_adder_failure_exits_3(capsys, tmp_path):
    out = tmp_path / "a.txt"
    code, stdout, err = run(capsys, "construct", "sparse", "--s", "4", "--c", "0.2",
                            "--t", "4", "--seed", "1", "--out", str(out))
    assert code == 3 and "larger t" in err and stdout == ""
    assert len(err.splitlines()) == 1 and not out.exists()


def test_density_gain_t1(capsys):
    code, stdout, _ = run(capsys, "density-gain", "--kind", "t1", "--t", "25")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["pass"] is True
    assert payload["bound"]["p"] == "51/625"
    assert payload["margin"]["p"] == "1/625"


def test_parse_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 5 2\n1 2\n")
    code, _, err = run(capsys, "lagrangian", str(bad))
    assert code == 1
    assert "line 2" in err


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "lagrangian", str(tmp_path / "nope.txt"))
    assert code == 1


def test_lagrangian_deterministic_given_seed(capsys, tmp_path):
    out = str(tmp_path / "b.txt")
    run(capsys, "construct", "b2k", "--k", "1", "--n", "7", "--out", out)
    _, first, _ = run(capsys, "lagrangian", out, "--seed", "11")
    _, second, _ = run(capsys, "lagrangian", out, "--seed", "11")
    assert first == second


def run_python(code, *args, hashseed="0"):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(hyperlag.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hashseed)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_optimizing_runs_do_not_load_numpy_random(tmp_path):
    path = str(tmp_path / "t1.txt")
    run_python("""
import sys
from hyperlag.cli import main
from hyperlag.constructions import build_theorem1_base
from hyperlag.hypercore import write_hypergraph
write_hypergraph(build_theorem1_base(10), sys.argv[1])
for argv in (["lagrangian", sys.argv[1]],
             ["certify", "t1", "--grid", "20", "--refine-iters", "5", "--profiles", "3"],
             ["alpha", "--k", "2", "--check-optimize"]):
    assert main(argv) == 0, argv
assert "numpy.random" not in sys.modules
""", path)


def test_lagrangian_output_is_the_same_in_every_process(capsys, tmp_path):
    path = str(tmp_path / "t1.txt")
    assert main(["construct", "theorem1", "--t", "25", "--out", path]) == 0
    capsys.readouterr()
    # the CLI output, then the starting rows it ascended from: at this seed
    # only starts_converged in the output depends on the Dirichlet rows
    code = """
import sys
from hyperlag import cli, hypercore, optimize
assert cli.main(sys.argv[1:]) == 0
_, _, sizes, owner = optimize.quotient(hypercore.read_hypergraph(sys.argv[2]))
print(optimize._starting_points(sizes, owner, optimize.OptimizerConfig(seed=3)).tolist())
"""
    first = run_python(code, "lagrangian", path, "--seed", "3", hashseed="1")
    second = run_python(code, "lagrangian", path, "--seed", "3", hashseed="2")
    assert first == second and '"seed": 3' in first
