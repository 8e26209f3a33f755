import hashlib
import json
import math
import subprocess
import sys

import pytest

from lazycops import cli
from lazycops.graph import FAMILIES, gen_named, serialize_graph
from reference_gnp import pairwise_gnp


def _run(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "lazycops.cli", *args],
        capture_output=True, text=True, **kw,
    )


def test_gen_and_solve(tmp_path):
    out = tmp_path / "c8.txt"
    r = _run("gen", "--kind", "cycle", "--n", "8", "--out", str(out))
    assert r.returncode == 0
    meta = json.loads(r.stdout)
    assert meta["n"] == 8 and meta["m"] == 8
    assert out.exists()

    r = _run("solve", "--graph", str(out), "--k", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["cop_win"] is True

    r = _run("copnum", "--graph", str(out), "--kmax", "3")
    assert json.loads(r.stdout)["c_L"] == 2


def test_solve_stats_on_stderr_only(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "grid4.txt"
    assert cli.main(["gen", "--kind", "grid2d", "--n", "4", "--out", str(graph)]) == 0
    # a frozen clock makes the reported seconds, and so stdout, repeatable
    monkeypatch.setattr("lazycops.solver.time.perf_counter", lambda: 0.0)
    argv = ["solve", "--graph", str(graph), "--k", "2"]
    capsys.readouterr()
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    assert cli.main(argv + ["--stats"]) == 0
    traced = capsys.readouterr()
    assert traced.out == plain.out and plain.err == ""
    assert traced.err.count("\n") == 1
    stats = json.loads(traced.err)
    assert stats["levels"] == len(stats["cop_labeled_per_level"]) > 1
    for side in ("cop", "robber"):
        assert sum(stats[f"{side}_labeled_per_level"]) == stats[f"{side}_states_labeled"]


def test_simulate_potential_robber_on_hypercube_file(tmp_path, capsys):
    from lazycops.game import play
    from lazycops.graph import gen_named
    from lazycops.strategies import make_players

    q8 = tmp_path / "q8.txt"
    assert cli.main(["gen", "--kind", "hypercube", "--n", "8", "--out", str(q8)]) == 0
    capsys.readouterr()
    argv = ["simulate", "--graph", str(q8), "--cops", "greedy", "--robber", "potential",
            "--k", "2"]
    assert cli.main(argv) == 0
    q8_graph = gen_named("hypercube", 8)
    rec = play(q8_graph, *make_players("greedy", "potential", q8_graph, 2), 2, 100)
    assert capsys.readouterr().out == rec.to_json() + "\n"


def test_simulate_json(tmp_path):
    out = tmp_path / "p6.txt"
    _run("gen", "--kind", "path", "--n", "6", "--out", str(out))
    r = _run("simulate", "--graph", str(out), "--cops", "greedy",
             "--robber", "greedy", "--k", "1", "--max-rounds", "50")
    assert r.returncode == 0
    rec = json.loads(r.stdout)
    assert rec["outcome"] == "capture"
    assert rec["transcript"][0]["side"] == "cops"


def test_simulate_stats_on_stderr_only(tmp_path, capsys):
    graph = tmp_path / "gnp.txt"
    assert cli.main(["gen", "--kind", "gnp", "--n", "200", "--p", str(200 ** -0.6),
                     "--seed", "3", "--out", str(graph)]) == 0
    argv = ["simulate", "--graph", str(graph), "--cops", "greedy",
            "--robber", "gnp:alpha=0.4", "--k", "3", "--max-rounds", "60"]
    capsys.readouterr()
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    assert cli.main(argv + ["--stats"]) == 0
    traced = capsys.readouterr()
    assert traced.out == plain.out and plain.err == ""
    assert traced.err.count("\n") == 1
    stats = json.loads(traced.err)
    # greedy cops keep no counters, so only the robber's are printed
    assert list(stats) == ["robber"]
    robber_moves = sum(step["side"] == "robber" for step in json.loads(plain.out)["transcript"][2:])
    assert stats["robber"]["moves"] == robber_moves > 0
    assert 0 <= stats["robber"]["fallbacks"] <= robber_moves


def test_bounds_command():
    r = _run("bounds", "--which", "genus", "--n", "96", "--g", "0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] > 0


@pytest.mark.parametrize("which,args", [
    ("genus", ["--n", "96", "--g", "0"]),
    ("gnp", ["--n", "1000", "--p", "0.01", "--alpha", "0.4"]),
    ("hypercube", ["--n", "10", "--eps", "1"]),
    ("domination", ["--n", "100", "--delta", "9"]),
])
def test_bounds_pass_every_given_option(capsys, which, args):
    # the CI inputs of each bound; `inputs` follows the parser's option order
    assert cli.main(["bounds", "--which", which, *args]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and report["which"] == which and math.isfinite(report["value"])
    assert list(report["inputs"]) == [key for key in ("n", "g", "alpha", "p", "eps", "delta")
                                      if f"--{key}" in args]
    if which == "gnp":
        assert out == ('{"which": "gnp", "inputs": {"n": 1000, "alpha": 0.4, "p": 0.01}, '
                       '"value": 0.006944444444444441}\n')


@pytest.mark.parametrize("argv", [
    ["bounds", "--which", "hypercube", "--n", "10", "--eps", "1", "--constant", "2"],
    ["verify-expansion", "--n", "300", "--alpha", "0.5", "--eps", "0.05", "--tolerance", "0.3"],
], ids=["constant", "tolerance"])
def test_fixed_constants_are_not_flags(capsys, argv):
    # the hypercube bound's constant is 1 and the growth tolerance is
    # expansion.GROWTH_TOLERANCE: neither can be passed
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr() == (
        "", f"lazycops: error: unrecognized arguments: {' '.join(argv[-2:])}\n")


def test_bound_keys_are_named_on_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "path", "family_params": {"n": 4}, "bounds_query": {
        "which": "hypercube", "n": 10, "eps": 1, "constant": 2}}))
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "bound 'hypercube' does not read 'constant' (it reads n, eps)" in capsys.readouterr().err
    assert cli.main(["bounds", "--which", "domination", "--p", "0.5"]) == 1
    assert capsys.readouterr() == ("", "lazycops: error: bound 'domination' missing parameter 'n'\n")


def test_bad_spec_is_reported_before_a_bad_family(tmp_path, capsys):
    # both specs are parsed before the first graph is built
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "grid2d", "family_params": {"n": 0}, "k": 1,
                               "cop_strategy": "nope"}))
    assert cli.main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr() == ("", "lazycops: error: unknown cop strategy 'nope'\n")
    assert not (tmp_path / "x.csv").exists()


def test_usage_error_exit_code():
    r = _run("solve", "--graph", "/does/not/exist", "--k", "1")
    assert r.returncode == 1
    assert r.stderr.strip()

    r = _run("gen", "--kind", "bogus", "--n", "5", "--out", "/tmp/x")
    assert r.returncode == 1

    r = _run("no-such-command")
    assert r.returncode == 1


def test_cap_error_exit_code(tmp_path):
    out = tmp_path / "big.txt"
    _run("gen", "--kind", "gnp", "--n", "200", "--p", "0.5",
         "--seed", "1", "--out", str(out))
    r = _run("solve", "--graph", str(out), "--mode", "classic", "--k", "3")
    assert r.returncode == 2
    assert "limit" in r.stderr


def test_ball_table_cap_exit_code(monkeypatch, capsys):
    import lazycops.graph as graph

    argv = ["verify-expansion", "--n", "300", "--alpha", "0.5", "--eps", "0.05", "--seed", "1"]
    monkeypatch.setattr(graph, "BALL_TABLE_BYTES", 300 * 300 // 8 - 1)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("lazycops: limit exceeded: ball table 1 passes 11249 bytes")
    monkeypatch.setattr(graph, "BALL_TABLE_BYTES", 300 * 300 // 8 * 3)  # radii 1 to 3
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["checks"]


@pytest.mark.parametrize("argv", [["solve", "--k", "2"], ["copnum", "--kmax", "2"]])
def test_state_cap_exit_code(tmp_path, monkeypatch, capsys, argv):
    import lazycops.solver as solver

    graph = tmp_path / "p4.txt"
    assert cli.main(["gen", "--kind", "path", "--n", "4", "--out", str(graph)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(solver, "STATE_CAP", 2 * 4 * 1 - 1)  # below k = 1 on P4
    assert cli.main([*argv, "--graph", str(graph)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("lazycops: limit exceeded: state count ") and "exceeds cap 7 (" in err
    monkeypatch.setattr(solver, "STATE_CAP", 80)  # 2 * 4 * C(5, 2): k = 2 fits
    assert cli.main([*argv, "--graph", str(graph)]) == 0


@pytest.mark.parametrize("argv", [["solve", "--k", "3"], ["copnum", "--kmax", "3"]])
def test_classic_term_cap_exit_code(tmp_path, monkeypatch, capsys, argv):
    import lazycops.solver as solver

    graph = tmp_path / "petersen.txt"
    assert cli.main(["gen", "--kind", "petersen", "--out", str(graph)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(solver, "CLASSIC_TERM_CAP", 14_079)  # k = 3 has 14,080 terms
    assert cli.main([*argv, "--graph", str(graph), "--mode", "classic"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("lazycops: limit exceeded: classic move table of 14080 terms "
                                 "exceeds cap 14079 (n=10, k=3)\n")
    monkeypatch.setattr(solver, "CLASSIC_TERM_CAP", 14_080)
    assert cli.main([*argv, "--graph", str(graph), "--mode", "classic"]) == 0


def test_copnum_without_a_win_up_to_kmax_exits_two(tmp_path, capsys):
    # c_L of grid 4x4 is 2, so no k <= 1 wins
    graph = tmp_path / "grid4.txt"
    assert cli.main(["gen", "--kind", "grid2d", "--n", "4", "--out", str(graph)]) == 0
    capsys.readouterr()
    assert cli.main(["copnum", "--graph", str(graph), "--kmax", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "lazycops: limit exceeded: no cop win found for k <= 1\n"


def test_classic_huge_k_exits_at_state_cap(tmp_path, monkeypatch, capsys):
    import lazycops.solver as solver

    # the state count bounds k before the O(n*k) term count may run
    def terms(G, k):
        raise AssertionError(f"term count ran at k={k}")
    monkeypatch.setattr(solver, "_classic_terms", terms)
    graph = tmp_path / "p6.txt"
    assert cli.main(["gen", "--kind", "path", "--n", "6", "--out", str(graph)]) == 0
    capsys.readouterr()
    argv = ["solve", "--graph", str(graph), "--mode", "classic", "--k", "100000000"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("lazycops: limit exceeded: state count ")


@pytest.mark.parametrize("mode", ["lazy", "classic"])
@pytest.mark.parametrize("n,k", [(2, 10_000_000), (1, 100_000_000)])
def test_cops_far_above_n_exit_two(tmp_path, capsys, mode, n, k):
    # the states fit under STATE_CAP; the M*k entries of the cop multisets do not
    graph = tmp_path / "path.txt"
    assert cli.main(["gen", "--kind", "path", "--n", str(n), "--out", str(graph)]) == 0
    capsys.readouterr()
    assert cli.main(["solve", "--graph", str(graph), "--mode", mode, "--k", str(k)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"lazycops: limit exceeded: multiset entries "
                                 f"{(k + 1) ** (n - 1) * k} exceed cap 12500000 (n={n}, k={k})\n")


def test_cycle_cap_exit_code(monkeypatch, capsys):
    import lazycops.graph as graph

    argv = ["verify-expansion", "--n", "300", "--alpha", "0.2", "--eps", "0.05", "--seed", "1"]
    monkeypatch.setattr(graph, "CYCLE_LEN_CAP", 3)  # the verifier counts up to length 4 here
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "lazycops: limit exceeded: cycle length bound 4 exceeds cap 3\n"


def test_experiment_reproducible_across_workers(tmp_path):
    cfg = {
        "family": "gnp",
        "family_params": {"n": 40, "p": 0.15},
        "k": 2,
        "cop_strategy": "greedy",
        "robber_strategy": "random",
        "trials": 6,
        "master_seed": 3,
        "max_rounds": 100,
        "workers": 1,
    }
    outputs = []
    for workers in (1, 4):
        cfg["workers"] = workers
        cfg_path = tmp_path / f"cfg{workers}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"run{workers}.csv"
        r = _run("experiment", "--config", str(cfg_path), "--out", str(out))
        assert r.returncode == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_identical_invocations_byte_identical(tmp_path):
    cfg = {
        "family": "random_tree",
        "family_params": {"n": 15},
        "k": 1,
        "cop_strategy": "greedy",
        "robber_strategy": "greedy",
        "trials": 5,
        "master_seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    runs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        r = _run("experiment", "--config", str(cfg_path), "--out", str(out))
        assert r.returncode == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


# sha256 of `simulate` stdout and of an experiment CSV, pinned when states and
# moves were frozen dataclasses: the named tuples must play the same games.
# The G(n,p) graph comes from the pair-by-pair sampler these were pinned on.
_GOLDEN_GAMES = [
    (lambda: gen_named("grid2d", 6),
     ["--cops", "greedy", "--robber", "optimal", "--max-rounds", "2000"],
     "963511d9ddbff24752bcdf102f8db47dcbe80344524af0070b9273a0ccb77089"),
    (lambda: gen_named("hypercube", 8),
     ["--cops", "greedy", "--robber", "potential", "--max-rounds", "2000"],
     "a44afcb86aba9b645ea7e5908adc8d91fd1ccec51c25e5c345be4d5b6e3f9f44"),
    (lambda: pairwise_gnp(300, 0.033, 1),
     ["--cops", "random", "--robber", "gnp:alpha=0.4", "--max-rounds", "2000"],
     "0262cbee09a259452435817601fbc8bf27c9ef44407687e612db9f67ac1b7b34"),
]


@pytest.mark.parametrize("graph,argv,digest", _GOLDEN_GAMES, ids=["grid6", "Q8", "gnp300"])
def test_simulate_golden_digest(tmp_path, capsys, graph, argv, digest):
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(graph()))
    assert cli.main(["simulate", "--graph", str(path), "--k", "2", *argv]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["rounds"] == 2000
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `simulate --stats` stdout and stderr for greedy cops against the
# G(n,p) robber, pinned when every round was played: the game repeats a short
# cycle long before round 5,000, with fallbacks in the cycle at k = 1
_GOLDEN_GNP_STATS = [
    ("1", "0b60cf66736cfcbdb3f732d40059da1dc981d05c8f7bc9d6c68ecc550c928eb1",
     "f60f476bb16d6d318bbfbe118a19e85428dfddb4c35b5bafea37c34da2a9f565"),
    ("2", "608f998f76d553378f6ed91a9e36a82408ffd89f2cc82f65546f47554ed2d6b2",
     "06115b7122dcb831b4126b9f4b3470e9abe4ed79849a1f0c16f98f7fcb6d9573"),
]


@pytest.mark.parametrize("k,out_digest,err_digest", _GOLDEN_GNP_STATS, ids=["k1", "k2"])
def test_simulate_gnp_stats_golden_digest(tmp_path, capsys, k, out_digest, err_digest):
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(pairwise_gnp(300, 0.033, 1)))
    assert cli.main(["simulate", "--graph", str(path), "--k", k, "--cops", "greedy",
                     "--robber", "gnp:alpha=0.4", "--max-rounds", "5000", "--stats"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(err)["robber"]["moves"] == 5000
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest


def test_simulate_separator_golden_digest_and_stats(tmp_path, capsys):
    # the benchmark's grid 10x10 separator game, pinned before the level
    # sweep replaced the per-level component searches of the separator plan
    path = tmp_path / "g.txt"
    assert cli.main(["gen", "--kind", "grid2d", "--n", "10", "--out", str(path)]) == 0
    argv = ["simulate", "--graph", str(path), "--cops", "separator", "--robber", "greedy",
            "--k", "26", "--max-rounds", "1000"]
    capsys.readouterr()
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    assert hashlib.sha256(plain.out.encode()).hexdigest() == \
        "cf2245ddba3d15961e2e89a7358c8608168d889e8792c07bf8a0ad915c41055a"
    assert cli.main(argv + ["--stats"]) == 0
    traced = capsys.readouterr()
    assert traced.out == plain.out and plain.err == ""
    stats = json.loads(traced.err)
    assert list(stats) == ["cops"]
    plan_s = stats["cops"].pop("plan_s")
    assert 0 < plan_s < 60
    assert stats["cops"] == {"required_cops": 26, "regions": 76, "posted": 24}


def test_verify_expansion_golden_digest(capsys):
    # G(600, 600^-0.52): its radius-2 ball holds a share of the vertices
    argv = ["verify-expansion", "--n", "600", "--alpha", "0.48", "--eps", "0.05", "--seed", "4"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "65ced3a681dbdd0f095488c501b1779be677d0a53b2d74c68ebe44255466fc19"


def test_verify_expansion_sparse_golden_digest(capsys):
    # G(600, 600^-0.8) with realized d = 3.5, so d^5 < n: path counts of
    # lengths 2-6, and the searches of lengths 4 to 6 are pruned by
    # ball-table rows
    argv = ["verify-expansion", "--n", "600", "--alpha", "0.2", "--eps", "0.05", "--seed", "1"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert [c["name"] for c in json.loads(out)["checks"] if c["name"].startswith("path")] == \
        [f"path_count_i={i}" for i in range(2, 7)]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "87e401a78b0174aac3dea09b0596523a15a3952115c0e6c007f244af7b3f1dab"


@pytest.mark.parametrize("extra, needle", [
    (["--n", "6000", "--alpha", "0.01", "--eps", "0.05"], "alpha must lie in (eps, 1-eps)"),
    (["--n", "300", "--alpha", "1.5", "--eps", "0.05"], "alpha must lie in (eps, 1-eps)"),
    (["--n", "300", "--alpha", "nan", "--eps", "0.05"], "alpha must lie in (eps, 1-eps)"),
    (["--n", "300", "--alpha", "0.5", "--eps", "0.2"], "eps must lie in (0, 0.1)"),
])
def test_verify_expansion_checks_inputs_before_building_the_graph(monkeypatch, capsys,
                                                                  extra, needle):
    def no_graph(*args):
        raise AssertionError("G(n,p) built before the inputs were checked")

    monkeypatch.setattr(cli, "gen_gnp", no_graph)
    assert cli.main(["verify-expansion", *extra]) == 1
    assert capsys.readouterr() == ("", f"lazycops: error: {needle}\n")


def test_verify_expansion_checks_the_ball_table_cap_before_building_the_graph(monkeypatch,
                                                                           capsys):
    def no_graph(*args):
        raise AssertionError("G(n,p) built before the ball table cap was checked")

    monkeypatch.setattr(cli, "gen_gnp", no_graph)
    argv = ["verify-expansion", "--n", "50000", "--alpha", "0.5", "--eps", "0.05"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == (
        "", "lazycops: limit exceeded: ball table 1 passes 268435456 bytes\n")


def test_experiment_golden_digest(tmp_path, capsys):
    cfg = {"family": "grid2d", "family_params": {"n": 5}, "k": 12,
           "cop_strategy": "separator", "robber_strategy": "greedy",
           "trials": 3, "master_seed": 0, "max_rounds": 200}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "39d099987ae91297c7dbb7b6a0c80e1eb1d46e8efcdb8c2dee65eb828eae3c95"


def test_simulate_optimal_cops(tmp_path, capsys):
    graph = tmp_path / "grid4.txt"
    assert cli.main(["gen", "--kind", "grid2d", "--n", "4", "--out", str(graph)]) == 0
    capsys.readouterr()
    argv = ["simulate", "--graph", str(graph), "--cops", "optimal:", "--robber", "greedy",
            "--k", "2", "--max-rounds", "20"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    rec = json.loads(out)
    # the optimal cops capture any robber within the 4 rounds they need against the best one
    assert err == "" and rec["outcome"] == "capture" and rec["rounds"] <= 4


@pytest.mark.parametrize("robber", ["greedy", "optimal"])
def test_experiment_with_optimal_cops(tmp_path, capsys, robber):
    cfg = {"family": "grid2d", "family_params": {"n": 4}, "k": 2,
           "cop_strategy": "optimal", "robber_strategy": robber,
           "trials": 2, "master_seed": 7, "max_rounds": 20}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, *trials, aggregate = [line.split(",") for line in out.read_text().splitlines()]
    assert [row[:2] for row in trials] == [["0", "7"], ["1", "8"]]
    assert all(row[5:8] == ["optimal", robber, "capture"] for row in trials)
    if robber == "optimal":
        assert [row[8] for row in trials] == ["4", "4"]
    assert aggregate[0] == "aggregate" and aggregate[7:] == ["survival_rate", "0"]


def test_missing_family_param_is_usage_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "gnp", "family_params": {"p": 0.2}, "k": 1}))
    r = _run("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 1
    assert "'n'" in r.stderr


def test_strategy_error_exits_one_line(tmp_path, capsys):
    # a LazyCopsError that is neither a usage nor a format error
    graph = tmp_path / "grid.txt"
    assert cli.main(["gen", "--kind", "grid2d", "--n", "4", "--out", str(graph)]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", "--graph", str(graph), "--cops", "separator",
                     "--robber", "greedy", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lazycops: error: ") and err.count("\n") == 1
    assert "needs 8 cops" in err


def test_internal_key_error_propagates(monkeypatch):
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setitem(cli._COMMANDS, "bounds", broken)
    with pytest.raises(KeyError):
        cli.main(["bounds", "--which", "genus"])


_GOOD = {"family": "path", "family_params": {"n": 4}, "k": 1}


@pytest.mark.parametrize("text", [
    json.dumps({"k": 1}),
    json.dumps({**_GOOD, "trials": "3"}),
    json.dumps({**_GOOD, "trials": True}),
    json.dumps({**_GOOD, "trials": 2.0}),
    json.dumps({**_GOOD, "k": "1"}),
    json.dumps({**_GOOD, "k": False}),
    json.dumps({**_GOOD, "max_rounds": [100]}),
    json.dumps({**_GOOD, "master_seed": 1.5}),
    json.dumps({**_GOOD, "workers": "2"}),
    json.dumps({**_GOOD, "family_params": [4]}),
    json.dumps({**_GOOD, "family_params": None}),
    json.dumps([_GOOD]),
    "3",
    "{not json",
])
def test_malformed_config_is_usage_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main(["experiment", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lazycops: error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("family,fp,needle", [
    (family, {"n": n}, "'n' must be an integer")
    for family in ("grid2d", "hypercube", "random_tree") for n in ("10", 4.5, True)
] + [
    ("gnp", {"n": 10, "p": "x"}, "'p' must be a number"),
    ("gnp", {"n": 10, "p": True}, "'p' must be a number"),
    ("gnp", {"n": "10", "p": 0.5}, "'n' must be an integer"),
    ("gnp", {"n": 10.0, "p": 0.5}, "'n' must be an integer"),
    # keys the family does not read
    ("path", {"n": 3, "m": "x"}, "'m' not read by family 'path'"),
    ("gnp", {"n": 10, "p": 0.5, "q": 1}, "'q' not read by family 'gnp'"),
    ("grid2d", {"N": 5}, "'N' not read by family 'grid2d'"),
    ("petersen", {"n": 7}, "'n' not read by family 'petersen'"),
])
def test_mistyped_family_params_exit_one_line(tmp_path, capsys, family, fp, needle):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": family, "family_params": fp, "k": 1}))
    assert cli.main(["experiment", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lazycops: error: family_params ") and err.count("\n") == 1
    assert needle in err and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("kind", sorted(kind for kind, (reads, _, _) in FAMILIES.items()
                                        if {"n", "p"} - set(reads)))
def test_unread_key_same_line_from_both_front_ends(tmp_path, capsys, kind):
    # --p on the families that read only n, --n on petersen
    reads, _, _ = FAMILIES[kind]
    unread = min({"n", "p"} - set(reads))
    fp = {key: {"n": 3, "p": 0.3}[key] for key in (*reads, unread)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": kind, "family_params": fp, "k": 1}))
    flags = [arg for key, v in fp.items() for arg in (f"--{key}", str(v))]
    errs = []
    for argv in (["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")],
                 ["gen", "--kind", kind, *flags, "--out", str(tmp_path / "g.txt")]):
        assert cli.main(argv) == 1
        errs.append(capsys.readouterr().err)
    assert errs == 2 * [f"lazycops: error: family_params {unread!r} not read by family {kind!r}\n"]
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "g.txt").exists()


def test_null_family_param_counts_as_absent(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"family": "petersen", "family_params": {"n": None}, "k": 3}))
    assert cli.main(["experiment", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 0
    cfg_path.write_text(json.dumps({"family": "gnp", "family_params": {"n": None, "p": 0.5},
                                    "k": 1}))
    assert cli.main(["experiment", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "lazycops: error: gnp family_params needs 'n'\n"


def test_config_without_family_exits_one_line(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k": 1}))
    r = _run("experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 1
    assert r.stderr == "lazycops: error: config needs a 'family'\n"


def test_config_null_k_with_bounds_query_accepted(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_GOOD, "k": None, "trials": 2,
                                    "bounds_query": {"which": "genus", "n": 4, "g": 0}}))
    assert cli.main(["experiment", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 2


@pytest.mark.parametrize("command,cops,robber", [
    ("experiment", "greedy", "potential:eps=abc"),
    ("experiment", "greedy", "potential:eps=1/0"),
    ("simulate", "greedy:seed=x", "greedy"),
    ("simulate", "random:seed=1.5", "greedy"),
    ("simulate", "greedy", "random:seed=1.5"),
    ("simulate", "greedy", "gnp:alpha=zz"),
    ("simulate", "greedy:sed=5", "greedy"),
    ("simulate", "greedy", "stationary:foo=1"),
    ("simulate", "greedy", "gnp:alpha=0.4,beta=3"),
    ("simulate", "separator:mode=bogus", "greedy"),
    ("simulate", "greedy", "random:seed=1,x=2"),
])
def test_bad_strategy_option_exits_one_line(tmp_path, capsys, command, cops, robber):
    if command == "experiment":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "hypercube", "family_params": {"n": 6}, "k": 2,
            "cop_strategy": cops, "robber_strategy": robber, "trials": 1,
        }))
        argv = ["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]
    else:
        graph = tmp_path / "p6.txt"
        assert cli.main(["gen", "--kind", "path", "--n", "6", "--out", str(graph)]) == 0
        argv = ["simulate", "--graph", str(graph), "--cops", cops, "--robber", robber, "--k", "1"]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("lazycops: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cops,robber,needle", [
    ("random:seed=x", "nope", "bad seed 'x'"),
    ("greedy", "potential:eps=abc", "bad eps 'abc'"),
    ("greedy", "potential:eps=1/0", "bad eps '1/0'"),
    ("random:seed=1,seed=2", "nope", "option 'seed' given twice in 'random:seed=1,seed=2'"),
])
def test_bad_strategy_value_reported_before_build(tmp_path, capsys, cops, robber, needle):
    # option values convert at parse time: the bad value is reported before
    # the other side's bad name and before the grid fails the hypercube check
    graph = tmp_path / "grid.txt"
    assert cli.main(["gen", "--kind", "grid2d", "--n", "4", "--out", str(graph)]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", "--graph", str(graph), "--cops", cops,
                     "--robber", robber, "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lazycops: error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("command,extra,needle", [
    ("gen", ["--kind", "gnp", "--n", "10", "--p", "1.5"], "p must lie in [0,1]"),
    ("experiment", {"family": "gnp", "family_params": {"n": 10, "p": -0.5}, "k": 1},
     "p must lie in [0,1]"),
    ("simulate", ["--k", "1", "--max-rounds", "-5"], "max_rounds must be >= 0"),
    ("experiment", {**_GOOD, "max_rounds": -3}, "max_rounds must be >= 0"),
    ("simulate", ["--k", "0"], "cop count must be >= 1"),
    ("experiment", {**_GOOD, "k": 0}, "cop count must be >= 1"),
    ("copnum", ["--kmax", "0"], "k_max must be >= 1"),
    ("verify-expansion", ["--n", "0"], "n must be >= 2"),
    ("verify-expansion", ["--n", "-5"], "n must be >= 2"),
    ("verify-expansion", ["--n", "1"], "n must be >= 2"),
    ("bounds", ["--which", "genus", "--n", "10", "--g", "nan"], "'g' must be finite, got nan"),
    ("bounds", ["--which", "hypercube", "--n", "10", "--eps", "inf"], "'eps' must be finite"),
    ("bounds", ["--which", "domination", "--n", "10", "--delta=-inf"], "'delta' must be finite"),
    ("bounds", ["--which", "gnp", "--n", "0", "--p", "0.5", "--alpha", "0.4"], "n must be >= 2"),
    ("bounds", ["--which", "hypercube", "--n", "2000", "--eps", "1"], "overflows a float"),
    ("bounds", ["--which", "genus", "--n", "10", "--g", "1e308"], "overflows a float"),
    ("experiment", {**_GOOD, "k": None, "bounds_query": {
        "which": "gnp", "n": 1, "p": 0.5, "alpha": 0.5}},
     "n must be >= 2"),
    ("experiment", {**_GOOD, "k": None, "bounds_query": {"which": "genus", "n": "10", "g": 0}},
     "parameter 'n' must be a number, got '10'"),
    ("experiment", {**_GOOD, "k": None, "bounds_query": {"which": "domination", "n": [1],
                                                         "delta": 2}},
     "parameter 'n' must be a number, got [1]"),
    ("experiment", {**_GOOD, "k": None, "bounds_query": {"which": "genus", "n": True, "g": 0}},
     "parameter 'n' must be a number, got True"),
    ("experiment", {**_GOOD, "k": None, "bounds_query": {"which": "genus", "n": 10 ** 400,
                                                         "g": 0}},
     "parameter 'n' is too large for a float"),
    ("bounds", ["--which", "genus", "--n", "1" + "0" * 400, "--g", "0"],
     "parameter 'n' is too large for a float"),
    # a parameter the bound would ignore is named, not echoed back or overridden
    ("bounds", ["--which", "genus", "--n", "100", "--g", "1", "--p", "0.5"],
     "bound 'genus' does not read 'p'"),
    ("bounds", ["--which", "domination", "--n", "100", "--p", "0.5", "--delta", "3"],
     "bound 'domination' does not read 'p'"),
    ("experiment", {**_GOOD, "k": None, "bounds_query": {"which": "genus", "n": 10, "g": 0,
                                                         "eps": 1}},
     "bound 'genus' does not read 'eps'"),
    # an unknown family is named before any key it is given, or not given
    ("experiment", {"family": "foo", "family_params": {"p": 0.3}, "k": 1},
     "unknown graph kind 'foo'"),
    ("gen", ["--kind", "foo"], "unknown graph kind 'foo'"),
    # a bound's name must be a string, not a list holding one
    ("experiment", {**_GOOD, "k": None, "bounds_query": {"which": ["gnp"], "n": 10}},
     "unknown bound ['gnp']"),
    # the G(n,p) regime follows from (n, p, alpha): it cannot be forced
    ("experiment", {**_GOOD, "k": None, "bounds_query": {
        "which": "gnp", "n": 1000, "p": 0.01, "alpha": 0.4, "regime": "main"}},
     "bound 'gnp' does not read 'regime'"),
    # each remaining input check of the commands, one case apiece
    ("solve", ["--k", "0"], "cop count must be >= 1"),
    ("solve", ["--mode", "classic", "--k", "0"], "cop count must be >= 1"),
    ("verify-expansion", ["--n", "2", "--alpha", "0.06"], "average degree d=0.000 too small"),
    ("bounds", ["--which", "gnp", "--n", "10", "--p", "1", "--alpha", "0.4"],
     "p must lie in (0,1), got 1.0"),
    ("bounds", ["--which", "genus", "--n", "0", "--g", "0"], "need n >= 1 and g >= 0"),
    ("bounds", ["--which", "domination", "--n", "10", "--delta=-1"],
     "need n >= 1 and delta >= 0"),
    ("gen", ["--kind", "path", "--n", "0"], "kind 'path' needs a positive size, got 0"),
    ("experiment", {**_GOOD, "bogus": 3}, "unknown config fields: ['bogus']"),
    ("experiment", {**_GOOD, "k": None}, "config needs an explicit k or a bounds_query"),
    ("experiment", {**_GOOD, "trials": 0}, "trials must be >= 1"),
    ("experiment", {**_GOOD, "k": None, "bounds_query": {"n": 10}},
     "bounds_query needs a 'which' key"),
])
def test_out_of_range_input_exits_one_line(tmp_path, capsys, command, extra, needle):
    graph = tmp_path / "p6.txt"
    assert cli.main(["gen", "--kind", "path", "--n", "6", "--out", str(graph)]) == 0
    out = tmp_path / "x.csv"
    if command == "gen":
        argv = ["gen", *extra, "--out", str(out)]
    elif command == "experiment":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(extra))
        argv = ["experiment", "--config", str(cfg_path), "--out", str(out)]
    elif command == "verify-expansion":
        argv = ["verify-expansion", "--alpha", "0.5", "--eps", "0.05", *extra]
    elif command == "simulate":
        argv = ["simulate", "--graph", str(graph), "--cops", "greedy",
                "--robber", "greedy", *extra]
    elif command == "bounds":
        argv = ["bounds", *extra]
    else:
        argv = [command, "--graph", str(graph), *extra]
    capsys.readouterr()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lazycops: error: ") and captured.err.count("\n") == 1
    assert needle in captured.err
    assert not out.exists()


@pytest.mark.parametrize("text, needle", [
    ("4 3\n0 1\n2 3\n1 0\n", "duplicate edge (1,0)"),
    ("2 1\n1 1\n", "self-loop at 1: loops are implicit"),
    ("2 1\n0 1 1\n", "malformed edge line '0 1 1'"),
])
def test_malformed_graph_file_exits_one_line(tmp_path, capsys, text, needle):
    graph = tmp_path / "bad.txt"
    graph.write_text(text)
    assert cli.main(["solve", "--graph", str(graph), "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lazycops: error: ") and captured.err.count("\n") == 1
    assert needle in captured.err
