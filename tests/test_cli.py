import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import impulsegames as ig
import impulsegames.cli as cli_module
import impulsegames.game as game_module
from impulsegames.cli import main

from conftest import micro_game


@pytest.fixture
def g1_file(tmp_path):
    path = tmp_path / "g1.json"
    ig.save_game(micro_game(0.5, 0.3), path)
    return path


def test_solve_reports_value(tmp_path, g1_file):
    out = tmp_path / "out"
    code = main(["solve", "--game", str(g1_file), "--tol", "1e-9",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert abs(report["value"][0] - 0.6) <= 1e-9
    assert report["converged"]
    policy = (out / "policy.csv").read_text().splitlines()
    assert policy[0].startswith("state,p1_acts")
    assert len(policy) == 2


def test_solve_malformed_file_exits_1_no_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out = tmp_path / "out"
    code = main(["solve", "--game", str(bad), "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_solve_budget_exhaustion_exits_2(tmp_path):
    game_path = tmp_path / "g.json"
    ig.save_game(ig.random_game(4, 2, 2, seed=0, gamma=0.9), game_path)
    out = tmp_path / "out"
    code = main(["solve", "--game", str(game_path), "--tol", "1e-12",
                 "--max-sweeps", "1", "--out", str(out)])
    assert code == 2
    report = json.loads((out / "solve_report.json").read_text())
    assert not report["converged"]


def test_gen_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--gen", "3,1,2,7", "--out", str(out1)]) == 0
    assert main(["gen", "--gen", "3,1,2,7", "--out", str(out2)]) == 0
    assert (out1 / "game.json").read_bytes() == (out2 / "game.json").read_bytes()
    game = ig.load_game(out1 / "game.json")
    assert game.num_states == 3


def test_oracle_certifies_micro_game(tmp_path, g1_file):
    out = tmp_path / "out"
    code = main(["oracle", "--game", str(g1_file), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["certified"]
    assert abs(doc["upper"][0] - 0.6) <= 1e-8
    assert abs(doc["lower"][0] - 0.6) <= 1e-8


def test_simulate_writes_trajectory(tmp_path):
    g2_path = tmp_path / "g2.json"
    ig.save_game(micro_game(0.5, 100.0), g2_path)
    out = tmp_path / "out"
    code = main(["simulate", "--game", str(g2_path), "--steps", "10",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,s,executed_a,executed_b,reward,cumulative_return"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert float(last[-1]) == pytest.approx(sum(0.5 ** t * 1.5 for t in range(10)))
    doc = json.loads((out / "interventions.json").read_text())
    assert doc["taus"] == list(range(10)) and doc["rhos"] == []


def test_simulate_reproducible_bytes(tmp_path, g1_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--game", str(g1_file), "--steps", "25", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_learn_outputs(tmp_path, g1_file):
    out = tmp_path / "out"
    code = main(["learn", "--game", str(g1_file), "--steps", "3000",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "q.json").read_text())
    assert np.asarray(doc["q"]).shape == (1, 2, 2)
    lines = (out / "learn_diagnostics.csv").read_text().splitlines()
    assert lines[0] == "step,sup_norm_delta,dist_to_qhat,epsilon,seed"


def test_budget_command(tmp_path):
    g2_path = tmp_path / "g2.json"
    ig.save_game(micro_game(0.5, 100.0), g2_path)
    out = tmp_path / "out"
    code = main(["budget", "--game", str(g2_path), "--n1", "2", "--n2", "0",
                 "--steps", "20", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "budget_report.json").read_text())
    values = {row["state"]: v for row, v in zip(doc["policy"], doc["value"])}
    assert abs(values["(0,2,0)"] - 2.75) <= 1e-6
    assert abs(values["(0,0,0)"] - 2.0) <= 1e-6
    lines = (out / "budget_trajectory.csv").read_text().strip().splitlines()
    acted = [ln for ln in lines[1:] if ln.split(",")[2] != "0"]
    assert len(acted) == 2


def _assert_one_error_line_and_no_output(capsys, out):
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_mutually_exclusive_game_sources(tmp_path, g1_file, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--game", str(g1_file), "--gen", "2,1,1,0", "--out", str(out)]) == 1
    _assert_one_error_line_and_no_output(capsys, out)


@pytest.mark.parametrize("argv", [
    ["solve", "--gen", "3,1,1,0", "--bogus", "1"],
    ["solve", "--gen", "3,1,1,0", "--tol", "abc"],
    ["fit", "--gen", "3,1,1,0", "--combinator", "Z"],
    ["budget", "--gen", "3,1,1,0", "--n2", "1"],
    ["fit", "--gen", "3,1,1,0", "--steps", "-5"],
    ["learn", "--gen", "3,1,1,0", "--steps", "-5"],
    ["simulate", "--gen", "3,1,1,0", "--steps", "-5"],
    ["budget", "--gen", "3,1,1,0", "--n1", "1", "--n2", "1", "--steps", "-5"],
    ["solve", "--gen", "3,1,1,0", "--tol", "nan"],
    ["solve", "--gen", "3,1,1,0", "--max-sweeps", "-1"],
    ["frobnicate"],
    ["solve", "--gen", "3,1,1,-1"],
    ["solve", "--gen", "3,1,1,2.5"],
    ["solve", "--gen", "3,1,x,0"],
    ["solve", "--gen", "0,1,1,0"],
    ["solve", "--gen", "3,1,1"],
    ["oracle", "--gen", "3,1,1,0", "--max-enumeration", "5"],
    ["simulate", "--gen", "3,1,1,0", "--steps", "1000000000000"],
    ["budget", "--gen", "3,1,1,0", "--n1", "1", "--n2", "1", "--steps", "1000000000000"],
], ids=["unknown-flag", "bad-float", "bad-choice", "missing-required", "negative-fit-steps",
        "negative-learn-steps", "negative-simulate-steps", "negative-budget-steps",
        "nan-tol", "negative-max-sweeps", "unknown-command", "gen-negative-seed",
        "gen-float-seed", "gen-word-field", "gen-no-states", "gen-three-fields",
        "oracle-has-no-enumeration-budget", "simulate-steps-above-limit",
        "budget-steps-above-limit"])
def test_bad_flags_exit_1_with_one_line_and_no_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    _assert_one_error_line_and_no_output(capsys, out)


@pytest.mark.parametrize("spec, field", [("3,1,1,-1", "seed"), ("3,1,1,2.5", "seed"),
                                         ("3,1,x,0", "B"), ("3,-1,1,0", "A"),
                                         ("0,1,1,0", "S"), ("3.0,1,1,0", "S")])
def test_a_bad_gen_field_is_refused_by_name(tmp_path, capsys, spec, field):
    assert main(["solve", "--gen", spec, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: argument --gen: field {field}: ")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--tol" in capsys.readouterr().out


def test_simulate_interventions_are_the_rows_with_an_executed_action(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--gen", "30,2,2,3", "--steps", "400", "--seed", "4",
                 "--out", str(out)]) == 0
    with open(out / "trajectory.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    doc = json.loads((out / "interventions.json").read_text())
    assert doc["taus"] == [t for t, row in enumerate(rows) if row["executed_a"] != "0"]
    assert doc["rhos"] == [t for t, row in enumerate(rows) if row["executed_b"] != "0"]
    assert doc["taus"] and doc["rhos"]


def test_fit_command_writes_bound_report(tmp_path, g1_file):
    out = tmp_path / "out"
    code = main(["fit", "--game", str(g1_file), "--steps", "20000",
                 "--combinator", "T", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "fit_report.json").read_text())
    assert set(doc) == {"r", "lhs", "rhs", "holds", "samples"}
    assert doc["holds"]
    assert abs(doc["r"][0] - 0.6) <= 1e-2


def test_duopoly_params_block_source(tmp_path):
    params = tmp_path / "duopoly.json"
    params.write_text(json.dumps({"grid_size": 4, "sigma1": 2.0, "sigma2": 2.0}))
    out = tmp_path / "out"
    code = main(["gen", "--duopoly", str(params), "--out", str(out)])
    assert code == 0
    game = ig.load_game(out / "game.json")
    assert game.num_states == 16
    out2 = tmp_path / "out2"
    code = main(["solve", "--duopoly", str(params), "--tol", "1e-8",
                 "--out", str(out2)])
    assert code == 0


def test_duopoly_params_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="unknown"):
        ig.duopoly_params_from_dict({"grid_size": 4, "bogus": 1})


def test_monte_carlo_return_matches_value(tmp_path):
    game = ig.random_game(3, 1, 1, seed=19)
    rep = ig.solve(game, tol=1e-10)
    returns = np.array([
        ig.simulate(game, rep.policy, 250, seed=i, start=0).discounted_return
        for i in range(300)
    ])
    se = returns.std(ddof=1) / np.sqrt(len(returns))
    assert abs(returns.mean() - rep.value[0]) <= 3 * se + 1e-6


@pytest.mark.parametrize("command", [["simulate"], ["budget", "--n1", "1", "--n2", "1"]])
@pytest.mark.parametrize("start", ["99", "-1"])
def test_start_out_of_range_exits_1_no_output(tmp_path, capsys, command, start):
    out = tmp_path / "out"
    code = main(command + ["--gen", "3,1,1,0", "--start", start, "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: --start") and err.count("\n") == 1


def test_budget_oversized_caps_exit_1_no_output(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["budget", "--gen", "3,1,1,0", "--n1", str(10**12), "--n2", "5",
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "above the limit" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--gen", "--duopoly"])
def test_oversized_game_exits_1_no_output(tmp_path, capsys, source):
    argv = [source, "5000,3,3,0"]
    if source == "--duopoly":
        argv[1] = str(tmp_path / "in.json")
        (tmp_path / "in.json").write_text(json.dumps({"grid_size": 100}))
    out = tmp_path / "out"
    assert main(["solve"] + argv + ["--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "above the limit" in err and err.count("\n") == 1


@pytest.mark.parametrize("command,report", [
    (["solve"], "solve_report.json"),
    (["budget", "--n1", "1", "--n2", "2", "--steps", "5"], "budget_report.json"),
])
def test_zero_sweeps_exit_2_with_whole_report(tmp_path, command, report):
    out = tmp_path / "out"
    code = main(command + ["--gen", "3,1,1,0", "--max-sweeps", "0", "--out", str(out)])
    assert code == 2
    doc = json.loads((out / report).read_text())
    assert doc["sweeps"] == 0 and not doc["converged"]
    assert doc["residual"] is None and doc["error_bound"] is None
    assert not [p for p in out.iterdir() if p.suffix == ".tmp"]


@pytest.mark.parametrize("source,doc", [
    ("--game", {"gamma": None}),
    ("--game", {"cost_floor": None}),
    ("--game", {"states": 3.7}),
    ("--duopoly", 3),
    ("--duopoly", {"grid_size": "x"}),
    ("--duopoly", {"investments1": 5}),
])
def test_bad_scalar_in_input_exits_1_no_output(tmp_path, capsys, source, doc):
    if source == "--game":
        doc = {**ig.game_to_dict(ig.random_game(3, 1, 1, seed=0)), **doc}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["solve", source, str(path), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "gen"])
@pytest.mark.parametrize("key,value", [("r1", float("nan")), ("sigma1", float("inf")),
                                       ("market_size", float("nan")),
                                       ("investments2", [1.0, float("-inf")])])
def test_non_finite_duopoly_parameter_exits_1_no_output(tmp_path, capsys, recwarn, command,
                                                        key, value):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"grid_size": 3, key: value}))
    out = tmp_path / "out"
    assert main([command, "--duopoly", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    name, bad = (f"{key}[1]", value[1]) if isinstance(value, list) else (key, value)
    assert capsys.readouterr().err == (
        f"error: duopoly parameter '{name}' must be finite, got {bad!r}\n")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("source", [[], ["--game"]])
def test_gen_without_gen_or_duopoly_exits_1_no_output(tmp_path, g1_file, source):
    out = tmp_path / "out"
    code = main(["gen"] + source + [str(g1_file)] * len(source) + ["--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_fit_command_solves_once(tmp_path, g1_file, monkeypatch):
    import impulsegames.cli as cli
    import impulsegames.linfa as linfa
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return ig.solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", counted)
    monkeypatch.setattr(linfa, "solve", counted)
    assert main(["fit", "--game", str(g1_file), "--steps", "2000",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_fit_command_computes_the_bound_weights_once(tmp_path, g1_file, monkeypatch):
    import impulsegames.linfa as linfa
    calls, stationary = [], linfa.stationary_distribution

    def counted(*args, **kwargs):
        calls.append(1)
        return stationary(*args, **kwargs)

    monkeypatch.setattr(linfa, "stationary_distribution", counted)
    assert main(["fit", "--game", str(g1_file), "--steps", "200",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_fit_with_the_flipped_nesting_is_checked_against_its_own_fixed_point(tmp_path):
    out = tmp_path / "out"
    # --gen gives the identity basis, so the polished fit is exact
    assert main(["fit", "--gen", "30,2,2,3", "--steps", "2000", "--combinator", "F",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "fit_report.json").read_text())
    assert doc["holds"] and doc["lhs"] <= 1e-9


def test_fit_polish_short_of_its_tolerance_exits_2_with_one_line_and_no_file(
        tmp_path, g1_file, monkeypatch, caplog):
    import impulsegames.linfa as linfa
    monkeypatch.setattr(linfa, "projected_iteration",
                        lambda game, basis, *args, **kwargs: (np.zeros(basis.num_features),
                                                              [1.0, 0.5]))
    out = tmp_path / "out"
    assert main(["fit", "--game", str(g1_file), "--steps", "200", "--out", str(out)]) == 2
    records = [r for r in caplog.records if r.name == "impulsegames"]
    assert len(records) == 1 and records[0].levelname == "ERROR"
    assert "no fit report written" in records[0].getMessage()
    assert not (out / "fit_report.json").exists()


def test_budget_bad_seed_exits_1_no_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["budget", "--gen", "3,1,1,0", "--n1", "1", "--n2", "1", "--seed", "-1",
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["learn"], ["fit"], ["simulate"],
                                     ["budget", "--n1", "1", "--n2", "1"]])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_a_bad_seed_is_refused_by_name_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                       seed):
    def obtain(args):
        raise AssertionError("the game was built before the seed was checked")

    monkeypatch.setattr(cli_module, "_obtain_game", obtain)
    out = tmp_path / "out"
    assert main([*command, "--gen", "3,1,1,0", "--seed", seed, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: argument --seed: expected a non-negative integer, got {seed!r}\n")
    assert not out.exists()


def test_fit_parses_the_game_file_once(tmp_path, monkeypatch):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**ig.game_to_dict(ig.random_game(3, 1, 1, seed=0)),
                                "basis": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}))
    calls, json_loads = [], json.loads

    def counted(*args, **kwargs):
        calls.append(1)
        return json_loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert main(["fit", "--game", str(path), "--steps", "200",
                 "--out", str(tmp_path / "out")]) in (0, 2)
    assert len(calls) == 1


def test_fit_divergence_exits_2_with_one_line_and_no_file(tmp_path):
    game = ig.random_game(4, 1, 1, seed=0)
    doc = ig.game_to_dict(game)
    doc["rewards"] = (np.asarray(doc["rewards"]) * 1e7).tolist()
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "impulsegames.cli", "fit", "--game", str(path),
                           "--steps", "200", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and "diverged" in proc.stderr, proc.stderr
    assert not (out / "fit_report.json").exists()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("source,doc", [
    ("--duopoly", {"grid_size": 3, "gamma": 1.5}),
    ("--duopoly", {"grid_size": 3, "kappa1": float("nan")}),
    ("--gen", None),
])
def test_bad_discount_or_cost_exits_1_no_output(tmp_path, capsys, recwarn, source, doc):
    if source == "--gen":
        argv = ["--gen", "3,1,1,0", "--gamma", "1.5"]
    else:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        argv = [source, str(path)]
    out = tmp_path / "out"
    code = main(["solve"] + argv + ["--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("nodes", [0, -1, 101, 400])
def test_noise_nodes_outside_the_bound_exit_1_no_output(tmp_path, capsys, recwarn, nodes):
    # At 400 nodes numpy's Gauss-Hermite weights overflow; the count is refused first.
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"grid_size": 3, "noise_nodes": nodes}))
    out = tmp_path / "out"
    assert main(["solve", "--duopoly", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"error: noise_nodes must lie in 1..100, got {nodes}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_invalid_game_message_is_one_short_line(tmp_path, capsys):
    # Costs below the floor at every state: many violations, one short line.
    doc = ig.game_to_dict(ig.random_game(30, 3, 3, seed=0))
    doc["costs1"] = [[0.01] * 3] * 30
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["solve", "--game", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 400
    assert "more)" in err and "np.float64" not in err


@pytest.mark.parametrize("basis", [{}, "x", [[1.0, 2.0], [3.0]]])
def test_fit_bad_basis_exits_1_no_output(tmp_path, capsys, basis):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**ig.game_to_dict(ig.random_game(3, 1, 1, seed=0)),
                                "basis": basis}))
    out = tmp_path / "out"
    assert main(["fit", "--game", str(path), "--steps", "100", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: key 'basis'")


def test_fit_basis_without_columns_exits_1_no_output(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**ig.game_to_dict(ig.random_game(3, 1, 1, seed=0)),
                                "basis": [[], [], []]}))
    out = tmp_path / "out"
    assert main(["fit", "--game", str(path), "--steps", "100", "--out", str(out)]) == 1
    _assert_one_error_line_and_no_output(capsys, out)


def _encode_then_fail(obj, level):
    yield "{"
    raise OSError("disk full")


def _fields_fail(values):
    raise OSError("disk full")


@pytest.mark.parametrize("command, target, module, name, broken", [
    (["gen", "--gen", "3,1,1,0"], "game.json", game_module, "_encode", _encode_then_fail),
    (["learn", "--gen", "3,1,1,0", "--steps", "200"], "learn_diagnostics.csv", game_module,
     "_csv_fields", _fields_fail),
    # the header is written before the first block of rows is formatted
    (["simulate", "--gen", "3,1,1,0", "--steps", "200"], "trajectory.csv", game_module,
     "_csv_fields", _fields_fail),
])
def test_a_write_that_fails_part_way_leaves_no_file(tmp_path, capsys, monkeypatch, command,
                                                     target, module, name, broken):
    out = tmp_path / "out"
    monkeypatch.setattr(module, name, broken)
    assert main(command + ["--out", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert not (out / target).exists()
    assert not list(out.glob("*.tmp"))


def test_library_writers_leave_no_file_when_a_write_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(game_module, "_encode", _encode_then_fail)
    monkeypatch.setattr(game_module, "_csv_fields", _fields_fail)
    with pytest.raises(OSError, match="disk full"):
        ig.save_game(ig.random_game(3, 1, 1, seed=0), tmp_path / "game.json")
    _, diag = ig.learn(ig.random_game(3, 1, 1, seed=0), ig.LearnConfig(steps=10))
    with pytest.raises(OSError, match="disk full"):
        diag.to_csv(tmp_path / "diag.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 7.28 TiB for an array with shape (1000000000001,) and data type int64",
     "error: Unable to allocate 7.28 TiB"),
    ("", "error: out of memory"),
], ids=["numpy", "bare"])
def test_a_request_too_large_for_memory_exits_1_no_output(tmp_path, capsys, monkeypatch,
                                                          message, line):
    # A run that numpy cannot allocate for, here a rollout, ends before any
    # file is written.
    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli_module, "simulate", too_large)
    out = tmp_path / "out"
    assert main(["simulate", "--gen", "3,1,1,0", "--steps", "1000000000000",
                 "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(line)


@pytest.mark.parametrize("argv", [
    ["solve", "--gen", "40,2,2,3"], ["gen", "--gen", "6,2,1,4"], ["oracle", "--gen", "4,1,1,2"],
    ["learn", "--gen", "5,1,1,1", "--steps", "300"], ["simulate", "--gen", "8,2,2,1"],
    ["budget", "--gen", "6,1,1,3", "--n1", "2", "--n2", "1"],
    ["fit", "--gen", "8,1,1,2", "--steps", "300"], ["solve", "--game", "GAME"],
    ["simulate", "--duopoly", "DUOPOLY"]], ids=lambda argv: " ".join(argv[:2]))
def test_no_subcommand_assembles_the_full_kernel(tmp_path, monkeypatch, argv):
    """A game stores its kernel as two tables; every subcommand runs on them."""
    ig.save_game(ig.random_game(7, 2, 2, seed=8), tmp_path / "g.json")
    (tmp_path / "d.json").write_text(json.dumps({"grid_size": 4}))
    argv = [{"GAME": str(tmp_path / "g.json"), "DUOPOLY": str(tmp_path / "d.json")}.get(x, x)
            for x in argv]
    games = []
    obtain = cli_module._obtain_game
    monkeypatch.setattr(cli_module, "_obtain_game", lambda args: games.append(obtain(args))
                        or games[-1])
    assert main(argv + ["--out", str(tmp_path / "out")]) in (0, 2)
    assert len(games) == 1 and "kernel" not in games[0].__dict__
