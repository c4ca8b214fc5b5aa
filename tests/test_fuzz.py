"""Seeded fuzzing of the command line: mutated game files and flag values.

Every run must end in exit code 0, 1 or 2 without a traceback, and a run
that exits 1 (bad input) must leave no output file and no ``*.tmp`` behind.
Every JSON file a subcommand writes re-encodes to its own bytes under
``json.dumps`` with the writer's settings.
"""

import json

import numpy as np
import pytest

import impulsegames as ig
from impulsegames.cli import main

# Each command with small work sizes, so that a mutation that leaves the
# input valid still finishes fast.
COMMANDS = {
    "solve": ["--max-sweeps", "200"],
    "learn": ["--steps", "300"],
    "simulate": ["--max-sweeps", "200", "--steps", "20", "--start", "1"],
    "oracle": [],
    "fit": ["--steps", "300"],
    "budget": ["--n1", "1", "--n2", "1", "--max-sweeps", "200", "--steps", "20"],
    "gen": [],
}
BAD_VALUES = [None, True, "x", 1.5, -3, 0, [], {}, [[1.0]], 1e300]
BAD_FLAGS = ["-5", "0", "x", "1.5", "", "nan", "inf", "-1e-3", "2"]


def _game_doc(rng):
    game = ig.random_game(3, 1, 2, seed=int(rng.integers(1000)))
    doc = ig.game_to_dict(game)
    if rng.random() < 0.3:
        doc["basis"] = rng.normal(size=(3, 2)).tolist()
    return doc


def _mutate_doc(doc, rng):
    """One random damage to a valid game document (some leave it valid)."""
    keys = sorted(doc)
    key = keys[rng.integers(len(keys))]
    kind = rng.integers(9)
    if kind == 0:
        del doc[key]
    elif kind == 1:
        doc[key] = BAD_VALUES[rng.integers(len(BAD_VALUES))]
    elif kind == 2 and isinstance(doc[key], list):
        doc[key] = [doc[key][:-1], [doc[key]], doc[key] + doc[key][:1]][rng.integers(3)]
    elif kind == 3:
        name, width = (("mask1", doc["actions1"]), ("mask2", doc["actions2"]))[rng.integers(2)]
        rows = doc["states"] + int(rng.integers(-1, 2)) * (rng.random() < 0.3)
        doc[name] = rng.integers(-1, 3, size=(rows, width)).tolist()
    elif kind == 4:
        doc[("states", "actions1", "actions2")[rng.integers(3)]] = int(rng.integers(-2, 5))
    elif kind == 5:
        arr = np.asarray(doc["kernel" if rng.random() < 0.5 else "costs1"], dtype=float)
        arr.flat[rng.integers(arr.size)] = [-0.5, 0.0, 2.0, 1e308][rng.integers(4)]
        doc["kernel" if arr.ndim == 4 else "costs1"] = arr.tolist()
    elif kind == 6:
        doc["gamma"] = [1.0, -0.1, 0.999999, 2][rng.integers(4)]
    elif kind == 7:
        doc["basis"] = BAD_VALUES[rng.integers(len(BAD_VALUES))]
    elif kind == 8:  # valid, but large enough to make `fit` diverge
        doc["rewards"] = (np.asarray(doc["rewards"]) * 1e7).tolist()
    return doc


def _mutate_flags(command, rng):
    flags = list(COMMANDS[command])
    if flags and rng.random() < 0.5:
        i = 2 * int(rng.integers(len(flags) // 2)) + 1
        flags[i] = BAD_FLAGS[rng.integers(len(BAD_FLAGS))]
    if command == "budget" and rng.random() < 0.2:
        del flags[:2]  # --n1 is required
    if rng.random() < 0.2:
        flags += [["--seed", "-1"], ["--gamma", "nan"], ["--bogus", "1"],
                  ["--combinator", "Z"], ["--epsilon", "2"], ["--omega", "0.2"]][rng.integers(6)]
    return flags


def _run(argv, capsys):
    return main(argv), capsys.readouterr().err


@pytest.mark.parametrize("seed", range(5))
def test_mutated_inputs_exit_cleanly(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    for case in range(40):
        work = tmp_path / f"case{case}"
        work.mkdir()
        command = sorted(COMMANDS)[rng.integers(len(COMMANDS))]
        if command == "gen" or rng.random() < 0.1:
            spec = ["3,1,1,0", "3,1,x,0", "0,1,1,0", "3,-1,1,0", "3,1,1"][rng.integers(5)]
            source = ["--gen", spec]
        else:
            path = work / "game.json"
            doc = _mutate_doc(_game_doc(rng), rng) if rng.random() < 0.8 else _game_doc(rng)
            path.write_text(json.dumps(doc) if rng.random() < 0.95 else json.dumps(doc)[:-9])
            source = ["--game", str(path)]
        out = work / "out"
        if rng.random() < 0.05:
            out.write_text("a file where the output directory should be")
        argv = [command] + source + _mutate_flags(command, rng) + ["--out", str(out)]
        code, err = _run(argv, capsys)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert not list(work.rglob("*.tmp")), argv
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert not out.is_dir() or not any(out.iterdir()), argv


# The JSON file each subcommand writes, the most states its random game may
# have, and flags that make it finish.
JSON_OUTPUTS = {
    "solve": ("solve_report.json", 12, []),
    "learn": ("q.json", 8, ["--steps", "300"]),
    "simulate": ("interventions.json", 12, ["--steps", "30", "--start", "1"]),
    "oracle": ("oracle.json", 12, []),
    "fit": ("fit_report.json", 8, ["--steps", "300"]),
    "budget": ("budget_report.json", 8, ["--n1", "2", "--n2", "1", "--steps", "30"]),
    "gen": ("game.json", 12, []),
}


@pytest.mark.parametrize("command", sorted(JSON_OUTPUTS))
def test_written_json_is_what_json_dumps_makes_of_it(tmp_path, command):
    """The format contract: every JSON output re-encodes to the same bytes
    under ``json.dumps(sort_keys=True, indent=2, allow_nan=False)``."""
    name, max_states, flags = JSON_OUTPUTS[command]
    rng = np.random.default_rng(sorted(JSON_OUTPUTS).index(command))
    spec = (f"{rng.integers(3, max_states + 1)},{rng.integers(0, 3)},{rng.integers(0, 3)},"
            f"{rng.integers(1000)}")
    out = tmp_path / "out"
    code = main([command, "--gen", spec, "--seed", str(rng.integers(1000))] + flags
                + ["--out", str(out)])
    assert code in (0, 2)
    text = (out / name).read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n" == text
