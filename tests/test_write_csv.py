"""The CLI's one CSV writer, ``game._write_csv``: its bytes equal those of
``csv.writer`` with the default dialect (minimal quoting, CRLF line ends,
floats as ``repr``), on the files the CLI writes and on the edge cases of
its per-block formatting; ``learn_diagnostics.csv`` equals the bytes of
``csv.DictWriter``."""

import csv
import io
import tracemalloc

import numpy as np
import pytest

import impulsegames as ig
import impulsegames.game as game_module
from impulsegames.cli import main
from impulsegames.game import _write_csv

from conftest import randomly_masked


def _expected(header, columns) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(zip(*(col.tolist() for col in columns)))
    return out.getvalue().encode("utf-8")


def _written(tmp_path, header, columns) -> bytes:
    path = tmp_path / "table.csv"
    _write_csv(path, header, columns)
    return path.read_bytes()


def _trajectory():
    game = ig.build_duopoly_game(ig.DuopolyParams(grid_size=5))
    traj = ig.simulate(game, ig.solve(game, tol=1e-9).policy, 300, seed=2, start=7)
    return [np.arange(300), traj.states[:-1], traj.actions1, traj.actions2, traj.rewards,
            traj.cumulative]


EXTREME_FLOATS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                           -1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1, 0.0, -0.0,
                           1e16, 1e-5, np.nan, 5e-324])

CASES = {
    "signed zeros, extremes and non-finite floats": (
        ["t", "x"], [np.arange(len(EXTREME_FLOATS)), EXTREME_FLOATS]),
    "negative and large ints, bools": (
        ["i", "b", "j"], [np.array([-1, 0, 256, 257, -300, 1000, 2 ** 40, -(2 ** 40), 257]),
                          np.array([True, False, False, True, True, False, True, True, False]),
                          np.arange(9, dtype=np.int32) - 4]),
    "labels that need quoting": (
        ["state", "v"], [np.array(["(0,1,2)", "plain", 'say "hi"', "two\nlines", "cr\rhere",
                                   "(0,1,2)", '"', ",", "plain"]),
                         np.linspace(-1.0, 1.0, 9)]),
    "a header that needs quoting": (["a,b", 'c"d'], [np.arange(3), np.ones(3)]),
    "zero rows": (["t", "s", "reward"], [np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                                         np.zeros(0)]),
    "trajectory": (["t", "s", "executed_a", "executed_b", "reward", "cumulative_return"],
                   _trajectory()),
}


@pytest.mark.parametrize("block", [None, 1, 2, 5])
@pytest.mark.parametrize("name", sorted(CASES))
def test_columns_match_csv_writer_byte_for_byte(tmp_path, monkeypatch, name, block):
    if block is not None:
        monkeypatch.setattr(game_module, "_BLOCK_ROWS", block)
    header, columns = CASES[name]
    assert _written(tmp_path, header, columns) == _expected(header, columns)


def test_zero_and_negative_zero_stay_apart(tmp_path):
    lines = _written(tmp_path, ["a", "b"], [np.arange(4), np.array([0.0, -0.0, -0.0, 0.0])])
    assert lines.split(b"\r\n")[1:] == [b"0,0.0", b"1,-0.0", b"2,-0.0", b"3,0.0", b""]


def test_a_long_table_is_formatted_one_block_at_a_time(tmp_path, monkeypatch):
    monkeypatch.setattr(game_module, "_BLOCK_ROWS", 1024)
    rng = np.random.default_rng(0)
    n = 100_000
    columns = [np.arange(n), rng.integers(0, 121, n), rng.normal(size=n), rng.normal(size=n)]
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "long.csv", ["t", "s", "x", "y"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The text of the whole table, as one list of fields per column, would
    # take over 20 MB; the writer holds one block of it at a time.
    assert peak < 4 * 2 ** 20
    assert (tmp_path / "long.csv").read_bytes() == _expected(["t", "s", "x", "y"], columns)


def _dict_writer_bytes(rows, fieldnames=("step", "sup_norm_delta", "dist_to_qhat", "epsilon",
                                          "seed")) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.DictWriter(out, fieldnames=list(fieldnames))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("steps", [0, 1, 999, 2500])
def test_learn_diagnostics_match_dict_writer_byte_for_byte(tmp_path, monkeypatch, steps,
                                                           reference):
    monkeypatch.setattr(game_module, "_BLOCK_ROWS", 2)
    game = ig.random_game(4, 2, 1, seed=3)
    ref = ig.solve(game, tol=1e-10).q if reference else None
    _, diag = ig.learn(game, ig.LearnConfig(steps=steps, seed=5), reference_q=ref)
    assert len(diag.rows) == -(-steps // 1000)
    assert {type(row["dist_to_qhat"]) for row in diag.rows} <= {float if reference else str}
    diag.to_csv(tmp_path / "diag.csv")
    assert (tmp_path / "diag.csv").read_bytes() == _dict_writer_bytes(diag.rows)


POLICY_GAMES = {
    "plain": lambda: ig.random_game(30, 3, 2, seed=4),
    "masked": lambda: randomly_masked(ig.random_game(12, 2, 2, seed=6), seed=1),
    "action-free": lambda: ig.random_game(5, 0, 0, seed=2),
    "duopoly": lambda: ig.build_duopoly_game(ig.DuopolyParams(grid_size=5)),
}


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("name", sorted(POLICY_GAMES))
def test_policy_csv_is_the_dict_writer_over_the_policy_records(tmp_path, monkeypatch, name,
                                                               block):
    if block is not None:
        monkeypatch.setattr(game_module, "_BLOCK_ROWS", block)
    game = POLICY_GAMES[name]()
    ig.save_game(game, tmp_path / "g.json")
    out = tmp_path / "out"
    assert main(["solve", "--game", str(tmp_path / "g.json"), "--tol", "1e-9",
                 "--out", str(out)]) == 0
    report = ig.solve(ig.load_game(tmp_path / "g.json"), tol=1e-9)
    records = report.policy.to_records()
    rows = [{**rec, "value": v} for rec, v in zip(records, report.value.tolist())]
    assert (out / "policy.csv").read_bytes() == _dict_writer_bytes(rows, [*records[0], "value"])
