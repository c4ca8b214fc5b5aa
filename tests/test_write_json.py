"""The package's one JSON writer, ``game._write_json``: its bytes equal those
of ``json.dump(..., sort_keys=True, indent=2, allow_nan=False)`` plus a
newline, on every report the package writes and on the edge cases of its
array and record paths."""

import json
import tracemalloc

import numpy as np
import pytest

import impulsegames as ig
import impulsegames.game as game_module
from impulsegames.game import _game_doc, _write_json

from conftest import randomly_masked


def _plain(obj):
    """``obj`` with every array, at any depth, replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(item) for item in obj]
    return obj


def _expected(obj) -> bytes:
    return (json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode("utf-8")


def _written(tmp_path, obj) -> bytes:
    path = tmp_path / "doc.json"
    _write_json(path, obj)
    return path.read_bytes()


def _budget_report(seed):
    game = ig.random_game(4, 2, 1, seed=seed)
    report = ig.solve(game, tol=1e-9, caps=(2, 1))
    return report, [f"({s},{y},{z})" for s, y, z in ig.AugmentedGame(game, 2, 1).labels]


def _documents():
    """(name, document the CLI hands the writer, its public plain form)."""
    game = ig.random_game(6, 2, 2, seed=3)
    report = ig.solve(game, tol=1e-9)
    budget, labels = _budget_report(5)
    oracle = ig.minimax_oracle(ig.random_game(3, 1, 1, seed=2))
    q, diag = ig.learn(game, ig.LearnConfig(steps=500, seed=1))
    masked = randomly_masked(game, seed=4)
    taus, rhos = ig.intervention_times(game, report.policy, np.arange(6))
    fit = {"r": np.linspace(-1.0, 1.0, 6), "lhs": 0.25, "rhs": 1.5, "holds": True,
           "samples": 200}
    learned = {"q": q, "steps": diag.steps_run, "final_sup_delta": diag.final_sup_delta}
    return [
        ("solve", report._doc(), report.to_dict()),
        ("budget", budget._doc(labels), budget.to_dict(labels)),
        ("oracle", oracle._doc(), oracle.to_dict()),
        ("q", learned, _plain(learned)),
        ("fit_report", fit, _plain(fit)),
        ("interventions", {"taus": taus, "rhos": rhos}, {"taus": taus, "rhos": rhos}),
        ("game", _game_doc(game), ig.game_to_dict(game)),
        ("masked game", _game_doc(masked), ig.game_to_dict(masked)),
    ]


@pytest.mark.parametrize("name, doc, plain", _documents(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_every_report_matches_json_dump_byte_for_byte(tmp_path, name, doc, plain):
    assert _plain(doc) == plain
    assert _written(tmp_path, doc) == _expected(plain)


def test_masked_game_file_carries_integer_masks(tmp_path):
    path = tmp_path / "g.json"
    game = randomly_masked(ig.random_game(4, 2, 2, seed=1), seed=2)
    ig.save_game(game, path)
    assert path.read_bytes() == _expected(ig.game_to_dict(game))
    assert '"mask1": [\n    [\n      1,' in path.read_text()
    assert ig.games_equal(ig.load_game(path), game)


EDGE_CASES = {
    "empty arrays": {"a": np.zeros((2, 0)), "b": np.zeros(0), "c": np.zeros((0, 3)),
                     "d": np.zeros((2, 0), dtype=int)},
    "empty containers": {"records": [], "dict": {}, "nested": [[], {}], "t": ()},
    "extreme floats": np.array([-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                -1.7976931348623157e308, 1e16, 1e-5, 0.1]),
    "extreme scalars": [-0.0, 5e-324, 1.7976931348623157e308, 2 ** 70, -(2 ** 70)],
    "one and one point zero": {"ints": np.array([1, 0, -1]), "floats": np.array([1.0, 0.0]),
                               "mixed": [1, 1.0, True, None, "1"],
                               "bools": np.array([True, False])},
    "0-d arrays": {"f": np.array(2.5), "i": np.array(3)},
    "odd keys and labels": {"é ☃ \"q\" {} %s %": ["{}", "%d", "é☃\"\\\n"],
                            "rec": [{"k{}": "\"é\"", "%s": 1}, {"k{}": "☃", "%s": 2}]},
    "records": [{"state": "(0,1,2)", "p1_acts": True, "p1_action": 2, "x": 0.5,
                 "y": None},
                {"state": "(1,0,0)", "p1_acts": False, "p1_action": 0, "x": 1,
                 "y": -0.0}],
    "records whose key sets differ": [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
    "records with a nested value": [{"a": 1, "b": [2]}, {"a": 1, "b": 3}],
    "records with an empty dict": [{}, {}],
    "records with numpy scalars": [{"a": np.float64(0.1)}, {"a": np.float64(-2.0)}],
    "dicts after records": [{"a": 1}, {"a": 2}, [3]],
    "arrays in lists": [np.arange(3.0), [np.ones((1, 2)), {"z": np.zeros((2, 1, 1))}]],
    "float32": np.array([0.1, 1 / 3], dtype=np.float32),
    "views": {"transposed": np.arange(12.0).reshape(3, 4).T, "strided": np.arange(10)[::3],
              "fortran": np.asfortranarray(np.arange(24.0).reshape(2, 3, 4))},
    "scalar": 7,
}


@pytest.mark.parametrize("block", [None, 1, 2, 5])
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_json_dump(tmp_path, monkeypatch, name, block):
    if block is not None:
        monkeypatch.setattr(game_module, "_BLOCK_NUMBERS", block)
        monkeypatch.setattr(game_module, "_BLOCK_ITEMS", block)
    assert _written(tmp_path, EDGE_CASES[name]) == _expected(EDGE_CASES[name])


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4), (3, 1, 2, 5), (1, 1, 1), (5, 1)])
@pytest.mark.parametrize("block", [1, 3, 4, 7, 1 << 11])
def test_arrays_split_into_blocks_match_json_dump(tmp_path, monkeypatch, shape, block):
    monkeypatch.setattr(game_module, "_BLOCK_NUMBERS", block)
    rng = np.random.default_rng(block)
    doc = {"f": rng.normal(size=shape), "i": rng.integers(-9, 9, size=shape),
           "inner": [{"a": rng.uniform(size=shape)}]}
    assert _written(tmp_path, doc) == _expected(doc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["array", "late block", "scalar"])
def test_non_finite_values_are_refused_and_leave_no_file(tmp_path, monkeypatch, bad, where):
    monkeypatch.setattr(game_module, "_BLOCK_NUMBERS", 4)
    values = np.arange(24.0).reshape(6, 4)
    if where == "scalar":
        doc = {"a": values, "z": float(bad)}
    else:
        values[-1 if where == "late block" else 0, 1] = bad
        doc = {"a": values}
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _write_json(tmp_path / "doc.json", doc)
    assert list(tmp_path.iterdir()) == []


def test_values_the_writer_does_not_take_are_refused(tmp_path):
    for doc in ({"a": np.int64(1)}, {1: 2}, {"a": {1.5}}, np.array([1j])):
        with pytest.raises(TypeError):
            _write_json(tmp_path / "doc.json", doc)
    assert list(tmp_path.iterdir()) == []


def test_a_game_file_is_written_without_a_nested_list_of_its_kernel(tmp_path, monkeypatch):
    monkeypatch.setattr(game_module, "_BLOCK_NUMBERS", 1024)
    game = ig.random_game(80, 2, 2, seed=0)
    path = tmp_path / "g.json"
    tracemalloc.start()
    try:
        ig.save_game(game, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A nested list of the kernel alone takes about four times its bytes; the
    # writer holds one block of it at a time.
    assert peak < game.kernel.nbytes / 2
    assert path.read_bytes() == _expected(ig.game_to_dict(game))
