import json

import numpy as np
import pytest

import impulsegames as ig

from conftest import micro_game


def test_valid_micro_game_has_no_violations(g1):
    assert ig.validate(g1) == []


def test_bad_kernel_row_sum_is_reported():
    kernel = np.ones((1, 2, 2, 1))
    kernel = kernel.copy()
    kernel[0, 1, 0, 0] = 0.9
    game = ig.ImpulseGame(kernel=kernel, reward=np.zeros((1, 2, 2)),
                          cost1=np.array([[0.0, 0.5]]), cost2=np.array([[0.0, 0.5]]),
                          cost_floor=0.1, discount=0.5)
    violations = ig.validate(game)
    assert len(violations) == 1
    assert violations[0].code == "kernel-row-sum"
    assert violations[0].where == (0, 1, 0)


def test_cost_below_floor_is_reported():
    game = micro_game(0.0, 0.3)
    codes = [v.code for v in ig.validate(game)]
    assert codes == ["cost-below-floor"]


def test_discount_out_of_range_is_reported():
    game = micro_game(0.5, 0.3, gamma=1.0)
    codes = [v.code for v in ig.validate(game)]
    assert "discount-range" in codes


def test_effective_reward_micro_values(g1):
    assert ig.effective_reward(g1, 0, (0, 0)) == 1.0
    assert ig.effective_reward(g1, 0, (1, 0)) == 2.0 - 0.5
    assert ig.effective_reward(g1, 0, (0, 1)) == 0.0 + 0.3


def test_effective_reward_null_pair_is_raw_reward():
    game = ig.random_game(4, 2, 2, seed=9)
    for s in range(4):
        assert ig.effective_reward(game, s, (0, 0)) == game.reward[s, 0, 0]


def test_player2_reward_is_exact_negation(g1):
    for pair in [(0, 0), (1, 0), (0, 1)]:
        assert ig.player2_reward(g1, 0, pair) == -ig.effective_reward(g1, 0, pair)


def test_effective_reward_index_errors(g1):
    with pytest.raises(IndexError):
        ig.effective_reward(g1, 5, (0, 0))
    with pytest.raises(IndexError):
        ig.effective_reward(g1, 0, (2, 0))


def test_random_game_is_valid_and_deterministic():
    game = ig.random_game(5, 2, 2, seed=7)
    assert ig.validate(game) == []
    again = ig.random_game(5, 2, 2, seed=7)
    assert ig.games_equal(game, again)
    other = ig.random_game(5, 2, 2, seed=8)
    assert not ig.games_equal(game, other)


def test_random_game_null_only_value(tmp_path):
    game = ig.random_game(1, 0, 0, seed=3)
    rep = ig.solve(game, tol=1e-12)
    expected = game.reward[0, 0, 0] / (1.0 - game.discount)
    assert abs(rep.value[0] - expected) < 1e-10


def test_random_game_zero_states_rejected():
    with pytest.raises(ValueError):
        ig.random_game(0, 1, 1, seed=0)


@pytest.mark.parametrize("gamma", [1.0, 1.5, -0.1, float("nan")])
def test_random_game_discount_out_of_range_rejected(gamma):
    with pytest.raises(ValueError, match="gamma"):
        ig.random_game(3, 1, 1, seed=0, gamma=gamma)


def test_executable_cells_table(g1):
    kernel, net = g1.cells
    assert kernel.shape == (1, 3, 1) and net.tolist() == [[1.0, 2.0 - 0.5, 0.0 + 0.3]]
    game = ig.random_game(4, 2, 3, seed=5)
    mask1 = game.mask1.copy()
    mask1[1, 2] = False
    game = ig.ImpulseGame(kernel=game.kernel, reward=game.reward, cost1=game.cost1,
                          cost2=game.cost2, cost_floor=game.cost_floor,
                          discount=game.discount, mask1=mask1, mask2=~np.eye(4, 4, 1, dtype=bool))
    kernel, net = game.cells
    pairs = [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (0, 3)]
    for s in range(4):
        for col, pair in enumerate(pairs):
            assert np.array_equal(kernel[s, col], game.kernel[s][pair])
            a, b = pair
            if (a and not game.mask1[s, a]) or (b and not game.mask2[s, b]):
                assert net[s, col] == (-np.inf if a else np.inf)
            else:
                assert net[s, col] == ig.effective_reward(game, s, pair)
    assert game.cells is game.cells


def test_random_game_same_seed_identical_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    ig.save_game(ig.random_game(4, 2, 1, seed=11), p1)
    ig.save_game(ig.random_game(4, 2, 1, seed=11), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_load_round_trip(g1, tmp_path):
    path = tmp_path / "g1.json"
    ig.save_game(g1, path)
    loaded = ig.load_game(path)
    assert ig.games_equal(g1, loaded)


def test_round_trip_random_game(tmp_path):
    game = ig.random_game(6, 3, 2, seed=42)
    path = tmp_path / "g.json"
    ig.save_game(game, path)
    assert ig.games_equal(game, ig.load_game(path))


def test_load_missing_key_names_it(g1, tmp_path):
    path = tmp_path / "g.json"
    doc = ig.game_to_dict(g1)
    del doc["gamma"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ig.GameFormatError, match="gamma"):
        ig.load_game(path)


def test_load_gamma_one_is_validation_error(g1, tmp_path):
    path = tmp_path / "g.json"
    doc = ig.game_to_dict(g1)
    doc["gamma"] = 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ig.GameValidationError, match="discount must be < 1"):
        ig.load_game(path)


def test_load_rejects_nan(g1, tmp_path):
    path = tmp_path / "g.json"
    doc = ig.game_to_dict(g1)
    text = json.dumps(doc).replace("1.0", "NaN", 1)
    path.write_text(text)
    with pytest.raises(ig.GameFormatError):
        ig.load_game(path)


def test_load_malformed_json_reports_position(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{not json")
    with pytest.raises(ig.GameFormatError, match="line"):
        ig.load_game(path)


def test_load_bad_shape_names_key(g1, tmp_path):
    path = tmp_path / "g.json"
    doc = ig.game_to_dict(g1)
    doc["rewards"] = [[0.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ig.GameFormatError, match="rewards"):
        ig.load_game(path)


def test_masks_round_trip(tmp_path):
    base = ig.random_game(2, 1, 1, seed=0)
    mask1 = np.array([[True, False], [True, True]])
    game = ig.ImpulseGame(kernel=base.kernel, reward=base.reward, cost1=base.cost1,
                          cost2=base.cost2, cost_floor=base.cost_floor,
                          discount=base.discount, mask1=mask1)
    path = tmp_path / "m.json"
    ig.save_game(game, path)
    assert ig.games_equal(game, ig.load_game(path))


def test_tables_are_immutable(g1):
    with pytest.raises(ValueError):
        g1.kernel[0, 0, 0, 0] = 0.5
