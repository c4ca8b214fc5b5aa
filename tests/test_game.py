import json
import tracemalloc

import numpy as np
import pytest

import impulsegames as ig
from impulsegames.game import cell_index, to_cells

from _oracles import copying_random_game_tables
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


def test_validation_error_message_shows_first_three_violations():
    game = ig.random_game(3, 2, 1, seed=0)
    bad = ig.ImpulseGame(kernel=game.kernel, reward=game.reward, cost1=game.cost1 * np.nan,
                         cost2=game.cost2, cost_floor=game.cost_floor, discount=game.discount)
    err = ig.GameValidationError(ig.validate(bad))
    assert len(err.violations) == 6
    assert str(err) == "; ".join(v.message for v in err.violations[:3]) + " (3 more)"
    assert "= nan is below" in str(err)


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


def test_cell_net_rewards_are_raw_rewards_plus_cell_costs():
    base = ig.random_game(5, 3, 2, seed=12)
    mask1, mask2 = base.mask1.copy(), base.mask2.copy()
    mask1[0, 1:] = False
    mask1[2, 3] = False
    mask2[4, 2] = False
    game = ig.ImpulseGame(kernel=base.kernel, reward=base.reward, cost1=base.cost1,
                          cost2=base.cost2, cost_floor=base.cost_floor,
                          discount=base.discount, mask1=mask1, mask2=mask2)
    r, costs = game.reward, game.cell_costs
    raw = np.concatenate([r[:, :, 0], r[:, 0, 1:]], axis=1)
    assert game.cells[1].tobytes() == (raw + costs).tobytes()
    assert np.isneginf(game.cells[1][[0, 0, 0, 2], [1, 2, 3, 3]]).all()
    assert np.isposinf(game.cells[1][4, 5])
    for s in range(5):
        assert costs[s, 0] == 0.0
        for a in range(1, 4):
            assert costs[s, a] == (-game.cost1[s, a] if mask1[s, a] else -np.inf)
        for b in range(1, 3):
            assert costs[s, 3 + b] == (game.cost2[s, b] if mask2[s, b] else np.inf)
    assert game.cell_costs is costs and not costs.flags.writeable


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


def test_oversized_games_refused_before_any_table():
    from impulsegames.game import check_kernel_size
    check_kernel_size(800, 4, 4)  # 800x(3+3), the largest game the benchmark builds
    with pytest.raises(ValueError, match="above the limit"):
        ig.random_game(5000, 3, 3, seed=0)
    # the counts are checked before the (far too small) tables are read
    doc = {**ig.game_to_dict(ig.random_game(2, 1, 1, seed=0)),
           "states": 5000, "actions1": 4, "actions2": 4}
    with pytest.raises(ValueError, match="above the limit"):
        ig.game_from_dict(doc)


@pytest.mark.parametrize("shape", [(1, 0, 0), (1, 2, 1), (4, 0, 3), (4, 2, 0), (7, 1, 1),
                                   (60, 7, 7)])
@pytest.mark.parametrize("seed", [0, 1, 2, 97])
def test_random_game_draws_match_the_copying_construction(shape, seed):
    """The in-place quotient keeps the seed contract bit for bit."""
    game = ig.random_game(*shape, seed)
    expected = copying_random_game_tables(*shape, seed)
    for table, ref in zip((game.kernel, game.reward, game.cost1, game.cost2), expected):
        assert table.dtype == ref.dtype and table.shape == ref.shape
        assert table.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [0, 5])
def test_random_game_holds_one_kernel_at_its_peak(seed):
    tracemalloc.start()
    try:
        game = ig.random_game(200, 3, 3, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * game.kernel.nbytes


def _rebuilt(game, **tables):
    fields = dict(kernel=game.kernel, reward=game.reward, cost1=game.cost1,
                  cost2=game.cost2, mask1=game.mask1, mask2=game.mask2)
    return ig.ImpulseGame(cost_floor=game.cost_floor, discount=game.discount,
                          **{**fields, **tables})


def test_a_game_built_from_another_games_tables_shares_them():
    game = ig.random_game(100, 3, 3, seed=0)
    tracemalloc.start()
    try:
        twin = _rebuilt(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name in ("kernel", "reward", "cost1", "cost2", "mask1", "mask2"):
        assert getattr(twin, name) is getattr(game, name)
    assert peak < game.cost1.nbytes  # no table, not even the smallest, was allocated


def test_writeable_caller_arrays_are_copied():
    game = ig.random_game(4, 2, 2, seed=1)
    kernel, reward = np.array(game.kernel), np.array(game.reward)
    mask1 = np.array(game.mask1)
    own = _rebuilt(game, kernel=kernel, reward=reward, mask1=mask1)
    kernel[...] = 0.0
    reward[...] = 7.0
    mask1[...] = False
    assert ig.games_equal(own, game)
    assert kernel.flags.writeable and reward.flags.writeable and mask1.flags.writeable


def test_read_only_views_of_writeable_memory_are_copied():
    game = ig.random_game(3, 1, 1, seed=2)
    row = np.full(3, 1 / 3)
    broadcast = np.broadcast_to(row, game.kernel.shape)
    reward = np.array(game.reward)
    frozen_view = reward[:]
    frozen_view.setflags(write=False)
    own = _rebuilt(game, kernel=broadcast, reward=frozen_view)
    assert not np.shares_memory(own.kernel, row)
    assert not np.shares_memory(own.reward, reward)
    row[0] = 5.0
    reward[...] = 9.0
    np.testing.assert_array_equal(own.kernel, np.full(game.kernel.shape, 1 / 3))
    np.testing.assert_array_equal(own.reward, game.reward)


def test_converted_tables_are_frozen_once():
    game = ig.random_game(3, 1, 1, seed=3)
    own = _rebuilt(game, kernel=game.kernel.tolist(), cost1=game.cost1.astype(np.float32),
                   mask1=game.mask1.astype(int))
    assert ig.validate(own) == []
    for table in (own.kernel, own.cost1, own.mask1):
        assert not table.flags.writeable and table.flags.c_contiguous
    assert own.cost1.dtype == float and own.mask1.dtype == bool


def test_loaded_and_built_tables_are_read_only(tmp_path):
    masked = _rebuilt(ig.random_game(4, 2, 1, seed=4),
                      mask1=np.array([[True, False, True]] * 4))
    path = tmp_path / "g.json"
    ig.save_game(masked, path)
    duopoly = ig.build_duopoly_game(ig.DuopolyParams(grid_size=4))
    budgeted = ig.augment(ig.random_game(3, 1, 1, seed=0), 1, 1).game
    for game in (ig.load_game(path), duopoly, budgeted):
        for table in (game.kernel, game.reward, game.cost1, game.cost2, game.mask1,
                      game.mask2):
            assert not table.flags.writeable


def test_game_from_dict_leaves_the_callers_arrays_writeable():
    doc = ig.game_to_dict(ig.random_game(3, 1, 1, seed=5))
    doc["kernel"] = np.array(doc["kernel"])
    game = ig.game_from_dict(doc)
    assert doc["kernel"].flags.writeable
    doc["kernel"][...] = 0.0
    assert ig.validate(game) == []


@pytest.mark.parametrize("doc", [[1, 2], {"states": [3], "basis": [[1.0], [2.0], [3.0]]}])
def test_load_basis_refuses_a_non_object_document_or_non_integer_states(tmp_path, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ig.GameFormatError):
        ig.load_basis(path)


@pytest.mark.parametrize("seed", range(8))
def test_cell_index_is_the_column_to_cells_puts_each_pair_in(seed):
    rng = np.random.default_rng(seed)
    ns, na, nb = (int(n) for n in rng.integers(1, 6, size=3))
    table = rng.normal(size=(ns, na, nb))
    cells = to_cells(table)
    for a in range(na):
        assert cells[:, cell_index(na, a, 0)].tolist() == table[:, a, 0].tolist()
    for b in range(nb):
        assert cells[:, cell_index(na, 0, b)].tolist() == table[:, 0, b].tolist()
    # every executable pair at once: one column each, all of them
    a = np.r_[np.arange(na), np.zeros(nb - 1, dtype=int)]
    b = np.r_[np.zeros(na, dtype=int), np.arange(1, nb)]
    columns = cell_index(na, a, b)
    assert sorted(columns.tolist()) == list(range(na + nb - 1))
    assert cells[:, columns].tolist() == table[:, a, b].tolist()
