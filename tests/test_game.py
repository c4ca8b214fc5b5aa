import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

import impulsegames as ig
from impulsegames import game as game_module
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


def test_validation_error_counts_the_entries_it_does_not_list():
    # 40 * 9 rows sum to -1 and all 40 * 9 * 40 entries are negative: the
    # message shows three rows and counts every other broken entry.
    game = ig.random_game(40, 2, 2, 0)
    bad = ig.ImpulseGame(kernel=-game.kernel, reward=game.reward, cost1=game.cost1,
                         cost2=game.cost2, cost_floor=game.cost_floor, discount=game.discount)
    violations = ig.validate(bad)
    assert sum(v.count for v in violations) == 40 * 9 + 40 * 9 * 40
    assert [v.count for v in violations[:3]] == [1, 1, 1]
    assert str(ig.GameValidationError(violations)).endswith(" (14757 more)")


def test_validate_lists_a_bounded_number_of_entries_per_rule():
    # Every kernel entry negative and every row summing to -1: 812,700 broken
    # entries, of which the first _LISTED_PER_RULE per rule are listed.
    game = ig.random_game(300, 2, 2, 0)
    bad = ig.ImpulseGame(kernel=-game.kernel, reward=game.reward, cost1=game.cost1,
                         cost2=game.cost2, cost_floor=game.cost_floor, discount=game.discount)
    tracemalloc.start()
    try:
        violations = ig.validate(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = game_module._LISTED_PER_RULE
    assert [v.code for v in violations] == ["kernel-row-sum"] * n + ["kernel-negative"] * n
    assert [v.where for v in violations[:3]] == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    assert [v.where for v in violations[n:n + 2]] == [(0, 0, 0, 0), (0, 0, 0, 1)]
    assert all(type(i) is int for v in violations for i in v.where)
    assert violations[n - 1].message.endswith(f"({300 * 9 - n} more)")
    assert violations[-1].message.endswith(f"({bad.kernel.size - n} more)")
    assert not any(v.message.endswith("more)") for v in violations[:n - 1])
    assert peak < 2 * bad.kernel.nbytes


@pytest.mark.parametrize("where", [(1, 2, 1, 3), (2, 0, 1, 0), (3, 2, 0, 2)])
@pytest.mark.parametrize("nan_at", [None, (2, 1, 2, 0), (0, 1, 0, 1)])
def test_a_single_negative_kernel_entry_is_listed_beside_a_nan(where, nan_at):
    """One negative entry, in the both-act table or in the cell table, its row
    still summing to 1, is the one negativity listed; a NaN in either table
    (whose row sum is no longer checked) adds only the finiteness rule."""
    kernel = ig.random_game(4, 2, 2, seed=0).kernel.copy()
    x = kernel[where]
    kernel[where] = -x
    kernel[where[:3] + ((where[3] + 1) % 4,)] += 2 * x
    if nan_at is not None:
        kernel[nan_at] = np.nan
    bad = ig.ImpulseGame(kernel, np.zeros((4, 3, 3)), np.full((4, 3), 0.5), np.full((4, 3), 0.5),
                         0.1, 0.9)
    s, a, b, t = where
    expected = [ig.Violation("kernel-negative", where,
                             f"kernel entry (s={s}, a={a}, b={b}, s'={t}) is negative")]
    if nan_at is not None:
        expected.append(ig.Violation("kernel-not-finite", (), "kernel has non-finite entries"))
    assert ig.validate(bad) == expected


def test_every_rule_lists_its_entries_in_index_order():
    game = ig.random_game(4, 2, 2, seed=0)
    reward = game.reward.copy()
    reward[1:, 1:] = np.nan
    mask2 = np.ones((4, 3), dtype=bool)
    mask2[[0, 3], 0] = False
    bad = ig.ImpulseGame(kernel=game.kernel, reward=reward, cost1=game.cost1, cost2=game.cost2,
                         cost_floor=game.cost_floor, discount=game.discount, mask2=mask2)
    violations = ig.validate(bad)
    rewards = [v for v in violations if v.code == "reward-not-finite"]
    assert [v.where for v in rewards[:2]] == [(1, 1, 0), (1, 1, 1)]
    assert len(rewards) == game_module._LISTED_PER_RULE
    assert rewards[-1].message == "reward at (s,a,b)=(2, 2, 0) is not finite (8 more)"
    masks = [v for v in violations if v.code == "mask-null-action"]
    assert [v.where for v in masks] == [("2", 0), ("2", 3)]
    assert masks[1].message == "null action of player 2 is masked at state 3"


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


def test_a_game_without_states_is_refused_by_its_constructor():
    with pytest.raises(ValueError, match="num_states must be at least 1, got 0"):
        ig.ImpulseGame(kernel=np.zeros((0, 2, 2, 0)), reward=np.zeros((0, 2, 2)),
                       cost1=np.zeros((0, 2)), cost2=np.zeros((0, 2)), cost_floor=1.0,
                       discount=0.5)


@pytest.mark.parametrize("a, b, name", [(0, 2, "num_actions1"), (2, 0, "num_actions2")])
def test_a_game_without_a_null_action_is_refused_by_its_constructor(a, b, name):
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got 0"):
        ig.ImpulseGame(kernel=np.zeros((2, a, b, 2)), reward=np.zeros((2, a, b)),
                       cost1=np.zeros((2, a)), cost2=np.zeros((2, b)), cost_floor=1.0,
                       discount=0.5)


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
                                   (60, 7, 7), (300, 7, 7)])
@pytest.mark.parametrize("seed", [0, 1, 2, 97])
def test_random_game_draws_match_the_copying_construction(shape, seed):
    """The blocked draw, split in shares above 2**20 kernel entries, keeps
    the seed contract bit for bit."""
    game = ig.random_game(*shape, seed)
    expected = copying_random_game_tables(*shape, seed)
    for table, ref in zip((game.kernel, game.reward, game.cost1, game.cost2), expected):
        assert table.dtype == ref.dtype and table.shape == ref.shape
        assert table.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", [(1, 0, 0), (1, 3, 2), (6, 0, 2), (6, 2, 0), (9, 2, 3)])
@pytest.mark.parametrize("parts", [1, 2])
def test_the_assembled_kernel_is_the_copying_draw(shape, parts, monkeypatch):
    """The two stored tables and the kernel assembled from them, with no
    both-act rows, one state, and a draw split over two parts."""
    monkeypatch.setattr(game_module, "_draw_parts", lambda shape: min(parts, shape[0]))
    game = ig.random_game(*shape, seed=7)
    kernel = copying_random_game_tables(*shape, 7)[0]
    ns, na, nb = game.reward.shape
    assert "kernel" not in game.__dict__
    assert game.cell_kernel.tobytes() == to_cells(kernel).tobytes()
    assert game.both_kernel.shape == (ns, (na - 1) * (nb - 1), ns)
    assert game.both_kernel.tobytes() == kernel[:, 1:, 1:].tobytes()
    assert game.cells[0] is game.cell_kernel
    assert game.kernel.tobytes() == kernel.tobytes() and game.kernel.shape == kernel.shape
    assert game.kernel is game.kernel and not game.kernel.flags.writeable


@pytest.mark.parametrize("parts", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 97])
def test_a_kernel_split_in_parts_is_drawn_bit_for_bit(parts, seed, monkeypatch):
    """Shares of 53 states, which no part count above 1 divides, drawn in
    blocks of 3 whole states, so most shares end on a shorter block, give
    the whole-array draws, split into the two tables, and leave the
    generator where the reward and cost draws start."""
    num_states, na, nb = 53, 3, 4
    monkeypatch.setattr(game_module, "_BLOCK_ENTRIES", 3 * na * nb * num_states + 5)
    rng = np.random.default_rng(seed)
    pairs = game_module._random_kernel(rng, (num_states, na, nb, num_states), parts)
    kernel = pairs[:]
    reward = rng.uniform(-1.0, 1.0, size=(num_states, na, nb))
    cost1, cost2 = (rng.uniform(0.1, 0.2, size=(num_states, n - 1)) for n in (na, nb))
    expected = copying_random_game_tables(num_states, na - 1, nb - 1, seed)
    assert kernel.tobytes() == expected[0].tobytes()
    assert reward.tobytes() == expected[1].tobytes()
    assert cost1.tobytes() == expected[2][:, 1:].tobytes()
    assert cost2.tobytes() == expected[3][:, 1:].tobytes()


def test_an_error_in_a_draw_thread_reaches_the_caller_and_no_thread_outlives_it(monkeypatch):
    fill_kernel = game_module._fill_kernel
    before = set(threading.enumerate())

    def failing(pairs, rows, lo, hi):
        if lo == 3:
            raise RuntimeError(f"share from state {lo} failed")
        fill_kernel(pairs, rows, lo, hi)

    monkeypatch.setattr(game_module, "_fill_kernel", failing)
    with pytest.raises(RuntimeError, match="share from state 3 failed"):
        game_module._random_kernel(np.random.default_rng(0), (10, 2, 2, 10), 3)
    assert set(threading.enumerate()) == before


def test_the_draw_is_split_by_cpus_and_kernel_size(monkeypatch):
    parts = game_module._draw_parts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    assert parts((300, 2, 2, 300)) == 1  # 360,000 entries, below 2**20
    assert parts((300, 8, 8, 300)) == 5  # 5,760,000 entries
    assert parts((2, 1000, 1000, 2)) == 2  # no share without a state
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert parts((300, 8, 8, 300)) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert parts((300, 8, 8, 300)) == 3


@pytest.mark.parametrize("seed", [0, 5])
def test_random_game_holds_one_kernel_at_its_peak(seed):
    """(300, 7, 7) is split on two or more CPUs, (200, 3, 3) never."""
    ig.random_game(1, 0, 0, seed)  # the modules numpy imports on a first draw stay untraced
    for shape in ((200, 3, 3), (300, 7, 7)):
        tracemalloc.start()
        try:
            game = ig.random_game(*shape, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * game.kernel.nbytes, shape
        del game


def _rebuilt(game, **tables):
    fields = dict(kernel=game.kernel, reward=game.reward, cost1=game.cost1,
                  cost2=game.cost2, mask1=game.mask1, mask2=game.mask2)
    return ig.ImpulseGame(cost_floor=game.cost_floor, discount=game.discount,
                          **{**fields, **tables})


def test_a_game_built_from_another_games_tables_shares_them():
    game = ig.random_game(100, 3, 3, seed=0)
    kernel = game.kernel  # assembled before tracing: the constructor takes a full kernel
    tracemalloc.start()
    try:
        twin = _rebuilt(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name in ("reward", "cost1", "cost2", "mask1", "mask2"):
        assert getattr(twin, name) is getattr(game, name)
    # the kernel handed in is split once into the two stored tables, its one copy
    for name in ("cell_kernel", "both_kernel"):
        table, own = getattr(game, name), getattr(twin, name)
        assert own.tobytes() == table.tobytes() and not np.shares_memory(own, kernel)
    assert twin.cell_kernel.nbytes + twin.both_kernel.nbytes == kernel.nbytes
    assert peak < kernel.nbytes + game.cost1.nbytes  # no other table was allocated


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
