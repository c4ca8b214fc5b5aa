import numpy as np
import pytest

import impulsegames as ig
from impulsegames.envs import DRAW_BLOCK, BlockDraws

from _oracles import pair_cell


def test_step_mean_pure_decay():
    p = ig.DuopolyParams(market_size=200.0, r1=0.1)
    assert ig.duopoly_step_mean(p, 100.0, 0.0, 0.0, 0.0)[0] == pytest.approx(90.0)


def test_step_mean_investment_drift():
    p = ig.DuopolyParams(market_size=100.0, b1=0.5, r1=0.0)
    s1, _ = ig.duopoly_step_mean(p, 40.0, 40.0, 1.0, 0.0)
    assert s1 == pytest.approx(40.1)


def test_step_mean_identity_when_inert():
    p = ig.DuopolyParams(r1=0.0, r2=0.0)
    assert ig.duopoly_step_mean(p, 33.0, 21.0, 0.0, 0.0) == (33.0, 21.0)


def test_step_mean_hand_values():
    p = ig.DuopolyParams()  # market 100, b 0.6, r 0.05
    # untapped share (100 - 40 - 20) / 100 = 0.4
    s1, s2 = ig.duopoly_step_mean(p, 40.0, 20.0, 2.5, 0.0)
    assert (s1, s2) == (pytest.approx(40.0 + 0.6 * 2.5 * 0.4 - 2.0), pytest.approx(19.0))
    # a negative untapped share drives Player 1 below 0; Player 2 is clamped above
    assert ig.duopoly_step_mean(p, 0.0, 200.0, 4.0, 0.0) == (0.0, 100.0)


def test_step_mean_array_form_equals_scalar_form():
    p = ig.DuopolyParams(grid_size=5)
    grid = np.linspace(0.0, p.market_size, p.grid_size)
    s1, s2 = np.repeat(grid, 5), np.tile(grid, 5)
    for u1, u2 in [(0.0, 0.0), (2.5, 1.0), (4.0, 4.0)]:
        d1, d2 = ig.duopoly_step_mean(p, s1, s2, u1, u2)
        pairs = [ig.duopoly_step_mean(p, float(a), float(b), u1, u2) for a, b in zip(s1, s2)]
        assert d1.tolist() == [x for x, _ in pairs]
        assert d2.tolist() == [y for _, y in pairs]


def test_step_mean_clamps_to_market():
    p = ig.DuopolyParams(market_size=50.0, r1=0.0)
    s1, s2 = ig.duopoly_step_mean(p, 50.0, 50.0, 0.0, 0.0)
    assert 0.0 <= s1 <= 50.0 and 0.0 <= s2 <= 50.0


def test_response_rate_range_enforced():
    with pytest.raises(ValueError):
        ig.DuopolyParams(b1=1.5)
    with pytest.raises(ValueError):
        ig.DuopolyParams(grid_size=1)


def test_build_duopoly_game_is_valid():
    game = ig.build_duopoly_game(ig.DuopolyParams(grid_size=7))
    assert ig.validate(game) == []
    assert game.num_states == 49
    assert game.num_actions1 == 4


def test_noise_nodes_lie_in_one_to_the_bound():
    for nodes in (1, 2, ig.envs.MAX_NOISE_NODES):
        game = ig.build_duopoly_game(ig.DuopolyParams(grid_size=3, noise_nodes=nodes))
        assert ig.validate(game) == []
    for nodes in (0, -1, ig.envs.MAX_NOISE_NODES + 1):
        with pytest.raises(ValueError, match="noise_nodes"):
            ig.DuopolyParams(noise_nodes=nodes)


def test_sigma_zero_on_lattice_is_unit_mass():
    p = ig.DuopolyParams(sigma1=0.0, sigma2=0.0, noise_nodes=1, r1=0.0, r2=0.0,
                         grid_size=5)
    game = ig.build_duopoly_game(p)
    for s in range(game.num_states):
        row = game.kernel[s, 0, 0]
        assert row.max() == pytest.approx(1.0)
        assert row.argmax() == s  # no decay, no noise: stay put


def test_reward_antisymmetry_under_mirroring():
    p = ig.DuopolyParams(grid_size=5)
    game = ig.build_duopoly_game(p)
    g = p.grid_size
    for i in range(g):
        for j in range(g):
            s, mirror = i * g + j, j * g + i
            assert game.reward[s, 0, 0] == -game.reward[mirror, 0, 0]


def test_zero_sum_identity_every_step():
    game = ig.build_duopoly_game(ig.DuopolyParams(grid_size=5))
    rep = ig.solve(game, tol=1e-8)
    traj = ig.simulate(game, rep.policy, 100, seed=1, start=12)
    for t in range(100):
        pair = (int(traj.actions1[t]), int(traj.actions2[t]))
        s = int(traj.states[t])
        assert ig.player2_reward(game, s, pair) == -traj.rewards[t]


def test_huge_costs_empty_intervention_regions():
    p = ig.DuopolyParams(grid_size=5, kappa1=1e6, kappa2=1e6)
    game = ig.build_duopoly_game(p)
    rep = ig.solve(game, tol=1e-8)
    assert rep.policy.region1.size == 0
    assert rep.policy.region2.size == 0


def test_sampling_env_deterministic_rows():
    base = ig.random_game(2, 1, 1, seed=3)
    kernel = base.kernel.copy()
    kernel[:] = 0.0
    kernel[0, :, :, 1] = 1.0
    kernel[1, :, :, 0] = 1.0
    game = ig.ImpulseGame(kernel=kernel, reward=base.reward, cost1=base.cost1,
                          cost2=base.cost2, cost_floor=base.cost_floor,
                          discount=base.discount)
    env = ig.SamplingEnv(game, seed=0)
    assert env.step(0, 0)[0] == 1
    assert env.step(1, 0)[0] == 0


def test_sampling_env_seeded_repeatability():
    game = ig.random_game(4, 1, 1, seed=5)
    runs = []
    for _ in range(2):
        env = ig.SamplingEnv(game, seed=11)
        s = env.reset()
        path = [s]
        for _ in range(20):
            s, _ = env.step(s, 0)
            path.append(s)
        runs.append(path)
    assert runs[0] == runs[1]


def test_sampling_env_frequencies_match_kernel():
    game = ig.random_game(3, 1, 1, seed=8)
    env = ig.SamplingEnv(game, seed=0)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        nxt, _ = env.step(0, 1)
        counts[nxt] += 1
    probs = game.kernel[0, 1, 0]
    for t in range(3):
        se = np.sqrt(probs[t] * (1 - probs[t]) / n)
        assert abs(counts[t] / n - probs[t]) <= 3 * se + 1e-4


def test_sampling_env_returns_raw_reward():
    game = ig.random_game(3, 1, 1, seed=9)
    env = ig.SamplingEnv(game, seed=1)
    _, r = env.step(1, 1)
    assert r == game.reward[1, 1, 0]


def test_sampling_env_reset_default_uniform():
    game = ig.random_game(5, 0, 0, seed=2)
    env = ig.SamplingEnv(game, seed=123)
    seen = {env.reset() for _ in range(300)}
    assert seen == set(range(5))


def test_sampling_env_masked_step_raises(g2):
    aug = ig.augment(g2, 0, 0)
    env = ig.SamplingEnv(aug.game, seed=0)
    with pytest.raises(RuntimeError, match="masked cell 1 attempted at state 0"):
        env.step(0, 1)


def test_duopoly_game_round_trips_through_spec_file(tmp_path):
    game = ig.build_duopoly_game(ig.DuopolyParams(grid_size=4))
    path = tmp_path / "duopoly.json"
    ig.save_game(game, path)
    assert ig.games_equal(game, ig.load_game(path))


@pytest.mark.parametrize("params", [{"gamma": 1.5}, {"kappa1": float("nan")}])
def test_build_duopoly_game_rejects_invalid_games(params):
    with pytest.raises(ig.GameValidationError):
        ig.build_duopoly_game(ig.DuopolyParams(grid_size=3, **params))


def test_sampling_env_exposes_no_game_tables():
    env = ig.SamplingEnv(ig.random_game(3, 2, 1, seed=4))
    for name in ("kernel", "reward", "cost1", "cost2", "cell_costs"):
        assert not hasattr(env, name)


def test_oversized_duopoly_refused_before_any_table():
    with pytest.raises(ValueError, match="above the limit"):
        ig.build_duopoly_game(ig.DuopolyParams(grid_size=100))


@pytest.mark.parametrize("pair", [(-1, 0), (3, 0), (0, -1), (0, 3)])
def test_sampling_env_refuses_an_action_out_of_range(pair):
    # Player 1 has only the null action, so each pair outside the players'
    # ranges lands on a cell outside the table's three (-1 or 3).
    game = ig.random_game(3, 0, 2, seed=0)
    env = ig.SamplingEnv(game)
    with pytest.raises(IndexError, match=r"cell -?\d+ outside 0..2"):
        env.step(0, pair_cell(game, pair))


@pytest.mark.parametrize("s", [-1, -3, 3])
def test_sampling_env_refuses_a_state_out_of_range(s):
    env = ig.SamplingEnv(ig.random_game(3, 1, 1, seed=0))
    with pytest.raises(IndexError, match=f"state {s} outside 0..2"):
        env.step(s, 0)


# Bounds for `integers`: no draw (1), small ones, and 32-bit ones near the top, where
# 3 * 2**30 rejects about a quarter of its draws and 2**32 takes a bare 32-bit half.
_BOUNDS = [1, 2, 3, 5, 7, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]


_DOUBLE, _WORD = len(_BOUNDS), len(_BOUNDS) + 1


def _draw(rng, op):
    """One scalar draw: ``random()`` for ``_DOUBLE``, the next raw word for ``_WORD``
    (``BlockDraws.word()``, or the generator's own ``random_raw()``), else ``integers``."""
    if op == _DOUBLE:
        return rng.random()
    if op == _WORD:
        return rng.word() if isinstance(rng, BlockDraws) else int(rng.bit_generator.random_raw())
    return int(rng.integers(_BOUNDS[op]))


@pytest.mark.parametrize("seed", range(20))
def test_block_draws_match_generator(seed):
    ops = np.random.default_rng(10_000 + seed).integers(_WORD + 1, size=30_000).tolist()
    # Fill one block with doubles, leave the upper half of its last word pending for
    # after the next block's first double and a direct word read, then mix
    # everything across several blocks.
    ops = [_DOUBLE] * (DRAW_BLOCK - 1) + [3, _DOUBLE, _WORD, 6, 3] + ops
    draws, rng = BlockDraws(seed), np.random.default_rng(seed)
    assert [_draw(draws, op) for op in ops] == [_draw(rng, op) for op in ops]
    assert [draws.random(), draws.integers(7)] == [rng.random(), rng.integers(7)]


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_block_draws_refuse_a_bound_outside_32_bits(n):
    with pytest.raises(ValueError, match="1..2"):
        BlockDraws(0).integers(n)
