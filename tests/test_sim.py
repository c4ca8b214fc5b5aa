import numpy as np
import pytest

import impulsegames as ig
from impulsegames.qlearn import _explore, _slots

from _oracles import SearchsortedSampler, loop_simulate, mask_explore, pair_cell
from conftest import randomly_masked


class _FixedDraw:
    """An ``rng`` stand-in whose every uniform draw is the same number."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def _short_row_game():
    # each row sums to 0.9999999999999999 in floating point and ends on a
    # zero-probability state
    kernel = np.zeros((4, 2, 1, 4))
    kernel[..., :3] = [0.7, 0.2, 0.1]
    return ig.ImpulseGame(kernel=kernel, reward=np.zeros((4, 2, 1)),
                          cost1=np.array([[0.0, 1.0]] * 4), cost2=np.zeros((4, 1)),
                          cost_floor=0.1, discount=0.9)


def _idle(n):
    return ig.EquilibriumPolicy(p1_acts=np.zeros(n, dtype=bool), p1_action=np.zeros(n, dtype=int),
                                p2_acts=np.zeros(n, dtype=bool), p2_action=np.zeros(n, dtype=int))


def test_draw_past_row_end_lands_on_last_state_with_mass():
    game = _short_row_game()
    u = 0.9999999999999999
    assert np.cumsum(game.kernel[0, 0, 0])[-1] <= u
    traj = ig.simulate(game, _idle(4), 5, rng=_FixedDraw(u))
    assert traj.states.tolist() == [0, 2, 2, 2, 2, 2]
    env = ig.SamplingEnv(game, rng=_FixedDraw(u))
    assert [env.step(s, 0)[0] for s in range(4)] == [2, 2, 2, 2]


def test_draw_past_row_end_keeps_budget_counters():
    game = _short_row_game()
    aug = ig.augment(game, 2, 0)
    policy = _idle(aug.num_states)
    policy.p1_acts[aug.index(0, 2, 0)] = True
    policy.p1_action[aug.index(0, 2, 0)] = 1
    traj = ig.simulate(game, policy, 3, start=aug.index(0, 2, 0),
                       rng=_FixedDraw(0.9999999999999999), caps=aug.caps)
    assert [aug.labels[x] for x in traj.states] == [(0, 2, 0), (2, 1, 0), (2, 1, 0),
                                                    (2, 1, 0)]


def test_rewards_are_the_executed_pairs_net_rewards():
    base = ig.random_game(5, 2, 2, seed=21)
    mask1 = base.mask1.copy()
    mask1[0, 1:] = False
    game = ig.ImpulseGame(kernel=base.kernel, reward=base.reward, cost1=base.cost1,
                          cost2=base.cost2, cost_floor=base.cost_floor,
                          discount=base.discount, mask1=mask1)
    for caps in (None, (2, 1)):
        rep = ig.solve(game, tol=1e-10, caps=caps)
        traj = ig.simulate(game, rep.policy, 200, seed=4, caps=caps)
        ny_nz = 1 if caps is None else (caps[0] + 1) * (caps[1] + 1)
        for t in range(200):
            pair = (int(traj.actions1[t]), int(traj.actions2[t]))
            s = int(traj.states[t]) // ny_nz
            assert traj.rewards[t] == ig.effective_reward(game, s, pair)


def _draw_streams(game, rng, ref_rng, steps):
    """Walk ``steps`` explore-and-step draws with the library and with the
    mask-and-searchsorted reference on equally seeded generators; the
    reference's pairs are compared as cells."""
    env, ref = ig.SamplingEnv(game, rng=rng), SearchsortedSampler(game, ref_rng)
    slots = _slots(game.cell_costs.tolist(), game.num_actions1)
    s = t = 0
    got, want = [], []
    for _ in range(steps):
        cell, ref_pair = _explore(slots[s], rng), mask_explore(game, t, ref_rng)
        s, r = env.step(s, cell)
        t, ref_r = ref.step(t, ref_pair)
        got.append((cell, s, r))
        want.append((pair_cell(game, ref_pair), t, ref_r))
    return got, want


@pytest.mark.parametrize("case", ["1x0x0", "6x3x2", "30x1x1", "masked-8x3x2", "masked-30x3x2"])
def test_step_and_explore_match_the_mask_and_searchsorted_reference(case):
    name, _, spec = case.rpartition("-")
    n, a, b = (int(x) for x in spec.split("x"))
    game = ig.random_game(n, a, b, seed=n + a)
    if name:
        game = randomly_masked(game, n)
    got, want = _draw_streams(game, np.random.default_rng(n), np.random.default_rng(n), 3000)
    assert got == want
    if not name:
        assert len({cell for cell, _, _ in got}) == 1 + a + b


class _NearOneEveryThird:
    """A seeded generator whose every third uniform draw is the largest float below 1."""

    def __init__(self, seed):
        self.gen, self.calls = np.random.default_rng(seed), 0

    def random(self):
        self.calls += 1
        return 0.9999999999999999 if self.calls % 3 == 0 else self.gen.random()

    def integers(self, n):
        return self.gen.integers(n)


def test_step_and_explore_match_the_reference_on_short_rows():
    got, want = _draw_streams(_short_row_game(), _NearOneEveryThird(3), _NearOneEveryThird(3), 600)
    assert got == want
    assert {s for _, s, _ in got} == {0, 1, 2}


class _NoDraws:
    """An ``rng`` stand-in that fails the test on any draw."""

    def random(self, size=None):
        raise AssertionError("a step was taken")


@pytest.mark.parametrize("start, caps", [(-1, None), (3, None), (-1, (1, 2)), (18, (1, 2))])
def test_simulate_refuses_a_start_outside_the_states(start, caps):
    game = ig.random_game(3, 1, 1, seed=0)
    n = 3 if caps is None else 18
    with pytest.raises(IndexError, match="outside 0.."):
        ig.simulate(game, _idle(n), 3, start=start, rng=_NoDraws(), caps=caps)
    # the first or last state is a valid start
    assert len(ig.simulate(game, _idle(n), 3, start=start % n, caps=caps).states) == 4


def _rollout_cases():
    duopoly = ig.build_duopoly_game(ig.DuopolyParams())
    masked = randomly_masked(ig.random_game(8, 3, 2, seed=7), seed=8)
    small = ig.random_game(6, 2, 2, seed=7)
    aug21, aug88 = ig.augment(small, 2, 1), ig.augment(small, 8, 8)
    return {
        "duopoly-121": (duopoly, None, 5000, 60),
        "masked-8x3x2": (masked, None, 2000, 3),
        "caps-2-1": (small, (2, 1), 2000, aug21.index(4, 2, 1)),
        "caps-8-8": (small, (8, 8), 2000, aug88.index(1, 8, 8)),
        "steps-0": (small, None, 0, 2),
        "steps-1": (small, (2, 1), 1, aug21.index(5, 2, 1)),
    }


ROLLOUTS = _rollout_cases()


@pytest.mark.parametrize("case", sorted(ROLLOUTS))
def test_simulate_matches_the_loop_reference_bit_for_bit(case):
    game, caps, steps, start = ROLLOUTS[case]
    policy = ig.solve(game, tol=1e-10, caps=caps).policy
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    traj = ig.simulate(game, policy, steps, start=start, rng=rng, caps=caps)
    want = loop_simulate(game, policy, steps, ref_rng, start=start, caps=caps)
    got = (traj.states, traj.actions1, traj.actions2, traj.rewards, traj.cumulative)
    for name, x, y in zip(["states", "actions1", "actions2", "rewards", "cumulative"], got, want):
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    # the run took exactly one uniform per step from the generator
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("n, caps, want", [(7, None, 3), (2, None, 3), (3, (1, 1), 12)])
def test_simulate_refuses_a_policy_of_the_wrong_length(n, caps, want):
    game = ig.random_game(3, 1, 1, seed=0)
    with pytest.raises(ValueError, match=f"policy has {n} states, the rollout's game has {want}"):
        ig.simulate(game, _idle(n), 20, rng=_NoDraws(), caps=caps)


@pytest.mark.parametrize("player", [1, 2])
def test_simulate_refuses_an_action_outside_the_game(player):
    game = ig.random_game(3, 1, 1, seed=0)
    policy = _idle(3)
    acts, action = (policy.p1_acts, policy.p1_action) if player == 1 else (
        policy.p2_acts, policy.p2_action)
    acts[2], action[2] = True, 2
    with pytest.raises(IndexError, match="outside the game's actions"):
        ig.simulate(game, policy, 20, rng=_NoDraws())


def _self_loops():
    """Three states that each stay put, whatever is played; Player 1's
    costly action is masked at state 1 only."""
    kernel = np.broadcast_to(np.eye(3)[:, None, None, :], (3, 2, 1, 3)).copy()
    mask1 = np.ones((3, 2), dtype=bool)
    mask1[1, 1] = False
    return ig.ImpulseGame(kernel=kernel, reward=np.zeros((3, 2, 1)),
                          cost1=np.array([[0.0, 1.0]] * 3), cost2=np.zeros((3, 1)),
                          cost_floor=0.1, discount=0.9, mask1=mask1)


def test_a_masked_action_is_a_fault_only_where_the_rollout_reaches_it():
    game = _self_loops()
    policy = _idle(3)
    policy.p1_acts[:] = True
    policy.p1_action[:] = 1
    assert ig.simulate(game, policy, 50, start=0).states.tolist() == [0] * 51
    with pytest.raises(RuntimeError, match="masked cell 1 reached at state 1"):
        ig.simulate(game, policy, 50, start=1)


def test_a_spent_counter_is_a_fault_only_where_the_rollout_reaches_it():
    game = _self_loops()
    aug = ig.augment(game, 1, 0)
    policy = _idle(aug.num_states)
    policy.p1_acts[:] = True
    policy.p1_action[:] = 1
    start = aug.index(0, 1, 0)
    traj = ig.simulate(game, policy, 1, start=start, caps=aug.caps)
    assert [aug.labels[x] for x in traj.states] == [(0, 1, 0), (0, 0, 0)]
    with pytest.raises(RuntimeError, match="masked"):
        ig.simulate(game, policy, 2, start=start, caps=aug.caps)
