import numpy as np

import impulsegames as ig


class _FixedDraw:
    """An ``rng`` stand-in whose every uniform draw is the same number."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


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
    assert [env.step(s, (0, 0))[0] for s in range(4)] == [2, 2, 2, 2]


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
