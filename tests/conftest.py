import numpy as np
import pytest

from impulsegames import ImpulseGame


def micro_game(cost1: float, cost2: float, gamma: float = 0.5) -> ImpulseGame:
    """Single self-looping state, one costly action per player.

    Rewards: 1 for the null pair, 2 for Player 1's action, 0 for Player 2's.
    """
    kernel = np.ones((1, 2, 2, 1))
    reward = np.zeros((1, 2, 2))
    reward[0, 0, 0] = 1.0
    reward[0, 1, 0] = 2.0
    return ImpulseGame(
        kernel=kernel, reward=reward,
        cost1=np.array([[0.0, cost1]]), cost2=np.array([[0.0, cost2]]),
        cost_floor=0.1, discount=gamma,
    )


def randomly_masked(game: ImpulseGame, seed: int) -> ImpulseGame:
    """``game`` with about 40% of its costly actions masked at random, all of
    Player 1's masked at state 0 and all of Player 2's at state 1."""
    rng = np.random.default_rng(seed)
    mask1 = rng.random(game.mask1.shape) < 0.6
    mask2 = rng.random(game.mask2.shape) < 0.6
    mask1[:, 0] = mask2[:, 0] = True
    mask1[0, 1:] = mask2[1, 1:] = False
    return ImpulseGame(kernel=game.kernel, reward=game.reward, cost1=game.cost1,
                       cost2=game.cost2, cost_floor=game.cost_floor,
                       discount=game.discount, mask1=mask1, mask2=mask2)


@pytest.fixture
def g1() -> ImpulseGame:
    """Low costs both sides; Player 2 intervenes, value 0.6."""
    return micro_game(0.5, 0.3)


@pytest.fixture
def g2() -> ImpulseGame:
    """Player 2 priced out; Player 1 intervenes, value 3.0."""
    return micro_game(0.5, 100.0)


@pytest.fixture
def g3() -> ImpulseGame:
    """Both players priced out; uncontrolled chain, value 2.0."""
    return micro_game(2.0, 100.0)
