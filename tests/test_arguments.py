"""Public entries refuse a bad count or index by the argument rules of
``impulsegames.game``: a count that is not an integer or lies out of range
raises ``ValueError``; an index that is not an integer raises ``TypeError``,
one out of range ``IndexError``; each message names the argument."""

import re

import numpy as np
import pytest

import impulsegames as ig

# Not integers: a bool, a fraction, a whole float and a string.
NOT_INTEGERS = [True, 2.5, 3.0, "1"]


def _refusals():
    """(id, call, exception, message) for every refused value of each entry."""
    game = ig.random_game(3, 1, 1, seed=0)
    policy = ig.extract_policy(game, np.zeros(3))
    env = ig.SamplingEnv(game)
    # (entry, call on the argument, the argument's name, {out-of-range value: rule})
    counts = [
        ("random_game", lambda x: ig.random_game(x, 1, 1, 0), "num_states",
         {0: "be at least 1", -2: "be at least 1"}),
        ("random_game", lambda x: ig.random_game(3, x, 1, 0), "num_actions1",
         {-1: "be non-negative"}),
        ("random_game", lambda x: ig.random_game(3, 1, x, 0), "num_actions2",
         {-1: "be non-negative"}),
        ("random_game", lambda x: ig.random_game(3, 1, 1, x), "seed", {-1: "be non-negative"}),
        ("DuopolyParams", lambda x: ig.DuopolyParams(grid_size=x), "grid_size",
         {1: "be at least 2"}),
        ("DuopolyParams", lambda x: ig.DuopolyParams(noise_nodes=x), "noise_nodes", {}),
        ("minimax_oracle", lambda x: ig.minimax_oracle(game, max_enumeration=x),
         "max_enumeration", {-1: "be non-negative"}),
        ("solve", lambda x: ig.solve(game, max_sweeps=x), "max_sweeps", {}),
        ("simulate", lambda x: ig.simulate(game, policy, x), "steps", {}),
        ("simulate", lambda x: ig.simulate(game, policy, 3, seed=x), "seed",
         {-1: "be non-negative"}),
        ("SamplingEnv", lambda x: ig.SamplingEnv(game, seed=x), "seed", {-1: "be non-negative"}),
        ("LearnConfig", lambda x: ig.LearnConfig(steps=10, seed=x), "seed",
         {-1: "be non-negative"}),
        ("FitConfig", lambda x: ig.FitConfig(samples=10, seed=x), "seed",
         {-1: "be non-negative"}),
    ]
    # (entry, call on the argument, the argument's name, its range, or None where
    # another test covers the range)
    indices = [
        ("effective_reward", lambda x: ig.effective_reward(game, x, (0, 0)), "state", 3),
        ("effective_reward", lambda x: ig.effective_reward(game, 0, (x, 0)), "action1", 2),
        ("player2_reward", lambda x: ig.player2_reward(game, 0, (0, x)), "action2", 2),
        ("executed_pair", policy.executed_pair, "state", 3),
        ("SamplingEnv.step", lambda x: env.step(x, 0), "state", None),
        ("SamplingEnv.step", lambda x: env.step(0, x), "cell", None),
    ]
    cases = []
    for entry, call, name, ranges in counts:
        cases += [(f"{entry}-{name}-{x!r}", call, x, ValueError,
                   f"{name} must be an integer, got {x!r}") for x in NOT_INTEGERS]
        cases += [(f"{entry}-{name}-{x!r}", call, x, ValueError, f"{name} must {rule}, got {x}")
                  for x, rule in ranges.items()]
    for entry, call, name, n in indices:
        cases += [(f"{entry}-{name}-{x!r}", call, x, TypeError,
                   f"{name} must be an integer, got {x!r}") for x in NOT_INTEGERS]
        cases += [(f"{entry}-{name}-{x!r}", call, x, IndexError, f"{name} {x} outside 0..{n - 1}")
                  for x in ([-1, n] if n else [])]
    return cases


_CASES = _refusals()


@pytest.mark.parametrize("call,value,error,message", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_entries_refuse_a_bad_count_or_index_by_name(call, value, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(value)
