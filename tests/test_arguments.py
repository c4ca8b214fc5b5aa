"""Public entries refuse a bad count or index by the argument rules of
``impulsegames.game``: a count that is not an integer or lies out of range
raises ``ValueError``; an index that is not an integer raises ``TypeError``,
one out of range ``IndexError``; each message names the argument.  A value
field of the wrong length, a ``q`` table of the wrong shape or with a
non-finite entry, and a ``joint`` that is not a pair raise ``ValueError``
naming the argument too."""

import re

import numpy as np
import pytest

import impulsegames as ig
from impulsegames.sim import MAX_STEPS

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
        ("solve", lambda x: ig.solve(game, max_sweeps=x), "max_sweeps", {}),
        ("simulate", lambda x: ig.simulate(game, policy, x), "steps",
         {-1: f"lie in 0..{MAX_STEPS}", MAX_STEPS + 1: f"lie in 0..{MAX_STEPS}"}),
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


# Every entry that takes a value field `v`, on a 4-state game, with and without caps.
_VALUE_ENTRIES = {
    "bellman": ig.bellman,
    "extract_policy": ig.extract_policy,
    "q_from_value": ig.q_from_value,
    "operator_terms": ig.solver.operator_terms,
    "noop_continuation": lambda game, v, caps=None: ig.noop_continuation(game, v),
    "max_intervention": lambda game, v, caps=None: ig.max_intervention(game, v, 0),
    "min_intervention": lambda game, v, caps=None: ig.min_intervention(game, v, 0),
}
_CAPPED = ("bellman", "extract_policy", "q_from_value", "operator_terms")
_FIELD_CASES = ([(entry, None, size) for entry in _VALUE_ENTRIES for size in (5, 3, (4, 1))]
                + [(entry, (1, 1), size) for entry in _CAPPED for size in (4, 17)])


@pytest.mark.parametrize("entry,caps,size", _FIELD_CASES,
                         ids=[f"{e}-{c}-{n}" for e, c, n in _FIELD_CASES])
def test_value_entries_refuse_a_field_of_the_wrong_length_by_name(entry, caps, size):
    game = ig.random_game(4, 1, 1, seed=0)
    want = 4 if caps is None else 16
    call = _VALUE_ENTRIES[entry]
    kwargs = {} if caps is None else {"caps": caps}
    v = np.zeros(size)
    with pytest.raises(ValueError, match=re.escape(f"v must have shape ({want},), got {v.shape}")):
        call(game, v, **kwargs)
    call(game, np.zeros(want), **kwargs)


@pytest.mark.parametrize("q,message", [
    (np.zeros((4, 3, 3)), "q must have shape (4, 3, 2), got (4, 3, 3)"),
    (np.zeros((4, 6)), "q must have shape (4, 3, 2), got (4, 6)"),
    (np.full((4, 3, 2), np.nan), "q must be finite"),
    (np.where(np.eye(4, 6, dtype=bool).reshape(4, 3, 2), np.inf, 0.0), "q must be finite"),
], ids=["too-wide", "flat", "nan", "inf"])
def test_read_off_refuses_a_bad_q_table_by_name(q, message):
    game = ig.random_game(4, 2, 1, seed=0)
    with pytest.raises(ValueError, match=re.escape(message)):
        ig.read_off(game, q)


@pytest.mark.parametrize("entry", [ig.effective_reward, ig.player2_reward])
@pytest.mark.parametrize("joint", [(1, 2, 3), 5, (1,), None], ids=repr)
def test_reward_entries_refuse_a_joint_that_is_not_a_pair(entry, joint):
    game = ig.random_game(3, 1, 1, seed=0)
    with pytest.raises(ValueError, match=re.escape(f"joint must be a pair (a, b), got {joint!r}")):
        entry(game, 0, joint)


@pytest.mark.parametrize("cost_floor", [0.0, -0.1, np.nan, np.inf, -np.inf, 1e308],
                         ids=repr)
def test_random_game_refuses_a_cost_floor_that_is_not_positive_and_finite(cost_floor):
    # 0 would give zero-cost actions; -0.1, NaN, inf and 1e308 (whose double
    # overflows) failed inside numpy's uniform draw.
    with pytest.raises(ValueError, match=re.escape(
            f"cost_floor must be positive with a finite double, got {cost_floor!r}")):
        ig.random_game(3, 1, 1, seed=0, cost_floor=cost_floor)
