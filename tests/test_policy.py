"""A policy is its two action arrays, 0 where a player does not act, and its
flags are read off them.  Player 2's precedence over a policy's pairs lives
in ``EquilibriumPolicy.executed_actions`` alone (over cells in
``game.cell_index``): no module of ``src/impulsegames`` reads the flags
outside the class, and every reader of a policy agrees with the executed
actions on seeded policies in which both players act at some states."""

import ast
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import impulsegames as ig
from _oracles import loop_chain, loop_intervention_times
from conftest import randomly_masked
from impulsegames import solver

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "impulsegames"

# A policy's flags and raw actions.  Outside the class every reader takes
# `executed_actions`, which applies Player 2's precedence; a reader that needs
# a player's own choice is named here as an exemption: the best response
# against a fixed Player 1, who may pick an action where Player 2 acts.
FIELDS = {"p1_acts", "p2_acts", "p1_action", "p2_action"}
EXEMPT = [("solver.py", "_best_response", "p1_action")]


# The policy table's columns named outside solver.py: the trajectory files
# name their executed pair as the table does.
COLUMN_EXEMPT = [("cli.py", "cmd_budget", "executed_a"), ("cli.py", "cmd_budget", "executed_b"),
                 ("cli.py", "cmd_simulate", "executed_a"), ("cli.py", "cmd_simulate", "executed_b")]


def _nodes(path):
    """``(qualified name of the enclosing definition, node)`` of every node of
    the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def owner(node):
        names = []
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
        return ".".join(reversed(names))

    for node in ast.walk(tree):
        yield owner(node), node


def _policy_reads(path):
    """``(qualified name of the enclosing definition, attribute, line)`` of
    every read of a policy's flags or actions in the module at ``path``."""
    for name, node in _nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in FIELDS:
            yield name, node.attr, node.lineno


def test_only_the_policy_reads_its_flags_and_actions():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    reads = [(path.name, name, attr, line) for path in modules
             for name, attr, line in _policy_reads(path)]
    outside = [(module, name, attr) for module, name, attr, _ in reads
               if name.split(".")[0] != "EquilibriumPolicy"]
    assert outside == EXEMPT
    assert {module for module, *_ in reads} == {"solver.py"}


def test_only_the_solver_names_the_policy_table_and_no_module_asks_for_records():
    # "state" names far more than the column, so it is left out.
    columns = set(ig.EquilibriumPolicy(p1_action=[0], p2_action=[0]).to_records()[0]) - {"state"}
    assert len(columns) == 6
    modules = sorted(PACKAGE.glob("*.py"))
    literals = sorted((path.name, name, node.value) for path in modules
                      for name, node in _nodes(path)
                      if isinstance(node, ast.Constant) and node.value in columns)
    assert [x for x in literals if x[0] != "solver.py"] == COLUMN_EXEMPT
    assert {value for module, _, value in literals if module == "solver.py"} == columns
    calls = [(path.name, name) for path in modules for name, node in _nodes(path)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "to_records"]
    assert calls == []


def test_a_policy_is_two_arrays_with_read_only_flags():
    assert [f.name for f in dataclasses.fields(ig.EquilibriumPolicy)] == ["p1_action", "p2_action"]
    policy = ig.EquilibriumPolicy(p1_action=np.array([0, 2, 1]), p2_action=np.array([0, 0, 3]))
    assert policy.p1_acts.tolist() == [False, True, True]
    assert policy.p2_acts.tolist() == [False, False, True]
    a, b = policy.executed_actions
    assert a.tolist() == [0, 2, 0] and b.tolist() == [0, 0, 3]
    assert [policy.executed_pair(s) for s in range(3)] == [(0, 0), (2, 0), (0, 3)]
    for name in ("p1_acts", "p2_acts", "p1_action"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(policy, name, np.zeros(3, dtype=int))
    with pytest.raises(TypeError):
        ig.EquilibriumPolicy(p1_acts=np.ones(3, dtype=bool), p1_action=np.ones(3, dtype=int),
                             p2_acts=np.zeros(3, dtype=bool), p2_action=np.zeros(3, dtype=int))


def test_a_policy_holds_read_only_integer_arrays_of_one_length():
    # Lists, and arrays of whole floats, become integer arrays: each player's
    # actions are their own, not one scalar comparison of the whole list.
    policy = ig.EquilibriumPolicy(p1_action=[0, 1, 2], p2_action=np.array([0.0, 0.0, 1.0]))
    a, b = policy.executed_actions
    assert a.tolist() == [0, 1, 0] and b.tolist() == [0, 0, 1]
    assert policy.p1_acts.tolist() == [False, True, True]
    for x in (policy.p1_action, policy.p2_action):
        assert x.dtype.kind == "i" and not x.flags.writeable
    assert [r["executed_a"] for r in policy.to_records()] == [0, 1, 0]
    game = ig.random_game(3, 3, 2, seed=0)
    assert ig.intervention_times(game, policy, [0, 1, 2, 1]) == ([1, 3], [2])
    assert len(ig.simulate(game, policy, 5).rewards) == 5


@pytest.mark.parametrize("length", [0, 3, 5])
def test_labels_of_another_length_than_the_states_are_refused_by_name(length):
    report = ig.solve(ig.random_game(4, 1, 1, seed=0))
    labels = [f"s{i}" for i in range(length)]
    for call in (report.policy.to_records, report.to_dict, report._doc):
        with pytest.raises(ValueError, match=f"labels has {length} entries, the policy has 4"):
            call(labels)


def test_executed_pair_reads_only_its_state():
    n = 200_000
    policy = ig.EquilibriumPolicy(p1_action=np.arange(n) % 3,
                                  p2_action=np.where(np.arange(n) % 5 == 0, 2, 0))
    tracemalloc.start()
    try:
        pairs = [policy.executed_pair(s) for s in (0, 1, 5, n - 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == [(0, 2), (1, 0), (0, 2), (1, 0)]
    assert all(type(x) is int for pair in pairs for x in pair)
    # Every state's pairs would take megabytes.
    assert peak < 64 * 1024


@pytest.mark.parametrize("p1,p2,message", [
    ([0, 0.5, 0], [0, 0, 0], "p1_action must be integers"),
    ([0, 0, 0], [0, np.nan, 0], "p2_action must be integers"),
    ([0, 1], [0, 0, 0], "p1_action has 2 states, p2_action has 3"),
    (1, [0], r"p1_action must be one action per state, got shape \(\)"),
    ([0, 1], [[0, 1]], r"p2_action must be one action per state, got shape \(1, 2\)"),
])
def test_a_policy_refuses_actions_that_are_not_one_whole_number_per_state(p1, p2, message):
    with pytest.raises(ValueError, match=message):
        ig.EquilibriumPolicy(p1_action=p1, p2_action=p2)


def _game(kind, seed):
    game = ig.random_game(9, 2, 3, seed=seed)
    return randomly_masked(game, seed) if kind == "masked" else game


def _two_array_policy(mask1, mask2, rng):
    """At each state a costly action that ``mask1``/``mask2`` allow (0 where
    none is), then Player 1's action set to 0 at about a quarter of the
    states and Player 2's at about a third; checks that both players act
    somewhere, and Player 1 alone too."""
    pick = lambda row: rng.choice(np.flatnonzero(row[1:])) + 1 if row[1:].any() else 0
    a = np.array([pick(row) for row in mask1])
    b = np.array([pick(row) for row in mask2])
    a[rng.random(len(a)) < 0.25] = 0
    b[rng.random(len(b)) < 0.35] = 0
    policy = ig.EquilibriumPolicy(p1_action=a, p2_action=b)
    assert (policy.p1_acts & policy.p2_acts).any()
    assert (policy.p1_acts & ~policy.p2_acts).any()
    return policy


CASES = [(kind, seed) for kind in ("plain", "masked") for seed in range(4)]


@pytest.mark.parametrize("kind,seed", CASES)
def test_simulate_executes_the_executed_actions(kind, seed):
    game = _game(kind, seed)
    policy = _two_array_policy(game.mask1, game.mask2, np.random.default_rng(seed))
    traj = ig.simulate(game, policy, 300, seed=seed)
    a, b = policy.executed_actions
    xs = traj.states[:-1]
    assert (policy.p1_acts & policy.p2_acts)[xs].any()
    assert traj.actions1.tolist() == a[xs].tolist()
    assert traj.actions2.tolist() == b[xs].tolist()


@pytest.mark.parametrize("caps", [(1, 2), (2, 1)])
@pytest.mark.parametrize("kind,seed", CASES[::2])
def test_simulate_under_caps_executes_the_executed_actions(kind, seed, caps):
    game = _game(kind, seed)
    aug = ig.augment(game, *caps)
    policy = _two_array_policy(aug.game.mask1, aug.game.mask2, np.random.default_rng(seed))
    traj = ig.simulate(game, policy, 300, seed=seed, start=aug.index(0, *caps), caps=caps)
    a, b = policy.executed_actions
    xs = traj.states[:-1]
    assert traj.actions1.tolist() == a[xs].tolist()
    assert traj.actions2.tolist() == b[xs].tolist()


@pytest.mark.parametrize("kind,seed", CASES)
def test_intervention_times_are_the_executed_actions(kind, seed):
    game = _game(kind, seed)
    rng = np.random.default_rng(seed)
    policy = _two_array_policy(game.mask1, game.mask2, rng)
    traj = rng.integers(game.num_states, size=200)
    a, b = policy.executed_actions
    taus, rhos = ig.intervention_times(game, policy, traj)
    assert (taus, rhos) == loop_intervention_times(game, policy, traj)
    assert taus == np.flatnonzero(a[traj]).tolist() and rhos == np.flatnonzero(b[traj]).tolist()


def _stationary_law(p):
    """The stationary law of the chain ``p``, by one linear solve."""
    ns = len(p)
    lhs = np.vstack([p.T - np.eye(ns), np.ones(ns)])
    return np.linalg.lstsq(lhs, np.eye(ns + 1)[-1], rcond=None)[0]


@pytest.mark.parametrize("kind,seed", CASES)
def test_stationary_distribution_is_the_law_of_the_loop_chain(kind, seed):
    game = _game(kind, seed)
    policy = _two_array_policy(game.mask1, game.mask2, np.random.default_rng(seed))
    p, _ = loop_chain(game, policy.p1_action, policy.p2_action)
    weights, ergodic = ig.stationary_distribution(game, policy)
    assert ergodic
    np.testing.assert_allclose(weights, _stationary_law(p), rtol=0, atol=1e-9)


@pytest.mark.parametrize("caps", [None, (1, 2), (2, 1)])
@pytest.mark.parametrize("kind,seed", CASES)
def test_policy_values_match_evaluate_policies_on_the_dense_model(kind, seed, caps):
    game = _game(kind, seed)
    dense = game if caps is None else ig.augment(game, *caps).game
    policy = _two_array_policy(dense.mask1, dense.mask2, np.random.default_rng(seed))
    want = ig.evaluate_policies(dense, policy.p1_action, policy.p2_action)
    np.testing.assert_allclose(solver._policy_values(game, policy, caps), want,
                               rtol=0, atol=1e-10)
