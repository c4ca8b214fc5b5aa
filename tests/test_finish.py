"""The finish of ``solve`` and ``projected_iteration`` runs on a settled
policy: once the greedy policy read off a sweep executes what the previous
sweep's did, and only if that policy has not been finished before
(``solver._Settled``).  A finish's value depends only on the policy it
evaluates, so the results are pinned bit for bit against the earlier loops
that tried the finish every ``FINISH_EVERY`` sweeps (``_oracles``); only the
sweep counts differ."""

import ast
from pathlib import Path

import numpy as np
import pytest

import impulsegames as ig
from _oracles import FINISH_EVERY, cadence_projected_iteration, cadence_solve
from conftest import randomly_masked
from impulsegames import linfa, solver

SHAPES = [(6, 2, 2), (9, 1, 3), (4, 3, 0), (7, 0, 2), (10, 2, 3), (3, 1, 1)]

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "impulsegames"


def _loop_pieces(path):
    """``(enclosing definition, piece, line)`` of every construction of
    ``_Settled``, read of ``FINISH_MAX_STATES`` and ``"tol must be positive"``
    message in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def owner(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return ""

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "_Settled":
                yield owner(node), "_Settled()", node.lineno
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            if getattr(node, "id", getattr(node, "attr", None)) == "FINISH_MAX_STATES":
                yield owner(node), "FINISH_MAX_STATES", node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("tol must be positive")):
            yield owner(node), "tol refusal", node.lineno


def test_the_loop_lives_in_iterate_alone():
    # `solve` and `projected_iteration` share `solver._iterate`: the finish
    # rule, the state limit on the finish and the tol refusal live there.
    pieces = [(path.name, name, piece, line) for path in sorted(PACKAGE.glob("*.py"))
              for name, piece, line in _loop_pieces(path)]
    outside = sorted(f"{module}:{line} {piece} in {name or 'module'}"
                     for module, name, piece, line in pieces
                     if (module, name) != ("solver.py", "_iterate"))
    assert outside == []
    assert sorted(piece for *_, piece, _ in pieces) == \
        ["FINISH_MAX_STATES", "_Settled()", "tol refusal"]


def _same_report(rep, ref):
    assert rep.value.tobytes() == ref.value.tobytes()
    assert rep.q.tobytes() == ref.q.tobytes()
    for name in ("p1_action", "p2_action"):
        assert getattr(rep.policy, name).tobytes() == getattr(ref.policy, name).tobytes()
    assert rep.residual == ref.residual and rep.error_bound == ref.error_bound
    assert rep.converged == ref.converged


@pytest.mark.parametrize("caps", [None, (2, 3), (8, 8)])
@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("masked", [False, True])
def test_solve_matches_the_cadence_loop_bit_for_bit(masked, gamma, caps):
    for k, shape in enumerate(SHAPES):
        game = ig.random_game(*shape, seed=300 + k, gamma=gamma)
        if masked:
            game = randomly_masked(game, k)
        for tol in (1e-9, 1e-12):
            rep = ig.solve(game, tol=tol, caps=caps)
            _same_report(rep, cadence_solve(game, tol=tol, caps=caps))


@pytest.mark.parametrize("caps", [None, (2, 3)])
def test_solve_matches_the_cadence_loop_on_the_duopoly(caps):
    game = ig.build_duopoly_game(ig.DuopolyParams())
    rep = ig.solve(game, caps=caps)
    ref = cadence_solve(game, caps=caps)
    _same_report(rep, ref)
    assert rep.sweeps < ref.sweeps


@pytest.mark.parametrize("shape", [(800, 3, 3), (300, 7, 7)])
def test_solve_takes_its_finish_after_the_first_settled_sweeps(shape):
    # The benchmark's dense shapes: the greedy policy settles at once, so the
    # finish runs on the third sweep where the cadence waited for the eleventh.
    game = ig.random_game(*shape, seed=0, gamma=0.95)
    rep, ref = ig.solve(game), cadence_solve(game)
    _same_report(rep, ref)
    assert (rep.sweeps, ref.sweeps) == (3, FINISH_EVERY + 1)


def _fit_cases():
    """(id, game, basis, weights): random games with a random basis and with
    the identity basis, and the duopoly fits on the identity basis of the
    121-state game and on a polynomial basis of the 81-state one."""
    cases = []
    for k in range(8):
        rng = np.random.default_rng(100 + k)
        ns = int(rng.integers(2, 12))
        game = ig.random_game(ns, int(rng.integers(0, 3)), int(rng.integers(0, 3)), seed=k,
                              gamma=[0.5, 0.9, 0.99][k % 3])
        basis = ig.FeatureBasis(rng.normal(size=(ns, int(rng.integers(1, ns + 1)))))
        w = linfa.bound_weights(game, ig.solve(game, tol=1e-11).value).weights
        cases.append((f"random-{k}", game, basis, w))
        cases.append((f"identity-{k}", game, linfa.identity_basis(ns), np.ones(ns)))
    x, y = (g.ravel() for g in np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9),
                                            indexing="ij"))
    poly = np.stack([np.ones_like(x), x, y, x * y, x * x, y * y, x * x * y, x * y * y], 1)
    for size, basis in [(11, np.eye(121)), (9, poly)]:
        game = ig.build_duopoly_game(ig.DuopolyParams(grid_size=size))
        value = ig.solve(game, tol=1e-10).value
        cases.append((f"duopoly-{size * size}", game, ig.FeatureBasis(basis),
                      linfa.bound_weights(game, value).weights))
    return cases


# Cases whose cadence loop reaches `tol` by sweeps alone, before its first
# finish, while the settled rule finishes: the two reach the fixed point by
# different roundings.  Largest coefficient gap measured, per combinator.
DIFFERS = {"random-6": {"T": 1.7e-16, "F": 7.8e-15}}


@pytest.mark.parametrize("combinator", ["T", "F"])
def test_projected_iteration_matches_the_cadence_loop_bit_for_bit(combinator):
    differs = {}
    for name, game, basis, w in _fit_cases():
        r, deltas = ig.projected_iteration(game, basis, w, combinator)
        ref, ref_deltas = cadence_projected_iteration(game, basis, w, combinator)
        assert deltas[-1] <= 1e-12 and len(deltas) <= len(ref_deltas)
        if r.tobytes() != ref.tobytes():
            differs[name] = float(np.abs(r - ref).max())
            assert len(ref_deltas) <= FINISH_EVERY
    assert sorted(differs) == sorted(k for k, v in DIFFERS.items() if combinator in v)
    for name, gap in differs.items():
        assert gap <= DIFFERS[name][combinator]


def test_the_rule_takes_a_policy_once_it_repeats_and_never_twice():
    def policy(*actions):
        return ig.EquilibriumPolicy(p1_action=np.array(actions), p2_action=np.zeros(3, dtype=int))

    a, b = policy(0, 1, 0), policy(1, 0, 0)
    settled = solver._Settled()
    assert [settled(p) for p in (a, a, a, b, a, a, b, b, b)] == \
        [False, True, False, False, False, False, False, True, False]
    # Policies that execute the same pairs are the same to the rule: Player
    # 2's action hides Player 1's.
    both = ig.EquilibriumPolicy(p1_action=np.array([2, 0, 0]), p2_action=np.array([1, 0, 0]))
    hidden = ig.EquilibriumPolicy(p1_action=np.array([0, 0, 0]), p2_action=np.array([1, 0, 0]))
    settled = solver._Settled()
    assert [settled(both), settled(hidden)] == [False, True]


def _settled_schedule(events, tail):
    """Check ``events``, ``("read" | "finish", key)`` in call order, against
    the rule: a finish comes right after a read that repeats the read before
    it and whose policy was never finished before, and after every such read;
    the last ``tail`` reads come after the loop and take no finish.  Returns
    the number of finishes."""
    reads = [i for i, (kind, _) in enumerate(events) if kind == "read"]
    assert reads and reads[0] == 0
    finished, last = set(), None
    for n, i in enumerate(reads):
        key = events[i][1]
        take = key == last and key not in finished and n < len(reads) - tail
        last = key
        after = events[i + 1] if i + 1 < len(events) else ("read", None)
        assert after == ("finish", key) if take else after[0] == "read"
        if take:
            finished.add(key)
    assert sum(kind == "finish" for kind, _ in events) == len(finished)
    return len(finished)


def _key(policy):
    return b"".join(a.tobytes() for a in policy.executed_actions)


@pytest.mark.parametrize("caps", [None, (2, 3)])
def test_solve_finishes_only_a_settled_policy_not_tried_before(monkeypatch, caps):
    events = []
    read_off, values = solver._policy, solver._policy_values

    def reading(t):
        policy = read_off(t)
        events.append(("read", _key(policy)))
        return policy

    def finishing(game, policy, caps=None):
        events.append(("finish", _key(policy)))
        return values(game, policy, caps)

    monkeypatch.setattr(solver, "_policy", reading)
    monkeypatch.setattr(solver, "_policy_values", finishing)
    finishes = 0
    for k, shape in enumerate(SHAPES):
        for gamma in (0.9, 0.99):
            game = randomly_masked(ig.random_game(*shape, seed=400 + k, gamma=gamma), k)
            events.clear()
            rep = ig.solve(game, tol=1e-12, caps=caps)
            # one read per sweep, and the report's read-off
            assert sum(kind == "read" for kind, _ in events) == rep.sweeps + 1
            finishes += _settled_schedule(events, tail=1)
    assert finishes >= len(SHAPES)


@pytest.mark.parametrize("combinator", ["T", "F"])
def test_projected_iteration_finishes_only_a_settled_policy_not_tried_before(monkeypatch,
                                                                              combinator):
    events = []
    read_off, finish = linfa._nest_policy, linfa._finish

    def reading(t, combinator):
        policy = read_off(t, combinator)
        events.append(("read", _key(policy)))
        return policy

    def finishing(game, phi, m, policy):
        events.append(("finish", _key(policy)))
        return finish(game, phi, m, policy)

    cases, finishes = _fit_cases(), 0
    for name, game, basis, w in cases:
        monkeypatch.setattr(linfa, "_nest_policy", reading)
        monkeypatch.setattr(linfa, "_finish", finishing)
        events.clear()
        _, deltas = ig.projected_iteration(game, basis, w, combinator)
        assert sum(kind == "read" for kind, _ in events) == len(deltas)
        finishes += _settled_schedule(events, tail=0)
        monkeypatch.undo()
    assert finishes >= len(cases) // 2
