"""The finish of ``solve`` and ``projected_iteration`` runs on a settled
policy: once the greedy policy read off a sweep executes what the previous
sweep's did, and only if that policy has not been finished before
(``solver._Settled``).  A finish's value depends only on the policy it
evaluates, so the results are pinned bit for bit against the earlier loops
that tried the finish every ``FINISH_EVERY`` sweeps (``_oracles``); only the
sweep counts differ.  The finish evaluates a chain by GMRES where the cost
rule takes it (``solver._krylov_values``) and by the direct solve of
``solver._chain_values`` elsewhere; the two are checked against each other,
and which one each kind of chain takes."""

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


def _parsed(path):
    """The syntax tree of the module at ``path`` and a function giving the
    name of a node's enclosing definition (``""`` at module level)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def owner(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node.name
        return ""

    return tree, owner


def _loop_pieces(path):
    """``(enclosing definition, piece, line)`` of every construction of
    ``_Settled``, read of ``FINISH_MAX_STATES`` and ``"tol must be positive"``
    message in the module at ``path``."""
    tree, owner = _parsed(path)
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


KRYLOV = ("_krylov_values", "_gmres", "KRYLOV_STEP_STATES", "KRYLOV_MIN_STEPS",
           "KRYLOV_WARMUP", "KRYLOV_TOL", "KRYLOV_REFINE_TOL")


def _chain_solve_pieces(path):
    """``(enclosing definition, piece)`` of every read of a name of ``KRYLOV``
    (plain or as an attribute) and of ``linalg.solve`` in the module at
    ``path``."""
    tree, owner = _parsed(path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in KRYLOV:
                yield owner(node), name
            elif name == "solve" and getattr(getattr(node, "value", None), "attr", "") == "linalg":
                yield owner(node), "linalg.solve"


def test_chain_solves_live_in_the_finish_alone():
    # Linear solves on policy chains have one home, in every module: the
    # direct solves are `_chain_values`' (a chain's values) and `_chain_law`'s
    # (its stationary law), and GMRES and its cost rule are read only by the
    # finish's evaluation.  The one other solve is the projector's triangular
    # factor, on no chain.
    pieces = {(path.name, *piece) for path in PACKAGE.glob("*.py")
              for piece in _chain_solve_pieces(path)}
    assert pieces == {("solver.py", "_chain_values", "linalg.solve"),
                      ("solver.py", "_chain_law", "linalg.solve"),
                      ("linfa.py", "_projector", "linalg.solve"),
                      ("solver.py", "_policy_values", "_krylov_values"),
                      ("solver.py", "_krylov_values", "_gmres"),
                      ("solver.py", "_krylov_values", "KRYLOV_STEP_STATES"),
                      ("solver.py", "_krylov_values", "KRYLOV_MIN_STEPS"),
                      ("solver.py", "_krylov_values", "KRYLOV_TOL"),
                      ("solver.py", "_krylov_values", "KRYLOV_REFINE_TOL"),
                      ("solver.py", "_gmres", "KRYLOV_WARMUP")}


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

    def finishing(game, policy, *rest):
        events.append(("finish", _key(policy)))
        return values(game, policy, *rest)

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


def _direct(game, p, r):
    return solver._chain_values(game, p.copy(), r)


def _close_to_direct(game, v, ref):
    # Both solves are backward stable, so each is within a few rounding
    # errors times the condition number of I - gamma P, at most
    # (1 + gamma) / (1 - gamma) in the sup norm, of the exact values.
    g = game.discount
    scale = (1 + g) / (1 - g) * np.finfo(float).eps * max(1.0, np.abs(ref).max())
    assert np.abs(v - ref).max() <= 4 * scale


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.95, 0.99])
@pytest.mark.parametrize("shape", [(256, 3, 3), (400, 2, 4), (800, 3, 3)])
def test_gmres_matches_the_direct_solve_on_random_chains(shape, gamma):
    for seed in range(3):
        game = ig.random_game(*shape, seed=500 + seed, gamma=gamma)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, shape[1], shape[0])
        b = np.where(rng.random(shape[0]) < 0.3, rng.integers(0, shape[2], shape[0]), 0)
        p, r = solver._executed_chain(game, a, b)
        v = solver._krylov_values(p, r, gamma)
        assert v is not None
        _close_to_direct(game, v, _direct(game, p, r))


def test_gmres_matches_the_direct_solve_on_a_masked_game():
    game = randomly_masked(ig.random_game(300, 3, 3, seed=7, gamma=0.95), 7)
    policy = ig.solve(game).policy
    p, r = solver._executed_chain(game, *policy.executed_actions)
    v = solver._krylov_values(p, r, game.discount)
    assert v is not None
    _close_to_direct(game, v, _direct(game, p, r))
    _close_to_direct(game, solver._policy_values(game, policy), _direct(game, p, r))


def test_a_zero_reward_chain_is_worth_zero():
    base = ig.random_game(256, 2, 2, seed=8, gamma=0.9)
    game = ig.ImpulseGame(kernel=base.kernel, reward=np.zeros_like(base.reward),
                          cost1=base.cost1, cost2=base.cost2, cost_floor=base.cost_floor,
                          discount=base.discount)
    p, r = solver._executed_chain(game, np.zeros(256, dtype=int), np.zeros(256, dtype=int))
    v = solver._krylov_values(p, r, game.discount)
    assert v.tobytes() == np.zeros(256).tobytes()
    _close_to_direct(game, v, _direct(game, p, r))


def _cycle_game(ns, gamma):
    """One action per player; every state moves to the next, round a cycle."""
    kernel = np.zeros((ns, 1, 1, ns))
    kernel[np.arange(ns), 0, 0, (np.arange(ns) + 1) % ns] = 1.0
    reward = np.random.default_rng(ns).normal(size=(ns, 1, 1))
    return ig.ImpulseGame(kernel=kernel, reward=reward, cost1=np.zeros((ns, 1)),
                          cost2=np.zeros((ns, 1)), cost_floor=0.1, discount=gamma)


class _Steps:
    """A chain's rows that count the products GMRES takes of them."""

    def __init__(self, p):
        self.p, self.count = p, 0

    def __matmul__(self, x):
        self.count += 1
        return self.p @ x


def test_a_chain_that_defeats_gmres_takes_the_direct_solves_bits():
    # A permutation cycle's spectrum is spread round a circle of radius
    # gamma: GMRES would need about S steps, so it gives up after its warm-up
    # and the finish returns the direct solve's values bit for bit.
    game = _cycle_game(512, 0.99)
    zero = np.zeros(512, dtype=int)
    p, r = solver._executed_chain(game, zero, zero)
    steps = _Steps(p)
    assert solver._krylov_values(steps, r, game.discount) is None
    assert steps.count == solver.KRYLOV_WARMUP
    policy = ig.EquilibriumPolicy(p1_action=zero, p2_action=zero)
    assert solver._policy_values(game, policy).tobytes() == _direct(game, p, r).tobytes()


def _spy_on_the_finish(monkeypatch):
    """Record the finish's evaluations: ``("gmres", took it)`` per call of
    ``_krylov_values`` and ``"direct"`` per direct solve, with the GMRES
    products each call took."""
    events = []
    krylov, direct = solver._krylov_values, solver._chain_values

    def counting_krylov(p, r, gamma):
        steps = _Steps(p)
        v = krylov(steps, r, gamma)
        events.append(("gmres", v is not None, steps.count))
        return v

    def counting_direct(game, p, r):
        events.append(("direct",))
        return direct(game, p, r)

    monkeypatch.setattr(solver, "_krylov_values", counting_krylov)
    monkeypatch.setattr(solver, "_chain_values", counting_direct)
    return events


@pytest.mark.parametrize("gamma", [0.9, 0.95])
@pytest.mark.parametrize("shape", [(800, 3, 3), (300, 7, 7)])
def test_the_dense_shapes_finish_by_gmres_on_the_third_sweep(monkeypatch, shape, gamma):
    # The benchmark's dense shapes (at the CLI's discount and at 0.95): GMRES
    # takes the finish, with no fall back to the direct solve, and its values
    # end the solve on the third sweep as the direct solve's do.
    game = ig.random_game(*shape, seed=0, gamma=gamma)
    events = _spy_on_the_finish(monkeypatch)
    for tol in (1e-9, 1e-12):
        events.clear()
        rep = ig.solve(game, tol=tol)
        assert rep.sweeps == 3 and rep.converged
        assert [e[:2] for e in events] == [("gmres", True)]


@pytest.mark.parametrize("grid", [11, 17])
def test_the_duopoly_keeps_the_direct_solve_and_its_report(monkeypatch, grid):
    # The duopoly's local chains make GMRES slow: at grid 11 (121 states) it
    # is not tried, at grid 17 (289) it gives up after its warm-up at the
    # first finish, and the later finishes take the direct solve alone.  The
    # report is the direct solve's bit for bit.
    game = ig.build_duopoly_game(ig.DuopolyParams(grid_size=grid))
    events = _spy_on_the_finish(monkeypatch)
    rep = ig.solve(game)
    tried = grid * grid // solver.KRYLOV_STEP_STATES >= solver.KRYLOV_MIN_STEPS
    finish = [("gmres", False, solver.KRYLOV_WARMUP if tried else 0), ("direct",)]
    assert len(events) > len(finish) and events == finish + [("direct",)] * (len(events) - 2)
    monkeypatch.setattr(solver, "_krylov_values", lambda p, r, gamma: None)
    _same_report(rep, ig.solve(game))


@pytest.mark.parametrize("grid,once,every", [(17, [False], [False] * 3),
                                             (31, [True, True, False], [True, True, False, False])],
                         ids=["grid17", "grid31"])
def test_a_run_stops_trying_gmres_once_it_gives_up(monkeypatch, grid, once, every):
    # `_gmres`' entries, True where it converged.  Once GMRES gives up on one
    # of a run's chains, the run's later finishes go straight to the direct
    # solve.  At grid 17 the first of `solve`'s three finishes gives up; at
    # grid 31 the first finish converges (its solve and its refinement) and
    # the second gives up, so the third is not tried.  The oracle's solve is
    # a run like `solve`'s, and each of its best responses a run of its own
    # that gives up at its first finish.  The reports are bit for bit those
    # of a finish that tries GMRES every time (`every`).
    entries, run_gmres = [], solver._gmres

    def counting(*args):
        x = run_gmres(*args)
        entries.append(x is not None)
        return x

    monkeypatch.setattr(solver, "_gmres", counting)
    game = ig.build_duopoly_game(ig.DuopolyParams(grid_size=grid))
    rep = ig.solve(game)
    assert entries == once
    entries.clear()
    oracle = ig.minimax_oracle(game)
    assert entries == once + [False, False]
    values = solver._policy_values
    monkeypatch.setattr(solver, "_policy_values",
                        lambda game, policy, caps=None, gmres=None: values(game, policy, caps))
    entries.clear()
    _same_report(rep, ig.solve(game))
    assert entries == every
    for got, want in zip(oracle, ig.minimax_oracle(game)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
