"""Independent reference implementations used only to cross-check the library.

Everything here is written with plain per-state loops, deliberately sharing
no code with the vectorised solver; ``loop_vi`` iterates whatever operator
it is handed.  The cadence loops are the exception: they drive the library's
own operator and finish on the earlier fixed schedule, so that only the
schedule differs from the library's loops.
"""

import itertools

import numpy as np


def single_agent_impulse_vi(game, tol=1e-13, max_sweeps=1_000_000):
    """Value iteration for the one-player costly-action problem.

    Ignores Player 2 entirely: per state, the better of the best costly
    action (cost subtracted) and doing nothing.
    """
    ns = game.num_states
    v = [0.0] * ns
    for _ in range(max_sweeps):
        nv = []
        for s in range(ns):
            wait = game.reward[s, 0, 0]
            for t in range(ns):
                wait += game.discount * game.kernel[s, 0, 0, t] * v[t]
            best = wait
            for a in range(1, game.num_actions1):
                if not game.mask1[s, a]:
                    continue
                val = game.reward[s, a, 0] - game.cost1[s, a]
                for t in range(ns):
                    val += game.discount * game.kernel[s, a, 0, t] * v[t]
                if val > best:
                    best = val
            nv.append(best)
        delta = max(abs(a - b) for a, b in zip(nv, v))
        v = nv
        if delta <= tol:
            break
    return np.array(v)


def loop_vi(operator, v0, gamma, tol=1e-9, max_sweeps=100_000):
    """Plain value iteration, sweeps only: apply ``operator`` until the sweep
    residual drops below ``tol * (1 - gamma) / gamma``.  Returns
    ``(value, sweeps, residual)``."""
    threshold = tol * (1.0 - gamma) / gamma if gamma > 0 else tol
    v = np.array(v0, dtype=float)
    residual, sweeps = float("inf"), 0
    while sweeps < max_sweeps and not residual <= threshold:
        nv = operator(v)
        residual = float(np.abs(nv - v).max())
        v = nv
        sweeps += 1
    return v, sweeps, residual


def sweep_projected_iteration(operator, basis, weights, tol=1e-12, max_iter=100_000):
    """Projected value iteration, sweeps only: each sweep projects
    ``operator``'s field onto the columns of ``basis`` by a weighted
    ``np.linalg.lstsq``, until a coefficient delta is at most ``tol``.
    Returns ``(coefficients, deltas)``."""
    phi = np.asarray(basis, dtype=float)
    w = np.asarray(weights, dtype=float)
    sq = np.sqrt(w / w.sum())
    r = np.zeros(phi.shape[1])
    deltas = []
    for _ in range(max_iter):
        nr, *_ = np.linalg.lstsq(phi * sq[:, None], operator(phi @ r) * sq, rcond=None)
        delta = float(np.abs(nr - r).max())
        deltas.append(delta)
        r = nr
        if delta <= tol:
            break
    return r, deltas


# The sweeps between two finishes of the cadence loops below.
FINISH_EVERY = 10


def cadence_solve(game, tol=1e-9, max_sweeps=100_000, caps=None, every=FINISH_EVERY):
    """``solver.solve`` with its finish on a fixed cadence: every ``every``
    sweeps, in place of a sweep and counted as one, the exact value of the
    greedy policy's executed chain and one sweep on it, kept only when its
    residual is below the last sweep's.  The operator, read-off and chain
    solve are the library's, so a report compares bit for bit.  Returns a
    ``solver.SolveReport``."""
    from impulsegames import solver

    g = game.discount
    threshold = tol * (1.0 - g) / g if g > 0 else tol
    ny, nz = (1, 1) if caps is None else (caps[0] + 1, caps[1] + 1)
    v = np.zeros(game.num_states * ny * nz)
    residual, sweeps, converged = float("inf"), 0, False
    while sweeps < max_sweeps:
        if sweeps and sweeps % every == 0:
            w = solver._policy_values(game, solver.extract_policy(game, v, caps), caps)
            nw = solver.bellman(game, w, caps)
            sweeps += 1
            jump = float(np.abs(nw - w).max())
            if not jump < residual:
                continue
            v, residual = nw, jump
        else:
            nv = solver.bellman(game, v, caps)
            residual = float(np.abs(nv - v).max())
            v = nv
            sweeps += 1
        if residual <= threshold:
            converged = True
            break
    return solver.SolveReport(
        value=v, q=solver.q_from_value(game, v, caps),
        policy=solver.extract_policy(game, v, caps), sweeps=sweeps, residual=residual,
        error_bound=g * residual / (1.0 - g), converged=converged)


def cadence_projected_iteration(game, basis, weights, combinator="T", tol=1e-12,
                                every=FINISH_EVERY):
    """``linfa.projected_iteration`` with its finish on a fixed cadence: every
    ``every`` iterations the library's ``linfa._finish`` on the policy the
    nesting picks and one projected sweep from it, kept when its delta is
    below the sweep's.  Returns ``(coefficients, deltas)``."""
    from impulsegames import linfa, solver

    m = linfa._projector(basis, weights)
    phi = basis.matrix
    r = np.zeros(basis.num_features)
    deltas = []
    for it in range(linfa.PROJECTED_MAX_ITER):
        t = solver.operator_terms(game, phi @ r)
        nr = m @ linfa._nest(t, combinator)
        delta = float(np.abs(nr - r).max())
        if it and it % every == 0:
            jump = linfa._finish(game, phi, m, linfa._nest_policy(t, combinator))
            if jump is not None:
                nw = m @ linfa._nest(solver.operator_terms(game, phi @ jump), combinator)
                jump_delta = float(np.abs(nw - jump).max())
                if jump_delta < delta:
                    nr, delta = nw, jump_delta
        deltas.append(delta)
        r = nr
        if delta <= tol:
            break
    return r, deltas


def mrp_value(p, r, gamma):
    """Exact value of an uncontrolled discounted chain."""
    n = len(r)
    return np.linalg.solve(np.eye(n) - gamma * np.asarray(p), np.asarray(r))


def projected_finish(p, reward, phi, m, gamma):
    """The projected fixed point of the chain with kernel rows ``p`` and
    rewards ``reward`` on the basis ``phi`` with weighted projector ``m``, by
    the expression ``linfa._finish`` once held:
    ``solve(I - gamma M P Phi, M r)``, ``I`` from ``np.eye``."""
    return np.linalg.solve(np.eye(m.shape[0]) - gamma * (m @ (p @ phi)), m @ reward)


# The damped power iteration's L1 step tolerance and iteration cap.
POWER_TOL = 1e-12
POWER_MAX_ITER = 200_000


def power_stationary(p):
    """Stationary law of the chain with kernel rows ``p`` by damped power
    iteration on ``(I + p) / 2`` from uniform weights, with the ergodicity
    rule ``linfa.stationary_distribution`` once had: returns ``(weights,
    ergodic)``, ``ergodic`` False where the L1 step did not reach
    ``POWER_TOL`` within ``POWER_MAX_ITER`` iterations or some weight is at
    most 1e-9.  The weights are the iteration's own either way."""
    ns = len(p)
    lazy = 0.5 * (np.eye(ns) + p)
    w = np.full(ns, 1.0 / ns)
    for _ in range(POWER_MAX_ITER):
        w, prev = w @ lazy, w
        if np.abs(w - prev).sum() <= POWER_TOL:
            break
    else:
        return w / w.sum(), False
    w = w / w.sum()
    return w, bool((w > 1e-9).all())


def best_single_shot_value(game, n_budget=1):
    """Brute-force optimum of a one-player game whose action budget is 1.

    Enumerates every stationary rule "at y=1 play action pol(s)" and
    evaluates it exactly on the (state, budget-left) chain built right here.
    """
    assert game.num_actions2 == 1
    ns, na = game.num_states, game.num_actions1
    gamma = game.discount
    best = np.full(ns, -np.inf)
    for pol in itertools.product(range(na), repeat=ns):
        # chain over (s, y): index s for y=1, ns + s for y=0
        p = np.zeros((2 * ns, 2 * ns))
        r = np.zeros(2 * ns)
        for s in range(ns):
            a = pol[s]
            if a == 0:
                p[s, :ns] = game.kernel[s, 0, 0]
                r[s] = game.reward[s, 0, 0]
            else:
                p[s, ns:] = game.kernel[s, a, 0]
                r[s] = game.reward[s, a, 0] - game.cost1[s, a]
            p[ns + s, ns:] = game.kernel[s, 0, 0]
            r[ns + s] = game.reward[s, 0, 0]
        v = np.linalg.solve(np.eye(2 * ns) - gamma * p, r)
        best = np.maximum(best, v[:ns])
    return best


def loop_operator(game, v, caps=None, tie_eps=1e-10):
    """The one-step operator and its greedy policy, one state at a time.

    Per state: min( max( best costly Player-1 pair (a, 0), null pair ),
    best costly Player-2 pair (0, b) ), over available actions only.  A
    player's flag is raised on a strict improvement beyond ``tie_eps``; on
    equal values the lower action index wins.  With ``caps=(n1, n2)`` the
    states are flat ``(s, y, z)``, index ``(s * (n1+1) + y) * (n2+1) + z``,
    and a costly action needs its player's counter above zero and moves it
    down by one.  Returns ``(values, p1_acts, p1_action, p2_acts, p2_action)``.
    """
    ny, nz = (1, 1) if caps is None else (caps[0] + 1, caps[1] + 1)
    spend = 0 if caps is None else 1
    ns, g = game.num_states, game.discount
    out = ([], [], [], [], [])

    def cont(s, a, b, y, z):
        total = float(game.reward[s, a, b])
        for t in range(ns):
            total += g * game.kernel[s, a, b, t] * v[(t * ny + y) * nz + z]
        return total

    for s in range(ns):
        for y in range(ny):
            for z in range(nz):
                noop = cont(s, 0, 0, y, z)
                best1, act1 = None, 0
                if y >= spend:
                    for a in range(1, game.num_actions1):
                        if game.mask1[s, a]:
                            val = cont(s, a, 0, y - spend, z) - game.cost1[s, a]
                            if best1 is None or val > best1:
                                best1, act1 = val, a
                inner = noop if best1 is None else max(best1, noop)
                best2, act2 = None, 0
                if z >= spend:
                    for b in range(1, game.num_actions2):
                        if game.mask2[s, b]:
                            val = cont(s, 0, b, y, z - spend) + game.cost2[s, b]
                            if best2 is None or val < best2:
                                best2, act2 = val, b
                p1 = best1 is not None and best1 > noop + tie_eps
                p2 = best2 is not None and best2 < inner - tie_eps
                for col, x in zip(out, (inner if best2 is None else min(inner, best2),
                                        p1, act1 if p1 else 0, p2, act2 if p2 else 0)):
                    col.append(x)
    return tuple(np.array(col) for col in out)


def loop_chain(game, pol1, pol2):
    """Kernel rows and net rewards of the executed pairs, one state at a time
    (Player 2's non-null action suppresses Player 1's)."""
    ns = game.num_states
    p = np.zeros((ns, ns))
    r = np.zeros(ns)
    for s in range(ns):
        a, b = (0, pol2[s]) if pol2[s] else (pol1[s], 0)
        p[s] = game.kernel[s, a, b]
        r[s] = game.reward[s, a, b] - (game.cost1[s, a] if a else 0.0) + (
            game.cost2[s, b] if b else 0.0)
    return p, r


def _policies(game, mask):
    """Every deterministic policy of the player whose action mask is ``mask``."""
    return itertools.product(*[[x for x in range(mask.shape[1]) if x == 0 or mask[s, x]]
                               for s in range(game.num_states)])


def _loop_value(game, pol1, pol2):
    """Exact value of the chain the policy pair executes, from :func:`loop_chain`."""
    return mrp_value(*loop_chain(game, pol1, pol2), game.discount)


def loop_oracle(game):
    """Per-state upper (min over Player 2 of max over Player 1) and lower
    (max-min) values over every deterministic policy pair, one per-state
    chain solve per pair."""
    values = np.array([[_loop_value(game, p1, p2) for p2 in _policies(game, game.mask2)]
                       for p1 in _policies(game, game.mask1)])
    return values.max(axis=0).min(axis=0), values.min(axis=1).max(axis=0)


def loop_best_response(game, pol1, pol2, player):
    """``player``'s best-response value at every state against the other's
    fixed policy: the per-state max (Player 1) or min (Player 2) over every
    deterministic policy of ``player``."""
    if player == 1:
        return np.max([_loop_value(game, p1, pol2) for p1 in _policies(game, game.mask1)], axis=0)
    return np.min([_loop_value(game, pol1, p2) for p2 in _policies(game, game.mask2)], axis=0)


def _cell_pairs(game):
    """The pairs of the columns of ``ImpulseGame.cells``, written out here:
    ``(a, 0)`` for every ``a``, then ``(0, b)`` for ``b >= 1``."""
    return ([(a, 0) for a in range(game.num_actions1)]
            + [(0, b) for b in range(1, game.num_actions2)])


def loop_expect(game, x, state=None):
    """E[x(s') | s, cell] at every state, or at ``state`` alone, summed one
    kernel entry at a time from the full kernel's row of each cell's pair;
    ``x`` has the states on its leading axis and any trailing axes."""
    x = np.asarray(x, dtype=float)
    pairs = _cell_pairs(game)
    states = range(game.num_states) if state is None else [state]
    out = np.zeros((len(states), len(pairs)) + x.shape[1:])
    for i, s in enumerate(states):
        for c, (a, b) in enumerate(pairs):
            for t in range(game.num_states):
                out[i, c] += game.kernel[s, a, b, t] * x[t]
    return out if state is None else out[0]


def _counter_q(game, ev, caps):
    """``q`` over the augmented states from the expectations ``ev`` ``(S, A, B,
    ny, nz)`` of the value grid: a pair where Player 1 acts reads its next
    value one ``y`` step down, then one where Player 2 acts one ``z`` step
    down, as ``solver.q_from_value`` has always placed them."""
    ns, na, nb = game.reward.shape
    if caps is not None:
        ev[:, 1:, :, 1:, :] = ev[:, 1:, :, :-1, :].copy()
        ev[:, :, 1:, :, 1:] = ev[:, :, 1:, :, :-1].copy()
    q = game.reward[..., None, None] + game.discount * ev
    return q.transpose(0, 3, 4, 1, 2).reshape(-1, na, nb)


def _grid(game, v, caps):
    ny, nz = (1, 1) if caps is None else (caps[0] + 1, caps[1] + 1)
    return np.asarray(v, dtype=float).reshape(game.num_states, ny * nz), (ny, nz)


def full_kernel_q(game, v, caps=None):
    """``q_from_value`` as it was computed before a game split its kernel: one
    product of the whole ``(S*A*B, S)`` kernel with the value grid.  A row of
    another product may round differently in its last bits, where the BLAS
    takes the last rows of a product by another path."""
    ns, na, nb = game.reward.shape
    x, layers = _grid(game, v, caps)
    ev = (game.kernel.reshape(-1, ns) @ x).reshape((ns, na, nb) + layers)
    return _counter_q(game, ev, caps)


def pair_table_q(game, v, caps=None):
    """``q_from_value`` from the full kernel's rows gathered by loops into a
    table of the executable cells' rows and one of the rows where both
    players act, each taken in one product with the value grid, and the
    results put back at their pairs by loops."""
    ns, na, nb = game.reward.shape
    x, layers = _grid(game, v, caps)
    both_pairs = [(a, b) for a in range(1, na) for b in range(1, nb)]
    ev = np.empty((ns, na, nb) + layers)
    for pairs in (_cell_pairs(game), both_pairs):
        rows = np.array([[game.kernel[s, a, b] for a, b in pairs] for s in range(ns)])
        products = (rows.reshape(-1, ns) @ x).reshape((ns, len(pairs)) + layers)
        for s in range(ns):
            for c, (a, b) in enumerate(pairs):
                ev[s, a, b] = products[s, c]
    return _counter_q(game, ev, caps)


def loop_chain_rows(game, cells):
    """Kernel rows and net rewards (-inf/+inf on a masked action) of one cell
    per state, ``cells[..., s]`` at state ``s``, one entry at a time."""
    cells = np.asarray(cells)
    pairs = _cell_pairs(game)
    p = np.zeros(cells.shape + (game.num_states,))
    r = np.zeros(cells.shape)
    for idx in np.ndindex(cells.shape):
        s = idx[-1]
        a, b = pairs[cells[idx]]
        p[idx] = game.kernel[s, a, b]
        r[idx] = game.reward[s, a, b]
        if a:
            r[idx] = r[idx] - game.cost1[s, a] if game.mask1[s, a] else -np.inf
        if b:
            r[idx] = r[idx] + game.cost2[s, b] if game.mask2[s, b] else np.inf
    return p, r


def pair_cell(game, pair):
    """The column of ``ImpulseGame.cells`` that the pair ``(a, 0)`` or ``(0, b)``
    occupies, written out here: ``a``, or ``A - 1 + b`` where Player 2 acts."""
    a, b = pair
    return game.num_actions1 - 1 + b if b else a


def mask_explore(game, s, rng):
    """The exploration draw read from the mask rows at ``s``: a uniform slot
    among no-op / Player 1 / Player 2 (a side with no available costly action
    drops out), then a uniform available action within it."""
    slots = [0]
    if game.num_actions1 > 1 and game.mask1[s, 1:].any():
        slots.append(1)
    if game.num_actions2 > 1 and game.mask2[s, 1:].any():
        slots.append(2)
    slot = slots[rng.integers(len(slots))]
    if slot == 0:
        return 0, 0
    mask = game.mask1 if slot == 1 else game.mask2
    choices = np.flatnonzero(mask[s, 1:]) + 1
    x = int(choices[rng.integers(len(choices))])
    return (x, 0) if slot == 1 else (0, x)


class SearchsortedSampler:
    """The next-state sampler on the joint ``(S, A, B, S)`` tables: a mask
    check by array indexing, then ``searchsorted`` on the pair's cumulative
    kernel row, clamped to the row's last state with positive mass."""

    def __init__(self, game, rng):
        self.game, self.rng = game, rng
        self.cum = np.cumsum(game.kernel, axis=3)
        self.last = game.num_states - 1 - np.argmax(game.kernel[..., ::-1] > 0, axis=3)

    def step(self, s, pair):
        a, b = pair
        game = self.game
        if (a != 0 and not game.mask1[s, a]) or (b != 0 and not game.mask2[s, b]):
            raise RuntimeError(f"masked action ({a}, {b}) attempted at state {s}")
        nxt = int(self.cum[s, a, b].searchsorted(self.rng.random(), side="right"))
        return min(nxt, int(self.last[s, a, b])), float(game.reward[s, a, b])


def copying_random_game_tables(num_states, num_actions1, num_actions2, seed,
                               cost_floor=0.1):
    """The draws of ``random_game`` built the way it first built them: an
    out-of-place quotient of the drawn kernel by its row sums, then the
    game's own copy of every table.  Returns ``(kernel, reward, cost1, cost2)``."""
    na, nb = num_actions1 + 1, num_actions2 + 1
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=(num_states, na, nb, num_states))
    kernel = raw / raw.sum(axis=3, keepdims=True)
    reward = rng.uniform(-1.0, 1.0, size=(num_states, na, nb))
    cost1 = np.zeros((num_states, na))
    if num_actions1:
        cost1[:, 1:] = rng.uniform(cost_floor, 2 * cost_floor, size=(num_states, num_actions1))
    cost2 = np.zeros((num_states, nb))
    if num_actions2:
        cost2[:, 1:] = rng.uniform(cost_floor, 2 * cost_floor, size=(num_states, num_actions2))
    return tuple(np.array(t, dtype=float) for t in (kernel, reward, cost1, cost2))


def loop_duopoly_tables(params):
    """The two kernel tables of ``build_duopoly_game(params)`` built the way
    it first built them: per action pair, ``duopoly_step_mean`` and one
    ``_axis_distribution`` per firm, their outer product divided out of place
    by its row sums into a full ``(S, A, B, S)`` kernel, which the public
    constructor then splits.  Returns ``(cell_kernel, both_kernel)``."""
    from impulsegames import ImpulseGame, duopoly_step_mean
    from impulsegames.envs import _axis_distribution
    g = params.grid_size
    grid = np.linspace(0.0, params.market_size, g)
    s1, s2 = np.repeat(grid, g), np.tile(grid, g)
    ns = g * g
    levels1 = (0.0,) + tuple(params.investments1)
    levels2 = (0.0,) + tuple(params.investments2)
    if params.noise_nodes > 1:
        nodes, w = np.polynomial.hermite_e.hermegauss(params.noise_nodes)
        weights = w / w.sum()
    else:
        nodes, weights = np.zeros(1), np.ones(1)
    kernel = np.empty((ns, len(levels1), len(levels2), ns))
    for ai, u1 in enumerate(levels1):
        for bi, u2 in enumerate(levels2):
            d1, d2 = duopoly_step_mean(params, s1, s2, u1, u2)
            p1 = _axis_distribution(d1, params.sigma1, grid, nodes, weights)
            p2 = _axis_distribution(d2, params.sigma2, grid, nodes, weights)
            joint = np.einsum("si,sj->sij", p1, p2).reshape(ns, ns)
            kernel[:, ai, bi, :] = joint / joint.sum(axis=1, keepdims=True)
    game = ImpulseGame(kernel, np.zeros(kernel.shape[:3]), np.zeros((ns, len(levels1))),
                       np.zeros((ns, len(levels2))), 1.0, params.gamma)
    return game.cell_kernel, game.both_kernel


def loop_intervention_times(game, policy, trajectory):
    """Indices along a state trajectory where each player's action executes,
    one state at a time: ``(taus, rhos)`` for Player 1 and Player 2."""
    taus, rhos = [], []
    for t, s in enumerate(trajectory):
        s = int(s)
        if not (0 <= s < game.num_states):
            raise IndexError(f"trajectory state {s} out of range")
        if policy.p2_acts[s]:
            rhos.append(t)
        elif policy.p1_acts[s]:
            taus.append(t)
    return taus, rhos


def loop_learn(game, config, q0=None, reference_q=None, tie_eps=1e-10):
    """The simulated-play learner as a per-step loop on the joint ``(S, A, B)``
    table, updating with the raw reward.

    It takes the same random draws in the same order as ``qlearn.learn`` on a
    game (reset state, exploration coin, slot and action, next-state uniform)
    but does its own greedy read-off, sampling and update, with the schedule
    constants ``qlearn.LEARN_EPSILON_END`` and ``LEARN_EVAL_EVERY``: exploration
    decays linearly from ``epsilon_start`` to the lower of the two.  Returns
    ``(q, visits, rows)``.
    """
    from impulsegames.qlearn import LEARN_EPSILON_END, LEARN_EVAL_EVERY

    rng = np.random.default_rng(config.seed)
    ns, na, nb = game.num_states, game.num_actions1, game.num_actions2
    q = np.zeros((ns, na, nb)) if q0 is None else np.array(q0, dtype=float)
    visits = np.zeros((ns, na, nb), dtype=np.int64)
    rows = []

    def read_off(s):
        noop = q[s, 0, 0]
        inner, pair = noop, (0, 0)
        if na > 1 and game.mask1[s, 1:].any():
            vals = np.where(game.mask1[s, 1:], q[s, 1:, 0] - game.cost1[s, 1:], -np.inf)
            i = int(vals.argmax())
            inner = max(inner, vals[i])
            if vals[i] > noop + tie_eps:
                pair = (i + 1, 0)
        out = inner
        if nb > 1 and game.mask2[s, 1:].any():
            vals = np.where(game.mask2[s, 1:], q[s, 0, 1:] + game.cost2[s, 1:], np.inf)
            j = int(vals.argmin())
            out = min(out, vals[j])
            if vals[j] < inner - tie_eps:
                pair = (0, j + 1)
        return float(out), pair

    s = int(rng.integers(ns))
    epoch_sup = 0.0
    for t in range(config.steps):
        eps = config.epsilon_start + (
            min(config.epsilon_start, LEARN_EPSILON_END) - config.epsilon_start) * (
            t / config.steps)
        a, b = mask_explore(game, s, rng) if eps > 0.0 and rng.random() < eps else read_off(s)[1]
        row = game.kernel[s, a, b]
        drawn = int(np.cumsum(row).searchsorted(rng.random(), side="right"))
        s2 = min(drawn, ns - 1 - int(np.argmax(row[::-1] > 0)))
        alpha = (1.0 + visits[s, a, b]) ** -config.omega
        visits[s, a, b] += 1
        target = float(game.reward[s, a, b]) + game.discount * read_off(s2)[0]
        delta = alpha * (target - q[s, a, b])
        q[s, a, b] += delta
        epoch_sup = max(epoch_sup, abs(delta))
        if (t + 1) % LEARN_EVAL_EVERY == 0 or t + 1 == config.steps:
            dist = ""
            if reference_q is not None and (visits > 0).any():
                dist = float(np.abs(q - reference_q)[visits > 0].max())
            rows.append({"step": t + 1, "sup_norm_delta": epoch_sup, "dist_to_qhat": dist,
                         "epsilon": eps, "seed": config.seed})
            epoch_sup = 0.0
        s = s2 if (t + 1) % config.episode_len else int(rng.integers(ns))
    return q, visits, rows


def loop_fit(game, basis, samples, seed, combinator, epsilon=0.2, step_power=0.85,
             episode_len=100, epoch=1000, r0=None, norms=None):
    """The sampled weight iteration of ``linfa.fit`` as one plain loop, every
    schedule knob an argument, no early stop and no divergence check.

    The coefficients start at ``r0`` (zeros by default).  Each sample reads
    the visited state's row of net values ``net[s] + gamma * (kphi[s] @ r)``
    from ``kphi = kernel Phi`` on the cells table, and moves ``r`` by
    ``c * Phi[s]`` with ``c = alpha * (target - Phi[s] @ r)``.  An
    exploration coin is drawn only when ``epsilon > 0``.  The behaviour
    policy is read off by :func:`loop_operator` once per epoch; the row's
    read-off (``qlearn._greedy`` for ``"T"``, ``solver._reduce`` and
    ``linfa._nest`` for ``"F"``), the exploration draw
    (``qlearn._slots``/``_explore``) and the sampler (``SamplingEnv``) are the
    library's, so that the coefficients can be compared bit for bit; actions
    pass to them as columns of the cells table.  A list
    passed as ``norms`` receives ``max |r|`` after every sample.
    Returns the coefficients.
    """
    from impulsegames import linfa, qlearn, solver
    from impulsegames.envs import SamplingEnv

    rng = np.random.default_rng(seed)
    env = SamplingEnv(game, rng=rng)
    phi = basis.matrix
    kernel, net = game.cells
    # The whole cell table times Phi in one product, the product form of
    # `ImpulseGame.expect`: a product per state (`kernel @ phi`) may round
    # differently, and the comparison is bit for bit.
    ns = game.num_states
    kphi = (kernel.reshape(-1, ns) @ phi).reshape(kernel.shape[:2] + phi.shape[1:])
    na = game.num_actions1
    slots = qlearn._slots(game.cell_costs.tolist(), na)

    def greedy_cells(field):
        _, _, act1, p2, act2 = loop_operator(game, field)
        return [pair_cell(game, (0, int(b)) if q else (int(a), 0))
                for a, q, b in zip(act1, p2, act2)]

    def target_of(row):
        if combinator == "T":
            return qlearn._greedy(row.tolist(), na)[0]
        return linfa._nest(solver._reduce(row[None], na), combinator)[0]

    r = np.zeros(basis.num_features) if r0 is None else np.array(r0, dtype=float)
    s = env.reset()
    cells = greedy_cells(phi @ r)
    for t in range(samples):
        target = target_of(net[s] + game.discount * (kphi[s] @ r))
        alpha = (1.0 + t) ** -step_power
        r = r + alpha * (target - phi[s] @ r) * phi[s]
        if norms is not None:
            norms.append(float(np.abs(r).max()))
        if (t + 1) % epoch == 0:
            cells = greedy_cells(phi @ r)
        if epsilon > 0.0 and rng.random() < epsilon:
            cell = qlearn._explore(slots[s], rng)
        else:
            cell = cells[s]
        s, _ = env.step(s, cell)
        if (t + 1) % episode_len == 0:
            s = env.reset()
    return r


def loop_simulate(game, policy, steps, rng, start=0, caps=None):
    """A policy rollout as a per-step loop on the joint ``(S, A, B)`` tables:
    one scalar ``rng.random()`` per step, read with ``searchsorted`` on the
    executed pair's cumulative kernel row and clamped to the row's last state
    with positive mass.

    With ``caps=(n1, n2)`` states are flat ``(s, y, z)`` indices and an
    executed costly action spends one of its player's interventions.  A
    masked action or a spent counter raises ``RuntimeError``.  Returns
    ``(states, actions1, actions2, rewards, cumulative)`` as arrays.
    """
    ny, nz = (1, 1) if caps is None else (caps[0] + 1, caps[1] + 1)
    x = start
    states, acts1, acts2, rewards, cumulative = [x], [], [], [], []
    total, disc = 0.0, 1.0
    for _ in range(steps):
        s, yz = divmod(x, ny * nz)
        y, z = divmod(yz, nz)
        if policy.p2_acts[x]:
            a, b = 0, int(policy.p2_action[x])
        elif policy.p1_acts[x]:
            a, b = int(policy.p1_action[x]), 0
        else:
            a, b = 0, 0
        spent1 = caps is not None and a != 0 and y == 0
        spent2 = caps is not None and b != 0 and z == 0
        if (a != 0 and not game.mask1[s, a]) or (b != 0 and not game.mask2[s, b]) \
                or spent1 or spent2:
            raise RuntimeError(f"masked action ({a}, {b}) at state {x}")
        row = game.kernel[s, a, b]
        drawn = int(np.cumsum(row).searchsorted(rng.random(), side="right"))
        nxt = min(drawn, game.num_states - 1 - int(np.argmax(row[::-1] > 0)))
        r = float(game.reward[s, a, b])
        if a != 0:
            r -= float(game.cost1[s, a])
            y -= caps is not None
        if b != 0:
            r += float(game.cost2[s, b])
            z -= caps is not None
        total += disc * r
        disc *= game.discount
        x = (nxt * ny + y) * nz + z
        states.append(x)
        acts1.append(a)
        acts2.append(b)
        rewards.append(r)
        cumulative.append(total)
    return (np.array(states, dtype=np.int64), np.array(acts1, dtype=np.int64),
            np.array(acts2, dtype=np.int64), np.array(rewards, dtype=float),
            np.array(cumulative, dtype=float))
