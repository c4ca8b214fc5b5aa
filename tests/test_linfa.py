import numpy as np
import pytest
from scipy_free_bisect import bisect_scalar

import impulsegames as ig
from impulsegames import linfa, solver

from _oracles import loop_fit, sweep_projected_iteration
from conftest import randomly_masked


def test_identity_basis_projection_is_identity():
    basis = ig.identity_basis(3)
    w = np.array([0.2, 0.5, 0.3])
    target = np.array([1.0, -2.0, 0.25])
    assert np.allclose(ig.project(basis, w, target), target, atol=1e-12)


def test_projection_of_in_span_target_unchanged():
    rng = np.random.default_rng(0)
    basis = ig.FeatureBasis(rng.normal(size=(5, 2)))
    w = rng.uniform(0.1, 1.0, 5)
    target = basis.field([0.7, -1.2])
    assert np.abs(ig.project(basis, w, target) - target).max() <= 1e-10


def test_projection_constant_basis_hand_value():
    basis = ig.constant_basis(2)
    out = ig.project(basis, [0.5, 0.5], [0.0, 2.0])
    assert np.allclose(out, [1.0, 1.0])


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(3)
    basis = ig.FeatureBasis(rng.normal(size=(6, 3)))
    w = rng.uniform(0.05, 1.0, 6)
    for _ in range(10):
        x = rng.normal(size=6)
        px = ig.project(basis, w, x)
        assert np.abs(ig.project(basis, w, px) - px).max() <= 1e-10
        assert ig.weighted_norm(w, px) <= ig.weighted_norm(w, x) + 1e-12


def test_rank_deficient_basis_rejected():
    with pytest.raises(ValueError, match="independent"):
        ig.FeatureBasis(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))


def test_basis_without_columns_rejected():
    with pytest.raises(ValueError, match="basis must have at least one feature column"):
        ig.FeatureBasis(np.zeros((3, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_basis_rejected_by_name(bad):
    m = np.eye(3)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="basis must be finite"):
        ig.FeatureBasis(m)


@pytest.mark.parametrize("call", ["fit", "apply_operator", "projected_iteration",
                                  "verify_bound"])
@pytest.mark.parametrize("states", [4, 6])
def test_basis_of_another_state_count_refused_by_name(call, states):
    game = ig.random_game(5, 1, 1, seed=0)
    basis = ig.identity_basis(states)
    r = np.zeros(states)
    run = {
        "fit": lambda: ig.fit(game, basis, ig.FitConfig(samples=10)),
        "apply_operator": lambda: ig.apply_operator(game, basis, r),
        "projected_iteration": lambda: ig.projected_iteration(game, basis, np.ones(states)),
        "verify_bound": lambda: ig.verify_bound(game, basis, r, np.zeros(5),
                                                weights=ig.linfa.bound_weights(game, np.zeros(5))),
    }[call]
    with pytest.raises(ValueError, match=f"basis has {states} states, the game has 5"):
        run()


def test_weights_must_be_positive():
    basis = ig.identity_basis(2)
    with pytest.raises(ValueError, match="positive"):
        ig.project(basis, [0.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("bad,message", [
    ([np.inf, 1.0, 1.0], "weights must be finite"),
    ([np.nan, 1.0, 1.0], "weights must be finite"),
    ([1.0, -1.0, 1.0], "state weights must be strictly positive"),
    ([1.0, 1.0], r"weights must have shape \(3,\), got \(2,\)"),
])
def test_bad_weights_are_refused_by_name(bad, message):
    basis = ig.FeatureBasis(np.eye(3)[:, :2])
    with pytest.raises(ValueError, match=message):
        ig.projection_weights(basis, bad, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=message):
        ig.weighted_norm(bad, [1.0, 2.0, 3.0])


def test_apply_operator_no_actions_is_td():
    game = ig.random_game(3, 0, 0, seed=5)
    basis = ig.identity_basis(3)
    r = np.array([1.0, -2.0, 0.5])
    td = game.reward[:, 0, 0] + game.discount * game.kernel[:, 0, 0, :] @ r
    assert np.allclose(ig.apply_operator(game, basis, r, "F"), td)
    assert np.allclose(ig.apply_operator(game, basis, r, "T"), td)


def test_apply_operator_t_matches_solver_fixed_point(g1):
    basis = ig.identity_basis(1)
    out = ig.apply_operator(g1, basis, [0.6], combinator="T")
    assert np.allclose(out, [0.6])


def test_apply_operator_rejects_unknown_combinator(g1):
    with pytest.raises(ValueError):
        ig.apply_operator(g1, ig.identity_basis(1), [0.0], combinator="X")


@pytest.mark.parametrize("combinator", ["F", "T"])
def test_operator_contraction_both_forms(combinator):
    rng = np.random.default_rng(9)
    for k in range(10):
        game = ig.random_game(4, 2, 2, seed=500 + k)
        basis = ig.identity_basis(4)
        r = rng.uniform(-5, 5, 4)
        r2 = rng.uniform(-5, 5, 4)
        lhs = np.abs(ig.apply_operator(game, basis, r, combinator)
                     - ig.apply_operator(game, basis, r2, combinator)).max()
        assert lhs <= game.discount * np.abs(r - r2).max() + 1e-12


def test_projected_iteration_geometric_and_identity_basis():
    for k in range(5):
        game = ig.random_game(4, 1, 1, seed=600 + k)
        w = np.full(4, 0.25)
        r, deltas = ig.projected_iteration(game, ig.identity_basis(4), w, "T")
        vhat = ig.solve(game, tol=1e-12).value
        assert np.abs(r - vhat).max() <= 1e-9
        ratios = [deltas[i + 1] / deltas[i] for i in range(1, min(len(deltas) - 1, 20))
                  if deltas[i] > 1e-13]
        assert all(rho <= game.discount + 0.05 for rho in ratios)


def test_constant_basis_matches_bisection_oracle():
    game = ig.random_game(2, 1, 1, seed=33)
    basis = ig.constant_basis(2)
    w = np.array([0.5, 0.5])
    r, _ = ig.projected_iteration(game, basis, w, "T", tol=1e-14)

    def residual(c):
        field = ig.apply_operator(game, basis, [c], "T")
        return float(w @ field) - c

    root = bisect_scalar(residual, -100.0, 100.0, tol=1e-12)
    assert abs(r[0] - root) <= 1e-9


def test_fit_identity_basis_recovers_value(g1):
    basis = ig.identity_basis(1)
    r, _ = ig.fit(g1, basis, ig.FitConfig(samples=30_000, seed=2))
    assert abs(r[0] - 0.6) <= 1e-3
    assert np.abs(basis.field(r) - ig.solve(g1, tol=1e-9).value).max() <= 1e-3


def test_fit_zero_samples_identity(g1):
    r0 = np.array([0.3])
    r, report = ig.fit(g1, ig.identity_basis(1), ig.FitConfig(samples=0, seed=0), r0=r0)
    assert np.array_equal(r, r0)
    assert report.samples_run == 0


def test_fit_refuses_a_negative_sample_count(g1):
    # The report counts every requested sample, so a negative count is refused up front.
    with pytest.raises(ValueError, match="samples"):
        ig.FitConfig(samples=-1)


@pytest.mark.parametrize("limit", [float("nan"), 0.0, -1.0])
def test_fit_refuses_a_divergence_limit_that_is_not_positive(limit):
    with pytest.raises(ValueError, match="divergence_limit"):
        ig.FitConfig(samples=10, divergence_limit=limit)


def test_fit_without_a_divergence_limit_runs_through(g1):
    r, _ = ig.fit(g1, ig.identity_basis(1),
                  ig.FitConfig(samples=100, seed=0, divergence_limit=float("inf")),
                  r0=[1e300])
    assert np.isfinite(r).all()


@pytest.mark.parametrize("r0", [[np.nan, 0, 0, 0, 0], [np.inf, 0, 0, 0, 0],
                                [0, 0, 0, 0, -np.inf], [0, 0, 0], np.zeros((1, 5))],
                         ids=["nan", "inf", "-inf", "short", "2-d"])
def test_fit_refuses_a_bad_r0_before_any_draw(r0, monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew before the check")

    monkeypatch.setattr(linfa, "BlockDraws", no_draws)
    with pytest.raises(ValueError, match="r0"):
        ig.fit(ig.random_game(5, 1, 1, seed=0), ig.identity_basis(5),
               ig.FitConfig(samples=500), r0=r0)


def test_fit_divergence_detector(g1):
    with pytest.raises(ig.FitDivergenceError):
        ig.fit(g1, ig.identity_basis(1),
               ig.FitConfig(samples=100, seed=0, divergence_limit=1e-8), r0=[5.0])


def test_verify_bound_identity_basis_zero_error(g1):
    rep = ig.solve(g1, tol=1e-12)
    r = rep.value.copy()
    out = ig.verify_bound(g1, ig.identity_basis(1), r, value=rep.value,
                          weights=ig.linfa.bound_weights(g1, rep.value))
    assert out.lhs <= 1e-12 and out.rhs <= 1e-12 and out.holds


def test_verify_bound_multiplier_gamma_half(g1):
    # rhs multiplier at gamma = 0.5 is (1 - 0.25)^(-1/2)
    assert (1 - g1.discount ** 2) ** -0.5 == pytest.approx(1.1547, abs=1e-4)


def test_verify_bound_random_games_hold():
    rng = np.random.default_rng(12)
    for k in range(5):
        game = ig.random_game(4, 1, 1, seed=700 + k)
        basis = ig.FeatureBasis(rng.normal(size=(4, 2)))
        vhat = ig.solve(game, tol=1e-11).value
        policy = ig.extract_policy(game, vhat)
        w, ergodic = ig.stationary_distribution(game, policy)
        if not ergodic:
            w = np.full(4, 0.25)
        r, _ = ig.projected_iteration(game, basis, w, "T")
        out = ig.verify_bound(game, basis, r, value=vhat,
                              weights=ig.linfa.StationaryResult(w, ergodic))
        assert out.holds


def test_verify_bound_checks_in_the_norm_of_the_weights_it_is_given():
    # The "F" fixed point's own weights differ from those of the "T" chain
    # there, so verify_bound cannot pick them and takes them from the caller.
    with pytest.raises(TypeError, match="weights"):
        ig.verify_bound(ig.random_game(3, 1, 1, seed=0), ig.identity_basis(3), np.zeros(3),
                        np.zeros(3))
    game = ig.random_game(12, 2, 2, seed=5)
    basis = ig.FeatureBasis(np.random.default_rng(5).normal(size=(12, 2)))
    value = ig.linfa.exact_fixed_point(game, "F")
    own, other = (ig.linfa.bound_weights(game, value, c) for c in ("F", "T"))
    assert np.abs(own.weights - other.weights).max() > 0.03
    r, _ = ig.projected_iteration(game, basis, own.weights, "F")
    out = ig.verify_bound(game, basis, r, value, weights=own)
    assert out.lhs == ig.weighted_norm(own.weights, basis.field(r) - value)
    assert abs(out.lhs / ig.verify_bound(game, basis, r, value, weights=other).lhs - 1) > 0.05


@pytest.mark.parametrize("combinator", ["T", "F"])
def test_exact_fixed_point_is_the_nestings_own_fixed_point(combinator):
    for seed in range(4):
        game = ig.random_game(12, 2, 2, seed=seed)
        v = linfa.exact_fixed_point(game, combinator)
        tv = ig.apply_operator(game, ig.identity_basis(12), v, combinator)
        assert np.abs(tv - v).max() <= 1e-9


def test_bound_weights_of_t_are_the_greedy_policys_stationary_law():
    for seed in range(4):
        game = ig.random_game(10, 2, 1, seed=seed)
        v = ig.solve(game, tol=1e-10).value
        expected = ig.stationary_distribution(game, ig.extract_policy(game, v))
        got = linfa.bound_weights(game, v)
        assert got.ergodic == expected.ergodic
        if got.ergodic:
            assert np.array_equal(got.weights, expected.weights)


def test_stationary_distribution_self_loop(g1):
    policy = ig.extract_policy(g1, ig.solve(g1, tol=1e-10).value)
    res = ig.stationary_distribution(g1, policy)
    assert res.ergodic and np.allclose(res.weights, [1.0])


@pytest.mark.parametrize("combinator", ["T", "F"])
@pytest.mark.parametrize("case", ["duopoly", "masked-30x3x2"])
def test_sample_target_matches_the_one_row_operator_bit_for_bit(case, combinator):
    game = (ig.build_duopoly_game(ig.DuopolyParams()) if case == "duopoly"
            else randomly_masked(ig.random_game(30, 3, 2, seed=17), 17))
    rng = np.random.default_rng(8)
    fields = [ig.solve(game, tol=1e-9).value, np.zeros(game.num_states)]
    fields += [rng.normal(scale=10.0, size=game.num_states) for _ in range(3)]
    kernel, net = game.cells
    for lam in fields:
        whole = linfa._nest(solver.operator_terms(game, lam), combinator)
        for s in range(game.num_states):
            row = net[s] + game.discount * (kernel[s] @ lam)
            got = linfa._sample_target(game, row, combinator)
            # The vectorised nesting of the same row, bit for bit; the whole-table
            # sweep sums E[v(next)] by another product, so it agrees to rounding.
            want = linfa._nest(solver._reduce(row[None], game.num_actions1), combinator)[0]
            assert np.float64(got).tobytes() == want.tobytes(), (s, got, want)
            assert abs(got - whole[s]) <= 1e-12 * (1.0 + abs(whole[s])), (s, got, whole[s])


def _polynomial_basis(grid_size):
    """Eight smooth features of the duopoly's two sales levels, scaled to [-1, 1]."""
    x = np.repeat(np.linspace(-1.0, 1.0, grid_size), grid_size)
    y = np.tile(np.linspace(-1.0, 1.0, grid_size), grid_size)
    return ig.FeatureBasis(np.stack([np.ones_like(x), x, y, x * y, x * x, y * y,
                                     x * x * y, x * y * y], 1))


@pytest.mark.parametrize("combinator", ["T", "F"])
@pytest.mark.parametrize("case", ["duopoly-identity", "masked-random-basis",
                                  "duopoly81-polynomial", "masked-random-basis-r0"])
def test_fit_matches_the_loop_reference_bit_for_bit(case, combinator):
    r0 = None
    if case == "duopoly-identity":
        game = ig.build_duopoly_game(ig.DuopolyParams())
        basis = ig.identity_basis(game.num_states)
    elif case == "duopoly81-polynomial":
        game = ig.build_duopoly_game(ig.DuopolyParams(grid_size=9))
        basis = _polynomial_basis(9)
    else:
        game = randomly_masked(ig.random_game(25, 3, 2, seed=41), 41)
        rng = np.random.default_rng(41)
        basis = ig.FeatureBasis(rng.normal(size=(25, 6)))
        if case.endswith("-r0"):
            r0 = rng.normal(scale=3.0, size=6)
    # 3500 samples cross three epochs (policy refreshes) and 35 episodes.
    config = ig.FitConfig(samples=3500, seed=5, combinator=combinator)
    r, _ = ig.fit(game, basis, config, r0=r0)
    want = loop_fit(game, basis, 3500, 5, combinator, r0=r0)
    assert r.tobytes() == want.tobytes(), np.abs(r - want).max()


@pytest.mark.parametrize("with_r0", [False, True], ids=["zeros", "r0"])
@pytest.mark.parametrize("basis_kind", ["identity", "random"])
def test_divergence_error_comes_at_the_first_sample_above_the_limit(basis_kind, with_r0):
    game = randomly_masked(ig.random_game(20, 2, 2, seed=23), 23)
    rng = np.random.default_rng(23)
    basis = (ig.identity_basis(20) if basis_kind == "identity"
             else ig.FeatureBasis(rng.normal(size=(20, 6))))
    r0 = rng.normal(scale=2.0, size=basis.num_features) if with_r0 else None
    norms = []
    loop_fit(game, basis, 1500, 7, "T", r0=r0, norms=norms)
    top = max(norms)
    # Limits inside the reached range, some equal to a reached |r| and some one ulp below it.
    limits = [top * f for f in (0.2, 0.5, 0.9, 0.999)]
    limits += [x for k in (0, 1, 10, 300, 1000) for x in (norms[k], np.nextafter(norms[k], 0.0))]
    raised = 0
    for limit in limits:
        first = next((t for t, n in enumerate(norms) if n > limit), None)
        config = ig.FitConfig(samples=1500, seed=7, divergence_limit=limit)
        if first is None:
            ig.fit(game, basis, config, r0=r0)
            continue
        with pytest.raises(ig.FitDivergenceError) as exc:
            ig.fit(game, basis, config, r0=r0)
        assert exc.value.step == first, (limit, exc.value.step, first)
        prefix = []
        want = loop_fit(game, basis, first + 1, 7, "T", r0=r0, norms=prefix)
        assert exc.value.r.tobytes() == want.tobytes()
        assert prefix[first] > limit and all(n <= limit for n in prefix[:first])
        raised += 1
    assert raised >= 6


def _fit_case(k, basis_kind):
    """A seeded game, a basis and the bound's weights at its value."""
    rng = np.random.default_rng(k)
    ns = int(rng.integers(3, 30))
    game = ig.random_game(ns, int(rng.integers(0, 3)), int(rng.integers(0, 3)), seed=900 + k)
    basis = (ig.identity_basis(ns) if basis_kind == "identity"
             else ig.FeatureBasis(rng.normal(size=(ns, int(rng.integers(1, ns + 1))))))
    return game, basis, linfa.bound_weights(game, ig.solve(game, tol=1e-11).value).weights


def _close(r, ref):
    return np.abs(r - ref).max() <= 1e-10 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("combinator", ["T", "F"])
@pytest.mark.parametrize("basis_kind", ["identity", "random"])
def test_projected_iteration_matches_the_sweep_only_reference(combinator, basis_kind):
    for k in range(8):
        game, basis, w = _fit_case(k, basis_kind)
        ref, ref_deltas = sweep_projected_iteration(
            lambda v: linfa._nest(solver.operator_terms(game, v), combinator), basis.matrix, w)
        r, deltas = ig.projected_iteration(game, basis, w, combinator)
        assert ref_deltas[-1] <= 1e-12 and deltas[-1] <= 1e-12
        assert len(deltas) <= len(ref_deltas)
        assert _close(r, ref), (k, np.abs(r - ref).max())


@pytest.mark.parametrize("combinator", ["T", "F"])
def test_singular_finish_solve_falls_back_to_sweeping(monkeypatch, combinator):
    refused = []
    solve = np.linalg.solve

    def singular_on_vectors(a, b):
        # The finish solves for one vector; the projector's factor solves for a matrix.
        if np.ndim(b) == 1:
            refused.append(1)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(linfa.np.linalg, "solve", singular_on_vectors)
    for k in range(4):
        game, basis, w = _fit_case(k, "random")
        ref, ref_deltas = sweep_projected_iteration(
            lambda v: linfa._nest(solver.operator_terms(game, v), combinator), basis.matrix, w)
        refused.clear()
        r, deltas = ig.projected_iteration(game, basis, w, combinator)
        # The finish was tried, and refused.
        assert refused
        assert deltas[-1] <= 1e-12
        assert _close(r, ref), (k, np.abs(r - ref).max())


@pytest.mark.parametrize("combinator", ["T", "F"])
def test_projected_iteration_above_the_state_limit_only_sweeps(monkeypatch, combinator):
    finish = linfa._finish
    calls = []

    def counted(*args):
        calls.append(1)
        return finish(*args)

    def refused(*args):
        raise AssertionError("the finish ran above the state limit")

    for k in range(6):
        game, basis, w = _fit_case(k, "random")
        # At the limit the finish runs.
        monkeypatch.setattr(solver, "FINISH_MAX_STATES", game.num_states)
        monkeypatch.setattr(linfa, "_finish", counted)
        calls.clear()
        want, want_deltas = ig.projected_iteration(game, basis, w, combinator)
        assert calls
        # One state above it, the iteration sweeps to the same fixed point.
        monkeypatch.setattr(solver, "FINISH_MAX_STATES", game.num_states - 1)
        monkeypatch.setattr(linfa, "_finish", refused)
        r, deltas = ig.projected_iteration(game, basis, w, combinator)
        assert deltas[-1] <= 1e-12 and len(deltas) >= len(want_deltas)
        assert _close(r, want), (k, np.abs(r - want).max())


def test_projection_weights_match_lstsq():
    rng = np.random.default_rng(21)
    for ns, nf in [(1, 1), (5, 1), (6, 3), (40, 40), (120, 9)]:
        for _ in range(5):
            basis = ig.FeatureBasis(rng.normal(size=(ns, nf)) * rng.uniform(0.1, 10.0, nf))
            w = rng.uniform(0.01, 1.0, ns)
            target = rng.normal(scale=5.0, size=ns)
            sq = np.sqrt(w / w.sum())
            want, *_ = np.linalg.lstsq(basis.matrix * sq[:, None], target * sq, rcond=None)
            got = ig.projection_weights(basis, w, target)
            assert np.abs(got - want).max() <= 1e-10 * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12, -np.inf])
def test_projected_iteration_refuses_a_tol_that_is_not_positive(monkeypatch, tol):
    # `solve`'s rule and message, before any sweep: a NaN or negative tol
    # never stops the iteration, which then runs PROJECTED_MAX_ITER sweeps.
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(linfa, "operator_terms", no_sweep)
    game = ig.random_game(6, 1, 1, 0)
    with pytest.raises(ValueError, match=f"tol must be positive, got {tol}"):
        ig.projected_iteration(game, ig.identity_basis(6), np.ones(6), tol=tol)
