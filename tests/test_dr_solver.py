"""The relaxed splitting iteration: steps, schedules, traces, and solves."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from eqsplit.bifunctions import (
    AffineFunction,
    Quadratic,
    WeightedL1,
    function_difference,
    generic_bifunction,
    operator_bifunction,
    sum_bifunctions,
    zero_bifunction,
)
from eqsplit.dr_solver import (
    CONVERGED,
    INNER_FAILURE,
    MAX_ITER,
    SolverConfig,
    ERROR_PRESETS,
    dr_step,
    equilibrium_certificate,
    equilibrium_gap,
    geometric_errors,
    inverse_square_errors,
    ramp_relaxation,
    residual_dr,
    solve,
    solve_operator_form,
    zero_errors,
)
from eqsplit.hilbert import Ball, Box, Halfspace, Simplex, WholeSpace, norm, sample_points
from eqsplit.operators import GridSpec, equilibrium_bruteforce, operator_from_bifunction
from eqsplit.problems import corpus, get_problem
from eqsplit.resolvents import ResolventOracle, reflect, resolve

from oracles import as_generic, box_vi_projected, separable_gap_ref


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_dr_step_identity_dynamics():
    H = WholeSpace(2)
    J = ResolventOracle(1.0, zero_bifunction(H))
    x = np.array([0.3, -0.7])
    for lam in (0.5, 1.0, 1.9):
        y, z, x_next = dr_step(x, J, J, lam)
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(z, x)
        np.testing.assert_array_equal(x_next, x)


def test_dr_step_projection_dynamics():
    C = Box([-1.0], [1.0])
    J = ResolventOracle(1.0, zero_bifunction(C))
    y, z, x_next = dr_step([3.0], J, J, 1.0)
    assert y[0] == 1.0
    assert z[0] == -1.0  # projection of the reflected point 2*1 - 3
    assert x_next[0] == 1.0


def test_dr_step_linear_resolvent():
    H = WholeSpace(1)
    JF = ResolventOracle(1.0, operator_bifunction(H, [[2.0]]))
    JG = ResolventOracle(1.0, zero_bifunction(H))
    y, z, x_next = dr_step([1.0], JF, JG, 1.0)
    assert y[0] == 1.0
    assert z[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert x_next[0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_dr_step_rejects_bad_relaxation():
    H = WholeSpace(1)
    J = ResolventOracle(1.0, zero_bifunction(H))
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        dr_step([0.0], J, J, 2.0)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_zero_on_whole_space():
    H = WholeSpace(1)
    J = ResolventOracle(1.0, zero_bifunction(H))
    for x in (-2.0, 0.0, 5.0):
        assert residual_dr([x], J, J) == 0.0


def test_residual_projection_case():
    C = Box([-1.0], [1.0])
    J = ResolventOracle(1.0, zero_bifunction(C))
    assert residual_dr([3.0], J, J) == pytest.approx(4.0, abs=1e-14)


def test_residual_vanishes_at_fixed_point():
    H = WholeSpace(1)
    JF = ResolventOracle(1.0, function_difference(H, Quadratic([[2.0]], [0.0])))
    JG = ResolventOracle(1.0, operator_bifunction(H, [[0.0]], [1.0]))
    # fixed point of the composed reflections for this pair
    res = solve(JF.bifunction, JG.bifunction, [0.0], SolverConfig(residual_tol=1e-12))
    assert residual_dr(res.x_star, JF, JG) <= 1e-12


# ---------------------------------------------------------------------------
# the step as an averaged iteration, and as one pass of solve
# ---------------------------------------------------------------------------

def test_half_relaxation_of_composed_reflections_matches_solver_iterates():
    # the splitting update equals averaging the composed reflections with
    # half the relaxation parameter
    inst = get_problem("quadratic-1d")
    lam = 1.2
    cfg = SolverConfig(lambda_schedule=lam, residual_tol=1e-10, max_iter=60)
    res = solve(inst.F, inst.G, [1.0], cfg)
    JF = ResolventOracle(1.0, inst.F)
    JG = ResolventOracle(1.0, inst.G)
    x = np.array([1.0])
    for recorded in res.trace.x:
        np.testing.assert_allclose(x, recorded, atol=1e-12)
        T = reflect(JF, reflect(JG, x))
        x = x + (lam / 2.0) * (T - x)


@pytest.mark.parametrize("name", ["quadratic-1d", "skew-saddle"])
def test_dr_step_with_injected_errors_is_one_solver_pass(name):
    inst = get_problem(name)
    d = inst.set.dimension
    a_sched, b_sched = geometric_errors(d), geometric_errors(d, c=0.5, axis=d - 1)
    cfg = SolverConfig(lambda_schedule=1.5, error_schedule_a=a_sched, error_schedule_b=b_sched)
    res = solve(inst.F, inst.G, inst.default_x0, cfg)
    assert res.status == CONVERGED
    JF = ResolventOracle(cfg.gamma, inst.F)
    JG = ResolventOracle(cfg.gamma, inst.G)
    x = inst.default_x0
    for n, recorded in enumerate(res.trace.x):
        np.testing.assert_array_equal(x, recorded)
        _, _, x = dr_step(x, JF, JG, 1.5, a_n=a_sched(n), b_n=b_sched(n))


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------

def test_solve_pure_projection():
    inst = get_problem("pure-feasibility")
    res = solve(inst.F, inst.G, [5.0, 5.0])
    assert res.status == CONVERGED
    assert res.iterations <= 3
    np.testing.assert_allclose(res.y_star, [1.0, 1.0], atol=1e-12)
    assert res.trace.residual_dr[-1] <= 1e-12


def test_solve_quadratic_1d():
    inst = get_problem("quadratic-1d")
    res = solve(inst.F, inst.G, [1.0])
    assert res.status == CONVERGED
    assert res.y_star[0] == pytest.approx(-0.5, abs=1e-7)
    # cross-check by the grid oracle
    S = sum_bifunctions(inst.F, inst.G)
    sols = equilibrium_bruteforce(S, GridSpec([-2.0], [2.0], 1e-3), tol=1e-6)
    assert len(sols) >= 1
    assert min(abs(float(s[0]) - res.y_star[0]) for s in sols) <= 2e-3


def test_solve_mixed_equilibrium():
    inst = get_problem("mixed-equilibrium")
    res = solve(inst.F, inst.G, [0.0])
    assert res.status == CONVERGED
    assert res.y_star[0] == pytest.approx(1.0, abs=1e-7)
    assert res.certificate >= -10.0 * 1e-8


def test_solve_reports_converged_contract():
    for inst in corpus():
        res = solve(inst.F, inst.G, inst.default_x0)
        assert res.status == CONVERGED, inst.name
        assert res.trace.residual_dr[-1] <= 1e-8, inst.name
        assert res.certificate >= -1e-7, inst.name
        assert inst.set.contains(res.y_star, 1e-8), inst.name


def test_solution_determinism_and_consistency():
    inst = get_problem("vi-over-box")
    r1 = solve(inst.F, inst.G, inst.default_x0)
    r2 = solve(inst.F, inst.G, inst.default_x0)
    np.testing.assert_array_equal(r1.y_star, r2.y_star)
    # the reported point is the clean shadow of the final iterate
    JG = ResolventOracle(1.0, inst.G)
    np.testing.assert_array_equal(r1.y_star, resolve(JG, r1.x_star))
    assert norm(r1.x_star - reflect(ResolventOracle(1.0, inst.F), reflect(JG, r1.x_star))) <= 2e-8


def test_lambda_gate_at_config_time():
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        SolverConfig(lambda_schedule=2.5)
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        SolverConfig(lambda_schedule=0.0)


def test_lambda_gate_for_callable_schedules():
    inst = get_problem("quadratic-1d")
    cfg = SolverConfig(lambda_schedule=lambda n: 2.5, max_iter=5)
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        solve(inst.F, inst.G, [1.0], cfg)


def test_trace_thinning_and_order():
    inst = get_problem("quadratic-1d")
    cfg = SolverConfig(trace_every=5, residual_tol=1e-10)
    res = solve(inst.F, inst.G, [1.0], cfg)
    ns = res.trace.n
    assert ns == sorted(ns)
    assert all(n % 5 == 0 for n in ns[:-1])
    assert all(r >= 0 for r in res.trace.residual_dr)


def test_max_iter_status():
    inst = get_problem("skew-saddle")
    res = solve(inst.F, inst.G, [1.0, 1.0], SolverConfig(max_iter=3, residual_tol=1e-14))
    assert res.status == MAX_ITER
    assert res.iterations == 3


def test_inner_failure_status(monkeypatch):
    from eqsplit import resolvents

    monkeypatch.setattr(resolvents, "INNER_ITER_CAP", 2)
    inst = get_problem("vi-over-box")
    cfg = SolverConfig(residual_tol=1e-12)
    JG = ResolventOracle(cfg.gamma, inst.G)
    # F behind a bare oracle takes the inner route; from (2, -1) the
    # shadow point P_C x = (1, 0) and the failed inner iterate of J_F at
    # 2 P_C x - x differ
    for x0 in (inst.default_x0, [2.0, -1.0]):
        with pytest.warns(UserWarning, match="inner resolvent failure"):
            res = solve(as_generic(inst.F), inst.G, x0, cfg)
        assert res.status == INNER_FAILURE
        # J_F failed, so the reported point is the shadow point J_G x*
        np.testing.assert_array_equal(res.y_star, resolve(JG, res.x_star))


@pytest.mark.parametrize("d", [5, 20, 50])
def test_box_vi_solution_matches_independent_reference(d):
    # from d = 5 on, a 64-point sampled certificate of the resolvent
    # inequality misses violations, so the answer is checked against a
    # reference that shares no code with the library
    rng = np.random.default_rng(0)
    A = rng.normal(size=(d, d))
    M = A @ A.T / d + np.eye(d) + (A - A.T) / d
    q = 3.0 * rng.normal(size=d)
    C = Box(-np.ones(d), np.ones(d))
    res = solve(operator_bifunction(C, M, q), zero_bifunction(C), np.zeros(d))
    assert res.status == CONVERGED
    reference = box_vi_projected(M, q, C.lo, C.hi)
    assert norm(res.y_star - reference) <= 1e-5 * (1.0 + norm(reference))


def test_error_injection_converges_to_same_solution():
    inst = get_problem("quadratic-1d")
    base = solve(inst.F, inst.G, [1.0]).y_star
    cfg = SolverConfig(
        error_schedule_a=geometric_errors(1, c=1.0, rho=0.5),
        error_schedule_b=geometric_errors(1, c=1.0, rho=0.5),
    )
    noisy = solve(inst.F, inst.G, [1.0], cfg)
    assert noisy.status == CONVERGED
    assert abs(noisy.y_star[0] - base[0]) <= 1e-4


def test_inverse_square_error_preset():
    inst = get_problem("operator-bridge")
    cfg = SolverConfig(
        error_schedule_a=inverse_square_errors(1, c=0.5),
        error_schedule_b=inverse_square_errors(1, c=0.5),
        max_iter=50000,
    )
    res = solve(inst.F, inst.G, [0.0], cfg)
    assert res.status == CONVERGED
    assert res.y_star[0] == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_zero_errors_preset_is_zero():
    e = zero_errors(3)
    assert np.all(e(0) == 0.0) and np.all(e(100) == 0.0)


def test_operator_form_matches_bifunction_form():
    inst = get_problem("skew-saddle")
    cfg = SolverConfig(max_iter=50, residual_tol=1e-30)
    res_b = solve(inst.F, inst.G, inst.default_x0, cfg)
    A = operator_from_bifunction(inst.F)
    B = operator_from_bifunction(inst.G)
    res_o = solve_operator_form(A, B, inst.default_x0, cfg)
    assert res_o.certificate is None
    assert len(res_b.trace.x) == len(res_o.trace.x)
    for xb, xo in zip(res_b.trace.x, res_o.trace.x):
        np.testing.assert_array_equal(xb, xo)


def test_operator_form_uses_the_configured_inner_cap(monkeypatch):
    from eqsplit import resolvents

    # F behind a bare oracle takes the inner route, which one iteration
    # cannot finish, through either form
    monkeypatch.setattr(resolvents, "INNER_ITER_CAP", 1)
    inst = get_problem("vi-over-box")
    F = as_generic(inst.F)
    cfg = SolverConfig(max_iter=50)
    A, B = operator_from_bifunction(F), operator_from_bifunction(inst.G)
    for run in (solve, solve_operator_form):
        args = (F, inst.G) if run is solve else (A, B)
        with pytest.warns(UserWarning, match="inner resolvent failure"):
            assert run(*args, inst.default_x0, cfg).status == INNER_FAILURE


def test_residual_decay_across_gamma_sweep():
    # the reflection residual is driven below 1e-6 for small, unit, and
    # large resolvent scalings alike
    for gamma in (0.1, 1.0, 10.0):
        for inst in corpus():
            cfg = SolverConfig(gamma=gamma, residual_tol=1e-6, max_iter=5000)
            res = solve(inst.F, inst.G, inst.default_x0, cfg)
            assert res.status == CONVERGED, (inst.name, gamma)
            assert res.trace.residual_dr[-1] <= 1e-6, (inst.name, gamma)


def test_solve_requires_shared_set():
    F = zero_bifunction(Box([-1.0], [1.0]))
    G = zero_bifunction(Box([-1.0], [1.0]))
    with pytest.raises(ValueError, match="share one ConvexSet"):
        solve(F, G, [0.0])


def test_admissibility_warning_on_bad_bifunction():
    from eqsplit.bifunctions import generic_bifunction

    C = WholeSpace(1)
    bad = generic_bifunction(C, lambda x, y: float(np.linalg.norm(y) - 2 * np.linalg.norm(x)))
    # the broken bifunction also breaks its resolvent, so an inner-failure
    # warning may accompany the admissibility one
    with pytest.warns(UserWarning) as recorded:
        solve(bad, zero_bifunction(C), [0.5], SolverConfig(max_iter=3, residual_tol=1e-3))
    assert any("admissibility" in str(w.message) and "16 samples" in str(w.message) for w in recorded)


def test_admissibility_warning_on_nonmonotone_operator_is_exact():
    # one slightly negative direction in 20: the exact check sees it
    M = np.eye(20)
    M[-1, -1] = -1e-3
    C = WholeSpace(20)
    with pytest.warns(UserWarning, match=r"first bifunction: admissibility check FAILED \(exact\)"):
        solve(operator_bifunction(C, M), zero_bifunction(C), np.zeros(20), SolverConfig(max_iter=3))


def test_certificate_helper():
    inst = get_problem("quadratic-1d")
    c = equilibrium_certificate(inst.F, inst.G, [-0.5], sample_points(inst.set, 512, 0))
    assert c >= -1e-12  # the exact solution has a nonnegative certificate


def test_stacked_certificate_stays_in_row_blocks():
    # unblocked, the 5,000 x 256 x 2 difference array alone is 20 MB
    import tracemalloc

    C = WholeSpace(2)
    F = operator_bifunction(C, [[1.0, 2.0], [-2.0, 1.0]], [0.5, -1.0])
    G = function_difference(C, Quadratic(np.eye(2), [0.0, 1.0]))
    Y = sample_points(C, 256, 0)
    P = np.random.default_rng(0).normal(size=(5000, 2))
    tracemalloc.start()
    try:
        certs = equilibrium_certificate(F, G, P, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert certs.shape == (5000,)
    for r in (0, 1, 15, 16, 17, 4999):
        assert certs[r] == equilibrium_certificate(F, G, P[r], Y)


def test_ramp_relaxation_schedule():
    from eqsplit.dr_solver import ramp_relaxation

    sched = ramp_relaxation()
    assert sched(0) == pytest.approx(1.0)
    assert all(0.0 < sched(n) < 2.0 for n in range(1000))
    inst = get_problem("quadratic-1d")
    res = solve(inst.F, inst.G, [1.0], SolverConfig(lambda_schedule=sched, max_iter=5000))
    assert res.status == CONVERGED
    assert res.y_star[0] == pytest.approx(-0.5, abs=1e-6)


def test_geometric_errors_validation():
    with pytest.raises(ValueError, match="rho"):
        geometric_errors(1, rho=1.0)
    e = geometric_errors(2, c=2.0, rho=0.5, axis=1)
    np.testing.assert_allclose(e(3), [0.0, 0.25])


# ---------------------------------------------------------------------------
# validation at the public boundary only
# ---------------------------------------------------------------------------

def _skew_saddle(d):
    rng = np.random.default_rng(d)
    A = rng.normal(size=(d, d))
    C = WholeSpace(d)
    F = operator_bifunction(C, (A - A.T) / (2.0 * np.sqrt(d)) + 0.1 * np.eye(d), rng.normal(size=d))
    return F, function_difference(C, Quadratic(np.eye(d), np.zeros(d))), rng.normal(size=d)


@pytest.mark.parametrize("errors", [False, True])
def test_solve_validates_a_constant_number_of_vectors(monkeypatch, errors):
    import eqsplit.hilbert as hilbert

    original = hilbert.as_vector
    calls = []

    def counting(x, dim=None):
        calls.append(1)
        return original(x, dim)

    for module in ("eqsplit.hilbert", "eqsplit.resolvents", "eqsplit.dr_solver"):
        monkeypatch.setattr(f"{module}.as_vector", counting)
    F, G, x0 = _skew_saddle(5)
    counts = []
    for max_iter in (10, 200):
        schedule = geometric_errors(5) if errors else None
        cfg = SolverConfig(gamma=1e-3, max_iter=max_iter, residual_tol=1e-300, lambda_schedule=1.5,
                           error_schedule_a=schedule, error_schedule_b=schedule)
        calls.clear()
        res = solve(F, G, x0, cfg)
        assert res.status == MAX_ITER and res.iterations == max_iter
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


def _bad_at(n_bad, dim, value=np.nan):
    def schedule(n):
        e = np.zeros(dim)
        if n == n_bad:
            e[0] = value
        return e

    return schedule


@pytest.mark.parametrize("kind", ["whole-space", "simplex"])
def test_nan_error_schedule_raises_value_error(kind):
    C = WholeSpace(3) if kind == "whole-space" else Simplex(3)
    F = operator_bifunction(C, np.eye(3), [1.0, 0.0, -1.0]) if kind == "whole-space" else zero_bifunction(C)
    G = function_difference(C, WeightedL1([0.1, 0.2, 0.3]))
    # one side, the other, or one schedule object shared by both
    for sides in (("error_schedule_a",), ("error_schedule_b",), ("error_schedule_a", "error_schedule_b")):
        for value in (np.nan, np.inf):
            schedule = _bad_at(3, 3, value)
            cfg = SolverConfig(residual_tol=1e-300, max_iter=50, **{side: schedule for side in sides})
            with pytest.raises(ValueError, match="iteration 3"):
                solve(F, G, [0.3, 0.3, 0.4], cfg)


@pytest.mark.parametrize("error", [np.zeros(3), 0.0, np.zeros(1)], ids=["length-3", "scalar", "length-1"])
def test_solve_and_dr_step_reject_an_error_of_the_wrong_shape(error):
    # at d = 2 an injected error must be a (2,) vector: solve names the
    # iteration and the shape instead of broadcasting a scalar or a
    # length-1 vector, and dr_step reports it as the error of iteration 0
    inst = get_problem("skew-saddle")
    JF, JG = ResolventOracle(1.0, inst.F), ResolventOracle(1.0, inst.G)
    for side in ("a_n", "b_n"):
        with pytest.raises(ValueError, match=r"iteration 0 must give a vector of shape \(2,\), got shape"):
            dr_step(inst.default_x0, JF, JG, 1.0, **{side: error})

    def schedule(n):
        return error if n == 2 else np.zeros(2)

    for sides in (("error_schedule_a",), ("error_schedule_b",), ("error_schedule_a", "error_schedule_b")):
        cfg = SolverConfig(residual_tol=1e-300, max_iter=50, **{side: schedule for side in sides})
        with pytest.raises(ValueError, match=r"iteration 2 must give a vector of shape \(2,\), got shape"):
            solve(inst.F, inst.G, inst.default_x0, cfg)


def test_dr_step_rejects_a_scalar_error_at_d_1_as_solve_does():
    # at d = 1 a scalar would pass as a (1,) vector through as_vector;
    # dr_step checks its errors as solve checks a schedule's
    inst = get_problem("quadratic-1d")
    JF, JG = ResolventOracle(1.0, inst.F), ResolventOracle(1.0, inst.G)
    for side in ("a_n", "b_n"):
        with pytest.raises(ValueError, match=r"iteration 0 must give a vector of shape \(1,\), got shape \(\)"):
            dr_step(inst.default_x0, JF, JG, 1.0, **{side: 0.5})
        dr_step(inst.default_x0, JF, JG, 1.0, **{side: [0.5]})
    cfg = SolverConfig(residual_tol=1e-300, max_iter=5, error_schedule_a=lambda n: 0.5)
    with pytest.raises(ValueError, match=r"iteration 0 must give a vector of shape \(1,\), got shape \(\)"):
        solve(inst.F, inst.G, inst.default_x0, cfg)


def test_an_error_is_checked_finite_entrywise():
    # an error with an entry near 1e200 is finite though its squared norm
    # overflows: dr_step takes it with no warning and returns finite
    # values, while inf and NaN entries keep the message of solve's check
    inst = get_problem("skew-saddle")
    JF, JG = ResolventOracle(1.0, inst.F), ResolventOracle(1.0, inst.G)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in ("a_n", "b_n"):
            out = dr_step(inst.default_x0, JF, JG, 1.0, **{side: np.array([1e200, 0.0])})
            assert all(np.isfinite(v).all() for v in out)
    for value in (np.inf, -np.inf, np.nan):
        for side in ("a_n", "b_n"):
            with pytest.raises(ValueError, match=r"iteration 0 must give a finite vector, got array"):
                dr_step(inst.default_x0, JF, JG, 1.0, **{side: np.array([0.0, value])})
        cfg = SolverConfig(residual_tol=1e-300, max_iter=50, error_schedule_a=_bad_at(2, 2, value))
        with pytest.raises(ValueError, match=r"iteration 2 must give a finite vector, got array"):
            solve(inst.F, inst.G, inst.default_x0, cfg)


def test_nan_from_a_generic_oracle_raises_value_error():
    C = Box(-np.ones(2), np.ones(2))
    F = generic_bifunction(C, lambda x, y: np.nan, lambda x, Y: np.full(len(Y), np.nan))
    with pytest.raises(ValueError):
        solve(F, zero_bifunction(C), [0.5, 0.5], SolverConfig(max_iter=20))


def test_nan_from_a_resolvent_raises_value_error():
    # a resolvent that returns non-finite values is caught by the residual
    # check of the same pass
    C = WholeSpace(2)
    calls = []

    def faulty(gamma, **options):
        def apply(x):
            calls.append(1)
            return x / 2.0 if len(calls) < 5 else np.full(2, np.nan)

        return apply

    A = operator_from_bifunction(zero_bifunction(C))
    object.__setattr__(A, "resolvent_map", faulty)
    B = operator_from_bifunction(operator_bifunction(C, np.eye(2)))
    with pytest.raises(ValueError, match="non-finite resolvent values at iteration 4"):
        solve_operator_form(A, B, [1.0, 2.0], SolverConfig(residual_tol=1e-300, max_iter=50))


@pytest.mark.parametrize("max_iter", [1, 50])
def test_result_owns_its_arrays(max_iter):
    F, G, x0 = _skew_saddle(4)
    for cfg in (SolverConfig(max_iter=max_iter, residual_tol=1e-300), SolverConfig()):
        res = solve(F, G, x0, cfg)
        assert not np.shares_memory(res.x_star, res.trace.x[-1])
        assert not np.shares_memory(res.y_star, res.trace.y[-1])
        np.testing.assert_array_equal(res.x_star, res.trace.x[-1])
        np.testing.assert_array_equal(res.y_star, res.trace.y[-1])


def test_operator_form_rejects_mismatched_dimensions():
    A = operator_from_bifunction(zero_bifunction(WholeSpace(2)))
    B = operator_from_bifunction(zero_bifunction(WholeSpace(3)))
    with pytest.raises(ValueError, match="dimension"):
        solve_operator_form(A, B, [0.0, 0.0])
    with pytest.raises(ValueError, match="dimension"):
        dr_step([0.0, 0.0], ResolventOracle(1.0, A.terms[0]), ResolventOracle(1.0, B.terms[0]), 1.0)


# ---------------------------------------------------------------------------
# closed-form resolvents kept across solves
# ---------------------------------------------------------------------------

def _kept_route_problem(route, d):
    """(F, G, x0) over R^d or [-1, 1]^d, the same data on every call.

    "whole-space" and "diagonal" pair F = skew + 0.1 I with a quadratic G
    whose Q is full or diagonal; "box" is a box VI with a full quadratic G,
    so both sides run box pivoting.
    """
    rng = np.random.default_rng(d)
    A, B = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    c, q, x0 = rng.normal(size=d), rng.normal(size=d), 0.5 * rng.normal(size=d)
    Q = np.diag(rng.uniform(0.0, 2.0, size=d)) if route == "diagonal" else B @ B.T / d
    if route == "box":
        C = Box(-np.ones(d), np.ones(d))
        M, c = A @ A.T / d + np.eye(d) + (A - A.T) / d, 3.0 * c
    else:
        C = WholeSpace(d)
        M = (A - A.T) / (2.0 * np.sqrt(d)) + 0.1 * np.eye(d)
    return operator_bifunction(C, M, c), function_difference(C, Quadratic(Q, q)), x0


def _assert_same_result(got, expected):
    # bytes, so that a signed zero counts too
    for a, b in ((got.y_star, expected.y_star), (got.x_star, expected.x_star)):
        assert a.tobytes() == b.tobytes()
    for name in ("n", "residual_dr", "step"):
        assert getattr(got.trace, name) == getattr(expected.trace, name), name
    for a, b in zip(got.trace.x + got.trace.y, expected.trace.x + expected.trace.y):
        assert a.tobytes() == b.tobytes()
    assert got.certificate == expected.certificate
    assert got.status == expected.status == CONVERGED


@pytest.mark.parametrize("d", [2, 20, 200])
@pytest.mark.parametrize("route", ["whole-space", "diagonal", "box"])
def test_kept_resolvents_give_the_bits_of_fresh_bifunctions(route, d):
    F, G, x0 = _kept_route_problem(route, d)
    configs = [
        SolverConfig(gamma=0.5, max_iter=2000),
        SolverConfig(gamma=0.5, lambda_schedule=1.8, error_schedule_a=geometric_errors(d),
                     error_schedule_b=geometric_errors(d), max_iter=2000),
    ]
    # fill the entries, and box pivoting's pattern memo, from elsewhere
    solve(F, G, -x0, configs[0])
    for cfg in configs:
        fresh = solve(*_kept_route_problem(route, d), cfg)
        _assert_same_result(solve(F, G, x0, cfg), fresh)
    assert F._resolvent[0] == G._resolvent[0] == 0.5


@pytest.mark.parametrize("d", [2, 20, 50])
def test_a_repeated_box_solve_inverts_nothing(d):
    # both sides pivot over a box; at these sizes each side meets fewer
    # than KEPT_PATTERNS patterns in a solve, so the second solve of the
    # same pair from the same start meets only kept patterns: it forms no
    # factor and no bound rows, and has the first solve's bits
    F, G, x0 = _kept_route_problem("box", d)
    cfg = SolverConfig(gamma=0.5, max_iter=2000)
    first = solve(F, G, x0, cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("a repeated box solve formed a factor or bound rows")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "inv", forbidden)
        patch.setattr(np.linalg, "solve", forbidden)
        patch.setattr("eqsplit.resolvents._sign_rows", forbidden)
        second = solve(F, G, x0, cfg)
    assert second.iterations == first.iterations
    _assert_same_result(second, first)


def test_repeated_solves_invert_once_per_side(monkeypatch):
    d, gamma = 200, 1.0
    F, G, x0 = _kept_route_problem("whole-space", d)
    calls = []
    inv = np.linalg.inv

    def counting_inv(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    cfg = SolverConfig(gamma=gamma, max_iter=2000)
    results = [solve(F, G, x0, replace(cfg, lambda_schedule=lam)) for lam in (1.0, 1.8, 0.5) for _ in range(2)]
    assert calls == [(d, d)] * 2
    assert all(r.status == CONVERGED for r in results)
    # the other entry points build their oracles from the same entries
    JF, JG = ResolventOracle(gamma, F), ResolventOracle(gamma, G)
    dr_step(x0, JF, JG, 1.0)
    assert residual_dr(results[0].x_star, JF, JG) <= cfg.residual_tol
    op = solve_operator_form(operator_from_bifunction(F), operator_from_bifunction(G), x0, cfg)
    np.testing.assert_array_equal(op.y_star, results[0].y_star)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the certificate, computed on first read
# ---------------------------------------------------------------------------

def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
def test_certificate_read_equals_the_eager_value(gamma):
    # every corpus instance is separable over a box or the whole space, so
    # its certificate is the exact gap
    for seed in (0, 7):
        for inst in corpus():
            cfg = SolverConfig(gamma=gamma, residual_tol=1e-6, max_iter=5000, seed=seed)
            res = solve(inst.F, inst.G, inst.default_x0, cfg)
            eager = equilibrium_gap(inst.F, inst.G, res.y_star)
            assert _bits(res.certificate) == _bits(eager), (inst.name, seed)
            # kept: a second read gives the same value
            assert _bits(res.certificate) == _bits(eager), (inst.name, seed)
            assert res.certificate_exact is True, inst.name


def test_certificate_ignores_writes_into_the_result():
    inst = get_problem("vi-over-box")
    ball = _ball_form(5)
    for F, G, x0 in ((inst.F, inst.G, inst.default_x0), ball):
        res = solve(F, G, x0, SolverConfig(max_iter=5))
        y = res.y_star.copy()
        eager = equilibrium_gap(F, G, y)
        if eager is None:
            eager = equilibrium_certificate(F, G, y, sample_points(F.set, 256, 0))
        res.y_star[:] = 100.0
        res.trace.y[-1][:] = 100.0
        assert _bits(res.certificate) == _bits(eager)


def _refuse_samples(monkeypatch):
    from eqsplit import dr_solver

    def refuse(*args, **kwargs):
        raise AssertionError("sample_points called")

    monkeypatch.setattr(dr_solver, "sample_points", refuse)


def _ball_form(d):
    """A form over a ball, which has no exact gap: (F, G, x0)."""
    rng = np.random.default_rng(d)
    C = Ball(np.zeros(d), 1.5)
    A = rng.normal(size=(d, d))
    F = operator_bifunction(C, (A - A.T) / d + np.eye(d), rng.normal(size=d))
    return F, function_difference(C, Quadratic(np.eye(d), np.zeros(d))), rng.normal(size=d)


def test_an_unread_certificate_draws_no_sample(monkeypatch):
    _refuse_samples(monkeypatch)
    # a separable form's certificate draws none even when read
    F, G, x0 = _skew_saddle(20)
    res = solve(F, G, x0, SolverConfig(error_schedule_a=geometric_errors(20), error_schedule_b=geometric_errors(20)))
    assert res.status == CONVERGED
    assert res.certificate == equilibrium_gap(F, G, res.y_star) and res.certificate_exact is True
    # a sampled one: asking whether it is exact draws none, the read does
    F, G, x0 = _ball_form(5)
    res = solve(F, G, x0, SolverConfig(max_iter=5))
    assert res.certificate_exact is False
    with pytest.raises(AssertionError, match="sample_points called"):
        res.certificate


def test_a_result_pickles_with_its_certificate():
    import pickle

    for F, G, x0 in (_skew_saddle(5), _ball_form(5)):
        exact = equilibrium_gap(F, G, x0) is not None
        for read_first in (False, True):
            res = solve(F, G, x0, SolverConfig(max_iter=50))
            expected = equilibrium_gap(F, G, res.y_star) if exact else equilibrium_certificate(
                F, G, res.y_star, sample_points(F.set, 256, 0))
            if read_first:
                assert _bits(res.certificate) == _bits(expected)
            back = pickle.loads(pickle.dumps(res))
            assert _bits(back.certificate) == _bits(res.certificate) == _bits(expected)
            assert back.certificate_exact is res.certificate_exact is exact
            assert back.y_star.tobytes() == res.y_star.tobytes()
            assert back.trace.residual_dr == res.trace.residual_dr


def test_a_read_certificate_drops_the_bifunctions():
    import gc
    import weakref

    F, G, x0 = _skew_saddle(5)
    res = solve(F, G, x0)
    refs = weakref.ref(F), weakref.ref(G)
    del F, G
    gc.collect()
    assert all(r() is not None for r in refs)  # held until the first read
    res.certificate
    gc.collect()
    assert all(r() is None for r in refs)


# ---------------------------------------------------------------------------
# the exact gap of a separable form
# ---------------------------------------------------------------------------

def _separable_form(rng, d, box):
    """A random separable form over a box or R^d, with its raw data: a skew
    operator part, an affine function with a constant, a diagonal Q >= 0
    (with zero entries over a box) and L1 weights (some zero)."""
    lo, hi = -rng.uniform(0.2, 2.0, d), rng.uniform(0.2, 2.0, d)
    C = Box(lo, hi) if box else WholeSpace(d)
    A = rng.normal(size=(d, d))
    M, c = A - A.T, rng.normal(size=d)
    a = rng.uniform(0.1, 3.0, d) * (rng.random(d) < 0.6 if box else 1.0)
    q1, q2, k = rng.normal(size=d), rng.normal(size=d), float(rng.normal())
    w = rng.uniform(0.0, 2.0, d) * (rng.random(d) < 0.7)
    F = sum_bifunctions(operator_bifunction(C, M, c), function_difference(C, AffineFunction(q1, k)))
    G = sum_bifunctions(function_difference(C, Quadratic(np.diag(a), q2)), function_difference(C, WeightedL1(w)))
    bounds = (lo, hi) if box else (None, None)
    return F, G, (M, c, a, q1 + q2, w, *bounds)


@pytest.mark.parametrize("d", [1, 5, 20])
@pytest.mark.parametrize("box", [True, False], ids=["box", "whole-space"])
def test_exact_gap_is_below_the_sample_and_matches_the_reference(d, box):
    rng = np.random.default_rng([d, box])
    for trial in range(10):
        F, G, (M, c, a, q, w, lo, hi) = _separable_form(rng, d, box)
        Y = sample_points(F.set, 256, trial)
        # points of C, and points off it: the gap is defined at any p
        P = np.vstack([sample_points(F.set, 8, 100 + trial), 3.0 * rng.normal(size=(4, d))])
        exact = equilibrium_gap(F, G, P)
        sampled = equilibrium_certificate(F, G, P, Y)
        for p, v, s in zip(P, exact, sampled):
            assert v <= s + 1e-12 * (1.0 + abs(v))
            ref = separable_gap_ref(M, c, a, q, w, p, lo, hi)
            assert abs(v - ref) <= 1e-10 * (1.0 + abs(v)), (trial, v, ref)
        # at a point of C the gap is at most F(p, p) + G(p, p) = 0
        assert np.all(exact[:8] <= 1e-12 * (1.0 + np.abs(exact[:8])))


@pytest.mark.parametrize("d", [2, 20, 200])
def test_stacked_exact_gap_rows_have_their_one_point_bits(d):
    rng = np.random.default_rng(d)
    for box in (True, False):
        F, G, _ = _separable_form(rng, d, box)
        P = rng.normal(size=(33, d))
        values = equilibrium_gap(F, G, P)
        assert values.shape == (33,)
        for p, v in zip(P, values):
            assert _bits(v) == _bits(equilibrium_gap(F, G, p))


def _fallback_forms(d=5):
    """(name, F, G): forms with no exact gap, each for its own reason."""
    rng = np.random.default_rng(3)
    A = rng.normal(size=(d, d))
    M, c = (A - A.T) / d + np.eye(d), rng.normal(size=d)
    R = WholeSpace(d)
    box = Box(-np.ones(d), np.ones(d))

    class Rest(Quadratic):
        """A Quadratic by value that is not one by exact type."""

    flat = np.eye(d)
    flat[0, 0] = 0.0
    dense = A @ A.T / d
    yield "non-diagonal Q", operator_bifunction(box, M, c), function_difference(box, Quadratic(dense, c))
    for C in (Ball(np.zeros(d), 1.5), Halfspace(rng.normal(size=d), 0.5)):
        yield C.kind, operator_bifunction(C, M, c), function_difference(C, Quadratic(np.eye(d), c))
    s = rng.normal(size=d)
    generic = generic_bifunction(box, lambda x, y: float(s @ (y - x)), lambda x, Y: (Y - x) @ s)
    yield "generic part", sum_bifunctions(operator_bifunction(box, M, c), generic), zero_bifunction(box)
    yield "rest function", operator_bifunction(box, M, c), function_difference(box, Rest(np.eye(d), c))
    yield "zero-curvature axis", operator_bifunction(R, M, c), function_difference(R, Quadratic(flat, c))


def test_forms_without_a_closed_form_keep_the_sampled_certificate():
    for name, F, G in _fallback_forms():
        assert equilibrium_gap(F, G, np.zeros(F.dimension)) is None, name
        res = solve(F, G, np.ones(F.dimension), SolverConfig(max_iter=3, seed=4))
        assert res.certificate_exact is False, name
        expected = equilibrium_certificate(F, G, res.y_star, sample_points(F.set, 256, 4))
        assert _bits(res.certificate) == _bits(expected), name
        assert res.certificate_exact is False, name


def test_an_operator_form_result_has_no_certificate_kind():
    inst = get_problem("skew-saddle")
    res = solve_operator_form(operator_from_bifunction(inst.F), operator_from_bifunction(inst.G), inst.default_x0)
    assert res.certificate is None and res.certificate_exact is None


def test_the_none_error_preset_is_the_error_free_pass(monkeypatch):
    from eqsplit import dr_solver

    calls = []
    run_dr = dr_solver._run_dr

    def counting(jf, jg, *args, **kwargs):
        def f(v):
            calls.append(None)
            return jf(v)
        return run_dr(f, jg, *args, **kwargs)

    monkeypatch.setattr(dr_solver, "_run_dr", counting)
    inst = get_problem("skew-saddle")
    d = inst.set.dimension
    assert ERROR_PRESETS["none"](d) is None
    preset = SolverConfig(error_schedule_a=ERROR_PRESETS["none"](d), error_schedule_b=ERROR_PRESETS["none"](d))
    got = solve(inst.F, inst.G, inst.default_x0, preset)
    assert len(calls) == got.iterations + 1  # one F-side map per pass
    expected = solve(inst.F, inst.G, inst.default_x0, SolverConfig())
    assert got.y_star.tobytes() == expected.y_star.tobytes()
    assert got.x_star.tobytes() == expected.x_star.tobytes()


def test_an_error_on_f_alone_maps_f_once_per_pass(monkeypatch):
    # with no error on the G side, y and its reflection are the clean
    # pass's, so z is the clean z plus a_n; the reference injects a zero
    # error on the G side, which rounds away on every pass of this solve
    # (no y entry is -0.0), so it maps F once per pass as well
    from eqsplit import dr_solver

    calls = []
    run_dr = dr_solver._run_dr

    def counting(jf, jg, *args, **kwargs):
        def f(v):
            calls.append(None)
            return jf(v)
        return run_dr(f, jg, *args, **kwargs)

    monkeypatch.setattr(dr_solver, "_run_dr", counting)
    inst = get_problem("skew-saddle")
    d = inst.set.dimension
    got = solve(inst.F, inst.G, inst.default_x0, SolverConfig(error_schedule_a=geometric_errors(d)))
    assert len(calls) == got.iterations + 1  # one F-side map per pass
    calls.clear()
    both = SolverConfig(error_schedule_a=geometric_errors(d), error_schedule_b=zero_errors(d))
    expected = solve(inst.F, inst.G, inst.default_x0, both)
    assert len(calls) == expected.iterations + 1
    # only the sign of a zero may differ
    assert got.iterations == expected.iterations
    np.testing.assert_array_equal(got.y_star, expected.y_star)
    np.testing.assert_array_equal(got.x_star, expected.x_star)
    assert got.trace.residual_dr == expected.trace.residual_dr


# ---------------------------------------------------------------------------
# injected errors, one draw per pass when both sides share a schedule
# ---------------------------------------------------------------------------

def _counting(schedule, calls):
    def counted(n):
        calls.append(n)
        return schedule(n)

    return counted


@pytest.mark.parametrize("lam", [1.0, 1.8])
def test_a_shared_schedule_gives_the_bits_of_two_equal_ones(lam):
    for inst in corpus():
        d = inst.set.dimension
        shared = geometric_errors(d)
        results = [
            solve(inst.F, inst.G, inst.default_x0,
                  SolverConfig(lambda_schedule=lam, error_schedule_a=a, error_schedule_b=b))
            for a, b in ((shared, shared), (geometric_errors(d), geometric_errors(d)))
        ]
        for a, b in ((results[0].y_star, results[1].y_star), (results[0].x_star, results[1].x_star)):
            assert a.tobytes() == b.tobytes(), inst.name
        for name in ("n", "residual_dr", "step"):
            assert getattr(results[0].trace, name) == getattr(results[1].trace, name), inst.name
        for a, b in zip(results[0].trace.x + results[0].trace.y, results[1].trace.x + results[1].trace.y):
            assert a.tobytes() == b.tobytes(), inst.name


def test_a_shared_schedule_is_called_once_per_iteration():
    F, G, x0 = _skew_saddle(5)
    calls = []
    shared = _counting(geometric_errors(5), calls)
    cfg = SolverConfig(max_iter=40, residual_tol=1e-300, error_schedule_a=shared, error_schedule_b=shared)
    assert solve(F, G, x0, cfg).iterations == 40
    assert calls == list(range(40))
    calls.clear()
    cfg = replace(cfg, error_schedule_b=_counting(geometric_errors(5), calls))
    solve(F, G, x0, cfg)
    assert sorted(calls) == sorted(list(range(40)) * 2)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [{"seed": -1}, {"seed": 1.5}, {"seed": "3"}, {"seed": None},
                                 {"gamma": np.nan}, {"gamma": np.inf},
                                 {"residual_tol": np.nan}, {"residual_tol": np.inf},
                                 {"max_iter": 2.5}, {"trace_every": 1.5},
                                 {"max_iter": True}, {"trace_every": True}, {"seed": True}, {"seed": False},
                                 {"gamma": True}, {"gamma": np.True_}, {"residual_tol": True}])
def test_config_rejects_a_bad_setting(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        SolverConfig(**bad)


@pytest.mark.parametrize("flag", [True, np.True_, False])
def test_a_bool_relaxation_is_rejected(flag):
    # float(True) is 1.0, a valid lambda: a bool constant is refused, not read
    with pytest.raises(ValueError, match="bool"):
        SolverConfig(lambda_schedule=flag)
    J = ResolventOracle(1.0, zero_bifunction(WholeSpace(1)))
    with pytest.raises(ValueError, match="bool"):
        dr_step([0.0], J, J, flag)


def test_config_accepts_a_numpy_integer_seed():
    inst = get_problem("vi-over-box")
    res = solve(inst.F, inst.G, inst.default_x0, SolverConfig(seed=np.int64(3)))
    expected = solve(inst.F, inst.G, inst.default_x0, SolverConfig(seed=3))
    assert res.y_star.tobytes() == expected.y_star.tobytes()
    assert _bits(res.certificate) == _bits(expected.certificate)


# ---------------------------------------------------------------------------
# the step column: lambda_n ||z_n - y_n||, from the pass
# ---------------------------------------------------------------------------

def _assert_steps_of_the_pass(res, full, F, G, cfg, label):
    """Each ``trace.step`` of ``res``, a solve of (F, G) under ``cfg``, has
    the bits of lambda_n sqrt(d @ d) for d = z - y of :func:`dr_step` at the
    row's x with the pass's errors, and is within 4 eps (||x_n|| +
    ||x_{n+1}||) of the distance to the next iterate, which ``full``, the
    same solve recording every row, holds; a last row that ended the solve
    reads 0.0."""
    import math

    eps = np.finfo(float).eps
    JF, JG = ResolventOracle(cfg.gamma, F), ResolventOracle(cfg.gamma, G)
    a_sched, b_sched = cfg.error_schedule_a, cfg.error_schedule_b
    iterates = dict(zip(full.trace.n, full.trace.x))
    assert len(res.trace.step) == len(res.trace)
    for n, x, step in zip(res.trace.n, res.trace.x, res.trace.step):
        assert x.tobytes() == iterates[n].tobytes(), (label, n)
        if n == res.iterations:
            assert res.status != INNER_FAILURE
            assert _bits(step) == _bits(0.0), (label, n)
            continue
        lam = cfg.lambda_schedule(n) if callable(cfg.lambda_schedule) else cfg.lambda_schedule
        a_n = None if a_sched is None else a_sched(n)
        b_n = a_n if b_sched is a_sched else None if b_sched is None else b_sched(n)
        y, z, _ = dr_step(x, JF, JG, lam, a_n=a_n, b_n=b_n)
        d = z - y
        assert _bits(step) == _bits(lam * math.sqrt(d @ d)), (label, n)
        x_next = iterates[n + 1]
        distance = math.sqrt((x_next - x) @ (x_next - x))
        assert abs(step - distance) <= 4 * eps * (norm(x) + norm(x_next)), (label, n)


_SCHEDULES = {
    "none": lambda d: (None, None),
    "shared": lambda d: (geometric_errors(d),) * 2,
    "distinct": lambda d: (geometric_errors(d), inverse_square_errors(d, c=0.5, axis=d - 1)),
}


@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("errors", sorted(_SCHEDULES))
@pytest.mark.parametrize("every", [1, 5])
def test_trace_step_is_the_norm_of_consecutive_iterates(gamma, errors, every):
    # the length of the update lambda_n (z_n - y_n), exact where the
    # difference of consecutive iterates loses digits to |x_n|
    for inst in corpus():
        a, b = _SCHEDULES[errors](inst.set.dimension)
        cfg = SolverConfig(gamma=gamma, lambda_schedule=1.5, error_schedule_a=a, error_schedule_b=b,
                           max_iter=300, trace_every=every)
        res = solve(inst.F, inst.G, inst.default_x0, cfg)
        full = solve(inst.F, inst.G, inst.default_x0, replace(cfg, trace_every=1))
        _assert_steps_of_the_pass(res, full, inst.F, inst.G, cfg, inst.name)


@pytest.mark.parametrize("every", [1, 5])
def test_trace_step_bits_at_every_ending_and_dimension(every):
    # max_iter
    inst = get_problem("skew-saddle")
    cfg = SolverConfig(max_iter=12, residual_tol=1e-300, trace_every=every)
    res = solve(inst.F, inst.G, inst.default_x0, cfg)
    assert res.status == MAX_ITER
    full = solve(inst.F, inst.G, inst.default_x0, replace(cfg, trace_every=1))
    _assert_steps_of_the_pass(res, full, inst.F, inst.G, cfg, "max_iter")
    # inner_failure, in J_F after 11 passes, with injected errors
    from eqsplit import dr_solver
    from eqsplit.resolvents import ConvergenceFailure

    F, G, x0 = _skew_saddle(5)
    real = dr_solver.resolvent_map

    def failing_map(oracle):
        apply, calls = real(oracle), []
        if oracle.bifunction is not F:
            return apply

        def fail_late(x):
            calls.append(1)
            if len(calls) > 11:
                raise ConvergenceFailure("inner cap reached", iterate=x)
            return apply(x)

        return fail_late

    cfg = SolverConfig(lambda_schedule=1.5, error_schedule_a=geometric_errors(5),
                       error_schedule_b=geometric_errors(5), residual_tol=1e-300, trace_every=every)
    full = solve(F, G, x0, replace(cfg, max_iter=20, trace_every=1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dr_solver, "resolvent_map", failing_map)
        with pytest.warns(UserWarning, match="inner resolvent failure"):
            res = solve(F, G, x0, cfg)
    assert res.status == INNER_FAILURE and 0 < len(res.trace) <= res.iterations
    assert res.x_star.tobytes() == full.trace.x[res.iterations].tobytes()
    _assert_steps_of_the_pass(res, full, F, G, cfg, "inner_failure")
    # d = 20 and d = 200, with a relaxation schedule and errors
    for d in (20, 200):
        F, G, x0 = _skew_saddle(d)
        for lam, errors in ((1.0, None), ("ramp", geometric_errors(d))):
            cfg = SolverConfig(lambda_schedule=ramp_relaxation() if lam == "ramp" else lam,
                               error_schedule_a=errors, error_schedule_b=errors,
                               max_iter=400, trace_every=every)
            res = solve(F, G, x0, cfg)
            full = solve(F, G, x0, replace(cfg, trace_every=1))
            _assert_steps_of_the_pass(res, full, F, G, cfg, f"d={d} lambda={lam}")


def test_thinned_trace_rows_are_rows_of_the_full_trace():
    F, G, x0 = _skew_saddle(20)
    for every in (3, 5, 1000):
        for lam, errors in ((1.0, None), (1.5, None), ("ramp", geometric_errors(20))):
            cfg = SolverConfig(lambda_schedule=ramp_relaxation() if lam == "ramp" else lam,
                               error_schedule_a=errors, error_schedule_b=errors, trace_every=every)
            thinned = solve(F, G, x0, cfg)
            full = solve(F, G, x0, replace(cfg, trace_every=1)).trace
            assert thinned.status == CONVERGED, (every, lam)
            kept = [r for r, n in enumerate(full.n) if n % every == 0 or r == len(full) - 1]
            assert thinned.trace.n == [full.n[r] for r in kept]
            for name in ("x", "y"):
                got, expected = getattr(thinned.trace, name), getattr(full, name)
                assert [v.tobytes() for v in got] == [expected[r].tobytes() for r in kept], name
            for name in ("residual_dr", "step"):
                got, expected = getattr(thinned.trace, name), getattr(full, name)
                assert [_bits(v) for v in got] == [_bits(expected[r]) for r in kept], name


def _box_l1_vi(d):
    rng = np.random.default_rng(900 + d)
    A = rng.normal(size=(d, d))
    C = Box(-np.ones(d), np.ones(d))
    F = operator_bifunction(C, A @ A.T / d + np.eye(d) + (A - A.T) / d, 3.0 * rng.normal(size=d))
    return F, function_difference(C, WeightedL1(rng.uniform(0.5, 2.0, size=d))), 0.5 * rng.normal(size=d)


@pytest.mark.parametrize("preset", ["none", "geometric"])
def test_unit_relaxation_writes_the_trace_bytes_of_lambda_times_diff(tmp_path, preset):
    # a constant lambda of 1 updates by x + (z - y), and a schedule
    # n -> 1.0 by x + lam (z - y): the two solves must write the same
    # trace file and keep the same iterates, byte for byte
    from eqsplit.cli import _write_trace
    from eqsplit.dr_solver import ERROR_PRESETS

    problems = [(inst.name, inst.F, inst.G, inst.default_x0) for inst in corpus()]
    problems += [("box-l1-20", *_box_l1_vi(20)), ("skew-saddle-20", *_skew_saddle(20))]
    for name, F, G, x0 in problems:
        runs = []
        for lam in (1.0, lambda n: 1.0):
            errors = None if preset == "none" else ERROR_PRESETS[preset](F.dimension)
            cfg = SolverConfig(gamma=0.1 if name == "box-l1-20" else 1.0, lambda_schedule=lam,
                               error_schedule_a=errors, error_schedule_b=errors, max_iter=3000)
            res = solve(F, G, x0, cfg)
            path = tmp_path / f"{name}-{len(runs)}.csv"
            _write_trace(path, res, F, G, cfg)
            runs.append((path.read_bytes(), res))
        (text, res), (scheduled_text, scheduled) = runs
        assert res.status == CONVERGED and text == scheduled_text, name
        for a, b in zip(res.trace.x + [res.x_star], scheduled.trace.x + [scheduled.x_star]):
            assert a.tobytes() == b.tobytes(), name


def _previous_relaxed_update(jf, x, y, z, diff, lam, a_n, b_n):
    # the update before it took x + (z - y) at lambda 1 and y + y for 2 y;
    # with no error on the G side, z is the clean z plus a_n
    if b_n is not None:
        y = y + b_n
        z = jf(2.0 * y - x) + (a_n if a_n is not None else 0.0)
        diff = z - y
    elif a_n is not None:
        z = z + a_n
        diff = z - y
    return y, z, x + lam * diff


@pytest.mark.parametrize("d", [2, 20, 200])
def test_relaxed_update_at_unit_lambda_has_the_bits_of_lambda_times_diff(d):
    from eqsplit.dr_solver import _relaxed_update

    rng = np.random.default_rng(d)
    K = rng.normal(size=(d, d))
    jf = K.dot
    x, y, z = rng.normal(size=(3, d))
    x[::3], y[1::3], z[2::3] = 0.0, -0.0, -0.0
    a, b = 1e-3 * rng.normal(size=(2, d))
    for lam in (1.0, 1.5):
        for a_n, b_n in ((None, None), (a, None), (None, b), (a, b)):
            *got, diff = _relaxed_update(jf, x, y, z, z - y, lam, a_n, b_n)
            expected = _previous_relaxed_update(jf, x, y, z, z - y, lam, a_n, b_n)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in expected]
            # the applied difference it returns is z - y of the moved pair
            assert diff.tobytes() == (expected[1] - expected[0]).tobytes()
        # from the clean z, an error on F alone gives the values of the
        # update that mapped F again at y + 0.0; only the sign of a zero
        # may differ
        clean = jf(y + y - x)
        got = _relaxed_update(jf, x, y, clean, clean - y, lam, a, None)
        moved = y + 0.0
        again = jf(2.0 * moved - x) + a
        for v, e in zip(got, (moved, again, x + lam * (again - moved), again - moved), strict=True):
            np.testing.assert_array_equal(v, e)


def _maps_again(jf, x, y, lam, a_n, b_n):
    # the update that maps F again at the moved y, whatever b_n did to it
    y = y + b_n
    z = jf(y + y - x)
    if a_n is not None:
        z = z + a_n
    return y, z, x + lam * (z - y)


@pytest.mark.parametrize("case, moves", [("tiny", False), ("zero", False), ("zero on -0.0", True), ("small", True)])
def test_f_is_mapped_again_only_when_the_error_moves_y(case, moves):
    # an error lost to rounding (y + b_n has the bytes of y) leaves y and
    # its reflection as they were, so F is not mapped again and the update
    # has the bytes of the one that maps again; +0.0 on a -0.0 entry
    # changes the bytes of y, so it maps again
    from types import SimpleNamespace

    from eqsplit.dr_solver import _relaxed_update

    d = 6
    rng = np.random.default_rng(33)
    K = rng.normal(size=(d, d))
    calls = []

    def jf(v):
        calls.append(None)
        return K.dot(v)

    x = rng.normal(size=d)
    y = rng.choice([-1.0, 1.0], size=d) * rng.uniform(1.0, 2.0, size=d)
    if case == "zero on -0.0":
        y[2] = -0.0
    b = {"tiny": np.full(d, 1e-300), "small": 1e-3 * rng.normal(size=d)}.get(case, zero_errors(d)(0))
    JF = SimpleNamespace(dimension=d, _apply=jf)
    JG = SimpleNamespace(dimension=d, _apply=lambda v: y)
    for lam in (1.0, 1.5):
        for a_n in (None, 1e-3 * rng.normal(size=d)):
            expected = _maps_again(jf, x, y, lam, a_n, b)
            expected_bytes = [v.tobytes() for v in expected]
            calls.clear()
            z = jf(y + y - x)
            *got, diff = _relaxed_update(jf, x, y, z, z - y, lam, a_n, b)
            assert len(calls) == 1 + moves
            assert [v.tobytes() for v in got] == expected_bytes
            assert diff.tobytes() == (expected[1] - expected[0]).tobytes()
            calls.clear()
            stepped = dr_step(x, JF, JG, lam, a_n, b)
            assert len(calls) == 1 + moves
            assert [v.tobytes() for v in stepped] == expected_bytes
