"""The relaxed splitting iteration: steps, schedules, traces, and solves."""

import numpy as np
import pytest

from eqsplit.bifunctions import (
    Quadratic,
    function_difference,
    operator_bifunction,
    sum_bifunctions,
    zero_bifunction,
)
from eqsplit.dr_solver import (
    CONVERGED,
    INNER_FAILURE,
    MAX_ITER,
    SolverConfig,
    dr_step,
    equilibrium_certificate,
    geometric_errors,
    inverse_square_errors,
    residual_dr,
    solve,
    solve_operator_form,
    zero_errors,
)
from eqsplit.hilbert import Box, WholeSpace, norm, sample_points
from eqsplit.operators import GridSpec, equilibrium_bruteforce, operator_from_bifunction
from eqsplit.problems import corpus, get_problem
from eqsplit.resolvents import INNER_ITERATIVE, ResolventOracle, reflect, resolve

from oracles import box_vi_projected


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


def test_inner_failure_status():
    inst = get_problem("vi-over-box")
    cfg = SolverConfig(inner_max_iter=2, residual_tol=1e-12)
    JG = ResolventOracle(cfg.gamma, inst.G, seed=cfg.seed)
    # from (2, -1) the shadow point P_C x = (1, 0) and the failed inner
    # iterate of J_F at 2 P_C x - x differ
    for x0 in (inst.default_x0, [2.0, -1.0]):
        with pytest.warns(UserWarning, match="inner resolvent failure"):
            res = solve(inst.F, inst.G, x0, cfg, method_f=INNER_ITERATIVE)
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
    assert len(res_b.trace.x) == len(res_o.trace.x)
    for xb, xo in zip(res_b.trace.x, res_o.trace.x):
        np.testing.assert_array_equal(xb, xo)


def test_residual_decay_across_gamma_sweep():
    # the reflection residual is driven below 1e-6 for small, unit, and
    # large resolvent scalings alike
    for gamma in (0.1, 1.0, 10.0):
        for inst in corpus():
            cfg = SolverConfig(gamma=gamma, residual_tol=1e-6, max_iter=5000)
            res = solve(inst.F, inst.G, inst.default_x0, cfg, check_inputs=False)
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
    assert any("admissibility" in str(w.message) for w in recorded)


def test_certificate_helper():
    inst = get_problem("quadratic-1d")
    c = equilibrium_certificate(inst.F, inst.G, [-0.5], sample_points(inst.set, 512, 0))
    assert c >= -1e-12  # the exact solution has a nonnegative certificate


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
