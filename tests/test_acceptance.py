"""Acceptance criteria.

One test per criterion; each prints a PASS/FAIL line (visible under
``pytest -s``) and then asserts.  Tolerances are fixed here, not tuned at
run time; comments record how each slack is matched to the structure it
measures.
"""

import time

import numpy as np

from eqsplit.bifunctions import sum_bifunctions
from eqsplit.dr_solver import (
    CONVERGED,
    SolverConfig,
    geometric_errors,
    solve,
    solve_operator_form,
)
from eqsplit.hilbert import Box, WholeSpace, norm, sample_points
from eqsplit.operators import (
    GridSpec,
    affine_operator,
    bifunction_from_operator,
    equilibrium_bruteforce,
    normal_cone_operator,
    operator_from_bifunction,
    operator_sum,
    set_distance,
    zeros_bruteforce,
)
from eqsplit.problems import corpus, get_problem
from eqsplit.resolvents import PROX_COMPOSITION, ResolventOracle, resolve

from oracles import as_generic


def _report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


ONE_D_INSTANCES = ("quadratic-1d", "mixed-equilibrium", "operator-bridge")


def test_criterion_1_resolvent_firm_nonexpansiveness():
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    worst = -np.inf
    for inst in corpus():
        for H in (inst.F, inst.G):
            d = H.dimension
            for gamma in (0.1, 1.0, 10.0):
                oracle = ResolventOracle(gamma, H)
                X = rng.normal(scale=2.0, size=(1000, d))
                Y = rng.normal(scale=2.0, size=(1000, d))
                for x, y in zip(X, Y):
                    jx, jy = resolve(oracle, x), resolve(oracle, y)
                    lhs = norm(jx - jy) ** 2
                    rhs = norm(x - y) ** 2 - norm((x - jx) - (y - jy)) ** 2
                    worst = max(worst, lhs - rhs)
    elapsed = time.monotonic() - t0
    _report(
        1,
        worst <= 1e-8 and elapsed <= 30.0,
        f"worst firm-nonexpansiveness slack {worst:.2e} <= 1e-8 over 12 bifunctions x 3 gammas "
        f"x 1000 pairs, {elapsed:.1f}s <= 30s",
    )


def test_criterion_2_residual_decay():
    t0 = time.monotonic()
    worst_iters = 0
    for inst in corpus():
        cfg = SolverConfig(gamma=1.0, lambda_schedule=1.0, residual_tol=1e-6, max_iter=5000)
        res = solve(inst.F, inst.G, inst.default_x0, cfg)
        ok = res.status == CONVERGED and res.trace.residual_dr[-1] <= 1e-6
        worst_iters = max(worst_iters, res.iterations)
        if not ok:
            _report(2, False, f"{inst.name} did not reach residual 1e-6 within 5000 iterations")
    elapsed = time.monotonic() - t0
    _report(
        2,
        elapsed <= 60.0,
        f"all 6 instances reached residual 1e-6 (worst {worst_iters} iterations), "
        f"{elapsed:.1f}s <= 60s",
    )


def test_criterion_3_solution_certificate():
    worst_cert = np.inf
    worst_dist = 0.0
    for inst in corpus():
        res = solve(inst.F, inst.G, inst.default_x0, SolverConfig(residual_tol=1e-8))
        assert res.status == CONVERGED, inst.name
        Y = sample_points(inst.set, 1024, seed=21)
        cert = float((inst.F.eval_batch(res.y_star, Y) + inst.G.eval_batch(res.y_star, Y)).min())
        dist = inst.solution_distance(res.y_star)
        worst_cert = min(worst_cert, cert)
        worst_dist = max(worst_dist, dist)
    _report(
        3,
        worst_cert >= -1e-5 and worst_dist <= 1e-5,
        f"worst certificate {worst_cert:.2e} >= -1e-5 over 1024 samples, "
        f"worst oracle distance {worst_dist:.2e} <= 1e-5",
    )


def test_criterion_4_zero_set_equals_solution_set():
    t0 = time.monotonic()
    worst = 0.0
    for name in ONE_D_INSTANCES:
        inst = get_problem(name)
        (lo, hi), = inst.grid_bounds
        grid = GridSpec([lo], [hi], 1e-3)
        AF = operator_from_bifunction(inst.F)
        AG = operator_from_bifunction(inst.G)
        # slack 1e-6 on both oracles: the admissible-multiplier window and
        # the equilibrium residual both degrade quadratically around
        # degenerate solutions, so sqrt(1e-6) = one grid step of fattening
        zeros = zeros_bruteforce(AF, AG, grid, tol=1e-6, method="sampled")
        sols = equilibrium_bruteforce(sum_bifunctions(inst.F, inst.G), grid, tol=1e-6)
        assert len(zeros) >= 1 and len(sols) >= 1, name
        worst = max(worst, set_distance(zeros, sols))
    elapsed = time.monotonic() - t0
    _report(
        4,
        worst <= 2e-3 and elapsed <= 120.0,
        f"zero sets match solution sets on instances 2/4/6: worst set distance "
        f"{worst:.2e} <= 2 grid steps (2e-3), {elapsed:.1f}s <= 120s",
    )


def test_criterion_5_operator_bridge_identities():
    # membership equivalence between the operator induced by the bridged
    # bifunction of B over a box and the sum B + normal cone
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    q = np.array([-1.0, 0.5])
    C = Box([0.0, 0.0], [1.0, 1.0])
    B = affine_operator(M, q)
    A_FB = operator_from_bifunction(bifunction_from_operator(B, C))
    BN = operator_sum(B, normal_cone_operator(C))
    rng = np.random.default_rng(200)
    X = sample_points(C, 400, seed=201)
    checked = 0
    agreements = 0
    for x in X:
        if checked >= 200:
            break
        image = BN.evaluate(x)
        u = M @ x + q + rng.normal(scale=1.5, size=2)
        # classify only points a clear margin (1e-3) from the image
        # boundary; the membership tolerance itself stays at 1e-8
        inside = image.contains(u, -1e-3)
        outside = not image.contains(u, 1e-3)
        if not (inside or outside):
            continue
        checked += 1
        agreements += A_FB.member(x, u, tol=1e-8) == inside
    ok_membership = checked >= 200 and agreements == checked

    # the bifunction bridged back from the operator induced by the
    # quadratic difference never exceeds it, with a strict gap at 0
    H = WholeSpace(1)
    from eqsplit.bifunctions import Quadratic, function_difference

    G = function_difference(H, Quadratic([[2.0]], [0.0]))
    F_AG = bifunction_from_operator(operator_from_bifunction(G), H)
    P = rng.normal(scale=2.0, size=(1000, 2))
    bound_ok = all(F_AG([x], [y]) <= G([x], [y]) + 1e-10 for x, y in P)
    witness_ok = all(
        F_AG([0.0], [y]) == 0.0 and G([0.0], [y]) > 0.0 for y in (0.5, -0.5, 1.0, -1.0)
    )
    _report(
        5,
        ok_membership and bound_ok and witness_ok,
        f"membership agreement on {checked} sampled pairs at 1e-8; induced bifunction "
        f"lower-bounds its source on 1000 pairs with the strict gap at the origin",
    )


def test_criterion_6_inexactness_robustness():
    worst = 0.0
    for name in ONE_D_INSTANCES:
        inst = get_problem(name)
        clean = solve(inst.F, inst.G, inst.default_x0, SolverConfig())
        noisy_cfg = SolverConfig(
            error_schedule_a=geometric_errors(1, c=1.0, rho=0.5),
            error_schedule_b=geometric_errors(1, c=1.0, rho=0.5),
        )
        noisy = solve(inst.F, inst.G, inst.default_x0, noisy_cfg)
        assert clean.status == CONVERGED and noisy.status == CONVERGED, name
        worst = max(worst, abs(noisy.y_star[0] - clean.y_star[0]))
    _report(
        6,
        worst <= 1e-4,
        f"geometric error injection 0.5^n: worst solution shift {worst:.2e} <= 1e-4 "
        f"on the 1-D instances",
    )


def test_criterion_7_operator_and_bifunction_forms_coincide():
    worst = 0.0
    cfg = SolverConfig(max_iter=100, residual_tol=1e-30, trace_every=1)
    for inst in corpus():
        res_b = solve(inst.F, inst.G, inst.default_x0, cfg)
        A = operator_from_bifunction(inst.F)
        B = operator_from_bifunction(inst.G)
        res_o = solve_operator_form(A, B, inst.default_x0, cfg)
        assert len(res_b.trace.x) == len(res_o.trace.x), inst.name
        for xb, xo in zip(res_b.trace.x, res_o.trace.x):
            worst = max(worst, float(np.max(np.abs(xb - xo))))
    _report(
        7,
        worst <= 1e-12,
        f"operator-form and bifunction-form iterates deviate by {worst:.2e} <= 1e-12 "
        f"over 100 iterations on all instances",
    )


def test_criterion_8_relaxation_sweep():
    inst = get_problem("vi-over-box")
    solutions = []
    for lam in (0.2, 1.0, 1.8):
        res = solve(inst.F, inst.G, inst.default_x0, SolverConfig(lambda_schedule=lam))
        assert res.status == CONVERGED, lam
        solutions.append(res.y_star)
    spread = max(
        norm(a - b) for i, a in enumerate(solutions) for b in solutions[i + 1 :]
    )
    try:
        SolverConfig(lambda_schedule=2.5)
        rejected = False
    except ValueError:
        rejected = True
    _report(
        8,
        spread <= 1e-6 and rejected,
        f"relaxation sweep agrees to {spread:.2e} <= 1e-6; relaxation 2.5 rejected at "
        f"configuration time",
    )


def test_criterion_9_mixed_equilibrium_prox_path():
    inst = get_problem("mixed-equilibrium")
    default_oracle = ResolventOracle(1.0, inst.G)
    assert default_oracle.method == PROX_COMPOSITION
    via_prox = solve(inst.F, inst.G, inst.default_x0, SolverConfig())
    via_inner = solve(inst.F, as_generic(inst.G), inst.default_x0, SolverConfig())
    assert via_prox.status == CONVERGED and via_inner.status == CONVERGED
    gap = norm(via_prox.y_star - via_inner.y_star)
    _report(
        9,
        gap <= 1e-6,
        f"clamped soft-threshold resolvent and generic iterative resolvent agree to "
        f"{gap:.2e} <= 1e-6 on the mixed instance",
    )
