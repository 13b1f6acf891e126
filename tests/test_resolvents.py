"""Resolvent computation: closed forms, the inner iterative solver, and contracts."""

import itertools
import sys
import threading
from dataclasses import dataclass, field

import numpy as np
import pytest

from eqsplit.bifunctions import (
    AffineFunction,
    Quadratic,
    WeightedL1,
    check_admissibility,
    function_difference,
    generic_bifunction,
    operator_bifunction,
    sum_bifunctions,
    zero_bifunction,
)
from eqsplit.dr_solver import CONVERGED, INNER_FAILURE, MAX_ITER, SolverConfig, equilibrium_gap, solve
from eqsplit.hilbert import (
    SAMPLE_SCALE,
    AffineSubspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    IntersectionSet,
    Simplex,
    WholeSpace,
    norm,
    sample_points,
)
from eqsplit.operators import affine_operator, operator_from_bifunction
from eqsplit.resolvents import (
    CLOSED_FORM_LINEAR_SOLVE,
    CLOSED_FORM_PROJECTION,
    FD_STEP,
    INNER_ITERATIVE,
    INNER_TOL,
    KEPT_PATTERNS,
    PROX_COMPOSITION,
    ConvergenceFailure,
    ResolventOracle,
    inner_solve,
    partial_second,
    reflect,
    resolve,
    resolvent_map,
)

from oracles import (
    affine_projector_ref,
    as_generic,
    box_vi_active_set,
    box_vi_projected,
    grid_golden_min,
    l1_prox_halfspace_ref,
    l1_prox_simplex_ref,
    project_ball_ref,
    project_halfspace_ref,
    project_simplex_ref,
    prox_oracle_1d,
    resolvent_ball_kkt,
    resolvent_projected,
)


def test_zero_bifunction_resolvent_is_projection():
    C = Box([-1.0], [1.0])
    o = ResolventOracle(1.0, zero_bifunction(C))
    assert o.method == CLOSED_FORM_PROJECTION
    assert resolve(o, [3.0])[0] == pytest.approx(1.0, abs=1e-14)


def test_quadratic_difference_resolvent_scalar():
    # z = argmin_y gamma y^2 + (y - x)^2 / 2 = x / (1 + 2 gamma)
    C = WholeSpace(1)
    F = function_difference(C, Quadratic([[2.0]], [0.0]))
    o = ResolventOracle(1.0, F)
    assert o.method == CLOSED_FORM_LINEAR_SOLVE
    oracle = grid_golden_min(lambda y: 1.0 * y * y + 0.5 * (y - 1.0) ** 2, -3.0, 3.0)
    assert oracle == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert resolve(o, [1.0])[0] == pytest.approx(oracle, abs=1e-9)


def test_linear_operator_resolvent_scalar():
    # (1 + 2 gamma) z = x for the operator x -> 2x
    C = WholeSpace(1)
    F = operator_bifunction(C, [[2.0]])
    o = ResolventOracle(1.0, F)
    assert o.method == CLOSED_FORM_LINEAR_SOLVE
    assert resolve(o, [1.0])[0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_rotation_operator_resolvent():
    C = WholeSpace(2)
    S = [[0.0, 1.0], [-1.0, 0.0]]
    F = operator_bifunction(C, S)
    o = ResolventOracle(1.0, F)
    expected = np.linalg.solve(np.eye(2) + np.array(S), [1.0, 0.0])
    np.testing.assert_allclose(expected, [0.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(resolve(o, [1.0, 0.0]), expected, atol=1e-12)


def test_reflect_examples():
    H = WholeSpace(1)
    o_id = ResolventOracle(1.0, zero_bifunction(H))
    assert reflect(o_id, [0.7])[0] == pytest.approx(0.7, abs=1e-14)

    C = Box([-1.0], [1.0])
    o_proj = ResolventOracle(1.0, zero_bifunction(C))
    assert reflect(o_proj, [3.0])[0] == pytest.approx(-1.0, abs=1e-14)

    F = function_difference(H, Quadratic([[2.0]], [0.0]))
    o_quad = ResolventOracle(1.0, F)
    assert reflect(o_quad, [1.0])[0] == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_inner_solve_zero_bifunction_two_iterations():
    C = Box([-1.0, -1.0], [1.0, 1.0])
    F = zero_bifunction(C)
    z, info = inner_solve(F, 1.0, [3.0, 0.5], tol=1e-9, max_iter=100, return_info=True)
    np.testing.assert_allclose(z, [1.0, 0.5], atol=1e-12)
    assert info["iterations"] <= 2


def test_inner_solve_quadratic_difference():
    C = WholeSpace(1)
    F = function_difference(C, Quadratic([[2.0]], [0.0]))
    z = inner_solve(F, 1.0, [1.0], tol=1e-9, max_iter=50000)
    assert z[0] == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_inner_solve_rotation():
    C = WholeSpace(2)
    F = operator_bifunction(C, [[0.0, 1.0], [-1.0, 0.0]])
    z = inner_solve(F, 1.0, [1.0, 0.0], tol=1e-10, max_iter=50000)
    np.testing.assert_allclose(z, [0.5, 0.5], atol=1e-8)


def test_inner_solve_exhaustion_carries_iterate():
    C = Box([0.0, 0.0], [1.0, 1.0])
    F = operator_bifunction(C, [[2.0, 1.0], [1.0, 2.0]], [-1.5, -2.5])
    with pytest.raises(ConvergenceFailure) as err:
        inner_solve(F, 10.0, [5.0, 5.0], tol=1e-12, max_iter=3)
    assert err.value.iterate is not None
    assert err.value.residual is not None


def test_box_vi_resolvent_against_active_set_oracle():
    C = Box([0.0, 0.0], [1.0, 1.0])
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    q = np.array([-1.5, -2.5])
    F = operator_bifunction(C, M, q)
    rng = np.random.default_rng(10)
    for gamma in (0.1, 1.0, 10.0):
        o = ResolventOracle(gamma, F)
        assert o.method == CLOSED_FORM_LINEAR_SOLVE
        for _ in range(10):
            x = rng.normal(scale=2.0, size=2)
            # resolvent solves the VI with map (I + gamma M) z + (gamma q - x)
            sols = box_vi_active_set(np.eye(2) + gamma * M, gamma * q - x, C.lo, C.hi)
            assert len(sols) == 1
            np.testing.assert_allclose(resolve(o, x), sols[0], atol=1e-8)


def test_prox_identity_weighted_l1_over_box():
    # resolvent of f(y) - f(x) equals the constrained minimizer of
    # gamma f(y) + ||y - x||^2 / 2 over C
    C = Box([-1.0], [1.0])
    F = function_difference(C, WeightedL1([1.0]))
    for gamma in (0.5, 1.0, 2.0):
        o = ResolventOracle(gamma, F)
        for x in (-3.0, -0.7, 0.2, 1.4, 5.0):
            direct = prox_oracle_1d(abs, gamma, x, -1.0, 1.0)
            assert resolve(o, [x])[0] == pytest.approx(direct, abs=1e-8)


def test_prox_identity_quadratic_over_box():
    C = Box([-1.0], [1.0])
    F = function_difference(C, Quadratic([[2.0]], [0.5]))
    o = ResolventOracle(1.0, F)
    for x in (-2.0, 0.0, 0.3, 2.5):
        direct = prox_oracle_1d(lambda y: y * y + 0.5 * y, 1.0, x, -1.0, 1.0)
        assert resolve(o, [x])[0] == pytest.approx(direct, abs=1e-8)


def test_prox_nonseparable_quadratic_over_box():
    C = Box([0.0, 0.0], [1.0, 1.0])
    Q = np.array([[2.0, 1.0], [1.0, 2.0]])
    F = function_difference(C, Quadratic(Q, [0.0, 0.0]))
    o = ResolventOracle(1.0, F)
    for x in ([2.0, 2.0], [0.5, -1.0], [0.2, 0.4]):
        x = np.array(x)
        # optimality system of the constrained quadratic program
        sols = box_vi_active_set(np.eye(2) + Q, -x, C.lo, C.hi)
        assert len(sols) == 1
        np.testing.assert_allclose(resolve(o, x), sols[0], atol=1e-8)


def test_consistency_linear_solve_vs_inner_iterative():
    # over a box, the unconstrained closed form and the iterative route
    # agree whenever the unconstrained solution is interior
    C = Box([-10.0, -10.0], [10.0, 10.0])
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    F = operator_bifunction(C, M, [0.1, -0.2])
    H = WholeSpace(2)
    F_free = operator_bifunction(H, M, [0.1, -0.2])
    o_lin = ResolventOracle(1.0, F_free)
    assert o_lin.method == CLOSED_FORM_LINEAR_SOLVE
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(scale=2.0, size=2)
        z_free = resolve(o_lin, x)
        if np.all(np.abs(z_free) < 10.0):
            np.testing.assert_allclose(inner_solve(F, 1.0, x), z_free, atol=1e-6)


def test_forced_inner_iterative_on_declared_family():
    # the generic route on a structured bifunction must agree with its
    # closed form (single-valuedness of the resolvent)
    C = Box([-1.0], [1.0])
    F = function_difference(C, WeightedL1([1.0]))
    o_closed = ResolventOracle(1.0, F)
    for x in (-2.0, -0.4, 0.0, 0.8, 3.0):
        assert inner_solve(F, 1.0, [x])[0] == pytest.approx(resolve(o_closed, [x])[0], abs=1e-6)


def test_generic_family_fd_subgradients():
    C = WholeSpace(1)
    F = generic_bifunction(C, lambda x, y: float(y[0] ** 2 - x[0] ** 2))
    o = ResolventOracle(1.0, F)
    assert o.method == INNER_ITERATIVE
    assert resolve(o, [1.0])[0] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_generic_differences_come_from_the_batch_oracle():
    # two batch calls on y +- FD_STEP I replace 2 d scalar calls; without a
    # batch oracle the rows are evaluated one at a time, as the scalar loop
    d = 20
    rng = np.random.default_rng(23)
    M, c = _vi_matrix(rng, d)
    op = operator_bifunction(WholeSpace(d), M, c)
    calls = []

    def fn(x, y):
        calls.append(1)
        return op(x, y)

    x, y = rng.normal(size=(2, d))
    batched = partial_second(generic_bifunction(op.set, fn, op.eval_batch))(x, y)
    assert calls == []
    scalar = np.array([(fn(x, y + e) - fn(x, y - e)) / (2.0 * FD_STEP) for e in FD_STEP * np.eye(d)])
    # one ulp of a value of about 10, over 2 FD_STEP, is about 1e-9
    assert norm(batched - scalar) <= 1e-9 * (1.0 + norm(scalar))
    np.testing.assert_array_equal(partial_second(generic_bifunction(op.set, fn))(x, y), scalar)


# ---------------------------------------------------------------------------
# the method follows from the normal form
# ---------------------------------------------------------------------------

def test_corpus_resolvent_methods_are_pinned():
    # the benchmark tracer groups resolve times by these labels
    expected = {
        "pure-feasibility": (CLOSED_FORM_PROJECTION, CLOSED_FORM_PROJECTION),
        "quadratic-1d": (CLOSED_FORM_LINEAR_SOLVE, CLOSED_FORM_PROJECTION),
        "vi-over-box": (CLOSED_FORM_LINEAR_SOLVE, CLOSED_FORM_PROJECTION),
        "mixed-equilibrium": (CLOSED_FORM_LINEAR_SOLVE, PROX_COMPOSITION),
        "skew-saddle": (CLOSED_FORM_LINEAR_SOLVE, CLOSED_FORM_LINEAR_SOLVE),
        "operator-bridge": (CLOSED_FORM_LINEAR_SOLVE, CLOSED_FORM_LINEAR_SOLVE),
    }
    methods = dict.fromkeys(expected, ())
    for name, o in _corpus_oracles(1.0):
        methods[name] += (o.method,)
    assert methods == expected


@pytest.mark.parametrize("kind", ["box", "whole-space"])
def test_sum_of_operator_parts_gets_the_linear_closed_form(kind):
    d, gamma = 6, 0.7
    C = Box(-np.ones(d), np.ones(d)) if kind == "box" else WholeSpace(d)
    M0, c0, _ = _skew_plus_shift(d, 5)
    M1, c1, _ = _skew_plus_shift(d, 6)
    S = sum_bifunctions(operator_bifunction(C, M0, c0), operator_bifunction(C, M1, c1))
    summed = ResolventOracle(gamma, S)
    single = ResolventOracle(gamma, operator_bifunction(C, M0 + M1, c0 + c1))
    assert summed.method == single.method == CLOSED_FORM_LINEAR_SOLVE
    for x in np.random.default_rng(7).normal(scale=2.0, size=(10, d)):
        expected = resolve(single, x)
        assert norm(resolve(summed, x) - expected) <= 1e-12 * (1.0 + norm(expected))
    # an operator part written as a Quadratic or an AffineFunction joins
    # A and b: the sum is the single operator, bit for bit
    rng = np.random.default_rng(9)
    B, (q, a) = rng.normal(size=(d, d)), rng.normal(size=(2, d))
    Q = B @ B.T / d
    op = operator_bifunction(C, M0, c0)
    for part, A, b in ((Quadratic(Q, q), M0 + Q, c0 + q), (AffineFunction(a, 2.0), M0, c0 + a)):
        summed = ResolventOracle(gamma, sum_bifunctions(op, function_difference(C, part)))
        single = ResolventOracle(gamma, operator_bifunction(C, A, b))
        assert summed.method == single.method == CLOSED_FORM_LINEAR_SOLVE
        for x in np.random.default_rng(10).normal(scale=2.0, size=(10, d)):
            np.testing.assert_array_equal(resolve(summed, x), resolve(single, x))


def test_zero_plus_l1_over_box_is_the_l1_prox():
    C = Box([-1.0, -0.5, 0.0], [1.0, 0.5, 2.0])
    w, gamma = np.array([0.3, 1.0, 0.0]), 1.5
    o = ResolventOracle(gamma, sum_bifunctions(zero_bifunction(C), function_difference(C, WeightedL1(w))))
    assert o.method == PROX_COMPOSITION
    for x in np.random.default_rng(8).normal(scale=2.0, size=(20, 3)):
        shrunk = np.sign(x) * np.maximum(np.abs(x) - gamma * w, 0.0)
        np.testing.assert_allclose(resolve(o, x), np.clip(shrunk, C.lo, C.hi), rtol=0.0, atol=1e-15)


class _DoubledQuadratic(Quadratic):
    """2 (y'Qy / 2 + q'y): a subclass whose oracles are not the shipped ones."""

    def value(self, y):
        return 2.0 * super().value(y)

    def value_batch(self, Y):
        return 2.0 * super().value_batch(Y)

    def subgradient(self, y):
        return 2.0 * super().subgradient(y)

    def curvature_bounds(self):
        mu, L = super().curvature_bounds()
        return 2.0 * mu, 2.0 * L


def test_a_subclass_of_a_shipped_type_is_read_through_its_oracles():
    # the closed forms, the exact membership and the exact admissibility
    # report all hold for the shipped types only, matched by exact type
    d = 3
    rng = np.random.default_rng(24)
    B = rng.normal(size=(d, d))
    Q, q = B @ B.T / d + 0.5 * np.eye(d), rng.normal(size=d)
    F = function_difference(WholeSpace(d), _DoubledQuadratic(Q, q))
    o = ResolventOracle(1.0, F)
    assert o.method == INNER_ITERATIVE
    for x in rng.normal(scale=2.0, size=(5, d)):
        expected = np.linalg.solve(np.eye(d) + 2.0 * Q, x - 2.0 * q)
        assert norm(resolve(o, x) - expected) <= 1e-10 * (1.0 + norm(expected))
    A = operator_from_bifunction(F)
    with pytest.raises(ValueError, match="interval evaluation"):
        A.evaluate_batch(rng.normal(size=(1, d)))
    x = rng.normal(size=d)
    g = Q @ x + q
    assert A.member(x, 2.0 * g) and not A.member(x, g)
    report = check_admissibility(F)
    assert not report.exact and report.samples > 0 and report.passed


def test_sum_with_a_generic_part_takes_the_inner_route():
    # finite differences apply to the generic part only, and the L1 part
    # keeps its exact subgradient, so the oracle answers as the
    # all-structured sum does and may fail only where that sum fails;
    # differences of the whole sum stall at the kinks of |y| on some of
    # these draws
    rng = np.random.default_rng(22)
    solved = 0
    for d in (1, 2, 3):
        C = Box(-np.ones(d), np.ones(d))
        l1 = function_difference(C, WeightedL1(0.5 * np.ones(d)))
        for _ in range(8):
            B = rng.normal(size=(d, d))
            op = operator_bifunction(C, B - B.T + 0.5 * np.eye(d), rng.normal(size=d))
            x = rng.normal(scale=2.0, size=d)
            o = ResolventOracle(1.0, sum_bifunctions(as_generic(op), l1))
            assert o.method == INNER_ITERATIVE
            structured = ResolventOracle(1.0, sum_bifunctions(op, l1))
            try:
                z = resolve(o, x)
            except ConvergenceFailure:
                with pytest.raises(ConvergenceFailure):
                    resolve(structured, x)
                continue
            np.testing.assert_allclose(z, resolve(structured, x), rtol=0.0, atol=1e-9)
            solved += 1
    assert solved > 0


def test_inner_route_finds_its_step_once_per_oracle(monkeypatch):
    # the contraction's spectral constants (lambda_min of sym M and ||M||_2)
    # are computed once per bifunction, never per resolve
    M, c = [[1.0, 2.0], [-2.0, 1.0]], [0.5, -0.5]
    F = operator_bifunction(Ball([0.0, 0.0], 1.0), M, c)
    o = ResolventOracle(0.5, F)
    assert o.method == INNER_ITERATIVE
    x = np.array([1.5, 0.3])
    expected = {g: inner_solve(operator_bifunction(Ball([0.0, 0.0], 1.0), M, c), g, x) for g in (0.5, 2.0)}
    vector_norm = np.linalg.norm

    def no_spectrum(a, *args, **kwargs):
        if np.ndim(a) > 1:
            raise AssertionError("spectral constants computed per resolve")
        return vector_norm(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    monkeypatch.setattr(np.linalg, "norm", no_spectrum)
    for _ in range(2):
        np.testing.assert_array_equal(resolve(o, x), expected[0.5])
    np.testing.assert_array_equal(resolve(ResolventOracle(2.0, F), x), expected[2.0])


def _corpus_oracles(gamma):
    from eqsplit.problems import corpus

    for inst in corpus():
        for H in (inst.F, inst.G):
            yield inst.name, ResolventOracle(gamma, H)


def test_output_in_set_and_residual_certified():
    # at gamma 1, z = J x exactly when x - z lies in A_H z, which the
    # corpus operators' interval images decide exactly
    rng = np.random.default_rng(12)
    for name, o in _corpus_oracles(1.0):
        C = o.bifunction.set
        A = operator_from_bifunction(o.bifunction)
        for _ in range(5):
            x = rng.normal(scale=2.0, size=C.dimension)
            z = resolve(o, x)
            assert C.contains(z, 1e-10), name
            assert A.member(z, x - z), name


def test_firm_nonexpansiveness_sampled():
    rng = np.random.default_rng(13)
    for name, o in _corpus_oracles(1.0):
        d = o.dimension
        X = rng.normal(scale=2.0, size=(100, d))
        Y = rng.normal(scale=2.0, size=(100, d))
        for x, y in zip(X, Y):
            jx, jy = resolve(o, x), resolve(o, y)
            lhs = norm(jx - jy) ** 2
            rhs = norm(x - y) ** 2 - norm((x - jx) - (y - jy)) ** 2
            assert lhs <= rhs + 1e-8, name


def test_reflection_nonexpansive_sampled():
    rng = np.random.default_rng(14)
    for name, o in _corpus_oracles(1.0):
        d = o.dimension
        for _ in range(50):
            x = rng.normal(scale=2.0, size=d)
            y = rng.normal(scale=2.0, size=d)
            assert norm(reflect(o, x) - reflect(o, y)) <= norm(x - y) + 1e-8, name


def test_gamma_must_be_positive():
    # every public resolvent entry rejects a gamma that is not positive and
    # finite, over each route: a projection, whole-space and box linear
    # solves, the L1 prox and the inner loop
    box = Box([-1.0, -1.0], [1.0, 1.0])
    forms = [
        zero_bifunction(box),
        operator_bifunction(WholeSpace(2), np.eye(2)),
        operator_bifunction(box, [[1.0, 1.0], [-1.0, 1.0]], [0.5, 0.0]),
        function_difference(box, WeightedL1([1.0, 0.5])),
        function_difference(Ball(np.zeros(2), 1.0), Quadratic(np.eye(2), np.ones(2))),
    ]
    for gamma, F in itertools.product((np.nan, np.inf, 0.0, -1.0), forms):
        A = operator_from_bifunction(F)
        for call in (
            lambda: ResolventOracle(gamma, F),
            lambda: A.resolvent(gamma, [1.0, 2.0]),
            lambda: A.resolvent_map(gamma),
            lambda: inner_solve(F, gamma, [1.0, 2.0]),
        ):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                call()
        assert F._resolvent is None


# ---------------------------------------------------------------------------
# linear resolvents factored once per bifunction and gamma
# ---------------------------------------------------------------------------

def _skew_plus_shift(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    return (A - A.T) / (2.0 * np.sqrt(d)) + 0.1 * np.eye(d), rng.normal(size=d), rng.normal(size=d)


def test_linear_resolvent_matches_direct_solve_at_d200():
    d, gamma = 200, 1.5
    M, c, x = _skew_plus_shift(d, 0)
    o = ResolventOracle(gamma, operator_bifunction(WholeSpace(d), M, c))
    assert o.method == CLOSED_FORM_LINEAR_SOLVE
    expected = np.linalg.solve(np.eye(d) + gamma * M, x - gamma * c)
    assert norm(resolve(o, x) - expected) <= 1e-12 * norm(expected)

    rng = np.random.default_rng(1)
    B = rng.normal(size=(d, d))
    Q, q = B @ B.T / d, rng.normal(size=d)
    o = ResolventOracle(gamma, function_difference(WholeSpace(d), Quadratic(Q, q)))
    assert o.method == CLOSED_FORM_LINEAR_SOLVE
    expected = np.linalg.solve(np.eye(d) + gamma * Q, x - gamma * q)
    assert norm(resolve(o, x) - expected) <= 1e-12 * norm(expected)


def test_closed_form_linear_resolvents_solve_nothing_per_call(monkeypatch):
    H = WholeSpace(3)
    M, c, x = _skew_plus_shift(3, 2)
    linear = ResolventOracle(1.0, operator_bifunction(H, M, c))
    prox = ResolventOracle(1.0, function_difference(H, Quadratic(np.eye(3), c)))

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called per resolve")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    assert np.all(np.isfinite(resolve(linear, x)))
    assert np.all(np.isfinite(resolve(prox, x)))


def test_singular_linear_resolvent_rejected_at_construction():
    # M = -I is not monotone and makes I + M singular at gamma = 1
    F = operator_bifunction(WholeSpace(2), -np.eye(2))
    with pytest.raises(ValueError, match="singular"):
        ResolventOracle(1.0, F)


def test_affine_operator_and_induced_operator_share_linear_resolvent():
    d, gamma = 20, 0.7
    M, c, _ = _skew_plus_shift(d, 3)
    direct = affine_operator(M, c).resolvent_map(gamma)
    induced = operator_from_bifunction(operator_bifunction(WholeSpace(d), M, c)).resolvent_map(gamma)
    for x in np.random.default_rng(4).normal(size=(10, d)):
        np.testing.assert_array_equal(direct(x), induced(x))


@pytest.fixture
def inversions(monkeypatch):
    """Calls of np.linalg.inv, counted; the inverse itself is unchanged."""
    calls = []
    inv = np.linalg.inv

    def counting_inv(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return calls


def test_linear_resolvent_is_kept_per_bifunction_for_its_last_gamma(inversions):
    d = 20
    M, c, x = _skew_plus_shift(d, 5)
    F = operator_bifunction(WholeSpace(d), M, c)
    first = resolve(ResolventOracle(1.0, F), x)
    assert len(inversions) == 1
    np.testing.assert_array_equal(resolve(ResolventOracle(1.0, F), x), first)
    assert len(inversions) == 1
    # a new gamma replaces the entry, so the old one is factored again
    ResolventOracle(2.0, F)
    assert len(inversions) == 2
    np.testing.assert_array_equal(resolve(ResolventOracle(1.0, F), x), first)
    assert len(inversions) == 3
    # a bifunction with the same data keeps its own entry
    np.testing.assert_array_equal(resolve(ResolventOracle(1.0, operator_bifunction(WholeSpace(d), M, c)), x), first)
    assert len(inversions) == 4


def test_inner_routes_are_kept():
    F = function_difference(Ball(np.zeros(3), 1.0), Quadratic(np.eye(3), np.ones(3)))
    o = ResolventOracle(1.0, F)
    assert o.method == INNER_ITERATIVE and F._resolvent[0] == 1.0
    assert ResolventOracle(1.0, F)._apply is o._apply
    assert resolvent_map(o) is resolvent_map(ResolventOracle(1.0, F)) is o._apply
    # a new gamma replaces the entry
    p = ResolventOracle(2.0, F)
    assert F._resolvent[0] == 2.0 and p._apply is not o._apply
    assert ResolventOracle(2.0, F)._apply is p._apply
    # only the inner route reads the spectral constants
    assert "curvature" in vars(F)
    for C in (WholeSpace(3), Box(-np.ones(3), np.ones(3))):
        H = operator_bifunction(C, np.eye(3) + 1.0, np.ones(3))
        assert ResolventOracle(1.0, H).method == CLOSED_FORM_LINEAR_SOLVE
        assert "curvature" not in vars(H)


@pytest.mark.parametrize("M", [-np.eye(2), [[-1.0, 1.0], [0.0, 0.0]]], ids=["diagonal", "full"])
def test_a_singular_linear_resolvent_raises_on_every_build(M):
    F = operator_bifunction(WholeSpace(2), M)
    for _ in range(3):
        with pytest.raises(ValueError, match="singular"):
            ResolventOracle(1.0, F)
    assert F._resolvent is None
    # another gamma is regular, and the singular one still raises after it
    assert np.all(np.isfinite(resolve(ResolventOracle(0.5, F), [1.0, 2.0])))
    with pytest.raises(ValueError, match="singular"):
        ResolventOracle(1.0, F)


def test_a_kept_resolvent_holds_at_most_one_square_matrix():
    """One d x d inverse per whole-space side; over a box, I + gamma A and
    the maps of at most ``KEPT_PATTERNS`` pivoting patterns."""
    import gc
    import tracemalloc

    d = 200
    M, c, x0 = _skew_plus_shift(d, 6)
    B = np.random.default_rng(6).normal(size=(d, d))
    C = WholeSpace(d)
    square, slack = d * d * 8, 16 * 1024
    box_M, box_c, _ = _box_vi(d, 6)

    def kept(F, G):
        """Bytes still held after solves at three gammas, with F and G built."""
        before = tracemalloc.get_traced_memory()[0]
        for gamma in (0.5, 1.0, 2.0):
            solve(F, G, x0, SolverConfig(gamma=gamma, max_iter=5))
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before

    full = [operator_bifunction(C, M, c), function_difference(C, Quadratic(B @ B.T / d, c))]
    diagonal = [function_difference(C, Quadratic(np.eye(d), c)), zero_bifunction(C)]
    box = Box(-np.ones(d), np.ones(d))
    tracemalloc.start()
    try:
        held = (
            kept(*full),
            kept(*diagonal),
            kept(full[0], diagonal[0]),
            kept(operator_bifunction(box, box_M, box_c), zero_bifunction(box)),
        )
    finally:
        tracemalloc.stop()
    # one inverse per side with an A, a diagonal one included; nothing for the zero
    assert 2 * square <= held[0] <= 2 * square + slack, held
    assert square <= held[1] <= square + slack, held
    # both sides already hold gamma 2, so nothing more is kept
    assert held[2] <= slack, held
    # the box side keeps A and the map of each pattern it met, at most
    # KEPT_PATTERNS of them, the all-free one among them
    assert 2 * square <= held[3] <= (1 + KEPT_PATTERNS) * square + slack, held


@pytest.mark.parametrize("d", [2, 20, 200])
def test_box_all_free_pattern_is_kept_bit_for_bit(d, inversions):
    # a kept box closure starts on the all-free pattern, whose map is the
    # inverse it was built with; once pivoting has moved to another
    # pattern, a return takes the kept map, inverts nothing, and must give
    # the bits of a fresh closure
    gamma = 0.1
    M, c, rng = _box_vi(d, 40 + d)
    C = Box(-np.ones(d), np.ones(d))
    u = rng.uniform(-0.5, 0.5, size=d)
    u[0] = 0.0
    inside = (np.eye(d) + gamma * M) @ u + gamma * c
    expected = resolve(ResolventOracle(gamma, operator_bifunction(C, M, c)), inside)
    F = operator_bifunction(C, M, c)
    o = ResolventOracle(gamma, F)
    outside = resolve(o, 10.0 * rng.normal(size=d))
    assert np.abs(outside).max() == 1.0
    inversions.clear()
    got = resolve(o, inside)
    assert inversions == []
    assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# box linear resolvents by block principal pivoting
# ---------------------------------------------------------------------------

def _box_vi(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    M = A @ A.T / d + np.eye(d) + (A - A.T) / d
    return M, 3.0 * rng.normal(size=d), rng


@pytest.mark.parametrize("d", [5, 20, 50])
def test_box_vi_resolvent_natural_residual(d):
    M, c, rng = _box_vi(d, d)
    C = Box(-np.ones(d), np.ones(d))
    F = operator_bifunction(C, M, c)
    for gamma in (0.1, 1.0, 10.0):
        o = ResolventOracle(gamma, F)
        assert o.method == CLOSED_FORM_LINEAR_SOLVE
        A = np.eye(d) + gamma * M
        for x in rng.normal(scale=3.0, size=(5, d)):
            z = resolve(o, x)
            assert C.contains(z, 0.0)
            w = A @ z - (x - gamma * c)
            natural = norm(z - np.clip(z - w, C.lo, C.hi))
            assert natural <= 1e-10 * (1.0 + norm(x)), (gamma, natural)


def test_box_vi_resolvent_matches_enumeration_up_to_d4():
    rng = np.random.default_rng(20)
    for trial in range(60):
        d = 1 + trial % 4
        B = rng.normal(size=(d, d))
        S = rng.normal(size=(d, d))
        M = B @ B.T / d + (S - S.T)
        c = rng.normal(size=d)
        lo = -rng.uniform(0.0, 2.0, size=d)
        hi = rng.uniform(0.0, 2.0, size=d)
        if trial % 5 == 0:
            hi[0] = lo[0]  # a degenerate side
        C = Box(lo, hi)
        gamma = float(10.0 ** rng.uniform(-1.0, 1.0))
        o = ResolventOracle(gamma, operator_bifunction(C, M, c))
        x = rng.normal(scale=3.0, size=d)
        sols = box_vi_active_set(np.eye(d) + gamma * M, gamma * c - x, lo, hi)
        assert len(sols) == 1
        np.testing.assert_allclose(resolve(o, x), sols[0], atol=1e-10)


def test_box_vi_resolvent_non_monotone_never_returns_a_point():
    C = Box([-1.0, -1.0], [1.0, 1.0])
    # I + M = [[1, 1], [0, -1]] is not a P-matrix: the pivoting cycles
    cycling = ResolventOracle(1.0, operator_bifunction(C, [[0.0, 1.0], [0.0, -2.0]]))
    with pytest.raises(ConvergenceFailure) as err:
        resolve(cycling, [4.0, 2.0])
    np.testing.assert_array_equal(err.value.iterate, [1.0, 1.0])
    # I + M = [[0, 1], [1, 0]]: the block of the first coordinate is singular
    singular_block = ResolventOracle(1.0, operator_bifunction(C, [[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ConvergenceFailure, match="singular block"):
        resolve(singular_block, [5.0, 0.5])
    # I + M = 0 is rejected when the oracle is built
    with pytest.raises(ValueError, match="singular"):
        ResolventOracle(1.0, operator_bifunction(C, -np.eye(2)))


def test_nonseparable_box_quadratic_prox_uses_pivoting(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("inner solver reached over a box")

    monkeypatch.setattr("eqsplit.resolvents.inner_solve", forbidden)
    d = 20
    M, q, rng = _box_vi(d, 5)
    Q = 0.5 * (M + M.T)
    C = Box(-np.ones(d), np.ones(d))
    gamma = 2.0
    o = ResolventOracle(gamma, function_difference(C, Quadratic(Q, q)))
    assert o.method == CLOSED_FORM_LINEAR_SOLVE
    A = np.eye(d) + gamma * Q
    for x in rng.normal(scale=3.0, size=(5, d)):
        z = resolve(o, x)
        w = A @ z - (x - gamma * q)
        assert norm(z - np.clip(z - w, C.lo, C.hi)) <= 1e-10 * (1.0 + norm(x))


# ---------------------------------------------------------------------------
# box pivoting from the kept pattern
# ---------------------------------------------------------------------------

def _dr_like(rng, d, n=12):
    """Inputs that drift and settle, as 2 y_n - x_n does along a solve."""
    x = rng.normal(scale=2.0, size=d)
    out = [x]
    for k in range(1, n):
        x = x + rng.normal(scale=0.5 / k**2, size=d)
        out.append(x)
    return out


def _assert_same(warm, cold):
    assert norm(warm - cold) <= 1e-12 * (1.0 + norm(cold)), norm(warm - cold)


@pytest.mark.parametrize("d", [2, 5, 20, 50])
def test_box_warm_start_matches_cold(d):
    # any pattern the oracle keeps gives the answer of a fresh bifunction,
    # whose kept map starts all free
    M, c, rng = _box_vi(d, 100 + d)
    lo, hi = -np.ones(d), np.ones(d)
    pinned_lo, pinned_hi = lo.copy(), hi.copy()
    pinned_lo[::3] = pinned_hi[::3] = rng.uniform(-0.5, 0.5, size=pinned_lo[::3].size)
    B = rng.normal(size=(d, d))
    Q = B @ B.T / d
    makers = [
        lambda: operator_bifunction(Box(lo, hi), M, c),
        lambda: function_difference(Box(lo, hi), Quadratic(Q, c)),
        lambda: operator_bifunction(Box(pinned_lo, pinned_hi), M, c),
    ]
    for gamma in (0.1, 1.0, 10.0):
        for make in makers:
            o = ResolventOracle(gamma, make())
            C = o.bifunction.set
            for x in _dr_like(rng, d):
                cold = resolve(ResolventOracle(gamma, make()), x)
                # the pattern of the previous input along the sequence, then
                # far patterns: both corners and the reflected point
                _assert_same(resolve(o, x), cold)
                for far in (10.0 * C.hi, 10.0 * C.lo, -x):
                    resolve(o, far)
                    _assert_same(resolve(o, x), cold)


@pytest.mark.parametrize("start", [None] + [np.array(s) for s in np.ndindex(3, 3)])
def test_box_warm_start_cannot_hide_a_failure(start):
    # earlier calls at each point of the 3 x 3 grid {-5, 0, 5}^2 leave the
    # pattern their pivoting last met in the oracle, and keep the map of
    # every pattern they met; the failing input is then mapped again after
    # its own failures have been kept too, and no kept pattern may let a
    # later call return a point, or fail otherwise than a fresh oracle
    C = Box([-1.0, -1.0], [1.0, 1.0])
    # I + M = [[1, 1], [0, -1]]: the pivoting cycles, although the hi
    # corner meets the KKT signs
    cycling = [[0.0, 1.0], [0.0, -2.0]]
    singular_block = [[-1.0, 1.0], [1.0, -1.0]]
    for M, x, iterate in ((cycling, [4.0, 2.0], [1.0, 1.0]), (singular_block, [5.0, 0.5], [1.0, 0.5])):
        with pytest.raises(ConvergenceFailure) as err:
            resolve(ResolventOracle(1.0, operator_bifunction(C, M)), x)
        failures = [(str(err.value), err.value.iterations, err.value.residual)]
        o = ResolventOracle(1.0, operator_bifunction(C, M))
        for _ in range(3):
            # twice, so that a pattern that held for the first call has its
            # bound rows at the second
            for _ in range(2 if start is not None else 0):
                try:
                    resolve(o, 5.0 * (start - 1.0))
                except ConvergenceFailure:
                    pass
            with pytest.raises(ConvergenceFailure) as err:
                resolve(o, x)
            np.testing.assert_array_equal(err.value.iterate, iterate)
            failures.append((str(err.value), err.value.iterations, err.value.residual))
        assert failures[1:] == failures[:-1]
    assert "singular block" in failures[0][0]


def test_box_warm_repeat_forms_no_factorization():
    d, gamma = 20, 0.1
    M, c, rng = _box_vi(d, 7)
    pinned_lo, pinned_hi = -np.ones(d), np.ones(d)
    pinned_lo[::5] = pinned_hi[::5] = 0.3
    x1 = rng.normal(scale=2.0, size=d)
    x2 = x1 + 1e-6 * rng.normal(size=d)
    x3 = x2 + 1e-6 * rng.normal(size=d)

    def no_factorization(*args, **kwargs):
        raise AssertionError("a repeated pattern was factored again")

    def no_sign_rows(*args, **kwargs):
        raise AssertionError("a repeated pattern formed its bound rows again")

    def no_pass(*args, **kwargs):
        raise AssertionError("a held pattern ran a pivoting pass")

    for C in (Box(-np.ones(d), np.ones(d)), Box(pinned_lo, pinned_hi)):
        F = operator_bifunction(C, M, c)
        o = ResolventOracle(gamma, F)
        z1 = resolve(o, x1)
        expected = resolve(ResolventOracle(gamma, F), x2)
        at_bound = np.abs(z1) == 1.0
        np.testing.assert_array_equal(np.abs(expected) == 1.0, at_bound)
        assert 0 < np.count_nonzero(at_bound) < d
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "inv", no_factorization)
            patch.setattr(np.linalg, "solve", no_factorization)
            _assert_same(resolve(o, x2), expected)
            # the pattern has now held for a call, so it has its bound rows;
            # a further repeat forms none again and certifies its answer
            # without a pivoting pass (each pass counts its infeasible
            # coordinates)
            patch.setattr("eqsplit.resolvents._sign_rows", no_sign_rows)
            patch.setattr(np, "count_nonzero", no_pass)
            for x in (x2, x1, x3):
                assert np.array_equal(np.abs(resolve(o, x)) == 1.0, at_bound)


def _inverted_blocks(monkeypatch):
    """The bytes of each matrix that np.linalg.inv inverts from here on,
    through whatever counts its calls already."""
    blocks = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: blocks.append(np.asarray(a).tobytes()) or inv(a))
    return blocks


def _free_block(A, z, lo, hi):
    """The bytes of the free block of A on the pattern z ends on."""
    free = (lo < z) & (z < hi)
    return A[free][:, free].tobytes()


@pytest.mark.parametrize("cap", [KEPT_PATTERNS, None])
def test_box_patterns_beyond_the_cap_are_evicted_and_rebuilt_bit_for_bit(cap, inversions, monkeypatch):
    # one box map is driven through more than KEPT_PATTERNS patterns, each
    # with a free block; a return to the least recently used one inverts
    # that block again and gives the bits it gave before, and a return to
    # the last one inverts nothing.  Without the cap (None: room for every
    # pattern) the first block is never inverted again
    if cap is None:
        monkeypatch.setattr("eqsplit.resolvents.KEPT_PATTERNS", 10**6)
    d, gamma = 8, 1.0
    M, c, rng = _box_vi(d, 17)
    lo, hi = -np.ones(d), np.ones(d)
    A = np.eye(d) + gamma * M
    F = operator_bifunction(Box(lo, hi), M, c)
    by_pattern = {}
    for x in rng.normal(scale=3.0, size=(400, d)):
        z = resolve(ResolventOracle(gamma, F), x)
        free = (lo < z) & (z < hi)
        if 0 < np.count_nonzero(free) < d:
            by_pattern.setdefault(_free_block(A, z, lo, hi), x)
    xs = list(by_pattern.values())[: KEPT_PATTERNS + 4]
    assert len(xs) == KEPT_PATTERNS + 4
    apply = resolvent_map(ResolventOracle(gamma, operator_bifunction(Box(lo, hi), M, c)))
    first = [apply(x) for x in xs]
    inversions.clear()
    blocks = _inverted_blocks(monkeypatch)
    assert apply(xs[-1]).tobytes() == first[-1].tobytes()
    assert inversions == []
    assert apply(xs[0]).tobytes() == first[0].tobytes()
    assert (_free_block(A, first[0], lo, hi) in blocks) == (cap is not None)


def test_a_new_start_or_lambda_inverts_only_new_patterns(inversions, monkeypatch):
    # repeated solves on one box VI pair with a new start or a new
    # relaxation invert each free block at most once, and never one an
    # earlier solve inverted; each has the bits of the same solve on fresh
    # bifunctions, which invert blocks the kept ones did not need again
    d, gamma = 20, 0.5
    M, c, rng = _box_vi(d, 23)
    B = rng.normal(size=(d, d))
    C = Box(-np.ones(d), np.ones(d))
    q = rng.normal(size=d)

    def make():
        return operator_bifunction(C, M, c), function_difference(C, Quadratic(B @ B.T / d, q))

    F, G = make()
    x0, x1 = 0.5 * rng.normal(size=(2, d))
    blocks = _inverted_blocks(monkeypatch)
    met, reused = set(), 0
    for x, lam in ((x0, 1.0), (x1, 1.0), (x0, 1.8), (x1, 0.5)):
        run = SolverConfig(gamma=gamma, lambda_schedule=lam, max_iter=2000)
        blocks.clear()
        inversions.clear()
        got = solve(F, G, x, run)
        new = set(blocks)
        assert len(inversions) == len(blocks) == len(new)
        assert met.isdisjoint(new)
        blocks.clear()
        fresh = solve(*make(), x, run)
        assert new <= set(blocks)
        reused += len(set(blocks) & met)
        assert got.status == fresh.status == CONVERGED
        assert got.y_star.tobytes() == fresh.y_star.tobytes()
        assert got.x_star.tobytes() == fresh.x_star.tobytes()
        assert got.iterations == fresh.iterations
        met |= new
    assert reused > 0


@pytest.mark.parametrize("d", [2, 20, 50])
def test_box_map_matches_the_public_rule_bit_for_bit(d):
    # every output of resolvent_map must have, byte for byte, the bits of
    # resolve on the same oracle, and lie within 1e-12 of a fresh
    # bifunction's answer.  Pinned sides, lo == hi, are in every box; the
    # second box moves a bound of a free coordinate onto its largest value
    # along the sequence, so that at one step the kept pattern holds a free
    # coordinate that lands exactly on its bound
    M, c, rng = _box_vi(d, 300 + d)
    lo, hi = -np.ones(d), np.ones(d)
    lo[1::4] = hi[1::4] = rng.uniform(-0.5, 0.5, size=lo[1::4].size)
    for gamma in (0.1, 1.0):
        xs = [0.3 * x for x in _dr_like(rng, d, 40)]
        apply = resolvent_map(ResolventOracle(gamma, operator_bifunction(Box(lo, hi), M, c)))
        zs = np.array([apply(x) for x in xs])
        # the free coordinate whose largest value comes last
        inside = np.flatnonzero(np.all((lo < zs) & (zs < hi), axis=0))
        i = inside[np.argmax(np.argmax(zs[:, inside], axis=0))]
        landed = hi.copy()
        landed[i] = zs[:, i].max()
        steps_onto_bound = 0
        for C in (Box(lo, hi), Box(lo, landed)):
            o = ResolventOracle(gamma, operator_bifunction(C, M, c))
            apply = resolvent_map(o)
            previous = None
            for x in xs:
                z = apply(x)
                assert z.tobytes() == resolve(o, x).tobytes()
                _assert_same(z, resolve(ResolventOracle(gamma, operator_bifunction(C, M, c)), x))
                np.testing.assert_array_equal(z[1::4], lo[1::4])
                if previous is not None and previous[i] < landed[i] == z[i] == C.hi[i]:
                    steps_onto_bound += 1
                previous = z
        assert steps_onto_bound > 0



def _edge_inputs(rng, lo, hi, t):
    """Random inputs, and inputs whose entries take, in turn, +0.0, -0.0, a
    bound of the box or +-t exactly, whatever the dimension."""
    d = lo.size
    kinds = np.array([np.zeros(d), np.full(d, -0.0), lo, hi, t, -t])
    xs = [rng.normal(size=d), 3.0 * rng.normal(size=d), np.zeros(d), np.full(d, -0.0)]
    for shift in range(7):
        x = 3.0 * rng.normal(size=d)
        pick = (np.arange(d) + shift) % 7
        at = np.flatnonzero(pick < 6)
        x[at] = kinds[pick[at], at]
        xs.append(x)
    return xs


def _box_pattern_reference(A, b, lo, hi, z):
    """The map of the pattern z ends on, in the expressions box pivoting
    used before it took ndarray.dot and np.putmask: z = where(free, L @ b +
    m, m), with L and m formed with @."""
    d = z.size
    side = np.where(z == hi, 1, np.where(z == lo, -1, 0))
    free = side == 0
    m = np.where(side > 0, hi, lo)
    m[free] = 0.0
    L = np.zeros((d, d))
    if free.any():
        A_f = A[free]
        Kf = np.linalg.inv(A_f[:, free])
        rows = np.zeros((Kf.shape[0], d))
        rows[:, free] = Kf
        L[free] = rows
        m[free] = -(Kf @ (A_f @ m))
    return np.where(free, L @ b + m, m)


def _assert_shrinkage_bits(got, expected):
    """``got`` equals ``expected`` in value, has its bits on every nonzero
    entry, and is +0.0 in every zero entry."""
    np.testing.assert_array_equal(got, expected)
    nonzero = expected != 0.0
    assert got[nonzero].tobytes() == expected[nonzero].tobytes()
    assert not np.signbit(got[~nonzero]).any()


@pytest.mark.parametrize("d", [2, 20, 200])
def test_lean_kept_maps_have_the_bits_of_their_previous_expressions(d, monkeypatch):
    # the kept maps take ndarray.dot and single closures; each output must
    # have, byte for byte, the bits of the expression it replaced, also on
    # +-0.0 entries, entries exactly on a bound or a threshold, and over a
    # box with pinned sides; the shrinkage maps, x minus x clipped to
    # [-t, t], differ only in giving +0.0 where sign(x) * 0 was -0.0
    M, c, rng = _box_vi(d, 500 + d)
    w = rng.uniform(0.5, 2.0, size=d)
    lo, hi = -np.ones(d), np.ones(d)
    lo[1::5] = hi[1::5] = 0.25
    C, R = Box(lo, hi), WholeSpace(d)
    for gamma in (0.1, 1.0):
        t = gamma * w
        xs = _edge_inputs(rng, lo, hi, t)
        K = np.linalg.inv(np.eye(d) + gamma * M)
        linear = resolvent_map(ResolventOracle(gamma, operator_bifunction(R, M, c)))
        shrink = resolvent_map(ResolventOracle(gamma, function_difference(R, WeightedL1(w))))
        box_shrink = resolvent_map(ResolventOracle(gamma, function_difference(C, WeightedL1(w))))
        for x in xs:
            assert linear(x).tobytes() == (K @ (x - gamma * c)).tobytes()
            soft = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
            _assert_shrinkage_bits(shrink(x), soft)
            _assert_shrinkage_bits(box_shrink(x), C._project(soft))
        # box pivoting: the first call at each x may pivot, the second
        # forms the pattern's bound rows, and the third holds it, with no
        # pivoting pass (each pass counts its infeasible coordinates)
        A = np.eye(d) + gamma * M
        box = resolvent_map(ResolventOracle(gamma, operator_bifunction(C, M, c)))
        real_count, held = np.count_nonzero, 0
        pivoted = False
        for x in xs:
            b = x - gamma * c
            for call in range(3):
                passes = []
                monkeypatch.setattr(np, "count_nonzero", lambda a: passes.append(1) or real_count(a))
                z = box(x)
                monkeypatch.setattr(np, "count_nonzero", real_count)
                assert z.tobytes() == _box_pattern_reference(A, b, lo, hi, z).tobytes(), (gamma, call)
                pivoted |= len(passes) > 1
                held += call == 2 and not passes
        assert pivoted and held == len(xs)


def test_box_factor_memo_is_safe_across_threads(monkeypatch):
    # threads drive the one kept map through the same few inputs, each with
    # its own pattern, in different orders, with room for two kept
    # patterns, so the last pattern is replaced on almost every call and
    # each thread evicts the others' entries; each thread must still get,
    # bit for bit, what its sequence gives alone, in every one of 20 rounds
    monkeypatch.setattr("eqsplit.resolvents.KEPT_PATTERNS", 2)
    d, gamma, threads = 5, 1.0, 6
    M, c, rng = _box_vi(d, 13)
    shared = ResolventOracle(gamma, operator_bifunction(Box(-np.ones(d), np.ones(d)), M, c))
    by_pattern = {}
    for x in rng.normal(scale=3.0, size=(50, d)):
        z = resolve(shared, x)
        by_pattern.setdefault((z == 1.0).tobytes() + (z == -1.0).tobytes(), x)
    points = np.array(list(by_pattern.values())[:4])
    assert len(points) == 4
    sequences = [points[rng.integers(len(points), size=400)] for _ in range(threads)]
    expected = []
    for xs in sequences:
        apply = resolvent_map(ResolventOracle(gamma, shared.bifunction))
        expected.append([apply(x) for x in xs])

    def work(i):
        apply = resolvent_map(shared)
        got[i] = [apply(x) for x in sequences[i]]

    for _ in range(20):
        got = [None] * threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(np.array(g), np.array(e))


def test_an_inner_route_bifunction_is_freed_at_del():
    # the kept inner route holds no reference back to its bifunction, so
    # dropping the last reference frees it without the cyclic collector; a
    # whole-space closed form is the control
    import gc
    import weakref

    forms = [
        (INNER_ITERATIVE, lambda: function_difference(Ball(np.zeros(3), 1.0), Quadratic(np.eye(3), np.ones(3)))),
        (CLOSED_FORM_LINEAR_SOLVE, lambda: operator_bifunction(WholeSpace(3), np.eye(3), np.ones(3))),
    ]
    gc.collect()
    gc.disable()
    try:
        for method, make in forms:
            F = make()
            o = ResolventOracle(1.0, F)
            assert o.method == method
            resolve(o, [2.0, 0.0, -1.0])
            alive = weakref.ref(F)
            del F, o
            assert alive() is None, method
    finally:
        gc.enable()


def test_a_bifunction_with_a_kept_resolvent_pickles_without_it():
    import pickle

    M, c, x = _skew_plus_shift(4, 16)
    F = operator_bifunction(WholeSpace(4), M, c)
    expected = resolve(ResolventOracle(1.0, F), x)
    assert F._resolvent is not None
    copy = pickle.loads(pickle.dumps(F))
    assert copy._resolvent is None
    np.testing.assert_array_equal(resolve(ResolventOracle(1.0, copy), x), expected)
    assert F._resolvent is not None


def test_kept_resolvents_are_safe_across_threads_and_gammas(monkeypatch):
    # threads build oracles on one bifunction at gammas in different
    # orders, so the one-entry memo is replaced on almost every build, and
    # a box map keeps at most two patterns, so threads sharing one evict
    # each other's entries; each oracle must still give, bit for bit, the
    # resolvent at its own gamma, in every one of 20 rounds over the box
    monkeypatch.setattr("eqsplit.resolvents.KEPT_PATTERNS", 2)
    d, threads = 5, 6
    M, c, _ = _skew_plus_shift(d, 15)
    rng = np.random.default_rng(15)
    gammas = (0.5, 1.0, 2.0)
    for C in (WholeSpace(d), Box(-np.ones(d), np.ones(d))):
        shared = operator_bifunction(C, M, 3.0 * c)
        x = rng.normal(scale=3.0, size=d)
        expected = {g: resolve(ResolventOracle(g, operator_bifunction(C, M, 3.0 * c)), x) for g in gammas}
        orders = [rng.integers(len(gammas), size=300) for _ in range(threads)]
        wrong = []

        def work(order):
            for k in order:
                g = gammas[k]
                if not np.array_equal(resolve(ResolventOracle(g, shared), x), expected[g]):
                    wrong.append(g)

        # the cap is read by box maps alone
        for _ in range(20 if C.kind == "box" else 1):
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [threading.Thread(target=work, args=(o,)) for o in orders]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(w.is_alive() for w in workers)
            assert wrong == []


# ---------------------------------------------------------------------------
# the certified contraction: forms with curvature bounds over any set
# ---------------------------------------------------------------------------

def _vi_matrix(rng, d):
    """The benchmark's strongly monotone VI data: M = AA'/d + I + (A - A')/d."""
    A = rng.normal(size=(d, d))
    return A @ A.T / d + np.eye(d) + (A - A.T) / d, 3.0 * rng.normal(size=d)


def _set_and_reference(kind, d, rng):
    """(C, the independent projection onto C) for one set kind."""
    if kind == "ball":
        return Ball(np.zeros(d), 1.0), lambda v: project_ball_ref(v, np.zeros(d), 1.0)
    if kind == "halfspace":
        a = rng.normal(size=d)
        return Halfspace(a, 0.0), lambda v: project_halfspace_ref(v, a, 0.0)
    if kind == "simplex":
        return Simplex(d), project_simplex_ref
    A = rng.normal(size=(d // 2, d))
    b = A @ rng.normal(size=d)
    return AffineSubspace(A, b), affine_projector_ref(A, b)


@pytest.mark.parametrize("kind", ["ball", "halfspace", "simplex", "affine"])
def test_operator_resolvent_matches_projected_reference(kind):
    # a 64-point sampled acceptance misses violations from d = 5 on, so
    # every cell is compared with a reference that shares no code with src
    for d, gamma, draw in itertools.product((5, 20, 50), (0.1, 1.0, 10.0), range(3)):
        rng = np.random.default_rng([d, int(10 * gamma), draw])
        M, c = _vi_matrix(rng, d)
        C, project = _set_and_reference(kind, d, rng)
        o = ResolventOracle(gamma, operator_bifunction(C, M, c))
        assert o.method == INNER_ITERATIVE
        x = rng.normal(size=d)
        ref = resolvent_projected(M, c, gamma, x, project)
        assert norm(resolve(o, x) - ref) <= 1e-10 * (1.0 + norm(ref)), (d, gamma, draw)


@pytest.mark.parametrize("kind", ["ball", "box", "halfspace", "simplex"])
def test_operator_plus_l1_resolvent_matches_forward_backward_reference(kind, monkeypatch):
    # an L1 part with a closed-form prox over C keeps the certified route,
    # which draws no sample
    def forbidden(*args, **kwargs):
        raise AssertionError("sampled check reached on the certified route")

    monkeypatch.setattr("eqsplit.hilbert.sample_points", forbidden)
    for d, gamma, draw in itertools.product((5, 20), (0.1, 1.0, 10.0), range(3)):
        rng = np.random.default_rng([d, int(10 * gamma), draw, 1])
        M, c = _vi_matrix(rng, d)
        w = rng.uniform(0.5, 2.0, size=d)
        l1_prox = None
        if kind == "ball":
            C, project = Ball(np.zeros(d), 1.0), lambda v: project_ball_ref(v, np.zeros(d), 1.0)
        elif kind == "box":
            C, project = Box(-np.ones(d), np.ones(d)), lambda v: np.minimum(np.maximum(v, -1.0), 1.0)
        elif kind == "halfspace":
            a = rng.normal(size=d)
            C, project = Halfspace(a, -0.5), lambda v: project_halfspace_ref(v, a, -0.5)
            l1_prox = l1_prox_halfspace_ref(a, -0.5)
        else:
            C, project, l1_prox = Simplex(d), project_simplex_ref, l1_prox_simplex_ref
        F = sum_bifunctions(operator_bifunction(C, M, c), function_difference(C, WeightedL1(w)))
        o = ResolventOracle(gamma, F)
        assert o.method == INNER_ITERATIVE
        x = rng.normal(size=d)
        ref = resolvent_projected(M, c, gamma, x, project, weights=w, l1_prox=l1_prox)
        assert norm(resolve(o, x) - ref) <= 1e-10 * (1.0 + norm(ref)), (d, gamma, draw)


def _structured_cases():
    """(name, bifunction, T, w) over ball, halfspace, simplex, affine and
    intersection sets, plus operator + L1 sums over a centred ball and a
    box, with T(z, x, gamma) the auxiliary map and w the L1 weights (0
    without an L1 part): the resolvent is the fixed point of
    z -> P_C(soft_threshold(z - T, gamma w))."""
    d = 5
    rng = np.random.default_rng(40)
    M, c = _vi_matrix(rng, d)
    B = rng.normal(size=(d, d))
    Q, q = B @ B.T / d, rng.normal(size=d)
    sets = {
        "ball": Ball(0.1 * rng.normal(size=d), 1.0),
        "halfspace": Halfspace(rng.normal(size=d), 0.2),
        "simplex": Simplex(d),
        "affine": AffineSubspace(rng.normal(size=(2, d)), rng.normal(size=2)),
        "intersection": IntersectionSet((Ball(np.zeros(d), 1.0), Halfspace(np.ones(d), 0.5))),
    }
    no_l1 = np.zeros(d)
    for name, C in sets.items():
        op = operator_bifunction(C, M, c)
        quad = function_difference(C, Quadratic(Q, q))
        yield f"operator/{name}", op, lambda z, x, g: g * (M @ z + c) + z - x, no_l1
        yield f"quadratic/{name}", quad, lambda z, x, g: g * (Q @ z + q) + z - x, no_l1
        yield f"sum/{name}", sum_bifunctions(op, quad), lambda z, x, g: g * ((M + Q) @ z + c + q) + z - x, no_l1
    w = rng.uniform(0.5, 2.0, size=d)
    for name, C in (("centred-ball", Ball(np.zeros(d), 1.0)), ("box", Box(-np.ones(d), np.ones(d)))):
        l1_sum = sum_bifunctions(operator_bifunction(C, M, c), function_difference(C, WeightedL1(w)))
        yield f"operator+l1/{name}", l1_sum, lambda z, x, g: g * (M @ z + c) + z - x, w


class _UnboundedQuadratic(Quadratic):
    """A Quadratic that reports no curvature bounds, as a user function may."""

    def curvature_bounds(self):
        return None


def _unstructured_cases():
    """(name, bifunction, T, w) as in :func:`_structured_cases`, for the
    forms whose resolvents a sample used to accept: generic parts (a bare
    oracle, alone and with an L1 part), rest functions with and without
    curvature bounds, and a skew-dominated operator."""
    d = 5
    rng = np.random.default_rng(43)
    M, c = _vi_matrix(rng, d)
    B = rng.normal(size=(d, d))
    Q, q = B @ B.T / d, rng.normal(size=d)
    K = rng.normal(size=(d, d))
    skew = 5.0 * (K - K.T) / np.linalg.norm(K - K.T, 2) + 0.01 * np.eye(d)
    w = rng.uniform(0.5, 2.0, size=d)
    ball, box = Ball(np.zeros(d), 1.0), Box(-np.ones(d), np.ones(d))
    no_l1 = np.zeros(d)
    operator_map = lambda z, x, g: g * (M @ z + c) + z - x
    yield "generic/ball", as_generic(operator_bifunction(ball, M, c)), operator_map, no_l1
    generic_l1 = sum_bifunctions(as_generic(operator_bifunction(box, M, c)), function_difference(box, WeightedL1(w)))
    yield "generic+l1/box", generic_l1, operator_map, w
    doubled = function_difference(ball, _DoubledQuadratic(Q, q))
    yield "rest/ball", doubled, lambda z, x, g: 2.0 * g * (Q @ z + q) + z - x, no_l1
    unbounded = function_difference(ball, _UnboundedQuadratic(Q, q))
    yield "unbounded-rest/ball", unbounded, lambda z, x, g: g * (Q @ z + q) + z - x, no_l1
    yield "skew/ball", operator_bifunction(ball, skew), lambda z, x, g: g * (skew @ z) + z - x, no_l1


def test_certified_route_draws_no_sample(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a sample drawn on the inner route")

    monkeypatch.setattr("eqsplit.hilbert.sample_points", forbidden)
    rng = np.random.default_rng(41)
    for name, F, T, w in itertools.chain(_structured_cases(), _unstructured_cases()):
        C = F.set
        # the Dykstra projection onto an intersection stops at 1e-10, and
        # a generic part is certified to INNER_TOL up to its differences
        tol = 1e-8 if C.kind == "intersection" or F.oracles else 1e-10
        certified = INNER_TOL if F.oracles else 1e-12
        for gamma in (0.1, 1.0, 10.0):
            o = ResolventOracle(gamma, F)
            assert o.method in (INNER_ITERATIVE, PROX_COMPOSITION), name
            for x in rng.normal(scale=2.0, size=(2, C.dimension)):
                z, info = inner_solve(F, gamma, x, return_info=True)
                np.testing.assert_array_equal(resolve(o, x), z)
                assert info["violation"] <= certified * (1.0 + norm(z)), name
                assert C.contains(z, tol), name
                v = z - T(z, x, gamma)
                fixed = C.project(np.sign(v) * np.maximum(np.abs(v) - gamma * w, 0.0))
                assert norm(z - fixed) <= tol * (1.0 + norm(x)), (name, gamma)


def test_quadratic_prox_over_halfspace_matches_kkt():
    d = 20
    rng = np.random.default_rng(42)
    B = rng.normal(size=(d, d))
    Q, q, a = B @ B.T / d, rng.normal(size=d), rng.normal(size=d)
    C = Halfspace(a, -0.5)
    for gamma in (0.1, 1.0, 10.0):
        o = ResolventOracle(gamma, function_difference(C, Quadratic(Q, q)))
        K = np.linalg.inv(np.eye(d) + gamma * Q)
        for x in rng.normal(scale=2.0, size=(4, d)):
            # one multiplier: z = K (x - gamma q - lam a), lam >= 0
            free = K @ (x - gamma * q)
            lam = max(0.0, (a @ free + 0.5) / (a @ K @ a))
            exact = free - lam * (K @ a)
            assert norm(resolve(o, x) - exact) <= 1e-12 * (1.0 + norm(exact))


def test_non_monotone_operator_fails_at_once_with_the_projection():
    C = Ball(np.zeros(3), 1.0)
    x = np.array([2.0, -1.0, 0.5])
    # 1 + gamma lambda_min(sym M) = -1: no contraction, no sample fallback
    F = operator_bifunction(C, -2.0 * np.eye(3))
    with pytest.raises(ConvergenceFailure) as err:
        resolve(ResolventOracle(1.0, F), x)
    np.testing.assert_array_equal(err.value.iterate, C.project(x))
    assert err.value.iterations == 0
    with pytest.warns(UserWarning) as caught:
        res = solve(F, zero_bifunction(C), x, SolverConfig(gamma=1.0))
    assert res.status == INNER_FAILURE
    assert any("inner resolvent failure" in str(w.message) for w in caught)
    # 1 + gamma lambda_min = 0.5 still contracts
    M = -0.5 * np.eye(3)
    o = ResolventOracle(1.0, operator_bifunction(C, M))
    ref = resolvent_projected(M, np.zeros(3), 1.0, x, lambda v: project_ball_ref(v, np.zeros(3), 1.0))
    assert norm(resolve(o, x) - ref) <= 1e-10 * (1.0 + norm(ref))


@pytest.mark.parametrize("d", [5, 20, 200])
def test_l1_prox_over_centred_ball_meets_kkt(d, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("inner solver reached for an L1 prox over a centred ball")

    monkeypatch.setattr("eqsplit.resolvents.inner_solve", forbidden)
    rng = np.random.default_rng(d)
    r, w, gamma = 1.0, rng.uniform(0.0, 0.2, size=d), 1.0
    o = ResolventOracle(gamma, function_difference(Ball(np.zeros(d), r), WeightedL1(w)))
    assert o.method == PROX_COMPOSITION
    for scale in (0.05, 0.3, 2.0):
        x = rng.normal(scale=scale, size=d)
        z = resolve(o, x)
        t = gamma * w
        # KKT of min gamma sum w |y| + ||y - x||^2 / 2 over ||y|| <= r:
        # x - (1 + mu) z in t * d|z|, mu >= 0, mu (||z|| - r) = 0
        support = z != 0.0
        s = np.sign(z[support])
        mu = 0.0
        if support.any():
            mu = (x[support] - t[support] * s) @ z[support] / (z[support] @ z[support]) - 1.0
        g = x - (1.0 + mu) * z
        tol = 1e-12 * (1.0 + norm(x))
        assert norm(z) <= r + tol
        assert mu >= -tol
        assert abs(mu * (norm(z) - r)) <= tol
        assert np.all(np.abs(g[~support]) <= t[~support] + tol)
        assert norm(g[support] - t[support] * s) <= tol


@pytest.mark.parametrize("kind", ["halfspace", "simplex"])
def test_l1_prox_over_halfspace_and_simplex_is_closed_form(kind, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("inner solver reached for a closed-form L1 prox")

    monkeypatch.setattr("eqsplit.resolvents.inner_solve", forbidden)
    for d, gamma in itertools.product((5, 20), (0.1, 1.0, 10.0)):
        rng = np.random.default_rng([d, int(10 * gamma), 2])
        w, shift = rng.uniform(0.0, 2.0, size=d), rng.normal(size=d)
        if kind == "halfspace":
            a = rng.normal(size=d)
            C, l1_prox = Halfspace(a, -0.5), l1_prox_halfspace_ref(a, -0.5)
        else:
            C, l1_prox = Simplex(d), l1_prox_simplex_ref
        # an affine part shifts the prox argument by gamma * shift
        F = function_difference(C, WeightedL1(w))
        for G in (F, sum_bifunctions(F, function_difference(C, AffineFunction(shift)))):
            o = ResolventOracle(gamma, G)
            assert o.method == PROX_COMPOSITION
            b = 0.0 if G is F else gamma * shift
            for x in rng.normal(scale=3.0, size=(4, d)):
                ref = l1_prox((x - b).astype(np.longdouble), gamma * w.astype(np.longdouble)).astype(float)
                assert norm(resolve(o, x) - ref) <= 1e-12 * (1.0 + norm(ref)), (d, gamma)


def test_bifunctions_and_oracles_compare_by_identity():
    C = WholeSpace(2)
    F, F2 = operator_bifunction(C, np.eye(2)), operator_bifunction(C, np.eye(2))
    assert F == F and F != F2
    assert {F: 1, F2: 2}[F] == 1 and hash(F) == hash(F)
    o, o2 = ResolventOracle(1.0, F), ResolventOracle(1.0, F)
    assert o == o and o != o2
    assert {o: "a", o2: "b"}[o2] == "b"


# ---------------------------------------------------------------------------
# the one inner loop on forms a sample used to accept
# ---------------------------------------------------------------------------

def test_skew_ball_resolvent_is_certified_within_the_cap():
    # ||S||_2 = 5 against mu = 0.01 at gamma 10: the constant-step
    # contraction needed (L_T / mu_T)^2 iterations and ran out of them.
    # The projected reference needs seconds per draw at this conditioning,
    # so the ball's KKT multiplier search stands in for it (they agree to
    # 1e-14 on these draws)
    d, gamma = 5, 10.0
    C = Ball(np.zeros(d), 1.0)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        K = rng.normal(size=(d, d))
        M = 5.0 * (K - K.T) / np.linalg.norm(K - K.T, 2) + 0.01 * np.eye(d)
        x = 3.0 * rng.normal(size=d)
        z = resolve(ResolventOracle(gamma, operator_bifunction(C, M)), x)
        assert norm(z - resolvent_ball_kkt(M, np.zeros(d), gamma, x, 1.0)) <= 1e-10, seed


def test_l1_plus_a_generic_linear_part_over_a_ball():
    # a generic part that is linear cannot be told from any other generic
    # part; a sample accepted P_C(x) here, 5e-2 to 1.4e-1 away
    d = 5
    rng = np.random.default_rng(11)
    w, s = rng.uniform(0.0, 1.0, size=d), rng.normal(size=d)
    C = Ball(np.zeros(d), 1.5)
    linear = generic_bifunction(C, lambda x, y: float(s @ (y - x)), lambda x, Y: (Y - x) @ s)
    F = sum_bifunctions(linear, function_difference(C, WeightedL1(w)))
    for gamma in (0.1, 1.0, 10.0):
        o = ResolventOracle(gamma, F)
        for x in rng.normal(scale=2.0, size=(10, d)):
            v = x - gamma * s
            ref = project_ball_ref(np.sign(v) * np.maximum(np.abs(v) - gamma * w, 0.0), np.zeros(d), 1.5)
            assert norm(resolve(o, x) - ref) <= 1e-9, gamma


def _ep_test_bifunction(d, seed):
    """The EP literature's test bifunction F(x, y) = <P x + Q y + q, y - x>
    over [-1, 1]^d behind a bare batch oracle, with Q symmetric positive
    definite and P - Q positive semidefinite plus skew (Quoc, Muu & Nguyen,
    Optimization 57, 2008), so F is monotone and its equilibria are the
    solutions of VI(P + Q).  Returns (F, P + Q, q, rng)."""
    rng = np.random.default_rng([d, seed])
    B, K, D = rng.normal(size=(3, d, d)) / np.sqrt(d)
    Q = B @ B.T + 0.1 * np.eye(d)
    P = Q + (K - K.T) + D @ D.T
    q = 3.0 * rng.normal(size=d)

    def batch(x, Y):
        return (Y - x) @ (P @ x + q) + np.einsum("ij,ij->i", Y @ Q, Y - x)

    C = Box(-np.ones(d), np.ones(d))
    return generic_bifunction(C, lambda x, y: float(batch(x, y[None])[0]), batch), P + Q, q, rng


@pytest.mark.parametrize("d", [5, 20, 50])
def test_generic_ep_family_resolvent_matches_box_pivoting(d):
    # J x solves the box VI with map (I + gamma (P + Q)) z + gamma q - x
    gamma = 1.0
    for seed in range(3):
        F, PQ, q, rng = _ep_test_bifunction(d, seed)
        C = F.set
        o = ResolventOracle(gamma, F)
        assert o.method == INNER_ITERATIVE
        pivoting = ResolventOracle(gamma, operator_bifunction(C, PQ, q))
        for x in rng.normal(scale=2.0, size=(3, d)):
            z = resolve(o, x)
            projected = box_vi_projected(np.eye(d) + gamma * PQ, gamma * q - x, C.lo, C.hi)
            for ref in (resolve(pivoting, x), projected):
                assert norm(z - ref) <= 1e-8 * (1.0 + norm(ref)), seed


@pytest.mark.parametrize("d", [5, 20])
def test_generic_ep_family_solves_to_its_vi_or_names_a_failure(d):
    for seed in range(3):
        F, PQ, q, _ = _ep_test_bifunction(d, seed)
        C = F.set
        res = solve(F, zero_bifunction(C), np.zeros(d))
        ref = box_vi_projected(PQ, q, C.lo, C.hi)
        if res.status == CONVERGED:
            assert norm(res.y_star - ref) <= 1e-5 * (1.0 + norm(ref)), seed
        else:
            assert res.status in (INNER_FAILURE, MAX_ITER), seed


def test_a_nan_oracle_raises_in_the_inner_iteration():
    # a sample of NaN values never shows a violation: P_C(x) was accepted
    F = generic_bifunction(Box([-1.0, -1.0], [1.0, 1.0]), lambda x, y: float("nan"))
    with pytest.raises(ValueError, match="inner resolvent iteration"):
        resolve(ResolventOracle(1.0, F), [0.5, 0.5])


def test_l1_without_a_closed_prox_fails_at_once():
    # over an affine set the L1 prox has no closed form: the loop does not
    # start, and a solve ends in inner_failure
    d = 4
    rng = np.random.default_rng(44)
    C = AffineSubspace(rng.normal(size=(2, d)), rng.normal(size=2))
    M, c = _vi_matrix(rng, d)
    F = sum_bifunctions(operator_bifunction(C, M, c), function_difference(C, WeightedL1(np.ones(d))))
    x = rng.normal(size=d)
    with pytest.raises(ConvergenceFailure, match="no closed-form prox") as err:
        resolve(ResolventOracle(1.0, F), x)
    assert err.value.iterations == 0
    np.testing.assert_array_equal(err.value.iterate, C.project(x))
    with pytest.warns(UserWarning, match="inner resolvent failure"):
        assert solve(F, zero_bifunction(C), x).status == INNER_FAILURE


@dataclass(frozen=True)
class _RelabelledBox(Box):
    """A box under another label: every closed form follows the class."""

    kind: str = field(default="crate", init=False)


def test_a_relabelled_box_keeps_every_closed_form():
    d = 4
    rng = np.random.default_rng(30)
    lo, hi = -np.ones(d), np.ones(d)
    M, c = _vi_matrix(rng, d)
    w = rng.uniform(0.1, 1.0, size=d)
    X = rng.normal(scale=2.0, size=(6, d))
    outputs = []
    for C in (Box(lo, hi), _RelabelledBox(lo, hi)):
        linear, l1 = operator_bifunction(C, M, c), function_difference(C, WeightedL1(w))
        assert ResolventOracle(1.0, linear).method == CLOSED_FORM_LINEAR_SOLVE, C.kind
        assert ResolventOracle(1.0, l1).method == PROX_COMPOSITION, C.kind
        report = check_admissibility(linear)
        assert report.exact and report.passed, C.kind
        gap = equilibrium_gap(linear, l1, C._project_rows(X))
        assert gap is not None, C.kind
        image = operator_from_bifunction(linear).evaluate_batch(C._project_rows(X))
        maps = [resolve(ResolventOracle(1.0, F), x) for F in (linear, l1) for x in X]
        outputs.append([gap, *image, *maps])
    for ours, box in zip(*outputs):
        assert ours.tobytes() == box.tobytes()


class _Orthant(ConvexSet):
    """The nonnegative orthant, given only what ConvexSet requires."""

    def __init__(self, dimension):
        self.dimension = dimension

    def _project(self, x):
        return np.maximum(x, 0.0)


def test_a_minimal_user_set_gets_every_default():
    d = 3
    rng = np.random.default_rng(31)
    C = _Orthant(d)
    M, c = _vi_matrix(rng, d)
    F = operator_bifunction(C, M, c)
    x = rng.normal(size=d)
    oracle = ResolventOracle(1.0, F)
    assert oracle.method == INNER_ITERATIVE
    z = resolve(oracle, x)
    assert norm(z - box_vi_projected(np.eye(d) + M, c - x, np.zeros(d), np.full(d, 1e6))) <= 1e-7
    with pytest.raises(ConvergenceFailure, match="no closed-form prox over _Orthant") as err:
        resolve(ResolventOracle(1.0, function_difference(C, WeightedL1(np.ones(d)))), x)
    assert err.value.iterations == 0
    report = check_admissibility(F, samples=10, seed=0)
    assert not report.exact and report.samples == 10
    draws = np.random.default_rng(5).normal(0.0, SAMPLE_SCALE, size=(7, d))
    assert sample_points(C, 7, 5).tobytes() == np.array([C._project(r) for r in draws]).tobytes()
