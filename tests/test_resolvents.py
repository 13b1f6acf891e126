"""Resolvent computation: closed forms, the inner iterative solver, and contracts."""

import numpy as np
import pytest

from eqsplit.bifunctions import (
    Quadratic,
    WeightedL1,
    function_difference,
    generic_bifunction,
    operator_bifunction,
    zero_bifunction,
)
from eqsplit.hilbert import Ball, Box, WholeSpace, norm, sample_points
from eqsplit.operators import affine_operator, operator_from_bifunction
from eqsplit.resolvents import (
    CHECK_SAMPLE_SIZE,
    CLOSED_FORM_LINEAR_SOLVE,
    CLOSED_FORM_PROJECTION,
    INNER_ITERATIVE,
    INNER_TOL,
    PROX_COMPOSITION,
    ConvergenceFailure,
    ResolventOracle,
    inner_solve,
    reflect,
    residual_certificate,
    resolve,
)

from oracles import box_vi_active_set, grid_golden_min, prox_oracle_1d


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
    assert o.method == PROX_COMPOSITION
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
    o_iter = ResolventOracle(1.0, F, method=INNER_ITERATIVE)
    o_lin = ResolventOracle(1.0, F_free)
    assert o_iter.method == INNER_ITERATIVE and o_lin.method == CLOSED_FORM_LINEAR_SOLVE
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(scale=2.0, size=2)
        z_free = resolve(o_lin, x)
        if np.all(np.abs(z_free) < 10.0):
            np.testing.assert_allclose(resolve(o_iter, x), z_free, atol=1e-6)


def test_forced_inner_iterative_on_declared_family():
    # forcing the generic route on a structured bifunction must agree with
    # its closed form (single-valuedness of the resolvent)
    C = Box([-1.0], [1.0])
    F = function_difference(C, WeightedL1([1.0]))
    o_closed = ResolventOracle(1.0, F)
    o_forced = ResolventOracle(1.0, F, method=INNER_ITERATIVE)
    for x in (-2.0, -0.4, 0.0, 0.8, 3.0):
        assert resolve(o_forced, [x])[0] == pytest.approx(resolve(o_closed, [x])[0], abs=1e-6)


def test_generic_family_fd_subgradients():
    C = WholeSpace(1)
    F = generic_bifunction(C, lambda x, y: float(y[0] ** 2 - x[0] ** 2))
    o = ResolventOracle(1.0, F)
    assert o.method == INNER_ITERATIVE
    assert resolve(o, [1.0])[0] == pytest.approx(1.0 / 3.0, abs=1e-6)


def _corpus_oracles(gamma):
    from eqsplit.problems import corpus

    for inst in corpus():
        for H in (inst.F, inst.G):
            yield inst.name, ResolventOracle(gamma, H)


def test_output_in_set_and_residual_certified():
    rng = np.random.default_rng(12)
    for name, o in _corpus_oracles(1.0):
        C = o.bifunction.set
        for _ in range(5):
            x = rng.normal(scale=2.0, size=C.dimension)
            z = resolve(o, x)
            assert C.contains(z, 1e-10), name
            assert residual_certificate(o, x, z) >= -10.0 * INNER_TOL, name


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
    C = WholeSpace(1)
    with pytest.raises(ValueError, match="gamma"):
        ResolventOracle(0.0, zero_bifunction(C))
    with pytest.raises(ValueError, match="gamma"):
        ResolventOracle(-1.0, zero_bifunction(C))


# ---------------------------------------------------------------------------
# linear resolvents factored once per oracle
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
    assert o.method == PROX_COMPOSITION
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


def test_check_points_drawn_on_first_read(monkeypatch):
    draws = []

    def counting_sample_points(*args, **kwargs):
        draws.append(args)
        return sample_points(*args, **kwargs)

    monkeypatch.setattr("eqsplit.resolvents.sample_points", counting_sample_points)
    o = ResolventOracle(1.0, operator_bifunction(WholeSpace(2), [[1.0, 1.0], [-1.0, 1.0]]))
    resolve(o, [1.0, 2.0])
    assert draws == []
    first = o.check_points
    assert first.shape == (CHECK_SAMPLE_SIZE, 2)
    assert o.check_points is first
    assert len(draws) == 1


def test_singular_linear_resolvent_rejected_at_construction():
    # M = -I is not monotone and makes I + M singular at gamma = 1
    F = operator_bifunction(WholeSpace(2), -np.eye(2))
    with pytest.raises(ValueError, match="singular"):
        ResolventOracle(1.0, F)


def test_forced_closed_form_must_apply():
    F = operator_bifunction(Ball([0.0, 0.0], 1.0), np.eye(2))
    with pytest.raises(ValueError, match="does not apply"):
        ResolventOracle(1.0, F, method=CLOSED_FORM_LINEAR_SOLVE)


def test_affine_operator_and_induced_operator_share_linear_resolvent():
    d, gamma = 20, 0.7
    M, c, _ = _skew_plus_shift(d, 3)
    direct = affine_operator(M, c).resolvent_factory(gamma)
    induced = operator_from_bifunction(operator_bifunction(WholeSpace(d), M, c)).resolvent_factory(gamma)
    for x in np.random.default_rng(4).normal(size=(10, d)):
        np.testing.assert_array_equal(direct(x), induced(x))


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
        raise AssertionError("projected-gradient prox reached over a box")

    monkeypatch.setattr("eqsplit.resolvents._projected_gradient_prox", forbidden)
    d = 20
    M, q, rng = _box_vi(d, 5)
    Q = 0.5 * (M + M.T)
    C = Box(-np.ones(d), np.ones(d))
    gamma = 2.0
    o = ResolventOracle(gamma, function_difference(C, Quadratic(Q, q)))
    assert o.method == PROX_COMPOSITION
    A = np.eye(d) + gamma * Q
    for x in rng.normal(scale=3.0, size=(5, d)):
        z = resolve(o, x)
        w = A @ z - (x - gamma * q)
        assert norm(z - np.clip(z - w, C.lo, C.hi)) <= 1e-10 * (1.0 + norm(x))
