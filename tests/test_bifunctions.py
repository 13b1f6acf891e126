"""Bifunction construction, evaluation, and the sampled admissibility check."""

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
from eqsplit.hilbert import Box, WholeSpace


def test_quadratic_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Quadratic([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="semidefinite"):
        Quadratic([[-1.0]], [0.0])


def test_weighted_l1_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        WeightedL1([-1.0])


def test_convex_function_values():
    f = Quadratic([[2.0, 0.0], [0.0, 4.0]], [1.0, -1.0])
    y = np.array([1.0, 2.0])
    assert f.value(y) == pytest.approx(1.0 + 8.0 + 1.0 - 2.0)
    np.testing.assert_allclose(f.subgradient(y), [2.0 + 1.0, 8.0 - 1.0])
    assert f.separable

    g = WeightedL1([1.0, 2.0])
    assert g.value([-1.0, 0.5]) == pytest.approx(2.0)
    np.testing.assert_allclose(g.subgradient([-1.0, 0.0]), [-1.0, 0.0])

    h = AffineFunction([1.0, 1.0], 3.0)
    assert h.value([1.0, 2.0]) == pytest.approx(6.0)


def test_batch_matches_scalar_eval():
    rng = np.random.default_rng(0)
    C = WholeSpace(2)
    cases = [
        operator_bifunction(C, [[2.0, 1.0], [1.0, 2.0]], [0.5, -0.5]),
        function_difference(C, Quadratic(np.eye(2), np.zeros(2))),
        function_difference(C, WeightedL1([1.0, 2.0])),
        generic_bifunction(C, lambda x, y: float(np.sum(y**2) - np.sum(x**2))),
    ]
    cases.append(sum_bifunctions(cases[0], cases[1]))
    for F in cases:
        x = rng.normal(size=2)
        Y = rng.normal(size=(16, 2))
        batch = F.eval_batch(x, Y)
        np.testing.assert_allclose(batch, [F(x, y) for y in Y], atol=1e-12)


def test_admissibility_check_quadratic_difference_passes():
    C = WholeSpace(1)
    G = function_difference(C, Quadratic([[2.0]], [0.0]))  # y^2 - x^2
    report = check_admissibility(G, samples=100, seed=0)
    assert report.passed
    assert max(report.worst_violations.values()) <= 1e-8


def test_admissibility_check_linear_operator_passes():
    C = WholeSpace(2)
    F = operator_bifunction(C, np.eye(2))  # <x, y - x>
    report = check_admissibility(F, samples=100, seed=1)
    assert report.passed


def test_admissibility_check_flags_nonvanishing_diagonal():
    C = WholeSpace(2)
    F = generic_bifunction(C, lambda x, y: float(np.linalg.norm(y) - 2.0 * np.linalg.norm(x)))
    report = check_admissibility(F, samples=50, seed=2)
    assert not report.passed
    assert report.worst_violations["diagonal"] > 1e-10


def test_admissibility_check_deterministic():
    C = Box([-1.0], [1.0])
    F = operator_bifunction(C, [[1.0]], [-2.0])
    r1 = check_admissibility(F, samples=32, seed=9)
    r2 = check_admissibility(F, samples=32, seed=9)
    assert r1.worst_violations == r2.worst_violations


def test_admissibility_check_nan_is_hard_error():
    C = WholeSpace(1)
    F = generic_bifunction(C, lambda x, y: float("nan"))
    with pytest.raises(ValueError, match="returned nan"):
        check_admissibility(F, samples=4, seed=0)


def test_sum_with_zero_is_identity():
    C = WholeSpace(1)
    F = function_difference(C, Quadratic([[2.0]], [0.0]))
    with pytest.raises(ValueError, match="share one ConvexSet"):
        sum_bifunctions(F, zero_bifunction(WholeSpace(1)))
    S = sum_bifunctions(F, zero_bifunction(C))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.normal(size=2)
        assert S([x], [y]) == pytest.approx(F([x], [y]), abs=1e-14)


def test_sum_example_and_diagonal():
    C = WholeSpace(1)
    F = function_difference(C, Quadratic([[2.0]], [0.0]))  # y^2 - x^2
    G = operator_bifunction(C, [[0.0]], [1.0])  # y - x
    S = sum_bifunctions(F, G)
    assert S([0.0], [1.0]) == pytest.approx(2.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=1)
        assert abs(S(x, x)) <= 1e-12


def test_sum_commutative_associative():
    C = WholeSpace(2)
    F = operator_bifunction(C, [[2.0, 1.0], [1.0, 2.0]])
    G = function_difference(C, WeightedL1([1.0, 1.0]))
    H = function_difference(C, Quadratic(np.eye(2), np.ones(2)))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        a = sum_bifunctions(F, G)(x, y)
        b = sum_bifunctions(G, F)(x, y)
        assert a == pytest.approx(b, abs=1e-12)
        c = sum_bifunctions(sum_bifunctions(F, G), H)(x, y)
        d = sum_bifunctions(F, sum_bifunctions(G, H))(x, y)
        assert c == pytest.approx(d, abs=1e-12)


def test_family_tags():
    C = WholeSpace(1)
    assert zero_bifunction(C).family == "operator-induced"
    assert operator_bifunction(C, [[1.0]]).family == "operator-induced"
    assert function_difference(C, WeightedL1([1.0])).family == "function-difference"
    assert generic_bifunction(C, lambda x, y: 0.0).family == "generic"
    F = operator_bifunction(C, [[1.0]])
    assert sum_bifunctions(F, zero_bifunction(C)).family == "sum-of-two"


def _barely_nonmonotone(d=20):
    M = np.eye(d)
    M[-1, -1] = -1e-3
    return M


def test_exact_admissibility_flags_barely_nonmonotone_operator():
    C = WholeSpace(20)
    F = operator_bifunction(C, _barely_nonmonotone())
    report = check_admissibility(F, samples=100, seed=0)
    assert report.exact and not report.passed
    assert report.worst_violations["monotone"] == pytest.approx(1e-3, rel=1e-12)
    assert "exact" in str(report)
    # the same oracle without its structure is sampled, and the sample
    # misses the one bad direction
    sampled = check_admissibility(generic_bifunction(C, F), samples=100, seed=0)
    assert not sampled.exact and sampled.passed
    assert "100 samples" in str(sampled)


def test_exact_admissibility_ignores_pinned_box_coordinates():
    lo = -np.ones(20)
    hi = np.ones(20)
    hi[-1] = lo[-1]  # the bad direction is not a direction of the box
    report = check_admissibility(operator_bifunction(Box(lo, hi), _barely_nonmonotone()))
    assert report.exact and report.passed
    assert report.worst_violations["monotone"] == 0.0


def test_exact_admissibility_calls_no_oracle(monkeypatch):
    from eqsplit import bifunctions
    from eqsplit.hilbert import Ball, Halfspace

    def forbidden(*args, **kwargs):
        raise AssertionError("an exact report must not sample or evaluate")

    monkeypatch.setattr(bifunctions.Bifunction, "__call__", forbidden)
    monkeypatch.setattr(bifunctions, "sample_points", forbidden)
    M = [[1.0, 2.0], [-2.0, 0.5]]
    cases = [
        operator_bifunction(C, M, [1.0, -1.0])
        for C in (WholeSpace(2), Box([0.0, 0.0], [1.0, 2.0]), Ball([0.0, 0.0], 1.0), Halfspace([1.0, 1.0], 0.0))
    ]
    C = WholeSpace(2)
    cases += [
        function_difference(C, Quadratic([[2.0, 1.0], [1.0, 1.0]], [0.0, 1.0])),
        function_difference(C, WeightedL1([1.0, 0.5])),
        function_difference(C, AffineFunction([1.0, -1.0], 3.0)),
    ]
    for F in cases:
        report = check_admissibility(F)
        assert report.exact and report.passed and report.samples == 0, F.family


def test_unstructured_bifunctions_keep_the_sampled_check():
    from eqsplit.hilbert import Simplex

    class Square(Quadratic):
        pass

    C = WholeSpace(2)
    cases = [
        operator_bifunction(Simplex(2), np.eye(2)),
        function_difference(C, Square(np.eye(2), [0.0, 0.0])),
        sum_bifunctions(operator_bifunction(C, np.eye(2)), zero_bifunction(C)),
        generic_bifunction(C, lambda x, y: float(np.dot(x, y - x))),
    ]
    for F in cases:
        report = check_admissibility(F, samples=8, seed=3)
        assert not report.exact and report.samples == 8 and report.passed, F.family


def test_affine_function_offset_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        AffineFunction([1.0], float("inf"))


@pytest.mark.parametrize("d", [2, 50, 200])
def test_quadratic_value_batch_matches_pointwise_values(d):
    rng = np.random.default_rng(d)
    B = rng.normal(size=(d, d))
    f = Quadratic(B @ B.T / d, rng.normal(size=d))
    Y = rng.normal(0.0, 2.0, size=(256, d))
    np.testing.assert_allclose(f.value_batch(Y), [f.value(y) for y in Y], rtol=1e-12)
