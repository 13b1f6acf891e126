"""Bifunction construction, evaluation, and the sampled admissibility check."""

from functools import reduce
from operator import add

import numpy as np
import pytest

from eqsplit.bifunctions import (
    AffineFunction,
    ConvexFunction,
    Quadratic,
    WeightedL1,
    check_admissibility,
    function_difference,
    generic_bifunction,
    operator_bifunction,
    sum_bifunctions,
    zero_bifunction,
)
from eqsplit.hilbert import Ball, Box, Halfspace, WholeSpace, sample_points


def test_quadratic_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Quadratic([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="semidefinite"):
        Quadratic([[-1.0]], [0.0])
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="Q must be finite"):
            Quadratic([[bad]], [0.0])
    with pytest.raises(ValueError, match="Q must be finite"):
        Quadratic([[1.0, np.inf], [np.inf, 1.0]], [0.0, 0.0])


@pytest.mark.parametrize("d", [1, 2, 20, 200])
def test_quadratic_symmetry_verdict_is_allclose(d):
    """Quadratic's symmetry check gives np.allclose(Q, Q.T, atol=1e-12)'s
    verdict on entries just below, at and just above its tolerance."""

    def accepted(Q):
        try:
            Quadratic(Q, np.zeros(d))
        except ValueError as exc:
            assert "symmetric" in str(exc)
            return False
        return True

    rng = np.random.default_rng(d)
    A = rng.normal(size=(d, d))
    base = A @ A.T / d + np.eye(d)
    base[0, -1] = base[-1, 0] = 0.0  # the absolute tolerance alone, where d > 1
    pairs = [(0, 0), (0, d - 1), (d - 1, 0), *zip(rng.integers(0, d, 3), rng.integers(0, d, 3))]
    for i, j in pairs:
        b = base[j, i]
        away = 1.0 if b >= 0 else -1.0
        tol = 1e-12 + 1e-5 * abs(b)
        # moved away from zero the entry meets tol; moved toward zero, the
        # tolerance of the mirrored entry, tol / (1 + 1e-5), binds first
        for step, scale in ((away, 0.999), (away, 1.0), (away, 1.001), (-away, 1.0 / (1.0 + 1e-5))):
            entry = b + step * scale * tol
            verdicts = set()
            for k in range(-3, 4):  # seven float steps around the threshold
                Q = base.copy()
                Q[i, j] = entry + k * np.spacing(entry)
                verdict = accepted(Q)
                assert verdict == np.allclose(Q, Q.T, atol=1e-12), (i, j, Q[i, j])
                verdicts.add(verdict)
            if i != j and scale == 1.0 and step == away:
                assert verdicts == {True, False}, (i, j)


def test_weighted_l1_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        WeightedL1([-1.0])


def test_convex_function_values():
    f = Quadratic([[2.0, 0.0], [0.0, 4.0]], [1.0, -1.0])
    y = np.array([1.0, 2.0])
    assert f.value(y) == pytest.approx(1.0 + 8.0 + 1.0 - 2.0)
    np.testing.assert_allclose(f.subgradient(y), [2.0 + 1.0, 8.0 - 1.0])

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


def _stack_parts(C, rng, rows_seen):
    """Each shipped part over C, a generic part whose batch oracle records
    the shape of every x it receives, and their sum."""
    d = C.dimension
    A = rng.normal(size=(d, d))

    def fn(x, y):
        return float(np.sin(x) @ (y - x) + np.sum(y**2) - np.sum(x**2))

    def batch(x, Y):
        rows_seen.append(np.shape(x))
        return (Y - x) @ np.sin(x) + np.sum(Y**2, axis=1) - np.sum(x**2)

    parts = {
        "operator": operator_bifunction(C, A @ A.T / d + (A - A.T), rng.normal(size=d)),
        "quadratic": function_difference(C, Quadratic(A @ A.T / d, rng.normal(size=d))),
        "weighted-l1": function_difference(C, WeightedL1(rng.random(d))),
        "affine": function_difference(C, AffineFunction(rng.normal(size=d), 0.3)),
        "generic": generic_bifunction(C, fn, batch),
    }
    total = parts["operator"]
    for name in ("quadratic", "weighted-l1", "affine", "generic"):
        total = sum_bifunctions(total, parts[name])
    return {**parts, "sum": total}


@pytest.mark.parametrize("d", [1, 2, 5, 20, 200])
def test_stacked_eval_batch_equals_per_row_calls_bit_for_bit(d):
    rng = np.random.default_rng(d)
    sets = {
        "whole-space": WholeSpace(d),
        "box": Box(-np.ones(d), np.ones(d)),
        "ball": Ball(rng.normal(size=d), 2.0),
        "halfspace": Halfspace(rng.normal(size=d), 0.5),
    }
    for kind, C in sets.items():
        rows_seen = []
        X = sample_points(C, 7, 1)
        Y = sample_points(C, 33, 2)
        for name, F in _stack_parts(C, rng, rows_seen).items():
            stacked = F.eval_batch(X, Y)
            assert stacked.shape == (7, 33), (kind, name)
            for r, x in enumerate(X):
                np.testing.assert_array_equal(stacked[r], F.eval_batch(x, Y), err_msg=f"{kind} {name}")
            # a point is the one-row stack
            assert F.eval_batch(X[0], Y).shape == (33,)
        # the generic batch oracle only ever sees one 1-D row
        assert rows_seen and set(rows_seen) == {(d,)}


class _SquaredNorm(ConvexFunction):
    """A user-defined convex function: no stacked row values, so
    ``eval_batch`` takes ``value`` once per row."""

    def __init__(self, d):
        self.dimension = d
        self.calls = 0

    def value(self, y):
        self.calls += 1
        return float(0.5 * np.asarray(y) @ np.asarray(y))

    def value_batch(self, Y):
        return 0.5 * np.einsum("ij,ij->i", Y, Y)

    def subgradient(self, y):
        return np.asarray(y, dtype=float)


class _CountingQuadratic(Quadratic):
    """A subclass of a shipped type, which may override its values."""

    def value(self, y):
        _CountingQuadratic.calls += 1
        return super().value(y)


@pytest.mark.parametrize("d", [1, 2, 5, 20, 50])
def test_stacked_function_values_equal_one_point_calls(d):
    rng = np.random.default_rng(100 + d)
    C = WholeSpace(d)
    X = 3.0 * rng.normal(size=(9, d))
    # a strided view as well as a contiguous stack
    X_strided = np.asfortranarray(X)
    Y = sample_points(C, 17, 2)
    B = rng.normal(size=(d, d))
    shipped = [
        Quadratic(B @ B.T, rng.normal(size=d)),
        WeightedL1(rng.random(d)),
        AffineFunction(rng.normal(size=d), float(rng.normal())),
    ]
    for f in shipped:
        H = function_difference(C, f)
        one_point = np.array([f.value_batch(Y) - f.value(x) for x in X])
        for stack in (X, X_strided):
            stacked = H.eval_batch(stack, Y)
            assert stacked.tobytes() == one_point.tobytes(), type(f).__name__
        for r, x in enumerate(X):
            assert H.eval_batch(x, Y).tobytes() == one_point[r].tobytes(), type(f).__name__
            # phi of one shipped function keeps that function's bits
            assert np.float64(H.canonical.value(x)).tobytes() == np.float64(f.value(x)).tobytes()
    # phi of several: its terms added left to right from the first present
    # one, as the closures over each term added them before
    for mask in range(1, 8):
        parts = [function_difference(C, f) for i, f in enumerate(shipped) if mask >> i & 1]
        H = parts[0]
        for part in parts[1:]:
            H = sum_bifunctions(H, part)
        Q, q, w, k, _ = H.canonical
        for x in X:
            terms = (None if Q is None else 0.5 * x @ Q @ x, None if q is None else q @ x,
                     None if w is None else np.sum(w * np.abs(x)), k)
            expected = reduce(add, [t for t in terms if t is not None])
            assert np.float64(H.canonical.value(x)).tobytes() == np.float64(expected).tobytes(), mask
    # functions that are not exactly a shipped type take the row loop
    _CountingQuadratic.calls = 0
    for f in (_SquaredNorm(d), _CountingQuadratic(np.eye(d), np.zeros(d))):
        H = function_difference(C, f)
        one_point = np.array([f.value_batch(Y) - f.value(x) for x in X])
        before = f.calls if isinstance(f, _SquaredNorm) else _CountingQuadratic.calls
        stacked = H.eval_batch(X, Y)
        after = f.calls if isinstance(f, _SquaredNorm) else _CountingQuadratic.calls
        assert after - before == len(X)
        assert stacked.tobytes() == one_point.tobytes()


class _PlainQuadratic(Quadratic):
    pass


class _PlainL1(WeightedL1):
    pass


class _PlainAffine(AffineFunction):
    pass


@pytest.mark.parametrize(
    "f", [_PlainQuadratic([[2.0]], [0.5]), _PlainL1([1.0]), _PlainAffine([1.0], 0.5)], ids=lambda f: type(f).__name__
)
def test_subclass_of_a_shipped_type_stays_a_rest_function(f, monkeypatch):
    # a subclass may override the oracles of its shipped type, so no reader
    # takes it for that type
    from eqsplit import operators
    from eqsplit.resolvents import INNER_ITERATIVE, ResolventOracle

    C = Box([-1.0], [1.0])
    F = function_difference(C, f)
    assert F.canonical.terms == 0 and F.canonical.rest == (f,)
    calls = []
    value = type(f).value
    monkeypatch.setattr(type(f), "value", lambda self, y: calls.append(y) or value(self, y))
    X = np.linspace(-1.0, 1.0, 9)[:, None]
    F.eval_batch(X, X)
    assert len(calls) == len(X)
    report = check_admissibility(F, samples=8, seed=3)
    assert not report.exact and report.samples == 8
    taken = []
    for name in ("_pair_scan", "_interval_scan"):
        scan = getattr(operators, name)
        monkeypatch.setattr(operators, name, lambda *args, scan=scan, name=name: taken.append(name) or scan(*args))
    operators.equilibrium_bruteforce(F, operators.GridSpec([-1.0], [1.0], 0.25))
    operators._admissible_intervals_1d(F, X, X, 0.0)
    assert taken == ["_pair_scan", "_interval_scan"]
    assert ResolventOracle(1.0, F).method == INNER_ITERATIVE
    assert operators.operator_from_bifunction(F)._intervals is False


def test_stacked_operator_term_allocates_only_its_differences():
    import tracemalloc

    C = WholeSpace(2)
    M, c = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 2.0])
    F = operator_bifunction(C, M, c)
    X, Y = sample_points(C, 16, 1), sample_points(C, 256, 2)
    g = np.matmul(M, X[:, :, None])[:, :, 0] + c
    # the bits of the broadcast product
    expected = np.matmul(Y[None] - X[:, None], g[:, :, None])[:, :, 0]
    np.testing.assert_array_equal(F.eval_batch(X, Y), expected)
    tracemalloc.start()
    try:
        F.eval_batch(X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 16 x 256 x 2 differences and the 16 x 256 result, with no
    # iterator buffers of the broadcast beside them
    assert peak < 2 * 16 * 256 * 2 * 8, peak


def test_eval_batch_rejects_a_misshapen_x():
    C = Box(-np.ones(3), np.ones(3))
    Y = sample_points(C, 5, 0)
    for F in _stack_parts(C, np.random.default_rng(0), []).values():
        for x in (np.zeros((4, 2)), np.zeros((2, 4, 3)), np.zeros(2)):
            with pytest.raises(ValueError, match="x must have shape"):
                F.eval_batch(x, Y)


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


def _same_form(F, G):
    for a, b in ((F.matrix, G.matrix), (F.offset, G.offset)):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=0.0)
    assert F.set is G.set and F.functions == G.functions and F.oracles == G.oracles


def _random_part(rng, C):
    """(bifunction, independent numpy reference of its values) for one
    randomly chosen constructor."""
    d = C.dimension
    kind = rng.integers(6)
    if kind == 0:
        M, c = rng.normal(size=(d, d)), rng.normal(size=d)
        return operator_bifunction(C, M, c), lambda x, y: (M @ x + c) @ (y - x)
    if kind == 1:
        B, q = rng.normal(size=(d, d)), rng.normal(size=d)
        Q = B @ B.T
        val = lambda y: 0.5 * y @ Q @ y + q @ y
        return function_difference(C, Quadratic(Q, q)), lambda x, y: val(y) - val(x)
    if kind == 2:
        w = rng.uniform(0.0, 2.0, size=d)
        return function_difference(C, WeightedL1(w)), lambda x, y: w @ (np.abs(y) - np.abs(x))
    if kind == 3:
        a = rng.normal(size=d)
        return function_difference(C, AffineFunction(a, 2.0)), lambda x, y: a @ (y - x)
    if kind == 4:
        # generic part with a batch oracle: <x, y - x> + ||y||^2 - ||x||^2
        ref = lambda x, y: x @ (y - x) + y @ y - x @ x
        batch = lambda x, Y: (Y - x) @ x + np.einsum("ij,ij->i", Y, Y) - x @ x
        return generic_bifunction(C, ref, batch), ref
    # generic part evaluated row by row
    ref = lambda x, y: float(np.sum(np.abs(y - x)) * np.sum(x))
    return generic_bifunction(C, ref), ref


def test_constructors_store_the_normal_form():
    from dataclasses import fields

    from eqsplit.bifunctions import Bifunction

    assert [f.name for f in fields(Bifunction)] == ["set", "matrix", "offset", "functions", "oracles"]
    C = WholeSpace(2)
    M, c = np.array([[1.0, 2.0], [-2.0, 0.5]]), np.array([0.3, -0.1])
    op = operator_bifunction(C, M, c)
    np.testing.assert_array_equal(op.matrix, M)
    np.testing.assert_array_equal(op.offset, c)
    assert not op.matrix.flags.writeable and not op.offset.flags.writeable
    assert op.functions == () and op.oracles == ()
    np.testing.assert_array_equal(operator_bifunction(C, M).offset, [0.0, 0.0])

    zero = zero_bifunction(C)
    assert (zero.matrix, zero.offset, zero.functions, zero.oracles) == (None, None, (), ())
    f = WeightedL1([1.0, 0.5])
    fd = function_difference(C, f)
    assert (fd.matrix, fd.offset, fd.functions, fd.oracles) == (None, None, (f,), ())
    fn = lambda x, y: float(x @ (y - x))
    batch = lambda x, Y: (Y - x) @ x
    g = generic_bifunction(C, fn, batch)
    assert (g.matrix, g.offset, g.functions, g.oracles) == (None, None, (), ((fn, batch),))
    rowwise = generic_bifunction(C, fn)
    assert rowwise.oracles[0][0] is fn
    np.testing.assert_array_equal(rowwise.oracles[0][1](np.ones(2), np.eye(2)), [-1.0, -1.0])

    # a sum adds the operator parts and joins the functions and the oracles;
    # an absent operator part is not built as a zero matrix
    S = sum_bifunctions(sum_bifunctions(op, zero), sum_bifunctions(fd, g))
    assert S.matrix is op.matrix and S.offset is op.offset
    assert S.functions == (f,) and S.oracles == ((fn, batch),)
    assert sum_bifunctions(zero, fd).matrix is None
    two = sum_bifunctions(op, operator_bifunction(C, np.eye(2), [1.0, 1.0]))
    np.testing.assert_array_equal(two.matrix, M + np.eye(2))
    np.testing.assert_array_equal(two.offset, c + 1.0)
    with pytest.raises(ValueError, match="both"):
        Bifunction(C, M, None)

    rng = np.random.default_rng(17)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        C = WholeSpace(d)
        (F, rf), (G, rg), (H, rh) = (_random_part(rng, C) for _ in range(3))
        left = sum_bifunctions(sum_bifunctions(F, G), H)
        _same_form(left, sum_bifunctions(F, sum_bifunctions(G, H)))
        x = rng.normal(size=d)
        Y = rng.normal(size=(5, d))
        expected = [rf(x, y) + rg(x, y) + rh(x, y) for y in Y]
        np.testing.assert_allclose(left.eval_batch(x, Y), expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose([left(x, y) for y in Y], expected, rtol=0.0, atol=1e-12)


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
    from eqsplit.hilbert import Ball, Halfspace, Simplex

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
    quad = function_difference(C, Quadratic([[2.0, 1.0], [1.0, 1.0]], [0.0, 1.0]))
    l1 = function_difference(C, WeightedL1([1.0, 0.5]))
    cases += [
        quad,
        l1,
        function_difference(C, AffineFunction([1.0, -1.0], 3.0)),
        sum_bifunctions(operator_bifunction(C, np.eye(2)), zero_bifunction(C)),
        sum_bifunctions(sum_bifunctions(operator_bifunction(C, M, [1.0, 0.0]), quad), l1),
        # no operator part: nothing to check over any set kind
        function_difference(Simplex(2), WeightedL1([1.0, 0.5])),
        operator_bifunction(Simplex(2), np.zeros((2, 2)), [1.0, -1.0]),
    ]
    for i, F in enumerate(cases):
        report = check_admissibility(F)
        assert report.exact and report.passed and report.samples == 0, i
    # the eigenvalue of the summed sym M decides a sum
    S = sum_bifunctions(operator_bifunction(C, [[1.0, 0.0], [0.0, -1.0]]), quad)
    report = check_admissibility(S)
    assert report.exact and not report.passed
    assert report.worst_violations["monotone"] == pytest.approx(1.0, rel=1e-12)


def test_unstructured_bifunctions_keep_the_sampled_check():
    from eqsplit.hilbert import Simplex

    class Square(Quadratic):
        pass

    C = WholeSpace(2)
    cases = [
        operator_bifunction(Simplex(2), np.eye(2)),
        function_difference(C, Square(np.eye(2), [0.0, 0.0])),
        generic_bifunction(C, lambda x, y: float(np.dot(x, y - x))),
        sum_bifunctions(operator_bifunction(C, np.eye(2)), generic_bifunction(C, lambda x, y: 0.0)),
    ]
    for i, F in enumerate(cases):
        report = check_admissibility(F, samples=8, seed=3)
        assert not report.exact and report.samples == 8 and report.passed, i


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


def test_exact_admissibility_is_decided_once_per_bifunction(monkeypatch):
    # a solve checks both bifunctions each time; the eigenvalue behind the
    # exact verdict is computed on the first check only
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting_eigvalsh(a):
        calls.append(1)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    F = operator_bifunction(WholeSpace(3), np.eye(3) - np.diag([0.0, 0.0, 2.0]))
    first = check_admissibility(F, seed=1)
    first.worst_violations["monotone"] = 0.0  # a report owns its dict
    for seed in (1, 2, 3):
        report = check_admissibility(F, seed=seed)
        assert report.exact and not report.passed and report.seed == seed
        assert report.worst_violations["monotone"] == pytest.approx(1.0)
    assert len(calls) == 1
