"""Operator bridge: induced operators, induced bifunctions, and grid oracles."""

import numpy as np
import pytest

from eqsplit.bifunctions import (
    AffineFunction,
    ConvexFunction,
    Quadratic,
    WeightedL1,
    function_difference,
    generic_bifunction,
    operator_bifunction,
    sum_bifunctions,
    zero_bifunction,
)
from eqsplit import operators
from eqsplit.hilbert import (
    AffineSubspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    IntersectionSet,
    Simplex,
    WholeSpace,
    sample_points,
)
from eqsplit.operators import (
    GridSpec,
    IntervalImage,
    MonotoneOperator,
    affine_operator,
    bifunction_from_operator,
    equilibrium_bruteforce,
    normal_cone_operator,
    operator_from_bifunction,
    operator_sum,
    set_distance,
    subdifferential_operator,
    zeros_bruteforce,
)
from eqsplit.problems import corpus, get_problem
from eqsplit.resolvents import ResolventOracle, partial_second, resolve

from oracles import (
    box_vi_active_set,
    halfspace_support_gap,
    simplex_support_gap,
    zeros_intervals_reference,
    zeros_sampled_reference,
)


# ---------------------------------------------------------------------------
# interval images and normal cones
# ---------------------------------------------------------------------------

def test_interval_image_basics():
    im = IntervalImage([-1.0, 0.0], [2.0, 0.0])
    assert im.contains([0.0, 0.0])
    assert not im.contains([0.0, 0.1])
    assert im.contains([0.0, 0.1], tol=0.2)


def test_normal_cone_image_box():
    C = Box([-1.0, -1.0], [1.0, 1.0])
    N = normal_cone_operator(C)
    interior = N.evaluate([0.0, 0.5])
    np.testing.assert_array_equal(interior.lo, [0.0, 0.0])
    np.testing.assert_array_equal(interior.hi, [0.0, 0.0])
    corner = N.evaluate([1.0, -1.0])
    assert corner.hi[0] == np.inf and corner.lo[0] == 0.0
    assert corner.lo[1] == -np.inf and corner.hi[1] == 0.0
    assert N.evaluate([2.0, 0.0]) is None


class _Orthant(ConvexSet):
    """The nonnegative orthant, given only what ConvexSet requires."""

    def __init__(self, dimension):
        self.dimension = dimension

    def _project(self, x):
        return np.maximum(x, 0.0)


def test_normal_cone_of_a_user_set_without_a_kind():
    C = _Orthant(3)
    N = normal_cone_operator(C)
    assert N.name == "normal-cone[_Orthant]"
    assert normal_cone_operator(Box([-1.0], [1.0])).name == "normal-cone[box]"
    x = np.array([1.0, 0.0, 2.0])
    # N_C(x) = {u : u_2 <= 0, u_1 = u_3 = 0} at this boundary point
    assert list(N.member_batch(x, [[0.0, -3.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])) == [
        True, True, False, False,
    ]
    assert not N.member([-1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    z = np.random.default_rng(83).normal(size=3)
    for gamma in (0.1, 1.0, 10.0):
        np.testing.assert_array_equal(N.resolvent(gamma, z), np.maximum(z, 0.0))


# ---------------------------------------------------------------------------
# operators induced by bifunctions
# ---------------------------------------------------------------------------

def test_membership_quadratic_difference():
    # the operator induced by y^2 - x^2 on the line is x -> 2x
    C = WholeSpace(1)
    G = function_difference(C, Quadratic([[2.0]], [0.0]))
    A = operator_from_bifunction(G)
    assert A.member([1.0], [2.0])
    assert not A.member([1.0], [1.9])


def test_membership_normal_cone_via_zero_bifunction():
    C = Box([-1.0], [1.0])
    A = operator_from_bifunction(zero_bifunction(C))
    assert A.member([1.0], [5.0])  # positive normals at the right endpoint
    assert not A.member([0.0], [0.1])  # interior point has image {0}
    assert A.member([0.0], [0.0])
    assert not A.member([2.0], [0.0])  # empty image outside the set


def test_resolvent_identity_with_bifunction_resolvent():
    C = Box([0.0, 0.0], [1.0, 1.0])
    F = operator_bifunction(C, [[2.0, 1.0], [1.0, 2.0]], [-1.5, -2.5])
    A = operator_from_bifunction(F)
    rng = np.random.default_rng(0)
    for gamma in (0.5, 1.0):
        oracle = ResolventOracle(gamma, F)
        for _ in range(5):
            x = rng.normal(scale=2.0, size=2)
            np.testing.assert_allclose(A.resolvent(gamma, x), resolve(oracle, x), atol=1e-10)


def test_resolvent_oracle_is_built_once_per_gamma(monkeypatch):
    # a whole-space linear resolvent inverts I + gamma M when its oracle is
    # built; the operator keeps one oracle per gamma for every later call
    d = 20
    M = np.random.default_rng(1).normal(size=(d, d))
    A = affine_operator(M - M.T + np.eye(d))
    inv = np.linalg.inv
    calls = []

    def counting_inv(a):
        calls.append(1)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    x = np.ones(d)
    first = A.resolvent(0.5, x)
    for _ in range(5):
        np.testing.assert_array_equal(A.resolvent(0.5, x), first)
    np.testing.assert_array_equal(A.resolvent_map(0.5)(x), first)
    assert A.resolvent_map(0.5) is A.resolvent_map(0.5)
    assert len(calls) == 1
    A.resolvent(2.0, x)
    assert len(calls) == 2


def test_structural_intervals_match_sampled_membership():
    C = Box([-1.0], [1.0])
    F = operator_bifunction(C, [[1.0]], [-2.0])
    A = operator_from_bifunction(F)
    assert A.evaluate is not None
    im = A.evaluate(np.array([1.0]))
    assert im.lo[0] == pytest.approx(-1.0)  # value x - 2 plus the cone [0, inf)
    assert im.hi[0] == np.inf
    assert A.member([1.0], [3.0])
    assert not A.member([0.5], [-1.0])


def test_batch_membership_matches_one_point_membership():
    from eqsplit.problems import corpus, get_problem

    # y^2 - x^2 at x = -0.4312 has the image {-0.8624}, an interval image
    # that rejects u = -0.8540 exactly
    A = operator_from_bifunction(get_problem("quadratic-1d").F)
    assert not A.member([-0.4312], [-0.8540])
    assert not A.member_batch([-0.4312], [[-0.8540]])[0]
    rng = np.random.default_rng(7)
    for inst in corpus():
        for H in (inst.F, inst.G):
            A = operator_from_bifunction(H)
            grad = partial_second(H)
            for _ in range(5):
                x = H.set.project(rng.uniform(-1.5, 1.5, size=H.dimension))
                U = grad(x, x) + rng.normal(scale=0.03, size=(20, H.dimension))
                expected = [A.member(x, u) for u in U]
                np.testing.assert_array_equal(A.member_batch(x, U), expected, err_msg=inst.name)


def _structured_operators():
    # (bifunction, [(x, u, member?)]) for interval-image families over a box
    # and the whole space, and the normal cones of the other set kinds
    box = Box([-1.0], [1.0])
    line = WholeSpace(1)
    shift = operator_bifunction(box, [[1.0]], [-2.0])  # x - 2 plus the cone
    square = function_difference(line, Quadratic([[2.0]], [0.0]))  # {2x}
    kink = function_difference(box, WeightedL1([1.0]))  # sign(x), [-1, 1] at 0
    return [
        (shift, [([1.0], [3.0], True), ([1.0], [-1.5], False), ([0.5], [-1.5], True),
                 ([0.5], [-1.0], False), ([2.0], [0.0], False)]),
        (square, [([-0.4312], [-0.8624], True), ([-0.4312], [-0.8540], False),
                  ([1.0], [2.0], True), ([1.0], [1.9], False)]),
        (kink, [([0.0], [0.5], True), ([0.0], [-1.0], True), ([0.0], [1.5], False),
                ([-1.0], [-7.0], True), ([0.5], [0.9], False)]),
        (sum_bifunctions(shift, kink), [([0.0], [-1.5], True), ([0.0], [-3.5], False),
                                        ([1.0], [40.0], True), ([0.5], [-0.5], True)]),
        (zero_bifunction(Halfspace([1.0, 1.0], 0.5)),
         [([0.25, 0.25], [1.0, 1.0], True), ([0.25, 0.25], [1.0, 0.0], False),
          ([0.0, -1.0], [0.0, 0.0], True), ([0.0, -1.0], [0.0, -1.0], False), ([1.0, 1.0], [1.0, 1.0], False)]),
        (zero_bifunction(Simplex(3)),
         [([0.5, 0.5, 0.0], [1.0, 1.0, 0.0], True), ([0.5, 0.5, 0.0], [0.0, 0.0, -1.0], True),
          ([0.5, 0.5, 0.0], [1.0, 1.001, 0.0], False), ([1.0, 0.0, 0.0], [2.0, 1.0, 1.0], True),
          ([1.0, 0.0, 0.0], [1.0, 1.01, 0.0], False)]),
        (zero_bifunction(AffineSubspace([[1.0, 1.0]], [1.0])),
         [([0.3, 0.7], [2.0, 2.0], True), ([0.3, 0.7], [-1.0, -1.0], True),
          ([0.3, 0.7], [1.0, 0.0], False), ([1.0, 1.0], [0.0, 0.0], False)]),
        # x = (1, -0.5) is on the box's face x_1 = 1 and on the halfspace's
        # boundary, so its cone is spanned by (1, 0) and (1, 1)
        (zero_bifunction(IntersectionSet((Box([-1.0, -1.0], [1.0, 1.0]), Halfspace([1.0, 1.0], 0.5)))),
         [([1.0, -0.5], [2.0, 1.0], True), ([1.0, -0.5], [1.0, 0.0], True),
          ([1.0, -0.5], [0.0, 1.0], False), ([0.0, 0.0], [0.0, 0.0], True), ([0.0, 0.0], [0.1, 0.0], False)]),
    ]


def test_structured_membership_calls_no_oracle_and_draws_no_sample(monkeypatch):
    import eqsplit.hilbert
    import eqsplit.operators
    from eqsplit.bifunctions import Bifunction

    def forbidden(*args, **kwargs):
        raise AssertionError("exact membership must not evaluate F or sample C")

    monkeypatch.setattr(Bifunction, "__call__", forbidden)
    monkeypatch.setattr(Bifunction, "eval_batch", forbidden)
    monkeypatch.setattr(eqsplit.operators, "sample_points", forbidden)
    monkeypatch.setattr(eqsplit.hilbert, "sample_points", forbidden)
    for F, cases in _structured_operators():
        A = operator_from_bifunction(F)
        for x, u, expected in cases:
            assert A.member(x, u) == expected, (F.set.kind, x, u)
            assert A.member_batch(x, [u, u])[0] == expected, (F.set.kind, x, u)


@pytest.mark.parametrize(
    "A",
    [
        operator_from_bifunction(operator_bifunction(Box([-1.0], [1.0]), [[1.0]])),
        operator_from_bifunction(
            sum_bifunctions(*(2 * [operator_bifunction(WholeSpace(1), [[1.0]])]))
        ),
        affine_operator([[1.0]]),
        normal_cone_operator(Box([-1.0], [1.0])),
        normal_cone_operator(Ball([0.0], 1.0)),
    ],
    ids=["induced-box", "induced-sampled", "affine", "cone-box", "cone-ball"],
)
def test_member_batch_rejects_malformed_multipliers(A):
    assert A.member_batch([0.0], [[0.0]]).shape == (1,)
    for bad in ([[np.nan]], [[np.inf], [0.0]], [[0.0, 1.0]], [0.0], [[[0.0]]]):
        with pytest.raises(ValueError):
            A.member_batch([0.0], bad)
    with pytest.raises(ValueError):
        A.member([0.0], [np.nan])


def test_evaluate_is_one_row_of_evaluate_batch():
    C = Box([0.0, 0.0], [1.0, 1.0])
    F = sum_bifunctions(
        operator_bifunction(C, [[2.0, 1.0], [1.0, 2.0]], [-1.5, -2.5]),
        function_difference(C, WeightedL1([0.5, 1.0])),
    )
    A = operator_from_bifunction(F)
    X = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.3], [1.5, 0.5]])
    ok, lo, hi = A.evaluate_batch(X)
    np.testing.assert_array_equal(ok, [True, True, True, False])
    for i, x in enumerate(X[:3]):
        image = A.evaluate(x)
        np.testing.assert_array_equal(image.lo, lo[i])
        np.testing.assert_array_equal(image.hi, hi[i])
    assert A.evaluate(X[3]) is None
    # corner (0, 0): both coordinates at the lower bound, L1 kinks
    np.testing.assert_array_equal(lo[0], [-np.inf, -np.inf])
    np.testing.assert_array_equal(hi[0], [-1.5 + 0.5, -2.5 + 1.0])
    with pytest.raises(ValueError):
        A.evaluate_batch([[np.nan, 0.0]])
    with pytest.raises(ValueError, match="interval evaluation"):
        normal_cone_operator(Ball([0.0], 1.0)).evaluate_batch([[0.0]])


def test_constructor_images_match_closed_forms():
    # the three constructors are induced operators; their images stay the
    # closed forms, bit for bit
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.5, 1.5, size=(40, 2))
    X[::5, 0] = 0.0
    X[1::5] = [[1.0, -1.0]]
    X[2::5, 1] = -1.0
    M = np.array([[2.0, 1.0], [-1.0, 0.5]])
    c = np.array([0.3, -0.7])
    ok, lo, hi = affine_operator(M, c).evaluate_batch(X)
    assert ok.all()
    np.testing.assert_array_equal(lo, X @ M.T + c)
    np.testing.assert_array_equal(hi, X @ M.T + c)

    ok, lo, hi = normal_cone_operator(Box([-1.0, -1.0], [1.0, 1.0])).evaluate_batch(X)
    np.testing.assert_array_equal(ok, np.all(np.abs(X) <= 1.0, axis=1))
    np.testing.assert_array_equal(lo, np.where(X <= -1.0, -np.inf, 0.0))
    np.testing.assert_array_equal(hi, np.where(X >= 1.0, np.inf, 0.0))

    Q, q = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])
    w, a = np.array([0.5, 2.0]), np.array([3.0, -0.25])
    kink = X == 0.0
    expected = [
        (Quadratic(Q, q), X @ Q.T + q, X @ Q.T + q),
        (WeightedL1(w), np.where(kink, -w, w * np.sign(X)), np.where(kink, w, w * np.sign(X))),
        (AffineFunction(a, 1.0), np.tile(a, (40, 1)), np.tile(a, (40, 1))),
    ]
    for f, want_lo, want_hi in expected:
        ok, lo, hi = subdifferential_operator(f).evaluate_batch(X)
        assert ok.all()
        np.testing.assert_array_equal(lo, want_lo, err_msg=type(f).__name__)
        np.testing.assert_array_equal(hi, want_hi, err_msg=type(f).__name__)


class _AbsValue(ConvexFunction):
    """|y| on the line, whose oracle returns the one subgradient 0 at the kink."""

    dimension = 1

    def value(self, y):
        return float(abs(y[0]))

    def value_batch(self, Y):
        return np.abs(np.asarray(Y, dtype=float)[:, 0])

    def subgradient(self, y):
        return np.sign(np.asarray(y, dtype=float))


def test_subdifferential_of_user_function_is_not_its_oracle_point():
    # the subdifferential of |y| at 0 is [-1, 1], not the oracle's {0}
    A = subdifferential_operator(_AbsValue())
    with pytest.raises(ValueError, match="interval evaluation"):
        A.evaluate_batch([[0.0]])
    assert A.member([0.0], [0.5])
    assert A.member([0.0], [-1.0])
    assert not A.member([0.0], [1.5])
    assert A.member([2.0], [1.0])
    assert not A.member([2.0], [0.5])


# ---------------------------------------------------------------------------
# bifunctions induced by operators
# ---------------------------------------------------------------------------

def test_bifunction_from_affine_operator():
    # A x = 2x gives (x, y) -> 2x(y - x) = 2xy - 2x^2
    C = WholeSpace(1)
    A = affine_operator([[2.0]])
    F = bifunction_from_operator(A, C)
    assert F.matrix is not None and F.functions == () and F.oracles == ()
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.normal(size=2)
        assert F([x], [y]) == pytest.approx(2.0 * x * y - 2.0 * x * x, abs=1e-12)
    for y in (-3.0, 0.2, 7.0):
        assert F([0.0], [y]) == 0.0


def test_bifunction_from_normal_cone_interior_is_zero():
    box = Box([-1.0], [1.0])
    N = normal_cone_operator(box)
    inner_box = Box([-0.9], [0.9])
    F = bifunction_from_operator(N, inner_box)
    for x in (-0.5, 0.0, 0.8):
        for y in (-0.9, 0.1, 0.9):
            assert F([x], [y]) == 0.0


def test_bifunction_from_subdifferential_l1():
    f = WeightedL1([1.0])
    A = subdifferential_operator(f)
    C = WholeSpace(1)
    F = bifunction_from_operator(A, C)
    # at the kink the image is [-1, 1]; the support of y - 0 picks |y|
    assert F([0.0], [2.0]) == pytest.approx(2.0)
    assert F([0.0], [-2.0]) == pytest.approx(2.0)
    assert F([1.0], [2.0]) == pytest.approx(1.0)


def test_bifunction_from_operator_requires_evaluate():
    C = WholeSpace(1)
    A = normal_cone_operator(Ball([0.0], 1.0))
    with pytest.raises(ValueError, match="interval evaluation"):
        bifunction_from_operator(A, C)


def test_bifunction_from_operator_refuses_empty_images_and_unbounded_support():
    # the cone of [-1, 1] bridged over [-2, 2]: empty outside [-1, 1], and
    # unbounded towards y > 1 at the right endpoint
    F = bifunction_from_operator(normal_cone_operator(Box([-1.0], [1.0])), Box([-2.0], [2.0]))
    assert F.matrix is None and F.functions == () and len(F.oracles) == 1
    assert F([1.0], [0.0]) == 0.0
    np.testing.assert_array_equal(F.eval_batch([1.0], [[0.0], [-2.0]]), [0.0, 0.0])
    with pytest.raises(ValueError, match="empty"):
        F([1.5], [0.0])
    with pytest.raises(ValueError, match="empty"):
        F.eval_batch([1.5], [[0.0]])
    with pytest.raises(ValueError, match="unbounded"):
        F([1.0], [2.0])
    with pytest.raises(ValueError, match="unbounded"):
        F.eval_batch([1.0], [[0.0], [2.0]])


def test_bridge_of_induced_affine_plus_quadratic_is_operator_induced():
    # <M x + c, y - x> + f(y) - f(x) over R^2 induces x -> (M + Q) x + c + q
    H = WholeSpace(2)
    M, c = np.array([[1.0, 2.0], [-2.0, 0.5]]), np.array([0.3, -0.1])
    Q, q = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])
    S = sum_bifunctions(operator_bifunction(H, M, c), function_difference(H, Quadratic(Q, q)))
    C = Box([-1.0, -1.0], [1.0, 1.0])
    F = bifunction_from_operator(operator_from_bifunction(S), C)
    assert F.matrix is not None and F.functions == () and F.oracles == ()
    rng = np.random.default_rng(3)
    Y = rng.uniform(-1.0, 1.0, size=(30, 2))
    for x in rng.uniform(-1.0, 1.0, size=(10, 2)):
        expected = (Y - x) @ (M @ x + c + Q @ x + q)
        np.testing.assert_allclose(F.eval_batch(x, Y), expected, rtol=1e-12, atol=1e-12)
        assert F(x, Y[0]) == pytest.approx(expected[0], rel=1e-12, abs=1e-12)


def test_operator_sum_membership():
    B = affine_operator([[1.0]], [-2.0])
    C = Box([-1.0], [1.0])
    S = operator_sum(B, normal_cone_operator(C))
    assert S.member([1.0], [-1.0])
    assert S.member([1.0], [4.0])
    assert not S.member([0.5], [0.0])  # image is {-1.5} there
    assert S.member([0.5], [-1.5])


# ---------------------------------------------------------------------------
# grid oracles
# ---------------------------------------------------------------------------

def test_grid_spec_points():
    g = GridSpec([0.0], [1.0], 0.25)
    np.testing.assert_allclose(g.points()[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    g2 = GridSpec([0.0, 0.0], [1.0, 1.0], 0.5)
    assert g2.points().shape == (9, 2)


def test_zeros_gradient_of_square():
    # the subdifferential of x^2 is 2x; against the zero map the only zero is 0
    A = subdifferential_operator(Quadratic([[2.0]], [0.0]))
    B = affine_operator([[0.0]])
    grid = GridSpec([-2.0], [2.0], 1e-3)
    zeros = zeros_bruteforce(A, B, grid)
    assert len(zeros) >= 1
    assert np.max(np.abs(zeros)) <= 1e-3 + 1e-12


def test_zeros_shifted_map_against_normal_cone():
    # 0 in x - 2 + N_[-1,1](x) has the unique solution 1 (projection of 2)
    A = normal_cone_operator(Box([-1.0], [1.0]))
    B = affine_operator([[1.0]], [-2.0])
    grid = GridSpec([-1.0], [1.0], 1e-3)
    zeros = zeros_bruteforce(A, B, grid)
    assert len(zeros) >= 1
    assert set_distance(zeros, np.array([[1.0]])) <= 1e-3 + 1e-12


def test_zeros_linear_map_against_shifted_cone():
    # 0 in 2x + N_[1,3](x): multiplier -2 at x = 1
    A = affine_operator([[2.0]])
    B = normal_cone_operator(Box([1.0], [3.0]))
    grid = GridSpec([1.0], [3.0], 1e-3)
    zeros = zeros_bruteforce(A, B, grid)
    assert len(zeros) >= 1
    assert set_distance(zeros, np.array([[1.0]])) <= 1e-3 + 1e-12


def test_equilibrium_bruteforce_quadratic():
    C = Box([-1.0], [1.0])
    F = function_difference(C, Quadratic([[2.0]], [0.0]))
    grid = GridSpec([-1.0], [1.0], 1e-3)
    # the residual is quadratic around the solution, so the slack must be
    # quadratic in the wanted localization (one grid step)
    sols = equilibrium_bruteforce(F, grid, tol=1e-6)
    assert len(sols) >= 1
    assert np.max(np.abs(sols)) <= 1e-3 + 1e-12


def test_equilibrium_bruteforce_trivial_everywhere():
    C = Box([-1.0], [1.0])
    F = zero_bifunction(C)
    grid = GridSpec([-1.0], [1.0], 0.1)
    sols = equilibrium_bruteforce(F, grid)
    assert len(sols) == grid.points().shape[0]


def test_equilibrium_bruteforce_vi_boundary():
    # <2x, y - x> over [1, 3]: the solution sits at the left endpoint
    C = Box([1.0], [3.0])
    F = operator_bifunction(C, [[2.0]])
    grid = GridSpec([1.0], [3.0], 1e-3)
    sols = equilibrium_bruteforce(F, grid, tol=1e-3)
    assert len(sols) >= 1
    assert set_distance(sols, np.array([[1.0]])) <= 1e-3 + 1e-12


def test_zeros_empty_grid_raises():
    A = affine_operator([[1.0]])
    with pytest.raises(ValueError):
        GridSpec([1.0], [0.0], 0.1)
    with pytest.raises(ValueError, match="dimension"):
        zeros_bruteforce(A, A, GridSpec([0.0, 0.0], [1.0, 1.0], 0.5))
    # a 2-D operator without interval images has no exact route
    N, B = normal_cone_operator(Ball([0.0, 0.0], 1.0)), affine_operator(np.eye(2))
    with pytest.raises(ValueError, match=r"'normal-cone\[ball\]' and 'affine'"):
        zeros_bruteforce(N, B, GridSpec([-1.0, -1.0], [1.0, 1.0], 0.5))
    with pytest.raises(ValueError, match="unknown zeros_bruteforce method 'ugrid'"):
        zeros_bruteforce(N, B, GridSpec([-1.0, -1.0], [1.0, 1.0], 0.5), method="ugrid")


# ---------------------------------------------------------------------------
# desk-scale identities
# ---------------------------------------------------------------------------

def test_zero_sets_match_solution_sets_1d():
    # zeros of the induced operator pair against the summed equilibrium
    # solutions, both through sampled routes, on the 1-D corpus instances
    from eqsplit.problems import corpus

    for idx in (1, 3, 5):
        inst = corpus()[idx]
        (lo, hi), = inst.grid_bounds
        grid = GridSpec([lo], [hi], 1e-3)
        AF = operator_from_bifunction(inst.F)
        AG = operator_from_bifunction(inst.G)
        # slack 1e-6: admissible-multiplier windows and equilibrium residuals
        # both degrade quadratically around degenerate solutions, so the
        # matched quadratic slack keeps both sets within ~sqrt(tol) = one step
        zeros = zeros_bruteforce(AF, AG, grid, tol=1e-6, method="sampled")
        sols = equilibrium_bruteforce(sum_bifunctions(inst.F, inst.G), grid, tol=1e-6)
        assert len(zeros) >= 1 and len(sols) >= 1, inst.name
        assert set_distance(zeros, sols) <= 2e-3, inst.name


def test_zero_sets_match_solution_sets_2d():
    from eqsplit.problems import corpus

    inst = corpus()[2]  # box variational inequality
    grid = GridSpec([0.0, 0.0], [1.0, 1.0], 1e-2)
    AF = operator_from_bifunction(inst.F)
    AG = operator_from_bifunction(inst.G)
    # nondegenerate linear residuals: slack of a quarter step keeps both
    # sets within two steps of the common solution
    zeros = zeros_bruteforce(AF, AG, grid, tol=2.5e-3, method="intervals")
    sols = equilibrium_bruteforce(sum_bifunctions(inst.F, inst.G), grid, tol=2.5e-3)
    assert len(zeros) >= 1 and len(sols) >= 1
    assert set_distance(zeros, sols) <= 2e-2


def test_zeros_of_operator_plus_cone_match_induced_solutions():
    # zeros of A + N_C coincide with solutions of the bifunction induced by A
    M = [[2.0, 1.0], [1.0, 2.0]]
    q = [-1.5, -2.5]
    A = affine_operator(M, q)
    C = Box([0.0, 0.0], [1.0, 1.0])
    N = normal_cone_operator(C)
    FA = bifunction_from_operator(A, C)
    grid = GridSpec([0.0, 0.0], [1.0, 1.0], 1e-2)
    zeros = zeros_bruteforce(A, N, grid, tol=2.5e-3)
    sols = equilibrium_bruteforce(FA, grid, tol=2.5e-3)
    kkt = box_vi_active_set(M, q, [0.0, 0.0], [1.0, 1.0])
    assert len(kkt) == 1
    assert len(zeros) >= 1 and len(sols) >= 1
    assert set_distance(zeros, np.array(kkt)) <= 2e-2
    assert set_distance(zeros, sols) <= 2e-2


_BRIDGE_STEPS = {1: (0.02, 0.0125, 0.01, 0.008), 2: (0.125, 0.0625)}


@pytest.mark.parametrize("name", [inst.name for inst in corpus()])
def test_grid_zero_scans_match_per_point_reference(name):
    # the array routes accept exactly the grid points the one-point-at-a-time
    # loops in tests/oracles.py accept, at the benchmark's grids
    inst = get_problem(name)
    d = inst.set.dimension
    lo = [b[0] for b in inst.grid_bounds]
    hi = [b[1] for b in inst.grid_bounds]
    AF = operator_from_bifunction(inst.F)
    AG = operator_from_bifunction(inst.G)
    for step in _BRIDGE_STEPS[d]:
        grid = GridSpec(lo, hi, step)
        pts = grid.points()
        for tol in (step**2, step, 1e-6):
            expected = zeros_intervals_reference(inst.F, inst.G, pts, tol)
            got = zeros_bruteforce(AF, AG, grid, tol=tol, method="intervals")
            np.testing.assert_array_equal(got, expected, err_msg=f"{step} {tol}")
            if d == 1:
                expected = zeros_sampled_reference(inst.F, inst.G, pts, tol)
                got = zeros_bruteforce(AF, AG, grid, tol=tol, method="sampled")
                np.testing.assert_array_equal(got, expected, err_msg=f"{step} {tol}")


def test_sampled_zero_scan_of_summed_bifunctions_matches_reference():
    # the pair values of a sum add its affine and function-difference parts
    C = Box([-2.0], [2.0])
    F = sum_bifunctions(
        operator_bifunction(C, [[1.0]], [-0.5]), function_difference(C, WeightedL1([0.7]))
    )
    G = function_difference(C, Quadratic([[2.0]], [0.3]))
    AF, AG = operator_from_bifunction(F), operator_from_bifunction(G)
    grid = GridSpec([-2.0], [2.0], 0.01)
    for tol in (1e-4, 1e-2, 1e-6):
        expected = zeros_sampled_reference(F, G, grid.points(), tol)
        assert len(expected) >= 1
        got = zeros_bruteforce(AF, AG, grid, tol=tol, method="sampled")
        np.testing.assert_array_equal(got, expected, err_msg=str(tol))


def test_zeros_of_operator_plus_cone_match_per_point_reference():
    M = [[2.0, 1.0], [1.0, 2.0]]
    q = [-1.5, -2.5]
    C = Box([0.0, 0.0], [1.0, 1.0])
    grid = GridSpec([0.0, 0.0], [1.0, 1.0], 1e-2)
    A, N = affine_operator(M, q), normal_cone_operator(C)
    # the same images, described as induced bifunctions for the reference
    FA, FN = operator_bifunction(WholeSpace(2), M, q), zero_bifunction(C)
    for tol in (1e-4, 2.5e-3, 1e-2, 1e-6):
        expected = zeros_intervals_reference(FA, FN, grid.points(), tol)
        assert len(expected) >= 1
        np.testing.assert_array_equal(zeros_bruteforce(A, N, grid, tol=tol), expected)


def test_sampled_zero_scan_works_in_row_blocks(monkeypatch):
    # 4,001 grid points: a dense pair matrix F(x_i, y_j) would take 128 MB.
    # The full-row scan holds at most four arrays of one row block of a
    # quarter of BLOCK_ENTRIES pairs; the candidate route, which certifies
    # every row here, holds a few arrays of nine candidates per side and row
    import tracemalloc

    def peak_of(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    inst = get_problem("quadratic-1d")
    grid = GridSpec([-2.0], [2.0], 1e-3)
    pts = grid.points()
    n = pts.shape[0]
    block = (operators.BLOCK_ENTRIES // 4 // n) * n * 8
    _, peak = peak_of(lambda: operators._interval_scan(inst.F, pts, pts, 1e-6))
    assert peak <= 4 * block, f"peak {peak / 2**20:.1f} MiB"

    AF = operator_from_bifunction(inst.F)
    AG = operator_from_bifunction(inst.G)
    with monkeypatch.context() as patch:
        patch.setattr(operators, "_interval_scan", _refuse_row_scan)
        zeros, peak = peak_of(lambda: zeros_bruteforce(AF, AG, grid, tol=1e-6, method="sampled"))
    assert set_distance(zeros, np.array([[-0.5]])) <= 2e-3
    assert peak <= 16 * 9 * 2 * n * 8, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# the 1-D zero scan: candidate columns against the full-row scan
# ---------------------------------------------------------------------------

#: the full-row scan, the reference while a test refuses it inside
#: _admissible_intervals_1d
_ROW_SCAN = operators._interval_scan


def _refuse_row_scan(F, X, Y, delta):
    raise AssertionError("the 1-D zero scan fell back to the full-row scan")


def _assert_intervals_match_row_scan(F, X, Y, tols):
    for tol in tols:
        got = operators._admissible_intervals_1d(F, X, Y, tol)
        expected = _ROW_SCAN(F, X, Y, tol)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in expected], tol


@pytest.mark.parametrize("name", [inst.name for inst in corpus() if inst.set.dimension == 1])
def test_candidate_intervals_and_zero_sets_equal_the_row_scan_on_corpus(monkeypatch, name):
    # F, G and F + G at the benchmark's steps and at 1e-3, and the sampled
    # zero sets against those the row scan's intervals give
    inst = get_problem(name)
    AF, AG = operator_from_bifunction(inst.F), operator_from_bifunction(inst.G)
    FG = sum_bifunctions(inst.F, inst.G)
    for step in _BRIDGE_STEPS[1] + (1e-3,):
        grid = GridSpec(*zip(*inst.grid_bounds), step)
        pts = grid.points()
        for tol in (0.0, step**2, step, 10.0 * step, 1e-6):
            scans = {H: _ROW_SCAN(H, pts, pts, tol) for H in (inst.F, inst.G, FG)}
            for H, expected in scans.items():
                got = operators._admissible_intervals_1d(H, pts, pts, tol)
                assert [v.tobytes() for v in got] == [v.tobytes() for v in expected], (step, tol)
            got = zeros_bruteforce(AF, AG, grid, tol=tol, method="sampled")

            def scanned(H, X, Y, delta):
                assert X.tobytes() == Y.tobytes() == pts.tobytes() and delta == tol
                return scans[H]

            with monkeypatch.context() as patch:
                patch.setattr(operators, "_admissible_intervals_1d", scanned)
                expected = zeros_bruteforce(AF, AG, grid, tol=tol, method="sampled")
            assert len(expected) >= 1 or tol == 0.0
            assert got.tobytes() == expected.tobytes(), (step, tol)


def test_candidate_intervals_equal_the_row_scan_on_a_seeded_family():
    # sums of an operator part, quadratics with curvature down to 1e-10,
    # weighted L1 with its kink between grid points and affine functions,
    # over boxes narrower than the grid and the whole line
    rng = np.random.default_rng(29)
    for trial in range(24):
        lo, hi = rng.uniform(-1.5, -0.2), rng.uniform(0.2, 1.5)
        C = WholeSpace(1) if trial % 4 == 0 else Box([lo], [hi])
        kinds = [k for k in range(4) if rng.random() < 0.5] or [trial % 4]
        parts = []
        if 0 in kinds:
            parts.append(operator_bifunction(C, [[rng.uniform(0.0, 2.0)]], [rng.normal()]))
        if 1 in kinds:
            curvature = 1e-10 if trial % 3 == 0 else 10.0 ** rng.uniform(-10.0, 1.0)
            parts.append(function_difference(C, Quadratic([[curvature]], [rng.normal()])))
        if 2 in kinds:
            parts.append(function_difference(C, WeightedL1([rng.uniform(0.05, 2.0)])))
        if 3 in kinds:
            parts.append(function_difference(C, AffineFunction([rng.normal()], rng.normal())))
        F = parts[0]
        for H in parts[1:]:
            F = sum_bifunctions(F, H)
        step = (0.02, 0.0125, 0.01, 0.008)[trial % 4]
        # an offset start keeps y = 0 off the grid
        pts = GridSpec([-2.0 + 0.37 * step], [2.0], step).points()
        Y = pts[F.set.contains_batch(pts, 1e-9)]
        assert Y.shape[0] < pts.shape[0] or C.kind == "whole-space"
        _assert_intervals_match_row_scan(F, Y, Y, (0.0, step**2, step, 10.0 * step, 1e-6))
        # rows off the columns: every grid point against the points of C,
        # and rows a few ulp and half a step beside the columns, nearer to
        # the column next to them than the spacing
        _assert_intervals_match_row_scan(F, pts, Y, (step**2, 10.0 * step))
        for shift in (4e-16, 0.5 * step):
            _assert_intervals_match_row_scan(F, Y + shift, Y, (step**2, 1e-6))


def test_benchmark_zero_scans_certify_every_row(monkeypatch):
    # the benchmark's sampled zero scans (1-D corpus, its steps, slack
    # step^2) take no row to the full-row scan
    monkeypatch.setattr(operators, "_interval_scan", _refuse_row_scan)
    for inst in corpus():
        if inst.set.dimension != 1:
            continue
        AF, AG = operator_from_bifunction(inst.F), operator_from_bifunction(inst.G)
        for step in _BRIDGE_STEPS[1]:
            grid = GridSpec(*zip(*inst.grid_bounds), step)
            assert len(zeros_bruteforce(AF, AG, grid, tol=step**2, method="sampled")) >= 1


def test_rows_without_a_certificate_take_the_row_scan(monkeypatch):
    # with no slack an affine form's quotient is its slope g on every
    # column, up to rounding, so no row has a certificate; the zero form's
    # intervals end in a signed zero
    seen = []
    monkeypatch.setattr(
        operators, "_interval_scan", lambda F, X, Y, delta: seen.append(X.shape[0]) or _ROW_SCAN(F, X, Y, delta)
    )
    C = Box([-1.0], [1.0])
    pts = GridSpec([-1.0], [1.0], 0.01).points()
    for F in (operator_bifunction(C, [[1.0]], [-0.3]), zero_bifunction(C)):
        seen.clear()
        _assert_intervals_match_row_scan(F, pts, pts, (0.0,))
        assert sum(seen) > 0


# ---------------------------------------------------------------------------
# grid solution sets: the per-axis lower envelope against the pair scan
# ---------------------------------------------------------------------------

#: the benchmark's grid steps and those of the tier-1 corpus calls
_SOLUTION_SET_STEPS = {1: _BRIDGE_STEPS[1] + (1e-3,), 2: _BRIDGE_STEPS[2] + (1e-2,)}


def _points_in(F, grid):
    pts = grid.points()
    return pts[F.set.contains_batch(pts, 1e-9)]


#: the pair scan itself, the reference while a test refuses it inside
#: equilibrium_bruteforce
_SCAN = operators._pair_scan


def _refuse_scan(F, pts):
    raise AssertionError("equilibrium_bruteforce fell back to the pair scan")


@pytest.fixture
def refuse_scan(monkeypatch):
    monkeypatch.setattr(operators, "_pair_scan", _refuse_scan)


def _assert_envelope_matches_scan(F, grid, tols):
    pts = _points_in(F, grid)
    worst = _SCAN(F, pts)
    for tol in tols:
        got = equilibrium_bruteforce(F, grid, tol=tol)
        assert got.tobytes() == pts[worst >= -tol].tobytes(), (grid.step, tol)
    return worst


@pytest.mark.parametrize("name", [inst.name for inst in corpus()])
def test_envelope_solution_sets_equal_pair_scan_on_corpus(refuse_scan, name):
    inst = get_problem(name)
    FG = sum_bifunctions(inst.F, inst.G)
    for step in _SOLUTION_SET_STEPS[inst.set.dimension]:
        grid = GridSpec(*zip(*inst.grid_bounds), step)
        worst = _assert_envelope_matches_scan(FG, grid, (step**2, 10.0 * step))
        if inst.set.dimension == 1:
            # a 1-D pair value is one product in both routes, so the minima
            # are the same floats once the window holds the scan's minimizer,
            # which rounding can move off the searched index
            envelope = operators._envelope(FG, _points_in(FG, grid), *operators._axis_tables(FG, grid))
            assert envelope.tobytes() == worst.tobytes(), step


def test_envelope_restricts_each_axis_to_a_box_narrower_than_the_grid(refuse_scan):
    rng = np.random.default_rng(17)
    for d in (1, 2, 2, 2):
        C = Box(rng.uniform(-0.8, -0.2, d), rng.uniform(0.1, 0.7, d))
        F = sum_bifunctions(
            sum_bifunctions(
                operator_bifunction(C, rng.normal(size=(d, d)), rng.normal(size=d)),
                function_difference(C, Quadratic(np.diag(rng.uniform(0.0, 2.0, d)), rng.normal(size=d))),
            ),
            sum_bifunctions(
                function_difference(C, WeightedL1(rng.uniform(0.0, 1.5, d))),
                function_difference(C, AffineFunction(rng.normal(size=d), 0.3)),
            ),
        )
        grid = GridSpec([-1.0] * d, [1.0] * d, 0.02)
        assert 0 < _points_in(F, grid).shape[0] < grid.points().shape[0]
        worst = _assert_envelope_matches_scan(F, grid, (4e-4, 0.02, 0.2, 0.5))
        assert np.any(worst >= -0.5) and np.any(worst < -0.5)


def test_envelope_handles_l1_ties_where_the_axis_minimum_is_flat(refuse_scan):
    # g = c with |c_k| = w_k: y_k -> c_k y_k + w_k |y_k| vanishes on a whole
    # half axis, so every slope there equals -g_k
    for C in (Box([-1.0, -1.0], [1.0, 1.0]), WholeSpace(2)):
        w = np.array([0.7, 1.3])
        F = sum_bifunctions(
            operator_bifunction(C, np.zeros((2, 2)), [w[0], -w[1]]), function_difference(C, WeightedL1(w))
        )
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], 0.05)
        worst = _assert_envelope_matches_scan(F, grid, (0.0025, 0.5, 0.777))
        # the solutions are x_1 <= 0 <= x_2, where both terms vanish
        pts = grid.points()
        expected = (pts[:, 0] <= 1e-12) & (pts[:, 1] >= -1e-12)
        np.testing.assert_array_equal(worst >= -1e-12, expected)


def test_grid_solution_sets_take_the_envelope_or_the_scan(refuse_scan, monkeypatch):
    # the corpus forms at the benchmark's and the tier-1 suite's grids and
    # slacks, and the bridged box VI, take the envelope: with the scan
    # refused, they all still return
    box = Box([0.0, 0.0], [1.0, 1.0])
    bridged = bifunction_from_operator(affine_operator([[2.0, 1.0], [1.0, 2.0]], [-1.5, -2.5]), box)
    calls = [(bridged, GridSpec([0.0, 0.0], [1.0, 1.0], 1e-2), 2.5e-3)]
    for inst in corpus():
        FG = sum_bifunctions(inst.F, inst.G)
        for step in _SOLUTION_SET_STEPS[inst.set.dimension]:
            grid = GridSpec(*zip(*inst.grid_bounds), step)
            calls += [(FG, grid, tol) for tol in (step**2, 1e-6, 1e-4, 2.5e-3, None)]
    for F, grid, tol in calls:
        assert equilibrium_bruteforce(F, grid, tol=tol).shape[1] == grid.dimension

    # a ball, a non-diagonal Q and a generic part keep the scan and its
    # arrays, frozen from the scan before the envelope existed (dyadic
    # grid and data, so every pair value is exact)
    seen = []
    monkeypatch.setattr(operators, "_pair_scan", lambda F, pts: seen.append(F) or _SCAN(F, pts))
    box = Box([-1.0, -1.0], [1.0, 1.0])
    ball = operator_bifunction(Ball([0.0, 0.0], 1.0), [[1.0, 0.5], [-0.5, 1.0]], [-0.5, 0.25])
    nondiagonal = function_difference(box, Quadratic([[2.0, 1.0], [1.0, 2.0]], [-1.0, 0.5]))
    generic = _generic_fixture(box)
    grid = GridSpec([-1.0, -1.0], [1.0, 1.0], 0.25)
    cases = (
        (ball, 0.25, [[0.25, 0.0], [0.5, -0.25], [0.5, 0.0]]),
        (nondiagonal, 0.0625, [[0.5, -0.5], [0.75, -0.75], [0.75, -0.5], [1.0, -1.0], [1.0, -0.75], [1.0, -0.5]]),
        (generic, 0.25, [[0.0, 0.0], [0.25, -0.25], [0.25, 0.0], [0.25, 0.25], [0.5, -0.25], [0.5, 0.0]]),
    )
    for F, tol, expected in cases:
        assert equilibrium_bruteforce(F, grid, tol=tol).tobytes() == np.array(expected).tobytes()
    assert seen == [F for F, _, _ in cases]


def _generic_fixture(C):
    # a generic skew-plus-identity part on top of an offset and an L1 part
    B = np.array([[1.0, 0.5], [-0.5, 1.0]])[: C.dimension, : C.dimension]

    def batch(x, Y):
        return (Y - x) @ (B @ x)

    return sum_bifunctions(
        sum_bifunctions(
            operator_bifunction(C, np.zeros((C.dimension,) * 2), [-0.5, 0.25][: C.dimension]),
            function_difference(C, WeightedL1([0.25, 0.5][: C.dimension])),
        ),
        generic_bifunction(C, lambda x, y: float(batch(x, y[None, :])[0]), batch),
    )


def test_generic_grid_scans_stack_rows_like_one_point_calls():
    # the stacked eval_batch per row block returns the arrays of the former
    # one-grid-point-at-a-time loops, byte for byte
    F = _generic_fixture(Box([-1.0, -1.0], [1.0, 1.0]))
    grid = GridSpec([-1.0, -1.0], [1.0, 1.0], 0.1)
    pts = grid.points()
    for tol in (0.05, 0.1, 0.5):
        expected = np.array([x for x in pts if float(F.eval_batch(x, pts).min()) >= -tol]).reshape(-1, 2)
        assert len(expected) >= 1
        assert equilibrium_bruteforce(F, grid, tol=tol).tobytes() == expected.tobytes()

    F = _generic_fixture(Box([-1.0], [1.0]))
    X = GridSpec([-1.0], [1.0], 0.01).points()
    Y = X[::3]
    for delta in (1e-4, 1e-2):
        ulo, uhi = operators._admissible_intervals_1d(F, X, Y, delta)
        for i, x in enumerate(X):
            D = Y[:, 0] - x[0]
            V = F.eval_batch(x, Y) + delta
            np.divide(V, D, out=V, where=D != 0.0)
            assert uhi[i].tobytes() == np.min(V, where=D > 0.0, initial=np.inf).tobytes()
            assert ulo[i].tobytes() == np.max(V, where=D < 0.0, initial=-np.inf).tobytes()


def test_induced_operator_of_bridged_bifunction_is_sum_with_cone():
    # membership in the operator induced by the bridged bifunction agrees
    # with membership in B + N_C
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    q = np.array([-1.0, 0.5])
    C = Box([0.0, 0.0], [1.0, 1.0])
    B = affine_operator(M, q)
    FB = bifunction_from_operator(B, C)
    A_FB = operator_from_bifunction(FB)
    BN = operator_sum(B, normal_cone_operator(C))
    rng = np.random.default_rng(2)
    X = sample_points(C, 100, seed=3)
    checked = 0
    for x in X:
        image = BN.evaluate(x)
        base = M @ x + q
        for _ in range(3):
            u = base + rng.normal(scale=1.5, size=2)
            # only classify points a clear margin away from the image
            # boundary; the sampled route cannot resolve the boundary band
            gap = 1e-3
            inside = image.contains(u, -gap)
            outside = not image.contains(u, gap)
            if not (inside or outside):
                continue
            checked += 1
            assert A_FB.member(x, u, tol=1e-8) == inside, (x, u, inside)
    assert checked >= 100


def test_induced_bifunction_lower_bounds_source():
    # the bifunction bridged from the operator induced by G never exceeds G,
    # and the gap is strict off the diagonal of the quadratic example
    C = WholeSpace(1)
    G = function_difference(C, Quadratic([[2.0]], [0.0]))
    AG = operator_from_bifunction(G)
    F_AG = bifunction_from_operator(AG, C)
    rng = np.random.default_rng(4)
    for _ in range(200):
        x, y = rng.normal(scale=2.0, size=2)
        assert F_AG([x], [y]) <= G([x], [y]) + 1e-10
    for y in (0.5, -0.5, 1.0, -1.0):
        assert F_AG([0.0], [y]) == 0.0
        assert G([0.0], [y]) == pytest.approx(y * y)
        assert F_AG([0.0], [y]) < G([0.0], [y])


def test_set_distance():
    P = np.array([[0.0], [1.0]])
    Q = np.array([[0.0], [1.1]])
    assert set_distance(P, Q) == pytest.approx(0.1)
    assert set_distance(P, P) == 0.0
    assert set_distance(np.empty((0, 1)), P) == np.inf
    assert set_distance(np.empty((0, 1)), np.empty((0, 1))) == 0.0


def test_operator_sum_has_no_resolvent():
    S = operator_sum(affine_operator([[1.0]]), affine_operator([[2.0]]))
    with pytest.raises(ValueError, match="resolvent"):
        S.resolvent(1.0, [0.0])


def test_nested_operator_sum_adds_the_images_of_its_terms():
    from eqsplit.dr_solver import solve_operator_form

    C = Box([-1.0, -1.0], [1.0, 1.0])
    parts = [
        affine_operator([[2.0, 1.0], [-1.0, 0.5]], [0.3, -0.7]),
        subdifferential_operator(WeightedL1([0.5, 2.0])),
        normal_cone_operator(C),
    ]
    S = operator_sum(operator_sum(parts[0], parts[1]), parts[2])
    assert S.terms == tuple(P.terms[0] for P in parts)
    rng = np.random.default_rng(11)
    X = rng.uniform(-1.5, 1.5, size=(40, 2))
    X[::4, 0] = 0.0
    X[1::4] = [[1.0, -1.0]]
    images = [P.evaluate_batch(X) for P in parts]
    ok, lo, hi = S.evaluate_batch(X)
    np.testing.assert_array_equal(ok, images[0][0] & images[1][0] & images[2][0])
    assert lo.tobytes() == (images[0][1] + images[1][1] + images[2][1]).tobytes()
    assert hi.tobytes() == (images[0][2] + images[1][2] + images[2][2]).tobytes()
    with pytest.raises(ValueError, match="resolvent"):
        S.resolvent(1.0, [0.0, 0.0])
    with pytest.raises(ValueError, match="resolvent"):
        solve_operator_form(parts[0], S, [0.0, 0.0])


def test_operator_terms_are_checked_and_compared_by_identity():
    with pytest.raises(ValueError, match="at least one term"):
        MonotoneOperator(())
    with pytest.raises(ValueError, match="dimensions"):
        MonotoneOperator((zero_bifunction(WholeSpace(1)), zero_bifunction(WholeSpace(2))))
    F = zero_bifunction(Box([-1.0], [1.0]))
    A, B = operator_from_bifunction(F), operator_from_bifunction(F)
    assert A.terms == B.terms == (F,) and A != B and len({A, B}) == 2


def test_sampled_membership_draws_its_sample_once_on_first_use(monkeypatch):
    import eqsplit.operators

    draws = []
    real = eqsplit.operators.sample_points

    def counting_sample_points(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(eqsplit.operators, "sample_points", counting_sample_points)
    # a user function without curvature bounds is known by its values alone
    A = subdifferential_operator(_AbsValue())
    assert draws == []
    assert [A.member([0.0], [u]) for u in (0.5, 1.5, -1.0)] == [True, False, True]
    np.testing.assert_array_equal(A.member_batch([2.0], [[1.0], [0.5]]), [True, False])
    assert len(draws) == 1


def test_bridge_of_nonsmooth_operator_sum():
    # zeros of (subdifferential of |.|) + (x - 0.5) over [-1, 1] sit at the
    # kink; the bridged bifunction's solution set matches
    shift = affine_operator([[1.0]], [-0.5])
    sub = subdifferential_operator(WeightedL1([1.0]))
    A = operator_sum(sub, shift)
    C = Box([-1.0], [1.0])
    N = normal_cone_operator(C)
    grid = GridSpec([-1.0], [1.0], 1e-3)
    zeros = zeros_bruteforce(A, N, grid, tol=1e-3)
    assert len(zeros) >= 1
    assert set_distance(zeros, np.array([[0.0]])) <= 2e-3

    FA = bifunction_from_operator(A, C)
    assert FA.matrix is None and FA.functions == () and len(FA.oracles) == 1
    sols = equilibrium_bruteforce(FA, grid, tol=1e-6)
    assert len(sols) >= 1
    assert set_distance(sols, np.array([[0.0]])) <= 2e-3


def _ball_normal_cone_draws(n=2000, seed=0):
    # points x on the unit circle, near-normals u = x + t x_perp that tilt
    # off the outward normal by t in [0.005, 0.1], and true normals s x
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    X = np.column_stack([np.cos(theta), np.sin(theta)])
    perp = np.column_stack([-X[:, 1], X[:, 0]])
    t = rng.uniform(0.005, 0.1, n)
    s = rng.uniform(0.0, 5.0, n)
    return X, X + t[:, None] * perp, s[:, None] * X


def test_ball_normal_cone_membership_is_exact():
    from eqsplit.hilbert import Ball

    N = normal_cone_operator(Ball([0.0, 0.0], 1.0))
    X, near, normals = _ball_normal_cone_draws()
    # max_y <u, y - x> = ||u|| - 1 >= 1.25e-5 for every near-normal, far
    # above the 1e-8 tolerance; a 256-point sample of the disc accepted
    # 219 of these 2,000
    assert sum(N.member(x, u) for x, u in zip(X, near)) == 0
    assert all(N.member(x, u) for x, u in zip(X, normals))
    # interior points have the trivial cone, exterior points an empty one
    assert N.member([0.3, -0.2], [0.0, 0.0])
    assert not N.member([0.3, -0.2], [1e-6, 0.0])
    assert not N.member([1.1, 0.0], [1.0, 0.0])


@pytest.mark.parametrize("structure", ["operator", "quadratic", "sum"])
def test_ball_membership_of_single_valued_structure_is_exact(monkeypatch, structure):
    import eqsplit.hilbert
    import eqsplit.operators
    from eqsplit.bifunctions import Bifunction

    ball = Ball([0.0, 0.0], 1.0)
    M, c = np.array([[2.0, 1.0], [-1.0, 0.5]]), np.array([0.3, -0.7])
    Q, q = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])
    affine = operator_bifunction(ball, M, c)
    quadratic = function_difference(ball, Quadratic(Q, q))
    F, g = {
        "operator": (affine, lambda x: M @ x + c),
        "quadratic": (quadratic, lambda x: Q @ x + q),
        "sum": (sum_bifunctions(affine, quadratic), lambda x: (M + Q) @ x + (c + q)),
    }[structure]

    def forbidden(*args, **kwargs):
        raise AssertionError("exact membership must not evaluate F or sample C")

    monkeypatch.setattr(Bifunction, "__call__", forbidden)
    monkeypatch.setattr(Bifunction, "eval_batch", forbidden)
    monkeypatch.setattr(eqsplit.operators, "sample_points", forbidden)
    monkeypatch.setattr(eqsplit.hilbert, "sample_points", forbidden)
    A = operator_from_bifunction(F)
    # the image at x on the circle is g(x) plus the cone {s x : s >= 0}
    X, near, normals = _ball_normal_cone_draws()
    G = np.array([g(x) for x in X])
    assert sum(A.member(x, gx + u) for x, gx, u in zip(X, G, near)) == 0
    assert all(A.member(x, gx + u) for x, gx, u in zip(X, G, normals))
    assert not any(A.member_batch(x, [gx + u])[0] for x, gx, u in zip(X[:200], G, near))
    x = np.array([0.3, -0.2])
    assert A.member(x, g(x)) and not A.member(x, g(x) + [1e-6, 0.0])
    assert not A.member([1.1, 0.0], g(np.array([1.1, 0.0])))


def test_halfspace_and_intersection_cones_reject_non_normals():
    # x interior, or on the boundary 50 to 200 units away from the origin,
    # where the 256-point sample of C lies on the wrong side to see a tilt
    n, b = np.array([1.0, 1.0]), 0.5
    H = Halfspace(n, b)
    along = np.array([1.0, -1.0]) / np.sqrt(2.0)
    foot = b * n / (n @ n)
    cases = [([0.0, -10.0], [0.0, -1.0]), ([0.0, -10.0], [0.0, 0.0])]
    for t in (50.0, 200.0, -50.0, -200.0):
        x = foot + t * along
        for s in (0.0, 0.5, 3.0):
            cases.append((x, s * n))
            cases += [(x, s * n + np.sign(t) * e * along) for e in (1e-3, 0.1, 1.0)]
    # the second halfspace is inactive at every x above, so the cone is H's
    for C in (H, IntersectionSet((H, Halfspace([1.0, -1.0], 300.0)))):
        N = normal_cone_operator(C)
        accepted = 0
        for x, u in cases:
            expected = halfspace_support_gap(n, b, x, u) <= 1e-8
            assert N.member(x, u) == expected, (C.kind, x, u)
            accepted += expected
        assert accepted == 13, C.kind  # u = 0 and the twelve s * n
    # the simplex: x on an edge and at a vertex
    N = normal_cone_operator(Simplex(3))
    for x, u in [
        ([0.5, 0.5, 0.0], [1.0, 1.0, 0.0]),
        ([0.5, 0.5, 0.0], [1.0, 1.0 + 1e-3, 0.0]),
        ([0.5, 0.5, 0.0], [0.0, 0.0, -1.0]),
        ([1.0, 0.0, 0.0], [2.0, 1.0, 1.0]),
        ([1.0, 0.0, 0.0], [1.0, 1.01, 0.0]),
        ([0.2, 0.3, 0.5], [1.0, 1.0, 1.0]),
        ([0.2, 0.3, 0.5], [1.0, 1.0, 1.001]),
    ]:
        assert N.member(x, u) == (simplex_support_gap(x, u) <= 1e-8), (x, u)
