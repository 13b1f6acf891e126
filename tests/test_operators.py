"""Operator bridge: induced operators, induced bifunctions, and grid oracles."""

import numpy as np
import pytest

from eqsplit.bifunctions import (
    Quadratic,
    WeightedL1,
    function_difference,
    operator_bifunction,
    sum_bifunctions,
    zero_bifunction,
)
from eqsplit.hilbert import Box, WholeSpace, sample_points
from eqsplit.operators import (
    GridSpec,
    IntervalImage,
    MonotoneOperator,
    affine_operator,
    bifunction_from_operator,
    equilibrium_bruteforce,
    normal_cone_image,
    normal_cone_operator,
    operator_from_bifunction,
    operator_sum,
    set_distance,
    subdifferential_operator,
    zeros_bruteforce,
)
from eqsplit.resolvents import ResolventOracle, partial_second, resolve

from oracles import box_vi_active_set


# ---------------------------------------------------------------------------
# interval images and normal cones
# ---------------------------------------------------------------------------

def test_interval_image_basics():
    im = IntervalImage([-1.0, 0.0], [2.0, 0.0])
    assert im.contains([0.0, 0.0])
    assert not im.contains([0.0, 0.1])
    assert im.contains([0.0, 0.1], tol=0.2)
    assert im.support([1.0, 1.0]) == pytest.approx(2.0)
    assert im.support([-1.0, 1.0]) == pytest.approx(1.0)
    neg = im.negate()
    assert neg.lo[0] == -2.0 and neg.hi[0] == 1.0


def test_interval_image_unbounded_support():
    im = IntervalImage([0.0], [np.inf])
    assert im.support([1.0]) == np.inf
    assert im.support([-1.0]) == 0.0
    assert im.support([0.0]) == 0.0


def test_normal_cone_image_box():
    C = Box([-1.0, -1.0], [1.0, 1.0])
    interior = normal_cone_image(C, [0.0, 0.5])
    np.testing.assert_array_equal(interior.lo, [0.0, 0.0])
    np.testing.assert_array_equal(interior.hi, [0.0, 0.0])
    corner = normal_cone_image(C, [1.0, -1.0])
    assert corner.hi[0] == np.inf and corner.lo[0] == 0.0
    assert corner.lo[1] == -np.inf and corner.hi[1] == 0.0
    assert normal_cone_image(C, [2.0, 0.0]) is None


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

    # y^2 - x^2 at x = -0.4312 has the image {-0.8624}; the sampled test
    # alone accepts u = -0.8540, the witness search rejects it
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


# ---------------------------------------------------------------------------
# bifunctions induced by operators
# ---------------------------------------------------------------------------

def test_bifunction_from_affine_operator():
    # A x = 2x gives (x, y) -> 2x(y - x) = 2xy - 2x^2
    C = WholeSpace(1)
    A = affine_operator([[2.0]])
    F = bifunction_from_operator(A, C)
    assert F.family == "operator-induced"
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
    A = MonotoneOperator(dimension=1, domain_set=C, resolvent_factory=lambda g: (lambda x: x))
    with pytest.raises(ValueError, match="interval evaluation"):
        bifunction_from_operator(A, C)


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


def test_zeros_ugrid_route():
    # the discrete multiplier-grid fallback localizes the root at its own
    # resolution: sampled membership of a quadratic-induced operator fattens
    # the admissible band to about sqrt(tol)
    from eqsplit.problems import get_problem

    inst = get_problem("quadratic-1d")
    AF = operator_from_bifunction(inst.F)
    AG = operator_from_bifunction(inst.G)
    grid = GridSpec([-1.0], [0.0], 1e-2)
    zeros = zeros_bruteforce(
        AF, AG, grid, u_bounds=(-4.0, 4.0), u_step=1e-2, tol=1e-2, method="ugrid"
    )
    assert len(zeros) >= 1
    assert set_distance(zeros, np.array([[-0.5]])) <= 0.15
    assert all(abs(z[0] + 0.5) <= 0.15 for z in zeros)


def test_operator_sum_has_no_resolvent():
    S = operator_sum(affine_operator([[1.0]]), affine_operator([[2.0]]))
    with pytest.raises(ValueError, match="resolvent"):
        S.resolvent(1.0, [0.0])


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
    assert FA.family == "generic"
    sols = equilibrium_bruteforce(FA, grid, tol=1e-6)
    assert len(sols) >= 1
    assert set_distance(sols, np.array([[0.0]])) <= 2e-3
