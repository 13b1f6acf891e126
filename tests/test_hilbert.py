"""Space primitives: inner products, projections, and their contract properties."""

import numpy as np
import pytest

from eqsplit.hilbert import (
    AffineSubspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    IntersectionSet,
    Simplex,
    WholeSpace,
    as_vector,
    inner,
    norm,
    project_box,
    project_simplex,
    sample_points,
    soft_threshold,
)

from oracles import sample_ball, sample_box, sample_simplex, simplex_projection_grid


def test_inner_examples():
    assert inner([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert inner([2.0, 3.0], [2.0, 3.0]) == 13.0
    assert inner([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        inner([1.0, 2.0], [1.0])


def test_inner_symmetric_bilinear():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = rng.normal(size=(3, 4))
        s, t = rng.normal(size=2)
        assert inner(a, b) == pytest.approx(inner(b, a), abs=1e-14)
        assert inner(s * a + t * b, c) == pytest.approx(s * inner(a, c) + t * inner(b, c), abs=1e-12)


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([np.inf])


def test_project_box_examples():
    assert project_box([3.0], [-1.0], [1.0])[0] == 1.0
    assert project_box([0.5], [-1.0], [1.0])[0] == 0.5
    np.testing.assert_allclose(
        project_box([-2.0, 0.3], [-1.0, -1.0], [1.0, 1.0]), [-1.0, 0.3]
    )


def test_box_empty_raises_at_construction():
    with pytest.raises(ValueError, match="empty box"):
        Box([1.0], [0.0])


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_ball_needs_a_finite_positive_radius(radius):
    # a NaN radius would project to NaN, and an infinite one would make
    # the ball the whole space
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        Ball(np.zeros(2), radius)


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
def test_halfspace_needs_a_finite_offset(offset):
    # -inf is the empty set and +inf the whole space; NaN projected to NaN
    with pytest.raises(ValueError, match="halfspace offset must be finite"):
        Halfspace([1.0, 0.0], offset)


def test_project_simplex_examples():
    np.testing.assert_allclose(project_simplex([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(project_simplex([0.5, 0.5]), [0.5, 0.5], atol=1e-15)
    # expected value from the dense grid oracle (step 1e-3)
    oracle = simplex_projection_grid([2.0, 0.0], step=1e-3)
    np.testing.assert_allclose(oracle, [1.0, 0.0], atol=2e-3)
    np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-12)


def test_project_simplex_feasible_output():
    rng = np.random.default_rng(1)
    for _ in range(200):
        y = project_simplex(rng.normal(scale=3.0, size=rng.integers(1, 6)))
        assert np.all(y >= 0)
        assert abs(y.sum() - 1.0) <= 1e-12


def _test_sets():
    return [
        WholeSpace(2),
        Box([-1.0, -1.0], [1.0, 1.0]),
        Ball([0.5, -0.5], 1.5),
        Halfspace([1.0, 2.0], 1.0),
        Simplex(3),
        AffineSubspace([[1.0, 1.0, 0.0]], [1.0]),
        IntersectionSet((Box([-1.0, -1.0], [1.0, 1.0]), Halfspace([1.0, 1.0], 0.5))),
    ]


@pytest.mark.parametrize("C", _test_sets(), ids=lambda c: c.kind)
def test_projection_idempotent(C):
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(scale=3.0, size=C.dimension)
        p = C.project(x)
        assert norm(C.project(p) - p) <= 1e-12


@pytest.mark.parametrize("C", _test_sets(), ids=lambda c: c.kind)
def test_projection_lands_in_set(C):
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.normal(scale=3.0, size=C.dimension)
        assert C.contains(C.project(x), 1e-10)


@pytest.mark.parametrize("C", _test_sets(), ids=lambda c: c.kind)
def test_projection_firmly_nonexpansive(C):
    # the intersection projection is iterative, so it gets the slack its
    # approximate flag documents
    slack = 1e-8 if C.approximate else 1e-9
    rng = np.random.default_rng(4)
    X = rng.normal(scale=2.0, size=(1000, C.dimension))
    Y = rng.normal(scale=2.0, size=(1000, C.dimension))
    for x, y in zip(X, Y):
        px, py = C.project(x), C.project(y)
        lhs = norm(px - py) ** 2
        rhs = norm(x - y) ** 2 - norm((x - px) - (y - py)) ** 2
        assert lhs <= rhs + slack


def _member_samples(C, rng, n=100):
    if isinstance(C, Box):
        return sample_box(rng, C.lo, C.hi, n)
    if isinstance(C, Ball):
        return sample_ball(rng, C.center, C.radius, n)
    if isinstance(C, Simplex):
        return sample_simplex(rng, C.dimension, n)
    if isinstance(C, WholeSpace):
        return rng.normal(scale=3.0, size=(n, C.dimension))
    if isinstance(C, Halfspace):
        pts = rng.normal(scale=3.0, size=(4 * n, C.dimension))
        keep = pts @ C.normal <= C.offset
        return pts[keep][:n]
    if isinstance(C, AffineSubspace):
        # particular solution plus null-space directions
        x_p = np.linalg.pinv(C.A) @ C.b
        _, _, vt = np.linalg.svd(C.A)
        null = vt[np.linalg.matrix_rank(C.A):]
        coef = rng.normal(scale=3.0, size=(n, null.shape[0]))
        return x_p + coef @ null
    if isinstance(C, IntersectionSet):
        box = C.members[0]
        pts = sample_box(rng, box.lo, box.hi, 20 * n)
        keep = np.array([C.contains(p, 1e-12) for p in pts])
        return pts[keep][:n]
    raise NotImplementedError


@pytest.mark.parametrize("C", _test_sets(), ids=lambda c: c.kind)
def test_projection_optimality_witness(C):
    rng = np.random.default_rng(5)
    members = _member_samples(C, rng)
    assert len(members) >= 50
    for _ in range(20):
        x = rng.normal(scale=3.0, size=C.dimension)
        d_proj = norm(x - C.project(x))
        for m in members:
            assert d_proj <= norm(x - np.asarray(m)) + 1e-9


def test_halfspace_projection_formula():
    C = Halfspace([3.0, 4.0], 2.0)
    x = np.array([3.0, 4.0])
    p = C.project(x)
    # residual (25 - 2)/25 along the unit normal
    np.testing.assert_allclose(p, x - (23.0 / 25.0) * np.array([3.0, 4.0]), atol=1e-14)
    assert C.contains(p, 1e-10)


def test_affine_subspace_projection():
    C = AffineSubspace([[1.0, 1.0]], [1.0])
    p = C.project([2.0, 2.0])
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)


def test_intersection_flagged_approximate():
    C = IntersectionSet((Box([-1.0], [1.0]), Halfspace([1.0], 0.0)))
    assert C.approximate
    # projection of 2 onto [-1, 1] intersect (-inf, 0] is 0
    assert abs(C.project([2.0])[0]) <= 1e-9


def test_sample_points_deterministic_and_feasible():
    C = Box([0.0, 0.0], [1.0, 1.0])
    a = sample_points(C, 64, seed=7)
    b = sample_points(C, 64, seed=7)
    np.testing.assert_array_equal(a, b)
    assert all(C.contains(p, 1e-12) for p in a)


_ALL_KINDS = [
    WholeSpace(3),
    Box([-1.0, 0.5, 0.0], [1.0, 0.5, 2.0]),  # middle coordinate pinned
    Ball([0.5, -0.5, 1.0], 1.5),
    Halfspace([1.0, -2.0, 0.5], 0.3),
    Simplex(3),
    AffineSubspace([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], [1.0, 0.5]),
    IntersectionSet((Box([-1.0] * 3, [1.0] * 3), Halfspace([1.0, 1.0, 1.0], 0.5))),
]


@pytest.mark.parametrize("C", _ALL_KINDS, ids=lambda C: C.kind)
def test_sample_points_equals_rowwise_projection(C):
    # whole-array projection must keep the bits of projecting each draw
    raw = np.random.default_rng(11).normal(0.0, 2.0, size=(128, C.dimension))
    expected = np.array([C.project(r) for r in raw])
    np.testing.assert_array_equal(sample_points(C, 128, seed=11), expected)


@pytest.mark.parametrize("C", _ALL_KINDS, ids=lambda C: C.kind)
def test_contains_batch_equals_rowwise_contains(C):
    # points inside, on the boundary (projections of far points), and moved
    # off it along the outward normal by half and by twice the tolerance
    tol = 1e-6
    rng = np.random.default_rng(12)
    far = rng.normal(0.0, 6.0, size=(40, C.dimension))
    edge = np.array([C.project(p) for p in far])
    out = far - edge
    length = np.linalg.norm(out, axis=1, keepdims=True)
    normal = np.divide(out, length, out=np.zeros_like(out), where=length > 0.0)
    P = np.vstack([sample_points(C, 40, seed=13), edge, edge + 0.5 * tol * normal,
                   edge + 2.0 * tol * normal, far])
    got = C.contains_batch(P, tol)
    assert got.dtype == bool and got.shape == (P.shape[0],)
    np.testing.assert_array_equal(got, [C.contains(p, tol) for p in P])
    if C.kind != "whole-space":
        assert got[:80].all() and not got[-40:][length[:, 0] > 1.0].any()
    for bad in ([[0.0, np.nan, 0.0]], [[np.inf, 0.0, 0.0]], [[0.0, 0.0]], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            C.contains_batch(bad, tol)


@pytest.mark.parametrize("C", _ALL_KINDS, ids=lambda C: C.kind)
def test_project_validates_once_and_runs_the_kernel(C):
    # project is as_vector plus the kind's unchecked kernel: the same bits,
    # a new array, and a ValueError for anything that is not a finite
    # vector of the set's dimension
    for x in np.random.default_rng(14).normal(0.0, 3.0, size=(20, C.dimension)):
        p = C.project(x)
        np.testing.assert_array_equal(p, C._project(x.copy()))
        assert not np.shares_memory(p, x)
    for bad in ([0.0, np.nan, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0], [[0.0, 0.0, 0.0]]):
        with pytest.raises(ValueError):
            C.project(bad)


def test_norm_is_bit_identical_to_numpy():
    rng = np.random.default_rng(15)
    for size in range(1, 201):
        for scale in (1e-150, 1.0, 1e150):
            v = scale * rng.normal(size=size)
            assert norm(v) == float(np.linalg.norm(v)), (size, scale)
    assert norm(np.ones((3, 4))) == float(np.linalg.norm(np.ones((3, 4))))


def test_axis_minimizers_of_a_box_hold_for_every_sign_of_the_curvature():
    # a_i < 0 makes an axis problem concave on each side of 0; every entry
    # must still be no worse than a dense scan of its interval
    rng = np.random.default_rng(16)
    d = 6
    C = Box(-rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d))
    a = np.array([-1.5, -1e-3, 0.0, 0.0, 1e-3, 2.0])
    w = np.array([0.0, 0.5, 0.0, 1.0, 0.3, 0.7])
    b = rng.normal(0.0, 2.0, size=(50, d))
    T = C._axis_min(a, b, w)
    assert T.shape == b.shape and C.contains_batch(T, 0.0).all()
    for i in range(d):
        t = np.concatenate([np.linspace(C.lo[i], C.hi[i], 20001), [0.0]])
        t = t[(t >= C.lo[i]) & (t <= C.hi[i])]
        scan = (0.5 * a[i] * t[None, :] ** 2 + b[:, i:i + 1] * t[None, :] + w[i] * np.abs(t[None, :])).min(axis=1)
        got = 0.5 * a[i] * T[:, i] ** 2 + b[:, i] * T[:, i] + w[i] * np.abs(T[:, i])
        assert np.all(got <= scan + 1e-12), i


def test_axis_minimizers_of_the_whole_space_need_positive_curvature():
    C = WholeSpace(3)
    a, w = np.array([1.0, 2.0, 0.5]), np.array([0.5, 0.0, 1.0])
    b = np.array([[2.0, -1.0, 0.25], [-0.5, 4.0, -3.0]])
    # soft(-b, w) / a, each axis's stationary point or the kink
    np.testing.assert_array_equal(C._axis_min(a, b, w), [[-1.5, 0.5, 0.0], [0.0, -2.0, 4.0]])
    for flat in ([1.0, 0.0, 0.5], [1.0, -1e-12, 0.5]):
        assert C._axis_min(np.array(flat), b, w) is None
    # the sets with no per-axis closed form say so
    for S in (Ball(np.zeros(3), 1.0), Halfspace(np.ones(3), 1.0), Simplex(3)):
        assert S._axis_min(a, b, w) is None


def test_shrinkage_on_edge_inputs_has_the_values_of_the_sign_form():
    # x minus x clipped to [-t, t] against sign(x) * max(|x| - t, 0), by
    # value, on +-0.0, +-t exactly, +-inf and NaN, with t = 0 among the
    # thresholds; a centred ball projects the same shrinkage
    entries = []
    for t in (0.0, 0.5, 2.0):
        entries += [(x, t) for x in (0.0, -0.0, t, -t, np.inf, -np.inf, np.nan, 0.3, -0.3, 3.0, -3.0)]
    x_all, t = np.array(entries).T
    finite = np.isfinite(x_all)
    d = t.size
    lo, hi = np.full(d, -1.0), np.full(d, 1.0)
    box, ball = Box(lo, hi), Ball(np.zeros(d), 1.0)
    for x in (x_all, np.where(finite, x_all, 1.0)):
        sign_form = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
        np.testing.assert_array_equal(soft_threshold(x, t), sign_form)
        np.testing.assert_array_equal(WholeSpace(d)._l1_prox(t)(x), sign_form)
        np.testing.assert_array_equal(box._l1_prox(t)(x), np.minimum(np.maximum(sign_form, lo), hi))
        np.testing.assert_array_equal(ball._l1_prox(t)(x), ball._project(sign_form))


def _clamp_ref(x, lo, hi):
    """The clamp before numpy's clip ufunc took it: min(max(x, lo), hi)."""
    return np.minimum(np.maximum(x, lo), hi)


def _axis_min_ref(C, a, b, w):
    """``Box._axis_min`` in the min-of-max expressions it had before."""
    lo, hi = C.lo, C.hi
    x = -b
    soft = x - _clamp_ref(x, -w, w)
    run = np.where(soft > 0.0, hi, np.where(soft < 0.0, lo, 0.0))
    T = _clamp_ref(np.divide(soft, a, out=run, where=a > 0.0), lo, hi)
    concave = a < 0.0
    if concave.any():
        value = lambda t: 0.5 * a * t * t + b * t + w * np.abs(t)  # noqa: E731
        ends = np.broadcast_to(lo, T.shape)
        for c in (hi, _clamp_ref(0.0, lo, hi)):
            ends = np.where(value(c) < value(ends), c, ends)
        T = np.where(concave, ends, T)
    return T


def _signed_edges(rng, d, picks):
    """A seeded (d,) array whose entries are drawn from ``picks`` and from
    normals, so that every kind of entry shows at any d."""
    x = 2.0 * rng.normal(size=d)
    at = rng.random(d) < 0.7
    x[at] = rng.choice(np.array(picks), size=at.sum())
    return x


@pytest.mark.parametrize("d", [1, 2, 7, 40])
def test_clip_clamps_have_the_bits_of_min_of_max(d):
    # every clamp is one call of numpy's clip ufunc; each closure and
    # kernel must give, byte for byte, min(max(x, lo), hi) as it did, on
    # +-0.0 entries, thresholds t_i = 0, pinned box sides (lo_i == hi_i,
    # at +0.0, at -0.0 and 0.0, and away from 0) and entries exactly on a
    # bound or a threshold
    rng = np.random.default_rng(900 + d)
    for _ in range(40):
        t = np.abs(_signed_edges(rng, d, [0.0, -0.0, 0.5]))
        t[rng.random(d) < 0.3] = 0.0
        lo = _signed_edges(rng, d, [-1.0, 0.0, -0.0, 0.25])
        hi = np.maximum(lo, _signed_edges(rng, d, [1.0, 0.0, 0.25]))
        pin = rng.random(d) < 0.3
        hi[pin] = lo[pin]
        zeros = rng.random(d) < 0.2
        lo[zeros], hi[zeros] = -0.0, 0.0
        box = Box(lo, hi)
        x = _signed_edges(rng, d, [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25, -0.25])
        shrunk = x - _clamp_ref(x, -t, t)
        assert soft_threshold(x, t).tobytes() == shrunk.tobytes()
        assert WholeSpace(d)._l1_prox(t)(x).tobytes() == shrunk.tobytes()
        assert box._l1_prox(t)(x).tobytes() == _clamp_ref(shrunk, lo, hi).tobytes()
        assert box._project(x).tobytes() == _clamp_ref(x, lo, hi).tobytes()
        assert project_box(x, lo, hi).tobytes() == _clamp_ref(x, lo, hi).tobytes()


@pytest.mark.parametrize("d", [1, 2, 7])
def test_batched_clip_clamps_match_min_of_max(d):
    # the row forms, _project_rows and _axis_min, clip a batch against (d,)
    # bounds.  At d >= 2 they keep every bit; at d = 1 numpy runs clip's
    # loop for a constant bound, where only the sign of a zero entry
    # against a zero bound may differ, and the axis values the exact gap
    # sums from those entries keep every bit.  The whole space's infinite
    # bounds leave every row as it is
    rng = np.random.default_rng(950 + d)
    lo = _signed_edges(rng, d, [-1.0, 0.0, 0.25])
    hi = np.maximum(lo, _signed_edges(rng, d, [1.0, 0.0, 0.25]))
    box = Box(lo, hi)
    P = np.array([_signed_edges(rng, d, [0.0, -0.0, 1.0, -1.0, 0.25]) for _ in range(30)])
    a = _signed_edges(rng, d, [1.0, 0.0, -1.0, 2.0])
    w = np.abs(_signed_edges(rng, d, [0.0, 0.5]))
    b = np.array([_signed_edges(rng, d, [0.0, -0.0, 0.5, -0.5, 2.0]) for _ in range(30)])
    rows, T = box._project_rows(P), box._axis_min(a, b, w)
    rows_ref, T_ref = _clamp_ref(P, lo, hi), _axis_min_ref(box, a, b, w)
    np.testing.assert_array_equal(rows, rows_ref)
    np.testing.assert_array_equal(T, T_ref)
    if d > 1:
        assert rows.tobytes() == rows_ref.tobytes()
        assert T.tobytes() == T_ref.tobytes()
    value = lambda t: 0.5 * a * t * t + b * t + w * np.abs(t)  # noqa: E731
    assert value(T).tobytes() == value(T_ref).tobytes()
    whole = WholeSpace(d)
    assert ConvexSet._project_rows(whole, P).tobytes() == P.tobytes()
    assert ConvexSet._project_rows(whole, P).tobytes() == _clamp_ref(P, *whole._bounds).tobytes()
