"""Independent oracles for the tests.

Everything here deliberately avoids the library's computation paths:
dense grid scans with golden-section refinement, hand-enumerated KKT
systems, and rejection sampling.  Expected values in the tests are frozen
from these oracles, never from the code under test.
"""

import itertools

import numpy as np

from eqsplit.bifunctions import generic_bifunction

_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def as_generic(F):
    """F behind a bare evaluation oracle: the same values with no structure
    to read, so its resolvent takes the inner iterative route."""
    return generic_bifunction(F.set, F, F.eval_batch)


def golden_min(g, lo, hi, tol=1e-12, max_iter=200):
    """Golden-section minimization of a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - _PHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _PHI * (b - a)
            gd = g(d)
    return 0.5 * (a + b)


def grid_golden_min(g, lo, hi, coarse=2001, tol=1e-12):
    """Coarse grid scan, golden-section refinement, then a parabolic polish.

    Golden section alone resolves smooth minima only to about sqrt(eps);
    a three-point parabola fit recovers full precision there, while the
    value comparison keeps the golden iterate whenever the fit misbehaves
    (kinks, boundary minima).
    """
    xs = np.linspace(lo, hi, coarse)
    vals = np.array([g(x) for x in xs])
    k = int(vals.argmin())
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, coarse - 1)]
    m = golden_min(g, a, b, tol=tol)
    h = 1e-4 * max(1.0, abs(m))
    gm, gp, gq = g(m), g(m + h), g(m - h)
    denom = gp - 2.0 * gm + gq
    if denom > 0:
        v = m - 0.5 * h * (gp - gq) / denom
        v = min(max(v, lo), hi)
        # accept the vertex unless it is measurably worse (near a smooth
        # minimum the two values differ only by float noise)
        if abs(v - m) <= 2.0 * h and g(v) <= gm + 1e-10 * (1.0 + abs(gm)):
            return v
    return m


def simplex_projection_grid(x, step=1e-3):
    """Dense grid minimization of ||y - x|| over the probability simplex.

    Supports dimension 2 and 3 (enough for the tests).
    """
    x = np.asarray(x, dtype=float)
    ts = np.arange(0.0, 1.0 + 0.5 * step, step)
    best, best_val = None, np.inf
    if x.size == 2:
        for t in ts:
            y = np.array([t, 1.0 - t])
            v = np.sum((y - x) ** 2)
            if v < best_val:
                best, best_val = y, v
        return best
    if x.size == 3:
        for t1 in ts:
            for t2 in np.arange(0.0, 1.0 - t1 + 0.5 * step, step):
                y = np.array([t1, t2, 1.0 - t1 - t2])
                v = np.sum((y - x) ** 2)
                if v < best_val:
                    best, best_val = y, v
        return best
    raise ValueError("grid oracle supports dimension 2 or 3 only")


def box_vi_active_set(M, q, lo, hi, tol=1e-9):
    """All solutions of the box variational inequality by face enumeration.

    Finds z in [lo, hi] with (M z + q)_i = 0 on free coordinates,
    >= 0 where the lower bound is active and <= 0 where the upper bound is
    active, by trying all 3^d activity patterns.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = q.size
    solutions = []
    for pattern in itertools.product(("free", "lo", "hi"), repeat=d):
        z = np.empty(d)
        free = [i for i, p in enumerate(pattern) if p == "free"]
        for i, p in enumerate(pattern):
            if p == "lo":
                z[i] = lo[i]
            elif p == "hi":
                z[i] = hi[i]
        if free:
            Mff = M[np.ix_(free, free)]
            fixed = [i for i in range(d) if i not in free]
            rhs = -q[free]
            if fixed:
                rhs = rhs - M[np.ix_(free, fixed)] @ z[fixed]
            try:
                z[free] = np.linalg.solve(Mff, rhs)
            except np.linalg.LinAlgError:
                continue
        g = M @ z + q
        ok = np.all(z >= lo - tol) and np.all(z <= hi + tol)
        for i, p in enumerate(pattern):
            if p == "free":
                ok &= abs(g[i]) <= tol
            elif p == "lo":
                ok &= g[i] >= -tol
            else:
                ok &= g[i] <= tol
        if ok and not any(np.allclose(z, s, atol=10 * tol) for s in solutions):
            solutions.append(z.copy())
    return solutions


def box_vi_projected(M, q, lo, hi, tol=1e-14, max_iter=1_000_000):
    """Solution of a strongly monotone box variational inequality.

    Finds z in [lo, hi] with <M z + q, y - z> >= 0 for all y in the box by
    the projected fixed-point iteration z <- clip(z - t (M z + q)) with
    t = mu / L^2, where mu > 0 is the smallest eigenvalue of sym(M) and
    L = ||M||_2.  The map contracts with factor rho = sqrt(1 - mu^2 / L^2),
    so ||z_k - z*|| <= rho / (1 - rho) ||z_k - z_{k-1}||; the iteration
    stops once that bound falls below tol * (1 + ||z||).
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mu = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
    if mu <= 0.0:
        raise ValueError("the projected oracle needs a strongly monotone M")
    L = float(np.linalg.norm(M, 2))
    t = mu / (L * L)
    rho = np.sqrt(max(1.0 - (mu / L) ** 2, 0.0))
    z = np.clip(np.zeros_like(q), lo, hi)
    for _ in range(max_iter):
        z_new = np.clip(z - t * (M @ z + q), lo, hi)
        step = np.linalg.norm(z_new - z)
        z = z_new
        if rho / (1.0 - rho) * step <= tol * (1.0 + np.linalg.norm(z)):
            return z
    raise RuntimeError("projected oracle did not settle")


def prox_oracle_1d(f_scalar, gamma, x, lo, hi, coarse=4001):
    """argmin of gamma f(y) + (y - x)^2 / 2 over [lo, hi] by grid + golden."""
    return grid_golden_min(lambda y: gamma * f_scalar(y) + 0.5 * (y - x) ** 2, lo, hi, coarse)


def sample_box(rng, lo, hi, n):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return lo + (hi - lo) * rng.random((n, lo.size))


def sample_ball(rng, center, radius, n):
    center = np.asarray(center, dtype=float)
    d = center.size
    g = rng.normal(size=(n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / d)
    return center + g * r[:, None]


def sample_simplex(rng, dim, n):
    return rng.dirichlet(np.ones(dim), size=n)


# ---------------------------------------------------------------------------
# grid zero scans, one grid point at a time
# ---------------------------------------------------------------------------
#
# The per-point loops below read only the stored normal form of a bifunction
# (matrix and offset, the convex functions' coefficients, the set's kind and
# bounds) and redo the arithmetic in numpy.  They cover forms with no generic
# part whose functions are quadratic, weighted L1 or affine, over a box or
# the whole space.

def _in_set(C, x, tol=1e-9):
    if C.kind == "whole-space":
        return True
    return bool(np.all(x >= C.lo - tol) and np.all(x <= C.hi + tol))


def _function_value(f, y):
    if hasattr(f, "weights"):
        return float(np.sum(f.weights * np.abs(y)))
    if hasattr(f, "Q"):
        return float(0.5 * y @ f.Q @ y + f.q @ y)
    return float(f.a @ y + f.b)


def _function_values(f, Y):
    if hasattr(f, "weights"):
        return np.abs(Y) @ f.weights
    if hasattr(f, "Q"):
        return 0.5 * np.sum((Y @ f.Q) * Y, axis=1) + Y @ f.q
    return Y @ f.a + f.b


def _structural_interval(F, x):
    if F.oracles:
        raise ValueError("no interval image for a bifunction with a generic part")
    lo = np.zeros(x.size) if F.matrix is None else F.matrix @ x + F.offset
    hi = lo.copy()
    for f in F.functions:
        if hasattr(f, "weights"):
            kink = np.abs(x) <= 1e-9
            s = np.sign(x)
            lo = lo + np.where(kink, -f.weights, f.weights * s)
            hi = hi + np.where(kink, f.weights, f.weights * s)
        else:
            v = f.Q @ x + f.q if hasattr(f, "Q") else f.a
            lo, hi = lo + v, hi + v
    return lo, hi


def induced_interval(F, x, tol=1e-9):
    """(lo, hi) of the operator induced by F at x: the structural image plus
    the normal cone of F.set, built one coordinate at a time; None when x
    is outside the set."""
    C = F.set
    if not _in_set(C, x, tol):
        return None
    cone_lo = np.zeros(x.size)
    cone_hi = np.zeros(x.size)
    if C.kind == "box":
        for i in range(x.size):
            cone_lo[i] = -np.inf if x[i] <= C.lo[i] + tol else 0.0
            cone_hi[i] = np.inf if x[i] >= C.hi[i] - tol else 0.0
    lo, hi = _structural_interval(F, x)
    return lo + cone_lo, hi + cone_hi


def zeros_intervals_reference(FA, FB, pts, tol, u_bounds=(-10.0, 10.0)):
    """Grid points x where the images of the operators induced by FA and FB
    admit u in A x with -u in B x inside ``u_bounds``, up to ``tol``."""
    accepted = []
    for x in pts:
        a = induced_interval(FA, x)
        b = induced_interval(FB, x)
        if a is None or b is None:
            continue
        lo = np.maximum(np.maximum(a[0], -b[1]), u_bounds[0])
        hi = np.minimum(np.minimum(a[1], -b[0]), u_bounds[1])
        if np.all(lo <= hi + tol):
            accepted.append(x)
    return np.array(accepted).reshape(-1, pts.shape[1])


def _pair_values(F, x, Y):
    """F(x, y) for the rows y of Y."""
    if F.oracles:
        raise ValueError("no pair values for a bifunction with a generic part")
    vals = np.zeros(Y.shape[0]) if F.matrix is None else (Y - x) @ (F.matrix @ x + F.offset)
    for f in F.functions:
        vals = vals + _function_values(f, Y) - _function_value(f, x)
    return vals


def _admissible_interval_1d(F, x, Y, delta):
    d = Y[:, 0] - x
    vals = _pair_values(F, np.array([x]), Y) + delta
    pos = d > 0.0
    neg = d < 0.0
    uhi = float(np.min(vals[pos] / d[pos])) if np.any(pos) else np.inf
    ulo = float(np.max(vals[neg] / d[neg])) if np.any(neg) else -np.inf
    return ulo, uhi


def zeros_sampled_reference(FA, FB, pts, tol, u_bounds=(-10.0, 10.0)):
    """1-D grid points x where some u in ``u_bounds`` has
    F_A(x, y) + u (x - y) >= -tol and F_B(x, y) - u (x - y) >= -tol for
    every grid point y of the respective set."""
    YA = pts[np.array([_in_set(FA.set, p) for p in pts])]
    YB = pts[np.array([_in_set(FB.set, p) for p in pts])]
    accepted = []
    for x in pts:
        if not (_in_set(FA.set, x) and _in_set(FB.set, x)):
            continue
        alo, ahi = _admissible_interval_1d(FA, float(x[0]), YA, tol)
        blo, bhi = _admissible_interval_1d(FB, float(x[0]), YB, tol)
        if max(alo, -bhi, u_bounds[0]) <= min(ahi, -blo, u_bounds[1]):
            accepted.append(x)
    return np.array(accepted).reshape(-1, 1)


# ---------------------------------------------------------------------------
# normal cones by exact support functions
# ---------------------------------------------------------------------------
#
# u is normal to C at x in C iff sup_{y in C} <u, y - x> <= 0.  For a
# halfspace and the probability simplex that supremum has a closed form.

def halfspace_support_gap(normal, offset, x, u, rtol=1e-12):
    """sup over {y : <normal, y> <= offset} of <u, y - x>.

    Finite only when u = s * normal with s >= 0 (up to ``rtol`` of
    rounding), where it is s * (offset - <normal, x>); +inf otherwise.
    """
    a = np.asarray(normal, dtype=float)
    u = np.asarray(u, dtype=float)
    s = float(u @ a) / float(a @ a)
    slack = rtol * (1.0 + np.linalg.norm(u))
    if np.linalg.norm(u - s * a) > slack or s < -slack:
        return np.inf
    return s * (float(offset) - float(a @ np.asarray(x, dtype=float)))


def simplex_support_gap(x, u):
    """sup over the probability simplex of <u, y - x> = max_i u_i - <u, x>."""
    u = np.asarray(u, dtype=float)
    return float(u.max() - u @ np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# resolvents of operator-induced bifunctions by projected iteration
# ---------------------------------------------------------------------------

def project_ball_ref(v, center, radius):
    """Projection onto {y : ||y - center|| <= radius}."""
    d = v - center
    r = np.linalg.norm(d)
    return v if r <= radius else center + (radius / r) * d


def project_halfspace_ref(v, a, b):
    """Projection onto {y : <a, y> <= b}."""
    excess = a @ v - b
    return v if excess <= 0.0 else v - (excess / (a @ a)) * a


def project_simplex_ref(v):
    """Projection onto the probability simplex by Michelot's algorithm:
    project onto the hyperplane sum y = 1 of the active coordinates, drop
    the negative ones, and repeat until none is negative."""
    active = np.ones(v.size, dtype=bool)
    while True:
        y = np.zeros_like(v)
        y[active] = v[active] - (v[active].sum() - 1.0) / np.count_nonzero(active)
        if np.all(y[active] >= 0.0):
            return y
        active &= y > 0.0


def affine_projector_ref(A, b):
    """Projection onto {y : A y = b}, through an orthonormal basis N of the
    null space of A (from its SVD): v -> p + N N'(v - p) with p the
    least-norm solution (the library projects through a pseudoinverse)."""
    A = np.asarray(A, dtype=float)
    _, s, Vt = np.linalg.svd(A)
    N = Vt[np.count_nonzero(s > 1e-12 * s[0]):].T
    p = np.linalg.lstsq(A, b, rcond=None)[0]
    return lambda v: p + N @ (N.T @ (v - p))


def l1_prox_simplex_ref(v, t):
    """argmin sum t_i |z_i| + ||z - v||^2 / 2 over the probability simplex,
    where |z| = z: the projection of v - t."""
    return project_simplex_ref(v - t)


def l1_prox_halfspace_ref(a, b):
    """(v, t) -> argmin sum t_i |z_i| + ||z - v||^2 / 2 over {y : <a, y> <= b}.

    The minimiser is shrink(v - lam a, t), shrink the soft threshold, with
    lam >= 0 a root of phi(lam) = <a, shrink(v - lam a, t)> - b when
    phi(0) > 0.  phi is nonincreasing and linear between its knots
    lam = (v_i -+ t_i) / a_i, so it is evaluated at every knot and the root
    interpolated on the segment where phi changes sign; past the last knot
    its slope is -||a||^2.
    """
    a = np.asarray(a, dtype=float)

    def shrink(v, t):
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    def prox(v, t):
        if shrink(v, t) @ a <= b:
            return shrink(v, t)
        m = a != 0.0
        knots = np.concatenate(([0.0], (v[m] - t[m]) / a[m], (v[m] + t[m]) / a[m]))
        knots = np.unique(knots[knots >= 0.0])
        phi = shrink(v - knots[:, None] * a, t) @ a - b
        k = np.flatnonzero(phi > 0.0)[-1]
        if k + 1 < knots.size:
            lam = knots[k] + phi[k] * (knots[k + 1] - knots[k]) / (phi[k] - phi[k + 1])
        else:
            lam = knots[k] + phi[k] / (a @ a)
        return shrink(v - lam * a, t)

    return prox


def resolvent_projected(M, c, gamma, x, project, weights=None, l1_prox=None, max_iter=200_000):
    """The z in C with <gamma (M z + c) + z - x, y - z>
    + gamma sum_i w_i (|y_i| - |z_i|) >= 0 for all y in C (w = 0 without
    ``weights``).

    Forward-backward iteration z <- prox(z - t T(z)) on
    T(z) = (I + gamma M) z + gamma c - x with t = mu / L^2, mu > 0 the
    smallest eigenvalue of sym(I + gamma M) and L = ||I + gamma M||_2, a
    contraction from project(x).  prox is ``l1_prox(v, t gamma w)`` when
    given, and otherwise project(shrink(v, t gamma w)), shrink the soft
    threshold, which is the prox of the weighted L1 plus the indicator of C
    only over a box or a ball centred at 0.  It runs until the step is at most
    1e-16 (1 + ||z||).  The iteration runs in np.longdouble (a 64-bit
    mantissa on x86-64), since float64 rounding alone moves a projection
    onto a sphere by about 1e-16.
    """
    A = np.eye(len(x)) + gamma * np.asarray(M, dtype=float)
    b = x - gamma * np.asarray(c, dtype=float)
    mu = float(np.linalg.eigvalsh(0.5 * (A + A.T)).min())
    if mu <= 0.0:
        raise ValueError("the projected reference needs 1 + gamma lambda_min(sym M) > 0")
    L = float(np.linalg.norm(A, 2))
    t = np.longdouble(mu / (L * L))
    A, b = A.astype(np.longdouble), b.astype(np.longdouble)
    threshold = None if weights is None else t * np.longdouble(gamma) * np.asarray(weights, dtype=np.longdouble)

    def prox(v):
        if l1_prox is not None:
            return l1_prox(v, threshold)
        if threshold is not None:
            v = np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)
        return project(v)

    z = project(np.asarray(x, dtype=np.longdouble))
    for _ in range(max_iter):
        z_new = prox(z - t * (A @ z - b))
        step = np.linalg.norm(z_new - z)
        z = z_new
        if step <= 1e-16 * (1.0 + np.linalg.norm(z)):
            return z.astype(float)
    raise RuntimeError("projected reference did not settle")


def resolvent_ball_kkt(M, c, gamma, x, radius, tol=1e-15):
    """The z in the ball ||z|| <= radius with <gamma (M z + c) + z - x, y - z> >= 0
    for all y in it, for sym(I + gamma M) positive definite.

    KKT gives (A + lam I) z = b with A = I + gamma M, b = x - gamma c, and
    lam >= 0 zero unless ||z|| = radius.  With z(lam) = (A + lam I)^{-1} b,
    d ||z||^2 / d lam = -2 v' sym(A + lam I) v < 0 for v = (A + lam I)^{-1} z,
    so ||z(lam)|| decreases and the root is found by bisection on lam, to
    a relative width ``tol``.
    """
    A = np.eye(len(x)) + gamma * np.asarray(M, dtype=float)
    b = np.asarray(x, dtype=float) - gamma * np.asarray(c, dtype=float)
    if float(np.linalg.eigvalsh(0.5 * (A + A.T)).min()) <= 0.0:
        raise ValueError("the ball reference needs 1 + gamma lambda_min(sym M) > 0")

    def z_at(lam):
        return np.linalg.solve(A + lam * np.eye(len(b)), b)

    z = z_at(0.0)
    if np.linalg.norm(z) <= radius:
        return z
    lo, hi = 0.0, 1.0
    while np.linalg.norm(z_at(hi)) > radius:
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(z_at(mid)) > radius:
            lo = mid
        else:
            hi = mid
    return z_at(0.5 * (lo + hi))


def separable_gap_ref(M, c, a, q, w, p, lo=None, hi=None):
    """min over y of <M p + c, y - p> + phi(y) - phi(p), phi(y) =
    1/2 sum a_i y_i^2 + q'y + sum w_i |y_i|, over the box [lo, hi] or, with
    no bounds, over R^d (every a_i > 0 there).

    Each axis problem 1/2 a t^2 + b t + w |t|, b = (M p + c + q)_i, is
    solved by enumerating its KKT candidates: the stationary point of each
    smooth piece, t = -(b + w) / a on t > 0 and t = -(b - w) / a on t < 0
    when it lies on its piece, the kink 0 and the bounds, each kept only if
    it is feasible.  The value is then taken from the unsplit expression at
    the assembled minimizer.
    """
    p = np.asarray(p, dtype=float)
    d = p.size
    lo = np.full(d, -np.inf) if lo is None else np.asarray(lo, dtype=float)
    hi = np.full(d, np.inf) if hi is None else np.asarray(hi, dtype=float)
    g = (np.zeros(d) if M is None else np.asarray(M, dtype=float) @ p + c)
    y = np.empty(d)
    for i in range(d):
        b = g[i] + q[i]
        cands = [0.0, lo[i], hi[i]]
        if a[i] > 0.0:
            for side in (1.0, -1.0):
                t = -(b + side * w[i]) / a[i]
                if side * t > 0.0:
                    cands.append(t)
        cands = [t for t in cands if np.isfinite(t) and lo[i] <= t <= hi[i]]
        vals = [0.5 * a[i] * t * t + b * t + w[i] * abs(t) for t in cands]
        y[i] = cands[int(np.argmin(vals))]

    def phi(v):
        return 0.5 * np.dot(a * v, v) + np.dot(q, v) + np.dot(w, np.abs(v))

    return float(np.dot(g, y - p) + phi(y) - phi(p))
