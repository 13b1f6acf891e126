"""Resolvents of bifunctions and their reflections.

For an admissible bifunction F over C and gamma > 0, the resolvent maps x
to the unique z in C with

    gamma * F(z, y) + <z - x, y - z> >= 0   for all y in C,

and the reflection is 2 J x - x.  The resolvent is single valued and firmly
nonexpansive; the reflection is nonexpansive.

The method is chosen once, when a :class:`ResolventOracle` is built, from
the operator A z + b + d l1(z) + sum d f(z) + N_C(z) that the bifunction's
normal form induces (:attr:`~eqsplit.bifunctions.Bifunction.induced`), which
has the same resolvent as the bifunction:

* no rest f, A = 0 and no l1: z = P_C(x - gamma b), a pure projection after
  a constant shift;
* no rest f, A = 0 and an l1 whose prox plus the indicator of C has a
  closed form (the set's ``_l1_prox``: the whole space, a box, a ball
  centred at 0, the simplex, a halfspace): that prox at x - gamma b;
* no rest f and no l1 over finite ``_bounds`` (a box): the box linear
  complementarity problem (I + gamma A) z + gamma b - x in -N_box(z),
  solved exactly by block principal pivoting;
* no rest f and no l1 over infinite ``_bounds`` (the whole space):
  z = (I + gamma A)^{-1} (x - gamma b);
* anything else: :func:`inner_solve`, one loop of forward-backward steps
  on the smooth part (A z + b, the rest gradients, and finite differences
  of the generic parts g) with the l1 prox above as the backward step,
  stopped by an a-posteriori bound on ||z - J x|| that needs only
  monotonicity.  An l1 part without that prox over C ends the loop at
  once in :class:`ConvergenceFailure`.

So the method depends only on the induced operator: a sum of bifunctions,
or an operator part written as a ``Quadratic`` or ``AffineFunction``, gets
the closed form of the single operator with the same A, b and l1.

Every route is built once per bifunction and gamma: the first oracle
builds the map and keeps it on the bifunction, and every later oracle at
the same gamma reuses it, so repeated solves factor nothing.  The memo
holds one entry, the last gamma, and a new gamma replaces it, so a
bifunction keeps at most one d x d inverse over the whole space, and over
a box I + gamma A and the maps of at most ``KEPT_PATTERNS`` pivoting
patterns, each d x d.  No route draws a sample.

Whole-space linear resolvents invert I + gamma A once, and each call is
one matrix-vector product.  For monotone A, sym(I + gamma A) >= I, so
||(I + gamma A)^{-1}|| <= 1 and the condition number is at most
1 + gamma ||A||; the explicit inverse loses nothing against a per-call
solve.  A singular I + gamma A (possible only for non-monotone A) raises
ValueError whenever an oracle is built at that gamma, and is never kept.

The same bound makes I + gamma A a P-matrix, for which block principal
pivoting with Murty's single-pivot backup ends in finitely many passes from
any starting pattern.  The kept map therefore starts each call from the
last pattern it met, which along a solve rarely changes, and keeps the
factor of every pattern it meets, up to ``KEPT_PATTERNS`` of them, so a
repeated solve inverts nothing.  A pattern's map also gives the KKT
multipliers of the bound coordinates, so a call whose pattern holds is one
matrix-vector product and a strict sign test.  The answer satisfies the KKT sign
conditions of the box problem, which certify it exactly, so no sampled
check is made.  A non-monotone M can make the pivoting cycle or meet a
singular block; the call then raises :class:`ConvergenceFailure` instead
of returning a point.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bifunctions import Bifunction
from .hilbert import as_vector, norm, soft_threshold  # noqa: F401 (re-exported)

CLOSED_FORM_PROJECTION = "closed-form-projection"
CLOSED_FORM_LINEAR_SOLVE = "closed-form-linear-solve"
PROX_COMPOSITION = "prox-composition"
INNER_ITERATIVE = "inner-iterative"

#: finite-difference step for subgradients of generic bifunctions
FD_STEP = 1e-6

#: inner solver tolerance (see :func:`inner_solve` for what it bounds)
INNER_TOL = 1e-9

#: inner solver iteration cap on the inner route, read at every resolve
INNER_ITER_CAP = 50000


class ConvergenceFailure(RuntimeError):
    """An iterative solve ran out of iterations.

    Carries the last iterate and its residual so the caller can decide to
    accept it as an inexactness term.
    """

    def __init__(self, message, iterate=None, residual=None, iterations=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual
        self.iterations = iterations


def _check_gamma(gamma) -> None:
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")


def _central_difference(batch_fn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Central finite differences of y -> g(x, y) with step ``FD_STEP``,
    from two calls of g's batch oracle on the rows of y +- FD_STEP I."""
    E = FD_STEP * np.eye(y.size)
    up = np.asarray(batch_fn(x, y + E), dtype=float)
    return (up - np.asarray(batch_fn(x, y - E), dtype=float)) / (2.0 * FD_STEP)


def _smooth_part(F: Bifunction) -> Callable:
    """Oracle (x, y) -> M x + c + Q y + q + sum_rest d f(y) + sum_g d_y g(x, y):
    one subgradient of F(x, .) at y without the weighted L1 part w of
    ``F.canonical``.  Exact for the structured parts; each generic part g
    adds central finite differences of g(x, .) with step ``FD_STEP``, taken
    from its batch oracle."""
    M, c, gs = F.matrix, F.offset, F.oracles
    Q, q, _, _, rest = F.canonical

    def u(x, y):
        g = 0.0 if M is None else M @ x + c
        if Q is not None:
            g = g + Q @ y
        if q is not None:
            g = g + q
        for f in rest:
            g = g + f.subgradient(y)
        for _, batch_fn in gs:
            g = g + _central_difference(batch_fn, x, y)
        return g

    return u


def partial_second(F: Bifunction):
    """Oracle (x, y) -> one subgradient of F(x, .) at y: the smooth part
    that :func:`inner_solve` steps on, plus w sign(y) for the weighted L1
    part w of ``F.canonical`` (0 at its kinks)."""
    u, w = _smooth_part(F), F.canonical.w
    if w is None:
        return u
    return lambda x, y: u(x, y) + w * np.sign(y)


#: Armijo ratio of the forward-backward-forward step: the step s is halved
#: until s ||T(w) - T(z)|| <= _ARMIJO ||w - z||
_ARMIJO = 0.9

#: the inner loop fails once its backtracked step falls below this
_MIN_STEP = 1e-15


def inner_solve(
    F: Bifunction,
    gamma: float,
    x,
    tol: float = INNER_TOL,
    max_iter: int = INNER_ITER_CAP,
    *,
    return_info: bool = False,
):
    """Resolvent of a bifunction by forward-backward steps on the inclusion
    0 in T(z) + gamma d l1(z) + N_C(z), with T(z) = gamma u(z) + z - x, u
    the smooth part of F (:func:`partial_second` without the L1 part) and
    l1 the weights of F's ``WeightedL1`` parts.

    Each iteration takes w = prox_s(z - s T(z)), the prox of s gamma l1 plus
    the indicator of C (the set's ``_l1_prox``; P_C without l1).  Then
    e = (z - w) / s + T(w) - T(z) lies in T(w) + gamma d l1(w) + N_C(w),
    which is mu_T-strongly monotone, so ||w - J x|| <= ||e|| / mu_T, with
    mu_T = 1 + gamma mu from ``F.curvature`` and 1 (u monotone) without
    it.  The loop returns w once that bound is at most
    max(1e-3 tol, 1e-15) (1 + ||w||).  Over an ``IntersectionSet`` the
    bound holds up to Dykstra's tolerance, and for a generic part up to the
    error of its finite differences, whose rounding can hold the bound
    above that target: a form with a generic part also returns w once a
    bound of at most tol (1 + ||w||) is no smaller than the one before it.

    The next iterate is w itself, at the constant step sigma = 2 / (mu_T +
    L_T), when F has curvature bounds and u is a gradient field, or at
    sigma = mu_T / L_T^2 when mu_T / L_T >= 1/4 (Facchinei & Pang 2003,
    ch. 12), with L_T = 1 + gamma L.  Otherwise it is Tseng's
    forward-backward-forward step P_C(w - s (T(w) - T(z))) (SIAM J. Control
    Optim. 38, 2000): s starts at 1, is halved until
    s ||T(w) - T(z)|| <= 0.9 ||w - z||, and is kept from then on.  Every
    prox counts as an iteration, and no sample is drawn.

    ``info["violation"]`` is the bound.  Raises :class:`ConvergenceFailure`
    carrying the last w and its bound when ``max_iter`` is exhausted or the
    step falls below 1e-15, and at once, carrying P_C(x) with iterations 0,
    when the L1 part has no closed-form prox over C or mu_T <= 0 (a
    non-monotone A).  Raises ``ValueError`` naming the iteration when T
    takes a non-finite value.
    """
    _check_gamma(gamma)
    C = F.set
    x = as_vector(x, C.dimension)
    z = C._project(x)
    l1 = F.canonical.w

    def failure(reason, iterate, residual, iterations):
        return ConvergenceFailure(
            f"inner resolvent at gamma = {gamma}: {reason}", iterate=iterate, residual=residual, iterations=iterations
        )

    if l1 is not None and C._l1_prox(l1) is None:
        raise failure(f"the weighted L1 part has no closed-form prox over {type(C).__name__}", z, np.inf, 0)
    mu_t, sigma = 1.0, None
    if F.curvature is not None:
        mu, L, symmetric = F.curvature
        mu_t, L_t = 1.0 + gamma * mu, 1.0 + gamma * L
        if mu_t <= 0.0:
            raise failure(f"1 + gamma mu = {mu_t:.3e} <= 0; the operator is not monotone", z, np.inf, 0)
        if symmetric:
            sigma = 2.0 / (mu_t + L_t)
        elif mu_t >= 0.25 * L_t:
            sigma = mu_t / (L_t * L_t)
    u = _smooth_part(F)

    def T(v, k):
        t = gamma * u(v, v) + (v - x)
        if not np.isfinite(t).all():
            raise ValueError(f"inner resolvent iteration {k}: T(z) = gamma u(z) + z - x is not finite")
        return t

    def prox(s):
        return C._project if l1 is None else C._l1_prox(s * gamma * l1)

    s = 1.0 if sigma is None else sigma
    step = prox(s)
    target = max(1e-3 * tol, 1e-15)
    noisy = bool(F.oracles)
    Tz = T(z, 0)
    w, bound = z, np.inf
    for k in range(1, max_iter + 1):
        w = step(z - s * Tz)
        Tw = T(w, k)
        dT = Tw - Tz
        last, bound = bound, norm((z - w) / s + dT) / mu_t
        scale = 1.0 + norm(w)
        if bound <= target * scale or (noisy and last <= bound <= tol * scale):
            info = {"iterations": k, "violation": bound}
            return (w, info) if return_info else w
        if sigma is not None:
            z, Tz = w, Tw
        elif s * norm(dT) <= _ARMIJO * norm(w - z):
            z = C._project(w - s * dT)
            Tz = T(z, k)
        else:
            s *= 0.5
            if s < _MIN_STEP:
                raise failure(f"the step fell below {_MIN_STEP:.0e} at iteration {k}", w, bound, k)
            step = prox(s)
    raise failure(f"did not certify {target:.1e} within {max_iter} iterations (bound {bound:.3e})", w, bound, max_iter)


def _invert(A: np.ndarray, gamma: float) -> np.ndarray:
    """A^{-1} for A = I + gamma M; ValueError when it is singular."""
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise _singular(gamma) from exc


def _singular(gamma: float) -> ValueError:
    return ValueError(f"I + gamma M is singular at gamma = {gamma}; the operator is not monotone")


def _linear_resolvent(matrix: np.ndarray, offset: np.ndarray, gamma: float) -> Callable[..., np.ndarray]:
    """x -> (I + gamma M)^{-1} (x - gamma c), with the inverse formed once.

    Raises ValueError when I + gamma M is singular.
    """
    shift = gamma * offset
    K = _invert(np.eye(matrix.shape[0]) + gamma * matrix, gamma)
    return lambda x: K.dot(x - shift)


#: pivoting passes without a drop in the infeasible count before the box
#: solver falls back to single pivots
BLOCK_PIVOT_PATIENCE = 3

#: pivoting patterns whose maps one box resolvent keeps; the least recently
#: used is evicted beyond it
KEPT_PATTERNS = 16


def _sign_rows(
    A: np.ndarray, Kf: np.ndarray, m: np.ndarray, free: np.ndarray, sign: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The signed multipliers of a pattern's bound coordinates as an affine
    map of b: (bound, R, r) with sign_i (A z - b)_i = (R b + r)_k for
    i = bound[k], where z = L b + m is the pattern's map.

    L is zero outside its free block K_F = A_FF^{-1}, and z_i = m_i is the
    bound on a bound row i, so row k of R is sign_i (A_iF K_F, -e_i) and
    r_k = sign_i A_i m: the only matrix product is A_BF K_F.
    """
    bound = np.flatnonzero(sign)
    s = sign[bound]
    A_b = A[bound]
    R = np.zeros((bound.size, A.shape[0]))
    R[:, free] = s[:, None] * (A_b[:, free] @ Kf)
    R[np.arange(bound.size), bound] = -s
    return bound, R, s * (A_b @ m)


def _box_linear_resolvent(
    matrix: np.ndarray, offset: np.ndarray, gamma: float, lo: np.ndarray, hi: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> the z in [lo, hi] with (I + gamma M) z + gamma c - x in -N_box(z).

    Block principal pivoting on the box linear complementarity problem
    (Judice & Pires, Comput. Oper. Res. 21, 1994).  Each coordinate is free,
    at lo or at hi.  Every pass evaluates z_F = A_FF^{-1} (b_F - A_F,fixed
    z_fixed) with A = I + gamma M and b = x - gamma c, then flips every
    infeasible coordinate: a free one outside the box, or a bound one whose
    w = A z - b has the wrong sign.  After ``BLOCK_PIVOT_PATIENCE`` passes
    without a drop in the infeasible count only the largest-index one is
    flipped (Murty's rule), which terminates from any pattern for every
    P-matrix A; monotone M gives sym(A) >= I, hence a P-matrix.  The
    returned point satisfies the KKT signs, which certify it exactly.

    Each pattern has an affine map z = L b + m: L is A_FF^{-1} on the free
    block and zero elsewhere, and m holds the bounds.  The map of every
    pattern met is kept, keyed by the bytes of its side vector, up to
    ``KEPT_PATTERNS`` of them with the least recently used evicted; the
    first kept pattern is the all-free one, whose map is A^{-1}.  Each call
    starts from the last pattern met, which along a solve rarely changes,
    and pivots through the same patterns whether their maps are kept or
    not, so keeping them saves the inverse of a pattern met before and
    changes no bit beyond the rounding noted below.  The closure holds A
    and at most ``KEPT_PATTERNS`` maps, each d x d, and a repeated call on
    patterns it has met forms nothing.  The last pattern and the kept
    entries are replaced as one tuple, with a new dict, also when the
    bound rows are added, so one kept map can be shared across threads.
    Once a pattern has held for a call (its first pass met every sign),
    the bound rows of its map are replaced by the signed multipliers
    sign_i w_i (:func:`_sign_rows`, formed from the free block alone), so
    one product v = P b + p gives z_F and those multipliers.  A call on
    such a pattern accepts when every free v_i lies strictly inside
    (lo_i, hi_i) and every signed multiplier is strictly negative (pinned
    coordinates, lo == hi, have none to meet): it returns z from that one
    matrix-vector product, with no tolerance and no pivoting pass.  The
    test is one ``np.logical_and.reduce``, and z is v, the call's own
    array, with m put in its bound rows.  Otherwise, and on a pattern
    that has not held yet, it runs the passes above, the first of them on
    the same z_F.  A pattern that pivoting only passes through costs its
    inverse, once while it stays kept, and no bound rows.

    The strict test gives the first pass's bits wherever it accepts, and
    where it rejects the first pass runs.  It can accept where that pass
    would not only when the two roundings of a multiplier, sign_i w_i
    against the row of P, differ by more than the pass's tolerance
    1e-12 (1 + max |bound| + max |b|); only then does the output depend on
    whether the pattern's bound rows were formed.

    The kept pattern is read only when sym(A) is positive definite: then
    the problem has one solution and any pattern leads to it.  Otherwise
    the box problem may have several solutions or none, and every call
    starts all free and pivots through the patterns it would meet in a
    fresh closure, so a kept pattern can never turn a failure into a
    returned point.

    Raises ValueError when A is singular, and :class:`ConvergenceFailure`
    carrying the clamp of b when the pivot cap is reached or a block is
    singular; all three need a non-monotone M.
    """
    d = matrix.shape[0]
    A = np.eye(d) + gamma * matrix
    K = _invert(A, gamma)
    shift = gamma * offset
    pinned = lo == hi
    bound_scale = 1.0 + max(np.abs(lo).max(), np.abs(hi).max())
    max_pivots = 10 * d + 50
    all_of, putmask = np.logical_and.reduce, np.putmask
    try:
        np.linalg.cholesky(A + A.T)
        warm = True
    except np.linalg.LinAlgError:
        warm = False
    # side per coordinate: -1 at lo, 0 free, 1 at hi
    all_free = np.zeros(d, dtype=np.int8)
    first = (all_free, np.zeros(d, dtype=bool), K, np.zeros(d), np.zeros(d), all_free, None, None)
    # (last pattern met, kept entries by the bytes of their side vector,
    # least recently used first): replaced as one tuple, and a dict, once
    # shared, never changes
    state = (first, {all_free.tobytes(): first})

    def keep(entry):
        """Make entry the last pattern met and the most recently used kept
        one, evicting the least recently used beyond ``KEPT_PATTERNS``."""
        nonlocal state
        key = entry[0].tobytes()
        kept = dict(state[1])
        kept.pop(key, None)
        kept[key] = entry
        if len(kept) > KEPT_PATTERNS:
            del kept[next(iter(kept))]
        state = (entry, kept)

    def pattern_map(side):
        """(side, bound, P, p, m, sign, lo_v, hi_v) of a pattern, the kept
        entry when there is one: v = P b + p, z = v with m on the bound
        rows, the sign of w that makes each bound coordinate infeasible (0
        where free or pinned), and the open interval (lo_v, hi_v) that holds
        v when the pattern certifies itself.  A new entry has no bound rows
        yet (P = L, p = m, and lo_v = hi_v = None).  Raises LinAlgError on a
        singular block, which is never kept."""
        entry = state[1].get(side.tobytes())
        if entry is None:
            free = side == 0
            sign = np.where(pinned, 0, side).astype(np.int8)
            m = np.where(side > 0, hi, lo)
            m[free] = 0.0
            L = np.zeros((d, d))
            if free.any():
                # row, then column gathers: the same values as np.ix_, in less time
                A_f = A[free]
                Kf = np.linalg.inv(A_f[:, free])
                rows = np.zeros((Kf.shape[0], d))
                rows[:, free] = Kf
                L[free] = rows
                m[free] = -Kf.dot(A_f.dot(m))
            entry = (side, ~free, L, m, m, sign, None, None)
        keep(entry)
        return entry

    def with_sign_rows(entry):
        """Keep the entry with its bound rows in place of it; new arrays are
        filled, so an entry, once shared, never changes."""
        side, bound, L, _, m, sign, _, _ = entry
        free = ~bound
        P, p = L, m
        if sign.any():
            rows, R, r = _sign_rows(A, L[free][:, free], m, free, sign)
            P, p = L.copy(), m.copy()
            P[rows], p[rows] = R, r
        hi_v = np.where(free, hi, np.where(sign == 0, np.inf, 0.0))
        keep((side, bound, P, p, m, sign, np.where(free, lo, -np.inf), hi_v))

    def pivot(b, entry, z):
        tol = 1e-12 * (bound_scale + np.abs(b).max())
        lo_tol, hi_tol = lo - tol, hi + tol
        best, patience = d + 1, BLOCK_PIVOT_PATIENCE
        for passes in range(1, max_pivots + 1):
            side, bound, _, _, m, sign, _, _ = entry
            putmask(z, bound, m)  # z = P b + p is this pass's own array
            w = A.dot(z) - b
            # bound coordinates hold their bound exactly, so the box test
            # can only fail on free ones
            infeasible = (z < lo_tol) | (z > hi_tol) | (sign * w > tol)
            count = int(np.count_nonzero(infeasible))
            if count == 0:
                return np.minimum(np.maximum(z, lo), hi), passes
            if count < best:
                best, patience = count, BLOCK_PIVOT_PATIENCE
            elif patience > 0:
                patience -= 1
            else:
                last = np.flatnonzero(infeasible)[-1]
                infeasible = np.zeros(d, dtype=bool)
                infeasible[last] = True
            side = np.where(infeasible, np.where(bound, 0, np.where(z > hi, 1, -1)), side).astype(np.int8)
            try:
                entry = pattern_map(side)
            except np.linalg.LinAlgError:
                reason = f"singular block at pivoting pass {passes}"
                break
            z = entry[2].dot(b) + entry[3]
        else:
            reason = f"no solution within {max_pivots} pivoting passes"
        z = np.minimum(np.maximum(b, lo), hi)
        raise ConvergenceFailure(
            f"box resolvent at gamma = {gamma}: {reason}; the operator is not monotone",
            iterate=z,
            residual=norm(z - np.minimum(np.maximum(z - (A @ z - b), lo), hi)),
            iterations=passes,
        )

    def apply(x: np.ndarray) -> np.ndarray:
        b = x - shift
        entry = state[0]
        if not warm and entry[0].any():
            entry = pattern_map(all_free)
        _, bound, P, p, m, _, lo_v, hi_v = entry
        v = P.dot(b) + p
        if lo_v is None:
            # a pattern gets its bound rows once it has held for a call, so
            # a pattern that pivoting only passes through costs its inverse
            # and no more
            z, passes = pivot(b, entry, v)
            if passes == 1:
                with_sign_rows(entry)
            return z
        if all_of((lo_v < v) & (v < hi_v)):
            putmask(v, bound, m)
            return v
        return pivot(b, entry, v)[0]

    return apply


@dataclass(frozen=True, eq=False)
class ResolventOracle:
    """Resolvent of ``gamma * bifunction``.

    The computation follows from the bifunction's induced operator and the
    closed forms its set offers (:func:`_build`), and ``method`` names it.
    The route, and with it all per-(bifunction, set, gamma) work such as
    inverting I + gamma A, is built by the first oracle at a gamma and kept on the
    bifunction for that gamma; later oracles reuse it, so building one is
    cheap.  No route draws a sample.  The oracle is immutable and its map
    is a function of x alone (up to the rounding noted at :func:`resolve`),
    so one oracle, or one kept map, may be shared across concurrent solves.
    Besides the bifunction's memo, the only state behind it is box
    pivoting's last pattern and its kept pattern factors (at most
    ``KEPT_PATTERNS``); each memo is swapped in as one tuple.  ``gamma``
    must be positive and finite (``ValueError``).
    """

    gamma: float
    bifunction: Bifunction
    method: str = field(init=False)

    def __post_init__(self):
        _check_gamma(self.gamma)
        method, apply = _build(self)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "_apply", apply)

    @property
    def dimension(self) -> int:
        return self.bifunction.dimension


def _build(oracle: ResolventOracle) -> tuple[str, Callable[..., np.ndarray]]:
    """(method, map x -> J x) from the induced operator
    A z + b + d l1(z) + sum_rest d f(z) + N_C(z) and the set's own closed
    forms, its ``_l1_prox`` and ``_bounds``.

    The route is taken from the bifunction's one-entry memo when it was
    built at this gamma, and otherwise built and stored there, replacing
    the entry as one tuple: the closed form when there is one, else the
    inner route, which reads ``INNER_ITER_CAP`` at every call.  The inner
    route calls :func:`inner_solve` on a shallow copy of the bifunction,
    which carries its cached curvature but not the memo, so the kept route
    makes no reference cycle through it.
    """
    F, gamma = oracle.bifunction, oracle.gamma
    memo = F._resolvent
    if memo is not None and memo[0] == gamma:
        return memo[1:]
    route = _closed_form(F, gamma)
    if route is None:
        # the inner loop's spectral constants, computed once per bifunction,
        # never per resolve, and carried by the copy
        _ = F.curvature
        H = copy.copy(F)
        route = INNER_ITERATIVE, lambda x: inner_solve(H, gamma, x, max_iter=INNER_ITER_CAP)
    object.__setattr__(F, "_resolvent", (gamma, *route))
    return route


def _closed_form(F: Bifunction, gamma: float) -> tuple[str, Callable[..., np.ndarray]] | None:
    """(method, map) of the closed-form resolvent of ``gamma * F``, or None
    when F needs the inner solver.  Raises ValueError when I + gamma A is
    singular."""
    if F.induced is None or F.induced[3]:
        return None
    C = F.set
    A, b, l1, _ = F.induced
    if A is None or not A.any():
        shift = 0.0 if b is None else gamma * b
        if l1 is None:
            return CLOSED_FORM_PROJECTION, lambda x: C._project(x - shift)
        prox = C._l1_prox(gamma * l1)
        if prox is None:
            return None
        if b is None or not b.any():
            return PROX_COMPOSITION, prox
        return PROX_COMPOSITION, lambda x: prox(x - shift)
    if l1 is None and C._bounds is not None:
        finite = np.isfinite(np.concatenate(C._bounds))
        if finite.all():
            return CLOSED_FORM_LINEAR_SOLVE, _box_linear_resolvent(A, b, gamma, *C._bounds)
        if not finite.any():
            return CLOSED_FORM_LINEAR_SOLVE, _linear_resolvent(A, b, gamma)
    return None


def resolve(oracle: ResolventOracle, x) -> np.ndarray:
    """Apply the resolvent: the unique z in C with

    gamma F(z, y) + <z - x, y - z> >= 0 for all y in C, exact for the closed
    forms and within :func:`inner_solve`'s tolerance on the inner route.
    ``x`` must be a finite vector of the oracle's dimension; it is checked
    here, once, and ``ValueError`` names what is wrong with it.
    Inner-solver exhaustion (or a non-monotone operator that stops the
    inner loop or box pivoting) raises :class:`ConvergenceFailure`
    carrying the last iterate, which the caller may accept as an error term,
    and a non-finite value of the inner loop's map raises ``ValueError``.

    Box pivoting starts from the last pattern of coordinates at lo, at hi
    and free that the kept map met, which saves passes when x is near the
    earlier input.  The answer is a function of x, up to the rounding of
    box pivoting's KKT multipliers: a pattern with its bound rows formed
    accepts by a strict sign test, without the pivoting tolerance, so two
    roundings of a multiplier that differ by more than that tolerance could
    change the answer.  For a monotone operator the answer does not depend
    on the kept pattern beyond the 1e-12 pivoting tolerance.
    """
    return oracle._apply(as_vector(x, oracle.dimension))


def resolvent_map(oracle: ResolventOracle) -> Callable[[np.ndarray], np.ndarray]:
    """The oracle's kept map x -> J x, which does not validate ``x``.

    It is for code that builds its own vectors, finite float arrays of the
    oracle's dimension, such as the solver's iteration; pass anything else
    through :func:`resolve`.  Every oracle of the bifunction at this gamma
    shares the map, and it holds no per-solve state.
    """
    return oracle._apply


def reflect(oracle: ResolventOracle, x) -> np.ndarray:
    """Reflection 2 * resolve(x) - x; nonexpansive."""
    x = as_vector(x, oracle.dimension)
    return 2.0 * resolve(oracle, x) - x

