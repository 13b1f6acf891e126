"""Resolvents of bifunctions and their reflections.

For an admissible bifunction F over C and gamma > 0, the resolvent maps x
to the unique z in C with

    gamma * F(z, y) + <z - x, y - z> >= 0   for all y in C,

and the reflection is 2 J x - x.  The resolvent is single valued and firmly
nonexpansive; the reflection is nonexpansive.

Dispatch by structural family, done once when a :class:`ResolventOracle`
is built:

* zero map (operator-induced with M = 0): z = P_C(x - gamma c), a pure
  projection after a constant shift;
* operator-induced over the whole space: z = (I + gamma M)^{-1} (x - gamma c);
* operator-induced over a box: the box linear complementarity problem
  (I + gamma M) z + gamma c - x in -N_box(z), solved exactly by block
  principal pivoting;
* operator-induced over any other set: inner iterative solve of the
  1-strongly-monotone variational inequality;
* function-difference f(y) - f(x): z minimizes gamma f(y) + ||y - x||^2 / 2
  over C (closed forms for the whole space and for a box, where a
  non-separable quadratic goes through the same pivoting as above;
  projected gradient over other sets);
* generic / sum-of-two: inner iterative.

Linear resolvents (the whole-space operator-induced case and the
whole-space quadratic prox (I + gamma Q)^{-1}) are factored once per
oracle: the inverse of I + gamma M is formed at construction and each call
is one matrix-vector product.  For monotone M, sym(I + gamma M) >= I, so
||(I + gamma M)^{-1}|| <= 1 and the condition number is at most
1 + gamma ||M||; the explicit inverse loses nothing against a per-call
solve.  A singular I + gamma M (possible only for non-monotone M) raises
ValueError when the oracle is built.

The same bound makes I + gamma M a P-matrix, for which block principal
pivoting with Murty's single-pivot backup ends in finitely many passes.
Its answer satisfies the KKT sign conditions of the box problem, which
certify it exactly, so no sampled check is made.  A non-monotone M can
make the pivoting cycle or meet a singular block; the call then raises
:class:`ConvergenceFailure` instead of returning a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .bifunctions import (
    FUNCTION_DIFFERENCE,
    OPERATOR_INDUCED,
    SUM_OF_TWO,
    AffineFunction,
    Bifunction,
    Quadratic,
    WeightedL1,
)
from .hilbert import as_vector, norm, sample_points

CLOSED_FORM_PROJECTION = "closed-form-projection"
CLOSED_FORM_LINEAR_SOLVE = "closed-form-linear-solve"
PROX_COMPOSITION = "prox-composition"
INNER_ITERATIVE = "inner-iterative"

METHODS = (CLOSED_FORM_PROJECTION, CLOSED_FORM_LINEAR_SOLVE, PROX_COMPOSITION, INNER_ITERATIVE)

#: finite-difference step for subgradients of generic bifunctions
FD_STEP = 1e-6

#: number of points in the residual verification sample
CHECK_SAMPLE_SIZE = 64

#: accepted violation of the resolvent inequality for iterative resolvents
INNER_TOL = 1e-9


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


def soft_threshold(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Componentwise shrinkage sign(x) * max(|x| - t, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _choose_method(F: Bifunction) -> str:
    if F.family == OPERATOR_INDUCED:
        if not F.matrix.any() and not F.offset.any():
            return CLOSED_FORM_PROJECTION
        if not F.matrix.any():
            # constant operator: the variational inequality reduces to a
            # projection of the shifted point for any C
            return CLOSED_FORM_PROJECTION
        if F.set.kind in ("whole-space", "box"):
            return CLOSED_FORM_LINEAR_SOLVE
        return INNER_ITERATIVE
    if F.family == FUNCTION_DIFFERENCE:
        return PROX_COMPOSITION
    return INNER_ITERATIVE


def partial_second(F: Bifunction):
    """Oracle (x, y) -> one subgradient of F(x, .) at y.

    Exact per family; generic bifunctions fall back to central finite
    differences with step ``FD_STEP``.
    """
    if F.family == OPERATOR_INDUCED:
        M, c = F.matrix, F.offset
        return lambda x, y: M @ x + c
    if F.family == FUNCTION_DIFFERENCE:
        return lambda x, y: F.function.subgradient(y)
    if F.family == SUM_OF_TWO:
        f0 = partial_second(F.parts[0])
        f1 = partial_second(F.parts[1])
        return lambda x, y: f0(x, y) + f1(x, y)

    def fd(x, y):
        g = np.empty_like(y)
        for i in range(y.size):
            e = np.zeros_like(y)
            e[i] = FD_STEP
            g[i] = (F(x, y + e) - F(x, y - e)) / (2.0 * FD_STEP)
        return g

    return fd


def subgradient_second_arg(F: Bifunction):
    """Oracle z -> one subgradient of y -> F(z, y) at y = z."""
    ps = partial_second(F)
    return lambda z: ps(z, z)


def _curvature_bounds(F: Bifunction) -> tuple[float, float] | None:
    """(mu, L) bounds of the second-slot subgradient field, if known."""
    if F.family == OPERATOR_INDUCED:
        sym = 0.5 * (F.matrix + F.matrix.T)
        eigs = np.linalg.eigvalsh(sym)
        return max(float(eigs.min()), 0.0), float(np.linalg.norm(F.matrix, 2))
    if F.family == FUNCTION_DIFFERENCE:
        return F.function.curvature_bounds()
    if F.family == SUM_OF_TWO:
        b0 = _curvature_bounds(F.parts[0])
        b1 = _curvature_bounds(F.parts[1])
        if b0 is None or b1 is None:
            return None
        return b0[0] + b1[0], b0[1] + b1[1]
    return None


def _suggest_step(F: Bifunction, gamma: float) -> float:
    """Step size for the projected subgradient iteration.

    The auxiliary map T(z) = z - x + gamma * u(z) is (1 + gamma mu)-strongly
    monotone with Lipschitz constant at most 1 + gamma L, so the projected
    iteration contracts for step mu_T / L_T^2.  Without curvature bounds the
    default 0.5 is used and the solver halves it whenever progress stalls.
    """
    bounds = _curvature_bounds(F)
    if bounds is None:
        return 0.5
    mu_u, L_u = bounds
    mu_t = 1.0 + gamma * mu_u
    L_t = 1.0 + gamma * L_u
    return mu_t / (L_t * L_t)


def _resolvent_residuals(F: Bifunction, gamma: float, x: np.ndarray, z: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """gamma F(z, y) + <z - x, y - z> for every row y of Y; all >= 0 at z = J x."""
    return gamma * F.eval_batch(z, Y) + (Y - z) @ (z - x)


def _violation(F: Bifunction, gamma: float, x: np.ndarray, z: np.ndarray, Y: np.ndarray) -> float:
    """Largest violation of gamma F(z,y) + <z-x, y-z> >= 0 over sample Y.

    The sample is augmented with deterministic probes (projected origin and
    input, and coordinate-zeroed variants of z) because violations of
    piecewise-linear bifunctions concentrate in narrow windows around their
    kinks that a random sample can straddle.
    """
    C = F.set
    extras = [C.project(np.zeros_like(z)), C.project(x)]
    for i in range(z.size):
        if z[i] != 0.0:
            v = z.copy()
            v[i] = 0.0
            extras.append(C.project(v))
    residuals = _resolvent_residuals(F, gamma, x, z, np.vstack([Y, extras]))
    return float(max(0.0, -residuals.min()))


def inner_solve(
    F: Bifunction,
    gamma: float,
    x,
    tol: float = INNER_TOL,
    max_iter: int = 50000,
    *,
    step: float | None = None,
    seed: int = 0,
    samples: np.ndarray | None = None,
    return_info: bool = False,
):
    """Resolvent of a bifunction by projected subgradient steps.

    Iterates z <- P_C(z - sigma w) with w a subgradient of
    y -> gamma F(z, y) + <z - x, y> at y = z.  The step sigma comes from
    curvature bounds when the family exposes them and defaults to 0.5
    otherwise; it is halved whenever the sampled residual stops improving,
    which also handles nonsmooth limit cycles.  Accepts once the worst
    violation of the resolvent inequality over a seeded 64-point
    verification sample falls below ``tol`` and the iterate has settled.

    Raises :class:`ConvergenceFailure` carrying the last iterate and its
    residual when ``max_iter`` is exhausted.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    C = F.set
    x = as_vector(x, C.dimension)
    Y = samples if samples is not None else sample_points(C, CHECK_SAMPLE_SIZE, seed)
    sub = subgradient_second_arg(F)
    sigma = step if step is not None else _suggest_step(F, gamma)

    z = C.project(x)
    viol = _violation(F, gamma, x, z, Y)
    settle_tol = max(tol * 1e-3, 1e-15)
    if viol <= tol:
        return (z, {"iterations": 0, "violation": viol, "step": sigma}) if return_info else z

    best_z, best_viol = z, viol
    feasible = None  # best iterate already meeting the certificate
    stall = 0
    disp = np.inf
    iterations = max_iter
    for k in range(1, max_iter + 1):
        w = gamma * sub(z) + (z - x)
        z_new = C.project(z - sigma * w)
        disp = norm(z_new - z)
        z = z_new
        settled = disp <= max(settle_tol, 1e-13 * (1.0 + norm(z)))
        if settled or k % 16 == 0:
            viol = _violation(F, gamma, x, z, Y)
            if viol <= tol:
                if settled:
                    info = {"iterations": k, "violation": viol, "step": sigma}
                    return (z, info) if return_info else z
                if feasible is None or viol < feasible[1]:
                    feasible = (z.copy(), viol, k)
            if viol < best_viol * (1.0 - 1e-12) - 1e-18:
                best_z, best_viol = z, viol
                stall = 0
            else:
                stall += 1
                if stall >= 3:
                    # no certified progress: the step is too long for the
                    # local curvature (or the field is nonsmooth); shrink it
                    sigma *= 0.5
                    z = best_z.copy()
                    stall = 0
                    if sigma < 1e-12:
                        iterations = k
                        break
            if settled and viol > tol:
                settle_tol = max(settle_tol * 0.1, 1e-16)
    if feasible is not None:
        # certified but never settled (nonsmooth limit cycle shrunk onto the
        # solution); the certificate is the contract, so accept
        z, viol, k = feasible
        info = {"iterations": k, "violation": viol, "step": sigma}
        return (z, info) if return_info else z
    raise ConvergenceFailure(
        f"inner resolvent solve did not reach tolerance {tol:.1e} within {iterations} iterations "
        f"(residual {best_viol:.3e})",
        iterate=best_z,
        residual=best_viol,
        iterations=iterations,
    )


def _invert(A: np.ndarray, gamma: float) -> np.ndarray:
    """A^{-1} for A = I + gamma M; ValueError when it is singular."""
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"I + gamma M is singular at gamma = {gamma}; the operator is not monotone"
        ) from exc


def _linear_resolvent(matrix: np.ndarray, offset: np.ndarray, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
    """x -> (I + gamma M)^{-1} (x - gamma c), with the inverse formed once.

    Raises ValueError when I + gamma M is singular.
    """
    K = _invert(np.eye(matrix.shape[0]) + gamma * matrix, gamma)
    shift = gamma * offset
    return lambda x: K @ (x - shift)


#: pivoting passes without a drop in the infeasible count before the box
#: solver falls back to single pivots
BLOCK_PIVOT_PATIENCE = 3


def _box_linear_resolvent(
    matrix: np.ndarray, offset: np.ndarray, gamma: float, lo: np.ndarray, hi: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> the z in [lo, hi] with (I + gamma M) z + gamma c - x in -N_box(z).

    Block principal pivoting on the box linear complementarity problem
    (Judice & Pires, Comput. Oper. Res. 21, 1994).  Each coordinate is free,
    at lo or at hi, and all start free.  Every pass solves
    A_FF z_F = b_F - A_F,fixed z_fixed with A = I + gamma M and
    b = x - gamma c, then flips every infeasible coordinate: a free one
    outside the box, or a bound one whose w = A z - b has the wrong sign.
    After ``BLOCK_PIVOT_PATIENCE`` passes without a drop in the infeasible
    count only the largest-index one is flipped (Murty's rule), which
    terminates for every P-matrix A; monotone M gives sym(A) >= I, hence a
    P-matrix.  The returned point satisfies the KKT signs, which certify it
    exactly.

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

    def apply(x: np.ndarray) -> np.ndarray:
        b = x - shift
        tol = 1e-12 * (bound_scale + np.abs(b).max())
        free = np.ones(d, dtype=bool)
        at_hi = np.zeros(d, dtype=bool)
        z = K @ b
        best, patience = d + 1, BLOCK_PIVOT_PATIENCE
        for passes in range(1, max_pivots + 1):
            w = A @ z - b
            infeasible = (free & ((z < lo - tol) | (z > hi + tol))) | (
                ~free & ~pinned & np.where(at_hi, w > tol, w < -tol)
            )
            count = int(np.count_nonzero(infeasible))
            if count == 0:
                return np.minimum(np.maximum(z, lo), hi)
            if count < best:
                best, patience = count, BLOCK_PIVOT_PATIENCE
            elif patience > 0:
                patience -= 1
            else:
                last = np.flatnonzero(infeasible)[-1]
                infeasible = np.zeros(d, dtype=bool)
                infeasible[last] = True
            at_hi = (at_hi & ~infeasible) | (infeasible & free & (z > hi))
            free ^= infeasible
            z = np.where(at_hi, hi, lo)
            z[free] = 0.0
            if free.any():
                r = b - A @ z
                try:
                    z[free] = np.linalg.solve(A[free][:, free], r[free])
                except np.linalg.LinAlgError:
                    reason = f"singular block at pivoting pass {passes}"
                    break
        else:
            reason = f"no solution within {max_pivots} pivoting passes"
        z = np.minimum(np.maximum(b, lo), hi)
        raise ConvergenceFailure(
            f"box resolvent at gamma = {gamma}: {reason}; the operator is not monotone",
            iterate=z,
            residual=norm(z - np.minimum(np.maximum(z - (A @ z - b), lo), hi)),
            iterations=passes,
        )

    return apply


@dataclass(frozen=True)
class ResolventOracle:
    """Resolvent of ``gamma * bifunction`` with a fixed computation method.

    ``method`` is chosen from the family and set kind when not given; a
    forced closed form must be the one the family and set admit.  All
    per-(family, set, gamma) work, such as inverting I + gamma M, happens
    here, once.  The verification sample ``check_points`` is drawn on first
    read; closed forms never read it.  The oracle is immutable and
    :func:`resolve` is pure, so one oracle may be shared across concurrent
    solves.
    """

    gamma: float
    bifunction: Bifunction
    method: str | None = None
    inner_max_iter: int = 50000
    seed: int = 0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        natural = _choose_method(self.bifunction)
        method = self.method or natural
        if method not in METHODS:
            raise ValueError(f"unknown resolvent method {method!r}")
        if method not in (natural, INNER_ITERATIVE):
            raise ValueError(
                f"resolvent method {method!r} does not apply to a {self.bifunction.family} "
                f"bifunction over a {self.bifunction.set.kind} set"
            )
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "_apply", _build(self))

    @property
    def dimension(self) -> int:
        return self.bifunction.dimension

    @cached_property
    def check_points(self) -> np.ndarray:
        return sample_points(self.bifunction.set, CHECK_SAMPLE_SIZE, self.seed)


def _build(oracle: ResolventOracle) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> J x of a validated oracle, for its method."""
    F = oracle.bifunction
    C = F.set
    gamma = oracle.gamma
    if oracle.method == CLOSED_FORM_PROJECTION:
        shift = gamma * F.offset
        return lambda x: C.project(x - shift)
    if oracle.method == CLOSED_FORM_LINEAR_SOLVE:
        if C.kind == "box":
            return _box_linear_resolvent(F.matrix, F.offset, gamma, C.lo, C.hi)
        return _linear_resolvent(F.matrix, F.offset, gamma)
    if oracle.method == PROX_COMPOSITION:
        return _prox_composition(oracle)
    return lambda x: _inner_resolve(oracle, x)


def _inner_resolve(oracle: ResolventOracle, x: np.ndarray) -> np.ndarray:
    return inner_solve(
        oracle.bifunction,
        oracle.gamma,
        x,
        tol=INNER_TOL,
        max_iter=oracle.inner_max_iter,
        samples=oracle.check_points,
    )


def resolve(oracle: ResolventOracle, x) -> np.ndarray:
    """Apply the resolvent: the unique z in C with

    gamma F(z, y) + <z - x, y - z> >= 0 for all y in C, exact for the closed
    forms and certified up to -INNER_TOL over the verification sample for
    the inner iterative route.  Inner-solver exhaustion (or box pivoting
    that fails on a non-monotone operator) raises :class:`ConvergenceFailure`
    carrying the last iterate, which the caller may accept as an error term.
    """
    return oracle._apply(as_vector(x, oracle.dimension))


def reflect(oracle: ResolventOracle, x) -> np.ndarray:
    """Reflection 2 * resolve(x) - x; nonexpansive."""
    x = as_vector(x, oracle.dimension)
    return 2.0 * resolve(oracle, x) - x


def residual_certificate(oracle: ResolventOracle, x, z) -> float:
    """min over the verification sample of gamma F(z,y) + <z-x, y-z>.

    Nonnegative up to -INNER_TOL for a correct resolvent output.
    """
    x = as_vector(x, oracle.dimension)
    z = as_vector(z, oracle.dimension)
    residuals = _resolvent_residuals(oracle.bifunction, oracle.gamma, x, z, oracle.check_points)
    return float(residuals.min())


# ---------------------------------------------------------------------------
# prox composition: minimize gamma f(y) + ||y - x||^2 / 2 over C
# ---------------------------------------------------------------------------

def _prox_composition(oracle: ResolventOracle) -> Callable[[np.ndarray], np.ndarray]:
    F = oracle.bifunction
    C = F.set
    gamma = oracle.gamma
    f = F.function

    if C.kind == "whole-space":
        if isinstance(f, Quadratic):
            return _linear_resolvent(f.Q, f.q, gamma)
        if isinstance(f, WeightedL1):
            t = gamma * f.weights
            return lambda x: soft_threshold(x, t)
        if isinstance(f, AffineFunction):
            shift = gamma * f.a
            return lambda x: x - shift

    if C.kind == "box":
        if isinstance(f, Quadratic) and not f.separable:
            return _box_linear_resolvent(f.Q, f.q, gamma, C.lo, C.hi)
        # the other objectives are separable over a box, and the
        # constrained minimizer of a 1-D convex function on an interval is
        # the clamp of its unconstrained minimizer
        if isinstance(f, Quadratic):
            shift = gamma * f.q
            scale = 1.0 + gamma * np.diag(f.Q)
            return lambda x: C.project((x - shift) / scale)
        if isinstance(f, WeightedL1):
            t = gamma * f.weights
            return lambda x: C.project(soft_threshold(x, t))
        if isinstance(f, AffineFunction):
            shift = gamma * f.a
            return lambda x: C.project(x - shift)

    if f.curvature_bounds() is not None:
        max_iter = oracle.inner_max_iter
        return lambda x: _projected_gradient_prox(C, f, gamma, x, INNER_TOL, max_iter)
    # nonsmooth f over an unstructured set: generic variational route
    return lambda x: _inner_resolve(oracle, x)


def _projected_gradient_prox(C, f, gamma, x, tol, max_iter):
    """Projected gradient on the 1-strongly-convex prox objective."""
    _, L = f.curvature_bounds()
    sigma = 1.0 / (1.0 + gamma * L)
    z = C.project(x)
    target = max(tol * 1e-3, 1e-15)
    for k in range(max_iter):
        g = (z - x) + gamma * f.subgradient(z)
        z_new = C.project(z - sigma * g)
        disp = norm(z_new - z)
        z = z_new
        if disp <= target:
            return z
    raise ConvergenceFailure(
        f"projected-gradient prox did not settle within {max_iter} iterations",
        iterate=z,
        residual=disp,
        iterations=max_iter,
    )
