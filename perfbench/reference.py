"""Independent reference solutions, in numpy only.

Nothing here imports eqsplit: each reference is computed from the raw
workload inputs, before timing starts, so the answers the benchmark checks
against never share code with the solver they judge.
"""

from __future__ import annotations

import numpy as np

#: a reference iteration stops once its step falls below this, relative
#: to 1 + ||x||
STEP_TOL = 1e-15

#: natural-residual bound a reference must meet to be trusted
RESIDUAL_TOL = 1e-11


class ReferenceFailure(RuntimeError):
    """A reference iteration failed to reach its own accuracy."""


def clamp_box(v, lo, hi):
    return np.minimum(np.maximum(v, lo), hi)


def project_ball(v, center, radius):
    d = v - center
    r = float(np.linalg.norm(d))
    return v if r <= radius else center + (radius / r) * d


def soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def forward_backward_forward(op, prox, x0, lipschitz, max_iter=200_000):
    """Zero of op + N, where prox(v, t) is the resolvent of t * N.

    Tseng's forward-backward-forward iteration with step 0.9 / L converges
    linearly for a strongly monotone Lipschitz op, which every workload
    operator is (its symmetric part is at least 0.1 I).  Runs until the
    step is below STEP_TOL (relative) and then checks the natural residual
    ||x - prox(x - op(x), 1)||, which vanishes exactly at the solution.
    """
    t = 0.9 / lipschitz
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        fx = op(x)
        y = prox(x - t * fx, t)
        x_new = y - t * (op(y) - fx)
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        if step <= STEP_TOL * (1.0 + float(np.linalg.norm(x))):
            break
    residual = float(np.linalg.norm(x - prox(x - op(x), 1.0)))
    if not residual <= RESIDUAL_TOL * (1.0 + float(np.linalg.norm(x))):
        raise ReferenceFailure(f"reference iteration stalled at natural residual {residual:.3e}")
    return x


def affine_zero(M, c, prox):
    """Zero of x -> M x + c plus the operator whose resolvents are ``prox``."""
    L = float(np.linalg.norm(M, 2))
    return forward_backward_forward(lambda x: M @ x + c, prox, np.zeros(len(c)), L)


def linear_solve(M, rhs):
    """Solution of M x = rhs, checked by its residual."""
    x = np.linalg.solve(M, rhs)
    residual = float(np.linalg.norm(M @ x - rhs))
    if not residual <= RESIDUAL_TOL * (1.0 + float(np.linalg.norm(rhs))):
        raise ReferenceFailure(f"linear reference residual {residual:.3e}")
    return x


def accurate(y, ref, tol=1e-5) -> bool:
    """The acceptance rule: ||y - ref|| <= tol * (1 + ||ref||)."""
    y = np.asarray(y, dtype=float)
    if y.shape != ref.shape or not np.all(np.isfinite(y)):
        return False
    return float(np.linalg.norm(y - ref)) <= tol * (1.0 + float(np.linalg.norm(ref)))


#: the corpus instances in corpus order: dimension and analytic solution
#: set, given as a map from a point to the nearest solution
CORPUS = {
    "pure-feasibility": (2, lambda y: clamp_box(y, -1.0, 1.0)),
    "quadratic-1d": (1, lambda y: np.array([-0.5])),
    "vi-over-box": (2, lambda y: np.array([0.25, 1.0])),
    "mixed-equilibrium": (1, lambda y: np.array([1.0])),
    "skew-saddle": (2, lambda y: np.zeros(2)),
    "operator-bridge": (1, lambda y: np.array([1.0 / 3.0])),
}


def check_corpus_order(names):
    if list(names) != list(CORPUS):
        raise ReferenceFailure(f"corpus instances changed: {names}")


def corpus_accurate(i: int, y) -> bool:
    dim, nearest = list(CORPUS.values())[i]
    y = np.asarray(y, dtype=float)
    return y.shape == (dim,) and accurate(y, nearest(y))


def hausdorff(P, Q) -> float:
    """Hausdorff distance of two nonempty finite point sets."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)

    def one_sided(S, T):
        worst = 0.0
        for i in range(0, len(S), 256):
            d2 = ((S[i : i + 256, None, :] - T[None, :, :]) ** 2).sum(axis=2)
            worst = max(worst, float(np.sqrt(d2.min(axis=1).max())))
        return worst

    return max(one_sided(P, Q), one_sided(Q, P))
