"""Inexact, relaxed Douglas-Rachford iteration for summed equilibrium problems.

Given two admissible bifunctions F and G over the same set, iterate

    y_n = J_{gamma G} x_n + b_n
    z_n = J_{gamma F} (2 y_n - x_n) + a_n
    x_{n+1} = x_n + lambda_n (z_n - y_n)

with relaxation lambda_n in (0, 2) and summable error sequences (a_n),
(b_n).  The governing fixed point x of the composed reflections satisfies
J_{gamma G} x in S_{F+G}, so the reported solution is the shadow point
J_{gamma G} applied to the final iterate, recomputed without injected
errors.  The computable surrogate driving the stopping rule is the
reflection residual || R_{gamma F} R_{gamma G} x_n - x_n ||, which vanishes
along the iteration.

The same loop, fed resolvents of two maximally monotone operators instead,
solves the inclusion 0 in A x + B x; both entry points share the iteration
core, so the two forms generate identical float sequences when the
operators are the ones induced by the bifunctions.  The relaxed update is
written once (:func:`_relaxed_update`); :func:`dr_step` is one pass of the
core and :func:`residual_dr` its error-free half.  With mu_n = lambda_n / 2
the update is the averaged (Krasnosel'skii-Mann) iteration of the composed
reflections R_F R_G (Eckstein & Bertsekas, Math. Program. 55, 1992), so no
separate fixed-point engine is kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .bifunctions import Bifunction, check_admissibility
from .hilbert import as_vector, norm, sample_points
from .operators import MonotoneOperator
from .resolvents import ConvergenceFailure, ResolventOracle, resolve

CONVERGED = "converged"
MAX_ITER = "max_iter"
INNER_FAILURE = "inner_failure"

#: size of the seeded sample of C behind the reported certificate
CERTIFICATE_SAMPLES = 256

_LAMBDA_MSG = "relaxation parameter must lie in the open interval (0, 2), got {}"


def _lambda_at(schedule, n: int) -> float:
    lam = float(schedule(n)) if callable(schedule) else float(schedule)
    if not 0.0 < lam < 2.0:
        raise ValueError(_LAMBDA_MSG.format(lam))
    return lam


def zero_errors(dim: int) -> Callable[[int], np.ndarray]:
    """No injected error."""
    z = np.zeros(dim)
    return lambda n: z


def geometric_errors(dim: int, c: float = 1.0, rho: float = 0.5, axis: int = 0):
    """Errors c * rho^n along a coordinate axis; summable for |rho| < 1."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("geometric error ratio must satisfy 0 <= rho < 1")
    e = np.zeros(dim)
    e[axis] = 1.0
    return lambda n: (c * rho**n) * e


def inverse_square_errors(dim: int, c: float = 1.0, axis: int = 0):
    """Errors c / (n+1)^2 along a coordinate axis; summable."""
    e = np.zeros(dim)
    e[axis] = 1.0
    return lambda n: (c / (n + 1.0) ** 2) * e


ERROR_PRESETS = {
    "none": lambda dim: zero_errors(dim),
    "geometric": lambda dim: geometric_errors(dim),
    "inverse-square": lambda dim: inverse_square_errors(dim),
}


def ramp_relaxation() -> Callable[[int], float]:
    """Relaxation schedule 2 - 1/(n+1): starts at 1 and approaches 2.

    Qualifies for convergence: lambda_n (2 - lambda_n) is of harmonic
    order, so its sum diverges.
    """
    return lambda n: 2.0 - 1.0 / (n + 1.0)


#: named relaxation schedules accepted by problem spec files
LAMBDA_PRESETS = {"ramp": ramp_relaxation}


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one solve.

    ``lambda_schedule`` is either a constant in (0, 2) or a callable
    n -> lambda_n; constant schedules automatically satisfy the divergence
    condition sum lambda_n (2 - lambda_n) = +inf, callables are validated
    per iteration.  Error schedules map n to a vector; shipped presets are
    all summable against any admissible relaxation.  ``seed`` fixes the
    resolvents' verification samples and the certificate sample.
    """

    gamma: float = 1.0
    lambda_schedule: float | Callable[[int], float] = 1.0
    error_schedule_a: Callable[[int], np.ndarray] | None = None
    error_schedule_b: Callable[[int], np.ndarray] | None = None
    max_iter: int = 10000
    residual_tol: float = 1e-8
    trace_every: int = 1
    inner_max_iter: int = 50000
    seed: int = 0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not callable(self.lambda_schedule):
            _lambda_at(self.lambda_schedule, 0)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


@dataclass
class IterationTrace:
    """Per-iteration record of the iterates and residuals."""

    n: list = field(default_factory=list)
    x: list = field(default_factory=list)
    y: list = field(default_factory=list)
    residual_dr: list = field(default_factory=list)
    step: list = field(default_factory=list)

    def record(self, n, x, y, residual, step):
        self.n.append(n)
        self.x.append(np.array(x))
        self.y.append(np.array(y))
        self.residual_dr.append(float(residual))
        self.step.append(float(step))

    def __len__(self):
        return len(self.n)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve.

    ``x_star`` is the governing fixed point iterate, ``y_star`` the reported
    solution (the shadow point of ``x_star``), and ``certificate`` the worst
    equilibrium value of ``y_star`` over a seeded sample (None when the
    solve was driven by bare operators).
    """

    x_star: np.ndarray
    y_star: np.ndarray
    status: str
    iterations: int
    trace: IterationTrace
    certificate: float | None

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _relaxed_update(jf, x, y, z, lam, a_n, b_n):
    """The relaxed update from the clean pass y = J_G x, z = J_F(2 y - x).

    Injected errors move y by b_n and z by a_n, with z taken again at the
    reflection of the moved y; None means no error on that side.  Returns
    (y, z, x + lam (z - y)).
    """
    if a_n is not None or b_n is not None:
        y = y + (b_n if b_n is not None else 0.0)
        z = jf(2.0 * y - x) + (a_n if a_n is not None else 0.0)
    return y, z, x + lam * (z - y)


def dr_step(x_n, JF: ResolventOracle, JG: ResolventOracle, lambda_n: float, a_n=None, b_n=None):
    """One relaxed splitting step; returns (y_n, z_n, x_next).

    Pure function of its inputs and the same pass as one iteration of
    :func:`solve`: y from the resolvent of G plus error b, z from the
    resolvent of F at the reflected point plus error a, then the relaxed
    update.
    """
    lam = _lambda_at(lambda_n, 0)
    x_n = as_vector(x_n, JG.dimension)
    a_n = None if a_n is None else as_vector(a_n, x_n.size)
    b_n = None if b_n is None else as_vector(b_n, x_n.size)
    jf = lambda v: resolve(JF, v)
    y = resolve(JG, x_n)
    return _relaxed_update(jf, x_n, y, jf(2.0 * y - x_n), lam, a_n, b_n)


def residual_dr(x, JF: ResolventOracle, JG: ResolventOracle) -> float:
    """Reflection residual || R_F R_G x - x ||, with no injected errors.

    Computed as 2 || J_F(2 J_G x - x) - J_G x ||, which equals the
    reflection form exactly.
    """
    x = as_vector(x, JG.dimension)
    y = resolve(JG, x)
    z = resolve(JF, 2.0 * y - x)
    return 2.0 * norm(z - y)


def _run_dr(jf, jg, x0: np.ndarray, cfg: SolverConfig) -> SolveResult:
    """Shared iteration core for the bifunction and operator forms.

    ``jf``/``jg`` are bare resolvent callables of the scaled operators.
    The result carries no certificate.
    """
    x = x0.copy()
    trace = IterationTrace()
    a_sched = cfg.error_schedule_a
    b_sched = cfg.error_schedule_b
    status = MAX_ITER
    n = 0
    y_clean = None
    try:
        while True:
            y_clean = None  # J_G x of this pass, unknown until jg returns
            y_clean = jg(x)
            z_clean = jf(2.0 * y_clean - x)
            res = 2.0 * norm(z_clean - y_clean)
            if res <= cfg.residual_tol:
                status = CONVERGED
                trace.record(n, x, y_clean, res, 0.0)
                break
            if n >= cfg.max_iter:
                trace.record(n, x, y_clean, res, 0.0)
                break
            lam = _lambda_at(cfg.lambda_schedule, n)
            a_n = a_sched(n) if a_sched is not None else None
            b_n = b_sched(n) if b_sched is not None else None
            y, _, x_next = _relaxed_update(jf, x, y_clean, z_clean, lam, a_n, b_n)
            if n % cfg.trace_every == 0:
                trace.record(n, x, y, res, norm(x_next - x))
            x = x_next
            n += 1
    except ConvergenceFailure as failure:
        warnings.warn(f"inner resolvent failure at iteration {n}: {failure}")
        status = INNER_FAILURE
        if y_clean is None:
            # J_G itself failed at x: its last inner iterate is the best
            # available shadow point
            y_clean = failure.iterate if failure.iterate is not None else x.copy()

    return SolveResult(
        x_star=x,
        y_star=y_clean if y_clean is not None else jg(x),
        status=status,
        iterations=n,
        trace=trace,
        certificate=None,
    )


def equilibrium_certificate(F: Bifunction, G: Bifunction, y_star, Y: np.ndarray) -> float:
    """Worst equilibrium value min_y F(y*, y) + G(y*, y) over the rows of Y.

    ``Y`` holds points of C chosen by the caller; :func:`solve` passes a
    seeded sample of ``CERTIFICATE_SAMPLES`` points.
    """
    y_star = as_vector(y_star, F.dimension)
    return float((F.eval_batch(y_star, Y) + G.eval_batch(y_star, Y)).min())


def solve(
    F: Bifunction,
    G: Bifunction,
    x0,
    cfg: SolverConfig | None = None,
    *,
    method_f: str | None = None,
    method_g: str | None = None,
    check_inputs: bool = True,
) -> SolveResult:
    """Solve F(x, y) + G(x, y) >= 0 for all y in C by splitting resolvents.

    The two bifunctions must share their set object.  A quick sampled
    admissibility diagnostic runs first and only warns on failure.
    ``method_f``/``method_g`` force a resolvent computation method (mainly
    to cross-check closed forms against the inner iterative route).
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if F.set is not G.set:
        raise ValueError("bifunctions must share one ConvexSet object")
    x0 = as_vector(x0, F.dimension)
    if check_inputs:
        for tag, H in (("first", F), ("second", G)):
            report = check_admissibility(H, samples=16, seed=cfg.seed)
            if not report.passed:
                warnings.warn(f"{tag} bifunction failed the sampled admissibility check: {report}")

    JF = ResolventOracle(cfg.gamma, F, method=method_f, inner_max_iter=cfg.inner_max_iter, seed=cfg.seed)
    JG = ResolventOracle(cfg.gamma, G, method=method_g, inner_max_iter=cfg.inner_max_iter, seed=cfg.seed)
    result = _run_dr(lambda v: resolve(JF, v), lambda v: resolve(JG, v), x0, cfg)
    Y = sample_points(F.set, CERTIFICATE_SAMPLES, cfg.seed)
    return replace(result, certificate=equilibrium_certificate(F, G, result.y_star, Y))


def solve_operator_form(
    A: MonotoneOperator,
    B: MonotoneOperator,
    x0,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Solve 0 in A x + B x with the same relaxed splitting iteration.

    ``B`` plays the role of the first resolvent in each step (its shadow
    point is the reported solution).  When A and B are the operators
    induced by two bifunctions this produces the same float sequence as
    :func:`solve` on those bifunctions.  Bare operators give no
    equilibrium certificate, so ``certificate`` is None.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    x0 = as_vector(x0, A.dimension)
    if A.resolvent_factory is None or B.resolvent_factory is None:
        raise ValueError("both operators must expose resolvents")
    jf = A.resolvent_factory(cfg.gamma)
    jg = B.resolvent_factory(cfg.gamma)
    return _run_dr(jf, jg, x0, cfg)

