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
operators are the ones induced by the bifunctions.  The relaxed update
with injected errors is written once (:func:`_relaxed_update`); a pass
without errors takes x + lambda (z - y) inline, and so, in effect, does
a pass whose error on y is lost to rounding: J_F is mapped again only
when y + b_n differs from y in its bytes.  :func:`dr_step` is one
pass of the core and :func:`residual_dr` its error-free half.  With
mu_n = lambda_n / 2 the update is the averaged (Krasnosel'skii-Mann)
iteration of the composed reflections R_F R_G (Eckstein & Bertsekas,
Math. Program. 55, 1992), so no separate fixed-point engine is kept.

The certificate of a solve is the gap min_{y in C} F(y*, y) + G(y*, y)
(Mastroeni, J. Global Optim. 27, 2003): exact for the separable forms
:func:`equilibrium_gap` covers, a few O(d) array operations per point,
and otherwise the minimum over a seeded sample of C
(:func:`equilibrium_certificate`), which can only overstate it.

Inputs are validated where they enter (:func:`solve`,
:func:`solve_operator_form`, :func:`dr_step`, :func:`residual_dr`); the
iteration core then runs on vectors it built itself and checks nothing
again, except that each pass's residual, and each injected error, must be
finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bifunctions import Bifunction, check_admissibility, sum_bifunctions
from .hilbert import _axis_values, as_points, as_vector, norm, sample_points
from .operators import MonotoneOperator, _separable
from .resolvents import ConvergenceFailure, ResolventOracle, resolvent_map

CONVERGED = "converged"
MAX_ITER = "max_iter"
INNER_FAILURE = "inner_failure"

#: size of the seeded sample of C behind a sampled certificate (a form
#: with no exact gap)
CERTIFICATE_SAMPLES = 256

#: largest rows x n x d temporary (float64 entries, 64 KiB) that one row
#: block of a stacked certificate builds
_CERTIFICATE_BLOCK_ENTRIES = 8192

_LAMBDA_MSG = "relaxation parameter must lie in the open interval (0, 2), got {}"


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool, which Python counts as an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_bool(value) -> bool:
    """A Python or numpy bool, which ``float`` and ``math`` read as 0 or 1."""
    return isinstance(value, (bool, np.bool_))


def _lambda_at(schedule, n: int) -> float:
    lam = float(schedule(n)) if callable(schedule) else float(schedule)
    if not 0.0 < lam < 2.0:
        raise ValueError(_LAMBDA_MSG.format(lam))
    return lam


def _first_lambda(schedule) -> float:
    """lambda_0 of a constant or callable schedule; a bool constant is
    rejected, not read as 1."""
    if _is_bool(schedule):
        raise ValueError(_LAMBDA_MSG.format(f"the bool {schedule!r}"))
    return _lambda_at(schedule, 0)


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


#: named error schedules; "none" gives no schedule, the error-free pass
ERROR_PRESETS = {
    "none": lambda dim: None,
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
    per iteration.  An error schedule is a function of n that returns a
    vector; it is called once per iteration and side, or once per iteration
    when both sides share one object, whose vector then moves both.
    Shipped presets are all summable against any admissible relaxation
    (``ERROR_PRESETS["none"]`` gives no schedule at all).
    ``seed``, a non-negative integer, fixes only the certificate sample (a
    form with no exact gap, :func:`equilibrium_gap`) and
    the draws of the sampled admissibility check (structured families are
    checked exactly and draw none; see :func:`solve`); no resolvent draws a
    sample.
    """

    gamma: float = 1.0
    lambda_schedule: float | Callable[[int], float] = 1.0
    error_schedule_a: Callable[[int], np.ndarray] | None = None
    error_schedule_b: Callable[[int], np.ndarray] | None = None
    max_iter: int = 10000
    residual_tol: float = 1e-8
    trace_every: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("gamma", "residual_tol"):
            value = getattr(self, name)
            if _is_bool(value) or not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not callable(self.lambda_schedule):
            _first_lambda(self.lambda_schedule)
        for name in ("max_iter", "trace_every"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class IterationTrace:
    """Per-iteration record of the iterates and residuals, one row per
    recorded pass: every ``trace_every``-th pass and the last one.  The
    solver appends each row to the five lists itself; ``residual_dr`` and
    ``step`` hold Python floats.

    ``x`` and ``y`` hold the iterates themselves, not copies: each pass of
    the solver makes new arrays and never writes into old ones.  Copy an
    entry before changing it.

    ``step`` holds lambda_n ||z_n - y_n||, the length of the update
    x_{n+1} - x_n, from the difference the pass applied (with its injected
    errors), not from subtracting consecutive iterates; a last row that
    ended the solve reads 0.0.
    """

    n: list = field(default_factory=list)
    x: list = field(default_factory=list)
    y: list = field(default_factory=list)
    residual_dr: list = field(default_factory=list)
    step: list = field(default_factory=list)

    def __len__(self):
        return len(self.n)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve.

    ``x_star`` is the governing fixed point iterate, ``y_star`` the reported
    solution (the shadow point of ``x_star``), both arrays of their own
    that share no memory with the trace, and ``certificate`` the worst
    equilibrium value min_y F(y*, y) + G(y*, y) over C (None when the solve
    was driven by bare operators).  It is the exact gap
    (:func:`equilibrium_gap`) where a closed form applies, and otherwise
    the least value over a seeded sample of ``CERTIFICATE_SAMPLES`` points
    (:func:`equilibrium_certificate`), which can only overstate the gap;
    ``certificate_exact`` says which, and reading it draws no sample.

    The certificate is computed the first time it is read, from a private
    copy of ``y_star`` taken when the solve ended, and kept from then on;
    it has the bits an eager computation would give, and writing into
    ``y_star`` does not change it.  Until then the result holds F, G, that
    copy and the seed, and drops them once the value is known.  Pickling a
    result computes the value first.
    """

    x_star: np.ndarray
    y_star: np.ndarray
    status: str
    iterations: int
    trace: IterationTrace
    #: the certificate's value, or (F, G, y, seed) until it is first read
    _certificate: float | tuple | None = field(default=None, repr=False, compare=False)
    #: whether the kept value is the exact gap; None until one is kept
    _exact: bool | None = field(default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def certificate(self) -> float | None:
        value = self._certificate
        if isinstance(value, tuple):
            F, G, y, seed = value
            value = equilibrium_gap(F, G, y)
            exact = value is not None
            if not exact:
                value = equilibrium_certificate(F, G, y, sample_points(F.set, CERTIFICATE_SAMPLES, seed))
            self._keep(value, exact)
        return value

    @property
    def certificate_exact(self) -> bool | None:
        """True when ``certificate`` is the exact gap, False when it is the
        sampled minimum, and None when there is no certificate.  Draws no
        sample: an exact value is computed and kept, a sampled one is left
        to the first read of ``certificate``."""
        value = self._certificate
        if not isinstance(value, tuple):
            return self._exact
        F, G, y, _ = value
        gap = equilibrium_gap(F, G, y)
        if gap is None:
            return False
        self._keep(gap, True)
        return True

    def _keep(self, value: float, exact: bool):
        object.__setattr__(self, "_certificate", value)
        object.__setattr__(self, "_exact", exact)

    def __getstate__(self):
        self.certificate
        return dict(self.__dict__)


def _relaxed_update(jf, x, y, z, diff, lam, a_n, b_n):
    """The relaxed update from the clean pass y = J_G x, z = J_F(2 y - x)
    and its difference diff = z - y.

    Injected errors move y by b_n and z by a_n, with z taken again at the
    reflection of the moved y; None means no error on that side.  When
    there is no b_n, or y + b_n has the bytes of y (the error is lost to
    rounding, as a summable error is once it falls below the spacing of
    the floats around y), y and its reflection are unmoved, so z is the
    clean z plus a_n and J_F is not mapped again: the bytes of mapping it
    again at the same point.  Returns (y, z, x + lam d, d) with d = z - y
    the applied difference; at lam 1, x + d, which has the same bits.
    """
    if b_n is not None:
        moved = y + b_n
        if moved.tobytes() != y.tobytes():
            y = moved
            z = jf(y + y - x)
            if a_n is None:
                diff = z - y
    if a_n is not None:
        z = z + a_n
        diff = z - y
    return y, z, x + (diff if lam == 1.0 else lam * diff), diff


def _same_dimension(a, b) -> int:
    """The common dimension of two resolvents or operators; ValueError if none."""
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} and {b.dimension}")
    return a.dimension


def dr_step(x_n, JF: ResolventOracle, JG: ResolventOracle, lambda_n: float, a_n=None, b_n=None):
    """One relaxed splitting step; returns (y_n, z_n, x_next).

    The same pass as one iteration of :func:`solve`: y from the resolvent
    of G plus error b, z from the resolvent of F at the reflected point
    plus error a, then the relaxed update.  A function of its inputs, up
    to the rounding noted at :func:`~eqsplit.resolvents.resolve`.  The
    inputs are validated once, here: an error must be a vector of shape
    (d,) with finite entries, checked and reported as :func:`solve` checks
    a schedule's error at iteration 0, and ``lambda_n`` a number in (0, 2)
    that is not a bool.
    """
    lam = _first_lambda(lambda_n)
    x_n = as_vector(x_n, _same_dimension(JF, JG))
    a_n = None if a_n is None else _error_at(lambda n: a_n, 0, x_n.size)
    b_n = None if b_n is None else _error_at(lambda n: b_n, 0, x_n.size)
    y = JG._apply(x_n)
    z = JF._apply(2.0 * y - x_n)
    return _relaxed_update(JF._apply, x_n, y, z, z - y, lam, a_n, b_n)[:3]


def residual_dr(x, JF: ResolventOracle, JG: ResolventOracle) -> float:
    """Reflection residual || R_F R_G x - x ||, with no injected errors.

    Computed as 2 || J_F(2 J_G x - x) - J_G x ||, which equals the
    reflection form exactly.
    """
    x = as_vector(x, _same_dimension(JF, JG))
    y = JG._apply(x)
    z = JF._apply(2.0 * y - x)
    return 2.0 * norm(z - y)


def _error_at(schedule, n: int, dim: int) -> np.ndarray:
    """The error ``schedule`` injects at step n, checked before it reaches a
    resolvent: it must be a vector of shape (dim,) with finite entries; a
    scalar is not broadcast.  :func:`dr_step` checks its errors here too,
    as the errors of step 0.  Finiteness is read entrywise, as the bytes of
    ``np.isfinite(e)`` against all True, so a finite vector whose squared
    norm overflows (entries near 1e200) passes with no warning."""
    e = np.asarray(schedule(n), dtype=float)
    if e.shape != (dim,):
        raise ValueError(f"error schedule at iteration {n} must give a vector of shape ({dim},), got shape {e.shape}")
    if np.isfinite(e).tobytes() != b"\x01" * dim:
        raise ValueError(f"error schedule at iteration {n} must give a finite vector, got {e!r}")
    return e


def _run_dr(jf, jg, x0: np.ndarray, cfg: SolverConfig, certify=None) -> SolveResult:
    """Shared iteration core for the bifunction and operator forms.

    ``jf``/``jg`` are unchecked resolvent maps of the scaled operators and
    ``x0`` a validated vector of their dimension.  Nothing is validated per
    pass beyond the finiteness of the residual (which covers y and z) and
    the shape and finiteness of each injected error, and the trace keeps
    each pass's fresh arrays, appended through the lists' bound methods.
    ``certify`` is the pair (F, G) whose certificate the result computes
    when it is first read, or None for a result with no certificate.
    Norms are taken inline as sqrt(v.dot(v)), the arithmetic of
    :func:`~eqsplit.hilbert.norm`.  A recorded row's step is lambda h:
    without injected errors h is the norm behind the residual 2 h, and
    with them the norm of the difference the update applied, taken on
    recorded rows only.  A constant lambda of 1 updates by x + (z - y),
    the bits of x + 1.0 (z - y) in one call.
    """
    x = x0
    trace = IterationTrace()
    add_n, add_x, add_y = trace.n.append, trace.x.append, trace.y.append
    add_residual, add_step = trace.residual_dr.append, trace.step.append
    dim = x0.size
    a_sched = cfg.error_schedule_a
    b_sched = cfg.error_schedule_b
    errors = a_sched is not None or b_sched is not None
    shared = a_sched is b_sched
    # a constant relaxation was validated by SolverConfig
    lam_schedule = cfg.lambda_schedule
    lam_constant = None if callable(lam_schedule) else float(lam_schedule)
    tol, max_iter, every = cfg.residual_tol, cfg.max_iter, cfg.trace_every
    unit = lam_constant == 1.0
    sqrt, isfinite = math.sqrt, math.isfinite
    status = MAX_ITER
    n = 0
    y_clean = None
    try:
        while True:
            y_clean = None  # J_G x of this pass, unknown until jg returns
            y_clean = jg(x)
            z_clean = jf(y_clean + y_clean - x)  # 2 y exactly, with no scalar to convert
            diff = z_clean - y_clean
            h = sqrt(diff.dot(diff))
            res = 2.0 * h
            if not isfinite(res):
                raise ValueError(f"non-finite resolvent values at iteration {n} (residual {res})")
            if res <= tol or n >= max_iter:
                if res <= tol:
                    status = CONVERGED
                add_n(n)
                add_x(x)
                add_y(y_clean)
                add_residual(res)
                add_step(0.0)
                break
            lam = lam_constant if lam_constant is not None else _lambda_at(lam_schedule, n)
            if errors:
                a_n = _error_at(a_sched, n, dim) if a_sched is not None else None
                b_n = a_n if shared else _error_at(b_sched, n, dim) if b_sched is not None else None
                y, _, x_next, diff = _relaxed_update(jf, x, y_clean, z_clean, diff, lam, a_n, b_n)
            else:
                y, x_next = y_clean, (x + diff if unit else x + lam * diff)
            if n % every == 0:
                add_n(n)
                add_x(x)
                add_y(y)
                add_residual(res)
                add_step(lam * (sqrt(diff.dot(diff)) if errors else h))
            x = x_next
            n += 1
    except ConvergenceFailure as failure:
        warnings.warn(f"inner resolvent failure at iteration {n}: {failure}")
        status = INNER_FAILURE
        if y_clean is None:
            # J_G itself failed at x: its last inner iterate is the best
            # available shadow point
            y_clean = failure.iterate if failure.iterate is not None else x

    # the trace keeps the last iterates themselves; the result owns copies,
    # and its certificate one more, which no caller can reach
    return SolveResult(
        x_star=x.copy(),
        y_star=y_clean.copy(),
        status=status,
        iterations=n,
        trace=trace,
        _certificate=None if certify is None else (*certify, y_clean.copy(), cfg.seed),
    )


def _as_rows(points, dim: int) -> tuple[np.ndarray, bool]:
    """(P, single): ``points`` as a finite (R, d) array, and whether it was
    one point of shape (d,)."""
    P = np.asarray(points, dtype=float)
    single = P.ndim < 2
    return as_points(P.reshape(1, -1) if single else P, dim), single


def equilibrium_gap(F: Bifunction, G: Bifunction, points) -> float | np.ndarray | None:
    """Exact min over y in C of F(p, y) + G(p, y): a float for a point p of
    shape (d,), an (R,) array for a stack of shape (R, d), or None when no
    closed form applies.

    With g = (M_F + M_G) p + c_F + c_G and the canonical part phi(y) =
    y'Qy / 2 + q'y + sum_i w_i |y_i| + k of F + G, the value at y is
    <g, y - p> + phi(y) - phi(p).  For a diagonal or absent Q it splits
    into one problem per axis, h_i(t) = a_i t^2 / 2 + b_i t + w_i |t| with
    a = diag Q and b = g + q, and the gap is sum_i h_i(t_i) - h_i(p_i) at
    the set's per-axis minimizer t (:meth:`~eqsplit.hilbert.ConvexSet._axis_min`).
    It applies when neither form has a generic part or a rest function, Q
    is diagonal or absent, and the set answers: a box, or the whole space
    when every a_i > 0.  Each row has the bits of its one-point call.  F
    and G must share their set object (``ValueError`` otherwise).
    """
    P, single = _as_rows(points, F.dimension)
    S = sum_bifunctions(F, G)
    terms = _separable(S)
    if terms is None:
        return None
    a, q, w, _ = terms
    # one matrix-vector product per row, so a row has its one-point bits
    g = np.zeros(P.shape) if S.matrix is None else np.matmul(S.matrix, P[:, :, None])[:, :, 0] + S.offset
    b = g + q
    T = S.set._axis_min(a, b, w)
    if T is None:
        return None
    out = (_axis_values(a, b, w, T) - _axis_values(a, b, w, P)).sum(axis=1)
    return float(out[0]) if single else out


def equilibrium_certificate(F: Bifunction, G: Bifunction, points, Y: np.ndarray) -> float | np.ndarray:
    """Worst equilibrium value min_y F(p, y) + G(p, y) over the rows of Y:
    a float for a point p of shape (d,), and an (R,) array, one value per
    row, for a stack of shape (R, d).

    ``Y`` holds points of C chosen by the caller; :func:`solve` passes a
    seeded sample of ``CERTIFICATE_SAMPLES`` points.  A stack runs in row
    blocks of :meth:`~eqsplit.bifunctions.Bifunction.eval_batch`, each at
    least one row and otherwise small enough that its rows x n x d
    temporary holds at most ``_CERTIFICATE_BLOCK_ENTRIES`` floats; every
    row equals its one-point call bit for bit.  :func:`equilibrium_gap`
    gives the exact value for the forms it covers.
    """
    P, single = _as_rows(points, F.dimension)
    out = np.empty(P.shape[0])
    step = max(1, _CERTIFICATE_BLOCK_ENTRIES // max(1, Y.shape[0] * P.shape[1]))
    for i in range(0, P.shape[0], step):
        block = P[i:i + step]
        out[i:i + step] = (F.eval_batch(block, Y) + G.eval_batch(block, Y)).min(axis=1)
    return float(out[0]) if single else out


def solve(
    F: Bifunction,
    G: Bifunction,
    x0,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Solve F(x, y) + G(x, y) >= 0 for all y in C by splitting resolvents.

    The two bifunctions must share their set object.  An admissibility
    diagnostic runs first on each side and only warns on failure.  It is
    exact for every bifunction with no generic part whose convex functions
    are shipped ones (one eigenvalue of the symmetric part of M, which for
    a nonzero M needs a whole space, ball, halfspace or box);
    every other bifunction gets a 16-sample diagnostic at ``cfg.seed``, and
    the warning says which.  Each resolvent's method follows from the
    bifunction's structure (see :class:`~eqsplit.resolvents.ResolventOracle`).
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if F.set is not G.set:
        raise ValueError("bifunctions must share one ConvexSet object")
    x0 = as_vector(x0, F.dimension)
    for tag, H in (("first", F), ("second", G)):
        report = check_admissibility(H, samples=16, seed=cfg.seed)
        if not report.passed:
            warnings.warn(f"{tag} bifunction: {report}")

    JF = ResolventOracle(cfg.gamma, F)
    JG = ResolventOracle(cfg.gamma, G)
    return _run_dr(resolvent_map(JF), resolvent_map(JG), x0, cfg, certify=(F, G))


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
    equilibrium certificate, so ``certificate`` is None.  A sum of terms
    has no resolvent and raises ``ValueError``.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    x0 = as_vector(x0, _same_dimension(A, B))
    maps = [H.resolvent_map(cfg.gamma) for H in (A, B)]
    return _run_dr(*maps, x0, cfg)

