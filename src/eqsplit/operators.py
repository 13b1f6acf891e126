"""Monotone operators, their bridge to bifunctions, and brute-force oracles.

An admissible bifunction F over C induces the maximally monotone operator

    x -> { u : F(x, y) + <x - y, u> >= 0 for all y in C }   (empty outside C)

whose resolvent coincides with the resolvent of F.  Every operator here is
the sum of the operators induced by its terms, a tuple of bifunctions
(:class:`MonotoneOperator`): the affine map x -> M x + c is induced by
<M x + c, y - x> over the whole space, the normal cone of C by the zero
bifunction on C, the subdifferential of f by f(y) - f(x), and a Minkowski
sum joins the terms of its operands.  Conversely a monotone operator A with
C inside the interior of its domain induces the bifunction
(x, y) -> max_{u in Ax} <y - x, u>.  Both directions are built here, along
with grid oracles that certify, on small instances, that zeros of operator
sums and solutions of summed equilibrium problems coincide.

Each term is read from the operator it induces,
A z + b + d l1(z) + sum d f(z) + N_C(z)
(:attr:`~eqsplit.bifunctions.Bifunction.induced`), and its function values
from the canonical part phi of its shipped functions and its rest f
(:attr:`~eqsplit.bifunctions.Bifunction.canonical`).  With no generic part
and no rest f, the image over a box or the whole space is a per-coordinate
interval (possibly unbounded), which a finite list of vectors could not
represent; it is evaluated over arrays of points at once
(:meth:`MonotoneOperator.evaluate_batch`), and a sum of such terms adds
their intervals and decides membership exactly.  Over any set, a term with
no generic part, no l1 and curvature bounds is single-valued plus the
normal cone, and decides membership exactly through the projection onto
C.  Every other one-term operator gets a sampled membership test.  The
grid oracles are array operations over the whole grid, blocked
so that no pair-value matrix outgrows a few tens of MB; the solution set
of a form that splits by axis over a box or the whole space needs no
pair values at all, only a per-axis lower envelope, and the 1-D zero scan
of a form with no rest f only a few candidate columns per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .bifunctions import (
    Bifunction,
    ConvexFunction,
    _l1_bounds,
    function_difference,
    generic_bifunction,
    operator_bifunction,
    zero_bifunction,
)
from .hilbert import ConvexSet, WholeSpace, as_points, as_vector, sample_points
from .resolvents import ResolventOracle, _smooth_part, partial_second, resolve, resolvent_map

#: default membership tolerance for sampled operator membership
MEMBER_TOL = 1e-8

#: seeded points of C behind sampled membership tests (seed 0)
MEMBER_SAMPLES = 256

#: the multipliers the zero scan searches
U_BOUNDS = (-10.0, 10.0)

#: entries of one row block of a pair-value matrix in the grid oracles
BLOCK_ENTRIES = 2**22


def _row_blocks(n_rows: int, n_cols: int, entries: int = BLOCK_ENTRIES):
    """Slices of at most ``entries // n_cols`` rows (at least one) covering n_rows."""
    step = max(1, int(entries // max(n_cols, 1)))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


# ---------------------------------------------------------------------------
# interval images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalImage:
    """Axis-aligned product of closed intervals, possibly unbounded."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("interval bounds must be matching 1-D arrays")
        if np.any(lo > hi):
            raise ValueError(f"crossed interval bounds: lo={lo}, hi={hi}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return self.lo.size

    def contains(self, u, tol: float = 0.0) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lo - tol) and np.all(u <= self.hi + tol))


def _has_intervals(F: Bifunction) -> bool:
    """Whether the operator induced by F has an interval image: no generic
    part and no rest f, over a set with ``_bounds`` (a box, the whole space)."""
    return F.induced is not None and not F.induced[3] and F.set._bounds is not None


def _interval_image(F: Bifunction, X: np.ndarray, tol: float = 1e-9):
    """(ok, lo, hi) of the operator induced by F (:func:`_has_intervals`)
    at the rows of X: A x + b + d l1(x) plus the normal cone of C, with ok
    False at rows outside C, where the image is empty."""
    C = F.set
    A, b, l1, _ = F.induced
    ok = C.contains_batch(X, tol)
    lo = np.where(X <= C._bounds[0] + tol, -np.inf, 0.0)
    hi = np.where(X >= C._bounds[1] - tol, np.inf, 0.0)
    g = 0.0 if A is None else X @ A.T
    if b is not None:
        g = g + b
    if l1 is None:
        return ok, g + lo, g + hi
    l1_lo, l1_hi = _l1_bounds(l1, X)
    return ok, g + l1_lo + lo, g + l1_hi + hi


def _witness_min(F: Bifunction, x: np.ndarray, u: np.ndarray) -> float:
    """Smallest value of y -> F(x, y) + <x - y, u> met by a short projected
    subgradient descent from P_C(x)."""
    C, grad = F.set, partial_second(F)
    y = C._project(x)
    best = float(F(x, y) + (x - y) @ u)
    step = 0.5
    for _ in range(60):
        y_new = C._project(y - step * (grad(x, y) - u))
        val = float(F(x, y_new) + (x - y_new) @ u)
        if val < best - 1e-16:
            best = val
        else:
            step *= 0.5
            if step < 1e-6:
                break
        y = y_new
    return best


# ---------------------------------------------------------------------------
# monotone operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MonotoneOperator:
    """The sum of the maximally monotone operators induced by ``terms``,
    admissible bifunctions of one dimension (at least one of them).

    Equality and hashing are by identity.  A one-term operator has the
    resolvent of its bifunction (:meth:`resolvent_map`); a sum has none.
    When every term has an interval image (no generic part and no rest f,
    over a box or the whole space) the image is their sum
    (:meth:`evaluate_batch`) and decides membership exactly.
    """

    terms: tuple[Bifunction, ...]
    name: str = ""

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("an operator needs at least one term")
        if any(H.dimension != terms[0].dimension for H in terms):
            raise ValueError("operator dimensions do not match")
        object.__setattr__(self, "terms", terms)

    @property
    def dimension(self) -> int:
        return self.terms[0].dimension

    @property
    def _intervals(self) -> bool:
        return all(map(_has_intervals, self.terms))

    @cached_property
    def _member_points(self) -> np.ndarray:
        # the sampled membership test's points, drawn on its first call
        return sample_points(self.terms[0].set, MEMBER_SAMPLES, 0)

    def _oracle(self, gamma: float) -> ResolventOracle:
        if len(self.terms) != 1:
            raise ValueError(f"operator {self.name!r} exposes no resolvent")
        return ResolventOracle(gamma, self.terms[0])

    def resolvent_map(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        """The map x -> J_{gamma A} x of a one-term operator (a sum raises
        ``ValueError``): :func:`~eqsplit.resolvents.resolvent_map`, which
        does not validate x.  The map is kept on the term for its last
        gamma, so only the first call at a gamma factors I + gamma A, and
        later calls at that gamma return the same map."""
        return resolvent_map(self._oracle(gamma))

    def resolvent(self, gamma: float, x) -> np.ndarray:
        """J_{gamma A} x for a one-term operator; ``x`` must be a finite
        vector of the operator's dimension."""
        return resolve(self._oracle(gamma), x)

    def evaluate_batch(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interval images at the rows of ``X``: ``(ok, lo, hi)``.

        ``ok`` is a boolean array, False where the image is empty (outside
        the domain); where it is True the image is ``[lo[i], hi[i]]``
        coordinate by coordinate, with infinite bounds for unbounded
        directions.  Raises ``ValueError`` when the operator has no
        interval form or ``X`` is not a finite (n, dimension) array.
        """
        if not self._intervals:
            raise ValueError(f"operator {self.name!r} exposes no interval evaluation")
        X = as_points(X, self.dimension)
        ok, lo, hi = _interval_image(self.terms[0], X)
        for H in self.terms[1:]:
            ok_h, lo_h, hi_h = _interval_image(H, X)
            ok, lo, hi = ok & ok_h, lo + lo_h, hi + hi_h
        return ok, lo, hi

    def evaluate(self, x) -> IntervalImage | None:
        """Interval image at ``x`` (None when empty): one row of ``evaluate_batch``."""
        ok, lo, hi = self.evaluate_batch(as_vector(x, self.dimension)[None, :])
        return IntervalImage(lo[0], hi[0]) if ok[0] else None

    def member(self, x, u, tol: float = MEMBER_TOL) -> bool:
        """Whether u belongs to the image at x, up to ``tol``: one row of ``member_batch``."""
        return bool(self.member_batch(x, as_vector(u, self.dimension)[None, :], tol)[0])

    def member_batch(self, x, U, tol: float = MEMBER_TOL) -> np.ndarray:
        """Membership of each row of ``U`` in the image at ``x``, up to ``tol``.

        Exact, from the interval image, for every operator that has one;
        otherwise, for a one-term operator, the projection test for
        single-valued structures or the sampled test (see
        :func:`operator_from_bifunction`).  A sum of terms without interval
        images has no test.  ``x`` must be a finite vector and ``U`` a
        finite 2-D array, both of width ``dimension``; anything else raises
        ``ValueError``.
        """
        x = as_vector(x, self.dimension)
        U = as_points(U, self.dimension)
        if self._intervals:
            ok, lo, hi = self.evaluate_batch(x[None, :])
            return ok[0] & np.all((U >= lo - tol) & (U <= hi + tol), axis=1)
        if len(self.terms) != 1:
            raise ValueError(f"operator {self.name!r} supports no membership test")
        F = self.terms[0]
        C = F.set
        inside = C.contains(x, max(tol, 1e-8))
        if F.canonical.w is None and F.curvature is not None:
            # u in g(x) + N_C(x) exactly when P_C(x + u - g(x)) = x
            moved = C._project_rows(x + (U - _smooth_part(F)(x, x))) - x
            return inside & (np.linalg.norm(moved, axis=1) <= tol)
        ok = np.zeros(U.shape[0], dtype=bool)
        if not inside:
            return ok
        # the sampled residual min_y F(x, y) + <u, x - y>, in row blocks of
        # U so a large multiplier grid never builds its whole matrix
        Y = self._member_points
        base = F.eval_batch(x, Y)
        D = (x - Y).T
        for rows in _row_blocks(U.shape[0], Y.shape[0]):
            ok[rows] = (U[rows] @ D + base).min(axis=1) >= -tol
        for i in np.flatnonzero(ok):
            ok[i] = _witness_min(F, x, U[i]) >= -tol
        return ok


def affine_operator(matrix, offset=None, name: str = "") -> MonotoneOperator:
    """Everywhere-defined single-valued affine map x -> M x + c.

    The operator induced by <M x + c, y - x> over the whole space; M must be
    square with a positive semidefinite symmetric part.
    """
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    sym_min = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
    if sym_min < -1e-10:
        raise ValueError(f"affine map is not monotone: min symmetric eigenvalue {sym_min:.3e}")
    F = operator_bifunction(WholeSpace(M.shape[0]), M, offset)
    return operator_from_bifunction(F, name=name or "affine")


def normal_cone_operator(C: ConvexSet) -> MonotoneOperator:
    """Normal cone map of C: the operator induced by the zero bifunction on C.

    Its resolvent is the projection for every gamma, and its membership
    is exact for every set kind.
    """
    kind = getattr(C, "kind", type(C).__name__)
    return operator_from_bifunction(zero_bifunction(C), name=f"normal-cone[{kind}]")


def subdifferential_operator(f: ConvexFunction, name: str = "") -> MonotoneOperator:
    """Subdifferential of a convex f on the whole space: the operator
    induced by f(y) - f(x).

    Membership is exact for the shipped functions and sampled for any other
    f, whose subgradient oracle may return one element of a larger set.
    """
    F = function_difference(WholeSpace(f.dimension), f)
    return operator_from_bifunction(F, name=name or "subdifferential")


def operator_sum(A: MonotoneOperator, B: MonotoneOperator, name: str = "") -> MonotoneOperator:
    """Pointwise Minkowski sum, for membership tests; exposes no resolvent.
    Its terms are those of A, then those of B; both need interval images."""
    if not (A._intervals and B._intervals):
        raise ValueError("operator sum needs interval evaluation on both terms")
    return MonotoneOperator(A.terms + B.terms, name or f"{A.name}+{B.name}")


# ---------------------------------------------------------------------------
# the bridge
# ---------------------------------------------------------------------------

def operator_from_bifunction(
    F: Bifunction,
    *,
    name: str = "",
) -> MonotoneOperator:
    """Maximally monotone operator induced by an admissible bifunction.

    The resolvent oracle is exactly the bifunction resolvent.  Membership
    is exact wherever the induced operator A z + b + d l1(z)
    + sum_rest d f(z) + N_C(z) of F (:attr:`~Bifunction.induced`) allows,
    which needs F to have no generic part and no rest f:

    * over a box or the whole space the image at x is the interval
      A x + b + d l1(x), plus the normal cone of C (empty outside C), and
      ``evaluate_batch`` returns it;
    * otherwise, with no l1 and with curvature bounds
      (:attr:`~Bifunction.curvature`), the structure is single-valued,
      g(x) = A x + b + sum_rest grad f(x), and u is in the image iff
      P_C(x + u - g(x)) = x; u is accepted when the two are at most
      ``tol`` apart, which holds within ``tol`` of the image, since P_C is
      nonexpansive.

    Neither draws a sample.  Every other bifunction gets the sampled test:
    u is rejected at x when any verification point y has
    F(x, y) + <x - y, u> < -tol, the points being ``MEMBER_SAMPLES`` seeded
    points of C, drawn on the first sampled test, plus a short
    projected-descent witness search on the rows that pass them (a random
    cloud alone can straddle the narrow violation window of a near-member
    u), so the batch test agrees with the one-point test.  Membership is
    False outside C, where the image is empty.
    """
    return MonotoneOperator((F,), name or "induced")


def bifunction_from_operator(A: MonotoneOperator, C: ConvexSet) -> Bifunction:
    """Bifunction (x, y) -> max_{u in Ax} <y - x, u> on C x C.

    Requires an interval evaluation oracle on A, and C inside the interior
    of dom A so the maximum is attained (the caller asserts this; an empty
    image or an unbounded support value raises).  An operator induced over
    the whole space by a bifunction whose induced operator is A z + b alone
    (no generic part, l1 or rest f) is single-valued and affine, and yields
    the bifunction <A x + b, y - x>, preserving closed-form resolvents.
    """
    if not A._intervals:
        raise ValueError(
            "bifunction construction needs an interval evaluation oracle; "
            "resolvent-only operators are not supported"
        )
    if A.dimension != C.dimension:
        raise ValueError("operator and set dimensions do not match")

    if len(A.terms) == 1 and isinstance(A.terms[0].set, WholeSpace):
        M, c, l1, _ = A.terms[0].induced
        if l1 is None:
            return operator_bifunction(C, np.zeros((C.dimension,) * 2) if M is None else M, c)

    def ev_batch(x, Y):
        image = A.evaluate(np.asarray(x, dtype=float))
        if image is None:
            raise ValueError(f"operator image is empty at {x!r}; C must lie inside int dom A")
        D = np.asarray(Y, dtype=float) - x
        pos = np.where(D > 0.0, D, 0.0)
        neg = np.where(D < 0.0, D, 0.0)
        hi = np.where(np.isfinite(image.hi), image.hi, 0.0)
        lo = np.where(np.isfinite(image.lo), image.lo, 0.0)
        out = pos @ hi + neg @ lo
        unbounded = (pos @ (~np.isfinite(image.hi)).astype(float) > 0.0) | (
            neg @ (~np.isfinite(image.lo)).astype(float) < 0.0
        )
        if np.any(unbounded):
            raise ValueError(f"support is unbounded at {x!r}; C must lie inside int dom A")
        return out

    return generic_bifunction(C, lambda x, y: ev_batch(x, y[None, :])[0], ev_batch)


# ---------------------------------------------------------------------------
# grid oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Regular grid covering a box, used by the brute-force oracles."""

    lo: np.ndarray
    hi: np.ndarray
    step: float

    def __post_init__(self):
        lo = as_vector(self.lo)
        hi = as_vector(self.hi, lo.size)
        if np.any(lo > hi):
            raise ValueError("grid bounds are crossed")
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return self.lo.size

    def axes(self) -> list[np.ndarray]:
        return [
            np.arange(self.lo[i], self.hi[i] + 0.5 * self.step, self.step)
            for i in range(self.dimension)
        ]

    def points(self) -> np.ndarray:
        axes = self.axes()
        if any(a.size == 0 for a in axes):
            raise ValueError("empty grid")
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def equilibrium_bruteforce(F: Bifunction, grid: GridSpec, tol: float | None = None) -> np.ndarray:
    """Grid approximation of the solution set {x in C : min_y F(x, y) >= 0}.

    Accepts grid points whose worst value over the grid restricted to C is
    at least ``-tol``.  The default slack 10 * step absorbs the Lipschitz
    quantization of the grid; degenerate instances whose residual is
    quadratic around the solution need a tighter, matched tolerance.

    A form over a box or the whole space with no generic part or rest f,
    whose canonical part phi splits by axis (no Q or a diagonal one), takes
    its worst values from a per-axis lower envelope: with g = M x + c,
    min_y <g, y> + phi(y) is a sum of one-axis minima, each found by a
    binary search on the discrete slopes of that axis's convex table and
    checked on a five-point window with the scan's own pair expression, in
    O(n log n) time and O(n) memory for n grid points.  Every other form (a generic part, any other
    set kind, a non-diagonal Q, a rest function) compares all pairs of
    grid points, as blocked matrix products for a structured form and one
    stacked ``eval_batch`` per row block with a generic part.

    In 1-D both routes round each pair value alike.  In 2-D the envelope's
    pair value is two rounded products and a rounded sum, while the gemm
    of the scan may fuse the second product into the sum (OpenBLAS does),
    so a grid point whose worst value is exactly ``-tol`` can be accepted
    by one route and not the other: skew-saddle (F + G) at step 0.1 and
    tol 1.0 reads -1.0 at x = (-0.8, -0.6) in the scan and
    -1.0000000000000002 in the envelope.
    """
    if grid.dimension > 2:
        raise ValueError("brute-force oracles are limited to dimension <= 2")
    if tol is None:
        tol = 10.0 * grid.step
    pts = grid.points()
    pts = pts[F.set.contains_batch(pts, 1e-9)]
    if pts.shape[0] == 0:
        raise ValueError("grid does not intersect the set")
    tables = _axis_tables(F, grid)
    worst = _pair_scan(F, pts) if tables is None else _envelope(F, pts, *tables)
    return pts[worst >= -tol].reshape(-1, grid.dimension)


def _scan_terms(F: Bifunction, pts: np.ndarray):
    """(G, f_vals, base) of a form with no generic part over the points
    ``pts``: its pair values are F(x_i, y_j) = G_i . y_j + f_vals_j - base_i."""
    f_vals = sum(F.canonical.batches(pts), np.zeros(pts.shape[0]))
    G = np.zeros_like(pts) if F.matrix is None else pts @ F.matrix.T + F.offset
    base = np.einsum("ij,ij->i", G, pts) + f_vals
    return G, f_vals, base


def _pair_scan(F: Bifunction, pts: np.ndarray) -> np.ndarray:
    """min_j F(x_i, y_j) over every pair of rows of ``pts``, in row blocks
    of at most ``BLOCK_ENTRIES`` pairs: matrix products for a form with no
    generic part, and one stacked ``eval_batch`` per block with one, whose
    rows equal one-point calls bit for bit."""
    n, d = pts.shape
    worst = np.empty(n)
    if F.oracles:
        # the stacked call holds about d + 3 block-sized arrays
        for rows in _row_blocks(n, n * (d + 3)):
            worst[rows] = F.eval_batch(pts[rows], pts).min(axis=1)
        return worst
    G, f_vals, base = _scan_terms(F, pts)
    for rows in _row_blocks(n, n):
        # in place, so one block-sized array is alive
        vals = G[rows] @ pts.T
        vals += f_vals
        vals -= base[rows, None]
        worst[rows] = vals.min(axis=1)
    return worst


def _axis_tables(F: Bifunction, grid: GridSpec):
    """(axes, tables) of the lower-envelope route: the grid axes restricted
    to C and, per axis i, the table of phi_i with sum_i phi_i(y_i) the
    canonical part phi of F (its constant k on the first axis).  None when
    that route does not apply: a generic part, a rest function, a set
    without ``_bounds`` (neither a box nor the whole space), or a non-diagonal Q."""
    bounds = F.set._bounds
    terms = None if bounds is None else _separable(F)
    if terms is None:
        return None
    # the slack of contains_batch(pts, 1e-9), so the restricted tensor grid
    # is the filtered grid, in the same row order
    axes = [a[(a >= lo - 1e-9) & (a <= hi + 1e-9)] for a, lo, hi in zip(grid.axes(), *bounds)]
    curvature, q, w, k = terms
    return axes, [
        0.5 * curvature[i] * a * a + q[i] * a + w[i] * np.abs(a) + (k if i == 0 else 0.0) for i, a in enumerate(axes)
    ]


def _separable(F: Bifunction) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    """:func:`_filled` of a form whose canonical part splits by axis: no
    generic part, no rest function and a Q that is diagonal or absent;
    None for every other form."""
    Q = F.canonical.Q
    if F.oracles or F.canonical.rest or (Q is not None and np.any(Q != np.diag(np.diag(Q)))):
        return None
    return _filled(F)


def _filled(F: Bifunction) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(diag Q, q, w, k) of the canonical part of F, with zeros for the
    terms it lacks."""
    Q, q, w, k, _ = F.canonical
    zero = np.zeros(F.dimension)
    return zero if Q is None else np.diag(Q), zero if q is None else q, zero if w is None else w, k or 0.0


#: offsets of the window around each axis minimizer found by binary search
_WINDOW = np.arange(-2, 3)


def _envelope(F: Bifunction, pts: np.ndarray, axes, tables) -> np.ndarray:
    """min_j F(x_i, y_j) over the tensor grid ``pts`` of ``axes`` for a
    separable form (:func:`_axis_tables`), from a per-axis lower envelope.

    On axis k, t -> g_k t + phi_k(t) is convex, so its minimizer is where
    the discrete slopes of phi_k cross -g_k (one ``searchsorted``).  Every
    combination of the windows j* - 2 .. j* + 2 on the axes is evaluated
    with the pair expression of :func:`_pair_scan`, whose rounding the
    window absorbs.
    """
    G, f_vals, base = _scan_terms(F, pts)
    n = pts.shape[0]
    J = np.zeros((n, 1), dtype=np.intp)  # flat indices of the candidates
    dots = np.zeros((n, 1))
    for k, (a, phi) in enumerate(zip(axes, tables)):
        # nondecreasing up to rounding, since phi_k is convex
        slopes = np.maximum.accumulate(np.diff(phi) / np.diff(a))
        j = np.searchsorted(slopes, -G[:, k])
        window = np.clip(j[:, None] + _WINDOW, 0, a.size - 1)
        J = (J[:, :, None] * a.size + window[:, None, :]).reshape(n, -1)
        dots = (dots[:, :, None] + G[:, k, None, None] * a[window][:, None, :]).reshape(n, -1)
    dots += f_vals[J]
    dots -= base[:, None]
    return dots.min(axis=1)


def _row_terms_1d(F: Bifunction, X: np.ndarray):
    """(g, fx) of a 1-D form with no generic part at the rows of X: the
    column g = M x + c (None when M and c vanish) and the values of phi and
    each rest f, as columns."""
    M, c = F.matrix, F.offset
    g = X @ M.T + c if M is not None and (M.any() or c.any()) else None
    return g, [v[:, None] for v in F.canonical.batches(X)]


def _quotients(D, g, fy, fx, delta, where=True):
    """(F(x, y) + delta) / (y - x) from D = y - x, the slope g of
    :func:`_row_terms_1d` (or None) and the f(y) and f(x) of phi and each
    rest f, all broadcasting against D; left undivided outside ``where``.  The zero
    scan's one expression, so an entry computed on gathered columns equals
    the full row's bit for bit."""
    # a pure function difference skips the vanishing affine product
    V = D * g if g is not None else 0.0 if fy else np.zeros(D.shape)
    for a, b in zip(fy, fx):
        V = a - b + V
    V += delta
    return np.divide(V, D, out=V, where=where)


def _interval_scan(F: Bifunction, X: np.ndarray, Y: np.ndarray, delta: float):
    """:func:`_admissible_intervals_1d` from every pair of rows, in row
    blocks of a quarter of ``BLOCK_ENTRIES`` pairs, because up to four
    block-sized arrays are alive at once.  The pair values come from the
    normal form of F; an F with a generic part is evaluated by one stacked
    ``eval_batch`` per block."""
    ulo = np.empty(X.shape[0])
    uhi = np.empty(X.shape[0])
    if not F.oracles:
        g, fx = _row_terms_1d(F, X)
        fy = [v[None, :] for v in F.canonical.batches(Y)]
    for rows in _row_blocks(X.shape[0], Y.shape[0], BLOCK_ENTRIES // 4):
        D = Y[None, :, 0] - X[rows]
        if F.oracles:
            V = F.eval_batch(X[rows], Y) + delta
            np.divide(V, D, out=V, where=D != 0.0)
        else:
            V = _quotients(D, None if g is None else g[rows], fy, [v[rows] for v in fx], delta, D != 0.0)
        uhi[rows] = np.min(V, axis=1, where=D > 0.0, initial=np.inf)
        ulo[rows] = np.max(V, axis=1, where=D < 0.0, initial=-np.inf)
    return ulo, uhi


#: positions, counted outward from x, of each side's candidate columns:
#: the three nearest, then the two farthest as offsets from the side's
#: column count m (``_FAR`` marks them); the candidate route keeps its
#: arrays as (candidate, side, row), so a min over candidates runs over
#: whole planes
_SIDE_POSITIONS = np.array([0, 1, 2, -2, -1]).reshape(5, 1, 1)
_FAR = np.array([0, 0, 0, 1, 1]).reshape(5, 1, 1)

#: the four columns around a point where a function bends, as offsets
#: from the first column at or above it, in the order of positions on the
#: sides y > x and y < x
_KINK = np.array([[-2, 1], [-1, 0], [0, -1], [1, -2]]).reshape(4, 2, 1)

#: column direction of the sides y > x (uhi) and y < x (ulo)
_DIRECTIONS = np.array([[1], [-1]])

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _admissible_intervals_1d(F: Bifunction, X: np.ndarray, Y: np.ndarray, delta: float):
    """Per row x of X, the exact interval [ulo, uhi] of multipliers u with
    F(x, y) + u (x - y) >= -delta for every row y of Y (points of C, 1-D).

    uhi is the least quotient V(x, y) = (F(x, y) + delta) / (y - x) over
    y > x, and ulo the largest over y < x.  For a form with no generic part
    or rest f, whose canonical part phi has no Q or Q >= 0, over a strictly
    increasing Y, the quotient is quasiconvex in the distance h = |y - x|
    on each side, as S = +V and S = -V: F(x, x + s h) = s h g
    + phi(x + s h) - phi(x) with phi convex, so the sign of dS/dh is that
    of s h phi'(x + s h) - phi(x + s h) + phi(x) - delta, whose derivative
    in h is h phi''(x + s h) >= 0.  Each row then evaluates a few candidate
    columns per side with the scan's own expression (:func:`_quotients`),
    so each value has the scan's bits: the three nearest columns, the two
    farthest and the four around the point where phi bends (0, with a w).
    A side's candidate minimum counts only with a certificate: S rises
    after the nearest columns, falls into the farthest, or falls into a
    bend's window and rises out of it, each step by more than four times a
    bound on the rounding of any gathered entry, so that every column left
    out is provably larger.  The bound divides by the least distance of a
    gathered column from its row, so rows need not be columns (a row
    nearer a column than the spacing widens the margin), takes each of
    phi's terms by magnitude, not its value, so it covers cancellation
    inside phi, and counts phi's terms.  A row without a certificate on
    both sides, or whose interval ends in 0.0 (a signed zero that the
    order of a min decides), is computed by the full-row scan
    (:func:`_interval_scan`), as is every row of a form with a generic part
    or a rest f.
    """
    y = Y[:, 0]
    n, N = y.size, X.shape[0]
    if F.oracles or n < 2 or N == 0:
        return _interval_scan(F, X, Y, delta)
    part = F.canonical
    curvature, q, w, k = _filled(F)
    # Q may pass the constructor down to -1e-10, which is not convex
    if part.rest or curvature[0] < 0.0 or not np.all(y[1:] > y[:-1]):
        return _interval_scan(F, X, Y, delta)
    reach = max(-y[0], y[-1], float(np.abs(X).max()))
    terms = 0.5 * curvature[0] * reach * reach + abs(q[0]) * reach + w[0] * reach + abs(k)
    bends = () if part.w is None else (0.0,)
    g, fx = _row_terms_1d(F, X)
    fy = part.batches(Y)
    slope = 0.0 if g is None else float(np.abs(g).max())
    if not 2.0 * (slope * reach + terms) + abs(delta) < 2.0**1000:
        # a value may overflow
        return _interval_scan(F, X, Y, delta)

    # the near and far candidates of both sides of every row, in one gather
    x = X[:, 0]
    g = None if g is None else g[:, 0]
    fx = [v[:, 0] for v in fx]
    p = y.searchsorted(x)
    q = y.searchsorted(x, "right")
    m = np.array((n - q, p))  # columns per side
    base = np.array((q, p - 1))  # the nearest column per side
    positions = [_SIDE_POSITIONS + m * _FAR]
    positions += [_DIRECTIONS * (y.searchsorted(t) + _KINK - base) for t in bends]
    cols = base + _DIRECTIONS * np.minimum(np.maximum(np.concatenate(positions), 0), m - 1)
    D = y[cols] - x
    # |S| at any gathered column, each at least ``near`` from its row (an
    # empty side gathers a column of the other side, or x itself, which no
    # certificate reads); each operation rounds an entry by at most eps
    # times this
    gathered = D != 0.0
    near = float(np.abs(D[gathered]).min())
    bound = slope + (2.0 * terms + abs(delta) + _TINY) / near + _TINY
    if not bound < 2.0**1000:
        # an entry may overflow
        return _interval_scan(F, X, Y, delta)
    margin = 4.0 * 8.0 * (part.terms + 2) * _EPS * bound
    S = _quotients(D, g, [v[cols] for v in fy], fx, delta, gathered) * _DIRECTIONS
    best = S.min(axis=0)
    best[m == 0] = np.inf
    # S rises after the near candidates, falls into the far ones, or falls
    # into a bend's window and rises out of it
    change = S[1:] - S[:-1]
    rises, falls = change > margin, change < -margin
    ok = (m <= len(_SIDE_POSITIONS)) | rises[1] | falls[3]
    for k in range(len(_SIDE_POSITIONS), len(S), len(_KINK)):
        ok |= falls[k] & rises[k + 2]

    ok &= best != 0.0
    ulo, uhi = -best[1], best[0]
    if not ok.all():
        redo = np.flatnonzero(~(ok[0] & ok[1]))
        ulo[redo], uhi[redo] = _interval_scan(F, X[redo], Y, delta)
    return ulo, uhi


def zeros_bruteforce(
    A: MonotoneOperator,
    B: MonotoneOperator,
    grid: GridSpec,
    *,
    tol: float | None = None,
    method: str = "auto",
) -> np.ndarray:
    """Grid approximation of { x : some u in ``U_BOUNDS`` has u in Ax and -u in Bx }.

    Routes, selected by ``method``:

    * ``intervals``: both operators expose interval evaluation; the image
      intersection test is exact and runs as array operations over the
      whole grid.
    * ``sampled``: 1-D only; the admissible multiplier set of each
      one-term operator over the grid sample is an exact interval,
      so existence over the continuum of multipliers is decided directly.
      For a bifunction with no generic part or rest f (only shipped
      ``Quadratic``, ``WeightedL1`` and ``AffineFunction`` parts), each
      grid point's interval comes from a few candidate columns, certified
      by the quasiconvexity of F(x, y) / (y - x) on each side of x
      (:func:`_admissible_intervals_1d`), in O(n) memory.  A generic part,
      a rest function and every uncertified row take blocked pair-value
      arrays F(x_i, y_j) over the full row, with one stacked
      ``eval_batch`` per block for a generic part.  Both give the same
      bits.

    ``auto`` takes ``intervals`` when both operators have interval images,
    else ``sampled`` on a 1-D grid with one-term operators, and raises
    ``ValueError`` otherwise.  ``tol`` defaults to the grid step
    (membership tolerance scaled to grid resolution).
    """
    if grid.dimension > 2:
        raise ValueError("brute-force oracles are limited to dimension <= 2")
    if A.dimension != B.dimension or A.dimension != grid.dimension:
        raise ValueError("operator and grid dimensions do not match")
    if tol is None:
        tol = grid.step
    lo_u, hi_u = U_BOUNDS
    if method == "auto":
        if A._intervals and B._intervals:
            method = "intervals"
        elif grid.dimension == 1 and len(A.terms) == len(B.terms) == 1:
            method = "sampled"
        else:
            raise ValueError(
                f"no exact zero route for {A.name!r} and {B.name!r}: both need interval images, "
                "or a 1-D grid and one term each"
            )

    pts = grid.points()

    if method == "intervals":
        ok_a, a_lo, a_hi = A.evaluate_batch(pts)
        ok_b, b_lo, b_hi = B.evaluate_batch(pts)
        # u in A x and -u in B x, inside U_BOUNDS
        lo = np.maximum(np.maximum(a_lo, -b_hi), lo_u)
        hi = np.minimum(np.minimum(a_hi, -b_lo), hi_u)
        return pts[ok_a & ok_b & np.all(lo <= hi + tol, axis=1)]

    if method != "sampled":
        raise ValueError(f"unknown zeros_bruteforce method {method!r}")
    if grid.dimension != 1:
        raise ValueError("the sampled interval route is 1-D only")
    if len(A.terms) != 1 or len(B.terms) != 1:
        raise ValueError("the sampled route needs one-term operators")
    (FA,), (FB,) = A.terms, B.terms
    in_a = FA.set.contains_batch(pts, 1e-9)
    in_b = FB.set.contains_batch(pts, 1e-9)
    X = pts[in_a & in_b]
    alo, ahi = _admissible_intervals_1d(FA, X, pts[in_a], tol)
    blo, bhi = _admissible_intervals_1d(FB, X, pts[in_b], tol)
    # need u in [alo, ahi] with -u in [blo, bhi], inside U_BOUNDS
    lo = np.maximum(np.maximum(alo, -bhi), lo_u)
    hi = np.minimum(np.minimum(ahi, -blo), hi_u)
    return X[lo <= hi]


def set_distance(P: np.ndarray, Q: np.ndarray) -> float:
    """Hausdorff distance between two finite point sets (inf if exactly one
    is empty, 0 if both are)."""
    P = np.asarray(P, dtype=float).reshape(len(P), -1) if len(P) else np.empty((0, 1))
    Q = np.asarray(Q, dtype=float).reshape(len(Q), -1) if len(Q) else np.empty((0, 1))
    if P.shape[0] == 0 and Q.shape[0] == 0:
        return 0.0
    if P.shape[0] == 0 or Q.shape[0] == 0:
        return float("inf")

    def one_sided(S, T):
        worst = 0.0
        for i in range(0, S.shape[0], 256):
            block = S[i : i + 256]
            d2 = ((block[:, None, :] - T[None, :, :]) ** 2).sum(axis=2)
            worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
        return worst

    return max(one_sided(P, Q), one_sided(Q, P))
