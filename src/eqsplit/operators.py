"""Monotone operators, their bridge to bifunctions, and brute-force oracles.

An admissible bifunction F over C induces the maximally monotone operator

    x -> { u : F(x, y) + <x - y, u> >= 0 for all y in C }   (empty outside C)

whose resolvent coincides with the resolvent of F.  Conversely a monotone
operator A with C inside the interior of its domain induces the bifunction
(x, y) -> max_{u in Ax} <y - x, u>.  Both directions are built here, along
with grid oracles that certify, on small instances, that zeros of operator
sums and solutions of summed equilibrium problems coincide.

Set-valued images are represented as per-coordinate intervals (possibly
unbounded), which covers every supported family: single-valued maps,
subdifferentials of the supported convex functions, and normal cones of
boxes.  A finite list of vectors cannot represent the latter two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bifunctions import (
    FUNCTION_DIFFERENCE,
    OPERATOR_INDUCED,
    SUM_OF_TWO,
    AffineFunction,
    Bifunction,
    ConvexFunction,
    Quadratic,
    WeightedL1,
    function_difference,
    operator_bifunction,
)
from .hilbert import ConvexSet, WholeSpace, as_vector, sample_points
from .resolvents import ResolventOracle, _linear_resolvent, partial_second, resolve

#: default membership tolerance for sampled operator membership
MEMBER_TOL = 1e-8

#: seeded points of C behind sampled membership tests (seed 0)
MEMBER_SAMPLES = 256

#: default multiplier search box and grid step for the zero scan
U_BOUNDS = (-10.0, 10.0)
U_STEP = 1e-2


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

    @classmethod
    def point(cls, v) -> "IntervalImage":
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return cls(v, v)

    @property
    def dimension(self) -> int:
        return self.lo.size

    def contains(self, u, tol: float = 0.0) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lo - tol) and np.all(u <= self.hi + tol))

    def support(self, d) -> float:
        """sup over the image of <u, d>; +inf when unbounded that way."""
        d = np.asarray(d, dtype=float)
        total = 0.0
        for di, lo, hi in zip(d, self.lo, self.hi):
            if di > 0.0:
                total += hi * di
            elif di < 0.0:
                total += lo * di
        return float(total)

    def __add__(self, other: "IntervalImage") -> "IntervalImage":
        return IntervalImage(self.lo + other.lo, self.hi + other.hi)

    def negate(self) -> "IntervalImage":
        return IntervalImage(-self.hi, -self.lo)


def normal_cone_image(C: ConvexSet, x, tol: float = 1e-9) -> IntervalImage | None:
    """Normal cone of a box or the whole space at ``x``; None when x is outside.

    Only these kinds have axis-aligned cones; other set kinds are handled by
    sampled membership.
    """
    x = as_vector(x, C.dimension)
    if C.kind == "whole-space":
        z = np.zeros(C.dimension)
        return IntervalImage(z, z)
    if C.kind != "box":
        raise ValueError(f"no interval normal cone for set kind {C.kind!r}")
    if not C.contains(x, tol):
        return None
    lo = np.empty(C.dimension)
    hi = np.empty(C.dimension)
    for i in range(C.dimension):
        at_lo = x[i] <= C.lo[i] + tol
        at_hi = x[i] >= C.hi[i] - tol
        lo[i] = -np.inf if at_lo else 0.0
        hi[i] = np.inf if at_hi else 0.0
    return IntervalImage(lo, hi)


# ---------------------------------------------------------------------------
# monotone operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneOperator:
    """Set-valued monotone map given through oracles.

    ``resolvent_factory(gamma)`` returns the single-valued resolvent of
    ``gamma * A`` (None when no resolvent route exists, e.g. for bare
    Minkowski sums used only in membership tests).  ``evaluate`` maps a
    point to the interval image of A there (None value = empty image),
    and is itself None when no finite representation exists.
    """

    dimension: int
    domain_set: ConvexSet
    resolvent_factory: Callable[[float], Callable[[np.ndarray], np.ndarray]] | None = None
    evaluate: Callable[[np.ndarray], IntervalImage | None] | None = None
    member_fn: Callable[[np.ndarray, np.ndarray, float], bool] | None = None
    member_batch_fn: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None
    affine_form: tuple[np.ndarray, np.ndarray] | None = None
    source_bifunction: Bifunction | None = None
    name: str = ""

    def resolvent(self, gamma: float, x) -> np.ndarray:
        if self.resolvent_factory is None:
            raise ValueError(f"operator {self.name!r} exposes no resolvent")
        return self.resolvent_factory(gamma)(as_vector(x, self.dimension))

    def member(self, x, u, tol: float = MEMBER_TOL) -> bool:
        """Whether u belongs to the image at x, up to ``tol``."""
        x = as_vector(x, self.dimension)
        u = as_vector(u, self.dimension)
        if self.member_fn is not None:
            return self.member_fn(x, u, tol)
        if self.evaluate is not None:
            image = self.evaluate(x)
            return image is not None and image.contains(u, tol)
        raise ValueError(f"operator {self.name!r} supports no membership test")

    def member_batch(self, x, U, tol: float = MEMBER_TOL) -> np.ndarray:
        """Vectorized membership over the rows of ``U``."""
        x = as_vector(x, self.dimension)
        U = np.asarray(U, dtype=float)
        if self.member_batch_fn is not None:
            return self.member_batch_fn(x, U, tol)
        if self.member_fn is not None:
            return np.array([self.member_fn(x, u, tol) for u in U], dtype=bool)
        image = self.evaluate(x) if self.evaluate is not None else None
        if image is None:
            return np.zeros(U.shape[0], dtype=bool)
        return np.all((U >= image.lo - tol) & (U <= image.hi + tol), axis=1)


def affine_operator(matrix, offset=None, name: str = "") -> MonotoneOperator:
    """Everywhere-defined single-valued affine map x -> M x + c."""
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    d = M.shape[0]
    c = as_vector(offset, d) if offset is not None else np.zeros(d)
    sym_min = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
    if sym_min < -1e-10:
        raise ValueError(f"affine map is not monotone: min symmetric eigenvalue {sym_min:.3e}")
    M.setflags(write=False)
    c.setflags(write=False)

    return MonotoneOperator(
        dimension=d,
        domain_set=WholeSpace(d),
        resolvent_factory=lambda gamma: _linear_resolvent(M, c, gamma),
        evaluate=lambda x: IntervalImage.point(M @ as_vector(x, d) + c),
        affine_form=(M, c),
        name=name or "affine",
    )


def normal_cone_operator(C: ConvexSet) -> MonotoneOperator:
    """Normal cone map of C.  Its resolvent is the projection for every gamma."""
    evaluate = None
    member_fn = None
    if C.kind in ("box", "whole-space"):
        evaluate = lambda x: normal_cone_image(C, x)
    else:
        Y = sample_points(C, MEMBER_SAMPLES, 0)

        def member_fn(x, u, tol=MEMBER_TOL):
            if not C.contains(x, max(tol, 1e-8)):
                return False
            return float(np.max((Y - x) @ u)) <= tol

    return MonotoneOperator(
        dimension=C.dimension,
        domain_set=C,
        resolvent_factory=lambda gamma: C.project,
        evaluate=evaluate,
        member_fn=member_fn,
        name=f"normal-cone[{C.kind}]",
    )


def _subdifferential_image(f: ConvexFunction, x: np.ndarray) -> IntervalImage:
    if isinstance(f, WeightedL1):
        lo, hi = f.subdifferential_bounds(x)
        return IntervalImage(lo, hi)
    return IntervalImage.point(f.subgradient(x))


def subdifferential_operator(f: ConvexFunction, name: str = "") -> MonotoneOperator:
    """Subdifferential of a supported convex f on the whole space."""
    d = f.dimension
    H = WholeSpace(d)
    bif = function_difference(H, f)

    def factory(gamma):
        oracle = ResolventOracle(gamma, bif)
        return lambda x: resolve(oracle, x)

    affine_form = None
    if isinstance(f, Quadratic):
        affine_form = (f.Q, f.q)
    elif isinstance(f, AffineFunction):
        affine_form = (np.zeros((d, d)), f.a)

    return MonotoneOperator(
        dimension=d,
        domain_set=H,
        resolvent_factory=factory,
        evaluate=lambda x: _subdifferential_image(f, as_vector(x, d)),
        affine_form=affine_form,
        name=name or "subdifferential",
    )


def operator_sum(A: MonotoneOperator, B: MonotoneOperator, name: str = "") -> MonotoneOperator:
    """Pointwise Minkowski sum, for membership tests; exposes no resolvent."""
    if A.dimension != B.dimension:
        raise ValueError("operator dimensions do not match")
    if A.evaluate is None or B.evaluate is None:
        raise ValueError("operator sum needs interval evaluation on both terms")

    def evaluate(x):
        a = A.evaluate(x)
        b = B.evaluate(x)
        if a is None or b is None:
            return None
        return a + b

    return MonotoneOperator(
        dimension=A.dimension,
        domain_set=A.domain_set if A.domain_set.kind != "whole-space" else B.domain_set,
        evaluate=evaluate,
        name=name or f"{A.name}+{B.name}",
    )


# ---------------------------------------------------------------------------
# the bridge
# ---------------------------------------------------------------------------

def _structural_image_fn(F: Bifunction):
    """Exact interval evaluation of the operator induced by F, when the
    family and set kind allow one; otherwise None."""
    C = F.set
    if C.kind not in ("box", "whole-space"):
        return None

    def base(bif, x):
        if bif.family == OPERATOR_INDUCED:
            return IntervalImage.point(bif.matrix @ x + bif.offset)
        if bif.family == FUNCTION_DIFFERENCE:
            return _subdifferential_image(bif.function, x)
        if bif.family == SUM_OF_TWO:
            left = base(bif.parts[0], x)
            right = base(bif.parts[1], x)
            if left is None or right is None:
                return None
            return left + right
        return None

    if base(F, np.zeros(C.dimension)) is None:
        return None

    def evaluate(x):
        x = as_vector(x, C.dimension)
        cone = normal_cone_image(C, x)
        if cone is None:
            return None
        return base(F, x) + cone

    return evaluate


def operator_from_bifunction(
    F: Bifunction,
    *,
    name: str = "",
) -> MonotoneOperator:
    """Maximally monotone operator induced by an admissible bifunction.

    The resolvent oracle is exactly the bifunction resolvent.  Membership
    of u in the image at x is rejected when any verification point y has
    F(x, y) + <x - y, u> < -tol; the verification points are
    ``MEMBER_SAMPLES`` seeded points of C plus a short projected-descent
    witness search on y -> F(x, y) + <x - y, u> (a random cloud alone can
    straddle the narrow violation window of a near-member u).  The batch
    test runs the search only on the rows that pass the sampled test, so
    it agrees with the one-point test.  Membership is False outside C,
    where the image is empty.  When the family and set kind
    permit, an exact interval evaluation is attached as well.
    """
    C = F.set
    Y = sample_points(C, MEMBER_SAMPLES, 0)
    grad = partial_second(F)

    def witness_min(x, u):
        # projected subgradient descent on the membership residual
        y = C.project(x)
        best = float(F(x, y) + (x - y) @ u)
        step = 0.5
        for _ in range(60):
            y_new = C.project(y - step * (grad(x, y) - u))
            val = float(F(x, y_new) + (x - y_new) @ u)
            if val < best - 1e-16:
                best = val
            else:
                step *= 0.5
                if step < 1e-6:
                    break
            y = y_new
        return best

    def member_batch_fn(x, U, tol=MEMBER_TOL):
        if not C.contains(x, max(tol, 1e-8)):
            return np.zeros(U.shape[0], dtype=bool)
        vals = F.eval_batch(x, Y)[None, :] + U @ (x - Y).T
        ok = vals.min(axis=1) >= -tol
        for i in np.flatnonzero(ok):
            ok[i] = witness_min(x, U[i]) >= -tol
        return ok

    def member_fn(x, u, tol=MEMBER_TOL):
        return bool(member_batch_fn(x, u[None, :], tol)[0])

    def factory(gamma):
        oracle = ResolventOracle(gamma, F)
        return lambda x: resolve(oracle, x)

    affine_form = None
    if F.family == OPERATOR_INDUCED and C.kind == "whole-space":
        affine_form = (F.matrix, F.offset)
    elif (
        F.family == FUNCTION_DIFFERENCE
        and C.kind == "whole-space"
        and isinstance(F.function, Quadratic)
    ):
        affine_form = (F.function.Q, F.function.q)

    return MonotoneOperator(
        dimension=C.dimension,
        domain_set=C,
        resolvent_factory=factory,
        evaluate=_structural_image_fn(F),
        member_fn=member_fn,
        member_batch_fn=member_batch_fn,
        affine_form=affine_form,
        source_bifunction=F,
        name=name or "induced",
    )


def bifunction_from_operator(A: MonotoneOperator, C: ConvexSet) -> Bifunction:
    """Bifunction (x, y) -> max_{u in Ax} <y - x, u> on C x C.

    Requires an interval evaluation oracle on A, and C inside the interior
    of dom A so the maximum is attained (the caller asserts this; an
    unbounded support value raises).  Single-valued affine operators yield
    an operator-induced bifunction, preserving closed-form resolvents.
    """
    if A.evaluate is None:
        raise ValueError(
            "bifunction construction needs an interval evaluation oracle; "
            "resolvent-only operators are not supported"
        )
    if A.dimension != C.dimension:
        raise ValueError("operator and set dimensions do not match")

    if A.affine_form is not None:
        M, c = A.affine_form
        return operator_bifunction(C, M, c)

    def ev(x, y):
        image = A.evaluate(np.asarray(x, dtype=float))
        if image is None:
            raise ValueError(f"operator image is empty at {x!r}; C must lie inside int dom A")
        s = image.support(np.asarray(y, dtype=float) - x)
        if not math.isfinite(s):
            raise ValueError(
                f"support is unbounded at {x!r}; C must lie inside int dom A"
            )
        return s

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
            raise ValueError("support is unbounded; C must lie inside int dom A")
        return out

    from .bifunctions import generic_bifunction

    return generic_bifunction(C, ev, ev_batch)


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


def _affine_plus_difference_parts(F: Bifunction):
    """Flatten F into operator-induced and function-difference parts, or None."""
    if F.family == OPERATOR_INDUCED:
        return [(F.matrix, F.offset)], []
    if F.family == FUNCTION_DIFFERENCE:
        return [], [F.function]
    if F.family == SUM_OF_TWO:
        left = _affine_plus_difference_parts(F.parts[0])
        right = _affine_plus_difference_parts(F.parts[1])
        if left is None or right is None:
            return None
        return left[0] + right[0], left[1] + right[1]
    return None


def equilibrium_bruteforce(F: Bifunction, grid: GridSpec, tol: float | None = None) -> np.ndarray:
    """Grid approximation of the solution set {x in C : min_y F(x, y) >= 0}.

    Accepts grid points whose worst value over the grid restricted to C is
    at least ``-tol``.  The default slack 10 * step absorbs the Lipschitz
    quantization of the grid; degenerate instances whose residual is
    quadratic around the solution need a tighter, matched tolerance.
    Structured families run as blocked matrix products; generic oracles
    fall back to a per-point scan.
    """
    if grid.dimension > 2:
        raise ValueError("brute-force oracles are limited to dimension <= 2")
    if tol is None:
        tol = 10.0 * grid.step
    C = F.set
    pts = grid.points()
    inside = np.array([C.contains(p, 1e-9) for p in pts])
    pts = pts[inside]
    n = pts.shape[0]
    if n == 0:
        raise ValueError("grid does not intersect the set")

    parts = _affine_plus_difference_parts(F)
    if parts is None:
        accepted = [x for x in pts if float(F.eval_batch(x, pts).min()) >= -tol]
        return np.array(accepted).reshape(-1, grid.dimension)

    affines, funcs = parts
    d = grid.dimension
    M = sum((m for m, _ in affines), np.zeros((d, d)))
    c = sum((off for _, off in affines), np.zeros(d))
    f_vals = sum((f.value_batch(pts) for f in funcs), np.zeros(n))
    G = pts @ M.T + c
    base = np.einsum("ij,ij->i", G, pts) + f_vals
    keep = np.empty(n, dtype=bool)
    block = max(1, int(2**22 // max(n, 1)))
    for i in range(0, n, block):
        vals = G[i : i + block] @ pts.T + f_vals[None, :] - base[i : i + block, None]
        keep[i : i + block] = vals.min(axis=1) >= -tol
    return pts[keep].reshape(-1, grid.dimension)


def _admissible_interval_1d(F: Bifunction, x: float, Y: np.ndarray, delta: float):
    """Exact interval of multipliers u with F(x,y) + u (x - y) >= -delta
    for every sample y.  Y is an (n, 1) array of points of C."""
    d = (Y[:, 0] - x)
    vals = F.eval_batch(np.array([x]), Y) + delta
    pos = d > 0.0
    neg = d < 0.0
    uhi = float(np.min(vals[pos] / d[pos])) if np.any(pos) else np.inf
    ulo = float(np.max(vals[neg] / d[neg])) if np.any(neg) else -np.inf
    return ulo, uhi


def zeros_bruteforce(
    A: MonotoneOperator,
    B: MonotoneOperator,
    grid: GridSpec,
    *,
    u_bounds: tuple[float, float] = U_BOUNDS,
    u_step: float | None = U_STEP,
    tol: float | None = None,
    method: str = "auto",
) -> np.ndarray:
    """Grid approximation of { x : some u has u in Ax and -u in Bx }.

    Routes, selected by ``method``:

    * ``intervals``: both operators expose interval evaluation; the image
      intersection test is exact (the multiplier grid is bypassed).
    * ``sampled``: 1-D only; the admissible multiplier set of each
      bifunction-backed operator over the grid sample is an exact interval,
      so existence over the continuum of multipliers inside ``u_bounds`` is
      decided directly.
    * ``ugrid``: scan a discrete multiplier grid of step ``u_step`` with
      sampled membership tests.  The generic fallback; quantization limits
      its resolution to about ``u_step``.

    ``tol`` defaults to the grid step (membership tolerance scaled to grid
    resolution).
    """
    if grid.dimension > 2:
        raise ValueError("brute-force oracles are limited to dimension <= 2")
    if A.dimension != B.dimension or A.dimension != grid.dimension:
        raise ValueError("operator and grid dimensions do not match")
    if tol is None:
        tol = grid.step
    lo_u, hi_u = u_bounds
    if method == "auto":
        if A.evaluate is not None and B.evaluate is not None:
            method = "intervals"
        elif (
            grid.dimension == 1
            and A.source_bifunction is not None
            and B.source_bifunction is not None
        ):
            method = "sampled"
        else:
            method = "ugrid"

    pts = grid.points()
    accepted = []

    if method == "intervals":
        for x in pts:
            a = A.evaluate(x)
            b = B.evaluate(x)
            if a is None or b is None:
                continue
            target = b.negate()
            lo = np.maximum(np.maximum(a.lo, target.lo), lo_u)
            hi = np.minimum(np.minimum(a.hi, target.hi), hi_u)
            if np.all(lo <= hi + tol):
                accepted.append(x)

    elif method == "sampled":
        if grid.dimension != 1:
            raise ValueError("the sampled interval route is 1-D only")
        FA = A.source_bifunction
        FB = B.source_bifunction
        if FA is None or FB is None:
            raise ValueError("the sampled route needs bifunction-backed operators")
        CA, CB = FA.set, FB.set
        YA = pts[np.array([CA.contains(p, 1e-9) for p in pts])]
        YB = pts[np.array([CB.contains(p, 1e-9) for p in pts])]
        for x in pts:
            xs = float(x[0])
            if not (CA.contains(x, 1e-9) and CB.contains(x, 1e-9)):
                continue
            alo, ahi = _admissible_interval_1d(FA, xs, YA, tol)
            blo, bhi = _admissible_interval_1d(FB, xs, YB, tol)
            # need u in [alo, ahi] with -u in [blo, bhi], inside u_bounds
            lo = max(alo, -bhi, lo_u)
            hi = min(ahi, -blo, hi_u)
            if lo <= hi:
                accepted.append(x)

    elif method == "ugrid":
        if u_step is None:
            raise ValueError("the multiplier grid route needs a u_step")
        axes = [np.arange(lo_u, hi_u + 0.5 * u_step, u_step)] * grid.dimension
        mesh = np.meshgrid(*axes, indexing="ij")
        U = np.stack([m.ravel() for m in mesh], axis=1)
        for x in pts:
            ok = A.member_batch(x, U, tol)
            if ok.any() and B.member_batch(x, -U[ok], tol).any():
                accepted.append(x)

    else:
        raise ValueError(f"unknown zeros_bruteforce method {method!r}")

    return np.array(accepted).reshape(-1, grid.dimension)


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
