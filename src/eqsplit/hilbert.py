"""Euclidean space primitives: vectors, inner products, and closed convex sets.

Every set is given by an exact projection oracle plus a membership test.
The public ``project`` validates its input once (:func:`as_vector`) and
runs the kind's private kernel ``_project``, which takes a finite float
vector of the set's dimension unchecked; code that builds its vectors
itself, such as the resolvent maps the solver drives, calls the kernel.
Membership is batched: ``contains_batch`` tests every row of a point array
at once, by a closed form for the whole space, boxes, balls, halfspaces and
the simplex, by the members' tests for an intersection (for these kinds
``contains`` is its one-row case), and by a row loop over ``contains`` for
the affine subspace and user-defined kinds.  All sets are immutable after
construction and their oracles are pure, so they can be shared freely
across concurrent solves.

Each set also answers for the closed forms other modules build on it:
``_bounds``, ``_full_span``, ``_axis_min``, ``_l1_prox`` and
``_project_rows``.  The base class gives the "no closed form" answer and
the kinds that have one override it, so only the CLI's spec format reads
``kind``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

#: Default absolute tolerance for membership tests.
MEMBERSHIP_TOL = 1e-10

#: stopping tolerance and sweep cap of Dykstra's projection onto an intersection
DYKSTRA_TOL = 1e-10
DYKSTRA_SWEEPS = 10000

#: standard deviation of the Gaussian draws behind :func:`sample_points`
SAMPLE_SCALE = 2.0


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float array (defensive copy).

    Raises ``ValueError`` on NaN/Inf entries, on non 1-D input, and on a
    dimension mismatch when ``dim`` is given.
    """
    v = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"vector has non-finite entries: {v!r}")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def as_points(P, dim: int | None = None) -> np.ndarray:
    """View ``P`` as a finite 2-D float array with one point per row.

    Raises ``ValueError`` on NaN/Inf entries, on input that is not 2-D, and
    on a width other than ``dim`` when it is given.  Unlike
    :func:`as_vector` it does not copy.
    """
    A = np.asarray(P, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D array of points, got shape {A.shape}")
    if dim is not None and A.shape[1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim} columns, got {A.shape[1]}")
    if not np.all(np.isfinite(A)):
        raise ValueError("points have non-finite entries")
    return A


def inner(a, b) -> float:
    """Euclidean inner product <a, b>. Hard error on dimension mismatch."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch in inner product: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def norm(v) -> float:
    """Euclidean norm induced by :func:`inner`: sqrt(v.dot(v)) over the
    flattened array, the arithmetic of ``np.linalg.norm`` and ``v @ v``, bit
    for bit, in a cheaper call.  A norm whose square overflows is ``inf``."""
    v = np.asarray(v, dtype=float).ravel()
    return math.sqrt(v.dot(v))


def _axis_values(a: np.ndarray, b: np.ndarray, w: np.ndarray, T: np.ndarray) -> np.ndarray:
    """a_i t^2 / 2 + b_i t + w_i |t| at every entry t of ``T``, with t on
    axis i: the one-dimensional problems a separable quadratic-plus-L1
    objective splits into (:meth:`ConvexSet._axis_min`)."""
    return 0.5 * a * T * T + b * T + w * np.abs(T)


def soft_threshold(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Componentwise shrinkage sign(x) * max(|x| - t, 0), computed as x
    minus x clipped to [-t, t], the clip one call of numpy's clip ufunc,
    which gives min(max(x, -t), t) with its bits.  A nonzero entry has the
    bits of the sign form: x - t above t, and below -t x + t, the negated
    rounding of |x| - t.  A zero entry is x - x = +0.0 wherever t_i > 0;
    where t_i = 0 the entry is x itself.

    A t that numpy broadcasts with stride 0, a scalar or a (d,) t against
    rows of width d = 1, runs clip's loop for constant bounds, which breaks
    a tie between zeros of opposite sign the other way: there a -0.0 entry
    with t_i = 0 gives +0.0, where min of max gives x itself.  No other bit
    differs."""
    return x - _clip(x, -t, t)


def _frozen_array(x, dim: int | None = None) -> np.ndarray:
    v = as_vector(x, dim)
    v.setflags(write=False)
    return v


def project_box(x, lo, hi) -> np.ndarray:
    """Componentwise clamp of ``x`` onto the box [lo, hi], min(max(x, lo),
    hi) in one call of numpy's clip ufunc."""
    x = as_vector(x)
    lo = as_vector(lo, x.size)
    hi = as_vector(hi, x.size)
    if np.any(lo > hi):
        raise ValueError(f"empty box: lo={lo} exceeds hi={hi}")
    return _clip(x, lo, hi)


def project_simplex(x) -> np.ndarray:
    """Euclidean projection onto the standard probability simplex.

    Uses the sort-and-shift rule: the projection is max(x - theta, 0) where
    theta is chosen so the positive part sums to one.
    """
    return _project_simplex(as_vector(x))


def _project_simplex(x: np.ndarray) -> np.ndarray:
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, x.size + 1)
    rho = np.nonzero(u * ks > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


class ConvexSet(ABC):
    """Nonempty closed convex set with an exact projection oracle.

    Attributes
    ----------
    dimension : int
        Ambient space dimension.
    kind : str
        Structural tag, one of ``whole-space``, ``box``, ``ball``,
        ``halfspace``, ``simplex``, ``affine-subspace``, ``intersection``.
    approximate : bool
        True when the projection is computed by an iterative scheme rather
        than a closed form (only the intersection fallback).
    """

    dimension: int
    kind: str
    approximate: bool = False
    #: (lo, hi) when the set is a product of intervals, ends maybe infinite
    _bounds: tuple[np.ndarray, np.ndarray] | None = None
    #: True when the differences C - C span the whole space
    _full_span: bool = False

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to ``x``, a new array.

        ``x`` must be a finite vector of the set's dimension (``ValueError``
        otherwise); it is checked once here, and the kind's unchecked
        kernel ``_project`` does the rest.
        """
        return self._project(as_vector(x, self.dimension))

    @abstractmethod
    def _project(self, x: np.ndarray) -> np.ndarray:
        """Nearest point to ``x``, a finite float vector of the set's
        dimension, unchecked; may return ``x`` itself."""

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        """Membership test: distance from ``x`` to the set is at most ``tol``."""
        x = as_vector(x, self.dimension)
        return norm(x - self._project(x)) <= tol

    def contains_batch(self, P, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Boolean array: whether each row of ``P`` lies in the set, up to ``tol``.

        Rows must be finite and ``dimension`` wide (``ValueError``
        otherwise).  This default runs ``contains`` row by row; the kinds
        with a closed-form test override it, and their ``contains`` is its
        one-row case.
        """
        P = as_points(P, self.dimension)
        return np.array([self.contains(p, tol) for p in P], dtype=bool)

    def _axis_min(self, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray | None:
        """Per-axis minimizers over the set: for each row of ``b``, an
        (R, d) array, the point T of the set whose entry T_i minimizes
        a_i t^2 / 2 + b_i t + w_i |t| (:func:`_axis_values`), with ``a`` and
        ``w`` (d,) arrays and w >= 0.  None when the set does not split by
        axis or a minimum may not be attained; that is this default, and
        the box and the whole space override it."""
        return None

    def _l1_prox(self, t: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
        """The map v -> argmin_z sum_i t_i |z_i| + ||z - v||^2 / 2 over the
        set (weights t >= 0, v unchecked) where it has a closed form; None
        otherwise, as in this default."""
        return None

    def _project_rows(self, P: np.ndarray) -> np.ndarray:
        """The projection of every row of ``P``, a finite (n, d) float array,
        unchecked, with the bits of ``_project`` on each row: one clip when
        the set has ``_bounds``, a row loop otherwise.  At d = 1 the clip
        runs its loop for constant bounds, and a zero entry against a zero
        bound of the other sign keeps its own sign (see
        :func:`soft_threshold`)."""
        if self._bounds is not None:
            return _clip(P, *self._bounds)
        return np.array([self._project(r) for r in P]).reshape(P.shape)


class _BatchedMembership(ConvexSet):
    """Kinds whose membership test works on whole arrays of points; the
    one-point test is the one-row case of ``contains_batch``."""

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return bool(self.contains_batch(as_vector(x, self.dimension)[None, :], tol)[0])


@dataclass(frozen=True)
class WholeSpace(_BatchedMembership):
    """The ambient space itself; projection is the identity."""

    dimension: int
    kind: str = field(default="whole-space", init=False)
    _full_span = True

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        d = self.dimension
        object.__setattr__(self, "_bounds", (np.broadcast_to(-np.inf, d), np.broadcast_to(np.inf, d)))

    def _project(self, x: np.ndarray) -> np.ndarray:
        return x

    def _project_rows(self, P: np.ndarray) -> np.ndarray:
        return P

    def contains_batch(self, P, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        return np.ones(as_points(P, self.dimension).shape[0], dtype=bool)

    def _axis_min(self, a, b, w):
        """soft(-b, w) / a when every a_i > 0; None otherwise, since an axis
        with a_i <= 0 may have no minimum."""
        return soft_threshold(-b, w) / a if np.all(a > 0.0) else None

    def _l1_prox(self, t):
        """soft_threshold(v, t), bit for bit, as one closure over local
        names that forms -t once: two ufunc calls per v, a clip and a
        subtraction."""
        clip, neg = _clip, -t
        return lambda v: v - clip(v, neg, t)


@dataclass(frozen=True)
class Box(_BatchedMembership):
    """Axis-aligned box {x : lo <= x <= hi}."""

    lo: np.ndarray
    hi: np.ndarray
    kind: str = field(default="box", init=False)

    def __post_init__(self):
        object.__setattr__(self, "lo", _frozen_array(self.lo))
        object.__setattr__(self, "hi", _frozen_array(self.hi, self.lo.size))
        if np.any(self.lo > self.hi):
            raise ValueError(f"empty box: lo={self.lo} exceeds hi={self.hi}")
        object.__setattr__(self, "_bounds", (self.lo, self.hi))

    @property
    def dimension(self) -> int:
        return self.lo.size

    def _project(self, x: np.ndarray) -> np.ndarray:
        return _clip(x, self.lo, self.hi)

    def contains_batch(self, P, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        P = as_points(P, self.dimension)
        return np.all((P >= self.lo - tol) & (P <= self.hi + tol), axis=1)

    def _axis_min(self, a, b, w):
        """An axis problem is convex where a_i >= 0, so its minimum over
        [lo_i, hi_i] is its unconstrained one clipped: soft / a_i, or where
        a_i = 0 the end that soft points to (the kink 0 for a zero soft).
        Where a_i < 0 it is concave on each side of 0, so the least of lo_i,
        hi_i and clip(0) is taken."""
        lo, hi = self.lo, self.hi
        soft = soft_threshold(-b, w)
        run = np.where(soft > 0.0, hi, np.where(soft < 0.0, lo, 0.0))
        T = _clip(np.divide(soft, a, out=run, where=a > 0.0), lo, hi)
        concave = a < 0.0
        if concave.any():
            ends = np.broadcast_to(lo, T.shape)
            for c in (hi, _clip(0.0, lo, hi)):
                ends = np.where(_axis_values(a, b, w, c) < _axis_values(a, b, w, ends), c, ends)
            T = np.where(concave, ends, T)
        return T

    def _l1_prox(self, t):
        """The objective separates: ``_project(soft_threshold(v, t))``, bit
        for bit, as one closure over local names that forms -t once: three
        ufunc calls per v, two clips and a subtraction."""
        clip, neg = _clip, -t
        lo, hi = self.lo, self.hi
        return lambda v: clip(v - clip(v, neg, t), lo, hi)


@dataclass(frozen=True)
class Ball(_BatchedMembership):
    """Closed Euclidean ball of given center and radius."""

    center: np.ndarray
    radius: float
    kind: str = field(default="ball", init=False)
    _full_span = True

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen_array(self.center))
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"ball radius must be positive and finite, got {self.radius!r}")

    @property
    def dimension(self) -> int:
        return self.center.size

    def _project(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        r = norm(d)
        if r <= self.radius:
            return x
        return self.center + (self.radius / r) * d

    def contains_batch(self, P, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        P = as_points(P, self.dimension)
        return np.linalg.norm(P - self.center, axis=1) <= self.radius + tol

    def _l1_prox(self, t):
        """For a ball centred at 0, KKT gives z = s / (1 + mu) with
        s = soft_threshold(v, t) and mu = max(0, ||s|| / r - 1), which is
        P_C(s); None for any other centre."""
        return None if self.center.any() else lambda v: self._project(soft_threshold(v, t))


@dataclass(frozen=True)
class Halfspace(_BatchedMembership):
    """Halfspace {x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float
    kind: str = field(default="halfspace", init=False)
    _full_span = True

    def __post_init__(self):
        object.__setattr__(self, "normal", _frozen_array(self.normal))
        if norm(self.normal) == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        if not math.isfinite(self.offset):
            raise ValueError(f"halfspace offset must be finite, got {self.offset!r}")

    @property
    def dimension(self) -> int:
        return self.normal.size

    def _project(self, x: np.ndarray) -> np.ndarray:
        excess = inner(self.normal, x) - self.offset
        if excess <= 0.0:
            return x
        return x - (excess / inner(self.normal, self.normal)) * self.normal

    def contains_batch(self, P, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        P = as_points(P, self.dimension)
        return P @ self.normal <= self.offset + tol * max(1.0, norm(self.normal))

    def _l1_prox(self, t):
        """KKT gives z = soft_threshold(v - lam a, t) with lam >= 0 and
        lam = 0 unless phi(lam) = a' soft_threshold(v - lam a, t) equals
        beta.  phi is nonincreasing and linear between its breakpoints,
        where |v_i - lam a_i| = t_i.  The first breakpoint with phi <= beta
        closes the segment holding the root; on it the active coordinates S
        and their signs s are fixed, so lam = (sum_S a_i (v_i - s_i t_i) -
        beta) / sum_S a_i^2 exactly."""
        a, beta = self.normal, self.offset
        moving = a != 0.0
        a_m, t_m = a[moving], t[moving]

        def prox(v):
            z = soft_threshold(v, t)
            if a @ z <= beta:
                return z
            v_m = v[moving]
            lam = np.concatenate(((v_m - t_m) / a_m, (v_m + t_m) / a_m))
            lam = np.sort(lam[lam > 0.0])
            below = soft_threshold(v - lam[:, None] * a, t) @ a <= beta
            k = int(np.argmax(below)) if below.any() else lam.size
            left = lam[k - 1] if k else 0.0
            w = v - (0.5 * (left + lam[k]) if k < lam.size else left + 1.0) * a
            active = np.abs(w) > t
            s = np.sign(w[active])
            root = (a[active] @ (v[active] - s * t[active]) - beta) / (a[active] @ a[active])
            return soft_threshold(v - root * a, t)

        return prox


@dataclass(frozen=True)
class Simplex(_BatchedMembership):
    """Standard probability simplex {x >= 0, sum x_i = 1}."""

    dimension: int
    kind: str = field(default="simplex", init=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def _project(self, x: np.ndarray) -> np.ndarray:
        return _project_simplex(x)

    def contains_batch(self, P, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        P = as_points(P, self.dimension)
        return np.all(P >= -tol, axis=1) & (np.abs(P.sum(axis=1) - 1.0) <= tol * self.dimension)

    def _l1_prox(self, t):
        """|z| = z on the simplex, so it is P_C(v - t)."""
        return lambda v: self._project(v - t)


@dataclass(frozen=True)
class AffineSubspace(ConvexSet):
    """Affine subspace {x : A x = b}; projection via the pseudoinverse of A."""

    A: np.ndarray
    b: np.ndarray
    kind: str = field(default="affine-subspace", init=False)

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a matrix")
        b = _frozen_array(self.b, A.shape[0])
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        pinv = np.linalg.pinv(A)
        pinv.setflags(write=False)
        object.__setattr__(self, "_pinv", pinv)

    @property
    def dimension(self) -> int:
        return self.A.shape[1]

    def _project(self, x: np.ndarray) -> np.ndarray:
        return x - self._pinv @ (self.A @ x - self.b)


@dataclass(frozen=True)
class IntersectionSet(_BatchedMembership):
    """Intersection of convex sets, projected by Dykstra's alternating scheme.

    The cyclic corrections make the limit the metric projection onto the
    intersection rather than an arbitrary intersection point.  The result is
    approximate: iteration stops once a full sweep moves the iterate and
    its corrections by at most ``DYKSTRA_TOL`` or after ``DYKSTRA_SWEEPS``
    sweeps.
    """

    members: tuple
    kind: str = field(default="intersection", init=False)
    approximate: bool = field(default=True, init=False)

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 1:
            raise ValueError("intersection needs at least one member set")
        dims = {m.dimension for m in members}
        if len(dims) != 1:
            raise ValueError(f"member sets disagree on dimension: {dims}")
        object.__setattr__(self, "members", members)

    @property
    def dimension(self) -> int:
        return self.members[0].dimension

    def _project(self, x: np.ndarray) -> np.ndarray:
        m = len(self.members)
        corrections = [np.zeros_like(x) for _ in range(m)]
        z = x.copy()
        for _ in range(DYKSTRA_SWEEPS):
            start = z.copy()
            moved = 0.0
            for i, s in enumerate(self.members):
                w = z + corrections[i]
                z = s._project(w)
                new_corr = w - z
                # the iterate alone can repeat across sweeps while the
                # corrections still evolve, so both must settle
                moved += norm(new_corr - corrections[i])
                corrections[i] = new_corr
            if norm(z - start) + moved <= DYKSTRA_TOL:
                break
        return z

    def contains_batch(self, P, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        P = as_points(P, self.dimension)
        return np.logical_and.reduce([s.contains_batch(P, tol) for s in self.members])


def sample_points(C: ConvexSet, n: int, seed: int) -> np.ndarray:
    """Deterministic sample of ``n`` points of ``C``: project(gaussian).

    Draws N(0, SAMPLE_SCALE^2 I) vectors with a seeded generator and
    projects them onto ``C`` with ``C._project_rows``, whose rows carry the
    bits of the set's projection kernel.  Returns an (n, d) array.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    return C._project_rows(rng.normal(0.0, SAMPLE_SCALE, size=(n, C.dimension)))
