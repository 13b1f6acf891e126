"""Bifunctions H(x, y) on C x C, stored as their normal form

    H(x, y) = <M x + c, y - x> + sum_f f(y) - f(x) + sum_g g(x, y),

with an affine operator part x -> M x + c, convex functions f with exact
oracles, and generic parts g known only through evaluation oracles.  The
constructors build the form, a sum adds the operator parts and joins the
rest, and the spec writer reads these fields.

The shipped functions of a form are one part,
phi(y) = 1/2 y'Qy + q'y + sum_i w_i |y_i| + k (:attr:`Bifunction.canonical`),
and the functions of any other type are its rest.  That property is the
one place that tells the shipped types apart, by exact type, since a
subclass may override their oracles; every reader of a form's functions
reads phi's fields and the rest.  Without a generic part the form induces
the maximally monotone operator A z + b + d l1(z) + sum_rest d f(z)
+ N_C(z), with A = M + Q, b = c + q and l1 the weights w, which has the
same resolvent as the bifunction (:attr:`Bifunction.induced`).  The
resolvents, the operator bridge and the admissibility check read it.

A bifunction is admissible for the solver when it vanishes on the diagonal,
is monotone (H(x,y) + H(y,x) <= 0), is convex and lower semicontinuous in
its second argument, and is hemicontinuous in its first.  With no generic
part and only shipped convex functions these conditions come down to one
eigenvalue of the symmetric part of M, and :func:`check_admissibility`
decides them exactly; for every other bifunction they cannot be certified
from an evaluation oracle, and it runs a seeded, sampled diagnostic instead.
Either way it reports worst violations; construction never rejects a
bifunction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import Callable, NamedTuple

import numpy as np

from .hilbert import ConvexSet, as_vector, sample_points

# ---------------------------------------------------------------------------
# Supported convex functions (the f in bifunctions of the form f(y) - f(x))
# ---------------------------------------------------------------------------

class ConvexFunction(ABC):
    """Convex function with exact value and subgradient oracles."""

    @abstractmethod
    def value(self, y: np.ndarray) -> float: ...

    @abstractmethod
    def value_batch(self, Y: np.ndarray) -> np.ndarray:
        """Values at each row of ``Y``."""

    @abstractmethod
    def subgradient(self, y: np.ndarray) -> np.ndarray:
        """One element of the subdifferential at ``y``."""

    def curvature_bounds(self) -> tuple[float, float] | None:
        """(mu, L) bounds on the (sub)gradient field, or None if unbounded."""
        return None


@dataclass(frozen=True)
class Quadratic(ConvexFunction):
    """f(y) = 1/2 y'Qy + q'y with Q symmetric positive semidefinite."""

    Q: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square matrix")
        if not np.all(np.isfinite(Q)):
            raise ValueError(f"Q must be finite, got {Q!r}")
        # np.allclose(Q, Q.T, atol=1e-12) written out, the same test for a
        # finite Q without np.isclose's handling of inf and nan
        if not np.all(np.abs(Q - Q.T) <= 1e-12 + 1e-5 * np.abs(Q.T)):
            raise ValueError("Q must be symmetric")
        q = as_vector(self.q, Q.shape[0])
        eigs = np.linalg.eigvalsh(Q)
        if eigs.min() < -1e-10:
            raise ValueError(f"Q must be positive semidefinite, min eigenvalue {eigs.min():.3e}")
        Q.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_eig_range", (max(float(eigs.min()), 0.0), float(eigs.max())))

    @property
    def dimension(self) -> int:
        return self.q.size

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(0.5 * y @ self.Q @ y + self.q @ y)

    def value_batch(self, Y) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        return 0.5 * np.einsum("ij,ij->i", Y @ self.Q, Y) + Y @ self.q

    def subgradient(self, y) -> np.ndarray:
        return self.Q @ np.asarray(y, dtype=float) + self.q

    def curvature_bounds(self):
        return self._eig_range


@dataclass(frozen=True)
class WeightedL1(ConvexFunction):
    """f(y) = sum_i w_i |y_i| with nonnegative weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = as_vector(self.weights)
        if np.any(w < 0):
            raise ValueError("weighted-L1 weights must be nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.weights.size

    def value(self, y) -> float:
        return float(np.sum(self.weights * np.abs(np.asarray(y, dtype=float))))

    def value_batch(self, Y) -> np.ndarray:
        return np.abs(np.asarray(Y, dtype=float)) @ self.weights

    def subgradient(self, y) -> np.ndarray:
        # sign subgradient, 0 at kinks
        return self.weights * np.sign(np.asarray(y, dtype=float))

    def subdifferential_bounds(self, y, kink_tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate interval [lo, hi] of the subdifferential at ``y``.

        Coordinates within ``kink_tol`` of zero count as kinks; grid points
        meant to sit on a kink routinely carry float drift of a few ulps.
        """
        return _l1_bounds(self.weights, np.asarray(y, dtype=float), kink_tol)


def _l1_bounds(w: np.ndarray, y: np.ndarray, kink_tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`WeightedL1.subdifferential_bounds` of the weights ``w``."""
    at_kink = np.abs(y) <= kink_tol
    s = np.sign(y)
    return np.where(at_kink, -w, w * s), np.where(at_kink, w, w * s)


@dataclass(frozen=True)
class AffineFunction(ConvexFunction):
    """f(y) = <a, y> + b."""

    a: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        a = as_vector(self.a)
        if not np.isfinite(self.b):
            raise ValueError(f"affine offset b must be finite, got {self.b}")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def dimension(self) -> int:
        return self.a.size

    def value(self, y) -> float:
        return float(self.a @ np.asarray(y, dtype=float) + self.b)

    def value_batch(self, Y) -> np.ndarray:
        return np.asarray(Y, dtype=float) @ self.a + self.b

    def subgradient(self, y) -> np.ndarray:
        return self.a.copy()

    def curvature_bounds(self):
        return (0.0, 0.0)


class CanonicalPart(NamedTuple):
    """The shipped functions of a form as one part phi(y) = 1/2 y'Qy + q'y
    + sum_i w_i |y_i| + k, and ``rest``, the functions of any other type.

    Q and q sum the ``Quadratic`` parts, q also the a of each
    ``AffineFunction``, w the ``WeightedL1`` weights and k the affine
    offsets; each is None when no shipped function supplies it.  Phi adds
    its terms in that order, each with its shipped type's expression, so a
    form with one shipped function keeps that function's bits.
    """

    Q: np.ndarray | None
    q: np.ndarray | None
    w: np.ndarray | None
    k: float | None
    rest: tuple[ConvexFunction, ...]

    @property
    def terms(self) -> int:
        """How many of Q, q, w and k phi has; 0 when it has no shipped function."""
        return (self.Q is not None) + (self.q is not None) + (self.w is not None) + (self.k is not None)

    def _sum(self, quadratic, linear, l1):
        """quadratic(Q) + linear(q) + l1(w) + k over phi's terms, left to
        right; None when phi has none."""
        Q, q, w, k, _ = self
        terms = (None if Q is None else quadratic(Q), None if q is None else linear(q), None if w is None else l1(w), k)
        terms = [t for t in terms if t is not None]
        return reduce(add, terms) if terms else None

    def value(self, y: np.ndarray) -> float:
        """phi(y) at one point, its terms added as :meth:`_sum` adds them."""
        Q, q, w, k, _ = self
        phi = None if Q is None else 0.5 * y @ Q @ y
        if q is not None:
            phi = q @ y if phi is None else phi + q @ y
        if w is not None:
            phi = np.sum(w * np.abs(y)) if phi is None else phi + np.sum(w * np.abs(y))
        if k is not None:
            phi = k if phi is None else phi + k
        return float(phi)

    def rows(self, X: np.ndarray) -> np.ndarray:
        """phi at every row of the float array ``X``, each with the bits of
        :meth:`value` there: stacked calls with the per-item shapes of its
        own, and w |x| summed along contiguous memory."""
        X = np.ascontiguousarray(X)
        cols = X[:, :, None]
        return self._sum(
            lambda Q: np.matmul(np.matmul((0.5 * X)[:, None, :], Q), cols)[:, 0, 0],
            lambda q: np.matmul(q, cols)[:, 0],
            lambda w: np.sum(w * np.abs(X), axis=1),
        )

    def batches(self, Y: np.ndarray) -> list[np.ndarray]:
        """Phi's values at the rows of ``Y`` (when it has a term), then each
        rest f's ``value_batch``."""
        phi = self._sum(lambda Q: 0.5 * np.einsum("ij,ij->i", Y @ Q, Y), lambda q: Y @ q, lambda w: np.abs(Y) @ w)
        return ([] if phi is None else [phi]) + [f.value_batch(Y) for f in self.rest]


# ---------------------------------------------------------------------------
# Bifunction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Bifunction:
    """Evaluation oracle (x, y) -> H(x, y) on C x C, stored as its normal form.

    H(x, y) = <M x + c, y - x> + sum_f f(y) - f(x) + sum_g g(x, y), where
    ``matrix`` and ``offset`` hold M and c (both None when H has no
    operator part), ``functions`` the convex f, and ``oracles`` the generic
    parts g as ``(fn, batch_fn)`` pairs: fn(x, y) is one value and
    batch_fn(x, Y) the values at the rows of Y.  Equality and hashing are
    by identity, so a bifunction can key a cache.

    ``_resolvent`` is the resolvents' one-entry memo, ``(gamma, method,
    map)`` of the resolvent last built for this bifunction, closed form or
    inner route (:class:`~eqsplit.resolvents.ResolventOracle`), filled on
    first use and replaced as one tuple; it changes no output.
    """

    set: ConvexSet
    matrix: np.ndarray | None
    offset: np.ndarray | None
    functions: tuple[ConvexFunction, ...] = ()
    oracles: tuple[tuple[Callable, Callable], ...] = ()
    # not a field: each instance gets its own entry when a resolvent is built
    _resolvent = None

    def __post_init__(self):
        if (self.matrix is None) != (self.offset is None):
            raise ValueError("matrix and offset must both be given or both be None")

    def __getstate__(self):
        # the resolvent memo holds closures, which cannot be pickled; a copy
        # builds its own
        state = dict(self.__dict__)
        state.pop("_resolvent", None)
        return state

    @property
    def dimension(self) -> int:
        return self.set.dimension

    @cached_property
    def canonical(self) -> CanonicalPart:
        """The shipped functions as one part phi, and the rest
        (:class:`CanonicalPart`).  The one place that tells the shipped
        types apart, by exact type, since a subclass may override their
        oracles.  Computed once, on first read."""
        Q = q = w = k = None
        rest = ()
        for f in self.functions:
            if type(f) is Quadratic:
                Q, q = _add(Q, f.Q), _add(q, f.q)
            elif type(f) is WeightedL1:
                w = _add(w, f.weights)
            elif type(f) is AffineFunction:
                q, k = _add(q, f.a), float(f.b) if k is None else k + f.b
            else:
                rest += (f,)
        return CanonicalPart(Q, q, w, k, rest)

    @cached_property
    def induced(self) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None, tuple] | None:
        """(A, b, l1, rest): the induced operator A z + b + d l1(z)
        + sum_rest d f(z) + N_C(z) with l1(z) = sum_i l1_i |z_i|, or None
        with a generic part: A = M + Q, b = c + q and the weights l1 = w of
        :attr:`canonical`, each None where no part adds one.  Computed
        once, on first read."""
        if self.oracles:
            return None
        Q, q, w, _, rest = self.canonical
        return _add(self.matrix, Q), _add(self.offset, q), w, rest

    @cached_property
    def curvature(self) -> tuple[float, float, bool] | None:
        """(mu, L, symmetric) of the smooth part u(z) = A z + b + sum_rest
        grad f(z) of :attr:`induced`: u is mu-strongly monotone (mu is not
        clipped at 0) and L-Lipschitz, and a gradient field when A is absent
        or symmetric; None with a generic part or a rest function without
        curvature bounds.  Computed once, on first read."""
        if self.induced is None:
            return None
        A, _, _, rest = self.induced
        bounds = [f.curvature_bounds() for f in rest]
        if None in bounds:
            return None
        mu = L = 0.0
        if A is not None:
            mu, L = float(np.linalg.eigvalsh(0.5 * (A + A.T))[0]), float(np.linalg.norm(A, 2))
        for f_mu, f_L in bounds:
            mu, L = mu + f_mu, L + f_L
        return mu, L, A is None or bool(np.array_equal(A, A.T))

    @cached_property
    def _exact_admissibility(self) -> tuple[bool, dict[str, float]] | None:
        """(passed, worst violations) of the exact admissibility check, or
        None when only sampling can tell (:func:`check_admissibility`).
        Computed once, on first read: a solve reads it on every call."""
        return _exact_verdict(self)

    def __call__(self, x, y) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        part = self.canonical
        return float(sum(
            ([part.value(y) - part.value(x)] if part.terms else [])
            + [f.value(y) - f.value(x) for f in part.rest]
            + [fn(x, y) for fn, _ in self.oracles],
            0.0 if self.matrix is None else (self.matrix @ x + self.offset) @ (y - x),
        ))

    def eval_batch(self, x, Y) -> np.ndarray:
        """Evaluate H(x, y_j) for every row y_j of ``Y``: an (n,) array for a
        point x of shape (d,), and the (R, n) array of H(x_r, y_j) for a
        stack of shape (R, d).

        A point is the one-row stack, and each row gets the arithmetic of a
        one-point call, so a stacked call equals R one-point calls bit for
        bit: g_r = M x_r + c is one gemv per row (a single gemm may round
        differently), the operator term is one stacked product
        (y_j - x_r) . g_r, phi and each rest f are evaluated at Y once
        (:meth:`CanonicalPart.batches`), phi(x_r) comes from one stacked
        call (:meth:`CanonicalPart.rows`) and a rest f(x_r) from f.value
        once per row, each generic batch oracle gets one 1-D row at a time,
        and the terms add in one order.  The caller bounds the memory: the
        operator term builds an R x n x d temporary.  ``ValueError`` for an
        x that is neither (d,) nor (R, d).
        """
        X = np.asarray(x, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.ndim not in (1, 2) or X.shape[-1] != self.dimension:
            raise ValueError(f"x must have shape ({self.dimension},) or (R, {self.dimension}), got {X.shape}")
        rows = X.reshape(-1, self.dimension)
        shape = (rows.shape[0], Y.shape[0])
        if self.matrix is None:
            start = np.zeros(shape)
        else:
            g = np.matmul(self.matrix, rows[:, :, None])[:, :, 0] + self.offset
            # one difference per row into one array: a broadcast subtraction
            # would have numpy's iterator allocate buffers beside it
            D = np.empty(shape + (self.dimension,))
            for r, x_r in enumerate(rows):
                np.subtract(Y, x_r, out=D[r])
            start = np.matmul(D, g[:, :, None])[:, :, 0]
        part = self.canonical
        at_rows = [part.rows(rows)] if part.terms else []
        at_rows += [np.array([f.value(r) for r in rows]) for f in part.rest]
        H = sum(
            [fy - fx.reshape(-1, 1) for fy, fx in zip(part.batches(Y), at_rows)]
            + [np.array([batch(r, Y) for r in rows], dtype=float).reshape(shape) for _, batch in self.oracles],
            start,
        )
        return H.reshape(X.shape[:-1] + (Y.shape[0],))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def operator_bifunction(C: ConvexSet, matrix, offset=None) -> Bifunction:
    """H(x, y) = <M x + c, y - x> for an affine map x -> M x + c.

    Monotone whenever the symmetric part of M is positive semidefinite.
    """
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape != (C.dimension, C.dimension):
        raise ValueError(f"matrix must be {C.dimension}x{C.dimension}")
    c = as_vector(offset, C.dimension) if offset is not None else np.zeros(C.dimension)
    return Bifunction(C, _freeze(M), _freeze(c))


def zero_bifunction(C: ConvexSet) -> Bifunction:
    """The identically-zero bifunction: the normal form with no part."""
    return Bifunction(C, None, None)


def function_difference(C: ConvexSet, f: ConvexFunction) -> Bifunction:
    """H(x, y) = f(y) - f(x) for a supported convex f with C inside dom f."""
    if f.dimension != C.dimension:
        raise ValueError(f"function dimension {f.dimension} does not match set dimension {C.dimension}")
    return Bifunction(C, None, None, functions=(f,))


def generic_bifunction(C: ConvexSet, fn, batch_fn=None) -> Bifunction:
    """Wrap a raw evaluation oracle with no exploitable structure.

    ``fn`` must be pure and tolerate second arguments in a small
    neighborhood of C (finite-difference subgradient probes step 1e-6
    outside the set near its boundary).  Without ``batch_fn``, batches are
    evaluated one row at a time.
    """
    if batch_fn is None:
        def batch_fn(x, Y):
            return np.array([float(fn(x, y)) for y in Y])
    return Bifunction(C, None, None, oracles=((fn, batch_fn),))


def _add(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """a + b, where None stands for an absent operator part."""
    if a is None or b is None:
        return b if a is None else a
    return _freeze(a + b)


def sum_bifunctions(F: Bifunction, G: Bifunction) -> Bifunction:
    """Pointwise sum of two bifunctions over the same set: the operator
    parts add, and the functions and the generic parts are joined.

    The sets must be the same object; value-equality of oracle-backed sets
    is not decidable.
    """
    if F.set is not G.set:
        raise ValueError("cannot sum bifunctions over different sets; share one ConvexSet object")
    return Bifunction(
        F.set,
        _add(F.matrix, G.matrix),
        _add(F.offset, G.offset),
        F.functions + G.functions,
        F.oracles + G.oracles,
    )


# ---------------------------------------------------------------------------
# Admissibility diagnostic: exact without generic parts, sampled otherwise
# ---------------------------------------------------------------------------

#: epsilon ladder for the hemicontinuity probe
_HEMI_LADDER = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

#: per-condition violation thresholds for ``passed``
_THRESHOLDS = {
    "diagonal": 1e-10,
    "monotone": 1e-10,
    "convexity": 1e-10,
    "hemicontinuity": 1e-6,
}

@dataclass(frozen=True)
class AdmissibilityReport:
    """Worst violations of the admissibility conditions.

    ``exact`` reports decide the conditions from the bifunction's structure
    and draw no sample (``samples`` is 0); the others are the worst over
    ``samples`` seeded draws and can miss a violation.
    """

    passed: bool
    worst_violations: dict
    samples: int
    seed: int
    exact: bool = False

    def __str__(self):
        status = "passed" if self.passed else "FAILED"
        basis = "exact" if self.exact else f"{self.samples} samples"
        worst = ", ".join(f"{k}={v:.2e}" for k, v in self.worst_violations.items())
        return f"admissibility check {status} ({basis}): {worst}"


def _exact_verdict(F: Bifunction) -> tuple[bool, dict[str, float]] | None:
    """(passed, worst violations) for a form whose
    :attr:`~Bifunction.induced` operator has no rest (no generic part, only
    shipped functions), or None to sample.

    Such an H vanishes on the diagonal, is convex in y and continuous in x,
    and H(x,y) + H(y,x) = -(x - y)' M (x - y), since each f(y) - f(x)
    cancels; so it is monotone on C iff sym M is positive semidefinite on
    the span of C - C.  The monotone violation is max(0, -lambda_min) of
    sym M restricted there, accepted up to
    1e-10 * max(1, ||restricted sym M||).  A nonzero M needs a known span:
    the space (``_full_span``) or the axes with lo < hi (``_bounds``).
    """
    if F.induced is None or F.induced[3]:
        return None
    zero = dict.fromkeys(_THRESHOLDS, 0.0)
    M, C = F.matrix, F.set
    if M is not None and not (np.all(np.isfinite(M)) and np.all(np.isfinite(F.offset))):
        return None  # the sampled path names the offending pair
    if M is None or not M.any():
        return True, zero
    S = 0.5 * (M + M.T)
    if not C._full_span:
        if C._bounds is None:
            return None
        free = C._bounds[0] < C._bounds[1]
        S = S[np.ix_(free, free)]
    eigs = np.linalg.eigvalsh(S) if S.size else np.zeros(1)
    monotone = max(0.0, -float(eigs[0]))
    passed = monotone <= 1e-10 * max(1.0, float(np.abs(eigs).max()))
    return passed, dict(zero, monotone=monotone)


def check_admissibility(F: Bifunction, samples: int = 100, seed: int = 0) -> AdmissibilityReport:
    """Diagnostic of the four admissibility conditions, exact where it can be.

    A bifunction with no generic part whose functions are all a shipped
    ``Quadratic``, ``WeightedL1`` or ``AffineFunction`` (no rest function
    in :attr:`Bifunction.canonical`), sums included, gets
    an exact report (``exact`` true) and no call to the oracle: one
    eigenvalue of the symmetric part of M, which needs a whole space, ball,
    halfspace or box when M is nonzero, or nothing at all when M is zero.
    That verdict is computed once per bifunction and kept.
    Every other bifunction (generic parts, rest functions, a
    nonzero M over other set kinds) gets the sampled diagnostic.

    The sampled diagnostic draws points of C by projecting seeded gaussians
    and reports the maximum violation of: (diagonal) H(x,x) = 0; (monotone)
    H(x,y) + H(y,x) <= 0; (convexity) midpoint convexity of H(x, .);
    (hemicontinuity) H((1-eps)x + eps z, y) <= H(x,y) along a finite
    epsilon ladder.  The one-sided limit is proxied by linear
    extrapolation of the two smallest rungs, which removes the
    first-order offset a finite rung carries on smooth bifunctions.

    The checker is a diagnostic, not a gate: it never rejects a
    bifunction. A NaN from the oracle is a hard error identifying the
    offending pair. Midpoint sampling cannot distinguish lower
    semicontinuity from continuity; that gap is accepted.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    verdict = F._exact_admissibility
    if verdict is not None:
        passed, worst = verdict
        return AdmissibilityReport(passed=passed, worst_violations=dict(worst), samples=0, seed=seed, exact=True)
    C = F.set
    X = sample_points(C, samples, seed)
    Y = sample_points(C, samples, seed + 1)
    Z = sample_points(C, samples, seed + 2)

    def ev(a, b) -> float:
        v = F(a, b)
        if not np.isfinite(v):
            raise ValueError(f"bifunction oracle returned {v} at pair ({a!r}, {b!r})")
        return v

    worst = {"diagonal": 0.0, "monotone": 0.0, "convexity": 0.0, "hemicontinuity": 0.0}
    for x, y, z in zip(X, Y, Z):
        worst["diagonal"] = max(worst["diagonal"], abs(ev(x, x)))
        worst["monotone"] = max(worst["monotone"], ev(x, y) + ev(y, x))
        mid = ev(x, 0.5 * (y + z))
        worst["convexity"] = max(worst["convexity"], mid - 0.5 * (ev(x, y) + ev(x, z)))
        base = ev(x, y)
        ladder = [ev((1.0 - e) * x + e * z, y) for e in _HEMI_LADDER]
        e1, e0 = _HEMI_LADDER[-2], _HEMI_LADDER[-1]
        limsup_proxy = ladder[-1] + (ladder[-1] - ladder[-2]) * (e0 / (e1 - e0))
        worst["hemicontinuity"] = max(worst["hemicontinuity"], limsup_proxy - base)

    passed = all(worst[k] <= _THRESHOLDS[k] for k in worst)
    return AdmissibilityReport(passed=passed, worst_violations=worst, samples=samples, seed=seed)
