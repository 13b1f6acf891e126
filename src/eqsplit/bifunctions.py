"""Bifunctions H(x, y) on C x C with structural family tags.

A bifunction is admissible for the solver when it vanishes on the diagonal,
is monotone (H(x,y) + H(y,x) <= 0), is convex and lower semicontinuous in
its second argument, and is hemicontinuous in its first.  For the
operator-induced and function-difference families these conditions hold by
construction or come down to one eigenvalue, and :func:`check_admissibility`
decides them exactly; for every other bifunction they cannot be certified
from an evaluation oracle, and it runs a seeded, sampled diagnostic instead.
Either way it reports worst violations; construction never rejects a
bifunction.

Family tags are declared by the constructor, not inferred.  Through
:func:`normal_form` they drive the closed-form resolvent dispatch, so a
misdeclared family surfaces as a resolvent residual failure rather than an
error here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import ConvexSet, as_vector, sample_points

GENERIC = "generic"
OPERATOR_INDUCED = "operator-induced"
FUNCTION_DIFFERENCE = "function-difference"
SUM_OF_TWO = "sum-of-two"

FAMILIES = (GENERIC, OPERATOR_INDUCED, FUNCTION_DIFFERENCE, SUM_OF_TWO)


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

    @property
    def separable(self) -> bool:
        return False


@dataclass(frozen=True)
class Quadratic(ConvexFunction):
    """f(y) = 1/2 y'Qy + q'y with Q symmetric positive semidefinite."""

    Q: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square matrix")
        if not np.allclose(Q, Q.T, atol=1e-12):
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

    @property
    def separable(self) -> bool:
        return bool(np.allclose(self.Q, np.diag(np.diag(self.Q)), atol=0.0))


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
        y = np.asarray(y, dtype=float)
        at_kink = np.abs(y) <= kink_tol
        s = np.sign(y)
        lo = np.where(at_kink, -self.weights, self.weights * s)
        hi = np.where(at_kink, self.weights, self.weights * s)
        return lo, hi


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

    @property
    def separable(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# Bifunction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bifunction:
    """Evaluation oracle (x, y) -> H(x, y) on C x C with a family tag.

    Exactly one structural payload is populated per family:

    * ``operator-induced``: H(x,y) = <M x + c, y - x>; payload ``matrix``,
      ``offset``.
    * ``function-difference``: H(x,y) = f(y) - f(x); payload ``function``.
    * ``sum-of-two``: pointwise sum; payload ``parts``.
    * ``generic``: payload ``eval_fn`` (and optional ``batch_fn``).
    """

    set: ConvexSet
    family: str
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None
    function: ConvexFunction | None = None
    parts: tuple["Bifunction", "Bifunction"] | None = None
    eval_fn: Callable[[np.ndarray, np.ndarray], float] | None = None
    batch_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown bifunction family {self.family!r}")

    @property
    def dimension(self) -> int:
        return self.set.dimension

    def __call__(self, x, y) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.family == OPERATOR_INDUCED:
            return float((self.matrix @ x + self.offset) @ (y - x))
        if self.family == FUNCTION_DIFFERENCE:
            return self.function.value(y) - self.function.value(x)
        if self.family == SUM_OF_TWO:
            return self.parts[0](x, y) + self.parts[1](x, y)
        return float(self.eval_fn(x, y))

    def eval_batch(self, x, Y) -> np.ndarray:
        """Evaluate H(x, y_j) for every row y_j of ``Y``."""
        x = np.asarray(x, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if self.family == OPERATOR_INDUCED:
            return (Y - x) @ (self.matrix @ x + self.offset)
        if self.family == FUNCTION_DIFFERENCE:
            return self.function.value_batch(Y) - self.function.value(x)
        if self.family == SUM_OF_TWO:
            return self.parts[0].eval_batch(x, Y) + self.parts[1].eval_batch(x, Y)
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(x, Y), dtype=float)
        return np.array([float(self.eval_fn(x, y)) for y in Y])


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
    return Bifunction(set=C, family=OPERATOR_INDUCED, matrix=_freeze(M), offset=_freeze(c))


def zero_bifunction(C: ConvexSet) -> Bifunction:
    """The identically-zero bifunction (operator induced by the zero map)."""
    d = C.dimension
    return operator_bifunction(C, np.zeros((d, d)), np.zeros(d))


def function_difference(C: ConvexSet, f: ConvexFunction) -> Bifunction:
    """H(x, y) = f(y) - f(x) for a supported convex f with C inside dom f."""
    if f.dimension != C.dimension:
        raise ValueError(f"function dimension {f.dimension} does not match set dimension {C.dimension}")
    return Bifunction(set=C, family=FUNCTION_DIFFERENCE, function=f)


def generic_bifunction(C: ConvexSet, fn, batch_fn=None) -> Bifunction:
    """Wrap a raw evaluation oracle with no exploitable structure.

    ``fn`` must be pure and tolerate second arguments in a small
    neighborhood of C (finite-difference subgradient probes step 1e-6
    outside the set near its boundary).
    """
    return Bifunction(set=C, family=GENERIC, eval_fn=fn, batch_fn=batch_fn)


def sum_bifunctions(F: Bifunction, G: Bifunction) -> Bifunction:
    """Pointwise sum of two bifunctions over the same set.

    The sets must be the same object; value-equality of oracle-backed sets
    is not decidable.
    """
    if F.set is not G.set:
        raise ValueError("cannot sum bifunctions over different sets; share one ConvexSet object")
    return Bifunction(set=F.set, family=SUM_OF_TWO, parts=(F, G))


def normal_form(F: Bifunction) -> tuple[np.ndarray, np.ndarray, tuple[ConvexFunction, ...]] | None:
    """(M, c, fs) with F(x, y) = <M x + c, y - x> + sum over f in fs of
    f(y) - f(x); None when F has a generic part.

    The resolvents and the operator bridge read a bifunction's structure
    only through this form.
    """
    if F.family == OPERATOR_INDUCED:
        return F.matrix, F.offset, ()
    if F.family == FUNCTION_DIFFERENCE:
        d = F.dimension
        return np.zeros((d, d)), np.zeros(d), (F.function,)
    if F.family == SUM_OF_TWO:
        left, right = (normal_form(P) for P in F.parts)
        if left is None or right is None:
            return None
        return left[0] + right[0], left[1] + right[1], left[2] + right[2]
    return None


# ---------------------------------------------------------------------------
# Admissibility diagnostic: exact for structured families, sampled otherwise
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

#: set kinds over which an operator-induced bifunction is monotone exactly
#: when the symmetric part of M is positive semidefinite on the directions
#: the set spans (all of them, or a box's coordinates with lo < hi)
_EXACT_SET_KINDS = ("whole-space", "ball", "halfspace", "box")

#: shipped convex functions, matched by exact type: a user subclass may
#: override their oracles (a subgradient oracle may return one element of a
#: larger subdifferential), so it gets the sampled treatment
SHIPPED_FUNCTIONS = (Quadratic, WeightedL1, AffineFunction)


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


def _exact_report(F: Bifunction, seed: int) -> AdmissibilityReport | None:
    """Exact report for the structured families, or None to sample.

    An operator-induced H(x, y) = <M x + c, y - x> vanishes on the diagonal,
    is linear in y and continuous in x, and H(x,y) + H(y,x) =
    -(x - y)' M (x - y), so it is monotone on C iff sym M is positive
    semidefinite on the span of C - C; the monotone violation is
    max(0, -lambda_min) of sym M restricted there, accepted up to
    1e-10 * max(1, ||restricted sym M||).  A function difference f(y) - f(x)
    of a shipped convex f meets every condition by construction.
    """
    zero = dict.fromkeys(_THRESHOLDS, 0.0)
    if F.family == FUNCTION_DIFFERENCE and type(F.function) in SHIPPED_FUNCTIONS:
        return AdmissibilityReport(passed=True, worst_violations=zero, samples=0, seed=seed, exact=True)
    C = F.set
    if F.family != OPERATOR_INDUCED or C.kind not in _EXACT_SET_KINDS:
        return None
    S = 0.5 * (F.matrix + F.matrix.T)
    if not (np.all(np.isfinite(S)) and np.all(np.isfinite(F.offset))):
        return None  # the sampled path names the offending pair
    if C.kind == "box":
        free = C.lo < C.hi
        S = S[np.ix_(free, free)]
    eigs = np.linalg.eigvalsh(S) if S.size else np.zeros(1)
    monotone = max(0.0, -float(eigs[0]))
    worst = dict(zero, monotone=monotone)
    passed = monotone <= 1e-10 * max(1.0, float(np.abs(eigs).max()))
    return AdmissibilityReport(passed=passed, worst_violations=worst, samples=0, seed=seed, exact=True)


def check_admissibility(F: Bifunction, samples: int = 100, seed: int = 0) -> AdmissibilityReport:
    """Diagnostic of the four admissibility conditions, exact where it can be.

    Operator-induced F over a whole space, ball, halfspace or box, and
    function differences of a shipped ``Quadratic``, ``WeightedL1`` or
    ``AffineFunction``, get an exact report (``exact`` true): one eigenvalue
    of the symmetric part of M, or nothing at all, and no call to the
    oracle.  Every other bifunction (generic, sums, user-defined convex
    functions, other set kinds) gets the sampled diagnostic.

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
    report = _exact_report(F, seed)
    if report is not None:
        return report
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
