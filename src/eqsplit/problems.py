"""Corpus of fully specified equilibrium test problems with independent oracles.

Each instance fixes both bifunctions, the set, and (when finite) its known
solution set, together with a description of the oracle that produced the
solution.  Oracles were run before the solver existed: analytic roots,
active-set enumeration of box KKT systems, and 1-D subdifferential
inclusion arithmetic, cross-checked by the grid oracles.  Dimensions stay
at most 2 so every instance remains brute-forceable in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bifunctions import (
    Bifunction,
    Quadratic,
    WeightedL1,
    function_difference,
    operator_bifunction,
    zero_bifunction,
)
from .hilbert import Box, ConvexSet, WholeSpace, as_vector, norm
from .operators import affine_operator, bifunction_from_operator


@dataclass(frozen=True)
class ProblemInstance:
    """One equilibrium problem with ground truth.

    ``known_solutions`` is None when the solution set is not finite (the
    feasibility instance, whose solution set is all of C); then
    ``distance_to_solution`` still measures distance to the true set.
    ``grid_bounds`` is the box the brute-force oracles scan (equal to C
    when C is bounded).
    """

    name: str
    F: Bifunction
    G: Bifunction
    set: ConvexSet
    known_solutions: tuple | None
    provenance: str | None
    oracle_spec: str
    grid_bounds: tuple
    default_x0: np.ndarray
    distance_to_solution: Callable[[np.ndarray], float]

    def solution_distance(self, y) -> float:
        return self.distance_to_solution(as_vector(y, self.set.dimension))


def _finite_solution_distance(solutions):
    pts = [as_vector(s) for s in solutions]

    def dist(y):
        return min(norm(y - s) for s in pts)

    return dist


def _pure_feasibility() -> ProblemInstance:
    C = Box([-1.0, -1.0], [1.0, 1.0])
    F = zero_bifunction(C)
    G = zero_bifunction(C)
    return ProblemInstance(
        name="pure-feasibility",
        F=F,
        G=G,
        set=C,
        known_solutions=None,
        provenance=None,
        oracle_spec=(
            "both bifunctions vanish, so the solution set is all of C; "
            "oracle: membership in the box"
        ),
        grid_bounds=((-1.0, 1.0), (-1.0, 1.0)),
        default_x0=np.array([5.0, 5.0]),
        distance_to_solution=lambda y: norm(y - C.project(y)),
    )


def _quadratic_1d(b: float = 1.0) -> ProblemInstance:
    C = WholeSpace(1)
    F = function_difference(C, Quadratic([[2.0]], [0.0]))  # y^2 - x^2
    G = operator_bifunction(C, [[0.0]], [b])  # b (y - x)
    sol = np.array([-b / 2.0])
    return ProblemInstance(
        name="quadratic-1d",
        F=F,
        G=G,
        set=C,
        known_solutions=(sol,),
        provenance="analytic",
        oracle_spec=(
            "stationarity 2x + b = 0 gives x = -b/2; cross-checked by the "
            "equilibrium grid oracle on [-2, 2]"
        ),
        grid_bounds=((-2.0, 2.0),),
        default_x0=np.array([1.0]),
        distance_to_solution=_finite_solution_distance([sol]),
    )


def _vi_over_box() -> ProblemInstance:
    C = Box([0.0, 0.0], [1.0, 1.0])
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    q = np.array([-1.5, -2.5])
    F = operator_bifunction(C, M, q)
    G = zero_bifunction(C)
    # active-set enumeration of the 9 face patterns: the upper bound of the
    # second coordinate is active, stationarity in the first gives
    # 2 x1 + 1 - 1.5 = 0, multiplier (M x + q)_2 = -0.25 <= 0 checks out
    sol = np.array([0.25, 1.0])
    return ProblemInstance(
        name="vi-over-box",
        F=F,
        G=G,
        set=C,
        known_solutions=(sol,),
        provenance="analytic",
        oracle_spec=(
            "active-set enumeration of the 9 face cases of the box KKT "
            "system for M=[[2,1],[1,2]], q=(-1.5,-2.5); solution (1/4, 1)"
        ),
        grid_bounds=((0.0, 1.0), (0.0, 1.0)),
        default_x0=np.array([0.5, 0.5]),
        distance_to_solution=_finite_solution_distance([sol]),
    )


def _mixed_equilibrium(d: float = 2.0, w: float = 1.0) -> ProblemInstance:
    C = Box([-1.0], [1.0])
    F = operator_bifunction(C, [[1.0]], [-d])  # <x - d, y - x>
    G = function_difference(C, WeightedL1([w]))  # w(|y| - |x|)
    # 0 in x - d + w sign(x) + N_C(x): soft-threshold d by w, then clamp
    raw = np.sign(d) * max(abs(d) - w, 0.0)
    sol = np.array([min(max(raw, -1.0), 1.0)])
    return ProblemInstance(
        name="mixed-equilibrium",
        F=F,
        G=G,
        set=C,
        known_solutions=(sol,),
        provenance="analytic",
        oracle_spec=(
            "1-D subdifferential inclusion 0 in x - d + w sign(x) + N_[-1,1](x); "
            "solution clamp(soft(d, w)) = 1 for d=2, w=1; cross-checked by the "
            "equilibrium grid oracle"
        ),
        grid_bounds=((-1.0, 1.0),),
        default_x0=np.array([0.0]),
        distance_to_solution=_finite_solution_distance([sol]),
    )


def _skew_saddle() -> ProblemInstance:
    C = WholeSpace(2)
    F = operator_bifunction(C, [[0.0, 1.0], [-1.0, 0.0]])  # rotation, monotone
    G = function_difference(C, Quadratic(np.eye(2), np.zeros(2)))  # half squared norm
    sol = np.zeros(2)
    return ProblemInstance(
        name="skew-saddle",
        F=F,
        G=G,
        set=C,
        known_solutions=(sol,),
        provenance="analytic",
        oracle_spec="(S + I) x = 0 with S the rotation has the unique root 0",
        grid_bounds=((-1.0, 1.0), (-1.0, 1.0)),
        default_x0=np.array([1.0, 1.0]),
        distance_to_solution=_finite_solution_distance([sol]),
    )


def _operator_bridge() -> ProblemInstance:
    C = WholeSpace(1)
    B = affine_operator([[1.0]], [-1.0], name="shift")
    F = bifunction_from_operator(B, C)  # (x - 1)(y - x)
    G = function_difference(C, Quadratic([[2.0]], [0.0]))  # y^2 - x^2
    sol = np.array([1.0 / 3.0])
    return ProblemInstance(
        name="operator-bridge",
        F=F,
        G=G,
        set=C,
        known_solutions=(sol,),
        provenance="analytic",
        oracle_spec=(
            "stationarity (x - 1) + 2x = 0 gives x = 1/3; cross-checked by "
            "the equilibrium grid oracle on [-2, 2]"
        ),
        grid_bounds=((-2.0, 2.0),),
        default_x0=np.array([0.0]),
        distance_to_solution=_finite_solution_distance([sol]),
    )


#: builder of each reference instance by name, in the corpus order
_BUILDERS: dict[str, Callable[[], ProblemInstance]] = {
    "pure-feasibility": _pure_feasibility,
    "quadratic-1d": _quadratic_1d,
    "vi-over-box": _vi_over_box,
    "mixed-equilibrium": _mixed_equilibrium,
    "skew-saddle": _skew_saddle,
    "operator-bridge": _operator_bridge,
}


def corpus() -> list[ProblemInstance]:
    """The six reference instances, in a fixed order."""
    return [build() for build in _BUILDERS.values()]


def get_problem(name: str) -> ProblemInstance:
    """A fresh copy of the named reference instance; KeyError names the
    available ones when there is none."""
    build = _BUILDERS.get(name)
    if build is None:
        raise KeyError(f"unknown problem {name!r}; available: {', '.join(_BUILDERS)}")
    return build()
