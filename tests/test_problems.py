"""The problem corpus: ground truth, oracle re-derivation, and certificates."""

import numpy as np
import pytest

from eqsplit.bifunctions import check_admissibility, sum_bifunctions
from eqsplit.hilbert import sample_points
from eqsplit.operators import (
    GridSpec,
    equilibrium_bruteforce,
    operator_from_bifunction,
    set_distance,
    zeros_bruteforce,
)
from eqsplit.problems import corpus, get_problem

from oracles import box_vi_active_set, grid_golden_min


def test_corpus_size_and_names():
    instances = corpus()
    assert len(instances) >= 6
    names = [p.name for p in instances]
    assert len(set(names)) == len(names)
    for expected in (
        "pure-feasibility",
        "quadratic-1d",
        "vi-over-box",
        "mixed-equilibrium",
        "skew-saddle",
        "operator-bridge",
    ):
        assert expected in names


def test_instances_share_set_object():
    for inst in corpus():
        assert inst.F.set is inst.set
        assert inst.G.set is inst.set


def test_known_solutions():
    assert get_problem("quadratic-1d").known_solutions[0][0] == pytest.approx(-0.5)
    np.testing.assert_allclose(get_problem("skew-saddle").known_solutions[0], [0.0, 0.0])
    assert get_problem("mixed-equilibrium").known_solutions[0][0] == pytest.approx(1.0)
    assert get_problem("operator-bridge").known_solutions[0][0] == pytest.approx(1.0 / 3.0)


def test_unknown_problem_raises():
    with pytest.raises(KeyError, match="unknown problem") as err:
        get_problem("nope")
    for inst in corpus():
        assert inst.name in str(err.value)


def test_get_problem_builds_only_the_named_instance(monkeypatch):
    from eqsplit import problems

    built = []

    def recording(name, build):
        return lambda: built.append(name) or build()

    builders = {name: recording(name, build) for name, build in problems._BUILDERS.items()}
    monkeypatch.setattr(problems, "_BUILDERS", builders)
    for inst in corpus():
        built.clear()
        assert get_problem(inst.name).name == inst.name
        assert built == [inst.name]
    built.clear()
    with pytest.raises(KeyError):
        get_problem("nope")
    assert built == []


def test_admissibility_across_corpus():
    for inst in corpus():
        for H in (inst.F, inst.G):
            report = check_admissibility(H, samples=100, seed=0)
            assert report.passed, (inst.name, report)
            assert max(report.worst_violations.values()) <= 1e-8, inst.name


def test_known_solutions_satisfy_certificate():
    for inst in corpus():
        if inst.known_solutions is None:
            continue
        Y = sample_points(inst.set, 1024, seed=5)
        for s in inst.known_solutions:
            vals = inst.F.eval_batch(s, Y) + inst.G.eval_batch(s, Y)
            assert float(vals.min()) >= -1e-6, inst.name


def test_vi_over_box_solution_rederived_by_active_set():
    inst = get_problem("vi-over-box")
    M = inst.F.matrix
    q = inst.F.offset
    sols = box_vi_active_set(M, q, inst.set.lo, inst.set.hi)
    assert len(sols) == 1
    np.testing.assert_allclose(sols[0], inst.known_solutions[0], atol=1e-12)


def test_quadratic_1d_solution_rederived_by_scalar_minimization():
    # the worst value min_y [y^2 - x^2 + (y - x)] is nonnegative exactly at
    # the solution; maximizing it over x recovers -1/2
    inst = get_problem("quadratic-1d")
    S = sum_bifunctions(inst.F, inst.G)

    def worst_value(x):
        y_star = grid_golden_min(lambda y: S([x], [y]), -3.0, 3.0, coarse=401)
        return S([x], [y_star])

    best_x = grid_golden_min(lambda x: -worst_value(x), -2.0, 2.0, coarse=401)
    assert best_x == pytest.approx(-0.5, abs=1e-4)
    assert worst_value(best_x) >= -1e-8


def test_mixed_equilibrium_solution_rederived_by_inclusion_scan():
    # scan x and test 0 in x - 2 + [subdifferential of |.|](x) + N_[-1,1](x)
    inst = get_problem("mixed-equilibrium")
    hits = []
    for x in np.arange(-1.0, 1.0 + 1e-9, 1e-4):
        lo_s, hi_s = (-1.0, 1.0) if abs(x) < 1e-12 else (np.sign(x), np.sign(x))
        lo_n = -np.inf if x <= -1.0 + 1e-12 else 0.0
        hi_n = np.inf if x >= 1.0 - 1e-12 else 0.0
        lo = x - 2.0 + lo_s + lo_n
        hi = x - 2.0 + hi_s + hi_n
        if lo <= 0.0 <= hi:
            hits.append(x)
    assert len(hits) == 1
    assert hits[0] == pytest.approx(inst.known_solutions[0][0], abs=1e-12)


def test_operator_bridge_solution_is_scalar_root():
    inst = get_problem("operator-bridge")
    # stationarity of the summed problem: (x - 1) + 2x = 0
    assert 3.0 * inst.known_solutions[0][0] - 1.0 == pytest.approx(0.0, abs=1e-15)


def test_bruteforce_agreement_with_known_solutions():
    for inst in corpus():
        if inst.known_solutions is None or inst.set.dimension > 1:
            continue
        (lo, hi), = inst.grid_bounds
        grid = GridSpec([lo], [hi], 1e-3)
        sols = equilibrium_bruteforce(
            sum_bifunctions(inst.F, inst.G), grid, tol=1e-6
        )
        assert len(sols) >= 1, inst.name
        assert set_distance(sols, np.array(inst.known_solutions)) <= 2e-3, inst.name


def test_bruteforce_agreement_2d_instances():
    # vi-over-box: linear residuals, slack matched to a quarter grid step
    inst = get_problem("vi-over-box")
    grid = GridSpec([0.0, 0.0], [1.0, 1.0], 1e-2)
    sols = equilibrium_bruteforce(sum_bifunctions(inst.F, inst.G), grid, tol=2.5e-3)
    assert len(sols) >= 1
    assert set_distance(sols, np.array(inst.known_solutions)) <= 2e-2

    # skew-saddle: quadratic residual, quadratic slack
    inst = get_problem("skew-saddle")
    grid = GridSpec([-1.0, -1.0], [1.0, 1.0], 1e-2)
    sols = equilibrium_bruteforce(sum_bifunctions(inst.F, inst.G), grid, tol=1e-4)
    assert len(sols) >= 1
    assert set_distance(sols, np.array(inst.known_solutions)) <= 2e-2


def test_zeros_bruteforce_skew_saddle():
    inst = get_problem("skew-saddle")
    grid = GridSpec([-1.0, -1.0], [1.0, 1.0], 1e-2)
    AF = operator_from_bifunction(inst.F)
    AG = operator_from_bifunction(inst.G)
    zeros = zeros_bruteforce(AF, AG, grid, tol=5e-3, method="intervals")
    assert len(zeros) >= 1
    assert set_distance(zeros, np.array([[0.0, 0.0]])) <= 2e-2


def test_pure_feasibility_solution_set_is_whole_box():
    inst = get_problem("pure-feasibility")
    grid = GridSpec([-1.0, -1.0], [1.0, 1.0], 0.25)
    S = sum_bifunctions(inst.F, inst.G)
    sols = equilibrium_bruteforce(S, grid)
    assert len(sols) == grid.points().shape[0]
    AF = operator_from_bifunction(inst.F)
    AG = operator_from_bifunction(inst.G)
    zeros = zeros_bruteforce(AF, AG, grid)
    assert len(zeros) == grid.points().shape[0]


def test_distance_to_solution():
    inst = get_problem("pure-feasibility")
    assert inst.solution_distance([0.0, 0.0]) == 0.0
    assert inst.solution_distance([2.0, 0.0]) == pytest.approx(1.0)
    inst = get_problem("quadratic-1d")
    assert inst.solution_distance([-0.25]) == pytest.approx(0.25)
