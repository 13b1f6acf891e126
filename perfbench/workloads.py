"""The benchmark workloads.

Each workload turns a seed into a fixed list of operations.  Its life has
four steps, kept apart so that each can be timed or left untimed:

* ``inputs()``: raw numpy data drawn from the seed (untimed);
* ``build(eq)``: the eqsplit sets, bifunctions, spec files and grids
  (timed as set-up, together with ``import eqsplit``);
* ``references()``: the independent answers from ``reference.py``
  (untimed, before any op runs);
* ``ops()``: the operations themselves.  An op's ``run`` is the timed
  call into eqsplit; its ``check`` judges the returned answer afterwards.

The seed changes the random data, starting points, CLI routes and op
order, never the mix of op kinds, so that two seeds cost about the same.
Every op kind kept here succeeded for every seed tried, at the commit
that added the benchmark; the combinations that return wrong answers or
run out of iterations live in the ``defects`` workload instead (see
WORKLOADS.md).
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref


@dataclass
class Op:
    """One timed call and the check applied to what it returned."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    #: file the op writes, whose size the traced run records
    trace_file: Path | None = None


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _vi_matrix(rng, d):
    """M = AA'/d + I + (A - A')/d and q = 3 N(0, I): strongly monotone."""
    A = rng.normal(size=(d, d))
    M = A @ A.T / d + np.eye(d) + (A - A.T) / d
    return M, 3.0 * rng.normal(size=d)


class Workload:
    name = ""
    #: seconds charged to a failed op; also the latency above which an op fails
    limit_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self):
        raise NotImplementedError

    def build(self, eq):
        raise NotImplementedError

    def references(self):
        raise NotImplementedError

    def ops(self, eq) -> list[Op]:
        raise NotImplementedError

    def _shuffled(self, items: list) -> list:
        order = _rng(self.seed, 999).permutation(len(items))
        return [items[i] for i in order]


def _solve_op(eq, label, F, G, x0, cfg, answer_ref) -> Op:
    dr = eq.dr_solver

    def run():
        return dr.solve(F, G, x0, cfg)

    def check(result):
        return result.status == dr.CONVERGED and ref.accurate(result.y_star, answer_ref)

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# vi-inner: variational inequalities whose F resolvent is inner-iterative
# ---------------------------------------------------------------------------

class ViInner(Workload):
    """solve() on operator-induced F over a box (or a ball, in ``defects``).

    Each kind is (set, G, d, gamma, count): ``count`` random problems of
    that kind per seed, each solved once per pass.  The d = 20 kind is
    most of the ops: its cost varies little from one draw to the next, so
    the median falls among ops of one kind.  The d = 2 kinds cover gamma.
    Only kinds that returned a correct answer on each of 200 draws at the
    commit that added the benchmark are kept; WORKLOADS.md lists the
    ones left out.
    """

    name = "vi-inner"
    limit_s = 2.0
    #: the start is X0_SCALE * N(0, I)
    X0_SCALE = 0.5
    KINDS = (
        ("box", "zero", 2, 0.1, 8),
        ("box", "zero", 2, 1.0, 8),
        ("box", "zero", 2, 10.0, 8),
        ("box", "l1", 2, 0.1, 8),
        ("box", "l1", 2, 1.0, 8),
        ("box", "l1", 20, 0.1, 60),
    )

    def inputs(self):
        self.data = []
        for k, (setk, gk, d, gamma, count) in enumerate(self.KINDS):
            for j in range(count):
                rng = _rng(self.seed, k, j)
                M, q = _vi_matrix(rng, d)
                w = rng.uniform(0.5, 2.0, size=d)
                x0 = self.X0_SCALE * rng.normal(size=d)
                self.data.append((setk, gk, d, gamma, M, q, w, x0))

    def build(self, eq):
        self.problems = []
        for setk, gk, d, gamma, M, q, w, x0 in self.data:
            C = eq.Box(-np.ones(d), np.ones(d)) if setk == "box" else eq.Ball(np.zeros(d), 1.0)
            F = eq.operator_bifunction(C, M, q)
            G = eq.function_difference(C, eq.WeightedL1(w)) if gk == "l1" else eq.zero_bifunction(C)
            self.problems.append((F, G, eq.SolverConfig(gamma=gamma, seed=self.seed)))

    def references(self):
        self.refs = []
        for setk, gk, d, gamma, M, q, w, x0 in self.data:
            lo, hi = -np.ones(d), np.ones(d)
            if setk == "ball":
                prox = lambda v, t: ref.project_ball(v, np.zeros(d), 1.0)
            elif gk == "l1":
                prox = lambda v, t, w=w, lo=lo, hi=hi: ref.clamp_box(ref.soft(v, t * w), lo, hi)
            else:
                prox = lambda v, t, lo=lo, hi=hi: ref.clamp_box(v, lo, hi)
            self.refs.append(ref.affine_zero(M, q, prox))

    def ops(self, eq):
        out = []
        for (setk, gk, d, gamma, *_, x0), (F, G, cfg), r in zip(self.data, self.problems, self.refs):
            out.append(_solve_op(eq, f"{setk}-{gk} d={d} gamma={gamma}", F, G, x0, cfg, r))
        return self._shuffled(out)


# ---------------------------------------------------------------------------
# saddle-closed: every resolvent in closed form, d up to 200
# ---------------------------------------------------------------------------

class SaddleClosed(Workload):
    """solve() over WholeSpace(d) with F = skew + 0.1 I, G quadratic or L1.

    DIMS maps d to the number of random problems per G kind; each problem
    is solved under every relaxation and error preset kept, so the seed
    only changes the numbers.  The d = 200 ops are a fifth of the ops, so
    p90 falls among them rather than at their edge.  max_iter is 2000:
    the slowest kept op converges in under 250 iterations.
    """

    name = "saddle-closed"
    limit_s = 2.0
    DIMS = {2: 8, 20: 8, 50: 5, 200: 5}
    GS = ("quad", "l1")
    LAMBDAS = (1.0, 1.8, "ramp")
    PRESETS = ("none", "geometric")
    MAX_ITER = 2000

    def inputs(self):
        self.data = []
        for d, count in self.DIMS.items():
            for j, gk in enumerate(self.GS):
                for k in range(count):
                    self._draw(_rng(self.seed, d, j, k), d, gk)

    def _draw(self, rng, d, gk):
        A = rng.normal(size=(d, d))
        M = (A - A.T) / (2.0 * np.sqrt(d)) + 0.1 * np.eye(d)
        c = rng.normal(size=d)
        if gk == "quad":
            B = rng.normal(size=(d, d))
            g = (B @ B.T / d, rng.normal(size=d))
        else:
            g = rng.uniform(0.1, 1.0, size=d)
        self.data.append((d, gk, M, c, g, 0.5 * rng.normal(size=d)))

    def build(self, eq):
        dr = eq.dr_solver
        self.problems = []
        for d, gk, M, c, g, x0 in self.data:
            C = eq.WholeSpace(d)
            F = eq.operator_bifunction(C, M, c)
            f = eq.Quadratic(*g) if gk == "quad" else eq.WeightedL1(g)
            G = eq.function_difference(C, f)
            cfgs = []
            for lam in self.LAMBDAS:
                for preset in self.PRESETS:
                    errors = dr.ERROR_PRESETS[preset](d) if preset != "none" else None
                    cfgs.append((lam, preset, eq.SolverConfig(
                        gamma=1.0,
                        lambda_schedule=dr.LAMBDA_PRESETS[lam]() if isinstance(lam, str) else lam,
                        error_schedule_a=errors,
                        error_schedule_b=errors,
                        max_iter=self.MAX_ITER,
                        seed=self.seed,
                    )))
            self.problems.append((F, G, cfgs))

    def references(self):
        self.refs = []
        for d, gk, M, c, g, x0 in self.data:
            if gk == "quad":
                Q, q = g
                self.refs.append(ref.linear_solve(M + Q, -(c + q)))
            else:
                self.refs.append(ref.affine_zero(M, c, lambda v, t, w=g: ref.soft(v, t * w)))

    def ops(self, eq):
        out = []
        for (d, gk, *_, x0), (F, G, cfgs), r in zip(self.data, self.problems, self.refs):
            for lam, preset, cfg in cfgs:
                out.append(_solve_op(eq, f"{gk} d={d} lambda={lam} {preset}", F, G, x0, cfg, r))
        return self._shuffled(out)


# ---------------------------------------------------------------------------
# corpus-cli: the CLI with --trace on the six corpus instances
# ---------------------------------------------------------------------------

class CorpusCli(Workload):
    """eqsplit.cli.main([...]) in process, every call with --trace.

    A pass runs every instance under every (gamma, lambda, error preset)
    setting once.  For each (instance, gamma, lambda) the seed sends one
    of the two presets through a spec file and the other through
    --problem, and it draws the order.  The --seed of a call is the op's
    index: it sets the sample points of the inner solver's check, so a
    seeded draw would change the iteration counts of vi-over-box.  The
    last op of a pass repeats the spec-file op of the first instance at
    gamma = lambda = 1 and must write a byte-identical trace.
    """

    name = "corpus-cli"
    limit_s = 3.0
    GAMMAS = (0.1, 1.0, 10.0)
    LAMBDAS = (0.5, 1.0, 1.8)
    PRESETS = ("none", "geometric")

    def inputs(self):
        rng = _rng(self.seed, 0)
        self.data = []
        for i in range(len(ref.CORPUS)):
            for g in self.GAMMAS:
                for lam in self.LAMBDAS:
                    spec_preset = int(rng.integers(0, 2))
                    for k, preset in enumerate(self.PRESETS):
                        self.data.append((i, g, lam, preset, k == spec_preset))

    def build(self, eq):
        from eqsplit import cli

        self.instances = eq.problems.corpus()
        self.specs = []
        for inst in self.instances:
            path = self.workdir / f"{inst.name}.ini"
            path.write_text(cli.problem_to_spec_text(inst))
            self.specs.append(path)

    def references(self):
        ref.check_corpus_order([inst.name for inst in self.instances])

    def ops(self, eq):
        cli = eq.cli
        entries = []
        for n, (i, gamma, lam, preset, by_spec) in enumerate(self.data):
            head = [str(self.specs[i])] if by_spec else ["--problem", self.instances[i].name]
            tail = [
                "--gamma", repr(gamma),
                "--lambda", repr(lam),
                "--error-preset", preset,
                "--seed", str(n),
            ]
            trace = self.workdir / f"trace_{n}.csv"
            label = f"{self.instances[i].name} {'spec' if by_spec else 'problem'} {' '.join(tail)}"
            entries.append((label, i, head + tail, trace))
            if by_spec and i == 0 and gamma == lam == 1.0:
                repeated = entries[-1]
        ops = [Op(label, _cli_run(cli, argv, trace), _cli_check(i, trace), trace)
               for label, i, argv, trace in self._shuffled(entries)]
        label, i, argv, trace = repeated
        repeat = self.workdir / "trace_repeat.csv"
        ops.append(Op("repeat " + label, _cli_run(cli, argv, repeat),
                      _cli_check(i, repeat, same_as=trace), repeat))
        return ops


def _cli_run(cli, argv, trace):
    argv = list(argv) + ["--trace", str(trace)]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def _cli_check(i, trace: Path, same_as: Path | None = None):
    def check(answer):
        code, text = answer
        y = None
        for line in text.splitlines():
            if "y_star = " in line:
                y = np.array([float(v) for v in line.split("y_star = ", 1)[1].split()])
        if code != 0 or y is None or not ref.corpus_accurate(i, y):
            return False
        written = trace.read_bytes()
        if not written:
            return False
        return same_as is None or written == same_as.read_bytes()

    return check


# ---------------------------------------------------------------------------
# bridge-grid: operator bridge and brute-force grid oracles
# ---------------------------------------------------------------------------

class BridgeGrid(Workload):
    """For one corpus instance: build the operators induced by F and G,
    solve in operator form, then scan a grid for the zero set and the
    solution set.

    Each pass covers every instance at every grid step of its dimension;
    the seed draws the starting point of the solve and the order.
    Oracle slack is step^2, matched to the grid as acceptance criterion 4
    matches 1e-6 to step 1e-3.  The 1-D instances use the "sampled" zero
    scan of criterion 4; the 2-D ones the default route.
    """

    name = "bridge-grid"
    limit_s = 2.0
    STEPS = {1: (0.02, 0.0125, 0.01, 0.008), 2: (0.125, 0.0625)}

    def inputs(self):
        rng = _rng(self.seed, 0)
        self.data = []
        for dim, _ in ref.CORPUS.values():
            self.data.append((self.STEPS[dim], 0.25 * rng.normal(size=dim)))

    def build(self, eq):
        self.instances = eq.problems.corpus()
        self.problems = []
        for inst, (steps, shift) in zip(self.instances, self.data):
            lo = [b[0] for b in inst.grid_bounds]
            hi = [b[1] for b in inst.grid_bounds]
            grids = [eq.GridSpec(lo, hi, s) for s in steps]
            FG = eq.sum_bifunctions(inst.F, inst.G)
            self.problems.append((inst, FG, grids, inst.default_x0 + shift))
        self.cfg = eq.SolverConfig(seed=self.seed)

    def references(self):
        ref.check_corpus_order([inst.name for inst in self.instances])

    def ops(self, eq):
        out = []
        for i, (inst, FG, grids, x0) in enumerate(self.problems):
            for grid in grids:
                out.append(Op(f"{inst.name} step={grid.step}",
                              _bridge_run(eq, inst, FG, grid, x0, self.cfg),
                              _bridge_check(eq, i, grid.step)))
        return self._shuffled(out)


def _bridge_run(eq, inst, FG, grid, x0, cfg):
    operators, dr = eq.operators, eq.dr_solver
    tol = grid.step ** 2
    method = "sampled" if grid.dimension == 1 else "auto"

    def run():
        AF = operators.operator_from_bifunction(inst.F)
        AG = operators.operator_from_bifunction(inst.G)
        result = dr.solve_operator_form(AF, AG, x0, cfg)
        zeros = operators.zeros_bruteforce(AF, AG, grid, tol=tol, method=method)
        solutions = operators.equilibrium_bruteforce(FG, grid, tol=tol)
        return result, zeros, solutions

    return run


def _bridge_check(eq, i, step):
    def check(answer):
        result, zeros, solutions = answer
        if result.status != eq.dr_solver.CONVERGED or not ref.corpus_accurate(i, result.y_star):
            return False
        if len(zeros) == 0 or len(solutions) == 0:
            return False
        if ref.hausdorff(zeros, solutions) > 2.0 * step:
            return False
        return float(np.min(np.linalg.norm(zeros - result.y_star, axis=1))) <= 2.0 * step

    return check


# ---------------------------------------------------------------------------
# defects: the combinations left out above because they fail
# ---------------------------------------------------------------------------

class _ViDefects(ViInner):
    # from the zero start of the reproduction in ROADMAP item 2
    X0_SCALE = 0.0
    KINDS = (
        ("box", "zero", 10, 1.0, 2),
        ("box", "zero", 20, 1.0, 2),
        ("box", "zero", 20, 10.0, 2),
        ("ball", "zero", 5, 0.1, 2),
    )


class _SaddleDefects(SaddleClosed):
    DIMS = {2: 1, 20: 1}
    LAMBDAS = (1.0,)
    PRESETS = ("inverse-square",)


class Defects(Workload):
    """Known failures at the commit that added the benchmark, kept runnable
    so that later changes can cite their counts: box and ball VIs that
    return a wrong answer with status converged, and inverse-square
    injected errors that end in max_iter.  Not listed in BENCHMARK.json,
    whose workloads hold only ops that succeed."""

    name = "defects"
    limit_s = 2.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.parts = [_ViDefects(seed, workdir), _SaddleDefects(seed, workdir)]

    def inputs(self):
        for p in self.parts:
            p.inputs()

    def build(self, eq):
        for p in self.parts:
            p.build(eq)

    def references(self):
        for p in self.parts:
            p.references()

    def ops(self, eq):
        return [op for p in self.parts for op in p.ops(eq)]


WORKLOADS = {w.name: w for w in (CorpusCli, ViInner, SaddleClosed, BridgeGrid, Defects)}
