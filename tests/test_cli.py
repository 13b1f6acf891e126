"""Spec file parsing, trace output, exit codes, and determinism."""

from dataclasses import replace

import numpy as np
import pytest

from eqsplit.bifunctions import AffineFunction, function_difference
from eqsplit.cli import (
    EXIT_CONVERGED,
    EXIT_MAX_ITER,
    EXIT_SPEC_ERROR,
    SpecFileError,
    main,
    parse_problem_spec,
    problem_to_spec_text,
)
from eqsplit.dr_solver import SolverConfig, solve
from eqsplit.problems import corpus, get_problem

FEASIBILITY_SPEC = """
[space]
dimension = 2

[set]
kind = box
lo = -1 -1
hi = 1 1

[F]
family = zero

[G]
family = zero

[solver]
gamma = 1.0
lambda = 1.0
tol = 1e-8
max_iter = 100
error_preset = none
seed = 0

[init]
x0 = 5 5
"""

QUADRATIC_SPEC = """
[space]
dimension = 1

[set]
kind = whole-space

[F]
family = function-difference
function = quadratic
q_matrix = 2
q_linear = 0

[G]
family = operator-induced
matrix = 0
offset = 1

[solver]
gamma = 1.0
lambda = 1.0
tol = 1e-10
max_iter = 1000

[init]
x0 = 1
"""


def _write(tmp_path, text, name="problem.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_feasibility_spec_runs_and_converges(tmp_path, capsys):
    spec = _write(tmp_path, FEASIBILITY_SPEC)
    out = str(tmp_path / "trace.csv")
    code = main([spec, "--trace", out])
    assert code == EXIT_CONVERGED
    printed = capsys.readouterr().out
    assert "status = converged" in printed
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "n,residual_dr,step,certificate"
    data_rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data_rows) <= 5
    y_line = [l for l in lines if l.startswith("# y_star =")][0]
    y = np.array([float(v) for v in y_line.split("=")[1].split()])
    assert np.all(np.abs(y) <= 1.0 + 1e-9)


def test_quadratic_spec_solution(tmp_path, capsys):
    spec = _write(tmp_path, QUADRATIC_SPEC)
    code = main([spec])
    assert code == EXIT_CONVERGED
    printed = capsys.readouterr().out
    y_line = [l for l in printed.splitlines() if l.startswith("y_star")][0]
    assert float(y_line.split("=")[1]) == pytest.approx(-0.5, abs=1e-6)


def test_lambda_out_of_range_is_spec_error(tmp_path, capsys):
    bad = QUADRATIC_SPEC.replace("lambda = 1.0", "lambda = 2.5")
    spec = _write(tmp_path, bad)
    code = main([spec])
    assert code == EXIT_SPEC_ERROR
    err = capsys.readouterr().err
    assert "(0, 2)" in err


def test_unknown_family_is_spec_error(tmp_path, capsys):
    bad = QUADRATIC_SPEC.replace("family = operator-induced", "family = mystery")
    spec = _write(tmp_path, bad)
    code = main([spec])
    assert code == EXIT_SPEC_ERROR
    assert "[G]" in capsys.readouterr().err


def test_missing_section_is_spec_error(tmp_path, capsys):
    bad = QUADRATIC_SPEC.replace("[init]", "[other]").replace("x0 = 1", "y = 2")
    spec = _write(tmp_path, bad)
    code = main([spec])
    assert code == EXIT_SPEC_ERROR
    assert "[init]" in capsys.readouterr().err


def test_missing_file_is_spec_error(tmp_path, capsys):
    code = main([str(tmp_path / "absent.ini")])
    assert code == EXIT_SPEC_ERROR


def test_byte_identical_traces(tmp_path):
    spec = _write(tmp_path, QUADRATIC_SPEC)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main([spec, "--trace", str(out1)]) == EXIT_CONVERGED
    assert main([spec, "--trace", str(out2)]) == EXIT_CONVERGED
    assert out1.read_bytes() == out2.read_bytes()


def test_max_iter_exit_code(tmp_path):
    bad = QUADRATIC_SPEC.replace("max_iter = 1000", "max_iter = 2").replace(
        "tol = 1e-10", "tol = 1e-14"
    )
    spec = _write(tmp_path, bad)
    assert main([spec]) == EXIT_MAX_ITER


def test_flag_overrides(tmp_path, capsys):
    spec = _write(tmp_path, QUADRATIC_SPEC)
    code = main([spec, "--gamma", "0.5", "--lambda", "1.5", "--tol", "1e-9", "--max-iter", "500"])
    assert code == EXIT_CONVERGED
    y_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("y_star")][0]
    assert float(y_line.split("=")[1]) == pytest.approx(-0.5, abs=1e-6)


def test_flag_lambda_gate(tmp_path, capsys):
    spec = _write(tmp_path, QUADRATIC_SPEC)
    assert main([spec, "--lambda", "2.5"]) == EXIT_SPEC_ERROR
    assert "(0, 2)" in capsys.readouterr().err


def test_error_preset_flag(tmp_path):
    spec = _write(tmp_path, QUADRATIC_SPEC)
    assert main([spec, "--error-preset", "geometric"]) == EXIT_CONVERGED


def test_list_problems(capsys):
    assert main(["--list-problems"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(corpus())
    assert "vi-over-box" in out


def test_run_named_problem(capsys):
    assert main(["--problem", "quadratic-1d"]) == EXIT_CONVERGED
    out = capsys.readouterr().out
    assert "converged" in out


def test_unknown_problem_name(capsys):
    assert main(["--problem", "missing"]) == EXIT_SPEC_ERROR


def test_no_arguments_is_spec_error(capsys):
    assert main([]) == EXIT_SPEC_ERROR


def test_batch_all_problems(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["--problem", "all", "--trace", str(out)])
    assert code == EXIT_CONVERGED
    written = sorted(p.name for p in tmp_path.glob("trace_*.csv"))
    assert len(written) == len(corpus())
    lines = capsys.readouterr().out.splitlines()
    names = [line[1:line.index("]")] for line in lines if line.startswith("[")]
    assert names == [name for inst in corpus() for name in (inst.name, inst.name)]


def test_spec_roundtrip_matches_direct_solve(tmp_path):
    # quadratic-1d with its G written as the affine function-difference
    # <1, y> - <1, x>, the one convex function the corpus does not use
    base = get_problem("quadratic-1d")
    affine = replace(
        base, name="quadratic-affine", G=function_difference(base.set, AffineFunction([1.0]))
    )
    for inst in [*corpus(), affine]:
        cfg = SolverConfig(residual_tol=1e-9)
        text = problem_to_spec_text(inst, cfg)
        spec = _write(tmp_path, text, name=f"{inst.name}.ini")
        F, G, C, parsed_cfg, x0 = parse_problem_spec(spec)
        direct = solve(inst.F, inst.G, inst.default_x0, cfg)
        reparsed = solve(F, G, x0, parsed_cfg)
        np.testing.assert_allclose(reparsed.y_star, direct.y_star, atol=1e-12)


def test_parse_rejects_dimension_mismatch(tmp_path):
    bad = QUADRATIC_SPEC.replace("x0 = 1", "x0 = 1 2")
    with pytest.raises(SpecFileError, match="expected 1 numbers"):
        parse_problem_spec(_write(tmp_path, bad))


BALL_SPEC = """
[space]
dimension = 2

[set]
kind = ball
center = 0 0
radius = 1

[F]
family = zero

[G]
family = zero

[solver]
tol = 1e-10

[init]
x0 = 3 4
"""

SIMPLEX_SPEC = """
[space]
dimension = 2

[set]
kind = simplex

[F]
family = operator-induced
matrix = 1 0; 0 1

[G]
family = zero

[solver]
tol = 1e-8

[init]
x0 = 1 0
"""

AFFINE_SPEC = """
[space]
dimension = 2

[set]
kind = affine
a = 1 1
b = 1

[F]
family = zero

[G]
family = zero

[solver]
tol = 1e-10

[init]
x0 = 2 2
"""


def test_ball_spec_projects_onto_sphere(tmp_path, capsys):
    spec = _write(tmp_path, BALL_SPEC)
    assert main([spec]) == EXIT_CONVERGED
    y_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("y_star")][0]
    y = np.array([float(v) for v in y_line.split("=")[1].split()])
    np.testing.assert_allclose(y, [0.6, 0.8], atol=1e-9)


def test_simplex_spec_minimal_norm_point(tmp_path, capsys):
    # <x, y - x> over the simplex solves at its minimal-norm point
    spec = _write(tmp_path, SIMPLEX_SPEC)
    assert main([spec]) == EXIT_CONVERGED
    y_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("y_star")][0]
    y = np.array([float(v) for v in y_line.split("=")[1].split()])
    np.testing.assert_allclose(y, [0.5, 0.5], atol=1e-6)


def test_affine_spec_projects_onto_subspace(tmp_path, capsys):
    spec = _write(tmp_path, AFFINE_SPEC)
    assert main([spec]) == EXIT_CONVERGED
    y_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("y_star")][0]
    y = np.array([float(v) for v in y_line.split("=")[1].split()])
    np.testing.assert_allclose(y, [0.5, 0.5], atol=1e-9)


def test_named_lambda_schedule(tmp_path, capsys):
    spec = _write(tmp_path, QUADRATIC_SPEC.replace("lambda = 1.0", "lambda = ramp"))
    assert main([spec]) == EXIT_CONVERGED
    y_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("y_star")][0]
    assert float(y_line.split("=")[1]) == pytest.approx(-0.5, abs=1e-6)


def test_unknown_lambda_schedule_is_spec_error(tmp_path, capsys):
    spec = _write(tmp_path, QUADRATIC_SPEC.replace("lambda = 1.0", "lambda = sawtooth"))
    assert main([spec]) == EXIT_SPEC_ERROR
    assert "ramp" in capsys.readouterr().err


def test_trace_every_flag_thins_rows(tmp_path):
    spec = _write(tmp_path, QUADRATIC_SPEC)
    dense = tmp_path / "dense.csv"
    thin = tmp_path / "thin.csv"
    assert main([spec, "--trace", str(dense)]) == EXIT_CONVERGED
    assert main([spec, "--trace", str(thin), "--trace-every", "5"]) == EXIT_CONVERGED
    n_dense = sum(1 for l in dense.read_text().splitlines() if not l.startswith(("n,", "#")))
    n_thin = sum(1 for l in thin.read_text().splitlines() if not l.startswith(("n,", "#")))
    assert n_thin < n_dense


def test_trace_draws_its_certificate_sample_once(tmp_path, monkeypatch):
    from eqsplit import cli, hilbert
    from eqsplit.dr_solver import CERTIFICATE_SAMPLES, equilibrium_certificate

    draws = []

    def counting_sample_points(*args, **kwargs):
        draws.append(args)
        return hilbert.sample_points(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_points", counting_sample_points)
    for count, inst in enumerate(corpus(), start=1):
        cfg = SolverConfig(seed=3)
        result = solve(inst.F, inst.G, inst.default_x0, cfg)
        out = tmp_path / f"{inst.name}.csv"
        cli._write_trace(out, result, inst.F, inst.G, cfg)
        assert len(draws) == count, inst.name
        # the same bytes as a certificate drawn afresh for every row
        rows = ["n,residual_dr,step,certificate"]
        trace = result.trace
        for n, y, res, step in zip(trace.n, trace.y, trace.residual_dr, trace.step):
            Y = hilbert.sample_points(inst.F.set, CERTIFICATE_SAMPLES, cfg.seed)
            cert = equilibrium_certificate(inst.F, inst.G, inst.F.set.project(y), Y)
            rows.append(f"{n},{res!r},{step!r},{cert!r}")
        rows.append(f"# status = {result.status}")
        rows.append(f"# iterations = {result.iterations}")
        rows.append("# y_star = " + " ".join(repr(float(v)) for v in result.y_star))
        rows.append(f"# certificate = {result.certificate!r}")
        assert out.read_bytes() == ("\n".join(rows) + "\n").encode(), inst.name
