"""Spec file parsing, trace output, exit codes, and determinism."""

import configparser
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eqsplit.bifunctions import (
    AffineFunction,
    WeightedL1,
    function_difference,
    generic_bifunction,
    operator_bifunction,
    sum_bifunctions,
    zero_bifunction,
)
from eqsplit.cli import (
    EXIT_CONVERGED,
    EXIT_MAX_ITER,
    EXIT_SPEC_ERROR,
    SpecFileError,
    _read_sections,
    main,
    parse_problem_spec,
    problem_to_spec_text,
)
from eqsplit.dr_solver import SolverConfig, geometric_errors, solve
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


#: a ball, over which the certificate is sampled
BALL_SPEC = """
[space]
dimension = 2

[set]
kind = ball
center = 0 0
radius = 1

[F]
family = operator-induced
matrix = 1 1; -1 1
offset = 0.5 -2

[G]
family = zero

[solver]
tol = 1e-8
max_iter = 1000

[init]
x0 = 2 0
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


def test_percent_in_a_spec_value_is_a_spec_error(tmp_path, capsys):
    # '%' is literal, so the value fails its number parse
    spec = _write(tmp_path, QUADRATIC_SPEC.replace("gamma = 1.0", "gamma = 1%"))
    assert main([spec]) == EXIT_SPEC_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("spec error: [solver]") and "'1%'" in captured.err


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


@pytest.mark.parametrize("route", ["problem", "all", "spec-flag", "spec-file"])
def test_negative_seed_is_spec_error(tmp_path, capsys, route):
    # rejected when the config is built, before any iteration runs
    bad = QUADRATIC_SPEC.replace("max_iter = 1000", "max_iter = 1000\nseed = -1")
    argv = {
        "problem": ["--problem", "quadratic-1d", "--seed", "-1"],
        "all": ["--problem", "all", "--seed", "-1"],
        "spec-flag": [_write(tmp_path, QUADRATIC_SPEC), "--seed", "-1"],
        "spec-file": [_write(tmp_path, bad, "bad.ini")],
    }[route]
    assert main(argv) == EXIT_SPEC_ERROR
    captured = capsys.readouterr()
    assert "spec error:" in captured.err and "seed must be a non-negative integer" in captured.err
    assert "y_star" not in captured.out


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--gamma", "inf")])
def test_non_finite_tol_or_gamma_is_spec_error(capsys, flag, value):
    # rejected when the config is built, so no solve runs to max_iter
    assert main(["--problem", "quadratic-1d", flag, value]) == EXIT_SPEC_ERROR
    captured = capsys.readouterr()
    assert "spec error:" in captured.err and "must be positive and finite" in captured.err
    assert "y_star" not in captured.out


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


def test_argument_parser_is_built_once(monkeypatch, capsys):
    import argparse

    built = []
    original = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    main(["--list-problems"])
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    assert main(["--list-problems"]) == EXIT_CONVERGED
    assert main(["--problem", "quadratic-1d"]) == EXIT_CONVERGED
    assert built == []


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


def test_spec_roundtrip_keeps_every_setting_or_refuses(tmp_path):
    inst = get_problem("vi-over-box")
    cfg = SolverConfig(gamma=0.5, lambda_schedule=1.5, max_iter=300, residual_tol=1e-7, trace_every=5, seed=4)
    _, _, _, parsed, _ = parse_problem_spec(_write(tmp_path, problem_to_spec_text(inst, cfg)))
    for name in ("gamma", "lambda_schedule", "max_iter", "residual_tol", "trace_every", "seed"):
        assert getattr(parsed, name) == getattr(cfg, name), name
    assert parsed.error_schedule_a is None and parsed.error_schedule_b is None
    # an error schedule is a callable, which the format cannot carry
    errors = geometric_errors(inst.set.dimension)
    for side in ("error_schedule_a", "error_schedule_b"):
        with pytest.raises(ValueError, match="error schedules"):
            problem_to_spec_text(inst, replace(cfg, **{side: errors}))


def test_spec_is_written_from_the_normal_form(tmp_path):
    # a sum whose form is one operator part is written as that operator
    base = get_problem("vi-over-box")
    C = base.set
    F = sum_bifunctions(operator_bifunction(C, base.F.matrix, base.F.offset), zero_bifunction(C))
    G = sum_bifunctions(zero_bifunction(C), function_difference(C, WeightedL1([0.5, 0.25])))
    inst = replace(base, name="summed", F=F, G=G)
    text = problem_to_spec_text(inst)
    assert text.count("family = operator-induced") == 1 and "function = weighted-l1" in text
    parsed_F, parsed_G, _, cfg, x0 = parse_problem_spec(_write(tmp_path, text))
    np.testing.assert_array_equal(parsed_F.matrix, base.F.matrix)
    np.testing.assert_array_equal(parsed_F.offset, base.F.offset)
    assert parsed_G.functions[0].weights.tolist() == [0.5, 0.25]
    direct = solve(F, G, inst.default_x0, cfg)
    reparsed = solve(parsed_F, parsed_G, x0, cfg)
    np.testing.assert_array_equal(reparsed.y_star, direct.y_star)
    # forms the format cannot hold are refused, naming the part
    l1 = function_difference(C, WeightedL1([1.0, 1.0]))
    refused = {
        "two functions": sum_bifunctions(l1, l1),
        "a function plus an operator part": sum_bifunctions(base.F, l1),
        "a generic part": generic_bifunction(C, base.F, base.F.eval_batch),
    }
    for part, H in refused.items():
        with pytest.raises(ValueError, match=part):
            problem_to_spec_text(replace(base, G=H))


NON_MONOTONE_SPEC = """
[space]
dimension = 2

[set]
{set_lines}

[F]
family = operator-induced
matrix = -1 0; 0 -1

[G]
family = zero

[solver]
gamma = 1.0

[init]
x0 = 0.5 0.5
"""


@pytest.mark.parametrize(
    "set_lines", ["kind = whole-space", "kind = box\nlo = -1 -1\nhi = 1 1"], ids=["whole-space", "box"]
)
def test_non_monotone_spec_is_a_spec_error(tmp_path, capsys, set_lines):
    # I + gamma M is singular at gamma 1, so the resolvent cannot be built
    spec = _write(tmp_path, NON_MONOTONE_SPEC.format(set_lines=set_lines))
    with pytest.warns(UserWarning, match="first bifunction"):
        code = main([spec])
    assert code == EXIT_SPEC_ERROR
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and "singular" in err


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


def test_affine_rows_with_a_trailing_semicolon(tmp_path, capsys):
    # empty rows are dropped, as in a matrix
    assert main([_write(tmp_path, AFFINE_SPEC)]) == EXIT_CONVERGED
    plain = capsys.readouterr().out
    assert main([_write(tmp_path, AFFINE_SPEC.replace("a = 1 1", "a = 1 1;"))]) == EXIT_CONVERGED
    assert capsys.readouterr().out == plain
    for text in ("a = ;", "a = ; ;"):
        assert main([_write(tmp_path, AFFINE_SPEC.replace("a = 1 1", text))]) == EXIT_SPEC_ERROR
        assert capsys.readouterr().err == "spec error: [set] a: expected at least one row\n"


@pytest.mark.parametrize("kind, field, value", [
    ("ball", "radius", "nan"), ("ball", "radius", "inf"), ("ball", "radius", "-inf"),
    ("halfspace", "offset", "nan"), ("halfspace", "offset", "inf"), ("halfspace", "offset", "-inf"),
])
def test_non_finite_set_scalar_is_spec_error(tmp_path, capsys, kind, field, value):
    text = BALL_SPEC.replace("radius = 1", f"radius = {value}")
    if kind == "halfspace":
        text = text.replace("kind = ball", "kind = halfspace").replace("center = 0 0", "normal = 1 0")
        text = text.replace("radius =", "offset =")
    assert main([_write(tmp_path, text)]) == EXIT_SPEC_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith(f"spec error: {kind} {field} must be "), captured.err
    assert "y_star" not in captured.out


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
    """A corpus trace takes the exact gap of each row and draws no sample;
    a form over a ball draws one sample for the whole file."""
    from eqsplit import cli, hilbert
    from eqsplit.dr_solver import CERTIFICATE_SAMPLES, equilibrium_certificate, equilibrium_gap
    from eqsplit.hilbert import Ball

    draws = []

    def counting_sample_points(*args, **kwargs):
        draws.append(args)
        return hilbert.sample_points(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_points", counting_sample_points)
    ball = Ball(np.zeros(2), 1.0)
    problems = [(inst.name, inst.F, inst.G, inst.default_x0) for inst in corpus()]
    problems.append(("ball", operator_bifunction(ball, [[1.0, 1.0], [-1.0, 1.0]], [0.5, -2.0]),
                     function_difference(ball, WeightedL1([0.5, 0.25])), np.array([2.0, 0.0])))
    for name, F, G, x0 in problems:
        cfg = SolverConfig(seed=3)
        result = solve(F, G, x0, cfg)
        out = tmp_path / f"{name}.csv"
        draws.clear()
        cli._write_trace(out, result, F, G, cfg)
        sampled = name == "ball"
        assert len(draws) == sampled, name
        assert result.certificate_exact is not sampled, name
        # the same bytes as a certificate computed afresh for every row
        rows = ["n,residual_dr,step,certificate"]
        trace = result.trace
        for n, y, res, step in zip(trace.n, trace.y, trace.residual_dr, trace.step):
            if sampled:
                Y = hilbert.sample_points(F.set, CERTIFICATE_SAMPLES, cfg.seed)
                cert = equilibrium_certificate(F, G, F.set.project(y), Y)
            else:
                cert = equilibrium_gap(F, G, F.set.project(y))
            rows.append(f"{n},{res!r},{step!r},{cert!r}")
        rows.append(f"# status = {result.status}")
        rows.append(f"# iterations = {result.iterations}")
        rows.append("# y_star = " + " ".join(repr(float(v)) for v in result.y_star))
        rows.append(f"# certificate = {result.certificate!r}")
        assert out.read_bytes() == ("\n".join(rows) + "\n").encode(), name


def _traced_problems():
    """Solves over a ball and a halfspace at d = 5 and 20, one with a
    generic part, each recording 31 rows: more than one row block of the
    stacked certificate (six rows at d = 5, one at d = 20)."""
    from eqsplit.hilbert import Ball, Halfspace

    rng = np.random.default_rng(11)
    for d in (5, 20):
        A = rng.normal(size=(d, d))
        M = A @ A.T / d + np.eye(d) + (A - A.T) / d
        s = rng.normal(size=d)
        for C in (Ball(np.zeros(d), 1.5), Halfspace(rng.normal(size=d), 0.5)):
            F = operator_bifunction(C, M, 3.0 * rng.normal(size=d))
            G = function_difference(C, WeightedL1(rng.random(d)))
            yield f"{C.kind} d={d}", F, G
            if d == 5 and C.kind == "ball":
                H = generic_bifunction(C, lambda x, y: float(s @ (y - x)), lambda x, Y: (Y - x) @ s)
                yield f"{C.kind} d={d} with a generic part", sum_bifunctions(F, H), G


def test_trace_certificates_match_per_row_calls_beyond_the_corpus(tmp_path):
    from eqsplit import cli
    from eqsplit.dr_solver import CERTIFICATE_SAMPLES, equilibrium_certificate
    from eqsplit.hilbert import sample_points

    cfg = SolverConfig(max_iter=30, residual_tol=1e-300, seed=5)
    for name, F, G in _traced_problems():
        result = solve(F, G, np.zeros(F.dimension), cfg)
        assert len(result.trace) == 31, name
        out = tmp_path / "trace.csv"
        cli._write_trace(out, result, F, G, cfg)
        Y = sample_points(F.set, CERTIFICATE_SAMPLES, cfg.seed)
        rows = ["n,residual_dr,step,certificate"]
        trace = result.trace
        for n, y, res, step in zip(trace.n, trace.y, trace.residual_dr, trace.step):
            cert = equilibrium_certificate(F, G, F.set.project(y), Y)
            rows.append(f"{n},{res!r},{step!r},{cert!r}")
        rows.append(f"# status = {result.status}")
        rows.append(f"# iterations = {result.iterations}")
        rows.append("# y_star = " + " ".join(repr(float(v)) for v in result.y_star))
        rows.append(f"# certificate = {result.certificate!r}")
        assert out.read_bytes() == ("\n".join(rows) + "\n").encode(), name


def _count_draws(monkeypatch):
    """Count every sample_points call, under each name a module of the
    package imports it as."""
    import importlib
    import pkgutil

    import eqsplit
    from eqsplit import hilbert

    draws = []
    real = hilbert.sample_points

    def counting_sample_points(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    names = []
    for info in pkgutil.iter_modules(eqsplit.__path__):
        module = importlib.import_module(f"eqsplit.{info.name}")
        if vars(module).get("sample_points") is real:
            monkeypatch.setattr(module, "sample_points", counting_sample_points)
            names.append(info.name)
    monkeypatch.setattr(eqsplit, "sample_points", counting_sample_points, raising=False)
    assert {"cli", "dr_solver", "hilbert"} <= set(names)
    return draws


@pytest.mark.parametrize("route", ["problem", "all", "spec-file", "ball-spec-file"])
def test_a_traced_run_draws_one_certificate_sample_per_file(tmp_path, capsys, monkeypatch, route):
    """At most one sample per trace file: none for the corpus and the
    separable spec, whose certificates are exact, and one for a ball."""
    from eqsplit.dr_solver import CERTIFICATE_SAMPLES

    draws = _count_draws(monkeypatch)
    out = tmp_path / "trace.csv"
    argv = {
        "problem": ["--problem", "vi-over-box", "--seed", "2"],
        "all": ["--problem", "all", "--seed", "2", "--error-preset", "geometric"],
        "spec-file": [_write(tmp_path, QUADRATIC_SPEC), "--seed", "2"],
        "ball-spec-file": [_write(tmp_path, BALL_SPEC, "ball.ini"), "--seed", "2"],
    }[route]
    assert main(argv + ["--trace", str(out)]) == EXIT_CONVERGED
    files = sorted(tmp_path.glob("trace*.csv"))
    assert len(files) == (len(corpus()) if route == "all" else 1)
    assert len(draws) == (len(files) if route == "ball-spec-file" else 0)
    assert all(n == CERTIFICATE_SAMPLES and seed == 2 for _, n, seed in draws)
    # and the header certificate is the solve's own
    for path in files:
        lines = path.read_text().splitlines()
        name = path.stem[len("trace_"):] if route == "all" else None
        if route.endswith("spec-file"):
            F, G, _, cfg, x0 = parse_problem_spec(argv[0])
            result = solve(F, G, x0, replace(cfg, seed=2))
        else:
            inst = get_problem(name or "vi-over-box")
            d = inst.set.dimension
            errors = geometric_errors(d) if route == "all" else None
            result = solve(inst.F, inst.G, inst.default_x0,
                           SolverConfig(seed=2, error_schedule_a=errors, error_schedule_b=errors))
        assert result.certificate_exact is (route != "ball-spec-file")
        assert lines[-1] == f"# certificate = {result.certificate!r}", path.name


def test_unwritable_trace_is_a_spec_error(tmp_path, capsys):
    out = str(tmp_path / "nodir" / "t.csv")
    for argv in (["--problem", "quadratic-1d"], [_write(tmp_path, QUADRATIC_SPEC)]):
        assert main(argv + ["--trace", out]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"spec error: cannot write trace {out}: ")
        assert "y_star" not in captured.out


def test_batch_run_carries_on_past_an_unwritable_trace(tmp_path, capsys):
    # a directory where one instance's trace file should go
    (tmp_path / "trace_vi-over-box.csv").mkdir()
    code = main(["--problem", "all", "--trace", str(tmp_path / "trace.csv")])
    captured = capsys.readouterr()
    assert code == EXIT_SPEC_ERROR
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("spec error: cannot write trace ")
    assert "trace_vi-over-box.csv" in errors[0]
    others = [inst.name for inst in corpus() if inst.name != "vi-over-box"]
    assert sorted(p.name for p in tmp_path.glob("trace_*.csv") if p.is_file()) == sorted(
        f"trace_{name}.csv" for name in others)
    printed = [line[1:line.index("]")] for line in captured.out.splitlines()]
    assert printed == [name for name in others for _ in range(2)]
    # the largest code wins: the iteration limit over the spec error
    code = main(["--problem", "all", "--max-iter", "1", "--tol", "1e-300", "--trace", str(tmp_path / "trace.csv")])
    assert code == EXIT_MAX_ITER


@pytest.mark.parametrize("exists", [True, False])
def test_spec_file_with_problem_is_a_spec_error(tmp_path, capsys, monkeypatch, exists):
    from eqsplit import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(cli, "solve", no_solve)
    spec = _write(tmp_path, QUADRATIC_SPEC) if exists else str(tmp_path / "missing.ini")
    for name in ("quadratic-1d", "all"):
        assert main([spec, "--problem", name, "--trace", str(tmp_path / "t.csv")]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["spec error: give a spec file or --problem, not both"]
        assert captured.out == ""
    assert not list(tmp_path.glob("t*.csv"))


@pytest.mark.parametrize(
    "extra", [["missing.ini"], ["--problem", "nosuch"], ["--problem", "all"], ["--trace", "t.csv"]],
    ids=["spec", "unknown-problem", "all", "trace"],
)
def test_list_problems_with_anything_else_is_a_spec_error(tmp_path, capsys, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    assert main(["--list-problems", *extra]) == EXIT_SPEC_ERROR
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("spec error: ")
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("target", ["dir/", "dir", "new/"], ids=["separator", "directory", "new-separator"])
def test_trace_naming_a_directory_is_a_spec_error_before_any_solve(tmp_path, capsys, monkeypatch, target):
    from eqsplit import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(cli, "solve", no_solve)
    (tmp_path / "dir").mkdir()
    trace = f"{tmp_path}/{target}"
    for argv in (["--problem", "all"], ["--problem", "quadratic-1d"], [_write(tmp_path, QUADRATIC_SPEC)]):
        assert main(argv + ["--trace", trace]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"spec error: --trace {trace!r} names a directory, not a file"]
        assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "problem.ini"]
    assert not list((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("old", [b"\xff" * 65536, b"x"], ids=["64KiB", "1B"])
def test_trace_written_over_an_old_file_has_the_bytes_of_a_new_one(tmp_path, old):
    spec = _write(tmp_path, problem_to_spec_text(get_problem("vi-over-box")))
    fresh, over = tmp_path / "fresh.csv", tmp_path / "over.csv"
    over.write_bytes(old)
    assert main([spec, "--trace", str(fresh)]) == EXIT_CONVERGED
    assert main([spec, "--trace", str(over)]) == EXIT_CONVERGED
    assert over.read_bytes() == fresh.read_bytes()
    assert 1 < len(fresh.read_bytes()) < 65536


def test_trace_to_a_device_is_written_without_cutting(tmp_path, capsys):
    # ftruncate on a character device raises EINVAL, which would be a spec error
    import os

    for argv in (["--problem", "quadratic-1d"], [_write(tmp_path, QUADRATIC_SPEC)],
                 [_write(tmp_path, QUADRATIC_SPEC), "--max-iter", "2", "--tol", "1e-14"]):
        expected = main(argv)
        capsys.readouterr()
        assert main(argv + ["--trace", os.devnull]) == expected
        captured = capsys.readouterr()
        assert captured.err == "" and "y_star" in captured.out
    assert expected == EXIT_MAX_ITER


def test_trace_is_opened_without_truncation(tmp_path, monkeypatch):
    import os

    out = tmp_path / "trace.csv"
    out.write_bytes(b"old" * 1000)
    opened = []
    original = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((str(path), flags))
        return original(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert main(["--problem", "quadratic-1d", "--trace", str(out)]) == EXIT_CONVERGED
    flags = [f for path, f in opened if path == str(out)]
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert out.read_bytes().startswith(b"n,residual_dr,step,certificate\n")


def test_new_trace_file_has_the_umask_mode(tmp_path):
    import os

    for umask in (0o022, 0o077, 0o000):
        out = tmp_path / f"trace_{umask:o}.csv"
        previous = os.umask(umask)
        try:
            assert main(["--problem", "quadratic-1d", "--trace", str(out)]) == EXIT_CONVERGED
        finally:
            os.umask(previous)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_trace_header_certificate_with_no_rows_or_a_moved_last_row(tmp_path, monkeypatch):
    """``# certificate`` is the value at y* itself, not at the last row's
    point, also when the trace is empty."""
    import warnings

    from eqsplit import cli, resolvents
    from eqsplit.dr_solver import equilibrium_gap
    from oracles import as_generic

    # an inner failure at the first pass records no row at all
    monkeypatch.setattr(resolvents, "INNER_ITER_CAP", 2)
    inst = get_problem("vi-over-box")
    cfg = SolverConfig(seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        failed = solve(as_generic(inst.F), inst.G, [2.0, -1.0], cfg)
    assert failed.status == "inner_failure" and len(failed.trace) == 0
    # a last row whose point is not y*
    moved = solve(inst.F, inst.G, inst.default_x0, cfg)
    moved.trace.y[-1] = moved.y_star + 0.25
    # the generic form's header is sampled, the structured one's exact
    for result, F, exact in ((failed, as_generic(inst.F), False), (moved, inst.F, True)):
        out = tmp_path / "trace.csv"
        cli._write_trace(out, result, F, inst.G, cfg)
        assert out.read_text().splitlines()[-1] == f"# certificate = {result.certificate!r}"
        assert result.certificate_exact is exact
    assert moved.certificate == equilibrium_gap(inst.F, inst.G, moved.y_star)


#: the spec text of each corpus instance, and of quadratic-1d with the
#: affine G <1, y> + 0.5 - <1, x> - 0.5, as (the sections up to [G], x0);
#: every one ends in the default solver settings of ``_SPEC_TAIL``
FROZEN_SPECS = {
    "pure-feasibility": (
        """\
[space]
dimension = 2

[set]
kind = box
lo = -1.0 -1.0
hi = 1.0 1.0

[F]
family = zero

[G]
family = zero

""",
        "5.0 5.0",
    ),
    "quadratic-1d": (
        """\
[space]
dimension = 1

[set]
kind = whole-space

[F]
family = function-difference
function = quadratic
q_matrix = 2.0
q_linear = 0.0

[G]
family = operator-induced
matrix = 0.0
offset = 1.0

""",
        "1.0",
    ),
    "vi-over-box": (
        """\
[space]
dimension = 2

[set]
kind = box
lo = 0.0 0.0
hi = 1.0 1.0

[F]
family = operator-induced
matrix = 2.0 1.0; 1.0 2.0
offset = -1.5 -2.5

[G]
family = zero

""",
        "0.5 0.5",
    ),
    "mixed-equilibrium": (
        """\
[space]
dimension = 1

[set]
kind = box
lo = -1.0
hi = 1.0

[F]
family = operator-induced
matrix = 1.0
offset = -2.0

[G]
family = function-difference
function = weighted-l1
weights = 1.0

""",
        "0.0",
    ),
    "skew-saddle": (
        """\
[space]
dimension = 2

[set]
kind = whole-space

[F]
family = operator-induced
matrix = 0.0 1.0; -1.0 0.0
offset = 0.0 0.0

[G]
family = function-difference
function = quadratic
q_matrix = 1.0 0.0; 0.0 1.0
q_linear = 0.0 0.0

""",
        "1.0 1.0",
    ),
    "operator-bridge": (
        """\
[space]
dimension = 1

[set]
kind = whole-space

[F]
family = operator-induced
matrix = 1.0
offset = -1.0

[G]
family = function-difference
function = quadratic
q_matrix = 2.0
q_linear = 0.0

""",
        "0.0",
    ),
    "quadratic-affine": (
        """\
[space]
dimension = 1

[set]
kind = whole-space

[F]
family = function-difference
function = quadratic
q_matrix = 2.0
q_linear = 0.0

[G]
family = function-difference
function = affine
linear = 1.0
constant = 0.5

""",
        "1.0",
    ),
}

_SPEC_TAIL = """\
[solver]
gamma = 1.0
lambda = 1.0
tol = 1e-08
max_iter = 10000
trace_every = 1
error_preset = none
seed = 0

[init]
x0 = {}
"""


def test_spec_text_is_frozen():
    base = get_problem("quadratic-1d")
    affine = replace(base, name="quadratic-affine", G=function_difference(base.set, AffineFunction([1.0], 0.5)))
    instances = [*corpus(), affine]
    assert [inst.name for inst in instances] == list(FROZEN_SPECS)
    for inst in instances:
        head, x0 = FROZEN_SPECS[inst.name]
        assert problem_to_spec_text(inst) == head + _SPEC_TAIL.format(x0), inst.name


# ---------------------------------------------------------------------------
# the spec grammar, against configparser
# ---------------------------------------------------------------------------


def _configparser_sections(text):
    """What configparser reads from ``text``, None when it refuses it."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return {name: dict(parser[name]) for name in parser.sections()}


def _our_sections(text):
    try:
        return _read_sections(text, "spec.ini")
    except SpecFileError:
        return None


def _readme_spec():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.search(r"```ini\n(.*?)```", readme, re.S).group(1)


_HEADERS = ("space", "set", "F", "f", "G", "solver", "DEFAULT", "a;b", "x]y")
_KEYS = ("dimension", "Kind", "lo", "MATRIX", "q_linear", "x0", "gamma")
_VALUES = ("2", "0 0", "2 1; 1 2", "2 1;1 2", "a:b=c", "1%", "5%%", "x#y", "")
# a line holds spaced comment prefixes of one kind only, since configparser
# before Python 3.13 can cut a line with both at the wrong one (the last
# case of test_the_spec_grammar)
_COMMENTS = ("; note", "; a ; b", ";x;y#z", "# note", "# a # b", "#x#y;z")


def _spec_line(rng):
    """One line of a spec text, drawn from every rule of the grammar."""
    indent = rng.choice(("", "", "", " ", "  ", "\t"))
    comment = rng.choice(("",) * 6 + tuple(" " + c for c in _COMMENTS) + _COMMENTS)
    kind = rng.choices(
        ("header", "option", "continuation", "blank", "comment", "junk"),
        weights=(3, 10, 3, 2, 2, 1),
    )[0]
    if kind == "header":
        return indent + f"[{rng.choice(_HEADERS)}]" + rng.choice(("", " tail", "]", " ; c", "# c"))
    if kind == "option":
        delimiter = rng.choice(("=", " = ", ": ", " :", "="))
        return indent + rng.choice(_KEYS) + delimiter + rng.choice(_VALUES) + comment
    if kind == "continuation":
        return "    " + rng.choice(_VALUES[:-1]) + comment
    if kind == "blank":
        return rng.choice(("", "   "))
    if kind == "comment":
        return indent + rng.choice(_COMMENTS)
    return rng.choice(("novalue", "= 5", ": 5", "[]", "[open"))


def _spec_texts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        lines = [f"[{rng.choice(_HEADERS)}]"] if rng.random() < 0.9 else []
        lines += [_spec_line(rng) for _ in range(rng.randint(1, 12))]
        yield "\n".join(lines) + rng.choice(("", "\n"))


def test_the_corpus_and_readme_specs_read_as_configparser_reads_them():
    texts = [problem_to_spec_text(inst) for inst in corpus()] + [_readme_spec()]
    assert len(texts) == 7
    for text in texts:
        ours = _our_sections(text)
        assert ours is not None and ours == _configparser_sections(text)
    readme = _our_sections(texts[-1])
    assert readme["set"]["kind"] == "box" and readme["F"]["matrix"] == "2 1; 1 2"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_spec_texts_read_as_configparser_reads_them(seed):
    accepted = refused = 0
    for text in _spec_texts(seed, 400):
        ours = _our_sections(text)
        assert ours == _configparser_sections(text), text
        accepted += ours is not None
        refused += ours is None
    # the family reaches both outcomes
    assert accepted >= 40 and refused >= 40


@pytest.mark.parametrize(
    "text, sections",
    [
        ("[F]\nmatrix = 2 1; 1 2", {"F": {"matrix": "2 1; 1 2"}}),
        ("[F]\nmatrix = 2 1 ; 1 2", {"F": {"matrix": "2 1"}}),
        ("[F] ignored\nKey: a = b:c", {"F": {"key": "a = b:c"}}),
        ("[F]\nm = 1\n\n  # c\n  2 # c\n\n", {"F": {"m": "1\n\n2"}}),
        ("[DEFAULT]\nk = 1\n[F]\nk = 2\n[G]\n[DEFAULT]\nj = 3", {"F": {"k": "2", "j": "3"}, "G": {"k": "1", "j": "3"}}),
        ("[F]\ngamma = 1%", {"F": {"gamma": "1%"}}),
        # configparser before Python 3.13 tries the two prefixes in turns and
        # cuts this line at ' #', keeping '2 1;1 2 ; c', a third matrix row
        ("[F]\nmatrix = 2 1;1 2 ; c # d", {"F": {"matrix": "2 1;1 2"}}),
    ],
)
def test_the_spec_grammar(text, sections):
    assert _read_sections(text, "spec.ini") == sections


@pytest.mark.parametrize(
    "text, why",
    [
        ("[F]\n[G]\n[F]", "line 3: section [F] appears twice"),
        ("[F]\nk = 1\nK = 2", "line 3: option 'k' appears twice"),
        ("k = 1\n[F]", "line 1: an option before the first [section]"),
        ("[F]\nk 1", "line 2: expected 'key = value'"),
        ("[F]\n= 1", "line 2: expected 'key = value'"),
    ],
)
def test_a_malformed_spec_names_its_line(tmp_path, text, why):
    spec = _write(tmp_path, text)
    with pytest.raises(SpecFileError, match=f"^malformed spec file {re.escape(spec)}: {re.escape(why)}"):
        parse_problem_spec(spec)
