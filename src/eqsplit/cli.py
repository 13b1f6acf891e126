"""Command-line front end: load a problem spec, solve, write the trace.

The spec file is flat INI text with sections [space], [set], [F], [G],
[solver], [init].  Vectors are whitespace-separated numbers, matrices use
';' between rows.  Example::

    [space]
    dimension = 2

    [set]
    kind = box
    lo = 0 0
    hi = 1 1

    [F]
    family = operator-induced
    matrix = 2 1; 1 2
    offset = -1.5 -2.5

    [G]
    family = zero

    [solver]
    gamma = 1.0
    lambda = 1.0
    tol = 1e-8
    max_iter = 10000
    error_preset = none
    seed = 0

    [init]
    x0 = 0.5 0.5

The trace is comma-separated text with header ``n,residual_dr,step,
certificate`` followed by a commented final-solution block.  Exit codes:
0 converged, 1 spec error, 2 iteration limit, 3 inner resolvent failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from . import dr_solver
from .bifunctions import (
    AffineFunction,
    Bifunction,
    Quadratic,
    WeightedL1,
    function_difference,
    operator_bifunction,
    zero_bifunction,
)
from .dr_solver import (
    CERTIFICATE_SAMPLES,
    ERROR_PRESETS,
    LAMBDA_PRESETS,
    SolveResult,
    SolverConfig,
    equilibrium_certificate,
    solve,
)
from .hilbert import AffineSubspace, Ball, Box, ConvexSet, Halfspace, Simplex, WholeSpace, sample_points
from .problems import ProblemInstance, corpus, get_problem

EXIT_CONVERGED = 0
EXIT_SPEC_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_INNER_FAILURE = 3

_STATUS_EXIT = {
    dr_solver.CONVERGED: EXIT_CONVERGED,
    dr_solver.MAX_ITER: EXIT_MAX_ITER,
    dr_solver.INNER_FAILURE: EXIT_INNER_FAILURE,
}

REQUIRED_SECTIONS = ("space", "set", "F", "G", "solver", "init")


class SpecFileError(ValueError):
    """Problem spec file failed to parse or validate."""


def _parse_vector(text: str, dim: int, where: str) -> np.ndarray:
    try:
        vals = [float(t) for t in text.replace(",", " ").split()]
    except ValueError as exc:
        raise SpecFileError(f"{where}: could not parse numbers from {text!r}") from exc
    if len(vals) != dim:
        raise SpecFileError(f"{where}: expected {dim} numbers, got {len(vals)}")
    return np.array(vals)


def _parse_matrix(text: str, dim: int, where: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    if len(rows) != dim:
        raise SpecFileError(f"{where}: expected {dim} matrix rows, got {len(rows)}")
    return np.stack([_parse_vector(r, dim, where) for r in rows])


def _get(section, key: str, where: str) -> str:
    if key not in section:
        raise SpecFileError(f"{where}: missing required option {key!r}")
    return section[key]


def _build_set(section, dim: int) -> ConvexSet:
    kind = _get(section, "kind", "[set]").strip()
    if kind == "whole-space":
        return WholeSpace(dim)
    if kind == "box":
        lo = _parse_vector(_get(section, "lo", "[set]"), dim, "[set] lo")
        hi = _parse_vector(_get(section, "hi", "[set]"), dim, "[set] hi")
        try:
            return Box(lo, hi)
        except ValueError as exc:
            raise SpecFileError(f"[set]: {exc}") from exc
    if kind == "ball":
        center = _parse_vector(_get(section, "center", "[set]"), dim, "[set] center")
        radius = float(_get(section, "radius", "[set]"))
        return Ball(center, radius)
    if kind == "halfspace":
        normal = _parse_vector(_get(section, "normal", "[set]"), dim, "[set] normal")
        offset = float(_get(section, "offset", "[set]"))
        return Halfspace(normal, offset)
    if kind == "simplex":
        return Simplex(dim)
    if kind == "affine":
        A = np.stack(
            [_parse_vector(r, dim, "[set] A") for r in _get(section, "a", "[set]").split(";")]
        )
        b = _parse_vector(_get(section, "b", "[set]"), A.shape[0], "[set] b")
        return AffineSubspace(A, b)
    raise SpecFileError(f"[set]: unknown set kind {kind!r}")


def _build_bifunction(section, C: ConvexSet, label: str) -> Bifunction:
    where = f"[{label}]"
    family = _get(section, "family", where).strip()
    d = C.dimension
    if family == "zero":
        return zero_bifunction(C)
    if family == "operator-induced":
        M = _parse_matrix(_get(section, "matrix", where), d, f"{where} matrix")
        c = (
            _parse_vector(section["offset"], d, f"{where} offset")
            if "offset" in section
            else None
        )
        try:
            return operator_bifunction(C, M, c)
        except ValueError as exc:
            raise SpecFileError(f"{where}: {exc}") from exc
    if family == "function-difference":
        fkind = _get(section, "function", where).strip()
        try:
            if fkind == "quadratic":
                Q = _parse_matrix(_get(section, "q_matrix", where), d, f"{where} q_matrix")
                q = (
                    _parse_vector(section["q_linear"], d, f"{where} q_linear")
                    if "q_linear" in section
                    else np.zeros(d)
                )
                return function_difference(C, Quadratic(Q, q))
            if fkind == "weighted-l1":
                w = _parse_vector(_get(section, "weights", where), d, f"{where} weights")
                return function_difference(C, WeightedL1(w))
            if fkind == "affine":
                a = _parse_vector(_get(section, "linear", where), d, f"{where} linear")
                b = float(section.get("constant", "0"))
                return function_difference(C, AffineFunction(a, b))
        except SpecFileError:
            raise
        except ValueError as exc:
            raise SpecFileError(f"{where}: {exc}") from exc
        raise SpecFileError(f"{where}: unknown function kind {fkind!r}")
    raise SpecFileError(f"{where}: unknown bifunction family {family!r}")


def parse_problem_spec(path):
    """Parse and validate a spec file; returns (F, G, C, cfg, x0)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise SpecFileError(f"malformed spec file {path}: {exc}") from exc

    for name in REQUIRED_SECTIONS:
        if name not in parser:
            raise SpecFileError(f"missing required section [{name}]")

    try:
        dim = int(_get(parser["space"], "dimension", "[space]"))
    except ValueError as exc:
        raise SpecFileError(f"[space]: dimension must be an integer") from exc
    if dim < 1:
        raise SpecFileError("[space]: dimension must be >= 1")

    C = _build_set(parser["set"], dim)
    F = _build_bifunction(parser["F"], C, "F")
    G = _build_bifunction(parser["G"], C, "G")

    sol = parser["solver"]
    preset = sol.get("error_preset", "none").strip()
    if preset not in ERROR_PRESETS:
        raise SpecFileError(
            f"[solver]: unknown error_preset {preset!r}; choose from {sorted(ERROR_PRESETS)}"
        )
    errors = ERROR_PRESETS[preset](dim) if preset != "none" else None
    lam_text = sol.get("lambda", "1.0").strip()
    if lam_text in LAMBDA_PRESETS:
        lam = LAMBDA_PRESETS[lam_text]()
    else:
        try:
            lam = float(lam_text)
        except ValueError:
            raise SpecFileError(
                f"[solver]: lambda must be a number or one of {sorted(LAMBDA_PRESETS)}"
            ) from None
    try:
        cfg = SolverConfig(
            gamma=float(sol.get("gamma", "1.0")),
            lambda_schedule=lam,
            error_schedule_a=errors,
            error_schedule_b=errors,
            max_iter=int(sol.get("max_iter", "10000")),
            residual_tol=float(sol.get("tol", "1e-8")),
            trace_every=int(sol.get("trace_every", "1")),
            seed=int(sol.get("seed", "0")),
        )
    except ValueError as exc:
        raise SpecFileError(f"[solver]: {exc}") from exc

    x0 = _parse_vector(_get(parser["init"], "x0", "[init]"), dim, "[init] x0")
    return F, G, C, cfg, x0


def problem_to_spec_text(inst: ProblemInstance, cfg: SolverConfig | None = None, x0=None) -> str:
    """Serialize a corpus instance into the spec file format."""
    cfg = cfg if cfg is not None else SolverConfig()
    x0 = x0 if x0 is not None else inst.default_x0
    C = inst.set
    lines = ["[space]", f"dimension = {C.dimension}", "", "[set]"]
    if C.kind == "whole-space":
        lines.append("kind = whole-space")
    elif C.kind == "box":
        lines.append("kind = box")
        lines.append("lo = " + " ".join(repr(float(v)) for v in C.lo))
        lines.append("hi = " + " ".join(repr(float(v)) for v in C.hi))
    else:
        raise ValueError(f"corpus serialization does not cover set kind {C.kind!r}")

    def bif_lines(H: Bifunction, label: str) -> list[str]:
        out = ["", f"[{label}]"]
        if H.family == "operator-induced":
            if not H.matrix.any() and not H.offset.any():
                out.append("family = zero")
                return out
            out.append("family = operator-induced")
            out.append("matrix = " + "; ".join(" ".join(repr(float(v)) for v in row) for row in H.matrix))
            out.append("offset = " + " ".join(repr(float(v)) for v in H.offset))
            return out
        if H.family == "function-difference":
            out.append("family = function-difference")
            f = H.function
            if isinstance(f, Quadratic):
                out.append("function = quadratic")
                out.append("q_matrix = " + "; ".join(" ".join(repr(float(v)) for v in row) for row in f.Q))
                out.append("q_linear = " + " ".join(repr(float(v)) for v in f.q))
            elif isinstance(f, WeightedL1):
                out.append("function = weighted-l1")
                out.append("weights = " + " ".join(repr(float(v)) for v in f.weights))
            elif isinstance(f, AffineFunction):
                out.append("function = affine")
                out.append("linear = " + " ".join(repr(float(v)) for v in f.a))
                out.append(f"constant = {float(f.b)!r}")
            else:
                raise ValueError("unsupported convex function")
            return out
        raise ValueError(f"corpus serialization does not cover family {H.family!r}")

    lines += bif_lines(inst.F, "F")
    lines += bif_lines(inst.G, "G")
    if callable(cfg.lambda_schedule):
        raise ValueError("only constant relaxation schedules are serializable")
    lines += [
        "",
        "[solver]",
        f"gamma = {cfg.gamma!r}",
        f"lambda = {cfg.lambda_schedule!r}",
        f"tol = {cfg.residual_tol!r}",
        f"max_iter = {cfg.max_iter}",
        "error_preset = none",
        f"seed = {cfg.seed}",
        "",
        "[init]",
        "x0 = " + " ".join(repr(float(v)) for v in np.atleast_1d(x0)),
        "",
    ]
    return "\n".join(lines)


def _write_trace(path, result: SolveResult, F: Bifunction, G: Bifunction, cfg: SolverConfig):
    trace = result.trace
    rows = ["n,residual_dr,step,certificate"]
    # the sample behind solve()'s certificate, drawn once per file
    Y = sample_points(F.set, CERTIFICATE_SAMPLES, cfg.seed)
    for n, y, res, step in zip(trace.n, trace.y, trace.residual_dr, trace.step):
        cert = equilibrium_certificate(F, G, F.set.project(y), Y)
        rows.append(f"{n},{res!r},{step!r},{cert!r}")
    rows.append(f"# status = {result.status}")
    rows.append(f"# iterations = {result.iterations}")
    rows.append("# y_star = " + " ".join(repr(float(v)) for v in result.y_star))
    cert = result.certificate
    rows.append(f"# certificate = {cert!r}")
    Path(path).write_text("\n".join(rows) + "\n")


def _apply_overrides(cfg: SolverConfig, args, dim: int) -> SolverConfig:
    changes = {}
    if args.gamma is not None:
        changes["gamma"] = args.gamma
    if args.lam is not None:
        changes["lambda_schedule"] = args.lam
    if args.tol is not None:
        changes["residual_tol"] = args.tol
    if args.max_iter is not None:
        changes["max_iter"] = args.max_iter
    if args.trace_every is not None:
        changes["trace_every"] = args.trace_every
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.error_preset is not None:
        errors = ERROR_PRESETS[args.error_preset](dim) if args.error_preset != "none" else None
        changes["error_schedule_a"] = errors
        changes["error_schedule_b"] = errors
    if not changes:
        return cfg
    from dataclasses import replace

    return replace(cfg, **changes)


def run(spec_path, trace_out_path, args=None) -> int:
    """Solve the problem in a spec file and write its trace; returns the exit code."""
    args = args if args is not None else _arg_parser().parse_args([])
    try:
        F, G, C, cfg, x0 = parse_problem_spec(spec_path)
        cfg = _apply_overrides(cfg, args, C.dimension)
    except (SpecFileError, ValueError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    result = solve(F, G, x0, cfg)
    if trace_out_path is not None:
        _write_trace(trace_out_path, result, F, G, cfg)
    print(f"status = {result.status}")
    print(f"iterations = {result.iterations}")
    print("y_star = " + " ".join(repr(float(v)) for v in result.y_star))
    return _STATUS_EXIT[result.status]


def _run_instance(inst: ProblemInstance, args, trace_path) -> int:
    try:
        cfg = _apply_overrides(SolverConfig(), args, inst.set.dimension)
    except ValueError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    result = solve(inst.F, inst.G, inst.default_x0, cfg)
    if trace_path is not None:
        _write_trace(trace_path, result, inst.F, inst.G, cfg)
    print(f"[{inst.name}] status = {result.status}, iterations = {result.iterations}")
    print(f"[{inst.name}] y_star = " + " ".join(repr(float(v)) for v in result.y_star))
    return _STATUS_EXIT[result.status]


def _arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eqsplit",
        description="Solve a summed equilibrium problem by relaxed splitting of resolvents.",
    )
    p.add_argument("spec", nargs="?", help="problem spec file (INI format)")
    p.add_argument("--trace", dest="trace", default=None, help="write the iteration trace here")
    p.add_argument("--problem", default=None, help="run a named corpus instance ('all' for every one)")
    p.add_argument("--list-problems", action="store_true", help="print corpus instance names")
    p.add_argument("--gamma", type=float, default=None, help="override resolvent scaling")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="override constant relaxation")
    p.add_argument("--tol", type=float, default=None, help="override residual tolerance")
    p.add_argument("--max-iter", type=int, default=None, help="override iteration cap")
    p.add_argument("--trace-every", type=int, default=None, help="record every k-th iteration")
    p.add_argument(
        "--error-preset",
        choices=sorted(ERROR_PRESETS),
        default=None,
        help="override injected resolvent error sequences",
    )
    p.add_argument("--seed", type=int, default=None, help="override sampling seed")
    return p


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)

    if args.list_problems:
        for inst in corpus():
            print(inst.name)
        return EXIT_CONVERGED

    if args.problem is not None:
        if args.problem == "all":
            base = Path(args.trace) if args.trace else None
            codes = []
            for inst in corpus():
                path = None
                if base is not None:
                    path = base.with_name(f"{base.stem}_{inst.name}{base.suffix or '.csv'}")
                codes.append(_run_instance(inst, args, path))
            return max(codes)
        try:
            inst = get_problem(args.problem)
        except KeyError as exc:
            print(f"spec error: {exc}", file=sys.stderr)
            return EXIT_SPEC_ERROR
        return _run_instance(inst, args, args.trace)

    if args.spec is None:
        print("spec error: provide a spec file, --problem, or --list-problems", file=sys.stderr)
        return EXIT_SPEC_ERROR
    return run(args.spec, args.trace, args)


if __name__ == "__main__":
    sys.exit(main())
