"""Command-line front end: load a problem spec, solve, write the trace.

The spec file is flat INI text with sections [space], [set], [F], [G],
[solver], [init].  Vectors are whitespace-separated numbers, matrices use
';' between rows.  The file is read in one pass, with the grammar of
Python's ``configparser`` in its strict mode without interpolation:

* ``[name]`` starts a section; the name runs to the last ``]`` of the
  line, and text after it is ignored.  Options under ``[DEFAULT]`` are
  seen in every section that does not set them itself.
* ``key = value`` or ``key: value`` splits at the first ``=`` or ``:``;
  keys are lower-cased, keys and values stripped.
* A line whose first non-blank character is ``;`` or ``#`` is a comment.
  Inside a line, ``;`` or ``#`` starts a comment only after whitespace:
  ``matrix = 2 1; 1 2`` is a 2 x 2 matrix, while ``matrix = 2 1 ; 1 2``
  reads as ``2 1``.
* A line indented deeper than its option's line continues the value,
  joined with a newline.
* ``%`` is literal.

A section or option given twice, an option before the first section
header and a line with no ``=`` or ``:`` are spec errors.  Example::

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
certificate`` followed by a commented final-solution block.  The
certificate column is the worst equilibrium value at each recorded point:
the exact gap for the forms :func:`~eqsplit.dr_solver.equilibrium_gap`
covers (every corpus instance), and a minimum over one seeded sample of C
per file for every other form.  Exit codes:
0 converged, 1 spec error (a spec that cannot be read, one whose resolvent
cannot be built, or a trace file that cannot be written), 2 iteration
limit, 3 inner resolvent failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import stat
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
    equilibrium_gap,
    solve,
)
from .hilbert import (
    AffineSubspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Simplex,
    WholeSpace,
    sample_points,
)
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
        rows = [r for r in _get(section, "a", "[set]").split(";") if r.strip()]
        if not rows:
            raise SpecFileError("[set] a: expected at least one row")
        A = np.stack([_parse_vector(r, dim, "[set] A") for r in rows])
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


# a comment prefix that starts the line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)[;#]")
_DELIMITER = re.compile("[=:]")


def _read_sections(text: str, path) -> dict[str, dict[str, str]]:
    """The sections of spec ``text``, ``{name: {key: value}}``, read in one
    pass by the grammar of the module docstring; ``[DEFAULT]`` is merged
    into every other section.

    This is what ``configparser.ConfigParser(inline_comment_prefixes=(";",
    "#"), interpolation=None)`` reads, with one exception: before Python
    3.13 that parser, given a line with both prefixes after whitespace, can
    cut at a later one than the first.  ``SpecFileError`` names the line
    that breaks the grammar.
    """
    sections: dict[str, dict[str, list[str]]] = {}
    defaults: dict[str, list[str]] = {}
    options = None  # the section being read
    lines = None  # the value lines of the option being read
    indent = 0  # the indent of the last header or option line

    def malformed(why):
        return SpecFileError(f"malformed spec file {path}: line {n}: {why}")

    for n, line in enumerate(text.split("\n"), 1):
        comment = _COMMENT.search(line) if ";" in line or "#" in line else None
        content = (line[: comment.start()] if comment else line).strip()
        if not content:
            # a blank line is kept in a value, a comment line is not
            if lines is not None and comment is None:
                lines.append("")
            continue
        level = len(line) - len(line.lstrip())
        if lines is not None and level > indent:
            lines.append(content)
            continue
        indent = level
        if content[0] == "[" and (end := content.rfind("]")) >= 2:
            name = content[1:end]
            if name == "DEFAULT":
                options = defaults
            elif name in sections:
                raise malformed(f"section [{name}] appears twice")
            else:
                options = sections[name] = {}
            lines = None
            continue
        if options is None:
            raise malformed("an option before the first [section]")
        delimiter = _DELIMITER.search(content)
        if delimiter is None or delimiter.start() == 0:
            raise malformed(f"expected 'key = value', got {content!r}")
        key = content[: delimiter.start()].rstrip().lower()
        if key in options:
            raise malformed(f"option {key!r} appears twice")
        lines = options[key] = [content[delimiter.end() :].strip()]

    def joined(opts):
        return {key: "\n".join(value).rstrip() for key, value in opts.items()}

    shared = joined(defaults)
    return {name: {**shared, **joined(opts)} for name, opts in sections.items()}


def parse_problem_spec(path):
    """Parse and validate a spec file; returns (F, G, C, cfg, x0)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    spec = _read_sections(text, path)

    for name in REQUIRED_SECTIONS:
        if name not in spec:
            raise SpecFileError(f"missing required section [{name}]")

    try:
        dim = int(_get(spec["space"], "dimension", "[space]"))
    except ValueError as exc:
        raise SpecFileError(f"[space]: dimension must be an integer") from exc
    if dim < 1:
        raise SpecFileError("[space]: dimension must be >= 1")

    C = _build_set(spec["set"], dim)
    F = _build_bifunction(spec["F"], C, "F")
    G = _build_bifunction(spec["G"], C, "G")

    sol = spec["solver"]
    preset = sol.get("error_preset", "none").strip()
    if preset not in ERROR_PRESETS:
        raise SpecFileError(
            f"[solver]: unknown error_preset {preset!r}; choose from {sorted(ERROR_PRESETS)}"
        )
    errors = ERROR_PRESETS[preset](dim)
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

    x0 = _parse_vector(_get(spec["init"], "x0", "[init]"), dim, "[init] x0")
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
        operator = H.matrix is not None and (H.matrix.any() or H.offset.any())
        if H.oracles:
            raise ValueError(f"[{label}]: the spec format cannot hold a generic part")
        if len(H.functions) > 1:
            raise ValueError(f"[{label}]: the spec format cannot hold two functions")
        if H.functions and operator:
            raise ValueError(f"[{label}]: the spec format cannot hold a function plus an operator part")
        if operator:
            out.append("family = operator-induced")
            out.append("matrix = " + "; ".join(" ".join(repr(float(v)) for v in row) for row in H.matrix))
            out.append("offset = " + " ".join(repr(float(v)) for v in H.offset))
            return out
        if not H.functions:
            out.append("family = zero")
            return out
        out.append("family = function-difference")
        Q, q, w, k, rest = H.canonical
        if rest:
            raise ValueError("unsupported convex function")
        if Q is not None:
            out.append("function = quadratic")
            out.append("q_matrix = " + "; ".join(" ".join(repr(float(v)) for v in row) for row in Q))
            out.append("q_linear = " + " ".join(repr(float(v)) for v in q))
        elif w is not None:
            out.append("function = weighted-l1")
            out.append("weights = " + " ".join(repr(float(v)) for v in w))
        else:
            out.append("function = affine")
            out.append("linear = " + " ".join(repr(float(v)) for v in q))
            out.append(f"constant = {k!r}")
        return out

    lines += bif_lines(inst.F, "F")
    lines += bif_lines(inst.G, "G")
    if callable(cfg.lambda_schedule):
        raise ValueError("only constant relaxation schedules are serializable")
    if cfg.error_schedule_a is not None or cfg.error_schedule_b is not None:
        raise ValueError("error schedules are not serializable; pass error presets on the command line")
    lines += [
        "",
        "[solver]",
        f"gamma = {cfg.gamma!r}",
        f"lambda = {cfg.lambda_schedule!r}",
        f"tol = {cfg.residual_tol!r}",
        f"max_iter = {cfg.max_iter}",
        f"trace_every = {cfg.trace_every}",
        "error_preset = none",
        f"seed = {cfg.seed}",
        "",
        "[init]",
        "x0 = " + " ".join(repr(float(v)) for v in np.atleast_1d(x0)),
        "",
    ]
    return "\n".join(lines)


def _write_trace(path, result: SolveResult, F: Bifunction, G: Bifunction, cfg: SolverConfig):
    """Write the trace file of ``result``, a solve of (F, G) under ``cfg``.

    The recorded y, finite vectors the solver built, are projected
    unchecked by the set's ``_project_rows``, as ``sample_points`` does.
    One stacked :func:`equilibrium_gap` call over those points and y* gives
    the column and ``# certificate``, a few O(d) array operations per row
    with no sample; for a form it does not cover, one stacked
    :func:`equilibrium_certificate` call over one sample drawn for the
    file.  Either way ``# certificate`` has the bits of
    ``result.certificate`` without reading it.  The other columns are the
    trace's own lists, written as recorded.  The text is written over any
    old file by :func:`_write_over`; ``SpecFileError`` when it cannot be
    written.
    """
    trace = result.trace
    rows = ["n,residual_dr,step,certificate"]
    P = F.set._project_rows(np.array(trace.y).reshape(len(trace), F.dimension))
    P = np.vstack([P, result.y_star])
    values = equilibrium_gap(F, G, P)
    if values is None:
        values = equilibrium_certificate(F, G, P, sample_points(F.set, CERTIFICATE_SAMPLES, cfg.seed))
    *certs, cert = values.tolist()
    for n, res, step, c in zip(trace.n, trace.residual_dr, trace.step, certs):
        rows.append(f"{n},{res!r},{step!r},{c!r}")
    rows.append(f"# status = {result.status}")
    rows.append(f"# iterations = {result.iterations}")
    rows.append("# y_star = " + " ".join(repr(float(v)) for v in result.y_star))
    rows.append(f"# certificate = {cert!r}")
    try:
        _write_over(path, ("\n".join(rows) + "\n").encode())
    except OSError as exc:
        raise SpecFileError(f"cannot write trace {path}: {exc}") from exc


def _write_over(path, data: bytes) -> None:
    """Write ``data`` over the file at ``path`` from its start, then cut a
    regular file to ``len(data)``.

    Opening without ``O_TRUNC`` keeps the blocks of an existing file,
    which its filesystem would otherwise free and allocate again: most of
    the cost of rewriting a trace on ext4.  A new file gets mode
    ``0o666`` less the umask, and a target that is not a regular file
    (``/dev/null``, a FIFO) is written without cutting.  Not atomic: an
    interrupted write can leave new bytes followed by old ones.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
        errors = ERROR_PRESETS[args.error_preset](dim)
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
        # solve raises ValueError when a resolvent cannot be built, e.g. a
        # singular I + gamma M from a non-monotone matrix
        result = solve(F, G, x0, cfg)
        if trace_out_path is not None:
            _write_trace(trace_out_path, result, F, G, cfg)
    except (SpecFileError, ValueError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    print(f"status = {result.status}")
    print(f"iterations = {result.iterations}")
    print("y_star = " + " ".join(repr(float(v)) for v in result.y_star))
    return _STATUS_EXIT[result.status]


def _run_instance(inst: ProblemInstance, args, trace_path) -> int:
    try:
        cfg = _apply_overrides(SolverConfig(), args, inst.set.dimension)
        result = solve(inst.F, inst.G, inst.default_x0, cfg)
        if trace_path is not None:
            _write_trace(trace_path, result, inst.F, inst.G, cfg)
    except ValueError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    print(f"[{inst.name}] status = {result.status}, iterations = {result.iterations}")
    print(f"[{inst.name}] y_star = " + " ".join(repr(float(v)) for v in result.y_star))
    return _STATUS_EXIT[result.status]


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing never
    changes it."""
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
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the seed of the certificate sample (forms with no exact gap) and the sampled admissibility check",
    )
    return p


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)

    if args.list_problems:
        if args.spec is not None or args.problem is not None or args.trace is not None:
            print("spec error: --list-problems takes no spec file, --problem or --trace", file=sys.stderr)
            return EXIT_SPEC_ERROR
        for inst in corpus():
            print(inst.name)
        return EXIT_CONVERGED

    if args.trace is not None and (args.trace.endswith((os.sep, "/")) or os.path.isdir(args.trace)):
        print(f"spec error: --trace {args.trace!r} names a directory, not a file", file=sys.stderr)
        return EXIT_SPEC_ERROR

    if args.problem is not None:
        if args.spec is not None:
            print("spec error: give a spec file or --problem, not both", file=sys.stderr)
            return EXIT_SPEC_ERROR
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
