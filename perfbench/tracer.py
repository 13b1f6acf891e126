"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions and methods of eqsplit with
wrappers, in every namespace a caller looks them up in (``as_vector`` is
imported by five modules, ``resolve`` by three, and so on).  Each wrapper
opens a span whose parent is the innermost open span, so every span of an
op descends from the op's root span.  A span's self time is its duration
minus the durations of its direct children; the root's self time is the
time no wrapper saw (``unattributed``).  Self times therefore add up to the
op time exactly, which ``closure_us`` checks.

Spans are folded into per-op sums as they close; nothing is kept per call.
``uninstall`` restores every original, and ``wrapped_names`` lets an
untraced run prove that it runs the program unmodified.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

MARK = "__perfbench_wrapper__"

MODULES = ("hilbert", "bifunctions", "resolvents", "operators", "dr_solver", "problems", "cli")

INNER = "inner-iterative"
CLOSED_FORM = {
    "closed-form-projection": "projection",
    "closed-form-linear-solve": "linear_solve",
    "prox-composition": "prox",
}


class Span:
    __slots__ = ("name", "start", "child", "extra")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0
        self.extra = None


def targets(eq):
    """(owner, attribute, span name) for every wrapped lookup site."""
    from eqsplit import cli

    H, B, R, O, D, P = eq.hilbert, eq.bifunctions, eq.resolvents, eq.operators, eq.dr_solver, eq.problems
    sites = []

    def add(owners, attr, name):
        for owner in owners:
            if attr in vars(owner):
                sites.append((owner, attr, name))

    add((H, B, R, O, D, P, eq), "as_vector", "hilbert.as_vector")
    add((H, B, R, O, D, eq), "sample_points", "hilbert.sample_points")
    add([c for c in vars(H).values() if isinstance(c, type) and issubclass(c, H.ConvexSet)],
        "project", "hilbert.project")
    add((B, D, eq), "check_admissibility", "bifunctions.check_admissibility")
    add((B.Bifunction,), "eval_batch", "bifunctions.eval_batch")
    add((R.ResolventOracle,), "__init__", "resolvents.ResolventOracle.init")
    add((R, D, O, eq), "resolve", "resolvents.resolve")
    add((R, eq), "inner_solve", "resolvents.inner_solve")
    add((D, cli, eq), "solve", "dr_solver.solve")
    add((D, eq), "solve_operator_form", "dr_solver.solve_operator_form")
    for fn in ("operator_from_bifunction", "zeros_bruteforce", "equilibrium_bruteforce"):
        add((O, eq), fn, f"operators.{fn}")
    add((O.MonotoneOperator,), "member_batch", "operators.member_batch")
    add((P, cli, eq), "corpus", "problems.corpus")
    add((P, cli, eq), "get_problem", "problems.get_problem")
    add((cli,), "parse_problem_spec", "cli.parse_problem_spec")
    add((cli,), "main", "cli.main")
    return sites


def wrapped_names(eq) -> list[str]:
    """Names of lookup sites that currently hold a tracing wrapper."""
    return [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in targets(eq) if hasattr(getattr(o, a), MARK)]


class Tracer:
    def __init__(self, eq):
        self.eq = eq
        self.saved = []
        self.stack = []
        self.acc = None
        self.totals = defaultdict(float)
        self.ops = 0
        self.closure = 0.0

    # -- installation ------------------------------------------------------

    def install(self):
        for owner, attr, name in targets(self.eq):
            original = vars(owner)[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        tracer = self
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        call = self._inner_solve_call if name == "resolvents.inner_solve" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.acc is None:
                return fn(*args, **kwargs)
            span = tracer._enter(name)
            result = None
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = call(span, fn, args, kwargs) if call else fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(span, after, result)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        span = Span(name, time.perf_counter())
        self.stack.append(span)
        return span

    def _exit(self, span, after, result):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - span.start
        parent = self.stack[-1]
        parent.child += duration
        acc = self.acc
        acc[span.name + ".self"] += duration - span.child
        acc[span.name + ".incl"] += duration
        acc[span.name + ".calls"] += 1
        if parent.extra is not None and "children" in parent.extra:
            parent.extra["children"].append((span.name, span.start, end))
        if after is not None:
            after(span, parent, result, end)

    def begin_op(self):
        self.acc = defaultdict(float)
        self.stack = [Span("op", time.perf_counter())]

    def end_op(self):
        end = time.perf_counter()
        root = self.stack.pop()
        acc, self.acc = self.acc, None
        op_s = end - root.start
        unattributed = op_s - root.child
        self_sum = sum(v for k, v in acc.items() if k.endswith(".self"))
        self.closure = max(self.closure, abs(self_sum + unattributed - op_s))
        acc["unattributed"] = unattributed
        acc["op"] = op_s
        for k, v in acc.items():
            self.totals[k] += v
        self.ops += 1
        return op_s

    # -- hooks: extra counts at particular boundaries ------------------------

    def _before_hilbert_sample_points(self, span, args, kwargs):
        n = args[1] if len(args) > 1 else kwargs.get("n", 0)
        self.acc["hilbert.sample_points.points"] += n
        main = self._open("cli.main")
        if main is not None and main.extra.get("solve_end") is not None:
            self.acc["cli.trace.points"] += n

    def _after_resolvents_resolve(self, span, parent, result, end):
        method = span.extra["method"]
        duration = end - span.start
        if method == INNER:
            self.acc["resolvents.resolve.inner.calls"] += 1
            self.acc["resolvents.resolve.inner.s"] += duration
        elif method in CLOSED_FORM:
            for key in ("closed_form", CLOSED_FORM[method]):
                self.acc[f"resolvents.resolve.{key}.calls"] += 1
                self.acc[f"resolvents.resolve.{key}.s"] += duration
        if parent.name.startswith("dr_solver."):
            self.acc["dr_solver.resolve_calls"] += 1

    def _before_resolvents_resolve(self, span, args, kwargs):
        oracle = args[0] if args else kwargs.get("oracle")
        span.extra = {"method": getattr(oracle, "method", None)}

    def _inner_solve_call(self, span, fn, args, kwargs):
        wants_info = kwargs.get("return_info", False)
        self.acc["resolvents.inner_solve.n"] += 1
        try:
            z, info = fn(*args, **{**kwargs, "return_info": True})
        except self.eq.resolvents.ConvergenceFailure as failure:
            self.acc["resolvents.inner_failures"] += 1
            self.acc["resolvents.inner_solve.iters"] += failure.iterations or 0
            raise
        self.acc["resolvents.inner_solve.iters"] += info["iterations"]
        return (z, info) if wants_info else z

    def _before_dr_solver_solve(self, span, args, kwargs):
        span.extra = {"children": []}

    _before_dr_solver_solve_operator_form = _before_dr_solver_solve

    def _after_dr_solver_solve(self, span, parent, result, end):
        children = span.extra["children"]
        resolves = [(s, e) for name, s, e in children if name == "resolvents.resolve"]
        if result is not None:
            self.acc["dr_solver.outer_iters"] += result.iterations
            self.acc["dr_solver.outer_passes"] += result.iterations + 1
        if resolves:
            first, last = resolves[0][0], resolves[-1][1]
            self.acc["dr_solver.setup_s"] += first - span.start
            self.acc["dr_solver.certificate_s"] += end - last
            inside = sum(e - s for _, s, e in children if s >= first and e <= last)
            self.acc["dr_solver.step_self_s"] += (last - first) - inside
        if parent.name == "cli.main":
            parent.extra["solve_end"] = end
            if result is not None:
                self.acc["cli.trace.rows"] += len(result.trace)

    _after_dr_solver_solve_operator_form = _after_dr_solver_solve

    def _before_cli_main(self, span, args, kwargs):
        span.extra = {"solve_end": None}

    def _after_cli_main(self, span, parent, result, end):
        if span.extra["solve_end"] is not None:
            self.acc["cli.trace.s"] += end - span.extra["solve_end"]

    def _open(self, name):
        for span in reversed(self.stack):
            if span.name == name:
                return span
        return None

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: per-op means unless the name says per call."""
        t = self.totals
        n = max(self.ops, 1)

        def per_op(key, scale=1.0):
            return t[key] * scale / n

        def per(key, calls_key, scale=1.0):
            return t[key] * scale / t[calls_key] if t[calls_key] else 0.0

        m = {
            "hilbert.as_vector.calls": per_op("hilbert.as_vector.calls"),
            "hilbert.as_vector.self_ms": per_op("hilbert.as_vector.self", 1e3),
            "hilbert.project.calls": per_op("hilbert.project.calls"),
            "hilbert.project.self_ms": per_op("hilbert.project.self", 1e3),
            "hilbert.sample_points.points": per_op("hilbert.sample_points.points"),
            "hilbert.sample_points.self_ms": per_op("hilbert.sample_points.self", 1e3),
            "bifunctions.check_admissibility.self_ms": per_op("bifunctions.check_admissibility.self", 1e3),
            "bifunctions.eval_batch.calls": per_op("bifunctions.eval_batch.calls"),
            "bifunctions.eval_batch.self_ms": per_op("bifunctions.eval_batch.self", 1e3),
            "resolvents.ResolventOracle.init_ms": per_op("resolvents.ResolventOracle.init.incl", 1e3),
            "resolvents.resolve.calls": per_op("resolvents.resolve.calls"),
            "resolvents.resolve.calls_per_outer_iter": per("dr_solver.resolve_calls", "dr_solver.outer_passes"),
            "resolvents.resolve.closed_form_us": per(
                "resolvents.resolve.closed_form.s", "resolvents.resolve.closed_form.calls", 1e6),
            "resolvents.resolve.inner_ms": per("resolvents.resolve.inner.s", "resolvents.resolve.inner.calls", 1e3),
            "resolvents.inner_solve.iters": per("resolvents.inner_solve.iters", "resolvents.inner_solve.n"),
            "resolvents.inner_failures": per_op("resolvents.inner_failures"),
            "dr_solver.outer_iters": per_op("dr_solver.outer_iters"),
            "dr_solver.step_self_us": per("dr_solver.step_self_s", "dr_solver.outer_passes", 1e6),
            "dr_solver.setup_ms": per_op("dr_solver.setup_s", 1e3),
            "dr_solver.certificate_ms": per_op("dr_solver.certificate_s", 1e3),
            "operators.operator_from_bifunction.ms": per_op("operators.operator_from_bifunction.incl", 1e3),
            "operators.zeros_bruteforce.ms": per_op("operators.zeros_bruteforce.incl", 1e3),
            "operators.equilibrium_bruteforce.ms": per_op("operators.equilibrium_bruteforce.incl", 1e3),
            "operators.member_batch.calls": per_op("operators.member_batch.calls"),
            "problems.corpus.ms": per_op("problems.corpus.incl", 1e3),
            "cli.parse_problem_spec.ms": per_op("cli.parse_problem_spec.incl", 1e3),
            "cli.trace.ms": per_op("cli.trace.s", 1e3),
            "cli.trace.rows": per_op("cli.trace.rows"),
            "cli.trace.bytes": per_op("cli.trace.bytes"),
            "cli.trace.sample_points_per_row": per("cli.trace.points", "cli.trace.rows"),
        }
        for method in CLOSED_FORM.values():
            m[f"resolvents.resolve.{method}_us"] = per(
                f"resolvents.resolve.{method}.s", f"resolvents.resolve.{method}.calls", 1e6)
        for module in MODULES:
            m[f"{module}.self_ms"] = sum(
                v for k, v in t.items() if k.startswith(module + ".") and k.endswith(".self")) * 1e3 / n
        m["unattributed_ms"] = per_op("unattributed", 1e3)
        m["trace.op_ms"] = per_op("op", 1e3)
        m["trace.closure_us"] = self.closure * 1e6
        return m
