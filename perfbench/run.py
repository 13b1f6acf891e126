"""eqsplit benchmark: time to an accurate solution, per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload vi-inner --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the next op starts when the previous
one returns.  Every answer is checked against an independent reference
(reference.py), and a failed op is charged the workload's op time limit.
Op times in the end-to-end metrics are wall times scaled by an interleaved
speed probe, which cancels the drift of a shared host (WORKLOADS.md says
how).  With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the run measures the same passes untraced and then traced, and
the last line holds the per-layer metrics.  Earlier lines give the host,
the metrics with units and sample counts, and the checks made.

The program is imported from src/ of the checkout this file sits in, and
the run fails (exit code 2, no result line) when it is not there.
"""

from __future__ import annotations

import os

# one BLAS thread, before numpy is first imported, so that the d = 200
# solves run single-threaded in every process the benchmark starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run (this process plus fresh processes), reported as a median
SETUP_SAMPLES = 5
#: fewest ops per run, so that at least ten samples lie beyond p90
MIN_OPS = 100
#: op time between two speed probes, probes per local speed estimate, and
#: the probe time that counts as nominal speed (its median on the 2-core
#: Xeon host the benchmark was built on)
PROBE_EVERY_S = 0.5
PROBE_WINDOW = 5
PROBE_NOMINAL_S = 0.022


class ProgramMissing(RuntimeError):
    """eqsplit could not be imported from this checkout."""


def import_eqsplit():
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    try:
        eq = importlib.import_module("eqsplit")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import eqsplit from {SRC}: {exc}") from exc
    if not Path(eq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"eqsplit imported from {eq.__file__}, not from {SRC}")
    return eq


def timed_setup(workload: str, seed: int, workdir: Path):
    """Import eqsplit and build the workload; returns (eq, workload, seconds).

    Drawing the raw inputs from the seed is not counted, and references
    are computed later, outside the set-up time.
    """
    t0 = time.perf_counter()
    eq = import_eqsplit()
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed, workdir)
    w.inputs()
    t2 = time.perf_counter()
    w.build(eq)
    t3 = time.perf_counter()
    return eq, w, (t1 - t0) + (t3 - t2)


def fresh_setups(args, n: int) -> list[float]:
    """Set-up times of ``n`` fresh processes, one after another."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def host_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return facts


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy calls.

    The probe never touches eqsplit, so it moves only with the speed of the
    machine.  It takes about 22 ms.
    """
    import numpy as np

    x = np.linspace(-2.0, 2.0, 20)
    lo, hi = -np.ones(20), np.ones(20)
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(2000):
        v = np.minimum(np.maximum(x * (k % 7), lo), hi)
        acc += float(np.linalg.norm(v - x)) + sum(i * 0.5 for i in range(20))
    return time.perf_counter() - t0


def run_passes(ops, seconds: float, limit_s: float, tracer=None, passes: int | None = None):
    """Run whole passes over ``ops``; returns (records, passes).

    Unless ``passes`` is given, the count is chosen after the first pass so
    that the run lasts about ``seconds`` and holds at least MIN_OPS ops.
    Each record is (seconds, ok, label, speed): ``speed`` is the median of
    the speed probes run nearest to the op, every PROBE_EVERY_S of op time.
    An op that raises, fails its check or takes longer than the limit is
    not ok.
    """
    records = []
    probes = [(0, speed_probe()) for _ in range(3)]
    since_probe = 0.0
    done = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                answer = op.run()
                raised = None
            except Exception as exc:  # an op that raises is a failed op
                answer, raised = None, exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                elapsed = tracer.end_op()
                if op.trace_file is not None and op.trace_file.exists():
                    tracer.totals["cli.trace.bytes"] += op.trace_file.stat().st_size
            try:
                ok = raised is None and elapsed <= limit_s and op.check(answer)
            except Exception:  # an answer the check cannot read is wrong
                ok = False
            records.append((elapsed, ok, op.label))
            since_probe += elapsed
            if since_probe >= PROBE_EVERY_S:
                probes.append((len(records), speed_probe()))
                since_probe = 0.0
        done += 1
        if passes is None:
            first = time.perf_counter() - start
            passes = max(math.ceil(MIN_OPS / len(ops)), round(seconds / first), 1)
        if done >= passes:
            break
    probes.append((len(records), speed_probe()))
    at = [i for i, _ in probes]
    out = []
    for n, (elapsed, ok, label) in enumerate(records):
        k = bisect.bisect_left(at, n)
        near = [p for _, p in probes[max(0, k - PROBE_WINDOW // 2): k + PROBE_WINDOW // 2 + 1]]
        out.append((elapsed, ok, label, statistics.median(near)))
    return out, done


def summarise(records, limit_s: float, normalise: bool = False) -> dict:
    """End-to-end metrics of a run.  With ``normalise`` each op time is
    scaled by PROBE_NOMINAL_S / (its local speed probe), which removes the
    drift of the shared host's speed between and within runs."""
    def scale(speed):
        return PROBE_NOMINAL_S / speed if normalise else 1.0

    charged = [t * scale(sp) if ok else limit_s for t, ok, _, sp in records]
    n_ok = sum(ok for _, ok, _, _ in records)
    q = statistics.quantiles(charged, n=10, method="inclusive")
    return {
        "ok_per_s": n_ok / sum(charged),
        "op_ms_p50": statistics.median(charged) * 1e3,
        "op_ms_p90": q[8] * 1e3,
        "fail_frac": (len(records) - n_ok) / len(records),
        "attempted": len(records),
        "failed": len(records) - n_ok,
        "probe_ms": statistics.median(sp for *_, sp in records) * 1e3,
    }


UNITS = {
    "ok_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_frac": "ratio",
    "fail_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print one set-up time and exit (used for the fresh-process samples)")
    args = p.parse_args(argv)
    warnings.simplefilter("ignore")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work))
    try:
        return _run(args, workdir)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass


def _run(args, workdir: Path) -> int:
    eq, w, setup_main = timed_setup(args.workload, args.seed, workdir)
    if args.setup_only:
        print(repr(setup_main))
        return 0
    from tracer import Tracer, wrapped_names

    setups = [setup_main] + fresh_setups(args, SETUP_SAMPLES - 1)
    w.references()
    ops = w.ops(eq)
    facts = host_facts()
    print("host: " + json.dumps(facts, sort_keys=True))
    print(f"workload: {w.name} seed={args.seed} ops_per_pass={len(ops)} limit_s={w.limit_s} "
          f"closed loop, 1 client")

    checks = {"untraced run holds no wrapper": not wrapped_names(eq)}
    if args.trace == 0:
        records, passes = run_passes(ops, args.seconds, w.limit_s)
        checks["untraced run holds no wrapper (after)"] = not wrapped_names(eq)
        s = summarise(records, w.limit_s, normalise=True)
        raw = summarise(records, w.limit_s)
        s["ok_frac"] = 1.0 - s["fail_frac"]
        s["setup_s"] = statistics.median(setups)
        s["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        counts = {"setup_s": len(setups), "peak_rss_mb": 1}
        for name in ("ok_per_s", "op_ms_p50", "op_ms_p90", "fail_frac", "ok_frac", "setup_s", "peak_rss_mb"):
            wall = f" (wall clock: {raw[name]:.6g})" if name in ("ok_per_s", "op_ms_p50", "op_ms_p90") else ""
            print(f"metric {w.name} {name} = {s[name]:.6g} {UNITS[name]} "
                  f"(n={counts.get(name, s['attempted'])}){wall}")
        print(f"speed probe: median {s['probe_ms']:.4g} ms, nominal {PROBE_NOMINAL_S * 1e3:.4g} ms")
        metrics = {k: s[k] for k in ("ok_per_s", "op_ms_p50", "op_ms_p90", "ok_frac", "setup_s", "peak_rss_mb")}
        attempted, failed = s["attempted"], s["failed"]
        units = UNITS
    else:
        plain, passes = run_passes(ops, args.seconds / 3.0, w.limit_s)
        tracer = Tracer(eq)
        tracer.install()
        try:
            # tracing slows every op, so the time limit does not apply here
            traced, _ = run_passes(ops, 0.0, math.inf, tracer=tracer, passes=passes)
        finally:
            tracer.uninstall()
        checks["tracer removed every wrapper"] = not wrapped_names(eq)
        metrics = tracer.metrics()
        s_plain, s_traced = summarise(plain, w.limit_s), summarise(traced, w.limit_s)
        metrics["trace.overhead"] = s_traced["ok_per_s"] / s_plain["ok_per_s"]
        checks["self times add up to op time"] = metrics["trace.closure_us"] < 1.0
        checks["traced ops fail exactly as untraced ones"] = (
            [r[1] for r in traced] == [r[1] for r in plain])
        attempted, failed = s_traced["attempted"], s_traced["failed"]
        units = {}
        for name, value in metrics.items():
            print(f"layer {w.name} {name} = {value:.6g} (ops={tracer.ops})")

    tally = {}
    for _, ok, label, _ in records if args.trace == 0 else traced:
        runs, fails = tally.get(label, (0, 0))
        tally[label] = (runs + 1, fails + (not ok))
    for label, (runs, fails) in sorted(tally.items()):
        if fails:
            print(f"failed op: {label} ({fails} of {runs} runs)")
    for name, ok in checks.items():
        print(f"check: {name}: {'ok' if ok else 'FAILED'}")
    print(f"passes: {passes}")
    correct = failed == 0 and all(checks.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, _layer_unit(k))} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), (".ms", "ms"), (".bytes", "bytes"),
                         (".overhead", "ratio"), ("per_row", "points/row"),
                         ("per_outer_iter", "calls/iter")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
