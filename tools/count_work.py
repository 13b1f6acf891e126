"""Counted work per benchmark op: passes, resolvent calls, inversions.

Usage, from the root of a checkout:

    python3 tools/count_work.py --workload vi-inner --seed 201
    python3 tools/count_work.py --parent HEAD~1 --out BENCH_26.json

Each workload (each ``--workload`` given, or every one BENCHMARK.json
lists) is built from ``perfbench/workloads.py``, imported unchanged, at
each seed (``--seed``, or 201-210), and its ops run two whole passes in
their order: the first builds every kept resolvent, the second reuses them,
as every later pass of a benchmark run does.  While an op runs, wrappers count:

* ``dr_solves``: calls of the iteration core ``dr_solver._run_dr``;
* ``dr_passes``: its passes, counted as the calls of the G-side
  resolvent map it was handed, one per pass;
* ``map_calls_f``: the calls of its F-side map, one per pass and one
  more per pass that injects an error on the G side;
* ``kept_map_calls``: calls of every map that ``resolvents._build``
  returns, inside the core or not (the operator form's maps are among
  them, since each operator term keeps its oracle's map);
* ``inv_calls`` and ``solve_calls``: ``np.linalg.inv`` and ``solve``;
* ``pivot_passes``: box pivoting passes, one ``np.count_nonzero`` call
  each (no other code in ``src/`` calls it);
* ``inner_iterations``: iterations of ``resolvents.inner_solve``;
* ``sample_draws``: calls of ``hilbert.sample_points``, under every name a
  module of the package imports it as (``cli`` included);
* ``certificate_evaluations``: rows times sample points of every call of
  ``dr_solver.equilibrium_certificate``, under every name it is imported
  as: the bifunction pairs a sampled certificate evaluates.

Each count is exact and machine independent: a rerun of the same code
gives the same output byte for byte.  The output holds, per workload, the
ops of one pass over all seeds and, per pass, each counter's mean per op.
Without ``--out`` it is printed; with ``--out`` it is stored under the
``counts`` key of that JSON file (made if missing, other keys kept) as the
``change`` side, the working tree, whose HEAD it names; ``--parent`` adds
the same counts of that revision, from a ``git archive`` export, whether
the two agree, and which counters of which workload differ.
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py, before numpy is first imported:
# a threaded product may round differently and change the counts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import pkgutil
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(201, 211))
PASSES = 2


def count(tree: Path, workloads: list[str], seeds: list[int]) -> dict:
    """Per workload, one dict of mean counts per op for each pass."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import numpy as np

    import eqsplit as eq
    from eqsplit import dr_solver, hilbert, resolvents
    from workloads import WORKLOADS

    if not Path(eq.__file__).resolve().is_relative_to(tree / "src"):
        raise RuntimeError(f"eqsplit imported from {eq.__file__}, not from {tree / 'src'}")

    counts = Counter()

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    run_dr, build, inner = dr_solver._run_dr, resolvents._build, resolvents.inner_solve

    def counted_run_dr(jf, jg, *args, **kwargs):
        counts["dr_solves"] += 1
        return run_dr(counted(jf, "map_calls_f"), counted(jg, "dr_passes"), *args, **kwargs)

    def counted_build(oracle):
        method, apply = build(oracle)
        return method, counted(apply, "kept_map_calls")

    def counted_inner(*args, return_info=False, **kwargs):
        w, info = inner(*args, return_info=True, **kwargs)
        counts["inner_iterations"] += info["iterations"]
        return (w, info) if return_info else w

    # this process only counts, so the wrappers stay in place; calls made
    # outside an op (building a workload) are cleared before each op
    dr_solver._run_dr, resolvents._build, resolvents.inner_solve = counted_run_dr, counted_build, counted_inner
    np.linalg.inv = counted(np.linalg.inv, "inv_calls")
    np.linalg.solve = counted(np.linalg.solve, "solve_calls")
    np.count_nonzero = counted(np.count_nonzero, "pivot_passes")
    certificate = dr_solver.equilibrium_certificate

    def counted_certificate(F, G, points, Y):
        counts["certificate_evaluations"] += (1 if np.ndim(points) < 2 else len(points)) * len(Y)
        return certificate(F, G, points, Y)

    # by identity: a module's namespace also holds unhashable arrays
    replacements = {id(hilbert.sample_points): counted(hilbert.sample_points, "sample_draws"),
                    id(certificate): counted_certificate}
    for module in [eq] + [importlib.import_module(f"eqsplit.{m.name}") for m in pkgutil.iter_modules(eq.__path__)]:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])
    keys = ("dr_solves", "dr_passes", "map_calls_f", "kept_map_calls", "inv_calls", "solve_calls",
            "pivot_passes", "inner_iterations", "sample_draws", "certificate_evaluations")
    out = {}
    for name in workloads:
        totals = [Counter() for _ in range(PASSES)]
        n_ops = 0
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                w = WORKLOADS[name](seed, Path(tmp))
                w.inputs()
                w.build(eq)
                w.references()
                ops = w.ops(eq)
                n_ops += len(ops)
                for total in totals:
                    for op in ops:
                        counts.clear()
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            op.run()
                        total.update(counts)
        out[name] = {"ops_per_pass": n_ops,
                     "passes": [{k: total[k] / n_ops for k in keys} for total in totals]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", help="workload to count (repeatable; default: all listed)")
    p.add_argument("--seed", action="append", type=int, help="seed (repeatable; default: 201-210)")
    p.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ and perfbench/ are counted")
    p.add_argument("--parent", help="revision to count beside this checkout (needs --out)")
    p.add_argument("--out", help="JSON file whose 'counts' key receives the counts")
    args = p.parse_args(argv)
    if args.parent and not args.out:
        p.error("--parent needs --out")
    workloads = args.workload or [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    seeds = args.seed or list(SEEDS)
    if not args.out:
        print(json.dumps(count(args.tree.resolve(), workloads, seeds), indent=1, sort_keys=True))
        return 0
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=args.tree, capture_output=True, text=True).stdout.strip()
    record = {"seeds": seeds, "passes": PASSES, "change_rev": head or None}
    sides = {"change": args.tree.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        if args.parent:
            from bench_pairs import export

            record["parent_rev"] = export(args.parent, Path(tmp))
            sides["parent"] = Path(tmp) / "parent"
        for side, tree in sides.items():
            cmd = [sys.executable, __file__, "--tree", str(tree)]
            cmd += [f"--workload={w}" for w in workloads] + [f"--seed={s}" for s in seeds]
            record[side] = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
    if args.parent:
        record["identical"] = record["parent"] == record["change"]
        record["differing"] = {
            name: sorted({k for p, c in zip(counts["passes"], record["change"][name]["passes"]) for k in c
                          if p.get(k) != c[k]})
            for name, counts in record["parent"].items()}
    path = Path(args.out)
    data = json.loads(path.read_text()) if path.exists() else {}
    data["counts"] = record
    path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
