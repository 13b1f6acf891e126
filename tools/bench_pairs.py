"""Paired benchmark runs of a parent revision and this checkout.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_21.json

For each workload in BENCHMARK.json (or each ``--workload`` given) and each
seed 201-210, the unchanged ``perfbench/run.py --trace 0`` runs once on an
export of the parent revision and once on this checkout's working tree,
each importing eqsplit from its own ``src/``.  The working tree must
match HEAD (the output file aside), whose hash the output records.  Which side runs first
alternates from pair to pair, so a drift of the host's speed falls on both
sides alike.  The parent is exported with ``git archive`` into a temporary
directory, which is removed at the end; nothing is fetched.

The output file holds every pair's end-to-end metrics, ``correct`` flags
and child CPU time: ``child_cpu_s``, the ``RUSAGE_CHILDREN`` user plus
system seconds the run used, setup included, and ``child_cpu_ms_per_op``,
that over the ops it attempted, a number the speed probe of
``perfbench/run.py`` does not scale.  ``child_user_ms_per_op`` and
``child_sys_ms_per_op`` split it into user and system time, so a saving
in the kernel (file I/O, say) shows apart from one in Python.  Each
workload also records both sides' medians of the three.  Per workload
and metric it holds both sides' medians and quartiles, the parent's
interquartile range, the change's wins (pairs where it reads better, ties
counting for neither) and two verdicts, both from BENCHMARK.json's
direction and bound for the metric:

* ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's IQR;
* ``within_bound``: the change's median is no worse than the parent's by
  more than the bound.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(201, 211))


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = dest / "parent.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), sha], cwd=ROOT, check=True)
    tree = dest / "parent"
    with tarfile.open(archive) as tar:
        # the "data" filter (Python 3.10.12+, 3.11.4+) refuses members that
        # would land outside the tree
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result line, with the host line beside it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    user = after.ru_utime - before.ru_utime
    system = after.ru_stime - before.ru_stime
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    per_op = 1e3 / max(1, result["attempted"])
    host = next((json.loads(line[len("host: "):]) for line in lines if line.startswith("host: ")), None)
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "child_cpu_s": user + system, "child_cpu_ms_per_op": per_op * (user + system),
            "child_user_ms_per_op": per_op * user, "child_sys_ms_per_op": per_op * system, "host": host}


def summarise(pairs: list[dict], specs: dict) -> dict:
    out = {}
    for name, spec in specs.items():
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        pq = statistics.quantiles(parent, n=4, method="inclusive")
        cq = statistics.quantiles(change, n=4, method="inclusive")
        pm, cm = statistics.median(parent), statistics.median(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent_median": pm, "parent_q1": pq[0], "parent_q3": pq[2], "parent_iqr": pq[2] - pq[0],
            "change_median": cm, "change_q1": cq[0], "change_q3": cq[2],
            "ratio": cm / pm if pm else None,
            "wins": wins, "ties": ties, "pairs": len(pairs),
            "gain": 10 * wins >= 9 * len(pairs) and sign * (cm - pm) > pq[2] - pq[0],
            "within_bound": sign * (cm - pm) >= -spec["bound"] * abs(pm),
        }
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision to compare against, e.g. HEAD~1")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--workload", action="append", help="workload to run (repeatable; default: all listed)")
    p.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    # the change side runs the working tree, so it must be HEAD for the
    # recorded hash to name the code measured; the output file may differ
    out = Path(args.out).resolve()
    exclude = [f":(exclude){out.relative_to(ROOT)}"] if out.is_relative_to(ROOT) else []
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no", "--", ".", *exclude],
                           cwd=ROOT, check=True, capture_output=True, text=True).stdout
    if dirty.strip():
        p.error(f"the working tree differs from HEAD; commit or stash first:\n{dirty}")
    record = {"parent": None, "change": {"head": head},
              "seeds": list(SEEDS), "seconds": args.seconds, "host": None, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        record["parent"] = export(args.parent, Path(tmp))
        sides = {"parent": Path(tmp) / "parent", "change": ROOT}
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(SEEDS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    run = run_once(sides[side], workload, seed, args.seconds)
                    host = run.pop("host")
                    record["host"] = record["host"] or host
                    pair[side] = run
                    print(f"{workload} seed {seed} {side}: ok_per_s {run['metrics']['ok_per_s']:.4g} "
                          f"correct {run['correct']}", file=sys.stderr, flush=True)
                pairs.append(pair)
            record["workloads"][workload] = {"pairs": pairs, "summary": summarise(pairs, specs)}
            for key in ("child_cpu_ms_per_op", "child_user_ms_per_op", "child_sys_ms_per_op"):
                record["workloads"][workload][key] = {
                    f"{side}_median": statistics.median(p[side][key] for p in pairs)
                    for side in ("parent", "change")}
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
