"""The ``grid`` workload: a full-scale fig6 sweep through the grid CLI.

``grid plan`` expands a fig6 space with a seed axis (the paper's 2018
plus two seeds derived from ``--seed``), ``grid work --workers 2`` drains
the queue, ``grid status`` must report no failed job and no determinism
violation, and ``grid query`` for seed 2018 must reproduce
``reference/fig6_seed2018.json`` byte for byte.
"""

import json
import re
import subprocess
import time
from pathlib import Path

from arith import median
from procs import children_cpu_s

from repro.grid import ResultStore

HERE = Path(__file__).resolve().parent
WORKERS = 2
#: ``grid plan`` runs per run (each into its own root); ``setup_s`` is
#: their median and the last root is the one worked.
PLANS = 5
REFERENCE_SEED = 2018


def seeds(seed):
    # Fifteen jobs on two workers: enough that the drain's tail (the
    # last job's length) is a small share of the drain.
    return [REFERENCE_SEED, 10_000 + seed, 20_000 + seed]


def _cli(run, args, log_name, check=True):
    """Run one ``python -m repro grid ...``; returns (seconds, stdout)."""
    start = time.monotonic()
    process = run.spawn(run.python("-m", "repro", "grid", *args), log_name,
                        stdout=subprocess.PIPE)
    out, _ = process.communicate()
    seconds = time.monotonic() - start
    if check and process.returncode != 0:
        raise RuntimeError(
            f"grid {args[0]} exited {process.returncode}; see "
            f"{run.dir / log_name}"
        )
    return seconds, out.decode(), process.returncode


def run_grid(run):
    spec = run.dir / "fig6_space.json"
    spec.write_text(json.dumps({
        "experiment": "fig6",
        "base": {"fast": False},
        "axes": {"seed": seeds(run.seed)},
        "points": "all",
    }))
    plans = []
    for index in range(PLANS):
        root = run.dir / f"grid{index}"
        seconds, _, _ = _cli(run, ["plan", str(spec), "--root", str(root)],
                             "grid.log")
        plans.append(seconds)

    cpu_start = children_cpu_s()
    work_s, out, _ = _cli(
        run, ["work", str(root), "--workers", str(WORKERS)], "grid.log"
    )
    work_cpu_s = children_cpu_s() - cpu_start
    worker_stats = [
        dict((k, int(v)) for k, v in re.findall(r"(\w+)=(\d+)", line))
        for line in out.splitlines() if line.startswith("completed=")
    ]
    _, status, code = _cli(run, ["status", str(root)], "grid.log",
                           check=False)
    run.check(code == 0, f"grid status exited {code}: {status.strip()}")
    violations = re.search(r"(\d+) determinism violations", status)
    n_violations = int(violations.group(1)) if violations else -1
    run.check(n_violations == 0, f"grid status: {status.strip()}")

    query_s, rows, _ = _cli(run, [
        "query", str(root), "--experiment", "fig6",
        "--params", json.dumps({"fast": False, "seed": REFERENCE_SEED}),
        "--format", "json",
    ], "grid.log")
    reference = (HERE / "reference" / "fig6_seed2018.json").read_text()
    run.check(rows == reference,
              "grid query seed 2018 differs from reference/fig6_seed2018.json")

    store = ResultStore(root / "results.sqlite")
    try:
        records = list(store.records("fig6"))
    finally:
        store.close()
    job_s = [r.elapsed_s for r in records if r.elapsed_s is not None]
    n_jobs = len(json.loads(reference)) * len(seeds(run.seed))
    run.check(len(records) == n_jobs,
              f"grid stored {len(records)} results, expected {n_jobs}")
    failed = sum(s.get("failed", 0) for s in worker_stats)
    run.check(failed == 0, f"grid workers report {failed} failed jobs")

    named = {
        "setup_s": (median(plans), "s"),
        "grid_s": (work_s, "s"),
    }
    result = {
        "metrics": {
            "setup_s": (median(plans), "s"),
            "wall_s": (work_s, "s"),
            "cpu_s": (work_cpu_s, "s"),
        },
        "named": named,
        "detail": {
            "plans_s": plans,
            "workers": worker_stats,
            "job_s": job_s,
        },
        "grid_layers": {
            "grid.query_s": query_s,
            "grid.jobs": len(records),
            "grid.job_s_sum": sum(job_s),
            "grid.job_s_p50": median(job_s) if job_s else 0.0,
            "grid.efficiency": sum(job_s) / (work_s * WORKERS),
            "grid.failed": failed,
            "grid.violations": n_violations,
            "grid.reclaimed": sum(s.get("reclaimed", 0)
                                  for s in worker_stats),
        },
    }
    return result
