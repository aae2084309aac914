"""Repeat the benchmark over seeds and summarise each metric's spread.

Run from the root of a checkout::

    python3 perfbench/prove.py --runs 10 --out perfbench/baseline/seed.json

For every workload it makes ``--runs`` untraced runs, each with another
seed, then (unless ``--no-trace``) one traced run. Per (workload, metric)
it records the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, and the spread ``(q3 - q1) / median``, next to the bound in
``BENCHMARK.json``. The workload-specific metrics of the ``# detail``
lines are summarised the same way.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from arith import quartiles  # noqa: E402


def one_run(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900)
    elapsed = time.monotonic() - start
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            + done.stderr.decode()[-3000:]
        )
    detail = next(
        (json.loads(line[len("# detail "):]) for line in lines
         if line.startswith("# detail ")), {}
    )
    return json.loads(lines[-1]), detail, elapsed


def summarise(values, bound=None):
    q1, q2, q3 = quartiles(values)
    entry = {"median": q2, "q1": q1, "q3": q3,
             "spread": (q3 - q1) / q2 if q2 else None,
             "values": values}
    if bound is not None:
        entry["bound"] = bound
    return entry


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results, details, elapsed = [], [], []
        for index in range(args.runs):
            seed = args.first_seed + index
            result, detail, seconds = one_run(workload, seed, args.seconds, 0)
            results.append(result)
            details.append(detail)
            elapsed.append(seconds)
            print(f"{workload} seed={seed} {seconds:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        entry = {
            "run_s": summarise(elapsed),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"]
                                 for r in results], bound)
                for name, bound in bounds.items()
            },
            "named": {
                name: summarise([d["named"][name] for d in details])
                for name in details[0].get("named", {})
                if all(name in d.get("named", {}) for d in details)
            },
            "env": details[0].get("env"),
            "leaks": [d.get("leaks", {}).get("total") for d in details],
            "start_failures": [len(d.get("start_failures", []))
                               for d in details],
        }
        for name, metric in entry["end_to_end"].items():
            flag = ""
            if metric["spread"] > bounds[name] / 3:
                flag = "  <-- above bound/3"
            print(f"  {workload} {name}: median {metric['median']:.5g} "
                  f"spread {metric['spread']:.3%} (bound {bounds[name]})"
                  f"{flag}", flush=True)
        if not args.no_trace:
            traced, detail, seconds = one_run(workload, args.first_seed,
                                              args.seconds, 1)
            entry["traced"] = {
                "run_s": seconds,
                "named": detail.get("named"),
                "per_layer": {k: v["value"]
                              for k, v in traced["metrics"].items()},
            }
        report["workloads"][workload] = entry
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
