"""Analyzer speed: shallow lint and the concurrency pass.

Both run in CI and pre-commit on every change, so their wall time over
``src/repro`` belongs in the bench trajectory next to the physics
kernels: a regression here slows every contributor.  The concurrency
pass additionally carries an explicit wall-time budget (2 s over the
package) — its fixpoints (may-block closure, transitive acquisitions)
are the parts most likely to blow up as the tree grows.

Run:  PYTHONPATH=src python benchmarks/bench_lint.py [--quick]
Writes ``benchmarks/BENCH_lint.json`` (gitignored; the committed seed
baselines live in ``benchmarks/baselines/``).  Exits non-zero
when any pass reports findings on the tree or the concurrency pass
misses its budget, so CI can gate on analyzer health without gating on
raw machine speed for the unbudgeted passes.
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from repro.analysis.concurrency import analyze_threads
from repro.analysis.linter import iter_python_files, lint_paths

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Wall-time budget for the concurrency pass over src/repro (seconds,
#: best-of-repeats).  Generous against the ~1 s measured cost so CI
#: noise does not trip it, tight enough to catch a quadratic blowup.
THREAD_BUDGET_S = 2.0


@pytest.fixture(scope="module")
def src_tree():
    files = list(iter_python_files([SRC]))
    assert len(files) > 30, "src/repro tree unexpectedly small"
    return [SRC]


def test_shallow_lint_src(benchmark, src_tree):
    """AST rules REP001..REP007 over the whole package."""
    findings = benchmark(lint_paths, src_tree)
    assert findings == []


def test_thread_lint_src(benchmark, src_tree):
    """Concurrency pass REP201..REP206 over the package."""
    findings = benchmark(analyze_threads, src_tree)
    assert findings == []


def _time_pass(run, repeats):
    """Best-of-repeats wall time and the final findings list."""
    best = float("inf")
    findings = []
    for _ in range(repeats):
        begin = time.perf_counter()
        findings = run([SRC])
        best = min(best, time.perf_counter() - begin)
    return best, findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions (CI smoke mode)",
    )
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per pass (best is reported)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent / "BENCH_lint.json"),
        help="report destination (default: the benchmarks/ directory)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (2 if args.quick else 5)

    n_files = len(list(iter_python_files([SRC])))
    passes = (
        ("shallow", lint_paths, None),
        ("threads", analyze_threads, THREAD_BUDGET_S),
    )

    report = {
        "benchmark": "lint",
        "quick": args.quick,
        "repeats": repeats,
        "n_files": n_files,
        "results": [],
    }
    ok = True
    for name, run, budget_s in passes:
        best, findings = _time_pass(run, repeats)
        clean = findings == []
        within = budget_s is None or best < budget_s
        ok = ok and clean and within
        row = {
            "pass": name,
            "best_s": best,
            "files_per_s": n_files / best,
            "n_findings": len(findings),
            "clean": clean,
        }
        if budget_s is not None:
            row["budget_s"] = budget_s
            row["within_budget"] = within
        report["results"].append(row)
        budget = (
            "" if budget_s is None
            else f"  budget {budget_s:.1f}s ({'ok' if within else 'MISSED'})"
        )
        print(
            f"{name:8s} {best:6.3f}s  {n_files / best:6.1f} files/s  "
            f"findings={len(findings)}{budget}"
        )
        for finding in findings:
            print(f"  {finding.render()}")

    with open(args.output, "w") as sink:
        json.dump(report, sink, indent=2)
    print(f"wrote {args.output}")
    if not ok:
        print("ANALYZER GATE FAILED")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
