"""Append this checkout's headline benchmark numbers to TRAJECTORY.jsonl.

The bench scripts write ``BENCH_optimize.json``, ``BENCH_serve.json``
and ``BENCH_lint.json`` into ``benchmarks/`` (gitignored; the frozen
seed baselines live in ``benchmarks/baselines/``); this script distills
them into one JSON line per revision so the repo carries its own
performance history — `evals/s` for the annealer fast path, `words/s`
for the online codec service, `files/s` for every analyzer pass, and
(when ``BENCH_grid.json`` is present) `jobs/s` for the distributed
grid's claim/execute/verify overhead — without anyone having to diff
the full reports. Every entry also records ``src_lines``, the total line
count of ``src/repro/**/*.py`` (informational, not gated).

Run (after the three benchmarks):

    PYTHONPATH=src python benchmarks/bench_optimize.py --quick
    PYTHONPATH=src python benchmarks/bench_serve.py --quick
    PYTHONPATH=src python benchmarks/bench_lint.py --quick
    python benchmarks/trajectory.py

Exits non-zero when a BENCH file is missing or malformed, so a CI
trajectory step cannot silently append a hole. With
``--min-encode-speedup R`` it additionally fails when the serve layer's
steady-state encode rate has fallen below ``R`` times the frozen seed
baseline in ``benchmarks/baselines/BENCH_serve.json`` — the regression
gate for the vectorized codec kernels.
"""

import argparse
import json
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "TRAJECTORY.jsonl"
BASELINES = HERE / "baselines"
PACKAGE = HERE.parent / "src" / "repro"


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=HERE,
        ).stdout.strip()
        return out or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _load(path: Path) -> dict:
    with open(path) as source:
        return json.load(source)


def optimize_headline(report: dict) -> dict:
    """Annealer throughput on the largest benchmarked problem."""
    rows = report["results"]
    top = max(rows, key=lambda row: row["n"])
    return {
        "n": top["n"],
        "sa_evals_per_s": top["sa_evaluations"] / top["sa_fast_s"],
        "sa_speedup": top["sa_speedup"],
        "sa_identical": top["sa_identical"],
    }


def serve_headline(report: dict) -> dict:
    """Codec service throughput at the no-batching-window operating point."""
    rows = report["results"]
    base = min(rows, key=lambda row: row["window_ms"])
    return {
        "window_ms": base["window_ms"],
        "encode_words_per_s": base["encode_words_per_s"],
        "decode_words_per_s": base["decode_words_per_s"],
        "round_trip_exact": base["round_trip_exact"],
        "energy_exact": base["energy_exact"],
    }


#: The analyzer passes bench_lint.py times (a report missing one is
#: malformed; rows for any other pass are ignored).
LINT_PASSES = ("shallow", "threads")


def lint_headline(report: dict) -> dict:
    """Per-pass analyzer throughput over src/repro."""
    rows = {row["pass"]: row for row in report["results"]}
    passes = {
        name: {
            "files_per_s": rows[name]["files_per_s"],
            "clean": rows[name]["clean"],
        }
        for name in LINT_PASSES
    }
    return {"n_files": report["n_files"], "passes": passes}


def grid_headline(report: dict) -> dict:
    """Per-stage grid overhead (claim cycles, end-to-end jobs, verify)."""
    stages = {
        row["stage"]: {
            "jobs_per_s": row["jobs_per_s"],
            "clean": row["clean"],
        }
        for row in report["results"]
    }
    return {"jobs": report["results"][0]["jobs"], "stages": stages}


def src_lines(package: Path = PACKAGE) -> int:
    """Total lines of the package's Python sources (as ``wc -l`` counts)."""
    return sum(
        path.read_bytes().count(b"\n") for path in package.rglob("*.py")
    )


def build_entry(bench_dir: Path) -> dict:
    entry = {
        "revision": git_revision(),
        "src_lines": src_lines(),
        "optimize": optimize_headline(_load(bench_dir / "BENCH_optimize.json")),
        "serve": serve_headline(_load(bench_dir / "BENCH_serve.json")),
        "lint": lint_headline(_load(bench_dir / "BENCH_lint.json")),
    }
    # The grid report is optional: bench_grid.py runs in the grid CI job,
    # not in every job that assembles a trajectory entry.
    grid_report = bench_dir / "BENCH_grid.json"
    if grid_report.exists():
        entry["grid"] = grid_headline(_load(grid_report))
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-dir", default=str(HERE),
        help="directory holding the three BENCH_*.json reports",
    )
    parser.add_argument(
        "--output", default=str(TRAJECTORY),
        help="trajectory file to append to",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="print the entry without appending",
    )
    parser.add_argument(
        "--min-encode-speedup", type=float, default=None, metavar="R",
        help="fail unless serve encode_words_per_s is at least R times "
             "the frozen seed baseline (benchmarks/baselines/)",
    )
    args = parser.parse_args(argv)

    try:
        entry = build_entry(Path(args.bench_dir))
    except FileNotFoundError as exc:
        print(f"missing benchmark report: {exc.filename}")
        print("run bench_optimize.py, bench_serve.py and bench_lint.py first")
        return 1
    except (KeyError, ValueError) as exc:
        print(f"malformed benchmark report: {exc!r}")
        return 1

    if args.min_encode_speedup is not None:
        try:
            seed = serve_headline(_load(BASELINES / "BENCH_serve.json"))
        except (FileNotFoundError, KeyError, ValueError) as exc:
            print(f"cannot load the frozen serve baseline: {exc!r}")
            return 1
        rate = entry["serve"]["encode_words_per_s"]
        ratio = rate / seed["encode_words_per_s"]
        print(
            f"encode speedup over seed baseline: {ratio:.1f}x "
            f"({rate:,.0f} vs {seed['encode_words_per_s']:,.0f} words/s, "
            f"gate {args.min_encode_speedup:.1f}x)"
        )
        if ratio < args.min_encode_speedup:
            print("ENCODE SPEEDUP GATE FAILED")
            return 1

    line = json.dumps(entry, sort_keys=True)
    print(line)
    if not args.dry_run:
        with open(args.output, "a") as sink:
            sink.write(line + "\n")
        print(f"appended to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
