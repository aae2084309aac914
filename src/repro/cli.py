"""Command-line front-end: ``repro-tsv`` (or ``python -m repro``).

Subcommands
-----------

``extract``
    Print the capacitance matrix of an M x N TSV array.
``depletion``
    Print depletion width and MOS capacitance vs 1-bit probability.
``optimize``
    Load a bit stream from a ``.npy`` file (shape ``(samples, lines)``) or
    synthesize a Gaussian one, and report the optimal / systematic
    assignments.
``figure``
    Re-run one of the evaluation artefacts (``fig2`` .. ``fig6``, the
    Sec. 3 ``routing`` overhead, the ``ablations``, the ``related``-work
    CAC comparison, or the ``noc`` case study) and print its table —
    ``--format csv|json`` for machine-readable output.
``lint``
    Run the repo-specific static linter (rules ``REP001`` .. ``REP005``,
    see ``docs/static_analysis.md``) over files or directories; exits
    non-zero when findings remain, so CI can gate on it. ``--threads``
    adds the interprocedural concurrency pass (``REP201``..), and
    ``--format sarif|github`` emits CI-native output.
``grid``
    The distributed sweep grid (see ``docs/grid.md``): ``plan`` expands a
    design-space JSON into a job queue, ``work`` serves it with one or
    more worker processes, ``status`` shows the job lifecycle and any
    determinism violations, ``query`` reassembles figure rows (or
    pivots/percentiles) from the results database, ``resubmit`` requeues
    failed or finished jobs.
``serve``
    Run the batched online encode/decode server for coded TSV links
    (see ``docs/serving.md``) until interrupted. Links are created by
    clients over the control channel. ``--workers N`` shards links
    across N worker processes with exact codec-state failover (see
    ``docs/robustness.md``).
``stream``
    Client-side verb: connect to a running server, create a coded link
    (geometry + codec chain) if needed, stream words through it, and
    print throughput, latency percentiles and the server's live
    coded-vs-uncoded energy report. ``--verify`` round-trips the coded
    words back through the server and checks bit-exactness.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np


def _add_geometry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=int, default=4, help="array rows")
    parser.add_argument("--cols", type=int, default=4, help="array columns")
    parser.add_argument("--pitch", type=float, default=8.0,
                        help="TSV pitch [um]")
    parser.add_argument("--radius", type=float, default=2.0,
                        help="TSV radius [um]")
    parser.add_argument(
        "--cap-method", default="compact3d",
        choices=("fdm", "compact", "compact3d"),
        help="capacitance extraction method",
    )


def _geometry(args: argparse.Namespace):
    from repro.tsv.geometry import TSVArrayGeometry

    return TSVArrayGeometry(
        rows=args.rows, cols=args.cols,
        pitch=args.pitch * 1e-6, radius=args.radius * 1e-6,
    )


def cmd_extract(args: argparse.Namespace) -> int:
    from repro.tsv.extractor import CapacitanceExtractor
    from repro.tsv.matrices import total_capacitance

    geometry = _geometry(args)
    extractor = CapacitanceExtractor(geometry, method=args.cap_method)
    probabilities = np.full(geometry.n_tsvs, args.probability)
    matrix = extractor.extract(probabilities)
    np.set_printoptions(precision=2, suppress=True, linewidth=200)
    print(f"# {geometry.rows}x{geometry.cols} array, r={args.radius} um, "
          f"d={args.pitch} um, p={args.probability}, method={args.cap_method}")
    print("# SPICE-form capacitance matrix [fF]:")
    print(matrix * 1e15)
    print("# total capacitance per TSV [fF]:")
    print(np.round(total_capacitance(matrix) * 1e15, 2))
    return 0


def cmd_depletion(args: argparse.Namespace) -> int:
    from repro.tsv.depletion import DepletionModel

    model = DepletionModel(
        radius=args.radius * 1e-6,
        oxide_thickness=args.radius * 1e-6 / 5.0,
    )
    print("# p(1)   width [um]   C_mos [pF/m]")
    for probability in np.linspace(0.0, 1.0, args.points):
        width = model.width_for_probability(probability)
        cap = model.mos_capacitance_per_length(probability)
        print(f"  {probability:4.2f}   {width * 1e6:10.4f}   {cap * 1e12:10.2f}")
    return 0


def _load_stream(path: str, n_lines: int) -> np.ndarray:
    """Load and validate a ``--stream`` file; exit 2 with a one-line error.

    Accepts a plain ``.npy`` array of shape ``(samples, n_lines)`` whose
    values are 0/1. Pickled arrays and ``.npz`` archives are rejected
    explicitly (a bit stream never needs Python object serialization).
    """

    def fail(message: str) -> "SystemExit":
        print(f"error: --stream {path}: {message}", file=sys.stderr)
        return SystemExit(2)

    if not os.path.exists(path):
        raise fail("file not found")
    # Sniff the magic bytes so each bad format gets an accurate message:
    # np.load reports anything without the .npy magic as a pickle error.
    try:
        with open(path, "rb") as handle:
            magic = handle.read(6)
    except OSError as exc:
        raise fail(f"not a readable .npy file ({exc})") from exc
    if magic.startswith(b"PK"):
        raise fail(".npz archives are not accepted; pass a single .npy array")
    if not magic.startswith(b"\x93NUMPY"):
        raise fail("not a readable .npy file (missing .npy magic header)")
    try:
        bits = np.load(path, allow_pickle=False)
    except ValueError as exc:
        if "pickle" in str(exc).lower():
            raise fail(
                "pickled arrays are not accepted; save with "
                "np.save(path, bits.astype(np.uint8))"
            ) from exc
        raise fail(f"not a readable .npy file ({exc})") from exc
    except OSError as exc:
        raise fail(f"not a readable .npy file ({exc})") from exc
    if bits.ndim != 2:
        raise fail(f"need shape (samples, lines), got shape {bits.shape}")
    if bits.shape[1] != n_lines:
        raise fail(
            f"stream has {bits.shape[1]} lines but the "
            f"--rows x --cols array has {n_lines} TSVs"
        )
    if bits.size == 0:
        raise fail("stream is empty")
    if not np.issubdtype(bits.dtype, np.number) and bits.dtype != np.bool_:
        raise fail(f"need a numeric/boolean dtype, got {bits.dtype}")
    if not np.isin(bits, (0, 1)).all():
        raise fail("stream values must all be 0 or 1")
    return bits.astype(np.uint8)


def cmd_optimize(args: argparse.Namespace) -> int:
    from repro.core.pipeline import optimize_assignment

    geometry = _geometry(args)
    if args.stream is not None:
        bits = _load_stream(args.stream, geometry.n_tsvs)
    else:
        from repro.datagen.gaussian import gaussian_bit_stream

        bits = gaussian_bit_stream(
            args.samples, geometry.n_tsvs,
            sigma=2.0 ** (geometry.n_tsvs / 2.0), rho=args.rho,
            rng=np.random.default_rng(args.seed),
        )
        print(f"# no stream given - using a synthetic Gaussian stream "
              f"(rho={args.rho})")
    best_report = None
    for method in args.methods.split(","):
        report = optimize_assignment(
            bits, geometry, method=method.strip(),
            cap_method=args.cap_method,
            rng=np.random.default_rng(args.seed),
            n_restarts=args.restarts,
            deadline_s=args.deadline,
            checkpoint_dir=args.checkpoint_dir,
            resume_from=args.resume,
        )
        if best_report is None or report.power < best_report.power:
            best_report = report
        note = "" if report.completed else "   (stopped early, best-so-far)"
        print(f"{method.strip():10s}: P_n = {report.power * 1e15:8.3f} fF   "
              f"reduction vs random = {report.reduction_vs_random * 100:6.2f} %"
              f"{note}")
        if args.show_assignment:
            print(f"  line_of_bit = {report.assignment.line_of_bit}")
            print(f"  inverted    = {report.assignment.inverted}")
    if args.save_assignment and best_report is not None:
        from repro.reporting import assignment_to_json

        with open(args.save_assignment, "w") as handle:
            handle.write(assignment_to_json(best_report.assignment))
        print(f"# best assignment written to {args.save_assignment}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ablations,
        fig2,
        fig3,
        fig4,
        fig5,
        fig6,
        noc_case_study,
        related_work,
        routing_overhead,
    )

    modules = {
        "fig2": fig2, "fig3": fig3, "fig4": fig4, "fig5": fig5, "fig6": fig6,
        "routing": routing_overhead, "ablations": ablations,
        "related": related_work, "noc": noc_case_study,
    }
    resumable = {"fig2", "fig3", "fig4", "fig5", "fig6", "noc"}
    checkpoint_dir = args.resume or args.checkpoint_dir

    def sweep_kwargs(name: str) -> dict:
        if checkpoint_dir is None or name not in resumable:
            return {}
        return {"checkpoint_dir": checkpoint_dir}

    if args.name == "all":
        names = list(modules)
    else:
        names = [args.name]
    if args.format == "table":
        for name in names:
            modules[name].main(fast=args.fast, **sweep_kwargs(name))
            print()
        return 0

    from repro.reporting import rows_to_csv, rows_to_json

    chunks = []
    for name in names:
        module = modules[name]
        if not hasattr(module, "run"):
            raise SystemExit(
                f"{name} has no machine-readable row output; use --format table"
            )
        rows = module.run(fast=args.fast, **sweep_kwargs(name))
        if args.format == "csv":
            chunks.append(f"# {name}\n" + rows_to_csv(rows))
        else:
            chunks.append(rows_to_json(rows))
    text = "\n".join(chunks)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"# written to {args.output}")
    else:
        print(text)
    return 0


def _parse_json_arg(text: Optional[str], flag: str) -> dict:
    import json

    if not text:
        return {}
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"error: {flag} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SystemExit(f"error: {flag} must be a JSON object")
    return document


def cmd_grid_plan(args: argparse.Namespace) -> int:
    from repro.grid import JobQueue, expand, load_space

    try:
        space = load_space(args.space)
        jobs = expand(space)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    queue = JobQueue(args.root, max_attempts=args.max_attempts)
    submitted = sum(1 for job in jobs if queue.submit(job))
    counts = queue.counts()
    print(f"# space {space.name or args.space}: {len(jobs)} jobs, "
          f"{submitted} newly submitted, {len(jobs) - submitted} known")
    print("  " + "  ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def cmd_grid_work(args: argparse.Namespace) -> int:
    if args.workers is not None:
        import subprocess

        if args.workers < 1:
            raise SystemExit("error: --workers must be >= 1")
        commands = [
            [sys.executable, "-m", "repro.grid.worker", args.root,
             "--index", str(index),
             "--max-attempts", str(args.max_attempts),
             "--lease-timeout", str(args.lease_timeout)]
            + (["--max-jobs", str(args.max_jobs)] if args.max_jobs else [])
            + (["--wait"] if args.wait else [])
            for index in range(args.workers)
        ]
        processes = [
            subprocess.Popen(command, env=os.environ.copy())
            for command in commands
        ]
        status = 0
        for process in processes:
            status = max(status, abs(process.wait()))
        return status

    from repro.grid import GridWorker

    worker = GridWorker(
        args.root,
        index=args.index,
        max_attempts=args.max_attempts,
        lease_timeout_s=args.lease_timeout,
        wait=args.wait,
        max_jobs=args.max_jobs,
    )
    stats = worker.run()
    print("  ".join(f"{k}={v}" for k, v in sorted(stats.items())))
    return 0


def cmd_grid_status(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.grid import JobQueue, JobState, ResultStore

    queue = JobQueue(args.root)
    counts = queue.counts()
    print("# jobs: " + "  ".join(
        f"{k}={v}" for k, v in sorted(counts.items())
    ))
    store_path = Path(args.root) / "results.sqlite"
    if store_path.exists():
        store = ResultStore(store_path)
        violations = store.violations()
        print(f"# results: {store.count()} recorded, "
              f"{len(violations)} determinism violations")
        for violation in violations:
            print(f"  VIOLATION {violation['fingerprint'][:12]} "
                  f"stored={violation['stored_sha256'][:12]} "
                  f"rerun={violation['new_sha256'][:12]} "
                  f"worker={violation['worker']}")
    for job in queue.jobs(JobState.FAILED):
        print(f"  failed {job.fingerprint[:12]} {job.experiment}/{job.point} "
              f"attempts={job.attempts}: {job.error}")
    if args.verbose:
        for state in (JobState.PENDING, JobState.RUNNING):
            for job in queue.jobs(state):
                print(f"  {state} {job.fingerprint[:12]} "
                      f"{job.experiment}/{job.point}")
    return 1 if counts[JobState.FAILED] else 0


def cmd_grid_query(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.grid import (
        QueryError, ResultStore, figure_rows, percentiles, pivot, select,
    )
    from repro.reporting import rows_to_csv, rows_to_json

    store_path = Path(args.root) / "results.sqlite"
    if not store_path.exists():
        raise SystemExit(f"error: no results database at {store_path}")
    store = ResultStore(store_path)
    where = _parse_json_arg(args.where, "--where")

    try:
        if args.percentiles:
            records = select(store, args.experiment, where=where or None)
            table = percentiles(records, args.percentiles, over=args.over)
            text = json.dumps(table, indent=2)
        elif args.pivot:
            try:
                index, columns, value = args.pivot.split(",")
            except ValueError as exc:
                raise SystemExit(
                    "error: --pivot needs 'index,columns,value'"
                ) from exc
            records = select(store, args.experiment, where=where or None)
            text = json.dumps(pivot(records, index, columns, value), indent=2)
        else:
            if not args.experiment:
                raise SystemExit("error: grid query needs --experiment")
            params = _parse_json_arg(args.params, "--params")
            rows = figure_rows(
                store, args.experiment, params,
                missing="skip" if args.partial else "error",
            )
            if args.format == "csv":
                text = rows_to_csv(rows)
            elif args.format == "json":
                text = rows_to_json(rows)
            else:
                from repro.experiments.common import format_table

                text = format_table(
                    f"grid {args.experiment} {params}", rows, unit="raw"
                )
    except QueryError as exc:
        raise SystemExit(f"error: {exc}") from exc
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"# written to {args.output}")
    else:
        print(text)
    return 0


def cmd_grid_resubmit(args: argparse.Namespace) -> int:
    from repro.grid import JobQueue, JobState

    queue = JobQueue(args.root)
    targets = list(args.fingerprints)
    states = [JobState.FAILED] + ([JobState.DONE] if args.done else [])
    if not targets:
        targets = [
            job.fingerprint
            for state in states
            for job in queue.jobs(state)
        ]
    requeued = sum(
        1 for fingerprint in targets
        if queue.resubmit(fingerprint, from_states=states)
    )
    print(f"# resubmitted {requeued}/{len(targets)} jobs")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import run_lint

    return run_lint(
        args.paths,
        output_format=args.format,
        threads=args.threads,
        exclude=args.exclude,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import BatchPolicy, LinkServer

    policy = BatchPolicy(
        window_s=args.window_ms * 1e-3,
        max_batch_words=args.max_batch_words,
        max_batch_requests=args.max_batch_requests,
        queue_limit=args.queue_limit,
    )

    async def run() -> None:
        # SIGTERM closes the server (and its socket file) like SIGINT.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        if args.workers is not None:
            from repro.serve.fleet import FleetServer

            server = FleetServer(
                n_workers=args.workers,
                policy=policy,
                runtime_dir=args.runtime_dir,
                snapshot_every=args.snapshot_every,
            )
        else:
            server = LinkServer(policy=policy, max_workers=args.batch_threads)
        await server.start(host=args.host, port=args.port, path=args.unix)
        address = server.address
        if isinstance(address, tuple):
            print(f"serving on {address[0]}:{address[1]}", flush=True)
        else:
            print(f"serving on {address}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except asyncio.CancelledError:  # SIGTERM
        pass
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    import time

    from repro.serve import LinkClient

    with LinkClient.connect(args.connect) as client:
        if args.link not in client.ping():
            config = {
                "width": args.width,
                "geometry": {
                    "rows": args.rows, "cols": args.cols,
                    "pitch": args.pitch * 1e-6,
                    "radius": args.radius * 1e-6,
                },
                "codecs": list(args.codec),
                "cap_method": args.cap_method,
            }
            info = client.create_link(args.link, config)
            print(f"# created link {args.link!r}: {info['width_in']} payload "
                  f"bits -> {info['width_out']} coded bits on "
                  f"{info['n_lines']} TSVs")
        words = np.random.default_rng(args.seed).integers(
            0, 1 << args.width, args.samples
        )
        start = time.perf_counter()
        coded = client.stream(
            args.link, words,
            chunk_words=args.chunk_words, max_in_flight=args.in_flight,
        )
        elapsed = time.perf_counter() - start
        print(f"encoded {len(words)} words in {elapsed:.3f} s "
              f"({len(words) / elapsed:,.0f} words/s)")
        if args.verify:
            back = client.stream(
                args.link, coded, op="decode",
                chunk_words=args.chunk_words, max_in_flight=args.in_flight,
            )
            if (back == words).all():
                print("round-trip: OK (bit-exact)")
            else:
                print("round-trip: MISMATCH", file=sys.stderr)
                return 1
        stats = client.stats(args.link)
        latency = stats["metrics"]["latency"]
        energy = stats["energy"]
        print(f"server: {stats['metrics']['batches']} batches, "
              f"p50={latency['p50_s'] * 1e6:.0f} us  "
              f"p95={latency['p95_s'] * 1e6:.0f} us  "
              f"p99={latency['p99_s'] * 1e6:.0f} us")
        coded_mw = energy["coded"]["power_mw"]
        uncoded_mw = energy["uncoded"]["power_mw"]
        if energy["savings"] is not None:
            print(f"energy: coded {coded_mw:.4f} mW vs uncoded "
                  f"{uncoded_mw:.4f} mW -> savings "
                  f"{energy['savings'] * 100:.2f} %")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tsv",
        description="Low-power bit-to-TSV assignment toolkit "
                    "(reproduction of Bamberg et al., DAC 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="extract a capacitance matrix")
    _add_geometry_arguments(p_extract)
    p_extract.add_argument("--probability", type=float, default=0.5,
                           help="1-bit probability on every TSV")
    p_extract.set_defaults(func=cmd_extract)

    p_depletion = sub.add_parser(
        "depletion", help="depletion width / MOS capacitance vs probability"
    )
    p_depletion.add_argument("--radius", type=float, default=1.0,
                             help="TSV radius [um]")
    p_depletion.add_argument("--points", type=int, default=11)
    p_depletion.set_defaults(func=cmd_depletion)

    p_optimize = sub.add_parser("optimize", help="optimize an assignment")
    _add_geometry_arguments(p_optimize)
    p_optimize.add_argument("--stream", default=None,
                            help=".npy bit stream, shape (samples, lines)")
    p_optimize.add_argument("--samples", type=int, default=10000,
                            help="synthetic stream length")
    p_optimize.add_argument("--rho", type=float, default=0.5,
                            help="synthetic stream temporal correlation")
    p_optimize.add_argument("--seed", type=int, default=2018)
    p_optimize.add_argument("--methods",
                            default="optimal,spiral,sawtooth,identity")
    p_optimize.add_argument("--restarts", type=int, default=1,
                            help="independent annealing chains (best wins)")
    p_optimize.add_argument("--deadline", type=float, default=None,
                            help="wall-clock budget [s]; returns best-so-far")
    p_optimize.add_argument("--checkpoint-dir", default=None,
                            help="write resumable search checkpoints here")
    p_optimize.add_argument("--resume", default=None, metavar="DIR",
                            help="resume the search from this checkpoint dir")
    p_optimize.add_argument("--show-assignment", action="store_true")
    p_optimize.add_argument("--save-assignment", default=None,
                            help="write the best assignment as JSON")
    p_optimize.set_defaults(func=cmd_optimize)

    p_figure = sub.add_parser(
        "figure", help="re-run one of the paper's evaluation artefacts"
    )
    p_figure.add_argument(
        "name",
        choices=("fig2", "fig3", "fig4", "fig5", "fig6", "routing",
                 "ablations", "related", "noc", "all"),
    )
    p_figure.add_argument("--fast", action="store_true",
                          help="shrunken sweeps (seconds instead of minutes)")
    p_figure.add_argument("--format", default="table",
                          choices=("table", "csv", "json"))
    p_figure.add_argument("--output", default=None,
                          help="write machine-readable output to a file")
    p_figure.add_argument("--checkpoint-dir", default=None,
                          help="write resumable sweep checkpoints here")
    p_figure.add_argument("--resume", default=None, metavar="DIR",
                          help="resume interrupted sweeps from this dir")
    p_figure.set_defaults(func=cmd_figure)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo-specific static linter (REP001..REP007; "
             "--threads adds REP201..REP206)",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument("--format", default="text",
                        choices=("text", "json", "sarif", "github"))
    p_lint.add_argument(
        "--threads", action="store_true",
        help="also run the concurrency-safety pass (REP201..REP206)",
    )
    p_lint.add_argument(
        "--exclude", action="append", default=[], metavar="PATH",
        help="drop findings under this path (repeatable)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_grid = sub.add_parser(
        "grid",
        help="distributed sweep grid: plan, work, status, query, resubmit "
             "(see docs/grid.md)",
    )
    grid_sub = p_grid.add_subparsers(dest="grid_command", required=True)

    g_plan = grid_sub.add_parser(
        "plan", help="expand a design-space JSON and submit its jobs"
    )
    g_plan.add_argument("space", help="design-space spec file (JSON)")
    g_plan.add_argument("--root", required=True,
                        help="grid directory (jobs + results.sqlite)")
    g_plan.add_argument("--max-attempts", type=int, default=3)
    g_plan.set_defaults(func=cmd_grid_plan)

    g_work = grid_sub.add_parser(
        "work", help="serve a grid until its queue drains"
    )
    g_work.add_argument("root", help="grid directory")
    g_work.add_argument("--index", type=int, default=0,
                        help="worker slot number (in-process mode)")
    g_work.add_argument("--workers", type=int, default=None, metavar="N",
                        help="spawn N worker subprocesses instead")
    g_work.add_argument("--max-attempts", type=int, default=3)
    g_work.add_argument("--lease-timeout", type=float, default=30.0,
                        help="seconds of lease silence before reclaim")
    g_work.add_argument("--max-jobs", type=int, default=None)
    g_work.add_argument("--wait", action="store_true",
                        help="keep polling after the queue drains")
    g_work.set_defaults(func=cmd_grid_work)

    g_status = grid_sub.add_parser(
        "status", help="job lifecycle counts, failures, violations"
    )
    g_status.add_argument("root", help="grid directory")
    g_status.add_argument("--verbose", action="store_true",
                          help="also list pending/running jobs")
    g_status.set_defaults(func=cmd_grid_status)

    g_query = grid_sub.add_parser(
        "query", help="reassemble figure rows / aggregates from the store"
    )
    g_query.add_argument("root", help="grid directory")
    g_query.add_argument("--experiment", default=None,
                         help="experiment name (fig4, fig6, noc, selftest)")
    g_query.add_argument("--params", default=None, metavar="JSON",
                         help="exact parameter set of the figure rows")
    g_query.add_argument("--where", default=None, metavar="JSON",
                         help="axis filter for --pivot/--percentiles")
    g_query.add_argument("--pivot", default=None,
                         metavar="INDEX,COLUMNS,VALUE",
                         help="pivot one metric over two axes")
    g_query.add_argument("--percentiles", default=None, metavar="METRIC",
                         help="robustness percentiles of a metric")
    g_query.add_argument("--over", default="seed",
                         help="variation axis for --percentiles")
    g_query.add_argument("--partial", action="store_true",
                         help="tolerate missing points (skip instead of "
                              "error)")
    g_query.add_argument("--format", default="table",
                         choices=("table", "csv", "json"))
    g_query.add_argument("--output", default=None,
                         help="write the output to a file")
    g_query.set_defaults(func=cmd_grid_query)

    g_resubmit = grid_sub.add_parser(
        "resubmit", help="requeue failed (or finished) jobs"
    )
    g_resubmit.add_argument("root", help="grid directory")
    g_resubmit.add_argument("fingerprints", nargs="*",
                            help="specific jobs (default: every failed job)")
    g_resubmit.add_argument("--done", action="store_true",
                            help="also requeue finished jobs (force re-run)")
    g_resubmit.set_defaults(func=cmd_grid_resubmit)

    p_serve = sub.add_parser(
        "serve",
        help="run the batched online encode/decode server for coded links",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = ephemeral, printed at start)")
    p_serve.add_argument("--unix", default=None, metavar="PATH",
                         help="listen on a unix socket instead of TCP")
    p_serve.add_argument("--window-ms", type=float, default=2.0,
                         help="micro-batch coalescing window [ms]")
    p_serve.add_argument("--max-batch-words", type=int, default=65536)
    p_serve.add_argument("--max-batch-requests", type=int, default=128)
    p_serve.add_argument("--queue-limit", type=int, default=256,
                         help="per-link queue bound (full queue sheds)")
    p_serve.add_argument("--workers", type=int, default=None, metavar="N",
                         help="fleet mode: shard links across N worker "
                              "processes with exact codec-state failover")
    p_serve.add_argument("--batch-threads", type=int, default=None,
                         help="batch executor threads (single-engine mode)")
    p_serve.add_argument("--runtime-dir", default=None, metavar="DIR",
                         help="fleet worker sockets + snapshot checkpoints "
                              "(default: private temp dir)")
    p_serve.add_argument("--snapshot-every", type=int, default=512,
                         help="fleet: journaled requests per link between "
                              "epoch snapshots")
    p_serve.set_defaults(func=cmd_serve)

    p_stream = sub.add_parser(
        "stream",
        help="stream words through a running serve instance and report",
    )
    p_stream.add_argument("--connect", required=True,
                          help="server address: host:port or unix path")
    p_stream.add_argument("--link", default="cli",
                          help="link id (created if it does not exist)")
    _add_geometry_arguments(p_stream)
    p_stream.add_argument("--width", type=int, default=8,
                          help="payload word width [bits]")
    p_stream.add_argument(
        "--codec", action="append", default=[],
        help="codec spec, repeatable, applied in order "
             "(e.g. --codec correlator:n_channels=4 --codec gray:negated)",
    )
    p_stream.add_argument("--samples", type=int, default=100000,
                          help="number of words to stream")
    p_stream.add_argument("--seed", type=int, default=2018)
    p_stream.add_argument("--chunk-words", type=int, default=4096)
    p_stream.add_argument("--in-flight", type=int, default=32,
                          help="max pipelined chunks")
    p_stream.add_argument("--verify", action="store_true",
                          help="decode the coded words back and compare")
    p_stream.set_defaults(func=cmd_stream)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Long computations convert SIGINT into best-so-far returns and
        # resumable checkpoints themselves; anything that still escapes
        # exits with the conventional interrupt status.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # `repro-tsv ... | head` closes stdout early; exit quietly with
        # the conventional SIGPIPE status instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
