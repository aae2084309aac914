"""The repository's benchmark: one command for the batch and online paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``figures``  fig2..fig6 at full scale and the NoC study at ``--fast`` scale,
             serial, in one fresh process; every table checked.
``links``    the single-engine ``serve`` CLI on a unix socket; closed-loop
             bus-invert encode/decode on 9-, 36- and 64-line links, then
             an open loop at three offered rates on the 36-line link.
``fleet``    ``serve --workers 2``; two 64-line links on different
             workers, driven concurrently.
``grid``     ``grid plan`` / ``grid work --workers 2`` / ``grid query`` of a
             full-scale fig6 space with a seed axis.

The last line of standard output is the JSON result. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones. Lines before it
print the environment, every workload-specific metric by name with its
unit, and a ``# detail`` JSON line with the same numbers for tooling.
Any correctness failure makes the exit status non-zero.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import stat
import subprocess
import sys
import time
import uuid
from pathlib import Path


#: Switches that change what the program computes or how fast; the
#: benchmark measures the library default and refuses to run under them.
FORBIDDEN_ENV = (
    "REPRO_FAULTS", "REPRO_CONTRACTS", "REPRO_SCALAR_CODECS", "REPRO_TRACE",
)

#: Per-run scratch space, relative to the checkout root. Relative paths
#: keep unix socket names short wherever the checkout lives.
RUNS_DIR = Path(".perfbench_run")

WORKLOADS = ("figures", "links", "fleet", "grid")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad environment)."""


def environment_record():
    """What the numbers depend on besides the code."""
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        dep = config.get("Build Dependencies", {}).get("blas", {})
        blas = {
            "name": dep.get("name"),
            "version": dep.get("version"),
            "configuration": dep.get("openblas configuration"),
        }
    except (TypeError, AttributeError):
        blas = {"name": "unknown (numpy predates show_config dicts)"}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "REPRO": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")
        },
    }


class Run:
    """One benchmark run: its scratch directory, environment and children.

    Every process the run starts carries ``PERFBENCH_RUN=<token>`` in its
    environment, so children of children (fleet workers, grid workers)
    are found by scanning ``/proc`` even after they are re-parented.
    """

    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.token = uuid.uuid4().hex[:12]
        self.dir = RUNS_DIR / f"{workload}-{self.token}"
        self.tmp = self.dir / "tmp"
        self.cache = self.dir / "tsv-cache"
        for path in (self.tmp, self.cache):
            path.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(root / "src"),
            "TMPDIR": str((root / self.tmp).resolve()),
            "REPRO_TSV_CACHE": str((root / self.cache).resolve()),
            "PERFBENCH_RUN": self.token,
        })
        self.children = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        #: Program starts that died before they were ready (retried).
        self.start_failures = []

    def check(self, ok, what):
        """Count one correctness check; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def spawn(self, args, log_name, **kwargs):
        """Start a program process with the run's environment."""
        log = open(self.dir / log_name, "ab")
        try:
            process = subprocess.Popen(
                args, cwd=self.root, env=self.env, stdout=kwargs.pop(
                    "stdout", log
                ), stderr=log, **kwargs,
            )
        finally:
            log.close()
        self.children.append(process)
        return process

    def python(self, *args):
        return [sys.executable, *args]

    def stop(self, process, grace_s=20.0):
        """SIGINT, then SIGTERM, then SIGKILL; always reaped."""
        for sig, wait_s in (
            (signal.SIGINT, grace_s), (signal.SIGTERM, 5.0),
            (signal.SIGKILL, 5.0),
        ):
            if process.poll() is not None:
                return process.returncode
            process.send_signal(sig)
            try:
                return process.wait(timeout=wait_s)
            except subprocess.TimeoutExpired:
                continue
        return process.wait()

    def _run_processes(self):
        """PIDs of live processes carrying this run's token."""
        marker = f"PERFBENCH_RUN={self.token}".encode()
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit() or int(entry) == os.getpid():
                continue
            try:
                with open(f"/proc/{entry}/environ", "rb") as handle:
                    environ = handle.read().split(b"\0")
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    state = handle.read().rsplit(b")", 1)[1].split()[0]
            except OSError:
                continue
            if marker in environ and state != b"Z":
                found.append(int(entry))
        return found

    def leaks(self):
        """Processes, sockets and temp entries the program left behind.

        Counted after every child was asked to stop and reaped; nothing
        is tidied before counting. Stray processes are then killed and
        waited for, so the run still ends clean.
        """
        for process in self.children:
            self.stop(process)
        stray = self._run_processes()
        sockets = [
            str(path) for path in self.dir.rglob("*")
            if stat.S_ISSOCK(path.lstat().st_mode)
        ]
        temp_entries = sorted(p.name for p in self.tmp.iterdir())
        for pid in stray:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10.0
        while self._run_processes() and time.monotonic() < deadline:
            time.sleep(0.05)
        return {
            "processes": len(stray),
            "sockets": sockets,
            "temp_entries": temp_entries,
            "total": len(stray) + len(sockets) + len(temp_entries),
        }

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass


def check_environment(root):
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(
            "no program to benchmark: src/repro is missing from "
            f"{root} (run from the root of a checkout)"
        )
    set_switches = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if set_switches:
        raise BenchError(
            "refusing to run with " + ", ".join(set_switches) + " set: the "
            "benchmark measures the library defaults"
        )


def emit(result):
    """Print the human-readable lines, then the result as the last line."""
    for name, (value, unit) in result["named"].items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    print("# detail " + json.dumps(result["detail"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    # A shell that starts us in the background leaves SIGINT ignored, and
    # children inherit an ignored disposition. Handling it here hands the
    # program's processes the default, so stop() can interrupt them.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    root = Path.cwd()
    try:
        check_environment(root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment_record()
    # The benchmark process replays layers in process (offline oracles,
    # traced kernels); it reads the same per-run extraction cache.
    os.environ["REPRO_TSV_CACHE"] = run.env["REPRO_TSV_CACHE"]
    os.environ["TMPDIR"] = run.env["TMPDIR"]
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    import workloads

    try:
        try:
            result = workloads.run_workload(run)
        finally:
            leaks = run.leaks()
        result["detail"]["leaks"] = leaks
        result["detail"]["env"] = env
        result["detail"]["failures"] = run.failures
        result["detail"]["start_failures"] = run.start_failures
        if args.trace:
            result["metrics"]["leaks"] = (float(leaks["total"]), "count")
    finally:
        run.cleanup()
    result["correct"] = run.failed == 0
    result["attempted"] = run.attempted
    result["failed"] = run.failed
    emit(result)
    if run.failures:
        print("perfbench: correctness failures: " + "; ".join(run.failures),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
