"""The ``figures`` workload: what a user reproducing the paper runs.

The parent side (:func:`run_figures`) starts one fresh interpreter that
imports the experiments, runs fig2..fig6 at full scale and the NoC case
study at ``--fast`` scale, serially, and prints a JSON line with each
figure's wall time and table. Every table is compared with the committed
reference in ``reference/``. The child side is this file's ``__main__``.

In a traced run the child wraps the layers' public functions (see
:data:`LAYERS`) before the first figure, and the parent also runs an
untraced child so the run can report its own tracing overhead.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

from arith import median

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

#: (name, module, fast) in the order a user would run them.
FIGURES = (
    ("fig2", "repro.experiments.fig2", False),
    ("fig3", "repro.experiments.fig3", False),
    ("fig4", "repro.experiments.fig4", False),
    ("fig5", "repro.experiments.fig5", False),
    ("fig6", "repro.experiments.fig6", False),
    ("noc", "repro.experiments.noc_case_study", True),
)

#: Import-only interpreters started per run besides the measuring one;
#: ``setup_s`` is the median over all of them (five in an untraced run).
EXTRA_SETUPS = 4

DATAGEN_MODULES = (
    "repro.datagen.gaussian", "repro.datagen.images", "repro.datagen.mems",
    "repro.datagen.random_stream", "repro.datagen.sequential",
)

CODING_FUNCTIONS = (
    "repro.coding.gray:gray_encode_words",
    "repro.coding.correlator:correlate_words",
    "repro.coding.businvert:bus_invert_encode",
    "repro.coding.businvert:coupling_invert_encode",
    "repro.coding.cac:build_lat_codebook",
)


def _rows(args, kwargs, result):
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    return {"stats.rows": int(stream.shape[0])}


def _evaluations(args, kwargs, result):
    return {"core.anneal_evals": int(result.evaluations)}


def _cycles(args, kwargs, result):
    bits = args[1] if len(args) > 1 else kwargs["bits"]
    samples, lines = bits.shape
    # Computed, not measured: the bit array read once, then the float64
    # volts, their first difference and the charge product, each
    # (samples, lines) and written once.
    return {
        "circuit.energy_cycles": int(samples - 1),
        "circuit.energy_bytes": int(bits.nbytes + 3 * samples * lines * 8),
    }


#: layer -> [(public function path, work counter or None)].
LAYERS = {
    "tsv.fit": [("repro.tsv.capmodel:LinearCapacitanceModel.fit", None)],
    "tsv.extract": [
        ("repro.tsv.extractor:CapacitanceExtractor.extract", None)
    ],
    "stats.from_stream": [
        ("repro.stats.switching:BitStatistics.from_stream", _rows)
    ],
    "stats.validate": [("repro.stats.switching:validate_bit_stream", None)],
    "core.compile": [
        ("repro.core.fastpower:CompiledPowerModel.compile", None)
    ],
    "core.anneal": [
        ("repro.core.optimize:simulated_annealing", _evaluations)
    ],
    "core.baseline": [("repro.core.pipeline:random_baseline_power", None)],
    "core.naive_power": [("repro.core.power:PowerModel.power", None)],
    "circuit.energy": [
        ("repro.circuit.energy:EnergyModel.cycle_energies", _cycles)
    ],
    "coding": [(path, None) for path in CODING_FUNCTIONS],
    "noc.simulate": [("repro.noc.simulation:simulate_link_traces", None)],
}


def install_layers(tracer):
    """Wrap every layer boundary; returns bindings replaced per layer."""
    import importlib
    import inspect

    from spans import install

    bound = {}
    for layer, targets in LAYERS.items():
        bound[layer] = sum(
            install(tracer, layer, path, counter)
            for path, counter in targets
        )
    bound["datagen"] = 0
    for module_name in DATAGEN_MODULES:
        module = importlib.import_module(module_name)
        for name, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and not name.startswith("_")
                and value.__module__ == module_name
            ):
                bound["datagen"] += install(
                    tracer, "datagen", f"{module_name}:{name}"
                )
    return bound


def _self_cpu_s():
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def child_main(argv):
    """Runs in the fresh interpreter: import, (trace,) run, report."""
    import importlib

    imports_only = "--imports-only" in argv
    trace = "--trace" in argv
    modules = {name: importlib.import_module(path)
               for name, path, _ in FIGURES}
    imported = time.monotonic()
    report = {"imported": imported, "figures": []}
    if imports_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        report["bound"] = install_layers(tracer)
    cpu_start = _self_cpu_s()
    for name, _, fast in FIGURES:
        sink = io.StringIO()
        span = (tracer.span("experiments") if tracer
                else contextlib.nullcontext())
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(sink):
            table = modules[name].main(fast=fast)
        report["figures"].append({
            "name": name,
            "wall_s": time.perf_counter() - start,
            "table": table,
        })
    report["cpu_s"] = _self_cpu_s() - cpu_start
    if tracer is not None:
        report["layers"] = tracer.summary()
        report["counts"] = tracer.counts
    print(json.dumps(report))
    return 0


def _child(run, *flags):
    """Start one child; returns (spawn time, its parsed report)."""
    spawned = time.monotonic()
    process = run.spawn(
        run.python(str(HERE / "figures.py"), *flags),
        "figures.log", stdout=-1,
    )
    out, _ = process.communicate()
    if process.returncode != 0:
        raise RuntimeError(
            f"figures child {flags} exited {process.returncode}; see "
            f"{run.dir / 'figures.log'}"
        )
    return spawned, json.loads(out.decode().strip().splitlines()[-1])


def reference_table(name):
    return (REFERENCE / f"{name}.txt").read_text()


def run_figures(run):
    setups = []
    for _ in range(EXTRA_SETUPS):
        spawned, report = _child(run, "--imports-only")
        setups.append(report["imported"] - spawned)

    untraced = None
    if run.trace:
        spawned, untraced = _child(run)
        setups.append(untraced["imported"] - spawned)
        spawned, report = _child(run, "--trace")
    else:
        spawned, report = _child(run)
    setups.append(report["imported"] - spawned)

    for checked in filter(None, (untraced, report)):
        for entry in checked["figures"]:
            run.check(
                entry["table"] == reference_table(entry["name"]),
                f"{entry['name']} table differs from reference/"
                f"{entry['name']}.txt",
            )

    walls = {entry["name"]: entry["wall_s"] for entry in report["figures"]}
    figures_s = sum(walls[n] for n in ("fig2", "fig3", "fig4", "fig5",
                                       "fig6"))
    wall_s = figures_s + walls["noc"]
    named = {
        "setup_s": (median(setups), "s"),
        "figures_s": (figures_s, "s"),
        "fig3_s": (walls["fig3"], "s"),
        "fig6_s": (walls["fig6"], "s"),
        "noc_s": (walls["noc"], "s"),
    }
    result = {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "cpu_s": (report["cpu_s"], "s"),
        },
        "named": named,
        "detail": {"setups_s": setups, "figure_wall_s": walls},
    }
    if run.trace:
        untraced_wall = sum(e["wall_s"] for e in untraced["figures"])
        result["layers"] = report["layers"]
        result["counts"] = report["counts"]
        result["detail"]["bound"] = report["bound"]
        result["trace_overhead"] = wall_s / untraced_wall - 1.0
    return result


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
