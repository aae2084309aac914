"""Workload registry and the metric catalogue every run reports.

Every workload reports the same end-to-end metrics (:data:`END_TO_END`)
and, when traced, the same per-layer metrics (:data:`PER_LAYER`). A layer
that does no work on a workload reports 0 there: that is the workload
where a change to that layer should move nothing.
"""

from arith import failed_fraction
from procs import children_peak_rss_mb

#: (name, unit). ``wall_s`` is the wall time of the workload's fixed
#: unit of work: the figure pass (fig2..fig6 + noc), one closed-loop
#: pass over the links, one concurrent fleet pass, one grid drain.
#: ``cpu_s`` is the CPU time the program's processes spend on that unit
#: of work, all threads included.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
)

#: Layers timed by spans around their public functions.
SPAN_LAYERS = (
    "tsv.fit", "tsv.extract", "datagen", "stats.from_stream",
    "stats.validate", "core.compile", "core.anneal", "core.baseline",
    "core.naive_power", "circuit.energy", "coding", "noc.simulate",
    "experiments",
)

SIZES = ("9", "36", "64")


def _per_layer_catalogue():
    entries = []
    for layer in SPAN_LAYERS:
        entries += [(f"{layer}_s", "s"), (f"{layer}_calls", "count"),
                    (f"{layer}.self_s", "s")]
    entries += [
        ("stats.rows", "count"),
        ("core.anneal_evals", "count"),
        ("core.anneal_evals_per_s", "1/s"),
        ("circuit.energy_cycles", "count"),
        ("circuit.energy_bytes", "bytes_computed"),
    ]
    for size in SIZES:
        entries += [(f"serve.codec_wps_{size}", "words/s"),
                    (f"serve.route_wps_{size}", "words/s"),
                    (f"serve.energy_wps_{size}", "words/s"),
                    (f"serve.session_wps_{size}", "words/s"),
                    (f"serve.wire_share_{size}", "ratio")]
    entries += [
        ("serve.decode_codec_wps_64", "words/s"),
        ("serve.frame_s", "s"),
        ("serve.frame_calls", "count"),
        ("serve.engine.batches", "count"),
        ("serve.engine.mean_batch_requests", "count"),
        ("serve.engine.max_queue_depth", "count"),
        ("serve.engine.shed", "count"),
        ("serve.engine.deadline_missed", "count"),
        ("serve.engine.errors", "count"),
        ("serve.start_failures", "count"),
        ("serve.server_p50_ms", "ms"),
        ("serve.server_p99_ms", "ms"),
        ("load.late_ms_p99", "ms"),
        ("fleet.worker_p50_ms", "ms"),
        ("fleet.worker_p99_ms", "ms"),
        ("fleet.restarts", "count"),
        ("fleet.snapshot_seq", "count"),
        ("grid.query_s", "s"),
        ("grid.jobs", "count"),
        ("grid.job_s_sum", "s"),
        ("grid.job_s_p50", "s"),
        ("grid.efficiency", "ratio"),
        ("grid.failed", "count"),
        ("grid.violations", "count"),
        ("grid.reclaimed", "count"),
        ("peak_rss_mb", "MB"),
        ("leaks", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("failed_frac", "ratio"),
    ]
    return tuple(entries)


PER_LAYER = _per_layer_catalogue()


def per_layer_values(result):
    """Fill the per-layer catalogue from one traced workload result."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    layers = result.get("layers", {})
    for layer in SPAN_LAYERS:
        entry = layers.get(layer)
        if entry:
            values[f"{layer}_s"] = entry["busy_s"]
            values[f"{layer}_calls"] = entry["calls"]
            values[f"{layer}.self_s"] = entry["self_s"]
    for name, amount in result.get("counts", {}).items():
        values[name] = amount
    if values["core.anneal_s"] > 0:
        values["core.anneal_evals_per_s"] = (
            values["core.anneal_evals"] / values["core.anneal_s"]
        )
    for key in ("serve_layers", "fleet_layers", "grid_layers"):
        values.update(result.get(key, {}))
    values["trace.overhead_ratio"] = result.get("trace_overhead", 0.0)
    return values


def finish(run, result):
    """The metrics of the result line: end-to-end, or per-layer if traced."""
    failed_frac = failed_fraction(run.failed, run.attempted)
    result["named"]["failed_frac"] = (failed_frac, "ratio")
    result["detail"]["named"] = {
        name: value for name, (value, _) in result["named"].items()
    }
    if not run.trace:
        return {name: (result["metrics"][name][0], unit)
                for name, unit in END_TO_END}
    values = per_layer_values(result)
    values["peak_rss_mb"] = children_peak_rss_mb()
    values["serve.start_failures"] = len(run.start_failures)
    values["failed_frac"] = failed_frac
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}


def _runners():
    from figures import run_figures
    from gridrun import run_grid
    from serving import run_fleet, run_links

    return {"figures": run_figures, "links": run_links,
            "fleet": run_fleet, "grid": run_grid}


def run_workload(run):
    result = _runners()[run.workload](run)
    result["metrics"] = finish(run, result)
    return result
