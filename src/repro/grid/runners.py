"""The grid's experiment registry: what a job's ``experiment`` refers to.

Each entry binds a name to the experiment module's two constructors:

* ``point_specs(**params)`` — cheap point enumeration (names, labels,
  per-point fingerprints), used at planning time by
  :func:`repro.grid.space.expand` and at query time for row ordering;
* ``points(checkpoint_dir=..., **params)`` — the runnable sweep points.
  Datagen for *all* points runs inside it, replaying the full RNG
  sequence from the seed, so executing any single thunk (a grid job)
  yields values bit-identical to the serial figure run by construction.

:func:`execute_job` is the worker's entry: it re-expands the experiment's
points from the job's parameters and runs exactly the requested one under
a per-job :class:`~repro.experiments.common.ExperimentSweep` checkpoint —
covering both the computed-but-not-yet-recorded window (the sweep
checkpoint caches the finished values) and the mid-search window (the
annealing checkpoints under ``<job>/anneal`` resume an interrupted chain
bit-identically).

The ``selftest`` experiment is a microsecond-cheap stand-in for the chaos
tests and the claim-throughput benchmark: seed-determined values, an
optional per-point delay (to widen kill windows) and optional designated
failing points (to exercise the bounded-retry path).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.experiments import fig4, fig6, noc_case_study
from repro.experiments.common import ExperimentSweep, GridPoint, PointSpec
from repro.grid.space import JOB_FORMAT, JOB_VERSION, SpaceError, job_fingerprint


class UnknownPointError(ValueError):
    """A job names a point its experiment does not declare."""


@dataclass(frozen=True)
class GridExperiment:
    """One runnable experiment: cheap spec enumeration + point thunks."""

    name: str
    point_specs: Callable[..., List[PointSpec]]
    points: Callable[..., List[GridPoint]]


# -- the selftest experiment ---------------------------------------------------


def _selftest_specs(
    n_points: int = 3,
    seed: int = 2018,
    delay_s: float = 0.0,
    fail_points: Tuple[str, ...] = (),
) -> List[PointSpec]:
    return [
        PointSpec(
            name=f"p{index}",
            label=f"selftest p{index}",
            fingerprint={
                "experiment": "selftest", "index": index,
                "n_points": n_points, "seed": seed,
            },
        )
        for index in range(int(n_points))
    ]


def _selftest_points(
    n_points: int = 3,
    seed: int = 2018,
    delay_s: float = 0.0,
    fail_points: Tuple[str, ...] = (),
    checkpoint_dir: Optional[str] = None,
) -> List[GridPoint]:
    del checkpoint_dir  # nothing to checkpoint below the sweep level
    result: List[GridPoint] = []
    for index, spec in enumerate(_selftest_specs(
        n_points=n_points, seed=seed, delay_s=delay_s,
        fail_points=fail_points,
    )):

        def thunk(index=index, name=spec.name):
            if name in tuple(fail_points):
                raise RuntimeError(f"selftest point {name} set to fail")
            if delay_s:
                time.sleep(float(delay_s))
            rng = np.random.default_rng([int(seed), index])
            return {"value": float(rng.random()), "index": float(index)}

        result.append(GridPoint(spec=spec, thunk=thunk))
    return result


#: Everything a grid job's ``experiment`` field may name.
EXPERIMENTS: Dict[str, GridExperiment] = {
    "fig4": GridExperiment("fig4", fig4.point_specs, fig4.points),
    "fig6": GridExperiment("fig6", fig6.point_specs, fig6.points),
    "noc": GridExperiment(
        "noc", noc_case_study.point_specs, noc_case_study.points
    ),
    "selftest": GridExperiment("selftest", _selftest_specs, _selftest_points),
}


def experiment_for(name: str) -> GridExperiment:
    if name not in EXPERIMENTS:
        raise SpaceError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[name]


def point_names_for(experiment: str, params: Mapping[str, Any]) -> List[str]:
    """The point names ``experiment`` declares under one parameter set."""
    try:
        specs = experiment_for(experiment).point_specs(**dict(params))
    except TypeError as exc:
        raise SpaceError(
            f"experiment {experiment!r} rejected params "
            f"{dict(params)!r}: {exc}"
        ) from exc
    return [spec.name for spec in specs]


def execute_job(
    spec: Mapping[str, Any],
    checkpoint_dir: Optional[str] = None,
) -> Tuple[str, Dict[str, float]]:
    """Run one queued job spec; returns ``(row label, values)``.

    With a ``checkpoint_dir`` (the worker's per-job directory) the point
    runs under a job-level sweep checkpoint plus annealing checkpoints in
    an ``anneal/`` subdirectory, so a reclaimed job resumes instead of
    recomputing — bit-identically, because both layers are observational.
    """
    if spec.get("format") != JOB_FORMAT or spec.get("version") != JOB_VERSION:
        raise SpaceError(
            f"not a version-{JOB_VERSION} {JOB_FORMAT} spec: "
            f"format={spec.get('format')!r} version={spec.get('version')!r}"
        )
    experiment = experiment_for(str(spec.get("experiment", "")))
    params = dict(spec.get("params", {}))
    point_name = str(spec.get("point", ""))

    anneal_dir = None
    if checkpoint_dir is not None:
        anneal_dir = str(Path(checkpoint_dir) / "anneal")
    try:
        points = experiment.points(checkpoint_dir=anneal_dir, **params)
    except TypeError as exc:
        raise SpaceError(
            f"experiment {experiment.name!r} rejected params "
            f"{params!r}: {exc}"
        ) from exc
    match = next((p for p in points if p.spec.name == point_name), None)
    if match is None:
        raise UnknownPointError(
            f"experiment {experiment.name!r} has no point {point_name!r}; "
            f"available: {[p.spec.name for p in points]}"
        )
    sweep = ExperimentSweep(
        f"grid-{experiment.name}",
        checkpoint_dir=checkpoint_dir,
        fingerprint={
            "job": job_fingerprint(experiment.name, params, point_name)
        },
    )
    values = sweep.compute(
        match.spec.name, match.thunk, fingerprint=match.spec.fingerprint
    )
    return match.spec.label, values
