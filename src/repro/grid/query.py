"""Query and aggregate a grid's result store.

The store rows are flat (fingerprint -> spec + values); this module turns
them back into science:

* :func:`select` — filter records by experiment, point and axis values;
* :func:`figure_rows` — reassemble a figure's
  :class:`~repro.experiments.common.ExperimentRow` list, in the figure's
  own row order, from grid results (the CI bit-identity check feeds these
  through the same :mod:`repro.reporting` serializers as the serial run);
* :func:`pivot` — one metric over two axes as a dense array;
* :func:`percentiles` — robustness percentiles of a metric across a
  seed/variation axis, grouped by everything else.

Value comparisons and grouping keys go through the canonical JSON bytes
(:func:`repro.runtime.artifacts.canonical_payload_bytes`) rather than
float ``==``, matching the exactness discipline used everywhere else in
the repo: two values are "the same" iff they serialize identically.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.experiments.common import ExperimentRow
from repro.grid.space import job_fingerprint
from repro.grid.store import ResultRecord, ResultStore
from repro.runtime.artifacts import canonical_payload_bytes, jsonify


class QueryError(ValueError):
    """A query asked for something the store cannot answer."""


def _canon(value: Any) -> bytes:
    return canonical_payload_bytes(jsonify(value))


def _same(a: Any, b: Any) -> bool:
    """Exact value equality via the canonical serialization."""
    return _canon(a) == _canon(b)


def _matches(record: ResultRecord, where: Mapping[str, Any]) -> bool:
    for key, accepted in where.items():
        if key == "experiment":
            actual: Any = record.experiment
        elif key == "point":
            actual = record.point
        else:
            actual = record.params.get(key)
        if isinstance(accepted, (list, tuple, set, frozenset)):
            if not any(_same(actual, option) for option in accepted):
                return False
        elif not _same(actual, accepted):
            return False
    return True


def select(
    store: ResultStore,
    experiment: Optional[str] = None,
    where: Optional[Mapping[str, Any]] = None,
) -> List[ResultRecord]:
    """All records matching the filter, in fingerprint order.

    ``where`` maps axis names (or ``"point"``/``"experiment"``) to an
    accepted value or a list of accepted values.
    """
    records = store.records(experiment)
    if where:
        return [r for r in records if _matches(r, where)]
    return list(records)


def figure_rows(
    store: ResultStore,
    experiment: str,
    params: Mapping[str, Any],
    missing: str = "error",
) -> List[ExperimentRow]:
    """One parameter set's results as the figure's row list.

    Rows come back in the experiment's declared point order (via its
    ``point_specs``), labelled with the figure's row labels — so
    ``rows_to_json(figure_rows(...))`` is byte-comparable against the
    serial ``run()`` output. ``missing`` is ``"error"`` (raise
    :class:`QueryError` listing absent points) or ``"skip"``.
    """
    from repro.grid.runners import experiment_for

    if missing not in ("error", "skip"):
        raise QueryError(f"missing must be 'error' or 'skip', got {missing!r}")
    specs = experiment_for(experiment).point_specs(**dict(params))
    rows: List[ExperimentRow] = []
    absent: List[str] = []
    for spec in specs:
        fingerprint = job_fingerprint(experiment, dict(params), spec.name)
        record = store.fetch(fingerprint)
        if record is None:
            absent.append(spec.name)
            continue
        rows.append(ExperimentRow(
            label=spec.label,
            values={str(k): float(v) for k, v in record.values.items()},
        ))
    if absent and missing == "error":
        raise QueryError(
            f"no stored results for {experiment} points {absent} under "
            f"params {dict(params)!r} (grid not finished?)"
        )
    return rows


def _axis_value(record: ResultRecord, axis: str) -> Any:
    if axis == "point":
        return record.point
    if axis == "experiment":
        return record.experiment
    return record.params.get(axis)


def _sorted_unique(values: Sequence[Any]) -> List[Any]:
    unique: Dict[bytes, Any] = {}
    for value in values:
        unique.setdefault(_canon(value), value)
    return [unique[key] for key in sorted(unique)]


def pivot(
    records: Sequence[ResultRecord],
    index: str,
    columns: str,
    value: str,
) -> Dict[str, Any]:
    """One result metric over two axes as a dense table.

    Returns ``{"index": [...], "columns": [...], "values": 2-D list}``
    with ``None`` holes where no record exists; more than one record per
    cell is a :class:`QueryError` (under-constrained filter).
    """
    index_values = _sorted_unique([_axis_value(r, index) for r in records])
    column_values = _sorted_unique([_axis_value(r, columns) for r in records])
    position = {
        (_canon(iv), _canon(cv)): (i, j)
        for i, iv in enumerate(index_values)
        for j, cv in enumerate(column_values)
    }
    table: List[List[Optional[float]]] = [
        [None] * len(column_values) for _ in index_values
    ]
    for record in records:
        if value not in record.values:
            continue
        i, j = position[
            (_canon(_axis_value(record, index)),
             _canon(_axis_value(record, columns)))
        ]
        if table[i][j] is not None:
            raise QueryError(
                f"pivot cell ({index}={index_values[i]!r}, "
                f"{columns}={column_values[j]!r}) is ambiguous: multiple "
                f"records; constrain the selection further"
            )
        table[i][j] = float(record.values[value])
    return {"index": index_values, "columns": column_values, "values": table}


def percentiles(
    records: Sequence[ResultRecord],
    value: str,
    over: str = "seed",
    qs: Sequence[float] = (5.0, 50.0, 95.0),
) -> List[Dict[str, Any]]:
    """Robustness percentiles of one metric across a variation axis.

    Records are grouped by everything *except* ``over`` (their point name
    plus all other parameters); each group reports ``n`` samples and the
    requested percentiles (linear interpolation, the NumPy default). This
    is the seed-robustness view: plan a grid with a ``seed`` axis, then
    ask how stable each figure point is across it.
    """
    groups: Dict[bytes, Dict[str, Any]] = {}
    for record in records:
        if value not in record.values:
            continue
        rest = {k: v for k, v in record.params.items() if k != over}
        key_doc = {"experiment": record.experiment, "point": record.point,
                   "params": rest}
        key = _canon(key_doc)
        group = groups.setdefault(key, {
            "experiment": record.experiment,
            "point": record.point,
            "params": rest,
            "samples": [],
        })
        group["samples"].append(float(record.values[value]))
    result: List[Dict[str, Any]] = []
    for key in sorted(groups):
        group = groups[key]
        samples = np.asarray(sorted(group["samples"]), dtype=float)
        entry = {
            "experiment": group["experiment"],
            "point": group["point"],
            "params": group["params"],
            "metric": value,
            "n": int(samples.size),
        }
        for q in qs:
            entry[f"p{q:g}"] = float(np.percentile(samples, q))
        result.append(entry)
    return result
