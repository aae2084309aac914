"""Serialization of experiment results and assignments.

Benchmarks and the CLI print human-readable tables; downstream tooling
(plotting scripts, regression trackers) wants machine-readable output. This
module converts the experiment row format and assignment reports to CSV and
JSON, and round-trips assignments through plain dictionaries so a chosen
mapping can be stored next to the RTL that implements it.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Sequence

from repro.core.assignment import SignedPermutation
from repro.experiments.common import ExperimentRow


def rows_to_records(rows: Sequence[ExperimentRow]) -> List[Dict]:
    """Experiment rows as flat dictionaries (one per row)."""
    records = []
    for row in rows:
        record: Dict = {"label": row.label}
        record.update(row.values)
        records.append(record)
    return records


def rows_to_json(rows: Sequence[ExperimentRow], indent: int = 2) -> str:
    """Experiment rows as a JSON array string."""
    return json.dumps(rows_to_records(rows), indent=indent)


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    """Experiment rows as CSV text (union of all columns, label first)."""
    if not rows:
        return ""
    columns: List[str] = ["label"]
    for row in rows:
        for key in row.values:
            if key not in columns:
                columns.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    for record in rows_to_records(rows):
        writer.writerow(record)
    return buffer.getvalue()


def assignment_to_dict(assignment: SignedPermutation) -> Dict:
    """JSON-friendly description of an assignment."""
    return {
        "line_of_bit": list(assignment.line_of_bit),
        "inverted": [bool(x) for x in assignment.inverted],
    }


def assignment_from_dict(data: Dict) -> SignedPermutation:
    """Inverse of :func:`assignment_to_dict` (validates the permutation)."""
    try:
        line_of_bit = data["line_of_bit"]
        inverted = data["inverted"]
    except (KeyError, TypeError) as exc:
        raise ValueError("missing assignment fields") from exc
    return SignedPermutation.from_sequence(line_of_bit, inverted)


def assignment_to_json(assignment: SignedPermutation, indent: int = 2) -> str:
    return json.dumps(assignment_to_dict(assignment), indent=indent)


def assignment_from_json(text: str) -> SignedPermutation:
    return assignment_from_dict(json.loads(text))
