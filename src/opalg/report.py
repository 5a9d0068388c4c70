"""Labeled numeric reports with deterministic CSV/JSON serialization.

Serialized output is byte-stable for a fixed configuration: floats are
written with 17 significant digits (enough to round-trip float64 exactly)
and the measured wall time is kept on the in-memory report only, never in
the emitted bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def format_float(value: float) -> str:
    return format(float(value), ".17g")


@dataclass
class ExperimentReport:
    """Rows of (label, value) plus pass/fail flags per assertion."""

    experiment: str
    params: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    wall_time: float | None = None

    def add(self, label: str, value: float):
        self.rows.append((str(label), float(value)))

    def check(self, label: str, ok) -> bool:
        ok = bool(ok)
        self.flags.append((str(label), ok))
        return ok

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.flags)

    def value(self, label: str) -> float:
        for row_label, v in self.rows:
            if row_label == label:
                return v
        raise KeyError(label)

    def to_csv_bytes(self) -> bytes:
        lines = ["label,value"]
        for label, value in self.rows:
            lines.append(f"{label},{format_float(value)}")
        return ("\n".join(lines) + "\n").encode("utf-8")

    def to_json_bytes(self) -> bytes:
        payload = {
            "experiment": self.experiment,
            "params": self.params,
            "rows": [[label, value] for label, value in self.rows],
            "flags": {label: ok for label, ok in self.flags},
            # wall time is measured but not serialized: output bytes must be
            # identical across reruns of the same configuration
            "wall_time": None,
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def parse_csv(data: bytes):
    """Inverse of to_csv_bytes, for round-trip checks."""
    lines = data.decode("utf-8").strip().split("\n")
    if lines[0] != "label,value":
        raise ValueError("missing label,value header")
    rows = []
    for line in lines[1:]:
        label, _, value = line.rpartition(",")
        rows.append((label, float(value)))
    return rows
