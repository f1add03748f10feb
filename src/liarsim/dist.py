"""Measurement-outcome distributions and their CSV formats."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

PROBABILITY = "probability"
COUNTS = "counts"

# The bundled reference table ships its probability column exactly as printed.
# Those columns sum to 0.9624 (simulation arm) and 0.9445 (hardware arm), not
# to 1, so validation of that one dataset needs this much slack.
REFERENCE_TABLE_SUM_TOL = 0.06

_BUNDLED_TABLES = {
    "simulation": "table_s1_simulation.csv",
    "hardware": "table_s1_hardware.csv",
}


def _check_bitstring(state: str, width: int) -> None:
    if len(state) != width or state.strip("01"):
        raise ValueError(f"bad state {state!r} for width {width}")


@dataclass
class Distribution:
    """Outcomes keyed by canonical bitstring (highest qubit index leftmost).

    kind "probability": values are probabilities; whether they must sum to 1
    is checked by validate(), not at construction, because one bundled dataset
    legitimately carries an imbalanced published column.
    kind "counts": values are nonnegative integers; total_shots always equals
    their sum.
    """

    width: int
    entries: dict[str, float]
    kind: str
    total_shots: int | None = None

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.kind not in (PROBABILITY, COUNTS):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        for state, value in self.entries.items():
            _check_bitstring(state, self.width)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"bad value {value!r} for state {state}")
        if self.kind == COUNTS:
            for state, value in self.entries.items():
                if value != int(value):
                    raise ValueError(f"count for {state} is not an integer: {value}")
            observed = int(sum(self.entries.values()))
            if self.total_shots is None:
                self.total_shots = observed
            elif self.total_shots != observed:
                raise ValueError(
                    f"total_shots={self.total_shots} but entries sum to {observed}"
                )
        elif self.total_shots is not None:
            raise ValueError("total_shots only applies to counts distributions")

    def validate(self, sum_tol: float = 1e-6) -> "Distribution":
        """Probability masses must sum to 1 within sum_tol."""
        if self.kind == PROBABILITY:
            total = sum(self.entries.values())
            if abs(total - 1.0) > sum_tol:
                raise ValueError(
                    f"probabilities sum to {total:.6f}, outside 1 +- {sum_tol}"
                )
        return self

    def total(self) -> float:
        return float(sum(self.entries.values()))

    def as_probabilities(self) -> dict[str, float]:
        """Counts are normalized by total_shots; probability entries are
        returned exactly as stored (no silent renormalization)."""
        if self.kind == COUNTS:
            if not self.total_shots:
                raise ValueError("cannot normalize an empty counts distribution")
            return {s: v / self.total_shots for s, v in self.entries.items()}
        return dict(self.entries)


# ---------------------------------------------------------------------------
# CSV format
#
# Counts files:       header "state,counts", one row per outcome.
# Probability files:  header "state,probability".
# The bundled reference table uses "state,counts,probability" with both
# published columns; `column` picks which one to load.

_HEADERS = {
    ("state", "counts"): (COUNTS,),
    ("state", "probability"): (PROBABILITY,),
    ("state", "counts", "probability"): (COUNTS, PROBABILITY),
}


def _parse_rows(rows: list[list[str]], column: str, where: str) -> Distribution:
    if not rows:
        raise ValueError(f"{where}: empty file")
    header = tuple(cell.strip() for cell in rows[0])
    if header not in _HEADERS:
        raise ValueError(f"{where}: unrecognized header {','.join(header)!r}")
    available = _HEADERS[header]
    if column == "auto":
        column = PROBABILITY if PROBABILITY in available else COUNTS
    if column not in available:
        raise ValueError(f"{where}: no {column!r} column in header {header}")
    value_at = header.index(column)

    entries: dict[str, float] = {}
    width = None
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ValueError(f"{where}:{lineno}: expected {len(header)} columns")
        state = row[0].strip()
        if width is None:
            width = len(state)
        _check_bitstring(state, width)
        if state in entries:
            raise ValueError(f"{where}:{lineno}: duplicate state {state}")
        raw = row[value_at].strip()
        try:
            value = int(raw) if column == COUNTS else float(raw)
        except ValueError as exc:
            raise ValueError(f"{where}:{lineno}: bad {column} value {raw!r}") from exc
        entries[state] = float(value)
    if width is None:
        raise ValueError(f"{where}: no data rows")
    return Distribution(width=width, entries=entries, kind=column)


def read_distribution_csv(path, column: str = "auto",
                          sum_tol: float = 1e-6) -> Distribution:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path}: {exc}") from exc
    dist = _parse_rows(rows, column, str(path))
    return dist.validate(sum_tol)


def write_counts_csv(dist: Distribution, path) -> None:
    if dist.kind != COUNTS:
        raise ValueError("counts CSV requires a counts distribution")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("state,counts\n")
        for state in sorted(dist.entries):
            fh.write(f"{state},{int(dist.entries[state])}\n")


# ---------------------------------------------------------------------------
# bundled reference dataset

def bundled_table_names() -> tuple[str, ...]:
    return tuple(sorted(_BUNDLED_TABLES))


def reference_table_bytes(arm: str) -> bytes:
    if arm not in _BUNDLED_TABLES:
        raise ValueError(f"unknown reference table {arm!r}, "
                         f"expected one of {sorted(_BUNDLED_TABLES)}")
    res = resources.files("liarsim").joinpath("data", _BUNDLED_TABLES[arm])
    return res.read_bytes()


def load_reference_table(arm: str, column: str = PROBABILITY) -> Distribution:
    """Bundled 16-row measurement table, simulation or hardware arm.

    The probability column is returned exactly as printed in the source table
    (its sum falls short of 1; see REFERENCE_TABLE_SUM_TOL).  The counts
    column sums to exactly 8192.
    """
    text = reference_table_bytes(arm).decode("utf-8")
    rows = list(csv.reader(text.splitlines()))
    dist = _parse_rows(rows, column, f"bundled:{arm}")
    return dist.validate(REFERENCE_TABLE_SUM_TOL)
