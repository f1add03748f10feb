"""Measurement-outcome distributions and their CSV formats."""

from __future__ import annotations

import csv
from collections.abc import Mapping, Sequence
from importlib import resources
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .circuit import _is_int, _write_text

PROBABILITY = "probability"
COUNTS = "counts"

# The bundled reference table ships its probability column exactly as printed.
# Those columns sum to 0.9624 (simulation arm) and 0.9445 (hardware arm), not
# to 1, so validation of that one dataset needs this much slack.
REFERENCE_TABLE_SUM_TOL = 0.06

# Outcomes are held as int64 basis indices.
MAX_WIDTH = 63
# Rows rendered per block by _render_rows: large enough that NumPy's
# per-call cost is spread thin, small enough that a block stays in cache and
# a 2**24-outcome report never holds a full-size temporary array.
_CHUNK_ROWS = 4096
# Up to this many rows _render_rows (and bitstrings) formats each row in
# Python, which beats the block layout's fixed cost of about a dozen NumPy
# calls.  Measured in process on 14-bit rows: the two paths of render_entries
# cross at about 40 rows for counts, below 24 for probabilities with few
# distinct values and near 90 for all-distinct ones; bitstrings crosses below
# 16.  Counts are the common kind in reports and CSV files.
_FORMAT_EACH = 40

_BUNDLED_TABLES = {
    "simulation": "table_s1_simulation.csv",
    "hardware": "table_s1_hardware.csv",
}


def _check_bitstring(state: str, width: int) -> None:
    if len(state) != width or state.strip("01"):
        raise ValueError(f"bad state {state!r} for width {width}")


# The eight "0"/"1" characters of each byte value, highest bit first, as one
# uint64 whose memory holds them in order.
_BYTE_CHARS = np.frombuffer("".join(format(b, "08b") for b in range(256)).encode("ascii"),
                            dtype=np.uint64)


def _bit_chars(indices: np.ndarray, width: int) -> np.ndarray:
    """The "0"/"1" character codes of each index as a uint8 array, one row of
    width columns per index, highest bit first.  The low (width + 7) // 8
    bytes of each index, read from its little-endian int64 bytes most
    significant first, are looked up in _BYTE_CHARS by one take(), and the
    leading characters beyond width are sliced off; the result is a view,
    C-contiguous only when width is a multiple of 8."""
    size = (width + 7) // 8
    raw = np.ascontiguousarray(indices, dtype="<i8").view(np.uint8).reshape(-1, 8)
    return _BYTE_CHARS.take(raw[:, size - 1::-1]).view(np.uint8)[:, 8 * size - width:]


def bitstrings(indices: np.ndarray, width: int) -> list[str]:
    """The canonical bitstring (highest qubit index leftmost) of every index
    in the array.  Past _FORMAT_EACH indices the characters come from
    _bit_chars, widened to UCS-4 and read as one str per row; up to that,
    where NumPy's fixed cost per call dominates, each index is formatted in
    Python."""
    if len(indices) <= _FORMAT_EACH:
        spec = f"0{width}b"
        return [format(i, spec) for i in np.asarray(indices).tolist()]
    chars = _bit_chars(indices, width).astype(np.uint32)
    return chars.view(f"U{width}").ravel().tolist()


def _parse_states(states: list, width: int) -> np.ndarray:
    """int64 indices of canonical bitstrings, or ValueError naming the first
    bad one."""
    try:
        fits = (set(map(len, states)) <= {width}
                and not "".join(states).replace("0", "").replace("1", ""))
    except TypeError:  # a state that is not a string
        fits = False
    if fits:
        return np.fromiter(map(int, states, repeat(2)), dtype=np.int64, count=len(states))
    for state in states:
        _check_bitstring(state, width)
    raise AssertionError("unreachable: some state failed the check above")


class _Entries(Mapping):
    """Read-only bitstring -> value view of a distribution's arrays.  The dict
    behind it, in entry order, is the one given or else built on the first
    lookup; len() reads the arrays."""

    __slots__ = ("_width", "_indices", "_values", "_dict")

    def __init__(self, width: int, indices: np.ndarray, values: np.ndarray,
                 items: dict[str, float] | None = None):
        self._width, self._indices, self._values = width, indices, values
        self._dict = items

    def _items(self) -> dict[str, float]:
        if self._dict is None:
            self._dict = dict(zip(bitstrings(self._indices, self._width),
                                  self._values.tolist()))
        return self._dict

    def __getitem__(self, state: str) -> float:
        return self._items()[state]

    def __iter__(self):
        return iter(self._items())

    def __len__(self) -> int:
        return len(self._indices)

    # the dict's own methods, not the per-key Python loops Mapping would run
    def __contains__(self, state) -> bool:
        return state in self._items()

    def get(self, state, default=None):
        return self._items().get(state, default)

    def keys(self):
        return self._items().keys()

    def items(self):
        return self._items().items()

    def values(self):
        return self._items().values()

    def __repr__(self) -> str:
        return repr(self._items())


class Distribution:
    """Measurement outcomes: an int64 array of basis indices and a float64
    array of their values, in the order the entries arrived.  Index i is the
    outcome whose canonical bitstring (highest qubit index leftmost) is
    format(i, f"0{width}b"); `entries` is the same data as a read-only
    bitstring -> value mapping, built on first use.

    Build one from a mapping, `Distribution(width, {"01": 0.5, ...}, kind)`,
    or from arrays, `Distribution(width, None, kind, indices=..., values=...)`;
    the arrays are kept as read-only views, not copied.

    kind "probability": values are probabilities; whether they must sum to 1
    is checked by validate(), not at construction, because one bundled dataset
    legitimately carries an imbalanced published column.
    kind "counts": values are nonnegative integers; total_shots always equals
    their sum.
    """

    __hash__ = None

    def __init__(self, width: int, entries: Mapping[str, float] | None, kind: str,
                 total_shots: int | None = None, *,
                 indices: np.ndarray | None = None,
                 values: np.ndarray | None = None):
        if not (_is_int(width) and 1 <= width <= MAX_WIDTH):
            raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width!r}")
        width = int(width)
        if kind not in (PROBABILITY, COUNTS):
            raise ValueError(f"unknown distribution kind {kind!r}")
        if entries is not None:
            if indices is not None or values is not None:
                raise ValueError("pass entries or indices and values, not both")
            states = list(entries)
            indices = _parse_states(states, width)
            values = np.fromiter(entries.values(), dtype=np.float64, count=len(states))
            # the caller's keys are the bitstrings: no need to render them again
            known = dict(zip(states, values.tolist()))
        elif indices is None or values is None:
            raise ValueError("pass entries, or both indices and values")
        else:
            indices = np.asarray(indices)
            if indices.size and indices.dtype.kind not in "iu":
                raise ValueError(f"indices must be integers, got {indices.dtype}")
            indices = indices.astype(np.int64, copy=False)
            values = np.asarray(values, dtype=np.float64)
            if indices.ndim != 1 or indices.shape != values.shape:
                raise ValueError("indices and values must be 1-D and equally long")
            self._check_indices(indices, width)
            known = None
        self.width, self.kind, self.total_shots = width, kind, total_shots
        self.indices, self.values = indices.view(), values.view()
        self.indices.flags.writeable = self.values.flags.writeable = False
        self._entries = _Entries(width, self.indices, self.values, known)

        if values.size and not (values.min() >= 0 and values.max() < np.inf):  # NaN fails
            self._reject(~((values >= 0) & (values < np.inf)),
                         "bad value {value!r} for state {state}")
        if kind == COUNTS:
            if (values % 1).any():
                self._reject(values % 1 != 0, "count for {state} is not an integer: {value}")
            observed = int(sum(values.tolist()))
            if total_shots is not None and not _is_int(total_shots):
                raise ValueError(f"total_shots must be an integer, got {total_shots!r}")
            if total_shots is not None and total_shots != observed:
                raise ValueError(
                    f"total_shots={total_shots} but entries sum to {observed}"
                )
            self.total_shots = observed
        elif total_shots is not None:
            raise ValueError("total_shots only applies to counts distributions")

    @staticmethod
    def _check_indices(indices: np.ndarray, width: int) -> None:
        if not indices.size:
            return
        if indices.size > 1 and not (indices[1:] > indices[:-1]).all():
            if np.unique(indices).size != indices.size:
                raise ValueError("duplicate state indices")
            low, high = indices.min(), indices.max()
        else:  # ascending: the ends bound the rest
            low, high = indices[0], indices[-1]
        if low < 0 or high >> width:
            outside = (indices < 0) | (indices >> width != 0)
            raise ValueError(f"bad state index {int(indices[outside.argmax()])} "
                             f"for width {width}")

    def _reject(self, mask: np.ndarray, message: str):
        at = int(mask.argmax())
        state = bitstrings(self.indices[at:at + 1], self.width)[0]
        raise ValueError(message.format(value=self.values[at].item(), state=state))

    @property
    def entries(self) -> Mapping[str, float]:
        return self._entries

    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) in ascending index order, which at a fixed width
        is sorted bitstring order."""
        indices = self.indices
        if indices.size < 2 or (indices[1:] > indices[:-1]).all():
            return indices, self.values
        order = np.argsort(indices)
        return indices[order], self.values[order]

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        if (self.width, self.kind, self.total_shots) != (
                other.width, other.kind, other.total_shots):
            return False
        mine, theirs = self.sorted_arrays(), other.sorted_arrays()
        return all(np.array_equal(a, b) for a, b in zip(mine, theirs))

    def __repr__(self) -> str:
        return (f"Distribution(width={self.width}, entries={self.entries!r}, "
                f"kind={self.kind!r}, total_shots={self.total_shots!r})")

    def validate(self, sum_tol: float = 1e-6) -> "Distribution":
        """Probability masses must sum to 1 within sum_tol."""
        if self.kind == PROBABILITY:
            total = self.total()
            if abs(total - 1.0) > sum_tol:
                raise ValueError(
                    f"probabilities sum to {total:.6f}, outside 1 +- {sum_tol}"
                )
        return self

    def total(self) -> float:
        """The values summed left to right in entry order."""
        return float(sum(self.values.tolist()))


def _listed(ints):
    """The ints of a column as a Python sequence, for the per-row path."""
    return ints.tolist() if isinstance(ints, np.ndarray) else ints


class _Bits(NamedTuple):
    """A column whose row i is the width-bit bitstring of indices[i], highest
    bit first; indices is an int array, or up to _FORMAT_EACH rows a list."""
    indices: np.ndarray
    width: int


class _Coded(NamedTuple):
    """A column whose row i is choices[codes[i]]; codes is an int array, or
    up to _FORMAT_EACH rows a sequence of ints."""
    choices: Sequence
    codes: np.ndarray


def _render_rows(parts: Sequence, count: int):
    """Yield the text of count rows, each the concatenation of parts in
    order, in chunks of _CHUNK_ROWS rows.  A part is a str, the same ASCII
    text in every row; a _Bits column; or a _Coded column whose choices are
    ASCII texts.  Up to _FORMAT_EACH rows are joined in Python.  Above that,
    each chunk is laid out as one uint8 block, one row of bytes per row: a
    _Bits column is filled from _bit_chars, a byte of index at a time, and a
    _Coded column by one take() of whole items from its choices as a NumPy
    bytes array, each text NUL-padded to the longest.  The padding bytes are
    dropped only when the texts differ in length, so no text may hold a
    NUL."""
    if count <= _FORMAT_EACH:  # below NumPy's fixed cost per call
        if count:
            yield "".join(chain.from_iterable(zip(*[
                repeat(part, count) if isinstance(part, str)
                else map(format, _listed(part.indices), repeat(f"0{part.width}b"))
                if isinstance(part, _Bits)
                else map(part.choices.__getitem__, _listed(part.codes))
                for part in parts])))
        return
    # one row of bytes with every column blank, and where each column goes
    texts, slots, ragged = [], [], False
    at = 0
    for part in parts:
        if isinstance(part, str):
            text = part
        elif isinstance(part, _Bits):
            text = "0" * part.width
            slots.append((at, at + part.width, part, None))
        else:
            table = np.array(part.choices, dtype=bytes)
            ragged |= min(map(len, part.choices)) < table.itemsize
            text = " " * table.itemsize
            slots.append((at, at + table.itemsize, part, table))
        texts.append(text)
        at += len(text)
    row = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
    for first in range(0, count, _CHUNK_ROWS):
        chunk = slice(first, first + _CHUNK_ROWS)
        block = np.repeat(row[None, :], min(_CHUNK_ROWS, count - first), axis=0)
        for start, end, part, table in slots:
            if table is None:
                block[:, start:end] = _bit_chars(part.indices[chunk], part.width)
            else:
                rows = table.take(part.codes[chunk])  # whole items, then bytes
                block[:, start:end] = rows.view(np.uint8).reshape(-1, end - start)
        text = block.tobytes()
        yield (text.replace(b"\0", b"") if ragged else text).decode("ascii")


def render_entries(dist: Distribution, head: str, mid: str, tail: str):
    """Yield the text of every entry as head + bitstring + mid + value + tail,
    in ascending index (= sorted bitstring) order, in chunks of _CHUNK_ROWS
    entries, through _render_rows; head, mid and tail must be ASCII without
    NUL.  Values are spelled as json.dumps spells them: repr() for
    probabilities, the integer for counts.  Above _FORMAT_EACH entries each
    distinct value (by bit pattern) is spelled once."""
    spell = repr if dist.kind == PROBABILITY else (lambda v: str(int(v)))
    if dist.indices.size <= _FORMAT_EACH:  # below NumPy's fixed cost per call
        pairs = sorted(zip(dist.indices.tolist(), dist.values.tolist()))
        indices = [i for i, _ in pairs]
        choices, codes = [spell(v) for _, v in pairs], range(len(pairs))
    else:
        indices, values = dist.sorted_arrays()
        patterns, codes = np.unique(values.view(np.int64), return_inverse=True)
        choices = [spell(v) for v in patterns.view(np.float64).tolist()]
    return _render_rows([head, _Bits(indices, dist.width), mid,
                         _Coded(choices, codes), tail], len(indices))


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
            width = len(state)  # the Distribution checks every state against it
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


def parse_distribution_csv(stream, where: str, column: str = "auto") -> Distribution:
    """The distribution in a CSV text stream opened with newline=""; where
    names the stream in error messages."""
    try:
        rows = list(csv.reader(stream))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ValueError(f"{where}: {exc}") from exc
    return _parse_rows(rows, column, where).validate()


def read_distribution_csv(path, column: str = "auto") -> Distribution:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_distribution_csv(fh, str(path), column)


def write_counts_csv(dist: Distribution, path) -> None:
    if dist.kind != COUNTS:
        raise ValueError("counts CSV requires a counts distribution")
    _write_text(path, chain(("state,counts\n",), render_entries(dist, "", ",", "\n")),
                newline="")


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
