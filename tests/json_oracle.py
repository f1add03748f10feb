"""The reference encoder that cli._render is held to.

A report's canonical text is json.dumps(report, indent=2, sort_keys=True):
_indented renders a value that way through the C encoder, with inf and nan
spelled as strings and the report's own types (NumPy scalars, Distribution,
cli._Table, dist._Bits) spelled as the JSON values they stand for.
"""

import json
import math

import numpy as np

from liarsim.cli import _Table
from liarsim.dist import COUNTS, Distribution, _Bits, bitstrings


def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, Distribution):  # as rendered: counts are integers
        if value.kind == COUNTS:
            return {k: int(v) for k, v in value.entries.items()}
        return dict(value.entries.items())
    if isinstance(value, _Table):
        return _strict_numbers(value.rows())
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _strict_numbers(value):
    """Strict JSON has no Infinity/NaN literals; encode them as strings so the
    reports stay parseable outside Python (the chi-squared statistic is inf
    whenever observed counts land on an outcome the ideal forbids).  A
    dist._Bits, a tuple that json.dumps would encode as its two fields,
    becomes the list of bitstrings it stands for."""
    if isinstance(value, _Bits):
        return bitstrings(value.indices, value.width)
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "inf" if float(value) > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _strict_numbers(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_numbers(v) for v in value]
    return value


def _indented(value, pad: str) -> str:
    """The reference rendering of value, for a line that starts with pad."""
    text = json.dumps(_strict_numbers(value), indent=2, sort_keys=True,
                      allow_nan=False, default=_json_default)
    return text.replace("\n", "\n" + pad)  # JSON strings hold no raw newline


def reference_json(payload) -> str:
    """cli.canonical_json(payload) as the reference encoder spells it."""
    return _indented(payload, "") + "\n"
