"""Reference validator for `circuit.Gate`.

`reference_gate` is the check-by-check validation `Gate.__post_init__` made
before it became one table-driven pass, kept verbatim apart from taking the
fields as arguments and returning what it would store.  It reads the fields
as tuples: for a list or scalar field it fails with the TypeError the old
code raised, so the property test only draws tuple fields.
"""

import math
import numbers

from liarsim.circuit import NEGATED, POSITIVE, _is_int

# kind -> (number of controls, number of targets)
ARITY = {
    "H": (0, 1),
    "X": (0, 1),
    "P": (0, 1),
    "CNOT": (1, 1),
    "CP": (1, 1),
    "CCX": (2, 1),
}
_ANGLED = ("P", "CP")


def reference_gate(kind, targets, controls=(), polarities=(), angle=None):
    """The (kind, targets, controls, polarities, angle) a Gate of these
    fields stores, or the ValueError its validation raises."""
    if not isinstance(kind, str) or kind not in ARITY:
        raise ValueError(f"unknown gate kind {kind!r}")
    n_ctrl, n_tgt = ARITY[kind]
    if len(controls) != n_ctrl or len(targets) != n_tgt:
        raise ValueError(
            f"{kind} takes {n_ctrl} control(s) and {n_tgt} target(s), "
            f"got {len(controls)}/{len(targets)}"
        )
    if len(polarities) != len(controls):
        raise ValueError("exactly one polarity per control is required")
    for pol in polarities:
        if pol not in (POSITIVE, NEGATED):
            raise ValueError(f"bad control polarity {pol!r}")
    qubits = controls + targets
    if not all(type(q) is int for q in qubits):
        if not all(_is_int(q) for q in qubits):
            raise ValueError(f"qubit indices must be nonnegative integers, got {qubits}")
        targets = tuple(int(q) for q in targets)
        controls = tuple(int(q) for q in controls)
    if min(qubits) < 0:
        raise ValueError(f"qubit indices must be nonnegative integers, got {qubits}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit index in {kind} gate: {qubits}")
    has_angle = angle is not None
    if has_angle != (kind in _ANGLED):
        raise ValueError(f"angle is required for {_ANGLED} and forbidden otherwise")
    if has_angle and (isinstance(angle, bool)
                      or not isinstance(angle, numbers.Real)):
        raise ValueError(f"gate angle must be a real number, got {angle!r}")
    if has_angle:
        try:
            finite = math.isfinite(angle)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError("gate angle must be finite")
        if type(angle) not in (int, float):
            angle = float(angle)
    return kind, targets, controls, polarities, angle
