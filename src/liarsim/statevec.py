"""Dense statevector simulation.

Amplitudes live in a flat complex128 array of length 2**n.  Qubit k is bit k
of the array index; canonical bitstrings therefore read q_{n-1} ... q_0 from
left to right.  A gate reshapes the flat array, without copying it, into one
length-2 axis per touched qubit with the untouched qubits merged into runs
between them, then acts in place on basic-slice views of that shape; no
2**n x 2**n matrix is ever materialized here.  Outcome keys are rendered as
bitstrings in one vectorized step, and only for outcomes that are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, NEGATED
from .dist import COUNTS, PROBABILITY, Distribution

MAX_QUBITS = 24
MAX_SHOTS = 2**31 - 1  # the largest count a 32-bit C long holds
DEFAULT_SEED = 1234

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())


def init_zero(num_qubits: int) -> StateVector:
    """|0...0> on the given register size."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def basis_state(index: int, num_qubits: int) -> StateVector:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def state_norm(state: StateVector) -> float:
    return float(np.linalg.norm(state.amplitudes))


def bitstring(index: int, width: int) -> str:
    """Canonical rendering: highest qubit index leftmost."""
    return format(index, f"0{width}b")


def bit_of(bits: str, qubit: int) -> int:
    """Value of the given qubit in a canonical bitstring."""
    return 1 if bits[len(bits) - 1 - qubit] == "1" else 0


def bitstrings(indices: np.ndarray, width: int) -> list[str]:
    """bitstring() of every index in the array, rendered in one NumPy pass."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    chars = np.asarray(indices, dtype=np.uint32)[:, None] >> shifts
    chars &= 1
    chars += ord("0")
    return chars.view(f"U{width}").ravel().tolist()


def _branches(amps: np.ndarray, num_qubits: int, qubits: tuple[int, ...]):
    """Return pick(*bits): the view of amps where qubits[i] == bits[i].

    The flat array is reshaped to at most 2k+1 axes for k qubits: a length-2
    axis per listed qubit and, between them, one axis per run of other
    qubits.  Picks are basic slices, so writes go through to amps.
    """
    shape = []
    axis = {}
    above = num_qubits
    for q in sorted(qubits, reverse=True):  # highest qubit is the outermost axis
        shape += [1 << (above - 1 - q), 2]
        axis[q] = len(shape) - 1
        above = q
    shape.append(1 << above)
    tensor = amps.reshape(shape)

    def pick(*bits):
        index = [slice(None)] * len(shape)
        for q, b in zip(qubits, bits):
            index[axis[q]] = b
        return tensor[tuple(index)]

    return pick


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the same StateVector."""
    if max(gate.qubits) >= state.num_qubits:
        raise ValueError(
            f"{gate.kind} touches qubit {max(gate.qubits)} but the state has "
            f"{state.num_qubits} qubits"
        )
    pick = _branches(state.amplitudes, state.num_qubits, gate.qubits)
    # controls come first in gate.qubits, so select their active branch
    sel = tuple(0 if pol == NEGATED else 1 for pol in gate.polarities)
    kind = gate.kind

    if kind == "H":
        lo, hi = pick(0), pick(1)
        plus = lo + hi
        np.subtract(lo, hi, out=hi)
        hi *= _INV_SQRT2
        np.multiply(plus, _INV_SQRT2, out=lo)
    elif kind in ("X", "CNOT", "CCX"):
        lo, hi = pick(*sel, 0), pick(*sel, 1)
        tmp = lo.copy()
        lo[...] = hi
        hi[...] = tmp
    elif kind in ("P", "CP"):
        phased = pick(*sel, 1)
        phased *= np.exp(1j * gate.angle)
    else:  # unreachable: Gate validates its kind
        raise ValueError(f"unknown gate kind {kind!r}")
    return state


def apply_pauli(state: StateVector, pauli: str, qubit: int) -> StateVector:
    """In-place X, Y, or Z on one qubit.  Used by the noise channel; Pauli Y
    and Z are not part of the circuit gate set."""
    if qubit >= state.num_qubits or qubit < 0:
        raise ValueError(f"qubit {qubit} out of range")
    pick = _branches(state.amplitudes, state.num_qubits, (qubit,))
    lo, hi = pick(0), pick(1)
    if pauli == "X":
        tmp = lo.copy()
        lo[...] = hi
        hi[...] = tmp
    elif pauli == "Y":
        tmp = lo.copy()
        np.multiply(-1j, hi, out=lo)
        np.multiply(1j, tmp, out=hi)
    elif pauli == "Z":
        np.negative(hi, out=hi)
    else:
        raise ValueError(f"unknown Pauli {pauli!r}")
    return state


def run_circuit(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit's gates in listed order.

    Starts from |0...0> when no initial state is given; a supplied initial
    state is copied, never mutated.
    """
    if initial is None:
        state = init_zero(circuit.num_qubits)
    else:
        if initial.num_qubits != circuit.num_qubits:
            raise ValueError(
                f"circuit has {circuit.num_qubits} qubits, state has {initial.num_qubits}"
            )
        state = initial.copy()
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


def probabilities(state: StateVector, drop_below: float = 1e-12) -> Distribution:
    """Born-rule outcome distribution; entries below drop_below are omitted.

    The norm is checked on the full array first, so a state spread thinly
    over many outcomes is not rejected for the mass its dropped entries held.
    """
    probs = np.abs(state.amplitudes) ** 2
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total:.6f}, outside 1 +- 1e-09")
    kept = np.flatnonzero(probs >= drop_below)
    entries = dict(zip(bitstrings(kept, state.num_qubits), probs[kept].tolist()))
    return Distribution(width=state.num_qubits, entries=entries, kind=PROBABILITY)


def z_expectation(state: StateVector, qubit: int) -> float:
    """<Z> on one qubit: P(bit=0) - P(bit=1)."""
    if qubit >= state.num_qubits or qubit < 0:
        raise ValueError(f"qubit {qubit} out of range")
    probs = np.abs(state.amplitudes) ** 2
    p1 = float(_branches(probs, state.num_qubits, (qubit,))(1).sum())
    return 1.0 - 2.0 * p1


def sample_counts(state: StateVector, shots: int, seed: int) -> Distribution:
    """Multinomial sample of measurement outcomes.  The same seed always
    yields the same counts."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in 1..{MAX_SHOTS}, got {shots}")
    rng = np.random.default_rng(seed)
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    seen = np.flatnonzero(counts)
    entries = dict(zip(bitstrings(seen, state.num_qubits),
                       counts[seen].astype(np.float64).tolist()))
    return Distribution(width=state.num_qubits, entries=entries,
                        kind=COUNTS, total_shots=shots)
