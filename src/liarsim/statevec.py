"""Statevector simulation: a dense kernel, and a support run for sparse states.

Amplitudes live in a flat complex128 array of length 2**n.  Qubit k is bit k
of the array index; canonical bitstrings therefore read q_{n-1} ... q_0 from
left to right.  A gate reshapes the flat array, without copying it, into one
length-2 axis per touched qubit with the untouched qubits merged into runs
between them, then acts in place on basic-slice views of that shape; no
2**n x 2**n matrix is ever materialized here.  Outcome distributions are
built straight from the index and value arrays; no bitstring is rendered.

X, CNOT, CCX, P and CP each map a basis state to one basis state times a
phase, so an H is the only gate that can grow the set of nonzero amplitudes,
and it at most doubles it.  From |0...0> on a wide register run_circuit keeps
only that support (int64 indices and their amplitudes) until an H could take
it past 2**n >> _SPARSE_HEADROOM states; it then scatters the support into the
dense array and runs the remaining gates on the dense kernel.  On the
support a monomial gate selects the rows where it fires with one
(index & mask) == want compare, its controls' bits folded into two ints.  The
XORs permute the support, so it is held in no particular order during a run
and sorted once when a run ends on it.  The support run's arithmetic is the
dense kernel's, in the same order, so both give equal amplitudes.

Every run starts from |0...0>.  A run that ends on the support returns a
support-held StateVector, which builds the dense array only when .amplitudes
is read.  probabilities() and sample_counts() read the support alone and
allocate nothing of size 2**n.
Their normalization is the total a dense state's sum() would give, to the
bit: _dense_order_total adds the support's |amplitude|**2 values in NumPy's
pairwise order, where the zeros off the support drop out exactly.  NumPy's
multinomial draws nothing for a category of p = 0 and gives the last
category what the others leave, so a draw over the support closed by the last
basis index, 2**n - 1, makes exactly the dense draw.  The support's weights
(its |amplitude|**2 values) and their total are computed once, on the first
read, and shared by both readers; they are dropped with the support when
.amplitudes is read.
"""

from __future__ import annotations

import numpy as np

from .circuit import NEGATED, Circuit, Gate, _is_int
from .dist import COUNTS, PROBABILITY, Distribution

MAX_QUBITS = 24
MAX_SHOTS = 2**31 - 1  # the largest count a 32-bit C long holds
DEFAULT_SEED = 1234

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# The support run holds at most 2**n >> _SPARSE_HEADROOM states.  The bound
# is the measured crossover, on 50-gate circuits with the H gates first (the
# support's worst case), 2-core x86 host: at 12 qubits the support run takes
# 0.84x the dense time with a 2**(n-3) support and 1.00x with 2**(n-2); at 11
# qubits it saves at most 10%, at 10 qubits nothing.  The qubit floor also
# keeps off the support run the circuits whose P or CP spans the whole
# register, the one case where the dense kernel's in-place phase multiply
# rounds differently (see _monomial_step).
_SPARSE_MIN_QUBITS = 12
_SPARSE_HEADROOM = 3


class StateVector:
    """A state on num_qubits qubits, held either as the dense amplitude array
    or as its support: int64 basis indices in ascending order and their
    amplitudes, every other amplitude 0.  Reading .amplitudes scatters a
    support into the dense array once; the state is dense from then on.  A
    support's Born weights are computed once, by _born, and dropped with the
    support."""

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None,
                 *, support: tuple[np.ndarray, np.ndarray] | None = None):
        if (amplitudes is None) == (support is None):
            raise ValueError("pass either amplitudes or support")
        self.num_qubits = num_qubits
        self._dense = amplitudes
        self._support = support
        self._weights = None

    @property
    def amplitudes(self) -> np.ndarray:
        if self._dense is None:
            self._dense = _scatter(*self._support, self.num_qubits)
            self._support = self._weights = None
        return self._dense


def _scatter(index: np.ndarray, values: np.ndarray, num_qubits: int) -> np.ndarray:
    """The 2**n array that holds values at index and 0 everywhere else."""
    full = np.zeros(1 << num_qubits, dtype=values.dtype)
    full[index] = values
    return full


def _check_size(num_qubits: int) -> int:
    if not (_is_int(num_qubits) and 1 <= num_qubits <= MAX_QUBITS):
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits!r}")
    return int(num_qubits)


def init_zero(num_qubits: int) -> StateVector:
    """|0...0> on the given register size."""
    num_qubits = _check_size(num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def basis_state(index: int, num_qubits: int) -> StateVector:
    num_qubits = _check_size(num_qubits)
    if not (_is_int(index) and 0 <= index < (1 << num_qubits)):
        raise ValueError(f"basis index {index!r} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


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


def _check_fits(gates, num_qubits: int) -> None:
    """ValueError naming the first of gates that touches a qubit a state of
    num_qubits does not have."""
    for gate in gates:
        if max(gate.qubits) >= num_qubits:
            raise ValueError(
                f"{gate.kind} touches qubit {max(gate.qubits)} but the state has "
                f"{num_qubits} qubits"
            )


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the same StateVector."""
    _check_fits((gate,), state.num_qubits)
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


def _monomial_step(gate: Gate, index: np.ndarray, amps: np.ndarray) -> None:
    """Apply an X, CNOT, CCX, P or CP gate in place to the basis states in
    the int64 array index, whose amplitudes are amps.  The controls become
    one bit mask and the bits it must read (1, or 0 when negated), so the
    rows where the gate fires are one (index & mask) == want compare: X-type
    gates XOR the target bit into those indices and never read amps, P-type
    gates fold the target bit into mask and want and multiply those
    amplitudes."""
    mask = want = 0
    for q, pol in zip(gate.controls, gate.polarities):
        mask |= 1 << q
        if pol != NEGATED:
            want |= 1 << q
    bit = 1 << gate.targets[0]
    if gate.kind in ("P", "CP"):
        hit = (index & (mask | bit)) == (want | bit)
        # Out of place on purpose: NumPy's in-place complex multiply rounds a
        # one-element array differently from longer ones, while the dense
        # kernel multiplies views of two or more elements (n > gate width).
        amps[hit] = amps[hit] * np.exp(1j * gate.angle)
    elif mask:
        np.bitwise_xor(index, bit, out=index, where=(index & mask) == want)
    else:
        index ^= bit


def _sparse_h(target: int, index: np.ndarray, amps: np.ndarray):
    """H on a support: each index meets its partner across the target bit (a
    partner outside the support holds 0) and the pair is combined by the
    dense kernel's own steps, in one output array whose first half holds the
    pairs' lower states and second half their upper ones.  Returns the new
    indices and amplitudes, at most twice as many."""
    bit = 1 << target
    keys, slot = np.unique(index & ~bit, return_inverse=True)
    upper = (index & bit) != 0
    out = np.zeros(2 * keys.size, dtype=np.complex128)
    lo, hi = out[:keys.size], out[keys.size:]
    lo[slot[~upper]] = amps[~upper]
    hi[slot[upper]] = amps[upper]
    plus = lo + hi
    np.subtract(lo, hi, out=hi)
    hi *= _INV_SQRT2
    np.multiply(plus, _INV_SQRT2, out=lo)
    return np.concatenate((keys, keys | bit)), out


def _run_support(circuit: Circuit, index: np.ndarray, amps: np.ndarray,
                 limit: float = np.inf):
    """Push the basis states in the int64 array index, whose amplitudes are
    amps, through the circuit: H by _sparse_h, every other gate by
    _monomial_step.  Stops before an H that could take the support past limit
    states.  Works in place where the gates allow; returns the indices,
    amplitudes and the number of gates run.  Every gate is checked against
    the register before the first runs."""
    _check_fits(circuit.gates, circuit.num_qubits)
    for done, gate in enumerate(circuit.gates):
        if gate.kind == "H":
            if 2 * index.size > limit:
                return index, amps, done
            index, amps = _sparse_h(gate.targets[0], index, amps)
        else:
            _monomial_step(gate, index, amps)
    return index, amps, len(circuit.gates)


def apply_pauli(state: StateVector, pauli: str, qubit: int) -> StateVector:
    """In-place X, Y, or Z on one qubit.  Used by the noise channel; Pauli Y
    and Z are not part of the circuit gate set."""
    if not (_is_int(qubit) and 0 <= qubit < state.num_qubits):
        raise ValueError(f"qubit {qubit!r} out of range")
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


def run_circuit(circuit: Circuit) -> StateVector:
    """Apply the circuit's gates in listed order to |0...0>: on the support
    while it stays small, returning a support-held state when the whole
    circuit ran there, and on the dense kernel from then on."""
    n = _check_size(circuit.num_qubits)
    gates = circuit.gates
    if n < _SPARSE_MIN_QUBITS:
        state = init_zero(n)
    else:
        index, amps, done = _run_support(
            circuit, np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128),
            (1 << n) >> _SPARSE_HEADROOM)
        if done == len(gates):
            order = np.argsort(index)
            return StateVector(n, support=(index[order], amps[order]))
        state = StateVector(n, _scatter(index, amps, n))
        gates = gates[done:]
    for gate in gates:
        apply_gate(state, gate)
    return state


def _dense_order_total(index: np.ndarray, probs: np.ndarray, num_qubits: int) -> float:
    """The sum() of the 2**n float64 array that holds the non-negative probs
    at the ascending int64 index and 0 elsewhere, to the bit, without that
    array.

    NumPy sums a contiguous array pairwise: fewer than 8 values one by one
    from 0.0; otherwise blocks of 128 values, halved up a binary tree, each
    block in 8 lanes (lane j adds values j, j+8, j+16, ... in order) combined
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)).  Adding +0.0 to a non-negative
    double is exact, so the zeros off the support drop out: each lane is the
    in-order sum of its support values, which bincount adds in input order,
    and the lanes laid out block by block form one balanced tree.
    """
    shift = 3 if num_qubits >= 3 else 0  # under 8 values: one lane
    lanes = np.bincount((index >> 7 << shift) | (index & ((1 << shift) - 1)),
                        weights=probs,
                        minlength=max(1, (1 << num_qubits) >> 7) << shift)
    while lanes.size > 1:
        lanes = lanes[0::2] + lanes[1::2]
    return float(lanes[0])


def _born(state: StateVector):
    """Born-rule probabilities of the state: the support's indices (None for a
    dense state, which lists every index), their |amplitude|**2, and the total
    of those over all 2**n outcomes.  A support-held state's total comes from
    its support alone and equals a dense state's total to the bit.  A dense
    state's weights are a new array on each call; a support-held state's are
    computed on the first call and held, read-only, with their total, so
    probabilities() and sample_counts() share them."""
    if state._support is None:
        probs = np.abs(state.amplitudes) ** 2
        return None, probs, float(probs.sum())
    index, values = state._support
    if state._weights is None:
        probs = np.abs(values) ** 2
        probs.flags.writeable = False
        state._weights = probs, _dense_order_total(index, probs, state.num_qubits)
    return index, *state._weights


def probabilities(state: StateVector) -> Distribution:
    """Born-rule outcome distribution; entries below 1e-12 are omitted.

    The norm is checked on the full array first, so a state spread thinly
    over many outcomes is not rejected for the mass its dropped entries held.
    """
    index, probs, total = _born(state)
    if not abs(total - 1.0) <= 1e-9:  # written so that a NaN total fails too
        raise ValueError(f"probabilities sum to {total:.6f}, outside 1 +- 1e-09")
    kept = np.flatnonzero(probs >= 1e-12)
    return Distribution(state.num_qubits, None, PROBABILITY,
                        indices=kept if index is None else index[kept],
                        values=probs[kept])


def _sampling_table(state: StateVector):
    """The state's outcome categories for a draw: their basis indices (None
    when they are all 2**n indices in order) and their probabilities, _born's
    normalized by its total, the dense state's to the bit.  A support-held
    state's support is closed by index 2**n - 1, with probability 0.0, when
    it lacks it, so a draw whose dense outcome falls past the support lands
    on the index the dense draw gives."""
    index, probs, total = _born(state)
    if index is None:
        probs /= total  # a dense state's weights are this call's own
        return None, probs
    probs = probs / total  # a support's weights are shared
    last = (1 << state.num_qubits) - 1
    if index[-1] != last:
        index, probs = np.append(index, last), np.append(probs, 0.0)
    return index, probs


def sample_counts(state: StateVector, shots: int, seed: int) -> Distribution:
    """Multinomial sample of measurement outcomes.  The same seed always
    yields the same counts.

    A support-held state is drawn over its support, as _sampling_table closes
    it.  Categories of p = 0 take no draw and the last one takes the
    remainder, so the counts are those of the dense draw over all 2**n
    outcomes, and no array of 2**n is built.
    """
    if not (_is_int(shots) and 1 <= shots <= MAX_SHOTS):
        raise ValueError(f"shots must be in 1..{MAX_SHOTS}, got {shots!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    index, probs = _sampling_table(state)
    counts = rng.multinomial(shots, probs)
    seen = np.flatnonzero(counts)
    return Distribution(state.num_qubits, None, COUNTS, shots,
                        indices=seen if index is None else index[seen],
                        values=counts[seen])
