"""Exact density-matrix model of the noise channel, for circuits of n <= 10.

After every gate, with the gate's class rate p, one of its k qubits (uniform)
receives one of X, Y, Z (uniform):

    rho -> (1 - p) rho + p / (3 k) * sum_q sum_P  P_q rho P_q^dagger

Each readout bit then flips independently with probability p_readout, which
acts on the diagonal of rho as the Kronecker product of n copies of
[[1 - r, r], [r, 1 - r]].  Gates and Paulis are built here as dense matrices
from index arithmetic, sharing no code with `statevec` or the Monte Carlo
sampler, so the sampler is checked against an independent route.
"""

import numpy as np

from liarsim.circuit import NEGATED
from liarsim.dist import PROBABILITY, Distribution

MAX_ORACLE_QUBITS = 10

_PAULIS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def _bit(index: np.ndarray, qubit: int) -> np.ndarray:
    return (index >> qubit) & 1


def single_qubit_matrix(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """The 2**n x 2**n matrix of a 2x2 operator on one qubit."""
    idx = np.arange(1 << n)
    row, col = np.meshgrid(idx, idx, indexing="ij")
    same_elsewhere = (row ^ col) & ~(1 << qubit) == 0
    return np.where(same_elsewhere, op[_bit(row, qubit), _bit(col, qubit)], 0)


def pauli_matrix(pauli: str, qubit: int, n: int) -> np.ndarray:
    """The 2**n x 2**n matrix of Pauli X, Y or Z on one qubit."""
    return single_qubit_matrix(_PAULIS[pauli], qubit, n)


def gate_matrix(gate, n: int) -> np.ndarray:
    """Dense unitary of one circuit gate on n qubits."""
    if gate.kind == "H":
        return single_qubit_matrix(_H, gate.targets[0], n)
    idx = np.arange(1 << n)
    active = np.ones(1 << n, dtype=bool)
    for control, polarity in zip(gate.controls, gate.polarities):
        want = 0 if polarity == NEGATED else 1
        active &= _bit(idx, control) == want
    target = gate.targets[0]
    if gate.kind in ("X", "CNOT", "CCX"):
        out = np.where(active, idx ^ (1 << target), idx)
        matrix = np.zeros((1 << n, 1 << n), dtype=complex)
        matrix[out, idx] = 1.0
        return matrix
    # P and CP: a phase where the controls are active and the target is 1
    fire = active & (_bit(idx, target) == 1)
    return np.diag(np.where(fire, np.exp(1j * gate.angle), 1.0))


def readout_matrix(n: int, p_readout: float) -> np.ndarray:
    """Confusion matrix M[observed, true] for independent bit flips."""
    block = np.array([[1 - p_readout, p_readout], [p_readout, 1 - p_readout]])
    matrix = np.ones((1, 1))
    for _ in range(n):
        matrix = np.kron(matrix, block)
    return matrix


def noisy_probabilities(circuit, profile) -> np.ndarray:
    """Exact outcome probabilities under the profile, indexed by basis index."""
    n = circuit.num_qubits
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(f"oracle holds at most {MAX_ORACLE_QUBITS} qubits, got {n}")
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = gate_matrix(gate, n)
        rho = u @ rho @ u.conj().T
        rate = profile.p_1q if len(gate.qubits) == 1 else profile.p_2q
        if rate == 0.0:
            continue
        kicked = np.zeros_like(rho)
        for qubit in gate.qubits:
            for pauli in _PAULIS:
                op = pauli_matrix(pauli, qubit, n)
                kicked += op @ rho @ op.conj().T
        rho = (1 - rate) * rho + rate / (3 * len(gate.qubits)) * kicked
    return readout_matrix(n, profile.p_readout) @ np.real(np.diag(rho))


def noisy_distribution(circuit, profile) -> Distribution:
    probs = noisy_probabilities(circuit, profile)
    n = circuit.num_qubits
    return Distribution(width=n, kind=PROBABILITY,
                        entries={format(i, f"0{n}b"): float(v)
                                 for i, v in enumerate(probs) if v > 0.0})
