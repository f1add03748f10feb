"""Scalar oracles for the flag circuits and the classical rule, and the
dense operator oracle.

The circuit oracles run one basis state at a time through
`statevec.apply_gate`, a route that shares no code with the support run
`statevec._run_support` that `logic_ops._flag_map` calls;
`reference_rule` evaluates the classical rule one assignment at a time in
plain Python, sharing no code with the bitmask core `logic_ops._rule`.  The
exhaustive rule-vs-circuit tests therefore do not depend on the vectorized
paths they are meant to check.  The dense predicates and constructions
(is_projector, reflection, projector_exponential, ...) act on 4**m x 4**m
matrices by matrix products, where the verification suite checks the same
laws elementwise on diagonals.
"""

import numpy as np

from liarsim import statevec
from liarsim.logic_ops import (FULLY_CONSISTENT, FULLY_INCONSISTENT,
                               INCONSISTENCY_DETECTED, LOCALLY_RESOLVED,
                               RuleResult)

MAX_UNITARY_QUBITS = 10


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of a small circuit, built column by column through the
    statevector engine (an independent route from any matrix algebra)."""
    if circuit.num_qubits > MAX_UNITARY_QUBITS:
        raise ValueError(
            f"circuit_unitary capped at {MAX_UNITARY_QUBITS} qubits, "
            f"got {circuit.num_qubits}"
        )
    dim = 1 << circuit.num_qubits
    unitary = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        state = statevec.basis_state(col, circuit.num_qubits)
        for gate in circuit.gates:
            statevec.apply_gate(state, gate)
        unitary[:, col] = state.amplitudes
    return unitary


def reference_rule(c, r, flag_in) -> RuleResult:
    """Classical coherence rule on one 0/1 assignment (tuples c and r of equal
    length): the flag flips iff some pair has c = 1 and r = 0."""
    violated = tuple(i for i, (ci, ri) in enumerate(zip(c, r)) if ci == 1 and ri == 0)
    flag_out = flag_in ^ (1 if violated else 0)

    active = sum(c)
    if active == 0:
        label = FULLY_CONSISTENT
    elif not violated:
        label = LOCALLY_RESOLVED
    elif len(violated) == len(c) and len(c) >= 2:
        label = FULLY_INCONSISTENT
    else:
        label = INCONSISTENCY_DETECTED
    return RuleResult(flag_out, label, violated)


def circuit_flag_on_basis(circuit, c_bits, r_bits, flag_in) -> int:
    """Flag bit after running a build_general circuit on a basis input
    (ancillas at 0): contradiction i on qubit i, resolution i on m + i and
    the flag on 2m."""
    n = circuit.num_qubits
    m = len(c_bits)
    flag = 2 * m
    index = flag_in << flag
    for i, (c, r) in enumerate(zip(c_bits, r_bits)):
        index |= c << i | r << (m + i)
    state = statevec.basis_state(index, n)
    for gate in circuit.gates:
        statevec.apply_gate(state, gate)
    out = int(np.argmax(np.abs(state.amplitudes)))
    if abs(abs(state.amplitudes[out]) - 1.0) > 1e-12:
        raise AssertionError("basis input did not map to a basis output")
    return (out >> flag) & 1


def is_hermitian(op: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.abs(op - op.conj().T).max() <= tol)


def is_unitary(op: np.ndarray, tol: float = 1e-12) -> bool:
    eye = np.eye(op.shape[0])
    return bool(np.abs(op @ op.conj().T - eye).max() <= tol)


def is_projector(op: np.ndarray, tol: float = 1e-12) -> bool:
    return is_hermitian(op, tol) and bool(np.abs(op @ op - op).max() <= tol)


def reflection(projector: np.ndarray) -> np.ndarray:
    """2P - I, the reflection through the image of P."""
    if projector.shape[0] != projector.shape[1]:
        raise ValueError("projector must be square")
    if not is_projector(projector):
        raise ValueError("reflection requires a projector (hermitian, idempotent)")
    return 2.0 * projector - np.eye(projector.shape[0])


def projector_exponential(projector: np.ndarray, theta: float) -> np.ndarray:
    """Closed form e^{-i*theta*P} = I + (e^{-i*theta} - 1) P for projectors."""
    if not is_projector(projector):
        raise ValueError("projector_exponential requires a projector")
    eye = np.eye(projector.shape[0])
    return eye + (np.exp(-1j * theta) - 1.0) * projector
