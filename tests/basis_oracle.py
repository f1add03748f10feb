"""Scalar oracles for the flag circuits and the classical rule.

The circuit oracles run one basis state at a time through
`statevec.apply_gate`, a route that shares no code with the support run
`statevec._run_support` that `logic_ops._flag_map` calls;
`reference_rule` evaluates the classical rule one assignment at a time in
plain Python, sharing no code with the bitmask core `logic_ops._rule`.  The
exhaustive rule-vs-circuit tests therefore do not depend on the vectorized
paths they are meant to check.
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


def circuit_flag_on_basis(circuit, c_bits, r_bits, flag_in, layout) -> int:
    """Flag bit after running the circuit on a basis input (ancillas at 0)."""
    n = circuit.num_qubits
    index = flag_in << layout.flag
    for q, b in zip(layout.contradictions, c_bits):
        index |= b << q
    for q, b in zip(layout.resolutions, r_bits):
        index |= b << q
    state = statevec.basis_state(index, n)
    for gate in circuit.gates:
        statevec.apply_gate(state, gate)
    out = int(np.argmax(np.abs(state.amplitudes)))
    if abs(abs(state.amplitudes[out]) - 1.0) > 1e-12:
        raise AssertionError("basis input did not map to a basis output")
    return (out >> layout.flag) & 1
