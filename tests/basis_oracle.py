"""Statevector oracle for flag circuits on basis inputs.

Runs one basis state at a time through `statevec.apply_gate`, a route that
shares no code with `logic_ops.basis_map`, so the exhaustive rule-vs-circuit
tests do not depend on the vectorized path they are meant to check.
"""

import numpy as np

from liarsim import statevec


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
