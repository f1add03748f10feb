"""The per-signature noise sampler, as the reference for the frame path.

This is noisy_sample as it was before faulty shots of H-free circuits were
pushed through the gates as basis-index frames: the ideal state is read
dense, and every faulty shot is grouped by its fault signature (gate index,
qubit, Pauli), simulated once per signature on the dense kernel, and drawn
from that state's cumulative distribution.  It reads the same Philox blocks,
so on any circuit its counts must equal the sampler's.
"""

import numpy as np

from liarsim.dist import COUNTS, Distribution
from liarsim.statevec import apply_gate, apply_pauli, init_zero, run_circuit

_CHUNK_DRAWS = 1 << 16


def _draw_outcomes(cumulative, u):
    idx = np.searchsorted(cumulative, u, side="right")
    return np.minimum(idx, len(cumulative) - 1)


def _cumulative(state):
    probs = np.abs(state.amplitudes) ** 2
    return np.cumsum(probs / probs.sum())


def signature_sample(circuit, profile, shots, first_shot=0):
    n = circuit.num_qubits
    ideal = run_circuit(circuit)
    gates = list(circuit.gates)
    g = len(gates)
    block = -(-(3 * g + 1 + n) // 4) * 4
    outcome_col = 3 * g

    cum_ideal = _cumulative(ideal)
    gate_rates = np.array(
        [profile.p_1q if len(gt.qubits) == 1 else profile.p_2q for gt in gates]
    )
    arity = np.array([len(gt.qubits) for gt in gates])
    bit_weights = np.int64(1) << np.arange(n, dtype=np.int64)
    seed_seq = np.random.SeedSequence(profile.seed)

    seen, tallies = [], []
    chunk = max(1, _CHUNK_DRAWS // block)
    for start in range(first_shot, first_shot + shots, chunk):
        size = min(chunk, first_shot + shots - start)
        bitgen = np.random.Philox(seed_seq, counter=start * block // 4)
        u = np.random.Generator(bitgen).random((size, block))

        fault = u[:, :g] < gate_rates
        faulty = np.nonzero(fault.any(axis=1))[0]
        outcomes = _draw_outcomes(cum_ideal, u[:, outcome_col])
        if len(faulty):
            # code 0: no fault; else 1 + 3 * (index into gate.qubits) + Pauli
            qubit_slot = (u[faulty, g:2 * g] * arity).astype(np.int64)
            pauli = (u[faulty, 2 * g:3 * g] * 3).astype(np.int64)
            codes = np.where(fault[faulty], 1 + 3 * qubit_slot + pauli, 0)
            signatures, group = np.unique(codes, axis=0, return_inverse=True)
            group = group.reshape(-1)  # NumPy 2.0.0 returns it as a column
            for sid, signature in enumerate(signatures):
                state = init_zero(n)
                for gate, code in zip(gates, signature.tolist()):
                    apply_gate(state, gate)
                    if code:
                        slot, which = divmod(code - 1, 3)
                        apply_pauli(state, "XYZ"[which], gate.qubits[slot])
                rows = faulty[group == sid]
                outcomes[rows] = _draw_outcomes(_cumulative(state),
                                                u[rows, outcome_col])
        if profile.p_readout > 0.0:
            flips = u[:, outcome_col + 1:outcome_col + 1 + n] < profile.p_readout
            outcomes ^= flips @ bit_weights
        values, tally = np.unique(outcomes, return_counts=True)
        seen.append(values)
        tallies.append(tally)

    observed, slot = np.unique(np.concatenate(seen), return_inverse=True)
    counts = np.bincount(slot, weights=np.concatenate(tallies))
    return Distribution(n, None, COUNTS, shots, indices=observed, values=counts)
