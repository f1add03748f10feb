"""Simulator checks against an independent dense-matrix oracle.

The oracle builds each gate's full 2**n x 2**n matrix from basis-index bit
arithmetic alone, sharing no code with the reshape-view implementation.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liarsim import statevec
from liarsim.circuit import (NEGATED, POSITIVE, Circuit, Gate, ccx, cnot, cp,
                             h, p, save_circuit, x)
from liarsim.cli import main
from liarsim.dist import COUNTS, PROBABILITY, Distribution, bitstrings
from liarsim.statevec import (DEFAULT_SEED, MAX_QUBITS, MAX_SHOTS, apply_gate,
                              apply_pauli, basis_state, init_zero,
                              probabilities, run_circuit, sample_counts)

from metrics_oracle import bit_of
from noise_oracle import gate_matrix, pauli_matrix

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def bitstring(index: int, width: int) -> str:
    """The canonical rendering, one index at a time: highest qubit leftmost."""
    return format(index, f"0{width}b")


def dense_gate(gate: Gate, n: int) -> np.ndarray:
    """Full matrix for one gate, built column by column from bit tests."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        active = all(
            ((col >> c) & 1) == (0 if pol == NEGATED else 1)
            for c, pol in zip(gate.controls, gate.polarities)
        )
        t = gate.targets[0]
        if gate.kind == "H":
            flipped = col ^ (1 << t)
            sign = -1.0 if (col >> t) & 1 else 1.0
            mat[col, col] += sign * INV_SQRT2
            mat[flipped, col] += INV_SQRT2
        elif gate.kind in ("X", "CNOT", "CCX"):
            mat[col ^ (1 << t) if active else col, col] = 1.0
        elif gate.kind in ("P", "CP"):
            phased = active and ((col >> t) & 1)
            mat[col, col] = np.exp(1j * gate.angle) if phased else 1.0
        else:
            raise AssertionError(gate.kind)
    return mat


def random_gate(rng, n: int) -> Gate:
    kind = rng.choice(["H", "X", "P", "CNOT", "CP", "CCX"])
    qubits = [int(q) for q in rng.choice(n, size=3, replace=False)]
    pol = lambda: str(rng.choice(["positive", "negated"]))
    angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    if kind == "H":
        return h(qubits[0])
    if kind == "X":
        return x(qubits[0])
    if kind == "P":
        return p(angle, qubits[0])
    if kind == "CNOT":
        return cnot(qubits[0], qubits[1], pol())
    if kind == "CP":
        return cp(angle, qubits[0], qubits[1], pol())
    return ccx(qubits[0], qubits[1], qubits[2], pol(), pol())


def random_state(rng, n: int):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    state = init_zero(n)
    state.amplitudes[:] = amps
    return state


# ---------------------------------------------------------------------------
# construction and helpers

def test_init_zero():
    state = init_zero(3)
    assert state.num_qubits == 3
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_register_size_caps():
    with pytest.raises(ValueError):
        init_zero(0)
    with pytest.raises(ValueError):
        init_zero(MAX_QUBITS + 1)
    with pytest.raises(ValueError):
        basis_state(8, 3)
    with pytest.raises(ValueError):
        basis_state(-1, 3)


@pytest.mark.parametrize("sparse_min", [statevec._SPARSE_MIN_QUBITS, MAX_QUBITS + 2],
                         ids=["support", "dense"])
def test_run_circuit_checks_the_register_cap_before_any_work(sparse_min):
    circuit = Circuit(MAX_QUBITS + 1, [h(0), cnot(0, MAX_QUBITS)])
    with mock.patch.object(statevec, "_SPARSE_MIN_QUBITS", sparse_min), \
            mock.patch.object(statevec, "_run_support") as support, \
            mock.patch.object(statevec, "apply_gate") as kernel, \
            pytest.raises(ValueError, match=f"num_qubits must be in 1..{MAX_QUBITS}"):
        run_circuit(circuit)
    assert support.call_count == kernel.call_count == 0


def test_bitstring_highest_qubit_leftmost():
    # q0 = 1 is the rightmost character
    assert bitstrings(np.array([9, 1, 8]), 4) == ["1001", "0001", "1000"]


def test_bitstrings_match_bitstring():
    for width in (1, 2, 7, MAX_QUBITS):
        top = (1 << width) - 1
        indices = np.unique(np.array([0, 1, top // 3, top - 1, top]) & top)
        assert bitstrings(indices, width) == [bitstring(int(i), width)
                                              for i in indices]
    # past the size where the rendering switches to one NumPy pass
    indices = np.random.default_rng(3).choice(1 << MAX_QUBITS, 300, replace=False)
    assert bitstrings(indices, MAX_QUBITS) == [bitstring(int(i), MAX_QUBITS)
                                               for i in indices]
    assert bitstrings(np.array([], dtype=np.int64), 4) == []


def test_bit_of_matches_index_bits():
    rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        idx = int(rng.integers(0, 1 << n))
        s = bitstring(idx, n)
        for q in range(n):
            assert bit_of(s, q) == (idx >> q) & 1


# ---------------------------------------------------------------------------
# single gates against hand-computed results

def test_h_creates_superposition_on_the_addressed_bit():
    for n in (1, 3):
        for q in range(n):
            state = apply_gate(init_zero(n), h(q))
            assert state.amplitudes[0] == pytest.approx(INV_SQRT2)
            assert state.amplitudes[1 << q] == pytest.approx(INV_SQRT2)


def test_x_flips_the_addressed_bit():
    state = apply_gate(init_zero(4), x(2))
    assert state.amplitudes[4] == 1.0


def test_cnot_polarities():
    # positive control at 0: |0001> -> target 1 flips
    state = apply_gate(basis_state(1, 2), cnot(0, 1))
    assert state.amplitudes[3] == 1.0
    # negated control fires on |0>
    state = apply_gate(init_zero(2), cnot(0, 1, NEGATED))
    assert state.amplitudes[2] == 1.0
    state = apply_gate(basis_state(1, 2), cnot(0, 1, NEGATED))
    assert state.amplitudes[1] == 1.0


def test_ccx_needs_both_controls_active():
    state = apply_gate(basis_state(0b011, 3), ccx(0, 1, 2))
    assert state.amplitudes[0b111] == 1.0
    state = apply_gate(basis_state(0b001, 3), ccx(0, 1, 2))
    assert state.amplitudes[0b001] == 1.0


def test_phase_gates():
    theta = 0.7
    state = apply_gate(apply_gate(init_zero(1), h(0)), p(theta, 0))
    assert state.amplitudes[1] == pytest.approx(INV_SQRT2 * np.exp(1j * theta))
    # CP only phases the doubly-active branch
    state = basis_state(0b11, 2)
    apply_gate(state, cp(theta, 0, 1))
    assert state.amplitudes[0b11] == pytest.approx(np.exp(1j * theta))
    state = basis_state(0b10, 2)
    apply_gate(state, cp(theta, 0, 1))
    assert state.amplitudes[0b10] == pytest.approx(1.0)


def test_apply_gate_rejects_out_of_range_qubits():
    with pytest.raises(ValueError, match="touches qubit"):
        apply_gate(init_zero(2), x(2))


@pytest.mark.parametrize("n, head", [
    (4, []),
    (statevec._SPARSE_MIN_QUBITS, []),
    (statevec._SPARSE_MIN_QUBITS + 2, []),
    # an H layer outgrows the support's headroom: the rest runs dense
    (statevec._SPARSE_MIN_QUBITS, [h(q) for q in range(statevec._SPARSE_MIN_QUBITS)]),
], ids=["dense", "support", "support-14", "support-then-dense"])
def test_run_circuit_names_the_first_gate_that_does_not_fit(n, head):
    # Circuit checks a gate when it is built or added; one appended to
    # circuit.gates directly is caught when the circuit runs, by the first
    # such gate and with apply_gate's message
    circuit = Circuit(n, [*head, h(0), cnot(0, 1)])
    circuit.gates += [x(1), cnot(0, n + 2), x(n), p(0.5, 0)]
    with pytest.raises(ValueError) as caught:
        run_circuit(circuit)
    assert str(caught.value) == f"CNOT touches qubit {n + 2} but the state has {n} qubits"


# ---------------------------------------------------------------------------
# randomized equivalence with the dense oracle

def test_random_gates_match_dense_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(60):
        n = int(rng.integers(3, 6))
        state = random_state(rng, n)
        gate = random_gate(rng, n)
        expected = dense_gate(gate, n) @ state.amplitudes.copy()
        apply_gate(state, gate)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_random_circuits_match_dense_oracle():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(3, 6))
        gates = [random_gate(rng, n) for _ in range(12)]
        circuit = Circuit(n, gates)
        vec = np.zeros(1 << n, dtype=np.complex128)
        vec[0] = 1.0
        for gate in gates:
            vec = dense_gate(gate, n) @ vec
        out = run_circuit(circuit)
        np.testing.assert_allclose(out.amplitudes, vec, atol=1e-12)


def test_gates_preserve_norm():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 6))
        state = random_state(rng, n)
        apply_gate(state, random_gate(rng, n))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_apply_pauli_matches_dense():
    paulis = {
        "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    }
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(0, n))
        name = str(rng.choice(["X", "Y", "Z"]))
        state = random_state(rng, n)
        # embed the 2x2 by bit arithmetic
        expected = np.zeros_like(state.amplitudes)
        for i, amp in enumerate(state.amplitudes):
            b = (i >> q) & 1
            for b2 in (0, 1):
                coeff = paulis[name][b2, b]
                if coeff != 0:
                    j = (i & ~(1 << q)) | (b2 << q)
                    expected[j] += coeff * amp
        apply_pauli(state, name, q)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)
    with pytest.raises(ValueError):
        apply_pauli(init_zero(1), "W", 0)


ARITY = {"H": 1, "X": 1, "P": 1, "CNOT": 2, "CP": 2, "CCX": 3}


def _gate(kind, target, controls, polarities, angle) -> Gate:
    if kind == "H":
        return h(target)
    if kind == "X":
        return x(target)
    if kind == "P":
        return p(angle, target)
    if kind == "CNOT":
        return cnot(controls[0], target, polarities[0])
    if kind == "CP":
        return cp(angle, controls[0], target, polarities[0])
    return ccx(controls[0], controls[1], target, *polarities)


def _target(where: str, n: int) -> int:
    return {"bottom": 0, "middle": n // 2, "top": n - 1}[where]


@pytest.mark.parametrize("where", ["bottom", "middle", "top"])
@settings(max_examples=80)
@given(data=st.data(), kind=st.sampled_from(sorted(ARITY)),
       seed=st.integers(0, 2**32 - 1),
       angle=st.floats(-2 * math.pi, 2 * math.pi))
def test_apply_gate_matches_index_oracle(where, data, kind, seed, angle):
    # gate_matrix builds the unitary from basis-index bit arithmetic only
    n = data.draw(st.integers(ARITY[kind], 8), label="n")
    target = _target(where, n)
    others = [q for q in range(n) if q != target]
    controls = data.draw(st.permutations(others), label="order")[:ARITY[kind] - 1]
    polarities = data.draw(st.lists(st.sampled_from([POSITIVE, NEGATED]),
                                    min_size=len(controls),
                                    max_size=len(controls)), label="polarities")
    gate = _gate(kind, target, controls, polarities, angle)
    state = random_state(np.random.default_rng(seed), n)
    expected = gate_matrix(gate, n) @ state.amplitudes
    apply_gate(state, gate)
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("where", ["bottom", "middle", "top"])
@settings(max_examples=40)
@given(n=st.integers(1, 8), pauli=st.sampled_from("XYZ"),
       seed=st.integers(0, 2**32 - 1))
def test_apply_pauli_matches_index_oracle(where, n, pauli, seed):
    qubit = _target(where, n)
    state = random_state(np.random.default_rng(seed), n)
    expected = pauli_matrix(pauli, qubit, n) @ state.amplitudes
    apply_pauli(state, pauli, qubit)
    np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), op=st.sampled_from(sorted(ARITY) + ["Pauli X", "Pauli Y", "Pauli Z"]),
       rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       angle=st.floats(-2 * math.pi, 2 * math.pi))
def test_stacked_rows_get_the_bytes_of_one_row(data, op, rows, seed, angle):
    # the kernel run once on k states back to back gives each the bytes of
    # apply_gate or apply_pauli on that state alone.  A P or CP on the whole
    # register is the exception (one row multiplies a one-element view, which
    # NumPy rounds differently), so their registers are one qubit wider here.
    arity = ARITY.get(op, 1)
    n = data.draw(st.integers(arity + (op in ("P", "CP")), 12), label="n")
    *controls, target = data.draw(st.permutations(range(n)), label="order")[:arity]
    polarities = data.draw(st.lists(st.sampled_from([POSITIVE, NEGATED]),
                                    min_size=len(controls),
                                    max_size=len(controls)), label="polarities")
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    stacked = amps.copy()
    if op.startswith("Pauli"):
        pauli = op[-1]
        statevec._act(stacked.reshape(-1), n, pauli, (target,), rows=rows)
        alone = [apply_pauli(statevec.StateVector(n, row.copy()), pauli, target)
                 for row in amps]
    else:
        gate = _gate(op, target, controls, polarities, angle)
        statevec._act(stacked.reshape(-1), n, gate.kind, gate.qubits,
                      statevec._selects(gate), gate.angle, rows)
        alone = [apply_gate(statevec.StateVector(n, row.copy()), gate) for row in amps]
    for row, state in zip(stacked, alone):
        assert row.tobytes() == state.amplitudes.tobytes()


@st.composite
def _circuits(draw):
    n = draw(st.integers(3, 10), label="n")
    gates = []
    for _ in range(draw(st.integers(1, 30), label="gates")):
        kind = draw(st.sampled_from(sorted(ARITY)))
        qubits = draw(st.permutations(range(n)))[:ARITY[kind]]
        polarities = draw(st.lists(st.sampled_from([POSITIVE, NEGATED]),
                                   min_size=len(qubits) - 1,
                                   max_size=len(qubits) - 1))
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi))
        gates.append(_gate(kind, qubits[0], qubits[1:], polarities, angle))
    return Circuit(n, gates)


def _dense_run(circuit) -> statevec.StateVector:
    state = init_zero(circuit.num_qubits)
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


@settings(max_examples=200)
@given(circuit=_circuits())
# phases land on a single support amplitude, and H gates then mix it
@example(circuit=Circuit(3, [h(0), p(0.3, 0), p(1.1, 0), cnot(0, 2), h(0),
                             ccx(0, 2, 1, NEGATED)]))
@example(circuit=Circuit(10, [h(9), p(2.5, 9), x(3), cp(0.7, 3, 9, NEGATED),
                              h(9), h(4), cnot(9, 4), h(4)]))
def test_sparse_run_equals_dense_kernel(circuit):
    n = circuit.num_qubits
    dense = _dense_run(circuit)
    # headroom 0 can hold the whole run on the support, n leaves it at the
    # first H, and the ones between switch to the dense kernel mid-run
    for headroom in range(n + 1):
        with mock.patch.multiple(statevec, _SPARSE_MIN_QUBITS=1,
                                 _SPARSE_HEADROOM=headroom):
            ran = run_circuit(circuit)
        # values, not bytes: the dense kernel may hold -0.0 where sparse has 0.0
        assert np.array_equal(ran.amplitudes, dense.amplitudes)


def _repeated_h_on_one_qubit():
    gates = []
    for k in range(40):
        gates += [h(0), p(0.3 + 0.1 * k, 0)]
        if k % 8 == 0:
            gates += [cnot(0, 1 + k // 8), ccx(0, 1, 10 + k // 8)]
    return Circuit(20, gates)


def _three_h_layers_over_a_cnot_cascade():
    layer = [h(q) for q in range(8)]
    cascade = [cnot(q, q + 8) for q in range(8)]
    mixed = [ccx(1, 9, 12), p(0.7, 3), p(1.3, 11), cnot(12, 15, NEGATED)]
    return Circuit(20, layer + cascade + mixed + layer + [p(2.1, 5)] + layer)


@pytest.mark.parametrize("build", [_repeated_h_on_one_qubit,
                                   _three_h_layers_over_a_cnot_cascade])
def test_h_gates_that_keep_the_support_small_run_no_dense_gate(build):
    circuit = build()
    assert sum(g.kind == "H" for g in circuit.gates) > circuit.num_qubits - 3
    dense = _dense_run(circuit)
    with mock.patch.object(statevec, "apply_gate", wraps=apply_gate) as kernel:
        ran = run_circuit(circuit)
    assert kernel.call_count == 0
    assert np.array_equal(ran.amplitudes, dense.amplitudes)


MONOMIAL = ("X", "CNOT", "CCX", "P", "CP")
EDGE_QUBITS = st.sampled_from([0, MAX_QUBITS - 1]) | st.integers(0, MAX_QUBITS - 1)


@settings(max_examples=300)
@given(data=st.data(), kind=st.sampled_from(MONOMIAL),
       angle=st.floats(-2 * math.pi, 2 * math.pi),
       indices=st.lists(st.integers(0, (1 << MAX_QUBITS) - 1), min_size=1,
                        max_size=40))
def test_monomial_step_matches_a_per_index_loop(data, kind, angle, indices):
    qubits = data.draw(st.lists(EDGE_QUBITS, min_size=ARITY[kind],
                                max_size=ARITY[kind], unique=True), label="qubits")
    polarities = data.draw(st.lists(st.sampled_from([POSITIVE, NEGATED]),
                                    min_size=ARITY[kind] - 1,
                                    max_size=ARITY[kind] - 1), label="polarities")
    gate = _gate(kind, qubits[0], qubits[1:], polarities, angle)
    rng = np.random.default_rng(len(indices))
    amps = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
    want_index, want_amps = [], []
    for i, amp in zip(indices, amps):
        fires = all((i >> c) & 1 == (0 if pol == NEGATED else 1)
                    for c, pol in zip(gate.controls, gate.polarities))
        t = gate.targets[0]
        if kind in ("P", "CP"):
            amp = amp * np.exp(1j * angle) if fires and (i >> t) & 1 else amp
        elif fires:
            i ^= 1 << t
        want_index.append(i)
        want_amps.append(amp)
    index = np.array(indices, dtype=np.int64)
    statevec._monomial_step(gate, index, amps)
    assert index.tolist() == want_index
    np.testing.assert_allclose(amps, want_amps, rtol=1e-15, atol=0)
    if kind not in ("P", "CP"):  # an X-type step reads no amplitude
        alone = np.array(indices, dtype=np.int64)
        statevec._monomial_step(gate, alone, None)
        assert alone.tolist() == want_index


@pytest.mark.parametrize("target_bit", ["clear", "some", "set"])
@settings(max_examples=60)
@given(n=st.integers(1, 10), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sparse_h_equals_dense_kernel(target_bit, n, data, seed):
    target = data.draw(st.integers(0, n - 1), label="target")
    bit = 1 << target
    rng = np.random.default_rng(seed)
    size = rng.integers(1, 1 << n, endpoint=True)
    index = np.unique(rng.integers(0, 1 << n, size=size))
    if target_bit == "clear":
        index = np.unique(index & ~bit)
    elif target_bit == "set":
        index = np.unique(index | bit)
    else:  # a pair that has both halves, whatever else was drawn
        index = np.unique(np.append(index, [index[0] & ~bit, index[0] | bit]))
    index = rng.permutation(index)  # the support is held in no order
    amps = rng.normal(size=index.size) + 1j * rng.normal(size=index.size)
    got_index, got_amps = statevec._sparse_h(target, index.copy(), amps.copy())
    assert got_index.size == 2 * np.unique(index & ~bit).size
    dense = statevec.StateVector(n, statevec._scatter(index, amps, n))
    apply_gate(dense, h(target))
    # values, not bytes: the dense kernel may hold -0.0 where sparse has 0.0
    assert np.array_equal(statevec._scatter(got_index, got_amps, n), dense.amplitudes)


# ---------------------------------------------------------------------------
# running, measuring, sampling

def test_probabilities_drop_small_entries():
    state = apply_gate(init_zero(2), h(0))
    dist = probabilities(state)
    assert set(dist.entries) == {"00", "01"}
    assert dist.entries["00"] == pytest.approx(0.5)
    assert dist.kind == "probability"


def _thinly_spread_circuit():
    # 16 qubits, each H.P(theta).H with P(1) = 1e-3: about 2e-9 of the mass
    # sits in outcomes below the 1e-12 drop threshold
    theta = 2 * math.asin(math.sqrt(1e-3))
    return Circuit(16, [g for q in range(16) for g in (h(q), p(theta, q), h(q))])


def test_probabilities_checks_norm_before_dropping_entries():
    state = run_circuit(_thinly_spread_circuit())
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-13
    dist = probabilities(state)
    assert 1.0 - sum(dist.entries.values()) > 1e-9
    assert dist.entries["0" * 16] == pytest.approx(0.999 ** 16)
    with pytest.raises(ValueError, match="sum to"):
        probabilities(type(state)(16, state.amplitudes * 1.001))


def test_simulate_thinly_spread_circuit_exits_zero(tmp_path, capsys):
    path = tmp_path / "spread.json"
    save_circuit(_thinly_spread_circuit(), path)
    assert main(["simulate", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_sample_counts_reproducible_and_complete():
    state = apply_gate(init_zero(3), h(1))
    first = sample_counts(state, 5000, seed=42)
    second = sample_counts(state, 5000, seed=42)
    assert first.entries == second.entries
    assert first.total_shots == 5000
    assert sum(first.entries.values()) == 5000
    assert set(first.entries) <= {"000", "010"}
    shifted = sample_counts(state, 5000, seed=43)
    assert shifted.entries != first.entries
    with pytest.raises(ValueError):
        sample_counts(state, 0, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_probabilities_reject_non_finite_amplitudes(bad):
    # a NaN total passes an "abs(total - 1) > tol" test, and NaN entries fail
    # the ">= 1e-12" test that keeps an entry, so this must be checked explicitly
    state = statevec.StateVector(2, np.array([bad, 1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="probabilities sum to"):
        probabilities(state)


@pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 10**20])
def test_sample_counts_shot_cap(shots):
    with pytest.raises(ValueError, match=f"shots must be in 1..{MAX_SHOTS}"):
        sample_counts(init_zero(2), shots, seed=1)


# The per-index loops that probabilities() and sample_counts() used before
# they became array-native, kept as the oracle for their output.

def _probabilities_by_index(state) -> Distribution:
    probs = np.abs(state.amplitudes) ** 2
    entries = {bitstring(i, state.num_qubits): float(v)
               for i, v in enumerate(probs) if v >= 1e-12}
    return Distribution(width=state.num_qubits, entries=entries, kind=PROBABILITY)


def _sample_counts_by_index(state, shots, seed) -> Distribution:
    rng = np.random.default_rng(seed)
    probs = np.abs(state.amplitudes) ** 2
    counts = rng.multinomial(shots, probs / probs.sum())
    entries = {bitstring(i, state.num_qubits): float(c)
               for i, c in enumerate(counts) if c > 0}
    return Distribution(width=state.num_qubits, entries=entries, kind=COUNTS,
                        total_shots=shots)


def _same(got: Distribution, want: Distribution) -> None:
    assert got == want
    assert list(got.entries) == list(want.entries)  # same key order too


def test_outcome_extraction_matches_per_index_loop():
    rng = np.random.default_rng(5)
    states = [random_state(rng, n) for n in (1, 3, 9)]
    states += [apply_gate(init_zero(4), h(2)), basis_state(0b1011, 4),
               run_circuit(_thinly_spread_circuit())]
    for state in states:
        _same(probabilities(state), _probabilities_by_index(state))
        for shots, seed in ((1, 0), (1000, 17), (50_000, DEFAULT_SEED)):
            _same(sample_counts(state, shots, seed),
                  _sample_counts_by_index(state, shots, seed))


# ---------------------------------------------------------------------------
# support-held states

@settings(max_examples=120)
@given(circuit=_circuits(), seed=st.integers(0, 2**32 - 1))
# the support holds index 2**n - 1, with another entry or alone
@example(circuit=Circuit(4, [x(0), x(1), x(2), x(3), h(2)]), seed=1)
@example(circuit=Circuit(3, [x(0), x(1), x(2)]), seed=2)
# H twice leaves an exact-zero amplitude on the support
@example(circuit=Circuit(5, [h(1), h(1), h(3), cnot(3, 4), p(0.4, 4)]), seed=3)
@example(circuit=Circuit(4, [h(0), h(1), cnot(0, 3), h(0), h(0), h(1),
                             ccx(3, 1, 2, NEGATED)]), seed=4)
# a single-outcome support away from the last index
@example(circuit=Circuit(6, [x(4), cp(1.2, 4, 1), cnot(4, 2, NEGATED)]), seed=5)
def test_report_edge_on_the_support_equals_dense_oracles(circuit, seed):
    n = circuit.num_qubits
    dense = _dense_run(circuit)
    want_probs = _probabilities_by_index(dense)
    shots = (1, 1024, 100_000)
    want_counts = [_sample_counts_by_index(dense, k, seed) for k in shots]
    # headroom 0 ends most runs on the support, n leaves it at the first H,
    # and the ones between switch to the dense kernel mid-run
    for headroom in range(n + 1):
        with mock.patch.multiple(statevec, _SPARSE_MIN_QUBITS=1,
                                 _SPARSE_HEADROOM=headroom):
            ran = run_circuit(circuit)
        _same(probabilities(ran), want_probs)
        for k, want in zip(shots, want_counts):
            _same(sample_counts(ran, k, seed), want)


def _held(circuit) -> statevec.StateVector:
    """The circuit's output held on its support, however large it grows."""
    index, amps, _ = statevec._run_support(circuit, np.zeros(1, dtype=np.int64),
                                           np.ones(1, dtype=np.complex128))
    order = np.argsort(index)
    return statevec.StateVector(circuit.num_qubits, support=(index[order], amps[order]))


@settings(max_examples=60)
@given(circuit=_circuits(), seed=st.integers(0, 2**32 - 1))
def test_support_held_state_reads_like_the_dense_one(circuit, seed):
    n = circuit.num_qubits
    dense = _dense_run(circuit)
    held = _held(circuit)
    gate = random_gate(np.random.default_rng(seed), n)
    assert np.array_equal(apply_gate(_held(circuit), gate).amplitudes,
                          apply_gate(_dense_run(circuit), gate).amplitudes)
    # the first read builds the dense array once and the state stays dense
    assert held._support is not None
    amps = held.amplitudes
    assert held._support is None and held.amplitudes is amps
    assert np.array_equal(amps, dense.amplitudes)


# 14 qubits, past _SPARSE_MIN_QUBITS, with a 16-state support: run_circuit
# returns it held on the support
_HELD = Circuit(14, [h(0), h(3), h(7), h(11), cnot(0, 5), ccx(3, 7, 9, NEGATED),
                     p(0.3, 5), cp(1.1, 9, 0, NEGATED), x(12), cnot(11, 2)])
_READS = {"probabilities": probabilities,
          "sample_counts": lambda state: sample_counts(state, 4096, 11)}


def _bytes(dist: Distribution) -> tuple:
    return dist.kind, dist.total_shots, dist.indices.tobytes(), dist.values.tobytes()


@pytest.mark.parametrize("first", sorted(_READS))
def test_support_weights_are_shared_by_both_readers_in_either_order(first):
    state = run_circuit(_HELD)
    assert state._support is not None
    order = [first, *sorted(set(_READS) - {first})] * 2  # each read twice
    for name in order:
        assert _bytes(_READS[name](state)) == _bytes(_READS[name](run_circuit(_HELD)))
    weights, total = state._weights
    assert not weights.flags.writeable  # no reader may scale them in place
    assert total == float(np.sum(np.abs(_dense_run(_HELD).amplitudes) ** 2))


def test_reading_the_amplitudes_drops_the_support_weights():
    state = run_circuit(_HELD)
    probabilities(state)
    apply_gate(state, h(12))  # reads .amplitudes, so the state is dense
    assert state._support is None and state._weights is None
    want = _dense_run(Circuit(14, [*_HELD.gates, h(12)]))
    _same(probabilities(state), _probabilities_by_index(want))
    _same(sample_counts(state, 4096, 11), _sample_counts_by_index(want, 4096, 11))


def test_state_vector_takes_amplitudes_or_support():
    with pytest.raises(ValueError, match="either amplitudes or support"):
        statevec.StateVector(1)
    with pytest.raises(ValueError, match="either amplitudes or support"):
        statevec.StateVector(1, np.ones(2, dtype=complex),
                             support=(np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)))


def test_h_light_24_qubit_report_never_builds_the_dense_state():
    n = MAX_QUBITS
    rng = np.random.default_rng(24)
    gates = [h(q) for q in range(0, 20, 2)]
    for _ in range(60):
        a, b, c = (int(q) for q in rng.choice(n, size=3, replace=False))
        angle = float(rng.uniform(-math.pi, math.pi))
        gates += [cnot(a, b), ccx(a, b, c, NEGATED), p(angle, c), cp(angle, c, a), x(b)]
    circuit = Circuit(n, gates)
    assert sum(g.kind == "H" for g in circuit.gates) == 10

    def no_dense_read(self):
        raise AssertionError("the 2**n amplitude array was built")

    with mock.patch.object(statevec.StateVector, "amplitudes", property(no_dense_read)), \
            mock.patch.object(statevec, "apply_gate", wraps=apply_gate) as kernel:
        tracemalloc.start()
        try:
            state = run_circuit(circuit)
            probs = probabilities(state)
            counts = sample_counts(state, 1024, DEFAULT_SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert kernel.call_count == 0
    # nothing of 2**n entries is built: a float64 array that long takes
    # 8 << n bytes, and the largest one here is the dense-order total's
    # 2**(n-4) lane sums
    assert peak < 1 << n
    assert len(probs.entries) == 1 << 10
    assert all(v == pytest.approx(2.0 ** -10) for v in probs.entries.values())
    assert sum(counts.entries.values()) == 1024
    assert set(counts.entries) <= set(probs.entries)


@st.composite
def _weighted_supports(draw):
    """An ascending int64 support on n = 1..24 qubits and non-negative
    weights for it: one entry, both ends, a contiguous run, whole 128-blocks,
    a random spread or every index, with exact zeros mixed in at times."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, MAX_QUBITS)))
    size = 1 << n
    shape = draw(st.sampled_from(["single", "ends", "run", "blocks", "spread", "full"]))
    if shape == "single":
        index = [draw(st.integers(0, size - 1))]
    elif shape == "ends":
        index = [0, size - 1]
    elif shape == "run":
        start = draw(st.integers(0, size - 1))
        index = range(start, start + draw(st.integers(1, min(size - start, 700))))
    elif shape == "blocks":
        block = min(size, 128)
        starts = draw(st.sets(st.integers(0, size // block - 1), min_size=1, max_size=6))
        index = [k for b in starts for k in range(b * block, (b + 1) * block)]
    elif shape == "spread":
        index = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=400))
    else:
        index = range(min(size, 1 << 13))
    if draw(st.booleans()):
        index = [*index, 0, size - 1]
    index = np.array(sorted(set(index)), dtype=np.int64)
    # similar magnitudes make every addition round; spread ones reach 1e-300
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lowest = draw(st.sampled_from([0, -3, -16, -300]))
    probs = rng.random(index.size) * 10.0 ** rng.uniform(lowest, 0, index.size)
    probs[rng.random(index.size) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0
    return n, index, probs


@settings(max_examples=250, deadline=None)
@given(_weighted_supports())
@example((1, np.array([1]), np.array([0.75])))
# under 8 values NumPy adds one by one: pairing these would round differently
@example((2, np.arange(4), np.array([0.028319671145462966, 0.12428327649956394,
                                     0.6706244146936303, 0.6471895115742501])))
@example((7, np.arange(128), np.linspace(0.0, 1.0, 128)))
@example((MAX_QUBITS, np.array([0, (1 << MAX_QUBITS) - 1]), np.array([1e-300, 1.0])))
def test_dense_order_total_equals_the_scattered_sum(case):
    n, index, probs = case
    want = float(statevec._scatter(index, probs, n).sum())
    assert statevec._dense_order_total(index, probs, n).hex() == want.hex()


def test_numpy_multinomial_skips_zero_categories():
    # sample_counts relies on this: a category of p = 0 takes no draw from the
    # generator, and the last category takes what the others leave
    rng = np.random.default_rng(13)
    for _ in range(300):
        weights = rng.random(int(rng.integers(1, 12))) ** 8
        last = 0.0 if rng.random() < 0.5 else float(rng.random())
        dense = []
        for w in weights:
            dense += [0.0] * int(rng.integers(0, 4)) + [w]
        dense = np.array(dense + [0.0] * int(rng.integers(0, 4)) + [last])
        dense /= dense.sum()
        keep = dense > 0
        keep[-1] = True
        for shots in (1, 1024, 100_000, MAX_SHOTS):
            seed = int(rng.integers(2**32))
            full, part = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(full.multinomial(shots, dense)[keep],
                                  part.multinomial(shots, dense[keep]))
            assert full.bit_generator.state == part.bit_generator.state


@pytest.mark.parametrize("circuit", [
    # 2**n - 1 is off the support, whose last entry is not zero
    Circuit(5, [h(0), h(0), h(2), cnot(2, 4), x(0)]),
    Circuit(3, [h(0), x(1), x(2)]),  # 2**n - 1 is on the support
], ids=["sentinel", "last-on-support"])
def test_sample_counts_draws_the_dense_categories_that_are_not_zero(circuit):
    real = np.random.default_rng
    drawn = []

    class Recording:
        def __init__(self, seed):
            self._rng = real(seed)

        def multinomial(self, shots, pvals):
            drawn.append(pvals)
            return self._rng.multinomial(shots, pvals)

    with mock.patch.object(statevec.np.random, "default_rng", Recording):
        sample_counts(_held(circuit), 100, 1)
    probs = np.abs(_dense_run(circuit).amplitudes) ** 2
    want = probs / probs.sum()
    got = drawn[0]
    assert got[-1] == want[-1]  # the last category is the last basis index
    assert np.array_equal(got[:-1][got[:-1] > 0], want[:-1][want[:-1] > 0])
