"""Gate/circuit construction, builders, Toffoli expansion, census, I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liarsim.circuit import (NEGATED, OR_ACCUMULATE, PARITY, POSITIVE,
                             Circuit, Gate, build_general,
                             build_liar_literal, build_liar_reference, ccx,
                             circuit_from_dict, circuit_from_json,
                             circuit_to_dict, circuit_to_json, cnot, cp,
                             expand_toffolis, gate_census, general_width, h,
                             load_circuit, p, save_circuit, toffoli_decompose,
                             x)
from liarsim.dist import COUNTS, PROBABILITY, Distribution
from liarsim.hardware_model import (CouplingGraph, NoiseProfile, make_graph,
                                    noisy_sample)
from liarsim.logic_ops import (classical_rule, contradiction_projector,
                               fixed_point_report, taylor_exponential,
                               truth_table, verification_suite, violation_count)
from liarsim.metrics import MetricsConfig, z_flag
from liarsim.statevec import (apply_gate, apply_pauli, basis_state, init_zero,
                              probabilities, run_circuit, sample_counts)

from basis_oracle import circuit_unitary


# ---------------------------------------------------------------------------
# gate validation

def test_gate_arity_enforced():
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("SWAP", (0, 1))
    with pytest.raises(ValueError, match="control"):
        Gate("CNOT", (0,))
    with pytest.raises(ValueError, match="polarity"):
        Gate("CNOT", (1,), (0,))  # missing polarity
    with pytest.raises(ValueError, match="polarity"):
        Gate("CNOT", (1,), (0,), ("sometimes",))


def test_gate_rejects_duplicate_and_negative_qubits():
    with pytest.raises(ValueError, match="duplicate"):
        ccx(0, 1, 1)
    with pytest.raises(ValueError, match="negative"):
        x(-1)


def test_gate_angle_rules():
    with pytest.raises(ValueError, match="angle"):
        Gate("P", (0,))
    with pytest.raises(ValueError, match="angle"):
        Gate("X", (0,), angle=1.0)
    for angle in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="gate angle must be finite"):
            Gate("P", (0,), angle=angle)
    # a JSON true is not 1 rad
    for angle in (True, False, np.bool_(True), "1.0", 1j):
        with pytest.raises(ValueError, match="gate angle must be a real number"):
            Gate("P", (0,), angle=angle)
    # NumPy angles are stored as Python floats; a Python int stays as read
    for angle, stored in ((np.float32(0.5), 0.5), (np.float64(-2.5), -2.5),
                          (np.int64(3), 3.0), (2, 2), (0.25, 0.25)):
        got = Gate("CP", (1,), (0,), (POSITIVE,), angle=angle).angle
        assert got == stored and type(got) is type(stored)


def test_gate_rejects_mistyped_fields():
    for targets in ((1.5,), (True,), (math.inf,), ("0",)):
        with pytest.raises(ValueError, match="qubit indices must be nonnegative integers"):
            Gate("X", targets)
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate(["X"], (0,))
    assert Gate("CNOT", (np.int64(1),), (np.int32(0),), (POSITIVE,)).qubits == (0, 1)


def test_gate_qubits_lists_controls_first():
    gate = ccx(4, 2, 0)
    assert gate.qubits == (4, 2, 0)


def test_circuit_rejects_gates_outside_register():
    with pytest.raises(ValueError, match="touches qubit"):
        Circuit(2, [x(2)])
    circ = Circuit(2)
    with pytest.raises(ValueError, match="touches qubit"):
        circ.add(cnot(0, 5))


def test_circuit_role_validation():
    with pytest.raises(ValueError, match="role index"):
        Circuit(2, [], roles={3: "flag"})
    with pytest.raises(ValueError, match="unknown role"):
        Circuit(2, [], roles={0: "chief"})


# ---------------------------------------------------------------------------
# liar builders

def test_liar_reference_output():
    probs = probabilities(run_circuit(build_liar_reference()))
    assert set(probs.entries) == {"1001", "1010"}
    assert probs.entries["1001"] == pytest.approx(0.5, abs=1e-12)
    assert probs.entries["1010"] == pytest.approx(0.5, abs=1e-12)


def test_liar_literal_output():
    probs = probabilities(run_circuit(build_liar_literal()))
    assert set(probs.entries) == {"0000", "0111"}
    assert probs.entries["0000"] == pytest.approx(0.5, abs=1e-12)


def test_liar_roles():
    circ = build_liar_reference()
    assert circ.roles == {0: "statement", 1: "negation", 2: "detector", 3: "flag"}


# ---------------------------------------------------------------------------
# the general builder

def test_pair_layout_default():
    # contradiction i on qubit i, resolution i on m + i, flag on 2m
    for mode in (PARITY, OR_ACCUMULATE):
        roles = build_general(3, mode).roles
        assert [q for q in sorted(roles) if roles[q] == "contradiction"] == [0, 1, 2]
        assert [q for q in sorted(roles) if roles[q] == "resolution"] == [3, 4, 5]
        assert [q for q in sorted(roles) if roles[q] == "flag"] == [6]
    assert build_general(3, PARITY).num_qubits == 7


def test_general_parity_structure():
    circ = build_general(3, PARITY)
    assert circ.num_qubits == 7
    assert [g.kind for g in circ.gates] == ["CCX"] * 3
    for i, gate in enumerate(circ.gates):
        assert gate.controls == (i, 3 + i)
        assert gate.polarities == (POSITIVE, NEGATED)
        assert gate.targets == (6,)


def test_general_with_phase_appends_cp_per_pair():
    circ = build_general(2, PARITY, with_phase=True)
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["CCX", "CP", "CCX", "CP"]


def test_general_or_structure_and_ancilla_count():
    # m pairs need m violation bits plus m-1 chain bits
    for m in (1, 2, 4):
        circ = build_general(m, OR_ACCUMULATE)
        expected_ancillas = m + (m - 1) if m >= 2 else 1
        assert circ.num_qubits == 2 * m + 1 + expected_ancillas
        ancillas = [q for q, r in circ.roles.items() if r == "ancilla"]
        assert len(ancillas) == expected_ancillas


def test_general_or_restores_ancillas():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        circ = build_general(m, OR_ACCUMULATE)
        base = 2 * m + 1
        for _ in range(10):
            index = int(rng.integers(0, 1 << base))
            state = basis_state(index, circ.num_qubits)
            for gate in circ.gates:
                apply_gate(state, gate)
            amps = np.abs(state.amplitudes) ** 2
            out = int(np.argmax(amps))
            assert amps[out] == pytest.approx(1.0, abs=1e-12)
            assert out >> base == 0  # every ancilla back to |0>


def test_general_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        build_general(1, "xor")


@pytest.mark.parametrize("mode", [PARITY, OR_ACCUMULATE])
def test_general_width_is_the_built_circuit_width(mode):
    for m in range(1, 13):
        assert general_width(m, mode) == build_general(m, mode).num_qubits


# ---------------------------------------------------------------------------
# Toffoli decomposition

def test_decomposition_gate_budget():
    gates = toffoli_decompose(ccx(0, 1, 2))
    kinds = [g.kind for g in gates]
    assert kinds.count("CNOT") == 6
    assert len(gates) == 15
    assert sum(1 for g in gates if len(g.qubits) == 1) == 9


def test_decomposition_negated_controls_add_x_wraps():
    gates = toffoli_decompose(ccx(0, 1, 2, POSITIVE, NEGATED))
    assert [g.kind for g in gates[:1]] == ["X"]
    assert gates[0].targets == (1,)
    assert gates[-1].kind == "X"
    assert len(gates) == 17


def test_decomposition_matches_ccx_unitary():
    for pol1 in (POSITIVE, NEGATED):
        for pol2 in (POSITIVE, NEGATED):
            gate = ccx(0, 1, 2, pol1, pol2)
            direct = circuit_unitary(Circuit(3, [gate]))
            expanded = circuit_unitary(Circuit(3, toffoli_decompose(gate)))
            assert np.abs(direct - expanded).max() < 1e-12


def test_decomposition_rejects_non_ccx():
    with pytest.raises(ValueError):
        toffoli_decompose(cnot(0, 1))


def test_expand_toffolis_leaves_other_gates_alone():
    circ = Circuit(3, [h(0), ccx(0, 1, 2), cp(0.3, 1, 2)])
    expanded = expand_toffolis(circ)
    assert expanded.gates[0] == h(0)
    assert expanded.gates[-1] == cp(0.3, 1, 2)
    assert len(expanded.gates) == 2 + 15
    assert all(g.kind != "CCX" for g in expanded.gates)


# ---------------------------------------------------------------------------
# census and inverses

def test_census_counts_and_depth():
    circ = Circuit(3, [h(0), h(1), cnot(0, 1), ccx(0, 1, 2)])
    census = gate_census(circ)
    assert census.count_1q == 2
    assert census.count_2q == 1
    assert census.count_ccx == 1
    # h(0) and h(1) share a layer; cnot then ccx stack on top
    assert census.depth == 3


def test_census_decompose_mode_has_no_ccx():
    circ = build_general(4, PARITY)
    census = gate_census(expand_toffolis(circ))
    assert census.count_ccx == 0
    assert census.count_2q == 24  # 6 CNOTs per pair
    assert census.count_1q == 44  # 9 core 1q gates + 2 X wraps, per pair


def test_json_round_trip(tmp_path):
    circ = build_general(2, OR_ACCUMULATE, with_phase=True)
    clone = circuit_from_json(circuit_to_json(circ))
    assert clone.num_qubits == circ.num_qubits
    assert clone.gates == circ.gates
    assert clone.roles == circ.roles

    path = tmp_path / "circ.json"
    save_circuit(circ, path)
    assert load_circuit(path).gates == circ.gates


def test_save_circuit_round_trips_numpy_angles(tmp_path):
    angles = (np.float32(0.1), np.float64(-1.25), np.float32(3.0), np.float64(1e-300))
    circ = Circuit(2, [p(0.5, 0)] + [
        Gate(kind, (1,), controls, (POSITIVE,) * len(controls), angle=angle)
        for angle, (kind, controls) in zip(angles, [("P", ()), ("CP", (0,))] * 2)])
    path = tmp_path / "circ.json"
    save_circuit(circ, path)
    clone = load_circuit(path)
    assert clone.gates == circ.gates
    assert [g.angle for g in clone.gates[1:]] == [float(a) for a in angles]


def _edited(**changes):
    payload = circuit_to_dict(build_liar_reference())
    for key, value in changes.items():
        if key in payload:
            payload[key] = value
        else:
            payload["gates"][0][key] = value
    return payload


@pytest.mark.parametrize("payload", [
    [], "circuit", None,
    _edited(num_qubits=4.0), _edited(num_qubits=True), _edited(num_qubits=math.inf),
    _edited(num_qubits="4"), _edited(num_qubits=0),
    _edited(targets=[1.5]), _edited(targets=[True]), _edited(targets=["3"]),
    _edited(targets=3), _edited(kind=["X"]), _edited(angle="pi"),
    _edited(roles=[1]), _edited(roles="flag"), _edited(roles={"x": "flag"}),
    _edited(roles={"9": "flag"}), _edited(gates=5), _edited(gates=[5]),
])
def test_from_dict_turns_every_malformed_payload_into_value_error(payload):
    with pytest.raises(ValueError, match="^malformed circuit payload: "):
        circuit_from_dict(payload)


def test_json_rejects_malformed_payload():
    with pytest.raises(ValueError, match="malformed"):
        circuit_from_json(json.dumps({"gates": []}))
    with pytest.raises(ValueError):
        circuit_from_json(json.dumps(
            {"num_qubits": 2, "gates": [{"kind": "Q", "targets": [0]}]}
        ))


def test_save_circuit_round_trips_numpy_qubit_indices(tmp_path):
    circ = Circuit(3, [
        Gate("X", (np.int64(2),)),
        Gate("CNOT", (np.int32(1),), (np.int64(0),), (POSITIVE,)),
        Gate("CP", (np.uint8(2),), (1,), (NEGATED,), angle=0.25),
        Gate("CCX", (0,), (np.int16(1), np.int64(2)), (POSITIVE, NEGATED)),
    ])
    for gate in circ.gates:
        assert all(type(q) is int for q in gate.qubits)
    path = tmp_path / "circ.json"
    save_circuit(circ, path)
    clone = load_circuit(path)
    assert clone.gates == circ.gates
    assert circuit_to_json(clone) == circuit_to_json(circ)


# ---------------------------------------------------------------------------
# size, count, bit and index arguments

_LIAR = probabilities(run_circuit(build_liar_reference()))

# entry point -> (the argument's name in its message, valid values, a call
# that passes the value and returns it as stored, or else what it returns,
# which must equal the result for the value as a Python int)
_SIZED = {
    "Circuit": ("num_qubits", (1, 2, 3), lambda n: Circuit(n, [h(0)]).num_qubits),
    "init_zero": ("num_qubits", (1, 2, 3), lambda n: init_zero(n).num_qubits),
    "Distribution.width": ("width", (3,), lambda n: Distribution(
        n, {"000": 1.0}, PROBABILITY).width),
    "Distribution.total_shots": ("total_shots", (3,), lambda n: Distribution(
        3, {"000": 1.0, "001": 2.0}, COUNTS, n).total_shots),
    "sample_counts": ("shots", (1, 2, 3), lambda n: sample_counts(
        run_circuit(build_liar_reference()), n, 7).total_shots),
    "sample_counts.seed": ("seed", (0, 1, 7), lambda n: sample_counts(
        run_circuit(build_liar_reference()), 10, n)),
    "noisy_sample": ("shots", (1, 2, 3), lambda n: noisy_sample(
        build_liar_reference(), NoiseProfile(), n).total_shots),
    "noisy_sample.first_shot": ("first_shot", (0, 1, 3), lambda n: noisy_sample(
        build_liar_reference(), NoiseProfile(p_readout=0.5), 10, first_shot=n)),
    "NoiseProfile.seed": ("seed", (0, 1, 7), lambda n: NoiseProfile(seed=n).seed),
    "make_graph": ("size", (2, 3), lambda n: make_graph("linear", n).num_nodes),
    "CouplingGraph": ("nodes", (2, 3), lambda n: CouplingGraph(n, ((0, 1),)).num_nodes),
    "CouplingGraph.edges": ("edge", (1, 2), lambda n: CouplingGraph(3, ((0, n),)).edges[0][1]),
    "CouplingGraph.distance": ("node", (0, 2), lambda n: make_graph("linear", 3).distance(0, n)),
    "Circuit.roles": ("role index", (0, 1), lambda n: circuit_to_json(
        Circuit(2, roles={n: "flag"}))),
    "taylor_exponential": ("terms", (1, 2), lambda n: taylor_exponential(np.eye(2), n)),
    "basis_state": ("basis index", (0, 5), lambda n: basis_state(n, 3).amplitudes),
    "apply_pauli": ("qubit", (0, 1), lambda n: apply_pauli(init_zero(2), "X", n).amplitudes),
    "build_general": ("num_pairs", (1, 2), lambda n: circuit_to_json(build_general(n))),
    "violation_count": ("num_pairs", (1, 2), lambda n: violation_count(np.arange(16), n)),
    "verification_suite": ("num_pairs", (1, 2), verification_suite),
    "fixed_point_report": ("num_pairs", (1, 2), lambda n: fixed_point_report(n).num_pairs),
    "contradiction_projector": ("num_pairs", (1, 2), lambda n: contradiction_projector(n, 0)),
    "contradiction_projector.pair": ("pair index", (0, 1),
                                     lambda n: contradiction_projector(2, n)),
    "truth_table": ("num_pairs", (1, 2), truth_table),
    "truth_table.flag_in": ("flag_in", (0, 1), lambda n: truth_table(2, n)),
    "classical_rule.contradictions": ("contradictions", (0, 1),
                                      lambda n: classical_rule([n], [0], 1)),
    "classical_rule.resolutions": ("resolutions", (0, 1), lambda n: classical_rule([1], [n], 1)),
    "classical_rule.flag_in": ("flag_in", (0, 1), lambda n: classical_rule([1], [0], n)),
    "z_flag": ("flag index", (0, 3), lambda n: z_flag(_LIAR, n)),
    "MetricsConfig.flag_index": ("flag index", (0, 3),
                                 lambda n: MetricsConfig(flag_index=n).resolve(4)[2]),
}
_INT_TYPES = (int, np.int64, np.int32, np.uint8)


@settings(max_examples=300)
@given(data=st.data())
def test_size_arguments_take_integers_only(data):
    # a float, bool or string value is refused by name, even when it equals a
    # valid int; a NumPy int is stored as a Python int
    name, sizes, call = _SIZED[data.draw(st.sampled_from(sorted(_SIZED)))]
    size = data.draw(st.sampled_from(sizes))
    spelling = data.draw(st.sampled_from([*_INT_TYPES, float, np.float64, bool, str]))
    if spelling in _INT_TYPES:
        got, want = call(spelling(size)), call(size)
        if isinstance(want, Distribution):
            assert got.entries == want.entries
        elif isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want and type(got) is type(want)
            assert type(want) is not int or want == size  # a stored value
    else:
        with pytest.raises(ValueError, match=name):
            call(spelling(size))

