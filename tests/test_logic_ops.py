"""Projector algebra, the classical flag rule, and the verification suite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liarsim import statevec
from liarsim.circuit import (NEGATED, OR_ACCUMULATE, PARITY, POSITIVE, Circuit,
                             build_general, ccx, cnot, cp, p, x)
from liarsim.logic_ops import (_flag_map, _verify, FULLY_CONSISTENT, FULLY_INCONSISTENT,
                               INCONSISTENCY_DETECTED, LOCALLY_RESOLVED,
                               MAX_PAIRS, classical_rule,
                               contradiction_projector, fixed_point_report,
                               global_consistency_projector, logic_hamiltonian,
                               TruthTableRow, taylor_exponential, truth_table,
                               verification_suite, violation_count)

from basis_oracle import (circuit_flag_on_basis, is_hermitian, is_projector,
                          is_unitary, projector_exponential, reference_rule,
                          reflection)


# ---------------------------------------------------------------------------
# projectors

def test_violation_count():
    # pair i violated iff contradiction bit i set and resolution bit m+i clear
    assert violation_count(0b00, 1) == 0
    assert violation_count(0b01, 1) == 1
    assert violation_count(0b10, 1) == 0
    assert violation_count(0b11, 1) == 0
    assert violation_count(0b0011, 2) == 2
    assert violation_count(0b0111, 2) == 1
    assert violation_count(0b1111, 2) == 0


def test_pair_projector_is_diagonal_01():
    for m in (1, 2, 3):
        for i in range(m):
            proj = contradiction_projector(m, i)
            assert is_projector(proj)
            assert np.abs(proj - np.diag(np.diagonal(proj))).max() == 0.0
            diag = np.real(np.diagonal(proj))
            assert set(np.unique(diag)) <= {0.0, 1.0}
            # rank: pair i is violated in a quarter of all configurations
            assert int(diag.sum()) == 4 ** (m - 1)


def test_global_projector_rank_3_to_the_m():
    for m in (1, 2, 3):
        pi = global_consistency_projector(m)
        assert is_projector(pi)
        assert int(np.real(np.trace(pi))) == 3 ** m
        for i in range(m):
            anni = pi @ contradiction_projector(m, i)
            assert np.abs(anni).max() == 0.0


def test_hamiltonian_diagonal_is_violation_count():
    for m in (1, 2):
        h = logic_hamiltonian(m)
        diag = np.real(np.diagonal(h))
        for idx in range(4 ** m):
            assert diag[idx] == violation_count(idx, m)


def test_pair_caps():
    with pytest.raises(ValueError):
        global_consistency_projector(MAX_PAIRS + 1)
    with pytest.raises(ValueError):
        contradiction_projector(0, 0)


# ---------------------------------------------------------------------------
# reflections and exponentials

def test_reflection_properties():
    for m in (1, 2):
        pi = global_consistency_projector(m)
        u = reflection(pi)
        assert is_unitary(u)
        assert is_hermitian(u)
        assert np.abs(u @ u - np.eye(4 ** m)).max() < 1e-12
        eig = np.sort(np.real(np.linalg.eigvalsh(u)))
        assert set(np.round(eig, 12)) <= {-1.0, 1.0}


def test_reflection_rejects_non_projectors():
    with pytest.raises(ValueError, match="projector"):
        reflection(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        reflection(np.zeros((2, 3)))


def test_exponential_of_complement_projector_is_the_reflection():
    # e^{-i*pi*(I - Pi)} = 2*Pi - I
    for m in (1, 2, 3):
        pi = global_consistency_projector(m)
        complement = np.eye(4 ** m) - pi
        closed = projector_exponential(complement, math.pi)
        assert np.abs(closed - reflection(pi)).max() < 1e-12


def test_taylor_oracle_agrees_with_closed_form():
    rng = np.random.default_rng(3)
    for m in (1, 2):
        pi = global_consistency_projector(m)
        complement = np.eye(4 ** m) - pi
        theta = float(rng.uniform(0.1, 2 * math.pi))
        closed = projector_exponential(complement, theta)
        series = taylor_exponential(theta * complement)
        assert np.abs(closed - series).max() < 1e-9


def test_projector_exponential_rejects_non_projector():
    with pytest.raises(ValueError):
        projector_exponential(np.array([[2.0]]), 1.0)


# ---------------------------------------------------------------------------
# basis map

@st.composite
def h_free_circuits(draw):
    n = draw(st.integers(1, 8))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["X", "P", "CNOT", "CP", "CCX"]))
        arity = {"X": 1, "P": 1, "CNOT": 2, "CP": 2, "CCX": 3}[kind]
        if arity > n:
            continue
        qs = draw(st.permutations(range(n)))[:arity]
        pols = [draw(st.sampled_from([POSITIVE, NEGATED])) for _ in qs[:-1]]
        theta = draw(st.floats(-2 * math.pi, 2 * math.pi))
        gates.append({
            "X": lambda: x(qs[0]),
            "P": lambda: p(theta, qs[0]),
            "CNOT": lambda: cnot(qs[0], qs[1], pols[0]),
            "CP": lambda: cp(theta, qs[0], qs[1], pols[0]),
            "CCX": lambda: ccx(qs[0], qs[1], qs[2], pols[0], pols[1]),
        }[kind]())
    return Circuit(n, gates)


def _all_inputs_map(circuit):
    """The support run of every one of the 2**n basis inputs, amplitude 1."""
    n = circuit.num_qubits
    return statevec._run_support(circuit, np.arange(1 << n, dtype=np.int64),
                                 np.ones(1 << n, dtype=np.complex128))[:2]


@settings(max_examples=100, deadline=None)
@given(h_free_circuits())
def test_basis_map_matches_statevector(circuit):
    out_index, phase = _all_inputs_map(circuit)
    n = circuit.num_qubits
    assert out_index.shape == phase.shape == (1 << n,)
    for index in range(1 << n):
        state = statevec.basis_state(index, n)
        for gate in circuit.gates:
            statevec.apply_gate(state, gate)
        out = int(np.argmax(np.abs(state.amplitudes)))
        assert out_index[index] == out
        assert abs(state.amplitudes[out] - phase[index]) <= 1e-12
        assert abs(abs(phase[index]) - 1.0) <= 1e-12


@pytest.mark.parametrize("mode", [PARITY, OR_ACCUMULATE])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_flag_map_is_the_full_map_on_pair_and_flag_inputs(mode, m):
    # the full 2**n map sliced to its first 2**(2m+1) inputs, as the oracle
    out_index, phase = _all_inputs_map(build_general(m, mode))
    size = 1 << (2 * m + 1)
    got_index, got_phase = _flag_map(mode, m)
    assert np.array_equal(got_index, out_index[:size])
    assert np.array_equal(got_phase, phase[:size])


def _dense_identity_checks(m):
    """The first five suite checks, computed on the dense public builders."""
    eye = np.eye(4 ** m)
    projectors = [contradiction_projector(m, i) for i in range(m)]
    pi_global = global_consistency_projector(m)
    pair = max(max(np.abs(q @ q - q).max(), np.abs(q - q.conj().T).max(),
                   abs(np.real(np.trace(q)) - 4 ** (m - 1))) for q in projectors)
    glob = max(np.abs(pi_global @ pi_global - pi_global).max(),
               np.abs(pi_global - pi_global.conj().T).max(),
               abs(np.real(np.trace(pi_global)) - 3 ** m),
               max(np.abs(pi_global @ q).max() for q in projectors))
    unitary = reflection(pi_global)
    refl = max(np.abs(unitary - (2.0 * pi_global - eye)).max(),
               np.abs(unitary - unitary.conj().T).max(),
               np.abs(unitary @ unitary - eye).max())
    complement = eye - pi_global
    closed = np.abs(projector_exponential(complement, math.pi) - unitary).max()
    taylor = np.abs(taylor_exponential(math.pi * complement) - unitary).max()
    return {"pair_projector_laws": (pair, 1e-12),
            "global_projector_laws": (glob, 1e-12),
            "reflection_laws": (refl, 1e-12),
            "exponential_closed_form": (closed, 1e-12),
            "exponential_taylor": (taylor, 1e-9)}


@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_diagonal_suite_matches_dense_builders(pairs):
    suite = {c.name: c for c in verification_suite(pairs)}
    for name, (dense_dev, tol) in _dense_identity_checks(pairs).items():
        check = suite[name]
        assert check.passed == (dense_dev <= tol), name
        assert dense_dev <= tol and check.max_deviation <= tol, name


# ---------------------------------------------------------------------------
# classical rule

def test_rule_single_pair_rows():
    assert classical_rule([0], [0], 1).flag_out == 1
    assert classical_rule([0], [0], 1).label == FULLY_CONSISTENT
    assert classical_rule([1], [0], 1).flag_out == 0
    assert classical_rule([1], [0], 1).label == INCONSISTENCY_DETECTED
    assert classical_rule([0], [1], 1).label == FULLY_CONSISTENT
    assert classical_rule([1], [1], 1).label == LOCALLY_RESOLVED
    assert classical_rule([1], [1], 1).flag_out == 1


def test_rule_flag_flips_once_regardless_of_violation_count():
    # OR semantics: two violations flip the flag once, not twice
    res = classical_rule([1, 1], [0, 0], 1)
    assert res.flag_out == 0
    assert res.violated == (0, 1)
    assert res.label == FULLY_INCONSISTENT


def test_rule_labels_multi_pair():
    assert classical_rule([1, 0], [0, 0], 1).label == INCONSISTENCY_DETECTED
    assert classical_rule([1, 1], [1, 0], 1).label == INCONSISTENCY_DETECTED
    assert classical_rule([1, 1], [1, 1], 1).label == LOCALLY_RESOLVED
    assert classical_rule([0, 0], [1, 0], 1).label == FULLY_CONSISTENT


def test_rule_input_validation():
    with pytest.raises(ValueError):
        classical_rule([], [], 1)
    with pytest.raises(ValueError):
        classical_rule([1], [0, 1], 1)
    with pytest.raises(ValueError):
        classical_rule([2], [0], 1)
    with pytest.raises(ValueError):
        classical_rule([1], [0], 2)


def _assignments(m):
    for a in range(4 ** m):
        yield (tuple((a >> i) & 1 for i in range(m)),
               tuple((a >> (m + i)) & 1 for i in range(m)))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_rule_matches_scalar_reference_on_every_input(m):
    for c, r in _assignments(m):
        for flag_in in (0, 1):
            assert classical_rule(c, r, flag_in) == reference_rule(c, r, flag_in)


# ---------------------------------------------------------------------------
# truth table

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("flag_in", [0, 1])
def test_truth_table_matches_scalar_reference(m, flag_in):
    # the parity circuit flips the flag once per violated pair
    rows = []
    for c, r in _assignments(m):
        ref = reference_rule(c, r, flag_in)
        circuit_flag = flag_in ^ (len(ref.violated) % 2)
        rows.append(TruthTableRow(c, r, flag_in, ref.flag_out, ref.label,
                                  circuit_flag, circuit_flag != ref.flag_out))
    assert truth_table(m, flag_in) == rows


def test_truth_table_single_pair():
    rows = truth_table(1)
    assert len(rows) == 4
    by_bits = {(r.contradictions, r.resolutions): r for r in rows}
    hit = by_bits[((1,), (0,))]
    assert hit.rule_flag == 0 and hit.circuit_flag == 0 and not hit.diverges
    ok = by_bits[((0,), (1,))]
    assert ok.rule_flag == 1 and ok.circuit_flag == 1


def test_truth_table_divergence_on_even_violations():
    rows = truth_table(2)
    assert len(rows) == 16
    for row in rows:
        violations = sum(
            c == 1 and r == 0
            for c, r in zip(row.contradictions, row.resolutions)
        )
        assert row.diverges == (violations == 2)
        if row.diverges:
            # parity wraps around to the untouched flag value
            assert row.circuit_flag == row.flag_in
            assert row.rule_flag == 1 - row.flag_in


def test_truth_table_validation():
    with pytest.raises(ValueError):
        truth_table(0)
    with pytest.raises(ValueError):
        truth_table(1, flag_in=2)


# ---------------------------------------------------------------------------
# fixed points

def test_fixed_point_report_single_pair():
    report = fixed_point_report(1)
    assert report.plus_one_dim == 3
    assert report.kernel_dim == 3
    assert report.algebra_match
    assert report.cascade_total == 8
    assert report.cascade_fixed == 6  # even-violation inputs, both flag values
    assert report.assumed_fixed == 3
    assert not report.assumed_set_is_exact
    assert report.extra_consistent_flag_zero == 3
    assert report.extra_even_violation == 0
    assert report.missing_from_assumed == 0


def test_fixed_point_report_two_pairs():
    report = fixed_point_report(2)
    assert report.plus_one_dim == 9
    assert report.cascade_total == 32
    # 9 consistent + 1 doubly-violated configuration, times two flag values
    assert report.cascade_fixed == 20
    assert report.extra_consistent_flag_zero == 9
    assert report.extra_even_violation == 2
    assert report.missing_from_assumed == 0


# ---------------------------------------------------------------------------
# suite

@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_verification_suite_all_pass(pairs):
    checks = verification_suite(pairs)
    names = {c.name for c in checks}
    assert {"pair_projector_laws", "global_projector_laws", "reflection_laws",
            "exponential_closed_form", "exponential_taylor",
            "hamiltonian_spectrum", "kernel_equals_plus_one_space",
            "cascade_fixed_points"} <= names
    if pairs <= 3:
        assert "rule_matches_or_circuit" in names
        assert "parity_or_divergence" in names
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"
        assert check.max_deviation < 1e-9


@pytest.mark.parametrize("pairs", range(1, MAX_PAIRS + 1))
def test_one_verify_pass_equals_the_public_wrappers(pairs):
    # verify takes both results from one pass, and each public function
    # returns one half of it
    assert _verify(pairs) == (verification_suite(pairs), fixed_point_report(pairs))


def test_or_circuit_flag_equals_rule_exhaustively():
    # direct cross-check, independent of the suite's own bookkeeping
    for m in (1, 2, 3):
        circuit = build_general(m, OR_ACCUMULATE)
        for assignment in range(4 ** m):
            c = tuple((assignment >> i) & 1 for i in range(m))
            r = tuple((assignment >> (m + i)) & 1 for i in range(m))
            for flag_in in (0, 1):
                want = classical_rule(c, r, flag_in).flag_out
                got = circuit_flag_on_basis(circuit, c, r, flag_in)
                assert got == want, (m, c, r, flag_in)
