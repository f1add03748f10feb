"""The package's public names, pinned: a name added to or dropped from
`liarsim/__init__.py` changes this list in the same diff.  Entry points given
arguments of the wrong type refuse them with ValueError."""

import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

import liarsim
from liarsim import (Circuit, Distribution, MetricsConfig, NoiseProfile,
                     build_liar_reference, chi_squared_gof,
                     consistency_fidelity, fidelity_estimate, full_report,
                     interference_suppression, make_graph, noisy_sample,
                     routing_estimate, tv_distance)

PUBLIC_NAMES = [
    "COUNTS", "CheckResult", "Chi2Result", "Circuit", "CostEstimate",
    "CouplingGraph", "DEFAULT_SEED", "Distribution", "FixedPointReport",
    "GATE_KINDS", "Gate", "GateCensus", "MAX_PAIRS", "MAX_QUBITS",
    "MetricsConfig", "MetricsReport", "NEGATED", "NoiseProfile",
    "OR_ACCUMULATE", "PARITY", "POSITIVE", "PROBABILITY", "RuleResult",
    "StateVector", "TruthTableRow", "apply_gate", "apply_pauli", "basis_state",
    "build_general", "build_liar_literal", "build_liar_reference",
    "bundled_table_names", "ccx", "chi_squared_gof", "classical_rule", "cnot",
    "consistency_fidelity", "contradiction_projector", "cp", "expand_toffolis",
    "fidelity_estimate", "fixed_point_report", "full_report", "gate_census",
    "global_consistency_projector", "h", "init_zero",
    "interference_suppression", "load_bundled_graph", "load_circuit",
    "load_reference_table", "logic_hamiltonian", "make_graph", "noisy_sample",
    "p", "parse_graph_text", "probabilities", "read_distribution_csv",
    "routing_estimate", "run_circuit", "sample_counts", "save_circuit",
    "taylor_exponential", "toffoli_decompose", "truth_table", "tv_distance",
    "verification_suite", "violation_count", "write_counts_csv", "x", "z_flag",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(liarsim).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


_D = Distribution(4, {"1001": 0.5, "1010": 0.5}, "probability")
_COUNTS = Distribution(4, {"1001": 3, "0110": 1}, "counts")
_LIAR = build_liar_reference()
_ENTRY_POINTS = {
    "Distribution state": lambda v: Distribution(
        2, {tuple(v) if isinstance(v, list) else v: 0.5}, "probability"),
    "Distribution entries": lambda v: Distribution(2, v, "probability"),
    "Distribution value": lambda v: Distribution(2, {"01": v}, "probability"),
    "consistency_fidelity set": lambda v: consistency_fidelity(_D, v),
    "consistency_fidelity state": lambda v: consistency_fidelity(_D, [v]),
    "interference_suppression set": lambda v: interference_suppression(_D, _D, v),
    "interference_suppression state": lambda v: interference_suppression(_D, _D, [v]),
    "full_report consistent state": lambda v: full_report(
        _D, _D, MetricsConfig(consistent_set=[v])),
    "full_report paradox set": lambda v: full_report(
        _D, _D, MetricsConfig(consistent_set=["1001"], paradox_set=v)),
    "Circuit gates": lambda v: Circuit(2, gates=v),
    "Circuit gate": lambda v: Circuit(2, gates=[v]),
    "Circuit roles": lambda v: Circuit(2, roles=v),
    "Circuit.add": lambda v: Circuit(2).add(v),
    "NoiseProfile p_1q": lambda v: NoiseProfile(p_1q=v),
    "NoiseProfile p_2q": lambda v: NoiseProfile(p_2q=v),
    "NoiseProfile p_readout": lambda v: NoiseProfile(p_readout=v),
    "fidelity_estimate g_2q": lambda v: fidelity_estimate(v, 0, NoiseProfile()),
    "fidelity_estimate g_1q": lambda v: fidelity_estimate(0, v, NoiseProfile()),
    "fidelity_estimate profile": lambda v: fidelity_estimate(1, 1, v),
    "noisy_sample circuit": lambda v: noisy_sample(v, NoiseProfile(), 10),
    "noisy_sample profile": lambda v: noisy_sample(_LIAR, v, 10),
    "routing_estimate profile": lambda v: routing_estimate(
        _LIAR, make_graph("linear", 4), None, v),
    "consistency_fidelity dist": lambda v: consistency_fidelity(v, ["1001"]),
    "tv_distance p": lambda v: tv_distance(v, _D),
    "tv_distance q": lambda v: tv_distance(_D, v),
    "interference_suppression experimental": lambda v: interference_suppression(
        v, _D, ["0110"]),
    "interference_suppression ideal": lambda v: interference_suppression(
        _D, v, ["0110"]),
    "chi_squared_gof observed": lambda v: chi_squared_gof(v, _D),
    "chi_squared_gof expected": lambda v: chi_squared_gof(_COUNTS, v),
    "full_report experimental": lambda v: full_report(v, _D),
    "full_report ideal": lambda v: full_report(_COUNTS, v),
}
_WRONG_TYPES = st.one_of(
    st.none(), st.text(max_size=6), st.floats(),
    st.lists(st.none() | st.integers() | st.text(max_size=4), max_size=3),
    st.builds(object))


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
@given(value=_WRONG_TYPES)
def test_wrong_typed_arguments_raise_only_value_error(entry, value):
    try:
        _ENTRY_POINTS[entry](value)
    except ValueError:
        pass
