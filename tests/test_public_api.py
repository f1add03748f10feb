"""The package's public names, pinned: a name added to or dropped from
`liarsim/__init__.py` changes this list in the same diff."""

import types

import liarsim

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
