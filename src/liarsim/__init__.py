"""Statevector simulation and operator-algebra verification for circuits
that track logical consistency on a shared flag qubit.

Subpackage map: circuit (gate/circuit types and builders), statevec (the
simulator), dist (outcome distributions and CSV I/O), logic_ops (diagonal
projector algebra and the classical flag rule), metrics (distribution
comparison metrics), hardware_model (noise channel and cost estimates),
cli (command-line entry point).
"""

__version__ = "0.1.0"

from .circuit import (GATE_KINDS, NEGATED, OR_ACCUMULATE, PARITY, POSITIVE,
                      Circuit, Gate, GateCensus, PairLayout, build_general,
                      build_liar_literal, build_liar_reference, ccx, cnot, cp,
                      expand_toffolis, gate_census, gate_inverse, h,
                      load_circuit, p, save_circuit, toffoli_decompose, x)
from .dist import (COUNTS, PROBABILITY, Distribution, bundled_table_names,
                   load_reference_table, read_distribution_csv,
                   write_counts_csv)
from .hardware_model import (CostEstimate, CouplingGraph, NoiseProfile,
                             fidelity_estimate, load_bundled_graph,
                             make_graph, noisy_sample, parse_graph_text,
                             routing_estimate)
from .logic_ops import (MAX_PAIRS, CheckResult, FixedPointReport, RuleResult,
                        TruthTableRow, classical_rule,
                        contradiction_projector, fixed_point_report,
                        global_consistency_projector, logic_hamiltonian,
                        projector_exponential, reflection, taylor_exponential,
                        truth_table, verification_suite, violation_count)
from .metrics import (Chi2Result, MetricsConfig, MetricsReport,
                      chi_squared_gof, consistency_fidelity, full_report,
                      interference_suppression, tv_distance, z_flag)
from .statevec import (DEFAULT_SEED, MAX_QUBITS, StateVector, apply_gate,
                       apply_pauli, basis_state, bit_of, bitstring, init_zero,
                       probabilities, run_circuit, sample_counts, state_norm,
                       z_expectation)
