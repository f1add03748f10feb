"""Noise channel, coupling graphs, routing cost, and the fidelity model."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liarsim import hardware_model
from liarsim.circuit import (GATE_KINDS, NEGATED, OR_ACCUMULATE, PARITY,
                             POSITIVE, Circuit, Gate, _is_int, build_general,
                             build_liar_reference, ccx, cnot, cp,
                             expand_toffolis, gate_census, h, p, x)
from liarsim.dist import COUNTS
from liarsim.hardware_model import (MAX_GRAPH_NODES, CostEstimate,
                                    CouplingGraph, NoiseProfile,
                                    fidelity_estimate, load_bundled_graph,
                                    make_graph, noisy_sample, parse_graph_text,
                                    routing_estimate)
from liarsim.metrics import chi_squared_gof, consistency_fidelity, tv_distance
from liarsim.statevec import MAX_SHOTS, StateVector, probabilities, run_circuit

from noise_oracle import noisy_distribution, noisy_probabilities, readout_matrix
from sampler_oracle import signature_sample

ORACLE_CIRCUITS = {
    "liar-reference": build_liar_reference(),
    "parity2-phase": build_general(2, PARITY, with_phase=True),
    "or2": build_general(2, OR_ACCUMULATE),
    # faults between the two H layers interfere, so X, Y and Z faults on
    # qubits 0 and 1 leave different fingerprints on the outcome
    "interferometer": Circuit(3, [h(0), h(1), p(0.6, 0), cnot(0, 2),
                                  ccx(0, 1, 2), cp(0.9, 1, 2), h(0), h(1)]),
}
DEFAULT_RATES = (1e-4, 1e-3, 0.015)
HIGH_RATES = (1e-3, 1e-2, 0.15)  # every rate 10x the default
# gate faults only, frequent enough that the choice of Pauli shows in 50k shots
STRONG_GATE_RATES = (0.05, 0.1, 0.0)


# ---------------------------------------------------------------------------
# profiles

def test_noise_profile_defaults_and_validation():
    profile = NoiseProfile()
    assert profile.p_2q == 1e-3
    assert profile.p_1q == 1e-4
    assert profile.p_readout == 0.015
    with pytest.raises(ValueError, match="p_2q"):
        NoiseProfile(p_2q=1.5)
    with pytest.raises(ValueError, match="p_readout"):
        NoiseProfile(p_readout=-0.1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        NoiseProfile(seed=-1)


# ---------------------------------------------------------------------------
# graphs

def test_linear_and_ring_graphs():
    linear = make_graph("linear", size=4)
    assert linear.edges == ((0, 1), (1, 2), (2, 3))
    assert linear.max_degree() == 2
    ring = make_graph("ring", size=3)
    assert len(ring.edges) == 3
    assert ring.is_connected()
    with pytest.raises(ValueError):
        make_graph("linear", size=1)
    with pytest.raises(ValueError):
        make_graph("ring", size=2)
    with pytest.raises(ValueError, match="unknown graph kind"):
        make_graph("torus", size=4)


def test_graph_normalizes_and_validates_edges():
    graph = CouplingGraph(3, ((2, 0), (0, 2), (1, 0)))
    assert graph.edges == ((0, 1), (0, 2))
    with pytest.raises(ValueError, match="self-loop"):
        CouplingGraph(2, ((1, 1),))
    with pytest.raises(ValueError, match="outside"):
        CouplingGraph(2, ((0, 5),))
    # an edge read once, as an iterator is, is checked on the nodes it gave
    assert CouplingGraph(3, [iter((2, 0))]).edges == ((0, 2),)
    with pytest.raises(ValueError, match="outside"):
        CouplingGraph(3, [iter((0, 5))])
    for edges in ((5,), ((5,),), ((0, 1, 2),)):
        with pytest.raises(ValueError, match=r"edge .* is not a pair of nodes"):
            CouplingGraph(3, edges)
    for edges in (5, None):
        with pytest.raises(ValueError, match=r"edges must be an iterable"):
            CouplingGraph(3, edges)


def _reference_edges(num_nodes: int, edges) -> tuple:
    """The edge check CouplingGraph made one edge at a time before its fast
    path: the sorted, deduplicated (low, high) pairs, or its ValueError."""
    normalized = set()
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a pair of nodes") from None
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if not all(_is_int(q) and 0 <= q < num_nodes for q in edge):
            raise ValueError(f"edge {edge} has a node outside the integers "
                             f"0..{num_nodes - 1}")
        normalized.add((int(min(u, v)), int(max(u, v))))
    return tuple(sorted(normalized))


_NODES = st.one_of(st.integers(0, 5), st.sampled_from(
    [-1, 6, 10**20, np.int64(2), np.uint8(4), True, 1.0, "1", None]))
_EDGES = st.one_of(st.tuples(_NODES, _NODES), st.lists(_NODES, min_size=2, max_size=2),
                   st.sampled_from([(), (0,), (0, 1, 2), 5, None, "01"]))


@settings(max_examples=400)
@given(edges=st.lists(st.one_of(st.tuples(st.integers(0, 5), st.integers(0, 5)), _EDGES),
                      max_size=8))
def test_graph_edges_match_the_reference_check(edges):
    try:
        want = _reference_edges(6, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            CouplingGraph(6, edges)
        assert str(got.value) == str(exc)
        return
    graph = CouplingGraph(6, edges)
    assert graph.edges == want
    assert all(type(q) is int for edge in graph.edges for q in edge)
    assert graph._adj == tuple(tuple(sorted({v for e in want if u in e for v in e} - {u}))
                               for u in range(6))


def test_bfs_distance():
    chain = make_graph("linear", size=6)
    assert chain.distance(0, 5) == 5
    assert chain.distance(2, 2) == 0
    assert chain.distance(4, 3) == 1
    split = CouplingGraph(4, ((0, 1), (2, 3)))
    assert split.distance(0, 3) == -1
    assert not split.is_connected()
    with pytest.raises(ValueError):
        chain.distance(0, 9)


def test_parse_graph_text():
    graph = parse_graph_text("# comment\n0 1\n1 2  # trailing\n\n")
    assert graph.num_nodes == 3
    assert graph.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError, match=":2: expected"):
        parse_graph_text("0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="non-integer"):
        parse_graph_text("a b\n")
    with pytest.raises(ValueError, match="no edges"):
        parse_graph_text("# nothing\n")
    with pytest.raises(ValueError, match="self-loop"):
        parse_graph_text("3 3\n")


@pytest.mark.parametrize("nodes", [MAX_GRAPH_NODES + 1, 10**20])
def test_graph_node_cap(nodes):
    for kind in ("linear", "ring"):
        with pytest.raises(ValueError, match=f"size in .*{MAX_GRAPH_NODES}"):
            make_graph(kind, size=nodes)
    with pytest.raises(ValueError, match=f"1..{MAX_GRAPH_NODES} nodes"):
        CouplingGraph(nodes, ())
    with pytest.raises(ValueError, match=f":2: node index above {MAX_GRAPH_NODES - 1}"):
        parse_graph_text(f"0 1\n0 {nodes - 1}\n")
    assert make_graph("ring", size=MAX_GRAPH_NODES).num_nodes == MAX_GRAPH_NODES


def test_graph_from_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    graph = parse_graph_text(path.read_text(), str(path))
    assert graph.num_nodes == 3
    with pytest.raises(ValueError, match="unknown graph kind 'from_file'"):
        make_graph("from_file", 3)


def test_bundled_graph_is_heavy_hex_like():
    graph = load_bundled_graph()
    assert graph.num_nodes == 27
    assert graph.max_degree() == 3
    assert graph.is_connected()


# ---------------------------------------------------------------------------
# fidelity model

def test_fidelity_estimate_closed_form():
    assert fidelity_estimate(0, 0, NoiseProfile(0.0, 0.0, 0.0)) == 1.0
    profile = NoiseProfile(p_1q=0.0, p_2q=1e-3)
    assert fidelity_estimate(30, 0, profile) == pytest.approx(math.exp(-0.03), abs=1e-12)
    assert fidelity_estimate(3000, 0, profile) == pytest.approx(0.0498, abs=1e-4)
    with pytest.raises(ValueError):
        fidelity_estimate(-1, 0, profile)


def test_fidelity_estimate_strictly_decreasing():
    base = dict(g_2q=10, g_1q=20, p_2q=1e-3, p_1q=1e-4)
    value = fidelity_estimate(base["g_2q"], base["g_1q"],
                              NoiseProfile(base["p_1q"], base["p_2q"]))
    for bump in ("g_2q", "g_1q", "p_2q", "p_1q"):
        grown = dict(base)
        grown[bump] = grown[bump] * 2
        worse = fidelity_estimate(grown["g_2q"], grown["g_1q"],
                                  NoiseProfile(grown["p_1q"], grown["p_2q"]))
        assert worse < value


# ---------------------------------------------------------------------------
# routing

def test_routing_adjacent_interactions_cost_nothing():
    circuit = Circuit(3, [cnot(0, 1), cnot(1, 2)])
    est = routing_estimate(circuit, make_graph("linear", size=3))
    assert est.swap_overhead_cnots == 0
    assert est.mean_distance == 1.0
    assert est.g_2q == 2


def test_routing_distance_three_costs_twelve():
    circuit = Circuit(4, [cnot(0, 3)])
    est = routing_estimate(circuit, make_graph("linear", size=4))
    # two SWAPs of three CNOTs each, forward and back
    assert est.swap_overhead_cnots == 12
    assert est.mean_distance == 3.0


def test_routing_expands_toffolis_and_reports_census():
    circuit = build_general(4)
    est = routing_estimate(circuit, make_graph("linear", size=9),
                           profile=NoiseProfile(p_1q=0.0, p_2q=1e-3))
    assert est.g_2q == 24  # 6 CNOTs per pair, 4 pairs
    assert est.g_1q == 44
    assert est.fidelity == pytest.approx(math.exp(-0.024), abs=1e-12)
    assert est.depth > 0
    assert isinstance(est, CostEstimate)
    assert est.to_dict()["g_2q"] == 24


def test_routing_overhead_zero_on_matching_topology():
    # interactions all touch the flag; a star graph hosts them at distance 1
    circuit = build_general(2)
    expanded_pairs = {(0, 4), (2, 4), (0, 2), (1, 3), (1, 4), (3, 4)}
    star_edges = tuple((u, v) for u, v in expanded_pairs)
    graph = CouplingGraph(5, star_edges)
    est = routing_estimate(circuit, graph)
    assert est.swap_overhead_cnots == 0


def test_routing_layout_validation():
    circuit = Circuit(2, [cnot(0, 1)])
    graph = make_graph("linear", size=4)
    est = routing_estimate(circuit, graph, layout=(0, 3))
    assert est.swap_overhead_cnots == 2 * 2 * 3
    with pytest.raises(ValueError, match="layout"):
        routing_estimate(circuit, graph, layout=(0,))
    with pytest.raises(ValueError, match="one node"):
        routing_estimate(circuit, graph, layout=(1, 1))
    with pytest.raises(ValueError, match="disconnected"):
        routing_estimate(circuit, CouplingGraph(4, ((0, 1), (2, 3))),
                         layout=(0, 2))
    # an entry is a node index, never rounded or parsed
    for entry in (1.7, 1.0, "1", True, None):
        with pytest.raises(ValueError) as info:
            routing_estimate(circuit, graph, layout=(0, entry))
        assert str(info.value) == f"layout entry {entry!r} is not an integer"
    est = routing_estimate(circuit, graph, layout=(np.int64(0), np.int32(3)))
    assert est.swap_overhead_cnots == 2 * 2 * 3


def test_routing_default_layout_needs_a_node_per_qubit():
    circuit = Circuit(4, [cnot(0, 3)])
    with pytest.raises(ValueError) as info:
        routing_estimate(circuit, make_graph("linear", size=3))
    assert str(info.value) == "circuit has 4 qubits but the graph has only 3 nodes"
    # an explicit layout keeps its own message
    with pytest.raises(ValueError) as info:
        routing_estimate(circuit, make_graph("linear", size=3), layout=(0, 1, 2, 3))
    assert str(info.value) == "layout node 3 outside the 3-node graph"


def _relaxed_distances(graph: CouplingGraph) -> list[list[int]]:
    """All-pairs hop counts by edge relaxation, sharing no code with the
    BFS; -1 where unreachable."""
    inf = graph.num_nodes
    dist = [[0 if u == v else inf for v in range(inf)] for u in range(inf)]
    for _ in range(graph.num_nodes):
        for u, v in graph.edges:
            for s in range(graph.num_nodes):
                best = min(dist[s][u], dist[s][v]) + 1
                dist[s][u] = min(dist[s][u], best)
                dist[s][v] = min(dist[s][v], best)
    return [[-1 if d == inf else d for d in row] for row in dist]


@settings(max_examples=60)
@given(data=st.data(), nodes=st.integers(3, 9), width=st.integers(2, 5),
       connected=st.booleans())
def test_routing_matches_per_pair_distance(data, nodes, width, connected):
    width = min(width, nodes)
    chain = [(i, i + 1) for i in range(nodes - 1)] if connected else []
    extra = data.draw(st.lists(st.tuples(st.integers(0, nodes - 1),
                                         st.integers(0, nodes - 1))
                               .filter(lambda e: e[0] != e[1]), max_size=8))
    graph = CouplingGraph(nodes, tuple(chain + extra))
    layout = data.draw(st.permutations(range(nodes)))[:width]
    pairs = data.draw(st.lists(st.lists(st.integers(0, width - 1), min_size=2,
                                        max_size=2, unique=True),
                               min_size=1, max_size=12))
    circuit = Circuit(width, [cnot(a, b) for a, b in pairs])

    oracle = _relaxed_distances(graph)
    keys = [(layout[min(pair)], layout[max(pair)]) for pair in pairs]
    per_pair = [graph.distance(*key) for key in keys]
    assert per_pair == [oracle[u][v] for u, v in keys]
    assert graph.is_connected() == all(d >= 0 for d in oracle[0])
    cut = next((key for key, d in zip(keys, per_pair) if d < 0), None)
    if cut is not None:
        with pytest.raises(ValueError) as info:
            routing_estimate(circuit, graph, layout=layout)
        assert str(info.value) == f"nodes {cut} are disconnected in the coupling graph"
        return
    est = routing_estimate(circuit, graph, layout=layout)
    assert est.mean_distance == float(np.mean(per_pair))
    assert est.swap_overhead_cnots == 2 * sum((d - 1) * 3 for d in per_pair)


def _expanded_estimate(circuit, graph, layout, profile) -> CostEstimate:
    """The estimate from the built Toffoli expansion: gate_census for the
    counts and depth, CouplingGraph.distance for every two-qubit gate."""
    expanded = expand_toffolis(circuit)
    census = gate_census(expanded)
    distances = [graph.distance(layout[min(gate.qubits)], layout[max(gate.qubits)])
                 for gate in expanded.gates if len(gate.qubits) == 2]
    return CostEstimate(
        g_1q=census.count_1q, g_2q=census.count_2q, depth=census.depth,
        mean_distance=float(np.mean(distances)) if distances else 0.0,
        swap_overhead_cnots=2 * sum((d - 1) * 3 for d in distances),
        fidelity=fidelity_estimate(census.count_2q, census.count_1q, profile))


@st.composite
def _routed_gates(draw, width):
    """Gates of all six kinds over `width` qubits, controls at either polarity."""
    gates = []
    for kind in draw(st.lists(st.sampled_from(GATE_KINDS), max_size=16)):
        q = draw(st.permutations(range(width)))
        pol = draw(st.lists(st.sampled_from((POSITIVE, NEGATED)), min_size=2, max_size=2))
        if kind in ("H", "X"):
            gates.append(Gate(kind, (q[0],)))
        elif kind == "P":
            gates.append(p(0.5, q[0]))
        elif kind == "CNOT":
            gates.append(cnot(q[0], q[1], pol[0]))
        elif kind == "CP":
            gates.append(cp(-0.25, q[0], q[1], pol[0]))
        else:
            gates.append(ccx(q[0], q[1], q[2], *pol))
    return gates


@st.composite
def _routing_graphs(draw, width):
    """Paths and rings on 0..N-1 (closed form), a relabeled path given as an
    edge list, a random connected graph, or the bundled graph."""
    kind = draw(st.sampled_from(("linear", "ring", "relabeled", "random", "bundled")))
    nodes = width + draw(st.integers(0, 4))
    if kind in ("linear", "ring"):
        return make_graph(kind, size=max(nodes, 3))
    if kind == "bundled":
        return load_bundled_graph()
    label = draw(st.permutations(range(nodes)))
    if kind == "relabeled":
        text = "".join(f"{label[i]} {label[i + 1]}\n" for i in range(nodes - 1))
        return parse_graph_text(text)
    # a random tree spans the nodes; extra edges add cycles
    tree = [(label[i], label[draw(st.integers(0, i - 1))]) for i in range(1, nodes)]
    extra = draw(st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=6))
    return CouplingGraph(nodes, tuple(tree + extra))


@settings(max_examples=300)
@given(data=st.data(), width=st.integers(3, 8))
def test_routing_matches_the_built_expansion(data, width):
    gates = data.draw(_routed_gates(width))
    graph = data.draw(_routing_graphs(width))
    layout_kind = data.draw(st.sampled_from(("identity", "reversed", "random")))
    if layout_kind == "identity":
        layout = None
    elif layout_kind == "reversed":
        # physical pairs then run high to low
        layout = tuple(range(graph.num_nodes - 1, graph.num_nodes - 1 - width, -1))
    else:
        layout = tuple(data.draw(st.permutations(range(graph.num_nodes)))[:width])
    profile = NoiseProfile(p_1q=1e-3, p_2q=2e-2)
    circuit = Circuit(width, gates)
    est = routing_estimate(circuit, graph, layout=layout, profile=profile)
    assert est == _expanded_estimate(circuit, graph, layout or tuple(range(width)),
                                     profile)


def test_routing_names_a_cut_toffoli_pair_low_qubit_first():
    # node 2 is cut off; the expansion's second CNOT joins qubits 2 and 0
    circuit = Circuit(3, [ccx(2, 1, 0, NEGATED, POSITIVE)])
    graph = CouplingGraph(3, ((0, 1),))
    cut = [gate.qubits for gate in expand_toffolis(circuit).gates
           if len(gate.qubits) == 2 and 2 in gate.qubits][0]
    assert cut == (2, 0)
    with pytest.raises(ValueError) as info:
        routing_estimate(circuit, graph)
    assert str(info.value) == "nodes (0, 2) are disconnected in the coupling graph"


# ---------------------------------------------------------------------------
# noisy sampling

def test_zero_noise_keeps_consistent_outcomes():
    profile = NoiseProfile(0.0, 0.0, 0.0, seed=9)
    counts = noisy_sample(build_liar_reference(), profile, 2000)
    assert counts.kind == COUNTS
    assert counts.total_shots == 2000
    assert consistency_fidelity(counts, ("1001", "1010")) == 1.0


def test_full_readout_error_inverts_a_deterministic_state():
    circuit = Circuit(4, [x(1), x(3)])  # prepares |1010>
    assert probabilities(run_circuit(circuit)).entries == {"1010": 1.0}
    profile = NoiseProfile(0.0, 0.0, 1.0, seed=1)
    counts = noisy_sample(circuit, profile, 200)
    assert counts.entries == {"0101": 200.0}


def test_zero_noise_sampling_matches_ideal_statistics():
    circuit = build_liar_reference()
    profile = NoiseProfile(0.0, 0.0, 0.0, seed=4)
    counts = noisy_sample(circuit, profile, 100_000)
    ideal = probabilities(run_circuit(circuit))
    assert tv_distance(counts, ideal) < 0.02


def test_noisy_sample_deterministic_and_mergeable():
    circuit = build_liar_reference()
    profile = NoiseProfile(seed=77)
    full = noisy_sample(circuit, profile, 600)
    again = noisy_sample(circuit, profile, 600)
    assert full.entries == again.entries
    head = noisy_sample(circuit, profile, 350)
    tail = noisy_sample(circuit, profile, 250, first_shot=350)
    merged = dict(head.entries)
    for state, value in tail.entries.items():
        merged[state] = merged.get(state, 0.0) + value
    assert merged == full.entries
    other_seed = noisy_sample(circuit, NoiseProfile(seed=78), 600)
    assert other_seed.entries != full.entries


def test_readout_rate_degrades_fidelity_monotonically():
    circuit = build_liar_reference()
    means = []
    for p_read in (0.0, 0.02, 0.05):
        values = []
        for s in range(10):
            counts = noisy_sample(circuit,
                                  NoiseProfile(p_readout=p_read, seed=500 + s),
                                  2048)
            values.append(consistency_fidelity(counts, ("1001", "1010")))
        means.append(sum(values) / len(values))
    assert means[0] > means[1] + 0.01
    assert means[1] > means[2] + 0.01


def test_noisy_sample_validates_arguments():
    circuit = build_liar_reference()
    with pytest.raises(ValueError):
        noisy_sample(circuit, NoiseProfile(), 0)
    with pytest.raises(ValueError):
        noisy_sample(circuit, NoiseProfile(), 10, first_shot=-1)
    for shots in (MAX_SHOTS + 1, 10**20):
        with pytest.raises(ValueError, match=f"shots must be in 1..{MAX_SHOTS}"):
            noisy_sample(circuit, NoiseProfile(), shots)


def _merge(*dists):
    merged: dict = {}
    for dist in dists:
        for state, value in dist.entries.items():
            merged[state] = merged.get(state, 0.0) + value
    return merged


@given(name=st.sampled_from(sorted(ORACLE_CIRCUITS)),
       rates=st.sampled_from([DEFAULT_RATES, HIGH_RATES]),
       seed=st.integers(0, 2**40),
       chunk_draws=st.sampled_from([1, 100, 250, hardware_model._CHUNK_DRAWS]),
       head=st.integers(1, 300), tail=st.integers(1, 300))
@settings(max_examples=60)
def test_noisy_sample_split_anywhere_merges_exactly(name, rates, seed, chunk_draws,
                                                    head, tail):
    # small chunk budgets put chunk boundaries inside and across both parts
    circuit = ORACLE_CIRCUITS[name]
    profile = NoiseProfile(*rates, seed=seed)
    with mock.patch.object(hardware_model, "_CHUNK_DRAWS", chunk_draws):
        first = noisy_sample(circuit, profile, head)
        second = noisy_sample(circuit, profile, tail, first_shot=head)
    whole = noisy_sample(circuit, profile, head + tail)
    assert _merge(first, second) == whole.entries
    assert first.total_shots + second.total_shots == whole.total_shots


def _same_counts(a, b) -> bool:
    return (a.total_shots == b.total_shots and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.values, b.values))


_RATES = st.sampled_from([0.0, 1e-3, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0)
_CONTROLS = {"X": 0, "P": 0, "CNOT": 1, "CP": 1, "CCX": 2}


@st.composite
def _monomial_circuits(draw):
    """An H-free circuit on 1-14 qubits: X, CNOT, CCX, P and CP gates, each
    control positive or negated."""
    n = draw(st.integers(1, 14))
    kinds = [kind for kind, controls in _CONTROLS.items() if controls < n]
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        *controls, target = draw(st.permutations(range(n)))[:_CONTROLS[kind] + 1]
        polarities = tuple(draw(st.sampled_from([POSITIVE, NEGATED])) for _ in controls)
        angle = draw(st.floats(-4.0, 4.0)) if kind in ("P", "CP") else None
        gates.append(Gate(kind, (target,), tuple(controls), polarities, angle))
    return Circuit(n, gates)


@given(circuit=_monomial_circuits(), p_1q=_RATES, p_2q=_RATES,
       p_readout=st.sampled_from([0.0, 0.015, 0.5, 1.0]),
       seed=st.integers(0, 2**40),
       chunk_draws=st.sampled_from([1, 100, 250, hardware_model._CHUNK_DRAWS]),
       head=st.integers(1, 150), tail=st.integers(1, 150))
@settings(max_examples=80, deadline=None)
def test_frame_path_matches_the_signature_sampler(circuit, p_1q, p_2q, p_readout,
                                                 seed, chunk_draws, head, tail):
    # faulty shots of an H-free circuit run as basis-index frames; the
    # per-signature dense sampler they replaced must give the same counts,
    # shard by shard, whatever the chunking
    profile = NoiseProfile(p_1q, p_2q, p_readout, seed=seed)
    with mock.patch.object(hardware_model, "_CHUNK_DRAWS", chunk_draws), \
            mock.patch.object(hardware_model, "init_zero") as dense_start:
        first = noisy_sample(circuit, profile, head)
        second = noisy_sample(circuit, profile, tail, first_shot=head)
    assert dense_start.call_count == 0  # no shot took the per-signature path
    assert _same_counts(first, signature_sample(circuit, profile, head))
    assert _same_counts(second, signature_sample(circuit, profile, tail, first_shot=head))
    assert _merge(first, second) == noisy_sample(circuit, profile, head + tail).entries


@pytest.mark.parametrize("circuit", [
    build_general(3, OR_ACCUMULATE),
    # 3 H on 13 qubits: the ideal ends on an 8-state support, with P phases
    Circuit(13, [h(0), h(4), h(9), cnot(0, 1), ccx(1, 4, 12, NEGATED),
                 p(0.7, 12), cp(1.3, 9, 2), x(5)]),
], ids=["or3", "three-h"])
@pytest.mark.parametrize("rates", [DEFAULT_RATES, HIGH_RATES], ids=["default", "10x"])
def test_support_held_ideal_samples_as_its_dense_copy(circuit, rates):
    ideal = run_circuit(circuit)
    assert ideal._support is not None
    dense = StateVector(circuit.num_qubits, run_circuit(circuit).amplitudes)
    profile = NoiseProfile(*rates, seed=5)
    for shots in (1, 1024, 20_000):
        got = noisy_sample(circuit, profile, shots, ideal=ideal)
        assert ideal._support is not None  # read without densifying it
        assert _same_counts(got, noisy_sample(circuit, profile, shots, ideal=dense))


def test_support_ideal_closes_its_cumulative_with_the_last_index():
    # a support whose cumulative tops out below 1.0: a dense draw above it
    # is clamped to index 2**n - 1, and the support's draw must land there too
    n = 12
    for size in range(2, 64):  # equal weights on `size` states; rounding picks the top
        index = np.arange(0, 7 * size, 7, dtype=np.int64)
        amps = np.full(size, np.sqrt(1.0 / size), dtype=np.complex128)
        support = StateVector(n, support=(index, amps))
        table = hardware_model._outcome_table(support)
        cumulative, closed = table
        top = cumulative[-2]  # the support's last value
        if top < 1.0:
            break
    else:
        pytest.fail("every support summed to 1.0 or more")
    assert closed.tolist() == index.tolist() + [(1 << n) - 1]
    dense = StateVector(n, StateVector(n, support=(index, amps)).amplitudes)
    u = np.array([0.0, 0.3, 0.6, np.nextafter(top, 0.0), top, np.nextafter(1.0, 0.0)])
    got = hardware_model._draw_outcomes(table, u)
    assert got.tolist() == hardware_model._draw_outcomes(
        hardware_model._outcome_table(dense), u).tolist()
    assert got[-2:].tolist() == [(1 << n) - 1] * 2


# ---------------------------------------------------------------------------
# exact noise oracle

@pytest.mark.parametrize("name", sorted(ORACLE_CIRCUITS))
@pytest.mark.parametrize("p_readout", [0.0, 0.015, 0.15])
def test_oracle_without_gate_noise_is_ideal_through_readout(name, p_readout):
    circuit = ORACLE_CIRCUITS[name]
    ideal = np.abs(run_circuit(circuit).amplitudes) ** 2
    expected = readout_matrix(circuit.num_qubits, p_readout) @ ideal
    got = noisy_probabilities(circuit, NoiseProfile(0.0, 0.0, p_readout))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(ORACLE_CIRCUITS))
@pytest.mark.parametrize("rates", [DEFAULT_RATES, HIGH_RATES, STRONG_GATE_RATES],
                         ids=["default", "10x", "strong-gates"])
def test_sampler_matches_exact_noise_oracle(name, rates):
    circuit = ORACLE_CIRCUITS[name]
    profile = NoiseProfile(*rates, seed=31)
    exact = noisy_distribution(circuit, profile)
    assert sum(exact.entries.values()) == pytest.approx(1.0, abs=1e-12)
    counts = noisy_sample(circuit, profile, 50_000)
    result = chi_squared_gof(counts, exact)
    assert result.dof >= 3
    assert result.p_value > 1e-3, result
