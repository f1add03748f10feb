"""Noise channel, coupling graphs, and gate-cost estimates.

The noise model is a Monte Carlo trajectory sampler: after every gate, with a
per-gate-class probability, one uniformly random Pauli lands on one involved
qubit; at measurement each readout bit flips independently.  All draws come
from one counter-based Philox stream keyed by the seed, and every shot owns a
fixed block of it at an offset set by its shot index, so results never depend
on execution order or chunking and sharded runs merge exactly into serial ones.

Shots without a gate fault draw from the ideal distribution.  Faulty shots
take one of two paths, picked by the circuit alone.  Without an H gate every
gate and Pauli maps a basis state to a basis state, so a faulty shot is one
int64 basis index, its Pauli frame (Gidney, "Stim: a fast stabilizer circuit
simulator", Quantum 5, 497 (2021), restricted to monomial circuits): all
faulty shots of a chunk go through the gates together.  With an H, each
distinct fault signature is simulated once on the dense kernel.  Both paths
give the counts of the same draws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources
from itertools import groupby, product
from operator import itemgetter

import numpy as np

from .circuit import (NEGATED, POSITIVE, Circuit, _is_int, ccx,
                      toffoli_decompose)
from .dist import COUNTS, Distribution
from .statevec import (DEFAULT_SEED, MAX_SHOTS, StateVector, _monomial_step,
                       _sampling_table, apply_gate, apply_pauli, init_zero,
                       run_circuit)

BUNDLED_GRAPH_NAME = "heavy_hex_example.txt"
# Graphs hold per-node lists, so node counts and indices are checked against
# this before anything is built (the bundled graph has 27 nodes).
MAX_GRAPH_NODES = 65536


@dataclass(frozen=True)
class NoiseProfile:
    """Error rates: single-qubit and multi-qubit gate Pauli rates plus an
    independent readout flip probability.  Defaults reflect typical
    superconducting-device rates."""

    p_1q: float = 1e-4
    p_2q: float = 1e-3
    p_readout: float = 0.015
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("p_1q", "p_2q", "p_readout"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))


# ---------------------------------------------------------------------------
# coupling graphs

@dataclass(frozen=True)
class CouplingGraph:
    num_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not (_is_int(self.num_nodes) and 1 <= self.num_nodes <= MAX_GRAPH_NODES):
            raise ValueError(f"graph needs 1..{MAX_GRAPH_NODES} nodes, "
                             f"got {self.num_nodes!r}")
        object.__setattr__(self, "num_nodes", int(self.num_nodes))
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not all(_is_int(q) and 0 <= q < self.num_nodes for q in edge):
                raise ValueError(f"edge {edge} has a node outside the integers "
                                 f"0..{self.num_nodes - 1}")
            normalized.add((int(min(u, v)), int(max(u, v))))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        # built once per graph; not a field, so equality and repr ignore it
        object.__setattr__(self, "_adj", tuple(tuple(nbrs) for nbrs in adj))

    def _distances_from(self, start: int) -> list[int]:
        """BFS shortest-path lengths in edges from start to every node; -1
        where unreachable."""
        adj = self._adj
        dist = [-1] * self.num_nodes
        dist[start] = 0
        order = [start]
        for node in order:  # the queue: nodes are appended as they are reached
            depth = dist[node] + 1
            for nxt in adj[node]:
                if dist[nxt] < 0:
                    dist[nxt] = depth
                    order.append(nxt)
        return dist

    def distance(self, start: int, goal: int) -> int:
        """BFS shortest-path length in edges; -1 if unreachable."""
        if not all(_is_int(q) and 0 <= q < self.num_nodes for q in (start, goal)):
            raise ValueError(f"node out of range: {start!r}, {goal!r}")
        return self._distances_from(start)[goal]

    def is_connected(self) -> bool:
        return -1 not in self._distances_from(0)

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj), default=0)


def parse_graph_text(text: str, where: str = "<graph>") -> CouplingGraph:
    """Edge-list format: one "u v" pair per line, '#' starts a comment."""
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{where}:{lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{where}:{lineno}: non-integer node in {raw!r}") from exc
        if u < 0 or v < 0:
            raise ValueError(f"{where}:{lineno}: negative node index")
        if max(u, v) >= MAX_GRAPH_NODES:
            raise ValueError(f"{where}:{lineno}: node index above "
                             f"{MAX_GRAPH_NODES - 1}")
        if u == v:
            raise ValueError(f"{where}:{lineno}: self-loop on node {u}")
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise ValueError(f"{where}: no edges found")
    return CouplingGraph(top + 1, tuple(edges))


def make_graph(kind: str, size: int | None = None) -> CouplingGraph:
    if kind in ("linear", "ring"):
        floor = 2 if kind == "linear" else 3
        if not (_is_int(size) and floor <= size <= MAX_GRAPH_NODES):
            raise ValueError(f"{kind} graph needs size in {floor}..{MAX_GRAPH_NODES}, "
                             f"got {size}")
        links = size - 1 if kind == "linear" else size  # a ring closes the chain
        return CouplingGraph(size, tuple((i, (i + 1) % size) for i in range(links)))
    raise ValueError(f"unknown graph kind {kind!r}")


def bundled_graph_bytes() -> bytes:
    return resources.files("liarsim").joinpath("data", BUNDLED_GRAPH_NAME).read_bytes()


@functools.cache
def load_bundled_graph() -> CouplingGraph:
    """27-node heavy-hex style example topology (max degree 3), parsed once
    per process; the graph is frozen, so every caller shares it."""
    return parse_graph_text(bundled_graph_bytes().decode("utf-8"),
                            f"bundled:{BUNDLED_GRAPH_NAME}")


# ---------------------------------------------------------------------------
# cost model

def fidelity_estimate(g_2q: int, g_1q: int, profile: NoiseProfile) -> float:
    """exp(-(p_2q * g_2q + p_1q * g_1q)), the standard exponential decay
    proxy for circuit success probability."""
    if g_2q < 0 or g_1q < 0:
        raise ValueError("gate counts must be nonnegative")
    return float(math.exp(-(profile.p_2q * g_2q + profile.p_1q * g_1q)))


@dataclass(frozen=True)
class CostEstimate:
    """Gate counts after Toffoli expansion, plus routing overhead.

    g_1q/g_2q/depth come from the expanded circuit alone; routing cost is
    reported separately: every two-qubit interaction at shortest-path
    distance d needs d-1 SWAPs of 3 CNOTs each, traversed forward and back,
    so swap_overhead_cnots = 2 * sum((d - 1) * 3), a CNOT count (its JSON
    key is still "swap_overhead_depth").  The fidelity field uses the
    expanded g_2q/g_1q only.
    """

    g_1q: int
    g_2q: int
    depth: int
    mean_distance: float
    swap_overhead_cnots: int
    fidelity: float

    def to_dict(self) -> dict:
        return {
            "g_1q": self.g_1q,
            "g_2q": self.g_2q,
            "depth": self.depth,
            "mean_distance": self.mean_distance,
            "swap_overhead_depth": self.swap_overhead_cnots,
            "fidelity": self.fidelity,
        }


def _ccx_template(polarities) -> tuple[int, tuple, tuple]:
    """toffoli_decompose of a CCX at these control polarities, with qubits a,
    b, t as slots 0, 1, 2, reduced to what routing_estimate reads: the
    one-qubit gate count, the CNOT slot pairs in gate order, and each output
    slot j's depth paths (i, w), w being the most gates on a chain from slot
    i's input to slot j's output.  ASAP layering is max-plus linear in the
    incoming levels, so slot j leaves at level max(level_i + w)."""
    slots = [gate.qubits for gate in toffoli_decompose(ccx(0, 1, 2, *polarities))]
    reach = []
    for source in range(3):
        levels = [-math.inf] * 3
        levels[source] = 0
        for qubits in slots:
            layer = 1 + max(levels[q] for q in qubits)
            for q in qubits:
                levels[q] = layer
        reach.append(levels)
    paths = tuple(tuple((i, int(reach[i][j])) for i in range(3) if reach[i][j] > -math.inf)
                  for j in range(3))
    return (sum(len(qubits) == 1 for qubits in slots),
            tuple(qubits for qubits in slots if len(qubits) == 2), paths)


_CCX_TEMPLATES = {polarities: _ccx_template(polarities)
                  for polarities in product((POSITIVE, NEGATED), repeat=2)}


def _closed_form_distance(graph: CouplingGraph):
    """Distance function of the path 0-1-...-(N-1), or of that path closed
    into a ring by the edge (0, N-1); None for any other graph.  The graph is
    recognized from its normalized edge tuple only, so a relabeled path
    takes the BFS."""
    n = graph.num_nodes
    chain = tuple(zip(range(n - 1), range(1, n)))
    if graph.edges == chain:
        return lambda u, v: abs(u - v)
    if n >= 3 and graph.edges == ((0, 1), (0, n - 1)) + chain[1:]:
        return lambda u, v: min(abs(u - v), n - abs(u - v))
    return None


def routing_estimate(circuit: Circuit, graph: CouplingGraph,
                     layout=None, profile: NoiseProfile | None = None) -> CostEstimate:
    """Cost of running the circuit on a coupling graph under a logical-to-
    physical layout (identity by default).  Every CCX counts as its
    toffoli_decompose expansion, read from a template without building it, so
    the result equals gate_census(expand_toffolis(circuit)) plus the
    shortest-path distance of every expanded two-qubit interaction: closed
    form on a path or ring, one BFS per distinct source on any other graph."""
    if layout is None:
        if circuit.num_qubits > graph.num_nodes:
            raise ValueError(f"circuit has {circuit.num_qubits} qubits but the "
                             f"graph has only {graph.num_nodes} nodes")
        layout = tuple(range(circuit.num_qubits))
    for q in layout:
        if not _is_int(q):
            raise ValueError(f"layout entry {q!r} is not an integer")
    layout = tuple(int(q) for q in layout)
    if len(layout) != circuit.num_qubits:
        raise ValueError(
            f"layout covers {len(layout)} qubits, circuit has {circuit.num_qubits}"
        )
    if len(set(layout)) != len(layout):
        raise ValueError("layout maps two logical qubits to one node")
    for node in layout:
        if not 0 <= node < graph.num_nodes:
            raise ValueError(f"layout node {node} outside the {graph.num_nodes}-node graph")

    # one ASAP pass, as gate_census on the expanded circuit; pairs collects
    # the physical nodes of every two-qubit interaction in gate order
    count_1q = count_2q = 0
    levels = [0] * circuit.num_qubits
    pairs = []
    for gate in circuit.gates:
        qubits = gate.qubits
        if gate.kind == "CCX":
            ones, slot_pairs, slot_paths = _CCX_TEMPLATES[gate.polarities]
            count_1q += ones
            count_2q += len(slot_pairs)
            for u, v in slot_pairs:
                a, b = sorted((qubits[u], qubits[v]))
                pairs.append((layout[a], layout[b]))
            entry = [levels[q] for q in qubits]
            for q, paths in zip(qubits, slot_paths):
                levels[q] = max(entry[i] + w for i, w in paths)
            continue
        if len(qubits) == 1:
            count_1q += 1
        else:
            count_2q += 1
            a, b = sorted(qubits)
            pairs.append((layout[a], layout[b]))
        layer = 1 + max(levels[q] for q in qubits)
        for q in qubits:
            levels[q] = layer

    # the layout need not keep a pair's nodes in order, hence abs in the
    # closed forms and any node of the pair as a BFS source
    distance = _closed_form_distance(graph)
    if distance is not None:
        distances = [distance(u, v) for u, v in pairs]
    else:
        # one BFS per distinct source node, each dropped once its pairs are read
        found: dict[tuple[int, int], int] = {}
        for src, keys in groupby(sorted(set(pairs)), key=itemgetter(0)):
            row = graph._distances_from(src)
            found.update((key, row[key[1]]) for key in keys)
        distances = [found[key] for key in pairs]
        for key, d in zip(pairs, distances):
            if d < 0:
                raise ValueError(f"nodes {key} are disconnected in the coupling graph")

    # exact, and equal to float(np.mean(distances)): the integer total stays
    # far below 2**53, and int / int rounds the true quotient once
    mean_distance = sum(distances) / len(distances) if distances else 0.0
    swap_overhead = 2 * sum((d - 1) * 3 for d in distances)
    if profile is None:
        profile = NoiseProfile()
    fidelity = fidelity_estimate(count_2q, count_1q, profile)
    return CostEstimate(
        g_1q=count_1q,
        g_2q=count_2q,
        depth=max(levels),
        mean_distance=mean_distance,
        swap_overhead_cnots=swap_overhead,
        fidelity=fidelity,
    )


# ---------------------------------------------------------------------------
# Monte Carlo noise channel

# Uniform draws held in memory at once; shots are processed in chunks of
# max(1, _CHUNK_DRAWS // block).  Results do not depend on it.
_CHUNK_DRAWS = 1 << 16


def _outcome_table(state: StateVector):
    """The state's cumulative Born distribution, for inverse-CDF draws, and
    the basis index of each entry, from statevec._sampling_table: a
    support-held state is read from its support alone, with no array of
    2**n.  A draw at or above the support's last cumulative value is clamped
    to the last entry, the sentinel 2**n - 1 that the dense cumulative gives
    for exactly those draws."""
    index, probs = _sampling_table(state)
    return np.cumsum(probs), index


def _draw_outcomes(table, u: np.ndarray) -> np.ndarray:
    cumulative, index = table
    idx = np.minimum(np.searchsorted(cumulative, u, side="right"),
                     len(cumulative) - 1)
    return idx if index is None else index[idx]


def _frame_outcomes(gates: list, fault: np.ndarray, qubit_slot: np.ndarray,
                    pauli: np.ndarray) -> np.ndarray:
    """Final basis index of each faulty shot of an H-free circuit; fault,
    qubit_slot and pauli hold one row per shot and one column per gate.
    Every gate and Pauli maps a basis state to one basis state times a phase,
    so a shot from |0...0> stays on one basis index, its frame: X-type gates
    step all frames at once, and an X or Y fault flips the faulted qubit's
    bit.  Phases (P, CP, Z, and Y's factor of i) are dropped, as a one-state
    support's outcome does not depend on them."""
    # flip[k, s]: the bit of gate k's qubit at slot s (0 beyond its arity)
    flip = np.zeros((len(gates), 3), dtype=np.int64)
    for k, gate in enumerate(gates):
        flip[k, :len(gate.qubits)] = np.int64(1) << np.array(gate.qubits)
    flips = np.where(fault & (pauli < 2), flip[np.arange(len(gates)), qubit_slot], 0)
    frame = np.zeros(len(fault), dtype=np.int64)
    for k, gate in enumerate(gates):
        if gate.kind not in ("P", "CP"):
            _monomial_step(gate, frame, None)  # an X-type step reads no amplitude
        frame ^= flips[:, k]
    return frame


def noisy_sample(circuit: Circuit, profile: NoiseProfile, shots: int,
                 first_shot: int = 0, ideal: StateVector | None = None) -> Distribution:
    """Sample the circuit under the noise profile.

    Every shot reads a fixed block of uniforms from one Philox stream keyed
    by SeedSequence(profile.seed): G fault draws (G = gate count), a qubit
    and a Pauli draw per gate, one outcome draw and n readout draws, padded
    to a multiple of 4.  Shot s starts at counter s * block // 4, so
    noisy_sample(c, p, 1000) equals the merge of noisy_sample(c, p, 600) and
    noisy_sample(c, p, 400, first_shot=600).  Faultless shots draw from the
    ideal distribution in bulk.  Faulty shots of an H-free circuit are pushed
    through the gates together as basis-index frames (_frame_outcomes); their
    outcome draw goes unused, since a one-state distribution gives the same
    index for every draw.  Faulty shots of a circuit with an H are grouped by
    fault signature (gate index, qubit, Pauli), and each signature is
    simulated once on the dense kernel.
    `ideal` is the circuit's output state from |0...0>, when the caller has
    already run it; otherwise it is simulated here.  A support-held ideal is
    read on its support.
    """
    if not (_is_int(shots) and 1 <= shots <= MAX_SHOTS):
        raise ValueError(f"shots must be in 1..{MAX_SHOTS}, got {shots!r}")
    if not (_is_int(first_shot) and first_shot >= 0):
        raise ValueError(f"first_shot must be an integer >= 0, got {first_shot!r}")
    first_shot = int(first_shot)
    n = circuit.num_qubits
    if ideal is None:
        ideal = run_circuit(circuit)
    elif ideal.num_qubits != n:
        raise ValueError(f"ideal state has {ideal.num_qubits} qubits, "
                         f"circuit has {n}")
    gates = list(circuit.gates)
    g = len(gates)
    block = -(-(3 * g + 1 + n) // 4) * 4
    outcome_col = 3 * g
    monomial = all(gate.kind != "H" for gate in gates)

    ideal_table = _outcome_table(ideal)
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
        outcomes = _draw_outcomes(ideal_table, u[:, outcome_col])
        if len(faulty):
            qubit_slot = (u[faulty, g:2 * g] * arity).astype(np.int64)
            pauli = (u[faulty, 2 * g:3 * g] * 3).astype(np.int64)
            if monomial:
                outcomes[faulty] = _frame_outcomes(gates, fault[faulty],
                                                   qubit_slot, pauli)
            else:
                # code 0: no fault; else 1 + 3 * (index into gate.qubits) + Pauli
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
                    outcomes[rows] = _draw_outcomes(_outcome_table(state),
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
