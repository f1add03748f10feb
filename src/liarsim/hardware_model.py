"""Noise channel, coupling graphs, and gate-cost estimates.

The noise model is a Monte Carlo trajectory sampler: after every gate, with a
per-gate-class probability, one uniformly random Pauli lands on one involved
qubit; at measurement each readout bit flips independently.  Every shot draws
from its own stream keyed by (seed, shot index), so results never depend on
execution order and sharded runs merge exactly into serial ones.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .circuit import Circuit, expand_toffolis, gate_census
from .dist import COUNTS, Distribution
from .statevec import (DEFAULT_SEED, apply_gate, apply_pauli, bitstring,
                       init_zero, run_circuit)

BUNDLED_GRAPH_NAME = "heavy_hex_example.txt"


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

    def zero_noise(self) -> "NoiseProfile":
        return NoiseProfile(0.0, 0.0, 0.0, self.seed)


# ---------------------------------------------------------------------------
# coupling graphs

@dataclass(frozen=True)
class CouplingGraph:
    num_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("graph needs at least one node")
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"edge {edge} outside 0..{self.num_nodes - 1}")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        # built once per graph; not a field, so equality and repr ignore it
        object.__setattr__(self, "_adj", tuple(tuple(nbrs) for nbrs in adj))

    def adjacency(self) -> list[list[int]]:
        return [list(nbrs) for nbrs in self._adj]

    def distance(self, start: int, goal: int) -> int:
        """BFS shortest-path length in edges; -1 if unreachable."""
        if not (0 <= start < self.num_nodes and 0 <= goal < self.num_nodes):
            raise ValueError(f"node out of range: {start}, {goal}")
        if start == goal:
            return 0
        adj = self._adj
        seen = {start}
        queue = deque([(start, 0)])
        while queue:
            node, depth = queue.popleft()
            for nxt in adj[node]:
                if nxt == goal:
                    return depth + 1
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, depth + 1))
        return -1

    def is_connected(self) -> bool:
        adj = self._adj
        seen = {0}
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen) == self.num_nodes

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
        if u == v:
            raise ValueError(f"{where}:{lineno}: self-loop on node {u}")
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise ValueError(f"{where}: no edges found")
    return CouplingGraph(top + 1, tuple(edges))


def make_graph(kind: str, size: int | None = None, path=None) -> CouplingGraph:
    if kind == "linear":
        if size is None or size < 2:
            raise ValueError("linear graph needs size >= 2")
        return CouplingGraph(size, tuple((i, i + 1) for i in range(size - 1)))
    if kind == "ring":
        if size is None or size < 3:
            raise ValueError("ring graph needs size >= 3")
        edges = [(i, (i + 1) % size) for i in range(size)]
        return CouplingGraph(size, tuple(edges))
    if kind == "from_file":
        if path is None:
            raise ValueError("from_file graph needs a path")
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph_text(fh.read(), str(path))
    raise ValueError(f"unknown graph kind {kind!r}")


def bundled_graph_bytes() -> bytes:
    return resources.files("liarsim").joinpath("data", BUNDLED_GRAPH_NAME).read_bytes()


def load_bundled_graph() -> CouplingGraph:
    """27-node heavy-hex style example topology (max degree 3)."""
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
    so swap_overhead_depth = 2 * sum((d - 1) * 3).  The fidelity field uses
    the expanded g_2q/g_1q only.
    """

    g_1q: int
    g_2q: int
    depth: int
    mean_distance: float
    swap_overhead_depth: int
    fidelity: float

    def to_dict(self) -> dict:
        return {
            "g_1q": self.g_1q,
            "g_2q": self.g_2q,
            "depth": self.depth,
            "mean_distance": self.mean_distance,
            "swap_overhead_depth": self.swap_overhead_depth,
            "fidelity": self.fidelity,
        }


def routing_estimate(circuit: Circuit, graph: CouplingGraph,
                     layout=None, profile: NoiseProfile | None = None) -> CostEstimate:
    """Cost of running the circuit on a coupling graph under a logical-to-
    physical layout (identity by default).  CCX gates are expanded to their
    CNOT decomposition before distances are measured."""
    expanded = expand_toffolis(circuit)
    census = gate_census(expanded)

    if layout is None:
        layout = tuple(range(circuit.num_qubits))
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

    distances = []
    cache: dict[tuple[int, int], int] = {}
    for gate in expanded.gates:
        if len(gate.qubits) != 2:
            continue
        a, b = sorted(gate.qubits)
        key = (layout[a], layout[b])
        if key not in cache:
            d = graph.distance(*key)
            if d < 0:
                raise ValueError(f"nodes {key} are disconnected in the coupling graph")
            cache[key] = d
        distances.append(cache[key])

    mean_distance = float(np.mean(distances)) if distances else 0.0
    swap_overhead = 2 * sum((d - 1) * 3 for d in distances)
    if profile is None:
        profile = NoiseProfile()
    fidelity = fidelity_estimate(census.count_2q, census.count_1q, profile)
    return CostEstimate(
        g_1q=census.count_1q,
        g_2q=census.count_2q,
        depth=census.depth,
        mean_distance=mean_distance,
        swap_overhead_depth=swap_overhead,
        fidelity=fidelity,
    )


# ---------------------------------------------------------------------------
# Monte Carlo noise channel

def _draw_outcome(rng, cumulative) -> int:
    idx = int(np.searchsorted(cumulative, rng.random(), side="right"))
    return min(idx, len(cumulative) - 1)


def noisy_sample(circuit: Circuit, profile: NoiseProfile, shots: int,
                 first_shot: int = 0) -> Distribution:
    """Sample the circuit under the noise profile.

    Shot k draws from the stream keyed by (profile.seed, first_shot + k), so
    noisy_sample(c, p, 1000) equals the merge of noisy_sample(c, p, 600) and
    noisy_sample(c, p, 400, first_shot=600).  Shots with no gate fault reuse
    the precomputed ideal state and only pay for their outcome draw.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if first_shot < 0:
        raise ValueError("first_shot must be >= 0")
    n = circuit.num_qubits
    gates = list(circuit.gates)

    ideal = run_circuit(circuit)
    p_ideal = np.abs(ideal.amplitudes) ** 2
    cum_ideal = np.cumsum(p_ideal / p_ideal.sum())
    gate_rates = np.array(
        [profile.p_1q if len(g.qubits) == 1 else profile.p_2q for g in gates]
    )
    bit_weights = 1 << np.arange(n)

    counts: dict[str, int] = {}
    for k in range(shots):
        rng = np.random.default_rng([profile.seed, first_shot + k])
        faults: set[int] = set()
        if gates and gate_rates.any():
            hits = np.nonzero(rng.random(len(gates)) < gate_rates)[0]
            faults = {int(i) for i in hits}
        if not faults:
            outcome = _draw_outcome(rng, cum_ideal)
        else:
            state = init_zero(n)
            for gi, gate in enumerate(gates):
                apply_gate(state, gate)
                if gi in faults:
                    qubit = gate.qubits[int(rng.integers(len(gate.qubits)))]
                    pauli = "XYZ"[int(rng.integers(3))]
                    apply_pauli(state, pauli, qubit)
            probs = np.abs(state.amplitudes) ** 2
            outcome = _draw_outcome(rng, np.cumsum(probs / probs.sum()))
        if profile.p_readout > 0.0:
            flips = rng.random(n) < profile.p_readout
            outcome ^= int(bit_weights[flips].sum())
        key = bitstring(outcome, n)
        counts[key] = counts.get(key, 0) + 1

    return Distribution(width=n,
                        entries={k: float(v) for k, v in counts.items()},
                        kind=COUNTS, total_shots=shots)
