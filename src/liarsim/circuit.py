"""Gate-level circuit representation and builders for coherence-flag circuits.

Bit-ordering convention used across the package: qubit k occupies bit k of a
basis-state index, so the rendered bitstring puts the highest qubit index
leftmost.  For the four-qubit liar circuits the string reads q3 q2 q1 q0,
e.g. "1001" means q3=1, q2=0, q1=0, q0=1.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

GATE_KINDS = ("H", "X", "P", "CNOT", "CP", "CCX")

POSITIVE = "positive"
NEGATED = "negated"

ROLE_TAGS = (
    "statement",
    "negation",
    "detector",
    "flag",
    "contradiction",
    "resolution",
    "ancilla",
)

# kind -> (number of controls, number of targets)
_ARITY = {
    "H": (0, 1),
    "X": (0, 1),
    "P": (0, 1),
    "CNOT": (1, 1),
    "CP": (1, 1),
    "CCX": (2, 1),
}
_ANGLED = ("P", "CP")


def _is_int(value) -> bool:
    """An integer index: Python or NumPy int, but not a bool."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


@dataclass(frozen=True)
class Gate:
    """A single gate. Controls carry a per-control polarity: a ``negated``
    control fires on |0> instead of |1>, which is the same as conjugating a
    positive control with X on that qubit."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    polarities: tuple[str, ...] = ()
    angle: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_ctrl, n_tgt = _ARITY[self.kind]
        if len(self.controls) != n_ctrl or len(self.targets) != n_tgt:
            raise ValueError(
                f"{self.kind} takes {n_ctrl} control(s) and {n_tgt} target(s), "
                f"got {len(self.controls)}/{len(self.targets)}"
            )
        if len(self.polarities) != len(self.controls):
            raise ValueError("exactly one polarity per control is required")
        for pol in self.polarities:
            if pol not in (POSITIVE, NEGATED):
                raise ValueError(f"bad control polarity {pol!r}")
        qubits = self.controls + self.targets
        if not all(type(q) is int for q in qubits):
            if not all(_is_int(q) for q in qubits):
                raise ValueError(f"qubit indices must be nonnegative integers, got {qubits}")
            # NumPy indices are stored as Python ints, which JSON can hold
            object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
            object.__setattr__(self, "controls", tuple(int(q) for q in self.controls))
        if min(qubits) < 0:
            raise ValueError(f"qubit indices must be nonnegative integers, got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit index in {self.kind} gate: {qubits}")
        has_angle = self.angle is not None
        if has_angle != (self.kind in _ANGLED):
            raise ValueError(f"angle is required for {_ANGLED} and forbidden otherwise")
        if has_angle and (isinstance(self.angle, bool)
                          or not isinstance(self.angle, numbers.Real)):
            raise ValueError(f"gate angle must be a real number, got {self.angle!r}")
        if has_angle:
            try:
                finite = math.isfinite(self.angle)
            except OverflowError:  # an int past the float range
                finite = False
            if not finite:
                raise ValueError("gate angle must be finite")
            if type(self.angle) not in (int, float):
                # a NumPy or other Real angle is stored as a Python float,
                # which JSON can hold; a Python int is written back as read
                object.__setattr__(self, "angle", float(self.angle))

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets


def h(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def p(theta: float, q: int) -> Gate:
    """Single-qubit phase gate diag(1, e^{i*theta})."""
    return Gate("P", (q,), angle=float(theta))


def cnot(control: int, target: int, polarity: str = POSITIVE) -> Gate:
    return Gate("CNOT", (target,), (control,), (polarity,))


def cp(theta: float, control: int, target: int, polarity: str = POSITIVE) -> Gate:
    """Controlled phase: e^{i*theta} on the branch where the control sits at
    its polarity value and the target is 1."""
    return Gate("CP", (target,), (control,), (polarity,), float(theta))


def ccx(c1: int, c2: int, target: int,
        pol1: str = POSITIVE, pol2: str = POSITIVE) -> Gate:
    return Gate("CCX", (target,), (c1, c2), (pol1, pol2))


@dataclass
class Circuit:
    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    roles: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        if not _is_int(self.num_qubits):
            raise ValueError(f"num_qubits must be an integer, got {self.num_qubits!r}")
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = int(self.num_qubits)
        for gate in self.gates:
            self._check_gate(gate)
        for idx, role in self.roles.items():
            if not (_is_int(idx) and 0 <= idx < self.num_qubits):
                raise ValueError(f"role index {idx!r} outside register of {self.num_qubits}")
            if role not in ROLE_TAGS:
                raise ValueError(f"unknown role tag {role!r}")

    def _check_gate(self, gate: Gate) -> None:
        top = max(gate.qubits)
        if top >= self.num_qubits:
            raise ValueError(
                f"{gate.kind} touches qubit {top} but the register has {self.num_qubits}"
            )

    def add(self, gate: Gate) -> None:
        self._check_gate(gate)
        self.gates.append(gate)


# ---------------------------------------------------------------------------
# builders

def build_liar_literal() -> Circuit:
    """Four-qubit liar circuit, gate sequence taken verbatim: the statement
    qubit is put in superposition, the negation qubit is entangled against it,
    the detector marks statement==negation, and a conditional phase couples
    detector and flag.  Without flag preparation the output is an equal
    superposition of 0000 and 0111."""
    circ = Circuit(4, roles={0: "statement", 1: "negation", 2: "detector", 3: "flag"})
    circ.add(h(0))
    circ.add(cnot(0, 1))
    circ.add(ccx(0, 1, 2))
    circ.add(cp(math.pi, 2, 3))
    return circ


def build_liar_reference() -> Circuit:
    """Liar circuit with flag and negation prepared by X gates, reproducing
    the reference output: an equal superposition of 1001 and 1010 (statement
    and negation anticorrelated, detector silent, flag raised)."""
    circ = Circuit(4, roles={0: "statement", 1: "negation", 2: "detector", 3: "flag"})
    circ.add(x(3))
    circ.add(h(0))
    circ.add(x(1))
    circ.add(cnot(0, 1))
    circ.add(ccx(0, 1, 2))
    circ.add(cp(math.pi, 2, 3))
    return circ


PARITY = "parity"
OR_ACCUMULATE = "or_accumulate"


def build_general(num_pairs: int, mode: str = PARITY,
                  with_phase: bool = False) -> Circuit:
    """Coherence-flag circuit over num_pairs = m contradiction/resolution pairs.

    The register holds contradiction i on qubit i, resolution i on qubit
    m + i and the flag on qubit 2m; or_accumulate mode adds its ancillas
    above the flag.  Each pair contributes a doubly controlled flip of the
    flag: positive control on the contradiction qubit and negated control on
    the resolution qubit, so the flip fires exactly on an unresolved
    contradiction.  ``with_phase`` appends a CP(pi) between flag and
    resolution qubit per pair.

    parity mode chains the flips directly, so the flag records the parity of
    the number of violated pairs.  or_accumulate mode computes each pair's
    violation into an ancilla, folds the ancillas through an AND chain of
    negated-control Toffolis, touches the flag exactly once with the OR of all
    violations, then uncomputes every ancilla back to |0>.
    """
    if not (_is_int(num_pairs) and num_pairs >= 1):
        raise ValueError(f"num_pairs must be an integer >= 1, got {num_pairs!r}")
    if mode not in (PARITY, OR_ACCUMULATE):
        raise ValueError(f"unknown mode {mode!r}, expected {PARITY!r} or {OR_ACCUMULATE!r}")
    m = int(num_pairs)
    flag = 2 * m
    roles = {q: "contradiction" for q in range(m)}
    roles.update({m + i: "resolution" for i in range(m)})
    roles[flag] = "flag"
    roles.update({q: "ancilla" for q in range(flag + 1, general_width(m, mode))})
    circ = Circuit(general_width(m, mode), roles=roles)
    phase = [cp(math.pi, flag, m + i) for i in range(m)] if with_phase else []

    if mode == PARITY:
        for i in range(m):
            circ.add(ccx(i, m + i, flag, POSITIVE, NEGATED))
            if with_phase:
                circ.add(phase[i])
        return circ

    viol = range(flag + 1, flag + 1 + m)           # one violation bit per pair
    chain = range(flag + 1 + m, flag + 2 * m)      # running AND of negations
    compute = [ccx(i, m + i, viol[i], POSITIVE, NEGATED) for i in range(m)]
    fold = []
    if m >= 2:
        fold.append(ccx(viol[0], viol[1], chain[0], NEGATED, NEGATED))
        for j in range(2, m):
            fold.append(ccx(chain[j - 2], viol[j], chain[j - 1], POSITIVE, NEGATED))
    # a single pair's violation bit is already the OR; otherwise the chain
    # end holds the AND of negated violations, and its negation is the OR
    touch = cnot(viol[0], flag) if m == 1 else cnot(chain[-1], flag, NEGATED)
    for gate in [*compute, *fold, touch, *phase, *reversed(fold), *reversed(compute)]:
        circ.add(gate)
    return circ


def general_width(num_pairs: int, mode: str = PARITY) -> int:
    """Qubits of build_general(num_pairs, mode): 2m + 1, plus in
    or_accumulate mode the m violation ancillas and m - 1 AND-chain
    ancillas."""
    width = 2 * num_pairs + 1
    return width + 2 * num_pairs - 1 if mode == OR_ACCUMULATE else width


# ---------------------------------------------------------------------------
# Toffoli decomposition

def toffoli_decompose(gate: Gate) -> list[Gate]:
    """Expand one CCX into 6 CNOTs and 9 single-qubit gates (H and P(+-pi/4)).

    Negated controls are realized by X conjugation on that control, adding two
    X gates each.  The composed sequence equals the CCX unitary exactly.
    """
    if gate.kind != "CCX":
        raise ValueError(f"can only decompose CCX gates, got {gate.kind}")
    a, b = gate.controls
    t = gate.targets[0]
    quarter = math.pi / 4
    core = [
        h(t),
        cnot(b, t), p(-quarter, t),
        cnot(a, t), p(quarter, t),
        cnot(b, t), p(-quarter, t),
        cnot(a, t), p(quarter, b), p(quarter, t),
        h(t),
        cnot(a, b), p(quarter, a), p(-quarter, b),
        cnot(a, b),
    ]
    wraps = [x(c) for c, pol in zip(gate.controls, gate.polarities) if pol == NEGATED]
    return wraps + core + list(reversed(wraps))


def expand_toffolis(circuit: Circuit) -> Circuit:
    """Copy of the circuit with every CCX replaced by its decomposition."""
    gates: list[Gate] = []
    for gate in circuit.gates:
        if gate.kind == "CCX":
            gates.extend(toffoli_decompose(gate))
        else:
            gates.append(gate)
    return Circuit(circuit.num_qubits, gates, dict(circuit.roles))


@dataclass(frozen=True)
class GateCensus:
    count_1q: int
    count_2q: int
    count_ccx: int
    depth: int


def gate_census(circuit: Circuit) -> GateCensus:
    """Count gates by width and compute circuit depth.

    Depth uses greedy as-soon-as-possible layering: gates sharing a qubit
    cannot share a layer.  To count every CCX as its 6-CNOT expansion, pass
    ``expand_toffolis(circuit)``.
    """
    count_1q = count_2q = count_ccx = 0
    levels = [0] * circuit.num_qubits
    depth = 0
    for gate in circuit.gates:
        width = len(gate.qubits)
        if gate.kind == "CCX":
            count_ccx += 1
        elif width == 1:
            count_1q += 1
        elif width == 2:
            count_2q += 1
        layer = 1 + max(levels[q] for q in gate.qubits)
        for q in gate.qubits:
            levels[q] = layer
        depth = max(depth, layer)
    return GateCensus(count_1q, count_2q, count_ccx, depth)


# ---------------------------------------------------------------------------
# serialization

def circuit_to_dict(circuit: Circuit) -> dict:
    return {
        "num_qubits": circuit.num_qubits,
        "gates": [
            {
                "kind": g.kind,
                "controls": list(g.controls),
                "polarities": list(g.polarities),
                "targets": list(g.targets),
                "angle": g.angle,
            }
            for g in circuit.gates
        ],
        "roles": {str(idx): role for idx, role in sorted(circuit.roles.items())},
    }


def circuit_from_dict(payload: dict) -> Circuit:
    """Inverse of circuit_to_dict; any malformed payload raises
    ValueError("malformed circuit payload: ...")."""
    try:
        num_qubits = payload["num_qubits"]
        if not _is_int(num_qubits):
            raise TypeError(f"num_qubits must be an integer, got {num_qubits!r}")
        roles = payload.get("roles", {})
        if not isinstance(roles, dict):
            raise TypeError(f"roles must be an object, got {roles!r}")
        gates = [
            Gate(
                kind=entry["kind"],
                targets=tuple(entry["targets"]),
                controls=tuple(entry.get("controls", ())),
                polarities=tuple(entry.get("polarities", ())),
                angle=entry.get("angle"),
            )
            for entry in payload["gates"]
        ]
        return Circuit(num_qubits, gates,
                       {int(idx): role for idx, role in roles.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed circuit payload: {exc}") from exc


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2, sort_keys=True) + "\n"


def circuit_from_json(text: str) -> Circuit:
    try:
        payload = json.loads(text)
    except RecursionError as exc:  # how the decoder meets deep nesting
        raise ValueError("malformed circuit payload: nested too deeply") from exc
    return circuit_from_dict(payload)


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(circuit_to_json(circuit))


def load_circuit(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return circuit_from_json(fh.read())
