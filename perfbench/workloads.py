"""Workload generators and output checks for the liarsim benchmark.

Every input (argv, circuit JSON files, ideal-distribution CSVs) is derived
from the workload seed; liarsim only ever sees the generated files and
arguments.  Each op carries a check that decides whether its outputs are
correct.  Where a closed form exists the check uses it and never calls
liarsim; noisy counts are checked only for shape and range, never pinned,
because a sampler rewrite may change them legitimately.

This module is pure standard library so that importing it does not load
NumPy before the benchmark has timed `import liarsim`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("noisy-shots", "wide-exact", "verify-suite")

SHOTS = 1024
DEFAULT_NOISE = (1e-4, 1e-3, 0.015)
HIGH_NOISE = (1e-3, 1e-2, 0.15)  # every rate 10x the default
ESTIMATE_GRAPHS = ("linear", "ring", "bundled:heavy-hex")
HEAVY_HEX_NODES = 27

# (kind, qubits, ops per pass), in order of op latency.  Counts are chosen so
# that the median falls among the deep-18 ops (dense-14 ops take about as
# long) and the 90th percentile inside the deep-19 block, not on an edge
# between two shapes.  Both sit on deep ops because the dense ops' latency
# swings more with the load on a shared host.
WIDE_MIX = (
    ("dense", 14, 30), ("deep", 18, 50), ("dense", 15, 2), ("deep", 19, 12),
    ("dense", 16, 1), ("deep", 20, 2), ("dense", 17, 1), ("dense", 18, 1),
)
WIDE_MIX_TINY = (("deep", 9, 3), ("dense", 6, 3), ("dense", 8, 1))
DEEP_GATES = 50          # monomial gates after the H layer of a deep op (5 kinds)
DEEP_MAX_H = 11          # at most 2**11 outcomes in a deep op's support

# (command, pairs, ops per pass), in order of op latency; every size appears
# in every pass.  With the two reruns of the cheapest ops the median falls
# inside the truthtable-4 block and the 90th percentile inside the verify-4
# block.  The counts keep a pass near 15 s, half of it verify-5, so that a
# run holds two passes.
VERIFY_MIX = (
    ("truthtable", 1, 8), ("truthtable", 2, 8), ("verify", 1, 8),
    ("truthtable", 3, 8), ("verify", 2, 8), ("truthtable", 4, 24),
    ("verify", 3, 16), ("truthtable", 5, 6), ("verify", 4, 12),
    ("truthtable", 6, 1), ("verify", 5, 1),
)
VERIFY_MIX_TINY = (("verify", 2, 2), ("verify", 1, 1),
                   ("truthtable", 3, 2), ("truthtable", 1, 1))

NOISY_REPS = 4
# OR m=3 at default noise runs 12 times per pass, not 4: its ops sit just
# below the 10x-noise OR m=3 ops, so the 90th percentile falls inside them.
OR3_DEFAULT_EXTRA = 8
RERUN_EVERY = 20


@dataclass
class Op:
    """One closed-loop operation: liarsim CLI calls made back to back.

    `calls` are argv lists for `liarsim.cli.main`; every one must return 0.
    `outputs` are the files the op writes; `check` gets their bytes in that
    order and returns None when they are correct, else a reason.
    """

    shape: str
    kind: str
    size: int
    calls: list[list[str]]
    outputs: list[Path]
    check: Callable[[list[bytes]], str | None]
    key: str = ""


# ---------------------------------------------------------------------------
# shared helpers

def _bits(index: int, width: int) -> str:
    return format(index, f"0{width}b")


def _load(raw: bytes) -> dict:
    return json.loads(raw.decode("utf-8"))


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _check_counts(counts: dict, shots: int, width: int, support=None) -> str | None:
    if not isinstance(counts, dict) or not counts:
        return "no counts in report"
    if sum(counts.values()) != shots:
        return f"counts sum to {sum(counts.values())}, expected {shots}"
    for state, value in counts.items():
        if len(state) != width or set(state) - {"0", "1"}:
            return f"bad outcome {state!r} for width {width}"
        if not isinstance(value, int) or value < 1:
            return f"bad count {value!r} for {state}"
        if support is not None and state not in support:
            return f"sampled outcome {state} has zero ideal probability"
    return None


def _check_uniform(probs: dict, width: int, support_size: int, support=None) -> str | None:
    if len(probs) != support_size:
        return f"{len(probs)} outcomes, expected {support_size}"
    expected = 1.0 / support_size
    for state, value in probs.items():
        if len(state) != width:
            return f"outcome {state!r} has the wrong width"
        if support is not None and state not in support:
            return f"unexpected outcome {state}"
        if not _close(value, expected):
            return f"P({state}) = {value!r}, expected {expected!r}"
    return None


def _interleave(ops: list[Op]) -> list[Op]:
    """Spread each shape evenly over the pass, in the same order for every
    seed: the j-th of c ops of a shape sits at (j + 1/2) / c.  A fixed order
    keeps heap and cache history the same from seed to seed."""
    by_shape: dict[str, list[Op]] = {}
    for op in ops:
        by_shape.setdefault(op.shape, []).append(op)
    placed = [((j + 0.5) / len(group), s, j, op)
              for s, group in enumerate(by_shape.values()) for j, op in enumerate(group)]
    return [op for *_, op in sorted(placed, key=lambda t: t[:3])]


# ---------------------------------------------------------------------------
# noisy-shots

@dataclass(frozen=True)
class _NoisyCircuit:
    label: str
    argv: tuple[str, ...]
    width: int
    pairs: int               # register size handed to `estimate --n 2*pairs`
    ideal: dict              # closed-form ideal distribution; its support is
                             # passed to `metrics` as the consistent set


def _noisy_circuits() -> list[_NoisyCircuit]:
    out = [
        _NoisyCircuit("liar-reference", ("liar-reference",), 4, 1,
                      {"1001": 0.5, "1010": 0.5}),
        _NoisyCircuit("liar-literal", ("liar-literal",), 4, 1,
                      {"0000": 0.5, "0111": 0.5}),
    ]
    # general circuits start in |0...0> and contain no H gate, so the ideal
    # output is the all-zero outcome with certainty
    for m in range(1, 5):
        for phase in (False, True):
            width = 2 * m + 1
            argv = ("general", "--pairs", str(m), "--mode", "parity")
            argv += ("--with-phase",) if phase else ()
            zero = "0" * width
            out.append(_NoisyCircuit(f"parity{m}{'-phase' if phase else ''}",
                                     argv, width, m, {zero: 1.0}))
    for m in range(1, 4):
        width = 2 * m + 1 + m + (m - 1)  # pairs + flag + violation bits + AND chain
        zero = "0" * width
        out.append(_NoisyCircuit(f"or{m}", ("general", "--pairs", str(m), "--mode", "or"),
                                 width, m, {zero: 1.0}))
    return out


def _in_range(value, lo: float, hi: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and lo <= value <= hi


def _noisy_check(circ: _NoisyCircuit, shots: int):
    def check(raw: list[bytes]) -> str | None:
        sim, csv_raw, met = _load(raw[0]), raw[1], _load(raw[2])
        ests = [_load(r) for r in raw[3:]]
        if sim["num_qubits"] != circ.width:
            return f"num_qubits {sim['num_qubits']}, expected {circ.width}"
        probs = sim["probabilities"]
        if set(probs) != set(circ.ideal) or not all(
                _close(probs[k], v) for k, v in circ.ideal.items()):
            return f"ideal probabilities {probs} differ from the closed form"
        counts = sim["counts"]
        problem = _check_counts(counts, shots, circ.width)
        if problem:
            return problem
        rows = list(csv.reader(io.StringIO(csv_raw.decode("utf-8"))))
        if rows[0] != ["state", "counts"] or {r[0]: int(r[1]) for r in rows[1:]} != counts:
            return "counts CSV disagrees with the JSON report"

        rep = met["report"]
        for name, lo, hi in (("f_c_experimental", 0, 1), ("d_tv", 0, 1),
                             ("z_flag_experimental", -1, 1), ("chi2_p_value", 0, 1)):
            if not _in_range(rep[name], lo, hi):
                return f"metrics {name} = {rep[name]!r} outside [{lo}, {hi}]"
        stat = rep["chi2_statistic"]
        if not (stat == "inf" or _in_range(stat, 0, math.inf)):
            return f"chi2 statistic {stat!r} is not a nonnegative number"
        if not _close(rep["f_c_ideal"], 1.0):
            return f"F_C(ideal) = {rep['f_c_ideal']}, expected 1"
        flag_one = sum(v for k, v in circ.ideal.items() if k[0] == "1")
        if not _close(rep["z_flag_ideal"], 1.0 - 2.0 * flag_one):
            return f"<Z_flag>(ideal) = {rep['z_flag_ideal']}"
        if met["sources"]["experimental"]["total"] != shots:
            return "metrics saw the wrong shot total"

        # parity circuit of m pairs: each negated-control CCX expands to
        # 6 CNOTs and 9 + 2 single-qubit gates
        g2, g1 = 6 * circ.pairs, 11 * circ.pairs
        nodes = {"linear": max(2 * circ.pairs + 1, 2), "ring": max(2 * circ.pairs + 1, 3),
                 "bundled:heavy-hex": HEAVY_HEX_NODES}
        for graph, est in zip(ESTIMATE_GRAPHS, ests):
            e = est["estimate"]
            if (e["g_2q"], e["g_1q"]) != (g2, g1):
                return f"estimate on {graph}: g_2q/g_1q {e['g_2q']}/{e['g_1q']}, expected {g2}/{g1}"
            if not _close(e["fidelity"], math.exp(-(1e-3 * g2 + 1e-4 * g1))):
                return f"estimate on {graph}: fidelity {e['fidelity']}"
            if not _in_range(e["mean_distance"], 1, HEAVY_HEX_NODES):
                return f"estimate on {graph}: mean distance {e['mean_distance']}"
            if est["graph"]["num_nodes"] != nodes[graph]:
                return f"estimate on {graph}: {est['graph']['num_nodes']} nodes"
        return None
    return check


def _build_noisy(rng: random.Random, work: Path, tiny: bool) -> list[Op]:
    circuits = _noisy_circuits()
    ideal_paths = {}
    for circ in circuits:
        path = work / f"ideal-{circ.label}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("state,probability\n")
            for state in sorted(circ.ideal):
                fh.write(f"{state},{circ.ideal[state]!r}\n")
        ideal_paths[circ.label] = path

    reps = 1 if tiny else NOISY_REPS
    shots = 64 if tiny else SHOTS
    specs = [(c, nz) for c in circuits for nz in (DEFAULT_NOISE, HIGH_NOISE)] * reps
    if tiny:
        specs = specs[:6]
    else:
        or3 = next(c for c in circuits if c.label == "or3")
        specs += [(or3, DEFAULT_NOISE)] * OR3_DEFAULT_EXTRA
    ops = []
    for i, (circ, noise) in enumerate(specs):
        seed = str(rng.randrange(1, 2**31))
        sim_out, csv_out, met_out = (work / f"op{i}-sim.json", work / f"op{i}.csv",
                                     work / f"op{i}-metrics.json")
        noise_arg = ",".join(repr(x) for x in noise)
        calls = [
            ["simulate", *circ.argv, "--noise", noise_arg, "--shots", str(shots),
             "--csv", str(csv_out), "--seed", seed, "--out", str(sim_out)],
            ["metrics", "--exp", str(csv_out), "--ideal", str(ideal_paths[circ.label]),
             "--consistent-set", ",".join(circ.ideal), "--seed", seed,
             "--out", str(met_out)],
        ]
        outputs = [sim_out, csv_out, met_out]
        for graph in ESTIMATE_GRAPHS:
            est_out = work / f"op{i}-est-{graph.replace(':', '-')}.json"
            calls.append(["estimate", "--n", str(2 * circ.pairs), "--graph", graph,
                          "--seed", seed, "--out", str(est_out)])
            outputs.append(est_out)
        level = "default" if noise == DEFAULT_NOISE else "10x"
        ops.append(Op(f"noisy:{circ.label}:{level}", "noisy", circ.width,
                      calls, outputs, _noisy_check(circ, shots)))
    return _interleave(ops)


# ---------------------------------------------------------------------------
# wide-exact

def _gate(kind, targets, controls=(), polarities=(), angle=None) -> dict:
    return {"kind": kind, "targets": list(targets), "controls": list(controls),
            "polarities": list(polarities), "angle": angle}


def _pol(rng: random.Random) -> str:
    return "negated" if rng.random() < 0.3 else "positive"


def _dense_circuit(rng: random.Random, n: int) -> list[dict]:
    """H on every qubit, then a parity cascade into the top qubit with a few
    phases.  The cascade permutes basis states and the phases have unit
    modulus, so every one of the 2**n outcomes keeps probability 2**-n."""
    gates = [_gate("H", (q,)) for q in range(n)]
    for q in range(n - 1):
        gates.append(_gate("CNOT", (n - 1,), (q,), (_pol(rng),)))
    for _ in range(2):
        gates.append(_gate("P", (rng.randrange(n),), angle=rng.uniform(-math.pi, math.pi)))
    return gates


def _deep_circuit(rng: random.Random, n: int, k: int) -> tuple[list[dict], list[int]]:
    """H on k qubits, then DEEP_GATES X/CNOT/CCX/P/CP gates, each kind equally
    often in a seeded order.  Returns the gates and the H-layer qubits."""
    h_qubits = rng.sample(range(n), k)
    gates = [_gate("H", (q,)) for q in h_qubits]
    kinds = ["X", "CNOT", "CCX", "P", "CP"] * (DEEP_GATES // 5)
    rng.shuffle(kinds)
    for kind in kinds:
        qs = rng.sample(range(n), 3)
        if kind == "X":
            gates.append(_gate("X", (qs[0],)))
        elif kind == "P":
            gates.append(_gate("P", (qs[0],), angle=rng.uniform(-math.pi, math.pi)))
        elif kind == "CNOT":
            gates.append(_gate("CNOT", (qs[1],), (qs[0],), (_pol(rng),)))
        elif kind == "CP":
            gates.append(_gate("CP", (qs[1],), (qs[0],), (_pol(rng),),
                               angle=rng.uniform(-math.pi, math.pi)))
        else:
            gates.append(_gate("CCX", (qs[2],), (qs[0], qs[1]), (_pol(rng), _pol(rng))))
    return gates, h_qubits


def deep_support(n: int, gates: list[dict], h_qubits: list[int]) -> set[str]:
    """Outcomes of a deep circuit.  Every gate after the H layer maps a basis
    state to one basis state times a phase, so the output is uniform over the
    image of the 2**k H-layer states.  The image is computed by integer bit
    operations, independently of the simulator."""
    states = [0]
    for q in h_qubits:
        states = states + [s | (1 << q) for s in states]
    for g in gates[len(h_qubits):]:
        if g["kind"] in ("P", "CP"):
            continue
        flip = 1 << g["targets"][0]
        active = [(1 << c, pol == "positive") for c, pol in zip(g["controls"], g["polarities"])]
        states = [s ^ flip if all(bool(s & m) == want for m, want in active) else s
                  for s in states]
    return {_bits(s, n) for s in states}


def _wide_check(n: int, gates: list[dict], h_qubits: list[int] | None, shots: int):
    """Dense ops (h_qubits None) must give all 2**n outcomes at 2**-n; deep
    ops a uniform distribution over deep_support(), computed at first check
    so that it stays out of set-up time."""
    support = None

    def check(raw: list[bytes]) -> str | None:
        nonlocal support
        if h_qubits is not None and support is None:
            support = deep_support(n, gates, h_qubits)
        rep = _load(raw[0])
        if (rep["num_qubits"], rep["gate_count"]) != (n, len(gates)):
            return f"report has {rep['num_qubits']} qubits / {rep['gate_count']} gates"
        size = len(support) if support is not None else 1 << n
        problem = _check_uniform(rep["probabilities"], n, size, support)
        if problem:
            return problem
        return _check_counts(rep["counts"], shots, n,
                             support if support is not None else rep["probabilities"])
    return check


def _build_wide(rng: random.Random, work: Path, tiny: bool) -> list[Op]:
    ops = []
    shots = 64 if tiny else SHOTS
    for kind, n, count in (WIDE_MIX_TINY if tiny else WIDE_MIX):
        for j in range(count):
            i = len(ops)
            if kind == "dense":
                gates, h_qubits = _dense_circuit(rng, n), None
            else:
                # support sizes 2**6 .. 2**11 in turn, the same mix every seed
                k = min(n // 2, DEEP_MAX_H - 5 + j % 6)
                gates, h_qubits = _deep_circuit(rng, n, k)
            path = work / f"circuit{i}-{kind}{n}.json"
            path.write_text(json.dumps({"num_qubits": n, "gates": gates, "roles": {}}),
                            encoding="utf-8")
            out = work / f"op{i}.json"
            argv = ["simulate", str(path), "--shots", str(shots),
                    "--seed", str(rng.randrange(1, 2**31)), "--out", str(out)]
            ops.append(Op(f"{kind}{n}", kind, n, [argv], [out],
                          _wide_check(n, gates, h_qubits, shots)))
    return _interleave(ops)


# ---------------------------------------------------------------------------
# verify-suite

def even_violation_states(m: int) -> int:
    """Pair assignments (4**m of them) with an even violation count: a pair
    is violated in 1 of its 4 states, so this is ((3+1)**m + (3-1)**m) / 2."""
    return (4 ** m + 2 ** m) // 2


def divergent_rows(m: int) -> int:
    """Truth-table rows where the parity cascade disagrees with the OR rule:
    an even, nonzero violation count."""
    return even_violation_states(m) - 3 ** m


def _verify_check(m: int):
    def check(raw: list[bytes]) -> str | None:
        rep = _load(raw[0])
        if rep["all_passed"] is not True:
            failed = [c["name"] for c in rep["checks"] if not c["passed"]]
            return f"verify --pairs {m}: failed checks {failed}"
        expected_checks = 10 if m <= 3 else 8
        if len(rep["checks"]) != expected_checks:
            return f"{len(rep['checks'])} checks, expected {expected_checks}"
        fixed = rep["fixed_points"]
        # a state of pairs + flag is fixed iff its violation count is even
        if fixed["cascade_fixed"] != 2 * even_violation_states(m):
            return f"cascade fixed {fixed['cascade_fixed']}, expected {2 * even_violation_states(m)}"
        if fixed["kernel_dim"] != 3 ** m or fixed["plus_one_dim"] != 3 ** m:
            return "kernel / +1 eigenspace dimension is not 3**m"
        return None
    return check


def _truthtable_check(m: int, flag_in: int):
    def check(raw: list[bytes]) -> str | None:
        rep = _load(raw[0])
        rows = rep["rows"]
        if len(rows) != 4 ** m:
            return f"{len(rows)} rows, expected {4 ** m}"
        if rep["divergent_rows"] != divergent_rows(m):
            return f"{rep['divergent_rows']} divergent rows, expected {divergent_rows(m)}"
        for row in rows:
            v = sum(c == "1" and r == "0" for c, r in zip(row["contradictions"], row["resolutions"]))
            if row["flag_in"] != flag_in or row["diverges"] != (v > 0 and v % 2 == 0):
                return f"row {row['contradictions']}/{row['resolutions']} is wrong"
            if row["rule_flag"] != flag_in ^ (v > 0):
                return f"row {row['contradictions']}/{row['resolutions']}: rule flag"
        return None
    return check


def _build_verify(rng: random.Random, work: Path, tiny: bool) -> list[Op]:
    ops = []
    for cmd, m, count in (VERIFY_MIX_TINY if tiny else VERIFY_MIX):
        for _ in range(count):
            i = len(ops)
            out = work / f"op{i}.json"
            seed = str(rng.randrange(1, 2**31))
            if cmd == "verify":
                argv = ["verify", "--pairs", str(m), "--seed", seed, "--out", str(out)]
                check = _verify_check(m)
            else:
                b = rng.randrange(2)
                argv = ["truthtable", "--pairs", str(m), "--flag-in", str(b),
                        "--seed", seed, "--out", str(out)]
                check = _truthtable_check(m, b)
            ops.append(Op(f"{cmd}{m}", cmd, m, [argv], [out], check))
    return _interleave(ops)


# ---------------------------------------------------------------------------

_BUILDERS = {"noisy-shots": _build_noisy, "wide-exact": _build_wide,
             "verify-suite": _build_verify}


def build(workload: str, seed: int, work: Path, tiny: bool = False) -> list[Op]:
    """The pass's op list for one workload, inputs written under `work`.

    The list ends with reruns of a fixed subset, every RERUN_EVERY-th op of
    each kind's cheapest shape; a rerun's outputs must match the bytes of
    that op's first run in the process.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, work, tiny)
    for i, op in enumerate(ops):
        op.key = f"{i}:{op.shape}"
    reruns = []
    for first in warmup_ops(ops):
        cheap = [op for op in ops if op.shape == first.shape]
        reruns += cheap[::RERUN_EVERY]
    return ops + reruns


def warmup_ops(ops: list[Op]) -> list[Op]:
    """One op of each kind, the smallest one, for set-up."""
    smallest: dict[str, Op] = {}
    for op in ops:
        if op.kind not in smallest or op.size < smallest[op.kind].size:
            smallest[op.kind] = op
    return list(smallest.values())
