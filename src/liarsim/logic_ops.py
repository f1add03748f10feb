"""Operator algebra for the pair register, plus the classical flag rule.

The pair register holds m contradiction qubits at indices 0..m-1 and m
resolution qubits at m..2m-1 (no flag), dimension 4**m.  A pair is violated
when its contradiction bit is 1 and its resolution bit is 0.  Every operator
of the logic is diagonal in the computational basis, so each is held as a
length-4**m diagonal read off one vector of violated-pair bitmasks; entries
are exact 0/1 (or integer) floats and the operator identities are checked
elementwise to machine precision.

Three dense builders return the same diagonals as 4**m x 4**m matrices, and
taylor_exponential is the plain power series on such a matrix, capped at
dimension 1024 (5 pairs).  Nothing in the package calls these four; they
stay public because the benchmark's tracer (perfbench/tracing.py) wraps them
by name.  The dense predicates and constructions the tests check them with
(is_projector, reflection, projector_exponential) are the dense oracle in
tests/basis_oracle.py.

The flag circuits contain no H, so each maps a basis state to one basis
state times a phase; _flag_map pushes every pair+flag basis input through
such a circuit at once, by the simulator's support run, instead of
simulating them one at a time.  The classical rule has one core, _rule,
which reads the flag output and label of any number of pair+flag basis
inputs off their violated-pair and contradiction bitmasks; classical_rule,
the suite and the truth-table columns all run it.  The truth table has one
core too, _truth_columns, which returns its columns as arrays: truth_table
builds its rows from them and the CLI renders them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statevec
from .circuit import OR_ACCUMULATE, PARITY, _is_int, build_general

MAX_PAIRS = 5
_MAX_DENSE_QUBITS = 10  # dim 1024
_TAYLOR_TERMS = 48

FULLY_CONSISTENT = "fully consistent"
LOCALLY_RESOLVED = "locally resolved"
INCONSISTENCY_DETECTED = "inconsistency detected"
FULLY_INCONSISTENT = "fully inconsistent"


def _check_pairs(num_pairs: int) -> int:
    if not (_is_int(num_pairs) and 1 <= num_pairs <= MAX_PAIRS):
        raise ValueError(f"num_pairs must be in 1..{MAX_PAIRS}, got {num_pairs!r}")
    return int(num_pairs)


def violation_count(index, num_pairs: int):
    """Number of violated pairs in a pair-register basis state, or in each
    of an integer array of them."""
    if not (_is_int(num_pairs) and num_pairs >= 1):
        raise ValueError(f"num_pairs must be an integer >= 1, got {num_pairs!r}")
    return sum(((index >> i) & 1) & (~(index >> (num_pairs + i)) & 1)
               for i in range(num_pairs))


def _violations(num_pairs: int, x):
    """Violated-pair bitmask of basis index x (an int or an int64 array;
    bits above 2m, such as the flag, are ignored): bit i is set when
    contradiction bit i is 1 and resolution bit m+i is 0."""
    return x & ~(x >> num_pairs) & ((1 << num_pairs) - 1)


def _diagonals(num_pairs: int):
    """Diagonals of the pair projectors (one row per pair), the global
    projector, the Hamiltonian and the reflection 2*Pi - I."""
    viol = _violations(num_pairs, np.arange(4 ** num_pairs))
    pairs = np.array([(viol >> i) & 1 for i in range(num_pairs)], dtype=float)
    consistent = viol == 0
    return (pairs, consistent.astype(float), pairs.sum(axis=0),
            np.where(consistent, 1.0, -1.0))


def contradiction_projector(num_pairs: int, pair: int) -> np.ndarray:
    """Projector onto basis states where the given pair is violated."""
    num_pairs = _check_pairs(num_pairs)
    if not (_is_int(pair) and 0 <= pair < num_pairs):
        raise ValueError(f"pair index {pair!r} out of range for {num_pairs} pairs")
    return np.diag(_diagonals(num_pairs)[0][pair].astype(np.complex128))


def global_consistency_projector(num_pairs: int) -> np.ndarray:
    """Product of (I - P_i) over all pairs: projects onto states with no
    violated pair.  Rank is 3**num_pairs (three allowed configurations per
    pair out of four)."""
    _check_pairs(num_pairs)
    return np.diag(_diagonals(num_pairs)[1].astype(np.complex128))


def logic_hamiltonian(num_pairs: int) -> np.ndarray:
    """Sum of the pair projectors.  Eigenvalues are the violated-pair counts,
    so the kernel is exactly the image of the global consistency projector."""
    _check_pairs(num_pairs)
    return np.diag(_diagonals(num_pairs)[2].astype(np.complex128))


def taylor_exponential(op: np.ndarray, terms: int = _TAYLOR_TERMS) -> np.ndarray:
    """Independent oracle for e^{-iA}: plain truncated power series."""
    if op.shape[0] != op.shape[1]:
        raise ValueError("operator must be square")
    if op.shape[0] > 2 ** _MAX_DENSE_QUBITS:
        raise ValueError(f"dimension {op.shape[0]} exceeds the dense cap")
    if not (_is_int(terms) and terms >= 1):
        raise ValueError(f"terms must be an integer >= 1, got {terms!r}")
    acc = np.eye(op.shape[0], dtype=np.complex128)
    term = np.eye(op.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        term = term @ op * (-1j / k)
        acc = acc + term
    return acc


def _flag_map(mode: str, num_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Image of each of the 2**(2m+1) pair-register-plus-flag basis inputs,
    ancillas at 0, under the mode's circuit: its output index and phase.
    build_general holds the pair register in bits 0..2m-1, as this module
    does, and the flag in bit 2m, so input a | f << 2m is assignment a with
    flag f, and bit 2m of its output is the flag out."""
    size = 1 << (2 * num_pairs + 1)
    return statevec._run_support(build_general(num_pairs, mode),
                                 np.arange(size, dtype=np.int64),
                                 np.ones(size, dtype=np.complex128))[:2]


# ---------------------------------------------------------------------------
# classical rule

@dataclass(frozen=True)
class RuleResult:
    flag_out: int
    label: str
    violated: tuple[int, ...]


_LABELS = (FULLY_CONSISTENT, LOCALLY_RESOLVED, INCONSISTENCY_DETECTED,
           FULLY_INCONSISTENT)


def _rule(num_pairs: int, inputs):
    """Classical rule on pair+flag basis inputs (an int or an int64 array,
    flag in bit 2m): the flag output and the _LABELS index of each."""
    full = (1 << num_pairs) - 1
    viol = _violations(num_pairs, inputs)
    flag_out = ((inputs >> (2 * num_pairs)) & 1) ^ (viol != 0)
    # 0 with no active contradiction, else 1 with every one resolved, else 3
    # when all pairs of a multi-pair register are violated, else 2
    label = ((inputs & full) != 0) * (
        1 + (viol != 0) * (1 + ((viol == full) & (num_pairs >= 2))))
    return flag_out, label


def classical_rule(contradictions, resolutions, flag_in: int) -> RuleResult:
    """Classical coherence rule: the flag flips iff at least one pair holds an
    unresolved contradiction (contradiction bit set, resolution bit clear).

    Labels: "fully consistent" when no contradiction is active, "locally
    resolved" when every active contradiction is resolved, "fully
    inconsistent" when every pair of a multi-pair register is violated, and
    "inconsistency detected" otherwise.
    """
    c, r = tuple(contradictions), tuple(resolutions)
    if len(c) != len(r) or not c:
        raise ValueError("need equal, nonempty contradiction/resolution lists")
    for name, bits in (("contradictions", c), ("resolutions", r)):
        if not all(_is_int(b) and b in (0, 1) for b in bits):
            raise ValueError(f"{name} must be 0/1 integer bits, got {bits!r}")
    if not (_is_int(flag_in) and flag_in in (0, 1)):
        raise ValueError(f"flag_in must be 0 or 1, got {flag_in!r}")

    m = len(c)
    index = sum(int(b) << i for i, b in enumerate(c + r)) | int(flag_in) << (2 * m)
    flag_out, label = _rule(m, index)
    viol = _violations(m, index)
    violated = tuple(i for i in range(m) if (viol >> i) & 1)
    return RuleResult(flag_out, _LABELS[label], violated)


@dataclass(frozen=True)
class TruthTableRow:
    contradictions: tuple[int, ...]
    resolutions: tuple[int, ...]
    flag_in: int
    rule_flag: int
    label: str
    circuit_flag: int
    diverges: bool


def _truth_columns(num_pairs: int, flag_in: int):
    """The truth table as int64 arrays over the 4**m assignments in index
    order: the pair+flag basis inputs, the rule's flag output, the _LABELS
    index and the parity circuit's flag output."""
    if not (_is_int(num_pairs) and num_pairs >= 1):
        raise ValueError(f"need an integer num_pairs >= 1, got {num_pairs!r}")
    if 2 * num_pairs + 1 > statevec.MAX_QUBITS:
        raise ValueError(f"{num_pairs} pairs exceeds the simulator width cap")
    if not (_is_int(flag_in) and flag_in in (0, 1)):
        raise ValueError(f"flag_in must be 0 or 1, got {flag_in!r}")
    m = num_pairs
    inputs = np.arange(4 ** m) | flag_in << (2 * m)
    rule_flags, labels = _rule(m, inputs)
    out_index, _ = _flag_map(PARITY, m)
    return inputs, rule_flags, labels, (out_index[inputs] >> (2 * m)) & 1


def truth_table(num_pairs: int, flag_in: int = 1) -> list[TruthTableRow]:
    """Exhaustive rule-vs-parity-circuit comparison over all 4**m assignments.

    Each row pairs the classical flag rule with the flag bit the parity
    circuit produces on the same basis input.  The two disagree exactly on
    even nonzero violation counts, where the cascade's second flip undoes
    the first; the diverges column makes those rows easy to pick out.
    """
    inputs, rule_flags, labels, circuit_flags = _truth_columns(num_pairs, flag_in)
    m = num_pairs
    bits = ((inputs[:, None] >> np.arange(2 * m)) & 1).tolist()
    return [TruthTableRow(tuple(row[:m]), tuple(row[m:]), flag_in, rule_flag,
                          _LABELS[label], circuit_flag, circuit_flag != rule_flag)
            for row, rule_flag, label, circuit_flag in zip(
                bits, rule_flags.tolist(), labels.tolist(), circuit_flags.tolist())]


# ---------------------------------------------------------------------------
# fixed points

@dataclass(frozen=True)
class FixedPointReport:
    """Comparison of three fixed-point notions on m pairs.

    Algebra side: the +1 eigenspace of the reflection 2*Pi - I against the
    kernel of the violation-count Hamiltonian (these agree exactly).
    Cascade side: basis states left unchanged by the parity flag circuit.
    The cascade fixes every basis state with an even number of violations,
    regardless of the flag value; that is strictly larger than the often
    assumed set (consistent states with flag 1), and the report carries the
    breakdown rather than hiding it.
    """

    num_pairs: int
    plus_one_dim: int
    kernel_dim: int
    algebra_match: bool
    cascade_total: int
    cascade_fixed: int
    assumed_fixed: int
    assumed_set_is_exact: bool
    extra_consistent_flag_zero: int
    extra_even_violation: int
    missing_from_assumed: int
    note: str


def fixed_point_report(num_pairs: int) -> FixedPointReport:
    """The fixed-point comparison on num_pairs pairs, as verify reports it."""
    return _verify(num_pairs)[1]


# ---------------------------------------------------------------------------
# verification suite

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    detail: str


def verification_suite(num_pairs: int) -> list[CheckResult]:
    """Operator-identity and circuit-equivalence checks for one register size.

    Every operator is diagonal, so the checks run elementwise on diagonals:
    a product of operators is the product of their diagonals, and a real
    diagonal is hermitian.  Exact-set checks report deviation 0.0 on success
    and 1.0 on mismatch; operator checks report the max absolute entry
    deviation.
    """
    return _verify(num_pairs)[0]


def _verify(num_pairs: int) -> tuple[list[CheckResult], FixedPointReport]:
    """verification_suite and fixed_point_report of one register size, from
    one build of the diagonals and of the parity circuit's map; the two public
    functions each return one half."""
    m = _check_pairs(num_pairs)
    dim = 4 ** m
    checks: list[CheckResult] = []

    pairs, pi_global, hamiltonian, unitary = _diagonals(m)

    dev = max(float(np.abs(pairs * pairs - pairs).max()),
              float(np.abs(pairs.sum(axis=1) - 4 ** (m - 1)).max()))
    checks.append(CheckResult(
        "pair_projector_laws", dev <= 1e-12, dev,
        f"{m} pair projector(s): idempotent, hermitian, trace {4 ** (m - 1)}"))

    dev = max(float(np.abs(pi_global * pi_global - pi_global).max()),
              abs(float(pi_global.sum()) - 3 ** m),
              float(np.abs(pi_global * pairs).max()))
    checks.append(CheckResult(
        "global_projector_laws", dev <= 1e-12, dev,
        f"global projector: idempotent, hermitian, rank {3 ** m}, "
        f"annihilates every pair projector"))

    dev = max(float(np.abs(unitary - (2.0 * pi_global - 1.0)).max()),
              float(np.abs(unitary * unitary - 1.0).max()))
    checks.append(CheckResult(
        "reflection_laws", dev <= 1e-12, dev,
        "reflection is hermitian, involutive, equals 2*Pi - I"))

    complement = 1.0 - pi_global  # itself a projector
    closed = 1.0 + (np.exp(-1j * np.pi) - 1.0) * complement
    dev = float(np.abs(closed - unitary).max())
    checks.append(CheckResult(
        "exponential_closed_form", dev <= 1e-12, dev,
        "e^{-i*pi*(I - Pi)} via the closed form equals the reflection"))

    # the same truncated power series as taylor_exponential, entry by entry
    op = np.pi * complement
    acc = np.ones(dim, dtype=np.complex128)
    term = np.ones(dim, dtype=np.complex128)
    for k in range(1, _TAYLOR_TERMS):
        term = term * op * (-1j / k)
        acc = acc + term
    dev = float(np.abs(acc - unitary).max())
    checks.append(CheckResult(
        "exponential_taylor", dev <= 1e-9, dev,
        f"truncated power series ({_TAYLOR_TERMS} terms) matches the reflection"))

    dev = float(np.abs(hamiltonian - violation_count(np.arange(dim), m)).max())
    checks.append(CheckResult(
        "hamiltonian_spectrum", dev == 0.0, dev,
        "Hamiltonian is diagonal with violated-pair counts as eigenvalues"))

    kernel = hamiltonian == 0.0
    plus_one = unitary == 1.0
    match = bool(np.array_equal(kernel, plus_one))
    checks.append(CheckResult(
        "kernel_equals_plus_one_space", match, 0.0 if match else 1.0,
        f"kernel of the Hamiltonian and +1 eigenspace of the reflection "
        f"coincide on all {dim} basis states (dimension {int(kernel.sum())})"))

    # pair+flag inputs the parity circuit maps exactly to themselves
    parity_out, parity_phase = _flag_map(PARITY, m)
    fixed = (parity_out == np.arange(parity_out.size)) & (np.abs(parity_phase - 1.0) < 1e-12)
    # the flag is the top bit, so pair+flag input x has the violation count
    # of pair state x mod 4**m
    counts = np.tile(hamiltonian, 2)
    flag = np.arange(fixed.size) >= dim
    assumed = (counts == 0) & flag
    extra = fixed & ~assumed
    missing = assumed & ~fixed
    n_fixed, n_assumed = int(fixed.sum()), int(assumed.sum())
    extra_f0 = int((extra & (counts == 0) & ~flag).sum())
    extra_even = int((extra & (counts >= 2)).sum())
    note = (
        f"cascade on {m} pair(s): {n_fixed}/{fixed.size} basis states fixed "
        f"(all inputs with an even violation count). The assumed fixed set "
        f"(consistent states with flag 1, {n_assumed} states) is a strict "
        f"subset: {extra_f0} consistent flag-0 state(s) and {extra_even} "
        f"even-violation inconsistent state(s) are also fixed."
    )
    report = FixedPointReport(
        num_pairs=m,
        plus_one_dim=int(plus_one.sum()),
        kernel_dim=int(kernel.sum()),
        algebra_match=match,
        cascade_total=fixed.size,
        cascade_fixed=n_fixed,
        assumed_fixed=n_assumed,
        assumed_set_is_exact=not (extra.any() or missing.any()),
        extra_consistent_flag_zero=extra_f0,
        extra_even_violation=extra_even,
        missing_from_assumed=int(missing.sum()),
        note=note,
    )
    cascade_ok = bool(np.array_equal(fixed, counts % 2 == 0)) and match
    checks.append(CheckResult(
        "cascade_fixed_points", cascade_ok, 0.0 if cascade_ok else 1.0, note))

    if m <= 3:
        or_flag = (_flag_map(OR_ACCUMULATE, m)[0] >> (2 * m)) & 1
        parity_flag = (parity_out >> (2 * m)) & 1
        total = or_flag.size
        rule_flag, _ = _rule(m, np.arange(total))
        or_ok = bool(np.array_equal(or_flag, rule_flag))
        checks.append(CheckResult(
            "rule_matches_or_circuit", or_ok, 0.0 if or_ok else 1.0,
            f"OR-mode circuit reproduces the classical rule on all {total} "
            f"basis inputs"))

        expected = (counts >= 2) & (counts % 2 == 0)
        div_ok = bool(np.array_equal(parity_flag != or_flag, expected))
        checks.append(CheckResult(
            "parity_or_divergence", div_ok, 0.0 if div_ok else 1.0,
            f"parity and OR modes diverge on exactly the {int(expected.sum())} "
            f"inputs with an even nonzero violation count"))

    return checks, report
