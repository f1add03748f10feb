"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Run `pytest tests/test_acceptance.py -v` for the one-line-per-criterion view.
Each test also prints a CRITERION summary (visible with -s or on failure).
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from liarsim.circuit import (NEGATED, OR_ACCUMULATE, PARITY, POSITIVE, Circuit,
                             PairLayout, build_general, build_liar_literal,
                             build_liar_reference, ccx, expand_toffolis,
                             gate_census, toffoli_decompose)
from liarsim.cli import main
from liarsim.dist import COUNTS, PROBABILITY, Distribution, load_reference_table
from liarsim.hardware_model import NoiseProfile, fidelity_estimate, noisy_sample
from liarsim.logic_ops import classical_rule, verification_suite
from liarsim.metrics import (chi_squared_gof, consistency_fidelity,
                             interference_suppression, tv_distance)
from liarsim.statevec import probabilities, run_circuit

from basis_oracle import circuit_flag_on_basis, circuit_unitary

REPO_ROOT = Path(__file__).resolve().parents[1]


def announce(num: int, message: str) -> None:
    print(f"CRITERION {num}: PASS - {message}")


# ---------------------------------------------------------------------------

def test_criterion_01_reference_circuit_two_outcome_output():
    start = time.perf_counter()
    state = run_circuit(build_liar_reference())
    probs = np.abs(state.amplitudes) ** 2
    elapsed = time.perf_counter() - start

    by_state = {format(i, "04b"): float(p) for i, p in enumerate(probs)}
    assert abs(by_state["1001"] - 0.5) < 1e-12
    assert abs(by_state["1010"] - 0.5) < 1e-12
    others = [v for k, v in by_state.items() if k not in ("1001", "1010")]
    assert len(others) == 14
    assert all(v < 1e-12 for v in others)
    assert elapsed < 1.0
    announce(1, f"reference circuit gives 1001/1010 at 0.5 each "
                f"(largest stray mass {max(others):.1e}, {elapsed * 1000:.0f} ms)")


def test_criterion_02_literal_sequence_witness():
    start = time.perf_counter()
    probs = probabilities(run_circuit(build_liar_literal()))
    elapsed = time.perf_counter() - start

    assert set(probs.entries) == {"0000", "0111"}
    assert abs(probs.entries["0000"] - 0.5) < 1e-12
    assert abs(probs.entries["0111"] - 0.5) < 1e-12
    assert elapsed < 1.0
    announce(2, "literal gate sequence lands on 0000/0111, pinning the gap "
                "against the reference output")


def test_criterion_03_operator_identity_suite_to_four_pairs():
    start = time.perf_counter()
    worst = 0.0
    for pairs in (1, 2, 3, 4):
        checks = verification_suite(pairs)
        for check in checks:
            assert check.passed, f"{pairs} pairs, {check.name}: {check.detail}"
            worst = max(worst, check.max_deviation)
        names = {c.name for c in checks}
        assert "kernel_equals_plus_one_space" in names
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 30.0
    announce(3, f"identity suite passes for 1..4 pairs "
                f"(max deviation {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_04_rule_circuit_equivalence_and_divergence():
    start = time.perf_counter()
    for m in (1, 2, 3):
        layout = PairLayout.default(m)
        or_circuit = build_general(layout, OR_ACCUMULATE)
        parity_circuit = build_general(layout, PARITY)
        divergent = set()
        for assignment in range(4 ** m):
            c = tuple((assignment >> i) & 1 for i in range(m))
            r = tuple((assignment >> (m + i)) & 1 for i in range(m))
            violations = sum(ci and not ri for ci, ri in zip(c, r))
            for flag_in in (0, 1):
                want = classical_rule(c, r, flag_in).flag_out
                got_or = circuit_flag_on_basis(or_circuit, c, r, flag_in, layout)
                got_parity = circuit_flag_on_basis(parity_circuit, c, r,
                                                   flag_in, layout)
                assert got_or == want, ("or", m, c, r, flag_in)
                if violations <= 1:
                    assert got_parity == want, ("parity", m, c, r, flag_in)
                if got_parity != want:
                    divergent.add((c, r))
        expected = {
            (c, r)
            for assignment in range(4 ** m)
            for c in [tuple((assignment >> i) & 1 for i in range(m))]
            for r in [tuple((assignment >> (m + i)) & 1 for i in range(m))]
            if (v := sum(ci and not ri for ci, ri in zip(c, r))) >= 2 and v % 2 == 0
        }
        assert divergent == expected, m
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(4, f"OR circuit == classical rule on every assignment (m <= 3); "
                f"parity diverges exactly on even nonzero violation counts "
                f"({elapsed:.1f} s)")


def test_criterion_05_reference_table_metric_regression():
    sim = load_reference_table("simulation")
    hw = load_reference_table("hardware")
    consistent = ("1001", "1010")

    f_c_sim = consistency_fidelity(sim, consistent)
    f_c_hw = consistency_fidelity(hw, consistent)
    d_tv = tv_distance(sim, hw)
    assert abs(f_c_sim - 0.8713) < 5e-4
    assert abs(f_c_hw - 0.8614) < 5e-4
    assert abs(d_tv - 0.03385) < 1e-3

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "0.8713" in readme and "0.8614" in readme and "0.03385" in readme
    assert "per-run" in readme
    assert "cannot be recomputed" in readme
    announce(5, f"bundled-table regression holds (F_C {f_c_sim:.4f}/{f_c_hw:.4f}, "
                f"D_TV {d_tv:.5f}) and the README documents what the bundle "
                f"cannot reproduce")


def test_criterion_06_metric_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(271828)

    def random_prob(width=3):
        dim = 1 << width
        support = rng.choice(dim, size=int(rng.integers(2, dim + 1)), replace=False)
        masses = rng.random(len(support)) + 1e-3
        masses /= masses.sum()
        return Distribution(width, {format(int(s), f"0{width}b"): float(v)
                                    for s, v in zip(support, masses)}, PROBABILITY)

    universe = [format(i, "03b") for i in range(8)]
    for _ in range(1000):
        p, q, r = random_prob(), random_prob(), random_prob()
        d_pq = tv_distance(p, q)
        assert 0.0 <= d_pq <= 1.0 + 1e-12
        assert abs(d_pq - tv_distance(q, p)) < 1e-15
        assert d_pq <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
        states = list(p.entries)
        inside = tuple(states[: max(1, len(states) // 2)])
        outside = tuple(s for s in universe if s not in inside)
        both = consistency_fidelity(p, inside) + consistency_fidelity(p, outside)
        assert abs(both - p.total()) < 1e-12

    # chi-squared p-values against direct density integration
    def tail_oracle(dof, stat):
        upper = stat + 40.0 * max(1.0, math.sqrt(2.0 * dof))
        xs = np.linspace(stat, upper, 400_001)
        log_pdf = ((dof / 2.0 - 1.0) * np.log(xs) - xs / 2.0
                   - (dof / 2.0) * math.log(2.0) - math.lgamma(dof / 2.0))
        ys = np.exp(log_pdf)
        return float(np.sum((ys[1:] + ys[:-1]) * np.diff(xs)) / 2.0)

    grid = [(dof, stat) for dof in (1, 2, 3, 5, 10)
            for stat in (0.5, 1.0, 3.841, 7.0)]
    assert len(grid) == 20
    for dof, stat in grid:
        bins = dof + 1
        shots = 10000
        expected = Distribution(4, {format(i, "04b"): 1.0 / bins
                                    for i in range(bins)}, PROBABILITY)
        delta = round(math.sqrt(stat * (shots / bins) / 2.0))
        obs = {format(i, "04b"): float(shots // bins) for i in range(bins)}
        obs["0000"] += delta
        obs["0001"] -= delta
        result = chi_squared_gof(Distribution(4, obs, COUNTS), expected)
        assert result.dof == dof
        assert abs(result.p_value - tail_oracle(dof, result.statistic)) < 1e-3
    boundary = tail_oracle(1, 3.841)
    assert abs(boundary - 0.05) < 1e-3

    # interference suppression refuses a zero ideal paradox mass
    ideal = Distribution(1, {"0": 1.0}, PROBABILITY)
    experimental = Distribution(1, {"0": 0.9, "1": 0.1}, PROBABILITY)
    with pytest.raises(ValueError):
        interference_suppression(experimental, ideal, ("1",))

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(6, f"1000 distribution triples, 20-point chi-squared oracle grid "
                f"(5% boundary at {boundary:.5f}), suppression guard ({elapsed:.1f} s)")


def test_criterion_07_cost_model_gate_budget():
    def max_dev_up_to_phase(a, b):
        flat_a, flat_b = a.ravel(), b.ravel()
        anchor = int(np.argmax(np.abs(flat_b)))
        phase = flat_a[anchor] / flat_b[anchor]
        return float(np.abs(flat_a - phase * flat_b).max())

    for n in (2, 4, 8, 16):
        pairs = n // 2
        circuit = build_general(PairLayout.default(pairs), PARITY)
        census = gate_census(expand_toffolis(circuit))
        assert census.count_2q == 3 * n
        assert census.count_ccx == 0
        for gate in circuit.gates:
            expansion = toffoli_decompose(gate)
            assert sum(1 for g in expansion if g.kind == "CNOT") == 6

        fid = fidelity_estimate(3 * n, 0, NoiseProfile(p_2q=1e-3))
        assert abs(fid - math.exp(-0.003 * n)) < 1e-12

    worst = 0.0
    for pol1 in (POSITIVE, NEGATED):
        for pol2 in (POSITIVE, NEGATED):
            gate = ccx(0, 1, 2, pol1, pol2)
            direct = circuit_unitary(Circuit(3, [gate]))
            expanded = circuit_unitary(Circuit(3, toffoli_decompose(gate)))
            worst = max(worst, max_dev_up_to_phase(expanded, direct))
    assert worst < 1e-9
    announce(7, f"two-qubit count is 3N for N in 2,4,8,16; every Toffoli "
                f"expansion holds 6 CNOTs and matches CCX up to phase "
                f"(max deviation {worst:.1e}); fidelity e^(-0.003N) exact")


def test_criterion_08_noise_envelope_and_readout_monotonicity():
    start = time.perf_counter()
    circuit = build_liar_reference()
    consistent = ("1001", "1010")

    values = []
    for s in range(20):
        counts = noisy_sample(circuit, NoiseProfile(seed=1000 + s), 8192)
        values.append(consistency_fidelity(counts, consistent))
    mean_fc = sum(values) / len(values)
    assert 0.80 <= mean_fc <= 0.95

    means = []
    for p_read in (0.0, 0.02, 0.05):
        grid_values = []
        for s in range(20):
            counts = noisy_sample(circuit,
                                  NoiseProfile(p_readout=p_read, seed=2000 + s),
                                  2048)
            grid_values.append(consistency_fidelity(counts, consistent))
        means.append(sum(grid_values) / len(grid_values))
    assert means[0] > means[1] + 0.01
    assert means[1] > means[2] + 0.01

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(8, f"mean F_C {mean_fc:.4f} in [0.80, 0.95] over 20 seeds x 8192 "
                f"shots; readout grid {means[0]:.3f} > {means[1]:.3f} > "
                f"{means[2]:.3f} ({elapsed:.1f} s)")


def test_criterion_09_byte_identical_reruns(tmp_path, capsys):
    commands = [
        ["simulate", "liar-reference", "--shots", "8192", "--seed", "1234"],
        ["simulate", "liar-reference", "--shots", "4096",
         "--noise", "1e-4,1e-3,0.015"],
        ["verify", "--pairs", "2"],
        ["metrics", "--exp", "bundled:hardware", "--ideal", "bundled:simulation"],
        ["estimate", "--n", "8", "--graph", "bundled:heavy-hex"],
        ["truthtable", "--pairs", "3"],
    ]
    for i, argv in enumerate(commands):
        first = tmp_path / f"run_a_{i}.json"
        second = tmp_path / f"run_b_{i}.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv

    csv_a = tmp_path / "counts_a.csv"
    csv_b = tmp_path / "counts_b.csv"
    base = ["simulate", "liar-reference", "--shots", "2048", "--seed", "5"]
    assert main(base + ["--csv", str(csv_a), "--out", str(tmp_path / "x.json")]) == 0
    assert main(base + ["--csv", str(csv_b), "--out", str(tmp_path / "y.json")]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()

    # float sums must not follow the per-process string hash order
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    reports = set()
    for hash_seed in ("0", "3", "4"):
        env["PYTHONHASHSEED"] = hash_seed
        reports.add(subprocess.run(
            [sys.executable, "-m", "liarsim.cli", "metrics", "--exp", "bundled:hardware"],
            env=env, capture_output=True, check=True).stdout)
    assert len(reports) == 1
    capsys.readouterr()
    announce(9, "every command's --out and --csv files are byte-identical "
                "across reruns with the same seed, and metrics reports across "
                "hash seeds")
