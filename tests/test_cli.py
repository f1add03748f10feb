"""End-to-end command-line behavior: payload shapes, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liarsim import cli, hardware_model, metrics, statevec
from liarsim.circuit import (GATE_KINDS, NEGATED, POSITIVE, circuit_from_dict,
                             load_circuit)
from liarsim.cli import _emit, canonical_json, main
from liarsim.dist import (_CHUNK_ROWS, _FORMAT_EACH, COUNTS, PROBABILITY, Distribution,
                          _Bits, _Coded, read_distribution_csv)
from liarsim.hardware_model import MAX_GRAPH_NODES, parse_graph_text
from liarsim.logic_ops import _LABELS, CheckResult, fixed_point_report, truth_table
from liarsim.metrics import chi_squared_gof
from liarsim.statevec import DEFAULT_SEED, MAX_QUBITS, MAX_SHOTS

from json_oracle import _indented, _json_default, _strict_numbers, reference_json

ENVELOPE_KEYS = {"command", "config", "seed", "inputs"}


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(captured.out)
    assert ENVELOPE_KEYS <= payload.keys()
    return payload


# ---------------------------------------------------------------------------
# simulate

def test_simulate_liar_reference_json(capsys):
    payload = run_json(capsys, ["simulate", "liar-reference"])
    assert payload["command"] == "simulate"
    assert payload["seed"] == DEFAULT_SEED
    assert payload["num_qubits"] == 4
    probs = payload["probabilities"]
    assert set(probs) == {"1001", "1010"}
    assert probs["1001"] == pytest.approx(0.5, abs=1e-12)
    assert payload["counts"] is None
    assert payload["census"]["count_ccx"] == 1


def test_simulate_liar_literal_json(capsys):
    payload = run_json(capsys, ["simulate", "liar-literal"])
    assert set(payload["probabilities"]) == {"0000", "0111"}


def test_simulate_with_shots_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "counts.csv"
    payload = run_json(capsys, ["simulate", "liar-reference", "--shots", "512",
                                "--seed", "7", "--csv", str(csv_path)])
    counts = payload["counts"]
    assert sum(counts.values()) == 512
    assert set(counts) <= {"1001", "1010"}
    text = csv_path.read_text()
    assert text.startswith("state,counts\n")
    assert sum(int(line.split(",")[1]) for line in text.splitlines()[1:]) == 512


def test_simulate_circuit_file_round_trip(capsys, tmp_path):
    circ_path = tmp_path / "liar.json"
    first = run_json(capsys, ["simulate", "liar-reference",
                              "--circuit-out", str(circ_path)])
    second = run_json(capsys, ["simulate", str(circ_path)])
    assert second["probabilities"] == first["probabilities"]
    # loading from a file records its hash
    digest = second["inputs"][str(circ_path)]
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_simulate_general_modes(capsys):
    payload = run_json(capsys, ["simulate", "general", "--pairs", "3",
                                "--mode", "or"])
    assert payload["config"]["mode"] == "or"
    assert payload["num_qubits"] == 3 * 2 + 1 + 5  # pairs, flag, ancillas
    assert payload["probabilities"] == {"0" * 12: 1.0}


def test_simulate_noisy_counts(capsys):
    payload = run_json(capsys, ["simulate", "liar-reference", "--shots", "400",
                                "--noise", "0,0,0.5", "--seed", "3"])
    assert payload["config"]["noise"] == {"p_1q": 0.0, "p_2q": 0.0,
                                          "p_readout": 0.5}
    assert sum(payload["counts"].values()) == 400


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_simulate_noise_runs_the_ideal_circuit_once(tmp_path, monkeypatch):
    runs = []

    def counting_run(circuit):
        runs.append(circuit)
        return statevec.run_circuit(circuit)

    monkeypatch.setattr(cli, "run_circuit", counting_run)
    monkeypatch.setattr(hardware_model, "run_circuit", counting_run)
    out, table = tmp_path / "s.json", tmp_path / "s.csv"
    assert main(["simulate", "general", "--pairs", "3", "--mode", "or",
                 "--noise", "0.01,0.03,0.02", "--shots", "3000", "--seed", "11",
                 "--out", str(out), "--csv", str(table)]) == 0
    assert len(runs) == 1
    # the same bytes as when the sampler simulated the ideal circuit itself
    assert _sha256(out) == ("281d43bbf030677efc2390561504c05a"
                            "c3b98b7512be8f034f268359b8092f48")
    assert _sha256(table) == ("e64b3ef44709d062959fd11828413f78"
                              "d16d815a5cb63877807ca570605cb8e7")


def test_simulate_pretty_is_text(capsys):
    code = main(["simulate", "liar-reference", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("circuit: liar-reference")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_simulate_usage_errors(capsys):
    assert main(["simulate", "liar-reference", "--noise", "0,0,0"]) == 1
    assert main(["simulate", "liar-reference", "--csv", "x.csv"]) == 1
    assert main(["simulate", "general", "--pairs", "0"]) == 1
    assert main(["simulate", "liar-reference", "--shots", "0"]) == 1
    assert main(["simulate", "liar-reference", "--shots", "10",
                 "--noise", "1,2"]) == 1
    capsys.readouterr()


def test_simulate_rejects_too_many_shots_before_simulating(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_circuit called")

    monkeypatch.setattr("liarsim.cli.run_circuit", refuse)
    assert main(["simulate", "general", "--pairs", "11", "--shots", "2147483648"]) == 1
    assert capsys.readouterr().err == (
        "liarsim simulate: --shots must be in 1..2147483647, got 2147483648\n")


def test_simulate_missing_circuit_file_is_io_error(capsys):
    assert main(["simulate", "/no/such/file.json"]) == 3
    assert "no such circuit" in capsys.readouterr().err


def cli_env(hash_seed: str) -> dict:
    """The environment of a `python -m liarsim.cli` subprocess that imports
    this checkout's src/ under the given PYTHONHASHSEED."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def _cnot(control: int, target: int) -> dict:
    return {"kind": "CNOT", "targets": [target], "controls": [control],
            "polarities": ["positive"]}


def _all_h_then_cascade(n: int) -> dict:
    """H on every qubit, then a CNOT cascade: from 12 qubits up the run
    leaves the support for the dense kernel mid-run."""
    gates = [{"kind": "H", "targets": [q]} for q in range(n)]
    return {"num_qubits": n, "gates": gates + [_cnot(q, q + 1) for q in range(n - 1)]}


def _h_light_chain(n: int) -> dict:
    """8 H, then CNOT, CCX and P down the register: the run ends on the
    support, and the report is computed from it without the dense state."""
    gates = [{"kind": "H", "targets": [q]} for q in range(0, 16, 2)]
    for q in range(n - 2):
        gates += [_cnot(q, q + 1),
                  {"kind": "CCX", "targets": [q + 2], "controls": [q, q + 1],
                   "polarities": ["positive", "negated"]},
                  {"kind": "P", "targets": [q], "angle": 0.1 * (q + 1)}]
    return {"num_qubits": n, "gates": gates}


_NOISY = ("--noise", "1e-3,1e-2,0.15", "--shots", "4096")


@pytest.mark.parametrize("payload, argv, path", [
    (_all_h_then_cascade(13), ("c.json", "--shots", "64"), "dense"),
    (_h_light_chain(22), ("c.json", "--shots", "1024"), "support"),
    (None, ("general", "--pairs", "3", "--mode", "or", *_NOISY), "frames"),
    (None, ("liar-reference", *_NOISY), "signatures"),
], ids=["mid-run-switch-13", "support-held-22", "frame-path", "signature-path"])
def test_simulate_report_bytes_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch,
                                                              payload, argv, path):
    if payload is not None:
        (tmp_path / "c.json").write_text(json.dumps(payload), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    circuit, _ = cli._resolve_circuit(cli.build_parser().parse_args(["simulate", *argv]), {})
    if path in ("dense", "support"):
        held = statevec.run_circuit(circuit)._support is not None
        assert held == (path == "support")
    else:  # noisy_sample runs the faulty shots of an H-free circuit as frames
        assert all(gate.kind != "H" for gate in circuit.gates) == (path == "frames")
    reports = []
    for hash_seed in ("0", "1"):
        out = f"report{hash_seed}.json"
        subprocess.run([sys.executable, "-m", "liarsim.cli", "simulate", *argv,
                        "--out", out],
                       cwd=tmp_path, env=cli_env(hash_seed), capture_output=True,
                       check=True)
        reports.append((tmp_path / out).read_bytes())
    assert reports[0] == reports[1]


_NOISY_OR = ("simulate", "general", "--pairs", "3", "--mode", "or", *_NOISY)


def write_noisy_counts(where: Path) -> None:
    """exp.csv and ideal.csv under where: the 12-qubit counts of two noisy OR
    m=3 runs, seeds 5 and 6."""
    for seed, name in (("5", "exp.csv"), ("6", "ideal.csv")):
        assert main([*_NOISY_OR, "--seed", seed, "--csv", str(where / name),
                     "--out", str(where / "s.json")]) == 0


@pytest.mark.parametrize("argv", [
    ("verify", "--pairs", "3"),
    ("truthtable", "--pairs", "4"),
    ("truthtable", "--pairs", "6", "--flag-in", "0"),
    ("metrics", "--exp", "bundled:hardware"),
    ("metrics", "--exp", "exp.csv", "--ideal", "ideal.csv",
     "--consistent-set", "000000000000"),
    ("estimate", "--n", "8", "--graph", "ring", "--layout", "0,1,2,3,4,5,6,7,8"),
    ("simulate", "general", "--pairs", "3", "--shots", "64"),
    _NOISY_OR,
], ids=" ".join)
def test_report_bytes_are_the_canonical_encoding_of_their_content(tmp_path, argv):
    if "exp.csv" in argv:
        write_noisy_counts(tmp_path)
    subprocess.run([sys.executable, "-m", "liarsim.cli", *argv, "--out", "r.json"],
                   cwd=tmp_path, env=cli_env("random"), capture_output=True, check=True)
    text = (tmp_path / "r.json").read_bytes().decode("utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_reports_never_reach_the_reference_encoder(tmp_path, monkeypatch):
    # json.dumps, through tests/json_oracle.py, is the oracle the walker is
    # held to; no report is written by it
    def refuse(value, *args, **kwargs):
        raise AssertionError(f"json.dumps called on {type(value).__name__}")

    write_noisy_counts(tmp_path)
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n1 2\n2 3\n", encoding="utf-8")
    for argv in (["simulate", "liar-reference"],
                 ["simulate", "liar-literal", "--shots", "64"],
                 [*_NOISY_OR],
                 ["simulate", "general", "--pairs", "2", "--with-phase", "--shots", "8"],
                 ["verify", "--pairs", "1"],
                 ["verify", "--pairs", "3"],
                 ["metrics", "--exp", "bundled:hardware"],
                 ["metrics", "--exp", "bundled:hardware", "--ideal", "bundled:simulation",
                  "--column", "counts"],
                 ["metrics", "--exp", "exp.csv", "--ideal", "ideal.csv",
                  "--consistent-set", "000000000000"],
                 ["metrics", "--exp", "exp.csv", "--ideal", "exp.csv", "--consistent-set",
                  "000000000001", "--paradox-set", "000000000000", "--flag-index", "3"],
                 ["estimate", "--n", "2"],
                 ["estimate", "--n", "2", "--graph", str(graph)],
                 ["estimate", "--n", "8", "--graph", "ring", "--layout", "0,1,2,3,4,5,6,7,8"],
                 ["estimate", "--n", "8", "--graph", "bundled:heavy-hex", "--noise", "0,0,0"],
                 ["truthtable"],
                 ["truthtable", "--pairs", "5", "--flag-in", "0"]):
        with mock.patch.object(json, "dumps", refuse):
            assert main([*argv, "--out", "r.json"]) == 0, argv
        text = (tmp_path / "r.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, code", [
    (("simulate", "no-such-circuit.json"), 3),
    (("metrics", "--exp", "no-such-counts.csv"), 3),
    (("estimate", "--n", "2", "--graph", "no-such-graph.txt"), 3),
    (("verify", "--no-such-flag"), 1),
], ids=["missing-circuit", "missing-counts", "missing-graph", "bad-flag"])
def test_process_exit_codes(tmp_path, argv, code):
    # 3 for a missing input file, 1 for a bad flag, as the process exits
    result = subprocess.run([sys.executable, "-m", "liarsim.cli", *argv],
                            cwd=tmp_path, env=cli_env("0"), capture_output=True)
    assert result.returncode == code
    assert result.stdout == b"" and result.stderr


@pytest.mark.parametrize("argv", [
    ("simulate", "liar-reference"), ("verify", "--pairs", "1"),
    ("metrics", "--exp", "bundled:hardware"), ("estimate", "--n", "2"),
    ("truthtable",),
], ids=" ".join)
def test_pretty_prints_text_for_every_subcommand(tmp_path, argv):
    result = subprocess.run([sys.executable, "-m", "liarsim.cli", *argv, "--pretty"],
                            cwd=tmp_path, env=cli_env("0"), capture_output=True,
                            check=True)
    assert result.stdout.strip() and not result.stdout.startswith(b"{")
    assert result.stderr == b""


@pytest.mark.parametrize("mode, cap", [("parity", 11), ("or", 6)])
def test_simulate_general_pair_cap_names_the_mode(capsys, mode, cap):
    # the cap itself passes (test_largest_accepted_sizes_pass_the_caps)
    for pairs in (0, cap + 1, 2 * cap):
        assert main(["simulate", "general", "--pairs", str(pairs), "--mode", mode]) == 1
        assert capsys.readouterr().err == (f"liarsim simulate: --pairs must be in "
                                           f"1..{cap} for mode {mode}, got {pairs}\n")


@pytest.mark.parametrize("extra", [[], ["--noise", "1e-4,1e-3,0.015"]])
def test_simulate_negative_seed_is_usage_error(capsys, extra):
    code = main(["simulate", "liar-reference", "--shots", "5", "--seed", "-1", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert "--seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_negative_seed_rejected_by_every_subcommand(capsys):
    for argv in (["verify", "--pairs", "1"], ["estimate", "--n", "2"],
                 ["metrics", "--exp", "bundled:hardware"], ["truthtable"]):
        assert main(argv + ["--seed", "-3"]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify

def test_verify_passes(capsys):
    payload = run_json(capsys, ["verify", "--pairs", "2"])
    assert payload["all_passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "exponential_taylor" in names
    assert payload["fixed_points"]["cascade_fixed"] == 20


def test_verify_pair_cap(capsys):
    assert main(["verify", "--pairs", "9"]) == 1
    capsys.readouterr()


def test_verify_failure_exits_two(capsys, monkeypatch):
    fake = [CheckResult("forced_failure", False, 1.0, "injected by test")]
    monkeypatch.setattr("liarsim.cli._verify",
                        lambda pairs: (fake, fixed_point_report(pairs)))
    code = main(["verify", "--pairs", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "verification failed" in captured.err
    payload = json.loads(captured.out)
    assert payload["all_passed"] is False


# ---------------------------------------------------------------------------
# metrics

def test_metrics_bundled_tables(capsys):
    payload = run_json(capsys, ["metrics", "--exp", "bundled:hardware",
                                "--ideal", "bundled:simulation"])
    report = payload["report"]
    assert report["f_c_experimental"] == pytest.approx(0.8614, abs=1e-9)
    assert report["f_c_ideal"] == pytest.approx(0.8713, abs=1e-9)
    assert report["d_tv"] == pytest.approx(0.03385, abs=1e-9)
    assert report["chi2_statistic"] is None  # probability column by default


def test_metrics_bundled_counts_column(capsys):
    payload = run_json(capsys, ["metrics", "--exp", "bundled:hardware",
                                "--ideal", "bundled:simulation",
                                "--column", "counts"])
    report = payload["report"]
    assert report["chi2_statistic"] is not None
    assert 0.0 <= report["chi2_p_value"] <= 1.0


def test_metrics_file_against_itself(capsys, tmp_path):
    csv_path = tmp_path / "obs.csv"
    run_json(capsys, ["simulate", "liar-reference", "--shots", "1000",
                      "--csv", str(csv_path)])
    payload = run_json(capsys, ["metrics", "--exp", str(csv_path),
                                "--ideal", str(csv_path)])
    report = payload["report"]
    assert report["d_tv"] == 0.0
    assert report["chi2_p_value"] == 1.0
    assert str(csv_path) in payload["inputs"]


def test_metrics_infinite_statistic_stays_strict_json(capsys, tmp_path):
    # counts on an outcome the exact ideal forbids push the statistic to
    # infinity; the JSON report must encode that as a string, not the
    # nonstandard Infinity literal
    csv_path = tmp_path / "stray.csv"
    csv_path.write_text("state,counts\n1001,500\n1010,480\n0000,20\n",
                        encoding="utf-8")
    out_path = tmp_path / "report.json"
    assert main(["metrics", "--exp", str(csv_path), "--column", "counts",
                 "--out", str(out_path)]) == 0
    capsys.readouterr()

    def reject(token):
        raise AssertionError(f"nonstandard JSON literal {token!r}")

    payload = json.loads(out_path.read_text(encoding="utf-8"),
                         parse_constant=reject)
    assert payload["report"]["chi2_statistic"] == "inf"
    assert payload["report"]["chi2_p_value"] == 0.0


def test_metrics_on_unsorted_csv_sums_in_file_order(tmp_path, monkeypatch):
    # In file order these probabilities sum to 0.9999999999999999, in sorted
    # order to 1.0: the report keeps the file's order.
    monkeypatch.chdir(tmp_path)  # the report names the CSV by path
    x, rows = 0.123456789, []
    for i in range(16):
        x = (x * 7.31 + 0.137) % 1.0
        rows.append((format((i * 11) % 16, "04b"), x))
    total = sum(v for _, v in rows)
    with open("unsorted.csv", "w", encoding="utf-8") as fh:
        fh.write("state,probability\n")
        fh.writelines(f"{k},{v / total!r}\n" for k, v in rows)
    assert main(["metrics", "--exp", "unsorted.csv", "--out", "m.json"]) == 0
    with open("m.json", encoding="utf-8") as fh:
        assert json.load(fh)["sources"]["experimental"]["total"] == 0.9999999999999999
    assert _sha256("m.json") == ("901c84445a0e810554516d7e149c85f3"
                                 "3b818713ca2ec7239ff45aacc0bdcd9b")
    assert main(["metrics", "--exp", "unsorted.csv", "--ideal", "unsorted.csv",
                 "--paradox-set", "0000,0111,1111", "--out", "m2.json"]) == 0
    assert _sha256("m2.json") == ("e4dad7aa023e9d783f223b9b521a76f7"
                                  "b173da17e83209bfd7c1bf1d8a313804")


def test_metrics_12_qubit_reports_are_pinned(tmp_path, monkeypatch):
    # Two noisy OR m=3 samples: 743 of the 858 outcomes in either expect
    # fewer than 5 counts, so chi-squared pools them.  The first report takes
    # the default paradox set (4095 states), the second explicit sets listed
    # out of index order.
    monkeypatch.chdir(tmp_path)  # the report names the CSVs by path
    for seed, name in (("5", "exp.csv"), ("6", "ideal.csv")):
        assert main(["simulate", "general", "--pairs", "3", "--mode", "or",
                     "--noise", "1e-3,1e-2,0.15", "--shots", "4096", "--seed", seed,
                     "--csv", name, "--out", "s.json"]) == 0
    chi2 = chi_squared_gof(read_distribution_csv("exp.csv"),
                           read_distribution_csv("ideal.csv"))
    assert chi2.pooled_bins == 743

    def reports():
        assert main(["metrics", "--exp", "exp.csv", "--ideal", "ideal.csv",
                     "--consistent-set", "000000000000", "--out", "m.json"]) == 0
        assert main(["metrics", "--exp", "exp.csv", "--ideal", "ideal.csv",
                     "--consistent-set", "000000000001,000000000000,100000000000",
                     "--paradox-set", "100000000001,000000000100,100000000000,000000000011",
                     "--out", "m2.json"]) == 0
        return _sha256("m.json"), _sha256("m2.json")

    assert reports() == ("771365232a65f3a70bbbede1cf5efe4a"
                         "4f22caa69b055a8ac7e77f97343eba2d",
                         "3a354dae057ba11070b8e1d9481a4e47"
                         "7ea28cf8258347eecae61c58f3deb2ab")
    # With SciPy's Q in place of the pure one the reports are the bytes pinned
    # before: only chi2_p_value (2.1091789099419628e-09, now ...942049e-09) moved.
    special = pytest.importorskip("scipy.special")
    monkeypatch.setattr(metrics, "_gammaincc", lambda a, x: float(special.gammaincc(a, x)))
    assert reports() == ("a27c1818345a63a6818d65a1c24314c0"
                         "966d5809dc1961036c05a86a160a23d6",
                         "8becf5378dc60fa6ec4927feda45c7c9"
                         "f93d4c8a911db12d4f6176c65f0f5f8a")


@pytest.mark.parametrize("width", [3, 9, 12, 16])
def test_metrics_reports_are_their_own_json_round_trip(tmp_path, monkeypatch, width):
    # the outcome sets rendered from their indices: the default paradox set
    # in index order, explicit sets in the order given
    monkeypatch.chdir(tmp_path)
    picked = np.random.default_rng(width).choice(1 << width, 5, replace=False).tolist()
    states = [format(i, f"0{width}b") for i in picked]
    with open("exp.csv", "w", encoding="utf-8") as fh:
        fh.write("state,counts\n")
        fh.writelines(f"{s},{k + 1}\n" for k, s in enumerate(states))
    counts = read_distribution_csv("exp.csv")
    for extra, paradox in (
            ([], [format(i, f"0{width}b") for i in range(1 << width) if i != picked[0]]),
            (["--paradox-set", ",".join(states[1:])], states[1:])):
        assert main(["metrics", "--exp", "exp.csv", "--ideal", "exp.csv",
                     "--consistent-set", states[0], *extra, "--out", "m.json"]) == 0
        with open("m.json", encoding="utf-8") as fh:
            text = fh.read()
        report = json.loads(text)
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert report["report"]["consistent_set"] == states[:1]
        assert report["report"]["paradox_set"] == paradox
        # the library's report, whose sets are tuples of str, says the same
        config = metrics.MetricsConfig(consistent_set=(states[0],),
                                       paradox_set=tuple(states[1:]) if extra else None)
        assert report["report"] == metrics.full_report(counts, counts, config).to_dict()


SCIPY_FREE = """
import json, sys
import liarsim, liarsim.cli
assert liarsim.cli.main(["metrics", "--exp", "bundled:hardware", "--ideal",
                         "bundled:simulation", "--column", "counts", "--out", sys.argv[1]]) == 0
with open(sys.argv[1], encoding="utf-8") as fh:
    assert 0.0 < json.load(fh)["report"]["chi2_p_value"] < 1.0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_scipy_stays_out_of_the_runtime(tmp_path):
    # the chi-squared p-value is the one special function; it needs NumPy only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCIPY_FREE, str(tmp_path / "m.json")],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


MASKED_FREE = """
import sys
import numpy as np
import liarsim.cli
from liarsim.dist import COUNTS, Distribution
assert liarsim.cli.main(["metrics", "--exp", "bundled:hardware", "--ideal",
                         "bundled:simulation", "--column", "counts", "--out", sys.argv[1]]) == 0
Distribution(2, None, COUNTS, indices=np.array([3, 0, 2]), values=np.ones(3))
print("numpy.ma" in sys.modules)
"""


def test_metrics_leaves_numpy_ma_unimported(tmp_path):
    # np.union1d and a flagless np.unique import numpy.ma, a few milliseconds
    # of every metrics process; the union and the duplicate check sort instead
    result = subprocess.run([sys.executable, "-c", MASKED_FREE, str(tmp_path / "m.json")],
                            env=cli_env("0"), capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


ZERO_COUNTS = "state,counts\n1001,0\n1010,0\n"


@pytest.mark.parametrize("files,argv,code,message", [
    ({"zero.csv": ZERO_COUNTS}, ["--exp", "zero.csv"], 1,
     "observed distribution has zero shots"),
    ({"zero.csv": ZERO_COUNTS, "obs.csv": "state,counts\n1001,6\n1010,4\n"},
     ["--exp", "obs.csv", "--ideal", "zero.csv"], 1,
     "cannot normalize an empty counts distribution"),
    ({"zero.csv": ZERO_COUNTS}, ["--exp", "bundled:hardware", "--ideal", "zero.csv"], 1,
     "cannot normalize an empty counts distribution"),
    ({"zero.csv": "state,probability\n1001,0.0\n1010,0.0\n"}, ["--exp", "zero.csv"], 3,
     "cannot parse zero.csv: probabilities sum to 0.000000, outside 1 +- 1e-06"),
], ids=["zero-counts-exp", "zero-counts-ideal", "zero-counts-ideal-probability-exp",
        "zero-probabilities"])
def test_metrics_error_paths_keep_their_messages(files, argv, code, message,
                                                 tmp_path, monkeypatch, capsys):
    # full_report tries R_I first and keeps its error as a note; the first
    # metric that cannot catch one (chi-squared, else F_C) names the cause
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    assert main(["metrics", *argv]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"liarsim metrics: {message}\n")


def test_metrics_default_ideal_is_exact_circuit(capsys):
    payload = run_json(capsys, ["metrics", "--exp", "bundled:hardware"])
    report = payload["report"]
    assert report["f_c_ideal"] == pytest.approx(1.0, abs=1e-12)
    # the exact reference assigns no paradox mass, so R_I is undefined
    assert report["r_i"] is None
    assert "undefined" in report["r_i_note"]


def test_metrics_errors(capsys):
    assert main(["metrics", "--exp", "/missing.csv"]) == 3
    assert main(["metrics", "--exp", "bundled:trapped_ion"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# estimate

def test_estimate_linear_chain(capsys):
    payload = run_json(capsys, ["estimate", "--n", "8"])
    est = payload["estimate"]
    assert est["g_2q"] == 24
    assert est["g_1q"] == 44
    expected = math.exp(-(1e-3 * 24 + 1e-4 * 44))
    assert est["fidelity"] == pytest.approx(expected, abs=1e-12)
    assert est["swap_overhead_depth"] > 0
    assert payload["graph"]["num_nodes"] == 9


def test_estimate_bundled_graph(capsys):
    payload = run_json(capsys, ["estimate", "--n", "4",
                                "--graph", "bundled:heavy-hex"])
    assert payload["graph"]["num_nodes"] == 27
    assert payload["graph"]["max_degree"] == 3


def test_estimate_zero_noise_gives_unit_fidelity(capsys):
    payload = run_json(capsys, ["estimate", "--n", "4", "--noise", "0,0,0"])
    assert payload["estimate"]["fidelity"] == 1.0


def test_estimate_rejects_odd_or_small_n(capsys):
    assert main(["estimate", "--n", "3"]) == 1
    assert main(["estimate", "--n", "0"]) == 1
    capsys.readouterr()


def test_malformed_graph_file_is_parse_error(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 x\n", encoding="utf-8")
    code, out, err = call(["estimate", "--n", "2", "--graph", str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith(f"liarsim estimate: cannot parse graph {path}: ")
    check_outcome(["estimate"], code, err)


def test_estimate_layout_and_graph_errors(capsys):
    assert main(["estimate", "--n", "4", "--graph-size", "2"]) == 1
    assert main(["estimate", "--n", "4", "--layout", "0,1,x"]) == 1
    assert main(["estimate", "--n", "4", "--graph", "/missing/graph.txt"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv,message", [
    (["--n", "28", "--graph", "bundled:heavy-hex"],
     "circuit has 29 qubits but the graph has only 27 nodes"),
    (["--n", "4", "--graph", "linear", "--graph-size", "3"],
     "circuit has 5 qubits but the graph has only 3 nodes"),
])
def test_estimate_names_a_graph_smaller_than_the_circuit(argv, message):
    code, out, err = call(["estimate"] + argv)
    assert (code, out, err) == (1, "", f"liarsim estimate: {message}\n")


# The parity circuit of m pairs puts CCX(i, m + i -> 2m) at (positive,
# negated) polarity for i < m, so each expands to 6 CNOTs and 9 + 2 one-qubit
# gates.  Its CNOTs join (m + i, 2m) twice, (i, 2m) twice and (i, m + i)
# twice: hop counts m - i, 2m - i and m on the (2m + 1)-node path.  On the
# ring, 2m - i becomes min(2m - i, i + 1) = i + 1.  Summed over i:
# path 6m^2 + 2m, ring 4m^2 + 2m, over 6m interactions.
PAIRS_8000 = 4000


@pytest.mark.parametrize("graph,total,swaps", [
    ("linear", 6 * PAIRS_8000**2 + 2 * PAIRS_8000, 36 * PAIRS_8000**2 - 24 * PAIRS_8000),
    ("ring", 4 * PAIRS_8000**2 + 2 * PAIRS_8000, 24 * PAIRS_8000**2 - 24 * PAIRS_8000),
])
def test_estimate_closed_forms_at_8000_statements(tmp_path, graph, total, swaps):
    m = PAIRS_8000
    out = tmp_path / "est.json"
    assert main(["estimate", "--n", str(2 * m), "--graph", graph, "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["graph"]["num_nodes"] == 2 * m + 1
    est = payload["estimate"]
    assert (est["g_2q"], est["g_1q"]) == (6 * m, 11 * m)
    assert est["mean_distance"] == total / (6 * m)
    # each interaction at distance d costs 2 * 3 * (d - 1) CNOTs
    assert est["swap_overhead_depth"] == swaps == 6 * (total - 6 * m)


def test_estimate_at_8000_statements_is_byte_identical_across_hash_seeds(tmp_path):
    reports = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"est-{hash_seed}.json"
        subprocess.run([sys.executable, "-m", "liarsim.cli", "estimate", "--n", "8000",
                        "--graph", "ring", "--out", str(out)],
                       env=cli_env(hash_seed), capture_output=True, check=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["estimate"]["g_2q"] == 24000


# ---------------------------------------------------------------------------
# truthtable

def test_truthtable_one_pair(capsys):
    payload = run_json(capsys, ["truthtable", "--pairs", "1"])
    assert len(payload["rows"]) == 4
    assert payload["divergent_rows"] == 0
    hit = [r for r in payload["rows"]
           if r["contradictions"] == "1" and r["resolutions"] == "0"][0]
    assert hit["rule_flag"] == 0
    assert hit["classification"] == "inconsistency detected"


def test_truthtable_divergence_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "table.csv"
    payload = run_json(capsys, ["truthtable", "--pairs", "2",
                                "--csv", str(csv_path)])
    assert len(payload["rows"]) == 16
    assert payload["divergent_rows"] == 1
    divergent = [r for r in payload["rows"] if r["diverges"]]
    assert divergent[0]["contradictions"] == "11"
    assert divergent[0]["resolutions"] == "00"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("contradictions,resolutions,flag_in,rule_flag,"
                        "classification,circuit_flag,diverges")
    assert len(lines) == 17


PINNED_TRUTHTABLE = {  # sha256 of --out and --csv, from the per-row renderer
    (1, 1): ("6b473c002d4a52139efc22dbcd53979f0ed46b1df6be149b6a913c6a8d81b789",
             "929e6e989a3ec7a5b6701fb4b5aa3081cd4f06f00ed87187f4bb09c07e46dde3"),
    (2, 1): ("aab71d2209ea3dc0c735e23fc2baaf7534456b68bf3d11d366598fa9b1d7e866",
             "294e0c485b897e4207f5e637da075daa4b1e2d299b5e0a8b4a16e37b432d6c7a"),
    (3, 1): ("309111b26d9da2aa10c95155091b23c43d38142b7e6cf5235af950e8a381a89d",
             "ca0d79e5b87271ae5ebec84c3ddee0bc887c0cdf12575b51159891b32556448b"),
    (4, 1): ("d136fb215f0036a7ffb9efe2d418affc9a588df32fdeb2b6f32b74d998d885ed",
             "07dc8417e79a2a49b81d6e9041b120de0b7165a686d8a2d24b572b2817e4449b"),
    (5, 1): ("951b57d6f545e1c49372bbd95cd293d8681a954c38ba23b6dfa1626fe766c6c9",
             "93f4b8d6b4e4cdd5426c8d261a1214206f438df9e5d1fa56075729e745bdddea"),
    (6, 1): ("f4d35ac7ff2d70b3ef43a75a1a0a6baabedcc0b0bcf5ac21fe3fb616fa31bcf9",
             "de8d9a851a6be34213c087854b1227438223bb8fdb857320094c7729ed63d781"),
    (1, 0): ("707759158d8a97bdf9b49610e8ff9d10838ffa350f59c969e6a8c3db3a14157a",
             "b97ba5687d5468f131b78a2378ecd5fa74b9dc02c4492d1057f09df90a56ee47"),
    (2, 0): ("74580cc24a9942c428a8545ca2bc218607f63d8b0c0daa9703b1b6d4d99308e9",
             "59dfd207a9eda39cee01d685408e48716b9bfd4a9e5531de5e71811beea9e857"),
    (3, 0): ("762e0d73255f06075cae765a24c333f63281b3ccd7f067f7c3d813219cffc36a",
             "772ab6bbee5bfff4d165fa63aa0851abef81ddf4005aa0c07bf30c6cf921068b"),
    (4, 0): ("d59f33408dc75128ea2dc0e9c233300e578b62c6ba4b42d259535ec14e8596d7",
             "8608c0238a20c89e6bdf79d84c76005452ddc0ae972c715294cc3a68b74108ca"),
    (5, 0): ("e4acf143a5776a329ef3c143356909bbb73bb7352f3dd1952ea3c94583b6bdbf",
             "e930f4e1c30bd0a6b246214ad3c4dcc836728d5d519f941b65fce261c4a3cc07"),
    (6, 0): ("779d1cc57fdc2ca57a80a7a3b05249a37e15f46d7fab598e629e155d6c9b6fca",
             "6d018ade05d4ae8ee33feeade92ddb75c1b0304250da394c53ca74d42594cc6a"),
}


# the default --flag-in 1 keeps its plain pair-count ids
@pytest.mark.parametrize("pairs,flag_in", [
    pytest.param(pairs, flag_in, id=str(pairs) if flag_in else f"{pairs}-flag_in0")
    for pairs, flag_in in sorted(PINNED_TRUTHTABLE)])
def test_truthtable_bytes_are_pinned(pairs, flag_in, tmp_path):
    out, table = tmp_path / "t.json", tmp_path / "t.csv"
    assert main(["truthtable", "--pairs", str(pairs), "--flag-in", str(flag_in),
                 "--out", str(out), "--csv", str(table)]) == 0
    assert (_sha256(out), _sha256(table)) == PINNED_TRUTHTABLE[pairs, flag_in]


def test_truthtable_cap(capsys):
    assert main(["truthtable", "--pairs", "7"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# cross-cutting

def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "liar-reference", "--badflag"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, line", [
    (["verify", "--pairs", "1", "--bogus"], "liarsim verify: unrecognized arguments: --bogus"),
    (["verify", "--pairs", "x"], "liarsim verify: argument --pairs: invalid int value: 'x'"),
    ([], "liarsim: the following arguments are required: subcommand"),
    (["bogus"], "liarsim: argument subcommand: invalid choice: 'bogus'"),
    (["simulate"], "liarsim simulate: the following arguments are required: circuit"),
], ids=["unknown-flag", "bad-int", "no-subcommand", "unknown-subcommand", "no-circuit"])
def test_usage_errors_print_one_line(argv, line):
    # one line, naming the subcommand when argparse has read one
    code, out, err = call(argv)
    assert code == ("exit", 1) and out == ""
    assert err.startswith(line) and err.count("\n") == 1 and err.endswith("\n"), err


def test_help_prints_argparse_text_and_exits_zero():
    for argv in (["-h"], ["verify", "-h"], ["simulate", "--help"]):
        code, out, err = call(argv)
        assert code == ("exit", 0) and out.startswith("usage: liarsim") and err == ""


def test_every_report_carries_the_envelope(capsys, tmp_path):
    circuit = Path(write_circuit(tmp_path / "c.json", GOOD_CIRCUIT))
    counts = tmp_path / "counts.csv"
    counts.write_text("state,counts\n1001,60\n1010,40\n", encoding="utf-8")
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n1 2\n", encoding="utf-8")
    commands = {
        "simulate": (["simulate", str(circuit), "--shots", "8"], [circuit]),
        "verify": (["verify", "--pairs", "1"], []),
        "metrics": (["metrics", "--exp", str(counts), "--ideal", str(counts)], [counts]),
        "estimate": (["estimate", "--n", "2", "--graph", str(graph)], [graph]),
        "truthtable": (["truthtable"], []),
    }
    for command, (argv, files) in commands.items():
        payload = run_json(capsys, argv + ["--seed", "42"])
        assert payload["command"] == command
        assert payload["seed"] == 42
        assert isinstance(payload["config"], dict) and payload["config"]
        assert payload["inputs"] == {
            str(f): hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def test_out_files_are_byte_identical_across_reruns(capsys, tmp_path):
    commands = [
        ["simulate", "liar-reference", "--shots", "256", "--seed", "11"],
        ["simulate", "liar-reference", "--shots", "128",
         "--noise", "1e-3,1e-3,0.02"],
        ["verify", "--pairs", "1"],
        ["metrics", "--exp", "bundled:hardware", "--ideal", "bundled:simulation"],
        ["estimate", "--n", "6", "--graph", "ring"],
        ["truthtable", "--pairs", "2"],
    ]
    for i, argv in enumerate(commands):
        first = tmp_path / f"a{i}.json"
        second = tmp_path / f"b{i}.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes()) > 0
    # --out alone keeps stdout quiet
    assert capsys.readouterr().out == ""


def test_repeated_main_calls_match_single_calls(tmp_path):
    # main() parses with one parser per process; a run of calls with changing
    # subcommands and flags must print and write what fresh parsers would
    out = str(tmp_path / "report.json")
    calls = [
        ["simulate", "liar-reference", "--shots", "64", "--pretty"],
        ["simulate", "liar-reference", "--shots", "64"],
        ["verify", "--pairs", "2", "--out", out],
        ["verify", "--pairs", "2"],
        ["estimate", "--bogus"],
        ["truthtable", "--pairs", "2", "--flag-in", "0", "--pretty"],
        ["truthtable", "--pairs", "2"],
        ["metrics", "--exp", "bundled:hardware", "--out", out, "--pretty"],
        ["simulate", "general", "--pairs", "2", "--mode", "or", "--with-phase",
         "--shots", "32", "--noise", "1e-2,1e-2,0.05", "--out", out],
        ["estimate", "--n", "4", "--graph", "ring", "--pretty"],
        ["estimate", "--n", "4"],
    ]

    def run(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        written = None
        if "--out" in argv:
            with open(out, "rb") as fh:
                written = fh.read()
        return code, stdout.getvalue(), stderr.getvalue(), written

    cli._shared_parser.cache_clear()
    in_sequence = [run(argv) for argv in calls]
    assert cli._shared_parser.cache_info().misses == 1
    for argv, got in zip(calls, in_sequence):
        cli._shared_parser.cache_clear()
        assert got == run(argv), argv
    assert [code for code, *_ in in_sequence] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]


_numpy_scalars = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text(max_size=6), _numpy_scalars)
_keys = st.text(max_size=4)
_payloads = st.recursive(
    _scalars | st.dictionaries(_keys, _scalars, max_size=8),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=40,
)


@given(_payloads)
@example({"flat": {"a": 1.5, "b": np.float64("inf"), "c": float("nan")},
          "nested": {"x": [{}, [], {"k": np.int64(3), "z": np.bool_(True)}]},
          "empty": {}})
@example({"probabilities": {"00": 0.5, "11": np.float32(0.25)}, "n": None})
@example({"report": {"2": ["a", 1.5], "10": []}, "config": {"b": (), "a": [None]}})
def test_canonical_json_matches_indented_reference(payload):
    assert canonical_json(payload) == reference_json(payload)
    # the report writer streams the same text, in its envelope, to --out, or
    # else to stdout
    reference = reference_json({"command": "verify", "config": payload, "inputs": {},
                                "seed": 7})
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        _emit(argparse.Namespace(subcommand="verify", seed=7, out=str(out),
                                 pretty=False), payload, {}, {}, None)
        assert out.read_bytes().decode("utf-8") == reference
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        _emit(argparse.Namespace(subcommand="verify", seed=7, out=None,
                                 pretty=False), payload, {}, {}, None)
    assert stdout.getvalue() == reference


_row_texts = st.text(max_size=6) | st.sampled_from(
    ['"', 'a\nb', "\r\t", "é", " ", "😀", "%s", "%", "\\", "[", "{x}", ""])
_row_scalars = _scalars | _row_texts | st.sampled_from(
    [math.inf, -math.inf, math.nan, np.float64("nan"), np.float32("-inf"), 2**70])
_ROW_MISSES = ("none", "extra key", "other key", "nested", "int keys", "empty dict",
               "empty list")


@st.composite
def _row_lists(draw):
    """(miss, rows): a list (or tuple) of dicts that share one set of str keys,
    in any insertion order, and hold only scalars; unless miss is "none", one
    row is then changed, or the list emptied, into a near miss of that
    shape."""
    miss = draw(st.sampled_from(_ROW_MISSES))
    keys = draw(st.lists(_row_texts, min_size=1, max_size=5, unique=True))
    # a lone row with other keys is a list of rows that share them
    least = 2 if miss in ("extra key", "other key") else 1
    rows = [{key: draw(_row_scalars) for key in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(least, 6)))]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if miss == "extra key":
        row[max(keys, key=len) + "x"] = 0
    elif miss == "other key":
        row[max(keys, key=len) + "x"] = row.pop(keys[0])
    elif miss == "nested":
        row[draw(st.sampled_from(keys))] = draw(st.sampled_from(
            [[], {}, (), [1], {"a": None}, Distribution(1, {"0": 1.0}, PROBABILITY)]))
    elif miss == "int keys":  # a row whose keys are all ints, so they sort
        values = list(row.values())
        row.clear()
        row.update(enumerate(values))
    elif miss == "empty dict":
        row.clear()
    elif miss == "empty list":
        rows = []
    return miss, tuple(rows) if draw(st.booleans()) else rows


@settings(max_examples=300)
@given(_row_lists())
@example(("none", [{"diverges": True, "flag_in": np.int64(1), "p": np.float32(0.5)}]))
@example(("empty dict", [{}, {}]))
def test_row_lists_render_as_the_indented_reference(case):
    miss, rows = case
    payload = {"n": None, "rows": rows}
    if miss == "int keys":  # which the walker refuses
        with pytest.raises(TypeError, match="a dict key that is not a str"):
            canonical_json(payload)
        return
    assert canonical_json(payload) == reference_json(payload)


_LIST_MISSES = ("none", "empty", "nested")


@st.composite
def _scalar_lists(draw):
    """(miss, items): a list (or tuple) of scalars, inf and nan among them;
    unless miss is "none", the list is emptied or one item is replaced by a
    container."""
    miss = draw(st.sampled_from(_LIST_MISSES))
    items = draw(st.lists(_row_scalars, min_size=1, max_size=8))
    if miss == "empty":
        items = []
    elif miss == "nested":
        items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(
            [[], {}, (), [1], ["a", [2]], {"a": None},
             Distribution(1, {"0": 1.0}, PROBABILITY)]))
    return miss, tuple(items) if draw(st.booleans()) else items


@settings(max_examples=300)
@given(st.lists(_scalar_lists(), min_size=1, max_size=4),
       st.dictionaries(_keys, _payloads, max_size=4))
@example([("none", [f"{i:012b}" for i in range(1, 4096)])], {"d_tv": 0.5})
@example([("none", [math.inf, np.float32("nan"), -math.inf, 1]), ("empty", ())], {})
@example([("nested", [1, [math.nan]])], {"x": {"y": [1, 2]}})
def test_report_fields_with_scalar_lists_render_as_the_indented_reference(lists, others):
    report = {**others, **{f"list{i}": items for i, (_, items) in enumerate(lists)}}
    payload = {"n": None, "report": report}
    # compared as lists of lines: pytest's diff of two long strings is slow
    assert canonical_json(payload).split("\n") == reference_json(payload).split("\n")


_INDEX_LIST_SIZES = {"one": (1, 1), "rows": (2, _FORMAT_EACH),
                     "block": (_FORMAT_EACH + 1, _CHUNK_ROWS),
                     "chunks": (_CHUNK_ROWS + 1, 3 * _CHUNK_ROWS)}


@st.composite
def _index_lists(draw):
    """A dist._Bits of 1-16 bits: an explicit set of states in random order,
    one state, few enough to be formatted row by row, enough for the block
    path, or enough for several of its chunks."""
    low, high = _INDEX_LIST_SIZES[draw(st.sampled_from(list(_INDEX_LIST_SIZES)))]
    width = draw(st.integers(max(1, (low - 1).bit_length()), 16))
    size = draw(st.integers(low, min(high, 1 << width)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _Bits(rng.choice(1 << width, size, replace=False), width)


@settings(max_examples=100, deadline=None)
@given(_index_lists(), st.sampled_from(["  ", "    "]))
@example(_Bits(np.arange(1, 4096), 12), "    ")  # a default 12-qubit paradox set
def test_index_lists_render_as_json_dumps_of_their_bitstrings(bits, pad):
    states = [format(i, f"0{bits.width}b") for i in bits.indices.tolist()]
    reference = json.dumps(states, indent=2, sort_keys=True)
    out = []
    cli._render(bits, pad, out)
    # compared as lists of lines: pytest's diff of two long strings is slow
    assert "".join(out).split("\n" + pad) == reference.split("\n")
    # in a report and in a list
    first = _Bits(bits.indices[:1], bits.width)
    payload = {"report": {"paradox_set": bits, "sets": [bits, first]}}
    spelled = {"report": {"paradox_set": states, "sets": [states, states[:1]]}}
    assert canonical_json(payload).split("\n") == json.dumps(
        spelled, indent=2, sort_keys=True).split("\n") + [""]


_SPECIAL_VALUES = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-12,
                   0.1, 0.5, 1.0 / 3.0, 1.0)


@st.composite
def _distributions(draw):
    """A Distribution on 1-24 qubits whose size sits at 0, 1, or either side
    of the renderer's thresholds, with all-equal, all-distinct or special
    values, entries in random arrival order."""
    size = draw(st.sampled_from(
        [0, 1, 2, _FORMAT_EACH, _FORMAT_EACH + 1, _CHUNK_ROWS - 1, _CHUNK_ROWS,
         _CHUNK_ROWS + 1]))
    width = draw(st.integers(max(1, (size - 1).bit_length()), 24))
    kind = draw(st.sampled_from([PROBABILITY, COUNTS]))
    mix = draw(st.sampled_from(["equal", "distinct", "special"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = rng.choice(1 << width, size, replace=False)
    if kind == COUNTS:
        top = draw(st.sampled_from([1, 9, 1000, MAX_SHOTS]))
        values = rng.integers(0, top, size, endpoint=True).astype(np.float64)
        if mix == "equal":
            values[:] = top
    elif mix == "distinct":
        values = rng.random(size)
    elif mix == "equal":
        values = np.full(size, draw(st.sampled_from(_SPECIAL_VALUES)))
    else:
        values = rng.choice(_SPECIAL_VALUES, size)
    return Distribution(width, None, kind, indices=indices, values=values)


@settings(max_examples=100, deadline=None)
@given(_distributions(), st.sampled_from(["", "  "]))
def test_distribution_renders_as_json_dumps_of_its_entries(dist, pad):
    # the per-index dict the renderer replaced, as the oracle
    spell = int if dist.kind == COUNTS else float
    entries = {format(int(i), f"0{dist.width}b"): spell(v)
               for i, v in zip(dist.indices, dist.values)}
    reference = json.dumps(entries, indent=2, sort_keys=True).split("\n")
    # compared as lists of lines: pytest's diff of two long strings is slow
    assert _indented(dist, pad).split("\n" + pad) == reference
    # and so does the report writer, a distribution in a dict or in a list
    payload = {"counts": None, "probabilities": dist, "z": [dist]}
    assert canonical_json(payload).split("\n") == json.dumps(
        {"counts": None, "probabilities": entries, "z": [entries]},
        indent=2, sort_keys=True).split("\n") + [""]


_TABLE_SIZES = (0, 1, 2, _FORMAT_EACH - 1, _FORMAT_EACH, _FORMAT_EACH + 1,
                _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1)
_TRUTH_CHOICES = ((0, 1), (False, True), _LABELS)


@st.composite
def _tables(draw):
    """(table, rows): a cli._Table whose size sits at 0, 1, or either side of
    the row renderer's thresholds, and the list of dicts it stands for, built
    here without the table's code.  Its columns are bitstrings of 1-63 bits,
    coded columns whose choices spell equally or unequally long, and scalars
    that every row holds."""
    size = draw(st.sampled_from(_TABLE_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, values = {}, {}
    for key in draw(st.lists(_row_texts, min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from(["bits", "equal", "unequal", "truth", "scalar"]))
        if kind == "bits":
            width = draw(st.integers(1, 63))
            indices = rng.integers(0, 1 << width, size, dtype=np.int64, endpoint=False)
            indices[:2] = ((1 << width) - 1, 0)[:size]  # both ends
            columns[key] = _Bits(indices, width)
            values[key] = [format(i, f"0{width}b") for i in indices.tolist()]
            continue
        if kind == "scalar":
            columns[key] = draw(_row_scalars)
            values[key] = [columns[key]] * size
            continue
        if kind == "equal":  # one spelled length: ints of one decade, or letters
            digits = draw(st.integers(1, 18))
            choices = draw(st.lists(st.integers(10 ** (digits - 1), 10 ** digits - 1)
                                    | st.text("ab", min_size=digits, max_size=digits),
                                    min_size=1, max_size=6))
            choices = [c for c in choices if len(json.dumps(c)) == len(json.dumps(choices[0]))]
        elif kind == "truth":
            choices = draw(st.sampled_from(_TRUTH_CHOICES))
        else:
            choices = draw(st.lists(_row_scalars, min_size=1, max_size=6))
        codes = rng.integers(0, len(choices), size)
        columns[key] = _Coded(tuple(choices), codes)
        values[key] = [choices[c] for c in codes.tolist()]
    rows = [{key: values[key][i] for key in columns} for i in range(size)]
    return cli._Table(size, columns), rows


@settings(max_examples=100, deadline=None)
@given(_tables())
def test_table_fields_render_as_json_dumps_of_their_rows(case):
    table, rows = case
    # compared as lists of lines: pytest's diff of two long strings is slow
    assert canonical_json({"n": None, "rows": table}).split("\n") == (
        reference_json({"n": None, "rows": rows}).split("\n"))
    # the reference encoder spells a table as its list of dicts
    assert _json_default(table) == _strict_numbers(rows)


@pytest.mark.parametrize("pairs", [1, 3, 4, 6, 7])
@pytest.mark.parametrize("flag_in", [0, 1])
def test_truth_table_field_renders_as_the_truth_table(pairs, flag_in):
    rows = [{"circuit_flag": row.circuit_flag, "classification": row.label,
             "contradictions": "".join(map(str, reversed(row.contradictions))),
             "diverges": row.diverges, "flag_in": row.flag_in,
             "resolutions": "".join(map(str, reversed(row.resolutions))),
             "rule_flag": row.rule_flag}
            for row in truth_table(pairs, flag_in)]
    reference = json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"
    assert canonical_json({"rows": cli._truth_table(pairs, flag_in)}) == reference


def test_emit_builds_pretty_text_only_under_pretty(tmp_path, capsys):
    def pretty():
        raise AssertionError("pretty text built without --pretty")

    out = tmp_path / "report.json"
    for target in (None, str(out)):
        _emit(argparse.Namespace(subcommand="verify", seed=3, out=target,
                                 pretty=False), {"pairs": 1}, {}, {"x": 1}, pretty)
    assert json.loads(out.read_text(encoding="utf-8")) == json.loads(capsys.readouterr().out)
    _emit(argparse.Namespace(subcommand="verify", seed=3, out=None, pretty=True),
          {}, {}, {}, lambda: ["one", "two"])
    assert capsys.readouterr().out == "one\ntwo\n"


@pytest.mark.parametrize("payload", [
    {1: "a"},
    {"report": {2: ["a", 1.5], 10: []}},
    {"a": 1, "b": [{"c": {np.int64(3): None}}]},
    {"a": {np.str_("b"): 1}},
    {"a": {None: 1}},
], ids=repr)
def test_dicts_whose_keys_are_not_all_str_are_refused(payload):
    with pytest.raises(TypeError, match="a dict key that is not a str"):
        canonical_json(payload)


def test_failed_render_leaves_no_out_file(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        _emit(argparse.Namespace(subcommand="verify", seed=0, out=str(out),
                                 pretty=False), {}, {}, {"a": 1, "z": {"k": object()}}, None)
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate --out bytes, pinned: few-H circuits run on the sparse support and
# many-H ones on the dense kernel, and both keep the reports the dense kernel
# gave before the sparse run existed

def _pinned_circuit(kind: str, n: int, seed: int) -> dict:
    """Seeded circuit JSON.  "deep": H on n // 2 + 1 distinct qubits, then 38
    X/CNOT/CCX/P/CP gates with two more H among them, so that amplitudes
    interfere.  "dense": H on every qubit, a CNOT cascade and two phases."""
    rng = random.Random(seed)

    def gate(name, target, controls=(), angle=None):
        pols = [rng.choice([POSITIVE, NEGATED]) for _ in controls]
        return {"kind": name, "targets": [target], "controls": list(controls),
                "polarities": pols, "angle": angle}

    if kind == "dense":
        gates = [gate("H", q) for q in range(n)]
        gates += [gate("CNOT", n - 1, (q,)) for q in range(n - 1)]
        gates += [gate("P", rng.randrange(n), angle=rng.uniform(-3, 3))
                  for _ in range(2)]
        return {"num_qubits": n, "gates": gates, "roles": {}}
    gates = [gate("H", q) for q in rng.sample(range(n), n // 2 + 1)]
    names = [rng.choice(["X", "CNOT", "CCX", "P", "CP"]) for _ in range(38)]
    names.insert(rng.randrange(10, 20), "H")
    names.insert(rng.randrange(25, 35), "H")
    for name in names:
        a, b, c = rng.sample(range(n), 3)
        controls = {"CNOT": (b,), "CP": (b,), "CCX": (b, c)}.get(name, ())
        angle = rng.uniform(-3, 3) if name in ("P", "CP") else None
        gates.append(gate(name, a, controls, angle))
    return {"num_qubits": n, "gates": gates, "roles": {}}


PINNED_SIMULATE = {
    ("deep", 14, 1):
        "23e728574e707672ad9d672c99c51363cf68e9d223fea6fc805a2b872c6113a8",
    ("deep", 16, 2):
        "41ac4a695084031c0ff62e92c7867764692238a48339d5c37b9176ba47aa3f6b",
    ("deep", 18, 3):
        "94be33fc619d78bd56626983cf65e7df48f297006be2ef4f69003d4111757ca2",
    ("deep", 20, 4):
        "800cd3e4b1a972ba21b153aaec1325b5a3540c8a2b4920de8d001d4b96fb07fb",
    ("dense", 6, 5):
        "bae8eadd839f7d94feeabbdc1a4435cd5fd4c47b125c45f4ecaac4281cd14634",
    ("dense", 11, 6):
        "80dcc159ac45943925e73fab23ad6ff54a7cf8f2e34a9c4f4bf485ff9cedccb4",
    ("dense", 13, 7):
        "dbb1c2cbbf537640c4065e35ca6581611b82ab7969f0d7fdc1b8806c794dd681",
}


@pytest.mark.parametrize("kind,n,seed", sorted(PINNED_SIMULATE))
def test_simulate_out_bytes_are_pinned(kind, n, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names the circuit file by path
    with open("c.json", "w", encoding="utf-8") as fh:
        json.dump(_pinned_circuit(kind, n, seed), fh)
    with mock.patch.object(statevec, "apply_gate", wraps=statevec.apply_gate) as kernel:
        assert main(["simulate", "c.json", "--shots", "512", "--seed", str(seed),
                     "--out", "r.json"]) == 0
    # deep ops run on the support alone, dense ops reach the dense kernel
    assert (kernel.call_count == 0) == (kind == "deep")
    with open("r.json", "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == PINNED_SIMULATE[kind, n, seed]


# ---------------------------------------------------------------------------
# bad input: a documented exit code and one stderr line, never a traceback

HUGE = "99999999999999999999"
GOOD_CIRCUIT = {"num_qubits": 2, "roles": {"1": "flag"},
                "gates": [{"kind": "X", "targets": [0], "controls": [],
                           "polarities": [], "angle": None}]}


def call(argv):
    """main(argv) -> (code, stdout, stderr); argparse exits as ("exit", code)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, stdout.getvalue(), stderr.getvalue()


def check_outcome(argv, code, err):
    """The CLI contract: exit 0-3 (argparse: 0 or 1), and a non-zero exit
    prints exactly one "liarsim <subcommand>: " line on stderr."""
    if isinstance(code, tuple):
        assert code[1] in (0, 1), (argv, code)
        if code[1] == 0:
            return
        code = code[1]
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 0:
        assert err == "", (argv, err)
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"liarsim {argv[0]}: "), (argv, err)


def write_circuit(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _with(payload, **changes):
    out = json.loads(json.dumps(payload))
    for key, value in changes.items():
        if key == "targets":
            out["gates"][0]["targets"] = value
        else:
            out[key] = value
    return out


@pytest.mark.parametrize("text, fault", [
    (json.dumps(_with(GOOD_CIRCUIT, targets=[1.5])),
     "qubit indices must be nonnegative integers, got (1.5,)"),
    (json.dumps(_with(GOOD_CIRCUIT, roles=[1])), "roles must be an object, got [1]"),
    (json.dumps(GOOD_CIRCUIT).replace('"num_qubits": 2', '"num_qubits": 1e400'),
     "num_qubits must be an integer, got inf"),
    (json.dumps(GOOD_CIRCUIT).replace('"kind": "X"', '"kind": "P"').replace(
        '"angle": null', '"angle": true'), "gate angle must be a real number, got True"),
    (json.dumps(GOOD_CIRCUIT).replace('"kind": "X"', '"kind": "P"').replace(
        '"angle": null', '"angle": 1' + "0" * 400), "gate angle must be finite"),
    (json.dumps(_with(GOOD_CIRCUIT, gates=[{"kind": "CNOT", "targets": [1], "controls": [0],
                                            "polarities": ["sometimes"]}])),
     "bad control polarity 'sometimes'"),
], ids=["float-target", "roles-list", "num-qubits-1e400", "boolean-angle",
        "integer-angle-1e400", "bad-polarity"])
def test_mistyped_circuit_file_is_parse_error(tmp_path, text, fault):
    path = tmp_path / "circuit.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = call(["simulate", str(path)])
    assert code == 3
    assert out == ""
    assert err == (f"liarsim simulate: cannot parse circuit file {path}: "
                   f"malformed circuit payload: {fault}\n")
    check_outcome(["simulate"], code, err)


def test_deeply_nested_circuit_file_is_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, _, err = call(["simulate", str(path)])
    assert code == 3
    assert "nested too deeply" in err


def test_oversized_csv_field_is_parse_error(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("state,counts\n" + "1" * 200_000 + ",5\n", encoding="utf-8")
    code, _, err = call(["metrics", "--exp", str(path)])
    assert code == 3
    assert err.startswith(f"liarsim metrics: cannot parse {path}: ")


@pytest.mark.parametrize("argv, names", [
    (["simulate", "c.json"], ["c.json"]),
    (["metrics", "--exp", "exp.csv", "--ideal", "ideal.csv", "--consistent-set", "00"],
     ["exp.csv", "ideal.csv"]),
    (["estimate", "--n", "2", "--graph", "g.txt"], ["g.txt"]),
], ids=["circuit", "distributions", "graph"])
def test_each_input_file_is_opened_once_and_its_bytes_hashed(tmp_path, monkeypatch,
                                                            argv, names):
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(json.dumps(_all_h_then_cascade(3)), encoding="utf-8")
    Path("exp.csv").write_text("state,counts\r\n00,6\r\n11,4\r\n", encoding="utf-8")
    Path("ideal.csv").write_text("state,probability\n00,0.5\n11,0.5\n", encoding="utf-8")
    Path("g.txt").write_text("0 1\n1 2  # a comment\n2 3\n", encoding="utf-8")
    real_open, opened = open, []

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    with mock.patch("builtins.open", recording_open), mock.patch("io.open", recording_open):
        code, _, err = call(argv + ["--out", "r.json"])
    assert code == 0, err
    assert sorted(opened) == sorted(names + ["r.json"])
    assert json.loads(Path("r.json").read_text(encoding="utf-8"))["inputs"] == {
        name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in names}


_LATE_BAD_BYTE = (b"state,counts\n" + b"".join(b"%012d,1\n" % i for i in range(1200))
                  + b"\xfe,1\n")


@pytest.mark.parametrize("argv, data, load", [
    (["simulate"], b'{"num_qubits": 2,\r\n "roles": {"0": "a\tb"}}\r\n', load_circuit),
    (["simulate"], b'{"num_qubits": 1, "gates": []}\xff', load_circuit),
    (["metrics", "--exp"], _LATE_BAD_BYTE, read_distribution_csv),
    (["metrics", "--exp"], b"state,counts\r\n0\xff1,5\r\n", read_distribution_csv),
    (["estimate", "--n", "2", "--graph"], b"0 1\r1 x\r",
     lambda path: parse_graph_text(path.read_text(encoding="utf-8"), str(path))),
], ids=["crlf-control-character", "bad-utf8", "bad-utf8-past-the-first-chunk",
        "crlf-bad-utf8", "cr-bad-node"])
def test_input_errors_match_the_library_loaders(tmp_path, argv, data, load):
    # the CLI parses the bytes it read and hashed; its text must decode and
    # split lines as the loaders' own open() does, positions included
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ValueError) as raised:
        load(path)
    code, _, err = call(argv + [str(path)])
    assert code == 3
    assert err.endswith(f": {raised.value}\n")


def test_write_failures_exit_three_naming_the_path(tmp_path):
    missing = tmp_path / "no-such-dir" / "file"
    for argv in (["verify", "--pairs", "1", "--out", str(missing)],
                 ["simulate", "liar-reference", "--circuit-out", str(missing)],
                 ["simulate", "liar-reference", "--shots", "4", "--csv", str(missing)],
                 ["truthtable", "--csv", str(missing)]):
        code, _, err = call(argv)
        assert code == 3, argv
        assert str(missing) in err
        check_outcome(argv, code, err)


# Output files are written over in place and cut to length; the oracle is
# the same command writing to a path that does not exist yet.
# kind -> argv that writes a report of a size set by the pair count to path
_REWRITTEN = {
    "simulate --out": lambda pairs, path: [
        "simulate", "general", "--pairs", str(pairs), "--shots", "64", "--out", path],
    "truthtable --out": lambda pairs, path: [
        "truthtable", "--pairs", str(pairs), "--out", path],
    "simulate --csv": lambda pairs, path: [
        "simulate", "general", "--pairs", str(pairs), "--mode", "or", "--shots", "256",
        "--noise", "1e-2,1e-2,0.1", "--csv", path],
    "truthtable --csv": lambda pairs, path: [
        "truthtable", "--pairs", str(pairs), "--csv", path],
    "simulate --circuit-out": lambda pairs, path: [
        "simulate", "general", "--pairs", str(pairs), "--circuit-out", path],
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_REWRITTEN)),
       pairs=st.lists(st.integers(1, 4), min_size=2, max_size=3))
@example(kind="truthtable --csv", pairs=[4, 1])
@example(kind="truthtable --csv", pairs=[1, 4])
@example(kind="simulate --out", pairs=[3, 1, 2])
def test_rewritten_outputs_match_a_fresh_write(tmp_path_factory, kind, pairs):
    root = tmp_path_factory.getbasetemp() / "rewritten"
    root.mkdir(exist_ok=True)
    path, fresh = root / "report", root / "fresh"
    path.unlink(missing_ok=True)
    for m in pairs:  # longer and shorter reports over the same file, in turn
        assert call(_REWRITTEN[kind](m, str(path)))[0] == 0
    fresh.unlink(missing_ok=True)
    assert call(_REWRITTEN[kind](pairs[-1], str(fresh)))[0] == 0
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="no /dev/stdout")
def test_out_to_a_pipe_or_device(tmp_path):
    def run(*out):
        return subprocess.run([sys.executable, "-m", "liarsim.cli", "verify", "--pairs",
                               "1", *out], cwd=tmp_path, env=cli_env("0"),
                              capture_output=True, check=True)

    canonical = run().stdout
    assert run("--out", "v.json").stdout == b""
    assert (tmp_path / "v.json").read_bytes() == canonical
    assert run("--out", "/dev/stdout").stdout == canonical
    assert run("--out", os.devnull).stdout == b""


def test_verification_failure_is_one_line(monkeypatch):
    fake = [CheckResult("forced_failure", False, 1.0, "injected by test")]
    monkeypatch.setattr("liarsim.cli._verify",
                        lambda pairs: (fake, fixed_point_report(pairs)))
    code, out, err = call(["verify", "--pairs", "1"])
    assert code == 2
    assert err == "liarsim verify: verification failed\n"
    assert json.loads(out)["all_passed"] is False


def peak_bytes(fn):
    """fn() and the peak memory it held, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("argv, code", [
    (["simulate", "general", "--pairs", str(MAX_QUBITS + 1)], 1),
    (["simulate", "general", "--pairs", "100000000"], 1),
    (["simulate", "liar-reference", "--shots", str(MAX_SHOTS + 1)], 1),
    (["simulate", "liar-reference", "--shots", HUGE], 1),
    (["simulate", "liar-reference", "--shots", str(MAX_SHOTS + 1), "--noise", "0,0,0"], 1),
    (["simulate", "liar-reference", "--shots", HUGE, "--noise", "0,0,0"], 1),
    (["estimate", "--n", str(MAX_GRAPH_NODES)], 1),
    (["estimate", "--n", HUGE], 1),
    (["estimate", "--n", "2", "--graph", "ring",
      "--graph-size", str(MAX_GRAPH_NODES + 1)], 1),
    (["estimate", "--n", "2", "--graph", "linear", "--graph-size", HUGE], 1),
    (["estimate", "--n", "2", "--graph", f"0 {MAX_GRAPH_NODES}"], 3),
    (["estimate", "--n", "2", "--graph", "0 99999999999"], 3),
    (["simulate", "general", "--pairs", "12"], 1),
    (["simulate", "general", "--pairs", "7", "--mode", "or"], 1),
])
def test_size_caps_reject_before_allocating(tmp_path, argv, code):
    if argv[-1].startswith("0 "):  # an edge-list file holding that one line
        graph = tmp_path / "graph.txt"
        graph.write_text(argv[-1] + "\n", encoding="utf-8")
        argv = argv[:-1] + [str(graph)]
    call(["verify", "--pairs", "1"])  # build the shared parser outside the count
    (got, out, err), peak = peak_bytes(lambda: call(argv))
    assert got == code, err
    assert out == ""
    check_outcome(argv, got, err)
    assert peak < 1 << 20, peak


def test_largest_accepted_sizes_pass_the_caps(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text(f"0 1\n1 2\n0 {MAX_GRAPH_NODES - 1}\n", encoding="utf-8")
    code, out, err = call(["estimate", "--n", "2", "--graph", str(graph)])
    assert code == 0, err
    assert json.loads(out)["graph"]["num_nodes"] == MAX_GRAPH_NODES
    code, _, err = call(["estimate", "--n", "2", "--graph", "ring",
                         "--graph-size", str(MAX_GRAPH_NODES)])
    assert code == 0, err
    # the --pairs cap is the widest general circuit of the mode that fits
    for mode, pairs, width in (("parity", 11, MAX_QUBITS - 1), ("or", 6, MAX_QUBITS)):
        code, out, err = call(["simulate", "general", "--pairs", str(pairs),
                               "--mode", mode])
        assert code == 0, err
        assert json.loads(out)["num_qubits"] == width


@pytest.fixture(scope="module")
def probes(tmp_path_factory):
    """Input files of every kind, good and bad, plus paths to write to."""
    root = tmp_path_factory.mktemp("probes")
    files = {
        "circuit": write_circuit(root / "good.json", GOOD_CIRCUIT),
        "float-target": write_circuit(root / "float-target.json",
                                      _with(GOOD_CIRCUIT, targets=[1.5])),
        "roles-list": write_circuit(root / "roles-list.json",
                                    _with(GOOD_CIRCUIT, roles=[1])),
        "missing": str(root / "missing.json"),
        "out": str(root / "out.json"),
        "unwritable": str(root / "no-such-dir" / "out.json"),
    }
    csvs = {"counts.csv": "state,counts\n1001,60\n1010,40\n",
            "header.csv": "state,weight\n1001,1\n",
            "wide.csv": "state,counts\n" + "1" * 200_000 + ",5\n",
            "ring.txt": "0 1\n1 2\n2 0\n",
            "far.txt": "0 99999999999\n",
            "split.txt": "0 1\n2 3\n"}
    for name, text in csvs.items():
        (root / name).write_text(text, encoding="utf-8")
        files[name] = str(root / name)
    return files


def _mostly(good, bad):
    """good in about seven draws of eight, bad in the eighth."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 7 else good)


def _flag(name, values, junk=("", "x", "1.5"), required=False):
    """The flag with one of the values or, less often, with a value argparse
    rejects (None: a bare flag); unless required, often no flag at all."""
    value = st.sampled_from(values)
    if junk:
        value = _mostly(value, st.sampled_from(junk))
    flag = value.map(lambda v: [name] if v is None else [name, v])
    return flag if required else st.one_of(st.just([]), flag)


def _argv(draw_files):
    """argv strategies for the five subcommands.  Values are valid, negative,
    huge, empty or ill-typed; the accepted ones stay small (at most 12
    qubits, 4096 shots and 3 verified pairs)."""
    f = draw_files
    ints = ["-1", "0", "1", "2", HUGE]
    noise = ["0,0,0", "1e-3,1e-2,0.02", "1,2", "x,y,z", "2,0,0", "-1,0,0",
             "nan,0,0", "inf,0,0", ""]
    states = ["1001,1010", "", ",", "1001,1001", "abc", "10", "0000"]
    sources = ["bundled:hardware", "bundled:simulation", "bundled:nope",
               "liar-reference", "liar-literal", f["missing"], f["counts.csv"],
               f["header.csv"], f["wide.csv"]]
    common = [_flag("--seed", ["-1", "0", "7", HUGE]),
              _flag("--out", [f["out"], f["unwritable"]], junk=()),
              _flag("--pretty", [None], junk=())]

    def command(name, *parts):
        return st.tuples(st.just([name]), *parts, *common).map(
            lambda chunks: [arg for chunk in chunks for arg in chunk])

    return st.one_of(
        command("simulate",
                st.sampled_from(["liar-reference", "liar-literal", "general", "",
                                 f["circuit"], f["float-target"],
                                 f["roles-list"], f["missing"]]).map(lambda c: [c]),
                _flag("--pairs", ints + ["3", "24", "25"]),
                _flag("--mode", ["parity", "or", "xor"]),
                _flag("--with-phase", [None], junk=()),
                _flag("--shots", ints + ["4096", str(MAX_SHOTS + 1)]),
                _flag("--noise", noise),
                _flag("--csv", [f["out"] + ".csv", f["unwritable"]], junk=()),
                _flag("--circuit-out", [f["out"] + ".circ", f["unwritable"]],
                      junk=())),
        command("verify", _flag("--pairs", ints + ["3", "6"])),
        command("metrics", _flag("--exp", sources, required=True),
                _flag("--ideal", sources),
                _flag("--column", ["auto", "counts", "probability", "bogus"]),
                _flag("--consistent-set", states), _flag("--paradox-set", states),
                _flag("--flag-index", ["-1", "0", "3", "4", HUGE, "x"])),
        command("estimate",
                _flag("--n", ints + ["3", "8", str(MAX_GRAPH_NODES)], required=True),
                _flag("--graph", ["linear", "ring", "bundled:heavy-hex",
                                  "bundled:other", f["missing"], f["ring.txt"],
                                  f["far.txt"], f["split.txt"], f["header.csv"]]),
                _flag("--graph-size", ints + ["5", str(MAX_GRAPH_NODES + 1)]),
                _flag("--layout", ["0,1,2", "0,1,x", "-1,0,1", "0,0,1",
                                   f"{HUGE},0,1"]),
                _flag("--noise", noise)),
        command("truthtable", _flag("--pairs", ints + ["3", "7"]),
                _flag("--flag-in", ["0", "1", "2"]),
                _flag("--csv", [f["out"] + ".csv", f["unwritable"]], junk=())),
    )


@given(data=st.data())
@example(data=None)
def test_fuzzed_argv_never_tracebacks(probes, data):
    if data is None:  # the inputs that used to end in a traceback
        for argv in (["simulate", probes["float-target"]],
                     ["simulate", probes["roles-list"]],
                     ["simulate", "liar-reference", "--shots", HUGE],
                     ["metrics", "--exp", probes["wide.csv"]]):
            check_outcome(argv, *call(argv)[::2])
        return
    argv = data.draw(_argv(probes))
    code, _, err = call(argv)
    check_outcome(argv, code, err)


_junk = st.sampled_from([None, True, 1.5, math.inf, math.nan, "0", [], {}, -1,
                         10**20])
_qubit = _mostly(st.integers(0, 5), _junk)
_gates = st.fixed_dictionaries(
    {"kind": _mostly(st.sampled_from(GATE_KINDS + ("Q",)), _junk),
     "targets": _mostly(st.lists(_qubit, max_size=2), _junk)},
    optional={"controls": _mostly(st.lists(_qubit, max_size=2), _junk),
              "polarities": _mostly(st.lists(_mostly(
                  st.sampled_from([POSITIVE, NEGATED, "x"]), _junk), max_size=2),
                  _junk),
              "angle": _mostly(st.floats(-4, 4), _junk)})
_circuit_payloads = _mostly(st.fixed_dictionaries(
    {"num_qubits": _mostly(st.integers(-1, 6), _junk),
     "gates": _mostly(st.lists(_mostly(_gates, _junk), max_size=4), _junk)},
    optional={"roles": _mostly(st.dictionaries(
        st.sampled_from(["0", "1", "9", "-1", "x"]),
        _mostly(st.sampled_from(["flag", "statement", "bogus"]), _junk),
        max_size=2), _junk)}), _junk)


@given(payload=_circuit_payloads, shots=st.sampled_from([[], ["--shots", "64"]]))
def test_fuzzed_circuit_files_never_traceback(tmp_path_factory, payload, shots):
    path = write_circuit(tmp_path_factory.getbasetemp() / "fuzzed.json", payload)
    argv = ["simulate", path, *shots]
    code, _, err = call(argv)
    assert code in (0, 1, 3), (payload, err)
    check_outcome(argv, code, err)


# ---------------------------------------------------------------------------
# the CLI contract under fuzzing: drawn input files, intact or damaged, and
# drawn flags; every run keeps the exit-code and stderr contract, and a run
# that succeeds writes the same bytes when it is run again

_ARITY = {"H": 1, "X": 1, "P": 1, "CNOT": 2, "CP": 2, "CCX": 3}


@st.composite
def _circuit_text(draw):
    """A valid circuit JSON file of at most 6 qubits."""
    n = draw(st.integers(1, 6))
    gates = []
    for kind in draw(st.lists(st.sampled_from(GATE_KINDS), max_size=6)):
        qubits = draw(st.permutations(range(n)))[:_ARITY[kind]]
        if len(qubits) < _ARITY[kind]:
            continue
        gates.append({"kind": kind, "controls": qubits[:-1], "targets": qubits[-1:],
                      "polarities": [draw(st.sampled_from([POSITIVE, NEGATED]))
                                     for _ in qubits[:-1]],
                      "angle": draw(st.floats(-4, 4)) if kind in ("P", "CP") else None})
    return json.dumps({"num_qubits": n, "gates": gates, "roles": {"0": "flag"}})


@st.composite
def _csv_text(draw):
    """A valid distribution CSV of 1 to 6 qubits, most often 4, the width of
    the default consistent set, with counts and probabilities."""
    width = draw(st.sampled_from([4, 4, 1, 6]))
    states = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1,
                           max_size=8, unique=True))
    counts = [draw(st.integers(1, 500)) for _ in states]
    rows = [f"{s:0{width}b},{c},{c / sum(counts)!r}" for s, c in zip(states, counts)]
    return "state,counts,probability\n" + "\n".join(rows) + "\n"


@st.composite
def _graph_text(draw):
    """A valid edge-list file: a path through 3 to 8 nodes in drawn order,
    plus a few drawn edges."""
    nodes = draw(st.permutations(range(draw(st.integers(3, 8)))))
    edges = list(zip(nodes, nodes[1:])) + draw(st.lists(st.tuples(
        st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]), max_size=3))
    return "# drawn graph\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _damaged(text):
    """The text's UTF-8 bytes, intact in about half the draws, else cut
    short or with bytes overwritten (possibly by bytes that are not UTF-8)."""
    def damage(case):
        data, how, at, junk = case
        data, at = data.encode("utf-8"), at % max(1, len(data))
        if how == "truncated":
            return data[:at]
        return data[:at] + junk + data[at + len(junk):] if how == "corrupted" else data
    return st.tuples(text, st.sampled_from(["intact", "intact", "truncated", "corrupted"]),
                     st.integers(0, 1 << 16), st.binary(min_size=1, max_size=3)).map(damage)


def _contract_argv(files):
    """An argv strategy per subcommand over the drawn files, with valid,
    boundary and junk flag values; the accepted sizes stay small."""
    out = [files["out"], files["unwritable"]]
    noise = ["1e-4,1e-3,0.015", "0,0,0", "1,1,1", "1,2", "-1,0,0", "nan,0,0"]
    common = [_flag("--seed", ["0", "7", "-1", HUGE]), _flag("--out", out, junk=()),
              _flag("--pretty", [None], junk=())]

    def command(name, *parts):
        return st.tuples(st.just([name]), *parts, *common).map(
            lambda chunks: [arg for chunk in chunks for arg in chunk])

    return dict(
        simulate=command("simulate",
                st.sampled_from([files["circuit"], "general", "liar-reference",
                                 files["missing"]]).map(lambda c: [c]),
                _flag("--pairs", ["0", "1", "3", "6", "7", "11", "12"]),
                _flag("--mode", ["parity", "or", "xor"]),
                _flag("--with-phase", [None], junk=()),
                _flag("--shots", ["0", "1", "64", "4096", str(MAX_SHOTS + 1)]),
                _flag("--noise", noise),
                _flag("--csv", [files["csv_out"], files["unwritable"]], junk=()),
                _flag("--circuit-out", [files["circuit_out"]], junk=())),
        verify=command("verify", _flag("--pairs", ["0", "1", "3", "5", "6"])),
        metrics=command("metrics",
                _flag("--exp", [files["csv"], "bundled:hardware", "liar-reference"],
                      required=True),
                _flag("--ideal", [files["csv"], "bundled:simulation", "liar-literal"]),
                _flag("--column", ["auto", "counts", "probability", "bogus"]),
                _flag("--consistent-set", ["1001,1010", "0000", "0", "01,10", "",
                                           "1001,1001"]),
                _flag("--paradox-set", ["0000", "1", "0,1", "abc"]),
                _flag("--flag-index", ["-1", "0", "3", "6", HUGE])),
        estimate=command("estimate",
                _flag("--n", ["2", "2", "4", "0", "3", str(MAX_GRAPH_NODES)],
                      required=True),
                _flag("--graph", [files["graph"], "linear", "ring", "bundled:heavy-hex"]),
                _flag("--graph-size", ["3", "9", "40", "2", str(MAX_GRAPH_NODES + 1)]),
                _flag("--layout", ["0,1,2", "2,1,0", "0,0,1", "0,1,x"]),
                _flag("--noise", noise)),
        truthtable=command("truthtable", _flag("--pairs", ["0", "1", "4", "6", "7"]),
                _flag("--flag-in", ["0", "1", "2"]),
                _flag("--csv", [files["csv_out"], files["unwritable"]], junk=())),
    )


@pytest.mark.parametrize("subcommand", ["simulate", "verify", "metrics", "estimate",
                                        "truthtable"])
@settings(max_examples=60)
@given(data=st.data(), circuit=_damaged(_circuit_text()), table=_damaged(_csv_text()),
       graph=_damaged(_graph_text()))
def test_fuzzed_runs_keep_the_cli_contract(tmp_path_factory, subcommand, data, circuit,
                                           table, graph):
    root = tmp_path_factory.getbasetemp() / "contract"
    root.mkdir(exist_ok=True)
    files = {name: str(root / name) for name in (
        "circuit", "csv", "graph", "missing", "out", "csv_out", "circuit_out")}
    files["unwritable"] = str(root / "no-such-dir" / "out")
    for name, content in (("circuit", circuit), ("csv", table), ("graph", graph)):
        Path(files[name]).write_bytes(content)
    written = [Path(files[name]) for name in ("out", "csv_out", "circuit_out")]
    for path in written:
        path.unlink(missing_ok=True)
    argv = data.draw(_contract_argv(files)[subcommand])
    code, out, err = call(argv)
    check_outcome(argv, code, err)
    if code == 0:
        first = [out] + [path.read_bytes() if path.exists() else None for path in written]
        code, out, err = call(argv)
        assert code == 0, err
        assert [out] + [path.read_bytes() if path.exists() else None
                        for path in written] == first, argv
