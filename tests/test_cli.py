"""End-to-end command-line behavior: payload shapes, exit codes, determinism."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from liarsim import cli
from liarsim.cli import _json_default, _strict_numbers, canonical_json, main
from liarsim.logic_ops import CheckResult
from liarsim.statevec import DEFAULT_SEED

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


def test_simulate_missing_circuit_file_is_io_error(capsys):
    assert main(["simulate", "/no/such/file.json"]) == 3
    assert "no such circuit" in capsys.readouterr().err


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
    monkeypatch.setattr("liarsim.cli.verification_suite", lambda pairs: fake)
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


def test_estimate_layout_and_graph_errors(capsys):
    assert main(["estimate", "--n", "4", "--graph-size", "2"]) == 1
    assert main(["estimate", "--n", "4", "--layout", "0,1,x"]) == 1
    assert main(["estimate", "--n", "4", "--graph", "/missing/graph.txt"]) == 3
    capsys.readouterr()


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
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=40,
)


@given(_payloads)
@example({"flat": {"a": 1.5, "b": np.float64("inf"), "c": float("nan")},
          "nested": {"x": [{}, [], {"k": np.int64(3), "z": np.bool_(True)}]},
          "empty": {}})
@example({"probabilities": {"00": 0.5, "11": np.float32(0.25)}, "n": None})
def test_canonical_json_matches_indented_reference(payload):
    reference = json.dumps(_strict_numbers(payload), indent=2, sort_keys=True,
                           allow_nan=False, default=_json_default) + "\n"
    assert canonical_json(payload) == reference
