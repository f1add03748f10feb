"""Distribution type, CSV parsing, and the bundled reference tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liarsim.dist import (_CHUNK_ROWS, _FORMAT_EACH, COUNTS, PROBABILITY,
                          REFERENCE_TABLE_SUM_TOL, Distribution,
                          bundled_table_names, load_reference_table,
                          read_distribution_csv, write_counts_csv)
from liarsim.statevec import MAX_SHOTS

from metrics_oracle import as_probabilities


# ---------------------------------------------------------------------------
# construction rules

def test_counts_total_shots_autofilled():
    dist = Distribution(2, {"00": 3.0, "11": 5.0}, COUNTS)
    assert dist.total_shots == 8
    assert dist.total() == 8.0


def test_counts_total_shots_mismatch_rejected():
    with pytest.raises(ValueError, match="total_shots"):
        Distribution(2, {"00": 3.0}, COUNTS, total_shots=5)


def test_counts_must_be_integral():
    with pytest.raises(ValueError, match="not an integer"):
        Distribution(2, {"00": 2.5}, COUNTS)


def test_probability_kind_rejects_total_shots():
    with pytest.raises(ValueError, match="total_shots"):
        Distribution(2, {"00": 1.0}, PROBABILITY, total_shots=1)


def test_bad_states_and_values_rejected():
    with pytest.raises(ValueError, match="bad state"):
        Distribution(2, {"012": 1.0}, PROBABILITY)
    with pytest.raises(ValueError, match="bad state"):
        Distribution(2, {"0": 1.0}, PROBABILITY)
    with pytest.raises(ValueError, match="bad value"):
        Distribution(2, {"00": -0.1}, PROBABILITY)
    with pytest.raises(ValueError, match="unknown distribution kind"):
        Distribution(2, {"00": 1.0}, "frequencies")


@pytest.mark.parametrize("kind,value,message", [
    (PROBABILITY, math.nan, "bad value nan for state 10"),
    (PROBABILITY, math.inf, "bad value inf for state 10"),
    (COUNTS, -math.inf, "bad value -inf for state 10"),
    (PROBABILITY, -1e-300, "bad value -1e-300 for state 10"),
    (COUNTS, -2.0, "bad value -2.0 for state 10"),
    (COUNTS, 2.5, "count for 10 is not an integer: 2.5"),
    (COUNTS, 5e-324, "count for 10 is not an integer: 5e-324"),
])
def test_bad_values_rejected_from_mappings_and_arrays(kind, value, message):
    with pytest.raises(ValueError, match=message):
        Distribution(2, {"00": 1.0, "10": value}, kind)
    with pytest.raises(ValueError, match=message):
        Distribution(2, None, kind, indices=np.array([0, 2]),
                     values=np.array([1.0, value]))


@pytest.mark.parametrize("state", ["01 ", "0x", "0", "011", "１0", "", 5])
def test_bad_keys_rejected(state):
    with pytest.raises((ValueError, TypeError)):
        Distribution(2, {"00": 0.5, state: 0.5}, PROBABILITY)
    if isinstance(state, str):
        with pytest.raises(ValueError, match=f"bad state {state!r} for width 2"):
            Distribution(2, {"00": 0.5, state: 0.5}, PROBABILITY)


def test_bad_indices_rejected():
    def build(indices, values=None, width=3):
        values = [1.0] * len(indices) if values is None else values
        return Distribution(width, None, COUNTS, indices=np.array(indices),
                            values=np.array(values))

    with pytest.raises(ValueError, match="bad state index 8 for width 3"):
        build([1, 8])
    with pytest.raises(ValueError, match="bad state index -1 for width 3"):
        build([-1, 2])
    with pytest.raises(ValueError, match="duplicate state indices"):
        build([5, 2, 5])
    with pytest.raises(ValueError, match="indices must be integers"):
        build([0.0, 1.0])
    with pytest.raises(ValueError, match="equally long"):
        build([0, 1], [1.0])
    with pytest.raises(ValueError, match="width must be in 1..63"):
        build([0], width=64)
    with pytest.raises(ValueError, match="width must be in 1..63"):
        Distribution(0, {}, PROBABILITY)
    with pytest.raises(ValueError, match="not both"):
        Distribution(1, {"0": 1.0}, COUNTS, indices=np.array([0]),
                     values=np.array([1.0]))
    with pytest.raises(ValueError, match="both indices and values"):
        Distribution(1, None, COUNTS, indices=np.array([0]))
    # the widest register an int64 index holds
    wide = build([2**62, 3], width=63)
    assert list(wide.entries) == ["1" + "0" * 62, "0" * 61 + "11"]


def test_total_shots_checked_for_array_counts():
    with pytest.raises(ValueError, match="total_shots=7 but entries sum to 6"):
        Distribution(2, None, COUNTS, 7, indices=np.array([0, 3]),
                     values=np.array([2.0, 4.0]))


def test_entries_is_a_lazy_read_only_view_in_arrival_order():
    dist = Distribution(3, None, PROBABILITY, indices=np.array([6, 1, 3]),
                        values=np.array([0.25, 0.5, 0.25]))
    assert len(dist.entries) == 3
    assert list(dist.entries) == ["110", "001", "011"]
    assert dist.entries == {"001": 0.5, "011": 0.25, "110": 0.25}
    assert "011" in dist.entries and "111" not in dist.entries
    with pytest.raises(TypeError):
        dist.entries["111"] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        dist.values[0] = 1.0
    indices, values = dist.sorted_arrays()
    assert indices.tolist() == [1, 3, 6] and values.tolist() == [0.5, 0.25, 0.25]
    # equality ignores arrival order, like the dict it stands for
    assert dist == Distribution(3, {"001": 0.5, "011": 0.25, "110": 0.25},
                                PROBABILITY)
    assert dist != Distribution(3, {"001": 0.5, "011": 0.25, "111": 0.25},
                                PROBABILITY)


def test_sums_run_left_to_right_in_entry_order():
    values = [0.1, 0.2, 0.3, 0.4, 1e-17, 0.7]
    forward = Distribution(3, None, PROBABILITY, indices=np.arange(6),
                           values=np.array(values))
    backward = Distribution(3, None, PROBABILITY, indices=np.arange(5, -1, -1),
                            values=np.array(values[::-1]))
    assert forward.total() == sum(values)
    assert backward.total() == sum(values[::-1])
    assert forward.total() != backward.total()  # so the order is observable


def test_validate_checks_probability_sum():
    Distribution(1, {"0": 0.5, "1": 0.5}, PROBABILITY).validate()
    with pytest.raises(ValueError, match="sum to"):
        Distribution(1, {"0": 0.5, "1": 0.4}, PROBABILITY).validate()
    # a loose tolerance admits the same data
    Distribution(1, {"0": 0.5, "1": 0.4}, PROBABILITY).validate(sum_tol=0.2)


def test_as_probabilities_normalizes_counts_only():
    counts = Distribution(1, {"0": 30.0, "1": 10.0}, COUNTS)
    assert as_probabilities(counts) == {"0": 0.75, "1": 0.25}
    # probability entries come back exactly as stored, even off-sum ones
    probs = Distribution(1, {"0": 0.7, "1": 0.2}, PROBABILITY)
    assert as_probabilities(probs) == {"0": 0.7, "1": 0.2}


# ---------------------------------------------------------------------------
# CSV round trips

def test_counts_csv_round_trip(tmp_path):
    dist = Distribution(3, {"000": 10.0, "101": 2.0, "111": 4.0}, COUNTS)
    path = tmp_path / "counts.csv"
    write_counts_csv(dist, path)
    back = read_distribution_csv(path)
    assert back.kind == COUNTS
    assert back.entries == dist.entries
    assert back.total_shots == 16


def _csv_by_row(dist: Distribution) -> str:
    """The per-row writer write_counts_csv replaced, kept as its oracle."""
    return "state,counts\n" + "".join(f"{state},{int(dist.entries[state])}\n"
                                       for state in sorted(dist.entries))


@settings(max_examples=100, deadline=None)
@given(size=st.sampled_from([0, 1, 2, _FORMAT_EACH, _FORMAT_EACH + 1,
                             _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]),
       data=st.data())
def test_write_counts_csv_matches_per_row_writer(tmp_path_factory, size, data):
    width = data.draw(st.integers(max(1, (size - 1).bit_length()), 24))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    indices = rng.choice(1 << width, size, replace=False)  # arrival order unsorted
    values = rng.integers(1, data.draw(st.sampled_from([2, 50, MAX_SHOTS])), size)
    dist = Distribution(width, None, COUNTS, indices=indices, values=values)
    path = tmp_path_factory.mktemp("csv") / "counts.csv"
    write_counts_csv(dist, path)
    # compared as lists of lines: pytest's diff of two long strings is slow
    assert path.read_text(encoding="utf-8").split("\n") == _csv_by_row(dist).split("\n")


def test_write_counts_csv_rejects_probabilities(tmp_path):
    probs = Distribution(1, {"0": 1.0}, PROBABILITY)
    with pytest.raises(ValueError, match="counts"):
        write_counts_csv(probs, tmp_path / "x.csv")


def test_csv_keeps_file_order(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("state,probability\n11,0.25\n00,0.5\n10,0.25\n")
    dist = read_distribution_csv(path)
    assert dist.indices.tolist() == [3, 0, 2]
    assert list(dist.entries) == ["11", "00", "10"]


def test_read_probability_csv(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("state,probability\n00,0.25\n01,0.75\n")
    dist = read_distribution_csv(path)
    assert dist.kind == PROBABILITY
    assert dist.entries == {"00": 0.25, "01": 0.75}


def test_column_auto_prefers_probability(tmp_path):
    path = tmp_path / "both.csv"
    path.write_text("state,counts,probability\n0,75,0.75\n1,25,0.25\n")
    assert read_distribution_csv(path).kind == PROBABILITY
    counts = read_distribution_csv(path, column="counts")
    assert counts.kind == COUNTS
    assert counts.total_shots == 100


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("state,counts\n00,5\n00,6\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: duplicate state"):
        read_distribution_csv(path)

    path.write_text("state,counts\n00,many\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: bad counts"):
        read_distribution_csv(path)

    path.write_text("outcome,n\n00,5\n")
    with pytest.raises(ValueError, match="unrecognized header"):
        read_distribution_csv(path)

    path.write_text("state,counts\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_distribution_csv(path)


def test_csv_missing_column_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("state,counts\n0,1\n")
    with pytest.raises(ValueError, match="no 'probability' column"):
        read_distribution_csv(path, column="probability")


# ---------------------------------------------------------------------------
# bundled tables

def test_bundled_table_names():
    assert bundled_table_names() == ("hardware", "simulation")


def test_bundled_counts_sum_to_8192():
    for arm in bundled_table_names():
        dist = load_reference_table(arm, column=COUNTS)
        assert dist.total_shots == 8192
        assert dist.width == 4
        assert len(dist.entries) == 16


def test_bundled_probability_columns_are_off_sum_as_published():
    # the published probability columns undershoot 1; the loader keeps them
    sim = load_reference_table("simulation")
    hw = load_reference_table("hardware")
    assert sim.total() == pytest.approx(0.9624, abs=1e-9)
    assert hw.total() == pytest.approx(0.9445, abs=1e-9)
    assert abs(sim.total() - 1.0) < REFERENCE_TABLE_SUM_TOL
    assert abs(hw.total() - 1.0) < REFERENCE_TABLE_SUM_TOL


def test_bundled_dominant_states():
    for arm, top in (("simulation", "1010"), ("hardware", "1010")):
        dist = load_reference_table(arm)
        assert max(dist.entries, key=dist.entries.get) == top
        assert dist.entries["1001"] + dist.entries["1010"] > 0.85


def test_unknown_arm_rejected():
    with pytest.raises(ValueError, match="unknown reference table"):
        load_reference_table("trapped_ion")
