"""Metric formulas, property checks, and the chi-squared oracle comparison."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metrics_oracle as oracle
from liarsim.dist import COUNTS, PROBABILITY, Distribution, load_reference_table
from liarsim.metrics import (DEFAULT_CONSISTENT, MetricsConfig, _gammaincc,
                             chi_squared_gof, consistency_fidelity,
                             full_report, interference_suppression,
                             tv_distance, z_flag)


def prob_dist(width, entries):
    return Distribution(width, entries, PROBABILITY)


def counts_dist(width, entries):
    return Distribution(width, entries, COUNTS)


def random_prob(rng, width=3):
    dim = 1 << width
    support = rng.choice(dim, size=int(rng.integers(2, dim + 1)), replace=False)
    masses = rng.random(len(support)) + 1e-3
    masses /= masses.sum()
    return prob_dist(width, {format(int(s), f"0{width}b"): float(m)
                             for s, m in zip(support, masses)})


# ---------------------------------------------------------------------------
# mass metrics

def test_consistency_fidelity_basic():
    dist = prob_dist(2, {"00": 0.25, "01": 0.5, "11": 0.25})
    assert consistency_fidelity(dist, ("01",)) == 0.5
    assert consistency_fidelity(dist, ("01", "11")) == 0.75
    assert consistency_fidelity(dist, ("10",)) == 0.0


def test_consistency_fidelity_uses_raw_probability_entries():
    # off-sum probability data is taken literally, not renormalized
    dist = prob_dist(1, {"0": 0.4, "1": 0.4})
    assert consistency_fidelity(dist, ("0",)) == 0.4


def test_consistency_fidelity_normalizes_counts():
    dist = counts_dist(1, {"0": 30.0, "1": 10.0})
    assert consistency_fidelity(dist, ("0",)) == 0.75


def test_consistency_fidelity_validates_states():
    dist = prob_dist(2, {"00": 1.0})
    with pytest.raises(ValueError):
        consistency_fidelity(dist, ("000",))
    with pytest.raises(ValueError):
        consistency_fidelity(dist, ())
    with pytest.raises(ValueError):
        consistency_fidelity(dist, ("00", "00"))


def test_tv_distance_cases():
    p = prob_dist(1, {"0": 1.0})
    q = prob_dist(1, {"1": 1.0})
    assert tv_distance(p, q) == 1.0
    assert tv_distance(p, p) == 0.0
    r = prob_dist(1, {"0": 0.5, "1": 0.5})
    assert tv_distance(p, r) == 0.5
    with pytest.raises(ValueError, match="width"):
        tv_distance(p, prob_dist(2, {"00": 1.0}))


def test_tv_distance_mixes_counts_and_probabilities():
    counts = counts_dist(1, {"0": 75.0, "1": 25.0})
    probs = prob_dist(1, {"0": 0.75, "1": 0.25})
    assert tv_distance(counts, probs) == pytest.approx(0.0, abs=1e-15)


def test_mass_metric_properties():
    rng = np.random.default_rng(314)
    for _ in range(1000):
        p = random_prob(rng)
        q = random_prob(rng)
        r = random_prob(rng)
        d_pq = tv_distance(p, q)
        assert 0.0 <= d_pq <= 1.0 + 1e-12
        assert d_pq == pytest.approx(tv_distance(q, p), abs=1e-15)
        assert d_pq <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
        # complement identity: masses on S and its complement sum to the total
        states = list(p.entries)
        cut = max(1, len(states) // 2)
        inside = tuple(states[:cut])
        outside = tuple(s for s in
                        (format(i, "03b") for i in range(8)) if s not in inside)
        total = consistency_fidelity(p, inside) + consistency_fidelity(p, outside)
        assert total == pytest.approx(p.total(), abs=1e-12)


def test_interference_suppression():
    ideal = prob_dist(1, {"0": 0.5, "1": 0.5})
    experimental = prob_dist(1, {"0": 0.9, "1": 0.1})
    assert interference_suppression(experimental, ideal, ("1",)) == pytest.approx(0.8)
    # more experimental mass than ideal gives a negative ratio
    worse = prob_dist(1, {"0": 0.2, "1": 0.8})
    assert interference_suppression(worse, ideal, ("1",)) == pytest.approx(-0.6)


def test_interference_suppression_guards_zero_ideal_mass():
    ideal = prob_dist(1, {"0": 1.0})
    experimental = prob_dist(1, {"0": 0.9, "1": 0.1})
    with pytest.raises(ValueError, match="undefined"):
        interference_suppression(experimental, ideal, ("1",))


def test_z_flag():
    dist = prob_dist(2, {"00": 0.25, "10": 0.75})  # flag = qubit 1
    assert z_flag(dist, 1) == pytest.approx(0.25 - 0.75)
    assert z_flag(dist, 0) == 1.0
    # off-sum data is normalized so z stays in [-1, 1]
    off = prob_dist(1, {"0": 0.2, "1": 0.6})
    assert z_flag(off, 0) == pytest.approx((0.8 - 2 * 0.6) / 0.8)
    with pytest.raises(ValueError):
        z_flag(dist, 2)


def test_z_flag_pinned_reference_values():
    hw = load_reference_table("hardware")
    assert z_flag(hw, 3) == pytest.approx(-0.980519, abs=1e-6)
    sim_counts = load_reference_table("simulation", column=COUNTS)
    assert z_flag(sim_counts, 3) == pytest.approx(1.0 - 2.0 * 8126 / 8192, abs=1e-12)


# ---------------------------------------------------------------------------
# chi-squared

def chi2_tail_oracle(dof: int, stat: float) -> float:
    """Upper-tail probability by direct trapezoid integration of the density."""
    if stat <= 0.0:
        return 1.0
    upper = stat + 40.0 * max(1.0, math.sqrt(2.0 * dof))
    xs = np.linspace(stat, upper, 400_001)
    log_pdf = ((dof / 2.0 - 1.0) * np.log(xs) - xs / 2.0
               - (dof / 2.0) * math.log(2.0) - math.lgamma(dof / 2.0))
    ys = np.exp(log_pdf)
    return float(np.sum((ys[1:] + ys[:-1]) * np.diff(xs)) / 2.0)


def test_chi2_p_values_match_integration_oracle():
    grid = [(dof, stat) for dof in (1, 2, 3, 5, 10)
            for stat in (0.5, 1.0, 3.841, 7.0)]
    assert len(grid) == 20
    for dof, stat in grid:
        # synthesize a (dof+1)-bin comparison with the target statistic:
        # uniform expected, all discrepancy in the first two bins
        bins = dof + 1
        shots = 10000
        expected = prob_dist(4, {format(i, "04b"): 1.0 / bins for i in range(bins)})
        delta = math.sqrt(stat * (shots / bins) / 2.0)
        obs = {format(i, "04b"): float(shots // bins) for i in range(bins)}
        obs[format(0, "04b")] += delta
        obs[format(1, "04b")] -= delta
        # counts must stay integral; adjust the statistic accordingly
        obs = {k: float(round(v)) for k, v in obs.items()}
        observed = counts_dist(4, obs)
        result = chi_squared_gof(observed, expected)
        assert result.dof == dof
        oracle_p = chi2_tail_oracle(dof, result.statistic)
        assert result.p_value == pytest.approx(oracle_p, abs=1e-3), (dof, stat)


def test_chi2_reference_point():
    # dof 1, statistic 3.841 sits at the conventional 5% boundary
    assert chi2_tail_oracle(1, 3.841) == pytest.approx(0.05, abs=1e-3)


def test_chi2_identical_counts_give_p_one():
    observed = counts_dist(2, {"00": 50.0, "01": 30.0, "10": 20.0})
    result = chi_squared_gof(observed, observed)
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_chi2_pools_small_expected_bins():
    expected = prob_dist(2, {"00": 0.98, "01": 0.01, "10": 0.01})
    observed = counts_dist(2, {"00": 97.0, "01": 2.0, "10": 1.0})
    result = chi_squared_gof(observed, expected)
    # the two 1-count bins merge into one residual bin
    assert result.bins == 2
    assert result.pooled_bins == 2
    assert result.dof == 1


def test_chi2_impossible_outcome_gives_zero_p():
    expected = prob_dist(1, {"0": 1.0})
    observed = counts_dist(1, {"0": 5.0, "1": 3.0})
    result = chi_squared_gof(observed, expected)
    assert math.isinf(result.statistic)
    assert result.p_value == 0.0


def test_chi2_degenerate_single_bin():
    expected = prob_dist(1, {"0": 1.0})
    observed = counts_dist(1, {"0": 10.0})
    result = chi_squared_gof(observed, expected)
    assert result.dof == 0
    assert result.p_value == 1.0


def _gamma_grid():
    """(a, x) for dof 1 to 2**20: x at a + z sqrt(a) for z from -8 to 12,
    and x / a from 0.01 to 4."""
    points = []
    for dof in sorted({round(2 ** (k / 4)) for k in range(81)}):
        a = dof / 2.0
        points += [(a, a + z * math.sqrt(a)) for z in np.arange(-16, 25) / 2.0
                   if a + z * math.sqrt(a) >= 0.0]
        points += [(a, a * r) for r in np.geomspace(0.01, 4.0, 25)]
    return np.array(points).T


def test_gammaincc_matches_scipy_on_a_wide_grid():
    special = pytest.importorskip("scipy.special")
    a, x = _gamma_grid()
    want = special.gammaincc(a, x)
    got = np.array([_gammaincc(*point) for point in zip(a.tolist(), x.tolist())])
    assert got.size > 4000 and ((got >= 0.0) & (got <= 1.0)).all()
    deviation = np.abs(got - want) / np.where(want > 0.0, want, 1.0)
    assert deviation[want >= 1e-30].max() <= 1e-12
    assert deviation[want >= 1e-300].max() <= 1e-10
    assert np.abs(got - want)[want < 1e-300].max() <= 1e-300


def _exact_gammaincc(a: int, x: float) -> float:
    """Q(a, x) = e^-x sum_{k<a} x^k / k! for integer a, summed in 50-digit
    decimal arithmetic from the exact value of x."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = decimal.Decimal(x)
        term = total = decimal.Decimal(1)
        for k in range(1, a):
            term = term * x / k
            total += term
        return float(total * (-x).exp())


def test_gammaincc_matches_an_exact_sum_at_integer_a():
    # a in 100..1200 and x / a in 1..2.2 is where SciPy's gammaincc drifts by
    # about 8e-13, more than _gammaincc does here
    points = [(a, a * r) for a in range(100, 1201, 50)
              for r in np.linspace(1.0, 2.2, 25).tolist()]
    want = np.array([_exact_gammaincc(a, x) for a, x in points])
    got = np.array([_gammaincc(float(a), x) for a, x in points])
    deviation = np.abs(got - want) / want
    assert (want >= 1e-30).sum() > 250 and (want < 1e-30).sum() > 250
    assert deviation[want >= 1e-30].max() <= 1e-13
    assert deviation[want >= 1e-300].max() <= 5e-13


def test_gammaincc_endpoints_and_closed_forms():
    for a in (0.5, 1.0, 7.5, 2.0 ** 19):
        assert _gammaincc(a, 0.0) == 1.0
        assert _gammaincc(a, math.inf) == 0.0
    # Q(1, x) = e^-x and Q(1/2, x) = erfc(sqrt x), one point per branch and
    # out into the deep tail
    for x in (1e-300, 1e-8, 0.3, 1.0, 1.6, 2.5, 40.0, 700.0):
        assert _gammaincc(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)
        assert _gammaincc(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-13)


def test_gammaincc_hardest_point_stays_within_its_term_limit():
    # x = a at dof 2**20 needs the most terms on the grid, about 5600 of the
    # 100 + 10 sqrt(a) the loops allow.  Q(a, a) = 1/2 - 1/(3 sqrt(2 pi a))
    # + O(a^-3/2), a few parts in 1e13 here
    a = 2.0 ** 19
    assert _gammaincc(a, a) == pytest.approx(0.5 - 1 / (3 * math.sqrt(2 * math.pi * a)),
                                             rel=1e-11)
    # an x that cannot converge stops at that limit instead of looping on
    with pytest.raises(ArithmeticError, match="did not converge"):
        _gammaincc(a, math.nan)


def test_chi2_requires_observed_counts():
    with pytest.raises(ValueError, match="counts"):
        chi_squared_gof(prob_dist(1, {"0": 1.0}), prob_dist(1, {"0": 1.0}))


# ---------------------------------------------------------------------------
# config and report

def test_config_defaults_for_width_4():
    consistent, paradox, flag = MetricsConfig().resolve(4)
    assert consistent == DEFAULT_CONSISTENT
    assert len(paradox) == 14
    assert "1001" not in paradox and "1010" not in paradox
    assert flag == 3


def test_config_requires_explicit_set_off_width_4():
    with pytest.raises(ValueError, match="consistent"):
        MetricsConfig().resolve(3)
    consistent, paradox, flag = MetricsConfig(consistent_set=("000",)).resolve(3)
    assert len(paradox) == 7
    assert flag == 2


@pytest.mark.parametrize("width", range(1, 17))
def test_default_paradox_set_is_the_complement_in_index_order(width):
    rng = np.random.default_rng(width)
    everything = [format(i, f"0{width}b") for i in range(1 << width)]
    for size in {1, min(3, (1 << width) - 1), (1 << width) - 1}:
        picked = rng.choice(1 << width, size, replace=False)
        consistent = tuple(everything[i] for i in picked)
        # the per-index format loop the mask replaced, as the oracle
        skip = {int(s, 2) for s in consistent}
        expected = tuple(format(i, f"0{width}b")
                         for i in range(1 << width) if i not in skip)
        got = MetricsConfig(consistent_set=consistent).resolve(width)
        assert got == (consistent, expected, width - 1)
    with pytest.raises(ValueError, match="paradox_set must not be empty"):
        MetricsConfig(consistent_set=tuple(everything)).resolve(width)


def test_default_paradox_set_stays_capped_at_16_qubits():
    with pytest.raises(ValueError, match="complement paradox set too large"):
        MetricsConfig(consistent_set=("0" * 17,)).resolve(17)


def test_full_report_bundled_pinned_values():
    hw = load_reference_table("hardware")
    sim = load_reference_table("simulation")
    report = full_report(hw, sim)
    assert report.f_c_experimental == pytest.approx(0.8614, abs=1e-9)
    assert report.f_c_ideal == pytest.approx(0.8713, abs=1e-9)
    assert report.d_tv == pytest.approx(0.03385, abs=1e-9)
    assert report.r_i == pytest.approx(0.087816, abs=1e-4)
    assert report.chi2_statistic is None
    assert "counts" in report.chi2_note


def test_full_report_counts_enable_chi2():
    hw = load_reference_table("hardware", column=COUNTS)
    sim = load_reference_table("simulation", column=COUNTS)
    report = full_report(hw, sim)
    assert report.chi2_statistic is not None
    assert report.chi2_note is None
    assert 0.0 <= report.chi2_p_value <= 1.0


def test_full_report_notes_zero_ideal_paradox_mass():
    ideal = prob_dist(4, {"1001": 0.5, "1010": 0.5})
    experimental = prob_dist(4, {"1001": 0.4, "1010": 0.4, "0000": 0.2})
    report = full_report(experimental, ideal)
    assert report.r_i is None
    assert "undefined" in report.r_i_note
    assert report.f_c_experimental == pytest.approx(0.8)


def test_full_report_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        full_report(prob_dist(1, {"0": 1.0}), prob_dist(2, {"00": 1.0}))


# ---------------------------------------------------------------------------
# the array metrics against the dict-based oracle

@st.composite
def metric_inputs(draw):
    """Two distributions of one width (counts or probabilities, built from a
    mapping in random arrival order, or from arrays) and a MetricsConfig
    whose explicit sets list their states out of index order, its consistent
    set now and then left to the default."""
    width = draw(st.integers(1, 12))
    dim = 1 << width

    def distribution():
        kind = draw(st.sampled_from([COUNTS, PROBABILITY]))
        states = draw(st.lists(st.integers(0, dim - 1), min_size=1,
                               max_size=min(dim, 40), unique=True))
        if kind == COUNTS:
            value = st.one_of(st.integers(0, 3), st.integers(0, 10**6)).map(float)
        else:
            value = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 0.1]))
        values = draw(st.lists(value, min_size=len(states), max_size=len(states)))
        if draw(st.booleans()):
            return Distribution(width, None, kind, indices=np.array(states),
                                values=np.array(values))
        return Distribution(width, {format(s, f"0{width}b"): v
                                    for s, v in zip(states, values)}, kind)

    experimental, ideal = distribution(), distribution()
    # sets drawn mostly from the two supports, so that they carry mass
    pool = sorted(set(experimental.indices.tolist()) | set(ideal.indices.tolist()))
    state = st.one_of(st.sampled_from(pool), st.integers(0, dim - 1))

    def state_set(min_size):
        picked = draw(st.lists(state, min_size=min(min_size, dim),
                               max_size=min(dim, 8), unique=True))
        return tuple(format(s, f"0{width}b") for s in picked)

    config = MetricsConfig(
        consistent_set=state_set(1) if draw(st.integers(0, 7)) else None,
        paradox_set=state_set(3) if draw(st.booleans()) else None,
        flag_index=draw(st.one_of(st.none(), st.integers(0, width - 1))),
    )
    return experimental, ideal, config


def _outcome(metric, *args):
    try:
        return "value", metric(*args)
    except ValueError as exc:
        return "error", str(exc)


def _assert_same(metric, reference, *args):
    got, want = _outcome(metric, *args), _outcome(reference, *args)
    # == alone would let -0.0 stand for 0.0; repr tells them apart
    assert got == want and repr(got) == repr(want), (metric.__name__, args)


@settings(max_examples=300, deadline=None)
@given(metric_inputs())
# a chi-squared statistic whose last bit changes if a bin is squared by NumPy
# (x * x) instead of by float ** 2 (libm pow)
@example((counts_dist(1, {"0": 361.0, "1": 178.0}),
          prob_dist(1, {"0": 0.7183322416287425, "1": 0.28166775837125746}),
          MetricsConfig(consistent_set=("0",))))
def test_array_metrics_equal_the_dict_oracle(inputs):
    experimental, ideal, config = inputs
    _assert_same(MetricsConfig.resolve, oracle.resolve, config, experimental.width)
    _assert_same(full_report, oracle.full_report, experimental, ideal, config)
    _assert_same(tv_distance, oracle.tv_distance, experimental, ideal)
    for dist in (experimental, ideal):
        if config.consistent_set is not None:
            _assert_same(consistency_fidelity, oracle.consistency_fidelity,
                         dist, config.consistent_set)
        _assert_same(z_flag, oracle.z_flag, dist, experimental.width - 1)
        if config.flag_index is not None:
            _assert_same(z_flag, oracle.z_flag, dist, config.flag_index)
    if config.paradox_set is not None:
        _assert_same(interference_suppression, oracle.interference_suppression,
                     experimental, ideal, config.paradox_set)
    for observed, expected in ((experimental, ideal), (ideal, experimental)):
        if observed.kind == COUNTS:
            _assert_same(chi_squared_gof, oracle.chi_squared_gof, observed, expected)


@pytest.mark.parametrize("width", [3, 9, 12, 16])
def test_public_results_spell_sets_as_the_oracle_does(width):
    # full_report and resolve build their tuples of str from index arrays;
    # the oracle lists the same sets as strings, the complement by formatting
    # every index in turn
    rng = np.random.default_rng(width)
    picked = rng.choice(1 << width, 6, replace=False).tolist()
    states = [format(i, f"0{width}b") for i in picked]
    experimental = counts_dist(width, {s: float(k + 1) for k, s in enumerate(states)})
    ideal = prob_dist(width, {s: 1.0 / len(states) for s in states})
    for config in (MetricsConfig(consistent_set=tuple(states[:2])),
                   MetricsConfig(consistent_set=tuple(states[3:]),
                                 paradox_set=tuple(states[:3]), flag_index=0)):
        _assert_same(MetricsConfig.resolve, oracle.resolve, config, width)
        _assert_same(full_report, oracle.full_report, experimental, ideal, config)
        report = full_report(experimental, ideal, config)
        for field in (report.consistent_set, report.paradox_set):
            assert type(field) is tuple and {type(s) for s in field} == {str}
