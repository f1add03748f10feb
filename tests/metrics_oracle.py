"""Dict-based reference for the coherence metrics.

Each metric is computed over `as_probabilities(dist)` and `entries`
dicts keyed by bitstring, one state at a time, with the flag bit read off the
string by `bit_of`, and the outcome sets are listed as strings by `resolve`,
the default paradox set by formatting every index in turn: a route that
shares no arithmetic with the array metrics of `liarsim.metrics`.  Every sum
runs in the order the array metrics document, so the two must agree exactly,
not to a tolerance.  Only the chi-squared p-value takes the library's own
`_gammaincc`; the SciPy grid test in test_metrics.py checks that function
independently.
"""

import math
from numbers import Integral

from liarsim.dist import COUNTS
from liarsim.metrics import (_MIN_EXPECTED, DEFAULT_CONSISTENT, Chi2Result,
                             MetricsReport, _gammaincc)


def as_probabilities(dist) -> dict[str, float]:
    """Counts are normalized by total_shots; probability entries are
    returned exactly as stored (no silent renormalization)."""
    if dist.kind == COUNTS:
        if not dist.total_shots:
            raise ValueError("cannot normalize an empty counts distribution")
        return {s: v / dist.total_shots for s, v in dist.entries.items()}
    return dict(dist.entries.items())


def bit_of(bits: str, qubit: int) -> int:
    """Value of the given qubit in a canonical bitstring (highest qubit
    leftmost)."""
    return 1 if bits[len(bits) - 1 - qubit] == "1" else 0


def consistency_fidelity(dist, states):
    probs = as_probabilities(dist)
    return float(sum(probs.get(s, 0.0) for s in states))


def tv_distance(p, q):
    a = as_probabilities(p)
    b = as_probabilities(q)
    return 0.5 * float(sum(abs(a.get(k, 0.0) - b.get(k, 0.0))
                           for k in sorted(a.keys() | b.keys())))


def interference_suppression(experimental, ideal, states):
    exp_p = as_probabilities(experimental)
    ideal_p = as_probabilities(ideal)
    denom = sum(ideal_p.get(s, 0.0) for s in states)
    if denom < 1e-12:
        raise ValueError(
            "interference suppression is undefined: ideal paradox mass "
            f"{denom:.3e} is below 1e-12"
        )
    numer = sum(exp_p.get(s, 0.0) for s in states)
    return float(1.0 - numer / denom)


def z_flag(dist, flag_index):
    probs = as_probabilities(dist)
    total = sum(probs.values())
    if total <= 0.0:
        raise ValueError("empty distribution has no flag marginal")
    mass_one = sum(v for s, v in probs.items() if bit_of(s, flag_index))
    return float((total - 2.0 * mass_one) / total)


def chi_squared_gof(observed, expected):
    if observed.kind != COUNTS:
        raise ValueError("chi-squared needs observed counts, not probabilities")
    shots = observed.total_shots
    if not shots:
        raise ValueError("observed distribution has zero shots")

    shape = as_probabilities(expected)
    shape_total = sum(shape.values())
    if shape_total <= 0.0:
        raise ValueError("expected distribution has no mass")
    shape = {k: v / shape_total for k, v in shape.items()}

    counts = dict(observed.entries.items())
    keys = sorted(shape.keys() | counts.keys())
    exp_counts = {k: shape.get(k, 0.0) * shots for k in keys}
    obs_counts = {k: counts.get(k, 0.0) for k in keys}

    big = [k for k in keys if exp_counts[k] >= _MIN_EXPECTED]
    small = [k for k in keys if exp_counts[k] < _MIN_EXPECTED]
    statistic = sum(
        (obs_counts[k] - exp_counts[k]) ** 2 / exp_counts[k] for k in big
    )
    bins = len(big)
    if small:
        pooled_expected = sum(exp_counts[k] for k in small)
        pooled_observed = sum(obs_counts[k] for k in small)
        bins += 1
        if pooled_expected > 0.0:
            statistic += (pooled_observed - pooled_expected) ** 2 / pooled_expected
        elif pooled_observed > 0.0:
            statistic = math.inf

    dof = bins - 1
    if dof < 1:
        p_value = 1.0 if statistic == 0.0 else 0.0
    elif math.isinf(statistic):
        p_value = 0.0
    else:
        p_value = _gammaincc(dof / 2.0, statistic / 2.0)
    return Chi2Result(float(statistic), dof, p_value, bins, len(small))


def _checked(states, width, what):
    states = tuple(states)
    if not states:
        raise ValueError(f"{what} must not be empty")
    for s in states:
        if len(s) != width or set(s) - {"0", "1"}:
            raise ValueError(f"bad state {s!r} in {what} for width {width}")
    if len(set(states)) != len(states):
        raise ValueError(f"duplicate states in {what}")
    return states


def resolve(config, width):
    """MetricsConfig.resolve: the consistent and paradox sets as tuples of
    bitstrings in listed order, the default paradox set in index order, and
    the flag index."""
    consistent = config.consistent_set
    if consistent is None:
        if width != 4:
            raise ValueError(f"no default consistent set for width {width}; "
                             "pass consistent_set explicitly")
        consistent = DEFAULT_CONSISTENT
    consistent = _checked(consistent, width, "consistent_set")
    if config.paradox_set is None:
        if width > 16:
            raise ValueError("complement paradox set too large; pass it explicitly")
        skip = set(consistent)
        paradox = tuple(s for s in (format(i, f"0{width}b") for i in range(1 << width))
                        if s not in skip)
        if not paradox:
            raise ValueError("paradox_set must not be empty")
    else:
        paradox = _checked(config.paradox_set, width, "paradox_set")
    flag = width - 1 if config.flag_index is None else config.flag_index
    if not (isinstance(flag, Integral) and not isinstance(flag, bool) and 0 <= flag < width):
        raise ValueError(f"flag index {flag!r} out of range for width {width}")
    return consistent, paradox, int(flag)


def full_report(experimental, ideal, config):
    """full_report over the string sets resolve() lists."""
    if experimental.width != ideal.width:
        raise ValueError("width mismatch between experimental and ideal")
    consistent, paradox, flag = resolve(config, experimental.width)

    r_i = None
    r_i_note = None
    try:
        r_i = interference_suppression(experimental, ideal, paradox)
    except ValueError as exc:
        r_i_note = str(exc)

    chi2_stat = chi2_dof = chi2_p = None
    chi2_note = None
    if experimental.kind == COUNTS:
        chi2 = chi_squared_gof(experimental, ideal)
        chi2_stat, chi2_dof, chi2_p = chi2.statistic, chi2.dof, chi2.p_value
    else:
        chi2_note = "chi-squared needs observed counts; experimental data is probabilities"

    return MetricsReport(
        width=experimental.width,
        consistent_set=consistent,
        paradox_set=paradox,
        flag_index=flag,
        f_c_experimental=consistency_fidelity(experimental, consistent),
        f_c_ideal=consistency_fidelity(ideal, consistent),
        d_tv=tv_distance(experimental, ideal),
        r_i=r_i,
        r_i_note=r_i_note,
        chi2_statistic=chi2_stat,
        chi2_dof=chi2_dof,
        chi2_p_value=chi2_p,
        chi2_note=chi2_note,
        z_flag_experimental=z_flag(experimental, flag),
        z_flag_ideal=z_flag(ideal, flag),
    )
