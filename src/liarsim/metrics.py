"""Coherence metrics over outcome distributions.

Mass metrics (consistency fidelity, total variation, interference
suppression) take probability entries exactly as stored: counts distributions
are normalized by their shot totals, probability distributions are trusted as
given.  The flag polarization z_flag normalizes by total observed mass so
that z = 1 - 2*P(flag=1) holds identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .dist import COUNTS, PROBABILITY, Distribution, bitstrings
from .statevec import bit_of

DEFAULT_CONSISTENT = ("1001", "1010")
_MIN_EXPECTED = 5.0  # chi-squared bins expecting fewer counts are pooled


def _check_states(states, width: int, what: str) -> tuple[str, ...]:
    states = tuple(states)
    if not states:
        raise ValueError(f"{what} must not be empty")
    for s in states:
        if len(s) != width or s.strip("01"):
            raise ValueError(f"bad state {s!r} in {what} for width {width}")
    if len(set(states)) != len(states):
        raise ValueError(f"duplicate states in {what}")
    return states


def consistency_fidelity(dist: Distribution, consistent_set) -> float:
    """Probability mass on the designated consistent outcomes."""
    states = _check_states(consistent_set, dist.width, "consistent_set")
    probs = dist.as_probabilities()
    return float(sum(probs.get(s, 0.0) for s in states))


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance (1/2) * sum |p - q| over the union support,
    summed in ascending state order so the float result is reproducible."""
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    a = p.as_probabilities()
    b = q.as_probabilities()
    return 0.5 * float(sum(abs(a.get(k, 0.0) - b.get(k, 0.0))
                           for k in sorted(a.keys() | b.keys())))


def interference_suppression(experimental: Distribution, ideal: Distribution,
                             paradox_set) -> float:
    """1 - (experimental paradox mass / ideal paradox mass).

    Undefined when the ideal assigns (numerically) no mass to the paradox
    set; that case raises instead of returning a misleading number.
    """
    if experimental.width != ideal.width:
        raise ValueError("width mismatch between experimental and ideal")
    states = _check_states(paradox_set, ideal.width, "paradox_set")
    return _suppression(experimental, ideal, states)


def _suppression(experimental: Distribution, ideal: Distribution,
                 states: tuple[str, ...]) -> float:
    """interference_suppression on an already validated paradox set."""
    exp_p = experimental.as_probabilities()
    ideal_p = ideal.as_probabilities()
    denom = sum(ideal_p.get(s, 0.0) for s in states)
    if denom < 1e-12:
        raise ValueError(
            "interference suppression is undefined: ideal paradox mass "
            f"{denom:.3e} is below 1e-12"
        )
    numer = sum(exp_p.get(s, 0.0) for s in states)
    return float(1.0 - numer / denom)


def z_flag(dist: Distribution, flag_index: int) -> float:
    """Flag polarization P(flag=0) - P(flag=1), normalized by total mass."""
    if not 0 <= flag_index < dist.width:
        raise ValueError(f"flag index {flag_index} out of range for width {dist.width}")
    probs = dist.as_probabilities()
    total = sum(probs.values())
    if total <= 0.0:
        raise ValueError("empty distribution has no flag marginal")
    mass_one = sum(v for s, v in probs.items() if bit_of(s, flag_index))
    return float((total - 2.0 * mass_one) / total)


# ---------------------------------------------------------------------------
# chi-squared goodness of fit

@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    dof: int
    p_value: float
    bins: int
    pooled_bins: int


def chi_squared_gof(observed: Distribution, expected: Distribution) -> Chi2Result:
    """Pearson chi-squared test of observed counts against expected shape.

    Bins with expected count below 5 are pooled into one residual bin;
    dof = bins_after_pooling - 1.  Sums run in ascending state order.  The
    p-value is the regularized upper incomplete gamma Q(dof/2, statistic/2).
    The expected distribution is normalized to a unit-sum shape, so a
    degenerate single-bin pooling always yields statistic 0 and p-value 1.
    """
    if observed.kind != COUNTS:
        raise ValueError("chi-squared needs observed counts, not probabilities")
    if observed.width != expected.width:
        raise ValueError("width mismatch between observed and expected")
    shots = observed.total_shots
    if not shots:
        raise ValueError("observed distribution has zero shots")

    shape = expected.as_probabilities()
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
            # observed outcomes the expected shape rules out entirely
            statistic = math.inf

    dof = bins - 1
    if dof < 1:
        p_value = 1.0 if statistic == 0.0 else 0.0
    elif math.isinf(statistic):
        p_value = 0.0
    else:
        p_value = float(gammaincc(dof / 2.0, statistic / 2.0))
    return Chi2Result(float(statistic), dof, p_value, bins, len(small))


# ---------------------------------------------------------------------------
# combined report

@dataclass(frozen=True)
class MetricsConfig:
    """Outcome-set configuration.  Defaults: the two valid liar outcomes as
    the consistent set (width 4 only), the complement of the consistent set
    as the paradox set, and the highest qubit as the flag."""

    consistent_set: tuple[str, ...] | None = None
    paradox_set: tuple[str, ...] | None = None
    flag_index: int | None = None

    def resolve(self, width: int) -> tuple[tuple[str, ...], tuple[str, ...], int]:
        consistent = self.consistent_set
        if consistent is None:
            if width != 4:
                raise ValueError(
                    "no default consistent set for width "
                    f"{width}; pass consistent_set explicitly"
                )
            consistent = DEFAULT_CONSISTENT
        consistent = _check_states(consistent, width, "consistent_set")
        paradox = self.paradox_set
        if paradox is None:
            if width > 16:
                raise ValueError("complement paradox set too large; pass it explicitly")
            keep = np.ones(1 << width, dtype=bool)
            keep[[int(s, 2) for s in consistent]] = False
            paradox = tuple(bitstrings(np.flatnonzero(keep), width))
            if not paradox:
                raise ValueError("paradox_set must not be empty")
        else:
            paradox = _check_states(paradox, width, "paradox_set")
        flag = self.flag_index if self.flag_index is not None else width - 1
        if not 0 <= flag < width:
            raise ValueError(f"flag index {flag} out of range for width {width}")
        return consistent, paradox, flag


@dataclass(frozen=True)
class MetricsReport:
    width: int
    consistent_set: tuple[str, ...]
    paradox_set: tuple[str, ...]
    flag_index: int
    f_c_experimental: float
    f_c_ideal: float
    d_tv: float
    r_i: float | None
    r_i_note: str | None
    chi2_statistic: float | None
    chi2_dof: int | None
    chi2_p_value: float | None
    chi2_note: str | None
    z_flag_experimental: float
    z_flag_ideal: float

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "consistent_set": list(self.consistent_set),
            "paradox_set": list(self.paradox_set),
            "flag_index": self.flag_index,
            "f_c_experimental": self.f_c_experimental,
            "f_c_ideal": self.f_c_ideal,
            "d_tv": self.d_tv,
            "r_i": self.r_i,
            "r_i_note": self.r_i_note,
            "chi2_statistic": self.chi2_statistic,
            "chi2_dof": self.chi2_dof,
            "chi2_p_value": self.chi2_p_value,
            "chi2_note": self.chi2_note,
            "z_flag_experimental": self.z_flag_experimental,
            "z_flag_ideal": self.z_flag_ideal,
        }


def full_report(experimental: Distribution, ideal: Distribution,
                config: MetricsConfig = MetricsConfig()) -> MetricsReport:
    """All metrics for one experimental-vs-ideal comparison.

    Interference suppression and the chi-squared test are reported as None
    with a reason when their preconditions fail (no ideal paradox mass or no
    observed counts, respectively); everything else always computes.
    """
    if experimental.width != ideal.width:
        raise ValueError("width mismatch between experimental and ideal")
    consistent, paradox, flag = config.resolve(experimental.width)

    r_i = None
    r_i_note = None
    try:
        r_i = _suppression(experimental, ideal, paradox)
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
