"""Coherence metrics over outcome distributions.

Metrics read a distribution's index and value arrays: counts divided by
total_shots, probabilities exactly as stored (no silent renormalization).
Outcome sets become int64 indices once; the default paradox set is an index
mask, rendered as bitstrings only for the report.  Sums run left to right: D_TV
and chi-squared bins in ascending state order, F_C and R_I in set order, totals
and z_flag (over total mass, so z = 1 - 2*P(flag=1) holds) in entry order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .circuit import _is_int
from .dist import COUNTS, Distribution, bitstrings

DEFAULT_CONSISTENT = ("1001", "1010")
_MIN_EXPECTED = 5.0  # chi-squared bins expecting fewer counts are pooled


def _check_states(states, width: int, what: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The states as a tuple and as int64 indices, in the order given."""
    states = tuple(states)
    if not states:
        raise ValueError(f"{what} must not be empty")
    for s in states:
        if len(s) != width or s.strip("01"):
            raise ValueError(f"bad state {s!r} in {what} for width {width}")
    if len(set(states)) != len(states):
        raise ValueError(f"duplicate states in {what}")
    return states, np.array([int(s, 2) for s in states], dtype=np.int64)


def _probabilities(dist: Distribution) -> np.ndarray:
    """dist.values in entry order, counts divided by total_shots."""
    if dist.kind == COUNTS and not dist.total_shots:
        raise ValueError("cannot normalize an empty counts distribution")
    return dist.values / float(dist.total_shots) if dist.kind == COUNTS else dist.values


def _mass(dist: Distribution, states: np.ndarray) -> float:
    """dist's probability mass on states (int64 indices), summed in their order."""
    _, at_state, at_entry = np.intersect1d(states, dist.indices, assume_unique=True,
                                           return_indices=True)
    return float(sum(_probabilities(dist)[at_entry[np.argsort(at_state)]].tolist()))


def _aligned(p: Distribution, a: np.ndarray, q: Distribution, b: np.ndarray):
    """a and b, the values of p's and q's entries, on their ascending union."""
    states = np.union1d(p.indices, q.indices)
    out = np.zeros((2, states.size))
    out[0, np.searchsorted(states, p.indices)] = a
    out[1, np.searchsorted(states, q.indices)] = b
    return out


def consistency_fidelity(dist: Distribution, consistent_set) -> float:
    """Probability mass on the designated consistent outcomes."""
    return _mass(dist, _check_states(consistent_set, dist.width, "consistent_set")[1])


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance (1/2) * sum |p - q| over the union support,
    summed in ascending state order so the float result is reproducible."""
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    a, b = _aligned(p, _probabilities(p), q, _probabilities(q))
    return 0.5 * float(sum(np.abs(a - b).tolist()))


def interference_suppression(experimental: Distribution, ideal: Distribution,
                             paradox_set) -> float:
    """1 - (experimental paradox mass / ideal paradox mass).

    Undefined when the ideal assigns (numerically) no mass to the paradox
    set; that case raises instead of returning a misleading number.
    """
    if experimental.width != ideal.width:
        raise ValueError("width mismatch between experimental and ideal")
    return _suppression(experimental, ideal,
                        _check_states(paradox_set, ideal.width, "paradox_set")[1])


def _suppression(experimental: Distribution, ideal: Distribution,
                 states: np.ndarray) -> float:
    """interference_suppression on an already validated paradox set."""
    numer = _mass(experimental, states)
    denom = _mass(ideal, states)
    if denom < 1e-12:
        raise ValueError("interference suppression is undefined: ideal paradox "
                         f"mass {denom:.3e} is below 1e-12")
    return float(1.0 - numer / denom)


def z_flag(dist: Distribution, flag_index: int) -> float:
    """Flag polarization P(flag=0) - P(flag=1), normalized by total mass."""
    if not (_is_int(flag_index) and 0 <= flag_index < dist.width):
        raise ValueError(f"flag index {flag_index!r} out of range for width {dist.width}")
    probs = _probabilities(dist)
    total = sum(probs.tolist())
    if total <= 0.0:
        raise ValueError("empty distribution has no flag marginal")
    mass_one = sum(probs[(dist.indices >> flag_index) & 1 == 1].tolist())
    return float((total - 2.0 * mass_one) / total)


# ---------------------------------------------------------------------------
# chi-squared goodness of fit

_EPS = 2.0 ** -53  # unit roundoff of a double


def _log1pmx(t: float) -> float:
    """log(1 + t) - t for |t| < 1/2, where the two terms cancel.

    With r = t / (2 + t) and y = r * r, log(1 + t) = 2r(1 + y/3 + y^2/5 + ...)
    and 2r - t = -rt, so the difference is r(2y(1/3 + y/5 + ...) - t).
    """
    r = t / (2.0 + t)
    y = r * r
    total, power, k = 0.0, 1.0, 3.0
    while True:
        term = power / k
        total += term
        if term <= total * _EPS:
            return r * (2.0 * y * total - t)
        power *= y
        k += 2.0


def _stirlerr(a: float) -> float:
    """log Gamma(a) minus its Stirling approximation (a - 1/2) log a - a + log sqrt(2 pi)."""
    if a <= 15.0:
        return math.lgamma(a) - (a - 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    aa = a * a  # the Stirling series; its first omitted term is below 3e-16 here
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / aa) / aa) / aa)
            / aa) / a


def _gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a >= 1/2 and x >= 0.

    The power series of P = 1 - Q for x < a + 1, the continued fraction of Q
    by the modified Lentz method otherwise (Press et al., Numerical Recipes,
    3rd ed., section 6.2).  Both share the prefactor x^a e^-x / Gamma(a),
    formed as sqrt(a / 2 pi) exp(a log1pmx((x - a) / a) - stirlerr(a)) so
    that no large logarithms cancel at large a.
    """
    if x < 2.0 ** -1022:
        return 1.0  # P(a, x) <= x^a / Gamma(a + 1) < 1e-150, so 1 - P rounds to 1
    if x == math.inf:
        return 0.0
    t = (x - a) / a
    shape = _log1pmx(t) if abs(t) < 0.5 else math.log(x / a) - t
    prefactor = math.sqrt(a / (2.0 * math.pi)) * math.exp(a * shape - _stirlerr(a))
    # Either expansion's terms shrink like exp(-n^2 / 2a) once n passes
    # sqrt(a), so 10 sqrt(a) of them reach the roundoff with room to spare.
    limit = 100 + int(10.0 * math.sqrt(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, limit):
            term *= x / (a + n)
            total += term
            if term < total * _EPS:
                return 1.0 - prefactor * total
    else:
        tiny = 1e-300  # keeps the Lentz ratios off zero
        b = x + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        fraction = d
        for n in range(1, limit):
            an = -n * (n - a)
            b += 2.0
            d = an * d + b
            if abs(d) < tiny:
                d = tiny
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            step = c * d
            fraction *= step
            if abs(step - 1.0) <= _EPS:
                return prefactor * fraction
    raise ArithmeticError(f"Q({a}, {x}) did not converge in {limit} terms")


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
    dof = bins_after_pooling - 1.  Bins are summed in ascending state order,
    the expected shape's total in entry order.  The p-value is the
    regularized upper incomplete gamma Q(dof/2, statistic/2).
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

    shape = _probabilities(expected)
    shape_total = sum(shape.tolist())
    if shape_total <= 0.0:
        raise ValueError("expected distribution has no mass")
    exp_counts, obs_counts = _aligned(expected, shape / shape_total * shots,
                                      observed, observed.values)

    big = exp_counts >= _MIN_EXPECTED
    diffs = (obs_counts - exp_counts)[big].tolist()
    # pow() squares as float ** 2 does, by libm pow: NumPy's square can differ
    squares = np.fromiter(map(pow, diffs, repeat(2)), float)
    statistic = sum((squares / exp_counts[big]).tolist())
    bins, pooled = int(big.sum()), int((~big).sum())
    if pooled:
        pooled_expected = sum(exp_counts[~big].tolist())
        pooled_observed = sum(obs_counts[~big].tolist())
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
        p_value = _gammaincc(dof / 2.0, statistic / 2.0)
    return Chi2Result(float(statistic), dof, p_value, bins, pooled)


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
        return self._resolve(width)[:3]

    def _resolve(self, width: int):
        """resolve(width) plus both sets as int64 indices, in listed order."""
        consistent = self.consistent_set
        if consistent is None:
            if width != 4:
                raise ValueError(f"no default consistent set for width {width}; "
                                 "pass consistent_set explicitly")
            consistent = DEFAULT_CONSISTENT
        consistent, consistent_idx = _check_states(consistent, width, "consistent_set")
        if self.paradox_set is None:
            if width > 16:
                raise ValueError("complement paradox set too large; pass it explicitly")
            keep = np.ones(1 << width, dtype=bool)
            keep[consistent_idx] = False
            paradox_idx = np.flatnonzero(keep)
            paradox = tuple(bitstrings(paradox_idx, width))
            if not paradox:
                raise ValueError("paradox_set must not be empty")
        else:
            paradox, paradox_idx = _check_states(self.paradox_set, width, "paradox_set")
        flag = self.flag_index if self.flag_index is not None else width - 1
        if not (_is_int(flag) and 0 <= flag < width):
            raise ValueError(f"flag index {flag!r} out of range for width {width}")
        return consistent, paradox, int(flag), consistent_idx, paradox_idx


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
        return {**vars(self), "consistent_set": list(self.consistent_set),
                "paradox_set": list(self.paradox_set)}


def full_report(experimental: Distribution, ideal: Distribution,
                config: MetricsConfig = MetricsConfig()) -> MetricsReport:
    """All metrics for one experimental-vs-ideal comparison.

    Interference suppression and the chi-squared test are reported as None
    with a reason when their preconditions fail (no ideal paradox mass or no
    observed counts, respectively); everything else always computes.
    """
    width = experimental.width
    if width != ideal.width:
        raise ValueError("width mismatch between experimental and ideal")
    consistent, paradox, flag, consistent_idx, paradox_idx = config._resolve(width)

    r_i = r_i_note = None
    try:
        r_i = _suppression(experimental, ideal, paradox_idx)
    except ValueError as exc:
        r_i_note = str(exc)

    chi2_stat = chi2_dof = chi2_p = chi2_note = None
    if experimental.kind == COUNTS:
        chi2 = chi_squared_gof(experimental, ideal)
        chi2_stat, chi2_dof, chi2_p = chi2.statistic, chi2.dof, chi2.p_value
    else:
        chi2_note = "chi-squared needs observed counts; experimental data is probabilities"

    return MetricsReport(
        width=width,
        consistent_set=consistent,
        paradox_set=paradox,
        flag_index=flag,
        f_c_experimental=_mass(experimental, consistent_idx),
        f_c_ideal=_mass(ideal, consistent_idx),
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
