"""Per-group moments and z-scores, one-way ANOVA, and Bonferroni-corrected
pairwise Welch t-tests, all from the one per-group mean and sum of squares.

P-values come from the regularized incomplete beta function, evaluated by
the standard continued fraction with the symmetry switch, so no external
statistics library is needed at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log, sqrt

import numpy as np

from .errors import ConfigError, DegenerateVarianceError


@dataclass(frozen=True)
class AnovaResult:
    F: float
    df_between: int
    df_within: int
    p: float


_CF_EPS = 1e-15
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the continued fraction for I_x(a, b)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even then the odd coefficient of step m; converged after the odd
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _CF_FPMIN:
                d = _CF_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _CF_FPMIN:
                c = _CF_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) to about 1e-10 absolute accuracy.

    Continued-fraction evaluation, switching to 1 - I_{1-x}(b, a) when x
    exceeds (a + 1) / (a + b + 2) for fast convergence.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x)
    front = np.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return float(front * _betacf(a, b, x) / a)
    return float(1.0 - front * _betacf(b, a, 1.0 - x) / b)


def f_sf(f_stat: float, df1: float, df2: float) -> float:
    """Upper tail of the F distribution at f_stat with (df1, df2) degrees of freedom."""
    if f_stat <= 0:
        return 1.0
    x = df2 / (df2 + df1 * f_stat)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


def _t_sf_two_sided(t: float, df: float) -> float:
    if t == 0.0:
        return 1.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def group_moments(values, groups, n_groups: int):
    """Size, mean and sum of squared deviations from the mean of each group
    (`groups` holds labels in [0, n_groups)), by np.bincount.  A group of
    equal values (a singleton included) has exactly that value as its mean
    and 0 as its sum; an empty group has size 0, mean 0 and sum 0."""
    v = np.asarray(values, dtype=np.float64)
    sizes = np.bincount(groups, minlength=n_groups)
    means = np.bincount(groups, weights=v, minlength=n_groups) / np.maximum(sizes, 1)
    one = np.zeros(n_groups)
    one[groups] = v  # a member's value per group, whichever write lands: the mean if none differs
    means = np.where(np.bincount(groups[v != one[groups]], minlength=n_groups) == 0, one, means)
    dev = v - means[groups]
    return sizes, means, np.bincount(groups, weights=dev * dev, minlength=n_groups)


def group_z_scores(values, groups, n_groups: int) -> np.ndarray:
    """Z-score of each value within its group, over the group's population sd.
    A group whose values are all equal scores exactly 0: its sum of squares
    is exactly 0 (`group_moments`)."""
    v = np.asarray(values, dtype=np.float64)
    sizes, means, ssd = group_moments(v, groups, n_groups)
    sd = np.sqrt(ssd / np.maximum(sizes, 1))
    return np.divide(v - means[groups], sd[groups], out=np.zeros_like(v), where=(sd > 0)[groups])


def _group_arrays(values, groups):
    v = np.asarray(values, dtype=np.float64).ravel()
    gl = np.asarray(groups).ravel()
    if v.shape != gl.shape:
        raise ValueError("values and groups must have the same length")
    labels, inv = np.unique(gl, return_inverse=True)
    return v, labels, inv


def one_way_anova(values, groups) -> AnovaResult:
    """One-way ANOVA of `values` split by `groups`.

    F = (SSB / df_between) / (SSW / df_within) with the p-value from the
    upper F tail.  Raises DegenerateVarianceError when the within-group sum
    of squares is zero and ConfigError for fewer than two groups or no
    residual degrees of freedom.
    """
    v, labels, inv = _group_arrays(values, groups)
    k = labels.size
    n = v.size
    if k < 2:
        raise ConfigError("ANOVA needs at least two groups")
    if n <= k:
        raise ConfigError("ANOVA needs more values than groups")
    sizes, means, ssd = group_moments(v, inv, k)
    grand = v.mean()
    ssb = float((sizes * (means - grand) ** 2).sum())
    ssw = float(ssd.sum())
    if ssw <= 0.0:
        raise DegenerateVarianceError("all within-group variances are zero")
    df_b = k - 1
    df_w = n - k
    f_stat = (ssb / df_b) / (ssw / df_w)
    return AnovaResult(F=f_stat, df_between=df_b, df_within=df_w, p=f_sf(f_stat, df_b, df_w))


def _welch_p(a, b) -> float:
    """Two-sided Welch t-test p of two samples, each given by its size, mean
    and sum of squared deviations."""
    (n1, m1, ss1), (n2, m2, ss2) = a, b
    v1, v2 = ss1 / (n1 - 1), ss2 / (n2 - 1)
    se2 = v1 / n1 + v2 / n2
    if se2 == 0.0:
        return 1.0 if m1 == m2 else 0.0
    t = (m1 - m2) / sqrt(se2)
    df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return _t_sf_two_sided(t, df)


def pairwise_t_bonferroni(values, groups) -> np.ndarray:
    """Bonferroni-adjusted two-sided Welch t-test p-values for every group pair.

    Returns a symmetric k x k matrix with unit diagonal; the adjustment
    multiplies each raw p by the number of tested pairs (capped at 1).
    Pairs involving a group with fewer than two values are skipped and
    flagged as NaN.
    """
    v, labels, inv = _group_arrays(values, groups)
    k = labels.size
    mat = np.full((k, k), np.nan)
    np.fill_diagonal(mat, 1.0)
    moments = list(zip(*group_moments(v, inv, k)))  # (size, mean, ssd) per group
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if moments[i][0] >= 2 and moments[j][0] >= 2]
    n_pairs = len(pairs)
    for i, j in pairs:
        p_adj = min(1.0, _welch_p(moments[i], moments[j]) * n_pairs)
        mat[i, j] = p_adj
        mat[j, i] = p_adj
    return mat
