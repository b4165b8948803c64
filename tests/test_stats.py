import numpy as np
import pytest
from scipy import special, stats as sstats

from roleforge.errors import ConfigError, DegenerateVarianceError
from roleforge.stats import (f_sf, group_moments, one_way_anova, pairwise_t_bonferroni,
                             regularized_incomplete_beta)


def test_group_moments_match_two_pass_reference():
    sizes, means, ssd = group_moments([1, 2, 3, 10], np.array([0, 0, 0, 2]), 3)
    assert (sizes.tolist(), means.tolist(), ssd.tolist()) == ([3, 0, 1], [2.0, 0.0, 10.0], [2.0, 0.0, 0.0])
    # a group of equal values has that value as its mean and 0 as its sum, exactly
    sizes, means, ssd = group_moments([0.1] * 7 + [0.7] * 3 + [5.0], np.array([0] * 7 + [2] * 3 + [1]), 4)
    assert (means.tolist(), ssd.tolist()) == ([0.1, 5.0, 0.7, 0.0], [0.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(5)
    groups = rng.integers(0, 5, size=300)
    groups[groups == 3] = 4  # group 3 and group 5 hold no value
    values = rng.standard_normal(300) * 1e3 + 1e8
    sizes, means, ssd = group_moments(values, groups, 6)
    for g in range(6):
        members = values[groups == g]
        assert sizes[g] == members.size
        if members.size == 0:
            assert (means[g], ssd[g]) == (0.0, 0.0)
            continue
        mean = members.sum() / members.size
        assert means[g] == pytest.approx(mean, rel=1e-15)
        assert ssd[g] == pytest.approx(((members - mean) ** 2).sum(), rel=1e-12)


def test_anova_fixture():
    res = one_way_anova([1, 2, 3, 4, 5, 6], [0, 0, 0, 1, 1, 1])
    assert res.F == 13.5
    assert (res.df_between, res.df_within) == (1, 4)
    assert res.p == pytest.approx(0.021, abs=1e-3)
    assert res.p == pytest.approx(sstats.f.sf(13.5, 1, 4), abs=1e-10)


def test_anova_zero_between_variance():
    res = one_way_anova([1, 2, 3, 1, 2, 3], [0, 0, 0, 1, 1, 1])
    assert res.F == 0.0
    assert res.p == 1.0


def test_anova_translation_and_scale_invariance():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(30)
    groups = rng.integers(0, 3, size=30)
    base = one_way_anova(values, groups)
    shifted = one_way_anova(values + 42.0, groups)
    scaled = one_way_anova(values * 7.0, groups)
    assert shifted.F == pytest.approx(base.F, rel=1e-9)
    assert scaled.F == pytest.approx(base.F, rel=1e-9)


def test_anova_errors():
    with pytest.raises(DegenerateVarianceError):
        one_way_anova([1, 1, 2, 2], [0, 0, 1, 1])
    # equal values whose sum rounds: 0.1 * 7 / 7 is not 0.1, but each group's
    # sum of squares is exactly 0, so F is undefined, not 1.58e32
    with pytest.raises(DegenerateVarianceError):
        one_way_anova([0.1] * 7 + [0.7] * 3, [0] * 7 + [1] * 3)
    with pytest.raises(ConfigError):
        one_way_anova([1, 2, 3], [0, 0, 0])
    with pytest.raises(ConfigError):
        one_way_anova([1, 2], [0, 1])


def test_anova_matches_scipy():
    rng = np.random.default_rng(11)
    for trial in range(20):
        k = int(rng.integers(2, 6))
        samples = [rng.standard_normal(int(rng.integers(3, 12))) + rng.uniform(-1, 1)
                   for _ in range(k)]
        values = np.concatenate(samples)
        groups = np.concatenate([np.full(s.size, i) for i, s in enumerate(samples)])
        res = one_way_anova(values, groups)
        f_ref, p_ref = sstats.f_oneway(*samples)
        assert res.F == pytest.approx(f_ref, rel=1e-9)
        assert res.p == pytest.approx(p_ref, abs=1e-10)


def test_pairwise_identical_groups():
    mat = pairwise_t_bonferroni([1, 2, 3, 1, 2, 3], [0, 0, 0, 1, 1, 1])
    assert mat[0, 1] == 1.0
    assert mat[0, 0] == mat[1, 1] == 1.0
    # two groups of one repeated value have the same mean exactly, not 0.0811
    assert pairwise_t_bonferroni([0.1] * 10, [0] * 7 + [1] * 3)[0, 1] == 1.0


def test_pairwise_adjustment_and_symmetry():
    rng = np.random.default_rng(19)
    values = np.concatenate([rng.standard_normal(10), rng.standard_normal(10) + 1.0,
                             rng.standard_normal(10) + 2.0])
    groups = np.repeat([0, 1, 2], 10)
    mat = pairwise_t_bonferroni(values, groups)
    assert np.array_equal(mat, mat.T)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        raw = sstats.ttest_ind(values[groups == i], values[groups == j], equal_var=False).pvalue
        assert mat[i, j] == pytest.approx(min(1.0, raw * 3), abs=1e-10)
        assert mat[i, j] >= raw - 1e-15


def test_pairwise_skips_small_groups():
    mat = pairwise_t_bonferroni([1.0, 2.0, 3.0, 4.0, 9.0], [0, 0, 1, 1, 2])
    assert np.isnan(mat[0, 2]) and np.isnan(mat[1, 2])
    assert not np.isnan(mat[0, 1])
    # the adjustment counts only tested pairs (here a single one)
    raw = sstats.ttest_ind([1.0, 2.0], [3.0, 4.0], equal_var=False).pvalue
    assert mat[0, 1] == pytest.approx(min(1.0, raw), abs=1e-10)


def test_incomplete_beta_boundaries():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    for x in np.linspace(0.05, 0.95, 10):
        assert regularized_incomplete_beta(1.0, 1.0, float(x)) == pytest.approx(x, abs=1e-12)
    assert regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_incomplete_beta_domain():
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_incomplete_beta_identity_and_scipy_grid():
    grid = [0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0]
    xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for a in grid:
        for b in grid:
            for x in xs:
                lhs = regularized_incomplete_beta(a, b, x)
                rhs = regularized_incomplete_beta(b, a, 1.0 - x)
                assert abs(lhs + rhs - 1.0) <= 1e-10
                assert lhs == pytest.approx(float(special.betainc(a, b, x)), abs=1e-10)


def test_f_sf_matches_scipy():
    rng = np.random.default_rng(23)
    for trial in range(50):
        f = float(rng.uniform(0.0, 20.0))
        d1 = int(rng.integers(1, 12))
        d2 = int(rng.integers(2, 40))
        assert f_sf(f, d1, d2) == pytest.approx(float(sstats.f.sf(f, d1, d2)), abs=1e-10)


def test_null_pvalues_roughly_uniform_quick():
    rng = np.random.default_rng(29)
    ps = []
    for _ in range(200):
        values = rng.standard_normal(30)
        groups = np.repeat([0, 1, 2], 10)
        ps.append(one_way_anova(values, groups).p)
    assert sstats.kstest(ps, "uniform").pvalue > 0.01
