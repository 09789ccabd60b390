"""Sampler and log-density checks for the distribution kernel.

Moment tests compare 1e5-draw empirical means/variances against analytic
values within 4 standard errors; seeds are fixed so the suite is
deterministic. Support checks run at 1e6 draws.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from gridsynth.distributions import (
    ParameterError,
    logpdf_beta,
    logpdf_dirichlet,
    logpdf_gamma,
    logpdf_halfnormal,
    logpdf_truncnormal,
    logpdf_weibull,
    logpmf_negbinomial,
    make_rng,
    sample_beta,
    sample_categorical,
    sample_dirichlet,
    sample_gamma,
    sample_negbinomial,
    sample_truncnormal,
    sample_weibull,
    substream,
)

N = 100_000


def assert_moments(draws, mean, var):
    """Empirical mean and variance within 4 standard errors of analytic values."""
    draws = np.asarray(draws, dtype=float)
    n = draws.size
    se_mean = math.sqrt(var / n)
    assert abs(draws.mean() - mean) < 4 * se_mean, (draws.mean(), mean, se_mean)
    sample_var = draws.var()
    centered = draws - draws.mean()
    m4 = np.mean(centered**4)
    se_var = math.sqrt(max(m4 - sample_var**2, 0.0) / n) + 1e-12
    assert abs(sample_var - var) < 4 * se_var, (sample_var, var, se_var)


def test_gamma_mean_example():
    rng = make_rng(11)
    draws = sample_gamma(rng, 4.0, 4.0, N)
    # Gamma(4, 4): mean 1, sd 0.5
    assert abs(draws.mean() - 1.0) < 3 * (0.5 / math.sqrt(N))


def test_gamma_moments_small_shape():
    rng = make_rng(12)
    draws = sample_gamma(rng, 0.4, 2.0, N)
    assert_moments(draws, 0.4 / 2.0, 0.4 / 4.0)
    assert np.all(draws > 0)


def test_gamma_moments_large_shape():
    rng = make_rng(13)
    assert_moments(sample_gamma(rng, 9.0, 3.0, N), 3.0, 1.0)


def test_weibull_exponential_case():
    rng = make_rng(14)
    draws = sample_weibull(rng, 1.0, 2.0, N)
    # shape 1 reduces to Exponential with mean = scale = 2
    assert abs(draws.mean() - 2.0) < 3 * (2.0 / math.sqrt(N))


def test_weibull_moments():
    rng = make_rng(15)
    a, b = 1.7, 3.0
    mean = b * math.gamma(1 + 1 / a)
    var = b * b * (math.gamma(1 + 2 / a) - math.gamma(1 + 1 / a) ** 2)
    assert_moments(sample_weibull(rng, a, b, N), mean, var)


def test_beta_moments():
    rng = make_rng(16)
    a, b = 2.0, 5.0
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1))
    draws = sample_beta(rng, a, b, N)
    assert_moments(draws, mean, var)
    assert np.all((draws > 0) & (draws < 1))


def test_negbinomial_variance_example():
    rng = make_rng(19)
    draws = sample_negbinomial(rng, 2.0, 1.0, N)
    # var = mu + mu^2/alpha = 6
    assert_moments(draws, 2.0, 6.0)
    assert draws.dtype == np.int64
    assert np.all(draws >= 0)


def test_negbinomial_poisson_limit():
    rng = make_rng(20)
    draws = sample_negbinomial(rng, 2.0, 1e9, N)
    assert_moments(draws, 2.0, 2.0)


def test_truncnormal_moments_mild():
    rng = make_rng(21)
    mu, sigma, lower = 1.0, 2.0, 0.0
    a = (lower - mu) / sigma
    phi = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
    tail = 0.5 * math.erfc(a / math.sqrt(2))
    lam = phi / tail
    mean = mu + sigma * lam
    var = sigma * sigma * (1 + a * lam - lam * lam)
    assert_moments(sample_truncnormal(rng, mu, sigma, lower, N), mean, var)


def test_truncnormal_moments_far_tail():
    # lower bound 5 sigma above the mean exercises the exponential-proposal branch
    rng = make_rng(22)
    mu, sigma, lower = 0.0, 1.0, 5.0
    a = 5.0
    phi = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
    tail = 0.5 * math.erfc(a / math.sqrt(2))
    lam = phi / tail
    mean = mu + sigma * lam
    var = sigma * sigma * (1 + a * lam - lam * lam)
    draws = sample_truncnormal(rng, mu, sigma, lower, N)
    assert np.all(draws >= lower)
    assert_moments(draws, mean, var)


def test_truncnormal_support_one_million():
    rng = make_rng(23)
    draws = sample_truncnormal(rng, 0.5, 1.0, 0.0, 1_000_000)
    assert np.all(draws >= 0.0)


def test_truncnormal_degenerate_scale():
    rng = make_rng(24)
    assert sample_truncnormal(rng, 3.0, 0.0, 0.0) == 3.0
    with pytest.raises(ParameterError):
        sample_truncnormal(rng, -1.0, 0.0, 0.0)


def test_dirichlet_simplex_one_million():
    rng = make_rng(25)
    draws = sample_dirichlet(rng, [0.5, 1.0, 2.0], 1_000_000)
    assert np.all(draws >= 0.0)
    np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)


def test_dirichlet_component_moments():
    rng = make_rng(26)
    conc = np.array([2.0, 3.0, 5.0])
    draws = sample_dirichlet(rng, conc, N)
    s = conc.sum()
    for j in range(3):
        mean = conc[j] / s
        var = conc[j] * (s - conc[j]) / (s * s * (s + 1))
        assert_moments(draws[:, j], mean, var)


def test_categorical_degenerate():
    rng = make_rng(27)
    draws = sample_categorical(rng, [1, 0, 0, 0, 0, 0, 0], 10_000)
    assert np.all(draws == 0)


def test_categorical_frequencies():
    rng = make_rng(28)
    p = np.array([0.2, 0.5, 0.3])
    draws = sample_categorical(rng, p, N)
    for k in range(3):
        freq = np.mean(draws == k)
        se = math.sqrt(p[k] * (1 - p[k]) / N)
        assert abs(freq - p[k]) < 4 * se


def test_logpdf_gamma_exponential_value():
    assert logpdf_gamma(1.0, 1.0, 1.0) == pytest.approx(-1.0)
    assert logpdf_gamma(-0.5, 2.0, 1.0) == -np.inf


def test_gamma_logpdf_integrates_to_one():
    # trapezoid oracle over a fine grid
    x = np.linspace(1e-6, 12.0, 200_001)
    total = np.trapezoid(np.exp(logpdf_gamma(x, 4.0, 4.0)), x)
    assert abs(total - 1.0) < 1e-3


def test_weibull_logpdf_integrates_to_one():
    x = np.linspace(1e-9, 30.0, 200_001)
    total = np.trapezoid(np.exp(logpdf_weibull(x, 1.7, 3.0)), x)
    assert abs(total - 1.0) < 1e-3


def test_truncnormal_logpdf_integrates_to_one():
    x = np.linspace(0.5, 12.0, 200_001)
    total = np.trapezoid(np.exp(logpdf_truncnormal(x, 1.0, 1.5, 0.5)), x)
    assert abs(total - 1.0) < 1e-3
    assert logpdf_truncnormal(0.49, 1.0, 1.5, 0.5) == -np.inf


def test_negbinomial_pmf_sums_to_one():
    ks = np.arange(0, 400)
    total = np.exp(logpmf_negbinomial(ks, 2.0, 1.0)).sum()
    assert abs(total - 1.0) < 1e-9
    assert logpmf_negbinomial(-1, 2.0, 1.0) == -np.inf
    assert logpmf_negbinomial(np.array([0.5]), 2.0, 1.0)[0] == -np.inf


def test_beta_dirichlet_uniform_logpdfs():
    assert logpdf_beta(0.3, 1.0, 1.0) == pytest.approx(0.0)
    assert logpdf_beta(1.5, 2.0, 2.0) == -np.inf
    assert logpdf_dirichlet([0.2, 0.3, 0.5], [1.0, 1.0, 1.0]) == pytest.approx(
        float(gammaln(3.0))
    )
    assert logpdf_dirichlet([0.2, 0.3, 0.4], [1.0, 1.0, 1.0]) == -np.inf
    assert logpdf_halfnormal(-0.1, 1.0) == -np.inf


def test_parameter_errors():
    rng = make_rng(31)
    with pytest.raises(ParameterError):
        sample_gamma(rng, -1.0, 1.0)
    with pytest.raises(ParameterError):
        sample_gamma(rng, 1.0, 0.0)
    with pytest.raises(ParameterError):
        sample_weibull(rng, 0.0, 1.0)
    with pytest.raises(ParameterError):
        sample_negbinomial(rng, 0.0, 1.0)
    with pytest.raises(ParameterError, match="gamma rate must be finite and positive"):
        logpdf_gamma(1.0, 1.0, -2.0)
    with pytest.raises(ParameterError, match="gamma shape must be finite and positive"):
        sample_gamma(rng, math.inf, 1.0)


def test_same_seed_bit_identical_streams():
    a = make_rng(123)
    b = make_rng(123)
    for sampler in (
        lambda r: sample_gamma(r, 2.5, 1.5, 1000),
        lambda r: sample_weibull(r, 1.2, 2.0, 1000),
        lambda r: sample_truncnormal(r, 0.0, 1.0, 0.5, 1000),
        lambda r: sample_negbinomial(r, 3.0, 0.7, 1000),
        lambda r: sample_dirichlet(r, [1.0, 2.0, 3.0], 100),
    ):
        np.testing.assert_array_equal(sampler(a), sampler(b))


def test_substreams_differ_by_path():
    base = substream(7, "sample", 0)
    other = substream(7, "sample", 1)
    named = substream(7, "phases", 0)
    x = base.random(100)
    assert not np.array_equal(x, other.random(100))
    assert not np.array_equal(x, named.random(100))
    again = substream(7, "sample", 0)
    np.testing.assert_array_equal(x, again.random(100))
