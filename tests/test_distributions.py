"""Sampler and log-density checks for the distribution kernel.

Moment tests compare 1e5-draw empirical means/variances against analytic
values within 4 standard errors; seeds are fixed so the suite is
deterministic. Support checks run at 1e6 draws.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln, log_ndtr

from gridsynth.distributions import (
    ParameterError,
    _logpdf_beta,
    _logpdf_dirichlet,
    _logpdf_gamma,
    _logpdf_halfnormal,
    _logpdf_truncnormal_stats,
    _logpdf_weibull,
    _logpmf_negbinomial,
    _truncnormal_stats,
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


def kernel(logpdf, x, *params):
    """A log-density kernel called as the models call it: on arrays, with
    numpy's floating-point warnings silenced."""
    params = [np.asarray(p, dtype=float) for p in params]
    with np.errstate(all="ignore"):
        return logpdf(np.asarray(x, dtype=float), *params)


def logpdf_truncnormal(x, mu, sigma, lower):
    """Per-observation log-density of Normal(mu, sigma^2) renormalized to
    [lower, inf): the reference for the summed kernel the load model uses."""
    z = (x - mu) / sigma
    body = -0.5 * z * z - np.log(sigma) - 0.5 * math.log(2.0 * math.pi)
    return np.where(x >= lower, body - log_ndtr((mu - lower) / sigma), -np.inf)


def truncnormal_each(x, mu, sigma, lower):
    """The summed truncated-normal kernel on one observation per column: the
    log-density of each entry of the vector ``x``."""
    stats_each = _truncnormal_stats(np.asarray(x)[None])
    return kernel(_logpdf_truncnormal_stats, stats_each, mu, sigma, lower)


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


def test_dirichlet_per_row_moments():
    # one draw per row of a (rows, k) concentration, entries below 1 included
    rng = make_rng(126)
    conc = np.array([[0.3, 0.5, 2.0], [4.0, 0.7, 1.0]])
    draws = sample_dirichlet(rng, conc, N)
    assert draws.shape == (N, 2, 3)
    np.testing.assert_allclose(draws.sum(axis=-1), 1.0, atol=1e-12)
    for r in range(2):
        s = conc[r].sum()
        for j in range(3):
            mean = conc[r, j] / s
            var = conc[r, j] * (s - conc[r, j]) / (s * s * (s + 1))
            assert_moments(draws[:, r, j], mean, var)


def test_dirichlet_per_row_single_draw():
    rng = make_rng(127)
    conc = np.array([[1.0, 2.0], [0.5, 0.5], [3.0, 1.0]])
    draw = sample_dirichlet(rng, conc)
    assert draw.shape == (3, 2)
    np.testing.assert_allclose(draw.sum(axis=-1), 1.0, atol=1e-12)
    with pytest.raises(ParameterError):
        sample_dirichlet(rng, [[1.0, 0.0]])


def test_one_generator_per_row_draws_as_each_alone():
    # entries below 1 boost, and rows finish their squeeze rounds at different times
    conc = np.array([[0.3, 2.0, 5.0], [0.5, 0.5, 0.7], [8.0, 1.0, 0.2], [1.0, 1.0, 1.0]])
    together = [make_rng(130 + r) for r in range(4)]
    alone = [make_rng(130 + r) for r in range(4)]
    for _ in range(200):
        rows = sample_dirichlet(together, conc)
        for r in range(4):
            np.testing.assert_array_equal(rows[r], sample_dirichlet(alone[r], conc[r]))
    p = sample_beta(together, conc[:, :2], conc[:, 2:])
    for r in range(4):
        np.testing.assert_array_equal(p[r], sample_beta(alone[r], conc[r, :2], conc[r, 2]))
    with pytest.raises(ParameterError, match="one generator per row"):
        sample_dirichlet(together[:3], conc)


def test_beta_per_row_moments():
    rng = make_rng(128)
    a = np.array([0.4, 2.0, 5.0])
    b = np.array([0.6, 3.0, 0.8])
    draws = sample_beta(rng, a, b, N)
    assert draws.shape == (N, 3)
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    for j in range(3):
        mean = a[j] / (a[j] + b[j])
        var = a[j] * b[j] / ((a[j] + b[j]) ** 2 * (a[j] + b[j] + 1))
        assert_moments(draws[:, j], mean, var)
    # a scalar parameter broadcasts against the other's rows
    assert sample_beta(rng, 2.0, b).shape == (3,)


def _gamma_mt_batch_scalar_shape(rng, alpha, n):
    """The batch gamma sampler as it was for one scalar shape: the stream a
    scalar-shape ``sample_gamma(..., size=n)`` must keep."""
    boost = None
    if alpha < 1.0:
        boost = (1.0 - rng.random(n)) ** (1.0 / alpha)
        alpha = alpha + 1.0
    d = alpha - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        x = rng.standard_normal(m)
        v = 1.0 + c * x
        u = rng.random(m)
        positive = v > 0.0
        v3 = np.where(positive, v, 1.0) ** 3
        squeeze = u < 1.0 - 0.0331 * x**4
        with np.errstate(divide="ignore"):
            log_test = np.log(u) < 0.5 * x * x + d * (1.0 - v3 + np.log(v3))
        accept = positive & (squeeze | log_test)
        out[pending[accept]] = d * v3[accept]
        pending = pending[~accept]
    if boost is not None:
        out *= boost
    return out


@pytest.mark.parametrize("shape", [0.5, 0.25, 0.3, 1.0, 2.5, 7.0])
def test_scalar_shape_gamma_batch_keeps_its_stream(shape):
    # a shape of 0.5 boosts by U**2, where a scalar and an array exponent differ
    expected = _gamma_mt_batch_scalar_shape(make_rng(129), shape, 20_000) / 1.5
    got = sample_gamma(make_rng(129), shape, 1.5, 20_000)
    np.testing.assert_array_equal(got, expected)


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


def test_scalar_categorical_draw_matches_cumsum_searchsorted():
    # the scalar path against the numpy formula it replaced, on the same
    # stream: same index every time on the short vectors drawn one at a time
    rng = make_rng(32)
    for n in range(1, 8):
        ours, reference = make_rng(n), make_rng(n)  # both take one uniform per draw
        for _ in range(200):
            p = rng.random(n) * 10.0 ** rng.integers(-3, 4, n)
            p[rng.random(n) < 0.2] = 0.0
            if p.sum() == 0.0:
                p[0] = 1.0
            u = reference.random()
            expected = int(np.searchsorted(np.cumsum(p), u * p.sum(), side="right"))
            assert sample_categorical(ours, p) == expected


@pytest.mark.parametrize(
    "probs, message",
    [
        ([[0.5, 0.5]], "probability vector"),
        ([], "probability vector"),
        ([0.5, -0.1, 0.6], "nonnegative"),
        ([0.5, math.nan], "nonnegative"),
        ([0.0, 0.0], "must not all be zero"),
        ([math.inf, 1.0], "finite total"),
        ([0.5, math.inf, math.inf], "finite total"),
    ],
)
def test_categorical_errors(probs, message):
    for size in (None, 5):
        with pytest.raises(ParameterError, match=message):
            sample_categorical(make_rng(33), probs, size)


def test_logpdf_gamma_exponential_value():
    assert kernel(_logpdf_gamma, 1.0, 1.0, 1.0) == pytest.approx(-1.0)
    assert kernel(_logpdf_gamma, -0.5, 2.0, 1.0) == -np.inf


def test_gamma_logpdf_integrates_to_one():
    # trapezoid oracle over a fine grid
    x = np.linspace(1e-6, 12.0, 200_001)
    total = np.trapezoid(np.exp(kernel(_logpdf_gamma, x, 4.0, 4.0)), x)
    assert abs(total - 1.0) < 1e-3


def test_weibull_logpdf_integrates_to_one():
    x = np.linspace(1e-9, 30.0, 200_001)
    total = np.trapezoid(np.exp(kernel(_logpdf_weibull, x, 1.7, 3.0)), x)
    assert abs(total - 1.0) < 1e-3


def test_truncnormal_logpdf_integrates_to_one():
    x = np.linspace(0.5, 12.0, 200_001)
    total = np.trapezoid(np.exp(truncnormal_each(x, 1.0, 1.5, 0.5)), x)
    assert abs(total - 1.0) < 1e-3


def test_negbinomial_pmf_sums_to_one():
    ks = np.arange(0, 400)
    total = np.exp(kernel(_logpmf_negbinomial, ks, 2.0, 1.0)).sum()
    assert abs(total - 1.0) < 1e-9
    assert kernel(_logpmf_negbinomial, -1, 2.0, 1.0) == -np.inf
    assert kernel(_logpmf_negbinomial, [0.5], 2.0, 1.0)[0] == -np.inf


def test_beta_dirichlet_uniform_logpdfs():
    assert kernel(_logpdf_beta, 0.3, 1.0, 1.0) == pytest.approx(0.0)
    assert kernel(_logpdf_beta, 1.5, 2.0, 2.0) == -np.inf
    assert kernel(_logpdf_dirichlet, [0.2, 0.3, 0.5], [1.0, 1.0, 1.0]) == pytest.approx(
        float(gammaln(3.0))
    )
    assert kernel(_logpdf_dirichlet, [0.2, 0.3, 0.4], [1.0, 1.0, 1.0]) == -np.inf
    assert kernel(_logpdf_halfnormal, -0.1, 1.0) == -np.inf


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
        sample_gamma(rng, 1.0, -2.0)
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


def test_logdensities_match_scipy():
    x = np.array([0.05, 0.4, 1.3, 3.7])
    u = np.array([0.05, 0.4, 0.7, 0.95])
    k = np.array([0, 1, 4, 11])
    pairs = [
        (kernel(_logpdf_gamma, x, 2.5, 1.5), stats.gamma.logpdf(x, 2.5, scale=1 / 1.5)),
        (kernel(_logpdf_weibull, x, 1.7, 3.0), stats.weibull_min.logpdf(x, 1.7, scale=3.0)),
        (kernel(_logpdf_beta, u, 2.0, 5.0), stats.beta.logpdf(u, 2.0, 5.0)),
        (kernel(_logpdf_halfnormal, x, 0.7), stats.halfnorm.logpdf(x, scale=0.7)),
        # with no lower bound the truncated normal is the normal itself
        (truncnormal_each(x, 0.3, 1.2, -np.inf), stats.norm.logpdf(x, 0.3, 1.2)),
        (
            truncnormal_each(x + 0.5, 1.0, 1.5, 0.5),
            stats.truncnorm.logpdf(x + 0.5, (0.5 - 1.0) / 1.5, np.inf, loc=1.0, scale=1.5),
        ),
        (
            logpdf_truncnormal(x + 0.5, 1.0, 1.5, 0.5),
            stats.truncnorm.logpdf(x + 0.5, (0.5 - 1.0) / 1.5, np.inf, loc=1.0, scale=1.5),
        ),
        (
            kernel(_logpmf_negbinomial, k, 2.0, 1.3),
            stats.nbinom.logpmf(k, 1.3, 1.3 / (1.3 + 2.0)),
        ),
        (
            kernel(_logpdf_dirichlet, [0.2, 0.3, 0.5], [0.8, 2.0, 3.5]),
            stats.dirichlet.logpdf([0.2, 0.3, 0.5], [0.8, 2.0, 3.5]),
        ),
    ]
    for ours, oracle in pairs:
        np.testing.assert_allclose(ours, oracle, rtol=1e-10)


def test_logdensities_broadcast_over_parameters():
    # a leading axis of parameter rows, as the batched log-posteriors pass them
    shape = np.array([[0.5], [2.5], [9.0]])
    x = np.array([0.1, 1.0, 4.0])
    rows = kernel(_logpdf_gamma, x, shape, 1.5)
    assert rows.shape == (3, 3)
    for i, a in enumerate(shape[:, 0]):
        np.testing.assert_allclose(rows[i], kernel(_logpdf_gamma, x, a, 1.5), rtol=1e-14)
    conc = np.array([[1.0, 1.0, 1.0], [2.0, 3.0, 4.0]])
    w = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    np.testing.assert_allclose(
        kernel(_logpdf_dirichlet, w, conc),
        [kernel(_logpdf_dirichlet, w[i], conc[i]) for i in range(2)],
        rtol=1e-14,
    )
    # an out-of-domain row scores -inf and leaves the others alone
    bad = kernel(_logpdf_gamma, x, np.array([[1.0], [0.0], [2.0]]), 1.5)
    assert np.all(bad[1] == -np.inf) and np.all(np.isfinite(bad[[0, 2]]))


def test_kernels_score_out_of_domain_parameters_minus_inf():
    # the kernels the models use never raise
    bad = np.array([1.0, 0.0, -1.0, math.inf, math.nan])
    with np.errstate(all="ignore"):
        gamma = _logpdf_gamma(1.0, bad, 1.0)
        weibull = _logpdf_weibull(1.0, 1.0, bad)
    assert math.isfinite(gamma[0]) and math.isfinite(weibull[0])
    assert np.all(gamma[1:] == -np.inf) and np.all(weibull[1:] == -np.inf)


@pytest.mark.parametrize(
    "case",
    ["ordinary", "far from zero", "deep tail"],
)
def test_truncnormal_stats_kernel_matches_sum_over_observations(case):
    rng = make_rng(808)
    if case == "ordinary":
        x, mu, sigma = sample_truncnormal(rng, 2.0, 1.5, 0.0, 200), 2.5, 1.2
    elif case == "far from zero":
        # 1e4 plus noise of 1e-3: sum(x^2) - n mean^2 would cancel every digit
        x = 1e4 + 1e-3 * rng.standard_normal(50)
        mu, sigma = 1e4, 1e-3
    else:
        # mu / sigma = -30: the retained tail mass is about exp(-454)
        x, mu, sigma = sample_truncnormal(rng, -30.0, 1.0, 0.0, 100), -30.0, 1.0
    expected = math.fsum(logpdf_truncnormal(x, mu, sigma, 0.0))
    got = _logpdf_truncnormal_stats(_truncnormal_stats(x), mu, sigma, 0.0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_truncnormal_stats_kernel_broadcasts_over_columns_and_rows():
    rng = make_rng(809)
    x = np.abs(rng.standard_normal((40, 2))) + np.array([1.0, 3.0])
    mu = np.array([[1.0, 3.0], [2.0, 2.5], [0.5, 4.0]])
    sigma = np.array([[0.5], [1.0], [2.0]])
    got = _logpdf_truncnormal_stats(_truncnormal_stats(x), mu, sigma, 0.0)
    assert got.shape == (3, 2)
    for r in range(3):
        for c in range(2):
            expected = math.fsum(logpdf_truncnormal(x[:, c], mu[r, c], sigma[r, 0], 0.0))
            assert got[r, c] == pytest.approx(expected, rel=1e-12)


def test_truncnormal_stats_kernel_scores_invalid_scale_minus_inf():
    stats = _truncnormal_stats(np.array([0.5, 1.0, 2.0]))
    with np.errstate(all="ignore"):
        scores = _logpdf_truncnormal_stats(stats, 1.0, np.array([0.0, math.inf, math.nan]), 0.0)
    assert np.all(scores == -np.inf)
