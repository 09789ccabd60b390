"""Sampler and log-density checks for the distribution kernel.

Moment tests compare 1e5-draw empirical means/variances against analytic
values within 4 standard errors; seeds are fixed so the suite is
deterministic. Support checks run at 1e6 draws. Each sampler is called as the
package calls it: the per-item samplers one value at a time, the per-chain
ones with one generator per row. Each log-density kernel is bound to its
fixed arguments, as the models bind it, and checked against scipy and, bit
for bit under hypothesis, against a copy of the unbound formula it replaced.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln, log_ndtr, xlogy

from gridsynth.distributions import (
    ParameterError,
    _cumulative,
    _logpdf_beta,
    _logpdf_dirichlet,
    _logpdf_gamma,
    _logpdf_halfnormal,
    _logpdf_truncnormal_stats,
    _logpdf_weibull,
    _logpmf_dirichlet_categorical,
    _logpmf_negbinomial,
    _positive,
    _truncnormal_stats,
    make_rng,
    sample_beta,
    sample_dirichlet,
    sample_gamma,
    sample_negbinomial,
    sample_truncnormal,
    sample_weibull,
    substream,
)

N = 100_000


def kernel(logpdf, *args):
    """A bound log-density kernel called as the models call it: on arrays,
    with numpy's floating-point warnings silenced."""
    with np.errstate(all="ignore"):
        return logpdf(*(np.asarray(a, dtype=float) for a in args))


def bound(make, *fixed):
    """The kernel ``make`` bound to ``fixed`` as the models bind it, with
    numpy's floating-point warnings silenced."""
    with np.errstate(all="ignore"):
        return make(*fixed)


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
    return kernel(_logpdf_truncnormal_stats(stats_each, lower), mu, sigma)


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


def repeat(n, draw):
    """``n`` calls of the per-item sampler call ``draw()``, one value at a
    time as the generator makes them."""
    return np.array([draw() for _ in range(n)])


def rows_of(params, n):
    """``n`` copies of ``params`` in the one row of a per-chain call with one
    generator: a ``(1, n) + shape(params)`` array."""
    return np.broadcast_to(params, (1, n) + np.shape(params))


def test_gamma_mean_example():
    rng = make_rng(11)
    draws = repeat(N, lambda: sample_gamma(rng, 4.0, 4.0))
    # Gamma(4, 4): mean 1, sd 0.5
    assert abs(draws.mean() - 1.0) < 3 * (0.5 / math.sqrt(N))


def test_gamma_moments_small_shape():
    rng = make_rng(12)
    draws = repeat(N, lambda: sample_gamma(rng, 0.4, 2.0))
    assert_moments(draws, 0.4 / 2.0, 0.4 / 4.0)
    assert np.all(draws > 0)


def test_gamma_moments_large_shape():
    rng = make_rng(13)
    assert_moments(repeat(N, lambda: sample_gamma(rng, 9.0, 3.0)), 3.0, 1.0)


def test_weibull_exponential_case():
    rng = make_rng(14)
    draws = repeat(N, lambda: sample_weibull(rng, 1.0, 2.0))
    # shape 1 reduces to Exponential with mean = scale = 2
    assert abs(draws.mean() - 2.0) < 3 * (2.0 / math.sqrt(N))


def test_weibull_moments():
    rng = make_rng(15)
    a, b = 1.7, 3.0
    mean = b * math.gamma(1 + 1 / a)
    var = b * b * (math.gamma(1 + 2 / a) - math.gamma(1 + 1 / a) ** 2)
    assert_moments(repeat(N, lambda: sample_weibull(rng, a, b)), mean, var)


def test_beta_moments():
    rng = make_rng(16)
    a, b = 2.0, 5.0
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1))
    draws = sample_beta([rng], rows_of(a, N), b)[0]
    assert_moments(draws, mean, var)
    assert np.all((draws > 0) & (draws < 1))


def test_negbinomial_variance_example():
    rng = make_rng(19)
    assert type(sample_negbinomial(rng, 2.0, 1.0)) is int
    draws = repeat(N, lambda: sample_negbinomial(rng, 2.0, 1.0))
    # var = mu + mu^2/alpha = 6
    assert_moments(draws, 2.0, 6.0)
    assert np.all(draws >= 0)


def test_negbinomial_poisson_limit():
    rng = make_rng(20)
    draws = repeat(N, lambda: sample_negbinomial(rng, 2.0, 1e9))
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
    assert_moments(repeat(N, lambda: sample_truncnormal(rng, mu, sigma, lower)), mean, var)


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
    draws = repeat(N, lambda: sample_truncnormal(rng, mu, sigma, lower))
    assert np.all(draws >= lower)
    assert_moments(draws, mean, var)


def test_truncnormal_support_one_million():
    rng = make_rng(23)
    draws = repeat(1_000_000, lambda: sample_truncnormal(rng, 0.5, 1.0, 0.0))
    assert np.all(draws >= 0.0)


def test_truncnormal_degenerate_scale():
    rng = make_rng(24)
    assert sample_truncnormal(rng, 3.0, 0.0, 0.0) == 3.0
    with pytest.raises(ParameterError):
        sample_truncnormal(rng, -1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "mu, sigma, lower",
    [
        (math.nan, 1.0, 0.0),
        (-math.inf, 1.0, 0.0),
        (math.inf, 1.0, 0.0),
        (math.inf, 0.0, 0.0),
        (0.0, math.inf, 0.0),
        (0.0, math.nan, 0.0),
        (0.0, 1.0, math.nan),
        # the bound 1e160 standard deviations up: a^2, and with it Robert's
        # rate, overflows, and no proposal would ever be accepted
        (-1e160, 1.0, 0.0),
        (0.0, 1e-300, 1.0),
        (0.0, 1.0, math.inf),
    ],
)
def test_truncnormal_rejects_parameters_it_cannot_draw_from(mu, sigma, lower):
    with pytest.raises(ParameterError):
        sample_truncnormal(make_rng(1), mu, sigma, lower)


def test_truncnormal_without_a_bound_is_the_normal():
    rng = make_rng(26)
    assert math.isfinite(sample_truncnormal(rng, 0.5, 2.0, -math.inf))
    assert_moments(repeat(N, lambda: sample_truncnormal(rng, 0.5, 2.0, -math.inf)), 0.5, 4.0)


@pytest.mark.parametrize(
    "shape, scale", [(1.0, math.inf), (math.inf, 1.0), (1.0, math.nan), (math.nan, 1.0)]
)
def test_weibull_rejects_non_finite_parameters(shape, scale):
    with pytest.raises(ParameterError):
        sample_weibull(make_rng(1), shape, scale)


@pytest.mark.parametrize(
    "mu, alpha", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)]
)
def test_negbinomial_rejects_non_finite_parameters(mu, alpha):
    # its own message, not one from the gamma it draws through
    with pytest.raises(ParameterError, match="negbinomial needs finite positive mean"):
        sample_negbinomial(make_rng(1), mu, alpha)


def test_dirichlet_simplex_one_million():
    rng = make_rng(25)
    draws = sample_dirichlet([rng], rows_of([0.5, 1.0, 2.0], 1_000_000))[0]
    assert np.all(draws >= 0.0)
    np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)


def test_dirichlet_component_moments():
    rng = make_rng(26)
    conc = np.array([2.0, 3.0, 5.0])
    draws = sample_dirichlet([rng], rows_of(conc, N))[0]
    s = conc.sum()
    for j in range(3):
        mean = conc[j] / s
        var = conc[j] * (s - conc[j]) / (s * s * (s + 1))
        assert_moments(draws[:, j], mean, var)


def test_dirichlet_per_row_moments():
    # one draw per row of a (rows, k) concentration, entries below 1 included
    rng = make_rng(126)
    conc = np.array([[0.3, 0.5, 2.0], [4.0, 0.7, 1.0]])
    draws = sample_dirichlet([rng], rows_of(conc, N))[0]
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
    draw = sample_dirichlet([rng], conc[None])[0]
    assert draw.shape == (3, 2)
    np.testing.assert_allclose(draw.sum(axis=-1), 1.0, atol=1e-12)
    with pytest.raises(ParameterError):
        sample_dirichlet([rng], [[1.0, 0.0]])


def test_one_generator_per_row_draws_as_each_alone():
    # entries below 1 boost, and rows finish their squeeze rounds at different times
    conc = np.array([[0.3, 2.0, 5.0], [0.5, 0.5, 0.7], [8.0, 1.0, 0.2], [1.0, 1.0, 1.0]])
    together = [make_rng(130 + r) for r in range(4)]
    alone = [make_rng(130 + r) for r in range(4)]
    for _ in range(200):
        rows = sample_dirichlet(together, conc)
        for r in range(4):
            np.testing.assert_array_equal(rows[r], sample_dirichlet([alone[r]], conc[r : r + 1])[0])
    p = sample_beta(together, conc[:, :2], conc[:, 2:])
    for r in range(4):
        expected = sample_beta([alone[r]], conc[r : r + 1, :2], conc[r : r + 1, 2:])[0]
        np.testing.assert_array_equal(p[r], expected)
    with pytest.raises(ParameterError, match="one generator per row"):
        sample_dirichlet(together[:3], conc)
    # one generator per entry of a single vector would normalize across them
    with pytest.raises(ParameterError, match="a vector per generator"):
        sample_dirichlet(together[:3], conc[0])


def test_beta_per_row_moments():
    rng = make_rng(128)
    a = np.array([0.4, 2.0, 5.0])
    b = np.array([0.6, 3.0, 0.8])
    draws = sample_beta([rng], rows_of(a, N), b)[0]
    assert draws.shape == (N, 3)
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    for j in range(3):
        mean = a[j] / (a[j] + b[j])
        var = a[j] * b[j] / ((a[j] + b[j]) ** 2 * (a[j] + b[j] + 1))
        assert_moments(draws[:, j], mean, var)
    # a scalar parameter broadcasts against the other's rows
    assert sample_beta([rng], 2.0, b[None]).shape == (1, 3)


def pick(rng, probs) -> int:
    """The package's categorical pick (``phases.allocate`` and the line
    mixtures): one uniform, scaled by the total, on the running totals."""
    cum = _cumulative(probs)
    return bisect_right(cum, rng.random() * cum[-1])


def test_categorical_degenerate():
    rng = make_rng(27)
    assert all(pick(rng, [1.0, 0, 0, 0, 0, 0, 0]) == 0 for _ in range(10_000))


def test_categorical_frequencies():
    rng = make_rng(28)
    p = [0.2, 0.5, 0.3]
    draws = np.array([pick(rng, p) for _ in range(N)])
    for k in range(3):
        freq = np.mean(draws == k)
        se = math.sqrt(p[k] * (1 - p[k]) / N)
        assert abs(freq - p[k]) < 4 * se


def test_scalar_categorical_draw_matches_cumsum_searchsorted():
    # the pick against the numpy formula it replaced, on the same stream:
    # same index every time on the short vectors drawn one at a time
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
            assert pick(ours, p.tolist()) == expected


@pytest.mark.parametrize(
    "probs, message",
    [
        ([math.nan], "nonnegative"),
        ([], "must not all be zero"),
        ([0.5, -0.1, 0.6], "nonnegative"),
        ([0.5, math.nan], "nonnegative"),
        ([0.0, 0.0], "must not all be zero"),
        ([math.inf, 1.0], "finite total"),
        ([0.5, math.inf, math.inf], "finite total"),
    ],
)
def test_categorical_errors(probs, message):
    with pytest.raises(ParameterError, match=message):
        _cumulative(probs)


def test_logpdf_gamma_exponential_value():
    assert kernel(_logpdf_gamma(1.0), 1.0, 1.0) == pytest.approx(-1.0)


def test_gamma_logpdf_integrates_to_one():
    # trapezoid oracle over a fine grid
    x = np.linspace(1e-6, 12.0, 200_001)
    total = np.trapezoid(np.exp(kernel(_logpdf_gamma(x), 4.0, 4.0)), x)
    assert abs(total - 1.0) < 1e-3


def test_weibull_logpdf_integrates_to_one():
    x = np.linspace(1e-9, 30.0, 200_001)
    total = np.trapezoid(np.exp(kernel(_logpdf_weibull(x), 1.7, 3.0)), x)
    assert abs(total - 1.0) < 1e-3


def test_truncnormal_logpdf_integrates_to_one():
    x = np.linspace(0.5, 12.0, 200_001)
    total = np.trapezoid(np.exp(truncnormal_each(x, 1.0, 1.5, 0.5)), x)
    assert abs(total - 1.0) < 1e-3


def test_negbinomial_pmf_sums_to_one():
    ks = np.arange(0, 400)
    total = np.exp(kernel(_logpmf_negbinomial(ks, np.zeros(400)), [2.0], 1.0)).sum()
    assert abs(total - 1.0) < 1e-9


def test_beta_dirichlet_uniform_logpdfs():
    assert kernel(_logpdf_beta(1.0, 1.0), 0.3) == pytest.approx(0.0)
    flat = _logpdf_dirichlet([1.0, 1.0, 1.0])
    assert kernel(flat, [0.2, 0.3, 0.5]) == pytest.approx(float(gammaln(3.0)))


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
        lambda r: repeat(1000, lambda: sample_gamma(r, 2.5, 1.5)),
        lambda r: repeat(1000, lambda: sample_weibull(r, 1.2, 2.0)),
        lambda r: repeat(1000, lambda: sample_truncnormal(r, 0.0, 1.0, 0.5)),
        lambda r: repeat(1000, lambda: sample_negbinomial(r, 3.0, 0.7)),
        lambda r: sample_dirichlet([r], rows_of([1.0, 2.0, 3.0], 100)),
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
        (kernel(_logpdf_gamma(x), 2.5, 1.5), stats.gamma.logpdf(x, 2.5, scale=1 / 1.5)),
        (kernel(_logpdf_weibull(x), 1.7, 3.0), stats.weibull_min.logpdf(x, 1.7, scale=3.0)),
        (kernel(_logpdf_beta(2.0, 5.0), u), stats.beta.logpdf(u, 2.0, 5.0)),
        (kernel(_logpdf_halfnormal(0.7), x), stats.halfnorm.logpdf(x, scale=0.7)),
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
            kernel(_logpmf_negbinomial(k, [0, 1, 1, 0]), [2.0, 0.6], 1.3),
            stats.nbinom.logpmf(k, 1.3, 1.3 / (1.3 + np.array([2.0, 0.6, 0.6, 2.0]))),
        ),
        (
            kernel(_logpdf_dirichlet([0.8, 2.0, 3.5]), [0.2, 0.3, 0.5]),
            stats.dirichlet.logpdf([0.2, 0.3, 0.5], [0.8, 2.0, 3.5]),
        ),
        (
            kernel(_logpmf_dirichlet_categorical([[3.0, 0.0, 1.0]]), [[0.8, 2.0, 3.5]]),
            [
                stats.dirichlet_multinomial.logpmf([3, 0, 1], [0.8, 2.0, 3.5], 4)
                - math.log(4.0)  # the multinomial coefficient of one sequence
            ],
        ),
    ]
    for ours, oracle in pairs:
        np.testing.assert_allclose(ours, oracle, rtol=1e-10)


def test_logdensities_broadcast_over_parameters():
    # a leading axis of parameter rows, as the batched log-posteriors pass them
    shape = np.array([[0.5], [2.5], [9.0]])
    x = np.array([0.1, 1.0, 4.0])
    rows = kernel(_logpdf_gamma(x), shape, 1.5)
    assert rows.shape == (3, 3)
    for i, a in enumerate(shape[:, 0]):
        np.testing.assert_array_equal(rows[i], kernel(_logpdf_gamma(x), a, 1.5))
    for conc in ([1.0, 1.0, 1.0], [2.0, 3.0, 4.0]):
        w = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        dirichlet = _logpdf_dirichlet(conc)
        np.testing.assert_array_equal(
            kernel(dirichlet, w), [kernel(dirichlet, w[i]) for i in range(2)]
        )
    # a row whose formula is -inf (shape 0) leaves the others alone
    bad = kernel(_logpdf_weibull(x), np.array([[1.0], [0.0], [2.0]]), 1.5)
    assert np.all(bad[1] == -np.inf) and np.all(np.isfinite(bad[[0, 2]]))


@pytest.mark.parametrize(
    "case",
    ["ordinary", "far from zero", "deep tail"],
)
def test_truncnormal_stats_kernel_matches_sum_over_observations(case):
    rng = make_rng(808)
    if case == "ordinary":
        x, mu, sigma = repeat(200, lambda: sample_truncnormal(rng, 2.0, 1.5, 0.0)), 2.5, 1.2
    elif case == "far from zero":
        # 1e4 plus noise of 1e-3: sum(x^2) - n mean^2 would cancel every digit
        x = 1e4 + 1e-3 * rng.standard_normal(50)
        mu, sigma = 1e4, 1e-3
    else:
        # mu / sigma = -30: the retained tail mass is about exp(-454)
        x, mu, sigma = repeat(100, lambda: sample_truncnormal(rng, -30.0, 1.0, 0.0)), -30.0, 1.0
    expected = math.fsum(logpdf_truncnormal(x, mu, sigma, 0.0))
    got = _logpdf_truncnormal_stats(_truncnormal_stats(x), 0.0)(mu, sigma)
    assert got == pytest.approx(expected, rel=1e-12)


def test_truncnormal_stats_kernel_broadcasts_over_columns_and_rows():
    rng = make_rng(809)
    x = np.abs(rng.standard_normal((40, 2))) + np.array([1.0, 3.0])
    mu = np.array([[1.0, 3.0], [2.0, 2.5], [0.5, 4.0]])
    sigma = np.array([[0.5], [1.0], [2.0]])
    got = _logpdf_truncnormal_stats(_truncnormal_stats(x), 0.0)(mu, sigma)
    assert got.shape == (3, 2)
    for r in range(3):
        for c in range(2):
            expected = math.fsum(logpdf_truncnormal(x[:, c], mu[r, c], sigma[r, 0], 0.0))
            assert got[r, c] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Each bound kernel against a copy of the unbound formula it replaced, which
# took every argument on every call and masked the arguments outside the
# support: the same bits on every argument inside each kernel's support and
# domain, where the models call it (``inference.fit`` keeps the parameters
# there and the ``fit_*`` functions the observations), subnormals and
# extremes included.


def unbound_gamma(x, shape, rate):
    body = shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x
    return np.where(_positive(x) & _positive(shape) & _positive(rate), body, -np.inf)


def unbound_weibull(x, shape, scale):
    t = x / scale
    body = np.log(shape / scale) + (shape - 1.0) * np.log(t) - t**shape
    return np.where(_positive(x) & _positive(shape) & _positive(scale), body, -np.inf)


def unbound_beta(x, a, b):
    norm = gammaln(a + b) - gammaln(a) - gammaln(b)
    body = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) + norm
    return np.where((x > 0.0) & (x < 1.0) & _positive(a) & _positive(b), body, -np.inf)


def unbound_dirichlet(x, concentration):
    norm = gammaln(concentration.sum(axis=-1)) - gammaln(concentration).sum(axis=-1)
    body = norm + xlogy(concentration - 1.0, x).sum(axis=-1)
    inside = (x > 0.0).all(axis=-1) & (np.abs(x.sum(axis=-1) - 1.0) <= 1e-9)
    return np.where(inside & _positive(concentration).all(axis=-1), body, -np.inf)


def unbound_dirichlet_categorical(counts, concentration):
    total = concentration.sum(axis=-1)
    body = gammaln(total) - gammaln(total + counts.sum(axis=-1))
    body = body + (gammaln(concentration + counts) - gammaln(concentration)).sum(axis=-1)
    return np.where(_positive(concentration).all(axis=-1), body, -np.inf)


def unbound_halfnormal(x, sigma):
    body = 0.5 * math.log(2.0 / math.pi) - np.log(sigma) - 0.5 * (x / sigma) ** 2
    return np.where((x >= 0.0) & _positive(sigma), body, -np.inf)


def unbound_negbinomial(k, mu, alpha):
    integral = (k >= 0.0) & (k < math.inf) & (k == np.floor(k))
    safe = np.where(integral, k, 0.0)
    body = (
        gammaln(safe + alpha)
        - gammaln(alpha)
        - gammaln(safe + 1.0)
        + alpha * np.log(alpha / (alpha + mu))
        + safe * np.log(mu / (alpha + mu))
    )
    return np.where(integral & _positive(mu) & _positive(alpha), body, -np.inf)


def unbound_truncnormal_stats(stats, mu, sigma, lower):
    n, anchor, offset, ss = stats
    d = (anchor - mu) + offset
    log_tail = log_ndtr((mu - lower) / sigma)
    quadratic = -0.5 * (ss + n * d * d) / (sigma * sigma)
    body = quadratic - n * (np.log(sigma) + 0.5 * math.log(2.0 * math.pi) + log_tail)
    return np.where(_positive(sigma), body, -np.inf)


PROPERTY = dict(deadline=None, derandomize=True, database=None)
SPECIAL = (5e-324, 2.2e-308, 1e-300, 1e300, 0.5, 1.0, 2.0, 3.0)
# finite positive values: the positive parameters and observations
POSITIVE = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
# the same, mostly of moderate size, for the parameters of a density
PARAMETER = st.one_of(st.sampled_from(SPECIAL), st.floats(min_value=1e-3, max_value=1e3))
# a value in (0, 1), as a unit parameter is
UNIT = st.one_of(
    st.sampled_from((5e-324, 2.2e-308, 1e-300, 0.5, 1.0 - 2.0**-53)),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
# any finite value: a truncated normal's mean
FINITE = st.one_of(
    st.sampled_from(SPECIAL + (0.0, -1e300)), st.floats(allow_nan=False, allow_infinity=False)
)
# nonnegative integral counts, as floats; ``fit_caifi`` lets -0.0 through
COUNT = st.sampled_from((0.0, 1.0, 2.0, 3.0, 5.0, 12.0, -0.0))


def vector(elements, size):
    return st.lists(elements, min_size=size, max_size=size).map(np.array)


def vectors(elements, min_size=1, max_size=8):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(np.array)


def same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes(), (got, expected)


def unbound(formula, *args):
    with np.errstate(all="ignore"):
        return formula(*(np.asarray(a, dtype=float) for a in args))


@settings(max_examples=200, **PROPERTY)
@given(x=vectors(st.one_of(st.just(0.0), POSITIVE)), sigma=PARAMETER)
def test_bound_halfnormal_keeps_the_bits(x, sigma):
    # 0 is in its support: the line means' increments may round to it
    same_bits(kernel(bound(_logpdf_halfnormal, sigma), x), unbound(unbound_halfnormal, x, sigma))


@settings(max_examples=200, **PROPERTY)
@given(x=vectors(UNIT), a=PARAMETER, b=PARAMETER)
def test_bound_beta_keeps_the_bits(x, a, b):
    same_bits(kernel(bound(_logpdf_beta, a, b), x), unbound(unbound_beta, x, a, b))


@settings(max_examples=200, **PROPERTY)
@given(data=st.data(), k=st.integers(2, 4), flat=st.booleans(), rows=st.integers(1, 5))
def test_bound_dirichlet_keeps_the_bits(data, k, flat, rows):
    conc = np.ones(k) if flat else data.draw(vector(PARAMETER, k))
    # points on the open simplex
    weight = st.one_of(
        st.sampled_from((5e-324, 2.2e-308, 1e-300, 0.5, 1.0)),
        st.floats(min_value=1e-300, max_value=1.0),
    )
    point = vector(weight, k).map(lambda w: w / w.sum()).filter(lambda x: (x > 0.0).all())
    x = np.array([data.draw(point) for _ in range(rows)])
    same_bits(kernel(bound(_logpdf_dirichlet, conc), x), unbound(unbound_dirichlet, x, conc))


@settings(max_examples=200, **PROPERTY)
@given(x=vectors(POSITIVE), shape=vectors(PARAMETER, 1, 4), rate=vectors(PARAMETER, 1, 4))
def test_bound_gamma_keeps_the_bits_where_its_callers_use_them(x, shape, rate):
    # rows of shapes against rows of rates, as the line mixtures pass them
    shape, rate = shape[:, None, None], rate[None, :, None]
    expected = unbound(unbound_gamma, x, shape, rate)
    same_bits(kernel(bound(_logpdf_gamma, x), shape, rate), expected)


@settings(max_examples=200, **PROPERTY)
@given(x=vectors(POSITIVE), shape=vectors(PARAMETER, 1, 4), scale=vectors(PARAMETER, 1, 4))
def test_bound_weibull_keeps_the_bits(x, shape, scale):
    shape, scale = shape[:, None, None], scale[None, :, None]
    expected = unbound(unbound_weibull, x, shape, scale)
    same_bits(kernel(bound(_logpdf_weibull, x), shape, scale), expected)


@settings(max_examples=200, **PROPERTY)
@given(data=st.data(), zones=st.integers(1, 3), rows=st.integers(1, 3))
def test_bound_dirichlet_categorical_keeps_the_bits(data, zones, rows):
    counts = data.draw(vector(COUNT, zones * 7)).reshape(zones, 7)
    conc = data.draw(vector(PARAMETER, rows * zones * 7)).reshape(rows, zones, 7)
    same_bits(
        kernel(bound(_logpmf_dirichlet_categorical, counts), conc),
        unbound(unbound_dirichlet_categorical, counts, conc),
    )


@settings(max_examples=300, **PROPERTY)
@given(data=st.data(), groups=st.integers(1, 4), rows=st.integers(1, 4))
def test_tabled_negbinomial_keeps_the_bits(data, groups, rows):
    # counts that repeat, each in one of the groups but the last, which has
    # none, as a zone without counts has none
    k = data.draw(vectors(COUNT, 1, 12))
    group = data.draw(vector(st.integers(0, groups - 1), k.size))
    mu = data.draw(vector(PARAMETER, rows * (groups + 1))).reshape(rows, groups + 1)
    alpha = data.draw(vector(PARAMETER, rows))
    expected = unbound(unbound_negbinomial, k, np.take(mu, group, axis=-1), alpha[:, None])
    same_bits(kernel(bound(_logpmf_negbinomial, k, group), mu, alpha), expected)


@settings(max_examples=200, **PROPERTY)
@given(
    data=st.data(),
    lower=st.sampled_from((0.0, 0.5, -math.inf)),
    columns=st.integers(1, 3),
    rows=st.integers(1, 3),
)
def test_bound_truncnormal_stats_keeps_the_bits(data, lower, columns, rows):
    x = data.draw(vector(st.floats(min_value=0.0, max_value=50.0), 4 * columns))
    stats = _truncnormal_stats(x.reshape(4, columns))
    mu = data.draw(vector(FINITE, rows * columns)).reshape(rows, columns)
    sigma = data.draw(vector(PARAMETER, rows)).reshape(rows, 1)
    same_bits(
        kernel(bound(_logpdf_truncnormal_stats, stats, lower), mu, sigma),
        unbound(unbound_truncnormal_stats, stats, mu, sigma, lower),
    )
