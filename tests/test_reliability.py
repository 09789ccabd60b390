"""Reliability-model input checks, the hurdle likelihood and sampling."""

import math

import numpy as np
import pytest
from scipy import stats

from gridsynth.distributions import make_rng
from gridsynth.inference import FitConfig
from gridsynth.reliability import fit_caidi, fit_caifi, sample_caidi, sample_caifi
from gridsynth.topology import ZoneAssignment
from test_distributions import N, assert_moments

TINY = FitConfig(chains=1, warmup=10, draws=10, thin=1, seed=5)

ZONES = ZoneAssignment(
    zone_count=2,
    bus_zone={f"b{i}": 1 + i % 2 for i in range(20)},
    line_zone={},
    edges=(0.0, 9.5, 19.0),
)


def observations(value=None, bus="b7"):
    data = {f"b{i}": float(i % 4) for i in range(20)}
    if value is not None:
        data[bus] = value
    return data


@pytest.mark.parametrize("fit_model", [fit_caidi, fit_caifi])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_observation_names_the_bus(fit_model, value):
    with pytest.raises(ValueError, match="'b7'"):
        fit_model(observations(value), ZONES, TINY)


@pytest.mark.parametrize("fit_model", [fit_caidi, fit_caifi])
def test_bus_without_zone_is_named(fit_model):
    with pytest.raises(ValueError, match="'b99'"):
        fit_model(observations(1.0, bus="b99"), ZONES, TINY)


def test_caidi_likelihood_is_the_bernoulli_gated_weibull_mixture(fit_calls):
    # brute force over the gate: a duration's measure sums "no interruption"
    # (a point mass at 0, weight 1 - p) and "interrupted" (Weibull, weight p)
    durations = observations()
    fit_caidi(durations, ZONES, TINY)
    ((log_posterior, space, _, _),) = fit_calls
    values, _ = space.constrain(make_rng(6).standard_normal((5, space.dim)))
    got = log_posterior(values)
    for i in range(5):
        p, shape, scale = (values[k][i] for k in ("hurdle_p", "weib_shape", "weib_scale"))
        expected = stats.beta.logpdf(p, 1.0, 1.0).sum()
        expected += stats.halfnorm.logpdf(shape).sum() + stats.halfnorm.logpdf(scale).sum()
        for bus, y in durations.items():
            z = ZONES.bus_zone[bus] - 1
            quiet = (1.0 - p[z]) * (y == 0.0)
            interrupted = 0.0
            if y > 0.0:
                interrupted = p[z] * stats.weibull_min.pdf(y, shape[z], scale=scale[z])
            expected += math.log(quiet + interrupted)
        assert got[i] == pytest.approx(expected, rel=1e-12)


DRAW = {
    "hurdle_p": np.array([0.3, 0.8]),
    "weib_shape": np.array([1.4, 0.8]),
    "weib_scale": np.array([2.0, 5.0]),
    "freq_mean": np.array([0.7, 3.5]),
    "dispersion": 1.6,
}


@pytest.mark.parametrize("zone", [1, 2])
def test_sample_caidi_zero_share_is_one_minus_hurdle_p(zone):
    rng = make_rng(40 + zone)
    draws = np.array([sample_caidi(DRAW, zone, rng) for _ in range(N)])
    zero_share = 1.0 - DRAW["hurdle_p"][zone - 1]
    se = math.sqrt(zero_share * (1.0 - zero_share) / N)
    assert abs(np.mean(draws == 0.0) - zero_share) < 4 * se
    assert np.all(draws >= 0.0)


@pytest.mark.parametrize("zone", [1, 2])
def test_sample_caifi_negative_binomial_moments(zone):
    rng = make_rng(50 + zone)
    mu, alpha = DRAW["freq_mean"][zone - 1], DRAW["dispersion"]
    draws = [sample_caifi(DRAW, zone, rng) for _ in range(N)]
    assert_moments(draws, mu, mu + mu * mu / alpha)
