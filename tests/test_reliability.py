"""Reliability-model input checks, the hurdle likelihood and sampling."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import betaln

from gridsynth.datasets import DEMO_CAIDI, DEMO_CAIFI, DEMO_ZONES
from gridsynth.distributions import ParameterError, make_rng
from gridsynth.inference import FitConfig
from gridsynth.reliability import fit_caidi, fit_caifi, sample_caidi, sample_caifi
from gridsynth.topology import ZoneAssignment
from test_distributions import N, assert_moments
from test_inference import constrain

TINY = FitConfig(chains=1, warmup=10, draws=10, thin=1, seed=5)

ZONES = ZoneAssignment(
    zone_count=2,
    bus_zone={f"b{i}": 1 + i % 2 for i in range(20)},
    line_zone={},
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


@pytest.mark.parametrize("fit_model, value", [(fit_caidi, "n/a"), (fit_caifi, None)])
def test_observation_that_is_not_a_number_names_the_bus(fit_model, value):
    data = observations()
    data["b7"] = value
    with pytest.raises(ValueError, match=f"^'b7': observation {value!r} is not a number$"):
        fit_model(data, ZONES, TINY)


@pytest.mark.parametrize(
    "fit_model, value, message",
    [
        (fit_caidi, -0.5, "durations must be nonnegative"),
        (fit_caifi, -1, "counts must be nonnegative integers"),
        (fit_caifi, 1.5, "counts must be nonnegative integers"),
        (fit_caifi, "0.5", "counts must be nonnegative integers"),
    ],
)
def test_an_invalid_observation_names_the_bus(fit_model, value, message):
    with pytest.raises(ValueError, match=f"^bus 'b7': {message}$"):
        fit_model(observations(value), ZONES, TINY)


@pytest.mark.parametrize("fit_model", [fit_caidi, fit_caifi])
def test_an_observation_given_as_a_numeric_string_is_read_as_its_number(fit_model):
    data = observations()
    data["b7"] = "3"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # R-hat of a short fit
        got = fit_model(data, ZONES, TINY).ensemble.draws
        expected = fit_model(observations(3.0), ZONES, TINY).ensemble.draws
    for name, draws in expected.items():
        np.testing.assert_array_equal(got[name], draws, err_msg=name)


@pytest.mark.parametrize("fit_model", [fit_caidi, fit_caifi])
def test_bus_without_zone_is_named(fit_model):
    with pytest.raises(ValueError, match="'b99'"):
        fit_model(observations(1.0, bus="b99"), ZONES, TINY)


@pytest.mark.parametrize(
    "fit_model, data, message",
    [
        (fit_caidi, {}, "no duration observations"),
        (fit_caidi, observations(-0.5), "durations must be nonnegative"),
        (fit_caifi, {}, "no count observations"),
        (fit_caifi, observations(-1), "nonnegative integers"),
        (fit_caifi, observations(1.5), "nonnegative integers"),
    ],
)
def test_fit_rejects_invalid_observations(fit_model, data, message):
    with pytest.raises(ValueError, match=message):
        fit_model(data, ZONES, TINY)


def test_fits_recover_the_demo_truth():
    # closed loop: 300 buses per zone drawn at the demo truth, fitted back.
    # Tolerance: every posterior mean within 3 posterior standard deviations
    # of the truth. Over FitConfig seeds 0-3 the largest distance measured
    # was 2.04 (freq_mean in zone 4), and the largest relative error 16 %.
    rng = make_rng(41)
    bus_zone = {f"b{z}_{i}": z for z in range(1, DEMO_ZONES + 1) for i in range(300)}
    zones = ZoneAssignment(zone_count=DEMO_ZONES, bus_zone=bus_zone, line_zone={})
    durations = {b: sample_caidi(DEMO_CAIDI, z, rng) for b, z in bus_zone.items()}
    counts = {b: sample_caifi(DEMO_CAIFI, z, rng) for b, z in bus_zone.items()}
    config = FitConfig(chains=4, warmup=300, draws=300, thin=1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # R-hat of a 300-sweep fit
        fitted = [
            (fit_caidi(durations, zones, config), DEMO_CAIDI),
            (fit_caifi(counts, zones, config), DEMO_CAIFI),
        ]
    for posterior, truth in fitted:
        for name, value in truth.items():
            draws = posterior.ensemble.draws[name]
            distance = np.abs(draws.mean(axis=0) - value) / draws.std(axis=0)
            assert np.all(distance < 3.0), (name, distance)


def test_caidi_likelihood_is_the_bernoulli_gated_weibull_mixture(fit_calls):
    # brute force over the gate: a duration's measure sums "no interruption"
    # (a point mass at 0, weight 1 - p) and "interrupted" (Weibull, weight p).
    # The gate's terms factor out: the joint is the model's columns plus
    # log Beta(p; 1 + positives, 1 + zeros), up to one constant
    durations = observations()
    fit_caidi(durations, ZONES, TINY)
    ((log_posterior, space, _, _, terms),) = fit_calls
    assert terms["hurdle_p"] == []
    values, _ = constrain(space, make_rng(6).standard_normal((5, space.dim)))
    got = log_posterior(values).sum(axis=-1)  # one term column per zone
    zones = range(1, ZONES.zone_count + 1)
    n_pos = np.zeros(ZONES.zone_count)
    n_zero = np.zeros(ZONES.zone_count)
    for bus, y in durations.items():
        (n_pos if y > 0.0 else n_zero)[ZONES.bus_zone[bus] - 1] += 1.0
    offsets = []
    for i in range(5):
        p = values["hurdle_p"][i]
        shape, scale = ([values[f"weib_{k}_z{z}"][i] for z in zones] for k in ("shape", "scale"))
        joint = stats.beta.logpdf(p, 1.0, 1.0).sum()
        joint += stats.halfnorm.logpdf(shape).sum() + stats.halfnorm.logpdf(scale).sum()
        for bus, y in durations.items():
            z = ZONES.bus_zone[bus] - 1
            quiet = (1.0 - p[z]) * (y == 0.0)
            interrupted = 0.0
            if y > 0.0:
                interrupted = p[z] * stats.weibull_min.pdf(y, shape[z], scale=scale[z])
            joint += math.log(quiet + interrupted)
        gate = stats.beta.logpdf(p, 1.0 + n_pos, 1.0 + n_zero).sum()
        offsets.append(joint - got[i] - gate)
    # the constant is the Beta posteriors' log-normalizers
    np.testing.assert_allclose(offsets, betaln(1.0 + n_pos, 1.0 + n_zero).sum(), rtol=1e-12)


DRAW = {
    "hurdle_p": np.array([0.3, 0.8]),
    "weib_shape": np.array([1.4, 0.8]),
    "weib_scale": np.array([2.0, 5.0]),
    "freq_mean": np.array([0.7, 3.5]),
    "dispersion": 1.6,
}


@pytest.mark.parametrize("sample", [sample_caidi, sample_caifi])
@pytest.mark.parametrize("zone", [0, -1, 3])
def test_sampler_rejects_a_zone_outside_the_draw(sample, zone):
    # a zone of 0 or -1 would otherwise wrap round to the last zone's entry
    with pytest.raises(ParameterError, match=f"zone {zone} is outside 1..2"):
        sample(DRAW, zone, make_rng(0))


@pytest.mark.parametrize("p", [math.nan, 1.5, -0.5])
def test_sample_caidi_rejects_a_hurdle_probability_outside_0_1(p):
    draw = {**DRAW, "hurdle_p": np.array([0.3, p])}
    with pytest.raises(ParameterError, match="zone 2: hurdle probability"):
        sample_caidi(draw, 2, make_rng(0))


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
