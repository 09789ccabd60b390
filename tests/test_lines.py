"""Line-model mixture, input checks and the Carson/Kron impedance build."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from gridsynth.datasets import DEMO_ZONES, demo_draw
from gridsynth.distributions import ParameterError, make_rng
from gridsynth.inference import FitConfig
from gridsynth.lines import (
    _CARSON,
    LineParams,
    _carson_zabc,
    _mixture,
    _self_term,
    fit_line_model,
    sample_line,
)
from gridsynth.phases import CONFIGS, PhaseConfig
from gridsynth.topology import ZoneAssignment
from test_distributions import N, assert_moments

TINY = FitConfig(chains=1, warmup=10, draws=10, thin=1, seed=5)

ZONES = ZoneAssignment(
    zone_count=2,
    bus_zone={},
    line_zone={f"l{i}": 1 + i % 2 for i in range(12)},
)


def observations(value=None, line="l3"):
    data = {f"l{i}": 0.2 + 0.1 * (i % 5) for i in range(12)}
    if value is not None:
        data[line] = value
    return data


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["r1", "rho"])
def test_non_finite_observation_names_the_line(value, field):
    data = {"r1": observations(), "rho": observations()}
    data[field] = observations(value)
    with pytest.raises(ValueError, match="'l3'"):
        fit_line_model(data["r1"], data["rho"], ZONES, TINY)


def test_line_without_zone_is_named():
    with pytest.raises(ValueError, match="'l99'"):
        fit_line_model(observations(0.5, line="l99"), observations(), ZONES, TINY)


def positive_sequence(z_abc: np.ndarray) -> complex:
    """Positive-sequence impedance of a (transposed) three-phase matrix:
    mean self minus mean mutual."""
    z_self = np.trace(z_abc) / 3.0
    z_mutual = (z_abc.sum() - np.trace(z_abc)) / 6.0
    return complex(z_self - z_mutual)


def test_positive_sequence_without_neutral_reproduces_r1_and_x1():
    # on the three phase conductors alone, with no neutral to Kron-reduce,
    # the derived GMR makes the transposed line's positive-sequence
    # impedance exactly r1 + j x1
    params = LineParams(r1_ohm_per_km=0.3, rho=1.7)
    mutual = _CARSON[PhaseConfig.ABC.value][0]
    z_abc = mutual[:3, :3].copy()  # the neutral is the last row and column
    np.fill_diagonal(z_abc, _self_term(params))
    z1 = positive_sequence(z_abc)
    assert abs(z1 - complex(0.3, 1.7 * 0.3)) < 1e-12


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_absent_phases_are_exact_zeros(config):
    z_abc = _carson_zabc(LineParams(r1_ohm_per_km=0.45, rho=1.5), config)
    absent = [i for i, p in enumerate("ABC") if p not in config.phases]
    present = [i for i, p in enumerate("ABC") if p in config.phases]
    assert np.all(z_abc[absent, :] == 0.0) and np.all(z_abc[:, absent] == 0.0)
    assert np.all(z_abc[np.ix_(present, present)] != 0.0)


def test_sampled_reactance_is_rho_times_r1():
    draw = demo_draw()
    rng = make_rng(12)
    for zone in range(1, DEMO_ZONES + 1):
        for _ in range(20):
            params = sample_line(draw, zone, rng)
            assert params.x1_ohm_per_km == params.rho * params.r1_ohm_per_km


def mixture_draw(means, cv, weights):
    """One posterior draw with the same mixture for resistance and ratio, zone 1."""
    draw = {}
    for prefix in ("r", "rho"):
        draw[f"{prefix}_means"] = np.array(means, dtype=float)
        draw[f"{prefix}_cv"] = cv
        draw[f"{prefix}_weights_z1"] = np.array(weights, dtype=float)
    return draw


def test_sample_line_single_live_component_has_its_moments():
    # means (1, 3, 5) with cv 0.5: the first component is Gamma(4, 4), mean 1, var 0.25
    draw = mixture_draw([1.0, 3.0, 5.0], 0.5, [1.0, 0.0, 0.0])
    rng = make_rng(29)
    lines = [sample_line(draw, 1, rng) for _ in range(N)]
    assert_moments([p.r1_ohm_per_km for p in lines], 1.0, 0.25)
    assert_moments([p.rho for p in lines], 1.0, 0.25)


def test_sample_line_total_expectation():
    # Gamma(4, 4) and Gamma(4, 4/3) with equal weight: mean 2,
    # var = 0.5 (0.25 + 1) + 0.5 (2.25 + 9) - 4
    draw = mixture_draw([1.0, 3.0, 5.0], 0.5, [0.5, 0.5, 0.0])
    rng = make_rng(30)
    draws = np.array([sample_line(draw, 1, rng).r1_ohm_per_km for _ in range(N)])
    mean = 2.0
    var = 0.5 * (0.25 + 1.0) + 0.5 * (2.25 + 9.0) - mean * mean
    assert abs(draws.mean() - mean) < 3 * math.sqrt(var / N)


@pytest.mark.parametrize(
    "key, value",
    [
        ("means", [0.2, 0.4, math.nan]),
        ("means", [0.2, math.inf, 0.8]),
        ("means", [0.0, 0.4, 0.8]),
        ("means", [0.2, 0.4, -0.8]),
        ("cv", math.nan),
        ("cv", math.inf),
        ("cv", 0.0),
        ("cv", -0.3),
        ("weights", [0.5, -0.1, 0.6]),
        ("weights", [0.5, math.nan, 0.5]),
        ("weights", [0.0, 0.0, 0.0]),
        ("weights", [0.5, 0.5]),
        # cv^2, 1 / cv^2 or a rate outside the float range
        ("cv", 1e-200),
        ("cv", 1e200),
        ("cv", 1e-160),
        ("means", [1e-320, 0.4, 0.8]),
    ],
)
@pytest.mark.parametrize("prefix", ["r", "rho"])
def test_sample_line_rejects_invalid_draw(prefix, key, value):
    draw = mixture_draw([0.2, 0.4, 0.8], 0.3, [0.2, 0.3, 0.5])
    name = f"{prefix}_weights_z1" if key == "weights" else f"{prefix}_{key}"
    draw[name] = value if key == "cv" else np.array(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError):
            sample_line(draw, 1, make_rng(3))


@pytest.mark.parametrize("zone", [0, 2])
def test_sample_line_rejects_a_zone_outside_the_draw(zone):
    draw = mixture_draw([0.2, 0.4, 0.8], 0.3, [0.2, 0.3, 0.5])
    with pytest.raises(ParameterError, match=f"zone {zone} has no r weights"):
        sample_line(draw, zone, make_rng(3))


def test_mixture_logpost_matches_scipy_reference():
    grouped = [np.array([0.15, 0.22, 0.41, 0.9]), np.array([]), np.array([0.35, 0.6, 1.3])]
    values = {
        "r_means": np.array([0.2, 0.45, 0.8]),
        "r_cv": 0.3,
        "r_weights_z1": np.array([0.6, 0.3, 0.1]),
        "r_weights_z2": np.array([0.2, 0.5, 0.3]),
        "r_weights_z3": np.array([0.1, 0.2, 0.7]),
    }
    means, cv = values["r_means"], values["r_cv"]
    shape = 1.0 / cv**2
    expected = stats.halfnorm.logpdf(means[0], scale=1.0)
    expected += stats.halfnorm.logpdf(np.diff(means), scale=1.0).sum()
    expected += stats.halfnorm.logpdf(cv, scale=0.5)
    for z, x in enumerate(grouped, start=1):
        weights = values[f"r_weights_z{z}"]
        expected += stats.dirichlet.logpdf(weights, np.ones(3))
        comp = [
            np.log(w) + stats.gamma.logpdf(x, shape, scale=m / shape)
            for w, m in zip(weights, means)
        ]
        expected += logsumexp(comp, axis=0).sum()
    # the log-posterior takes a leading chain axis: one chain here
    batch = {name: np.asarray(value)[None] for name, value in values.items()}
    assert _mixture("r", grouped)[0](batch)[0] == pytest.approx(expected, rel=1e-12)


def test_mixture_logpost_zero_weight_is_off_support():
    # a weight that underflowed to 0 scores -inf without running np.log(0)
    grouped = [np.array([0.15, 0.3])]
    values = {"r_means": np.array([[0.2, 0.45, 0.8]]), "r_cv": np.array([0.3])}
    values["r_weights_z1"] = np.array([[1.0, 0.0, 0.0]])
    assert _mixture("r", grouped)[0](values)[0] == -np.inf


def test_carson_kron_reduced_neutral_matches_independent_value():
    # phase A at (0, 0), its neutral 1.2 m above; both have the phase conductor's
    # GMR (GMD exp(-x1 / q)) and resistance r1
    r1, rho = 0.3, 1.7
    f, rho_earth = 60.0, 100.0
    q = 4.0 * math.pi * f * 1e-4
    gmr = (0.6 * 0.6 * 1.2) ** (1.0 / 3.0) * math.exp(-rho * r1 / q)
    depth = 658.368 * math.sqrt(rho_earth / f)
    p = math.pi**2 * f * 1e-4
    z_self = complex(r1 + p, q * math.log(depth / gmr))
    z_an = complex(p, q * math.log(depth / 1.2))
    expected = z_self - z_an**2 / z_self
    z_abc = _carson_zabc(LineParams(r1_ohm_per_km=r1, rho=rho), PhaseConfig.A)
    assert abs(z_abc[0, 0] - expected) < 1e-12 * abs(expected)
    assert np.count_nonzero(z_abc) == 1
