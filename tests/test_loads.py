"""Demand model checks: mean vectors, power factor, sampling, fitting."""

import math
import types
import warnings

import numpy as np
import pytest

from gridsynth.distributions import make_rng, sample_truncnormal
from gridsynth.inference import FitConfig, InitializationError
from gridsynth.loads import BusDemand, draw_power_factor, fit_load_model, sample_demand
from gridsynth.phases import CONFIGS, PhaseConfig

FAST = FitConfig(chains=4, warmup=600, draws=600, thin=2, seed=77)

TRUTH = {
    "p_pot_mono": 2.0,
    "p_pot_bi": 5.0,
    "p_pot_tri": 12.0,
    "delta_bi": 0.6,
    "delta_tri": np.array([0.40, 0.35, 0.25]),
    "sigma_p": 0.3,
}


def test_power_factor_thresholds_exact():
    above = math.nextafter
    cases = {0.0: 0.95, 0.10: 0.85, 0.1649: 0.85, above(0.1649, 1.0): 0.90, 0.20: 0.90}
    cases.update({0.27: 0.90, above(0.27, 1.0): 0.95, 0.50: 0.95, 1.0: 0.95})
    for u, pf in cases.items():
        # a stub generator whose one uniform is u
        assert draw_power_factor(types.SimpleNamespace(random=lambda u=u: u)) == pf, u


def test_draw_power_factor_levels():
    rng = make_rng(1)
    levels = {draw_power_factor(rng) for _ in range(500)}
    assert levels == {0.85, 0.90, 0.95}


def mean_vector(draw, config):
    """The category means sample_demand places on the active phases: its
    draw at sigma_p = 0."""
    return sample_demand(dict(draw, sigma_p=0.0), config, make_rng(0), 0.95).p_kw


def test_mean_vector_symmetric_bi_split():
    draw = dict(TRUTH, p_pot_bi=10.0, delta_bi=0.5)
    np.testing.assert_allclose(mean_vector(draw, PhaseConfig.AB), [5.0, 5.0, 0.0])


def test_mean_vector_balanced_tri():
    draw = dict(TRUTH, p_pot_tri=9.0, delta_tri=np.full(3, 1 / 3))
    np.testing.assert_allclose(mean_vector(draw, PhaseConfig.ABC), [3.0, 3.0, 3.0])


def test_mean_vector_mono_b():
    draw = dict(TRUTH, p_pot_mono=7.0)
    np.testing.assert_allclose(mean_vector(draw, PhaseConfig.B), [0.0, 7.0, 0.0])


def test_mean_vector_ca_puts_delta_on_a():
    # alphabetically first active phase takes the delta share
    draw = dict(TRUTH, p_pot_bi=10.0, delta_bi=0.7)
    np.testing.assert_allclose(mean_vector(draw, PhaseConfig.CA), [7.0, 0.0, 3.0])
    np.testing.assert_allclose(mean_vector(draw, PhaseConfig.BC), [0.0, 7.0, 3.0])


def test_split_conservation():
    for cfg in (PhaseConfig.AB, PhaseConfig.BC, PhaseConfig.CA):
        assert mean_vector(TRUTH, cfg).sum() == pytest.approx(TRUTH["p_pot_bi"])
    assert mean_vector(TRUTH, PhaseConfig.ABC).sum() == pytest.approx(TRUTH["p_pot_tri"])


def test_reactive_power_arithmetic():
    demand = BusDemand(
        p_kw=np.array([100.0, 0.0, 0.0]),
        q_kvar=np.array([100.0, 0.0, 0.0]) * math.tan(math.acos(0.95)),
    )
    assert demand.q_kvar[0] == pytest.approx(32.87, abs=0.01)


def test_sample_demand_q_follows_pf():
    rng = make_rng(2)
    d = sample_demand(TRUTH, PhaseConfig.ABC, rng, 0.9)
    np.testing.assert_allclose(d.q_kvar, d.p_kw * math.tan(math.acos(0.9)))


def test_sample_demand_degenerate_sigma():
    # at sigma_p = 0 each active phase takes its mean exactly
    draw = dict(TRUTH, sigma_p=0.0)
    rng = make_rng(3)
    bi, delta_bi = TRUTH["p_pot_bi"], TRUTH["delta_bi"]
    cases = {
        PhaseConfig.C: [0.0, 0.0, TRUTH["p_pot_mono"]],
        PhaseConfig.AB: [bi * delta_bi, bi * (1.0 - delta_bi), 0.0],
        PhaseConfig.CA: [bi * delta_bi, 0.0, bi * (1.0 - delta_bi)],
        PhaseConfig.ABC: TRUTH["p_pot_tri"] * TRUTH["delta_tri"],
    }
    for cfg, means in cases.items():
        np.testing.assert_array_equal(sample_demand(draw, cfg, rng, 0.95).p_kw, means)


def test_sample_demand_sparsity_all_configs():
    rng = make_rng(4)
    for cfg in CONFIGS:
        for _ in range(50):
            d = sample_demand(TRUTH, cfg, rng, 0.95)
            active = [i for i, p in enumerate("ABC") if p in cfg.phases]
            inactive = [i for i in range(3) if i not in active]
            assert np.all(d.p_kw[inactive] == 0.0)
            assert np.all(d.p_kw[active] >= 0.0)
            assert np.all(d.q_kvar[inactive] == 0.0)


def test_demand_support_one_million_draws():
    # the truncation engine behind sample_demand never goes negative, drawn
    # one value at a time as sample_demand draws each active phase
    rng = make_rng(5)
    draws = np.array([sample_truncnormal(rng, 0.5, 0.3, 0.0) for _ in range(1_000_000)])
    assert np.all(draws >= 0.0)


def _synthetic_dataset(n, rng, truth=TRUTH):
    probs = np.array([0.14, 0.14, 0.14, 0.14, 0.14, 0.15, 0.15])
    allocations = {}
    demands = {}
    for i in range(n):
        cfg = CONFIGS[int(np.searchsorted(np.cumsum(probs), rng.random() * probs.sum()))]
        bus = f"b{i:05d}"
        allocations[bus] = cfg
        demands[bus] = sample_demand(truth, cfg, rng, 0.95).p_kw
    return demands, allocations


def test_fit_recovers_potentials():
    rng = make_rng(202)
    demands, allocations = _synthetic_dataset(1500, rng)
    with warnings.catch_warnings():
        # R-hat of a 600-sweep fit: the Gamma shapes and rates mix slowly;
        # the test reads the potentials, the split and the scale
        warnings.filterwarnings("ignore", "R-hat", UserWarning)
        posterior = fit_load_model(demands, allocations, FAST)
    for name in ("p_pot_mono", "p_pot_bi", "p_pot_tri", "delta_bi", "sigma_p"):
        mean = posterior.ensemble.draws[name].mean(axis=0)
        assert mean == pytest.approx(TRUTH[name], rel=0.15), name
    # posterior-predictive total demand tracks the training data within 5%
    observed_total = np.mean([v.sum() for v in demands.values()])
    idx_rng = make_rng(203)
    predictive = []
    for _ in range(500):
        i = int(idx_rng.random() * posterior.ensemble.size)
        draw = {name: values[i] for name, values in posterior.ensemble.draws.items()}
        cfg = list(allocations.values())[int(idx_rng.random() * len(allocations))]
        predictive.append(sample_demand(draw, cfg, idx_rng, 0.95).p_kw.sum())
    assert np.mean(predictive) == pytest.approx(observed_total, rel=0.05)


def test_fit_balanced_tri_recovers_even_split():
    rng = make_rng(204)
    truth = dict(TRUTH, delta_tri=np.full(3, 1 / 3))
    demands = {}
    allocations = {}
    for i in range(1200):
        bus = f"b{i:05d}"
        allocations[bus] = PhaseConfig.ABC
        demands[bus] = sample_demand(truth, PhaseConfig.ABC, rng, 0.95).p_kw
    with warnings.catch_warnings():
        # R-hat of a 600-sweep fit: the Gamma shapes and rates mix slowly;
        # the test reads only the three-phase split
        warnings.filterwarnings("ignore", "R-hat", UserWarning)
        with pytest.warns(UserWarning, match="no (mono|bi)-phase observations"):
            posterior = fit_load_model(demands, allocations, FAST)
    mean = posterior.ensemble.draws["delta_tri"].mean(axis=0)
    np.testing.assert_allclose(mean, 1 / 3, atol=0.03)


def test_fit_constant_loads_shrink_sigma():
    demands = {}
    allocations = {}
    for i in range(400):
        bus = f"b{i:05d}"
        allocations[bus] = PhaseConfig.A
        demands[bus] = np.array([4.0, 0.0, 0.0])
    with pytest.warns(UserWarning):
        posterior = fit_load_model(demands, allocations, FAST)
    assert posterior.ensemble.draws["sigma_p"].mean() < 0.05 * 4.0


def test_demands_whose_spread_overflows_fail_to_initialize():
    # their standard deviation overflows to inf, and with it the scale of the
    # sigma_p prior and sigma_p's init: fit cannot start, and says so
    demands = {"a": np.array([1.7e308, 0.0, 0.0]), "b": np.zeros(3), "c": np.array([1.0, 0, 0])}
    allocations = dict.fromkeys(demands, PhaseConfig.A)
    with warnings.catch_warnings():
        # the categories with no buses
        warnings.filterwarnings("ignore", "no (bi|tri)-phase observations", UserWarning)
        with pytest.raises(InitializationError):
            fit_load_model(demands, allocations, FAST)


@pytest.mark.parametrize(
    "demand, config",
    [
        ([1.7e308, 0.0, 0.0], PhaseConfig.A),
        ([1.7e308, 1.7e308, 0.0], PhaseConfig.AB),
        ([8e307] * 3, PhaseConfig.ABC),
    ],
    ids=["mono", "bi", "tri"],
)
def test_demands_whose_totals_overflow_fail_to_initialize(demand, config):
    # the mean total of the category, the potential's init, overflows: fit
    # cannot start, and says so; the three-phase means are finite but their
    # total is not, so the split's init falls back to uniform first
    demands = {"a": np.array(demand), "b": np.array(demand)}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the categories with no buses
        warnings.filterwarnings("ignore", "no (mono|bi|tri)-phase observations", UserWarning)
        with pytest.raises(InitializationError):
            fit_load_model(demands, dict.fromkeys(demands, config), FAST)


def test_fit_rejects_demand_on_inactive_phase():
    with pytest.raises(ValueError, match="absent"):
        fit_load_model({"b": np.array([1.0, 1.0, 0.0])}, {"b": PhaseConfig.A}, FAST)
    with pytest.raises(ValueError, match="negative"):
        fit_load_model({"b": np.array([-1.0, 0.0, 0.0])}, {"b": PhaseConfig.A}, FAST)


def test_fit_rejects_a_bus_without_allocation_naming_it():
    with pytest.raises(ValueError, match="bus a: no phase configuration"):
        fit_load_model({"a": np.array([1.0, 0.0, 0.0])}, {}, FAST)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_fit_rejects_non_finite_demand_naming_the_bus(value):
    demands = {"b0": np.array([1.0, 0.0, 0.0]), "b7": np.array([value, 0.0, 0.0])}
    allocations = {"b0": PhaseConfig.A, "b7": PhaseConfig.A}
    with pytest.raises(ValueError, match="bus b7: non-finite demand"):
        fit_load_model(demands, allocations, FAST)


def test_fit_rejects_a_negative_demand_naming_the_bus():
    demands = {"b0": np.array([1.0, 0.0, 0.0]), "b3": np.array([2.0, -0.5, 0.0])}
    allocations = {"b0": PhaseConfig.A, "b3": PhaseConfig.AB}
    with pytest.raises(ValueError, match="^bus b3: negative demand$"):
        fit_load_model(demands, allocations, FAST)


@pytest.mark.parametrize("demand", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], 1.0, [[1.0, 2.0, 3.0]]])
def test_fit_rejects_a_demand_that_is_not_a_3_vector_naming_the_bus(demand):
    demands = {"b0": np.array([1.0, 2.0, 3.0]), "b5": demand}
    allocations = {"b0": PhaseConfig.ABC, "b5": PhaseConfig.ABC}
    with pytest.raises(ValueError, match="^bus b5: demand must be a 3-vector$"):
        fit_load_model(demands, allocations, FAST)


def test_fit_names_the_first_faulty_bus_in_input_order():
    # b2's fault is checked before b1's for one bus, but b1 comes first
    demands = {
        "b0": np.array([1.0, 0.0, 0.0]),
        "b1": np.array([1.0, 1.0, 0.0]),
        "b2": np.array([math.nan, 0.0, 0.0]),
    }
    allocations = {"b0": PhaseConfig.A, "b1": PhaseConfig.A, "b2": PhaseConfig.A}
    with pytest.raises(ValueError, match="^bus b1: nonzero demand on a phase absent from A$"):
        fit_load_model(demands, allocations, FAST)
    # and a bus at fault twice is named with the first check it fails
    demands["b1"] = np.array([-1.0, math.inf, 0.0])
    with pytest.raises(ValueError, match=r"^bus b1: non-finite demand \[-1.0, inf, 0.0\]$"):
        fit_load_model(demands, allocations, FAST)
    # a demand that is not numbers raises numpy's own error, in its turn
    demands["b2"] = "1.0 kW"
    with pytest.raises(ValueError, match="^bus b1: non-finite"):
        fit_load_model(demands, allocations, FAST)
    demands["b1"] = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="could not convert"):
        fit_load_model(demands, allocations, FAST)
