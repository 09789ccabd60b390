"""Reliability-model input checks."""

import math

import pytest

from gridsynth.inference import FitConfig
from gridsynth.reliability import fit_caidi, fit_caifi
from gridsynth.topology import ZoneAssignment

TINY = FitConfig(chains=1, warmup=10, draws=10, thin=1, seed=5)

ZONES = ZoneAssignment(
    zone_count=2,
    bus_zone={f"b{i}": 1 + i % 2 for i in range(20)},
    line_zone={},
    bus_distance_km={f"b{i}": float(i) for i in range(20)},
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
