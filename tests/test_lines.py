"""Line-model input checks."""

import math

import pytest

from gridsynth.inference import FitConfig
from gridsynth.lines import fit_line_model
from gridsynth.topology import ZoneAssignment

TINY = FitConfig(chains=1, warmup=10, draws=10, thin=1, seed=5)

ZONES = ZoneAssignment(
    zone_count=2,
    bus_zone={},
    line_zone={f"l{i}": 1 + i % 2 for i in range(12)},
    bus_distance_km={},
    edges=(0.0, 1.0, 2.0),
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
