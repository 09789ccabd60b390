"""Line-model input checks and the Carson/Kron impedance build."""

import math

import numpy as np
import pytest

from gridsynth.datasets import DEMO_ZONES, _line_truth_draw
from gridsynth.distributions import make_rng
from gridsynth.inference import FitConfig
from gridsynth.lines import (
    LineGeometry,
    LineParams,
    carson_zabc,
    fit_line_model,
    positive_sequence,
    sample_line,
)
from gridsynth.phases import CONFIGS, PhaseConfig
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


def test_positive_sequence_without_neutral_reproduces_r1_and_x1():
    # with no neutral to Kron-reduce, the derived GMR makes the transposed
    # line's positive-sequence impedance exactly r1 + j x1
    params = LineParams(r1_ohm_per_km=0.3, rho=1.7)
    z_abc = carson_zabc(params, PhaseConfig.ABC, LineGeometry(include_neutral=False))
    z1 = positive_sequence(z_abc)
    assert abs(z1 - complex(0.3, 1.7 * 0.3)) < 1e-12


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_absent_phases_are_exact_zeros(config):
    z_abc = carson_zabc(LineParams(r1_ohm_per_km=0.45, rho=1.5), config)
    absent = [i for i, p in enumerate("ABC") if p not in config.phases]
    present = [i for i, p in enumerate("ABC") if p in config.phases]
    assert np.all(z_abc[absent, :] == 0.0) and np.all(z_abc[:, absent] == 0.0)
    assert np.all(z_abc[np.ix_(present, present)] != 0.0)


def test_sampled_reactance_is_rho_times_r1():
    draw = _line_truth_draw()
    rng = make_rng(12)
    for zone in range(1, DEMO_ZONES + 1):
        for _ in range(20):
            params = sample_line(draw, zone, rng)
            assert params.x1_ohm_per_km == params.rho * params.r1_ohm_per_km
