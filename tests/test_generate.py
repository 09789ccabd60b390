"""The generator: fit, then generate, on the demo, and each line's
downstream end."""

import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsynth.generate import Feeder, network
from gridsynth.inference import FitConfig
from gridsynth.phases import PhaseConfig, consistency_violations
from gridsynth.topology import compute_distances
from test_generation_stream import SEED, demo_network, fit_network
from test_topology import radial_trees

SMOKE_CONFIG = FitConfig(chains=2, warmup=60, draws=20, thin=1, seed=0)


def absent(config):
    return [i for i, p in enumerate("ABC") if p not in config.phases]


@pytest.mark.filterwarnings("ignore:R-hat above")
def test_networks_drawn_from_a_fit_are_consistent_and_complete():
    feeder, truth = demo_network(SEED)
    ensembles = [fit.ensemble for fit in fit_network(feeder, truth, SMOKE_CONFIG)]
    names = [name for e in ensembles for name in e.draws]
    assert len(names) == len(set(names))  # so merging draw i overwrites nothing
    topo = feeder.topology
    distances = compute_distances(topo)
    for i in (0, ensembles[0].size - 1):
        draw = {name: a[i] for e in ensembles for name, a in e.draws.items()}
        net = network(draw, feeder, i, "closed-loop")
        assert consistency_violations(topo, net.phases, distances) == []
        assert list(net.phases) == [b.id for b in topo.buses]
        assert list(net.demands) == list(truth.demands)
        for bus, demand in net.demands.items():
            gone = absent(net.phases[bus])
            assert not demand.p_kw[gone].any() and not demand.q_kvar[gone].any()
        assert list(net.lines) == [line.id for line in topo.lines]
        for params, down in zip(net.lines.values(), feeder.downstream):
            gone = absent(net.phases[down])
            assert not params.z_abc[gone].any() and not params.z_abc[:, gone].any()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(radial_trees(), st.integers(1, 4))
def test_downstream_is_the_end_consistency_violations_calls_downstream(topo, zone_count):
    """``Feeder`` takes each line's downstream end from the tree and
    ``consistency_violations`` from the distances: they agree on every line.
    With one bus at A and every other at ABC, the violations are exactly the
    lines whose upstream end is that bus."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        feeder = Feeder(topo, zone_count)
    distances = compute_distances(topo)
    upstream = {}
    for bus in topo.buses:
        phases = {b.id: PhaseConfig.ABC for b in topo.buses}
        phases[bus.id] = PhaseConfig.A
        upstream.update(dict.fromkeys(consistency_violations(topo, phases, distances), bus.id))
    for line, down in zip(topo.lines, feeder.downstream):
        ends = {line.from_bus, line.to_bus}
        assert ends - {upstream[line.id]} == {down}


NO_SCIPY_UNTIL_A_FIT = """
import sys
from gridsynth.datasets import DEMO_ZONES, demo_draw, demo_topology
from gridsynth.generate import Feeder, network

net = network(demo_draw(), Feeder(demo_topology(), DEMO_ZONES), 0, "no-scipy")
assert len(net.lines) == 135
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"generation loaded {loaded[:5]}"

from gridsynth.distributions import _logpdf_beta

_logpdf_beta(2.0, 3.0)
assert "scipy.special" in sys.modules, "binding a kernel did not load scipy.special"
"""


def test_generating_a_network_loads_no_scipy_until_a_kernel_is_bound():
    """A fresh interpreter imports the generator and draws the demo network
    with numpy alone; scipy loads when a fit binds its first kernel."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_UNTIL_A_FIT], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
