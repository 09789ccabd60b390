"""The generator: fit, then generate, on the demo, and the downstream end of
a line off the shortest-path tree."""

import os
import subprocess
import sys

import numpy as np
import pytest

from gridsynth.datasets import demo_draw
from gridsynth.generate import Feeder, network
from gridsynth.inference import FitConfig
from gridsynth.lines import _carson_zabc
from gridsynth.phases import PhaseConfig, consistency_violations
from gridsynth.topology import Bus, Line, NetworkTopology, compute_distances
from test_generation_stream import SEED, demo_network, fit_network

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


def test_an_off_tree_line_takes_z_abc_from_its_downstream_end():
    """Mesh line ``m`` runs from ``a`` (1 km from the source) to ``b`` (2 km,
    reached through the source), so ``b`` is its downstream end although it
    is no tree child of ``a``. Zone 1 draws only ABC and zone 2 only A."""
    topo = NetworkTopology(
        buses=tuple(map(Bus, ["s", "a", "a1", "b", "b1"])),
        lines=(
            Line("sa", "s", "a", 1.0),
            Line("sb", "s", "b", 2.0),
            Line("aa1", "a", "a1", 0.5),
            Line("bb1", "b", "b1", 0.5),
            Line("m", "a", "b", 5.0),
        ),
        source="s",
    )
    feeder = Feeder(topo, 2)
    draw = {**demo_draw(), "base_z1": np.eye(7)[PhaseConfig.ABC.index]}
    draw["base_z2"] = np.eye(7)[PhaseConfig.A.index]
    net = network(draw, feeder, 0, "mesh")
    assert (net.phases["a"], net.phases["b"]) == (PhaseConfig.ABC, PhaseConfig.A)
    m = net.lines["m"]
    np.testing.assert_array_equal(m.z_abc, _carson_zabc(m, PhaseConfig.A))

    # consistency_violations reads the same ends: with the two branches
    # swapped, only m has a downstream phase set outside its upstream one
    distances = compute_distances(topo)
    assert consistency_violations(topo, net.phases, distances) == []
    swapped = {**net.phases, "a": PhaseConfig.A, "a1": PhaseConfig.A}
    swapped.update(b=PhaseConfig.ABC, b1=PhaseConfig.ABC)
    assert consistency_violations(topo, swapped, distances) == ["m"]


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
