"""The generation, fit and feeder streams across code versions.

A network drawn on the demo feeder at one seed, hashed value by value, must
keep the digest recorded here: a change to any stream, or to a sampler's
arithmetic beyond the last bits, changes it. Two more pins hold the fits and
the feeder layers the same way: the draws of all five sub-model fits on that
network at a short ``FitConfig`` whose warm-up reaches the proposal-covariance
adaptation, and the hierarchy and allocation on a random tree of 2000 buses.
Every value is formatted to 12 significant digits, so last-bit differences
between platforms' math libraries do not; tests/test_bit_identity.py holds
the bits on one machine.
"""

import hashlib

import numpy as np
import pytest

from gridsynth.datasets import (
    DEMO_CAIDI,
    DEMO_CAIFI,
    DEMO_LOAD,
    DEMO_PHASE_BASE,
    DEMO_ZONES,
    _line_truth_draw,
    demo_topology,
)
from gridsynth.distributions import substream
from gridsynth.inference import FitConfig
from gridsynth.lines import attach_zabc, fit_line_model, sample_line
from gridsynth.loads import draw_power_factor, fit_load_model, sample_demand
from gridsynth.phases import allocate, fit_phase_model
from gridsynth.reliability import fit_caidi, fit_caifi, sample_caidi, sample_caifi
from gridsynth.topology import (
    Bus,
    Line,
    NetworkTopology,
    assign_zones,
    build_hierarchy,
    shortest_path_tree,
)

SEED = 2024
# A change that alters a stream on purpose (batched draws, say) records its
# new digest here, as it records perfbench's new digests.
EXPECTED_DIGEST = "f0dc0cee8139dcd1"
EXPECTED_FIT_DIGEST = "14db3a0f7d294632"
EXPECTED_TREE_DIGEST = "d132477927a6acb5"

# 150 sweeps: the adaptation first factors the proposal covariance after 100
# warm-up sweeps, so the last 10 warm-up sweeps and every kept draw use it
FIT_CONFIG = FitConfig(chains=2, warmup=110, draws=40, thin=2, seed=7)
TREE_BUSES = 2000


def demo_network(seed):
    """One network on the demo feeder, drawn in ``write_demo_reference``'s
    order, with ``z_abc`` built on each line's downstream configuration."""
    topo = demo_topology()
    distances, parent = shortest_path_tree(topo)
    zones = assign_zones(distances, topo.lines, DEMO_ZONES)
    allocation = allocate(
        topo, build_hierarchy(topo), zones, DEMO_PHASE_BASE, substream(seed, "demo", "phases")
    )

    rng = substream(seed, "demo", "loads")
    pf = draw_power_factor(rng)
    demands = {
        bus.id: sample_demand(DEMO_LOAD, allocation[bus.id], rng, pf)
        for bus in topo.buses
        if bus.id != topo.source and not bus.no_load
    }

    rng = substream(seed, "demo", "reliability")
    caidi, caifi = {}, {}
    for bus in topo.buses:
        if bus.id != topo.source:
            z = zones.bus_zone[bus.id]
            caidi[bus.id] = sample_caidi(DEMO_CAIDI, z, rng)
            caifi[bus.id] = sample_caifi(DEMO_CAIFI, z, rng)

    rng = substream(seed, "demo", "lines")
    truth = _line_truth_draw()
    lines = {}
    for line in topo.lines:
        params = sample_line(truth, zones.line_zone[line.id], rng)
        downstream = line.to_bus if parent[line.to_bus] == line.from_bus else line.from_bus
        lines[line.id] = attach_zabc(params, allocation[downstream])
    return {
        "topology": topo,
        "zones": zones,
        "allocation": allocation,
        "pf": pf,
        "demands": demands,
        "caidi": caidi,
        "caifi": caifi,
        "lines": lines,
    }


def demo_network_values(seed):
    """Every value of one network, in the order it was drawn."""
    net = demo_network(seed)
    values = [net["allocation"][b.id].name for b in net["topology"].buses]
    values.append(net["pf"])
    for demand in net["demands"].values():
        values += demand.p_kw.tolist() + demand.q_kvar.tolist()
    for bus, caidi in net["caidi"].items():
        values += [caidi, net["caifi"][bus]]
    for params in net["lines"].values():
        values += [params.r1_ohm_per_km, params.rho]
        values += [part for z in params.z_abc.ravel().tolist() for part in (z.real, z.imag)]
    return values


def stream_digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        text = value if isinstance(value, str) else format(value, ".12g")
        h.update(text.encode() + b";")
    return h.hexdigest()[:16]


def test_demo_generation_stream_is_pinned():
    assert stream_digest(demo_network_values(SEED)) == EXPECTED_DIGEST


@pytest.mark.filterwarnings("ignore:R-hat above")
def test_fit_streams_are_pinned():
    net = demo_network(SEED)
    zones, allocation = net["zones"], net["allocation"]
    fits = [
        fit_phase_model(allocation, zones, FIT_CONFIG),
        fit_load_model(
            {bus: d.p_kw for bus, d in net["demands"].items()}, allocation, FIT_CONFIG
        ),
        fit_caidi(net["caidi"], zones, FIT_CONFIG),
        fit_caifi(net["caifi"], zones, FIT_CONFIG),
        fit_line_model(
            {lid: p.r1_ohm_per_km for lid, p in net["lines"].items()},
            {lid: p.rho for lid, p in net["lines"].items()},
            zones,
            FIT_CONFIG,
        ),
    ]
    values = []
    for posterior in fits:
        for name, draws in posterior.ensemble.draws.items():
            values += [name, *draws.ravel().tolist()]
    assert stream_digest(values) == EXPECTED_FIT_DIGEST


def test_feeder_stream_is_pinned():
    """A random recursive tree (bus i hangs off a uniformly chosen earlier
    bus), as perfbench's feeder-tree builds it."""
    rng = substream(SEED, "feeder-tree-pin")
    lengths = np.round(0.05 + 0.45 * rng.random(TREE_BUSES - 1), 4).tolist()
    parents = (rng.random(TREE_BUSES - 1) * np.arange(1, TREE_BUSES)).astype(np.int64).tolist()
    ids = [f"b{i:04d}" for i in range(TREE_BUSES)]
    topo = NetworkTopology(
        buses=tuple(map(Bus, ids)),
        lines=tuple(
            Line(f"l{i:04d}", ids[p], ids[i], w)
            for i, p, w in zip(range(1, TREE_BUSES), parents, lengths)
        ),
        source=ids[0],
    )
    distances, _ = shortest_path_tree(topo)
    zones = assign_zones(distances, topo.lines, DEMO_ZONES)
    hierarchy = build_hierarchy(topo)
    allocation = allocate(
        topo, hierarchy, zones, DEMO_PHASE_BASE, substream(SEED, "feeder-tree-pin", "phases")
    )
    values = list(hierarchy.ramification_set)
    values += [f"{child}<{parent}" for child, parent in hierarchy.parent.items()]
    values += [f"{bus}<{ram}" for bus, ram in hierarchy.nearest_ramification.items()]
    values += [allocation[b].name for b in ids]
    assert stream_digest(values) == EXPECTED_TREE_DIGEST
