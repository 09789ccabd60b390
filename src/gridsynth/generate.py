"""One synthetic network from one parameter draw.

A draw is one flat dict in the sub-model fits' own parameter names: the
phase model's ``base_z1`` .. ``base_zZ`` rows and the load, CAIDI, CAIFI and
line parameters. The five fits name their parameters disjointly, so draw i
of fitted ensembles is ``{n: a[i] for e in ensembles for n, a in
e.draws.items()}``; ``datasets.demo_draw()`` is the demo's ground truth in
the same format. ``network`` draws each part from its own substream of the
seed and label, so ``(draw, seed, label)`` regenerates a network bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import substream
from .lines import LineParams, attach_zabc, sample_line
from .loads import BusDemand, draw_power_factor, sample_demand
from .phases import PhaseConfig, _line_ends, allocate
from .reliability import sample_caidi, sample_caifi
from .topology import NetworkTopology, assign_zones, build_hierarchy, compute_distances

__all__ = ["Feeder", "SyntheticNetwork", "network"]


class Feeder:
    """A topology with what generation derives from it, computed once: its
    distance zones, its ramification hierarchy and each line's downstream
    bus id, in line order (the end ``phases.consistency_violations`` calls
    downstream)."""

    def __init__(self, topology: NetworkTopology, zone_count: int) -> None:
        distances = compute_distances(topology)
        self.topology = topology
        self.zones = assign_zones(distances, topology.lines, zone_count)
        self.hierarchy = build_hierarchy(topology)
        ids = topology._index.ids
        self.downstream = [ids[b] for b in _line_ends(topology, distances)[1].tolist()]


@dataclass(frozen=True)
class SyntheticNetwork:
    """One generated network, keyed by bus or line id: a configuration for
    every bus, a demand for every load bus (neither the source nor a
    ``no_load`` bus), CAIDI and CAIFI for every bus but the source, and each
    line's parameters with ``z_abc`` on its downstream bus's configuration."""

    phases: dict[str, PhaseConfig]
    demands: dict[str, BusDemand]
    caidi: dict[str, float]
    caifi: dict[str, int]
    lines: dict[str, LineParams]


def network(draw: dict, feeder: Feeder, seed: int, *label) -> SyntheticNetwork:
    """Draw phases, demand, CAIDI and CAIFI, and line parameters, in that
    order, each part from ``substream(seed, *label, part)``."""
    topo, zones = feeder.topology, feeder.zones
    base = np.stack([draw[f"base_z{z}"] for z in range(1, zones.zone_count + 1)])
    phases = allocate(topo, feeder.hierarchy, zones, base, substream(seed, *label, "phases"))

    rng = substream(seed, *label, "loads")
    pf = draw_power_factor(rng)
    demands = {
        bus.id: sample_demand(draw, phases[bus.id], rng, pf)
        for bus in topo.buses
        if bus.id != topo.source and not bus.no_load
    }

    rng = substream(seed, *label, "reliability")
    caidi, caifi = {}, {}
    for bus in topo.buses:
        if bus.id != topo.source:
            z = zones.bus_zone[bus.id]
            caidi[bus.id] = sample_caidi(draw, z, rng)
            caifi[bus.id] = sample_caifi(draw, z, rng)

    rng = substream(seed, *label, "lines")
    lines = {
        line.id: attach_zabc(sample_line(draw, zones.line_zone[line.id], rng), phases[down])
        for line, down in zip(topo.lines, feeder.downstream)
    }
    return SyntheticNetwork(phases, demands, caidi, caifi, lines)
