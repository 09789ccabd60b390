"""The generation stream across code versions.

A network drawn on the demo feeder at one seed, hashed value by value, must
keep the digest recorded here: a change to any stream, or to a sampler's
arithmetic beyond the last bits, changes it. Every value is formatted to 12
significant digits, so last-bit differences between platforms' math
libraries do not; tests/test_bit_identity.py holds the bits on one machine.
"""

import hashlib

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
from gridsynth.lines import attach_zabc, sample_line
from gridsynth.loads import draw_power_factor, sample_demand
from gridsynth.phases import allocate
from gridsynth.reliability import sample_caidi, sample_caifi
from gridsynth.topology import assign_zones, build_hierarchy, shortest_path_tree

SEED = 2024
# A change that alters the stream on purpose (batched draws, say) records its
# new digest here, as it records perfbench's new generate-demo digests.
EXPECTED_DIGEST = "f0dc0cee8139dcd1"


def demo_network_values(seed):
    """Every value of one network, drawn in ``write_demo_reference``'s order,
    with ``z_abc`` built on each line's downstream configuration."""
    topo = demo_topology()
    distances, parent = shortest_path_tree(topo)
    zones = assign_zones(distances, topo.lines, DEMO_ZONES)
    allocation = allocate(
        topo, build_hierarchy(topo), zones, DEMO_PHASE_BASE, substream(seed, "demo", "phases")
    )
    values = [allocation[b.id].name for b in topo.buses]

    rng = substream(seed, "demo", "loads")
    pf = draw_power_factor(rng)
    values.append(pf)
    for bus in topo.buses:
        if bus.id != topo.source and not bus.no_load:
            demand = sample_demand(DEMO_LOAD, allocation[bus.id], rng, pf)
            values += demand.p_kw.tolist() + demand.q_kvar.tolist()

    rng = substream(seed, "demo", "reliability")
    for bus in topo.buses:
        if bus.id != topo.source:
            z = zones.bus_zone[bus.id]
            values += [sample_caidi(DEMO_CAIDI, z, rng), sample_caifi(DEMO_CAIFI, z, rng)]

    rng = substream(seed, "demo", "lines")
    truth = _line_truth_draw()
    for line in topo.lines:
        params = sample_line(truth, zones.line_zone[line.id], rng)
        downstream = line.to_bus if parent[line.to_bus] == line.from_bus else line.from_bus
        params = attach_zabc(params, allocation[downstream])
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
