"""Demo reference writer: files, topology round trip and table invariants."""

import csv
import os

import pytest

from gridsynth.datasets import demo_topology, write_demo_reference
from gridsynth.distributions import substream
from gridsynth.phases import PhaseConfig, consistency_violations
from gridsynth.topology import Bus, Line, NetworkTopology, compute_distances, load_topology

TABLES = ("phases", "loads", "reliability", "lines")


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return write_demo_reference(str(tmp_path_factory.mktemp("demo")), seed=7)


def test_writes_five_files(reference):
    assert set(reference) == {"topology", *TABLES}
    assert all(os.path.isfile(p) for p in reference.values())


def test_topology_round_trips(reference):
    assert load_topology(reference["topology"]) == demo_topology()


def test_written_phases_are_consistent(reference):
    topo = demo_topology()
    phases = {r["bus_id"]: PhaseConfig.from_name(r["phase"]) for r in _rows(reference["phases"])}
    assert set(phases) == set(topo.bus_ids)
    assert consistency_violations(topo, phases, compute_distances(topo)) == []


def test_written_loads_are_zero_on_absent_phases(reference):
    phases = {r["bus_id"]: PhaseConfig.from_name(r["phase"]) for r in _rows(reference["phases"])}
    loads = _rows(reference["loads"])
    assert loads
    for row in loads:
        present = phases[row["bus_id"]].phases
        for p in "ABC":
            if p not in present:
                assert float(row[f"p_kw_{p.lower()}"]) == 0.0


def _contents(paths):
    out = {}
    for name, path in paths.items():
        with open(path, "rb") as fh:
            out[name] = fh.read()
    return out


def test_same_seed_is_byte_identical_and_other_seed_differs(reference, tmp_path):
    again = _contents(write_demo_reference(str(tmp_path / "again"), seed=7))
    other = _contents(write_demo_reference(str(tmp_path / "other"), seed=8))
    first = _contents(reference)
    assert again == first
    assert other["topology"] == first["topology"]
    assert all(other[t] != first[t] for t in TABLES)


def scalar_demo_topology():
    """The demo feeder as it was first built: one scalar uniform per segment,
    drawn as each bus is added."""
    rng = substream(811, "demo-topology")
    buses = [Bus("sub")]
    lines = []

    def add(bus_id, parent, no_load=False):
        buses.append(Bus(bus_id, no_load=no_load))
        length = round(0.25 + 0.30 * float(rng.random()), 4)
        lines.append(Line(f"l_{bus_id}", parent, bus_id, length))

    prev = "sub"
    for i in range(1, 19):
        add(f"t{i:02d}", prev, no_load=i in (6, 12))
        prev = f"t{i:02d}"
    for k, anchor_i in enumerate(range(2, 19, 2), start=1):
        prev = f"t{anchor_i:02d}"
        mains = []
        for j in range(1, 8):
            add(f"f{k}{j:02d}", prev)
            mains.append(f"f{k}{j:02d}")
            prev = mains[-1]
        for start, letter, count in ((mains[2], "s", 4), (mains[4], "p", 2)):
            prev = start
            for j in range(1, count + 1):
                add(f"{letter}{k}{j:02d}", prev)
                prev = f"{letter}{k}{j:02d}"
    return NetworkTopology(buses=tuple(buses), lines=tuple(lines), source="sub")


def test_demo_topology_matches_the_scalar_draws():
    topo, expected = demo_topology(), scalar_demo_topology()
    assert len(topo.buses) == 136
    assert repr(topo.buses) == repr(expected.buses)
    assert repr(topo.lines) == repr(expected.lines)
